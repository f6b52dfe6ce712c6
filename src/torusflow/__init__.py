"""Certified flows and Lie-group evolutions of analytic vector fields on the torus."""

__version__ = "0.1.0"

from .errors import (AdmissibilityViolation, Check, ContractionStall,
                     DomainEscape, EmptyLevel, InvertibilityLost,
                     NoPositiveRadius, NonContraction, OutOfRange,
                     RealityDefect, ScaleMismatch, TorusflowError,
                     TruncationBudgetExceeded)
from .fourier import (FourierMap, JacobianField, MapStack, NormReport,
                      compose, imag_reach, jacobian, multiply, restrict,
                      strip_norms)
from .timepaths import (ACPath, AffineRule, SelfCompositionRule,
                        TimeDependentField, TimeGrid, ac_postcompose,
                        integrate_primitive)
from .flow import (AdmissibleField, FlowPath, identity_path,
                   param_lipschitz_check, pointwise_solution,
                   restriction_consistency, solve_checks, solve_flow)
from .charts import (InverseChartCert, LocalAddition, chart_roundtrip_defect,
                     find_delta0, flow_to_chart, invert_local)
from .group import (AnalyticDiffeo, EvolutionResult, adjoint, compose_diffeo,
                    derivative_at_eta, derivative_at_zero, evol_left,
                    evol_left_by_reversal, evol_right, exp_field,
                    flow_two_param, invert_diffeo, odot, trotter_curve,
                    verify_evolution_pointwise)
from .pullback import (PullbackMatrix, contravariance_defect,
                       pullback_apply, pullback_matrix, pullback_path)
from .limits import (LevelLipschitzCert, LinearScaleMap, PointwiseSquareMap,
                     ScaleLevel, cauchy_bound_check, make_levels,
                     third_ball_lipschitz, verify_continuity_estimate)
