"""Contraction solver for the flow integral equation on the torus.

For an admissible time-dependent field ``gamma`` (L^1-in-time beta-majorant
below 1/2 at twice the working half-width) the map

    P(eta)(t) = id + int_0^t gamma(s) o eta(s) ds

is a contraction on continuous paths of near-identity maps, with Lipschitz
constant bounded by the certificate

    theta_hat = ||gamma||_{L^1, beta_{2 eps}} < 1/2.

Iterating P from the identity path converges geometrically to the unique
solution ``zeta``; the perturbations ``u(t) = zeta(t) - id`` are stored as
snapshots on a time grid together with one polynomial piece per interval
(the integral of a cubic collocation fit of s -> gamma(s) o zeta(s), so
time integration is closed-form).  The iteration log records the observed
sup-distances and their ratios, which must respect the certified
contraction factor; a sweep that breaks it by no more than its measured
rounding is decided where it happens, by halving the grid when that can
mend it (``solve_flow``).  Two solved parameter values can never drift
apart by more than twice their L^1 distance, which is checked by
``param_lipschitz_check``.

The reported ``residual`` estimates the distance to the exact flow at all
times, not only to the discrete fixed point.  After the iteration stops,
one defect pass evaluates gamma o zeta of the next-to-last iterate at the
nodes of the 4-point Gauss-Legendre rule of ``TimeGrid.quadrature`` (exact
to degree 7, where the cubic collocation is exact to degree 3); against
the cubic the last sweep fitted it gives the defect D over whole
intervals, and the a posteriori form of Banach's fixed-point theorem
bounds the distance to the solution by (last step + D) / (1 - theta_hat).
It is a bound up to the error of the rule on an integrand that is not a
polynomial, and of taking the last step at the grid times and the Gauss
nodes.  The grid follows the one grid policy of ``TimeGrid``: it starts
from the field's breakpoints (refined to ``max_step`` when one is given)
and halves, solving again from the path it has, each interval whose
share of D exceeds its share of the budget tol_solve (1 - theta_hat),
never below ``STEP_FLOOR``.

One sweep engine applies P for m = 1 and m = 2 alike; ``solve_flow``
drives it.  A sweep is one call of ``fourier.compose``, the one
composition kernel, on the stacks of the field and of u at every
collocation node, except from the identity path, where gamma o id is the
field at the nodes and nothing is composed; it checks, at every node,
that id + u maps the working strip into the doubled strip where the
field's majorants are certified (DomainEscape), that u is real on the real
grid (RealityDefect, read from its coefficients), and that the spectral
tail discarded by truncation stays within budget (TruncationBudgetExceeded).
The field, re-expressed on the solver grid, which must hold its
breakpoints, and u are both read at the nodes by ``node_values``;
``pointwise_solution`` uses ``TimeGrid.quadrature``.
``invert_at_point``, the one solver of x + u(x) = y, solves it for every
map of a FourierMap of any batch shape at once, each map to its own
stopping test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (AdmissibilityViolation, Check, ContractionStall,
                     DomainEscape, NonContraction, OutOfRange)
from .fourier import (OVERSAMPLE, TOL_TRUNC, CompositionPlan, FourierMap,
                      MapStack, _modes_to_json, _wrap, compose, imag_reach,
                      majorants)
from .timepaths import (FIT_NODES, GAUSS_NODES, TimeDependentField, TimeGrid,
                        _derivative, node_integral, node_values, pieces_on, read_pieces)

#: default solver tolerance, measured in nu_eps of snapshot differences
TOL_SOLVE = 1e-10
#: slack for the parameter-Lipschitz-2 contract
TOL_SLACK = 1e-6
#: default tolerance for pointwise trajectory residuals
TOL_POINTWISE = 1e-8
#: admissibility thresholds
BETA_BOUND = 0.5
#: ``invert_at_point`` stops a map once no step at its points exceeds this
TOL_POINT_STEP = 1e-13
#: ``invert_at_point`` gives up after this many steps
MAX_POINT_STEPS = 200


@dataclass(frozen=True)
class AdmissibleField:
    """A field together with the certificates that admit the local solver.

    ``l1_beta`` is the L^1-in-time beta majorant at half-width ``2 eps``
    (must be < 1/2); ``l1_nu`` the L^1 nu majorant at the same width, which
    must be < delta0/4 when the field is flagged for chart transport.
    """

    field: TimeDependentField
    eps: float
    l1_beta: float
    l1_nu: float
    chart_delta0: float = 1.0
    for_chart: bool = False

    @classmethod
    def certify(cls, field: TimeDependentField, eps: float,
                chart_delta0: float = 1.0,
                for_chart: bool = False) -> "AdmissibleField":
        l1_beta = field.lp_norm(1, "beta", 2 * eps)
        l1_nu = field.lp_norm(1, "nu", 2 * eps)
        # an overflowing strip weight is a numerical fault, not a verdict
        for name, norm in (("beta", l1_beta), ("nu", l1_nu)):
            if not np.isfinite(norm):
                raise OutOfRange(f"L1 {name} norm {norm:.6g} at width "
                                 f"{2 * eps:.6g} is not finite")
        if not l1_beta < BETA_BOUND:
            raise AdmissibilityViolation(
                f"L1 beta norm {l1_beta:.6g} at width {2 * eps:.6g} is not "
                f"below the admissibility bound {BETA_BOUND}")
        if for_chart and not l1_nu < chart_delta0 / 4:
            raise AdmissibilityViolation(
                f"L1 nu norm {l1_nu:.6g} is not below delta0/4 = "
                f"{chart_delta0 / 4:.6g} required for chart transport")
        return cls(field, float(eps), l1_beta, l1_nu, chart_delta0, for_chart)

    @property
    def theta_hat(self) -> float:
        return self.l1_beta

    def negated(self) -> "AdmissibleField":
        return AdmissibleField.certify(-self.field, self.eps,
                                       self.chart_delta0, self.for_chart)

    def scaled(self, a: float) -> "AdmissibleField":
        return AdmissibleField.certify(a * self.field, self.eps,
                                       self.chart_delta0, self.for_chart)


class FlowPath:
    """Solution path zeta(t) = id + u(t) of the flow integral equation.

    ``snapshots`` hold u at the grid times (u(0) = 0) as a MapStack and
    ``pieces`` the local polynomial of u on each interval as one array
    (intervals, degree + 1) + map shape, so zeta can be evaluated at any t
    in [0, 1].  ``iteration_log`` rows are (step, sup_diff, ratio) of the
    kept sweeps, and last of a sweep excused as rounding on a grid that
    could not be halved (``solve_flow``); ``residual`` estimates the nu_eps
    distance to the exact flow over all times (the last step of a pinned
    solve).
    """

    def __init__(self, grid: TimeGrid, eps: float, snapshots, pieces,
                 source: AdmissibleField | None = None,
                 iteration_log=None, residual: float = np.nan):
        self.grid = grid
        self.eps = float(eps)
        self.snapshots = MapStack(snapshots, check=False)
        self.pieces = np.asarray(pieces, dtype=complex)
        self.source = source
        self.iteration_log = list(iteration_log or [])
        self.residual = residual
        self.m = self.snapshots.m
        self.order = self.snapshots.order

    def u_at_many(self, times) -> FourierMap:
        """u at many times, as maps of the batch shape of ``times``."""
        return read_pieces(self.pieces, self.grid, times, self.m)

    def u_at(self, t: float) -> FourierMap:
        return self.u_at_many(t)

    def sup_distance(self, other: "FlowPath", eps: float | None = None) -> float:
        """max over grid times of nu_eps(u(t) - u_other(t)); both paths
        must be on one grid (``solve_flow(grid=...)``)."""
        if other.grid != self.grid:
            raise ValueError("the paths are on different grids")
        eps = eps if eps is not None else self.eps
        return _sup_distance(self.snapshots.coeffs, other.snapshots.coeffs,
                             eps)

    def imag_reach_max(self) -> float:
        """Certified bound on ||Im zeta(t)(z)|| over starts ||Im z|| <=
        eps/2 and all t in [0, 1]: the majorants of the coefficients
        sum_d |c_{j,d}| bound those of piece j at every tau in [0, 1]."""
        bound = _wrap(np.abs(self.pieces).sum(axis=1), self.m)
        return float(imag_reach(bound, self.eps / 2).max())

    def strip_check(self) -> Check:
        """Flows started in the half strip stay strictly inside the full strip."""
        return Check("strip_invariant", self.imag_reach_max(), self.eps,
                     strict=True)

    def check_strip_invariant(self) -> bool:
        return self.strip_check().ok

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "grid": [str(b) for b in self.grid.breakpoints],
            "snapshots": _modes_to_json(self.snapshots.coeffs, self.m,
                                        self.order),
            "residual": self.residual,
        }


def _field_plan(field: TimeDependentField, values: np.ndarray) -> CompositionPlan:
    """The ``CompositionPlan`` of the field's maps ``values``, a stack."""
    return CompositionPlan(_wrap(values, field.m), field.order,
                           OVERSAMPLE * (2 * field.order + 1))


def _one_map_plan(field: TimeDependentField) -> CompositionPlan | None:
    """The plan of a field that is one map at all times (every piece
    constant, with one set of bits), which serves every solver grid; None
    for any other field."""
    pieces = field.pieces
    bits = np.ascontiguousarray(pieces).view(np.int64)
    if pieces.shape[1] > 1 or not (bits[1:] == bits[:1]).all():
        return None
    return _field_plan(field, pieces[0, 0])


def _sup_distance(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """max over a stack axis of nu_eps(a_t - b_t)."""
    return float(majorants(a - b, a.ndim - 2, eps)[0].max())


def identity_path(gamma: AdmissibleField, max_step=1,
                  grid: TimeGrid | None = None) -> FlowPath:
    """The path u = 0 on ``grid``, by default on the solver's start grid:
    the field's breakpoints, refined to ``max_step``."""
    f = gamma.field
    grid = grid if grid is not None else f.grid.refined(max_step)
    shape = (2 * f.order + 1,) * f.m + (f.ncomp,)
    return FlowPath(grid, gamma.eps, np.zeros((len(grid),) + shape, complex),
                    np.zeros((len(grid) - 1, 1) + shape, complex), source=gamma)


# ---------------------------------------------------------------------------
# one application of the integral-equation map
# ---------------------------------------------------------------------------

class _PicardSweep:
    """The integral-equation map on one solver grid, for m in {1, 2}.

    Built once per grid from the field, re-expressed on a grid that holds
    its breakpoints (else a cubic is fitted across a jump) and read at the
    4 collocation nodes of every interval by ``node_values``, with one
    ``CompositionPlan`` of that field stack, or the solve's one plan of a
    field that is one map at all times (``_one_map_plan``).  A sweep reads u
    at the same nodes by the same reader, composes the field with id + u
    node by node in one ``compose`` call, which checks the reach from the
    working strip into the doubled strip, the reality of u and the
    truncation tail at every node, and integrates the cubic through the
    node values of each interval by one fixed (5, 4) table
    (``node_integral``).  The sweep of the identity path integrates the
    field stack itself: gamma o id is gamma, ``compose`` returns its bits
    for u = 0, and u = 0 passes every check.  ``defect`` measures the sweep
    against the exact map by one more ``compose`` at the Gauss nodes, read
    alike, with the weights of ``TimeGrid.quadrature``; it builds that
    plan once, or takes the sweep's plan for pieces constant in time (the
    same at any nodes), and takes every majorant it needs in one call.
    ``rounding`` measures the rounding level of a sweep that grows or
    breaks the ratio certificate by one more sweep.
    """

    def __init__(self, gamma: AdmissibleField, grid: TimeGrid,
                 plan: CompositionPlan | None):
        gam = gamma.field
        if gam.ncomp != gam.m:
            raise ValueError("the field must be a self-map displacement field")
        if not set(gam.grid.breakpoints) <= set(grid.breakpoints):
            raise ValueError("the path grid lacks breakpoints of the field grid")
        self.gamma, self.grid = gamma, grid
        self.h = np.diff(grid.floats)
        self.field_pieces = pieces_on(gam.pieces, gam.grid, grid)
        self.nodes = node_values(self.field_pieces, FIT_NODES)
        self.plan = plan if plan is not None else _field_plan(gam, self.nodes)
        self.gauss = None       # the defect pass's weights and plan

    def _compose(self, plan: CompositionPlan, u: np.ndarray) -> np.ndarray:
        """gamma o (id + u) node by node, for u at the nodes of the plan's
        field stack."""
        eps = self.gamma.eps
        return compose(plan, _wrap(u, plan.m), tol_trunc=TOL_TRUNC,
                       outer_scale=2 * eps, inner_scale=eps).coeffs

    def run(self, pieces):
        """New (snapshots, pieces) arrays from the pieces of a candidate
        path; from the identity path (every piece zero), without a compose."""
        if not pieces.any():
            return self._integrate(self.nodes)
        return self._integrate(self._compose(self.plan, node_values(pieces, FIT_NODES)))

    def _integrate(self, kept: np.ndarray):
        """Integrate the cubic through the node values of every interval."""
        J, Q, shape = len(self.h), len(FIT_NODES), kept.shape[1:]
        # tau -> h_j * int_0^tau p_j, then shifted by the snapshot at t_j
        anti = node_integral(kept, self.h).reshape(J, Q + 1, -1)
        snaps = np.zeros((J + 1, anti.shape[2]), dtype=complex)
        np.cumsum(anti.sum(axis=1), axis=0, out=snaps[1:])
        anti[:, 0] = snaps[:-1]
        return snaps.reshape((J + 1,) + shape), anti.reshape((J, Q + 1) + shape)

    def defect(self, pieces, out):
        """(local, D, step): the defect of ``out``, the pieces of the sweep
        of ``pieces``, against the exact integral of the field along
        ``pieces``, and the step between the two paths inside the intervals.

        One ``compose`` gives gamma o (id + u) at the 4 Gauss-Legendre
        nodes of ``TimeGrid.quadrature`` on every interval; r is its
        difference from the cubic that the sweep fitted there.  ``local``
        holds h_j sum_q w_q nu_eps(r_q), the rule's value of the integral
        of nu_eps(r) over interval j, which bounds nu_eps of the defect
        gathered inside that interval at every time in it; D is the max
        over intervals of nu_eps of the defect summed up to t_j plus
        ``local``, the sup over all times in [0, 1].  ``step`` is the max
        of nu_eps(out - u) at the same nodes.  One ``majorants`` call takes
        the three, as each map gets the same bits in any stack.
        """
        if self.gauss is None:
            ts = self.grid.floats
            w = self.grid.quadrature(ts[:-1], ts[1:])[2]
            constant = self.field_pieces.shape[1] == 1
            self.gauss = (w, w.reshape(w.shape + (1,) * (self.plan.m + 1)),
                          self.plan if constant else _field_plan(
                              self.gamma.field,
                              node_values(self.field_pieces, GAUSS_NODES)))
        w, w_maps, plan = self.gauss
        u = node_values(pieces, GAUSS_NODES)
        r = self._compose(plan, u) - node_values(_derivative(out, self.h),
                                                 GAUSS_NODES)
        err = (w_maps * r.reshape(w.shape + r.shape[1:])).sum(axis=1)
        before = np.cumsum(err, axis=0) - err
        nodes = r.shape[0]
        nu = majorants(np.concatenate(
            [r, before, node_values(out, GAUSS_NODES) - u]), plan.m,
            self.gamma.eps)[0]
        local = (w * nu[:nodes].reshape(w.shape)).sum(axis=1)
        D = float((nu[nodes:nodes + len(w)] + local).max())
        return local, D, float(nu[nodes + len(w):].max())

    def rounding(self, pieces, snaps) -> float:
        """The measured rounding level of ``snaps``, the sweep of
        ``pieces``: its sup distance to the sweep of the pieces scaled by
        1 + 2^-40, which draws fresh rounding and moves the exact result
        by less than theta_hat 2^-40 times the size of u."""
        again = self.run(pieces * (1 + 2.0 ** -40))[0]
        return _sup_distance(again, snaps, self.gamma.eps)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_flow(gamma: AdmissibleField, tol_solve: float = TOL_SOLVE,
               max_step=1, max_iter: int = 200,
               start: FlowPath | None = None,
               fixed_iters: int | None = None,
               grid: TimeGrid | None = None) -> FlowPath:
    """Iterate the integral-equation map from the identity path to its fixed point.

    The sweep of the identity path composes nothing; every other sweep and
    every defect pass composes once (``_PicardSweep``).

    Sweeps stop when successive sup-distances (nu_eps over grid times) drop
    below ``tol_solve * (1 - theta_hat)``; a defect pass then estimates the
    distance to the exact flow over all times by (last step + D) /
    (1 - theta_hat), which ``residual`` reports (D as in
    ``_PicardSweep.defect``, the last step at the grid times and at the
    Gauss nodes).  Only while that estimate exceeds ``tol_solve`` does the
    solve go on: it halves the intervals whose defect exceeds their share
    of the budget and solves again from the path it has, or sweeps again
    when D leaves room; an estimate still above ``tol_solve`` at the grid
    floor is reported as it is.  Growing sweep distances raise NonContraction: the
    certificate guarantees observed ratios below theta_hat in exact
    arithmetic, so growth signals a certificate or truncation bug.  But few
    long intervals average the rounding of their nodes less, so on a grid
    that may still be halved a sweep that grows or breaks the ratio
    certificate is measured once (``_PicardSweep.rounding``).  If its step
    exceeds theta_hat times the step before it by no more than
    ROUNDING_SPAN rounding levels, it is rounding: the sweep is not kept,
    sweeping on that grid ends, and the defect pass of the last kept sweep
    decides where to halve; when it halves nothing, the excused sweep is
    logged and the solve ends, so ``contraction_check`` reads it.  Any
    other such sweep is judged as on a given grid: growth raises, and a
    ratio break is kept and logged, which fails ``contraction_check``.
    The log holds the kept sweeps; the first sweep on each grid logs no
    ratio.

    The grid starts from the field's breakpoints refined to ``max_step``,
    or from the grid of ``start``.  A given ``grid`` is kept as it is: the
    two solves of a pair that compares snapshots or differences take the
    grid of the first.  ``fixed_iters`` pins the sweep count (no stopping,
    growth test, defect pass or refinement): derivative probes need the
    solution to vary smoothly with parameters, which tolerance-based
    stopping would break; ``residual`` is then the last step.
    """
    theta = gamma.theta_hat
    target = tol_solve * (1 - theta)
    refine = grid is None
    if start is None:
        start = identity_path(gamma, max_step, grid)
    elif grid is not None and start.grid != grid:
        raise ValueError("the start path is not on the given grid")
    grid, snaps, pieces = start.grid, start.snapshots.coeffs, start.pieces
    plan = _one_map_plan(gamma.field)       # None: one plan per grid
    sweep = _PicardSweep(gamma, grid, plan)
    if fixed_iters is not None:
        log, step = [], None
        for _ in range(fixed_iters):
            new_snaps, pieces = sweep.run(pieces)
            step = _sup_distance(new_snaps, snaps, gamma.eps)
            snaps = new_snaps
            log.append((len(log) + 1, step, float("nan")))
        return FlowPath(grid, gamma.eps, snaps, pieces, source=gamma,
                        iteration_log=log, residual=step)
    # step: the last kept sweep's distance on this grid, inp: its input
    log, step, goal = [], None, target
    while True:
        excused = None
        for _ in range(max_iter - len(log)):
            new_snaps, new_pieces = sweep.run(pieces)
            diff = _sup_distance(new_snaps, snaps, gamma.eps)
            ratio = diff / step if step else float("nan")
            noise_floor = NOISE_UNIT * max(1.0, float(np.abs(new_snaps).max()))
            if step is not None:
                grew = diff > step and diff > 16 * noise_floor
                if refine and (grew or _breaks_ratio(diff, ratio, theta)) and (
                        diff - theta * step
                        <= ROUNDING_SPAN * sweep.rounding(pieces, new_snaps)):
                    # rounding: not kept, and halving may mend it
                    excused = (len(log) + 1, diff, ratio)
                    break
                if grew:
                    raise NonContraction(
                        f"observed ratio {ratio:.3f} >= 1 at step "
                        f"{len(log) + 1} (certificate theta_hat = {theta:.3f})")
            inp, snaps, pieces, step = pieces, new_snaps, new_pieces, diff
            log.append((len(log) + 1, diff, ratio))
            if diff <= max(goal, noise_floor):
                break
        else:
            raise ContractionStall(
                f"no convergence within {max_iter} iterations")
        local, defect, inside = sweep.defect(inp, pieces)
        # the step inside the intervals too; a NaN reaches the residual
        last = float(np.max([step, inside]))
        residual = (last + defect) / (1 - theta)
        if residual <= tol_solve:
            break
        finer = grid.halved(local / (sweep.h * target)) if refine else grid
        if finer != grid:       # solve again from the path, re-expressed
            pieces = pieces_on(pieces, grid, finer)
            snaps = np.concatenate([pieces[:, 0], snaps[-1:]])
            grid, step, goal = finer, None, target
            sweep = _PicardSweep(gamma, grid, plan)
        elif excused:           # halving cannot mend it: log it for the check
            log.append(excused)
            break
        elif defect < target and last > max(target - defect, noise_floor):
            # the grid-time step that brings the last step within the room
            goal = (target - defect) * step / last
        else:
            break
    return FlowPath(grid, gamma.eps, snaps, pieces, source=gamma,
                    iteration_log=log, residual=residual)


#: the stop and growth tests' floor per unit of the largest coefficient
NOISE_UNIT = 64 * np.finfo(float).eps
#: logged steps at or below this size are rounding: their ratios say nothing
RATIO_FLOOR = 1e3 * np.finfo(float).eps
#: the contraction certificate's slack over theta_hat
RATIO_SLACK = 0.05
#: an excused sweep's step may exceed theta_hat times the step before it
#: by this many measured rounding levels: the two sweeps it compares each
#: carry their own rounding
ROUNDING_SPAN = 2.0


def _counted(diff: float, ratio: float) -> bool:
    """Whether an observed ratio speaks: finite, on a step above the floor."""
    return diff > RATIO_FLOOR and np.isfinite(ratio)


def _breaks_ratio(diff: float, ratio: float, theta: float) -> bool:
    """An observed ratio that speaks and exceeds theta_hat + slack."""
    return _counted(diff, ratio) and ratio > theta + RATIO_SLACK


def max_contraction_ratio(path: FlowPath) -> float:
    """The largest observed ratio that the certificate tests (0 when there
    is none): the logged ones from step 2 onward."""
    return max((ratio for _, diff, ratio in path.iteration_log[1:]
                if _counted(diff, ratio)), default=0.0)


def contraction_check(path: FlowPath) -> Check:
    """``max_contraction_ratio`` against theta_hat + RATIO_SLACK."""
    return Check("contraction_ratios", max_contraction_ratio(path),
                 path.source.theta_hat + RATIO_SLACK)


def contraction_certificate_ok(path: FlowPath) -> bool:
    return contraction_check(path).ok


def solve_checks(path: FlowPath, tol_solve: float = TOL_SOLVE) -> tuple:
    """The residual, contraction, strip and endpoint checks of a solved
    path; mu_eps(u(1)) < 1 certifies the endpoint map invertible."""
    end = float(majorants(path.snapshots.coeffs[-1], path.m, path.eps)[1])
    return (Check("residual", path.residual, tol_solve), contraction_check(path),
            path.strip_check(), Check("endpoint_mu", end, 1.0, strict=True))


def sweep_check(checks) -> Check:
    """The contraction checks of many solves as one; theta_hat < 1/2 keeps
    every ratio of a passing sweep below 0.55."""
    return Check.worst("sweep_contraction",
                       [(c.value, c.bound) for c in checks])


@dataclass(frozen=True)
class LipschitzReport:
    sup_distance: float
    l1_distance: float
    ratio: float
    bound: float = 2.0

    @property
    def check(self) -> Check:
        return Check("param_lipschitz", self.ratio, self.bound + TOL_SLACK)


def param_lipschitz_check(g1: AdmissibleField,
                          g2: AdmissibleField) -> LipschitzReport:
    """Observed flow distance against twice the L^1 field distance."""
    if abs(g1.eps - g2.eps) > 1e-15:
        raise ValueError("fields must share the working half-width")
    # the same certified fields, re-expressed on one grid so snapshots
    # align, both solved from the identity on the grid of a solve of the
    # first: equal fields give equal paths
    grid = g1.field.grid.merged(g2.field.grid)
    g1, g2 = (replace(g, field=g.field.on_grid(grid)) for g in (g1, g2))
    grid = solve_flow(g1).grid
    p1, p2 = (solve_flow(g, grid=grid) for g in (g1, g2))
    sup = p1.sup_distance(p2, g1.eps)
    l1 = (g2.field - g1.field).lp_norm(1, "nu", 2 * g1.eps)
    ratio = 0.0 if sup == 0 else (np.inf if l1 == 0 else sup / l1)
    return LipschitzReport(sup_distance=sup, l1_distance=l1, ratio=ratio)


# ---------------------------------------------------------------------------
# pointwise Caratheodory trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    points: np.ndarray
    residuals: np.ndarray
    tol: float

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())

    @property
    def check(self) -> Check:
        return Check("pointwise_trajectory", self.max_residual, self.tol)


def invert_at_point(u: FourierMap, y: np.ndarray) -> np.ndarray:
    """Solve x + u(x) = y pointwise by the displacement contraction.

    Every map of ``u`` is solved at once, at its own points y (batch +
    (P, m)) or at points (..., m) shared by all, as ``u.eval`` takes them;
    x has the shape of ``u.eval(y)``.  Each map stops on its own test, max
    |step| <= TOL_POINT_STEP over its points, so a batch gives what each
    map gives alone.
    """
    y, lead = u._points(np.asarray(y))
    stack = u.flat()
    y = np.broadcast_to(y, (len(stack),) + y.shape[1:])
    x = y.copy()
    live, maps = np.arange(len(stack)), stack
    for _ in range(MAX_POINT_STEPS):
        step = y[live] - x[live] - maps.eval(x[live])
        x[live] += step
        done = np.abs(step).reshape(len(live), -1).max(axis=1) <= TOL_POINT_STEP
        if done.all():
            return x.reshape(lead + (u.m,))
        if done.any():
            live = live[~done]
            maps = _wrap(stack.coeffs[live], u.m)
    raise ContractionStall("pointwise inversion did not converge")


def pointwise_solution(flow: FlowPath, t0: float, y0) -> Trajectory:
    """Trajectory t -> Fl_{t, t0}(y0) with its integral-equation residuals.

    The residual at each grid time re-checks the scalar Caratheodory
    equation y(t) = y0 + int_{t0}^t gamma(s)(y(s)) ds by Gauss quadrature
    along the stored path; the path and the field are evaluated at all
    quadrature nodes at once.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=complex))
    if y0.shape != (flow.m,):
        raise ValueError(f"y0 must be one point of T^{flow.m}")
    if np.abs(y0.imag).max() > flow.eps / 2 + 1e-15:
        raise DomainEscape(
            f"start point leaves the half-width-{flow.eps / 2:.6g} region")
    base = y0 if t0 == 0.0 else invert_at_point(flow.u_at(t0), y0)
    ts = flow.grid.floats
    pts = base + flow.u_at_many(ts).eval(base)
    # every grid interval, then [t_{j0}, t0]: one overlap per owner at most
    j0 = flow.grid.interval_of(t0)
    i, s, w = flow.grid.quadrature(np.append(ts[:-1], ts[j0]),
                                   np.append(ts[1:], t0))
    y_s = base + flow.u_at_many(s).eval(base)
    g_vals = flow.source.field.values_at(s).eval(y_s[..., None, :])[..., 0, :]
    pieces = np.zeros((len(ts), flow.m), dtype=complex)
    pieces[i] = (w[..., None] * g_vals).sum(axis=1)
    cumulative = np.zeros_like(pts)
    np.cumsum(pieces[:-1], axis=0, out=cumulative[1:])
    residuals = np.abs(pts - y0[None, :] - (
        cumulative - (cumulative[j0] + pieces[-1])[None, :])).max(axis=1)
    return Trajectory(times=ts, points=pts, residuals=residuals,
                      tol=TOL_POINTWISE)


# ---------------------------------------------------------------------------
# restriction consistency across scales
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionReport:
    eps: float
    delta: float
    discrepancy: float
    tol: float

    @property
    def check(self) -> Check:
        return Check("restriction", self.discrepancy, self.tol)


def restriction_consistency(p_eps: FlowPath, delta: float) -> RestrictionReport:
    """Solve the field of ``p_eps``, a path solved at eps, at delta < eps
    with identical truncation; compare.

    Restriction does not change Fourier data, only the scale at which the
    certificates are quoted, so the two perturbation paths must agree to
    solver tolerance.  The solve at delta takes the grid of ``p_eps``, so
    the snapshots compare time by time.
    """
    gamma = p_eps.source
    if not 0 < delta < gamma.eps:
        raise ValueError("need 0 < delta < eps")
    g_delta = AdmissibleField.certify(gamma.field, delta,
                                      gamma.chart_delta0, gamma.for_chart)
    p_delta = solve_flow(g_delta, grid=p_eps.grid)
    worst = float(np.abs(p_eps.snapshots.coeffs
                         - p_delta.snapshots.coeffs).max())
    return RestrictionReport(eps=gamma.eps, delta=delta, discrepancy=worst,
                             tol=10 * TOL_SOLVE)
