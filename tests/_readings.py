"""Readings that only the tests take of the package's objects.

Each of these reads a result the package returns, or builds an input the
package takes, without being part of the package's own computations: the
fibre Jacobian defect of a local addition, the step factors of a local
inversion, a constant scale map, the largest observed continuity ratio,
the least real Jacobian of a diffeomorphism, a field with a scalar time
profile, the Richardson ratio of a derivative probe, a flow applied to
points, and the maps of an evolution at a time or a grid index.
"""

import numpy as np

from torusflow.fourier import FourierMap, strip_norms
from torusflow.group import (AnalyticDiffeo, _jacobian_values, _probe_points,
                             invert_diffeo)
from torusflow.limits import LevelLipschitzCert, ScaleMap
from torusflow.timepaths import (FIT_NODES, TimeDependentField, TimeGrid,
                                 fit_poly3)


def fiber_jacobian_defect(alpha, z, w) -> np.ndarray:
    """h(z, w) = ||d_w alpha - id||_op of a LocalAddition at each point
    (max-norm rows)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    rows = np.zeros(w.shape[:-1] + (alpha.m, alpha.m), dtype=complex)
    for p, coeff in alpha.terms:
        cv = coeff.eval(z)
        for j, q in enumerate(p):
            if not q:
                continue
            mono = np.ones(w.shape[:-1], dtype=complex) * q
            for axis, r in enumerate(p):
                e = r - 1 if axis == j else r
                if e:
                    mono = mono * w[..., axis] ** e
            rows[..., :, j] += cv * mono[..., None]
    return np.abs(rows).sum(axis=-1).max(axis=-1)


def step_factors(res) -> np.ndarray:
    """The ratios of successive residuals of an InversionResult."""
    r = np.asarray(res.residuals)
    good = r[:-1] > 0
    return r[1:][good] / r[:-1][good]


class ConstantScaleMap(ScaleMap):
    """The scale map u -> value: Lipschitz constant 0."""

    def __init__(self, value: FourierMap):
        self.value = value

    def apply(self, c):
        value = self.value.coeffs[:, 0]
        return np.broadcast_to(value, c.shape[:-1] + value.shape)

    def lipschitz_certs(self, levels, p_eps):
        return [LevelLipschitzCert(lv.index, 0.0, "constant map")
                for lv in levels]

    def sup_bound(self, level, p_eps):
        return strip_norms(self.value, p_eps).nu


def max_observed(rep) -> float:
    """The largest observed ratio of a ContinuityReport's rows."""
    return max((r[3] for r in rep.rows), default=0.0)


def min_real_jacobian(phi: AnalyticDiffeo) -> float:
    """min over 256 sampled real points of the Jacobian determinant."""
    J = _jacobian_values(phi.u, _probe_points(phi.m, 256))
    if phi.m == 1:
        return float(J[..., 0, 0].real.min())
    det = (J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]).real
    return float(det.min())


def field_from_profile(f: FourierMap, profile, scale: float,
                       n_pieces: int = 64) -> TimeDependentField:
    """Field t -> profile(t) * f with a cubic fit of the scalar profile."""
    grid = TimeGrid.uniform(n_pieces)
    vals = np.array([profile(t) for t in grid.nodes(FIT_NODES)], dtype=float)
    polys = fit_poly3(vals[:, None])        # scalar cubics
    return TimeDependentField(
        grid, polys.reshape((-1, 4) + (1,) * (f.m + 1)) * f.coeffs, scale)


def richardson_ratio(rep) -> float:
    """The ratio of a DerivativeReport's discrepancies at tau/2 and tau."""
    if rep.discrepancy == 0:
        return 0.0
    return rep.discrepancy_half / rep.discrepancy


def eval_points(path, t: float, pts) -> np.ndarray:
    """zeta(t) of a FlowPath applied to points of shape (..., m)."""
    pts = np.asarray(pts, dtype=complex)
    return pts + path.u_at(t).eval(pts)


def map_at(evo, t: float) -> AnalyticDiffeo:
    """The certified map of an EvolutionResult at time t."""
    phi = AnalyticDiffeo.certify(evo.flow.u_at(t), evo.eps)
    return phi if evo.side == "right" else invert_diffeo(phi)


def snapshot_map(evo, j: int) -> AnalyticDiffeo:
    """The certified map of an EvolutionResult at grid time j."""
    return AnalyticDiffeo.certify(evo.snapshots[j], evo.eps)
