"""Quantitative inversion of a local addition and chart transport of flows.

A local addition is an analytic rule alpha(z, w) = z + w + higher order
terms in w, with alpha(z, 0) = z and unit w-derivative at w = 0.  On a
strip in z and a ball ||w|| <= delta0 where the defect

    h(z, w) = || d_w alpha(z, w) - id ||_op

is certified <= 1/2, the map w -> alpha(z, w) covers the ball of radius
delta/2 around z for every delta <= delta0, and its inverse is Lipschitz
with constant 2.  The inverse is computed by the displacement iteration

    w  <-  w + (target - alpha(z, w)),

which the 1/2-Lipschitz certificate makes a contraction with per-step
factor <= 1/2; the observed convergence rate is itself a checked invariant.

``flow_to_chart`` moves a solved flow into chart coordinates: w(t) with
alpha(x, w(t)(x)) = zeta(t)(x) pointwise, re-expanded as Fourier snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibilityViolation, ContractionStall,
                     NoPositiveRadius, OutOfRange)
from .fourier import FourierMap, _wrap, fit_sampled, majorants
from .timepaths import (ACPath, FIT_NODES, TOL_CHAIN, TimeDependentField,
                        _derivative, fit_poly3, node_values)

#: residual target for the displacement inversion
TOL_INVERT = 1e-12
#: the displacement inversion gives up after this many steps
MAX_INVERT_STEPS = 200
#: geometric search lattice for the certified radius: ratio 2^(1/64)
GRID_RATIO_LOG2 = 1.0 / 64.0
GRID_LOG2_MIN = -40.0
GRID_LOG2_MAX = 12.0


class LocalAddition:
    """alpha(z, w) = z + w + sum_p C_p(z) w^p with periodic coefficients.

    ``terms`` is a list of (power, coefficient) pairs; the power is a
    multi-index (int for m = 1) of total degree >= 2 and the coefficient a
    FourierMap with m components.  The constructor rejects terms of total
    degree <= 1: they would break alpha(z, 0) = z or the unit fiber
    derivative, which hold identically for this expression form.
    """

    def __init__(self, terms=(), m: int = 1, order: int = 8):
        self.m = m
        self.order = order
        norm_terms = []
        for power, coeff in terms:
            p = (int(power),) if np.isscalar(power) else tuple(int(q) for q in power)
            if len(p) != m or any(q < 0 for q in p):
                raise ValueError(f"bad power multi-index {p}")
            if not isinstance(coeff, FourierMap) or coeff.m != m or coeff.ncomp != m:
                raise ValueError("coefficients must be m-component FourierMaps")
            if not np.any(coeff.coeffs):
                continue
            if sum(p) == 0:
                raise ValueError("a w-free term would violate alpha(z, 0) = z")
            if sum(p) == 1:
                raise ValueError(
                    "a linear term would violate the unit fiber derivative")
            norm_terms.append((p, coeff))
        self.terms = norm_terms

    @property
    def flat(self) -> bool:
        return not self.terms

    def __call__(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return z + w + self.higher_terms([c.eval(z) for _, c in self.terms], w)

    def higher_terms(self, z_vals_list, w: np.ndarray) -> np.ndarray:
        """sum_p C_p(z) w^p from pre-evaluated coefficient values."""
        out = np.zeros_like(w)
        for (p, _), cv in zip(self.terms, z_vals_list):
            mono = np.ones(w.shape[:-1], dtype=w.dtype)
            for axis, q in enumerate(p):
                if q:
                    mono = mono * w[..., axis] ** q
            out = out + cv * mono[..., None]
        return out

    def defect_majorant(self, eps: float, delta: float) -> float:
        """Analytic bound on h over ||Im z|| <= eps, ||w|| <= delta."""
        per_row = np.zeros(self.m)
        for p, coeff in self.terms:
            # each component as its own map: sum_k |c_{k,i}| e^{2 pi ||k||_1 eps}
            nu_i = majorants(np.moveaxis(coeff.coeffs, -1, 0)[..., None],
                             coeff.m, eps)[0]
            per_row = per_row + nu_i * sum(p) * delta ** (sum(p) - 1)
        return float(per_row.max()) if self.terms else 0.0


@dataclass(frozen=True)
class InverseChartCert:
    """Certified radius for the displacement inversion of a local addition."""

    delta0: float
    eps: float
    defect_bound: float
    flat: bool
    grid_exponent: float

    def __post_init__(self):
        if self.delta0 <= 0:
            raise ValueError("certified radius must be positive")


def find_delta0(alpha: LocalAddition, eps: float) -> InverseChartCert:
    """Largest radius on the geometric lattice 2^(j/64) with defect <= 1/2.

    The flat addition has no defect at all; its certificate carries the
    sentinel radius 1.  NoPositiveRadius is raised when even the smallest
    lattice radius fails.
    """
    if alpha.flat:
        return InverseChartCert(delta0=1.0, eps=eps, defect_bound=0.0,
                                flat=True, grid_exponent=0.0)
    lo, hi = GRID_LOG2_MIN, GRID_LOG2_MAX
    if alpha.defect_majorant(eps, 2.0**lo) > 0.5:
        raise NoPositiveRadius(
            f"defect bound exceeds 1/2 even at radius 2^{lo}")
    # largest lattice exponent whose majorant is certified
    n_lo = int(np.floor(lo / GRID_RATIO_LOG2))
    n_hi = int(np.ceil(hi / GRID_RATIO_LOG2))
    while n_hi - n_lo > 1:
        mid = (n_hi + n_lo) // 2
        if alpha.defect_majorant(eps, 2.0 ** (mid * GRID_RATIO_LOG2)) <= 0.5:
            n_lo = mid
        else:
            n_hi = mid
    expo = n_lo * GRID_RATIO_LOG2
    delta0 = 2.0**expo
    return InverseChartCert(delta0=delta0, eps=eps,
                            defect_bound=alpha.defect_majorant(eps, delta0),
                            flat=False, grid_exponent=expo)


@dataclass
class InversionResult:
    w: np.ndarray
    residuals: list
    steps: int


def invert_local(alpha: LocalAddition, cert: InverseChartCert,
                 z, target, delta: float | None = None, full: bool = False):
    """Solve alpha(z, w) = target by the displacement contraction.

    Requires ||target - z|| < delta/2 with delta <= delta0; the result
    satisfies ||w|| < delta and the residual is driven below TOL_INVERT.
    Vectorized over leading axes of ``z`` and ``target``.
    """
    delta = cert.delta0 if delta is None else delta
    if delta > cert.delta0 * (1 + 1e-12):
        raise OutOfRange(f"delta {delta} exceeds certified radius {cert.delta0}")
    z = np.asarray(z, dtype=complex)
    target = np.asarray(target, dtype=complex)
    d = target - z
    dist = np.abs(d).max(axis=-1)
    if np.any(dist >= delta / 2):
        raise OutOfRange(
            f"target distance {float(dist.max()):.6g} is not below delta/2 = "
            f"{delta / 2:.6g}")
    if alpha.flat:
        return InversionResult(d, [0.0], 0) if full else d
    z_vals = [coeff.eval(z) for _, coeff in alpha.terms]
    w = np.zeros_like(target)
    res_vec = d         # the residual at w = 0, where the higher terms vanish
    residuals = []
    r_prev = None
    for step in range(MAX_INVERT_STEPS):
        r = float(np.abs(res_vec).max())
        residuals.append(r)
        if r <= TOL_INVERT:
            return InversionResult(w, residuals, step) if full else w
        if r_prev is not None and r > 0.95 * r_prev and r > 1e3 * TOL_INVERT:
            raise ContractionStall(
                f"residual stalled at {r:.3e} (factor {r / r_prev:.3f})")
        w = w + res_vec
        r_prev = r
        res_vec = d - w - alpha.higher_terms(z_vals, w)
    raise ContractionStall(
        f"no convergence in {MAX_INVERT_STEPS} displacement steps")


# ---------------------------------------------------------------------------
# chart transport of flows
# ---------------------------------------------------------------------------

def flow_to_chart(flow, alpha: LocalAddition, cert: InverseChartCert) -> ACPath:
    """Chart vectors w(t) with alpha(x, w(t)(x)) = zeta(t)(x) pointwise.

    The flow displacement must stay below delta0/2, which the chart
    admissibility certificate (L^1 nu norm < delta0/4 and the solver's
    parameter-Lipschitz constant 2) guarantees.  ``invert_local`` solves
    for the chart vectors at the sampling grid points, a chunk of times at
    once, where they are re-expanded; the derivative is a cubic re-fit per
    interval and the path invariant is re-verified within TOL_CHAIN.
    """
    gamma = flow.source
    if gamma is not None and 2 * gamma.l1_nu >= cert.delta0 / 2:
        raise AdmissibilityViolation(
            f"flow displacement bound {2 * gamma.l1_nu:.6g} reaches "
            f"delta0/2 = {cert.delta0 / 2:.6g}")

    ts = flow.grid.floats
    fits = fit_sampled(
        lambda x, u: invert_local(alpha, cert, x, x + u.eval(x)).real,
        [_times_then_nodes(flow.u_at_many, flow.pieces, flow)], flow.order,
        tol_trunc=1e-8, context="chart re-expansion").coeffs
    pieces = _derivative(fit_poly3(fits[len(ts):]), np.diff(ts))
    scale = gamma.field.scale if gamma is not None else cert.eps
    derivative = TimeDependentField(flow.grid, pieces, scale)
    return ACPath(flow.grid, fits[:len(ts)], derivative, tol=TOL_CHAIN)


def chart_roundtrip_defect(flow, alpha: LocalAddition, path: ACPath) -> float:
    """sup over 64 probe points and the times of |alpha(x, w(t)(x)) -
    zeta(t)(x)|, at the grid times and the collocation nodes inside every
    interval; ``path`` is the chart transport of ``flow``, on its grid."""
    if path.piece_grid != flow.grid:
        raise ValueError("the chart path is not on the grid of the flow")
    if flow.m == 1:
        pts = (np.arange(64) / 64)[:, None].astype(complex)
    else:
        g = np.arange(8) / 8
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        pts = pts.astype(complex)
    w = _times_then_nodes(path.values_at, path.pieces, flow).eval(pts)
    zeta = pts + _times_then_nodes(flow.u_at_many, flow.pieces, flow).eval(pts)
    return float(np.abs(alpha(pts, w) - zeta).max())


def _times_then_nodes(read, pieces, flow) -> FourierMap:
    """A path on the grid of ``flow`` at the grid times, by its reader
    ``read``, then at the collocation nodes of every interval, read from
    its ``pieces`` by ``node_values``: one stack of maps."""
    return _wrap(np.concatenate([read(flow.grid.floats).coeffs,
                                 node_values(pieces, FIT_NODES)]), flow.m)
