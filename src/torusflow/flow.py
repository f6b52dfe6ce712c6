"""Contraction solver for the flow integral equation on the torus.

For an admissible time-dependent field ``gamma`` (L^1-in-time beta-majorant
below 1/2 at twice the working half-width) the map

    P(eta)(t) = id + int_0^t gamma(s) o eta(s) ds

is a contraction on continuous paths of near-identity maps, with Lipschitz
constant bounded by the certificate

    theta_hat = ||gamma||_{L^1, beta_{2 eps}} < 1/2.

Iterating P from the identity path converges geometrically to the unique
solution ``zeta``; the perturbations ``u(t) = zeta(t) - id`` are stored as
snapshots on a refined time grid together with one polynomial piece per
interval (the integral of a cubic collocation fit of s -> gamma(s) o
zeta(s), so time integration is closed-form).  The iteration log records
the observed sup-distances and their ratios, which must respect the
certified contraction factor; two solved parameter values can never drift
apart by more than twice their L^1 distance, which is checked by
``param_lipschitz_check``.

One sweep engine applies P for m = 1 and m = 2 alike; ``solve_flow`` and
``picard_step`` both call it.  A sweep is one call of ``fourier.compose``,
the one composition kernel, on the stacks of the field and of u at every
collocation node; it checks, at every node, that id + u maps the working
strip into the doubled strip where the field's majorants are certified
(DomainEscape), that u is real on the real grid (RealityDefect, read from
its coefficients), and that the spectral tail discarded by truncation stays
within budget (TruncationBudgetExceeded).  The field is read by time at
the nodes, as maps, so the solver grid must hold its breakpoints, and u
by ``piece_values``; ``pointwise_solution`` uses ``TimeGrid.quadrature``.
``invert_at_point`` solves x + u(x) = y for every map of a FourierMap of
any batch shape at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (AdmissibilityViolation, ContractionStall, DomainEscape,
                     NonContraction, OutOfRange)
from .fourier import (TOL_TRUNC, FourierMap, MapStack, _modes_to_json, _wrap,
                      compose, imag_reach, majorants)
from .timepaths import (FIT_NODES, TimeDependentField, TimeGrid,
                        _antiderivative, fit_poly3, piece_values, read_pieces)

#: default solver tolerance, measured in nu_eps of snapshot differences
TOL_SOLVE = 1e-10
#: slack for the parameter-Lipschitz-2 contract
TOL_SLACK = 1e-6
#: default tolerance for pointwise trajectory residuals
TOL_POINTWISE = 1e-8
#: solver grids are refined to at most this step
MAX_STEP = Fraction(1, 64)
#: admissibility thresholds
BETA_BOUND = 0.5


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
    in [0, 1].  ``iteration_log`` rows are (step, sup_diff, ratio).
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

    def eval_points(self, t: float, pts: np.ndarray) -> np.ndarray:
        """zeta(t) applied to points of shape (..., m)."""
        pts = np.asarray(pts, dtype=complex)
        return pts + self.u_at(t).eval(pts)

    def sup_distance(self, other: "FlowPath", eps: float | None = None) -> float:
        """max over grid times of nu_eps(u(t) - u_other(t))."""
        eps = eps if eps is not None else self.eps
        return _sup_distance(self.snapshots.coeffs, other.snapshots.coeffs,
                             eps)

    def imag_reach_max(self, start_width: float | None = None) -> float:
        """Certified bound on ||Im zeta(t)(z)|| over starts ||Im z|| <= start_width."""
        w = self.eps / 2 if start_width is None else start_width
        return float(imag_reach(self.snapshots, w).max())

    def check_strip_invariant(self) -> bool:
        """Flows started in the half strip stay strictly inside the full strip."""
        return self.imag_reach_max(self.eps / 2) < self.eps

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "grid": [str(b) for b in self.grid.breakpoints],
            "snapshots": [_modes_to_json(u, self.m, self.order)
                          for u in self.snapshots.coeffs],
            "residual": self.residual,
        }


def _sup_distance(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """max over a stack axis of nu_eps(a_t - b_t)."""
    return float(majorants(a - b, a.ndim - 2, eps)[0].max())


def identity_path(gamma: AdmissibleField,
                  max_step: Fraction = MAX_STEP) -> FlowPath:
    grid = gamma.field.grid.refined(max_step)
    f = gamma.field
    shape = (2 * f.order + 1,) * f.m + (f.ncomp,)
    return FlowPath(grid, gamma.eps, np.zeros((len(grid),) + shape, complex),
                    np.zeros((len(grid) - 1, 1) + shape, complex), source=gamma)


# ---------------------------------------------------------------------------
# one application of the integral-equation map
# ---------------------------------------------------------------------------

class _PicardSweep:
    """The integral-equation map on one solver grid, for m in {1, 2}.

    Built once per solve from the field, read by time at the 4 collocation
    nodes of every interval of a grid that holds its breakpoints (else a
    cubic is fitted across a jump).  A sweep evaluates u at the same nodes,
    composes the field with id + u node by node in one ``compose`` call,
    which checks the reach from the working strip into the doubled strip,
    the reality of u and the truncation tail at every node, and fits and
    integrates one cubic per interval in closed form.
    """

    def __init__(self, gamma: AdmissibleField, grid: TimeGrid,
                 tol_trunc: float):
        gam = gamma.field
        if gam.ncomp != gam.m:
            raise ValueError("the field must be a self-map displacement field")
        if not set(gam.grid.breakpoints) <= set(grid.breakpoints):
            raise ValueError("the path grid lacks breakpoints of the field grid")
        self.eps, self.tol_trunc, self.n = gamma.eps, tol_trunc, gam.order
        self.h = np.diff(grid.floats)
        j, tau, t = grid.nodes(FIT_NODES)
        self.nodes, self.field = (j, tau), gam.values_at(t)

    def run(self, pieces):
        """New (snapshots, pieces) arrays from the pieces of a candidate path."""
        u = _wrap(piece_values(pieces, *self.nodes), self.field.m)
        kept = compose(self.field, u, order=self.n, tol_trunc=self.tol_trunc,
                       outer_scale=2 * self.eps, inner_scale=self.eps)
        return self._integrate(kept.coeffs)

    def _integrate(self, kept: np.ndarray):
        """Fit a cubic per interval through the node values and integrate it."""
        J, Q, shape = len(self.h), len(FIT_NODES), kept.shape[1:]
        # tau -> h_j * int_0^tau p_j, then shifted by the snapshot at t_j
        anti = _antiderivative(fit_poly3(kept).reshape(J, Q, -1), self.h)
        snaps = np.zeros((J + 1, anti.shape[2]), dtype=complex)
        np.cumsum(anti.sum(axis=1), axis=0, out=snaps[1:])
        anti[:, 0] = snaps[:-1]
        return snaps.reshape((J + 1,) + shape), anti.reshape((J, Q + 1) + shape)


def picard_step(gamma: AdmissibleField, path: FlowPath,
                tol_trunc: float = TOL_TRUNC) -> FlowPath:
    """One application of the integral-equation map to a candidate path.

    The candidate must map the working strip into the doubled strip where
    the field's majorants are certified, at every collocation node; the
    certificate implies this for every iterate of an admissible field.
    """
    snaps, pieces = _PicardSweep(gamma, path.grid, tol_trunc).run(path.pieces)
    return FlowPath(path.grid, gamma.eps, snaps, pieces, source=gamma,
                    iteration_log=path.iteration_log)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_flow(gamma: AdmissibleField, tol_solve: float = TOL_SOLVE,
               max_step: Fraction = MAX_STEP, max_iter: int = 200,
               start: FlowPath | None = None,
               fixed_iters: int | None = None) -> FlowPath:
    """Iterate the integral-equation map from the identity path to its fixed point.

    Stops when successive sup-distances (nu_eps over grid times) drop below
    ``tol_solve * (1 - theta_hat)``, which bounds the distance to the fixed
    point by ``tol_solve``.  Logged ratios above 1 raise NonContraction: the
    certificate guarantees observed ratios below theta_hat in exact
    arithmetic, so growth signals a certificate or truncation bug.

    ``fixed_iters`` pins the sweep count (no stopping or growth test):
    derivative probes need the solution to vary smoothly with parameters,
    which tolerance-based stopping would break.
    """
    theta = gamma.theta_hat
    path = start if start is not None else identity_path(gamma, max_step)
    target = tol_solve * (1 - theta)
    sweep = _PicardSweep(gamma, path.grid, TOL_TRUNC)
    pinned = fixed_iters is not None
    snaps, pieces = path.snapshots.coeffs, path.pieces
    log, prev_diff = [], None
    for step in range(1, (fixed_iters if pinned else max_iter) + 1):
        new_snaps, pieces = sweep.run(pieces)
        diff = _sup_distance(new_snaps, snaps, gamma.eps)
        snaps = new_snaps
        ratio = diff / prev_diff if prev_diff else float("nan")
        log.append((step, diff, ratio))
        if pinned:
            continue
        noise_floor = 64 * np.finfo(float).eps * max(
            1.0, float(np.abs(snaps).max()))
        if prev_diff is not None and diff > prev_diff and diff > 16 * noise_floor:
            raise NonContraction(
                f"observed ratio {ratio:.3f} >= 1 at step {step} "
                f"(certificate theta_hat = {theta:.3f})")
        if diff <= max(target, noise_floor):
            break
        prev_diff = diff
    else:
        if not pinned:
            raise ContractionStall(f"no convergence within {max_iter} iterations")
    residual = log[-1][1] if pinned else _sup_distance(
        sweep.run(pieces)[0], snaps, gamma.eps)
    return FlowPath(path.grid, gamma.eps, snaps, pieces, source=gamma,
                    iteration_log=log, residual=residual)


def contraction_certificate_ok(path: FlowPath, slack: float = 0.05) -> bool:
    """Logged ratios from step 2 onward stay below theta_hat + slack."""
    theta = path.source.theta_hat
    floor = 1e3 * np.finfo(float).eps
    for step, diff, ratio in path.iteration_log[1:]:
        if diff <= floor:
            continue
        if np.isfinite(ratio) and ratio > theta + slack:
            return False
    return True


@dataclass(frozen=True)
class LipschitzReport:
    sup_distance: float
    l1_distance: float
    ratio: float
    bound: float = 2.0

    def ok(self, slack: float = TOL_SLACK) -> bool:
        return self.ratio <= self.bound + slack


def param_lipschitz_check(g1: AdmissibleField, g2: AdmissibleField,
                          tol_solve: float = TOL_SOLVE) -> LipschitzReport:
    """Observed flow distance against twice the L^1 field distance."""
    if abs(g1.eps - g2.eps) > 1e-15:
        raise ValueError("fields must share the working half-width")
    # the same certified fields, re-expressed on one grid so snapshots align
    grid = g1.field.grid.merged(g2.field.grid)
    p1, p2 = (solve_flow(replace(g, field=g.field.on_grid(grid)), tol_solve)
              for g in (g1, g2))
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
    def ok(self) -> bool:
        return self.max_residual <= self.tol


def invert_at_point(u: FourierMap, y: np.ndarray, tol: float = 1e-13,
                    max_iter: int = 200,
                    fixed_iters: int | None = None) -> np.ndarray:
    """Solve x + u(x) = y pointwise by the displacement contraction.

    Every map of ``u`` is solved at once, at its own points y (batch +
    (P, m)) or at points (..., m) shared by all, as ``u.eval`` takes them;
    x has the shape of ``u.eval(y)``.  Each map stops on its own test, max
    |step| <= tol over its points, so a batch gives what each map gives
    alone.  With ``fixed_iters`` the iteration count is pinned (no stopping
    test), which keeps the result a smooth function of parameters; used by
    the finite-difference derivative probes.
    """
    y, lead = u._points(np.asarray(y))
    stack = u.flat()
    y = np.broadcast_to(y, (len(stack),) + y.shape[1:])
    x = y.copy()
    if fixed_iters is not None:
        for _ in range(fixed_iters):
            x = y - stack.eval(x)
        return x.reshape(lead + (u.m,))
    live, maps = np.arange(len(stack)), stack
    for _ in range(max_iter):
        step = y[live] - x[live] - maps.eval(x[live])
        x[live] += step
        done = np.abs(step).reshape(len(live), -1).max(axis=1) <= tol
        if done.all():
            return x.reshape(lead + (u.m,))
        if done.any():
            live = live[~done]
            maps = _wrap(stack.coeffs[live], u.m)
    raise ContractionStall("pointwise inversion did not converge")


def pointwise_solution(flow: FlowPath, t0: float, y0,
                       tol_pointwise: float = TOL_POINTWISE) -> Trajectory:
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
                      tol=tol_pointwise)


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
    def ok(self) -> bool:
        return self.discrepancy <= self.tol


def restriction_consistency(gamma: AdmissibleField, delta: float,
                            tol_solve: float = TOL_SOLVE) -> RestrictionReport:
    """Solve at eps and at delta < eps with identical truncation; compare.

    Restriction does not change Fourier data, only the scale at which the
    certificates are quoted, so the two perturbation paths must agree to
    solver tolerance.
    """
    if not 0 < delta < gamma.eps:
        raise ValueError("need 0 < delta < eps")
    g_delta = AdmissibleField.certify(gamma.field, delta,
                                      gamma.chart_delta0, gamma.for_chart)
    p_eps = solve_flow(gamma, tol_solve)
    p_delta = solve_flow(g_delta, tol_solve)
    worst = float(np.abs(p_eps.snapshots.coeffs
                         - p_delta.snapshots.coeffs).max())
    return RestrictionReport(eps=gamma.eps, delta=delta, discrepancy=worst,
                             tol=10 * tol_solve)
