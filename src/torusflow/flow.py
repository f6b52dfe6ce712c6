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
``picard_step`` both call it.  Every sweep checks, at every collocation
node, that id + u maps the working strip into the doubled strip where the
field's majorants are certified (DomainEscape), that u is real on the real
grid (RealityDefect, read from its coefficients), and that the spectral tail
discarded by truncation stays within budget (TruncationBudgetExceeded).  The
field is evaluated only on its spectral support band |k_i| <= K, the
smallest K <= N holding every nonzero coefficient of the field at every
collocation node; the band is read from the field, so a dense field keeps
K = N.  Fields and iterates are real,
so the sweep works on the Hermitian half of every spectrum, k_m >= 0 on the
last lattice axis: u reaches the grid by a zero-padded inverse FFT over k_1
(m = 2) and ``irfft`` over the last axis, the composed values go back by
``rfftn``, and the full lattice is rebuilt by the conjugate mirror.  The
displaced positions y = x + u(x) are real, so the field is evaluated there
from w = e^{2 pi i y}, one cos and one sin per axis, by one Horner pass over
the positive powers of w_1 with the rows k_1 > 0 doubled, whose real part is
the field's value: no complex exp and no phase factor.  For m = 2 one batched
matrix product first contracts k_2 for all nodes of a chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (AdmissibilityViolation, ContractionStall, DomainEscape,
                     NonContraction, RealityDefect, TruncationBudgetExceeded)
from .fourier import (OVERSAMPLE, TOL_TRUNC, TWO_PI, FourierMap,
                      _grid_points, _k_axis, _k_l1, imag_reach, strip_norms)
from .timepaths import (FIT_NODES, TimeDependentField, TimeGrid,
                        _FIT_VANDER_INV, _GL4_W, _GL4_X, _poly_eval)

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

    ``snapshots`` hold u at the grid times (u(0) = 0) and ``pieces`` the
    local polynomial of u on each interval, so zeta can be evaluated at
    any t in [0, 1].  ``iteration_log`` rows are (step, sup_diff, ratio).
    """

    def __init__(self, grid: TimeGrid, eps: float, snapshots, pieces,
                 source: AdmissibleField | None = None,
                 iteration_log=None, residual: float = np.nan):
        self.grid = grid
        self.eps = float(eps)
        self.snapshots = list(snapshots)
        self.pieces = list(pieces)
        self.source = source
        self.iteration_log = list(iteration_log or [])
        self.residual = residual
        first = self.snapshots[0]
        self.m = first.m
        self.order = first.order

    def u_at(self, t: float) -> FourierMap:
        j = self.grid.interval_of(t)
        ts = self.grid.floats
        tau = (t - ts[j]) / (ts[j + 1] - ts[j])
        return FourierMap(_poly_eval(self.pieces[j], tau), check=False)

    def eval_points(self, t: float, pts: np.ndarray) -> np.ndarray:
        """zeta(t) applied to points of shape (..., m)."""
        pts = np.asarray(pts, dtype=complex)
        return pts + self.u_at(t).eval(pts)

    def sup_distance(self, other: "FlowPath", eps: float | None = None) -> float:
        eps = eps if eps is not None else self.eps
        worst = 0.0
        for a, b in zip(self.snapshots, other.snapshots):
            worst = max(worst, strip_norms(a - b, eps).nu)
        return worst

    def imag_reach_max(self, start_width: float | None = None) -> float:
        """Certified bound on ||Im zeta(t)(z)|| over starts ||Im z|| <= start_width."""
        w = self.eps / 2 if start_width is None else start_width
        return max(imag_reach(u, w) for u in self.snapshots)

    def check_strip_invariant(self) -> bool:
        """Flows started in the half strip stay strictly inside the full strip."""
        return self.imag_reach_max(self.eps / 2) < self.eps

    def to_json(self) -> dict:
        from .timepaths import _modes_to_json
        return {
            "eps": self.eps,
            "grid": [str(b) for b in self.grid.breakpoints],
            "snapshots": [_modes_to_json(u.coeffs, self.m, self.order)
                          for u in self.snapshots],
            "residual": self.residual,
        }

    def iteration_log_rows(self):
        return [(step, diff, ratio) for step, diff, ratio in self.iteration_log]


def identity_path(gamma: AdmissibleField,
                  max_step: Fraction = MAX_STEP) -> FlowPath:
    grid = gamma.field.grid.refined(max_step)
    f = gamma.field
    zero = FourierMap.zero(f.order, f.m, f.ncomp)
    snaps = [zero] * len(grid)
    pieces = [zero.coeffs[None, ...]] * (len(grid) - 1)
    return FlowPath(grid, gamma.eps, snaps, pieces, source=gamma)


# ---------------------------------------------------------------------------
# one application of the integral-equation map
# ---------------------------------------------------------------------------

#: grid points (collocation nodes x M^m) a sweep holds at once; bounds memory
_CHUNK_POINTS = 2 ** 14


def _node_values(pieces) -> np.ndarray:
    """Per-interval polynomials at FIT_NODES, one row per node (j, q)."""
    stacked = np.zeros((max(p.shape[0] for p in pieces), len(pieces))
                       + pieces[0].shape[1:], dtype=complex)
    for j, p in enumerate(pieces):
        stacked[:p.shape[0], j] = p
    vals = np.swapaxes(_poly_eval(stacked, FIT_NODES), 0, 1)
    return vals.reshape((-1,) + vals.shape[2:])


def _real_horner(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re sum_{k=0}^{K} c_k w^k at points w, by Horner.

    ``c`` holds c_0, .., c_K along axis 1 and ``w`` broadcasts against each
    slice ``c[:, k]``.  On the unit circle a real Laurent series
    sum_{|k| <= K} a_k w^k, a_{-k} = conj(a_k), is this sum with c_0 = a_0
    and c_k = 2 a_k: one accumulator over the positive powers, no conj(w).
    """
    K = c.shape[1] - 1
    if not K:
        return np.array(np.broadcast_to(
            c[:, 0].real, np.broadcast_shapes(w.shape, c[:, 0].shape)))
    acc = c[:, K] * w
    for k in range(K - 1, 0, -1):
        acc += c[:, k]
        acc *= w
    return acc.real + c[:, 0].real


class _PicardSweep:
    """The integral-equation map on one solver grid, for m in {1, 2}.

    Built once per solve from the field on the grid.  Fields and iterates
    are real, so every spectrum is Hermitian, c_{-k} = conj(c_k), and the
    sweep keeps only its half k_m >= 0 on the last lattice axis.  A sweep
    evaluates u at the 4 collocation nodes of every interval, synthesises
    it on the oversampled real grid (for m = 2 one zero-padded inverse FFT
    over k_1 of the N+1 columns k_2 >= 0, then ``irfft`` over the last
    axis), evaluates the field at the real points y = x + u(x) by one
    Horner pass over the positive powers of w_1 = e^{2 pi i y_1}
    (``_real_horner``; for m = 2 after one batched product that contracts
    k_2 against the powers of w_2), transforms back by ``rfftn``, rebuilds
    the (2N+1)^m lattice by the conjugate mirror, and fits and integrates
    one cubic per interval in closed form.  Every sweep checks, at every
    node, that the imaginary reach of id + u from the working strip stays
    inside the doubled strip (DomainEscape), that u is real on the real
    grid, from its coefficients: 1/2 sum_k |c_k - conj(c_{-k})| bounds
    |Im u| there (RealityDefect), and that the relative spectral tail beyond
    ||k||_1 > N stays within ``tol_trunc`` (TruncationBudgetExceeded; from
    the half spectrum, whose columns 0 < k_m < M/2 stand for two modes).
    Grid work runs over chunks of nodes of about _CHUNK_POINTS points,
    component first with the grid axes last, so the FFTs and the reductions
    over components run on contiguous lines.

    The field is evaluated only on its support band K, the smallest K that
    holds every coefficient nonzero at any node.  ``g_nodes`` keeps the rows
    0 <= k_1 <= K of the band cube |k_i| <= K with the rows k_1 > 0 doubled,
    stored as (node, k_1, component[, k_2]) so that the k_2 contraction
    needs no copy.  The cube is a raw array, not a FourierMap, because its
    corners ||k||_1 > K (mode (1, 1) at K = 1) may be nonzero.  The checks
    above act on u and on the full spectrum of the composed values, so
    neither the band nor the half spectrum changes a certificate.
    """

    def __init__(self, gamma: AdmissibleField, grid: TimeGrid,
                 tol_trunc: float):
        gam = gamma.field.on_grid(grid)
        if gam.ncomp != gam.m:
            raise ValueError("the field must be a self-map displacement field")
        self.eps, self.tol_trunc = gamma.eps, tol_trunc
        m, n = gam.m, gam.order
        self.m, self.n = m, n
        self.M = M = OVERSAMPLE * (2 * n + 1)
        self.axes = tuple(range(1, m + 1))
        self.grid_axes = tuple(range(-m, 0))
        self.x = _grid_points(M, m).T.reshape((m,) + (M,) * m)
        self.h = np.diff(grid.floats)
        g_nodes = _node_values(gam.pieces)
        k_used = np.abs(np.argwhere(np.abs(g_nodes).max(axis=(0, -1)) > 0) - n)
        self.band = K = int(k_used.max()) if k_used.size else 0
        cut = ((slice(None), slice(n, n + K + 1))
               + (slice(n - K, n + K + 1),) * (m - 1))
        # a copy, not a view, which would keep the dense node array alive
        self.g_nodes = np.moveaxis(g_nodes[cut], -1, 2).copy()
        self.g_nodes[:, 1:] *= 2.0
        self.chunk = max(1, _CHUNK_POINTS // M ** m)
        self.k_pos = _k_axis(n) % M
        # half spectrum: rows k_1 in FFT order (m = 2), columns 0 <= k_m <= M/2
        k_rows = np.abs(np.fft.fftfreq(M, d=1.0 / M).astype(int))
        k_cols = np.arange(M // 2 + 1)
        weight = np.where((k_cols > 0) & (k_cols < M // 2), 2.0, 1.0)
        l1 = k_cols if m == 1 else k_rows[:, None] + k_cols
        self.weight = np.broadcast_to(weight, l1.shape).ravel()
        self.tail_weight = np.where(l1.ravel() > n, self.weight, 0.0)
        l1 = _k_l1(n, m)
        self.corners = l1 > n
        w = np.exp(TWO_PI * self.eps * l1)
        self.w_osc = np.where(l1 > 0, w, 0.0)
        self.w_mu = TWO_PI * l1 * w

    def run(self, pieces):
        """New (snapshots, pieces) from the pieces of a candidate path."""
        u_nodes = _node_values(pieces)
        self._check_reach(u_nodes)
        kept = np.empty(u_nodes.shape, dtype=complex)
        for s in range(0, len(u_nodes), self.chunk):
            nodes = slice(s, s + self.chunk)
            y = self._positions(np.moveaxis(u_nodes[nodes], -1, 1))
            spec = self._truncate(self._outer(self.g_nodes[nodes], y))
            kept[nodes] = np.moveaxis(spec, 1, -1)
        kept[:, self.corners] = 0.0
        return self._integrate(kept)

    def _positions(self, u: np.ndarray) -> np.ndarray:
        """x + u_q(x) on the oversampled real grid, shape (C, m, M..).

        ``u`` holds the coefficients of the chunk's nodes, shape (C, m, n..).
        Only the columns k_m >= 0 are transformed: for m = 2 a zero-padded
        inverse FFT over k_1 first, then ``irfft`` over the last axis, which
        pads them to M/2 + 1 itself.
        """
        n, m = self.n, self.m
        vals = u[..., n:]
        if m == 2:
            dense = np.zeros(vals.shape[:2] + (self.M, n + 1), dtype=complex)
            dense[:, :, self.k_pos] = vals
            vals = np.fft.ifft(dense, axis=2, norm="forward")
        vals = np.fft.irfft(vals, n=self.M, axis=-1, norm="forward")
        mirror = u[(Ellipsis,) + (slice(None, None, -1),) * m].conj()
        defect = 0.5 * np.abs(u - mirror).reshape(len(u), m, -1).sum(axis=2)
        size = np.maximum(1.0, np.abs(vals).reshape(len(u), -1).max(axis=1))
        if (defect.max(axis=1) > 1e-9 * size).any():
            raise RealityDefect("perturbation is not real on the real grid")
        return self.x + vals

    def _outer(self, g: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Real gamma_q(y) for the nodes of a chunk, shape (C, ncomp, M..).

        ``g`` is the half band cube of the nodes, shape
        (C, K+1, ncomp[, 2K+1]), and ``y`` the real positions, shape
        (C, m, M..).
        """
        c, rows, ncomp = g.shape[:3]
        ty = TWO_PI * y.reshape(c, self.m, -1)
        w = np.empty(ty.shape, dtype=complex)
        np.cos(ty, out=w.real)
        np.sin(ty, out=w.imag)
        if self.m == 1:
            g = g[..., None]
        else:
            # contract k_2 against the powers w_2^{-K..K} for all nodes; each
            # power is one contiguous line of the chunk's points
            K = self.band
            powers = np.empty((c, 2 * K + 1, w.shape[2]), dtype=complex)
            powers[:, K] = 1.0
            for j in range(K + 1, 2 * K + 1):
                np.multiply(powers[:, j - 1], w[:, 1], out=powers[:, j])
            np.conjugate(powers[:, :K:-1], out=powers[:, :K])
            g = (g.reshape(c, rows * ncomp, -1) @ powers).reshape(
                c, rows, ncomp, -1)
        return _real_horner(g, w[:, :1]).reshape((c, ncomp) + y.shape[2:])

    def _tail_ratio(self, spec: np.ndarray) -> np.ndarray:
        """Per node, the l1 share of ||k||_1 > N in a half spectrum.

        ``spec`` has shape (C, ncomp, M/2+1) or (C, ncomp, M, M/2+1).
        """
        amp = np.abs(spec).max(axis=1).reshape(len(spec), -1)
        total = amp @ self.weight
        tail = amp @ self.tail_weight
        return np.divide(tail, total, out=np.zeros_like(tail), where=total > 0)

    def _truncate(self, vals: np.ndarray) -> np.ndarray:
        """Coefficients up to order N of real grid values, tail checked."""
        spec = np.fft.rfftn(vals, axes=self.grid_axes, norm="forward")
        ratio = self._tail_ratio(spec)
        if ratio.max() > self.tol_trunc:
            raise TruncationBudgetExceeded(
                f"picard sweep: tail ratio {ratio.max():.3e} > "
                f"{self.tol_trunc:.1e}")
        n, m = self.n, self.m
        half = spec[..., :n + 1] if m == 1 else spec[:, :, self.k_pos, :n + 1]
        kept = np.empty(half.shape[:-1] + (2 * n + 1,), dtype=complex)
        kept[..., n:] = half
        # c_{-k} = conj(c_k): reverse every lattice axis of the columns k_m > 0
        kept[..., :n] = half[(Ellipsis,) + (slice(None, None, -1),) * (m - 1)
                             + (slice(n, 0, -1),)].conj()
        return kept

    def _check_reach(self, u_nodes: np.ndarray) -> None:
        """imag_reach(u_q, eps) <= 2 eps at every node, vectorised."""
        absc = np.abs(u_nodes)
        nu_osc = (absc.max(axis=-1) * self.w_osc).sum(axis=self.axes)
        mu = (absc * self.w_mu[..., None]).sum(axis=self.axes).max(axis=-1)
        reach = float((self.eps + np.minimum(nu_osc, self.eps * mu)).max())
        if reach > 2 * self.eps * (1 + 1e-12):
            raise DomainEscape(
                f"candidate path reaches {reach:.6g}, beyond the controlled "
                f"strip {2 * self.eps:.6g}")

    def _integrate(self, kept: np.ndarray):
        """Fit a cubic per interval through the node values and integrate it."""
        J, Q, shape = len(self.h), len(FIT_NODES), kept.shape[1:]
        poly = _FIT_VANDER_INV @ kept.reshape(J, Q, -1)
        # tau -> h_j * int_0^tau p_j, then shifted by the snapshot at t_j
        anti = np.zeros((J, Q + 1, poly.shape[2]), dtype=complex)
        anti[:, 1:] = poly * (self.h[:, None] / np.arange(1, Q + 1))[..., None]
        snaps = np.zeros((J + 1, poly.shape[2]), dtype=complex)
        np.cumsum(anti.sum(axis=1), axis=0, out=snaps[1:])
        anti[:, 0] = snaps[:-1]
        return ([FourierMap(c.reshape(shape), check=False) for c in snaps],
                list(anti.reshape((J, Q + 1) + shape)))


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
    w = np.exp(TWO_PI * gamma.eps * _k_l1(path.order, path.m))
    sweep = _PicardSweep(gamma, path.grid, TOL_TRUNC)

    def _diff(snaps_a, snaps_b) -> float:
        """max over grid times of nu_eps(a - b)."""
        d = np.abs(np.stack([a.coeffs for a in snaps_a])
                   - np.stack([b.coeffs for b in snaps_b])).max(axis=-1)
        return float((d * w).reshape(len(d), -1).sum(axis=1).max())

    if fixed_iters is not None:
        log = []
        for step in range(1, fixed_iters + 1):
            snaps, pieces = sweep.run(path.pieces)
            log.append((step, _diff(snaps, path.snapshots), float("nan")))
            path = FlowPath(path.grid, gamma.eps, snaps, pieces, source=gamma)
        return FlowPath(path.grid, gamma.eps, path.snapshots, path.pieces,
                        source=gamma, iteration_log=log, residual=log[-1][1])

    prev_diff = None
    log = []
    converged = False
    for step in range(1, max_iter + 1):
        snaps, pieces = sweep.run(path.pieces)
        diff = _diff(snaps, path.snapshots)
        ratio = diff / prev_diff if prev_diff else float("nan")
        log.append((step, diff, ratio))
        noise_floor = 64 * np.finfo(float).eps * max(
            1.0, max(float(np.abs(s.coeffs).max()) for s in snaps))
        if prev_diff is not None and diff > prev_diff and diff > 16 * noise_floor:
            raise NonContraction(
                f"observed ratio {ratio:.3f} >= 1 at step {step} "
                f"(certificate theta_hat = {theta:.3f})")
        path = FlowPath(path.grid, gamma.eps, snaps, pieces, source=gamma)
        if diff <= max(target, noise_floor):
            converged = True
            break
        prev_diff = diff
    if not converged:
        raise ContractionStall(f"no convergence within {max_iter} iterations")
    snaps, _ = sweep.run(path.pieces)
    residual = _diff(snaps, path.snapshots)
    return FlowPath(path.grid, gamma.eps, path.snapshots, path.pieces,
                    source=gamma, iteration_log=log, residual=residual)


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

    With ``fixed_iters`` the iteration count is pinned (no stopping test),
    which keeps the result a smooth function of parameters; used by the
    finite-difference derivative probes.
    """
    y = np.asarray(y, dtype=complex)
    x = y.copy()
    if fixed_iters is not None:
        for _ in range(fixed_iters):
            x = y - u.eval(x)
        return x
    for _ in range(max_iter):
        step = y - x - u.eval(x)
        x = x + step
        if np.abs(step).max() <= tol:
            return x
    raise ContractionStall("pointwise inversion did not converge")


def pointwise_solution(flow: FlowPath, t0: float, y0,
                       tol_pointwise: float = TOL_POINTWISE) -> Trajectory:
    """Trajectory t -> Fl_{t, t0}(y0) with its integral-equation residuals.

    The residual at each grid time re-checks the scalar Caratheodory
    equation y(t) = y0 + int_{t0}^t gamma(s)(y(s)) ds by Gauss quadrature
    along the stored path.
    """
    gamma = flow.source
    y0 = np.atleast_1d(np.asarray(y0, dtype=complex))
    if np.abs(y0.imag).max() > flow.eps / 2 + 1e-15:
        raise DomainEscape(
            f"start point leaves the half-width-{flow.eps / 2:.6g} region")
    if t0 == 0.0:
        base = y0
    else:
        base = invert_at_point(flow.u_at(t0), y0)
    ts = flow.grid.floats
    pts = np.array([flow.eval_points(t, base[None, :])[0] for t in ts])
    gam = gamma.field.on_grid(flow.grid)

    def _gauss_piece(j: int, a: float, b: float) -> np.ndarray:
        """int_a^b gamma(s)(y(s)) ds inside interval j."""
        h_full = ts[j + 1] - ts[j]
        node_vals = []
        for tau in _GL4_X:
            t = a + (b - a) * tau
            g_s = FourierMap(
                _poly_eval(gam.pieces[j], (t - ts[j]) / h_full), check=False)
            y_s = flow.eval_points(t, base[None, :])[0]
            node_vals.append(g_s.eval(y_s[None, :])[0])
        return (b - a) * np.tensordot(_GL4_W, np.array(node_vals), axes=(0, 0))

    cumulative = np.zeros_like(pts)
    for j in range(len(ts) - 1):
        cumulative[j + 1] = cumulative[j] + _gauss_piece(j, ts[j], ts[j + 1])
    j0 = flow.grid.interval_of(t0)
    at_t0 = cumulative[j0] + (_gauss_piece(j0, ts[j0], t0)
                              if t0 > ts[j0] else 0.0)
    residuals = np.abs(pts - y0[None, :]
                       - (cumulative - at_t0[None, :])).max(axis=1)
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
    worst = 0.0
    for a, b in zip(p_eps.snapshots, p_delta.snapshots):
        worst = max(worst, float(np.abs(a.coeffs - b.coeffs).max()))
    return RestrictionReport(eps=gamma.eps, delta=delta, discrepancy=worst,
                             tol=10 * tol_solve)
