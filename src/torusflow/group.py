"""Near-identity analytic diffeomorphisms of the torus and their evolutions.

Group elements are maps id + u with a periodic analytic perturbation u and
an invertibility certificate (Jacobian majorant mu_eps(u) < 1, or an
explicitly verified inverse).  The right evolution of a time-dependent
field is the solved flow itself:

    (d/dt) eta(t) = gamma(t) o eta(t),        eta(0) = id,

while the left evolution carries the derivative by the Jacobian,

    (d/dt) eta(t) = D eta(t) . gamma(t),      eta(0) = id,

and equals the pointwise inverse of the right evolution of the negated
field.  On fields, the group product

    (gamma ⊙ eta)(t) = Ad(Evol(eta)(t))^{-1} gamma(t) + eta(t)

makes the left evolution a homomorphism into pointwise composition:
Evol(gamma ⊙ eta)(t) = Evol(gamma)(t) o Evol(eta)(t).  The directional
derivatives of Evol at zero and at a base field, the Trotter product
limit, and pointwise evolution recognition are all exposed as checkable
reports with explicit tolerances.  Their time integrals take Gauss nodes
and weights from ``TimeGrid.quadrature``, and every time node, ⊙'s too,
is read at once by time: ``values_at`` and ``u_at_many`` return maps of
the batch shape of the times, so the field's and the flow's maps at every
node are one batch each, added as maps, inverted in one
``invert_at_point`` call and sampled by the one sampler ``fit_sampled``,
through which a single map goes as a stack does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import Check, InvertibilityLost
from .flow import (AdmissibleField, FlowPath, TOL_POINTWISE, TOL_SOLVE,
                   invert_at_point, solve_flow)
from .fourier import (FourierMap, MapStack, _wrap, compose, fit_sampled,
                      jacobian, majorants, strip_norms)
from .timepaths import (FIT_NODES, TimeDependentField, TimeGrid, fit_poly3,
                        integrate_primitive)

#: sup-sampled residual bound for verified inverses
TOL_INVERSE = 1e-10
#: an AC pair passes while its increment / bound stays within this limit
AC_LIMIT = 1 + 1e-9
#: the Trotter distance falls by a ratio in this window from one n to the next
TROTTER_WINDOW = (0.35, 0.65)
#: 4th-order central difference: weights per 12 h and offsets per step h
_FD4_W = np.array([1.0, -8.0, 8.0, -1.0])
_FD4_X = np.array([-2, -1, 1, 2])
#: the step of every finite difference: the 4th-order time derivatives of
#: ``derivative_residual`` and ``pullback_path``, and the central
#: difference in tau of both derivative probes
FD_STEP = 1e-3


def _probe_points(m: int, n: int) -> np.ndarray:
    if m == 1:
        return ((np.arange(n) + 0.31) / n)[:, None].astype(complex)
    g = (np.arange(int(np.ceil(np.sqrt(n)))) + 0.31) / int(np.ceil(np.sqrt(n)))
    pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[:n].astype(complex)


class AnalyticDiffeo:
    """Degree-one torus self-map id + u with an invertibility certificate."""

    __slots__ = ("u", "eps", "mu", "inverse_residual")

    def __init__(self, u: FourierMap, eps: float, mu: float,
                 inverse_residual: float | None = None):
        self.u = u
        self.eps = float(eps)
        self.mu = float(mu)
        self.inverse_residual = inverse_residual

    @classmethod
    def certify(cls, u: FourierMap, eps: float) -> "AnalyticDiffeo":
        """u with the certificate of ``_certify_maps``."""
        mu, resid = _certify_maps(u, eps)
        return cls(u, eps, mu, None if mu < 1.0 else float(resid))

    @classmethod
    def identity(cls, order: int, m: int, eps: float) -> "AnalyticDiffeo":
        return cls(FourierMap.zero(order, m, m), eps, 0.0)

    @property
    def m(self) -> int:
        return self.u.m

    @property
    def order(self) -> int:
        return self.u.order

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        return pts + self.u.eval(pts)


def _jacobian_values(u, pts: np.ndarray) -> np.ndarray:
    """D(id + u) at points, for every map of the displacement u."""
    return jacobian(u).eval(pts) + np.eye(u.m)[None, ...]


def compose_diffeo(phi: AnalyticDiffeo, psi: AnalyticDiffeo) -> AnalyticDiffeo:
    """(id+u) o (id+v) = id + (v + u o (id+v)); certificate recomputed."""
    eps = min(phi.eps, psi.eps)
    w, mu, resid = _compose_maps(phi.u, psi.u, eps)
    return AnalyticDiffeo(w, eps, mu, None if mu < 1.0 else float(resid))


def _compose_maps(u: FourierMap, v: FourierMap, eps: float):
    """(w, mu_eps, inverse residuals): id + w = (id + u) o (id + v), w = v +
    u o (id + v), map by map over the batches of u and v, in one
    ``compose`` call, each map certified by ``_certify_maps``."""
    order = max(u.order, v.order)
    w = v.with_order(order) + compose(u, v, order=order,
                                      outer_scale=2 * eps, inner_scale=eps)
    return (w,) + _certify_maps(w, eps)


def invert_diffeo(phi: AnalyticDiffeo) -> AnalyticDiffeo:
    """id + v with (id+u) o (id+v) = id, by pointwise displacement inversion."""
    v, mu, resid = _certified_inverses(phi.u, phi.eps)
    return AnalyticDiffeo(v, phi.eps, mu, inverse_residual=float(resid))


def _certify_maps(u: FourierMap, eps: float):
    """(mu_eps, inverse residuals) per map of u: the maps whose mu_eps is
    not below 1 (NaN too) are certified by their inverse, all in one
    ``_invert_stack`` call; the other maps' residuals are NaN."""
    mu = majorants(u.coeffs, u.m, eps)[1]
    resid = np.full(np.shape(mu), np.nan)
    inverted = ~(mu < 1.0)
    if inverted.any():
        resid[inverted] = _invert_stack(_wrap(u.coeffs[inverted], u.m))[1]
    return mu, resid


def _invert_stack(u: FourierMap):
    """(v, residuals): (id + u_t) o (id + v_t) = id for every map of u, by
    ``invert_at_point`` on the sampling grid and one batched fit per chunk
    of maps, and sup |(id + u_t)((id + v_t)(x)) - x| per map over an
    off-grid probe set, which must stay within TOL_INVERSE (else
    InvertibilityLost)."""
    v = fit_sampled(lambda x, c: invert_at_point(c, x) - x, [u],
                    u.order, tol_trunc=1e-8, context="inversion")
    probe = _probe_points(u.m, 257)
    y = probe + v.eval(probe)
    y = y + u.eval(y)
    resid = np.abs(y - probe).reshape(u.batch + (-1,)).max(axis=-1)
    if not resid.max() <= TOL_INVERSE:
        raise InvertibilityLost(
            f"inverse residual {resid.max():.3e} exceeds {TOL_INVERSE:.1e}")
    return v, resid


def _certified_inverses(u: FourierMap, eps: float):
    """(v, mu_eps(v), residuals) of ``_invert_stack``, each inverse certified."""
    v, resid = _invert_stack(u)
    return v, _certify_maps(v, eps)[0], resid


# ---------------------------------------------------------------------------
# adjoint action
# ---------------------------------------------------------------------------

def _adjoint_values(u, X: FourierMap, pts: np.ndarray) -> np.ndarray:
    """(Ad(phi) X)(x) = D phi(phi^{-1}(x)) . X(phi^{-1}(x)), phi = id + u.

    ``u`` and ``X`` may be stacks, taken node by node.
    """
    y = invert_at_point(u, pts)
    return np.einsum("...ij,...j->...i", _jacobian_values(u, y), X.eval(y))


def _adjoint_inverse_values(u, X: FourierMap, pts: np.ndarray) -> np.ndarray:
    """(Ad(phi)^{-1} X)(x) = [D phi(x)]^{-1} . X(phi(x)), phi = id + u."""
    J = _jacobian_values(u, pts)
    z = np.asarray(pts, dtype=complex)      # as AnalyticDiffeo.__call__ takes them
    return _jacobian_solve(J, X.eval(z + u.eval(z)))


def _jacobian_solve(J: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """J^{-1} . vals per point: a division for m = 1, a solve for m = 2."""
    if J.shape[-1] == 1:
        return vals / J[..., 0, 0][..., None]
    return np.linalg.solve(J, vals[..., None])[..., 0]


def adjoint(phi: AnalyticDiffeo, X: FourierMap,
            inverse: bool = False) -> FourierMap:
    """Pushforward of a vector field, truncated back to the ambient order."""
    order = max(phi.order, X.order)
    values = _adjoint_inverse_values if inverse else _adjoint_values
    return fit_sampled(lambda x, u, Y: values(u, Y, x),
                       [phi.u, X.with_order(order)], order, tol_trunc=1e-7,
                       context="adjoint")


# ---------------------------------------------------------------------------
# evolutions
# ---------------------------------------------------------------------------

class EvolutionResult:
    """Group-valued evolution of a field, as snapshots over the solver grid.

    side = "right": eta(t) = zeta(t), the solved flow of gamma itself.
    side = "left":  eta(t) = zeta_{-gamma}(t)^{-1}, all snapshots inverted
    as one stack.
    """

    def __init__(self, side: str, source: AdmissibleField, flow: FlowPath,
                 snapshots=None):
        self.side = side
        self.source = source
        self.flow = flow
        self._snapshots = (None if snapshots is None
                           else MapStack(snapshots, check=False))
        self.grid = flow.grid
        self.eps = flow.eps

    @property
    def snapshots(self) -> MapStack:
        """Perturbations of eta at the grid times; left sides invert lazily."""
        if self._snapshots is None:
            self._snapshots = (self.flow.snapshots if self.side == "right"
                               else self._left_inverses(self.flow.snapshots))
        return self._snapshots

    @property
    def order(self) -> int:
        return self.flow.order

    @property
    def m(self) -> int:
        return self.flow.m

    def eval_at(self, t: float, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        return self.eval_many([t], pts.reshape(-1, self.m))[0].reshape(pts.shape)

    def eval_many(self, times, pts: np.ndarray) -> np.ndarray:
        """eta(t)(x) at points (P, m) for many times, shape (T, P, m)."""
        u = self.flow.u_at_many(times)
        if self.side == "right":
            return pts + u.eval(pts)
        return invert_at_point(u, pts)

    def _left_inverses(self, u: MapStack) -> MapStack:
        """eta = zeta^{-1} for a stack of flow maps zeta = id + u, each certified."""
        return _certified_inverses(u, self.eps)[0]

    def derivative_residual(self) -> float:
        """Max defect of the side's derivative identity at 16 probe points
        and three interior times.

        right: d/dt eta(t)(x) = gamma(t)(eta(t)(x));
        left:  d/dt eta(t)(x) = (D eta(t))(x) . gamma(t)(x).
        The time derivative is a 4th-order central difference of step
        FD_STEP of the evaluated path, so the residual isolates the
        convention, not the interpolation.
        """
        pts = _probe_points(self.m, 16)
        gamma = self.source
        times = np.array([0.21337, 0.517, 0.8123])
        stencil = _FD4_W / (12.0 * FD_STEP)
        offsets = _FD4_X * FD_STEP
        vals = self.eval_many((times[:, None] + offsets).ravel(), pts)
        dpath = np.tensordot(vals.reshape((len(times), 4) + pts.shape),
                             stencil, axes=(1, 0))
        g = gamma.field.values_at(times)
        if self.side == "right":
            rhs = g.eval(self.eval_many(times, pts))
        else:
            eta_u = self._left_inverses(self.flow.u_at_many(times))
            J = _jacobian_values(eta_u, pts)
            rhs = np.einsum("...ij,...j->...i", J, g.eval(pts))
        return float(np.abs(dpath - rhs).max())


def evol_right(gamma: AdmissibleField) -> EvolutionResult:
    """The flow of the field IS its right evolution."""
    flow = solve_flow(gamma)
    return EvolutionResult("right", gamma, flow, flow.snapshots)


def evol_left(gamma: AdmissibleField) -> EvolutionResult:
    """Pointwise inverse of the right evolution of the negated field.

    Snapshot maps are inverted lazily: evaluation at points only needs the
    displacement contraction, not the re-expanded inverse coefficients.
    """
    flow = solve_flow(gamma.negated())
    return EvolutionResult("left", gamma, flow)


def evol_left_by_reversal(gamma: AdmissibleField,
                          t: Fraction) -> AnalyticDiffeo:
    """Independent construction of Evol(gamma)(t) by time reversal.

    The left evolution at time t equals the right evolution, at time 1, of
    the reversed-and-rescaled field s -> t * gamma(t - t*s).  This solves a
    fresh flow per requested time and never inverts a map, so it is to be
    cross-checked against the inversion route.
    """
    t = Fraction(t)
    if t == 0:
        f = gamma.field
        return AnalyticDiffeo.identity(f.order, f.m, gamma.eps)
    restricted = gamma.field.restricted_rescaled(t)
    reversed_field = restricted.time_reversed()
    adm = AdmissibleField.certify(reversed_field, gamma.eps,
                                  gamma.chart_delta0, gamma.for_chart)
    flow = solve_flow(adm)
    return AnalyticDiffeo.certify(flow.snapshots[-1], gamma.eps)


def _two_param_maps(flow: FlowPath, times, base_inv: AnalyticDiffeo | None,
                    eps: float):
    """Displacements of Fl_{t, t0} = zeta(t) o zeta(t0)^{-1} at many times,
    each map certified by ``_certify_maps``, with the (mu_eps, inverse
    residuals) of that certificate."""
    u = flow.u_at_many(times)
    cert = _certify_maps(u, eps)        # zeta(t), then the composite
    if base_inv is not None:
        u, *cert = _compose_maps(u, base_inv.u, eps)
    return u, cert


def flow_two_param(evol: EvolutionResult, t: float, t0: float) -> AnalyticDiffeo:
    """Fl_{t, t0} = Fl_{t, 0} o (Fl_{t0, 0})^{-1} from a right evolution."""
    if evol.side != "right":
        raise ValueError("two-parameter flows are built from right evolutions")
    if t == t0:
        return AnalyticDiffeo.identity(evol.order, evol.m, evol.eps)
    base_inv = None
    if t0 != 0.0:
        base_inv = invert_diffeo(AnalyticDiffeo.certify(evol.flow.u_at(t0),
                                                        evol.eps))
    u, (mu, resid) = _two_param_maps(evol.flow, t, base_inv, evol.eps)
    return AnalyticDiffeo(u, evol.eps, mu, None if mu < 1.0 else float(resid))


# ---------------------------------------------------------------------------
# the product on fields and the derivative formulas
# ---------------------------------------------------------------------------

def odot(gamma: AdmissibleField, eta: AdmissibleField) -> TimeDependentField:
    """The field product (gamma ⊙ eta)(t) = Ad(Evol(eta)(t))^{-1} gamma(t) + eta(t).

    Ad values are sampled at the collocation nodes of the solver grid of
    the flow, merged with the grid of gamma, all nodes in batched
    inversions and fits (chunks of nodes bound the memory), and re-fitted
    as cubic pieces; the left evolution of the result composes pointwise
    with that of eta.  The flow of -eta is solved, so Evol(eta)(s) is the
    inverse of its maps zeta(s) and Ad(Evol(eta)(s))^{-1} = Ad(zeta(s))
    needs pointwise inversion only.  The grid policy sized that grid from
    the defect of the cubic collocation of the flow, which Ad(zeta(s))
    shares.
    """
    eta_flow = solve_flow(eta.negated())
    grid = eta_flow.grid.merged(gamma.field.grid)
    s = grid.nodes(FIT_NODES)
    ad = fit_sampled(lambda x, uc, gc: _adjoint_values(uc, gc, x),
                     [eta_flow.u_at_many(s), gamma.field.values_at(s)],
                     gamma.field.order, tol_trunc=1e-7, context="odot")
    samples = (ad + eta.field.values_at(s)).coeffs
    return TimeDependentField(grid, fit_poly3(samples), gamma.field.scale)


def ad_transport_integral(eta: AdmissibleField, gamma_field: TimeDependentField,
                          t: float, tol_solve: float = TOL_SOLVE) -> FourierMap:
    """W(t) = int_0^t Ad(Evol(eta)(s)) gamma(s) ds, by collocation quadrature.

    The Gauss nodes of every interval up to t, on the solver grid of eta
    merged with the grid of gamma (a breakpoint of gamma inside a Gauss
    interval would integrate across a jump), form one batch (interval,
    node), their weights folded into the field values; each interval's sum
    over its nodes is fitted back in one batched fit.
    """
    eta_flow = solve_flow(eta.negated(), tol_solve)
    m, order = gamma_field.m, gamma_field.order
    _, s, w = eta_flow.grid.merged(gamma_field.grid).quadrature(0.0, t)
    if not len(s):
        return FourierMap.zero(order, m, m)
    g = w.reshape(w.shape + (1,) * (m + 1)) * gamma_field.values_at(s).coeffs
    fits = fit_sampled(
        lambda x, uc, gc: _adjoint_inverse_values(uc, gc, x).sum(axis=1),
        [eta_flow.u_at_many(s), _wrap(g, m)], order, tol_trunc=1e-6,
        context="transport integral")
    return _wrap(fits.coeffs.sum(axis=0), m)


@dataclass
class DerivativeReport:
    tau: float
    discrepancy: float
    discrepancy_half: float


def derivative_at_zero(gamma: AdmissibleField, t: float) -> DerivativeReport:
    """Central difference of the chart image of Evol(tau gamma)(t) against
    the integral of the field up to t, at the steps FD_STEP and FD_STEP / 2;
    second-order in the step.

    Solver sweeps run with a pinned iteration count, on the grid of one
    solve of the field itself, so the flow is a smooth function of tau and
    the finite difference is not polluted by stopping noise or by grids
    adapted per tau.  The chart image is the inverse of the flow's map at
    t by ``_invert_stack``, as every inverse of this module is.  The nu
    report compares the two sides on the mode window ||k||_1 <= 8:
    under the exponential majorant weights, the white rounding dust that
    any float pipeline leaves on far modes (~1e-17 per coefficient,
    amplified by 1/tau) would otherwise swamp the tau^2 signal of every
    admissible field, while the signal itself lives on a handful of low
    modes.
    """
    primitive = integrate_primitive(gamma.field).value_at(t)
    window = min(8, gamma.field.order)
    grid = solve_flow(gamma.negated()).grid

    def chart_image(tau: float) -> FourierMap:
        flow = solve_flow(gamma.scaled(tau).negated(), fixed_iters=12,
                          grid=grid)
        return _invert_stack(flow.u_at(t))[0]

    def discrepancy(step: float) -> float:
        fd = (1.0 / (2 * step)) * (chart_image(step) - chart_image(-step))
        return strip_norms((fd - primitive).with_order(window), gamma.eps).nu

    return DerivativeReport(tau=FD_STEP,
                            discrepancy=discrepancy(FD_STEP),
                            discrepancy_half=discrepancy(FD_STEP / 2))


def derivative_at_eta(eta: AdmissibleField, gamma: AdmissibleField,
                      t: float) -> float:
    """Probe-point defect of the directional derivative of Evol at eta.

    Compares, at 32 probe points, the central difference of step FD_STEP
    in tau of Evol(eta + tau gamma)(t) against W(t) o Evol(eta)(t) with
    W(t) = int_0^t Ad(Evol(eta)(s)) gamma(s) ds.
    The solves at eta +- tau gamma take the grid of the solve at eta, on
    the merged grid of both fields.
    """
    pts = _probe_points(gamma.field.m, 32)

    def left_eval(field: TimeDependentField, grid=None):
        adm = AdmissibleField.certify(field, gamma.eps)
        flow = solve_flow(adm.negated(), tol_solve=1e-15, grid=grid)
        return flow.grid, invert_at_point(flow.u_at(t), pts)

    grid, eta_pts = left_eval(eta.field.on_grid(gamma.field.grid))
    up = left_eval(eta.field + FD_STEP * gamma.field, grid)[1]
    dn = left_eval(eta.field - FD_STEP * gamma.field, grid)[1]
    fd = (up - dn) / (2 * FD_STEP)

    W = ad_transport_integral(eta, gamma.field, t, tol_solve=1e-13)
    formula = W.eval(eta_pts)
    return float(np.abs(fd - formula).max())


# ---------------------------------------------------------------------------
# Trotter product
# ---------------------------------------------------------------------------

def exp_field(X: FourierMap, eps: float) -> AnalyticDiffeo:
    """Time-1 flow of the autonomous field X, quoted up to 4 eps and solved
    at half-width eps.

    No splitting shortcut: exp(X) is solved as the flow of X itself, never
    assembled from flows of parts of X.  ``_exp_ladder`` reads the flow of
    X / n0 at the times n0 / n instead of solving X / n per n; that is the
    same flow, not a splitting (the tests hold its maps to this solve's
    within 1e-12 per coefficient)."""
    adm = AdmissibleField.certify(
        TimeDependentField.constant(X, scale=4 * eps), eps)
    flow = solve_flow(adm)
    return AnalyticDiffeo.certify(flow.snapshots[-1], eps)


def _exp_ladder(X: FourierMap, eps: float, ks: np.ndarray) -> FourierMap:
    """Displacements of exp(X / 2^k) for every k of ``ks``, as one stack.

    With 2^k0 the least rung, one ``solve_flow`` of the autonomous field
    X / 2^k0, certified as ``exp_field`` certifies a field, on a grid whose
    breakpoints hold the rung times 2^(k0 - k), is read at those times by
    ``u_at_many`` and certified by ``_certify_maps`` as one stack.  This is
    exact, not a splitting: the flow of an autonomous field at time s is
    exp of s times the field, so the flow of X / 2^k0 at time 2^(k0 - k) is
    exp(X / 2^k), the time-1 flow of X / 2^k that ``exp_field`` solves.
    """
    k0 = int(ks.min())
    times = [Fraction(1, 2 ** (k - k0)) for k in ks.tolist()]
    grid = TimeGrid(tuple(sorted({Fraction(0), *times})))
    adm = AdmissibleField.certify(TimeDependentField.constant(
        (1.0 / 2 ** k0) * X, scale=4 * eps, grid=grid), eps)
    u = solve_flow(adm).u_at_many([float(t) for t in times])
    _certify_maps(u, eps)
    return u


def trotter_curve(v: FourierMap, w: FourierMap, eps: float, n_values):
    """d(n) = distance of (exp(v/n) exp(w/n))^n from exp(v+w), sampled at
    64 probe points, for the dyadic n of ``n_values`` in their order.

    exp(v+w) is one ``exp_field`` solve; the factors exp(v/n) and exp(w/n)
    of every rung are one ``_exp_ladder`` solve each, the flows of v/n0
    and w/n0 (n0 the least n) read at the times n0/n.  The step maps
    exp(v/n) o exp(w/n) of all rungs are composed as one stack, and
    round r of the squaring chain squares, as one stack, the products of
    the rungs with log2 n > r: max log2 n + 1 stacked compositions in
    all, each composite certified by ``_certify_maps`` as
    ``compose_diffeo`` certifies one.
    """
    ks = [int(np.log2(n)) for n in n_values]
    if any(2**k != n for k, n in zip(ks, n_values)):
        raise ValueError("trotter ladder must be dyadic")
    ks = np.array(ks)
    pts = _probe_points(v.m, 64)
    target = exp_field(v + w, eps)(pts)
    prod = _compose_maps(_exp_ladder(v, eps, ks),
                         _exp_ladder(w, eps, ks), eps)[0]
    for r in range(ks.max()):
        sq = ks > r
        sub = _wrap(prod.coeffs[sq], prod.m)
        prod.coeffs[sq] = _compose_maps(sub, sub, eps)[0].coeffs
    dist = np.abs(pts + prod.eval(pts) - target).reshape(len(ks), -1)
    return [(n, float(d)) for n, d in zip(n_values, dist.max(axis=1))]


def trotter_checks(curve) -> tuple:
    """Every ratio r of neighbouring distances (after a nonzero one) in
    TROTTER_WINDOW, as the worst of r / high and low / r against 1, and a
    tenfold fall of the distance over the curve."""
    ds = [d for _, d in curve]
    low, high = TROTTER_WINDOW
    ratios = [b / a for a, b in zip(ds, ds[1:]) if a > 0]
    window = [(r, high) for r in ratios] + [(low, r) for r in ratios]
    return (Check.worst("trotter_ratio_window", window),
            Check("trotter_decade", ds[-1], ds[0] / 10))


# ---------------------------------------------------------------------------
# pointwise evolution recognition
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    rows: list            # (probe index, time, residual)
    max_residual: float
    tol: float

    @property
    def check(self) -> Check:
        return Check("pointwise_residual", self.max_residual, self.tol)


def verify_evolution_pointwise(candidate: EvolutionResult,
                               gamma: AdmissibleField, probes,
                               tol_pointwise: float = TOL_POINTWISE
                               ) -> VerificationReport:
    """Scalar Caratheodory check of the side-appropriate integral equation.

    right: eta(t)(x) = x + int_0^t gamma(s)(eta(s)(x)) ds;
    left:  eta(t)(x) = x + int_0^t (D eta(s))(x) gamma(s)(x) ds.
    Trajectory values at grid times come from the snapshots; integrals use
    the continuous path between them.  Residual violations are reported,
    never raised.
    """
    probes = np.asarray(probes, dtype=complex)
    if probes.ndim == 1:
        probes = probes[:, None]
    grid = candidate.grid
    ts = grid.floats
    traj = probes + candidate.snapshots.eval(probes)

    # every Gauss node of every interval at once
    _, s, w = grid.quadrature(ts[:-1], ts[1:])
    g = gamma.field.values_at(s)
    if candidate.side == "right":
        node_vals = g.eval(candidate.eval_many(s, probes))
    else:
        # one inversion per node: eta(s)(x) = zeta(s)^{-1}(x)
        u = candidate.flow.u_at_many(s)
        Jz = _jacobian_values(u, invert_at_point(u, probes))
        node_vals = _jacobian_solve(Jz, g.eval(probes))
    steps = (w[..., None, None] * node_vals).sum(axis=1)
    increments = np.zeros_like(traj)
    np.cumsum(steps, axis=0, out=increments[1:])

    resid = np.abs(traj - probes - increments).max(axis=-1)
    rows = [(p, float(t), float(r)) for t, row in zip(ts, resid)
            for p, r in enumerate(row)]
    # a NaN residual reaches the check, which fails it
    return VerificationReport(rows=rows,
                              max_residual=float(resid.max(initial=0.0)),
                              tol=tol_pointwise)


def ac_modulus_check(evol: EvolutionResult):
    """Increments of the evolution against the integral bound of the field size.

    For the 16 pairs (t_a, t_b) of 17 uniform times, read by time whatever
    the solver grid: |eta(t_b)(x) - eta(t_a)(x)|, sampled at 64 probe
    points, must not exceed int_{t_a}^{t_b} nu_{2 eps}(gamma(s)) ds.
    """
    pts = _probe_points(evol.m, 64)
    ts = np.linspace(0.0, 1.0, 17)
    vals = evol.eval_many(ts, pts)
    subs = _field_nu_integral(evol.source, ts[:-1], ts[1:])
    lhs = np.abs(np.diff(vals, axis=0)).reshape(len(ts) - 1, -1).max(axis=1)
    return ac_rows(ts, lhs, subs)


def ac_rows(ts, increments, bounds) -> list:
    """Rows (t_a, t_b, increment, bound, pass) of the pairs of neighbouring
    times ``ts``; each pair passes on its own ``ac_check``."""
    rows = [(a, b, float(d), float(sub))
            for a, b, d, sub in zip(ts[:-1], ts[1:], increments, bounds)]
    return [r + (ac_check("", [r]).ok,) for r in rows]


def ac_check(name: str, rows) -> Check:
    """AC rows as one check: the largest increment / bound (0 where the
    increment is 0) against AC_LIMIT."""
    return Check.worst(name, [r[2:4] for r in rows], AC_LIMIT)


def _field_nu_integral(gamma: AdmissibleField, a, b) -> np.ndarray:
    """int_{a_i}^{b_i} nu_{2 eps}(gamma(s)) ds for arrays of bounds a, b.

    ``TimeGrid.quadrature`` on the field's own grid, exact for its cubic
    pieces; all nodes are evaluated at once.
    """
    gam = gamma.field
    i, s, w = gam.grid.quadrature(a, b)
    nu, _ = majorants(gam.values_at(s).coeffs, gam.m, 2 * gamma.eps)
    return np.bincount(i, weights=(w * nu).sum(axis=1),
                       minlength=np.size(a))
