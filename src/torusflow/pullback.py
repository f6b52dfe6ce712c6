"""Flows as linear composition operators on analytic scalar functions.

A diffeomorphism phi acts on scalars by pullback, f -> f o phi.  On the
Fourier basis e_k(x) = exp(2 pi i k.x) this action has the matrix window

    A[j, k] = j-th Fourier coefficient of e_k o phi,   ||j||_1, ||k||_1 <= K,

which is the desk-scale observable of the operator: applying A to the
coefficient vector of a test function with spectrum inside the window
reproduces direct composition, the action is linear, matrices compose
contravariantly (M(phi o psi) = M(psi) M(phi)), and along a flow the path
t -> A(t) is absolutely continuous with entry increments controlled by the
time integral of the field size and satisfies the transport identity

    d/dt (Fl_{t,t0})^* f = (Fl_{t,t0})^* (gamma(t) . grad f).

Contravariance and cocycle comparisons run on the certified interior
sub-window: a windowed product of banded operators loses through-the-edge
paths at the window corner at first order in the perturbation amplitude,
while columns in the interior have spectral leakage beyond the window
below any tolerance of interest (the leakage per column is reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import Check, TruncationBudgetExceeded
from .flow import AdmissibleField, solve_checks, solve_flow
from .fourier import (FourierMap, TWO_PI, _band_powers, _unit_circle, _wrap,
                      compose, fit_sampled, jacobian, lattice_modes)
from .group import (_FD4_W, _FD4_X, FD_STEP, AnalyticDiffeo,
                    _field_nu_integral, _two_param_maps, ac_check, ac_rows,
                    compose_diffeo, invert_diffeo)

#: tolerance for matrix-vs-direct-composition agreement
TOL_PB = 1e-9
#: bounds of ``operator_checks``: the contravariance and linearity defects
TOL_CONTRAVARIANCE = 1e-8
TOL_LINEARITY = 1e-12
#: bound of ``pullback_path``'s transport residual
TOL_TRANSPORT = 1e-7
#: largest leakage of a column inside the certified interior shell
TOL_LEAK = 1e-10
#: pullback_path's AC check compares neighbours of this many + 1 uniform
#: times on any solver grid: a wider pair passes wherever its narrow ones do
AC_PAIRS = 64


def pullback_apply(phi: AnalyticDiffeo, f: FourierMap,
                   tol_trunc: float = TOL_PB) -> FourierMap:
    """f o phi, truncated to the ambient order; linear in f."""
    if f.ncomp != 1:
        raise ValueError("pullback acts on scalar functions")
    return compose(f, phi.u, order=max(phi.order, f.order), tol_trunc=tol_trunc)


class PullbackMatrix:
    """K-window of the composition operator of a diffeomorphism.

    ``modes`` lists the lattice indices of the window in a fixed order;
    ``matrix[j, k]`` is the coefficient of e_modes[j] in e_modes[k] o phi.
    ``column_leakage[k]`` is the l1 mass of the spectrum of e_modes[k] o phi
    beyond the window, certifying for which columns windowed products are
    trustworthy.
    """

    def __init__(self, modes, matrix: np.ndarray, leakage: np.ndarray,
                 source: AnalyticDiffeo | None = None):
        self.modes = list(modes)
        self.matrix = matrix
        self.column_leakage = leakage
        self.source = source
        self.K = max(sum(abs(q) for q in k) for k in self.modes)

    def apply(self, f: FourierMap) -> FourierMap:
        """Matrix action on the coefficient vector of a test function."""
        idx = tuple(np.array(self.modes).T + f.order) + (0,)
        out = np.zeros((2 * f.order + 1,) * f.m + (1,), dtype=complex)
        out[idx] = self.matrix @ f.coeffs[idx]
        return _wrap(out, f.m)

    def reality_defect(self) -> float:
        """A[-j, -k] = conj(A[j, k]) across the window."""
        index = {k: i for i, k in enumerate(self.modes)}
        neg = [index[tuple(-q for q in k)] for k in self.modes]
        return float(np.abs(self.matrix[np.ix_(neg, neg)]
                            - self.matrix.conj()).max())

    def interior_indices(self, K_inner: int) -> list:
        return [i for i, k in enumerate(self.modes)
                if sum(abs(q) for q in k) <= K_inner]

    def certified_interior(self) -> int:
        """Largest shell whose columns all leak at most ``TOL_LEAK``.

        Windowed products are exact (to the tolerance) on entries whose
        column and row indices lie in this shell; outside it the through-
        the-edge paths the window discards are no longer negligible.
        """
        shell = np.abs(np.array(self.modes)).sum(axis=1)
        bad = shell[~(np.asarray(self.column_leakage) <= TOL_LEAK)]
        return int(bad.min()) - 1 if bad.size else self.K

    def to_rows(self):
        rows = []
        for i, kj in enumerate(self.modes):
            for l, kk in enumerate(self.modes):
                v = self.matrix[i, l]
                rows.append((kj, kk, float(v.real), float(v.imag)))
        return rows


def pullback_matrix(phi: AnalyticDiffeo, K: int) -> PullbackMatrix:
    """Columns are pullbacks of basis exponentials; leakage recorded per column.

    K must not exceed the ambient truncation order: beyond it the column
    spectra cannot be represented.
    """
    return PullbackMatrix(*_pullback_windows(phi.u, K), source=phi)


def _pullback_windows(u: FourierMap, K: int):
    """Window modes, matrices and column leakages of id + u_t for every
    displacement of u: the matrices have shape batch + (W, W), the
    leakages batch + (W,), W the number of window modes.

    The basis exponentials e_k o (id + u_t) of every map are sampled on
    the real grid and fitted in batches (complex values, full spectrum).
    A column is the product over the axes of w_i^{k_i}, read from the
    ``_band_powers`` of w = e^{2 pi i (x + u_t(x))}.
    """
    m, order = u.m, u.order
    if K > order:
        raise ValueError("window exceeds the ambient truncation order")
    modes = lattice_modes(K, m)
    k, W = np.array(modes).T, len(modes)

    def columns(x, c):
        y = x + c.eval(x)
        w = _unit_circle(y.reshape(-1, len(x), m))
        cols = [np.swapaxes(_band_powers(w[..., i], K, unit=True), 1, 2)
                [..., k[i] + K] for i in range(m)]
        return reduce(np.multiply, cols).reshape(y.shape[:-1] + (W,))

    comp = fit_sampled(columns, [u], order, tol_trunc=np.inf,
                       context="pullback column", width=W).flat().coeffs
    mats = comp[(slice(None),) + tuple(k + order)]
    leaks = (np.abs(comp).reshape(len(comp), -1, W).sum(axis=1)
             - np.abs(mats).sum(axis=1))
    return modes, mats.reshape(u.batch + (W, W)), leaks.reshape(u.batch + (W,))


def operator_checks(phi: AnalyticDiffeo, psi: AnalyticDiffeo, K: int) -> tuple:
    """The checks of the operators of two diffeos: the contravariance defect
    of phi, psi on the K window, and the linearity defect of the pullback by
    phi on two test functions, f + 2 g against f and g pulled back apart."""
    m, order = phi.m, phi.order
    f = FourierMap.from_modes({(1, 0)[:m]: [0.4]}, order, m=m, ncomp=1)
    g = FourierMap.from_modes({((2,), (0, 1))[m - 1]: [-0.2j]}, order, m=m,
                              ncomp=1)
    pull = partial(pullback_apply, phi, tol_trunc=1e-5)
    lin = pull(f + 2.0 * g) - (pull(f) + 2.0 * pull(g))
    return (Check("contravariance", contravariance_defect(phi, psi, K),
                  TOL_CONTRAVARIANCE),
            Check("linearity", float(np.abs(lin.coeffs).max()), TOL_LINEARITY))


def contravariance_defect(phi: AnalyticDiffeo, psi: AnalyticDiffeo,
                          K: int) -> float:
    """max interior-entry defect of M(phi o psi) vs M(psi) M(phi).

    The interior shell is certified from the measured column leakage of
    all three matrices.
    """
    A_phi = pullback_matrix(phi, K)
    A_psi = pullback_matrix(psi, K)
    A_comp = pullback_matrix(compose_diffeo(phi, psi), K)
    K_inner = min(A.certified_interior() for A in (A_phi, A_psi, A_comp))
    if K_inner < 1:     # column mass lost beyond the window: a tail
        raise TruncationBudgetExceeded(
            "no certified interior shell: enlarge K or shrink the maps")
    inner = A_comp.interior_indices(K_inner)
    sub = np.ix_(inner, inner)
    prod = A_psi.matrix @ A_phi.matrix
    return float(np.abs(A_comp.matrix[sub] - prod[sub]).max())


# ---------------------------------------------------------------------------
# pullback operators along a flow
# ---------------------------------------------------------------------------

@dataclass
class PullbackPathReport:
    times: np.ndarray
    matrices: list
    ac_rows: list          # (t_a, t_b, max entry increment, bound, pass)
    transport_rows: list   # (time, test index, residual)
    flow_checks: tuple     # ``solve_checks`` of the solved flow
    ac_check: Check
    transport_check: Check

    @property
    def checks(self) -> tuple:
        return self.flow_checks + (self.ac_check, self.transport_check)


def pullback_path(gamma: AdmissibleField, t0: float, K: int,
                  test_functions=None,
                  n_transport_times: int = 5) -> PullbackPathReport:
    """Matrices of (Fl_{t, t0})^* at AC_PAIRS + 1 uniform times, read by
    time whatever the solver grid, with AC evidence.

    (i) entrywise increments between neighbouring times are checked against
    2 pi K times the integral of nu(gamma) over each increment (the entry
    derivative is a coefficient of the pullback of gamma . grad e_k,
    bounded by the field size times the mode frequency);
    (ii) the transport identity is checked at interior sample times with a
    4th-order central difference of step FD_STEP in t against
    (Fl)^* (gamma . grad f) for a basket of test functions, within
    TOL_TRANSPORT.  The maps at all uniform times, and at all
    stencil times, are built, certified and pulled back as one batch each.
    """
    flow = solve_flow(gamma)
    eps = gamma.eps
    base_inv = None
    if t0 != 0.0:
        base_inv = invert_diffeo(AnalyticDiffeo.certify(flow.u_at(t0), eps))
    ts = np.linspace(0.0, 1.0, AC_PAIRS + 1)
    modes, windows, leaks = _pullback_windows(
        _two_param_maps(flow, ts, base_inv, eps)[0], K)
    mats = [PullbackMatrix(modes, a, lk) for a, lk in zip(windows, leaks)]
    bounds = TWO_PI * max(K, 1) * _field_nu_integral(gamma, ts[:-1], ts[1:])
    rows = ac_rows(ts, np.abs(np.diff(windows, axis=0)).max(axis=(1, 2)), bounds)

    m, order = gamma.field.m, gamma.field.order
    if test_functions is None:
        test_functions = [
            FourierMap.from_modes({1: [0.5]} if m == 1 else {(1, 0): [0.5]},
                                  order, m=m, ncomp=1),
            FourierMap.from_modes({2: [-0.25j]} if m == 1
                                  else {(1, 1): [-0.25j]}, order, m=m, ncomp=1),
        ]
    sample_times = np.linspace(0.15, 0.85, n_transport_times)
    stencil = _FD4_W / (12.0 * FD_STEP)
    offsets = _FD4_X * FD_STEP
    # per sample time: the four stencil maps, then the map at the time itself
    maps = _two_param_maps(flow, sample_times[:, None] + np.append(offsets, 0.0),
                           base_inv, eps)[0]
    order = max(order, max(f.order for f in test_functions))
    # f o Fl at the stencil times by compose, whose rounding scales with
    # f o Fl - f: the difference quotient then amplifies no rounding of f
    around = _wrap(maps.coeffs[:, :-1], m)
    pulled = np.stack([compose(f, around, order=order, tol_trunc=1e-6).coeffs
                       for f in test_functions], axis=2)
    pulled = pulled.reshape(pulled.shape[:3] + (-1,))

    def sample(x, c, g):
        """(gamma . grad f) o Fl at the sample times, each test function f
        on an axis after the times."""
        args = x + c.eval(x)
        g_mid = g.eval(args)
        return np.stack([(jacobian(f).eval(args)[..., 0, :] * g_mid).sum(
            axis=-1)[..., None] for f in test_functions], axis=1)

    rhs = fit_sampled(sample, [_wrap(maps.coeffs[:, -1], m),
                               gamma.field.values_at(sample_times)],
                      order, tol_trunc=1e-6, context="transport").coeffs
    rhs = rhs.reshape(rhs.shape[:2] + (-1,))
    lhs = pulled[:, 0] * stencil[0]
    for i in range(1, len(offsets)):
        lhs = lhs + stencil[i] * pulled[:, i]
    resid = np.abs(lhs - rhs).max(axis=-1)
    transport_rows = [(float(t), fi, float(d)) for t, row in zip(
        sample_times, resid) for fi, d in enumerate(row)]
    worst = float(resid.max(initial=0.0))     # a NaN fails the check
    return PullbackPathReport(
        times=ts, matrices=mats, ac_rows=rows, transport_rows=transport_rows,
        flow_checks=solve_checks(flow), ac_check=ac_check("pullback_ac", rows),
        transport_check=Check("transport_residual", worst, TOL_TRANSPORT))
