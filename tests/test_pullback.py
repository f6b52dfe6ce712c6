"""Composition operators on the Fourier basis: windows, cocycles, transport."""

import numpy as np
import pytest

from torusflow import (AdmissibleField, AnalyticDiffeo, FourierMap,
                       TimeDependentField, TorusflowError,
                       TruncationBudgetExceeded, compose_diffeo,
                       contravariance_defect, evol_right, flow_two_param,
                       pullback_apply, pullback_matrix)
from torusflow.flow import solve_flow as _solve
from torusflow.fourier import MapStack
from torusflow.pullback import _pullback_windows, pullback_path

import _reference_loops as ref
from conftest import EPS, ORDER, cosine_map, sine_map


@pytest.fixture(scope="module")
def gam():
    return AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.02), 0.2), EPS)


# -- pullback of scalars ---------------------------------------------------------

def test_apply_identity():
    f = FourierMap.from_modes({1: [0.3], 3: [0.1j]}, 16, ncomp=1)
    out = pullback_apply(AnalyticDiffeo.identity(16, 1, EPS), f)
    assert np.abs(out.coeffs - f.coeffs).max() < 1e-14


def test_apply_fixes_constants():
    one = FourierMap.constant([1.0], 16)
    phi = AnalyticDiffeo.certify(sine_map(0.02, 16), EPS)
    out = pullback_apply(phi, one)
    assert np.abs(out.coeffs - one.coeffs).max() < 1e-14


def test_apply_quarter_shift():
    phi = AnalyticDiffeo.certify(FourierMap.constant([0.25], 16), EPS)
    out = pullback_apply(phi, sine_map(1.0, 16))
    assert np.abs(out.coeffs - cosine_map(1.0, 16).coeffs).max() < 1e-12


def test_apply_linearity():
    phi = AnalyticDiffeo.certify(sine_map(0.02, 16), EPS)
    f = FourierMap.from_modes({1: [0.4]}, 16, ncomp=1)
    g = FourierMap.from_modes({2: [-0.2j]}, 16, ncomp=1)
    lhs = pullback_apply(phi, f + 2.0 * g, tol_trunc=1e-5)
    rhs = pullback_apply(phi, f, tol_trunc=1e-5) \
        + 2.0 * pullback_apply(phi, g, tol_trunc=1e-5)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12


# -- matrix windows ----------------------------------------------------------------

def test_matrix_identity():
    A = pullback_matrix(AnalyticDiffeo.identity(16, 1, EPS), 8)
    assert np.abs(A.matrix - np.eye(17)).max() < 1e-13


def test_matrix_translation_diagonal_phases():
    A = pullback_matrix(
        AnalyticDiffeo.certify(FourierMap.constant([0.3], 16), EPS), 8)
    ks = np.array([k[0] for k in A.modes])
    assert np.abs(A.matrix - np.diag(np.exp(2j * np.pi * ks * 0.3))).max() \
        < 1e-13


def test_matrix_reality_symmetry():
    phi = AnalyticDiffeo.certify(sine_map(0.02, 16), EPS)
    assert pullback_matrix(phi, 6).reality_defect() < 1e-12


def test_matrix_action_matches_direct_composition():
    rng = np.random.default_rng(0)
    phi = AnalyticDiffeo.certify(
        FourierMap.from_modes({1: [-0.5j * 0.02], 2: [0.004]}, ORDER), EPS)
    A = pullback_matrix(phi, 8)
    for _ in range(10):
        f = FourierMap.from_modes(
            {1: [rng.normal() + 1j * rng.normal()],
             2: [0.3 * rng.normal()], 3: [0.1j * rng.normal()]},
            ORDER, ncomp=1)
        direct = pullback_apply(phi, f, tol_trunc=1e-5)
        via = A.apply(f)
        err = max(abs(direct.mode(k)[0] - via.mode(k)[0]) for k in A.modes)
        assert err <= 1e-9


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("K", [1, 4, 8])
def test_pullback_windows_match_the_exp_sampler(m, K):
    """Columns e_k o (id + u) read from the band powers of
    e^{2 pi i (x + u(x))} give the windows and leakages of the sampler with
    one complex exp per point and mode, within 1e-14, for a stack and a map."""
    rng = np.random.default_rng(10 * m + K)
    order = 8
    shape = (3,) + (2 * order + 1,) * m + (m,)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = 0.5 * (c + c[(slice(None),) + (slice(None, None, -1),) * m].conj())
    k = np.abs(np.arange(-order, order + 1))
    l1 = k if m == 1 else k[:, None] + k
    c *= 0.01 * np.exp(-0.8 * l1)[..., None]
    for u in (MapStack(c), MapStack(c)[1]):
        modes, mats, leaks = _pullback_windows(u, K)
        want_modes, want_mats, want_leaks = ref.pullback_windows(u, K)
        assert modes == want_modes
        assert mats.shape == want_mats.shape and leaks.shape == want_leaks.shape
        assert np.abs(mats - want_mats).max() <= 1e-14
        assert np.abs(leaks - want_leaks).max() <= 1e-14


def test_matrix_window_capped_by_order():
    phi = AnalyticDiffeo.identity(8, 1, EPS)
    with pytest.raises(ValueError):
        pullback_matrix(phi, 9)


# -- contravariance -----------------------------------------------------------------

def test_contravariance_order_pinned_by_translation_oracle():
    # translation o sine distinguishes the order at first order in amplitude
    tr = AnalyticDiffeo.certify(FourierMap.constant([0.3], ORDER), EPS)
    sn = AnalyticDiffeo.certify(sine_map(0.01, ORDER), EPS)
    A_tr, A_sn = pullback_matrix(tr, 8), pullback_matrix(sn, 8)
    A_c = pullback_matrix(compose_diffeo(sn, tr), 8)
    inner = A_c.interior_indices(4)
    sub = np.ix_(inner, inner)
    right = np.abs(A_c.matrix[sub] - (A_tr.matrix @ A_sn.matrix)[sub]).max()
    wrong = np.abs(A_c.matrix[sub] - (A_sn.matrix @ A_tr.matrix)[sub]).max()
    assert right < 1e-12
    assert wrong > 1e-2


def test_contravariance_certified_interior():
    phi = AnalyticDiffeo.certify(sine_map(0.02, ORDER), EPS)
    psi = AnalyticDiffeo.certify(
        FourierMap.from_modes({1: [0.008j], 2: [0.003]}, ORDER), EPS)
    assert contravariance_defect(phi, psi, 16) <= 1e-8


def test_no_certified_interior_is_a_truncation_fault():
    phi = AnalyticDiffeo.certify(sine_map(0.01, ORDER), EPS)
    psi = AnalyticDiffeo.certify(FourierMap.constant([0.3], ORDER), EPS)
    with pytest.raises(TorusflowError, match="no certified interior") as err:
        contravariance_defect(phi, psi, 2)
    assert isinstance(err.value, TruncationBudgetExceeded)


def test_certified_interior_shrinks_with_amplitude():
    small = pullback_matrix(
        AnalyticDiffeo.certify(sine_map(0.002, ORDER), EPS), 16)
    big = pullback_matrix(
        AnalyticDiffeo.certify(sine_map(0.05, ORDER), EPS), 16)
    assert small.certified_interior() >= big.certified_interior()


# -- operators along a flow ------------------------------------------------------------

def test_path_zero_field_constant_identity():
    z = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(16, 1, 1), 0.2), EPS)
    rep = pullback_path(z, 0.0, 4, n_transport_times=2)
    worst = max(np.abs(m.matrix - np.eye(len(m.modes))).max()
                for m in rep.matrices)
    assert worst < 1e-13
    assert rep.ac_check.ok


def test_path_translation_diagonal_phases():
    c = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.constant([0.11], 16), 0.2), EPS)
    rep = pullback_path(c, 0.0, 4, n_transport_times=2)
    j = len(rep.times) // 2
    t = rep.times[j]
    ks = np.array([k[0] for k in rep.matrices[j].modes])
    want = np.diag(np.exp(2j * np.pi * ks * 0.11 * t))
    assert np.abs(rep.matrices[j].matrix - want).max() < 1e-12


def test_path_window_capped_by_order():
    # the same check as pullback_matrix's, not an IndexError in the windows
    g8 = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.02, order=8), 0.2), EPS)
    phi = AnalyticDiffeo.certify(sine_map(0.02, order=8), EPS)
    for call in (lambda: pullback_matrix(phi, 12),
                 lambda: pullback_path(g8, 0.0, K=12)):
        with pytest.raises(ValueError, match="exceeds the ambient truncation"):
            call()


def test_path_ac_and_transport(gam):
    rep = pullback_path(gam, 0.0, 8, n_transport_times=3)
    assert rep.ac_check.ok
    assert rep.transport_check.value <= 1e-7


def test_path_ac_pairs_do_not_depend_on_the_solver_grid(gam, monkeypatch):
    """The AC check compares 64 pairs of width 1/64 on any solver grid, so
    a coarse grid cannot widen its pairs and weaken it."""
    from torusflow import pullback as pullback_module
    from torusflow.timepaths import TimeGrid
    rows = {}
    for n in (1, 4, 64):
        monkeypatch.setattr(pullback_module, "solve_flow",
                            lambda g, n=n: _solve(g, grid=TimeGrid.uniform(n)))
        rows[n] = pullback_path(gam, 0.0, 8, n_transport_times=2).ac_rows
    for n in (1, 4, 64):
        assert len(rows[n]) == 64 and all(r[4] for r in rows[n])
        assert [r[:2] for r in rows[n]] == [(j / 64, (j + 1) / 64)
                                            for j in range(64)]
        assert [r[3] for r in rows[n]] == [r[3] for r in rows[64]]


def test_path_cocycle_matrices(gam):
    # (Fl_{t,s} o Fl_{s,t0})^* against (Fl_{s,t0})^* (Fl_{t,s})^*
    evol = evol_right(gam)
    assert contravariance_defect(flow_two_param(evol, 0.9, 0.5),
                                 flow_two_param(evol, 0.5, 0.2), 16) <= 1e-8


def test_smooth_parameter_shadow(gam):
    # central differences of the operators in the field direction: O(tau^2)
    direction = TimeDependentField.constant(cosine_map(0.01), 0.2)
    t = 0.5
    grid = _solve(gam).grid     # every tau on the grid of the base solve

    def matrix_at(tau):
        field = gam.field + tau * direction
        flow = _solve(AdmissibleField.certify(field, EPS), fixed_iters=14,
                      grid=grid)
        phi = AnalyticDiffeo.certify(flow.u_at(t), EPS)
        return pullback_matrix(phi, 6).matrix

    def fd(tau):
        return (matrix_at(tau) - matrix_at(-tau)) / (2 * tau)

    d1 = np.abs(fd(2e-3) - fd(1e-3)).max()
    d2 = np.abs(fd(1e-3) - fd(5e-4)).max()
    # both differences shrink ~4x per halving since fd(tau) = D + c tau^2
    assert d2 <= d1 / 2.5
