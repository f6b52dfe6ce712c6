"""Group layer: composition, inversion, evolutions, ⊙, derivatives, Trotter."""

from fractions import Fraction

import numpy as np
import pytest

from torusflow import (AdmissibleField, AnalyticDiffeo, EvolutionResult,
                       FourierMap, MapStack, TimeDependentField, TimeGrid,
                       adjoint, compose_diffeo, derivative_at_eta,
                       derivative_at_zero, evol_left, evol_left_by_reversal,
                       evol_right, exp_field, flow_two_param, invert_diffeo,
                       odot, solve_flow, trotter_curve,
                       verify_evolution_pointwise)
from torusflow import group as group_module
from torusflow.errors import InvertibilityLost, TorusflowError
from torusflow.fourier import _wrap
from torusflow.group import (TOL_INVERSE, _certify_maps, _probe_points,
                             ac_modulus_check, ad_transport_integral)

import _reference_loops as ref
from _readings import map_at, min_real_jacobian, richardson_ratio
from conftest import EPS, ORDER, random_real_map, sine_map, cosine_map


@pytest.fixture(scope="module")
def gam():
    return AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.02), 0.2), EPS)


@pytest.fixture(scope="module")
def eta():
    return AdmissibleField.certify(
        TimeDependentField.constant(cosine_map(0.02), 0.2), EPS)


@pytest.fixture(scope="module")
def right_evo(gam):
    return evol_right(gam)


def zero_field(order=ORDER):
    return AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(order, 1, 1), 0.2), EPS)


# -- group arithmetic ----------------------------------------------------------

def test_compose_with_identity():
    phi = AnalyticDiffeo.certify(sine_map(0.02), EPS)
    out = compose_diffeo(phi, AnalyticDiffeo.identity(ORDER, 1, EPS))
    assert np.abs(out.u.coeffs - phi.u.coeffs).max() < 1e-14


def test_translations_add():
    a = AnalyticDiffeo.certify(FourierMap.constant([0.15], ORDER), EPS)
    b = AnalyticDiffeo.certify(FourierMap.constant([0.25], ORDER), EPS)
    assert np.abs(compose_diffeo(a, b).u.constant_part() - 0.4).max() < 1e-14


def test_inverse_roundtrip():
    phi = AnalyticDiffeo.certify(sine_map(0.02), EPS)
    inv = invert_diffeo(phi)
    assert inv.inverse_residual <= 1e-10
    pts = _probe_points(1, 97)
    assert np.abs(phi(inv(pts)) - pts).max() <= 1e-9
    assert np.abs(inv(phi(pts)) - pts).max() <= 1e-9


def test_invert_stack_loses_invertibility_on_a_perturbed_inverse(monkeypatch):
    """``_invert_stack``'s probe check raises InvertibilityLost when the
    fitted inverse is off: every coefficient of the fit is moved by 1e-6,
    one layer below the check, and the residual reads 1e-6 to 1e-4."""
    fit = group_module.fit_sampled

    def perturbed_fit(sample, maps, order, *, context, **kw):
        v = fit(sample, maps, order, context=context, **kw)
        return _wrap(v.coeffs + 1e-6, v.m) if context == "inversion" else v

    monkeypatch.setattr(group_module, "fit_sampled", perturbed_fit)
    phi = AnalyticDiffeo.certify(sine_map(0.02), EPS)
    with pytest.raises(InvertibilityLost,
                       match=r"inverse residual \d\.\d{3}e-0[56] exceeds 1\.0e-10"):
        invert_diffeo(phi)


def test_invert_translation():
    tr = AnalyticDiffeo.certify(FourierMap.constant([0.3], ORDER), EPS)
    assert np.abs(invert_diffeo(tr).u.constant_part() + 0.3).max() < 1e-12


def test_invert_identity():
    out = invert_diffeo(AnalyticDiffeo.identity(ORDER, 1, EPS))
    assert np.abs(out.u.coeffs).max() < 1e-14


def test_group_axioms_sampled():
    rng = np.random.default_rng(0)
    maps = [AnalyticDiffeo.certify(
        0.01 * random_real_map(rng, max_mode=3, decay=1.0), EPS)
        for _ in range(3)]
    pts = _probe_points(1, 64)
    a, b, c = maps
    lhs = compose_diffeo(compose_diffeo(a, b), c)
    rhs = compose_diffeo(a, compose_diffeo(b, c))
    assert np.abs(lhs(pts) - rhs(pts)).max() <= 1e-9
    assert np.abs(compose_diffeo(a, invert_diffeo(a))(pts) - pts).max() <= 1e-9


def test_certify_falls_back_on_the_inverse_residual():
    # mu_eps = 2 pi a e^{2 pi eps} = 1.24, yet 2 pi a < 1: x + a sin(2 pi x)
    # is a diffeomorphism, certified by its inverse residual
    phi = AnalyticDiffeo.certify(sine_map(0.03, 16), 0.3)
    assert phi.mu >= 1.0
    assert phi.inverse_residual <= TOL_INVERSE


class _ConstantFlow:
    """A flow whose map is u at every time, as far as EvolutionResult and
    flow_two_param read one."""

    grid = None

    def __init__(self, u, eps):
        self.u, self.eps, self.order, self.m = u, eps, u.order, u.m

    def u_at_many(self, times):
        return self.u


def _spy_inversions(monkeypatch) -> list:
    """The coefficients of every stack ``_invert_stack`` inverts, as a list
    of (maps, ...) arrays."""
    seen, invert = [], group_module._invert_stack

    def spy(u):
        seen.append(u.flat().coeffs)
        return invert(u)
    monkeypatch.setattr(group_module, "_invert_stack", spy)
    return seen


def test_certify_maps_inverts_only_maps_with_mu_at_least_one_at_once(
        monkeypatch):
    maps = [sine_map(0.03, 16), sine_map(0.001, 16), sine_map(0.03, 16)]
    seen = _spy_inversions(monkeypatch)
    mu, resid = _certify_maps(MapStack(maps), 0.3)
    assert mu[1] < 1.0 <= mu[0] and np.isnan(resid[1])
    assert (resid[[0, 2]] <= TOL_INVERSE).all()
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.stack([maps[0].coeffs, maps[2].coeffs]))


def test_certify_maps_rejects_a_nan_map():
    nan_map = FourierMap(np.full_like(sine_map(0.001, 16).coeffs, np.nan))
    with pytest.raises(TorusflowError):
        _certify_maps(MapStack([sine_map(0.001, 16), nan_map]), 0.3)


def test_a_map_with_mu_at_least_one_is_inverted_once_per_certification(
        monkeypatch):
    """sine a = 0.03 at eps = 0.3 has mu = 1.24.  The left inverse of it
    inverts it once (its inverse is then certified in turn), and so does
    the two-parameter flow of a flow that is it at every time."""
    u = sine_map(0.03, 16)
    seen = _spy_inversions(monkeypatch)
    evol = EvolutionResult("right", None, _ConstantFlow(u, 0.3))
    evol._left_inverses(MapStack([u]))
    assert sum(np.array_equal(c, u.coeffs[None]) for c in seen) == 1
    seen.clear()
    phi = flow_two_param(evol, 0.5, 0.0)
    assert len(seen) == 1 and np.array_equal(seen[0], u.coeffs[None])
    assert phi.mu >= 1.0 and phi.inverse_residual <= TOL_INVERSE


def test_certify_rejects_a_fold():
    # 2 pi a > 1: x + a sin(2 pi x) folds, so no inverse can certify it
    fold = sine_map(0.2, 16)
    with pytest.raises(TorusflowError):
        AnalyticDiffeo.certify(fold, 0.1)
    with pytest.raises(TorusflowError):
        _certify_maps(MapStack([sine_map(0.001, 16), fold]), 0.1)


# -- evolutions ------------------------------------------------------------------

def test_evol_right_zero_is_identity():
    evo = evol_right(zero_field())
    assert all(np.abs(u.coeffs).max() == 0 for u in evo.snapshots)


def test_evol_right_translation():
    c = FourierMap.constant([0.1], ORDER)
    evo = evol_right(AdmissibleField.certify(
        TimeDependentField.constant(c, 0.2), EPS))
    for t in (0.3, 1.0):
        assert np.abs(map_at(evo, t).u.coeffs - t * c.coeffs).max() < 1e-13


def test_evol_right_agrees_with_pointwise(gam, right_evo):
    from torusflow import pointwise_solution
    pts = _probe_points(1, 16)
    for p in pts[:, 0]:
        traj = pointwise_solution(right_evo.flow, 0.0, [p])
        # the first grid time at or after each of 1/4, 3/4 and 1
        for j in np.searchsorted(traj.times, (0.25, 0.75, 1.0)):
            t = traj.times[j]
            val = right_evo.eval_at(t, np.array([[p]]))[0, 0]
            assert abs(val - traj.points[j, 0]) < 1e-8


def test_evol_left_translation_matches_right():
    c = FourierMap.constant([0.1], ORDER)
    gamma = AdmissibleField.certify(TimeDependentField.constant(c, 0.2), EPS)
    le = evol_left(gamma)
    for t in (0.5, 1.0):
        assert np.abs(le.eval_at(t, np.array([[0.2 + 0j]]))
                      - (0.2 + t * 0.1)).max() < 1e-11


def test_left_and_right_derivative_conventions(gam):
    r = evol_right(gam)
    l = evol_left(gam)
    assert r.derivative_residual() <= 1e-7
    assert l.derivative_residual() <= 1e-7


def test_left_right_identity_vs_independent_reversal(gam):
    # Evol^r(gamma) = Evol(-gamma)^{-1}, the right side built by
    # time-reversal solves with no inversion shared with the left side
    r = evol_right(gam)
    pts = _probe_points(1, 64)
    worst = 0.0
    for tq in (Fraction(1, 4), Fraction(5, 8), Fraction(1)):
        lhs = r.eval_at(float(tq), pts)
        evol_minus = evol_left_by_reversal(gam.negated(), tq)
        rhs = invert_diffeo(evol_minus)(pts)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-8


def test_reversal_at_time_zero_is_the_identity(gam):
    phi = evol_left_by_reversal(gam, Fraction(0))
    assert phi.mu == 0.0
    assert not phi.u.coeffs.any()
    assert (phi.order, phi.m, phi.eps) == (gam.field.order, 1, EPS)


# -- two-parameter flow --------------------------------------------------------------

def test_two_param_identity_at_equal_times(right_evo):
    out = flow_two_param(right_evo, 0.4, 0.4)
    assert np.abs(out.u.coeffs).max() == 0


def test_two_param_translation():
    c = FourierMap.constant([0.1], ORDER)
    evo = evol_right(AdmissibleField.certify(
        TimeDependentField.constant(c, 0.2), EPS))
    out = flow_two_param(evo, 0.8, 0.3)
    assert np.abs(out.u.constant_part() - 0.05).max() < 1e-12


def test_two_param_cocycle(right_evo):
    rng = np.random.default_rng(1)
    pts = _probe_points(1, 64)
    for _ in range(5):
        t, s, t0 = sorted(rng.uniform(0, 1, 3))[::-1]
        lhs = flow_two_param(right_evo, t, t0)
        rhs = compose_diffeo(flow_two_param(right_evo, t, s),
                             flow_two_param(right_evo, s, t0))
        assert np.abs(lhs(pts) - rhs(pts)).max() <= 1e-8


def test_flow_maps_carry_diffeo_certificates(right_evo):
    for t in (0.25, 0.5, 1.0):
        phi = map_at(right_evo, t)
        assert phi.mu < 1.0
        assert invert_diffeo(phi).inverse_residual <= 1e-10
        assert min_real_jacobian(phi) >= 1 - phi.mu > 0


def test_ac_modulus_shadow(right_evo):
    rows = ac_modulus_check(right_evo)
    assert all(ok for *_, ok in rows)


def test_ac_modulus_check_reads_sixteen_pairs_on_any_grid(gam):
    """The pairs are 17 uniform times read by time, so a solver grid of
    one interval checks as many pairs as one of 64."""
    rows = [ac_modulus_check(EvolutionResult(
        "right", gam, solve_flow(gam, grid=TimeGrid.uniform(n))))
        for n in (1, 4, 64)]
    times = np.linspace(0.0, 1.0, 17)
    for got in rows:
        assert len(got) == 16 and all(ok for *_, ok in got)
        assert np.array_equal([r[:2] for r in got],
                              np.stack([times[:-1], times[1:]], axis=1))
    assert np.abs(np.array([r[2:4] for r in rows[0]], dtype=float)
                  - np.array([r[2:4] for r in rows[2]], dtype=float)).max() < 1e-9


# -- adjoint --------------------------------------------------------------------------

def test_adjoint_identity():
    X = random_real_map(np.random.default_rng(2))
    out = adjoint(AnalyticDiffeo.identity(ORDER, 1, EPS), X)
    assert np.abs(out.coeffs - X.coeffs).max() < 1e-13


def test_adjoint_translation_is_shift():
    X = random_real_map(np.random.default_rng(3))
    tr = AnalyticDiffeo.certify(FourierMap.constant([0.3], ORDER), EPS)
    out = adjoint(tr, X)
    k = np.arange(-ORDER, ORDER + 1)
    want = X.coeffs * np.exp(-2j * np.pi * k * 0.3)[:, None]
    assert np.abs(out.coeffs - want).max() < 1e-12


def test_adjoint_roundtrip():
    rng = np.random.default_rng(4)
    phi = AnalyticDiffeo.certify(
        0.01 * random_real_map(rng, max_mode=3, decay=1.0), EPS)
    X = 0.5 * random_real_map(rng)
    back = adjoint(invert_diffeo(phi), adjoint(phi, X))
    assert np.abs(back.coeffs - X.coeffs).max() <= 1e-8


def test_adjoint_inverse_form_consistent():
    rng = np.random.default_rng(5)
    phi = AnalyticDiffeo.certify(
        0.01 * random_real_map(rng, max_mode=3, decay=1.0), EPS)
    X = 0.5 * random_real_map(rng)
    lhs = adjoint(invert_diffeo(phi), X)
    rhs = adjoint(phi, X, inverse=True)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-9


# -- the field product -----------------------------------------------------------------

def test_odot_neutral_elements(gam, eta):
    z = zero_field()
    p = odot(gam, z)
    t = 0.3
    assert np.abs(p.value_at(t).coeffs - gam.field.value_at(t).coeffs).max() \
        < 1e-12
    q = odot(z, eta)
    assert np.abs(q.value_at(t).coeffs - eta.field.value_at(t).coeffs).max() \
        < 1e-12


def test_odot_translations_commute_to_sum():
    c1 = AdmissibleField.certify(TimeDependentField.constant(
        FourierMap.constant([0.1], ORDER), 0.2), EPS)
    c2 = AdmissibleField.certify(TimeDependentField.constant(
        FourierMap.constant([0.07], ORDER), 0.2), EPS)
    p = odot(c1, c2)
    assert np.abs(p.value_at(0.4).constant_part() - 0.17).max() < 1e-12


def test_odot_homomorphism(gam, eta):
    prod = AdmissibleField.certify(odot(gam, eta), EPS)
    e_prod = evol_left(prod)
    e_g, e_e = evol_left(gam), evol_left(eta)
    pts = _probe_points(1, 64)
    for t in (0.5, 1.0):
        lhs = e_prod.eval_at(t, pts)
        rhs = e_g.eval_at(t, e_e.eval_at(t, pts))
        assert np.abs(lhs - rhs).max() <= 1e-7


def test_odot_affine_in_first_argument(gam, eta):
    g2 = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.01, ORDER), 0.2), EPS)
    a = 0.3
    mix = AdmissibleField.certify(
        a * gam.field + (1 - a) * g2.field, EPS)
    lhs = odot(mix, eta)
    p1, p2 = odot(gam, eta), odot(g2, eta)
    t = 0.6
    want = a * p1.value_at(t).coeffs + (1 - a) * p2.value_at(t).coeffs
    assert np.abs(lhs.value_at(t).coeffs - want).max() <= 1e-10


# -- derivative formulas -----------------------------------------------------------------

def test_derivative_at_zero_zero_field():
    rep = derivative_at_zero(zero_field(), 0.5)
    assert rep.discrepancy < 1e-14


def test_derivative_at_zero_translation_exact():
    c = AdmissibleField.certify(TimeDependentField.constant(
        FourierMap.constant([0.1], ORDER), 0.2), EPS)
    rep = derivative_at_zero(c, 0.5)
    assert rep.discrepancy < 1e-10


def test_derivative_at_zero_sine_richardson():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.04), 0.2), EPS)
    rep = derivative_at_zero(gamma, 1.0)
    assert rep.discrepancy <= 1e-6
    assert 0.2 <= richardson_ratio(rep) <= 0.3


def test_ad_transport_integral_does_not_integrate_across_a_jump():
    """W(t) does not depend on whether eta's grid holds gamma's jump: the
    Gauss intervals are cut at the breakpoints of both fields.  The flows
    of eta are solved far below the compared difference."""
    jump = TimeGrid((0, Fraction(1, 3), 1))
    gamma = TimeDependentField.step(
        jump, [sine_map(0.02, 16), cosine_map(0.02, 16)], 0.2)
    W = [ad_transport_integral(AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.01, 16), 0.2, grid), EPS),
        gamma, 0.6, tol_solve=1e-13).coeffs
        for grid in (TimeGrid.uniform(1), jump)]
    assert np.abs(W[0]).max() > 1e-3
    assert np.abs(W[0] - W[1]).max() <= 1e-15


def test_derivative_at_eta_gamma_zero(eta):
    d = derivative_at_eta(eta, zero_field(), 0.6)
    assert d < 1e-12


def test_derivative_at_eta_sine_pair(gam, eta):
    assert derivative_at_eta(eta, gam, 0.6) <= 1e-5


def test_derivative_probes_solve_on_the_grid_of_their_base_solve(
        monkeypatch, gam, eta):
    """The finite differences take the solves at +-tau on one grid: that of
    a solve of the field itself (derivative_at_zero, whose pinned solves
    would otherwise run on the field's one interval) or of the base eta
    (derivative_at_eta)."""
    solves = []

    def spy(gamma, *args, **kwargs):
        path = solve_flow(gamma, *args, **kwargs)
        solves.append((kwargs.get("fixed_iters"), kwargs.get("grid"), path.grid))
        return path

    monkeypatch.setattr(group_module, "solve_flow", spy)
    wide = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.04), 0.2), EPS)
    derivative_at_zero(wide, 1.0)
    (_, _, base), *pinned = solves
    assert base != wide.field.grid and len(pinned) == 4
    assert all(n == 12 and given == got == base for n, given, got in pinned)
    solves.clear()
    derivative_at_eta(eta, gam, 0.6)
    (_, _, base), up, dn, _ = solves
    assert up[1] == up[2] == base and dn[1] == dn[2] == base


def test_derivative_at_eta_reduces_at_zero_base(gam):
    # with eta = 0 the formula collapses to the primitive of gamma
    d = derivative_at_eta(zero_field(), gam, 0.7)
    assert d <= 1e-6


# -- Trotter ---------------------------------------------------------------------------

def test_trotter_single_factor_is_exact():
    v = sine_map(0.02)
    curve = trotter_curve(v, FourierMap.zero(ORDER, 1, 1), EPS,
                          n_values=(8, 16))
    assert max(d for _, d in curve) <= 1e-9


def test_trotter_commuting_translations():
    c1 = FourierMap.constant([0.05], ORDER)
    c2 = FourierMap.constant([0.08], ORDER)
    curve = trotter_curve(c1, c2, EPS, n_values=(8, 16))
    assert max(d for _, d in curve) <= 1e-12


def test_trotter_first_order_rate():
    curve = trotter_curve(sine_map(0.02), cosine_map(0.02), EPS,
                          n_values=(8, 16, 32))
    ds = [d for _, d in curve]
    for a, b in zip(ds, ds[1:]):
        assert 0.35 <= b / a <= 0.65


def _two_mode_pair(order):
    """Two non-commuting fields of two modes each."""
    v = FourierMap.from_modes({1: [-0.004j], 2: [0.0015]}, order)
    w = FourierMap.from_modes({1: [0.004], 2: [-0.001j]}, order)
    return v, w


@pytest.mark.parametrize("order", [16, 32])
@pytest.mark.parametrize("pair", ["sine_cosine", "two_modes"])
def test_trotter_curve_matches_the_per_rung_loop(order, pair):
    v, w = ((sine_map(0.02, order), cosine_map(0.02, order))
            if pair == "sine_cosine" else _two_mode_pair(order))
    ladder = (8, 16, 32, 64, 128)
    curve = trotter_curve(v, w, EPS, ladder)
    oracle = ref.trotter_curve(v, w, EPS, ladder)
    assert [n for n, _ in curve] == list(ladder)
    for (_, d), (_, d_ref) in zip(curve, oracle):
        assert abs(d - d_ref) <= 1e-6 * d_ref


@pytest.mark.parametrize("order", [16, 32])
def test_exp_ladder_maps_are_the_time_one_flows(order):
    v, w = _two_mode_pair(order)
    X = v + w
    ks = np.array([3, 5, 4, 7])
    u = group_module._exp_ladder(X, EPS, ks)
    for k, uk in zip(ks, u):
        ref_u = exp_field((1.0 / 2 ** k) * X, EPS).u
        assert np.abs(uk.coeffs - ref_u.coeffs).max() <= 1e-12


def test_trotter_curve_solves_three_flows_and_composes_eight_stacks(
        monkeypatch):
    solves, composes = [], []
    solve, compose = group_module.solve_flow, group_module.compose
    monkeypatch.setattr(group_module, "solve_flow",
                        lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    monkeypatch.setattr(group_module, "compose", lambda g, u, **kw: (
        composes.append(u.batch) or compose(g, u, **kw)))
    curve = trotter_curve(sine_map(0.02, 16), cosine_map(0.02, 16), EPS,
                          (8, 16, 32, 64, 128))
    assert len(curve) == 5
    assert len(solves) == 3
    # the step maps of all 5 rungs, then rounds squaring 5, 5, 5, 4, 3, 2, 1
    assert composes == [(5,), (5,), (5,), (5,), (4,), (3,), (2,), (1,)]


def test_trotter_rungs_keep_the_callers_order():
    v, w = sine_map(0.02, 16), cosine_map(0.02, 16)
    ordered = dict(trotter_curve(v, w, EPS, (8, 16, 32)))
    shuffled = trotter_curve(v, w, EPS, (32, 8, 16))
    assert [n for n, _ in shuffled] == [32, 8, 16]
    for n, d in shuffled:
        assert abs(d - ordered[n]) <= 1e-12 * ordered[n]
    with pytest.raises(ValueError, match="must be dyadic"):
        trotter_curve(v, w, EPS, (8, 12))


def test_exp_field_is_time_one_flow(gam):
    phi = exp_field(gam.field.value_at(0.0), EPS)
    flow = solve_flow(gam)
    assert np.abs(phi.u.coeffs - flow.snapshots[-1].coeffs).max() <= 1e-10


# -- pointwise recognition ----------------------------------------------------------------

def test_verify_pointwise_self_consistency(gam, right_evo):
    probes = (np.arange(8) + 0.37) / 8
    rep = verify_evolution_pointwise(right_evo, gam, probes)
    assert rep.check.ok


def test_verify_pointwise_left_side(gam):
    probes = (np.arange(6) + 0.21) / 6
    rep = verify_evolution_pointwise(evol_left(gam), gam, probes)
    assert rep.check.ok


def test_verify_pointwise_identity_fails(gam, right_evo):
    from torusflow.group import EvolutionResult
    fake = EvolutionResult("right", gam, right_evo.flow,
                           [FourierMap.zero(ORDER, 1, 1)]
                           * len(right_evo.grid))
    probes = (np.arange(4) + 0.3) / 4
    rep = verify_evolution_pointwise(fake, gam, probes)
    assert not rep.check.ok
    # residual at t=1 is about the size of the integral of the field
    assert rep.max_residual > 1e-3


def test_m2_compose_invert_adjoint():
    order = 8
    u = FourierMap.zero(order, 2, 2)
    u.coeffs[order, order + 1] = [-0.5j * 0.01, 0]
    u.coeffs[order, order - 1] = [0.5j * 0.01, 0]
    u.coeffs[order + 1, order] = [0, 0.008]
    u.coeffs[order - 1, order] = [0, 0.008]
    phi = AnalyticDiffeo.certify(FourierMap(u.coeffs), EPS)
    inv = invert_diffeo(phi)
    assert inv.inverse_residual <= 1e-10
    pts = _probe_points(2, 49)
    assert np.abs(compose_diffeo(phi, inv)(pts) - pts).max() <= 1e-9
    X = FourierMap.zero(order, 2, 2)
    X.coeffs[order + 1, order + 1] = [0.1, 0.05j]
    X.coeffs[order - 1, order - 1] = [0.1, -0.05j]
    X = FourierMap(X.coeffs)
    back = adjoint(invert_diffeo(phi), adjoint(phi, X))
    assert np.abs(back.coeffs - X.coeffs).max() <= 1e-8


def test_verify_pointwise_fault_localized(gam, right_evo):
    from torusflow.group import EvolutionResult
    j0 = len(right_evo.grid) // 2
    tampered = list(right_evo.snapshots)
    tampered[j0] = tampered[j0] + FourierMap.constant([1e-4], ORDER)
    faulty = EvolutionResult("right", gam, right_evo.flow, tampered)
    probes = (np.arange(4) + 0.3) / 4
    rep = verify_evolution_pointwise(faulty, gam, probes)
    assert not rep.check.ok
    bad_times = sorted({t for _, t, r in rep.rows if r > 1e-8})
    assert bad_times == [right_evo.grid.floats[j0]]


def test_verify_pointwise_nan_snapshot_fails(gam, right_evo):
    snaps = right_evo.snapshots.coeffs.copy()
    snaps[len(snaps) // 2, ORDER + 1, 0] = np.nan
    faulty = EvolutionResult("right", gam, right_evo.flow, snaps)
    rep = verify_evolution_pointwise(faulty, gam, (np.arange(4) + 0.3) / 4)
    assert np.isnan(rep.max_residual)
    assert not rep.check.ok
