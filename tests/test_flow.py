"""The contraction solver: oracles, certificates, consistency checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from torusflow import (AdmissibilityViolation, AdmissibleField, DomainEscape,
                       FlowPath, FourierMap, RealityDefect, TimeDependentField,
                       TimeGrid, TruncationBudgetExceeded, identity_path,
                       odot, param_lipschitz_check, pointwise_solution,
                       restriction_consistency, solve_flow)
from torusflow import flow as flow_module
from torusflow.errors import ContractionStall, NonContraction
from torusflow import fourier as fourier_module
from torusflow.fourier import (TOL_TRUNC, _support_band, _tail_ratio,
                               jacobian, sampling_grid, strip_norms)
from torusflow.flow import (RATIO_SLACK, contraction_certificate_ok,
                            invert_at_point, max_contraction_ratio)
from torusflow.timepaths import FIT_NODES, node_values

import _reference_loops as ref_loops
from _readings import eval_points, field_from_profile
from _reference_loops import _real_horner
from _reference_sweep import reference_sweep
from conftest import (EPS, composition_grids, cosine_map, probe_points,
                      random_admissible, sine_map)


def tangent_oracle(y0, t, a=0.02):
    """Closed form of y' = a sin(2 pi y): tan(pi y(t)) = e^{2 pi a t} tan(pi y0)."""
    y = np.arctan(np.exp(2 * np.pi * a * t) * np.tan(np.pi * y0)) / np.pi
    return np.where(np.asarray(y0) % 1.0 > 0.5, y + 1.0, y)


# -- admissibility -------------------------------------------------------------

def test_certificates_computed():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.02), 0.2), EPS)
    assert 0 < gamma.theta_hat < 0.5
    assert gamma.l1_nu < gamma.l1_beta


def test_inadmissible_rejected():
    big = TimeDependentField.constant(sine_map(0.2), 0.2)
    with pytest.raises(AdmissibilityViolation):
        AdmissibleField.certify(big, EPS)


def test_chart_certificate():
    gamma = TimeDependentField.constant(FourierMap.constant([0.3], 32), 0.2)
    with pytest.raises(AdmissibilityViolation):
        AdmissibleField.certify(gamma, EPS, chart_delta0=1.0, for_chart=True)
    AdmissibleField.certify(gamma, EPS, chart_delta0=2.0, for_chart=True)


# -- picard step -----------------------------------------------------------------

def test_picard_step_zero_field():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(32, 1, 1), 0.2), EPS)
    path = solve_flow(gamma, start=identity_path(gamma), fixed_iters=1)
    assert all(np.abs(u.coeffs).max() == 0 for u in path.snapshots)


def test_picard_step_constant_field():
    c = FourierMap.constant([0.1], 32)
    gamma = AdmissibleField.certify(TimeDependentField.constant(c, 0.2), EPS)
    path = solve_flow(gamma, start=identity_path(gamma), fixed_iters=1)
    for t in (0.25, 0.5, 1.0):
        assert np.abs(path.u_at(t).coeffs - t * c.coeffs).max() < 1e-14


def test_picard_first_iterate_is_field_primitive(sine_gamma):
    path = solve_flow(sine_gamma, start=identity_path(sine_gamma),
                      fixed_iters=1)
    t = 0.75
    want = t * sine_gamma.field.value_at(0.0).coeffs
    assert np.abs(path.u_at(t).coeffs - want).max() < 1e-13


def _coupled_m2_field(order=8, a=0.004, b=0.003):
    """Two-component field on T^2 whose components each depend on both axes."""
    f = FourierMap.zero(order, 2, 2)
    f.coeffs[order, order + 1] = [-0.5j * a, 0.3 * a]
    f.coeffs[order, order - 1] = [0.5j * a, 0.3 * a]
    f.coeffs[order + 1, order] = [0.1 * b, 0.5 * b]
    f.coeffs[order - 1, order] = [0.1 * b, 0.5 * b]
    f.coeffs[order + 1, order + 1] = [0.2 * a, -0.25j * b]
    f.coeffs[order - 1, order - 1] = [0.2 * a, 0.25j * b]
    return TimeDependentField.constant(FourierMap(f.coeffs), 0.2)


def _full_band_m1(order=8, edge=2e-11):
    """A sine plus a cosine at |k| = N, as large as the tail budget allows."""
    return TimeDependentField.constant(
        sine_map(0.02, order=order)
        + cosine_map(edge, order=order, mode=order), 0.2)


def _full_band_m2(order=6, edge=5e-12):
    """A weak coupled field plus modes (N, 0) and (0, N), near the tail budget."""
    f = _coupled_m2_field(order, a=4e-4, b=3e-4).value_at(0.0)
    f.coeffs[2 * order, order] = f.coeffs[0, order] = [edge, 0.5 * edge]
    f.coeffs[order, 2 * order] = [-1j * edge, 0.0]
    f.coeffs[order, 0] = [1j * edge, 0.0]
    return TimeDependentField.constant(FourierMap(f.coeffs), 0.2)


#: field factory, solver step and the band K of the field's nonzero modes
DIFFERENTIAL_FIELDS = {
    "m1_step_3_pieces": (lambda: TimeDependentField.step(
        TimeGrid((0, Fraction(1, 4), Fraction(5, 8), 1)),
        [sine_map(0.02), cosine_map(0.01, mode=2),
         sine_map(0.01) + cosine_map(0.004, mode=3)], 0.2), Fraction(1, 16), 3),
    "m1_profile_cubic": (lambda: field_from_profile(
        sine_map(0.03) + cosine_map(0.01, mode=2),
        lambda t: np.cos(3 * t) + t * t, 0.2, n_pieces=8), Fraction(1, 16), 2),
    "m2_coupled_N8": (_coupled_m2_field, Fraction(1, 8), 1),
    "m1_full_band_N8": (_full_band_m1, Fraction(1, 16), 8),
    "m2_full_band_N6": (_full_band_m2, Fraction(1, 8), 6),
    "m1_sine_N64": (lambda: TimeDependentField.constant(
        sine_map(0.02, order=64), 0.2), Fraction(1, 16), 1),
    "m1_constant_N8": (lambda: TimeDependentField.constant(
        FourierMap.constant([0.03], 8), 0.2), Fraction(1, 16), 0),
    "m2_constant_N6": (lambda: TimeDependentField.constant(
        FourierMap.constant([0.02, -0.01], 6, m=2), 0.2), Fraction(1, 8), 0),
}


#: the differential fields, and a weaker coupled m = 2 field that solves
SOLVE_FIELDS = {**DIFFERENTIAL_FIELDS, "m2_coupled_weak_N8": (
    lambda: _coupled_m2_field(a=1e-3, b=1e-3), Fraction(1, 4), 1)}


@pytest.mark.parametrize("name", sorted(SOLVE_FIELDS))
def test_solve_matches_the_parent_sweep_bit_for_bit(name):
    """solve_flow gives the bytes of the solve driven by the parent's sweep
    (``ref_loops.parent_solve``): the grid, snapshots, pieces, iteration
    log, discarded sweeps and residual, or the same fault: the full-band
    m = 2 field and the coupled one at the default budget spread past the
    order."""
    make, max_step, _ = SOLVE_FIELDS[name]
    gamma = AdmissibleField.certify(make(), EPS)
    try:
        path = solve_flow(gamma, max_step=max_step)
    except TruncationBudgetExceeded as exc:
        with pytest.raises(TruncationBudgetExceeded) as want:
            ref_loops.parent_solve(gamma, max_step)
        assert str(exc) == str(want.value) and name in (
            "m2_coupled_N8", "m2_full_band_N6")
        return
    grid, snaps, pieces, log, discarded, residual = ref_loops.parent_solve(
        gamma, max_step)
    assert path.grid == grid
    assert path.snapshots.coeffs.tobytes() == snaps.tobytes()
    assert path.pieces.shape == pieces.shape
    assert path.pieces.tobytes() == pieces.tobytes()
    assert repr((path.iteration_log, path.discarded, path.residual)) == repr(
        (log, discarded, residual))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FIELDS))
def test_sweep_matches_compose_reference(name):
    make, max_step, band = DIFFERENTIAL_FIELDS[name]
    gamma = AdmissibleField.certify(make(), EPS)
    path = identity_path(gamma, max_step)
    gam = gamma.field.on_grid(path.grid)
    assert max(_support_band(node_values(gam.pieces, FIT_NODES))) == band
    for _ in range(2):  # from the identity path, then from a quartic iterate
        want_snaps, want_pieces = reference_sweep(gam, path, EPS, TOL_TRUNC)
        path = solve_flow(gamma, start=path, fixed_iters=1)
        assert max(np.abs(a.coeffs - b.coeffs).max() for a, b in
                   zip(path.snapshots, want_snaps)) <= 1e-13
        assert max(np.abs(a - b).max() for a, b in
                   zip(path.pieces, want_pieces)) <= 1e-13


def _odot_field(order=16):
    """gamma ⊙ eta of two constant fields: cubic pieces in time."""
    gam, eta = (AdmissibleField.certify(TimeDependentField.constant(f, 0.2), EPS)
                for f in (sine_map(0.02, order=order),
                          cosine_map(0.01, order=order)))
    return odot(gam, eta)


@pytest.mark.parametrize("field, max_step, plans_per_grid, grids", [
    (lambda: _coupled_m2_field(a=1e-3, b=1e-3), Fraction(1, 4), 0, 1),
    (lambda: TimeDependentField.constant(sine_map(0.03, order=32), 0.2), 1,
     0, 2),
    (_odot_field, 1, 2, 2)],
    ids=["m2_coupled_N8", "m1_sine_N32", "m1_odot_N16"])
def test_composition_plan_is_built_once_per_solver_grid(
        field, max_step, plans_per_grid, grids, monkeypatch):
    """Each solver grid builds one CompositionPlan for its field stack and,
    for a field that varies in time, one for its defect pass, however many
    sweeps it runs on them.  A field that is one map at all times
    (``plans_per_grid`` 0) has one plan per solve, which every grid and
    its defect pass share.  Every sweep and defect pass composes once,
    except the first sweep, which starts from the identity path.  The
    solves take ``grids`` grids: the m = 1 ones halve theirs once."""
    gamma = AdmissibleField.certify(field(), EPS)
    counts = {"plans": 0, "grids": 0, "composes": 0, "runs": 0, "defects": 0}

    def counted(cls, name, key):
        method = getattr(cls, name)

        def spy(self, *args, **kwargs):
            counts[key] += 1
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, spy)
    counted(fourier_module.CompositionPlan, "__init__", "plans")
    counted(fourier_module.CompositionPlan, "compose", "composes")
    counted(flow_module._PicardSweep, "__init__", "grids")
    counted(flow_module._PicardSweep, "run", "runs")
    counted(flow_module._PicardSweep, "defect", "defects")
    solve_flow(gamma, max_step=max_step)
    assert counts["plans"] == (plans_per_grid * counts["grids"]
                               if plans_per_grid else 1)
    assert counts["composes"] == counts["runs"] - 1 + counts["defects"]
    assert counts["composes"] > counts["plans"] + 2
    assert counts["grids"] == grids


def _support_m2_field(order=12, a=0.002):
    """A field on T^2 with the support {(1, 0), (1, -1), (0, 2)} and its
    mirror, whose band is (K_1 + 1, 2 K_2 + 1) = (2, 5)."""
    modes = {(1, 0): [0.3j * a, 0.2 * a], (1, -1): [0.1 * a, -0.4j * a],
             (0, 2): [0.25 * a, 0.15j * a]}
    modes.update({(-k1, -k2): np.conj(c) for (k1, k2), c in modes.items()})
    return TimeDependentField.constant(
        FourierMap.from_modes(modes, order, m=2), 0.2)


@pytest.mark.parametrize("field, max_step", [
    (_support_m2_field, Fraction(1, 8)),
    (lambda: TimeDependentField.constant(
        sine_map(0.01, order=32) + cosine_map(0.003, mode=3, order=32), 0.2),
     Fraction(1, 4))], ids=["m2_N12", "m1_N32"])
def test_identity_sweep_takes_the_field_at_the_nodes(field, max_step,
                                                     monkeypatch):
    """compose of the field stack with u = 0 returns the field's own
    coefficients, so the sweep of the identity path, which makes no
    compose call, has the bits of the sweep that composes."""
    gamma = AdmissibleField.certify(field(), EPS)
    path = identity_path(gamma, max_step)
    sweep = flow_module._PicardSweep(gamma, path.grid, None)
    composed = sweep._compose(sweep.plan, np.zeros_like(sweep.nodes))
    assert np.array_equal(composed, sweep.nodes)
    want = sweep._integrate(composed)
    calls = []
    compose = fourier_module.CompositionPlan.compose
    monkeypatch.setattr(fourier_module.CompositionPlan, "compose",
                        lambda self, *a: calls.append(1) or compose(self, *a))
    got = sweep.run(path.pieces)
    assert calls == []
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _hermitian(rng, shape, m):
    """Random coefficients with c_{-k} = conj(c_k) on the first m axes."""
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (c + c[(slice(None, None, -1),) * m].conj())


@pytest.mark.parametrize("K", [0, 1, 5])
def test_laurent_horner_matches_direct_sum(K):
    rng = np.random.default_rng(K)
    a = np.moveaxis(_hermitian(rng, (2 * K + 1, 3, 2, 1), 1), 0, 1)
    y = rng.uniform(-1.0, 2.0, (3, 1, 40))
    k = np.arange(-K, K + 1)[None, :, None]
    want = np.einsum("ckj,ckp->cjp", a[..., 0], np.exp(2j * np.pi * k * y))
    half = a[:, K:].copy()      # c_0, 2 c_1, .., 2 c_K
    half[:, 1:] *= 2
    got = _real_horner(half, np.exp(2j * np.pi * y))
    assert got.shape == (3, 2, 40) and got.dtype == float
    assert np.abs(got - want).max() <= 1e-13


def _random_real_field(seed, m, order, band):
    """A real field on T^m with decaying modes |k_i| <= band, 1 to 3 pieces.

    Scaled to a random L^1 beta budget below the admissibility bound.
    """
    rng = np.random.default_rng(seed)
    n_pieces = int(rng.integers(1, 4))
    cuts = sorted(rng.choice(np.arange(1, 8), n_pieces - 1, replace=False))
    grid = TimeGrid((0, *(Fraction(int(c), 8) for c in cuts), 1))
    k = np.abs(np.arange(-band, band + 1))
    decay = np.exp(-0.7 * (k if m == 1 else k[:, None] + k))[..., None]
    values = []
    for _ in range(n_pieces):
        cube = np.zeros((2 * order + 1,) * m + (m,), dtype=complex)
        cube[(slice(order - band, order + band + 1),) * m] = decay * _hermitian(
            rng, (2 * band + 1,) * m + (m,), m)
        values.append(FourierMap(cube))
    field = TimeDependentField.step(grid, values, 0.2)
    budget = float(rng.uniform(0.05, 0.4))
    return (budget / field.lp_norm(1, "beta", 2 * EPS)) * field


def _sweep_matches_reference(seed, m, order, band):
    """The sweep at the truncation budget 1.0, so that random fields reach
    the reference at any band."""
    gamma = AdmissibleField.certify(
        _random_real_field(seed, m, order, band), EPS)
    coarse = identity_path(gamma, Fraction(1, 8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_module, "TOL_TRUNC", 1.0)
        start = FlowPath(coarse.grid, EPS, *flow_module._PicardSweep(
            gamma, coarse.grid, None).run(coarse.pieces))
        with composition_grids() as grids:
            try:
                out = flow_module._PicardSweep(gamma, start.grid, None).run(
                    start.pieces)
            except TruncationBudgetExceeded:
                out = None
    if any(np.isinf(alias).all() for _, alias in grids):
        assert out is None      # no grid certifies a composite of the sweep
        return
    snaps, pieces = out
    gam = gamma.field.on_grid(start.grid)
    want_snaps, want_pieces = reference_sweep(gam, start, EPS, 1.0)
    assert max(np.abs(a - b.coeffs).max() for a, b in
               zip(snaps, want_snaps)) <= 1e-13
    assert max(np.abs(a - b).max() for a, b in
               zip(pieces, want_pieces)) <= 1e-13


@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 12),
       data=st.data())
@settings(max_examples=12, deadline=None)
def test_sweep_matches_reference_random_m1(seed, order, data):
    band = data.draw(st.integers(0, order))
    _sweep_matches_reference(seed, 1, order, band)


@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 6),
       data=st.data())
@settings(max_examples=6, deadline=None)
def test_sweep_matches_reference_random_m2(seed, order, data):
    band = data.draw(st.integers(0, order))
    _sweep_matches_reference(seed, 2, order, band)


@pytest.mark.parametrize("m", [1, 2])
def test_half_spectrum_tail_ratio_matches_full(m):
    M, _ = sampling_grid(8, m)     # the cap of the compose grid at order 8
    rng = np.random.default_rng(m)
    axes = tuple(range(-m, 0))
    # per node: smooth modes |k| <= 3 plus white noise of three sizes
    x = np.arange(M) / M
    smooth = np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x)
    noise = rng.normal(size=(3, m) + (M,) * m)
    vals = smooth.reshape((M,) + (1,) * (m - 1)) + np.array(
        [1e-14, 1e-6, 1.0]).reshape((3,) + (1,) * (m + 1)) * noise
    full = np.abs(np.fft.fftn(vals, axes=axes, norm="forward")).max(axis=1)
    kf = np.abs(np.fft.fftfreq(M, d=1.0 / M))
    outside = sum(np.ix_(*[kf] * m)) > 8
    want = full[:, outside].sum(axis=1) / full.reshape(3, -1).sum(axis=1)
    got = _tail_ratio(np.fft.rfftn(vals, axes=axes, norm="forward"), M, m, 8)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    assert want[0] < 1e-9 < want[1] < want[2]


def test_picard_step_rejects_non_real_candidate(sine_gamma):
    grid = sine_gamma.field.grid.refined(Fraction(1, 8))
    u = FourierMap.zero(32, 1, 1)
    u.coeffs[33] = 0.01     # mode 1 without its conjugate mode -1
    start = FlowPath(grid, EPS, [u] * len(grid),
                     [u.coeffs[None, ...]] * (len(grid) - 1))
    with pytest.raises(RealityDefect):
        solve_flow(sine_gamma, start=start, fixed_iters=1)


def test_solve_start_path_escaping_strip_m1(sine_gamma):
    grid = sine_gamma.field.grid.refined(Fraction(1, 8))
    u = sine_map(0.5)     # imag_reach(u, eps) ~ 0.27 > 2 eps
    start = FlowPath(grid, EPS, [u] * len(grid),
                     [u.coeffs[None, ...]] * (len(grid) - 1))
    with pytest.raises(DomainEscape):
        solve_flow(sine_gamma, start=start)


# -- solve ------------------------------------------------------------------------

def test_solve_zero_field_one_iteration():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(32, 1, 1), 0.2), EPS)
    path = solve_flow(gamma)
    assert len(path.iteration_log) == 1
    assert all(np.abs(u.coeffs).max() == 0 for u in path.snapshots)


def test_solve_piecewise_translation():
    c = FourierMap.constant([0.2], 32)
    field = TimeDependentField.step(TimeGrid((0, Fraction(1, 2), 1)),
                                    [c, -1 * c], 0.2)
    path = solve_flow(AdmissibleField.certify(field, EPS))
    assert np.abs(path.snapshots[-1].coeffs).max() < 1e-14
    assert np.abs(path.u_at(0.5).constant_part() - 0.1).max() < 1e-14


def test_solve_matches_tangent_closed_form(sine_flow):
    probes = (np.arange(64) + 0.3) / 64
    got = eval_points(sine_flow, 1.0, probes[:, None].astype(complex))[:, 0]
    assert np.abs(got.real - tangent_oracle(probes, 1.0)).max() < 1e-8
    # frozen probe value, recomputed from the closed form
    y_quarter = float(tangent_oracle(0.25, 1.0))
    assert y_quarter == pytest.approx(0.26994756896743394, abs=1e-15)
    got_quarter = eval_points(sine_flow, 1.0, np.array([[0.25 + 0j]]))[0, 0]
    assert abs(got_quarter.real - y_quarter) < 1e-10


def test_contraction_certificate(sine_flow, sine_gamma):
    assert contraction_certificate_ok(sine_flow)
    ratios = [r for _, d, r in sine_flow.iteration_log[1:]
              if np.isfinite(r) and d > 1e-13]
    assert max(ratios) <= sine_gamma.theta_hat + 0.05
    assert sine_flow.residual <= 1e-10


@pytest.mark.parametrize("budget", [0.15, 0.25, 0.35, 0.45])
def test_order_64_sine_solves_pass_the_contraction_certificate(budget):
    """At N = 64 nu_eps weighs the top modes by e^{2 pi eps 64} = 5.4e8.
    Rounding in the fit of g o (id + u) at the size of g then read as
    sweep steps near the stopping target and broke the observed ratios;
    fitted as the difference from g, it stays below the target."""
    a = budget / (2 * np.pi * np.exp(2 * np.pi * 2 * EPS))
    gamma = AdmissibleField.certify(TimeDependentField.constant(
        sine_map(a, order=64), 4 * EPS), EPS)
    path = solve_flow(gamma)
    assert contraction_certificate_ok(path), path.iteration_log


def test_discarded_sweeps_are_logged_and_read_by_the_certificate():
    """A sweep that breaks the ratio certificate on a grid that can still be
    halved is not kept, but ``discarded`` logs it with its measured
    rounding level, and the certificate excuses it only while its excess
    over theta_hat times the step before it is within ROUNDING_SPAN of
    those levels: without them it counts, and fails."""
    a = 0.45 / (2 * np.pi * np.exp(2 * np.pi * 2 * EPS))
    gamma = AdmissibleField.certify(TimeDependentField.constant(
        sine_map(a, order=64), 4 * EPS), EPS)
    path = solve_flow(gamma)
    assert path.discarded and contraction_certificate_ok(path)
    for _, diff, ratio, noise in path.discarded:
        assert ratio > gamma.theta_hat + RATIO_SLACK and noise > 0
    path.discarded = [row[:3] + (0.0,) for row in path.discarded]
    assert max_contraction_ratio(path) == max(r for _, _, r, _ in path.discarded)
    assert not contraction_certificate_ok(path)


def test_solver_uniqueness_from_different_starts(sine_gamma):
    p1 = solve_flow(sine_gamma)
    warm = solve_flow(sine_gamma, start=identity_path(sine_gamma),
                      fixed_iters=1)
    p2 = solve_flow(sine_gamma, start=warm)
    assert p1.sup_distance(p2) <= 2e-10


def test_time_reversal_roundtrip(sine_gamma, sine_flow):
    rev = AdmissibleField.certify(
        -1 * sine_gamma.field.time_reversed(), EPS)
    back = solve_flow(rev)
    pts = probe_points(33)
    fwd_pts = eval_points(sine_flow, 1.0, pts)
    assert np.abs(eval_points(back, 1.0, fwd_pts) - pts).max() <= 1e-9


def test_strip_invariant_certificate(sine_flow):
    assert sine_flow.check_strip_invariant()


def test_imaginary_growth_sampled(sine_flow):
    rng = np.random.default_rng(5)
    starts = rng.uniform(0, 1, 100) + 1j * rng.uniform(-EPS / 2, EPS / 2, 100)
    for t in np.linspace(0.0, 1.0, 9):
        vals = eval_points(sine_flow, t, starts[:, None])
        assert np.abs(vals.imag).max() < EPS


# -- parameter dependence ------------------------------------------------------------

def test_lipschitz_identical_fields(sine_gamma):
    rep = param_lipschitz_check(sine_gamma, sine_gamma)
    assert rep.sup_distance == 0 and rep.ratio == 0


def test_lipschitz_translation_pair():
    zero = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(32, 1, 1), 0.2), EPS)
    c = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.constant([0.1], 32), 0.2), EPS)
    rep = param_lipschitz_check(zero, c)
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.check.ok


def test_lipschitz_random_pairs():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(5):
        g1 = random_admissible(rng)
        delta = random_admissible(rng, budget=float(rng.uniform(0.01, 0.05)))
        g2 = AdmissibleField.certify(g1.field + delta.field, EPS)
        rep = param_lipschitz_check(g1, g2)
        worst = max(worst, rep.ratio)
    assert worst <= 2 + 1e-6


# -- pointwise solutions --------------------------------------------------------------

def test_pointwise_zero_field():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(32, 1, 1), 0.2), EPS)
    traj = pointwise_solution(solve_flow(gamma), 0.0, [0.3])
    assert np.abs(traj.points - 0.3).max() < 1e-15


def test_pointwise_constant_field():
    c = FourierMap.constant([0.15], 32)
    gamma = AdmissibleField.certify(TimeDependentField.constant(c, 0.2), EPS)
    traj = pointwise_solution(solve_flow(gamma), 0.0, [0.2])
    want = 0.2 + 0.15 * traj.times
    assert np.abs(traj.points[:, 0].real - want).max() < 1e-13


def test_pointwise_against_rk_oracle(sine_flow):
    traj = pointwise_solution(sine_flow, 0.0, [0.33])
    sol = solve_ivp(lambda t, y: 0.02 * np.sin(2 * np.pi * y), (0, 1), [0.33],
                    method="DOP853", rtol=1e-10, atol=1e-12,
                    t_eval=traj.times)
    assert np.abs(traj.points[:, 0].real - sol.y[0]).max() <= 1e-8
    assert traj.check.ok


def test_pointwise_nonzero_base_time(sine_flow):
    traj = pointwise_solution(sine_flow, 0.5, [0.4])
    sol = solve_ivp(lambda t, y: 0.02 * np.sin(2 * np.pi * y), (0.5, 1), [0.4],
                    method="DOP853", rtol=1e-10, atol=1e-12)
    assert abs(traj.points[-1, 0].real - sol.y[0, -1]) <= 1e-8
    assert traj.max_residual <= 1e-8


def test_pointwise_domain_escape(sine_flow):
    with pytest.raises(DomainEscape):
        pointwise_solution(sine_flow, 0.0, [0.3 + 0.9j * EPS])


def test_times_outside_unit_interval_rejected(sine_flow, sine_gamma):
    """The end pieces are not extrapolated: times outside [0, 1] raise."""
    for t in (1.5, -0.3):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sine_flow.u_at(t)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sine_gamma.field.values_at([0.5, t])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            pointwise_solution(sine_flow, t, [0.3])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sine_flow.grid.quadrature(0.0, t)
    for t, k in ((0.0, 0), (1.0, -1)):
        assert np.abs(sine_flow.u_at(t).coeffs
                      - sine_flow.snapshots[k].coeffs).max() <= 1e-15
        assert sine_gamma.field.values_at([t]).batch == (1,)
        assert pointwise_solution(sine_flow, t, [0.3]).check.ok


def test_pointwise_takes_one_start_point(sine_flow):
    """Only one point of T^m starts a trajectory, a scalar when m = 1."""
    for y0 in ([0.3, 0.7], [[0.3], [0.7]]):
        with pytest.raises(ValueError, match="one point"):
            pointwise_solution(sine_flow, 0.0, y0)
    assert pointwise_solution(sine_flow, 0.0, 0.3).check.ok
    f = FourierMap.from_modes({(0, 1): [-0.01j, 0.0], (1, 0): [0.0, 0.01]},
                              8, m=2)
    flow2 = solve_flow(AdmissibleField.certify(
        TimeDependentField.constant(f, 0.2), EPS), max_step=Fraction(1, 8))
    for y0 in (0.3, [0.3, 0.7, 0.1], [[0.3, 0.7], [0.1, 0.2]]):
        with pytest.raises(ValueError, match="one point"):
            pointwise_solution(flow2, 0.0, y0)
    assert pointwise_solution(flow2, 0.0, [0.3, 0.7]).check.ok


def test_sweep_rejects_a_path_grid_without_the_field_breakpoints():
    """A start path whose grid misses a breakpoint of the field would fit
    its cubics across the field's jumps; the solver refuses it, and a grid
    that holds the breakpoints solves as the fine start grid of 1/64 steps
    does."""
    thirds = TimeGrid((0, Fraction(1, 3), Fraction(2, 3), 1))
    gamma = AdmissibleField.certify(TimeDependentField.step(
        thirds, [sine_map(0.02, 16), cosine_map(0.02, 16),
                 sine_map(0.01, 16, mode=2)], 0.2), EPS)

    def zero_path(grid):
        shape = (33, 1)
        return FlowPath(grid, EPS, np.zeros((len(grid),) + shape, complex),
                        np.zeros((len(grid) - 1, 1) + shape, complex))

    coarse = TimeGrid.uniform(8)
    with pytest.raises(ValueError, match="path grid"):
        solve_flow(gamma, start=zero_path(coarse))
    want = solve_flow(gamma, max_step=Fraction(1, 64)).u_at(1.0).coeffs
    got = solve_flow(gamma, start=zero_path(coarse.merged(thirds)))
    assert np.abs(got.u_at(1.0).coeffs - want).max() <= 1e-13


# -- restriction consistency ------------------------------------------------------------

def test_restriction_zero_and_constant():
    zero = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(32, 1, 1), 0.2), EPS)
    assert restriction_consistency(solve_flow(zero), EPS / 2).discrepancy == 0
    const = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.constant([0.1], 32), 0.2), EPS)
    assert restriction_consistency(solve_flow(const), EPS / 2).discrepancy == 0


def test_restriction_sine_benchmark(sine_flow):
    rep = restriction_consistency(sine_flow, EPS / 2)
    assert rep.discrepancy <= 1e-9
    assert rep.check.ok


def test_paired_solves_share_the_grid_of_their_base_solve(monkeypatch):
    """The solves of a pair compare snapshots element by element, so each
    pair runs on the grid of its base solve, also where the second solve
    would adapt differently on its own: at eps the field below needs four
    intervals, at eps/2 two, and at a quarter of its amplitude one."""
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.013), 4 * EPS), EPS)
    g_delta = AdmissibleField.certify(gamma.field, EPS / 2)
    weak = gamma.scaled(0.25)
    alone = [solve_flow(g).grid for g in (gamma, g_delta, weak)]
    assert alone[0] != alone[1] and alone[0] != alone[2]
    grids = []

    def spy(*args, **kwargs):
        path = solve_flow(*args, **kwargs)
        grids.append(path.grid)
        return path

    monkeypatch.setattr(flow_module, "solve_flow", spy)
    assert restriction_consistency(flow_module.solve_flow(gamma),
                                   EPS / 2).check.ok
    assert grids == [alone[0]] * 2
    grids.clear()
    assert param_lipschitz_check(gamma, weak).check.ok
    assert grids == [alone[0]] * 3
    with pytest.raises(ValueError, match="different grids"):
        solve_flow(gamma).sup_distance(solve_flow(weak))


# -- the time discretization and the grid policy ----------------------------------

def _closed_form_u(t, a=0.02, order=32, M=256):
    """Coefficients of u(t) = zeta(t) - id for a sin(2 pi x), from the
    closed form on M points (its modes fall as 0.063^|k|)."""
    x = np.arange(M) / M
    c = np.fft.fft(tangent_oracle(x, t, a) - x) / M
    k = np.arange(-order, order + 1)
    return c[k % M][:, None]


@pytest.mark.parametrize("step", [1, Fraction(1, 2), Fraction(1, 4),
                                  Fraction(1, 16)])
def test_residual_bounds_the_error_of_the_time_discretization(sine_gamma, step):
    """nu_eps(u(t) - exact u(t)) stays below the reported residual at
    times inside the intervals as at their ends: on the
    grid the solve chose from ``step`` (within tol_solve), and on the
    uniform grid of that step kept as it is, where the collocation defect
    dominates (at step 1 u(1) is 5e-10 off, so the bound exceeds tol_solve
    and says so)."""
    kept = solve_flow(sine_gamma, grid=TimeGrid.uniform(int(1 / step)))
    chosen = solve_flow(sine_gamma, max_step=step)
    assert chosen.residual <= 1e-10
    for path in (kept, chosen):
        for t in np.linspace(0.0, 1.0, 33):     # inside the intervals too
            err = strip_norms(FourierMap(path.u_at(t).coeffs
                                         - _closed_form_u(t)), EPS).nu
            assert err <= path.residual, (len(path.grid), t, err, path.residual)
    if step == 1:
        assert kept.residual > 1e-10


def test_grid_policy_halves_by_the_excess_down_to_the_floor():
    """An interval over its share is halved as often as a 16-fold fall of
    its defect per halving takes to reach half its share; none is cut below
    1/64, and a solve whose bound stays above tol_solve there says so."""
    grid = TimeGrid((0, Fraction(3, 8), 1))
    assert grid.halved([0.5, 1.0]) is grid
    assert grid.halved([0.5, 2.0]) == TimeGrid((0, Fraction(3, 8),
                                                Fraction(11, 16), 1))
    assert grid.halved([20.0, 0.0]) == TimeGrid(
        (0, Fraction(3, 32), Fraction(3, 16), Fraction(9, 32), Fraction(3, 8), 1))
    assert TimeGrid.uniform(32).halved(np.full(32, 1e9)) == TimeGrid.uniform(64)
    assert TimeGrid.uniform(64).halved(np.full(64, 1e9)) == TimeGrid.uniform(64)
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.02), 4 * EPS), EPS)
    path = solve_flow(gamma, tol_solve=1e-15)
    assert path.grid == TimeGrid.uniform(64) and path.residual > 1e-15


# -- two-dimensional torus ----------------------------------------------------------------

def test_solve_m2_against_rk_oracle():
    a, b = 0.02, 0.015
    order = 8
    f = FourierMap.zero(order, 2, 2)
    f.coeffs[order, order + 1] = [-0.5j * a, 0]
    f.coeffs[order, order - 1] = [0.5j * a, 0]
    f.coeffs[order + 1, order] = [0, 0.5 * b]
    f.coeffs[order - 1, order] = [0, 0.5 * b]
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap(f.coeffs), 0.2), EPS)
    path = solve_flow(gamma, tol_solve=1e-9, max_step=Fraction(1, 16))

    def rhs(t, y):
        return [a * np.sin(2 * np.pi * y[1]), b * np.cos(2 * np.pi * y[0])]

    sol = solve_ivp(rhs, (0, 1), [0.3, 0.7], method="DOP853",
                    rtol=1e-12, atol=1e-13)
    got = eval_points(path, 1.0, np.array([[0.3 + 0j, 0.7 + 0j]]))[0]
    assert np.abs(got.real - sol.y[:, -1]).max() <= 1e-9
    traj = pointwise_solution(path, 0.0, [0.3, 0.7])
    assert traj.check.ok
    assert path.check_strip_invariant()


# -- the stall raises, reached by real inputs -------------------------------

def test_invert_at_point_stalls_where_the_displacement_does_not_contract():
    """x <- y - u(x) for u = 0.4 sin(2 pi x), whose slope reaches 0.8 pi > 1:
    the fixed points with |u'| > 1 repel, so the iteration runs out of its
    MAX_POINT_STEPS steps."""
    u = FourierMap.from_modes({1: [-0.2j]}, 8)
    assert np.abs(jacobian(u).eval(np.array([[0.0]]))).max() > 1.0
    with pytest.raises(ContractionStall,
                       match="pointwise inversion did not converge"):
        invert_at_point(u, np.linspace(0.0, 1.0, 9)[:, None])


def test_solve_flow_stalls_at_max_iter(sine_gamma):
    """One sweep cannot meet the tolerance of a nonzero field."""
    with pytest.raises(ContractionStall,
                       match="no convergence within 1 iterations"):
        solve_flow(sine_gamma, max_iter=1)


def test_growing_sweeps_on_a_given_grid_raise_non_contraction(monkeypatch):
    """A fault one layer below the growth test: every sweep adds s_k (j + tau),
    s_k = 1e-3 4^k on its k-th call, to the constant mode of u on interval
    j, in the snapshots and the pieces alike.  A real constant moves no
    strip, so no DomainEscape comes first; the steps then grow about
    fourfold, and on a given grid, which is never halved, growth raises."""
    field = TimeDependentField.constant(sine_map(1.0, order=16), 0.2)
    gamma = AdmissibleField.certify(
        (0.2 / field.lp_norm(1, "beta", 2 * EPS)) * field, EPS)
    run, calls = flow_module._PicardSweep.run, []

    def faulty(self, pieces):
        snaps, out = run(self, pieces)
        calls.append(pieces)
        s, N, J = 1e-3 * 4.0 ** len(calls), gamma.field.order, len(out)
        snaps[:, N] += s * np.arange(J + 1)[:, None]
        out[:, 0, N] += s * np.arange(J)[:, None]
        out[:, 1, N] += s
        return snaps, out
    monkeypatch.setattr(flow_module._PicardSweep, "run", faulty)
    with pytest.raises(NonContraction, match=r"observed ratio 3\.846 >= 1 at "
                       r"step 3 \(certificate theta_hat = 0\.200\)"):
        solve_flow(gamma, grid=TimeGrid.uniform(2))
