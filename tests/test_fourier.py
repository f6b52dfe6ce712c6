"""Strip-space arithmetic: evaluation, majorants, composition, restriction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusflow import (DomainEscape, FlowPath, FourierMap, RealityDefect,
                       TimeGrid, TruncationBudgetExceeded, compose, jacobian,
                       multiply, restrict, strip_norms)
from torusflow.flow import invert_at_point
from torusflow import fourier
from torusflow.fourier import (TWO_PI, MapStack, _wrap, cauchy_gain, fit_sampled,
                               imag_reach, lattice_modes, sampling_grid)

import _reference_loops as ref_loops
from _reference_sweep import compose as reference_compose
from conftest import (composition_grids, cosine_map, random_real_map, sine_map,
                      src_module_names)


def strip_sample_points(order, m, eps, n_real=64, n_imag=8, rng=None):
    """Deterministic strip sampling grid used by the majorant-domination checks."""
    x = np.arange(n_real) / n_real
    y = np.linspace(-eps, eps, n_imag)
    if m == 1:
        zz = (x[:, None] + 1j * y[None, :]).ravel()
        return zz.reshape(-1, 1)
    xs = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    if rng is None:
        rng = np.random.default_rng(0)
    ys = rng.uniform(-eps, eps, size=(n_imag, 2))
    pts = (xs[:, None, :] + 1j * ys[None, :, :]).reshape(-1, 2)
    return pts


# -- evaluation -------------------------------------------------------------

def test_eval_constant():
    f = FourierMap.constant([0.7], 8)
    z = np.array([[0.3 + 0.02j], [0.9 - 0.01j]])
    assert np.allclose(f.eval(z), 0.7)


def test_eval_cos_on_imaginary_axis():
    f = cosine_map(1.0, order=8)
    got = f.eval(np.array([[0.1j]]))[0, 0]
    assert abs(got - np.cosh(0.2 * np.pi)) < 1e-14


def test_eval_sin_quarter():
    f = sine_map(1.0, order=8)
    assert abs(f.eval(np.array([[0.25 + 0j]]))[0, 0] - 1.0) < 1e-14


def test_eval_m2_tensor():
    f = FourierMap.from_modes({(1, 0): [0.2, 0.0], (0, 2): [0.0, 0.1j]},
                              order=5, m=2)
    z = np.array([[0.2 + 0.01j, 0.7 - 0.02j]])
    direct = (0.2 * np.exp(2j * np.pi * z[0, 0])
              + 0.2 * np.exp(-2j * np.pi * z[0, 0]))
    got = f.eval(z)[0]
    assert abs(got[0] - direct.real - 1j * direct.imag) < 1e-13


# -- majorant norms -----------------------------------------------------------

def test_norms_zero():
    rep = strip_norms(FourierMap.zero(8, 1, 1), 0.1)
    assert rep.nu == 0 and rep.beta == 0


def test_norms_cosine_closed_form():
    rep = strip_norms(cosine_map(1.0, order=8), 0.1)
    assert abs(rep.nu - np.exp(0.2 * np.pi)) < 1e-12
    assert abs(rep.mu - 2 * np.pi * np.exp(0.2 * np.pi)) < 1e-11
    assert rep.beta == rep.mu


def test_norm_monotone_in_eps():
    rng = np.random.default_rng(0)
    f = random_real_map(rng)
    reps = [strip_norms(f, e) for e in (0.01, 0.05, 0.1, 0.2)]
    for a, b in zip(reps, reps[1:]):
        assert a.nu <= b.nu and a.beta <= b.beta


def test_majorant_dominates_strip_sup():
    rng = np.random.default_rng(1)
    eps = 0.05
    pts = strip_sample_points(32, 1, eps, n_real=64, n_imag=8)
    for _ in range(1000):
        f = random_real_map(rng, order=32)
        sup = np.abs(f.eval(pts)).max()
        assert strip_norms(f, eps).nu >= sup


def test_jacobian_majorant_dominates_operator_norm():
    rng = np.random.default_rng(2)
    eps = 0.05
    for _ in range(10):
        f = random_real_map(rng, order=16)
        J = jacobian(f)
        pts = strip_sample_points(16, 1, eps, n_real=256, n_imag=8)
        op = np.abs(J.eval(pts)).sum(axis=-1).max()
        assert strip_norms(f, eps).mu >= op


def test_imaginary_part_bound():
    # ||Im f(x+iy)|| <= beta * ||y|| on the strip
    rng = np.random.default_rng(3)
    eps = 0.05
    for _ in range(10):
        f = random_real_map(rng, order=16)
        beta = strip_norms(f, eps).beta
        x = rng.uniform(0, 1, 128)
        y = rng.uniform(-eps, eps, 128)
        vals = f.eval((x + 1j * y)[:, None])
        assert (np.abs(vals.imag)[:, 0] <= beta * np.abs(y) + 1e-13).all()


def test_lipschitz_bound_on_strip():
    rng = np.random.default_rng(4)
    eps = 0.05
    f = random_real_map(rng, order=16)
    beta = strip_norms(f, eps).beta
    z1 = rng.uniform(0, 1, 200) + 1j * rng.uniform(-eps, eps, 200)
    z2 = z1 + (rng.uniform(-0.1, 0.1, 200) + 1j * rng.uniform(-0.02, 0.02, 200))
    z2 = z2.real % 1.0 + 1j * np.clip(z2.imag, -eps, eps)
    d = np.abs(f.eval(z1[:, None]) - f.eval(z2[:, None]))[:, 0]
    # distances measured through the lift used by the evaluation
    assert (d <= beta * np.abs(z1 - z2) + 1e-12).all()


def test_tail_ratio_reports_weight_beyond_half_order():
    f = FourierMap.from_modes({7: [0.5]}, order=8)
    rep = strip_norms(f, 0.05)
    assert rep.tail_ratio == pytest.approx(1.0)
    rep2 = strip_norms(FourierMap.from_modes({2: [0.5]}, order=8), 0.05)
    assert rep2.tail_ratio == 0.0


# -- composition --------------------------------------------------------------

def test_compose_with_zero_perturbation():
    rng = np.random.default_rng(5)
    g = random_real_map(rng, order=16)
    out = compose(g, FourierMap.zero(16, 1, 1))
    assert np.abs(out.coeffs - g.coeffs).max() < 1e-14


def test_compose_constant_absorbs():
    c = FourierMap.constant([0.37], 16)
    z = random_real_map(np.random.default_rng(6), order=16)
    out = compose(c, z)
    assert np.abs(out.coeffs - c.coeffs).max() < 1e-14


def test_compose_shift_identity():
    out = compose(sine_map(1.0, 16), FourierMap.constant([0.25], 16))
    assert np.abs(out.coeffs - cosine_map(1.0, 16).coeffs).max() < 1e-12


def test_compose_linear_in_outer_map():
    rng = np.random.default_rng(7)
    g1, g2 = random_real_map(rng, 16), random_real_map(rng, 16)
    zp = FourierMap.from_modes({1: [-0.5j * 0.01]}, 16)
    lhs = compose(g1 + 2.5 * g2, zp)
    rhs = compose(g1, zp) + 2.5 * compose(g2, zp)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12


def test_compose_truncation_budget_raises():
    # a huge perturbation spreads the spectrum past the stored order
    g = sine_map(1.0, 4)
    big = FourierMap.from_modes({1: [-0.5j * 0.8]}, 4)
    with pytest.raises(TruncationBudgetExceeded):
        compose(g, big, tol_trunc=1e-9)


def _full_spectrum(g, u, M):
    """The spectrum of h = g o (id + u) sampled on the grid of M points per
    axis, per map, over the whole M^m box, by direct evaluation."""
    m = g.m
    x = fourier._grid_axes(M, m).reshape(m, -1).T
    vals = g.eval(x + u.eval(x)).reshape(g.batch + (M,) * m + (g.ncomp,))
    return np.fft.fftn(vals, axes=tuple(range(1, m + 1)), norm="forward")


def _u_bounds(u):
    """What a plan reads of a stack u: the largest modulus over the stack
    of each coefficient, and the largest mirror defect."""
    return np.maximum.reduce(np.abs(u.coeffs)), np.maximum.reduce(u.imag_bound())


def _plan_bounds(plan, amp, imag):
    """The plan's two bounds per map of g at every size of the plan,
    (2, B, sizes), for the maps u that ``amp`` and ``imag`` bound: on the
    modes that can alias onto the lattice and on the unobserved ones."""
    with np.errstate(over="ignore"):
        return plan.nu0[:, None] * np.exp(plan.log_bounds(amp, imag))[:, None]


def _on_first_axis(f: FourierMap, ncomp: int) -> MapStack:
    """An m = 1 stack as an m = 2 stack constant in x_2 (the components
    after the first zero)."""
    n = f.order
    c = np.zeros(f.batch + (2 * n + 1,) * 2 + (ncomp,), dtype=complex)
    c[:, :, n, :f.ncomp] = f.coeffs
    return MapStack(c)


@pytest.mark.parametrize("m, order, axis", [(1, 8, False), (2, 5, False),
                                            (2, 8, True)])
def test_aliasing_bound_covers_the_measured_aliasing(m, order, axis):
    """At every grid size M up to the cap, both bounds of the split hold:
    the one on the modes that can alias onto the kept lattice is at least
    the error of the kept coefficients of a fit there, against a fit at
    8 (2N + 1), and the one on the unobserved modes is at least their true
    mass, ||k||_inf >= M/2.  With ``axis`` the m = 1 stacks run as m = 2
    stacks constant in x_2, where one axis carries every mode."""
    rng = np.random.default_rng(40 + m)
    g, u = (MapStack(_random_maps(rng, 4, 1 if axis else m, order, order,
                                  1 if axis else m, size))
            for size in (1.0, 0.02))
    if axis:
        g, u = _on_first_axis(g, 1), _on_first_axis(u, 2)
    plan = fourier.CompositionPlan(g, order, 4 * (2 * order + 1))
    lattice_bound, outside_bound = _plan_bounds(plan, *_u_bounds(u))
    # rounding of the reference spectrum and of the fits
    dust = 1e3 * np.finfo(float).eps * plan.nu0
    M_ref = 8 * (2 * order + 1)
    amp = np.abs(_full_spectrum(g, u, M_ref)).max(axis=-1)
    k_inf = np.abs(np.fft.fftfreq(M_ref, 1.0 / M_ref))
    if m == 2:
        k_inf = np.maximum(k_inf[:, None], k_inf)
    lattice = fourier._k_l1(order, m) <= order

    def kept(spec, M):      # the lattice ||k||_1 <= N of a spectrum on M^m
        k = np.arange(-order, order + 1) % M
        c = spec[(slice(None),) + ((k,) if m == 1 else (k[:, None], k))]
        return np.where(lattice[..., None], c, 0.0)

    ref = kept(_full_spectrum(g, u, M_ref), M_ref)
    for M, on_lattice, outside in zip(plan.sizes, lattice_bound.T,
                                      outside_bound.T):
        mass = amp[:, k_inf >= M / 2].sum(axis=1)
        err = np.abs(kept(_full_spectrum(g, u, M), M) - ref).max(axis=-1)
        err = err.reshape(len(err), -1).sum(axis=1)
        assert (mass <= outside + dust).all(), (M, mass, outside)
        assert (err <= on_lattice + dust).all(), (M, err, on_lattice)
    # the smallest grids alias far above rounding, so the checks have teeth
    assert (lattice_bound[:, 0] > 1e6 * dust).all()
    assert (outside_bound[:, 0] > 1e6 * dust).all()


@pytest.mark.parametrize("m, order", [(1, 6), (2, 6), (2, 40)])
def test_composition_grid_never_exceeds_the_cap(m, order):
    """At m = 2, N = 40 the cube's corners reach ||k||_1 = 80: every
    candidate width keeps e^{2 pi rho 80} finite there, since an infinite
    weight times a zero coefficient would make the bound NaN."""
    rng = np.random.default_rng(9 + m)
    g = MapStack(_random_maps(rng, 3, m, order, 2, m, 1.0))
    eps = np.finfo(float).eps * (1 + 1e-9)
    for size in (0.0, 0.01, 0.1, 1.0):
        u = MapStack(_random_maps(rng, 3, m, order, order, m, size))
        amp, imag = _u_bounds(u)
        for oversample in (1, 2, 4):
            cap = oversample * (2 * order + 1)
            plan = fourier.CompositionPlan(g, order, cap)
            M, alias = plan.composition_grid(amp, imag, fourier.TOL_TRUNC)
            assert M <= cap
            if np.isinf(alias).all():
                assert M == cap
            else:
                assert M >= 2 * order + 2 and M % 2 == 0
                j = np.flatnonzero(plan.sizes == M)
                on_lattice, outside = _plan_bounds(plan, amp, imag)[..., j]
                assert (on_lattice[:, 0] <= eps * plan.nu0).all()
                assert (2 * alias <= fourier.ALIAS_SHARE * fourier.TOL_TRUNC
                        * plan.nu0 * (1 + 1e-9)).all()
                if size > 0.0:
                    assert (outside[:, 0] <= alias * (1 + 1e-9)).all()
        if size == 0.0:     # g itself, of band 2: the least size serves
            assert M == fourier._fft_sizes(2 * order + 2, cap)[0]
            assert (alias == 0.0).all()
        if size == 1.0:     # no size is at rounding level: the cap
            assert np.isinf(alias).all()


def _scaled_perturbations(rng, m, order):
    """A stack of perturbations at sizes that grow, repeat, shrink and jump,
    the last far too large for any grid."""
    base = MapStack(_random_maps(rng, 4, m, order, 3, m, 1.0))
    return [base * size for size in (0.0, 1e-4, 2e-4, 5e-4, 1e-3, 1e-3, 9e-4,
                                     2e-3, 3e-4, 4e-3, 2e-3, 1.0, 1e-3)]


@pytest.mark.parametrize("m", [1, 2])
def test_plan_picks_the_least_certified_grid(m):
    """Along perturbations that grow, repeat, shrink and jump, one plan
    picks at every call the least size at which both bounds certify the
    grid: at M they hold, at every smaller size one fails, and the bound
    it returns on the unobserved modes is theirs at M."""
    order = 8 if m == 1 else 6
    rng = np.random.default_rng(50 + m)
    g = MapStack(_random_maps(rng, 4, m, order, 2, m, 1.0))
    cap = 4 * (2 * order + 1)
    plan = fourier.CompositionPlan(g, order, cap)
    sizes = plan.sizes
    eps, share = np.finfo(float).eps, fourier.ALIAS_SHARE * fourier.TOL_TRUNC
    picked = []
    for u in _scaled_perturbations(rng, m, order):
        amp, imag = _u_bounds(u)
        M, alias = plan.composition_grid(amp, imag, fourier.TOL_TRUNC)
        picked.append(M)
        on_lattice, outside = _plan_bounds(plan, amp, imag)
        holds = ((on_lattice <= eps * plan.nu0[:, None] * (1 + 1e-9))
                 & (2 * outside <= share * plan.nu0[:, None] * (1 + 1e-9))
                 ).all(axis=0)
        if np.isinf(alias).all():
            assert M == cap and not holds.any()
            continue
        j = int(np.flatnonzero(sizes == M)[0])
        assert holds[j] and not holds[:j].any()
        if u.coeffs.any():  # u = 0 gives h = g: nothing is unobserved
            log_b = plan.log_bounds(amp, imag)
            assert (alias == plan.nu0 * math.exp(log_b[1, j])).all()
        else:
            assert (alias == 0.0).all()
    # the sequence moves the grid both ways and reaches the cap
    assert len(set(picked)) > 2 and picked[-1] < picked[-2] == cap


@pytest.mark.parametrize("m", [1, 2])
def test_plan_compose_matches_the_per_call_kernel(m):
    """compose with one plan along a sequence of perturbations gives the
    bits of the kernel built per call at the grid the plan picked, and that
    grid is never larger than the per-call isotropic search's.  The budget
    is open: the larger perturbations spread past the order.  A perturbation
    that no grid certifies fails the truncation gate."""
    order = 8 if m == 1 else 6
    rng = np.random.default_rng(60 + m)
    g = MapStack(_random_maps(rng, 4, m, order, 2, m, 1.0))
    plan = fourier.CompositionPlan(g, order, 4 * (2 * order + 1))
    uncertified = 0
    for u in _scaled_perturbations(rng, m, order)[:-1]:
        with composition_grids() as grids:
            try:
                got = compose(plan, u, tol_trunc=1.0).coeffs
            except TruncationBudgetExceeded:
                got = None
        M, alias = grids[-1]
        if np.isinf(alias).all():
            assert got is None
            uncertified += 1
            continue
        assert np.array_equal(got, ref_loops.compose_on_grid(
            g, u, M, tol_trunc=1.0))
        assert M <= ref_loops.composition_grid(g, u, order, plan.cap)[0]
    assert uncertified == 1


def _maps_on_support(rng, count, order, support):
    """``count`` real maps on T^2 of order N, two components, whose nonzero
    modes are ``support`` and its mirror."""
    maps = []
    for _ in range(count):
        modes = {}
        for k in support:
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            modes[k] = c if k != (0, 0) else c.real
            modes[(-k[0], -k[1])] = np.conj(modes[k])
        maps.append(FourierMap.from_modes(modes, order, m=2))
    return MapStack(maps)


@pytest.mark.parametrize("support, extent", [
    ([(1, 0), (2, 0)], (2, 0)), ([(2, 1), (0, 1)], (2, 1)),
    ([(0, 3), (1, -1)], (1, 3)), ([(3, 0), (0, 1), (1, 1)], (3, 1)),
    ([(0, 2)], (0, 2)), ([(1, 0)], (1, 0)), ([(0, 0)], (0, 0)),
    ([(1, 0), (1, -1), (0, 2)], (1, 2))])
def test_plan_band_is_trimmed_per_axis(support, extent):
    """The plan keeps g's support, the modes of the half lattice k_1 > 0 or
    k_1 = 0 < k_2 that stand for the given ones and their mirrors, within
    the extent K_i on each axis, and sums it to the bits of the full cube
    |k_i| <= max(K_1, K_2) at the grid the plan picked.  The budget is
    open: g's modes are of size 1 and spread past the order."""
    order, rng = 6, np.random.default_rng(sum(sum(k) for k in support) + 70)
    g = _maps_on_support(rng, 3, order, support)
    plan = fourier.CompositionPlan(g, order, 4 * (2 * order + 1))
    assert fourier._support_band(g.coeffs) == extent
    half = {k if k > (0, 0) else (-k[0], -k[1]) for k in support} - {(0, 0)}
    assert plan.modes == tuple(sorted(half))
    assert plan.band.shape == (3, 2, len(half))
    assert plan.K == max(extent)
    u = MapStack(_random_maps(rng, 3, 2, order, 3, 2, 1e-3))
    with composition_grids() as grids:
        got = compose(plan, u, tol_trunc=1.0).coeffs
    assert np.array_equal(got, ref_loops.compose_on_grid(
        g, u, grids[-1][0], tol_trunc=1.0))


def test_fit_grid_gate_counts_twice_the_unobserved_bound():
    """A mode at k = M hides on a grid of M points as the constant: the
    observed tail reads 0, and only twice the bound on the unobserved
    modes, added to it, puts the mode's mass in the gate."""
    M, a = 16, 1e-6
    vals = (1.0 + a * np.cos(TWO_PI * np.arange(M)))[None, :, None]
    fourier.fit_grid(vals, 4, 1, alias=np.array([0.0]))
    with pytest.raises(TruncationBudgetExceeded):
        fourier.fit_grid(vals, 4, 1, alias=np.array([a]))


def test_fit_grid_gate_fails_on_a_bound_that_is_not_finite():
    x = np.arange(16) / 16
    vals = np.cos(TWO_PI * x)[None, :, None]
    fourier.fit_grid(vals, 4, 1, alias=np.array([0.0]))
    with pytest.raises(TruncationBudgetExceeded, match="nan"):
        fourier.fit_grid(vals, 4, 1, alias=np.array([np.nan]))


@pytest.mark.parametrize("m", [1, 2])
def test_compose_rounding_scales_with_the_change(m):
    """compose fits g o (id + u) - g and adds g's coefficients back, so its
    rounding scales with the change u makes, not with g.  Under a shift by
    1e-7 the composite has no modes outside g's band, and every coefficient
    is exact to a few ulps of itself plus rounding of the change."""
    rng = np.random.default_rng(14 + m)
    order, delta = 12, 1e-7
    g = _random_maps(rng, 1, m, order, 4, m, 1.0)[0]
    k = fourier._k_axis(order)
    phase = TWO_PI * delta * (k if m == 1 else k[:, None] + k)
    shift = -2.0 * np.sin(phase / 2) ** 2 + 1j * np.sin(phase)
    want = g.coeffs + g.coeffs * shift[..., None]
    got = compose(g, FourierMap.constant([delta] * m, order, m)).coeffs
    tol = 4 * np.finfo(float).eps * (
        np.abs(want) + 1e3 * delta * np.abs(g.coeffs).sum())
    assert (np.abs(got - want) <= tol).all()


def _one_sided(order=16):
    """Mode 1 without its conjugate mode -1: complex on the real grid."""
    f = FourierMap.zero(order, 1, 1)
    f.coeffs[order + 1] = 0.01
    return FourierMap(f.coeffs, check=False)


def test_compose_rejects_non_real_perturbation():
    with pytest.raises(RealityDefect, match="not real on the real grid"):
        compose(sine_map(0.02, 16), _one_sided())


def test_compose_against_direct_evaluation():
    rng = np.random.default_rng(8)
    g = random_real_map(rng, order=24)
    u = 0.01 * random_real_map(rng, order=24, const=0.0)
    comp = compose(g, u)
    x = rng.uniform(0, 1, 64)[:, None].astype(complex)
    direct = g.eval(x + u.eval(x))
    assert np.abs(comp.eval(x) - direct).max() < 1e-11


def _random_maps(rng, count, m, order, band, ncomp, size):
    """``count`` real maps of order N with decaying modes |k_i| <= band."""
    k = np.abs(np.arange(-band, band + 1))
    decay = np.exp(-0.7 * (k if m == 1 else k[:, None] + k))[..., None]
    maps = []
    for _ in range(count):
        c = rng.normal(size=(2 * band + 1,) * m + (ncomp,)) \
            + 1j * rng.normal(size=(2 * band + 1,) * m + (ncomp,))
        cube = np.zeros((2 * order + 1,) * m + (ncomp,), dtype=complex)
        cube[(slice(order - band, order + band + 1),) * m] = size * decay * 0.5 * (
            c + c[(slice(None, None, -1),) * m].conj())
        maps.append(FourierMap(cube))
    return maps


def _composite_or_fault(call):
    """The shape and bytes of a composite, or the type and text of the
    fault it raised."""
    try:
        out = call().coeffs
    except (DomainEscape, RealityDefect, TruncationBudgetExceeded) as exc:
        return type(exc), str(exc)
    return out.shape, out.tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
       stacks=st.sampled_from(["map-stack", "stack-map", "stack-stack"]),
       plan=st.sampled_from(["none", "one-map", "B-map"]),
       B=st.sampled_from([1, 4, 32]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_compose_matches_the_parent_pipeline_bit_for_bit(seed, m, stacks,
                                                         plan, B, data):
    """compose gives the bytes, or the fault, of its parent pipeline
    (``ref_loops.parent_compose``): a map against a stack and a stack
    against a map, plans of one map and of B maps, B in {1, 4, 32}, with
    and without the reach test, u at the output's order or above it."""
    n = data.draw(st.integers(1, 32 if m == 1 else 5))
    band = data.draw(st.integers(0, min(n, 4)))
    n_u = n + data.draw(st.sampled_from([0, 0, 2]))
    size = data.draw(st.sampled_from([0.0, 1e-4, 1e-3, 2e-2, 0.2]))
    scales = ({"outer_scale": 0.1, "inner_scale": 0.05}
              if data.draw(st.booleans()) else {})
    tol = data.draw(st.sampled_from([fourier.TOL_TRUNC, 1.0]))
    rng = np.random.default_rng(seed)
    one = plan == "one-map"
    gs = _random_maps(rng, 1 if stacks == "map-stack" or one else B, m, n,
                      band, m, 0.05)
    if one and stacks != "map-stack":
        gs = gs * B
    us = _random_maps(rng, 1 if stacks == "stack-map" else B, m, n_u,
                      min(n_u, 3), m, size)
    g = MapStack(gs) if stacks != "map-stack" else gs[0]
    u = MapStack(us) if stacks != "stack-map" else us[0]
    if plan != "none":
        g = fourier.CompositionPlan(g, n, 4 * (2 * n + 1))
    got = _composite_or_fault(lambda: compose(g, u, tol_trunc=tol, **scales))
    want = _composite_or_fault(lambda: ref_loops.parent_compose(
        g, u, tol_trunc=tol, **scales))
    assert got == want


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
       stacks=st.sampled_from(["map-map", "stack-map", "map-stack",
                               "stack-stack"]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_compose_stack_contract_matches_reference(seed, m, stacks, data):
    """compose on FourierMaps and MapStacks, each map against the Horner
    reference; the orders of g and of u fall below and above the output's."""
    n_out = data.draw(st.integers(1, 10 if m == 1 else 5))
    n_g, n_u = (data.draw(st.integers(1, n_out + 3)) for _ in range(2))
    band = data.draw(st.integers(0, n_g))
    rng = np.random.default_rng(seed)
    gs = _random_maps(rng, 3 if stacks.startswith("stack") else 1, m, n_g,
                      band, data.draw(st.sampled_from([1, m])), 1.0)
    us = _random_maps(rng, 3 if stacks.endswith("stack") else 1, m, n_u,
                      data.draw(st.integers(0, n_u)), m, 0.002)
    g = MapStack(np.stack([f.coeffs for f in gs])) if len(gs) > 1 else gs[0]
    u = MapStack(np.stack([f.coeffs for f in us])) if len(us) > 1 else us[0]
    with composition_grids() as grids:
        try:
            got = compose(g, u, order=n_out, tol_trunc=1.0, outer_scale=0.2,
                          inner_scale=0.05)
        except TruncationBudgetExceeded:
            got = None
    if np.isinf(grids[-1][1]).all():
        assert got is None      # no grid certifies the composite
        return
    want = np.stack([reference_compose(
        gs[i % len(gs)], us[i % len(us)], order=n_out, tol_trunc=1.0,
        outer_scale=0.2, inner_scale=0.05).coeffs
        for i in range(max(len(gs), len(us)))])
    assert isinstance(got, FourierMap)
    assert got.batch == (() if stacks == "map-map" else (len(want),))
    got = got.flat().coeffs
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
       count=st.integers(1, 4), data=st.data())
@settings(max_examples=30, deadline=None)
def test_stack_operations_equal_their_maps_row_by_row(seed, m, count, data):
    """The algebra, the reality measures and the evaluation kernels on a
    MapStack (batch shape (T,)) equal, row by row and bit for bit, the same
    operation on its maps (batch shape ()); a map broadcasts against a stack.
    The orders reach 16 at m = 1, where the evaluator's blocks hold several
    rows and the last one is padded."""
    order = data.draw(st.integers(1, 16 if m == 1 else 4))
    band = data.draw(st.integers(0, order))
    rng = np.random.default_rng(seed)
    maps, others = (_random_maps(rng, count, m, order, band, m, 0.01)
                    for _ in range(2))
    single = _random_maps(rng, 1, m, order, band, m, 0.01)[0]
    stack, other = MapStack(maps), MapStack(others)
    dust = 1e-3 * rng.normal(size=stack.coeffs.shape)
    raw = MapStack(stack.coeffs + dust, check=False)    # not Hermitian
    x = rng.uniform(0.0, 1.0, (count, 7, m))
    shared = rng.uniform(0.0, 1.0, (5, m))
    probes = shared + 1j * rng.uniform(-0.05, 0.05, shared.shape)
    algebra = {
        "+": (stack + other, [f + g for f, g in zip(maps, others)]),
        "-": (stack - other, [f - g for f, g in zip(maps, others)]),
        "map + stack": (single + stack, [single + f for f in maps]),
        "stack - map": (stack - single, [f - single for f in maps]),
        "*": (2.5 * stack, [2.5 * f for f in maps]),
        "order up": (stack.with_order(order + 2),
                     [f.with_order(order + 2) for f in maps]),
        "order down": (stack.with_order(order - 1),
                       [f.with_order(order - 1) for f in maps]),
    }
    for name, (got, want) in algebra.items():
        assert isinstance(got, MapStack) and len(got) == count, name
        for g, w in zip(got, want):
            assert g.batch == w.batch == (), name
            assert np.array_equal(g.coeffs, w.coeffs), name
    values = {
        "reality_defect": (raw.reality_defect(),
                           [f.reality_defect() for f in raw]),
        "imag_bound": (raw.imag_bound(), [f.imag_bound() for f in raw]),
        "eval": (stack.eval(x), [f.eval(p) for f, p in zip(maps, x)]),
        "eval shared": (stack.eval(shared), [f.eval(shared) for f in maps]),
        "eval complex": (stack.eval(probes), [f.eval(probes) for f in maps]),
        "imag_reach": (imag_reach(stack, 0.05),
                       [imag_reach(f, 0.05) for f in maps]),
        "jacobian": (jacobian(stack).eval(x),
                     [jacobian(f).eval(p) for f, p in zip(maps, x)]),
        "invert": (invert_at_point(stack, x),
                   [invert_at_point(f, p) for f, p in zip(maps, x)]),
        "invert shared": (invert_at_point(stack, shared),
                          [invert_at_point(f, shared) for f in maps]),
    }
    for name, (got, want) in values.items():
        assert got.shape == (count,) + np.shape(want[0]), name
        for g, w in zip(got, want):
            assert np.array_equal(g, w), name


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
       count=st.integers(1, 4), data=st.data())
@settings(max_examples=30, deadline=None)
def test_widths_broadcast_against_the_batch_map_by_map(seed, m, count, data):
    """``majorants`` and ``imag_reach`` broadcast an array of widths against
    the batch: an outer layout, maps (B, 1) against widths (R,), and a
    per-level one, maps (n, L) against one width per level (L,), give at
    every entry, bit for bit, the map alone at its width as a float."""
    order = data.draw(st.integers(1, 8 if m == 1 else 4))
    band = data.draw(st.integers(0, order))
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.01, 0.3, 3)
    maps = _random_maps(rng, count, m, order, band, m, 0.01)
    per_level = _random_maps(rng, count * len(widths), m, order, band, m, 0.01)
    outer = _wrap(MapStack(maps).coeffs[:, None], m)
    levels = _wrap(MapStack(per_level).coeffs.reshape(
        (count, len(widths)) + maps[0].coeffs.shape), m)
    for f, pick in ((outer, lambda i, r: maps[i]),
                    (levels, lambda i, r: per_level[len(widths) * i + r])):
        nu, mu = fourier.majorants(f.coeffs, m, widths)
        reach = imag_reach(f, widths)
        assert nu.shape == mu.shape == reach.shape == (count, len(widths))
        for i in range(count):
            for r, eps in enumerate(widths.tolist()):
                alone = pick(i, r)
                want_nu, want_mu = fourier.majorants(alone.coeffs, m, eps)
                assert nu[i, r] == want_nu and mu[i, r] == want_mu
                assert reach[i, r] == imag_reach(alone, eps)


def _shift_sum_inputs(rng, m, b, B, rows, cols, M, ncomp=2):
    """A band (b, rows, ncomp[, cols]) and e = e^{2 pi i u} - 1 at the
    grid of M points per axis for B small real u, (B, m, M^m)."""
    shape = (b, rows, ncomp) + ((cols,) if m == 2 else ())
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    u = 0.01 * rng.normal(size=(B, m, M ** m))
    return c, fourier._circle_m1(u)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("B", [1, 4, 32])
def test_shift_sum_keeps_the_bits_of_the_map_by_map_layout(m, B):
    """The shift sum on contiguous planes, with one product over all points
    for one outer map, gives the bits of its map-by-map form, for one outer
    map and for a stack of them, over bands of 1-3 rows and 1-5 columns,
    every mode of the band folded by ``_fold_band``."""
    rng = np.random.default_rng(10 * m + B)
    M = 12 if m == 2 else 32
    for rows in (1, 2, 3):
        for cols in ((1, 3, 5) if m == 2 else (1,)):
            for b in (1, B):
                c, e = _shift_sum_inputs(rng, m, b, B, rows, cols, M)
                modes, folded = fourier._fold_band(c)
                got = fourier._shift_sum(folded, e, M, modes)
                want = ref_loops.shift_sum(c, e, M)
                assert got.shape == want.shape == (B, 2, M ** m)
                assert got.tobytes() == want.tobytes(), (rows, cols, b)


@st.composite
def _support_bands(draw):
    """A band (b, rows, m[, cols]) of complex coefficients on a drawn
    support, as ``CompositionPlan`` lays out a band, sparse or dense: at
    m = 1 rows k_1 = 0..K, K = 1-64, the top one nonzero; at m = 2 1-3
    rows and 1-5 columns, row 0's modes k_2, -k_2 in pairs or one-sided,
    the column k_2 = 0 kept or empty; and e = e^{2 pi i u} - 1 for B real u
    of a drawn size on a grid of M points per axis, (B, m, M^m), with u."""
    m = draw(st.sampled_from([1, 2]))
    density = draw(st.sampled_from([0.3, 1.0]))
    B = draw(st.sampled_from([1, 4, 32]))
    b = draw(st.sampled_from([1, B]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if m == 1:
        M = draw(st.sampled_from([16, 72, 130]))
        mask = rng.random((draw(st.integers(2, 65)), 1)) < density
        mask[-1] = True
    else:
        rows, K2 = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        pairs, center = draw(st.booleans()), draw(st.booleans())
        M = draw(st.sampled_from([6, 12, 18]))
        mask = rng.random((rows, 2 * K2 + 1)) < density
        if pairs and K2:    # at least one pair, and every k_2 of row 0 paired
            mask[0, K2 + 1] = True
            mask[0, :K2] |= mask[0, :K2:-1]
            mask[0, K2 + 1:] = mask[0, K2 - 1::-1]
        elif K2:
            mask[0, :K2] &= ~mask[0, :K2:-1]
        mask[:, K2] = rng.random(rows) < 0.5 if center else False
        mask[-1, K2] |= center
    shape = (b, len(mask), m, mask.shape[1])
    c = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * mask[:, None]
    size = 10.0 ** draw(st.integers(-8, -1))
    u = size * rng.normal(size=(B, m, M ** m))
    return c if m == 2 else c[..., 0], fourier._circle_m1(u), u, M


@given(case=_support_bands())
@settings(max_examples=150, deadline=None)
def test_support_sum_matches_the_column_table(case):
    """The shift sum over the support's modes agrees with the Horner pass
    over k_1 it replaced, at m = 2 against a table of the columns k_2
    (``ref_loops.column_shift_sum``), run in extended precision on the same
    inputs, to 32 ulp of the change's size, not of g's: per point, sum_k
    |c_k| 2 pi ||k||_1 |u|_inf over the band's slots, which bounds every
    term |c_k| |e^{2 pi i k.u} - 1| of either sum (2,000 draws came within
    5 ulp; the Horner pass in double precision builds a_1^K by K products
    and strays up to 95 ulp at K = 64); one outer map and a stack of them,
    B in {1, 4, 32}."""
    c, e, u, M = case
    modes, folded = fourier._fold_band(c)
    got = fourier._shift_sum(folded, e, M, modes)
    want = ref_loops.column_shift_sum(c.astype(np.clongdouble),
                                      e.astype(np.clongdouble), M)
    m = e.shape[1]
    assert got.shape == want.shape == (len(u), m, M ** m)
    band = c.reshape(c.shape[:3] + (-1,))
    K2 = band.shape[-1] // 2
    k = np.abs(np.indices(band.shape[1:2] + band.shape[3:]) - np.array(
        [0, K2])[:, None, None]).sum(axis=0)
    weight = (np.abs(band) * TWO_PI * k[:, None]).sum(axis=(1, 3))  # (b, m)
    size = weight[:, :, None] * np.abs(u).max(axis=1)[:, None]
    assert (np.abs(got - want) <= 32 * np.finfo(float).eps * size).all()


@pytest.mark.parametrize("m, support", [
    (2, [(1, 0), (1, -1), (0, 2)]), (2, [(1, 0), (0, 1), (1, 1)]),
    (2, "dense"), (1, "sine"), (1, "random"), (1, "dense")],
    ids=["support0", "support1", "dense", "m1-sine", "m1-random", "m1-dense"])
@pytest.mark.parametrize("B", [1, 32])
def test_support_sum_matches_direct_evaluation(m, support, B):
    """The shift sum of a plan is g(x + u(x)) - g(x) on the grid, evaluated
    directly: to rounding of g's size, which direct evaluation subtracts,
    for a sine (K = 1), a random band of K = 4 and a dense one (K = N) at
    m = 1, and solve_m2's supports and a dense band at m = 2, while the
    change itself is over 1e6 times larger."""
    order, M = (16, 72) if m == 1 else (6, 18)
    rng = np.random.default_rng(len(support) + B)
    if support == "sine":
        g = FourierMap.from_modes({1: -0.5j}, order)
    elif m == 1:
        g = _random_maps(rng, 1, 1, order, order if support == "dense"
                         else 4, 1, 1.0)[0]
    else:
        g = (_random_maps(rng, 1, 2, order, 3, 2, 1.0)[0]
             if support == "dense" else _maps_on_support(rng, 1, order,
                                                         support)[0])
    u = MapStack(_random_maps(rng, B, m, order, 3, m, 1e-3))
    x = fourier._grid_axes(M, m).reshape(m, -1).T
    ux = u.eval(x)                                          # (B, P, m)
    plan = fourier.CompositionPlan(g, order, 4 * (2 * order + 1))
    got = fourier._shift_sum(plan.band, fourier._circle_m1(
        np.ascontiguousarray(ux.transpose(0, 2, 1))), M, plan.modes)
    want = (g.eval(x + ux) - g.eval(x)).transpose(0, 2, 1)
    tol = 64 * np.finfo(float).eps * np.abs(g.coeffs).sum()
    assert np.abs(got - want).max() <= tol
    assert np.abs(want).max() > 1e6 * tol


def test_circle_m1_keeps_the_bits_of_two_pi_z():
    """sin(2 pi z) from pi z doubled in place has the bits of TWO_PI * z:
    doubling is exact outside the subnormal range."""
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.normal(size=(4, 2, 300)) * 10.0 ** rng.integers(
        -300, 2, size=(4, 2, 300)), np.broadcast_to(
            fourier._grid_axes(36, 2).reshape(2, -1), (4, 2, 1296))], axis=-1)
    want = np.empty(z.shape, dtype=complex)
    want.real = -2.0 * np.sin(np.pi * z) ** 2
    want.imag = np.sin(TWO_PI * z)
    assert fourier._circle_m1(z).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2])
def test_plan_of_equal_maps_keeps_one_map(m):
    """A stack of B maps with the same bits is planned as its one map: the
    plan composes to the bits of the plan of the map alone, of each map
    composed alone at the stack's grid and of the plan that keeps all B
    copies.  A stack of different maps keeps B maps."""
    rng = np.random.default_rng(40 + m)
    order, band, B = (12, 2, 5) if m == 1 else (8, 1, 4)
    cap = 4 * (2 * order + 1)
    g = _random_maps(rng, 1, m, order, band, m, 0.1)[0]
    stack = MapStack([g] * B)
    plan = fourier.CompositionPlan(stack, order, cap)
    assert (len(plan.coeffs), len(plan.band), len(plan.nu0)) == (1, 1, 1)
    u = MapStack(_random_maps(rng, B, m, order, band, m, 1e-3))
    with composition_grids() as grids:
        got = compose(plan, u).coeffs
    M, alias = grids[-1]
    assert got.shape == (B,) + g.coeffs.shape
    alone = compose(fourier.CompositionPlan(g, order, cap), u).coeffs
    assert alone.tobytes() == got.tobytes()
    assert ref_loops.compose_on_grid(stack, u, M).tobytes() == got.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier.CompositionPlan, "composition_grid",
                   lambda *args: (M, alias))
        for i in range(B):
            one = compose(g, u[i]).coeffs
            assert one.tobytes() == got[i].tobytes()
        # one map of u against the stack: each entry is that composite
        each = compose(plan, u[0]).coeffs
        assert each.shape == got.shape
        assert all(e.tobytes() == got[0].tobytes() for e in each)
    maps = _random_maps(rng, B, m, order, band, m, 0.1)
    assert len(fourier.CompositionPlan(MapStack(maps), order, cap).coeffs) == B


def _non_hermitian(rng, batch, m, order, ncomp, size):
    """Coefficient cubes that break c_{-k} = conj(c_k) everywhere."""
    shape = batch + (2 * order + 1,) * m + (ncomp,)
    c = size * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return np.where(fourier._k_l1(order, m)[..., None] > order, 0, c)


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_imag_bound_halves_the_lattice_within_rounding(seed, m, data):
    """The half-lattice reality bound equals the whole-lattice sum, each
    pair k, -k summed twice, to rounding, on stacks that are not Hermitian
    and on Hermitian ones up to one-sided dust.  Both are sums of n >= 1
    nonnegative terms in other orders, each within (n - 1) u of the exact
    sum (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2), so they may differ by (n - 1) ulp, n the lattice's
    modes; 4 ulp on the smallest lattices."""
    rng = np.random.default_rng(seed)
    order = data.draw(st.integers(0, 16 if m == 1 else 8))
    count = data.draw(st.integers(1, 5))
    ncomp = data.draw(st.integers(1, 2))
    size = 10.0 ** data.draw(st.integers(-12, 2))
    c = _non_hermitian(rng, (count,), m, order, ncomp, size)
    if data.draw(st.booleans()):    # Hermitian up to dust on one side
        flip = (slice(None),) + (slice(None, None, -1),) * m
        c = 0.5 * (c + c[flip].conj())
        c += _non_hermitian(rng, (count,), m, order, ncomp, 1e-14 * size)
    f = _wrap(c, m)
    got, want = f.imag_bound(), ref_loops.imag_bound(f)
    assert got.shape == want.shape == (count,)
    n = int((fourier._k_l1(order, m) <= order).sum())
    assert (np.abs(got - want) <= max(4, n - 1) * np.spacing(want)).all()


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2]),
       ncomp=st.sampled_from([1, 2]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_imag_bound_by_component_keeps_its_verdicts(seed, m, ncomp, data):
    """The reality bound sums one component at a time where there are
    several: for one component it has the bits of the sum over the
    lattice axis before the component axis (``ref_loops.
    _parent_imag_bound``), for two it agrees with that sum to (n - 1) ulp,
    n the lattice's modes, and a compose at m = 2 refuses a perturbation
    with defects on several modes of both components just past 1e-9 of
    its size and takes one just below, as the parent's bound reads them."""
    rng = np.random.default_rng(seed)
    order = data.draw(st.integers(0, 16 if m == 1 else 8))
    count = data.draw(st.integers(1, 5))
    c = _non_hermitian(rng, (count,), m, order, ncomp,
                       10.0 ** data.draw(st.integers(-12, 2)))
    f = _wrap(c, m)
    got, parent = f.imag_bound(), ref_loops._parent_imag_bound(f)
    if ncomp == 1:
        assert got.tobytes() == parent.tobytes()
    n = int((fourier._k_l1(order, m) <= order).sum())
    assert (np.abs(got - parent) <= max(4, n - 1) * np.spacing(parent)).all()
    if m == 1 or order < 4:     # below N = 4 the composite spreads past N
        return
    g = FourierMap.from_modes({(1, 0): [0.01j, 0.0], (0, 1): [0.0, 0.01]},
                              order, m=2)
    dust = np.zeros((2 * order + 1,) * 2 + (2,), dtype=complex)
    for k in ((1, 0), (0, 2), (1, -1)):     # one-sided: k without -k
        dust[order + k[0], order + k[1]] = rng.normal(size=2)
    dust = FourierMap(dust, check=False)
    for t, fires in ((1 + 1e-6, True), (1 - 1e-6, False)):
        u = dust * (t * 1e-9 / float(ref_loops._parent_imag_bound(dust)))
        assert (u.imag_bound() > 1e-9) == fires
        if fires:
            with pytest.raises(RealityDefect, match="not real on the real"):
                compose(g, u)
        else:
            compose(g, u)


@pytest.mark.parametrize("m", [1, 2])
def test_reality_defect_fires_at_the_same_threshold(m):
    """compose refuses a perturbation whose reality bound exceeds 1e-9 of
    its size on the grid, and takes one just below: a one-sided mode of
    size a adds a to the bound, read the same on half the lattice."""
    order = 8
    g = sine_map(0.02, order) if m == 1 else FourierMap.from_modes(
        {(1, 0): [0.01j, 0.0], (0, 1): [0.0, 0.01]}, order, m=2)
    for a, fires in ((1e-9 * (1 + 1e-6), True), (1e-9 * (1 - 1e-6), False)):
        c = np.zeros((2 * order + 1,) * m + (m,), dtype=complex)
        c[(order + 1,) + (order,) * (m - 1)] = a     # mode e_1 alone
        u = FourierMap(c, check=False)
        assert u.imag_bound() == ref_loops.imag_bound(u) == a
        if fires:
            with pytest.raises(RealityDefect, match="not real on the real grid"):
                compose(g, u)
        else:
            compose(g, u)


# -- restriction ---------------------------------------------------------------

def test_restrict_monotone():
    rng = np.random.default_rng(9)
    f = random_real_map(rng)
    res = restrict(f, 0.2, 0.1)
    assert res.report.nu <= strip_norms(f, 0.2).nu


def test_restrict_single_mode_exact_factor():
    f = cosine_map(1.0, 8)
    nu_eps = strip_norms(f, 0.2).nu
    res = restrict(f, 0.2, 0.1)
    assert abs(res.report.nu - nu_eps * np.exp(-0.2 * np.pi)) < 1e-12
    assert abs(res.decay_factors[1] - np.exp(-0.2 * np.pi)) < 1e-15


def test_restrict_cauchy_gain_bounds_beta():
    # image of the nu_eps unit ball has beta_delta below the scanned factor
    rng = np.random.default_rng(10)
    eps, delta = 0.2, 0.1
    gain = cauchy_gain(eps, delta, 32)
    for _ in range(100):
        f = random_real_map(rng)
        nu = strip_norms(f, eps).nu
        f = (1.0 / nu) * f
        res = restrict(f, eps, delta)
        assert res.report.mu <= gain * 1.0 + 1e-12
        assert res.cauchy_factor == pytest.approx(gain)


# -- differentiation -----------------------------------------------------------

def test_jacobian_constant_zero():
    J = jacobian(FourierMap.constant([0.4], 8))
    assert np.abs(J.coeffs).max() == 0


def test_jacobian_sine_derivative_identity():
    J = jacobian(sine_map(1.0, 8))
    x = np.array([[0.37 + 0j]])
    want = 2 * np.pi * np.cos(2 * np.pi * 0.37)
    assert abs(J.eval(x)[0, 0, 0] - want) < 1e-12


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    f = random_real_map(rng)
    J = jacobian(f)
    h = 1e-5
    x = rng.uniform(0, 1, 64)[:, None].astype(complex)
    fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
    assert np.abs(J.eval(x)[:, :, 0] - fd).max() < 1e-7


def test_jacobian_m2_entries():
    f = FourierMap.from_modes({(1, 0): [0.0, 0.3]}, order=4, m=2)
    J = jacobian(f)
    # d f_2 / d x_1 at 0: derivative of 0.6 cos(2 pi x1)
    got = J.eval(np.array([[0.0 + 0j, 0.0 + 0j]]))[0]
    assert abs(got[1, 0]) < 1e-12  # sin-part derivative vanishes at 0? no:
    # f_2 = 0.3 e^{2pi i x1} + conj: = 0.6 cos(2 pi x1); d/dx1 at 0 = 0
    assert abs(got[0, 0]) < 1e-12


# -- products and reality -------------------------------------------------------

def test_multiply_matches_pointwise():
    rng = np.random.default_rng(12)
    f, g = random_real_map(rng, 8), random_real_map(rng, 8)
    prod = multiply(f, g, order=16)
    x = rng.uniform(0, 1, 32)[:, None].astype(complex)
    assert np.abs(prod.eval(x) - f.eval(x) * g.eval(x)).max() < 1e-12


def test_imag_reach_translation_is_tight():
    # real constants cannot move the strip
    c = FourierMap.constant([0.4], 8)
    assert imag_reach(c, 0.05) == pytest.approx(0.05)


small_coeff = st.complex_numbers(max_magnitude=0.2, allow_nan=False,
                                 allow_infinity=False)


@given(c1=small_coeff, c2=small_coeff)
@settings(max_examples=50, deadline=None)
def test_reality_preserved_by_compose_hypothesis(c1, c2):
    g = FourierMap.from_modes({1: [c1], 2: [0.3 * c2]}, 8)
    u = FourierMap.from_modes({1: [0.05 * c2]}, 8)
    out = compose(g, u, tol_trunc=1.0)
    assert out.reality_defect() < 1e-10


@given(c=small_coeff, scale=st.floats(0.1, 2.0))
@settings(max_examples=50, deadline=None)
def test_nu_submultiplicative_hypothesis(c, scale):
    f = FourierMap.from_modes({1: [c], 3: [0.2 * c]}, 8)
    g = FourierMap.from_modes({2: [scale * c]}, 8)
    prod = FourierMap(np.convolve(f.coeffs[:, 0], g.coeffs[:, 0])[:, None],
                      check=False)     # the exact product, order 16
    eps = 0.07
    assert strip_norms(prod, eps).nu <= \
        strip_norms(f, eps).nu * strip_norms(g, eps).nu + 1e-12


def test_map_stack_indexing_and_iteration():
    maps = [sine_map(0.01 * (i + 1), 8, mode=i + 1) for i in range(3)]
    stack = MapStack(maps)
    assert len(stack) == 3 and stack.coeffs.shape == (3, 17, 1)
    assert (stack.m, stack.order, stack.ncomp) == (1, 8, 1)
    for got, want in zip(stack, maps):
        assert isinstance(got, FourierMap)
        assert np.array_equal(got.coeffs, want.coeffs)
    assert len(list(stack)) == 3
    assert np.array_equal(stack[-1].coeffs, maps[-1].coeffs)
    assert stack[np.int64(1)].order == 8
    with pytest.raises(IndexError):
        stack[3]
    with pytest.raises(TypeError):
        stack[0:2]
    assert MapStack(stack).coeffs is stack.coeffs
    assert MapStack(stack.coeffs).coeffs is stack.coeffs
    assert np.array_equal(MapStack(iter(maps)).coeffs, stack.coeffs)
    flat = MapStack([FourierMap.constant([0.1, -0.2], 4, m=2)] * 2)
    assert flat.coeffs.shape == (2, 9, 9, 2) and flat[1].m == 2
    path = FlowPath(TimeGrid.uniform(2), 0.05, maps,
                    [f.coeffs[None] for f in maps[:2]])
    assert isinstance(path.snapshots, MapStack) and path.order == 8
    assert path.pieces.shape == (2, 1, 17, 1)


def test_map_stack_checked_as_fourier_map_checks_one_map():
    with pytest.raises(ValueError, match="cube"):
        MapStack(np.zeros((3, 4, 1)))           # an even cube
    with pytest.raises(ValueError, match="cube"):
        MapStack(np.zeros((3, 5, 3, 2)))        # not square
    one_sided = np.zeros((3, 17, 1), dtype=complex)
    one_sided[:, 9] = 0.5                       # k = 1 without k = -1
    with pytest.raises(ValueError, match="reality"):
        MapStack(one_sided)
    with pytest.raises(ValueError, match="reality"):
        FourierMap(one_sided[0])
    corners = MapStack(np.ones((2, 5, 5, 2)))   # m = 2, order 2
    assert not corners.coeffs[:, 0, 0].any() and corners.coeffs[:, 2, 2].all()
    one = MapStack(FourierMap.constant([0.1, -0.2], 4, m=2))
    assert (one.batch, one.m, one.order) == ((1,), 2, 4)


# -- the sampler -------------------------------------------------------------

def _real_maps(rng, batch, order, m):
    """Random real maps T^m -> R^m of a batch shape (Hermitian coefficients)."""
    c = rng.normal(size=batch + (2 * order + 1,) * m + (m,)) * (1 + 1j)
    flip = (Ellipsis,) + (slice(None, None, -1),) * m + (slice(None),)
    return _wrap(0.5 * (c + np.conj(c[flip])), m)


@pytest.mark.parametrize("batch", [(), (7,), (5, 4)], ids=["one", "T", "J4"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_fit_sampled_is_chunk_invariant(batch, m, kind):
    """Cut into three or more chunks, the fit equals the one-chunk fit bit
    for bit; two maps are cut at the same boundaries.  Complex values hold
    several values per point (a chunk width above 1)."""
    order = 3 if m == 1 else 2
    rng = np.random.default_rng(len(batch) + 10 * m)
    f, g = _real_maps(rng, batch, order, m), _real_maps(rng, batch, order, m)
    k = np.array(lattice_modes(1, m)).T
    width = 1 if kind == "real" else k.shape[1]
    calls = []

    def sample(x, fc, gc):
        calls.append(fc.batch)
        if kind == "real":
            return fc.eval(x) * gc.eval(x)[..., :1]
        return np.exp(TWO_PI * 1j * ((x + fc.eval(x)) @ k)) * gc.eval(x)[..., :1]

    def fit(chunk_points):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fourier, "_CHUNK_POINTS", chunk_points)
            return fit_sampled(sample, [f, g], 2 * order, tol_trunc=np.inf,
                               context="test", width=width).coeffs

    one = fit(2 ** 40)
    assert len(calls) == 1 and one.shape[:len(batch)] == batch
    M = sampling_grid(2 * order, m)[0]
    # two entries of the first batch axis per chunk
    many = fit(2 * M ** m * width * int(np.prod(batch[1:])))
    assert len(calls) >= (3 if batch else 1)
    assert np.array_equal(many, one)
    if not batch:   # a single map is fitted as sampled
        vals = sample(sampling_grid(2 * order, m)[1], f, g)
        want = fourier.fit_grid(vals.reshape((M,) * m + vals.shape[-1:]),
                                2 * order, m, np.inf)
        assert np.array_equal(one, want.coeffs)


def test_grid_fits_live_in_fourier_only():
    """Only fourier.py picks a sampling grid or calls the grid fitter; every
    other module samples through fit_sampled."""
    for name, names in src_module_names():
        used = names & {"sampling_grid", "fit_grid"}
        assert not used or name == "fourier.py", (name, used)


def test_strip_weights_live_in_fourier_only():
    """Only fourier.py weights coefficients by the strip weights; every
    other module reads nu and mu from majorants."""
    for name, names in src_module_names():
        assert "strip_weights" not in names or name == "fourier.py", name
