"""Nested-ball harness: telescoping continuity and Cauchy-estimate sweeps."""

import numpy as np
import pytest

from torusflow import (FourierMap, LinearScaleMap, PointwiseSquareMap,
                       cauchy_bound_check, make_levels, third_ball_lipschitz,
                       verify_continuity_estimate)
from torusflow import fourier, limits
from torusflow.errors import EmptyLevel
from torusflow.limits import LevelLipschitzCert

import _reference_limits as ref
from _readings import ConstantScaleMap, max_observed
from conftest import random_real_map


@pytest.fixture(scope="module")
def levels():
    return make_levels(0.2, [0.5, 0.6, 0.7, 0.8], order=16)


@pytest.fixture(scope="module")
def square():
    return PointwiseSquareMap()


def test_level_nesting_and_monotone_seminorms(levels):
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_real_map(rng, 16)
        qs = [lv.q(f) for lv in levels]
        # thinner strips give weaker norms, so deeper balls contain earlier ones
        for a, b in zip(qs, qs[1:]):
            assert b <= a
    radii = [lv.radius for lv in levels]
    assert radii == sorted(radii)


def test_make_levels_rejects_shrinking_radii():
    with pytest.raises(ValueError):
        make_levels(0.2, [0.5, 0.4], order=8)


def _partial_sums(parts):
    """y_0 = 0, y_1, ..., y_n of each telescoping draw, as FourierMaps."""
    sums = np.cumsum(np.pad(parts, ((0, 0), (1, 0), (0, 0))), axis=1)
    return [[FourierMap(c[:, None], check=False) for c in row] for row in sums]


def test_neighborhood_zero_sample(levels, square):
    certs = square.lipschitz_certs(levels, levels[-1].eps)
    parts, q = next(limits._telescoping(levels[:1], certs[:1], 0.05,
                                        np.random.default_rng(1), 1))
    assert q[0, 0] < 0.05 / 2
    assert len(_partial_sums(parts)[0]) == 2


def test_neighborhood_partial_sums_stay_in_balls(levels, square):
    certs = square.lipschitz_certs(levels, levels[-1].eps)
    parts = np.concatenate([p for p, _ in limits._telescoping(
        levels, certs, 0.05, np.random.default_rng(2), 50)])
    assert len(parts) == 50
    for sums in _partial_sums(parts):
        for j, lv in enumerate(levels, start=1):
            assert lv.q(sums[j]) < lv.radius


def test_empty_level_raises(levels, square):
    certs = square.lipschitz_certs(levels, levels[-1].eps)
    broken = [type(lv)(lv.index, lv.eps, lv.order, 0.0) for lv in levels]
    with pytest.raises(EmptyLevel):
        next(limits._telescoping(broken, certs, 0.05,
                                 np.random.default_rng(3), 1))


def test_continuity_square_map(levels, square):
    p_eps = levels[-1].eps
    certs = square.lipschitz_certs(levels, p_eps)
    rep = verify_continuity_estimate(square, levels, certs, p_eps,
                                     eps_target=0.05, count=500,
                                     rng=np.random.default_rng(4))
    assert rep.violations == 0
    assert max_observed(rep) < 0.05


def test_continuity_linear_map(levels):
    lin = LinearScaleMap(np.full(33, 0.95, dtype=complex))
    p_eps = levels[-1].eps
    certs = lin.lipschitz_certs(levels, p_eps)
    rep = verify_continuity_estimate(lin, levels, certs, p_eps,
                                     eps_target=0.05, count=300,
                                     rng=np.random.default_rng(5))
    assert rep.violations == 0


def test_continuity_constant_map(levels):
    const = ConstantScaleMap(FourierMap.from_modes({1: [0.2]}, 16, ncomp=1))
    p_eps = levels[-1].eps
    certs = const.lipschitz_certs(levels, p_eps)
    rep = verify_continuity_estimate(const, levels, certs, p_eps,
                                     eps_target=0.05, count=100,
                                     rng=np.random.default_rng(6))
    assert rep.violations == 0
    assert max_observed(rep) == 0.0


def test_cauchy_ratio_square(levels, square):
    sweep = cauchy_bound_check(square, levels[0], levels[0].eps, 300,
                               np.random.default_rng(7))
    assert sweep.check.ok
    assert sweep.max_ratio > 0


def test_cauchy_ratio_linear_homogeneity(levels):
    lin = LinearScaleMap(np.full(33, 1.0, dtype=complex))
    sweep = cauchy_bound_check(lin, levels[0], levels[0].eps, 200,
                               np.random.default_rng(8))
    assert sweep.check.ok


def test_cauchy_ratio_constant_zero(levels):
    const = ConstantScaleMap(FourierMap.from_modes({1: [0.2]}, 16, ncomp=1))
    sweep = cauchy_bound_check(const, levels[0], levels[0].eps, 50,
                               np.random.default_rng(9))
    assert sweep.max_ratio == 0.0


def test_third_ball_trio(levels, square):
    rng = np.random.default_rng(10)
    assert third_ball_lipschitz(square, levels[0], levels[0].eps, 300,
                                rng).check.ok
    lin = LinearScaleMap(np.full(33, 1.0, dtype=complex))
    assert third_ball_lipschitz(lin, levels[0], levels[0].eps, 200, rng).check.ok
    const = ConstantScaleMap(FourierMap.from_modes({1: [0.2]}, 16, ncomp=1))
    assert third_ball_lipschitz(const, levels[0], levels[0].eps, 50,
                                rng).max_ratio == 0.0


# ---------------------------------------------------------------------------
# the batched harness against the per-sample reference
# ---------------------------------------------------------------------------

ORACLE_MAPS = {
    "square": lambda n: PointwiseSquareMap(),
    "linear": lambda n: LinearScaleMap(np.full(2 * n + 1, 0.95, dtype=complex)),
    "constant": lambda n: ConstantScaleMap(
        FourierMap.from_modes({1: [0.2]}, n, ncomp=1)),
}


def _close(got, want, rtol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


@pytest.mark.parametrize("order", [16, 32])
@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
@pytest.mark.parametrize("seed", [0, 1])
def test_batched_harness_matches_reference(name, order, seed):
    levels = make_levels(0.2, [0.5, 0.6, 0.7, 0.8], order=order)
    f, p_eps = ORACLE_MAPS[name](order), levels[-1].eps
    certs = f.lipschitz_certs(levels, p_eps)
    if seed == 1:   # undersized constants: links fail (square: 21 of 60)
        certs = [LevelLipschitzCert(c.level, 0.03 * c.constant, "too small")
                 for c in certs]
    got, want = (mod.verify_continuity_estimate(
        f, levels, certs, p_eps, 0.05, 60, np.random.default_rng(seed))
        for mod in (limits, ref))
    assert [(r[0], r[1], r[4]) for r in got.rows] == \
        [(r[0], r[1], r[4]) for r in want.rows]
    assert got.violations == want.violations
    _close([r[2:4] for r in got.rows], [r[2:4] for r in want.rows])
    # the square map's central difference divides the rounding of two
    # squares by 2 fd_step, and the batched convolution rounds otherwise
    # than np.convolve: at the default step 1e-5 the ratios agree to ~1e-11
    # only, so it is compared exactly at a step where that stays below 1e-13
    # (the central difference of a square is exact for every step)
    for fd_step, rtol in ((1e-5, 1e-10 if name == "square" else 1e-12),
                          (1e-3, 1e-12)):
        got, want = (mod.cauchy_bound_check(
            f, levels[0], levels[0].eps, 40, np.random.default_rng(seed),
            fd_step) for mod in (limits, ref))
        _close(got.ratios, want.ratios, rtol)
        assert got.check.ok == want.check.ok
    got, want = (mod.third_ball_lipschitz(
        f, levels[0], levels[0].eps, 40, np.random.default_rng(seed))
        for mod in (limits, ref))
    _close(got.ratios, want.ratios)


def test_third_ball_drops_zero_denominators():
    levels = make_levels(0.2, [0.5], order=16)
    zero = ConstantScaleMap(FourierMap.zero(16, 1, 1))
    got, want = (mod.third_ball_lipschitz(zero, levels[0], levels[0].eps, 30,
                                          np.random.default_rng(3))
                 for mod in (limits, ref))
    assert got.ratios.size == want.ratios.size == 0


def test_blocks_keep_the_random_stream():
    """A sweep split into many blocks draws what one block draws."""
    levels = make_levels(0.2, [0.5, 0.6, 0.7, 0.8], order=16)
    square = PointwiseSquareMap()
    certs = square.lipschitz_certs(levels, levels[-1].eps)
    one = verify_continuity_estimate(square, levels, certs, levels[-1].eps,
                                     0.05, 300, np.random.default_rng(12))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "_CHUNK_POINTS", 1000)
        many = verify_continuity_estimate(square, levels, certs,
                                          levels[-1].eps, 0.05, 300,
                                          np.random.default_rng(12))
    assert one.rows == many.rows


@pytest.mark.parametrize("order", [8, 16, 32])
def test_square_keeps_the_bits_of_the_whole_row_loop(square, order):
    """The square multiplies each occupied mode against the occupied band
    alone; the products it leaves out are zero, so on the blocks the
    harness applies it to, sums of parts and +- steps, its bits are the
    whole-row loop's."""
    rng = np.random.default_rng(order)
    eps = [0.2 * 0.5 ** j for j in range(4)]
    parts = next(limits._ball_maps(rng, 63, order, [(0.05, 0.99)] * 4, eps,
                                   (np.ones(4), 1.0)))
    sums = np.cumsum(np.pad(parts, ((0, 0), (1, 0), (0, 0))), axis=1)
    v, w = parts[:, 0], parts[:, 1]
    blocks = [sums, v + 1e-5 * w, v + (-1e-5) * w, np.zeros_like(sums)]
    for c in blocks:
        got, want = square.apply(c), ref.square_apply(c)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
