"""The one series evaluator against the direct sum sum_k c_k e^{2 pi i k.z}
and against the Horner evaluator it replaced."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from torusflow.flow import invert_at_point
from torusflow.fourier import FourierMap, MapStack, eval_series

from _reference_loops import horner_series


def _hermitian_band(rng, order, band, m, ncomp, batch):
    """Coefficient cubes, Hermitian on the lattice, zero outside |k_i| <= band."""
    shape = (batch,) + (2 * order + 1,) * m + (ncomp,)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = 0.5 * (c + c[(slice(None),) + (slice(None, None, -1),) * m].conj())
    k = np.abs(np.arange(-order, order + 1))
    outside = k > band if m == 1 else (k[:, None] > band) | (k > band) \
        | (k[:, None] + k > order)
    c[:, outside] = 0.0
    return c


def _direct_sum(c, z):
    """sum_k c_k e^{2 pi i k.z} term by term, for one cube c and points (P, m)."""
    k = np.arange(-(c.shape[0] // 2), c.shape[0] // 2 + 1)
    e = [np.exp(2j * np.pi * k[None, :] * z[:, i:i + 1]) for i in range(z.shape[1])]
    if z.shape[1] == 1:
        return e[0] @ c
    return np.einsum("pa,pb,abc->pc", e[0], e[1], c)


@st.composite
def series_cases(draw):
    m = draw(st.sampled_from([1, 2]))
    order = draw(st.integers(0, 8 if m == 1 else 5))
    band = draw(st.integers(0, order))
    batch = draw(st.sampled_from([None, 1, 3]))
    seed = draw(st.integers(0, 2 ** 16))
    complex_points = draw(st.booleans())
    return m, order, band, batch, seed, complex_points


@given(series_cases())
@settings(max_examples=80, deadline=None)
def test_eval_series_matches_direct_sum(case):
    m, order, band, batch, seed, complex_points = case
    rng = np.random.default_rng(seed)
    c = _hermitian_band(rng, order, band, m, 2, batch or 1)
    z = rng.uniform(-1.0, 2.0, ((batch or 1), 17, m))
    if complex_points:
        z = z + 1j * rng.uniform(-0.02, 0.02, z.shape)
    want = np.stack([_direct_sum(cb, zb) for cb, zb in zip(c, z)])
    tol = 1e-13 * max(1.0, float(np.abs(c).max()))
    if batch is None:
        got = FourierMap(c[0], check=False).eval(z[0])
        assert got.shape == want[0].shape
        assert np.abs(got - want[0]).max() <= tol
    else:
        got = eval_series(c, z)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol
    assert np.iscomplexobj(got) == complex_points


def _row_count_kind(n):
    """How n rows split into baby-step blocks of ceil(sqrt(n)) rows."""
    if math.isqrt(n) ** 2 == n:
        return "square"
    if math.isqrt(n - 1) ** 2 == n - 1:
        return "above a square"         # the last block is padded
    if n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1)):
        return "prime"
    return "other"


@st.composite
def kernel_cases(draw):
    """Orders up to 64 (m = 1) and 12 (m = 2) whose row count N + 1 is a
    square, one above a square or a prime; 1 to 1,300 points, real or
    within 0.1 of the real axis, shared by the maps or per map."""
    m = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["square", "above a square", "prime"]))
    order = draw(st.sampled_from(
        [n for n in range((64 if m == 1 else 12) + 1)
         if _row_count_kind(n + 1) == kind]))
    batch = draw(st.integers(1, 3))
    shared = draw(st.booleans())
    points = draw(st.integers(1, 1300))
    complex_points = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 16))
    return m, order, batch, shared, points, complex_points, seed


def _majorant(c, z):
    """sum_k max_i |c_{k,i}| e^{2 pi ||k||_1 ||Im z||_inf} per map and point,
    shape (B, P, 1): the scale of the rounding of any way to sum the series."""
    order, m = c.shape[1] // 2, z.shape[-1]
    k = np.abs(np.arange(-order, order + 1))
    l1 = k if m == 1 else k[:, None] + k
    size = np.abs(c).max(axis=-1).reshape(len(c), -1)
    grow = np.exp(2 * np.pi * np.abs(z.imag).max(axis=-1)[..., None]
                  * l1.ravel())
    return np.einsum("bl,bpl->bp", size, grow)[..., None]


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_eval_series_matches_horner_and_direct_sum(case):
    """The baby-step giant-step kernel agrees with the Horner evaluator and
    with the term-by-term sum to a few ulps per mode of the majorant."""
    m, order, batch, shared, points, complex_points, seed = case
    rng = np.random.default_rng(seed)
    c = _hermitian_band(rng, order, order, m, 2, batch)
    z = rng.uniform(0.0, 1.0, (1 if shared else batch, points, m))
    if complex_points:
        z = z + 1j * rng.uniform(-0.1, 0.1, z.shape)
    got = eval_series(c, z)
    assert got.shape == (batch, points, 2)
    assert np.iscomplexobj(got) == complex_points
    tol = 1e-15 * (order + 1) * _majorant(c, z)
    assert (np.abs(got - horner_series(c, z)) <= tol).all()
    direct = np.stack([_direct_sum(cb, z[min(i, len(z) - 1)])
                       for i, cb in enumerate(c)])
    assert (np.abs(got - direct) <= tol).all()


@given(series_cases())
@settings(max_examples=40, deadline=None)
def test_complex_path_agrees_with_real_path_on_real_axis(case):
    m, order, band, batch, seed, _ = case
    rng = np.random.default_rng(seed)
    c = _hermitian_band(rng, order, band, m, 1, batch or 1)
    x = rng.uniform(0.0, 1.0, ((batch or 1), 23, m))
    real, cplx = eval_series(c, x), eval_series(c, x.astype(complex))
    assert np.abs(cplx - real).max() <= 1e-13 * max(1.0, float(np.abs(c).max()))


@given(m=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16),
       shared=st.booleans())
@settings(max_examples=30, deadline=None)
def test_batched_inversion_equals_per_map_inversion(m, seed, shared):
    rng = np.random.default_rng(seed)
    order = 6 if m == 1 else 4
    c = _hermitian_band(rng, order, 3, m, m, 5)
    c *= 0.02 / np.abs(c).sum(axis=tuple(range(1, m + 2)), keepdims=True)
    y = rng.uniform(0.0, 1.0, (11, m) if shared else (5, 11, m))
    got = invert_at_point(MapStack(c), y)
    for t in range(5):
        want = invert_at_point(FourierMap(c[t], check=False),
                               y if shared else y[t])
        assert np.abs(got[t] - want).max() <= 1e-13
