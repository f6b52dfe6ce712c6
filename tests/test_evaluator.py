"""The one series evaluator against the direct sum sum_k c_k e^{2 pi i k.z}."""

import numpy as np
from hypothesis import given, settings, strategies as st

from torusflow.flow import invert_at_point
from torusflow.fourier import FourierMap, MapStack, eval_series


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
