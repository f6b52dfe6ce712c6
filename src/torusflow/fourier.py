"""Truncated Fourier maps on the torus with certified strip majorants.

A periodic real-analytic map ``f`` on T^m (m = 1 or 2) is stored as a
truncated Fourier series

    f(x) = sum_k c_k exp(2 pi i k.x),   ||k||_1 <= N,

with the reality constraint ``c_{-k} = conj(c_k)`` so that real points map
to real points.  Every such truncation extends holomorphically to all of
C^m; on the strip ``||Im z||_inf <= eps`` its size is dominated by the
coefficient majorants

    nu_eps(f)  = sum_k max_i |c_{k,i}| e^{2 pi ||k||_1 eps},
    mu_eps(f)  = max_i sum_k 2 pi ||k||_1 |c_{k,i}| e^{2 pi ||k||_1 eps},
    beta_eps   = max(nu_eps, mu_eps),

since |exp(2 pi i k.z)| <= e^{2 pi ||k||_1 ||Im z||_inf}.  ``nu`` dominates
the supremum norm of ``f`` on the strip and ``mu`` dominates the
inf-operator norm of the Jacobian, so ``beta`` is a computable stand-in
for a BC^1-type norm: it is a Lipschitz constant for ``f`` on the strip
and controls imaginary growth via ``||Im f(x+iy)|| <= mu_eps(f) ||y||``.
One kernel, ``majorants``, weights coefficients by ``strip_weights``: nu
and mu are one dot product per map, per component and per width over the
flattened lattice, in one fixed order, and the widths (a float or an
array) broadcast against the batch by numpy's rules.  A map therefore gets
the same bits alone and in a batch, at one width and at many.

A ``FourierMap`` carries a batch shape in front of its coefficient cube:
() for one map, (T,) for a ``MapStack`` (a path of maps over a time grid).
One kernel, ``eval_series``, evaluates every series, batched over a
leading axis of maps and points: a baby-step giant-step pass over the
powers of w = e^{2 pi i z_1} cuts the rows into blocks of about sqrt(K)
and sums them from a table of the first powers of w and by Horner in the
next one, in O(sqrt K) numpy calls.  At real points a real map needs only
the rows k_1 >= 0, doubled for k_1 > 0; at complex points one pass in w
and one in 1/w run over all rows.  One fitter,
``fit_grid``, takes grid values to a truncated lattice, batched likewise:
``rfftn`` to the Hermitian half spectrum for real values, ``fftn`` for
complex ones, and a check of the discarded relative tail mass against a
budget.  One sampler, ``fit_sampled``, picks the grid and the memory
chunks for every fit outside ``compose`` and ``multiply``.

``compose`` sizes its own grid from certified bounds.  The composite
h = g(z + u(z)) of two trigonometric polynomials is entire, so Cauchy's
estimate on the strips |Im z_i| <= rho_i, one width per axis, bounds
|h_k| for k != 0 by sup |h - g_0| prod_i e^{-2 pi rho_i |k_i|}, and the
reach of id + u bounds that sup from g's coefficients.  A grid of M points
per axis observes the modes in the box |k_i| < M/2; of those outside it,
only the ones with some |k_i| >= M - N alias onto the kept lattice
||k||_1 <= N.  ``CompositionPlan.log_bounds`` bounds both sets,
least over a fixed set of widths (the trapezoidal-rule aliasing estimate
for periodic analytic functions: Trefethen & Weideman, SIAM Review 56,
2014, section 3).  The grid is the least FFT-friendly M at which the
aliases onto the lattice are at rounding level and the unobserved modes
take a small share of the truncation budget; their bound enters the
truncation gate.  A ``CompositionPlan`` holds what this needs of g, so a
solver grid that composes one field stack on every sweep builds it once;
a stack of maps with the same bits (a field constant in time, read at its
nodes) it holds as that one map.  What ``compose`` fits is the change
h - g, summed by ``_shift_sum`` without subtracting values of g, with g's
coefficients added to its spectrum: the FFT's rounding then scales with
|h - g| rather than with |g|, which the strip weights e^{2 pi eps ||k||_1}
of the top modes would otherwise magnify.  The sum runs over g's support,
the modes of the half lattice on which some map of g is nonzero, each a
term e^{2 pi i k.x} ((1 + e_1)^{k_1} .. (1 + e_m)^{k_m} - 1) on the grid
points of a block of nodes of u, and g's coefficients contract against
them node by node.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import DomainEscape, RealityDefect, TruncationBudgetExceeded

TWO_PI = 2.0 * np.pi

#: oversampling factor of the sampling grids (fits, inversion) and of the
#: largest composition grid
OVERSAMPLE = 4
#: default budget for the relative spectral tail discarded by truncation
TOL_TRUNC = 1e-9
#: tolerance on reality defects (hermitian symmetry, imaginary residues)
TOL_REALITY = 1e-12


def _k_axis(order: int) -> np.ndarray:
    return np.arange(-order, order + 1)


@lru_cache(maxsize=128)
def _k_l1(order: int, m: int) -> np.ndarray:
    """||k||_1 on the centered lattice cube, shape (2N+1,)*m.  Read-only."""
    k = np.abs(_k_axis(order))
    l1 = k if m == 1 else k[:, None] + k[None, :]
    l1.flags.writeable = False
    return l1


@lru_cache(maxsize=256)
def _weight_table(order: int, m: int, widths: tuple):
    """The (R, L) weights of ``strip_weights`` for R widths.  Read-only."""
    l1 = _k_l1(order, m).ravel()
    w = np.exp(TWO_PI * np.array(widths)[:, None] * l1)
    dw = TWO_PI * l1 * w
    w.flags.writeable = dw.flags.writeable = False
    return w, dw


def strip_weights(order: int, m: int, eps):
    """Read-only weights e^{2 pi ||k||_1 eps} and 2 pi ||k||_1 e^{..} of nu,
    mu over the flattened lattice cube of L modes, shape np.shape(eps) + (L,)
    for a width or an array of widths eps."""
    if isinstance(eps, float):      # one width: its own key
        w, dw = _weight_table(order, m, (eps,))
        return w[0], dw[0]
    w, dw = _weight_table(order, m, tuple(np.ravel(eps).tolist()))
    shape = np.shape(eps) + (-1,)
    return w.reshape(shape), dw.reshape(shape)


@dataclass(frozen=True)
class NormReport:
    """Certified majorants of a map (of a stack: lists) at one half-width."""

    eps: float
    nu: float | list
    mu: float | list
    beta: float | list
    tail_ratio: float | list


class FourierMap:
    """Truncated Fourier series C^m -> C^c with real symmetry, one or a batch.

    Parameters
    ----------
    coeffs : ndarray, shape batch + (2N+1,)*m + (ncomp,)
        Centered coefficient cubes; index i along a lattice axis holds the
        mode k = i - N.  Entries with ||k||_1 > N are zeroed.  The batch
        shape is () here and (T,) for ``MapStack``.
    check : bool
        Verify the reality constraint c_{-k} = conj(c_k) of every map.

    The algebra and ``eval`` work map by map over any batch shape (a sum
    broadcasts a map against a stack).  Kernels return maps made by
    ``_wrap``, which skips the constructor's checks.
    """

    __slots__ = ("coeffs", "m", "order", "ncomp", "batch")

    #: leading axes of a constructor's array that are batch axes
    _batch_ndim = 0

    def __init__(self, coeffs: np.ndarray, check: bool = True):
        coeffs = np.asarray(coeffs, dtype=complex)
        cube = coeffs.shape[self._batch_ndim:-1]
        if coeffs.ndim < self._batch_ndim + 2:
            raise ValueError("coeffs must have a trailing component axis")
        m = len(cube)
        if m not in (1, 2):
            raise ValueError("domain dimension must be 1 or 2")
        if cube[0] % 2 != 1 or any(s != cube[0] for s in cube):
            raise ValueError("coefficient cube must be (2N+1,)*m")
        if m == 2:      # zero the corners ||k||_1 > N (none exist for m = 1)
            order = cube[0] // 2
            coeffs = np.where(_k_l1(order, m)[..., None] > order, 0.0, coeffs)
        self._set(coeffs, m)
        if check:
            self.check_real()

    def _set(self, coeffs: np.ndarray, m: int) -> None:
        self.coeffs = coeffs
        self.m = m
        self.order = coeffs.shape[-2] // 2
        self.ncomp = coeffs.shape[-1]
        self.batch = coeffs.shape[:coeffs.ndim - m - 1]

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int, m: int, ncomp: int) -> "FourierMap":
        return _wrap(np.zeros((2 * order + 1,) * m + (ncomp,), dtype=complex), m)

    @classmethod
    def constant(cls, value, order: int, m: int = 1) -> "FourierMap":
        value = np.atleast_1d(np.asarray(value, dtype=complex))
        f = cls.zero(order, m, ncomp=value.shape[0])
        center = (order,) * m
        f.coeffs[center] = value
        return cls(f.coeffs)

    @classmethod
    def from_modes(cls, modes: dict, order: int, m: int = 1,
                   ncomp: int | None = None) -> "FourierMap":
        """Build from {k: value} entries; k is an int (m=1) or tuple.

        The conjugate modes are filled in automatically, so passing only k
        with positive leading entry yields a real map.
        """
        ncomp = m if ncomp is None else ncomp
        f = cls.zero(order, m, ncomp=ncomp)
        for k, val in modes.items():
            kk = (k,) if np.isscalar(k) else tuple(k)
            idx = tuple(ki + order for ki in kk)
            nidx = tuple(-ki + order for ki in kk)
            f.coeffs[idx] = np.asarray(val, dtype=complex)
            f.coeffs[nidx] = np.conj(np.asarray(val, dtype=complex))
        return cls(f.coeffs)

    # -- bookkeeping ----------------------------------------------------

    def flat(self) -> "MapStack":
        """The maps with the batch flattened to one axis (one map: a stack
        of one), as the kernels walk them."""
        return _wrap(self.coeffs.reshape(
            (-1,) + self.coeffs.shape[len(self.batch):]), self.m)

    def _mirror_defect(self) -> np.ndarray:
        """|c_k - conj(c_{-k})| per coefficient."""
        flip = (Ellipsis,) + (slice(None, None, -1),) * self.m + (slice(None),)
        return np.abs(self.coeffs[flip] - np.conj(self.coeffs))

    def reality_defect(self) -> np.ndarray:
        """max_{k, i} |c_{k,i} - conj(c_{-k,i})| per map."""
        return self._mirror_defect().max(axis=tuple(range(-self.m - 1, 0)))

    def check_real(self) -> None:
        """ValueError unless every map is Hermitian to TOL_REALITY, relative."""
        defect = self.reality_defect()
        size = np.abs(self.coeffs).max(axis=tuple(range(-self.m - 1, 0)))
        if np.any(defect > TOL_REALITY * np.maximum(1.0, size)):
            raise ValueError(
                f"reality constraint violated (defect {np.max(defect):.3e})")

    def imag_bound(self) -> np.ndarray:
        """1/2 sum_k |c_k - conj(c_{-k})| per map: |Im f| at real points.

        The terms of k and -k are equal, so the sum runs over the half of
        the flattened lattice past its centre, against the mirror half, plus
        the centre's |Im c_0|.
        """
        return _imag_bound(self.coeffs.reshape(self.batch + (-1, self.ncomp)))

    def mode(self, k) -> np.ndarray:
        kk = (k,) if np.isscalar(k) else tuple(k)
        return self.coeffs[(Ellipsis,) + tuple(ki + self.order for ki in kk)
                           + (slice(None),)]

    def constant_part(self) -> np.ndarray:
        return self.coeffs[(Ellipsis,) + (self.order,) * self.m + (slice(None),)]

    def with_order(self, order: int) -> "FourierMap":
        """Re-embed (or truncate) into the centered cube of another order."""
        off = order - self.order
        if off == 0:
            return self
        if off > 0:
            return _wrap(np.pad(self.coeffs, [(0, 0)] * len(self.batch)
                                + [(off, off)] * self.m + [(0, 0)]), self.m)
        c = self.coeffs[(Ellipsis,) + (slice(-off, off),) * self.m + (slice(None),)]
        return _wrap(c.copy() if self.m == 1 else np.where(
            _k_l1(order, 2)[..., None] > order, 0, c), self.m)

    # -- linear structure -----------------------------------------------

    def __add__(self, other: "FourierMap") -> "FourierMap":
        a, b = _common_order(self, other)
        return _wrap(a.coeffs + b.coeffs, self.m)

    def __sub__(self, other: "FourierMap") -> "FourierMap":
        a, b = _common_order(self, other)
        return _wrap(a.coeffs - b.coeffs, self.m)

    def __mul__(self, scalar) -> "FourierMap":
        return _wrap(self.coeffs * float(scalar), self.m)

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------

    def _points(self, z: np.ndarray):
        """Points z as an array (B or 1, P, m) against the flattened batch,
        and the leading shape of their values.  z holds points per map,
        batch + (P, m), or points (..., m) shared by every map."""
        own = z.ndim == len(self.batch) + 2
        lead = self.batch + z.shape[len(self.batch) if own else 0:-1]
        pts = z.reshape((-1, z.shape[-2], self.m) if own else (1, -1, self.m))
        return pts, lead

    def eval(self, z) -> np.ndarray:
        """Evaluate at points z of shape (..., m).

        A batch of maps takes points per map, batch + (P, m), or shared
        points; one ``eval_series`` call serves every map.  Real points give
        real values (the maps are real); complex points, such as strip
        probes, give complex values.
        """
        pts, lead = self._points(np.asarray(z))
        return eval_series(self.flat().coeffs, pts).reshape(lead + (self.ncomp,))


class MapStack(FourierMap):
    """FourierMaps of one order stacked along a leading axis: batch shape (T,).

    Every path of maps over a time grid is one.  Built from the array
    (T,) + (2N+1,)*m + (ncomp,), a sequence of maps or a map (a stack
    shares its coefficients, other batches are flattened); ``stack[t]`` is
    map t, so a stack iterates as its maps.
    """

    __slots__ = ()
    _batch_ndim = 1

    def __init__(self, maps, check: bool = True):
        if isinstance(maps, FourierMap):
            maps = maps.coeffs if len(maps.batch) == 1 else maps.flat().coeffs
        elif not isinstance(maps, np.ndarray):
            maps = [f.coeffs for f in maps]
        super().__init__(maps, check)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, t: int) -> FourierMap:
        return _wrap(self.coeffs[operator.index(t)], self.m)


def _wrap(coeffs: np.ndarray, m: int) -> FourierMap:
    """A kernel's output cubes batch + (2N+1,)*m + (ncomp,) as a map of that
    batch shape (a MapStack for (T,)), without the constructor's checks."""
    f = object.__new__(MapStack if coeffs.ndim == m + 2 else FourierMap)
    f._set(coeffs, m)
    return f


def _imag_bound(c: np.ndarray) -> np.ndarray:
    """``FourierMap.imag_bound`` of cubes flattened to batch + (L, ncomp):
    for several components one at a time, as numpy's sums over an axis
    before a short last one are slow; one component (every m = 1 u) takes
    the sum over the lattice axis, which gives the same bits with fewer
    numpy calls."""
    half = c.shape[-2] // 2
    if c.shape[-1] == 1:
        defect = np.add.reduce(np.abs(c[..., half + 1:, :] - np.conj(
            c[..., :half, :][..., ::-1, :])), axis=-2)
        return np.maximum.reduce(defect + np.abs(c[..., half, :].imag), axis=-1)
    return reduce(np.maximum, [
        np.add.reduce(np.abs(ci[..., half + 1:] - np.conj(
            ci[..., :half][..., ::-1])), axis=-1) + np.abs(ci[..., half].imag)
        for ci in np.moveaxis(c, -1, 0)])


def _modes_to_json(coeffs: np.ndarray, m: int, order: int) -> list:
    """Nonzero rows of each cube of a stack, in index order, as JSON entries.

    An entry is [k, re, im] for one component and [k, [[re, im], ..]] for
    several; k is an int for m = 1 and a list for m = 2.
    """
    idx = np.argwhere(np.any(coeffs, axis=-1))
    keys = ((idx[:, 1] if m == 1 else idx[:, 1:]) - order).tolist()
    rows = coeffs[tuple(idx.T)]
    pairs = np.stack([rows.real, rows.imag], axis=-1)
    pairs = pairs[:, 0] if coeffs.shape[-1] == 1 else pairs[:, None]
    entries = [[k, *p] for k, p in zip(keys, pairs.tolist())]
    ends = np.cumsum(np.bincount(idx[:, 0], minlength=len(coeffs))).tolist()
    return [entries[a:b] for a, b in zip([0] + ends, ends)]


def _common_order(a: FourierMap, b: FourierMap):
    if a.m != b.m or a.ncomp != b.ncomp:
        raise ValueError("incompatible maps")
    n = max(a.order, b.order)
    return a.with_order(n), b.with_order(n)


# ---------------------------------------------------------------------------
# the series evaluator
# ---------------------------------------------------------------------------

#: points (time nodes x points per node) one batch of grid work holds at
#: once; bounds the memory of batched evaluations, inversions and fits
_CHUNK_POINTS = 2 ** 14


def node_chunks(nodes: int, points: int) -> list:
    """Consecutive slices of a node axis, each about _CHUNK_POINTS points."""
    step = max(1, _CHUNK_POINTS // max(points, 1))
    return [slice(s, s + step) for s in range(0, max(nodes, 1), step)]


def _unit_circle(z: np.ndarray) -> np.ndarray:
    """w = e^{2 pi i z} at real z: one cos and one sin per point."""
    tz = TWO_PI * z
    w = np.empty(z.shape, dtype=complex)
    np.cos(tz, out=w.real)
    np.sin(tz, out=w.imag)
    return w


def _powers(w: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """w^0, .., w^{n-1} along axis 1, shape (B, n, P), from w (B, P)."""
    p = np.empty((w.shape[0], n, w.shape[-1]), dtype=complex) \
        if out is None else out
    p[:, 0] = 1.0
    for j in range(1, n):
        np.multiply(p[:, j - 1], w, out=p[:, j])
    return p


def _band_powers(w: np.ndarray, K: int, unit: bool) -> np.ndarray:
    """w^k for k = -K..K along axis 1, shape (B, 2K+1, P), from w (B, P).

    On the unit circle (``unit``) w^{-k} = conj(w^k); elsewhere the
    negative powers are products of 1/w.
    """
    p = np.empty((w.shape[0], 2 * K + 1, w.shape[-1]), dtype=complex)
    _powers(w, K + 1, out=p[:, K:])
    if unit:
        np.conjugate(p[:, :K:-1], out=p[:, :K])
    else:
        _powers(1.0 / w, K + 1, out=p[:, K::-1])
    return p


def _power_series(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{K} c_k w^k at points w, shape (B, ncomp, P).

    ``c`` holds c_0, .., c_K along axis 1, laid out (B, K+1, ncomp), or
    (B, K+1, ncomp, P) with coefficients per point; ``w`` has shape
    (B, P), and either B may be 1.  Baby steps and giant steps (Paterson
    & Stockmeyer, SIAM J. Comput. 2, 1973): with b = ceil(sqrt(K+1)) the
    rows split into J = ceil((K+1)/b) blocks of b, the last one padded with
    zeros, and the sum is sum_i w^i sum_j c_{jb+i} G^j with G = w^b, from
    the table w^0, .., w^b: O(sqrt K) numpy calls in all.  Shared
    coefficients take the baby steps first, one batched matrix product
    (J ncomp, b) x (b, P) against the table, then Horner in G over the
    blocks.  Coefficients per point take the giant steps first, Horner in
    G over the blocks with the b rows of a block side by side, which
    streams c once, then one product-sum against the table.
    """
    n = c.shape[1]
    b = math.isqrt(n - 1) + 1
    J = -(-n // b)
    table = _powers(w, b + 1)
    G = table[:, b, None]
    if c.ndim == 4:
        top = (J - 1) * b
        acc = np.zeros((len(c), b) + c.shape[2:], dtype=complex)
        acc[:, :n - top] = c[:, top:]
        for j in range(J - 2, -1, -1):
            acc *= G[:, None]
            acc += c[:, j * b:(j + 1) * b]
        for i in range(1, b):
            acc[:, 0] += acc[:, i] * table[:, i, None]
        return acc[:, 0]
    B, ncomp = c.shape[0], c.shape[2]
    pad = np.zeros((B, J * b, ncomp), dtype=complex)
    pad[:, :n] = c
    blocks = (pad.reshape(B, J, b, ncomp).swapaxes(2, 3).reshape(
        B, J * ncomp, b) @ table[:, :b]).reshape(-1, J, ncomp, w.shape[-1])
    for j in range(J - 2, -1, -1):
        blocks[:, j + 1] *= G
        blocks[:, j] += blocks[:, j + 1]
    return blocks[:, 0]


def _series_sum(c: np.ndarray, w: np.ndarray, real: bool) -> np.ndarray:
    """The kernel on one batch, shape (B, ncomp, P).

    ``c`` is laid out (B, k_1, ncomp[, k_2]) and ``w`` = e^{2 pi i z} has
    shape (B, m, P).  With ``real`` the rows are k_1 = 0..K with the rows
    k_1 > 0 doubled, w lies on the unit circle and the value is the real
    part of one ``_power_series`` in w_1; otherwise the rows run over
    k_1 = -K..K, one pass in w_1 and one in 1/w_1.  For m = 2 one batched
    matrix product first contracts k_2 against the powers of w_2, which
    leaves coefficients per point.
    """
    if c.ndim == 4:
        b, rows, ncomp, cols = c.shape
        powers = _band_powers(w[:, 1], cols // 2, real)
        c = (c.reshape(b, rows * ncomp, cols) @ powers).reshape(
            max(b, len(w)), rows, ncomp, -1)
    w = w[:, 0]
    if real:
        return _power_series(c, w).real
    K = c.shape[1] // 2
    out = _power_series(c[:, K:], w)
    if K:       # sum_{k=1}^{K} c_{-k} v^k = v sum_{k<K} c_{-k-1} v^k
        v = 1.0 / w
        tail = _power_series(c[:, K - 1::-1], v)
        tail *= v[:, None]
        out += tail
    return out


def eval_series(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c_k e^{2 pi i k.z} at points z: the one series evaluator.

    ``coeffs`` has shape (B,) + (2N+1,)*m + (ncomp,) and ``z`` shape
    (B, P, m), where either B may be 1 and broadcasts; the result has shape
    (B, P, ncomp).  At real z the coefficients must be Hermitian (real
    maps): one ``_power_series`` pass over the rows k_1 >= 0, the rows
    k_1 > 0 doubled, gives the real value from one cos and one sin per
    point.  At complex z a pass in w and one in 1/w give the complex value.
    A pass over k_1 takes O(sqrt N) numpy calls whatever the number of
    points, and a map gets the same bits alone and in a batch.
    """
    m, real = z.shape[-1], not np.iscomplexobj(z)
    c = coeffs
    if real:
        c = c[:, c.shape[1] // 2:].copy()
        c[:, 1:] *= 2.0
    if m == 2:
        c = np.ascontiguousarray(np.moveaxis(c, -1, 2))
    z = np.ascontiguousarray(np.swapaxes(z, 1, 2))
    w = _unit_circle(z) if real else np.exp(TWO_PI * 1j * z)
    b = max(len(c), len(w))     # m = 2 needs a (2K+1)-row table per point
    chunks = [slice(None)] if m == 1 else node_chunks(b, w.shape[-1])
    out = np.concatenate([_series_sum(c[s] if len(c) > 1 else c,
                                      w[s] if len(w) > 1 else w, real)
                          for s in chunks])
    return np.swapaxes(out, 1, 2)


# ---------------------------------------------------------------------------
# majorant norms
# ---------------------------------------------------------------------------

def strip_norms(f: FourierMap, eps: float) -> NormReport:
    """Certified majorants nu, mu, beta of ``f`` on the strip of half-width eps.

    ``tail_ratio`` is the fraction of the nu-weight carried by modes with
    ||k||_1 > N/2; it certifies that the stored truncation order is generous
    for this map at this scale.  A stack gives lists, by one ``majorants``
    call that gives every map the bits it gets alone.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    tail = (_k_l1(f.order, f.m) > f.order / 2)[..., None]
    (nu, nu_tail), (mu, _) = majorants(
        np.stack([f.coeffs, np.where(tail, f.coeffs, 0)]), f.m, eps)
    beta = np.where(mu > nu, mu, nu)        # max(nu, mu), as Python takes it
    tail_ratio = np.divide(nu_tail, nu, out=np.zeros_like(nu), where=nu > 0)
    return NormReport(eps, *(a.tolist() for a in (nu, mu, beta, tail_ratio)))


def majorants(coeffs: np.ndarray, m: int, eps):
    """(nu_eps, mu_eps) of coefficient cubes batch + (2N+1,)*m + (ncomp,).

    The widths eps, a float or an array, broadcast against the batch by
    numpy's rules: both results have the shape
    np.broadcast_shapes(batch, np.shape(eps)), so a batch (B, 1) against
    R widths gives (B, R).  Every entry is one ``np.vecdot`` over the
    flattened lattice per component, in one fixed order, so a map gets the
    same bits alone, in any batch and at any layout of the widths.
    """
    return _weighted(_abs_parts(coeffs, m), coeffs.shape[-2] // 2, m, eps)


def _abs_parts(coeffs: np.ndarray, m: int) -> list:
    """|c| of each component of cubes batch + (2N+1,)*m + (ncomp,), one
    array batch + (L,) per component: one component at a time, as numpy's
    max over a short last axis is slow."""
    lattice = coeffs.shape[:coeffs.ndim - m - 1] + (-1,)
    return [np.abs(coeffs[..., i]).reshape(lattice)
            for i in range(coeffs.shape[-1])]


def _weighted(absc: list, order: int, m: int, eps):
    """(nu_eps, mu_eps) from the moduli ``_abs_parts`` of order N."""
    w, dw = strip_weights(order, m, eps)
    nu = np.vecdot(reduce(np.maximum, absc), w)
    mu = reduce(np.maximum, [np.vecdot(a, dw) for a in absc])
    return nu, mu


def imag_reach(u: FourierMap, eps_in) -> np.ndarray:
    """Certified bound on ||Im(z + u(z))||_inf over the strip ||Im z|| <= eps_in,
    per map of u and per width: the widths broadcast against the batch as
    in ``majorants`` (a float for one map at one width).

    Two valid majorant bounds are combined: the oscillating sup bound
    nu(u - u_0) (the real constant part cannot move the strip) and the
    mean-value bound eps_in * mu(u); the smaller one is used.
    """
    return _reach(_abs_parts(u.coeffs, u.m), u.order, u.m, eps_in)


def _reach(absc: list, order: int, m: int, eps_in):
    """``imag_reach`` from the moduli ``_abs_parts`` of u."""
    nu, mu = _weighted(absc, order, m, eps_in)
    const = reduce(np.maximum, [a[..., a.shape[-1] // 2] for a in absc])
    return eps_in + np.minimum(nu - const, eps_in * mu)


# ---------------------------------------------------------------------------
# composition with a near-identity perturbation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _grid_axes(M: int, m: int) -> np.ndarray:
    """The real grid (j/M)_j as m coordinate arrays (m,) + (M,)*m.  Read-only."""
    x = np.stack(np.meshgrid(*[np.arange(M) / M] * m, indexing="ij"))
    x.flags.writeable = False
    return x


def sampling_grid(order: int, m: int):
    """(M, points) of the real grid (j/M)_j, M = OVERSAMPLE (2N+1) per axis.

    The grid on which maps of order N are sampled and re-fitted; the
    points have shape (M^m, m) and are real.
    """
    M = OVERSAMPLE * (2 * order + 1)
    return M, _grid_axes(M, m).reshape(m, -1).T.copy()


@lru_cache(maxsize=64)
def _spectrum_weights(M: int, m: int, order: int, half: bool):
    """l1 weights of the spectrum entries, those weights beyond order N
    (both flattened), and 1 on the lattice ||k||_1 <= N, 0 on its corners.

    For a half spectrum (columns 0 <= k_m <= M/2) the columns
    0 < k_m < M/2 stand for two modes.  Read-only.
    """
    k = np.abs(np.fft.fftfreq(M, d=1.0 / M).astype(int))
    cols = np.arange(M // 2 + 1) if half else k
    weight = np.where((cols > 0) & (2 * cols < M), 2.0, 1.0) if half \
        else np.ones(M)
    l1 = cols if m == 1 else k[:, None] + cols
    weight, l1 = np.broadcast_to(weight, l1.shape).ravel(), l1.ravel()
    tail = np.where(l1 > order, weight, 0.0)
    inside = (_k_l1(order, m) <= order).astype(float)
    for a in (weight, tail, inside):
        a.flags.writeable = False
    return weight, tail, inside


@lru_cache(maxsize=64)
def _sample_index(order: int, M: int, m: int, cols: int):
    """Where the grid samples of each mode of the lattice of order N
    (flattened) land in a spectrum of M points per axis that keeps ``cols``
    columns on its last axis: the flat targets, the modes that land on a
    kept column (k_m mod M < cols), and whether two of them share a target
    (N >= M/2).  Read-only."""
    k = _k_axis(order) % M
    col = k if m == 1 else np.broadcast_to(k, (len(k), len(k)))
    flat = (col if m == 1 else k[:, None] * cols + col).ravel()
    keep = (col < cols).ravel()
    tgt, src = flat[keep], np.flatnonzero(keep)
    tgt.flags.writeable = src.flags.writeable = False
    return tgt, src, bool(np.bincount(tgt).max(initial=0) > 1)


def _tail_ratio(spec: np.ndarray, M: int, m: int, order: int,
                alias: np.ndarray | None = None) -> np.ndarray:
    """Per batch entry, the l1 share of the modes ||k||_1 > N of a spectrum
    (B, ncomp, M..), last axis M/2 + 1 for a half spectrum, plus twice the
    bound ``alias`` on the modes the grid does not observe, if given."""
    weight, tail, _ = _spectrum_weights(M, m, order, spec.shape[-1] != M)
    amp = np.abs(spec)
    if spec.shape[1] > 1:       # the largest component
        amp = np.maximum.reduce(amp, axis=1)
    amp = amp.reshape(len(spec), -1)
    total = amp @ weight
    mass = amp @ tail + (0.0 if alias is None else 2.0 * alias)
    return np.divide(mass, total, out=np.zeros(total.shape), where=total > 0)


def fit_grid(values: np.ndarray, order: int, m: int,
             tol_trunc: float = TOL_TRUNC, context: str = "fit",
             alias: np.ndarray | None = None,
             base: np.ndarray | None = None) -> FourierMap:
    """Fourier-fit values on the uniform real grid (j/M)_j, truncated to order N.

    ``values`` has shape batch + (M,)*m + (ncomp,); the fit is a map of
    that batch shape.  Real values go by ``rfft`` to the half spectrum
    k_m >= 0, mirrored back by c_{-k} = conj(c_k); complex values by a full
    ``fft``; m = 2 adds an ``fft`` on the first axis, as ``rfftn`` and
    ``fftn`` do.  Raises TruncationBudgetExceeded when, for any map, the
    relative l1 mass of the modes ||k||_1 > N exceeds ``tol_trunc``.  That
    mass is the observed one on the grid's M^m modes, plus, given ``alias``
    (per map, a bound on the mass of the sampled function's modes outside
    the box |k_i| < M/2 that the grid observes), twice the bound: such a
    mode is missing from the box, and its alias lands once in it, where it
    may hide the mode it lands on.  A ratio that is not finite fails too.

    ``base``, coefficients (B or 1,) + lattice + (ncomp,) over the
    flattened batch, is a map whose grid samples were taken out of the
    values: its samples' spectrum is added back before the gate and the cut.
    """
    batch = values.shape[:values.ndim - m - 1]
    # component first, grid axes last: the transforms run on contiguous lines
    vals = values.reshape((-1,) + values.shape[len(batch):]).transpose(
        (0, m + 1) + tuple(range(1, m + 1)))
    M, n = vals.shape[-1], order
    real = not np.iscomplexobj(vals)
    spec = (np.fft.rfft if real else np.fft.fft)(vals, axis=-1, norm="forward")
    if m == 2:
        spec = np.fft.fft(spec, axis=-2, norm="forward")
    if base is not None:
        nb = base.shape[-2] // 2
        if m == 1 and real and 2 * nb < M:
            # the modes 0..N_b land on the columns 0..N_b, the others on none
            spec[..., :nb + 1] += base[:, nb:].transpose(0, 2, 1)
        else:
            tgt, src, shared = _sample_index(nb, M, m, spec.shape[-1])
            flat = spec.reshape(spec.shape[:2] + (-1,))
            add = base.reshape(len(base), -1, base.shape[-1]).transpose(
                0, 2, 1)[..., src]
            if shared:      # only np.add.at sums repeated targets
                np.add.at(flat, (Ellipsis, tgt), add)
            else:
                flat[..., tgt] += add
    worst = np.maximum.reduce(_tail_ratio(spec, M, m, n, alias))
    if not worst <= tol_trunc:
        raise TruncationBudgetExceeded(
            f"{context}: discarded tail ratio {worst:.3e} > {tol_trunc:.1e}")
    k = _k_axis(n) % M
    if real:
        half = spec[..., :n + 1] if m == 1 else spec[:, :, k, :n + 1]
        kept = np.empty(half.shape[:-1] + (2 * n + 1,), dtype=complex)
        kept[..., n:] = half
        # reverse every lattice axis of the columns k_m > 0
        kept[..., :n] = half[(Ellipsis,) + (slice(None, None, -1),) * (m - 1)
                             + (slice(n, 0, -1),)].conj()
    else:
        kept = spec[..., k] if m == 1 else spec[:, :, k[:, None], k]
    if m == 2:      # zero the corners ||k||_1 > N (none exist for m = 1)
        kept *= _spectrum_weights(M, m, n, real)[2]
    kept = kept.transpose((0,) + tuple(range(2, m + 2)) + (1,))
    return _wrap(kept.reshape(batch + kept.shape[1:]), m)


def fit_sampled(sample, maps, order: int, *, tol_trunc: float, context: str,
                width: int = 1) -> FourierMap:
    """The order-N fit of ``sample`` on the ``sampling_grid`` points x,
    shape (M^m, m): the one sampler besides ``compose`` and ``multiply``.

    The ``maps`` are cut along their shared first batch axis into
    ``node_chunks`` of about ``_CHUNK_POINTS`` points at ``width`` values
    per point (a single map is one chunk).  ``sample(x, *chunk)`` returns
    values of shape batch + (M^m, ncomp).  The chunks' fits are joined in C
    order, so the chunk size changes no bit of a later reduction.
    """
    m, lead = maps[0].m, maps[0].batch
    M, x = sampling_grid(order, m)
    cuts = (node_chunks(lead[0], len(x) * width * int(np.prod(lead[1:])))
            if lead else [Ellipsis])
    fits = []
    for s in cuts:
        vals = sample(x, *[_wrap(f.coeffs[s], m) for f in maps])
        vals = vals.reshape(vals.shape[:-2] + (M,) * m + vals.shape[-1:])
        fits.append(fit_grid(vals, order, m, tol_trunc, context).coeffs)
    return _wrap(np.ascontiguousarray(np.concatenate(fits)), m)


def _support_band(c: np.ndarray) -> tuple:
    """Per axis i the least K_i with every nonzero mode of a stack c in
    |k_i| <= K_i."""
    k = np.abs(np.argwhere(c.any(axis=(0, -1))) - c.shape[1] // 2)
    return tuple(k.max(axis=0, initial=0).tolist())


@lru_cache(maxsize=64)
def _shells(K: int, m: int):
    """For the cube |k_i| <= K, flattened: the index of each mode's shell
    (|k_1|, .., |k_m|) among the (K + 1)^m shells, and 2 pi times each
    shell's (|k_1|, .., |k_m|), (m, (K + 1)^m).  Read-only."""
    k = np.abs(np.indices((2 * K + 1,) * m).reshape(m, -1) - K)
    index = np.ravel_multi_index(k, (K + 1,) * m)
    two_pi_k = TWO_PI * np.indices((K + 1,) * m).reshape(m, -1)
    index.flags.writeable = two_pi_k.flags.writeable = False
    return index, two_pi_k


def _grid_values(u: np.ndarray, M: int, imag_bound: np.ndarray) -> np.ndarray:
    """u on the grid of M points per axis, shape (B, m, M^m), from the
    columns k_m >= 0 of the Hermitian u, shape (B, m, n..), whose
    ``imag_bound`` (B,) bounds |Im u| on the real grid, to 1e-9 max(1, |u|)."""
    m, n = u.shape[1], u.shape[-1] // 2
    vals = u[..., n:]
    if m == 2:      # zero-padded over k_1; irfft pads k_2 to M/2 + 1 itself
        dense = np.zeros(vals.shape[:2] + (M, n + 1), dtype=complex)
        dense[:, :, np.arange(-n, n + 1) % M] = vals
        vals = np.fft.ifft(dense, axis=2, norm="forward")
    vals = np.fft.irfft(vals, n=M, axis=-1, norm="forward")
    if m == 2:
        vals = vals.reshape(len(u), m, -1)
    if (imag_bound > 1e-9).any() and (imag_bound > 1e-9 * np.maximum(
            1.0, np.abs(vals).max(axis=(1, 2)))).any():
        raise RealityDefect("perturbation is not real on the real grid")
    return vals


def _circle_m1(z: np.ndarray) -> np.ndarray:
    """e^{2 pi i z} - 1 at real z without cancellation:
    -2 sin^2(pi z) + i sin(2 pi z)."""
    e = np.empty(z.shape, dtype=complex)
    pz = np.pi * z
    np.sin(pz, out=e.real)
    np.square(e.real, out=e.real)
    e.real *= -2.0
    pz *= 2.0       # exact: the bits of TWO_PI * z
    np.sin(pz, out=e.imag)
    return e


@lru_cache(maxsize=64)
def _mode_roots(M: int, modes: tuple) -> np.ndarray:
    """a^k = e^{2 pi i k.x} for the m-tuples k of ``modes`` (rows) at the
    grid points x = j/M of M points per axis, the last coordinate running
    fastest (columns), the argument reduced exactly.  Read-only."""
    m = len(modes[0])
    j = np.indices((M,) * m).reshape(m, -1)
    a = _unit_circle(np.array(modes) @ j % M / M)
    a.flags.writeable = False
    return a


def _fold_band(band: np.ndarray):
    """The modes and coefficients of the shift sum of a band (b, rows,
    ncomp[, cols]), laid out as the real rows of ``_series_sum``: the modes
    k of the half lattice, k_1 > 0 or (m = 2) k_1 = 0 < k_2, with a nonzero
    coefficient in some map, in index order, as m-tuples, and those
    coefficients (b, ncomp, modes).  Row 0's columns k_2 and -k_2 fold into
    k_2 > 0 as c_{k_2} + conj(c_{-k_2}): their terms of the sum are
    conjugate but for the coefficient, so its real part does not change, and
    the mode 0 adds nothing to a change."""
    c = band.reshape(band.shape[:3] + (-1,)).copy()     # m = 1: one column
    K2 = c.shape[-1] // 2
    c[:, 0, :, K2 + 1:] += np.conj(c[:, 0, :, :K2][..., ::-1])
    c[:, 0, :, :K2 + 1] = 0.0
    rows, cols = np.nonzero(c.any(axis=(0, 2)))
    axes = (rows, cols - K2)[:band.ndim - 2]
    modes = tuple(zip(*(k.tolist() for k in axes)))
    return modes, np.ascontiguousarray(c[:, rows, :, cols].transpose(1, 2, 0))


def _unit_powers(e: np.ndarray):
    """E_k = (1 + e)^k - 1 for k = 1, 2, .. in turn, each from the one below
    as E + e (1 + E), which subtracts nothing: E_1 is e itself."""
    E = e
    while True:
        yield E
        nxt = e * E
        nxt += e
        nxt += E
        E = nxt


def _shift_sum(c: np.ndarray, e: np.ndarray, M: int,
               modes: tuple) -> np.ndarray:
    """g(x + u(x)) - g(x) on the grid of M points per axis, shape
    (B, ncomp, M^m), from g's coefficients c and e = e^{2 pi i u(x)} - 1,
    shape (B, m, M^m).  No step subtracts values of g, so the rounding
    scales with the difference, not with g.

    c holds the coefficients (b, ncomp, n) of the n ``modes`` of
    ``_fold_band``, and the sum runs over them alone: the change is
    Re sum_k c_k phi_k with phi_k = a^k ((1 + e_1)^{k_1} .. (1 + e_m)^{k_m}
    - 1), a^k = e^{2 pi i k.x}, which is a^k E_1 at m = 1 and
    a^k (E_1 + E_2 + E_1 E_2) at m = 2, E_d = (1 + e_d)^{|k_d|} - 1 of
    ``_unit_powers``, conj(E_2) for k_2 < 0 (on the real grid (1 + e)^{-k}
    and a^{-k} are taken as the conjugates of (1 + e)^k and a^k).  The
    planes phi_k (n, nodes, P) are built for a block of nodes at a time, of
    at most 4 ``_CHUNK_POINTS`` points over all modes (one node at least),
    and g's coefficients contract against them in one product per node, so
    a node gets the same bits alone and in a stack.
    """
    B, P = max(len(c), len(e)), e.shape[-1]
    out = np.zeros((B, c.shape[1], P))
    if not modes:
        return out
    roots = _mode_roots(M, modes)
    step = max(1, 4 * _CHUNK_POINTS // (len(modes) * P))
    buf = np.empty((len(modes), min(step, len(e)), P), dtype=complex)
    for s in ([slice(None)] if len(e) == 1 else
              [slice(i, i + step) for i in range(0, len(e), step)]):
        es = e[s].swapaxes(0, 1)
        # E_1 advances along the modes, whose k_1 never falls; a later axis
        # keeps its powers up to the largest |k_d| in a table
        run, E1, k1 = _unit_powers(es[0]), None, 0
        E = [[None, *islice(_unit_powers(ed), max(abs(k[d]) for k in modes))]
             for d, ed in enumerate(es[1:], 1)]
        conj = {k: np.conjugate(E[-1][-k]) for k in {k[-1] for k in modes}
                if k < 0}
        phi = buf[:, :es.shape[1]]
        for plane, root, k in zip(phi, roots, modes):
            while k1 < k[0]:
                E1, k1 = next(run), k1 + 1
            f = ([E1] if k[0] else []) + [conj[kd] if kd < 0 else Ed[kd]
                                          for Ed, kd in zip(E, k[1:]) if kd]
            if len(f) == 2:
                np.multiply(f[0], f[1], out=plane)
                plane += f[0]
                plane += f[1]
                plane *= root
            else:
                np.multiply(f[0], root, out=plane)
        out[s] = ((c[s] if len(c) > 1 else c) @ phi.swapaxes(0, 1)).real
    return out


#: strip half-widths rho of the Cauchy estimates on a composite's modes,
#: 1/80 .. 1.6 in steps of 2^(1/4); the wide ones serve a perturbation
#: near zero
_ALIAS_RHO = 0.0125 * 2.0 ** (np.arange(29) / 4)
#: the share of the truncation budget that the bound on the unobserved
#: modes may take at the grid ``composition_grid`` picks
ALIAS_SHARE = 1e-2
_LOG_EPS = math.log(np.finfo(float).eps)


@lru_cache(maxsize=64)
def _fft_sizes(lo: int, hi: int) -> np.ndarray:
    """The even 5-smooth grid sizes M in [lo, hi], ascending."""
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1
    return np.array([M for M in range(lo + lo % 2, hi + 1, 2) if smooth(M)])


class _Widths(NamedTuple):
    """The widths of the Cauchy estimates for perturbations of one order N,
    read-only: P width pairs, one width per axis (every pair of candidates
    for m = 2)."""

    #: the pairs (P, m)
    width: np.ndarray
    #: sinh and cosh of 2 pi rho |k| over the axis of order N, (2N + 1, R)
    sinh: np.ndarray
    cosh: np.ndarray
    #: per pair the largest weight on the lattice, e^{2 pi N max_i rho_i},
    #: (P, 1)
    top: np.ndarray


@lru_cache(maxsize=64)
def _alias_widths(order: int, m: int) -> _Widths:
    """The ``_Widths`` of order N: the candidates rho at which e^{2 pi rho
    m N} is finite, so that every weight on the cube of order N is."""
    rho = _ALIAS_RHO[TWO_PI * _ALIAS_RHO * m * max(order, 1) <= 600.0]
    width = rho[np.indices((len(rho),) * m).reshape(m, -1).T]
    w = TWO_PI * np.abs(_k_axis(order))[:, None] * rho
    table = _Widths(width, np.sinh(w), np.cosh(w),
                    np.exp(TWO_PI * order * width.max(axis=1, keepdims=True)))
    for a in table:
        a.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _grid_log_t(order_u: int, m: int, order: int, cap: int) -> np.ndarray:
    """log T_d(L) = log (2 q_d^L / (1 - q_d) prod_{j != d} (1 + q_j) /
    (1 - q_j)), q = e^{-2 pi rho}, the Cauchy estimate's sum over the modes
    |k_d| >= L per unit of S, per width pair and axis d, for the two sets
    of ``CompositionPlan.log_bounds`` at every candidate grid size, L = M - N
    and M/2, for perturbations of order ``order_u``: (m, 2, sizes, P), the
    width pairs last, where ``log_bounds`` takes their least.  Read-only."""
    width = _alias_widths(order_u, m).width
    q = np.exp(-TWO_PI * width)
    both = np.log1p(q) - np.log1p(-q)
    rest = np.log(2.0) - np.log1p(-q) + both.sum(axis=1, keepdims=True) - both
    sizes = _fft_sizes(2 * order + 2, cap)
    t = np.ascontiguousarray(np.moveaxis(
        rest[..., None, None] - TWO_PI * width[..., None, None]
        * np.stack([sizes - order, sizes / 2]), 0, -1))
    t.flags.writeable = False
    return t


def _alias_reach(a: np.ndarray, imag: float, widths: _Widths) -> np.ndarray:
    """Bounds on |Im(z_i + u_i(z))| over the strips |Im z_j| <= rho_j, per
    width pair and axis i, (P, m), for every map u whose coefficients are
    at most ``a`` in modulus, a cube (2N+1,)*m + (m,), and whose mirror
    defect is at most ``imag``.

    The modes k and -k of a real map pair up to give |Im u_i| <= sum_k
    |c_{k,i}| sinh(2 pi sum_j rho_j |k_j|), which factors over the axes as
    sinh(a + b) = sinh a cosh b + cosh a sinh b; a departure from reality
    adds its mirror defect at the largest weight.
    """
    sinh, cosh, m = widths.sinh, widths.cosh, a.shape[-1]
    if m == 1:
        e = (a[:, 0] @ sinh)[:, None]
    else:
        a = a.transpose(2, 0, 1)
        e = (sinh.T @ a @ cosh + cosh.T @ a @ sinh).reshape(m, -1).T
    return widths.width + e + widths.top * imag


class CompositionPlan:
    """What ``compose`` needs of the outer maps g, built once while they
    stay fixed: a solver grid composes one field stack on every sweep.

    The plan holds g's coefficients as ``_shift_sum`` reads them: the
    ``modes`` of g's support and their coefficients, folded by
    ``_fold_band`` from the band trimmed per axis to the extents K_i.  The
    aliasing bound reads the cube |k_i| <= K, K = max_i K_i: nu_0(g) per
    map, and the largest over the maps of max_i
    |g_{k,i}| / nu_0(g) on the modes k != 0 of the cube, summed over the
    modes of one |k|.  It also holds the grid sizes up to ``cap``.

    A stack whose maps all have the same bits (the field of a path that is
    constant in time, read at its nodes) is held as that one map: ``coeffs``,
    ``band`` and ``nu0`` have batch 1, which ``compose`` broadcasts
    against the stack u as it does a single outer map; ``batch`` is the
    batch shape of g, which the composites broadcast to.
    """

    def __init__(self, g: FourierMap, order: int, cap: int):
        m, c, n = g.m, g.flat().coeffs, g.order
        bits = np.ascontiguousarray(c).view(np.int64)
        if (bits[1:] == bits[:1]).all():
            c = c[:1]
        self.batch, self.order, self.cap, self.m, self.coeffs = (
            g.batch, order, cap, m, c)
        extent = _support_band(c)
        self.K = K = max(extent)
        cube = (slice(n - K, n + K + 1),) * m
        # the band's rows 0 <= k_1 <= K_1, k_1 > 0 doubled, and columns
        # |k_2| <= K_2, as (B, k_1, ncomp[, k_2]), folded to its modes
        band = c[(slice(None), slice(n, n + extent[0] + 1))
                 + tuple(slice(n - k, n + k + 1) for k in extent[1:])
                 ].transpose((0, 1, m + 1) + tuple(range(2, m + 1))).copy()
        band[:, 1:] *= 2.0
        self.modes, self.band = _fold_band(band)
        amp = np.maximum.reduce(np.abs(c[(slice(None),) + cube]), axis=-1)
        self.nu0 = np.add.reduce(amp.reshape(len(c), -1), axis=1)
        lead = (-1,) + (1,) * m
        amp = np.maximum.reduce(np.divide(
            amp, self.nu0.reshape(lead), out=np.zeros(amp.shape),
            where=self.nu0.reshape(lead) > 0), axis=0).ravel()
        # summed over the modes of one |k|, kept where positive for k != 0
        index, two_pi_k = _shells(K, m)
        amp = np.bincount(index, amp, (K + 1) ** m)
        amp[0] = 0.0
        self.two_pi_k = two_pi_k[:, amp > 0]
        self.amp = amp[amp > 0]
        self.sizes = _fft_sizes(2 * order + 2, cap)

    def log_bounds(self, amp: np.ndarray, imag: float) -> np.ndarray:
        """Logs of certified bounds per unit nu_0(g), (2, sizes) at the
        plan's ``sizes``, for every map u whose coefficients are at most
        ``amp`` in modulus, a cube (2N+1,)*m + (m,), and whose mirror
        defect is at most ``imag``, on two sets of modes of the composite
        h = g o (id + u)
        that a grid of M points per axis does not resolve: [0] those that
        can alias onto the kept lattice ||k||_1 <= N, all in ||k||_inf >=
        M - N, and [1] the unobserved ones, ||k||_inf >= M/2, outside the
        box |k_i| < M/2 that the grid observes.

        h is entire.  On the strips |Im z_j| <= rho_j, id + u reaches at
        most R_i in axis i (``_alias_reach``), so |h - g_0| <= sum_{k != 0}
        |g_k| prod_i e^{2 pi |k_i| R_i} <= S(rho) nu_0(g), and Cauchy's
        estimate gives |h_k| <= S(rho) nu_0(g) prod_j q_j^{|k_j|},
        q_j = e^{-2 pi rho_j}, for k != 0.  The modes |k_d| >= L sum to
        2 q_d^L / (1 - q_d) prod_{j != d} (1 + q_j) / (1 - q_j) times that;
        the bound is their least over the width pairs, summed over the axes
        d (the trapezoidal-rule aliasing estimate for periodic analytic
        functions: Trefethen & Weideman, SIAM Review 56, 2014, section 3).
        S takes the largest coefficients of all maps, so one estimate
        serves the stacks, scaled by each map's nu_0(g).  A constant g
        gives a constant h: nothing aliases, and the bounds are -inf.
        """
        if self.K == 0:
            return np.full((2, len(self.sizes)), -np.inf)
        order_u = amp.shape[0] // 2
        reach = _alias_reach(amp, imag, _alias_widths(order_u, self.m))
        # log S per width pair, the sum scaled by its largest term
        x = reach @ self.two_pi_k
        top = np.maximum.reduce(x, axis=1)
        log_s = top + np.log(np.exp(x - top[:, None]) @ self.amp)
        log_t = _grid_log_t(order_u, self.m, self.order, self.cap)
        return np.logaddexp.reduce(np.minimum.reduce(
            log_s + log_t, axis=-1), axis=0)

    def composition_grid(self, amp: np.ndarray, imag: float,
                         tol_trunc: float):
        """The grid size M of a composition with the maps u bounded by
        ``amp`` and ``imag`` as in ``log_bounds`` (a stack's largest
        moduli and mirror defect), and per map of g the bound on the
        unobserved modes there.

        M is the least even 5-smooth size in [2N + 2, cap] at which
        ``log_bounds`` keeps the modes that can alias onto the kept
        lattice at machine epsilon times nu_0(g), as small as the FFT's
        rounding, and twice the unobserved ones at ``ALIAS_SHARE`` of
        ``tol_trunc`` times nu_0(g).  Every call searches every width at
        every size.  Without a size (a bound that is not finite never
        qualifies), M is ``cap`` and the bound infinite, so the fit's
        truncation gate fails: no grid certifies the composite.  If h = g,
        nothing aliases and the least size serves.
        """
        if not len(self.sizes):
            return self.cap, np.full_like(self.nu0, np.inf)
        if self.K == 0 or (2 * self.K < self.sizes[0] and not amp.any()):
            # h = g (constant g, or u = 0): its modes |k_i| <= K are observed
            # and alias nowhere
            return int(self.sizes[0]), np.zeros_like(self.nu0)
        # both sets' bounds at every size; the first size where both hold
        log_b = self.log_bounds(amp, imag)
        ok = (log_b[0] <= _LOG_EPS) & (
            log_b[1] <= math.log(0.5 * ALIAS_SHARE * tol_trunc))
        j = int(ok.argmax())
        if not ok[j]:
            return self.cap, np.full_like(self.nu0, np.inf)
        return int(self.sizes[j]), self.nu0 * math.exp(log_b[1, j])

    def compose(self, u: np.ndarray, tol_trunc: float, scales) -> np.ndarray:
        """g o (id + u) for the coefficient stack u, (B,) + lattice + (m,)
        of order at most the plan's, as coefficients (B,) + lattice +
        (ncomp,) of the plan's order over the broadcast batch, on the grid
        of ``composition_grid``, one ``node_chunks`` chunk of maps at a
        time.

        One pass over |u| gives the three bounds on u that the composite's
        certificates read: with ``scales`` (outer, inner), the reach of
        ``imag_reach`` from the inner strip (DomainEscape past the outer
        one), and the largest moduli over the stack that ``log_bounds``
        reads; its mirror defects bound |Im u| for the reality check.
        """
        m, band, c = self.m, self.band, self.coeffs
        absc = _abs_parts(u, m)
        if scales is not None:
            outer, inner = scales
            _within(_reach(absc, u.shape[1] // 2, m, inner), outer)
        amp = np.maximum.reduce(absc[0] if m == 1 else np.stack(absc, axis=-1))
        imag = _imag_bound(u.reshape(len(u), -1, m))
        M, alias = self.composition_grid(amp.reshape(u.shape[1:]),
                                         np.maximum.reduce(imag), tol_trunc)
        # components first, (B, m, n..), as ``_grid_values`` reads them
        uc = u.transpose((0, m + 1) + tuple(range(1, m + 1)))
        out = []
        for s in node_chunks(max(len(u), len(band)), M ** m):
            e = _circle_m1(_grid_values(uc[s] if len(u) > 1 else uc, M,
                                        imag[s] if len(u) > 1 else imag))
            vals = _shift_sum(band[s] if len(band) > 1 else band, e, M,
                              self.modes)
            if m == 2:
                vals = vals.reshape(vals.shape[:2] + (M, M))
            out.append(fit_grid(vals.transpose((0, *range(2, m + 2), 1)),
                                self.order, m, tol_trunc, "compose",
                                alias if len(alias) == 1 else alias[s],
                                c[s] if len(c) > 1 else c).coeffs)
        return np.ascontiguousarray(out[0]) if len(out) == 1 \
            else np.concatenate(out)


def _within(reach: np.ndarray, outer: float) -> None:
    """DomainEscape unless every reach stays inside the outer strip."""
    reach = float(np.maximum.reduce(reach, axis=None))
    if reach > outer * (1 + 1e-12):
        raise DomainEscape(
            f"imaginary reach {reach:.6g} exceeds outer strip {outer:.6g}")


def compose(g, perturb, *,
            order: int | None = None,
            oversample: int = OVERSAMPLE,
            tol_trunc: float = TOL_TRUNC,
            outer_scale: float | None = None,
            inner_scale: float | None = None):
    """Truncated expansion of x -> g(x + perturb(x)): the one composition.

    The real maps are composed map by map; their batch shapes broadcast (a
    single map against a stack) and give the batch of the result.  u =
    perturb, cut to order N, is synthesised on a real grid of M points per
    axis by inverse FFTs (RealityDefect unless it is real).  There
    ``_shift_sum`` sums the difference g(x + u(x)) - g(x) over g's support
    modes, never subtracting values of g, and ``fit_grid`` fits it with g's
    own coefficients added to its spectrum.
    The FFT's rounding thus scales with the change u makes, not with g.

    M comes from ``CompositionPlan.composition_grid``, between 2N + 2 and
    the cap ``oversample`` (2N + 1).  Two sets of the composite's modes
    are bounded there by ``CompositionPlan.log_bounds``: those that alias
    onto the kept lattice, at rounding level, and those outside the box
    |k_i| < M/2 that the grid observes, within a small share of the
    budget.  The truncation gate
    (TruncationBudgetExceeded) reads the observed tail ||k||_1 > N plus
    twice the second bound against ``tol_trunc``, which is at least the
    true tail.  If no size qualifies, the bound is infinite: the gate
    fails after the reality check.  ``g`` may be a ``CompositionPlan`` of
    the outer maps, which carries g's side from call to call and brings its
    own order and cap; otherwise the call builds its own.  With
    ``outer_scale`` and ``inner_scale`` the certified imaginary reach of
    every id + u from the inner strip must stay inside the outer strip
    where g's majorants are quoted (else DomainEscape); u is read at its
    own order there, before the cut.
    """
    m = g.m
    if perturb.ncomp != m or perturb.m != m:
        raise ValueError("perturbation must be a self-map displacement")
    if not isinstance(g, CompositionPlan):     # g's own plan
        n_out = g.order if order is None else order
        g = CompositionPlan(g, n_out, oversample * (2 * n_out + 1))
    scales = None if outer_scale is None else (outer_scale, inner_scale)
    u = perturb
    if u.order > g.order:       # the reach of the whole u, then the cut
        if scales is not None:
            _within(imag_reach(u, inner_scale), outer_scale)
            scales = None
        u = u.with_order(g.order)
    out = g.compose(u.coeffs.reshape((-1,) + u.coeffs.shape[-m - 1:]),
                    tol_trunc, scales)
    batch = (perturb.batch if g.batch in ((), perturb.batch)
             else np.broadcast_shapes(g.batch, perturb.batch))
    if len(out) < math.prod(batch):     # a one-map plan against one map u
        out = np.repeat(out, math.prod(batch), axis=0)
    return _wrap(out.reshape(batch + out.shape[1:]), m)


def multiply(f: FourierMap, g: FourierMap, *, order: int | None = None,
             tol_trunc: float = TOL_TRUNC) -> FourierMap:
    """Pointwise product; scalar*vector or componentwise for equal ncomp.

    The product of truncations of orders N1, N2 has exact order N1+N2; it
    is computed on a grid resolving that order, then truncated back.
    """
    if f.m != g.m:
        raise ValueError("domain dimensions differ")
    if not (f.ncomp == g.ncomp or f.ncomp == 1 or g.ncomp == 1):
        raise ValueError("component counts are not broadcastable")
    n_exact = f.order + g.order
    M = 2 * n_exact + 2
    pts = _grid_axes(M, f.m).reshape(f.m, -1).T
    vals = f.eval(pts) * g.eval(pts)
    n_out = max(f.order, g.order) if order is None else order
    ncomp = max(f.ncomp, g.ncomp)
    shape = (M,) * f.m + (ncomp,)
    return fit_grid(vals.reshape(shape), n_out, f.m, tol_trunc, context="product")


# ---------------------------------------------------------------------------
# restriction along the scale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionResult:
    """Restriction of a map to a thinner strip, with compactness evidence.

    Coefficients are unchanged; what shrinks is the majorant weight, by the
    factor e^{-2 pi ||k||_1 (eps - delta)} per mode.  ``decay_factors`` lists
    that factor per l1-shell, and ``cauchy_factor`` is the max over shells of
    2 pi ||k||_1 e^{-2 pi ||k||_1 (eps-delta)}: it bounds beta_delta on the
    image of the nu_eps unit ball, which is the quantitative form of the
    restriction operator mapping bounded sets to BC^1-bounded sets.
    """

    map: FourierMap
    report: NormReport
    from_eps: float
    to_eps: float
    decay_factors: np.ndarray
    cauchy_factor: float


def restrict(f: FourierMap, from_eps: float, to_eps: float) -> RestrictionResult:
    if not 0 < to_eps < from_eps:
        raise ValueError("need 0 < delta < eps")
    gap = from_eps - to_eps
    shells = np.arange(f.order + 1)
    decay = np.exp(-TWO_PI * gap * shells)
    cauchy = cauchy_gain(from_eps, to_eps, f.order)
    return RestrictionResult(
        map=f,
        report=strip_norms(f, to_eps),
        from_eps=from_eps,
        to_eps=to_eps,
        decay_factors=decay,
        cauchy_factor=cauchy,
    )


def cauchy_gain(from_eps: float, to_eps: float, order: int) -> float:
    """max over lattice shells n <= order of 2 pi n e^{-2 pi n (eps - delta)}.

    Bounds mu_delta(f) <= gain * nu_eps(f) for every stored map of that
    order; the maximizer n* ~ 1/(2 pi (eps-delta)) is scanned over the
    integers up to the order.
    """
    gap = from_eps - to_eps
    n = np.arange(0, order + 1)
    vals = TWO_PI * n * np.exp(-TWO_PI * gap * n)
    return float(vals.max())


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

class JacobianField:
    """Matrix of partial derivatives of a FourierMap, entry (i, j) = d_i f / d x_j.

    Stored as the map's batch shape, its centered coefficient cube and the
    trailing axes (ncomp, m); it evaluates as the map does.
    """

    __slots__ = ("coeffs", "m", "order", "ncomp")

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.m = coeffs.shape[-1]
        self.order = coeffs.shape[-3] // 2
        self.ncomp = coeffs.shape[-2]

    def eval(self, z) -> np.ndarray:
        flat = self.coeffs.reshape(self.coeffs.shape[:-2] + (self.ncomp * self.m,))
        vals = _wrap(flat, self.m).eval(z)
        return vals.reshape(vals.shape[:-1] + (self.ncomp, self.m))

    def entry(self, i: int, j: int) -> FourierMap:
        return _wrap(self.coeffs[..., i, j][..., None], self.m)


def jacobian(f: FourierMap) -> JacobianField:
    """Entry (i, j) has coefficients 2 pi i k_j (c_k)_i, for every map of f."""
    k = TWO_PI * 1j * _k_axis(f.order)
    if f.m == 1:
        return JacobianField(f.coeffs[..., None] * k[:, None, None])
    return JacobianField(np.stack([f.coeffs * k[:, None, None],
                                   f.coeffs * k[:, None]], axis=-1))


def lattice_modes(order: int, m: int):
    """All lattice indices with ||k||_1 <= order, as tuples in index order."""
    return list(map(tuple, (np.argwhere(_k_l1(order, m) <= order)
                            - order).tolist()))
