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

Composition ``g(x + u(x))`` with a small real perturbation ``u`` is done
by an oversampled discrete Fourier transform on a real grid followed by
truncation back to order N; the discarded relative tail mass is checked
against a budget so aliasing stays far below solver tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iter_product

import numpy as np

from .errors import DomainEscape, RealityDefect, TruncationBudgetExceeded

TWO_PI = 2.0 * np.pi

#: oversampling factor for composition / product grids
OVERSAMPLE = 4
#: default budget for the relative spectral tail discarded by truncation
TOL_TRUNC = 1e-9
#: tolerance on reality defects (hermitian symmetry, imaginary residues)
TOL_REALITY = 1e-12


def _k_axis(order: int) -> np.ndarray:
    return np.arange(-order, order + 1)


def _k_l1(order: int, m: int) -> np.ndarray:
    """||k||_1 on the centered lattice cube, shape (2N+1,)*m."""
    k = np.abs(_k_axis(order))
    if m == 1:
        return k
    return k[:, None] + k[None, :]


@dataclass(frozen=True)
class NormReport:
    """Certified majorants of a map at one strip half-width."""

    eps: float
    nu: float
    mu: float
    beta: float
    tail_ratio: float

    def as_row(self):
        return (self.eps, self.nu, self.beta, self.tail_ratio)


@dataclass(frozen=True)
class StripScale:
    """Strictly decreasing ladder of strip half-widths."""

    halfwidths: tuple

    def __post_init__(self):
        hw = self.halfwidths
        if not hw or any(h <= 0 for h in hw):
            raise ValueError("strip half-widths must be positive")
        if any(a <= b for a, b in zip(hw, hw[1:])):
            raise ValueError("strip half-widths must be strictly decreasing")

    @classmethod
    def geometric(cls, top: float, levels: int, ratio: float = 0.5) -> "StripScale":
        return cls(tuple(top * ratio**j for j in range(levels)))

    def __len__(self):
        return len(self.halfwidths)

    def __getitem__(self, i):
        return self.halfwidths[i]


class FourierMap:
    """A truncated Fourier series C^m -> C^c with real symmetry.

    Parameters
    ----------
    coeffs : ndarray, shape (2N+1,)*m + (ncomp,)
        Centered coefficient cube; index i along a lattice axis holds the
        mode k = i - N.  Entries with ||k||_1 > N must vanish.
    check : bool
        Verify the reality constraint c_{-k} = conj(c_k) on construction.
    """

    __slots__ = ("coeffs", "m", "order", "ncomp")

    def __init__(self, coeffs: np.ndarray, check: bool = True):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim < 2:
            raise ValueError("coeffs must have a trailing component axis")
        m = coeffs.ndim - 1
        if m not in (1, 2):
            raise ValueError("domain dimension must be 1 or 2")
        size = coeffs.shape[0]
        if size % 2 != 1 or any(s != size for s in coeffs.shape[:-1]):
            raise ValueError("coefficient cube must be (2N+1,)*m")
        order = size // 2
        mask = _k_l1(order, m) > order
        if mask.any():
            coeffs = coeffs.copy()
            coeffs[mask] = 0.0
        self.coeffs = coeffs
        self.m = m
        self.order = order
        self.ncomp = coeffs.shape[-1]
        if check:
            defect = self.reality_defect()
            if defect > TOL_REALITY * max(1.0, float(np.abs(coeffs).max())):
                raise ValueError(f"reality constraint violated (defect {defect:.3e})")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int, m: int = 1, ncomp: int | None = None) -> "FourierMap":
        ncomp = m if ncomp is None else ncomp
        shape = (2 * order + 1,) * m + (ncomp,)
        return cls(np.zeros(shape, dtype=complex), check=False)

    @classmethod
    def constant(cls, value, order: int, m: int = 1) -> "FourierMap":
        value = np.atleast_1d(np.asarray(value, dtype=complex))
        f = cls.zero(order, m, ncomp=value.shape[0])
        center = (order,) * m
        f.coeffs[center] = value
        return cls(f.coeffs)

    @classmethod
    def from_modes(cls, modes: dict, order: int, m: int = 1,
                   ncomp: int | None = None, hermitize: bool = True) -> "FourierMap":
        """Build from {k: value} entries; k is an int (m=1) or tuple.

        With ``hermitize`` the conjugate modes are filled in automatically,
        so passing only k with positive leading entry yields a real map.
        """
        ncomp = m if ncomp is None else ncomp
        f = cls.zero(order, m, ncomp=ncomp)
        for k, val in modes.items():
            kk = (k,) if np.isscalar(k) else tuple(k)
            idx = tuple(ki + order for ki in kk)
            f.coeffs[idx] = np.asarray(val, dtype=complex)
            if hermitize:
                nidx = tuple(-ki + order for ki in kk)
                f.coeffs[nidx] = np.conj(np.asarray(val, dtype=complex))
        return cls(f.coeffs)

    # -- bookkeeping ----------------------------------------------------

    def _flipped(self) -> np.ndarray:
        sl = (slice(None, None, -1),) * self.m + (slice(None),)
        return self.coeffs[sl]

    def reality_defect(self) -> float:
        return float(np.abs(self._flipped() - np.conj(self.coeffs)).max())

    def hermitized(self) -> "FourierMap":
        sym = 0.5 * (self.coeffs + np.conj(self._flipped()))
        return FourierMap(sym, check=False)

    def copy(self) -> "FourierMap":
        return FourierMap(self.coeffs.copy(), check=False)

    def mode(self, k) -> np.ndarray:
        kk = (k,) if np.isscalar(k) else tuple(k)
        return self.coeffs[tuple(ki + self.order for ki in kk)]

    def constant_part(self) -> np.ndarray:
        return self.coeffs[(self.order,) * self.m]

    def with_order(self, order: int) -> "FourierMap":
        """Re-embed (or truncate) into the centered cube of another order."""
        if order == self.order:
            return self
        out = FourierMap.zero(order, self.m, self.ncomp)
        off = abs(order - self.order)
        if order > self.order:
            sl = tuple(slice(off, off + 2 * self.order + 1) for _ in range(self.m))
            out.coeffs[sl + (slice(None),)] = self.coeffs
        else:
            sl = tuple(slice(off, off + 2 * order + 1) for _ in range(self.m))
            out.coeffs[...] = self.coeffs[sl + (slice(None),)]
        return FourierMap(out.coeffs, check=False)

    # -- linear structure -----------------------------------------------

    def __add__(self, other: "FourierMap") -> "FourierMap":
        a, b = _common_order(self, other)
        return FourierMap(a.coeffs + b.coeffs, check=False)

    def __sub__(self, other: "FourierMap") -> "FourierMap":
        a, b = _common_order(self, other)
        return FourierMap(a.coeffs - b.coeffs, check=False)

    def __mul__(self, scalar) -> "FourierMap":
        return FourierMap(self.coeffs * float(scalar), check=False)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierMap":
        return FourierMap(-self.coeffs, check=False)

    # -- evaluation -----------------------------------------------------

    def eval(self, z) -> np.ndarray:
        """Evaluate at complex points; z has shape (..., m) (or scalar, m=1)."""
        z = np.asarray(z, dtype=complex)
        scalar_in = False
        if self.m == 1 and (z.ndim == 0 or z.shape[-1] != 1):
            z = z.reshape(z.shape + (1,))
            scalar_in = True
        lead = z.shape[:-1]
        pts = z.reshape(-1, self.m)
        if self.m == 1:
            vals = _eval_series_1d(self.coeffs, pts[:, 0])
        else:
            vals = _eval_series_2d(self.coeffs, pts)
        vals = vals.reshape(lead + (self.ncomp,))
        if scalar_in and self.ncomp == 1:
            return vals[..., 0]
        return vals

    def eval_real(self, x) -> np.ndarray:
        """Evaluate at real points and return the real part.

        The imaginary residue is a reality defect and must stay below
        TOL_REALITY relative to the map size.
        """
        vals = self.eval(np.asarray(x, dtype=float).astype(complex))
        resid = float(np.abs(vals.imag).max()) if vals.size else 0.0
        scale = max(1.0, float(np.abs(vals.real).max())) if vals.size else 1.0
        if resid > 1e-10 * scale:
            raise RealityDefect(f"imaginary residue {resid:.3e} at real points")
        return vals.real

    def sample_grid(self, grid_size: int) -> np.ndarray:
        """Values on the uniform real grid (j/M)_j via zero-padded FFT."""
        M = grid_size
        if M < 2 * self.order + 1:
            raise ValueError("grid too small for the stored spectrum")
        k = _k_axis(self.order)
        if self.m == 1:
            dense = np.zeros((M, self.ncomp), dtype=complex)
            dense[k % M] = self.coeffs
            return M * np.fft.ifft(dense, axis=0)
        dense = np.zeros((M, M, self.ncomp), dtype=complex)
        ix = k % M
        dense[np.ix_(ix, ix)] = self.coeffs
        return (M * M) * np.fft.ifft2(dense, axes=(0, 1))

    # -- norms ------------------------------------------------------------

    def norms(self, eps: float) -> NormReport:
        return strip_norms(self, eps)

    def nu(self, eps: float) -> float:
        return strip_norms(self, eps).nu

    def beta(self, eps: float) -> float:
        return strip_norms(self, eps).beta


def _common_order(a: FourierMap, b: FourierMap):
    if a.m != b.m or a.ncomp != b.ncomp:
        raise ValueError("incompatible maps")
    n = max(a.order, b.order)
    return a.with_order(n), b.with_order(n)


def _eval_series_1d(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c_k e^{2 pi i k z} via unit-circle powers (one exp per point).

    Powers of w = e^{2 pi i z} are built multiplicatively (np.vander), which
    is a few ulp per power; the single-exp cost replaces a full (P, 2N+1)
    exponential matrix on the hot inversion/quadrature paths.
    """
    order = coeffs.shape[0] // 2
    w = np.exp(TWO_PI * 1j * z)
    V = np.vander(w, coeffs.shape[0], increasing=True)
    vals = V @ coeffs
    return vals * np.exp(-TWO_PI * 1j * order * z)[:, None]


def _eval_series_2d(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Two-stage contraction over the lattice axes with vander powers."""
    n = coeffs.shape[0]
    order = n // 2
    w1 = np.exp(TWO_PI * 1j * pts[:, 0])
    w2 = np.exp(TWO_PI * 1j * pts[:, 1])
    V1 = np.vander(w1, n, increasing=True)
    V2 = np.vander(w2, n, increasing=True)
    inner = np.tensordot(V2, coeffs, axes=([1], [1]))      # (P, n, ncomp)
    vals = np.einsum("pa,pac->pc", V1, inner)
    phase = np.exp(-TWO_PI * 1j * order * (pts[:, 0] + pts[:, 1]))
    return vals * phase[:, None]


# ---------------------------------------------------------------------------
# majorant norms
# ---------------------------------------------------------------------------

def strip_norms(f: FourierMap, eps: float) -> NormReport:
    """Certified majorants nu, mu, beta of ``f`` on the strip of half-width eps.

    ``tail_ratio`` is the fraction of the nu-weight carried by modes with
    ||k||_1 > N/2; it certifies that the stored truncation order is generous
    for this map at this scale.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    l1 = _k_l1(f.order, f.m)
    w = np.exp(TWO_PI * eps * l1)
    absc = np.abs(f.coeffs)
    amp = absc.max(axis=-1)
    nu = float((amp * w).sum())
    mu = float((absc * (TWO_PI * l1 * w)[..., None]).sum(axis=tuple(range(f.m))).max())
    total = (amp * w).sum()
    if total > 0:
        tail = (amp * w)[l1 > f.order / 2].sum()
        tail_ratio = float(tail / total)
    else:
        tail_ratio = 0.0
    return NormReport(eps=eps, nu=nu, mu=mu, beta=max(nu, mu), tail_ratio=tail_ratio)


def nu_per_component(f: FourierMap, eps: float) -> np.ndarray:
    """Component-wise sup-majorants sum_k |c_{k,i}| e^{2 pi ||k||_1 eps}."""
    l1 = _k_l1(f.order, f.m)
    w = np.exp(TWO_PI * eps * l1)
    return (np.abs(f.coeffs) * w[..., None]).sum(axis=tuple(range(f.m)))


def imag_reach(u: FourierMap, eps_in: float) -> float:
    """Certified bound on ||Im(z + u(z))||_inf over the strip ||Im z|| <= eps_in.

    Two valid majorant bounds are combined: the oscillating sup bound
    nu(u - u_0) (the real constant part cannot move the strip) and the
    mean-value bound eps_in * mu(u); the smaller one is used.
    """
    rep = strip_norms(u, eps_in)
    osc = u.coeffs.copy()
    osc[(u.order,) * u.m] = 0.0
    nu_osc = strip_norms(FourierMap(osc, check=False), eps_in).nu
    return eps_in + min(nu_osc, eps_in * rep.mu)


# ---------------------------------------------------------------------------
# composition with a near-identity perturbation
# ---------------------------------------------------------------------------

def _grid_points(M: int, m: int) -> np.ndarray:
    x = np.arange(M) / M
    if m == 1:
        return x.reshape(-1, 1)
    g1, g2 = np.meshgrid(x, x, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=-1)


def fit_grid(values: np.ndarray, order: int, m: int,
             tol_trunc: float = TOL_TRUNC, context: str = "fit",
             hermitize: bool = True) -> FourierMap:
    """Fourier-fit values sampled on the uniform real grid, truncating to order.

    Raises TruncationBudgetExceeded when the relative l1 mass of the modes
    discarded by the truncation exceeds ``tol_trunc``.  ``hermitize``
    symmetrizes the result (valid for real maps only; basis exponentials
    and other complex-valued samples must skip it).
    """
    if m == 1:
        M = values.shape[0]
        spec = np.fft.fft(values, axis=0) / M
        kfull = np.fft.fftfreq(M, d=1.0 / M).astype(int)
        l1 = np.abs(kfull)
        amp = np.abs(spec).max(axis=-1)
        total = amp.sum()
        tail = amp[l1 > order].sum()
        k = _k_axis(order)
        kept = spec[k % M]
    else:
        M = values.shape[0]
        spec = np.fft.fft2(values, axes=(0, 1)) / (M * M)
        kfull = np.fft.fftfreq(M, d=1.0 / M).astype(int)
        l1 = np.abs(kfull)[:, None] + np.abs(kfull)[None, :]
        amp = np.abs(spec).max(axis=-1)
        total = amp.sum()
        tail = amp[l1 > order].sum()
        ix = _k_axis(order) % M
        kept = spec[np.ix_(ix, ix)]
    ratio = float(tail / total) if total > 0 else 0.0
    if ratio > tol_trunc:
        raise TruncationBudgetExceeded(
            f"{context}: discarded tail ratio {ratio:.3e} > {tol_trunc:.1e}")
    out = FourierMap(kept, check=False)
    return out.hermitized() if hermitize else out


def compose(g: FourierMap, perturb: FourierMap, *,
            order: int | None = None,
            oversample: int = OVERSAMPLE,
            tol_trunc: float = TOL_TRUNC,
            outer_scale: float | None = None,
            inner_scale: float | None = None) -> FourierMap:
    """Truncated expansion of x -> g(x + perturb(x)).

    When ``outer_scale``/``inner_scale`` are given, the certified imaginary
    reach of ``id + perturb`` from the inner strip must stay inside the
    outer strip where the majorants of ``g`` are quoted; otherwise
    DomainEscape is raised.
    """
    if perturb.ncomp != g.m or perturb.m != g.m:
        raise ValueError("perturbation must be a self-map displacement")
    if outer_scale is not None:
        eps_in = inner_scale if inner_scale is not None else outer_scale / 2.0
        reach = imag_reach(perturb, eps_in)
        if reach > outer_scale * (1 + 1e-12):
            raise DomainEscape(
                f"imaginary reach {reach:.6g} exceeds outer strip {outer_scale:.6g}")
    n_out = g.order if order is None else order
    M = oversample * (2 * n_out + 1)
    pts = _grid_points(M, g.m)
    u_vals = perturb.with_order(min(perturb.order, n_out)).sample_grid(M)
    u_vals = u_vals.reshape(pts.shape[0], g.m)
    resid = float(np.abs(u_vals.imag).max()) if u_vals.size else 0.0
    if resid > 1e-9 * max(1.0, float(np.abs(u_vals.real).max())):
        raise RealityDefect("perturbation is not real on the real grid")
    args = pts + u_vals.real
    vals = g.eval(args.astype(complex))
    shape = (M,) * g.m + (g.ncomp,)
    return fit_grid(vals.reshape(shape), n_out, g.m, tol_trunc, context="compose")


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
    fv = f.sample_grid(M)
    gv = g.sample_grid(M)
    vals = fv * gv
    n_out = max(f.order, g.order) if order is None else order
    ncomp = max(f.ncomp, g.ncomp)
    shape = (M,) * f.m + (ncomp,)
    return fit_grid(vals.reshape(shape), n_out, f.m, tol_trunc, context="product")


def multiply_exact(f: FourierMap, g: FourierMap) -> FourierMap:
    """Exact product, kept at the full order N1+N2 (no truncation)."""
    if f.m != 1 or g.m != 1 or f.ncomp != 1 or g.ncomp != 1:
        return multiply(f, g, order=f.order + g.order, tol_trunc=np.inf)
    c = np.convolve(f.coeffs[:, 0], g.coeffs[:, 0])
    return FourierMap(c[:, None], check=False)


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


def cauchy_gain(from_eps: float, to_eps: float, order: int | None = None) -> float:
    """max over lattice shells of 2 pi n e^{-2 pi n (eps - delta)}.

    Bounds mu_delta(f) <= gain * nu_eps(f) for every stored map; the
    maximizer n* ~ 1/(2 pi (eps-delta)) is scanned over integers (and the
    continuous bound is returned if the truncation order cuts it off).
    """
    gap = from_eps - to_eps
    n_star = 1.0 / (TWO_PI * gap)
    top = int(np.ceil(n_star)) + 2 if order is None else order
    n = np.arange(0, top + 1)
    vals = TWO_PI * n * np.exp(-TWO_PI * gap * n)
    return float(vals.max())


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

class JacobianField:
    """Matrix of partial derivatives of a FourierMap, entry (i, j) = d_i f / d x_j.

    Stored as one centered coefficient cube with trailing axes (ncomp, m).
    """

    __slots__ = ("coeffs", "m", "order", "ncomp")

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self.m = coeffs.ndim - 2
        self.order = coeffs.shape[0] // 2
        self.ncomp = coeffs.shape[-2]

    def eval(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        lead = z.shape[:-1]
        pts = z.reshape(-1, self.m)
        flat = self.coeffs.reshape(self.coeffs.shape[:-2] + (self.ncomp * self.m,))
        if self.m == 1:
            vals = _eval_series_1d(flat, pts[:, 0])
        else:
            vals = _eval_series_2d(flat, pts)
        return vals.reshape(lead + (self.ncomp, self.m))

    def entry(self, i: int, j: int) -> FourierMap:
        return FourierMap(self.coeffs[..., i, j][..., None], check=False)

    def mu(self, eps: float) -> float:
        """Majorant of the strip sup of the inf-operator norm."""
        l1 = _k_l1(self.order, self.m)
        w = np.exp(TWO_PI * eps * l1)
        per_row = (np.abs(self.coeffs) * w[..., None, None]).sum(
            axis=tuple(range(self.m)) + (-1,))
        return float(per_row.max())


def jacobian(f: FourierMap) -> JacobianField:
    """Entry (i, j) has coefficients 2 pi i k_j (c_k)_i."""
    k = _k_axis(f.order)
    if f.m == 1:
        coeffs = f.coeffs[..., None] * (TWO_PI * 1j * k)[:, None, None]
    else:
        coeffs = np.empty(f.coeffs.shape + (f.m,), dtype=complex)
        coeffs[..., 0] = f.coeffs * (TWO_PI * 1j * k)[:, None, None]
        coeffs[..., 1] = f.coeffs * (TWO_PI * 1j * k)[None, :, None]
    return JacobianField(coeffs)


def strip_sample_points(order: int, m: int, eps: float,
                        n_real: int = 64, n_imag: int = 8,
                        rng: np.random.Generator | None = None) -> np.ndarray:
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


def lattice_modes(order: int, m: int):
    """All lattice indices with ||k||_1 <= order, as tuples."""
    if m == 1:
        return [(k,) for k in range(-order, order + 1)]
    out = []
    for k1, k2 in _iter_product(range(-order, order + 1), repeat=2):
        if abs(k1) + abs(k2) <= order:
            out.append((k1, k2))
    return out
