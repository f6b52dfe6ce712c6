"""Nested-ball harness on the strip scale: continuity and Cauchy estimates.

The scale of strip spaces is filtered by levels n = 1, 2, ...: level n
carries the seminorm q_n = nu_{eps_n} with eps_1 > eps_2 > ... (thinner
strips mean weaker norms, so the q_n-balls U_n of radii r_1 <= r_2 <= ...
grow along the scale).  For a map f that is Lipschitz on each U_n with a
per-level constant, the telescoping construction

    y = z_1 + ... + z_n,   z_k drawn from B^{q'_k}_{eps 2^{-k}}(0) ∩ 2^{-k} U_k

(with q'_k the Lipschitz-weighted seminorm of level k) keeps every partial
sum inside U_k by convexity and forces

    p(f(y) - f(0))  <=  sum_k p(f(y_k) - f(y_{k-1}))  <=  sum_k q'_k(z_k)
                    <   sum_k eps 2^{-k}  <  eps,

each link of which is asserted per sample.  Separately, for an analytic
map bounded on U_n, the derivative obeys the Cauchy estimate

    p(df(v, w))  <=  M_{n,p} q_n(w),     M_{n,p} = sup p(f(U_n)),

with q_n the Minkowski functional of U_n/3 and v ranging over U_n/3, and
f is Lipschitz on the third-ball with the same constant; both ratios are
swept with finite-difference derivatives.

The sweeps draw blocks of samples into arrays (samples, levels, 2N+1) and
check every link by array reductions over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Check, EmptyLevel
from .fourier import FourierMap, majorants, node_chunks, strip_norms

#: slack over 1 for the Cauchy / third-ball ratio contracts
CAUCHY_SLACK = 1e-3
#: a random ball map carries the modes |k| <= MAX_MODE
MAX_MODE = 6


@dataclass(frozen=True)
class ScaleLevel:
    """One level of the nested scale: seminorm nu_eps, ball radius r."""

    index: int
    eps: float
    order: int
    radius: float

    def q(self, f: FourierMap) -> float:
        return strip_norms(f, self.eps).nu


def make_levels(eps_top: float, radii, order: int) -> list:
    """Geometric ladder of levels, each half-width half the one before;
    radii must be nondecreasing."""
    radii = list(radii)
    if any(a > b for a, b in zip(radii, radii[1:])):
        raise ValueError("ball radii must be nondecreasing along the scale")
    return [ScaleLevel(index=n + 1, eps=eps_top * 0.5**n, order=order,
                       radius=float(r)) for n, r in enumerate(radii)]


@dataclass(frozen=True)
class LevelLipschitzCert:
    """p(f(x) - f(y)) <= constant * q_n(x - y) on U_n, with its derivation."""

    level: int
    constant: float
    derivation: str


# ---------------------------------------------------------------------------
# concrete maps on the scale
# ---------------------------------------------------------------------------

class ScaleMap:
    """A map of the scale: ``apply`` maps the scalar maps on T^1 stacked in
    an array (..., 2N+1) to their images; ``lipschitz_certs`` (one per level)
    and ``sup_bound(level, p_eps)`` (sup of p on U_n) certify it."""


class LinearScaleMap(ScaleMap):
    """Coefficient multiplier (lambda_k), |lambda_k| <= 1; norm-nonexpanding."""

    def __init__(self, multipliers: np.ndarray):
        if np.abs(multipliers).max() > 1 + 1e-15:
            raise ValueError("multipliers must be bounded by 1")
        self.multipliers = np.asarray(multipliers, dtype=complex)

    def apply(self, c):
        half = (len(self.multipliers) - c.shape[-1]) // 2
        return c * self.multipliers[half:half + c.shape[-1]]

    def lipschitz_certs(self, levels, p_eps):
        why = "diagonal multiplier bounded by 1; p <= q_n since eps_p <= eps_n"
        return [LevelLipschitzCert(lv.index, 1.0, why) for lv in levels]

    def sup_bound(self, level, p_eps):
        return level.radius


class PointwiseSquareMap(ScaleMap):
    """u -> u*u (exact convolution); Lipschitz by nu-submultiplicativity.

    p(x^2 - y^2) = p((x+y)(x-y)) <= nu_p(x+y) nu_p(x-y) <= 2 r_n q_n(x-y)
    on the q_n-ball of radius r_n, since nu_p <= q_n for p at a thinner
    strip.
    """

    def apply(self, c):
        """Exact squares, order 2N: one shifted product per occupied mode,
        against the band lo..hi of the occupied modes alone (the products
        outside it are zero)."""
        n = c.shape[-1]
        out = np.zeros(c.shape[:-1] + (2 * n - 1,), dtype=complex)
        occupied = np.flatnonzero(c.reshape(-1, n).any(axis=0))
        if not len(occupied):
            return out
        lo, hi = occupied[0], occupied[-1] + 1
        band = c[..., lo:hi]
        for i in occupied:
            out[..., i + lo:i + hi] += c[..., i:i + 1] * band
        return out

    def lipschitz_certs(self, levels, p_eps):
        if any(p_eps > lv.eps + 1e-15 for lv in levels):
            raise ValueError("target seminorm must sit at a thinner strip")
        return [LevelLipschitzCert(
            lv.index, 2.0 * lv.radius,
            f"nu submultiplicative: factor 2 r_{lv.index} = {2 * lv.radius}")
            for lv in levels]

    def sup_bound(self, level, p_eps):
        return level.radius**2


def _ball_maps(rng, count: int, order: int, bounds, eps, scale):
    """Blocks (n, len(bounds), 2N+1) of ``count`` draws of real maps on T^1.
    Per map, in stream order: t = rng.uniform(*bounds[j]), then 2 MAX_MODE
    + 1 normals d; modes (d_{2k-2} + i d_{2k-1}) e^{-0.7 k}, k <= MAX_MODE,
    constant d_{2 MAX_MODE}, scaled to nu_eps = t * scale[0] / scale[1]."""
    for block in node_chunks(count, len(bounds) * (2 * order + 1)):
        n = len(range(count)[block])
        u = np.empty((n, len(bounds)))
        d = np.empty((n, len(bounds), 2 * MAX_MODE + 1))
        for s in range(n):
            for j, (low, high) in enumerate(bounds):
                u[s, j] = rng.uniform(low, high)
                d[s, j] = rng.normal(size=2 * MAX_MODE + 1)
        v = (d[..., 0:-1:2] + 1j * d[..., 1:-1:2]) * np.exp(
            -0.7 * np.arange(1, MAX_MODE + 1))
        c = np.zeros(d.shape[:-1] + (2 * order + 1,), dtype=complex)
        c[..., order + 1:order + MAX_MODE + 1] = v
        c[..., order - MAX_MODE:order] = np.conj(v[..., ::-1])
        c[..., order] = d[..., -1]
        nu = majorants(c[..., None], 1, eps)[0]
        c[nu == 0, order] = 1.0
        nu[nu == 0] = 1.0
        yield c * (u * scale[0] / scale[1] / nu)[..., None]


# ---------------------------------------------------------------------------
# the telescoping neighbourhood
# ---------------------------------------------------------------------------

def _telescoping(levels, certs, eps_target: float, rng, count):
    """Blocks of ``count`` telescoping draws, one part per level: parts z_k
    (n, levels, 2N+1) and q_k(z_k) (n, levels)."""
    if len(certs) != len(levels):
        raise ValueError("need one Lipschitz certificate per level")
    caps = []
    for lv, cert in zip(levels, certs):
        lip_cap = (eps_target * 2.0**-lv.index / cert.constant
                   if cert.constant > 0 else np.inf)
        caps.append(min(lip_cap, 2.0**-lv.index * lv.radius))
        if not caps[-1] > 0:
            raise EmptyLevel(f"level {lv.index} has an empty intersection")
    eps = [lv.eps for lv in levels]
    for parts in _ball_maps(rng, count, levels[0].order,
                            [(0.05, 0.99)] * len(levels), eps,
                            (np.array(caps), 1.0)):
        yield parts, majorants(parts[..., None], 1, eps)[0]


@dataclass
class ContinuityReport:
    rows: list        # (sample, depth, telescoped, observed, ok)
    eps_target: float
    violations: int

    @property
    def check(self) -> Check:
        return Check("continuity_violations", self.violations, 0)


def verify_continuity_estimate(f: ScaleMap, levels, certs, p_eps: float,
                               eps_target: float, count: int,
                               rng: np.random.Generator) -> ContinuityReport:
    """Sweep telescoping samples and assert every link of the chain.

    Per sample: membership q_j(y_j) < r_j for every level, the per-level
    Lipschitz link p(f(y_k) - f(y_{k-1})) <= L_k q_k(z_k), the telescoped
    sum below sum_k eps 2^{-k}, and the headline p(f(y) - f(0)) < eps.
    """
    depth = len(levels)
    link_caps = eps_target * 2.0**-np.array([lv.index for lv in levels])
    rows = []
    for parts, q in _telescoping(levels, certs, eps_target, rng, count):
        n = len(parts)
        sums = np.cumsum(np.pad(parts, ((0, 0), (1, 0), (0, 0))), axis=1)
        images = f.apply(sums)          # f(y_0 = 0), f(y_1), ..., f(y)
        steps = majorants(np.diff(images, axis=1)[..., None], 1, p_eps)[0]
        telescoped = np.cumsum(steps, axis=1)[:, -1]
        observed = majorants((images[:, -1] - images[:, 0])[..., None], 1,
                             p_eps)[0]
        link = np.array([cert.constant for cert in certs]) * q
        bad = ((majorants(sums[:, 1:, :, None], 1, [lv.eps for lv in levels])[0]
                >= [lv.radius for lv in levels]).any(axis=1)
               | (steps > link * (1 + 1e-9) + 1e-15).any(axis=1)
               | (link > link_caps * (1 + 1e-9)).any(axis=1)
               | (observed > telescoped * (1 + 1e-9) + 1e-15)
               | (observed >= eps_target))
        rows += zip(range(len(rows), len(rows) + n), [depth] * n,
                    telescoped.tolist(), observed.tolist(), (~bad).tolist())
    return ContinuityReport(rows=rows, eps_target=eps_target,
                            violations=sum(not r[4] for r in rows))


# ---------------------------------------------------------------------------
# Cauchy estimate and third-ball Lipschitz sweeps
# ---------------------------------------------------------------------------

@dataclass
class RatioSweep:
    name: str
    ratios: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max()) if self.ratios.size else 0.0

    @property
    def check(self) -> Check:
        return Check(self.name, self.max_ratio, 1.0 + CAUCHY_SLACK)


def cauchy_bound_check(f: ScaleMap, level: ScaleLevel, p_eps: float,
                       n_samples: int, rng: np.random.Generator,
                       fd_step: float = 1e-5) -> RatioSweep:
    """max over samples of p(df(v, w)) / (M_{n,p} q_n(w)), v in U_n/3.

    df(v, w) is the central complex finite difference of f at v along w.
    """
    M = f.sup_bound(level, p_eps)
    ratios = [np.empty(0)]
    for c in _ball_maps(rng, n_samples, level.order,
                        [(0.02, 0.99), (0.05, 2.0)], level.eps,
                        (np.array([level.radius, 1.0]), np.array([3.0, 1.0]))):
        v, w = c[:, 0], c[:, 1]
        df = (f.apply(v + fd_step * w)
              - f.apply(v + (-fd_step) * w)) * (1.0 / (2 * fd_step))
        num = majorants(df[..., None], 1, p_eps)[0]
        q_w = majorants(w[..., None], 1, level.eps)[0]
        ratios.append(num / (M * (3.0 * q_w / level.radius)))
    return RatioSweep("cauchy_ratio", np.concatenate(ratios))


def third_ball_lipschitz(f: ScaleMap, level: ScaleLevel, p_eps: float,
                         n_samples: int, rng: np.random.Generator) -> RatioSweep:
    """max over pairs in U_n/3 of p(f(w) - f(v)) / (M_{n,p} q_n(w - v))."""
    M = f.sup_bound(level, p_eps)
    ratios = [np.empty(0)]
    for c in _ball_maps(rng, n_samples, level.order, [(0.02, 0.99)] * 2,
                        level.eps, (level.radius, 3.0)):
        v, w = c[:, 0], c[:, 1]
        num = majorants((f.apply(w) - f.apply(v))[..., None], 1, p_eps)[0]
        q_wv = majorants((w - v)[..., None], 1, level.eps)[0]
        den = M * 3.0 * q_wv / level.radius
        ratios.append(num[den > 0] / den[den > 0])
    return RatioSweep("third_ball_ratio", np.concatenate(ratios))
