"""Per-sample reference harness: one FourierMap per ball draw, one map at a time.

This is the direct form of the nested-ball harness that the package now
runs batched over blocks of samples.  It is kept as a differential oracle:
the batched harness must reproduce its draws, verdicts and ratios to
rounding.  The maps are applied by their per-map rules (``_apply``), which
are the FourierMap forms of the batched ``ScaleMap.apply``.
``square_apply`` is the batched square before it kept to the occupied band.
"""

from dataclasses import dataclass

import numpy as np

from torusflow.errors import EmptyLevel
from torusflow.fourier import FourierMap, strip_norms
from torusflow.limits import (ContinuityReport, LinearScaleMap,
                              PointwiseSquareMap, RatioSweep)

from _readings import ConstantScaleMap


@dataclass
class NeighborhoodSample:
    """One telescoping draw with its per-level bookkeeping."""

    parts: list          # z_k
    partial_sums: list   # y_0 = 0, y_1, ..., y_n
    q_values: list       # q_k(z_k)
    caps: list           # eps 2^{-k} after Lipschitz weighting

    @property
    def point(self) -> FourierMap:
        return self.partial_sums[-1]


def _apply(f, u: FourierMap) -> FourierMap:
    """f(u) for the three scale maps, one FourierMap at a time."""
    if isinstance(f, PointwiseSquareMap):   # the exact product, order 2N
        return FourierMap(np.convolve(u.coeffs[:, 0], u.coeffs[:, 0])[:, None],
                          check=False)
    if isinstance(f, LinearScaleMap):
        mult = f.multipliers
        if mult.shape[0] != u.coeffs.shape[0]:
            half = (mult.shape[0] - u.coeffs.shape[0]) // 2
            mult = mult[half:half + u.coeffs.shape[0]]
        return FourierMap(u.coeffs * mult[..., None], check=False)
    if isinstance(f, ConstantScaleMap):
        return f.value
    raise TypeError(f"no reference rule for {type(f).__name__}")


def square_apply(c):
    """``PointwiseSquareMap.apply`` with each occupied mode against the
    whole row."""
    n = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (2 * n - 1,), dtype=complex)
    for i in np.flatnonzero(c.reshape(-1, n).any(axis=0)):
        out[..., i:i + n] += c[..., i:i + 1] * c
    return out


def _random_ball_map(rng, order: int, eps: float, nu_target: float,
                     max_mode: int = 6) -> FourierMap:
    f = FourierMap.zero(order, 1, 1)
    for k in range(1, max_mode + 1):
        v = (rng.normal() + 1j * rng.normal()) * np.exp(-0.7 * k)
        f.coeffs[order + k, 0] = v
        f.coeffs[order - k, 0] = np.conj(v)
    f.coeffs[order, 0] = rng.normal()
    f = FourierMap(f.coeffs, check=False)
    nu = strip_norms(f, eps).nu
    if nu == 0:
        f.coeffs[order, 0] = 1.0
        nu = 1.0
    return (nu_target / nu) * f


def build_neighborhood(levels, certs, eps_target, rng, depth=None):
    if len(certs) != len(levels):
        raise ValueError("need one Lipschitz certificate per level")
    depth = len(levels) if depth is None else depth
    caps = []
    for lv, cert in zip(levels[:depth], certs[:depth]):
        lip_cap = (eps_target * 2.0**-lv.index / cert.constant
                   if cert.constant > 0 else np.inf)
        ball_cap = 2.0**-lv.index * lv.radius
        cap = min(lip_cap, ball_cap)
        if not cap > 0:
            raise EmptyLevel(f"level {lv.index} has an empty intersection")
        caps.append(cap)
    while True:
        parts, sums, qs = [], [FourierMap.zero(levels[0].order, 1, 1)], []
        for lv, cap in zip(levels[:depth], caps):
            z = _random_ball_map(rng, lv.order, lv.eps,
                                 cap * rng.uniform(0.05, 0.99))
            parts.append(z)
            sums.append(sums[-1] + z)
            qs.append(lv.q(z))
        yield NeighborhoodSample(parts=parts, partial_sums=sums, q_values=qs,
                                 caps=[eps_target * 2.0**-lv.index
                                       for lv in levels[:depth]])


def verify_continuity_estimate(f, levels, certs, p_eps, eps_target, count,
                               rng):
    gen = build_neighborhood(levels, certs, eps_target, rng)
    f0 = _apply(f, FourierMap.zero(levels[0].order, 1, 1))
    rows = []
    violations = 0
    for i in range(count):
        sample = next(gen)
        ok = True
        for j, lv in enumerate(levels[:len(sample.parts)], start=1):
            if lv.q(sample.partial_sums[j]) >= lv.radius:
                ok = False
        telescoped = 0.0
        for k, (lv, cert) in enumerate(list(zip(levels, certs))[:len(sample.parts)]):
            step = strip_norms(_apply(f, sample.partial_sums[k + 1])
                               - _apply(f, sample.partial_sums[k]), p_eps).nu
            link_bound = cert.constant * sample.q_values[k]
            if step > link_bound * (1 + 1e-9) + 1e-15:
                ok = False
            if link_bound > sample.caps[k] * (1 + 1e-9):
                ok = False
            telescoped += step
        observed = strip_norms(_apply(f, sample.point) - f0, p_eps).nu
        if observed > telescoped * (1 + 1e-9) + 1e-15:
            ok = False
        if observed >= eps_target:
            ok = False
        if not ok:
            violations += 1
        rows.append((i, len(sample.parts), telescoped, observed, ok))
    return ContinuityReport(rows=rows, eps_target=eps_target,
                            violations=violations)


def _fd_directional(f, v, w, step=1e-5):
    up = _apply(f, v + step * w)
    dn = _apply(f, v + (-step) * w)
    return (1.0 / (2 * step)) * (up - dn)


def cauchy_bound_check(f, level, p_eps, n_samples, rng, fd_step=1e-5):
    M = f.sup_bound(level, p_eps)
    ratios = []
    for _ in range(n_samples):
        v = _random_ball_map(rng, level.order, level.eps,
                             rng.uniform(0.02, 0.99) * level.radius / 3.0)
        w = _random_ball_map(rng, level.order, level.eps,
                             rng.uniform(0.05, 2.0))
        df = _fd_directional(f, v, w, fd_step)
        minkowski = 3.0 * level.q(w) / level.radius
        ratios.append(strip_norms(df, p_eps).nu / (M * minkowski))
    return RatioSweep("cauchy_ratio", np.array(ratios))


def third_ball_lipschitz(f, level, p_eps, n_samples, rng):
    M = f.sup_bound(level, p_eps)
    ratios = []
    for _ in range(n_samples):
        v = _random_ball_map(rng, level.order, level.eps,
                             rng.uniform(0.02, 0.99) * level.radius / 3.0)
        w = _random_ball_map(rng, level.order, level.eps,
                             rng.uniform(0.02, 0.99) * level.radius / 3.0)
        num = strip_norms(_apply(f, w) - _apply(f, v), p_eps).nu
        den = M * 3.0 * level.q(w - v) / level.radius
        if den > 0:
            ratios.append(num / den)
    return RatioSweep("third_ball_ratio", np.array(ratios))
