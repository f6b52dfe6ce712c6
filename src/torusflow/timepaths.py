"""Time-grid representations of vector-field paths and their primitives.

A time-dependent field is a map t -> FourierMap on [0, 1], stored as a
rational breakpoint grid with one polynomial piece per interval: on
[t_j, t_{j+1}] the field is sum_d c_{j,d} tau^d with FourierMap-valued
coefficients and the local variable tau = (t - t_j) / (t_{j+1} - t_j),
degree <= 3.  Such step/polynomial representatives are dense in L^p and
make every time integral closed-form.  The pieces form one array
(J, D + 1) + (2N+1,)*m + (ncomp,), as ``FlowPath.pieces`` do (D the
highest degree, lower-degree pieces zero-padded), so every operation on a
field is an array expression over its pieces.

Absolutely continuous paths are primitives of such fields: snapshots at
the breakpoints plus the derivative field, with the integral identity
re-verifiable to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DomainEscape, ScaleMismatch
from .fourier import (FourierMap, MapStack, _wrap, compose, fit_sampled,
                      imag_reach, jacobian, majorants)

#: relative tolerance for the ACPath self-verification (closed-form integrals)
TOL_INT = 1e-12
#: tolerance for re-verifying the integral identity after a chain-rule step
TOL_CHAIN = 1e-8
#: maximum degree of a field piece
MAX_DEGREE = 3
#: the grid policy halves no interval below this step
STEP_FLOOR = 1 / 64

# 4-point Gauss-Legendre nodes/weights on [0, 1]: exact for degree <= 7
GAUSS_NODES = 0.5 + 0.5 * np.array([-0.8611363115940526, -0.3399810435848563,
                                    0.3399810435848563, 0.8611363115940526])
_GL4_W = 0.5 * np.array([0.34785484513745385, 0.6521451548625461,
                         0.6521451548625461, 0.34785484513745385])

# Chebyshev-like fitting nodes in (0,1); strictly interior so piecewise
# fields may be discontinuous at breakpoints
FIT_NODES = 0.5 - 0.5 * np.cos(np.pi * (2 * np.arange(1, 5) - 1) / 8)
_FIT_VANDER_INV = np.linalg.inv(np.vander(FIT_NODES, 4, increasing=True))
# coefficients of tau -> int_0^tau of the cubic through values at FIT_NODES
# (``fit_poly3`` folded into ``_antiderivative``), rows d = 0..4
_FIT_INTEGRAL = np.concatenate(
    [np.zeros((1, 4)), _FIT_VANDER_INV / np.arange(1, 5)[:, None]])
for _table in (GAUSS_NODES, FIT_NODES, _FIT_VANDER_INV, _FIT_INTEGRAL):
    _table.flags.writeable = False


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing rational breakpoints 0 = t_0 < ... < t_M = 1.

    ``floats`` holds the breakpoints as a read-only float array, computed
    once per grid.
    """

    breakpoints: tuple

    def __post_init__(self):
        bp = tuple(Fraction(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if not bp or bp[0] != 0 or bp[-1] != 1:
            raise ValueError("grid must run from 0 to 1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        floats = np.array([float(b) for b in bp])
        floats.flags.writeable = False
        object.__setattr__(self, "floats", floats)

    @classmethod
    def uniform(cls, n: int) -> "TimeGrid":
        if n < 1:
            raise ValueError("a uniform grid needs at least one interval")
        return cls(tuple(Fraction(j, n) for j in range(n + 1)))

    @property
    def steps(self):
        return tuple(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    def __len__(self):
        return len(self.breakpoints)

    def interval_of(self, t: float) -> int:
        """Index j with t in [t_j, t_{j+1}); the last interval is closed."""
        return int(self.locate(t)[0])

    def locate(self, times):
        """Interval index j (as in ``interval_of``) and local variable tau
        = (t - t_j) / (t_{j+1} - t_j) of each time in [0, 1]."""
        ts = self.floats
        t = _unit_times(times)
        j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        return j, (t - ts[j]) / (ts[j + 1] - ts[j])

    def quadrature(self, a, b):
        """4-point Gauss-Legendre rule on every overlap of [a_i, b_i] with a
        grid interval, exact for cubic pieces: the owner i of each overlap,
        and its node times and weights, each of shape (overlaps, 4)."""
        ts = self.floats
        a, b = (_unit_times(np.atleast_1d(x))[:, None] for x in (a, b))
        lo, hi = np.maximum(a, ts[:-1]), np.minimum(b, ts[1:])
        i, j = np.nonzero(hi > lo)
        lo, h = lo[i, j][:, None], (hi - lo)[i, j][:, None]
        return i, lo + h * GAUSS_NODES, h * _GL4_W

    def nodes(self, taus):
        """The times of the local nodes ``taus`` in every interval, in order."""
        ts = self.floats
        return (ts[:-1, None] + np.diff(ts)[:, None] * taus).ravel()

    def merged(self, other: "TimeGrid") -> "TimeGrid":
        pts = sorted(set(self.breakpoints) | set(other.breakpoints))
        return TimeGrid(tuple(pts))

    # -- the grid policy: start from the breakpoints, refined to a cap, and
    # halve where a measured defect asks for it, never below STEP_FLOOR --

    def refined(self, max_step) -> "TimeGrid":
        """Every interval cut into equal parts of at most ``max_step``."""
        max_step = Fraction(max_step)
        pts = []
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            n = int(-(-(b - a) // max_step))  # ceil division
            pts.extend(a + (b - a) * Fraction(i, n) for i in range(n))
        pts.append(Fraction(1))
        return TimeGrid(tuple(pts))

    def halved(self, excess) -> "TimeGrid":
        """Each interval whose defect is ``excess`` > 1 times its share of
        the budget halved as often as ``_halvings`` asks, but not below
        STEP_FLOOR; the grid itself when no interval is cut."""
        pts = []
        for a, b, k in zip(self.breakpoints, self.breakpoints[1:],
                           _halvings(excess).tolist()):
            while k and (b - a) / 2 ** k < STEP_FLOOR:
                k -= 1
            pts.extend(a + (b - a) * Fraction(i, 2 ** k) for i in range(2 ** k))
        pts.append(Fraction(1))
        return self if len(pts) == len(self) else TimeGrid(tuple(pts))


def _halvings(excess) -> np.ndarray:
    """How often to halve each interval whose defect is ``excess`` times its
    share of the budget: none within the share, else as often as brings
    the defect to half its share, as it falls 16-fold per halving (the
    cubic collocation is of fourth order)."""
    excess = np.asarray(excess, dtype=float)
    with np.errstate(divide="ignore"):
        k = np.ceil(np.log2(2 * excess) / 4)
    return np.where(excess > 1, k, 0).astype(int)


def _unit_times(times) -> np.ndarray:
    """Times as a float array; each must lie in [0, 1]."""
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0) & (t <= 1)):
        raise ValueError("times must lie in [0, 1]")
    return t


def piece_values(pieces: np.ndarray, j, tau) -> np.ndarray:
    """Entry i is piece j[i] at local time tau[i]: the reader at any times,
    under ``read_pieces``; ``node_values`` reads fixed nodes.

    ``pieces`` has shape (J, D + 1) + map shape; returns one coefficient
    array with the leading axes of j, each entry the Horner sum over the
    degree axis of its piece.
    """
    lead, top = np.shape(j), pieces.shape[1] - 1
    j = np.asarray(j, dtype=int).ravel()
    tau = np.reshape(tau, (-1,) + (1,) * (pieces.ndim - 2))
    out = pieces[j, top]
    for d in range(top - 1, -1, -1):
        out *= tau
        out += pieces[j, d]
    return out.reshape(lead + out.shape[1:])


def _table_product(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A real table (r, n) against the n rows of each interval of ``rows``,
    (J, n) + shape: (J, r) + shape, one real product per interval on the
    real and imaginary parts side by side."""
    J, n = rows.shape[:2]
    flat = np.ascontiguousarray(rows, complex).view(float).reshape(J, n, -1)
    return (table @ flat).view(complex).reshape((J, len(table)) + rows.shape[2:])


def node_values(pieces: np.ndarray, taus) -> np.ndarray:
    """Every piece at the local nodes ``taus`` of its interval, intervals
    in order: (J * len(taus),) + map shape, one product per interval
    against the table of powers of the nodes.  These are the values of
    ``piece_values`` at those nodes, to rounding (exactly for constant
    pieces); ``piece_values`` reads at any times."""
    if pieces.shape[1] == 1:        # a constant piece: its value at every node
        return np.repeat(pieces[:, 0], len(taus), axis=0)
    table = _node_powers(np.asarray(taus, dtype=float).tobytes(), pieces.shape[1])
    return _table_product(table, pieces).reshape((-1,) + pieces.shape[2:])


@lru_cache(maxsize=32)
def _node_powers(taus: bytes, n: int) -> np.ndarray:
    """The powers tau^d, d < n, of the nodes whose float64 bytes are
    ``taus``, one row per node, built once per node set.  Read-only."""
    table = np.vander(np.frombuffer(taus), n, increasing=True)
    table.flags.writeable = False
    return table


def node_integral(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """tau -> h_j int_0^tau of the cubic through the values at ``FIT_NODES``
    of interval j, from ``node_values``' layout (J * 4,) + map shape: pieces
    (J, 5) + map shape, the pieces of ``_antiderivative(fit_poly3(values),
    h)`` to rounding, by one fixed (5, 4) table."""
    J = len(h)
    out = _table_product(_FIT_INTEGRAL, values.reshape((J, 4) + values.shape[1:]))
    out *= h.reshape((J, 1) + (1,) * (values.ndim - 1))
    return out


def read_pieces(pieces: np.ndarray, grid: TimeGrid, times, m: int) -> FourierMap:
    """The path with ``pieces`` on ``grid`` at many times in [0, 1], as
    maps of the batch shape of ``times``: the one reader of the time axis."""
    return _wrap(piece_values(pieces, *grid.locate(times)), m)


def _poly_reparam(pieces: np.ndarray, a, b) -> np.ndarray:
    """Coefficients of p_j(a_j + b_j tau) from those of the pieces p_j(tau);
    a and b are scalars or hold one value per piece."""
    shape, deg = (-1,) + (1,) * (pieces.ndim - 2), pieces.shape[1] - 1
    a, b = np.reshape(a, shape), np.reshape(b, shape)
    out = np.zeros_like(pieces)
    for d in range(deg + 1):
        for e in range(d + 1):
            out[:, e] += pieces[:, d] * comb(d, e) * (a ** (d - e)) * (b ** e)
    return out


def pieces_on(pieces: np.ndarray, grid: TimeGrid, finer: TimeGrid) -> np.ndarray:
    """The pieces on ``grid`` re-expressed exactly on every interval of
    ``finer``, a refinement of ``grid``."""
    js, starts = grid.locate(finer.floats[:-1])
    if pieces.shape[1] == 1:        # constant pieces: nothing to reparametrize
        return pieces[js]
    widths = np.array(finer.steps, dtype=float) / np.diff(grid.floats)[js]
    return _poly_reparam(pieces[js], starts, widths)


def _antiderivative(pieces: np.ndarray, h) -> np.ndarray:
    """tau -> h_j int_0^tau p_j of every piece, in closed form: one degree
    higher, zero constant term; ``h`` holds one length per piece."""
    scale = h[:, None] / np.arange(1, pieces.shape[1] + 1)
    return np.concatenate([np.zeros_like(pieces[:, :1]), pieces * scale.reshape(
        scale.shape + (1,) * (pieces.ndim - 2))], axis=1)


def _derivative(pieces: np.ndarray, h) -> np.ndarray:
    """d/dt of every piece in tau = (t - t_j) / h_j: one degree lower;
    ``h`` holds one length per piece."""
    scale = np.arange(1, pieces.shape[1]) / h[:, None]
    return pieces[:, 1:] * scale.reshape(scale.shape + (1,) * (pieces.ndim - 2))


def _piece_array(pieces) -> np.ndarray:
    """Pieces as one array (J, D + 1) + map shape: an array as it is, a list
    of pieces of mixed degree zero-padded to the highest degree D."""
    if isinstance(pieces, np.ndarray):
        return pieces.astype(complex, copy=False)
    rows, degrees = np.concatenate(pieces), np.array(list(map(len, pieces)))
    out = np.zeros((len(degrees), degrees.max()) + rows.shape[1:], dtype=complex)
    out[np.arange(degrees.max()) < degrees[:, None]] = rows
    return out


def fit_poly3(samples: np.ndarray) -> np.ndarray:
    """Cubic coefficients (in tau on [0,1]) through values at FIT_NODES.

    ``samples`` holds 4 node values per interval along axis 0, intervals
    in order (``node_values``' layout); the result has shape
    (intervals, 4) + samples.shape[1:].
    """
    return _table_product(_FIT_VANDER_INV, samples.reshape(
        (-1, 4) + samples.shape[1:]))


class TimeDependentField:
    """Piecewise-polynomial path of FourierMaps on [0, 1].

    ``pieces`` is one array (J, D + 1) + (2N+1,)*m + (ncomp,); the
    constructor also takes a list of pieces of mixed degree and zero-pads
    it.  ``scale`` records the strip half-width up to which norms of this
    field may be quoted; requesting a wider strip raises ScaleMismatch.
    """

    def __init__(self, grid: TimeGrid, pieces, scale: float):
        if len(pieces) != len(grid) - 1:
            raise ValueError("need one piece per interval")
        self.grid = grid
        self.pieces = _piece_array(pieces)
        if self.pieces.shape[1] - 1 > MAX_DEGREE:
            raise ValueError(f"piece degree exceeds {MAX_DEGREE}")
        shape = self.pieces.shape[2:]
        self.m = len(shape) - 1
        self.order = shape[0] // 2
        self.ncomp = shape[-1]
        self.scale = float(scale)
        # every coefficient row must be Hermitian for the field to be real at
        # every time, not only at the end of its interval
        _wrap(self.pieces, self.m).check_real()

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, f: FourierMap, scale: float,
                 grid: TimeGrid | None = None) -> "TimeDependentField":
        grid = grid or TimeGrid.uniform(1)
        return cls(grid, [f.coeffs[None, ...]] * (len(grid) - 1), scale)

    @classmethod
    def step(cls, grid: TimeGrid, values, scale: float) -> "TimeDependentField":
        return cls(grid, [v.coeffs[None, ...] for v in values], scale)

    # -- evaluation -------------------------------------------------------

    def values_at(self, times) -> FourierMap:
        """The field at many times, as maps of the batch shape of ``times``."""
        return read_pieces(self.pieces, self.grid, times, self.m)

    def value_at(self, t: float) -> FourierMap:
        return self.values_at(t)

    # -- algebra ------------------------------------------------------------

    def on_grid(self, grid: TimeGrid) -> "TimeDependentField":
        """Re-express on a refinement of (or merge with) the own grid."""
        grid = self.grid.merged(grid)
        return TimeDependentField(
            grid, pieces_on(self.pieces, self.grid, grid), self.scale)

    def _binary(self, other: "TimeDependentField", sign: float) -> "TimeDependentField":
        if (self.m, self.ncomp) != (other.m, other.ncomp):
            raise ValueError("incompatible fields")
        grid, order = self.grid.merged(other.grid), max(self.order, other.order)
        a, b = (_wrap(f.on_grid(grid).pieces, self.m).with_order(order).coeffs
                for f in (self, other))
        out = np.zeros((len(a), max(a.shape[1], b.shape[1])) + a.shape[2:], complex)
        out[:, :a.shape[1]] += a
        out[:, :b.shape[1]] += sign * b
        return TimeDependentField(grid, out, min(self.scale, other.scale))

    def __add__(self, other):
        return self._binary(other, +1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return TimeDependentField(self.grid, -self.pieces, self.scale)

    def __mul__(self, scalar):
        return TimeDependentField(self.grid, float(scalar) * self.pieces, self.scale)

    __rmul__ = __mul__

    def time_reversed(self) -> "TimeDependentField":
        """The field t -> value(1 - t), pieces reparametrized exactly."""
        bp = tuple(1 - b for b in reversed(self.grid.breakpoints))
        return TimeDependentField(
            TimeGrid(bp), _poly_reparam(self.pieces[::-1], 1.0, -1.0), self.scale)

    def restricted_rescaled(self, t_end: Fraction) -> "TimeDependentField":
        """The field s -> t_end * value(t_end * s) on [0, 1].

        The right evolution of the result at s = 1 equals the right
        evolution of the original field at t = t_end.
        """
        t_end = Fraction(t_end)
        if not 0 < t_end <= 1:
            raise ValueError("t_end must lie in (0, 1]")
        keep = [b for b in self.grid.breakpoints if b < t_end]
        cut = self.grid.merged(TimeGrid((0, t_end, 1))) if t_end < 1 else self.grid
        pieces = pieces_on(self.pieces, self.grid, cut)[:len(keep)]
        bp = tuple(b / t_end for b in keep) + (Fraction(1),)
        return TimeDependentField(TimeGrid(bp), float(t_end) * pieces, self.scale)

    # -- norms --------------------------------------------------------------

    def lp_norm(self, p, kind: str, eps: float) -> float:
        """L^p norm of t -> seminorm(field(t)) for p in {1, 2, inf}, read at
        fixed nodes of every interval by ``node_values``: a piece constant in
        time by its value at tau = 0 alone, exactly; a polynomial piece by
        the 4-point Gauss rule of ``TimeGrid.quadrature``, or for p = inf at
        65 nodes with both ends, neither exact, as its seminorm is not a
        polynomial in tau."""
        if kind not in ("nu", "beta"):
            raise ValueError("seminorm selector must be 'nu' or 'beta'")
        if eps > self.scale + 1e-15:
            raise ScaleMismatch(
                f"requested eps {eps} exceeds field scale {self.scale}")
        if p not in (1, 2, np.inf, "inf"):
            raise ValueError("p must be 1, 2 or inf")
        sup = p in (np.inf, "inf")
        taus = np.concatenate([[0.0, 1.0], 0.5 - 0.5 * np.cos(
            np.pi * np.arange(1, 64) / 64)]) if sup else np.append(0.0, GAUSS_NODES)
        nu, mu = majorants(node_values(self.pieces, taus), self.m, eps)
        vals = (nu if kind == "nu" else np.maximum(nu, mu)).reshape(-1, len(taus))
        if sup:
            return float(vals.max())
        # a constant piece weighs its value at tau = 0 alone
        poly = self.pieces[:, 1:].reshape(len(self.pieces), -1).any(axis=1)
        w = np.where(poly[:, None], np.append(0.0, _GL4_W), np.eye(1, len(taus)))
        per_piece = (w * (vals if p == 1 else vals**2)).sum(axis=1)
        total = float(np.dot(np.array(self.grid.steps, dtype=float), per_piece))
        return total if p == 1 else float(np.sqrt(total))


# ---------------------------------------------------------------------------
# absolutely continuous paths
# ---------------------------------------------------------------------------

class ACPath:
    """Primitive of a TimeDependentField: snapshots plus the derivative class.

    ``values`` holds the snapshots at the breakpoints as a MapStack.  The
    primitive is built once, as ``pieces`` on the derivative's merged grid
    ``piece_grid`` at the snapshots' order: a piece's constant term is the
    snapshot of its path interval plus the integrals of the earlier pieces
    in that interval (the layout of ``FlowPath.pieces``).
    """

    def __init__(self, grid: TimeGrid, values, derivative: TimeDependentField,
                 tol: float = TOL_INT, check: bool = True):
        self.grid = grid
        self.values = MapStack(values, check=False)
        self.derivative = derivative
        if len(self.values) != len(grid):
            raise ValueError("need one snapshot per breakpoint")
        if self.values.order < derivative.order:
            raise ValueError(
                f"snapshots of order {self.values.order} are below the "
                f"derivative's order {derivative.order}")
        der = derivative.on_grid(grid)
        owner = grid.locate(der.grid.floats[:-1])[0]
        v, h = self.values.coeffs, np.array(der.grid.steps, dtype=float)
        pieces = _wrap(_antiderivative(der.pieces, h), der.m).with_order(
            self.values.order).coeffs
        inc = pieces[:, ::-1].sum(axis=1)       # every piece at tau = 1
        before = np.cumsum(inc, axis=0) - inc
        pieces[:, 0] = v[owner] + (before - before[np.searchsorted(owner, owner)])
        self.pieces, self.piece_grid = pieces, der.grid
        ends = np.add.reduceat(inc, np.searchsorted(owner, np.arange(len(v) - 1)))
        # per path interval j: the max coefficient defect of values[j+1] =
        # values[j] + int over interval j, and the bound each must meet
        self.defects = np.abs(v[1:] - (v[:-1] + ends)).reshape(
            len(v) - 1, -1).max(axis=1)
        self.defect_tol = tol * max(1.0, float(np.abs(v).max()))
        if check and self.integral_defect() > self.defect_tol:
            raise ValueError(
                f"integral identity violated (defect {self.integral_defect():.3e})")

    def integral_defect(self) -> float:
        """Max coefficient defect of values[j+1] = values[j] + int over interval j."""
        return float(self.defects.max())

    def values_at(self, times) -> FourierMap:
        """The path at many times, as maps of the batch shape of ``times``."""
        return read_pieces(self.pieces, self.piece_grid, times, self.derivative.m)

    def value_at(self, t: float) -> FourierMap:
        return self.values_at(t)


def integrate_primitive(gamma: TimeDependentField) -> ACPath:
    """Coefficient-wise primitive with value 0 at t = 0 (closed form)."""
    h = np.array(gamma.grid.steps, dtype=float)
    inc = _antiderivative(gamma.pieces, h)[:, ::-1].sum(axis=1)
    values = np.cumsum(np.concatenate([np.zeros_like(inc[:1]), inc]), axis=0)
    return ACPath(gamma.grid, values, gamma, tol=TOL_INT)


# ---------------------------------------------------------------------------
# postcomposition with analytic superposition rules
# ---------------------------------------------------------------------------

class SuperpositionRule:
    """An analytic map on perturbations, with its directional derivative;
    the methods take maps with a batch axis (MapStacks, or the rows of a
    field's pieces for affine rules) and answer for every map at once."""

    is_affine = False

    def value(self, u: MapStack) -> MapStack:
        raise NotImplementedError

    def differential(self, u: MapStack, v: MapStack) -> MapStack:
        raise NotImplementedError

    def domain_ok(self, u: MapStack) -> np.ndarray:
        return np.ones(len(u), dtype=bool)


class AffineRule(SuperpositionRule):
    """u -> a*u + b for a scalar a and a fixed FourierMap b (b may be None)."""

    is_affine = True

    def __init__(self, a: float, b: FourierMap | None = None):
        self.a = float(a)
        self.b = b

    def value(self, u):
        return self.a * u if self.b is None else self.a * u + self.b

    def differential(self, u, v):
        return self.a * v


class SelfCompositionRule(SuperpositionRule):
    """u -> perturbation of (id+u) o (id+u), i.e. u + u o (id+u).

    The derivative in direction v is v + v o (id+u) + (Du o (id+u)) . v.
    The domain is the set of perturbations whose certified imaginary reach
    from the inner strip stays inside the outer strip.
    """

    def __init__(self, inner_scale: float, outer_scale: float):
        self.inner_scale = float(inner_scale)
        self.outer_scale = float(outer_scale)

    def domain_ok(self, u):
        return imag_reach(u, self.inner_scale) <= self.outer_scale

    def value(self, u):
        return u + compose(u, u, outer_scale=self.outer_scale,
                           inner_scale=self.inner_scale)

    def differential(self, u, v):
        return v + compose(v, u) + _jacobian_compose_apply(u, v)


def _jacobian_compose_apply(u: MapStack, v: MapStack) -> MapStack:
    """(Du o (id+u)) . v of every map, re-expanded (sampled product)."""
    return fit_sampled(
        lambda x, uc, vc: np.einsum("...ij,...j->...i",
                                    jacobian(uc).eval(x + uc.eval(x)), vc.eval(x)),
        [u, v], u.order, tol_trunc=1e-7, context="jacobian product")


def ac_postcompose(path: ACPath, rule: SuperpositionRule) -> ACPath:
    """Compose an AC path with an analytic rule; derivative by the chain rule.

    Each rule method is called once per grid, on the stack of all maps.
    For affine rules the result is exact in coefficient arithmetic.  For
    nonlinear rules the derivative t -> df(path(t), path'(t)) is re-fitted
    as a cubic per interval of a grid from the grid policy: the path's
    breakpoints, with every interval whose integral identity misses
    TOL_CHAIN halved until none does or the floor is reached; the
    identity is then re-verified within TOL_CHAIN.
    """
    if rule.is_affine:      # the rule maps every coefficient row of der
        der = path.derivative.on_grid(path.grid)
        rows = rule.differential(None, _wrap(der.pieces, der.m)).coeffs
        return ACPath(path.grid, _postcompose_values(path, path.grid, rule),
                      TimeDependentField(path.grid, rows, der.scale), tol=TOL_INT)
    grid = path.grid
    while True:
        values = _postcompose_values(path, grid, rule)
        der = path.derivative.on_grid(grid)
        nodes = grid.nodes(FIT_NODES)
        samples = rule.differential(path.values_at(nodes), der.values_at(nodes))
        out = ACPath(grid, values, TimeDependentField(
            grid, fit_poly3(samples.coeffs), der.scale), tol=TOL_CHAIN, check=False)
        finer = grid.halved(out.defects / out.defect_tol)
        if finer == grid:
            return ACPath(grid, out.values, out.derivative, tol=TOL_CHAIN)
        grid = finer


def _postcompose_values(path: ACPath, grid: TimeGrid,
                        rule: SuperpositionRule) -> MapStack:
    """The rule applied to the path at the breakpoints of ``grid``, the
    stored snapshots where they exist."""
    values = path.values_at(grid.floats)
    values.coeffs[np.isin(grid.floats, path.grid.floats)] = path.values.coeffs
    if not np.all(rule.domain_ok(values)):
        raise DomainEscape("path leaves the domain of the postcomposition rule")
    return rule.value(values)
