"""Per-node reference loops: one FourierMap and one inversion per time node.

These are the direct forms of the time-axis computations that the package
now runs batched over all nodes at once.  They are kept as differential
oracles: every batched path must reproduce its loop to rounding.  The only
changes against their first form are the names of the shared helpers they
call (the sampling grid, the one evaluator and the one fitter).

The per-piece field algebra (re-expression on a grid, sums, reversal,
restriction, L^p norms, closed-form integrals), the per-map
postcomposition with its rules, and the snapshot walks at the end
(distances, reaches, primitives and the integral identity) are the forms
of fields stored as lists of pieces of mixed degree and of paths stored
as lists of FourierMaps; their array versions must equal them exactly
(self-composition to rounding).  ``ac_values_at`` reads an ACPath by
re-integrating its derivative on every call; the primitive that ACPath
keeps as pieces must read the same bits.

``composition_grid`` is the per-call grid search that ``compose`` ran
before ``CompositionPlan``: one isotropic Cauchy estimate on every mode
||k||_1 >= M/2, the least over 15 widths, at machine epsilon.  With
``compose_on_grid``, the composition kernel built per call at a given grid,
it is the oracle of the plan's sizing and of its bits.

``horner_series`` is the series evaluator before the baby-step giant-step
kernel: one Horner step per row k_1 (``_horner_tail``), a one-sided pass
for real points (``_real_horner``) and a pass in w and one in 1/w for
complex ones (``_laurent_horner``).  ``pullback_windows`` samples each
window column e_k o (id + u) with one complex exp per point and mode.

``shift_sum`` is the composition's shift sum before its contiguous planes:
at m = 1 the Horner state laid out map by map, (B, ncomp, P), and at m = 2
each map's support modes (modes, P) contracted by one product per map; the
package must give its bits.  ``column_shift_sum`` is the m = 2 shift sum
before it ran over g's support: a table of the band's columns k_2 and a
Horner pass over its rows k_1, every slot of the band summed; the support
sum must agree with it to rounding of the change.
``imag_bound`` is the reality bound over the whole lattice, each pair k,
-k summed twice.  ``modes_to_json`` writes the JSON entries of one
snapshot, as flow.json's writer did before it read the whole stack in one
pass.

``parent_compose``, ``ParentSweep`` and ``parent_solve`` are the m = 1
solve path before its one pass over |u|: ``compose`` tests the reach by
``imag_reach`` before the plan, flattens, broadcasts and repeats the
stacks, and the plan reads the mirror defects and the largest moduli of u
by passes of their own, fits by the generic transposes and adds g's
spectrum by its sample index; the sweep builds a plan per grid and its
node tables per call, and its defect pass takes one ``majorants`` call per
norm.  The package must give their bytes.
"""

import math
from functools import reduce
from math import comb

import numpy as np

from torusflow.errors import (ContractionStall, DomainEscape,
                              InvertibilityLost, NonContraction,
                              RealityDefect, TruncationBudgetExceeded)
from torusflow.flow import (RATIO_FLOOR, RATIO_SLACK, invert_at_point,
                            solve_flow)
from torusflow.fourier import (TOL_TRUNC, TWO_PI, CompositionPlan, FourierMap,
                               MapStack, _band_powers, _circle_m1, _fft_sizes,
                               _fold_band, _grid_roots, _grid_values, _k_l1,
                               _mode_roots, _sample_index, _shift_sum,
                               _spectrum_weights, _support_band, _unit_circle,
                               _weight_table, _wrap, compose, fit_grid,
                               fit_sampled, imag_reach, jacobian,
                               lattice_modes, majorants, multiply,
                               node_chunks, sampling_grid, strip_norms,
                               strip_weights)
from torusflow.group import (TOL_INVERSE, AnalyticDiffeo,
                             _adjoint_inverse_values, _adjoint_values,
                             _jacobian_values, _probe_points, compose_diffeo,
                             exp_field, invert_diffeo)
from torusflow.pullback import pullback_apply, pullback_matrix
from torusflow.timepaths import (ACPath, FIT_NODES, GAUSS_NODES, AffineRule,
                                 SelfCompositionRule, TimeDependentField,
                                 _GL4_W, _derivative, _table_product,
                                 fit_poly3, node_integral, piece_values,
                                 pieces_on)
from torusflow.charts import TOL_INVERT

from _readings import eval_points


def _poly_eval(poly, tau):
    """Evaluate sum_d poly[d] tau^d; poly has the degree axis first."""
    return piece_values(poly[None], [0], [tau])[0]


def _poly_antiderivative(poly, h):
    """tau -> h * int_0^tau p; one degree higher, zero constant term."""
    out = np.zeros((poly.shape[0] + 1,) + poly.shape[1:], dtype=complex)
    for d in range(poly.shape[0]):
        out[d + 1] = poly[d] * (h / (d + 1))
    return out


def _at(pieces, j, tau):
    return FourierMap(_poly_eval(pieces[j], tau), check=False)


def odot(gamma, eta, grid, tol_solve=1e-10):
    """(gamma ⊙ eta) on ``grid`` (the merged, refined grid), node by node."""
    eta_flow = solve_flow(eta.negated(), tol_solve)
    m, order = gamma.field.m, gamma.field.order
    M, pts = sampling_grid(order, m)
    gam, eta_on = gamma.field.on_grid(grid), eta.field.on_grid(grid)
    ts = grid.floats
    pieces = []
    for j in range(len(ts) - 1):
        samples = []
        for tau in FIT_NODES:
            s = ts[j] + (ts[j + 1] - ts[j]) * tau
            vals = _adjoint_values(eta_flow.u_at(s), _at(gam.pieces, j, tau), pts)
            ad_map = fit_grid(vals.reshape((M,) * m + (m,)), order, m,
                              tol_trunc=1e-7, context="odot")
            samples.append((ad_map + _at(eta_on.pieces, j, tau)).coeffs)
        pieces.append(fit_poly3(np.stack(samples))[0])
    return TimeDependentField(grid, pieces, gamma.field.scale)


def ad_transport_integral(eta, gamma_field, t, tol_solve=1e-10):
    eta_flow = solve_flow(eta.negated(), tol_solve)
    grid = eta_flow.grid.merged(gamma_field.grid)
    m, order = gamma_field.m, gamma_field.order
    M, pts = sampling_grid(order, m)
    gam = gamma_field.on_grid(grid)
    ts = grid.floats
    acc = FourierMap.zero(order, m, m)
    for j in range(len(ts) - 1):
        if ts[j] >= t:
            break
        a, b = ts[j], min(ts[j + 1], t)
        h_full = ts[j + 1] - ts[j]
        node_vals = []
        for tau in GAUSS_NODES:
            s = a + (b - a) * tau
            node_vals.append(_adjoint_inverse_values(
                eta_flow.u_at(s), _at(gam.pieces, j, (s - ts[j]) / h_full), pts))
        integ = (b - a) * np.tensordot(_GL4_W, np.array(node_vals), axes=(0, 0))
        acc = acc + fit_grid(integ.reshape((M,) * m + (m,)), order, m,
                             tol_trunc=1e-6, context="transport integral")
    return acc


def verify_rows(candidate, gamma, probes):
    """The (probe, time, residual) rows of verify_evolution_pointwise."""
    probes = np.asarray(probes, dtype=complex)
    if probes.ndim == 1:
        probes = probes[:, None]
    ts = candidate.grid.floats
    gam = gamma.field.on_grid(candidate.grid)
    traj = np.array([probes + u.eval(probes) for u in candidate.snapshots])
    increments = np.zeros_like(traj)
    for j in range(len(ts) - 1):
        h = ts[j + 1] - ts[j]
        node_vals = []
        for tau in GAUSS_NODES:
            s = ts[j] + h * tau
            g_s = _at(gam.pieces, j, tau)
            if candidate.side == "right":
                node_vals.append(g_s.eval(candidate.eval_at(s, probes)))
            else:
                Jz = _jacobian_values(candidate.flow.u_at(s),
                                      candidate.eval_at(s, probes))
                g_vals = g_s.eval(probes)
                if candidate.m == 1:
                    node_vals.append(g_vals / Jz[..., 0, 0][..., None])
                else:
                    node_vals.append(np.linalg.solve(Jz, g_vals[..., None])[..., 0])
        increments[j + 1] = increments[j] + h * np.tensordot(
            _GL4_W, np.array(node_vals), axes=(0, 0))
    rows = []
    for j, t in enumerate(ts):
        resid = np.abs(traj[j] - probes - increments[j]).max(axis=-1)
        rows += [(p, float(t), float(r)) for p, r in enumerate(resid)]
    return rows


def _invert_diffeo(phi):
    """The inverse perturbation of one certified map: inversion on the
    sampling grid, fit, certificate and composition residual."""
    m, order = phi.m, phi.order
    M, pts = sampling_grid(order, m)
    y = invert_at_point(phi.u, pts)
    v = fit_grid((y - pts).reshape((M,) * m + (m,)), order, m,
                 tol_trunc=1e-8, context="inversion")
    inv = AnalyticDiffeo.certify(v, phi.eps)
    probe = _probe_points(m, 257)
    resid = float(np.abs(phi(inv(probe)) - probe).max())
    if resid > TOL_INVERSE:
        raise InvertibilityLost(f"inverse residual {resid:.3e}")
    return v


def left_snapshots(evol):
    """The snapshots of a left evolution, one inversion per grid time."""
    return [_invert_diffeo(AnalyticDiffeo.certify(u, evol.eps))
            for u in evol.flow.snapshots]


def left_derivative_residual(evol, n_probe=16,
                             times=(0.21337, 0.517, 0.8123), fd_step=1e-3):
    """derivative_residual of a left evolution, one inversion per time."""
    pts = _probe_points(evol.m, n_probe)
    times = np.asarray(times)
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * fd_step)
    offsets = np.array([-2, -1, 1, 2]) * fd_step
    vals = evol.eval_many((times[:, None] + offsets).ravel(), pts)
    dpath = np.tensordot(vals.reshape((len(times), 4) + pts.shape),
                         stencil, axes=(1, 0))
    eta_u = np.stack([_invert_diffeo(AnalyticDiffeo.certify(
        evol.flow.u_at(t), evol.eps)).coeffs for t in times])
    J = _jacobian_values(MapStack(eta_u), pts)
    g = MapStack(evol.source.field.values_at(times))
    rhs = np.einsum("...ij,...j->...i", J, g.eval(pts))
    return float(np.abs(dpath - rhs).max())


def field_nu_integral(gamma, a, b):
    gam = gamma.field
    ts = gam.grid.floats
    total = 0.0
    for j in range(len(ts) - 1):
        lo, hi = max(a, ts[j]), min(b, ts[j + 1])
        if hi <= lo:
            continue
        h_full = ts[j + 1] - ts[j]
        for tau, wq in zip(GAUSS_NODES, _GL4_W):
            s = lo + (hi - lo) * tau
            f = _at(gam.pieces, j, (s - ts[j]) / h_full)
            total += (hi - lo) * wq * strip_norms(f, 2 * gamma.eps).nu
    return total


def pointwise_solution(flow, t0, y0):
    """(points, residuals) of the trajectory t -> Fl_{t, t0}(y0)."""
    gamma = flow.source
    y0 = np.atleast_1d(np.asarray(y0, dtype=complex))
    base = y0 if t0 == 0.0 else invert_at_point(flow.u_at(t0), y0)
    ts = flow.grid.floats
    pts = np.array([eval_points(flow, t, base[None, :])[0] for t in ts])
    gam = gamma.field.on_grid(flow.grid)

    def gauss_piece(j, a, b):
        h_full = ts[j + 1] - ts[j]
        node_vals = []
        for tau in GAUSS_NODES:
            t = a + (b - a) * tau
            y_s = eval_points(flow, t, base[None, :])[0]
            node_vals.append(_at(gam.pieces, j, (t - ts[j]) / h_full)
                             .eval(y_s[None, :])[0])
        return (b - a) * np.tensordot(_GL4_W, np.array(node_vals), axes=(0, 0))

    cumulative = np.zeros_like(pts)
    for j in range(len(ts) - 1):
        cumulative[j + 1] = cumulative[j] + gauss_piece(j, ts[j], ts[j + 1])
    j0 = flow.grid.interval_of(t0)
    at_t0 = cumulative[j0] + (gauss_piece(j0, ts[j0], t0) if t0 > ts[j0] else 0.0)
    residuals = np.abs(pts - y0[None, :] - (cumulative - at_t0[None, :])).max(axis=1)
    return pts, residuals


def flow_to_chart(flow, alpha, tol_chain=1e-8):
    m, order = flow.m, flow.order
    M, pts = sampling_grid(order, m)
    z_vals = [coeff.eval(pts) for _, coeff in alpha.terms]

    def chart_vector_values(t):
        u_vals = flow.u_at(t).eval(pts)
        if alpha.flat:
            return u_vals
        w = u_vals.copy()
        for _ in range(200):
            res = u_vals - w - alpha.higher_terms(z_vals, w)
            w = w + res
            if np.abs(res).max() <= TOL_INVERT:
                return w
        raise ContractionStall("pointwise chart inversion did not converge")

    def to_map(vals):
        return fit_grid(vals.reshape((M,) * m + (m,)), order, m,
                        tol_trunc=1e-8, context="chart re-expansion")

    ts = flow.grid.floats
    values = [to_map(chart_vector_values(t)) for t in ts]
    pieces = []
    for j in range(len(ts) - 1):
        h = ts[j + 1] - ts[j]
        samples = np.stack([to_map(chart_vector_values(ts[j] + h * tau)).coeffs
                            for tau in FIT_NODES])
        val_poly = fit_poly3(samples)[0]
        pieces.append(np.stack([(d + 1) * val_poly[d + 1] / h for d in range(3)]))
    derivative = TimeDependentField(flow.grid, pieces, flow.source.field.scale)
    return ACPath(flow.grid, values, derivative, tol=tol_chain)


def _two_param_map(flow, t, base_inv, eps):
    head = AnalyticDiffeo.certify(flow.u_at(t), eps)
    return head if base_inv is None else compose_diffeo(head, base_inv)


def trotter_curve(v, w, eps, n_values):
    """Per rung: exp(v/n) and exp(w/n) solved on their own, their step
    composed, and the product squared log2 n times, one map at a time."""
    pts = _probe_points(v.m, 64)
    target = exp_field(v + w, eps)(pts)
    out = []
    for n in n_values:
        k = int(np.log2(n))
        if 2**k != n:
            raise ValueError("trotter ladder must be dyadic")
        step = compose_diffeo(exp_field((1.0 / n) * v, eps),
                              exp_field((1.0 / n) * w, eps))
        prod = step
        for _ in range(k):
            prod = compose_diffeo(prod, prod)
        out.append((n, float(np.abs(prod(pts) - target).max())))
    return out


def _grad_dot(gamma_map, f):
    """gamma . grad f computed spectrally (exact product, then truncation)."""
    J = jacobian(f)
    out = None
    for axis in range(f.m):
        g_axis = FourierMap(gamma_map.coeffs[..., axis:axis + 1], check=False)
        term = multiply(J.entry(0, axis), g_axis, order=f.order, tol_trunc=np.inf)
        out = term if out is None else out + term
    return out


def pullback_path(gamma, t0, K, test_functions, n_transport_times=5,
                  fd_step=1e-3, n_pairs=64):
    """(matrices, ac_rows, transport_rows) of pullback_path, map by map."""
    flow = solve_flow(gamma)
    eps = gamma.eps
    base_inv = None
    if t0 != 0.0:
        base_inv = invert_diffeo(AnalyticDiffeo.certify(flow.u_at(t0), eps))
    ts = [j / n_pairs for j in range(n_pairs + 1)]
    mats = [pullback_matrix(_two_param_map(flow, t, base_inv, eps), K)
            for t in ts]
    ac_rows = []
    for j in range(len(ts) - 1):
        inc = float(np.abs(mats[j + 1].matrix - mats[j].matrix).max())
        bound = TWO_PI * max(K, 1) * field_nu_integral(gamma, ts[j], ts[j + 1])
        ac_rows.append((ts[j], ts[j + 1], inc, bound, inc <= bound * (1 + 1e-9)))
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * fd_step)
    offsets = np.array([-2, -1, 1, 2]) * fd_step
    transport_rows = []
    for t in np.linspace(0.15, 0.85, n_transport_times):
        stencil_maps = [_two_param_map(flow, t + o, base_inv, eps)
                        for o in offsets]
        mid = _two_param_map(flow, t, base_inv, eps)
        g_t = gamma.field.value_at(t)
        for fi, f in enumerate(test_functions):
            pulled = [pullback_apply(p, f, tol_trunc=1e-6) for p in stencil_maps]
            lhs = pulled[0] * stencil[0]
            for sc, p in zip(stencil[1:], pulled[1:]):
                lhs = lhs + sc * p
            rhs = pullback_apply(mid, _grad_dot(g_t, f), tol_trunc=1e-6)
            transport_rows.append(
                (float(t), fi, float(np.abs((lhs - rhs).coeffs).max())))
    return mats, ac_rows, transport_rows


def lp_norm(field, p, kind, eps):
    def seminorm(j, tau):
        rep = strip_norms(_at(field.pieces, j, tau), eps)
        return rep.nu if kind == "nu" else rep.beta

    steps = [float(s) for s in field.grid.steps]
    pieces = _trimmed(field)
    if p in (np.inf, "inf"):
        worst = 0.0
        for j, piece in enumerate(pieces):
            taus = [0.0] if piece.shape[0] == 1 else np.concatenate(
                [[0.0, 1.0], 0.5 - 0.5 * np.cos(np.pi * np.arange(1, 64) / 64)])
            worst = max(worst, max(seminorm(j, t) for t in taus))
        return worst
    total = 0.0
    for j, piece in enumerate(pieces):
        if piece.shape[0] == 1:
            s = seminorm(j, 0.0)
            total += steps[j] * (s if p == 1 else s * s)
        else:
            vals = np.array([seminorm(j, t) for t in GAUSS_NODES])
            total += steps[j] * float(_GL4_W @ (vals if p == 1 else vals**2))
    return total if p == 1 else float(np.sqrt(total))


def lp_norm_nodes(field, p, kind, eps):
    """lp_norm with its node table built piece by piece: one node (tau 0,
    weight 1) per constant piece, all quadrature nodes per other piece."""
    sup = p in (np.inf, "inf")
    taus, weights = GAUSS_NODES, _GL4_W
    if sup:
        taus = np.concatenate(
            [[0.0, 1.0], 0.5 - 0.5 * np.cos(np.pi * np.arange(1, 64) / 64)])
        weights = np.ones_like(taus)
    nodes = [(i, t, q) for i, piece in enumerate(_trimmed(field)) for t, q in
             (zip(taus, weights) if len(piece) > 1 else [(0.0, 1.0)])]
    j, tau, w = (np.array(col) for col in zip(*nodes))
    nu, mu = majorants(piece_values(field.pieces, j, tau), field.m, eps)
    vals = nu if kind == "nu" else np.maximum(nu, mu)
    if sup:
        return float(vals.max())
    per_piece = np.zeros(len(field.pieces))
    np.add.at(per_piece, j, w * (vals if p == 1 else vals**2))
    total = float(np.dot([float(s) for s in field.grid.steps], per_piece))
    return total if p == 1 else float(np.sqrt(total))


# ---------------------------------------------------------------------------
# per-piece field algebra
# ---------------------------------------------------------------------------

def _trimmed(field):
    """The pieces of a field as a list, each cut to its own degree (its
    highest nonzero row): the list of mixed degree the field was built from."""
    out = []
    for piece in field.pieces:
        rows = np.flatnonzero(piece.reshape(len(piece), -1).any(axis=1))
        out.append(piece[:rows[-1] + 1 if len(rows) else 1])
    return out


def _poly_reparam(poly, a, b):
    """Coefficients of p(a + b*tau) from those of p(tau)."""
    deg = poly.shape[0] - 1
    out = np.zeros_like(poly)
    for d in range(deg + 1):
        for e in range(d + 1):
            out[e] += poly[d] * comb(d, e) * (a ** (d - e)) * (b ** e)
    return out


def on_grid(field, grid):
    """(grid, pieces) of the field re-expressed on the merged grid."""
    grid = field.grid.merged(grid)
    own, pieces = field.grid.floats, _trimmed(field)
    js, starts = field.grid.locate(grid.floats[:-1])
    return grid, [_poly_reparam(pieces[j], aa, float(step) / (own[j + 1] - own[j]))
                  for j, aa, step in zip(js, starts, grid.steps)]


def binary(f, g, sign):
    """(grid, pieces) of f + sign * g, piece by piece."""
    grid = f.grid.merged(g.grid)
    order = max(f.order, g.order)
    pieces = []
    for pa, pb in zip(on_grid(f, grid)[1], on_grid(g, grid)[1]):
        shape = (max(len(pa), len(pb)),) + (2 * order + 1,) * f.m + (f.ncomp,)
        out = np.zeros(shape, dtype=complex)
        out[: pa.shape[0]] += _wrap(pa, f.m).with_order(order).coeffs
        out[: pb.shape[0]] += sign * _wrap(pb, f.m).with_order(order).coeffs
        pieces.append(out)
    return grid, pieces


def time_reversed(field):
    return [_poly_reparam(p, 1.0, -1.0) for p in reversed(_trimmed(field))]


def restricted_rescaled(field, t_end):
    keep = [b for b in field.grid.breakpoints if b < t_end]
    own, pieces = field.grid.floats, _trimmed(field)
    js, starts = field.grid.locate([float(a) for a in keep])
    steps = [b - a for a, b in zip(keep, keep[1:] + [t_end])]
    return [float(t_end) * _poly_reparam(
        pieces[j], aa, float(step) / (own[j + 1] - own[j]))
        for j, aa, step in zip(js, starts, steps)]


def piece_integrals(field, j, tau):
    """h_j int_0^tau of piece j at each (j, tau), one antiderivative each."""
    steps, pieces = [float(s) for s in field.grid.steps], _trimmed(field)
    return np.array([_poly_eval(_poly_antiderivative(pieces[i], steps[i]), t)
                     for i, t in zip(j, tau)])


# ---------------------------------------------------------------------------
# per-map postcomposition
# ---------------------------------------------------------------------------

def _rule_domain_ok(rule, u):
    if isinstance(rule, SelfCompositionRule):
        return imag_reach(u, rule.inner_scale) <= rule.outer_scale
    return True


def _rule_value(rule, u):
    if isinstance(rule, AffineRule):
        out = rule.a * u
        return out if rule.b is None else out + rule.b
    return u + compose(u, u, outer_scale=rule.outer_scale,
                       inner_scale=rule.inner_scale)


def _rule_differential(rule, u, v):
    if isinstance(rule, AffineRule):
        return rule.a * v
    n = u.order
    M, pts = sampling_grid(n, u.m)
    Jv = jacobian(u).eval(pts + u.eval(pts))
    out = np.einsum("pij,pj->pi", Jv, v.eval(pts))
    shifted = fit_grid(out.reshape((M,) * u.m + (u.m,)), n, u.m,
                       tol_trunc=1e-7, context="jacobian product")
    return v + compose(v, u) + shifted


def ac_postcompose(path, rule, tol_chain=1e-8, grid=None):
    """ac_postcompose with every rule method called once per map, on
    ``grid``, the grid the library chose (for affine rules the path's)."""
    grid = path.grid if rule.is_affine else grid
    der = path.derivative.on_grid(grid)
    values = path.values_at(grid.floats).coeffs
    values[np.isin(grid.floats, path.grid.floats)] = path.values.coeffs
    values = MapStack(values)
    if not all(_rule_domain_ok(rule, v) for v in values):
        raise DomainEscape("path leaves the domain of the postcomposition rule")
    new_values = [_rule_value(rule, v) for v in values]
    if rule.is_affine:
        new_pieces = [MapStack(_rule_differential(rule, None, c)
                               for c in MapStack(piece)).coeffs
                      for piece in _trimmed(der)]
        new_der = TimeDependentField(grid, new_pieces, path.derivative.scale)
        return ACPath(grid, new_values, new_der)
    nodes = grid.nodes(FIT_NODES)
    samples = MapStack(_rule_differential(rule, u, v) for u, v in zip(
        MapStack(path.values_at(nodes)), MapStack(der.values_at(nodes))))
    new_der = TimeDependentField(grid, fit_poly3(samples.coeffs),
                                 path.derivative.scale)
    return ACPath(grid, new_values, new_der, tol=tol_chain)


# ---------------------------------------------------------------------------
# snapshot walks
# ---------------------------------------------------------------------------

def sup_distance(path, other, eps):
    return max(strip_norms(a - b, eps).nu
               for a, b in zip(path.snapshots, other.snapshots))


def imag_reach_max(path, start_width):
    """The reach of every interval's piece over tau in [0, 1], bounded by
    the reach of the map of coefficients sum_d |c_d|."""
    return max(imag_reach(FourierMap(sum(np.abs(c) for c in piece), check=False),
                          start_width) for piece in path.pieces)


def restriction_discrepancy(p_eps, p_delta):
    return max(float(np.abs(a.coeffs - b.coeffs).max())
               for a, b in zip(p_eps.snapshots, p_delta.snapshots))


def defect_bound(gamma, inp, out, step):
    """solve_flow's residual (step' + D) / (1 - theta_hat) for the sweep
    ``out`` of the path ``inp``, one compose per node.  At each Gauss node
    of interval j, r = gamma o (id + u_inp) minus the derivative of out's
    piece; D is the max over j of nu_eps of the defect h sum w (p - r)
    summed over the intervals before j, plus h_j sum_q w_q nu_eps(r_q).
    step' is the largest of ``step`` and nu_eps(out - inp) at the Gauss
    nodes."""
    ts, eps, acc, D = out.grid.floats, gamma.eps, 0.0, 0.0
    nodes = step
    for j in range(len(ts) - 1):
        h = ts[j + 1] - ts[j]
        d_out = np.stack([d * c for d, c in enumerate(out.pieces[j])][1:]) / h
        err, local = 0.0, 0.0
        for x, w in zip(GAUSS_NODES, _GL4_W):
            g = gamma.field.value_at(ts[j] + h * x)
            r = compose(g, inp.u_at(ts[j] + h * x), order=g.order,
                        outer_scale=2 * eps, inner_scale=eps).coeffs \
                - _poly_eval(d_out, x)
            err = err - h * w * r
            local += h * w * strip_norms(FourierMap(r, check=False), eps).nu
        before = strip_norms(FourierMap(acc, check=False), eps).nu if j else 0.0
        D = max(D, before + local)
        acc = acc + err
        for x in GAUSS_NODES:
            t = ts[j] + h * x
            nodes = max(nodes, strip_norms(FourierMap(
                (out.u_at(t) - inp.u_at(t)).coeffs, check=False), eps).nu)
    return (nodes + D) / (1 - gamma.theta_hat)


def step_distance(snaps_a, snaps_b, eps):
    """solve_flow's stopping distance: max over grid times of nu_eps(a - b),
    each one dot product over the flattened lattice, the kernel's order."""
    a0 = snaps_a[0]
    w = strip_weights(a0.order, a0.m, eps)[0]
    return max(float(np.dot(np.abs(a.coeffs - b.coeffs).max(axis=-1).ravel(), w))
               for a, b in zip(snaps_a, snaps_b))


def integrate_primitive_values(gamma):
    """The snapshots of integrate_primitive, one piece at a time."""
    steps = [float(s) for s in gamma.grid.steps]
    acc = FourierMap.zero(gamma.order, gamma.m, gamma.ncomp)
    values = [acc]
    for j, piece in enumerate(gamma.pieces):
        inc = _poly_eval(_poly_antiderivative(piece, steps[j]), 1.0)
        acc = acc + FourierMap(inc, check=False)
        values.append(acc)
    return values


def ac_values_at(path, times):
    """ACPath.values_at as coefficients, re-integrating on every call: the
    derivative on the merged grid, each time's snapshot plus the integrals
    of the earlier pieces of its path interval plus its own partial one."""
    der = path.derivative.on_grid(path.grid)
    owner = path.grid.locate(der.grid.floats[:-1])[0]
    inc = piece_integrals(der, np.arange(len(owner)), np.ones(len(owner)))
    k, tau = der.grid.locate(times)
    start = path.values.coeffs[owner[k]]
    if len(owner) >= len(path.grid):
        before = np.cumsum(inc, axis=0) - inc
        start = start + (before - before[np.searchsorted(owner, owner)])[k]
    part = piece_integrals(der, k.ravel(), tau.ravel())
    return start + part.reshape(k.shape + part.shape[1:])


def integral_defect(path):
    """ACPath.integral_defect, one interval at a time; the derivative's
    pieces inside an interval of the path are summed."""
    worst = 0.0
    der = path.derivative.on_grid(path.grid)
    steps = [float(s) for s in der.grid.steps]
    owner = path.grid.locate(der.grid.floats[:-1])[0]
    for j in range(len(path.grid) - 1):
        inc = 0
        for k in np.flatnonzero(owner == j):
            inc = inc + _poly_eval(_poly_antiderivative(der.pieces[k], steps[k]), 1.0)
        lhs = path.values[j + 1].coeffs
        rhs = path.values[j].with_order(path.values[j + 1].order).coeffs + \
            _wrap(inc, der.m).with_order(path.values[j + 1].order).coeffs
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


# ---------------------------------------------------------------------------
# the per-call composition grid, before CompositionPlan
# ---------------------------------------------------------------------------

#: the isotropic search's widths: 1/80 .. 1.6 in steps of sqrt(2)
_ISO_RHO = 0.0125 * 2.0 ** (np.arange(15) / 2)


def _shell_amplitudes(f):
    """sum_{||k||_1 = s} max_i |c_{k,i}| for the shells s = 0..m N, per map
    of the flattened batch: nu_eps(f) = sum_s amp_s e^{2 pi s eps}."""
    c = f.flat().coeffs
    amp = np.abs(c).max(axis=-1).reshape(len(c), -1)
    l1 = _k_l1(f.order, f.m).ravel()
    return amp @ (l1[:, None] == np.arange(f.m * f.order + 1)).astype(float)


def _alias_logs(amp, u, sizes):
    """log S(rho) per map, (B, R), and the log shell sums of the modes
    ||k||_1 >= M/2 per size, (sizes, R), of ``iso_aliasing_bound``: the
    reach is one ``imag_reach`` of the maps as a batch (B, 1) against the
    widths, S one Horner pass over the shells in e^{-2 pi r}."""
    m = u.m
    rho = _ISO_RHO[TWO_PI * _ISO_RHO * m * max(u.order, 1) <= 600.0]
    reach = imag_reach(_wrap(u.flat().coeffs[:, None], m), rho)
    top = int(np.flatnonzero(amp.any(axis=0)).max(initial=0))
    y = np.exp(-TWO_PI * reach)
    acc = amp[:, 0, None] * np.ones_like(y)
    for s in range(1, top + 1):
        acc *= y
        acc += amp[:, s, None]
    with np.errstate(divide="ignore"):
        log_s = np.log(acc) + (TWO_PI * top * reach if top else 0.0)
    L = np.asarray(sizes, dtype=float)[:, None] / 2.0
    q = np.exp(-TWO_PI * rho)
    log_t = -TWO_PI * rho * L - m * np.log1p(-q) + (
        np.log(2.0) if m == 1 else np.log(4.0 * (L - (L - 1.0) * q)))
    return log_s, log_t


def iso_aliasing_bound(g, u, sizes):
    """The isotropic bound on sum_{||k||_1 >= M/2} max_i |h_{k,i}| of
    h = g o (id + u), per map and size: nu_{r(rho)}(g) times the shell sums
    of e^{-2 pi rho ||k||_1}, the least over the widths rho."""
    log_s, log_t = _alias_logs(_shell_amplitudes(g), u, sizes)
    return np.exp((log_s.T[:, :, None] + log_t.T[:, None]).min(axis=0))


def composition_grid(g, u, order, cap):
    """The per-call search: the least even 5-smooth M in [2N + 2, cap] at
    which ``iso_aliasing_bound`` is at most machine epsilon times nu_0(g)
    for every map, and the bound there; (cap, None) without one."""
    sizes = _fft_sizes(2 * order + 2, cap)
    if not len(sizes):
        return cap, None
    amp = _shell_amplitudes(g)
    log_s, log_t = _alias_logs(amp, u, sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.log(np.finfo(float).eps * amp.sum(axis=1))[:, None] - log_s
    slack[log_s == -np.inf] = np.inf
    first = np.min([np.searchsorted(-log_t[:, r], -slack[:, r])
                    for r in range(log_t.shape[1])], axis=0)
    j = int(first.max())
    if j == len(sizes):
        return cap, None
    bound = np.exp((log_s.T[:, :, None]
                    + log_t.T[:, None, j:j + 1]).min(axis=0))
    return int(sizes[j]), bound[:, 0]


def compose_on_grid(g, perturb, M, order=None, tol_trunc=TOL_TRUNC):
    """``compose`` per call on the grid of M points per axis: g's full band
    cube |k_i| <= K, K the largest extent of g's support on any axis, one
    copy per map, built for this call alone, summed by ``shift_sum``, the
    reality read by ``imag_bound`` and the gate on the observed spectrum."""
    m, n_out = g.m, (g.order if order is None else order)
    u = (perturb.with_order(n_out) if perturb.order > n_out else perturb).flat()
    bound, u = imag_bound(u), np.moveaxis(u.coeffs, -1, 1)
    c, n = g.flat().coeffs, g.order
    K = max(_support_band(c))
    band = np.moveaxis(c[(slice(None), slice(n, n + K + 1))
                         + (slice(n - K, n + K + 1),) * (m - 1)], -1, 2).copy()
    band[:, 1:] *= 2.0
    out = []
    for s in node_chunks(max(len(u), len(band)), M ** m):
        e = _circle_m1(_grid_values(u[s] if len(u) > 1 else u, M,
                                    bound[s] if len(u) > 1 else bound))
        vals = shift_sum(band[s] if len(band) > 1 else band, e, M)
        vals = vals.reshape((len(vals), g.ncomp) + (M,) * m)
        out.append(fit_grid(np.moveaxis(vals, 1, -1), n_out, m, tol_trunc,
                            "compose", None, c[s] if len(c) > 1 else c).coeffs)
    return np.concatenate(out)


def _horner_tail(c, w):
    """sum_{k=1}^{K} c_k w^k by Horner; c holds c_0, .., c_K along axis 1."""
    acc = c[:, -1] * w
    for k in range(c.shape[1] - 2, 0, -1):
        acc += c[:, k]
        acc *= w
    return acc


def _real_horner(c, w):
    """Re sum_{k=0}^{K} c_k w^k at points w, by Horner.

    ``c`` holds c_0, .., c_K along axis 1 and ``w`` broadcasts against each
    slice ``c[:, k]``.  On the unit circle a real Laurent series
    sum_{|k| <= K} a_k w^k, a_{-k} = conj(a_k), is this sum with c_0 = a_0
    and c_k = 2 a_k: one accumulator over the positive powers, no conj(w).
    """
    if c.shape[1] == 1:
        return np.array(np.broadcast_to(
            c[:, 0].real, np.broadcast_shapes(w.shape, c[:, 0].shape)))
    return _horner_tail(c, w).real + c[:, 0].real


def _laurent_horner(c, w):
    """sum_{|k| <= K} c_k w^k at any w != 0, by Horner in w and in 1/w.

    ``c`` holds c_{-K}, .., c_K along axis 1; ``w`` broadcasts as above.
    """
    K = c.shape[1] // 2
    out = np.broadcast_to(c[:, K], np.broadcast_shapes(
        w.shape, c[:, K].shape)).astype(complex)
    if K:
        out += _horner_tail(c[:, K:], w) + _horner_tail(c[:, K::-1], 1.0 / w)
    return out


def horner_series(coeffs, z):
    """``eval_series`` by one Horner step per row k_1: coeffs (B,) +
    (2N+1,)*m + (ncomp,), points z (B, P, m), either B 1; (B, P, ncomp)."""
    m, real = z.shape[-1], not np.iscomplexobj(z)
    c = coeffs
    if real:
        c = c[:, c.shape[1] // 2:].copy()
        c[:, 1:] *= 2.0
    c = np.moveaxis(c, -1, 2) if m == 2 else c[..., None]
    w = np.swapaxes(_unit_circle(z) if real else np.exp(TWO_PI * 1j * z), 1, 2)
    if m == 2:
        b, rows, ncomp, cols = c.shape
        powers = _band_powers(w[:, 1], cols // 2, real)
        c = (c.reshape(b, rows * ncomp, cols) @ powers).reshape(
            max(b, len(w)), rows, ncomp, -1)
    out = (_real_horner if real else _laurent_horner)(c, w[:, :1])
    return np.swapaxes(out, 1, 2)


def pullback_windows(u, K):
    """``pullback._pullback_windows`` with each column e_k o (id + u)
    sampled by one complex exp per point and window mode."""
    m, order = u.m, u.order
    modes = lattice_modes(K, m)
    k, W = np.array(modes).T, len(modes)
    comp = fit_sampled(lambda x, c: np.exp(TWO_PI * 1j * ((x + c.eval(x)) @ k)),
                       [u], order, tol_trunc=np.inf, context="pullback column",
                       width=W).flat().coeffs
    mats = comp[(slice(None),) + tuple(k + order)]
    leaks = (np.abs(comp).reshape(len(comp), -1, W).sum(axis=1)
             - np.abs(mats).sum(axis=1))
    return modes, mats.reshape(u.batch + (W, W)), leaks.reshape(u.batch + (W,))


def shift_sum(c, e, M):
    """``_shift_sum`` with its passes laid out map by map, from g's band as
    ``CompositionPlan`` trims it, (b, rows, ncomp[, cols]): for m = 1 the
    Horner state (B, ncomp, P); for m = 2 the band folded by ``_fold_band``
    and each map's modes (modes, P), E_d built up power by power, contracted
    by one product per map."""
    m, K = e.shape[1], c.shape[1] - 1
    B, a = max(len(c), len(e)), _grid_roots(M, 1)[2]
    if m == 2:
        modes, c = _fold_band(c)
        out = np.zeros((B, c.shape[1], e.shape[-1]))
        roots = _mode_roots(M, modes)
        for i in range(B if modes else 0):
            e1, e2 = e[i if len(e) > 1 else 0]
            phi = np.empty((len(modes), e.shape[-1]), dtype=complex)
            for j, (k1, k2) in enumerate(modes):
                E1, E2 = _power_m1(e1, k1), _power_m1(e2, abs(k2))
                if k2 < 0:
                    E2 = np.conjugate(E2)
                if k1 and k2:
                    phi[j] = E1 * E2
                    phi[j] += E1
                    phi[j] += E2
                    phi[j] *= roots[j]
                else:
                    phi[j] = (E1 if k1 else E2) * roots[j]
            out[i] = (c[i if len(c) > 1 else 0] @ phi).real
        return out
    row = c[..., None]
    ae = a * e[:, :1]
    w = ae + a
    p = np.zeros((B, c.shape[2], e.shape[-1]), dtype=complex)
    d = p.copy()
    p += row[:, K]
    for j in range(K - 1, -1, -1):
        d *= a
        d += ae * p
        p *= w
        p += row[:, j]
    return np.ascontiguousarray(d.real)


def _power_m1(e, k):
    """(1 + e)^k - 1, k >= 1, power by power as E + e (1 + E)."""
    E = e
    for _ in range(k - 1):
        nxt = e * E
        nxt += e
        nxt += E
        E = nxt
    return E


def column_shift_sum(c, e, M):
    """``_shift_sum`` summed by Horner over k_1 for every m: for m = 2 a
    table of the 2 K_2 + 1 columns E_k a_2^k, E_k = (1 + e_2)^k - 1, as
    (cols, B, P), against which the band contracts before the Horner pass
    p_j = C_j + w_1 p_{j+1}, d_j = D_j + a_1 (e_1 p_{j+1} + d_{j+1}) over
    its rows; c is the band (b, rows, ncomp[, cols])."""
    m, K = e.shape[1], c.shape[1] - 1
    B, a = max(len(c), len(e)), _grid_roots(M, 1)[2]
    P, ncomp = e.shape[-1], c.shape[2]
    if m == 1:
        row, D = c.transpose(1, 2, 0)[..., None], None
    else:
        b, rows, _, cols = c.shape
        k2, e2 = cols // 2, e[:, 1]
        q = np.empty((cols, len(e), P), dtype=complex)
        q[k2] = 0.0
        for k in range(k2 + 1, cols):
            np.multiply(e2, q[k - 1], out=q[k])
            q[k] += e2
            q[k] += q[k - 1]
        a2 = _grid_roots(M, k2)
        q.reshape(cols, len(e), M, M)[k2 + 1:] *= a2[k2 + 1:, None, None]
        np.conjugate(q[:k2:-1], out=q[:k2])
        flat = c.reshape(b, rows * ncomp, cols)
        if b == 1:
            D = (flat[0] @ q.reshape(cols, -1)).reshape(rows, ncomp, B, P)
        else:
            D = np.moveaxis((flat @ q.swapaxes(0, 1)).reshape(
                B, rows, ncomp, P), 0, 2)
        del q
        row = np.moveaxis((flat @ a2).reshape(b, rows, ncomp, M), 0, 2)[
            :, :, :, None]
        a = np.repeat(a, M)
    ae = a * e[:, 0]
    w = ae + a
    p = np.zeros((ncomp, B, P), dtype=complex)
    grid = p.reshape((ncomp, B) + (M,) * m)
    d = p.copy() if D is None else D[K].copy()
    if D is not None:
        p += D[K]
    grid += row[K]
    for j in range(K - 1, -1, -1):
        d *= a
        d += ae * p
        p *= w
        if D is not None:
            d += D[j]
            p += D[j]
        grid += row[j]
    return np.ascontiguousarray(d.real.swapaxes(0, 1))


def imag_bound(f):
    """1/2 sum_k |c_k - conj(c_{-k})| over the whole lattice, per map."""
    flip = (Ellipsis,) + (slice(None, None, -1),) * f.m + (slice(None),)
    defect = np.abs(f.coeffs[flip] - np.conj(f.coeffs))
    return 0.5 * defect.sum(axis=tuple(range(-f.m - 1, -1))).max(axis=-1)


def modes_to_json(coeffs, m, order):
    """Nonzero rows of one coefficient cube, in index order, as JSON entries."""
    idx = np.argwhere(np.any(coeffs, axis=-1))
    keys = (idx - order).tolist()
    if m == 1:
        keys = [k[0] for k in keys]
    rows = coeffs[tuple(idx.T)]
    pairs = np.stack([rows.real, rows.imag], axis=-1).tolist()
    if coeffs.shape[-1] == 1:
        return [[k, *p[0]] for k, p in zip(keys, pairs)]
    return [[k, p] for k, p in zip(keys, pairs)]


# ---------------------------------------------------------------------------
# the m = 1 solve path before its one |u| pass: the composition's glue,
# the sweep and the solve loop around it as they ran, for byte-for-byte
# comparisons
# ---------------------------------------------------------------------------

def _parent_majorants(coeffs, m, eps):
    """``majorants`` with its per-call cache key for the width."""
    w, dw = _weight_table(coeffs.shape[-2] // 2, m, tuple(np.ravel(eps).tolist()))
    shape = np.shape(eps) + (-1,)
    w, dw = w.reshape(shape), dw.reshape(shape)
    lattice = coeffs.shape[:coeffs.ndim - m - 1] + (-1,)
    absc = [np.abs(coeffs[..., i]).reshape(lattice)
            for i in range(coeffs.shape[-1])]
    nu = np.vecdot(reduce(np.maximum, absc), w)
    mu = reduce(np.maximum, [np.vecdot(a, dw) for a in absc])
    return nu, mu


def _parent_imag_reach(u, eps_in):
    nu, mu = _parent_majorants(u.coeffs, u.m, eps_in)
    const = np.maximum.reduce(np.abs(u.constant_part()), axis=-1)
    return eps_in + np.minimum(nu - const, eps_in * mu)


def _parent_imag_bound(u):
    c = u.coeffs.reshape(u.batch + (-1, u.ncomp))
    half = c.shape[-2] // 2
    defect = np.abs(c[..., half + 1:, :]
                    - np.conj(c[..., :half, :][..., ::-1, :])).sum(axis=-2)
    return np.maximum.reduce(defect + np.abs(c[..., half, :].imag), axis=-1)


def _parent_grid_values(u, M, imag_bound):
    m, n = u.shape[1], u.shape[-1] // 2
    vals = u[..., n:]
    if m == 2:
        dense = np.zeros(vals.shape[:2] + (M, n + 1), dtype=complex)
        dense[:, :, np.arange(-n, n + 1) % M] = vals
        vals = np.fft.ifft(dense, axis=2, norm="forward")
    vals = np.fft.irfft(vals, n=M, axis=-1, norm="forward").reshape(len(u), m, -1)
    if (imag_bound > 1e-9).any() and (imag_bound > 1e-9 * np.maximum(
            1.0, np.abs(vals).max(axis=(1, 2)))).any():
        raise RealityDefect("perturbation is not real on the real grid")
    return vals


def _parent_tail_ratio(spec, M, m, order, alias):
    weight, tail, _ = _spectrum_weights(M, m, order, spec.shape[-1] != M)
    amp = np.maximum.reduce(np.abs(spec), axis=1).reshape(len(spec), -1)
    total = amp @ weight
    mass = amp @ tail + (0.0 if alias is None else 2.0 * alias)
    return np.divide(mass, total, out=np.zeros_like(total), where=total > 0)


def _parent_fit_grid(values, order, m, tol_trunc, context, alias, base):
    """``fit_grid`` by its generic transposes and sample index alone."""
    batch = values.shape[:values.ndim - m - 1]
    vals = values.reshape((-1,) + values.shape[len(batch):]).transpose(
        (0, m + 1) + tuple(range(1, m + 1)))
    M, n = vals.shape[-1], order
    real = not np.iscomplexobj(vals)
    spec = (np.fft.rfft if real else np.fft.fft)(vals, axis=-1, norm="forward")
    if m == 2:
        spec = np.fft.fft(spec, axis=-2, norm="forward")
    if base is not None:
        tgt, src, shared = _sample_index(base.shape[-2] // 2, M, m,
                                         spec.shape[-1])
        flat = spec.reshape(spec.shape[:2] + (-1,))
        add = base.reshape(len(base), -1, base.shape[-1]).transpose(
            0, 2, 1)[..., src]
        if shared:
            np.add.at(flat, (Ellipsis, tgt), add)
        else:
            flat[..., tgt] += add
    ratio = _parent_tail_ratio(spec, M, m, n, alias)
    if not ratio.max() <= tol_trunc:
        raise TruncationBudgetExceeded(
            f"{context}: discarded tail ratio {ratio.max():.3e} > {tol_trunc:.1e}")
    k = np.arange(-n, n + 1) % M
    if real:
        half = spec[..., :n + 1] if m == 1 else spec[:, :, k, :n + 1]
        kept = np.empty(half.shape[:-1] + (2 * n + 1,), dtype=complex)
        kept[..., n:] = half
        kept[..., :n] = half[(Ellipsis,) + (slice(None, None, -1),) * (m - 1)
                             + (slice(n, 0, -1),)].conj()
    else:
        kept = spec[..., k] if m == 1 else spec[:, :, k[:, None], k]
    if m == 2:
        kept *= _spectrum_weights(M, m, n, real)[2]
    kept = kept.transpose((0,) + tuple(range(2, m + 2)) + (1,))
    return kept.reshape(batch + kept.shape[1:])


def _parent_plan_compose(plan, u, tol_trunc):
    """``CompositionPlan.compose`` on a flattened stack u, with the plan's
    bounds read from their own passes over u."""
    m, band, c = plan.m, plan.band, plan.coeffs
    imag = _parent_imag_bound(u)
    uc = u.coeffs.transpose((0, m + 1) + tuple(range(1, m + 1)))
    M, alias = plan.composition_grid(np.maximum.reduce(np.abs(u.coeffs)),
                                     np.maximum.reduce(imag), tol_trunc)
    out = []
    for s in node_chunks(max(len(uc), len(band)), M ** m):
        e = _circle_m1(_parent_grid_values(uc[s] if len(uc) > 1 else uc, M,
                                           imag[s] if len(uc) > 1 else imag))
        vals = _shift_sum(band[s] if len(band) > 1 else band, e, M,
                          plan.modes)
        vals = vals.reshape((len(vals), c.shape[-1]) + (M,) * m)
        out.append(_parent_fit_grid(
            vals.transpose((0, *range(2, m + 2), 1)), plan.order, m,
            tol_trunc, "compose", alias if len(alias) == 1 else alias[s],
            c[s] if len(c) > 1 else c))
    return np.concatenate(out)


def parent_compose(g, perturb, *, order=None, oversample=4,
                   tol_trunc=TOL_TRUNC, outer_scale=None, inner_scale=None):
    """``compose`` with its reach test by ``imag_reach`` before the plan,
    and its flattening, broadcasting and repetition of the stacks."""
    m = g.m
    if perturb.ncomp != m or perturb.m != m:
        raise ValueError("perturbation must be a self-map displacement")
    if outer_scale is not None:
        reach = float(_parent_imag_reach(perturb, inner_scale).max())
        if reach > outer_scale * (1 + 1e-12):
            raise DomainEscape(
                f"imaginary reach {reach:.6g} exceeds outer strip {outer_scale:.6g}")
    if not isinstance(g, CompositionPlan):
        n_out = g.order if order is None else order
        g = CompositionPlan(g, n_out, oversample * (2 * n_out + 1))
    n_out = g.order
    u = (perturb.with_order(n_out) if perturb.order > n_out else perturb).flat()
    out = _parent_plan_compose(g, u, tol_trunc)
    batch = np.broadcast_shapes(g.batch, perturb.batch)
    if len(out) < math.prod(batch):
        out = np.repeat(out, math.prod(batch), axis=0)
    return _wrap(out.reshape(batch + out.shape[1:]), m)


def _parent_node_values(pieces, taus):
    if pieces.shape[1] == 1:
        return np.repeat(pieces[:, 0], len(taus), axis=0)
    table = np.vander(taus, pieces.shape[1], increasing=True)
    return _table_product(table, pieces).reshape((-1,) + pieces.shape[2:])


def _parent_sup_distance(a, b, eps):
    return float(_parent_majorants(a - b, a.ndim - 2, eps)[0].max())


class ParentSweep:
    """``flow._PicardSweep`` with a plan per grid, the node tables built per
    call and one ``majorants`` call per norm of the defect pass."""

    def __init__(self, gamma, grid):
        gam = gamma.field
        self.gamma, self.grid = gamma, grid
        self.h = np.diff(grid.floats)
        self.field_pieces = pieces_on(gam.pieces, gam.grid, grid)
        self.nodes = _parent_node_values(self.field_pieces, FIT_NODES)
        self.plan = self._plan(FIT_NODES)
        self.gauss = None

    def _plan(self, taus):
        f = self.gamma.field
        return CompositionPlan(
            _wrap(_parent_node_values(self.field_pieces, taus), f.m),
            f.order, 4 * (2 * f.order + 1))

    def _compose(self, plan, u):
        eps = self.gamma.eps
        return parent_compose(plan, _wrap(u, plan.m), tol_trunc=TOL_TRUNC,
                              outer_scale=2 * eps, inner_scale=eps).coeffs

    def run(self, pieces):
        if not pieces.any():
            return self._integrate(self.nodes)
        return self._integrate(self._compose(
            self.plan, _parent_node_values(pieces, FIT_NODES)))

    def _integrate(self, kept):
        J, Q, shape = len(self.h), len(FIT_NODES), kept.shape[1:]
        anti = node_integral(kept, self.h).reshape(J, Q + 1, -1)
        snaps = np.zeros((J + 1, anti.shape[2]), dtype=complex)
        np.cumsum(anti.sum(axis=1), axis=0, out=snaps[1:])
        anti[:, 0] = snaps[:-1]
        return snaps.reshape((J + 1,) + shape), anti.reshape((J, Q + 1) + shape)

    def defect(self, pieces, out):
        if self.gauss is None:
            ts, constant = self.grid.floats, self.field_pieces.shape[1] == 1
            self.gauss = (self.grid.quadrature(ts[:-1], ts[1:])[2],
                          self.plan if constant else self._plan(GAUSS_NODES))
        w, plan = self.gauss
        u = _parent_node_values(pieces, GAUSS_NODES)
        vals = self._compose(plan, u)
        r = vals - _parent_node_values(_derivative(out, self.h), GAUSS_NODES)
        r = r.reshape(w.shape + r.shape[1:])
        m, eps = r.ndim - 3, self.gamma.eps
        local = (w * _parent_majorants(r, m, eps)[0]).sum(axis=1)
        err = (w.reshape(w.shape + (1,) * (m + 1)) * r).sum(axis=1)
        before = np.cumsum(err, axis=0) - err
        D = float((_parent_majorants(before, m, eps)[0] + local).max())
        return local, D, _parent_sup_distance(
            _parent_node_values(out, GAUSS_NODES), u, eps)

    def rounding(self, pieces, snaps):
        again = self.run(pieces * (1 + 2.0 ** -40))[0]
        return _parent_sup_distance(again, snaps, self.gamma.eps)


def parent_solve(gamma, max_step, tol_solve=1e-10, max_iter=200):
    """``solve_flow`` from the identity path on the grid it chooses, driving
    ``ParentSweep``: (grid, snapshots, pieces, iteration_log, discarded,
    residual)."""
    theta = gamma.theta_hat
    target = tol_solve * (1 - theta)
    grid = gamma.field.grid.refined(max_step)
    f = gamma.field
    shape = (2 * f.order + 1,) * f.m + (f.ncomp,)
    snaps = np.zeros((len(grid),) + shape, complex)
    pieces = np.zeros((len(grid) - 1, 1) + shape, complex)
    sweep = ParentSweep(gamma, grid)
    log, discarded, step, goal, settled = [], [], None, target, False
    while True:
        stalled = False
        for _ in range(max_iter - len(log)):
            new_snaps, new_pieces = sweep.run(pieces)
            diff = _parent_sup_distance(new_snaps, snaps, gamma.eps)
            ratio = diff / step if step else float("nan")
            noise_floor = 64 * np.finfo(float).eps * max(
                1.0, float(np.abs(new_snaps).max()))
            if step is not None:
                grew = diff > step and diff > 16 * noise_floor
                if not settled and (grew or (
                        diff > RATIO_FLOOR and np.isfinite(ratio)
                        and ratio > theta + RATIO_SLACK)):
                    discarded.append((len(log) + 1, diff, ratio,
                                      sweep.rounding(pieces, new_snaps)))
                    stalled = True
                    break
                if grew:
                    raise NonContraction(f"observed ratio {ratio:.3f} >= 1")
            inp, snaps, pieces, step = pieces, new_snaps, new_pieces, diff
            log.append((len(log) + 1, diff, ratio))
            if diff <= max(goal, noise_floor):
                break
        else:
            raise ContractionStall(f"no convergence within {max_iter} iterations")
        local, defect, inside = sweep.defect(inp, pieces)
        last = float(np.max([step, inside]))
        residual = (last + defect) / (1 - theta)
        if residual <= tol_solve:
            break
        finer = grid.halved(local / (sweep.h * target))
        if finer != grid:
            pieces = pieces_on(pieces, grid, finer)
            snaps = np.concatenate([pieces[:, 0], snaps[-1:]])
            grid, step, goal = finer, None, target
            sweep = ParentSweep(gamma, grid)
        elif stalled:
            settled = True
        elif defect < target and last > max(target - defect, noise_floor):
            goal = (target - defect) * step / last
        else:
            break
    return grid, snaps, pieces, log, discarded, residual
