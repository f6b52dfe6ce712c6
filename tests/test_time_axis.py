"""Batched time-axis paths against their per-node reference loops.

Each function that once built one FourierMap and ran one inversion per
time node now evaluates, inverts and fits all of its nodes at once.  The
loops live on in ``_reference_loops`` and every batched path must match its
loop to 1e-13, on m = 1 and on m = 2.
"""

from fractions import Fraction

import numpy as np
import pytest

from torusflow import (ACPath, AdmissibleField, AffineRule, FourierMap,
                       LocalAddition, SelfCompositionRule, TimeDependentField,
                       TimeGrid, ac_postcompose, chart_roundtrip_defect,
                       evol_left, evol_right, find_delta0, flow_to_chart,
                       identity_path, integrate_primitive, odot,
                       pointwise_solution, pullback_path, solve_flow,
                       verify_evolution_pointwise)
from torusflow import fourier
from torusflow.flow import restriction_consistency
from torusflow.group import _field_nu_integral, ad_transport_integral

import _reference_loops as ref
from _readings import field_from_profile
from conftest import EPS, cosine_map, sine_map

TOL = 1e-13


def _m2_map(order, a, b, shift=0.0):
    """A coupled real field on T^2 with modes (1, 0), (0, 1) and (1, 1)."""
    return FourierMap.from_modes({(1, 0): [0.0, -0.5j * a],
                                  (0, 1): [0.5 * b, 0.0],
                                  (1, 1): [0.2j * a, 0.3 * b + shift]},
                                 order, m=2)


def _fields(m):
    """(gamma, eta): a two-piece step field and a cubic-in-time field."""
    grid = TimeGrid((Fraction(0), Fraction(3, 8), Fraction(1)))
    if m == 1:
        step = [sine_map(0.02, 16), sine_map(0.005, 16, mode=2)]
        base = cosine_map(0.02, 16)
    else:
        step = [_m2_map(6, 1e-4, 8e-5), _m2_map(6, 8e-5, 1e-4, 5e-5)]
        base = _m2_map(6, 1e-4, 6e-5)
    gamma = AdmissibleField.certify(
        TimeDependentField.step(grid, step, scale=0.2), EPS)
    profile = field_from_profile(
        base, lambda t: 1.0 + 0.5 * t * t - 0.3 * t ** 3, scale=0.2, n_pieces=4)
    return gamma, AdmissibleField.certify(profile, EPS)


@pytest.fixture(scope="module", params=[1, 2], ids=["m1", "m2"])
def fields(request):
    return _fields(request.param)


def _close(got, want):
    return np.abs(np.asarray(got) - np.asarray(want)).max() <= TOL


def test_left_snapshots_match_snapshot_loop(fields):
    evol = evol_left(fields[0])
    got = np.stack([u.coeffs for u in evol.snapshots])
    want = np.stack([u.coeffs for u in ref.left_snapshots(evol)])
    assert np.abs(got - want).max() <= 1e-12
    assert abs(evol.derivative_residual()
               - ref.left_derivative_residual(evol)) <= 1e-12


def test_odot_matches_node_loop(fields):
    gamma, eta = fields
    got = odot(gamma, eta)
    want = ref.odot(gamma, eta, solve_flow(eta.negated()).grid
                    .merged(gamma.field.grid))
    assert got.grid == want.grid
    assert _close(np.stack(got.pieces), np.stack(want.pieces))


def test_ad_transport_integral_matches_node_loop(fields):
    gamma, eta = fields
    for t in (0.0, 0.6):
        assert _close(ad_transport_integral(eta, gamma.field, t).coeffs,
                      ref.ad_transport_integral(eta, gamma.field, t).coeffs)


def test_ad_transport_integral_is_chunk_invariant(fields):
    """One interval per memory chunk changes no bit of the integral: the
    sampler joins its chunk fits in one memory layout."""
    gamma, eta = fields
    want = ad_transport_integral(eta, gamma.field, 0.6).coeffs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "_CHUNK_POINTS", 1)
        got = ad_transport_integral(eta, gamma.field, 0.6).coeffs
    assert np.array_equal(got, want)


@pytest.mark.parametrize("side", ["right", "left"])
def test_verify_pointwise_matches_node_loop(fields, side):
    gamma, _ = fields
    evol = (evol_right if side == "right" else evol_left)(gamma)
    probes = np.random.default_rng(3).uniform(0, 1, (5, gamma.field.m))
    rep = verify_evolution_pointwise(evol, gamma, probes)
    want = ref.verify_rows(evol, gamma, probes)
    assert [r[:2] for r in rep.rows] == [r[:2] for r in want]
    assert _close([r[2] for r in rep.rows], [r[2] for r in want])
    assert rep.check.ok


def test_field_nu_integral_matches_node_loop(fields):
    for gamma in fields:
        a = np.array([0.0, 0.1, 0.3, 0.5, 0.0])
        b = np.array([1.0, 0.2, 0.45, 0.5, 0.375])
        want = [ref.field_nu_integral(gamma, x, y) for x, y in zip(a, b)]
        assert _close(_field_nu_integral(gamma, a, b), want)


def test_lp_norm_matches_node_loop(fields):
    for gamma in fields:
        for p in (1, 2, "inf"):
            for kind in ("nu", "beta"):
                got = gamma.field.lp_norm(p, kind, 2 * EPS)
                assert abs(got - ref.lp_norm(gamma.field, p, kind, 2 * EPS)) \
                    <= TOL * max(1.0, got)


def test_pointwise_solution_matches_node_loop(fields):
    gamma, _ = fields
    flow = solve_flow(gamma)
    y0 = np.full(gamma.field.m, 0.37)
    for t0 in (0.0, 0.41, 0.5):     # 0.5: a solver breakpoint
        traj = pointwise_solution(flow, t0, y0)
        pts, resid = ref.pointwise_solution(flow, t0, y0)
        assert _close(traj.points, pts) and _close(traj.residuals, resid)
        assert traj.check.ok


def test_flow_to_chart_matches_node_loop(fields):
    gamma, _ = fields
    m, order = gamma.field.m, gamma.field.order
    term = (sine_map(0.05, order) if m == 1
            else _m2_map(order, 0.05, 0.04))
    flow = solve_flow(gamma)
    for terms in ([], [((2,) if m == 1 else (2, 0), term)]):
        alpha = LocalAddition(terms, m=m, order=order)
        cert = find_delta0(alpha, EPS)
        got, want = flow_to_chart(flow, alpha, cert), ref.flow_to_chart(flow, alpha)
        assert _close(np.stack([v.coeffs for v in got.values]),
                      np.stack([v.coeffs for v in want.values]))
        assert _close(np.stack(got.derivative.pieces),
                      np.stack(want.derivative.pieces))
        assert chart_roundtrip_defect(flow, alpha, got) <= 1e-9


@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_pullback_path_matches_node_loop(fields, t0):
    gamma, _ = fields
    m, order = gamma.field.m, gamma.field.order
    tests = [FourierMap.from_modes({1: [0.5]} if m == 1 else {(1, 0): [0.5]},
                                   order, m=m, ncomp=1),
             FourierMap.from_modes({2: [-0.25j]} if m == 1
                                   else {(1, 1): [-0.25j]}, order, m=m, ncomp=1)]
    K = 3
    rep = pullback_path(gamma, t0, K, test_functions=tests)
    mats, ac_rows, transport_rows = ref.pullback_path(gamma, t0, K, tests)
    assert _close(np.stack([A.matrix for A in rep.matrices]),
                  np.stack([A.matrix for A in mats]))
    assert _close(np.stack([A.column_leakage for A in rep.matrices]),
                  np.stack([A.column_leakage for A in mats]))
    assert [r[4] for r in rep.ac_rows] == [r[4] for r in ac_rows]
    assert _close([r[2:4] for r in rep.ac_rows], [r[2:4] for r in ac_rows])
    assert [r[:2] for r in rep.transport_rows] == [r[:2] for r in transport_rows]
    assert _close([r[2] for r in rep.transport_rows],
                  [r[2] for r in transport_rows])


def test_stack_forms_equal_snapshot_walks(fields):
    """Paths stored as one array give exactly the numbers of the walks over
    their snapshots: the solver's step distances (tolerance and pinned
    sweeps, on the grid of a solve), its defect estimate (to rounding), sup
    distances, reaches, the restriction discrepancy, closed-form primitives
    (pieces of mixed degree) and the integral defect."""
    gamma, eta = fields
    adaptive = solve_flow(gamma)
    solved, pinned = (solve_flow(gamma, grid=adaptive.grid),
                      solve_flow(gamma, fixed_iters=3, grid=adaptive.grid))
    for path in (solved, pinned):
        it = identity_path(gamma, grid=adaptive.grid)
        for step, diff, ratio in path.iteration_log:
            prev, it = it, solve_flow(gamma, start=it, fixed_iters=1)
            assert diff == ref.step_distance(it.snapshots, prev.snapshots, EPS)
        assert np.array_equal(path.snapshots.coeffs, it.snapshots.coeffs)
        assert np.array_equal(path.pieces, it.pieces)
        if path is solved:
            want = ref.defect_bound(gamma, prev, solved,
                                    solved.iteration_log[-1][1])
            assert abs(solved.residual - want) <= 1e-6 * want
    assert np.isnan([r for *_, r in pinned.iteration_log]).all()
    assert pinned.residual == pinned.iteration_log[-1][1]

    assert solved.sup_distance(pinned) == ref.sup_distance(solved, pinned, EPS)
    assert solved.imag_reach_max() == ref.imag_reach_max(solved, EPS / 2)
    g_delta = AdmissibleField.certify(gamma.field, EPS / 2)
    assert restriction_consistency(adaptive, EPS / 2).discrepancy == \
        ref.restriction_discrepancy(
            adaptive, solve_flow(g_delta, grid=adaptive.grid))

    f = gamma.field
    mixed = TimeDependentField(f.grid, [f.pieces[0], np.concatenate(
        [f.pieces[1], 0.5 * f.pieces[1], -0.25 * f.pieces[1]])], f.scale)
    for field in (f, eta.field, mixed):
        prim = integrate_primitive(field)
        want = np.stack([v.coeffs for v in ref.integrate_primitive_values(field)])
        assert np.array_equal(prim.values.coeffs, want)
        off = ACPath(prim.grid, prim.values.coeffs * (1 + 1e-3),
                     prim.derivative, check=False)
        for path in (prim, off):
            assert path.integral_defect() == ref.integral_defect(path)
        assert off.integral_defect() > 0


def _ac_paths(gamma, eta):
    """Paths of every layout: primitives of a step field, a cubic field and
    a mixed-degree field, a one-interval path over the step field's finer
    grid, and a self-composed path on the refined grid."""
    f = gamma.field
    mixed = TimeDependentField(f.grid, [f.pieces[0], np.concatenate(
        [f.pieces[1], 0.5 * f.pieces[1], -0.25 * f.pieces[1]])], f.scale)
    paths = [integrate_primitive(g) for g in (f, eta.field, mixed)]
    zero = FourierMap.zero(f.order, f.m, f.ncomp)
    paths.append(ACPath(TimeGrid.uniform(1),
                        [zero, paths[0].values[-1]], f))
    paths.append(ac_postcompose(paths[0], SelfCompositionRule(
        inner_scale=EPS, outer_scale=4 * EPS)))
    return paths


def test_acpath_reader_equals_the_reintegrating_reader(fields):
    """The primitive an ACPath keeps as pieces reads the bits of the reader
    that re-integrates its derivative on every call, at times given as a
    1-D and as a 2-D array, and every path type reads maps of the batch
    shape of the times."""
    gamma, eta = fields
    times = np.concatenate([np.linspace(0.0, 1.0, 9), [0.3, 0.375, 0.99]])
    for path in _ac_paths(gamma, eta):
        for t in (times, times.reshape(3, 4)):
            got = path.values_at(t)
            assert isinstance(got, FourierMap) and got.batch == t.shape
            assert np.array_equal(got.coeffs, ref.ac_values_at(path, t))
    flow = solve_flow(gamma, fixed_iters=1)
    for t in (0.3, times, times.reshape(3, 4)):
        for read in (gamma.field.values_at, flow.u_at_many,
                     integrate_primitive(gamma.field).values_at):
            got = read(t)
            assert isinstance(got, FourierMap) and got.batch == np.shape(t)


def _same(got, pieces):
    """The pieces array equals the per-piece list, each piece zero-padded."""
    want = np.zeros_like(got)
    for j, piece in enumerate(pieces):
        want[j, :len(piece)] = piece
    return len(got) == len(pieces) and np.array_equal(got, want)


def test_array_forms_equal_piece_loops(fields):
    """The field algebra on the pieces array and the postcomposition on
    whole stacks equal their per-piece and per-map forms exactly, for
    fields of one degree and of mixed degree (self-composition to 1e-13,
    and L^p norms of polynomial fields to rounding)."""
    gamma, eta = fields
    f = gamma.field
    mixed = TimeDependentField(f.grid, [f.pieces[0], np.stack(
        [f.pieces[1, 0], -0.5 * f.pieces[1, 0], 0.25 * f.pieces[0, 0]])], f.scale)
    assert mixed.pieces.shape[1] == 3
    fine = TimeGrid((0, Fraction(1, 5), Fraction(1, 2), Fraction(7, 8), 1))
    b = (cosine_map(0.01, f.order, mode=2) if f.m == 1
         else _m2_map(f.order, 1e-4, 5e-5))
    for field in (f, eta.field, mixed):
        got, (grid, want) = field.on_grid(fine), ref.on_grid(field, fine)
        assert got.grid == grid and _same(got.pieces, want)
        for other, sign in ((eta.field, 1.0), (mixed, -1.0)):
            got = field + other if sign > 0 else field - other
            grid, want = ref.binary(field, other, sign)
            assert got.grid == grid and _same(got.pieces, want)
        assert _same(field.time_reversed().pieces, ref.time_reversed(field))
        for t_end in (Fraction(3, 8), Fraction(5, 7)):
            assert _same(field.restricted_rescaled(t_end).pieces,
                         ref.restricted_rescaled(field, t_end))
        # node_values sums a polynomial piece by its power table, the oracle
        # by Horner: within 1e-15 of the norm of the moduli sum_d tau^d |p_d|
        size = TimeDependentField(field.grid, np.abs(field.pieces).astype(complex),
                                  field.scale)
        for p in (1, 2, "inf"):
            for kind in ("nu", "beta"):
                got = field.lp_norm(p, kind, 2 * EPS)
                want = ref.lp_norm_nodes(field, p, kind, 2 * EPS)
                assert got == want if field is f else \
                    abs(got - want) <= 1e-15 * size.lp_norm(p, kind, 2 * EPS)
        path = integrate_primitive(field)
        for rule in (AffineRule(1.0), AffineRule(0.5, b)):
            got, want = ac_postcompose(path, rule), ref.ac_postcompose(path, rule)
            assert np.array_equal(got.values.coeffs, want.values.coeffs)
            assert np.array_equal(got.derivative.pieces, want.derivative.pieces)
    rule = SelfCompositionRule(inner_scale=EPS, outer_scale=4 * EPS)
    path = integrate_primitive(mixed)
    got = ac_postcompose(path, rule)
    want = ref.ac_postcompose(path, rule, grid=got.grid)
    assert _close(got.values.coeffs, want.values.coeffs)
    assert _close(got.derivative.pieces, want.derivative.pieces)
