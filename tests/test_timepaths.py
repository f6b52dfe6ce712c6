"""Time-grid fields: L^p seminorms, primitives, chain-rule postcomposition."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusflow
from torusflow import (ACPath, AffineRule, FourierMap, MapStack,
                       ScaleMismatch, SelfCompositionRule, TimeDependentField,
                       TimeGrid, ac_postcompose, integrate_primitive)
from torusflow.errors import DomainEscape
from torusflow.fourier import _modes_to_json

from _readings import field_from_profile
from conftest import cosine_map, random_real_map, sine_map, src_module_names


def linear_in_time(c: FourierMap, scale=0.2) -> TimeDependentField:
    piece = np.stack([np.zeros_like(c.coeffs), c.coeffs])
    return TimeDependentField(TimeGrid.uniform(1), [piece], scale)


# -- grids -------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid((0, Fraction(1, 2), Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        TimeGrid((0, Fraction(1, 2)))
    for bp in ((), (0,)):
        with pytest.raises(ValueError, match="grid must run from 0 to 1"):
            TimeGrid(bp)
    with pytest.raises(ValueError, match="at least one interval"):
        TimeGrid.uniform(0)


def test_one_grid_policy_sizes_every_solver_grid():
    """No module fixes a time step of its own: no Fraction(1, 64) and no
    MAX_STEP anywhere in the package, ``refined`` takes only a caller's
    ``max_step`` cap (the solver's start grid), and only timepaths.py,
    which holds the grid policy, names its floor."""
    for path in sorted(Path(torusflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", None))
            name = getattr(node, "id", getattr(node, "attr", None))
            assert name != "MAX_STEP", where
            assert name != "STEP_FLOOR" or path.name == "timepaths.py", where
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = [getattr(a, "value", getattr(a, "id", None)) for a in node.args]
            assert not (called == "Fraction" and args == [1, 64]), where
            assert called != "refined" or args == ["max_step"], where


def test_grid_refine_and_merge():
    g = TimeGrid((0, Fraction(1, 3), 1)).refined(Fraction(1, 4))
    assert max(g.steps) <= Fraction(1, 4)
    merged = g.merged(TimeGrid.uniform(5))
    assert set(TimeGrid.uniform(5).breakpoints) <= set(merged.breakpoints)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_quadrature_weights_and_exactness(data):
    """Per owner the weights sum to b - a and t^7 integrates exactly, on
    random grids and intervals: empty ones, endpoints on breakpoints and
    [0, 1] included."""
    inner = data.draw(st.sets(st.fractions(0, 1, max_denominator=64), max_size=12))
    grid = TimeGrid((0,) + tuple(sorted(inner - {0, 1})) + (1,))
    ends = st.one_of(st.sampled_from(list(grid.floats)), st.floats(0, 1))
    pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=6))
    bp = float(grid.breakpoints[len(grid) // 2])
    a = np.array([min(p) for p in pairs] + [0.0, 0.3, bp])
    b = np.array([max(p) for p in pairs] + [1.0, 0.3, bp])
    i, s, w = grid.quadrature(a, b)
    assert s.shape == w.shape == (len(i), 4)

    def per_owner(values):
        return np.bincount(i, weights=(w * values).sum(axis=1), minlength=len(a))
    assert np.abs(per_owner(1.0) - (b - a)).max() <= 1e-15
    assert np.abs(per_owner(s ** 7) - (b ** 8 - a ** 8) / 8).max() <= 1e-15


def test_gauss_rule_lives_in_timepaths_only():
    """Only timepaths.py names the Gauss-Legendre table; every other module
    integrates in time through TimeGrid.quadrature."""
    for name, names in src_module_names():
        used = names & {"_GL4_X", "_GL4_W"}
        assert not used or name == "timepaths.py", (name, used)


def _node_table_cases():
    """Random pieces of degree 0-4 on grids of 1, 3 and 8 intervals, for
    m = 1 and m = 2: (grid, pieces)."""
    rng = np.random.default_rng(29)
    for J in (1, 3, 8):
        for m in (1, 2):
            for degree in range(5):
                shape = (J, degree + 1) + (9,) * m + (m,)
                yield TimeGrid.uniform(J), (rng.normal(size=shape)
                                            + 1j * rng.normal(size=shape))


def _close(got, want, scale):
    """got within 1e-15 of want, relative to ``scale``: per entry the sum of
    the moduli of the terms that make it."""
    return got.shape == want.shape and (np.abs(got - want) <= 1e-15 * scale).all()


def test_node_tables_read_what_piece_values_reads():
    """``node_values`` reads every piece at the collocation nodes and at the
    Gauss nodes of each interval as ``piece_values`` does at those local
    times, within 1e-15 relative to sum_d tau^d |p_d|, and constant pieces
    exactly; ``TimeGrid.nodes`` gives their times, and the Gauss nodes are
    those of ``TimeGrid.quadrature``."""
    from torusflow.timepaths import (FIT_NODES, GAUSS_NODES, node_values,
                                     piece_values)
    for grid, pieces in _node_table_cases():
        size = np.abs(pieces).astype(complex)
        J = len(pieces)
        for taus in (FIT_NODES, GAUSS_NODES):
            j, tau = np.repeat(np.arange(J), 4), np.tile(taus, J)
            assert _close(node_values(pieces, taus),
                          piece_values(pieces, j, tau),
                          piece_values(size, j, tau).real)
            assert np.array_equal(node_values(pieces[:, :1], taus),
                                  piece_values(pieces[:, :1], j, tau))
            assert np.allclose(grid.nodes(taus), grid.floats[j] + np.diff(
                grid.floats)[j] * tau, rtol=1e-15, atol=0)
        ts = grid.floats
        quad = grid.quadrature(ts[:-1], ts[1:])[1].ravel()
        assert np.array_equal(grid.nodes(GAUSS_NODES), quad)


def test_node_integral_folds_the_cubic_fit_into_the_antiderivative():
    """One (5, 4) table takes the node values of each interval to h_j times
    the antiderivative of their cubic, as fitting and integrating do,
    within 1e-15 relative to the sum of the moduli of the terms."""
    from torusflow.timepaths import (FIT_NODES, _FIT_VANDER_INV, _antiderivative,
                                     fit_poly3, node_integral, node_values)
    for grid, pieces in _node_table_cases():
        values, h = node_values(pieces, FIT_NODES), np.diff(grid.floats)
        size = np.abs(values).reshape(len(h), 4, -1)
        size = (np.abs(_FIT_VANDER_INV) @ size).reshape(
            (len(h), 4) + values.shape[1:])
        assert _close(node_integral(values, h),
                      _antiderivative(fit_poly3(values), h),
                      _antiderivative(size, h).real)


def test_time_axis_readers_leave_group_pullback_and_charts():
    """group.py, pullback.py and charts.py read paths by time, as maps:
    they name neither the piece evaluator nor the order padding."""
    for name, names in src_module_names():
        if name in ("group.py", "pullback.py", "charts.py"):
            assert not names & {"piece_values", "_embed"}, name


def _calls(tree, name) -> set:
    """The calls of ``name`` (a function or a method) under ``tree``."""
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}


def test_fixed_nodes_have_one_reader():
    """Pieces are read at fixed local nodes by ``node_values`` alone: in the
    package only ``read_pieces``, the reader at arbitrary times, calls
    ``piece_values``, and no module but timepaths.py builds a table of
    powers (``vander``) or multiplies by one (``_table_product``)."""
    for path in sorted(Path(torusflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set().union(*(
            _calls(f, "piece_values") for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "read_pieces"))
        assert _calls(tree, "piece_values") == allowed, path.name
        if path.name != "timepaths.py":
            assert not _calls(tree, "vander") | _calls(tree, "_table_product"), \
                path.name


def test_field_rows_must_be_real_at_every_time():
    x = sine_map(0.02, order=4).coeffs.copy()
    x[5] += 0.01                # mode 1 without its conjugate mode -1
    piece = np.stack([x, -x])   # (1 - tau) x: zero at tau = 1 only
    with pytest.raises(ValueError, match="reality"):
        TimeDependentField(TimeGrid.uniform(1), [piece], 0.2)
    real = sine_map(0.02, order=4).coeffs
    TimeDependentField(TimeGrid.uniform(1), [np.stack([real, -real])], 0.2)


# -- L^p norms ----------------------------------------------------------------

def test_lp_norm_zero_field():
    z = TimeDependentField.constant(FourierMap.zero(8, 1, 1), 0.2)
    assert z.lp_norm(1, "nu", 0.1) == 0.0


def test_lp_norm_step_field():
    c = FourierMap.constant([0.2], 8)
    f = TimeDependentField.step(TimeGrid((0, Fraction(1, 2), 1)), [c, c], 0.2)
    assert f.lp_norm(1, "nu", 0.1) == pytest.approx(0.2)


def test_lp_norm_linear_profile():
    c = FourierMap.constant([0.3], 8)
    f = linear_in_time(c)
    assert f.lp_norm(1, "nu", 0.1) == pytest.approx(0.15)
    assert f.lp_norm(2, "nu", 0.1) == pytest.approx(0.3 / np.sqrt(3))
    assert f.lp_norm("inf", "nu", 0.1) == pytest.approx(0.3)


def test_lp_norm_scale_mismatch():
    f = TimeDependentField.constant(sine_map(), scale=0.2)
    with pytest.raises(ScaleMismatch):
        f.lp_norm(1, "nu", 0.3)


def test_holder_monotone():
    rng = np.random.default_rng(0)
    for _ in range(10):
        vals = [random_real_map(rng, 8) for _ in range(3)]
        f = TimeDependentField.step(
            TimeGrid((0, Fraction(1, 4), Fraction(2, 3), 1)), vals, 0.2)
        n1 = f.lp_norm(1, "beta", 0.1)
        n2 = f.lp_norm(2, "beta", 0.1)
        ninf = f.lp_norm("inf", "beta", 0.1)
        assert n1 <= n2 * (1 + 1e-12) <= ninf * (1 + 1e-12)


# -- primitives ------------------------------------------------------------------

def test_primitive_of_constant():
    c = FourierMap.constant([0.4], 8)
    path = integrate_primitive(TimeDependentField.constant(c, 0.2))
    assert np.abs(path.value_at(1.0).coeffs - c.coeffs).max() < 1e-15
    assert np.abs(path.value_at(0.25).coeffs - 0.25 * c.coeffs).max() < 1e-15


def test_primitive_cancellation():
    c = random_real_map(np.random.default_rng(1), 8)
    f = TimeDependentField.step(TimeGrid((0, Fraction(1, 2), 1)), [c, -1 * c],
                                0.2)
    path = integrate_primitive(f)
    assert np.abs(path.values[-1].coeffs).max() < 1e-16


def test_primitive_sinusoidal_profile():
    v = FourierMap.from_modes({1: [0.1]}, 8)
    f = field_from_profile(v, lambda t: np.sin(2 * np.pi * t),
                                        scale=0.2, n_pieces=64)
    path = integrate_primitive(f)
    for t in (0.21, 0.5, 0.77, 1.0):
        want = (1 - np.cos(2 * np.pi * t)) / (2 * np.pi)
        got = path.value_at(t).mode(1)[0] / v.mode(1)[0]
        assert abs(got - want) < 1e-8


def test_primitive_invariant_and_midpoint_recovery():
    rng = np.random.default_rng(2)
    vals = [random_real_map(rng, 8) for _ in range(4)]
    f = TimeDependentField.step(TimeGrid.uniform(4), vals, 0.2)
    path = integrate_primitive(f)
    assert path.integral_defect() < 1e-15
    # exact 5-point stencil differentiation inside a piece
    h = 0.01
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)
    offsets = np.array([-2, -1, 1, 2]) * h
    for j in range(4):
        mid = (j + 0.5) / 4
        fd = sum(s * path.value_at(mid + o).coeffs
                 for s, o in zip(stencil, offsets))
        assert np.abs(fd - f.value_at(mid).coeffs).max() < 1e-12


# -- field algebra -----------------------------------------------------------------

def test_grid_merge_on_subtraction():
    rng = np.random.default_rng(3)
    f = TimeDependentField.step(TimeGrid((0, Fraction(1, 3), 1)),
                                [random_real_map(rng, 8)] * 2, 0.2)
    g = TimeDependentField.step(TimeGrid((0, Fraction(1, 2), 1)),
                                [random_real_map(rng, 8)] * 2, 0.2)
    d = f - g
    assert Fraction(1, 3) in d.grid.breakpoints
    assert Fraction(1, 2) in d.grid.breakpoints
    t = 0.4
    want = f.value_at(t).coeffs - g.value_at(t).coeffs
    assert np.abs(d.value_at(t).coeffs - want).max() < 1e-14


def _modes_to_json_loop(coeffs, m, order):
    """Reference serialisation: one nonzero row at a time, in index order."""
    entries = []
    for idx in np.ndindex(*coeffs.shape[:-1]):
        row = coeffs[idx]
        if not np.any(row):
            continue
        k = [int(i - order) for i in idx]
        key = k[0] if m == 1 else k
        if coeffs.shape[-1] == 1:
            entries.append([key, float(row[0].real), float(row[0].imag)])
        else:
            entries.append([key, [[float(v.real), float(v.imag)] for v in row]])
    return entries


@pytest.mark.parametrize("m,ncomp", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_modes_to_json_matches_loop(m, ncomp):
    """One pass over a stack gives each cube the entries of the row loop;
    a cube without a nonzero row (the first and third) gives []."""
    order = 5
    rng = np.random.default_rng(10 * m + ncomp)
    shape = (4,) + (2 * order + 1,) * m + (ncomp,)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs[rng.random(shape[:-1]) < 0.6] = 0.0           # zero rows
    flat = coeffs.reshape(-1)
    flat[rng.random(flat.size) < 0.2] = complex(-0.0, 0.0)
    flat[rng.random(flat.size) < 0.2] = complex(1.5, -0.0)
    coeffs[(slice(None),) + (order,) * m] = complex(-0.0, -0.0)   # signed zeros
    coeffs[[0, 2]] = 0.0
    want = [json.dumps(_modes_to_json_loop(c, m, order), indent=1)
            for c in coeffs]
    got = [json.dumps(e, indent=1) for e in _modes_to_json(coeffs, m, order)]
    assert got == want
    assert want[0] == want[2] == "[]" and "-0.0" in want[1]
    assert _modes_to_json(np.zeros((0,) + shape[1:], complex), m, order) == []


# -- postcomposition -----------------------------------------------------------------

def test_postcompose_identity():
    path = integrate_primitive(
        TimeDependentField.constant(sine_map(0.05, 8), 0.2))
    out = ac_postcompose(path, AffineRule(1.0))
    for t in (0.3, 0.8):
        assert np.abs(out.value_at(t).coeffs - path.value_at(t).coeffs).max() \
            < 1e-15


def test_postcompose_doubling():
    path = integrate_primitive(
        TimeDependentField.constant(sine_map(0.05, 8), 0.2))
    out = ac_postcompose(path, AffineRule(2.0))
    t = 0.6
    assert np.abs(out.value_at(t).coeffs - 2 * path.value_at(t).coeffs).max() \
        < 1e-15
    assert np.abs(out.derivative.value_at(t).coeffs
                  - 2 * path.derivative.value_at(t).coeffs).max() < 1e-15


def test_postcompose_affine_offset_exact():
    b = FourierMap.from_modes({2: [0.1j]}, 8)
    path = integrate_primitive(
        TimeDependentField.constant(sine_map(0.05, 8), 0.2))
    out = ac_postcompose(path, AffineRule(0.5, b))
    t = 0.4
    want = 0.5 * path.value_at(t).coeffs + b.coeffs
    assert np.abs(out.value_at(t).coeffs - want).max() < 1e-15


def test_postcompose_offset_of_a_higher_order_is_readable():
    """Snapshots of a higher order than the derivative are read at their
    own order: 0.5 * primitive + b, b of order 32 over a field of order 16."""
    b = cosine_map(0.01, 32, mode=20)
    path = integrate_primitive(
        TimeDependentField.constant(sine_map(0.05, 16), 0.2))
    out = ac_postcompose(path, AffineRule(0.5, b))
    assert out.values.order == 32 and out.derivative.order == 16
    for t in (0.0, 0.17, 0.4, 0.9, 1.0):
        want = 0.5 * path.value_at(t).with_order(32).coeffs + b.coeffs
        assert np.abs(out.value_at(t).coeffs - want).max() < 1e-15


def test_postcompose_self_composition_chain_rule():
    # chain-rule derivative against centered differences of composed values
    rule = SelfCompositionRule(inner_scale=0.05, outer_scale=0.2)
    gamma = TimeDependentField.constant(sine_map(0.02, 16), 0.2)
    path = integrate_primitive(gamma)
    out = ac_postcompose(path, rule)
    assert out.integral_defect() < 1e-8
    h = 1e-4
    for t in (0.33, 0.71):
        # the rule answers for a stack of maps, here the stack t - h, t + h
        fminus, fplus = rule.value(MapStack(path.values_at([t - h, t + h])))
        fd = (1.0 / (2 * h)) * (fplus - fminus)
        got = out.derivative.value_at(t)
        assert np.abs(fd.coeffs - got.coeffs).max() < 1e-6


def test_postcompose_domain_escape():
    rule = SelfCompositionRule(inner_scale=0.2, outer_scale=0.21)
    big = TimeDependentField.constant(sine_map(0.5, 8), 0.4)
    path = integrate_primitive(big)
    with pytest.raises(DomainEscape):
        ac_postcompose(path, rule)


def test_acpath_with_a_derivative_on_a_finer_grid():
    # a one-interval path whose derivative steps at t = 1/2: the merged
    # pieces are summed per interval of the path
    halves = TimeGrid((0, Fraction(1, 2), 1))
    fine = TimeDependentField.step(
        halves, [sine_map(0.05, 8), cosine_map(0.04, 8, mode=2)], 0.2)
    exact = integrate_primitive(fine)
    path = ACPath(TimeGrid.uniform(1),
                  [FourierMap.zero(8, 1, 1), exact.value_at(1.0)], fine)
    assert path.integral_defect() <= 1e-15
    times = np.linspace(0.0, 1.0, 17)
    assert np.abs(path.values_at(times).coeffs
                  - exact.values_at(times).coeffs).max() <= 1e-15


def test_acpath_invariant_validation():
    c = FourierMap.constant([0.3], 8)
    gamma = TimeDependentField.constant(c, 0.2)
    good = integrate_primitive(gamma)
    wrong = list(good.values)
    wrong[-1] = wrong[-1] + c
    with pytest.raises(ValueError):
        ACPath(good.grid, wrong, gamma)


def test_acpath_rejects_snapshots_below_the_derivative_order():
    f = TimeDependentField.constant(sine_map(0.05, 16), 0.2)
    p = integrate_primitive(f)
    with pytest.raises(ValueError, match="order 8 are below the derivative's "
                                         "order 16"):
        ACPath(p.grid, [v.with_order(8) for v in p.values], f)
