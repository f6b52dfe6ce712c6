"""Scenario runner: exit codes, artifacts, determinism."""

import argparse
import csv
import io
import json
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusflow import cli
from torusflow.cli import ScenarioError, _certify, main, parse_scenario
from torusflow.errors import Check
from torusflow.flow import solve_flow
from torusflow.fourier import strip_norms

from _reference_loops import modes_to_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
#: a summary row passes on its value against its tol under its sense
SENSES = {"<": operator.lt, "<=": operator.le}


def run(args):
    return main([str(a) for a in args])


def _passes(row) -> bool:
    return SENSES[row["sense"]](row["value"], row["tol"])


def test_zero_field_solve(tmp_path):
    code = run(["solve", SCENARIOS / "zero_field.json", "--out", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "flow.json", "iteration_log.csv", "manifest.json", "norms.csv",
        "summary.json"]


@pytest.mark.parametrize("m, order, value", [(1, 8, [0.02]),
                                              (2, 6, [0.02, -0.01])])
def test_constant_field_solve(tmp_path, m, order, value):
    """A valid constant field spec solves with every check passing, and its
    flow u(t) = t c ends at c: the last snapshot holds the mode k = 0
    alone, equal to c within 1e-15."""
    scenario = tmp_path / "constant.json"
    scenario.write_text(json.dumps({
        "kind": "solve", "field": {"type": "constant", "value": value},
        "order": order, "m": m, "eps": 0.05, "seed": 0}))
    assert run(["solve", scenario, "--out", tmp_path / "out"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["pass"] and len(summary["checks"]) == 4
    assert all(_passes(row) for row in summary["checks"])
    last = json.loads((tmp_path / "out" / "flow.json").read_text())[
        "snapshots"][-1]
    assert len(last) == 1
    k, parts = last[0][0], last[0][1:] if m == 1 else last[0][1]
    assert k == (0 if m == 1 else [0, 0])
    got = np.array(parts, dtype=float).reshape(m, 2)
    assert np.abs(got - np.stack([value, [0.0] * m], axis=1)).max() <= 1e-15


def test_inadmissible_exit_code_names_bound(tmp_path, capsys):
    code = run(["solve", SCENARIOS / "inadmissible.json", "--out", tmp_path])
    assert code == 3
    err = capsys.readouterr().err
    assert "0.5" in err and "admissibility" in err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert not summary["pass"]


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Every shipped scenario run once, and sine_benchmark run as a verify
    scenario (``verify_sine``): name -> (kind, exit code, out directory)."""
    runs = {}
    scenarios = {p.stem: json.loads(p.read_text())
                 for p in sorted(SCENARIOS.glob("*.json"))}
    scenarios["verify_sine"] = {**scenarios["sine_benchmark"], "kind": "verify"}
    for name, raw in scenarios.items():
        out = tmp_path_factory.mktemp(name)
        path = out / "scenario.json"
        path.write_text(json.dumps(raw))
        runs[name] = (raw["kind"], run([raw["kind"], path, "--out", out]), out)
    return runs


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


@pytest.fixture(scope="module")
def sine_benchmark_out(shipped):
    assert shipped["sine_benchmark"][1] == 0
    return shipped["sine_benchmark"][2]


def test_shipped_rows_pass_on_their_value_against_their_tol(shipped):
    """The shipped scenarios keep their exit codes, and every row of every
    summary passes exactly when its value is within its tol under its
    sense."""
    for name, (_, code, out) in shipped.items():
        assert code == (3 if name == "inadmissible" else 0), name
        summary = _summary(out)
        checks = summary.get("checks", [])
        assert (name == "inadmissible") == ("rejected" in summary)
        for c in checks:
            assert c["pass"] == _passes(c), (name, c)
        assert summary["pass"] == (bool(checks) and all(
            c["pass"] for c in checks)), name


def test_readme_lists_every_row(shipped):
    """The README's table of summary rows names, per kind, the rows the
    runners emit and their senses."""
    readme = (SCENARIOS.parent / "README.md").read_text()
    table = readme[readme.index("| kinds | row |"):].split("\n\n")[0]
    documented = set()
    for line in table.splitlines()[2:]:
        kinds, row, *_, sense = (c.strip().strip("`")
                                 for c in line.split("|")[1:-1])
        documented |= {(kind, row, sense) for kind in kinds.split(", ")}
    emitted = {(kind, c["name"], c["sense"]) for kind, _, out in shipped.values()
               for c in _summary(out).get("checks", [])}
    assert documented == emitted


def test_sine_benchmark_reproduces_closed_form(sine_benchmark_out):
    flow = json.loads((sine_benchmark_out / "flow.json").read_text())
    # reconstruct the endpoint map and probe it against the tangent flow
    end = flow["snapshots"][-1]
    order = 32
    coeffs = np.zeros((2 * order + 1, 1), complex)
    for k, re, im in end:
        coeffs[k + order, 0] = re + 1j * im
    y0 = 0.25
    val = y0 + (coeffs[:, 0]
                * np.exp(2j * np.pi * np.arange(-order, order + 1) * y0)).sum()
    a = 0.02
    want = np.arctan(np.exp(2 * np.pi * a) * np.tan(np.pi * y0)) / np.pi
    assert abs(val.real - want) < 1e-8


def test_solve_rows_pass_on_their_value_against_their_tol(sine_benchmark_out):
    """Each solve row passes exactly when its value is within its tol; the
    contraction row reports the largest observed ratio against theta_hat +
    0.05, the bound contraction_certificate_ok tests."""
    checks = json.loads((sine_benchmark_out / "summary.json").read_text())["checks"]
    assert [c["name"] for c in checks] == [
        "residual", "contraction_ratios", "strip_invariant", "endpoint_mu"]
    assert [c["sense"] for c in checks] == ["<=", "<=", "<", "<"]
    for c in checks:
        assert c["pass"] == _passes(c), c
    scenario = json.loads((SCENARIOS / "sine_benchmark.json").read_text())
    gamma = _certify(parse_scenario(scenario, "solve"))
    ratios = [float(r.split(",")[2]) for r in (
        sine_benchmark_out / "iteration_log.csv").read_text().splitlines()[2:]]
    assert checks[1]["value"] == max(r for r in ratios if r == r)
    assert checks[1]["tol"] == gamma.theta_hat + 0.05


def test_flow_json_loads_as_the_indented_layout(sine_benchmark_out):
    scenario = json.loads((SCENARIOS / "sine_benchmark.json").read_text())
    path = solve_flow(_certify(parse_scenario(scenario, "solve")), tol_solve=1e-10)
    indented = json.dumps(path.to_json(), indent=1)
    text = (sine_benchmark_out / "flow.json").read_text()
    assert json.loads(text) == json.loads(indented)
    assert len(text) < len(indented)
    # header fields one per line, then one line per snapshot
    lines = text.splitlines()
    assert lines[1].startswith(' "eps": ') and lines[-2].startswith(' "residual"')
    assert len(lines) == len(path.snapshots) + 7


@pytest.mark.parametrize("m, order, field", [
    (1, 16, {"type": "step", "grid": [0, "1/3", 1], "values": [
        {"type": "sine", "amplitude": 0.02},
        {"type": "cosine", "amplitude": 0.005, "mode": 2}]}),
    (2, 8, {"type": "coeffs", "modes": [[[1, 0], 0.004, 0.002],
                                        [[0, 1], -0.003, 0.0]]})],
    ids=["m1_step_N16", "m2_coeffs_N8"])
def test_batched_writers_match_the_per_snapshot_forms(tmp_path, m, order,
                                                      field):
    """norms.csv and flow.json's snapshot entries, each written in one pass
    over the snapshot stack, hold the bits of ``strip_norms(u, eps)`` and
    of the one-snapshot JSON entries, snapshot by snapshot (repr tells
    -0.0 from 0.0)."""
    raw = {"kind": "solve", "field": field, "order": order, "m": m,
           "eps": 0.05}
    s = parse_scenario(raw, "solve")
    path = solve_flow(_certify(s), tol_solve=s.tol_solve)
    reports = [strip_norms(u, path.eps) for u in path.snapshots]
    rows = [(r.eps, r.nu, r.beta, r.tail_ratio) for r in reports]
    entries = [modes_to_json(u, m, order) for u in path.snapshots.coeffs]
    norms = strip_norms(path.snapshots, path.eps)
    columns = ("nu", "mu", "beta", "tail_ratio")
    assert repr([getattr(norms, c) for c in columns]) == repr(
        [[getattr(r, c) for r in reports] for c in columns])
    assert repr(path.to_json()["snapshots"]) == repr(entries)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    assert run(["solve", scenario, "--out", tmp_path / "out"]) == 0
    lines = (tmp_path / "out" / "norms.csv").read_text().splitlines()
    assert lines[1:] == [",".join(map(repr, row)) for row in rows]
    snaps = json.loads((tmp_path / "out" / "flow.json").read_text())["snapshots"]
    assert repr(snaps) == repr(entries)


#: JSON values as the CLI's writers meet them, and the corners of the format
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20)


@given(obj=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(obj):
    """summary.json and manifest.json are written as json.dumps(obj,
    indent=1) writes them: nested and empty lists and dicts, tuples,
    non-ASCII and escaped strings, booleans, None, NaN and +-inf."""
    assert cli._json_indented(obj) == json.dumps(obj, indent=1)


def test_shipped_json_files_are_json_dumps_of_their_content(shipped):
    """Every shipped scenario's manifest and summary (the rejection's too)
    are the bytes json.dumps(indent=1) gives for what they hold."""
    codes = set()
    for kind, code, out in shipped.values():
        codes.add(code)
        for name in ("manifest.json", "summary.json"):
            if not (out / name).exists():
                continue
            text = (out / name).read_text()
            obj = json.loads(text)
            assert text == json.dumps(obj, indent=1) == cli._json_indented(obj)
    assert 3 in codes


def _csv_module(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


@given(rows=st.lists(st.lists(st.text(alphabet=st.sampled_from(
    'a1.,"\r\n é-')), max_size=4), max_size=4))
@settings(max_examples=300, deadline=None)
def test_csv_lines_match_the_csv_module(rows):
    """Rows of strings holding commas, quotes and line breaks, empty rows
    and rows of one empty field read as the csv module writes them."""
    assert "".join(map(cli._csv_line, rows)) == _csv_module(rows)


def test_shipped_csv_files_are_the_csv_modules(shipped):
    """Every CSV of every runner holds the bytes the csv module writes for
    its rows, \\r\\n terminators included."""
    seen = set()
    for kind, code, out in shipped.values():
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                text = fh.read()
            assert text == _csv_module(csv.reader(io.StringIO(text)))
            seen.add(kind)
    assert seen == set(cli.KINDS)


#: ``torusflow --help`` at 80 columns
HELP = """\
usage: torusflow [-h] [--out OUT] [--workers WORKERS] [--seed SEED]
                 {solve,verify,sweep,trotter,limits,pullback} scenario

flow solves, verifications and sweeps on the torus

positional arguments:
  {solve,verify,sweep,trotter,limits,pullback}
  scenario

options:
  -h, --help            show this help message and exit
  --out OUT
  --workers WORKERS
  --seed SEED
"""


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch, capsys):
    """Jobs in one process share the parser built at import: two calls
    construct none.  Its help text and its exit code 2 for a bad kind or
    a bad flag are those of a parser built per call."""
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for i in range(2):
        assert run(["solve", SCENARIOS / "zero_field.json",
                    "--out", tmp_path / str(i)]) == 0
    assert built == []
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP
    for argv, message in ((["bogus", "x.json"], "invalid choice: 'bogus'"),
                          (["solve", "x.json", "--bogus", "1"],
                           "unrecognized arguments: --bogus 1")):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: torusflow [-h]") and message in err


def test_invalid_scenario_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", bad]) == 2
    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text(json.dumps({"kind": "solve"}))
    assert run(["trotter", wrong_kind]) == 2
    missing_seed = tmp_path / "seedless.json"
    missing_seed.write_text(json.dumps({"kind": "sweep", "count": 1}))
    assert run(["sweep", missing_seed]) == 2


def test_trotter_scenario(tmp_path):
    code = run(["trotter", SCENARIOS / "trotter_pair.json", "--out", tmp_path])
    assert code == 0
    rows = (tmp_path / "trotter.csv").read_text().strip().splitlines()
    assert rows[0] == "n,distance"
    assert len(rows) == 6


def test_sweep_determinism_across_workers(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps({
        "kind": "sweep", "count": 3, "order": 32, "eps": 0.05, "seed": 7,
        "tolerances": {"tol_solve": 1e-10}}))
    assert run(["sweep", scenario, "--out", out1]) == 0
    assert run(["sweep", scenario, "--out", out2, "--workers", 2]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_pool_is_capped(tmp_path, monkeypatch):
    """--workers asks for at most one worker per item and per CPU; a pool of
    one runs serially, and the rows are those of --workers 1."""
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps({"kind": "sweep", "count": 3, "order": 32,
                                    "eps": 0.05, "seed": 7}))
    assert run(["sweep", scenario, "--out", tmp_path / "serial"]) == 0
    want = (tmp_path / "serial" / "sweep.csv").read_bytes()
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    for cpus, expect in ((8, [3]), (2, [2]), (1, [])):
        seen.clear()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run(["sweep", scenario, "--out", out, "--workers", 64]) == 0
        assert seen == expect
        assert (out / "sweep.csv").read_bytes() == want


def test_verify_scenario(shipped):
    _, code, out = shipped["verify_sine"]
    assert code == 0
    assert (out / "pointwise_residuals.csv").exists()
    assert (out / "ac_modulus.csv").exists()


def test_verify_reports_the_solve_checks_of_its_flow(shipped):
    """verify reports the four solve checks of the flow it solved, with the
    values of a solve of the same field at the default tol_solve."""
    checks = _summary(shipped["verify_sine"][2])["checks"]
    solve = _summary(shipped["sine_benchmark"][2])["checks"]
    assert [c["name"] for c in checks] == [c["name"] for c in solve] + [
        "pointwise_residual", "restriction", "ac_modulus"]
    assert checks[:4] == solve


def test_limits_scenario(tmp_path):
    scenario = tmp_path / "limits.json"
    base = json.loads((SCENARIOS / "limits_square.json").read_text())
    base["count"] = 200
    base["ratio_samples"] = 100
    scenario.write_text(json.dumps(base))
    assert run(["limits", scenario, "--out", tmp_path / "l"]) == 0
    rows = (tmp_path / "l" / "continuity.csv").read_text().splitlines()
    assert rows[0] == "sample_id,depth,telescoped_bound,observed_p,pass"
    assert len(rows) == 201


@pytest.fixture(scope="module")
def pullback_out(shipped):
    assert shipped["pullback_sine"][1] == 0
    return shipped["pullback_sine"][2]


def test_pullback_scenario(pullback_out):
    assert (pullback_out / "pullback_matrix.csv").exists()
    summary = json.loads((pullback_out / "summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert {"pullback_ac", "transport_residual", "contravariance",
            "linearity"} <= names


def test_ac_modulus_csv_fields_are_numbers(pullback_out):
    rows = (pullback_out / "ac_modulus.csv").read_text().splitlines()
    assert rows[0] == "t_a,t_b,increment,bound,pass"
    assert len(rows) > 1
    for row in rows[1:]:
        for field in row.split(","):
            if field not in ("True", "False"):
                float(field)


def _scenario(tmp_path, **fields):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(fields))
    return path


def test_check_pass_follows_from_value_and_bound():
    """A check passes on value <= bound, or value < bound if strict; NaN
    fails.  Many (value, bound) pairs read as one check by their worst
    value / bound, 0 where the value is 0, so a zero bound fails only a
    nonzero value."""
    assert Check("a", 1.0, 1.0).ok and not Check("a", 1.0, 1.0, strict=True).ok
    assert not Check("a", float("nan"), 1.0).ok
    pairs = [(0.0, 0.0), (1.0, 4.0), (3.0, 2.0)]
    assert Check.worst("w", pairs) == Check("w", 1.5, 1.0)
    assert Check.worst("w", pairs[:2], 0.5) == Check("w", 0.25, 0.5)
    assert Check.worst("w", [(1e-300, 0.0)]).value == np.inf
    assert not Check.worst("w", [(float("nan"), 1.0), pairs[1]]).ok
    assert Check.worst("w", []) == Check("w", 0.0, 1.0)


def _row(out: Path, name: str) -> dict:
    return next(c for c in _summary(out)["checks"] if c["name"] == name)


def test_trotter_window_row_reports_a_ratio_below_the_window(tmp_path,
                                                               monkeypatch):
    """A ratio below 0.35 fails the window, and the row's value shows it:
    0.35 / 0.3 against 1, where the largest ratio, 0.5, is inside."""
    curve = [(8, 1.0), (16, 0.5), (32, 0.15), (64, 0.075)]
    monkeypatch.setattr(cli, "trotter_curve", lambda *args, **kw: curve)
    scenario = _scenario(tmp_path, **json.loads(
        (SCENARIOS / "trotter_pair.json").read_text()))
    assert run(["trotter", scenario, "--out", tmp_path / "out"]) == 1
    row = _row(tmp_path / "out", "trotter_ratio_window")
    assert not row["pass"] and row["value"] > row["tol"]
    assert row["value"] == pytest.approx(0.35 / 0.3)


def test_sweep_row_reports_an_item_over_its_certificate(tmp_path, monkeypatch):
    """An item whose observed ratio breaks its own theta_hat + 0.05 fails
    the sweep, and the row's value shows it, though the ratio stays below
    0.55."""
    def solve(gamma, **kw):
        path = solve_flow(gamma, **kw)
        path.iteration_log.append((99, 1e-3, gamma.theta_hat + 0.1))
        return path

    monkeypatch.setattr(cli, "solve_flow", solve)
    scenario = _scenario(tmp_path, kind="sweep", count=1, order=16,
                         budgets=[0.2], seed=7)
    assert run(["sweep", scenario, "--out", tmp_path / "out"]) == 1
    row = _row(tmp_path / "out", "sweep_contraction")
    assert not row["pass"] and row["value"] > row["tol"]
    assert row["value"] == pytest.approx(0.3 / 0.25)


def test_ac_row_reports_a_failing_pair(tmp_path, monkeypatch):
    """A pair whose increment exceeds its own bound fails the AC check, and
    the row's value shows it, though the largest increment stays below the
    largest bound."""
    rows = [(0.0, 0.5, 0.2, 0.1, False), (0.5, 1.0, 0.3, 1.0, True)]
    monkeypatch.setattr(cli, "ac_modulus_check", lambda evol: rows)
    scenario = _scenario(tmp_path, kind="verify", order=16, seed=1,
                         field={"type": "sine", "amplitude": 0.02})
    assert run(["verify", scenario, "--out", tmp_path / "out"]) == 1
    row = _row(tmp_path / "out", "ac_modulus")
    assert not row["pass"] and row["value"] > row["tol"]
    assert row["value"] == pytest.approx(2.0)


def test_random_field_budget_at_scenario_eps(tmp_path):
    scenario = _scenario(tmp_path, kind="solve", order=16, m=1, eps=0.1,
                         seed=3, field={"type": "random", "budget": 0.3})
    assert run(["solve", scenario, "--out", tmp_path / "out"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    # the contraction_ratios check quotes theta_hat + 0.05 as its tol
    ratios = next(c for c in summary["checks"]
                  if c["name"] == "contraction_ratios")
    assert abs(ratios["tol"] - 0.35) < 1e-12


def test_random_field_rejects_m2(tmp_path, capsys):
    scenario = _scenario(tmp_path, kind="solve", order=8, m=2, eps=0.05,
                         seed=3, field={"type": "random", "budget": 0.3})
    assert run(["solve", scenario, "--out", tmp_path / "out"]) == 2
    assert "m = 1" in capsys.readouterr().err


def test_scenario_fields_checked_up_front(tmp_path, capsys):
    base = {"kind": "solve", "field": {"type": "sine", "amplitude": 0.02},
            "order": 16, "m": 1, "eps": 0.05}
    for key, bad in (("order", 0), ("order", -3), ("order", 2.5),
                     ("order", True), ("m", 3), ("m", 0), ("m", True),
                     ("eps", 0), ("eps", -0.05), ("eps", True)):
        scenario = _scenario(tmp_path, **{**base, key: bad})
        assert run(["solve", scenario, "--out", tmp_path / "out"]) == 2
        assert f"{key} must be" in capsys.readouterr().err


def test_sweep_rejects_m2(tmp_path, capsys):
    scenario = _scenario(tmp_path, kind="sweep", count=1, order=32, m=2,
                         eps=0.05, seed=1)
    assert run(["sweep", scenario, "--out", tmp_path / "out"]) == 2
    assert "m = 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_count_checked_up_front(tmp_path, capsys):
    for bad in (0, -1, 2.5, "3", True, None):
        scenario = _scenario(tmp_path, kind="sweep", count=bad, order=16,
                             eps=0.05, seed=1)
        assert run(["sweep", scenario, "--out", tmp_path / "out"]) == 2
        assert "sweep count must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()


def test_non_numeric_tolerance_exit_two(tmp_path, capsys):
    for bad in ("small", "1e-10", None, True, [1e-10], 0, float("nan")):
        scenario = _scenario(tmp_path, kind="solve", order=16, m=1, eps=0.05,
                             field={"type": "sine", "amplitude": 0.02},
                             tolerances={"tol_solve": bad})
        assert run(["solve", scenario, "--out", tmp_path / "out"]) == 2
        assert "tolerances must be positive numbers" in capsys.readouterr().err


def test_limits_rejects_m_and_eps(tmp_path, capsys):
    base = json.loads((SCENARIOS / "limits_square.json").read_text())
    for extra in ({"m": 2, "eps": 0.3}, {"m": 2}, {"eps": 0.3}):
        scenario = _scenario(tmp_path, **{**base, **extra})
        assert run(["limits", scenario, "--out", tmp_path / "out"]) == 2
        assert "limits scenarios" in capsys.readouterr().err
        assert not (tmp_path / "out" / "continuity.csv").exists()


def test_limits_fields_checked_up_front(tmp_path, capsys):
    base = json.loads((SCENARIOS / "limits_square.json").read_text())
    bad_fields = [("order", 5)]
    bad_fields += [("count", v) for v in (0, -1, 2.5, "3", True, None)]
    bad_fields += [("ratio_samples", v) for v in (0, -5, 1.5, False)]
    bad_fields += [("radii", v) for v in ([], [0.6, 0.5], [0.5, -0.1],
                                          [0.5, 0], [True], "0.5", 0.5)]
    bad_fields += [(k, v) for k in ("eps_top", "eps_target")
                   for v in (0, -0.05, True, "0.1")]
    for key, bad in bad_fields:
        scenario = _scenario(tmp_path, **{**base, key: bad})
        assert run(["limits", scenario, "--out", tmp_path / "out"]) == 2, key
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "continuity.csv").exists()


def _rejected(tmp_path, capsys, kind, message, *argv, **fields):
    """The scenario exits 2 with ``message``, before any output is made;
    ``argv`` are extra command-line arguments."""
    scenario = _scenario(tmp_path, kind=kind, **fields)
    assert run([kind, scenario, "--out", tmp_path / "out", *argv]) == 2, fields
    assert message in capsys.readouterr().err, fields
    assert not (tmp_path / "out").exists()


_SINE = {"type": "sine", "amplitude": 0.02}
_SOLVE = {"order": 16, "m": 1, "eps": 0.05}


def test_scale_below_twice_eps_exit_two(tmp_path, capsys):
    for bad in (0.06, 0.0999, 0, -0.2, "0.2", True):
        _rejected(tmp_path, capsys, "solve", "scale must be a number >= 2 eps",
                  field=_SINE, scale=bad, **_SOLVE)


def test_sine_cosine_mode_shape_exit_two(tmp_path, capsys):
    for m, bad in ((1, 0), (1, 1.5), (1, "1"), (1, True), (1, [1, 0]),
                   (2, 1), (2, [1]), (2, [1, 0.5]), (2, [0, 0]), (2, None)):
        for kind in ("sine", "cosine"):
            _rejected(tmp_path, capsys, "solve", f"{kind} modes must",
                      field={**_SINE, "type": kind, "mode": bad},
                      **{**_SOLVE, "m": m, "order": 4})
    # an m = 2 field spec takes no default mode
    _rejected(tmp_path, capsys, "solve", "sine modes must be integer pairs",
              field=_SINE, **{**_SOLVE, "m": 2, "order": 4})


def test_modes_beyond_order_exit_two(tmp_path, capsys):
    coeffs = {"type": "coeffs", "modes": [[1, 0.01, 0.0], [17, 0.01, 0.0]]}
    for m, field in ((1, {**_SINE, "mode": 17}), (1, {**_SINE, "mode": -17}),
                     (2, {**_SINE, "mode": [9, -8]}), (1, coeffs),
                     (2, {"type": "coeffs", "modes": [[[16, 1], 0.01, 0.0]]}),
                     (1, {"type": "step", "grid": [0, 0.5, 1],
                          "values": [_SINE, coeffs]})):
        _rejected(tmp_path, capsys, "solve", "||k||_1 <= order = 16",
                  field=field, **{**_SOLVE, "m": m})
    _rejected(tmp_path, capsys, "trotter", "w: cosine modes", order=8,
              v=_SINE, w={**_SINE, "type": "cosine", "mode": 9})


def test_constant_value_shape_exit_two(tmp_path, capsys):
    for m, bad in ((2, [0.01]), (1, "abc"), (1, 0.01), (1, []), (1, [True]),
                   (1, ["0.1"]), (2, [0.01, None]), (1, None)):
        _rejected(tmp_path, capsys, "solve",
                  f"constant value must be a list of m = {m} numbers",
                  field={"type": "constant", "value": bad},
                  **{**_SOLVE, "m": m})
    _rejected(tmp_path, capsys, "solve", "constant value must be a list",
              field={"type": "step", "grid": [0, 0.5, 1],
                     "values": [_SINE, {"type": "constant", "value": 1}]},
              **_SOLVE)
    _rejected(tmp_path, capsys, "trotter", "w: constant value", order=8,
              v=_SINE, w={"type": "constant", "value": [0.01, 0.0]})


def test_unbuildable_specs_exit_two(tmp_path, capsys):
    step = {"type": "step", "grid": [0, 0.5, 1], "values": [_SINE, _SINE]}
    for field, message in (
            ({**step, "grid": [0, 0.5, 0.5, 1], "values": [_SINE] * 3},
             "breakpoints must be strictly increasing"),
            ({**step, "grid": [0, 0.25, 0.5, 1]},
             "step values must be a list of one map per grid interval"),
            ({"type": "sine", "mode": 1}, "sine amplitude must be a number"),
            ({**_SINE, "amplitude": "x"}, "sine amplitude must be a number"),
            ({"type": "cubic"}, "unknown map spec type 'cubic'"),
            ({**step, "values": [_SINE, {"type": "cubic"}]},
             "unknown map spec type 'cubic'")):
        _rejected(tmp_path, capsys, "solve", message, field=field, **_SOLVE)
    _rejected(tmp_path, capsys, "trotter", "v: unknown map spec type 'step'",
              order=8, v=step, w=_SINE)
    base = json.loads((SCENARIOS / "limits_square.json").read_text())
    del base["kind"]
    _rejected(tmp_path, capsys, "limits", "unknown harness map 'cubic'",
              **{**base, "map": "cubic"})


def test_no_certified_interior_exit_one(tmp_path, capsys):
    # a window of 2 shells leaks beyond its edge: a numerical outcome
    base = json.loads((SCENARIOS / "pullback_sine.json").read_text())
    scenario = _scenario(tmp_path, **{**base, "K": 1})
    assert run(["pullback", scenario, "--out", tmp_path / "out"]) == 1
    assert "no certified interior shell" in capsys.readouterr().err


def test_pullback_window_exit_two(tmp_path, capsys):
    for bad in (0, -1, 17, 2.5, True, "8"):
        _rejected(tmp_path, capsys, "pullback", "pullback K must be an integer",
                  field=_SINE, K=bad, **_SOLVE)


def test_trotter_ladder_exit_two(tmp_path, capsys):
    for bad in ([8, 12], [3], [0, 8], [], "8", [8, True], [8.0]):
        _rejected(tmp_path, capsys, "trotter",
                  "trotter ladder entries must be powers of two",
                  order=16, v=_SINE, w=_SINE, ladder=bad)


def test_unordered_trotter_ladder_exit_two(tmp_path, capsys):
    # the ratio window is defined over neighbours n < n' of the ladder
    for bad in ([16, 8, 32, 64, 128], [8, 8, 16, 32, 64, 128]):
        _rejected(tmp_path, capsys, "trotter",
                  "trotter ladder entries must be powers of two, in strictly "
                  "increasing order", order=16, v=_SINE, w=_SINE, ladder=bad)


def test_shipped_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = json.loads(path.read_text())
        assert parse_scenario(scenario, scenario["kind"]).kind == scenario["kind"], path.name


def test_seed_delta0_budget_checked_up_front(tmp_path, capsys):
    base = json.loads((SCENARIOS / "sine_benchmark.json").read_text())
    del base["kind"], base["tolerances"]
    random = {"type": "random", "budget": 0.3}
    _rejected(tmp_path, capsys, "verify", "verify seed must be a non-negative "
              "integer", **{**base, "seed": "x"})
    _rejected(tmp_path, capsys, "solve", "solve seed must be a non-negative "
              "integer", **{**base, "seed": "x", "field": random})
    _rejected(tmp_path, capsys, "solve", "delta0 must be a positive number",
              **{**base, "delta0": "x", "for_chart": True})
    _rejected(tmp_path, capsys, "solve", "positive budget",
              **{**base, "field": {**random, "budget": "x"}})


def test_escaping_inputs_exit_two(tmp_path, capsys):
    for t0 in ("x", 5, -0.5):
        _rejected(tmp_path, capsys, "pullback", "t0 must be a number in [0, 1]",
                  field=_SINE, t0=t0, **_SOLVE)
    _rejected(tmp_path, capsys, "sweep", "budgets must be a non-empty list",
              count=1, seed=1, budgets=["a"], **_SOLVE)
    _rejected(tmp_path, capsys, "solve", "seed must be a non-negative integer",
              field=_SINE, seed=-1, **_SOLVE)
    # a random field has modes up to 4
    _rejected(tmp_path, capsys, "sweep", "order must be an integer >= 1 (>= 4 "
              "in sweeps)", count=1, seed=1, order=3, eps=0.05)
    _rejected(tmp_path, capsys, "solve", "at order >= 4", seed=1,
              field={"type": "random"}, **{**_SOLVE, "order": 3})
    _rejected(tmp_path, capsys, "solve", "seed must be a non-negative integer",
              "--seed", "-1", field=_SINE, **_SOLVE)
    _rejected(tmp_path, capsys, "solve", "coeffs mode k = 0 must be real",
              field={"type": "coeffs", "modes": [[0, 0.01, 0.02]]}, **_SOLVE)
    _rejected(tmp_path, capsys, "solve", "sine amplitude must be a number",
              field={**_SINE, "amplitude": float("nan")}, **_SOLVE)
    _rejected(tmp_path, capsys, "solve", "eps must be a positive number",
              field=_SINE, **{**_SOLVE, "eps": float("inf")})
    _rejected(tmp_path, capsys, "solve", "for_chart must be true or false",
              field=_SINE, for_chart="no", **_SOLVE)
    scenario = tmp_path / "array.json"
    scenario.write_text(json.dumps([{"kind": "solve", "field": _SINE}]))
    assert run(["solve", scenario, "--out", tmp_path / "out"]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unread_fields_warn(tmp_path, capsys):
    scenario = _scenario(tmp_path, kind="solve", field={"type": "zero"},
                         epss=0.1, tolerances={"tol_pointwise": 1e-8}, **_SOLVE)
    assert run(["solve", scenario, "--out", tmp_path / "out"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["torusflow: warning: solve scenarios do not read epss, "
                   "tolerances.tol_pointwise"]
    tols = {"tol_solve": 1e-10}
    sweep = parse_scenario({"kind": "sweep", "seed": 1, "scale": 0.2}, "sweep")
    assert sweep.ignored == ("scale",) and sweep.scale == 0.2
    for kind in ("verify", "pullback"):
        s = parse_scenario({"kind": kind, "seed": 0, "field": _SINE,
                            "tolerances": tols}, kind)
        assert s.ignored == ("tolerances.tol_solve",), kind
    assert parse_scenario({"kind": "trotter", "v": _SINE, "w": _SINE,
                           "out": "o", "seed": 3}, "trotter").ignored == ()
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = json.loads(path.read_text())
        assert parse_scenario(scenario, scenario["kind"]).ignored == (), path.name


def test_numerical_fault_exits_one(tmp_path, capsys):
    """An admissible field whose flow outgrows order 8: the sine field of
    mode 1 at amplitude 0.45 / (2 pi e^{0.2 pi}) has L1 beta 0.45 at width
    0.1, and its composition discards a spectral tail over budget.  The
    fault reaches the user as exit 1, never 2, with no summary written."""
    amp = 0.45 / (2 * np.pi * np.exp(0.2 * np.pi))
    scenario = _scenario(tmp_path, kind="solve", order=8, m=1, eps=0.05,
                         field={"type": "sine", "amplitude": amp, "mode": 1},
                         seed=0)
    assert run(["solve", scenario, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith(
        "torusflow: run failed: compose: discarded tail ratio 3.040e-09 > "
        "1.0e-09")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_non_finite_norm_exits_one(tmp_path, capsys):
    # the strip weights overflow at width 32: a fault, not a rejection
    base = json.loads((SCENARIOS / "sine_benchmark.json").read_text())
    scenario = _scenario(tmp_path, **{**base, "eps": 16})
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["solve", scenario, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "run failed: L1 beta norm nan at width 32 is not finite" in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_unexpected_exception_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not an invalid scenario")
    monkeypatch.setattr(cli, "solve_flow", broken)
    with pytest.raises(ValueError, match="a bug"):
        run(["solve", SCENARIOS / "zero_field.json", "--out", tmp_path])


#: The shipped scenarios, and scenarios that reach the other spec types.
_BASES = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))] + [
    {"kind": "solve", "order": 8, "m": 1, "eps": 0.05, "seed": 0,
     "field": {"type": "step", "grid": ["0", "1/2", 1], "values": [
         {"type": "coeffs", "modes": [[1, 0.01, 0.0], [0, 0.02, 0]]},
         {"type": "constant", "value": [0.01]}]}},
    {"kind": "verify", "order": 8, "m": 2, "eps": 0.05, "seed": 0,
     "field": {"type": "coeffs", "modes": [[[1, 0], 0.01, 0.0]]}, "delta0": 1.0,
     "for_chart": True, "tolerances": {"tol_pointwise": 1e-8}},
    {"kind": "pullback", "order": 8, "seed": 1, "t0": 0.5, "K": 4,
     "field": {"type": "random", "budget": 0.2}},
    {"kind": "sweep", "count": 2, "seed": 1, "budgets": [0.1, 0.2]},
]
_BAD = st.sampled_from(["x", None, float("nan"), float("inf"), -float("inf"),
                        -1, -0.5, [], {}, True, False])


def _paths(value, path=()):
    """Every path to a value nested in ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_parse_returns_a_record_or_scenario_error(data):
    base = data.draw(st.sampled_from(_BASES))
    raw = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(raw))))
        *head, key = path
        parent = raw
        for k in head:
            parent = parent[k]
        old = parent[key]
        negated = -old if isinstance(old, (int, float)) and not isinstance(
            old, bool) else -1
        parent[key] = data.draw(st.one_of(_BAD, st.just(negated)))
    try:
        record = parse_scenario(raw, base["kind"])
    except ScenarioError:
        return
    assert record.kind == base["kind"]


def test_readme_lists_every_field():
    readme = (SCENARIOS.parent / "README.md").read_text()
    table = readme[readme.index("| field | kinds"):].split("\n\n")[0]
    names = {name.split(".")[-1] for row in table.splitlines()[2:]
             for name in row.split("|")[1].replace("`", "").replace(",", " ").split()}
    assert names == {"kind", *cli.FIELDS}
