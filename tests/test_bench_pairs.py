"""tools/bench_pairs.py on canned result lines: no benchmark is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def canned_run(tree, workload, seed, seconds):
    """The output of run.py: an environment line, readable lines and the
    result line; the change runs one job per second more, and its raw
    set-up median is 0.1 s shorter; the raw rates are half the scaled
    ones.  Seed 3 of the change exits 1, and
    seed 4 of the parent ends without a result line."""
    side = tree.name
    if (side, seed) == ("change", 3):
        return 1, "env {}\n", "perfbench: run worker exited with code 1\n"
    if (side, seed) == ("parent", 4):
        return 0, "env {}\n  setup_s 0.4 s\n", ""
    rate = 10.0 * seed + (side == "change")
    metrics = {spec["name"]: {"value": float(seed), "unit": spec["unit"]}
               for spec in END_TO_END}
    metrics["jobs_per_s"]["value"] = rate
    res = {"correct": True, "attempted": 20, "failed": 1 if seed == 1 else 0,
           "metrics": metrics}
    raw = 0.5 + 0.1 * seed - 0.1 * (side == "change")
    setup = (f"  setup_s      {float(seed):.4f} s [{raw:.4f}] (median of 3: "
             "0.412, 0.398, 0.405)")
    rates = (f"  jobs_per_s   {rate:.4f} 1/s [{rate / 2:.4f}] (median per "
             "slot; 20 jobs / 2.00 s busy = 10.0000)")
    return 0, (f"env {{}}\n{setup}\n{rates}\n{json.dumps(res)}\n"), ""


def test_bench_pairs_file_schema(tmp_path):
    trees = {side: tmp_path / side for side in bench.SIDES}
    runs = bench.collect(trees, ["solve_m1", "verify_m1"], 4, 1, 30,
                         run=canned_run, log=lambda line: None)
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(bench.report(trees, runs, END_TO_END,
                                            range(1, 5), 30)))
    got = json.loads(path.read_text())

    assert set(got) == {"trees", "seeds", "seconds", "nproc", "python",
                        "numpy", "workloads", "runs"}
    assert got["seeds"] == [1, 2, 3, 4] and got["seconds"] == 30
    assert set(got["trees"]) == {"parent", "change"}
    assert all(set(t) == {"head", "dirty"} for t in got["trees"].values())
    assert isinstance(got["nproc"], int) and got["numpy"] and got["python"]

    # alternating order: the parent first in even pairs, the change in odd
    firsts = [r["side"] for r in got["runs"] if r["position"] == 0]
    assert firsts == ["parent", "change"] * 4
    # the two runs without a result are recorded, not dropped
    assert len(got["runs"]) == 16
    bad = [(r["side"], r["seed"], r["exit"]) for r in got["runs"]
           if r["result"] is None]
    assert bad == [("change", 3, 1), ("parent", 4, 0)] * 2
    assert all(r["error"] is not None for r in got["runs"]
               if r["result"] is None)

    for workload in ("solve_m1", "verify_m1"):
        w = got["workloads"][workload]
        assert set(w["metrics"]) == {spec["name"] for spec in END_TO_END}
        assert w["failures"]["parent"] == {
            "runs_without_result": 1, "attempted": 60, "failed": 1,
            "incorrect_runs": 0}
        assert w["failures"]["change"]["runs_without_result"] == 1
        rate = w["metrics"]["jobs_per_s"]
        assert rate["pairs"] == [[10.0, 11.0], [20.0, 21.0], [30.0, None],
                                 [None, 41.0]]
        assert rate["parent"] == {"q1": 15.0, "median": 20.0, "q3": 25.0}
        assert rate["change"]["median"] == 21.0
        assert rate["pairs_won"] == 2 and rate["pairs_compared"] == 2
        assert rate["relative_change"] == pytest.approx(-0.05)
        # the parent's own runs spread 10..30: wider than any bound
        assert rate["parent_spread"] == pytest.approx(0.5)
        assert rate["verdict"] == "unresolved"
        setup = w["metrics"]["setup_s"]
        assert setup["relative_change"] == 0.0 and setup["pairs_won"] == 0
        # the raw set-up medians, read from the brackets of the setup_s line
        raw = w["setup_raw_s"]
        assert raw["pairs"] == [[0.6, 0.5], [0.7, 0.6], [0.8, None],
                                [None, 0.8]]
        assert raw["pairs_won"] == 2 and raw["bound"] == 0.25
        assert raw["change"]["median"] == 0.6
        # the raw rates, read from the brackets of the jobs_per_s line
        raw_rate = w["jobs_per_s_raw"]
        assert raw_rate["pairs"] == [[5.0, 5.5], [10.0, 10.5], [15.0, None],
                                     [None, 20.5]]
        assert raw_rate["better"] == "higher" and raw_rate["pairs_won"] == 2
        assert raw_rate["bound"] == rate["bound"]
        assert raw_rate["change"]["median"] == 10.5
    assert [r["setup_raw_s"] for r in got["runs"][:4]] == [0.6, 0.5, 0.6, 0.7]
    assert [r["jobs_per_s_raw"] for r in got["runs"][:4]] == [
        5.0, 5.5, 10.5, 10.0]
    assert bench.raw_value("env {}\n  setup_s 0.4 s\n", "setup_raw_s") is None
    assert bench.raw_value("env {}\n  jobs_per_s 4 1/s\n",
                           "jobs_per_s_raw") is None


def test_result_line_takes_only_a_result():
    assert bench.result_line("") is None
    assert bench.result_line("env {}\nnot json\n") is None
    assert bench.result_line('env {}\n{"correct": true}\n') is None
    line = {"correct": False, "attempted": 3, "failed": 3, "metrics": {}}
    assert bench.result_line("a\n" + json.dumps(line) + "\n\n") == line


def test_each_tree_runs_with_its_own_fresh_bytecode_cache(tmp_path,
                                                          monkeypatch):
    """run_benchmark passes each tree one ``PYTHONPYCACHEPREFIX`` for all
    its runs, another for the other tree, neither inside a tree, and drops
    PYTHONPATH and PYTHONDONTWRITEBYTECODE, so the cache fills; the
    subprocess is a stand-in, so no benchmark starts."""
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append((Path(cwd), env))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = [tmp_path / side for side in bench.SIDES]
    for tree in trees:
        (tree / "__pycache__").mkdir(parents=True)
    for _ in range(2):
        for tree in trees:
            assert bench.run_benchmark(tree, "solve_m2", 1, 1.0) == (0, "", "")
    prefixes = {}
    for cwd, env in seen:
        assert "PYTHONPATH" not in env and "PYTHONDONTWRITEBYTECODE" not in env
        prefixes.setdefault(cwd, set()).add(env["PYTHONPYCACHEPREFIX"])
    assert set(prefixes) == set(trees)
    assert all(len(p) == 1 for p in prefixes.values())
    paths = [Path(next(iter(p))) for p in prefixes.values()]
    assert paths[0] != paths[1] and all(p.is_dir() for p in paths)
    for path in paths:
        assert not any(path.is_relative_to(tree) for tree in trees)
        assert not any(path.iterdir())
    # nothing in either tree is removed
    assert all((tree / "__pycache__").is_dir() for tree in trees)
