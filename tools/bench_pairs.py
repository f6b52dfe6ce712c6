"""Run the benchmark on two trees in alternating pairs and write BENCH_<label>.json.

    python tools/bench_pairs.py PARENT_TREE --label NAME [--tree TREE]
        [--workloads solve_m1 solve_m2 verify_m1] [--pairs 5] [--seed 1]
        [--seconds 30] [--out DIR]

TREE (default: the checkout holding this script) is the change and
PARENT_TREE the tree it is compared with.  Pair i of a workload runs

    python3 <tree>/perfbench/run.py --workload W --seed S --seconds T --trace 0

in both trees with the same seed S = seed + i, the parent first in even
pairs and the change first in odd ones, one run at a time.  Each tree's
runs share a bytecode cache of their own, ``PYTHONPYCACHEPREFIX`` set to a
fresh directory under one temporary directory of this process and
``PYTHONDONTWRITEBYTECODE`` unset, so neither side reads bytecode left in
its tree by an earlier import (a tree that holds ``__pycache__`` sets up
faster than one that compiles its sources), and each compiles what it
imports once, in its first set-up; nothing in either tree is deleted.
Each run's last line of standard output is its result: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run that exits non-zero or
ends without a result line is recorded with its exit code and the tail of
its standard error, and its pair holds no value.  Beside the result, a run records
``setup_raw_s`` and ``jobs_per_s_raw``, the unscaled set-up CPU median
and job rate that run.py prints in brackets on its readable ``setup_s``
and ``jobs_per_s`` lines: the result's values are those scaled by the
run's reference-kernel time, so their spread holds the noise of both.

The file holds, per workload and end-to-end metric of the change tree's
``BENCHMARK.json``: each side's median and quartiles, every pair's values,
the relative change of the medians (positive is worse), the parent's
spread (quartile distance over median), the pairs the change won, and a
verdict: ``worse`` past the bound, ``unresolved`` where the parent's own
spread exceeds the bound (unless every run of the change beats every run
of the parent), else ``within bound``.  It also holds the seeds, ``nproc``,
the numpy and Python versions and both trees' ``git rev-parse HEAD``,
each with whether its work tree differs from that commit.  Per workload,
``setup_raw_s`` and ``jobs_per_s_raw`` compare the raw values as
end-to-end metrics, against the bounds of ``setup_s`` and ``jobs_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from functools import lru_cache
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")
#: a run that outlasts this is killed and recorded as failed
RUN_TIMEOUT_S = 600


def result_line(stdout: str):
    """The JSON result on the last non-empty line of a run's output, or
    None when that line is not one."""
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    keys = ("correct", "attempted", "failed", "metrics")
    return res if isinstance(res, dict) and all(k in res for k in keys) else None


#: the raw values recorded beside a run's result: the metric of run.py's
#: readable line whose bracketed raw value each one is
RAW = {"setup_raw_s": "setup_s", "jobs_per_s_raw": "jobs_per_s"}
#: run.py's readable lines: the scaled value and unit, then the raw value
#: in brackets
_RAW_LINES = {key: re.compile(rf"^\s*{name}\s+\S+ \S+ \[(\S+)\]", re.MULTILINE)
              for key, name in RAW.items()}


def raw_value(stdout: str, key: str):
    """The bracketed raw value ``key`` (of ``RAW``) of a run's readable
    lines, or None when the output has no such line."""
    found = _RAW_LINES[key].search(stdout)
    return float(found.group(1)) if found else None


@lru_cache(maxsize=None)
def _pycache_root() -> tempfile.TemporaryDirectory:
    """The temporary directory that holds every tree's bytecode cache,
    removed when the process exits."""
    return tempfile.TemporaryDirectory(prefix="bench_pairs-")


def pycache_prefix(tree: Path) -> Path:
    """The bytecode cache of ``tree``'s runs: its own fresh directory under
    ``_pycache_root``, the same for every run of the tree."""
    name = str(Path(tree).resolve()).strip("/").replace("/", "_")
    prefix = Path(_pycache_root().name) / name
    prefix.mkdir(exist_ok=True)
    return prefix


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float):
    """(exit code, stdout, stderr) of one benchmark run in ``tree``, with
    the tree's own ``pycache_prefix``, written as well as read; exit None
    when the run timed out."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPYCACHEPREFIX"] = str(pycache_prefix(tree))
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "timed out"
    return proc.returncode, proc.stdout, proc.stderr


def collect(trees: dict, workloads, pairs: int, seed: int, seconds: float,
            run=run_benchmark, log=print) -> list:
    """Every run, in the order it ran: dicts with the workload, pair, seed,
    side, position in its pair, exit code, result (or None), the raw
    values of ``RAW`` (each None without a result) and error."""
    runs = []
    for workload in workloads:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                code, out, err = run(trees[side], workload, seed + i, seconds)
                res = result_line(out) if code == 0 else None
                runs.append({"workload": workload, "pair": i,
                             "seed": seed + i, "side": side,
                             "position": position, "exit": code,
                             "result": res,
                             **{key: raw_value(out, key) if res else None
                                for key in RAW},
                             "error": None if res else err[-2000:]})
                log(f"{workload} pair {i} seed {seed + i} {side}: "
                    + ("ok" if res else f"no result (exit {code})"))
    return runs


def _quartiles(values):
    """(q1, median, q3) of the values, None for an empty list."""
    if not values:
        return None
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _metric_summary(pairs, better: str, bound: float) -> dict:
    """The comparison of one end-to-end metric over ``pairs``, a list of
    [parent value, change value] with None for a run without a result."""
    sides = {side: [p[k] for p in pairs if p[k] is not None]
             for k, side in enumerate(SIDES)}
    q = {side: _quartiles(v) for side, v in sides.items()}
    out = {"better": better, "bound": bound, "pairs": pairs}
    for side in SIDES:
        out[side] = (None if q[side] is None else
                     dict(zip(("q1", "median", "q3"), q[side])))
    if q["parent"] is None or q["change"] is None:
        out["verdict"] = "no runs"
        return out
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = q["parent"][1], q["change"][1]
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (q["parent"][2] - q["parent"][0]) / abs(p_med) if p_med else 0.0
    full = [p for p in pairs if None not in p]
    won = sum(sign * (c - p) < 0 for p, c in full)
    all_better = max(sign * c for c in sides["change"]) < min(
        sign * p for p in sides["parent"])
    out.update(relative_change=worse, parent_spread=spread,
               pairs_won=won, pairs_compared=len(full),
               verdict=("worse" if worse > bound else
                        "unresolved" if spread > bound and not all_better
                        else "within bound"))
    return out


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: the failed share of each side, one summary per
    end-to-end metric (``end_to_end`` as in BENCHMARK.json) and one per raw
    value of ``RAW``, against the spec of its metric."""
    out = {}
    specs = {spec["name"]: spec for spec in end_to_end}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        n = max(r["pair"] for r in mine) + 1
        table = [[None, None] for _ in range(n)]
        raw = {key: [[None, None] for _ in range(n)] for key in RAW}
        for r in mine:
            table[r["pair"]][SIDES.index(r["side"])] = r["result"]
            for key in RAW:
                raw[key][r["pair"]][SIDES.index(r["side"])] = r[key]
        shares = {}
        for k, side in enumerate(SIDES):
            done = [row[k] for row in table if row[k] is not None]
            shares[side] = {
                "runs_without_result": n - len(done),
                "attempted": sum(res["attempted"] for res in done),
                "failed": sum(res["failed"] for res in done),
                "incorrect_runs": sum(not res["correct"] for res in done)}
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            pairs = [[None if res is None or name not in res["metrics"]
                      else res["metrics"][name]["value"] for res in row]
                     for row in table]
            metrics[name] = _metric_summary(pairs, spec["better"], spec["bound"])
        out[workload] = {"failures": shares, "metrics": metrics}
        for key, name in RAW.items():
            out[workload][key] = _metric_summary(
                raw[key], specs[name]["better"], specs[name]["bound"])
    return out


def git_state(tree: Path) -> dict:
    """``git rev-parse HEAD`` of the tree, and whether its work tree differs
    from that commit."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    return {"head": head or "unavailable",
            "dirty": None if head is None else bool(git("status", "--porcelain"))}


def report(trees: dict, runs: list, end_to_end: list, seeds, seconds) -> dict:
    return {"trees": {side: git_state(trees[side]) for side in SIDES},
            "seeds": list(seeds), "seconds": seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "workloads": summarize(runs, end_to_end), "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the tree to compare with")
    ap.add_argument("--tree", type=Path, default=HERE.parent,
                    help="the tree of the change (default: this checkout)")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1, help="the first seed")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.tree.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = collect(trees, workloads, args.pairs, args.seed, seconds)
    seeds = range(args.seed, args.seed + args.pairs)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report(trees, runs, spec["end_to_end"], seeds,
                                      seconds), indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
