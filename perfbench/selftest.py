"""Self-test of the benchmark: deterministic inputs and exact counts.

    python3 perfbench/selftest.py

For every workload, with seed 1 and held-out seed 2:

1. The same seed gives the same inputs, cycle by cycle.
2. The held-out seed gives different inputs with the same job mix
   and the same size distribution: identical job structure (type, kind,
   order, time pieces, expected exit) and budgets in the same strata.
3. Two traced runs of the same seed report exactly the same counts (every
   per-layer metric that is not a time or the tracing overhead).

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

CYCLES_CHECKED = 3
SEED = 1
HELD_OUT = 2


def _structure(job: dict) -> tuple:
    """What a job's size depends on, without its coefficients."""
    sc = job.get("scenario", {})
    field = sc.get("field", {})
    return (job["type"], job.get("kind"), job.get("order", sc.get("order")),
            field.get("type"), len(field.get("values", [])),
            job.get("expect_exit"), len(job.get("modes", [])),
            tuple(sc.get("ladder", ())), sc.get("count"), sc.get("K"))


def _budget_stratum(workload: str, index: int):
    if workload == "solve_m1":
        return gen.SOLVE_M1_SLOTS[index][3]
    if workload == "solve_m2":
        return gen.SOLVE_M2_SLOTS[index][1]
    return None


def check_generation(workload: str, seed: int, held_out: int) -> list:
    problems = []
    for cycle in range(CYCLES_CHECKED):
        a = gen.CYCLES[workload](seed, cycle)
        if repr(a) != repr(gen.CYCLES[workload](seed, cycle)):
            problems.append(f"{workload}: seed {seed} cycle {cycle} "
                            "is not reproducible")
        b = gen.CYCLES[workload](held_out, cycle)
        if [_structure(j) for j in a] != [_structure(j) for j in b]:
            problems.append(f"{workload}: seeds {seed} and {held_out} give "
                            f"different job mixes in cycle {cycle}")
        if repr(a) == repr(b):
            problems.append(f"{workload}: seeds {seed} and {held_out} give "
                            f"identical inputs in cycle {cycle}")
        for i, (ja, jb) in enumerate(zip(a, b)):
            stratum = _budget_stratum(workload, i)
            if stratum is None or "budget" not in ja:
                continue
            lo, hi = stratum
            if not (lo <= ja["budget"] <= hi and lo <= jb["budget"] <= hi):
                problems.append(f"{workload}: slot {i} budget leaves its "
                                f"stratum {stratum}")
    return problems


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run of {workload} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k != "trace.overhead_share"}


def check_counts(workload: str, seed: int) -> list:
    first = _traced_counts(workload, seed)
    second = _traced_counts(workload, seed)
    return [f"{workload}: {k} was {first[k]}, then {second[k]}"
            for k in first if first[k] != second[k]]


def main() -> int:
    problems = []
    for workload in sorted(gen.CYCLES):
        problems += check_generation(workload, SEED, HELD_OUT)
        problems += check_counts(workload, SEED)
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
