"""torusflow benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve_m1 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it starts ``SETUP_SAMPLES - 1`` set-up-only processes and
then the workload process, each fresh, and reports the end-to-end metrics;
``setup_s`` is the median of the set-up times of all of them.  With
``--trace 1`` it starts two fresh processes that run the first cycle, one
untraced and one traced, compares their CSVs and reports the per-layer
metrics.  The last line of standard
output is the JSON result; the lines before it are the environment record
and the metrics in readable form.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracing import metric_units  # noqa: E402

#: set-up samples per untraced run (the workload process is the last one)
SETUP_SAMPLES = 3
#: a run of the benchmark must end within this many seconds
DEADLINE_S = 170.0
#: job_tail_s percentile of the slot medians per workload.  It is fixed, so
#: a faster program (more samples) is judged at the same rank.  At
#: --seconds 30 it leaves at least ten jobs above it in a run of the
#: baseline program on solve_m1 and verify_m1; solve_m2 runs hold too few
#: jobs for a tail, and p90 there is about its slowest slot.
TAIL_PERCENTILE = {"solve_m1": 70, "verify_m1": 70, "solve_m2": 90}
TAIL_BEYOND = 10
#: the reference kernel's mean CPU time on a quiet shared 2-vCPU VM (Intel
#: Xeon): times are scaled to a host on which it takes this long
REF_NOMINAL_S = 0.020
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc malloc settings for workers: blocks up to 32 MiB come from the heap
#: and freed memory stays there for reuse
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
               "MALLOC_TRIM_THRESHOLD_": str(4 << 30)}

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    """Environment for workers: one BLAS/OpenMP thread (at most nproc), and
    a heap that keeps freed memory.

    The work is single-threaded Python around small matrix products; a
    second BLAS thread only spins (same wall time, twice the CPU time on
    two cores) and exposes every job to contention on the other core.
    With glibc's default malloc settings, the large arrays of N = 64 and
    m = 2 solves are mapped fresh and faulted in on every allocation: an
    N = 64 solve faults in about 1 GiB of pages (0.7 s of system time),
    an m = 2 N = 12 solve about 2.5 GiB (2.2 s), and the cost of a page
    fault on a shared VM swings with the host's memory load.
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.update(MALLOC_VARS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(env: dict, workload: str, seed: int) -> dict:
    return {"git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "cpu_count": os.cpu_count(),
            "threads": {v: env[v] for v in THREAD_VARS},
            "malloc": {v: env[v] for v in MALLOC_VARS},
            "workload": workload, "seed": seed}


def _worker(mode: str, args, env: dict, workdir: Path, deadline: float):
    """Run one worker; returns (its set-up CPU seconds, result or None).

    The worker prints ``READY <CPU seconds>`` once it is set up.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(
            timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker ran past the deadline")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY ") and ready is None:
            ready = float(line.split()[1])
        elif line.startswith("{"):
            result = json.loads(line)
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return ready, result


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _csv_identical(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.glob("*.csv"))
    if names != sorted(p.name for p in b.glob("*.csv")):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def slot_medians(latencies, slots: int) -> list:
    """Each slot's median latency.  Every cycle runs the same slots in the
    same order, so job i ran in slot i % slots.  One job slowed by the host
    moves one sample of one slot, and a run that ends inside a cycle does
    not tilt the mix towards the slots that ran once more."""
    return [statistics.median(latencies[i::slots]) for i in range(slots)]


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b), by the continued
    fraction of Numerical Recipes (6.4) evaluated with Lentz's method."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / (c if abs(c) > tiny else tiny)
        f *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return front * (f - 1.0)


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of percentile q of ``values``.

    A weighted mean of the order statistics, the i-th of n weighted by the
    mass a Beta((n + 1) p, (n + 1)(1 - p)) distribution, p = q / 100, puts
    on ((i - 1) / n, i / n].  A sample percentile is one or two order
    statistics; this estimate draws on the neighbouring ones too, so it
    moves less from run to run, and a change to any slot near the
    percentile moves it.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def run_untraced(args, env, workdir, deadline):
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        ready, _ = _worker("setup", args, env, workdir / f"setup{i}", deadline)
        setups.append(ready)
    ready, res = _worker("run", args, env, workdir / "run", deadline)
    setups.append(ready)
    lat = res["latencies"]
    n = len(lat)
    medians = slot_medians(lat, res["slots"])
    q = TAIL_PERCENTILE[args.workload]
    p_tail = hd_quantile(medians, q)
    beyond = sum(1 for x in lat if x > p_tail)
    ref_s = statistics.mean(res["ref_s"])
    scale = REF_NOMINAL_S / ref_s
    raw = {"setup_s": statistics.median(setups),
           "jobs_per_s": len(medians) / sum(medians),
           "job_p50_s": hd_quantile(medians, 50),
           "job_tail_s": p_tail}
    values = {k: v / scale if k == "jobs_per_s" else v * scale
              for k, v in raw.items()}
    values["peak_rss_mb"] = res["peak_rss_mb"]
    per_slot = sorted({len(lat[i::res["slots"]])
                       for i in range(res["slots"])})
    print(f"{args.workload}: {n} jobs in {res['slots']} slots "
          f"({'-'.join(map(str, per_slot))} each), "
          f"{res['wall_s']:.1f} s wall")
    print(f"  reference kernel {1000 * ref_s:.2f} ms CPU (mean of "
          f"{len(res['ref_s'])}); times below are CPU times scaled by "
          f"{REF_NOMINAL_S * 1000:g} ms / {1000 * ref_s:.2f} ms = "
          f"{scale:.4f}, unscaled in brackets")
    print(f"  setup_s      {values['setup_s']:.4f} s "
          f"[{raw['setup_s']:.4f}] (median of {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"  jobs_per_s   {values['jobs_per_s']:.4f} 1/s "
          f"[{raw['jobs_per_s']:.4f}] (median per slot; "
          f"{n} jobs / {sum(lat):.2f} s busy = {n / sum(lat):.4f})")
    print(f"  job_p50_s    {values['job_p50_s']:.4f} s "
          f"[{raw['job_p50_s']:.4f}] (Harrell-Davis median of slot "
          f"medians, n={n})")
    print(f"  job_tail_s   {values['job_tail_s']:.4f} s "
          f"[{p_tail:.4f}] (Harrell-Davis p{q} of slot medians, n={n}, "
          f"{beyond} above"
          + (")" if beyond >= TAIL_BEYOND else
             f"; fewer than {TAIL_BEYOND}: too few jobs for a tail)"))
    print(f"  failed_share {res['failed'] / n:.4f} ({res['failed']}/{n})")
    print(f"  known_defect_share {res['known_defect'] / n:.4f} "
          f"({res['known_defect']}/{n} N = 64 solves with the "
          "contraction_ratios defect)")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return res, metrics


def run_traced(args, env, workdir, deadline):
    """Cycle 0 untraced and traced, each in a fresh process, so no state
    the first pass leaves in its process can speed up the second."""
    _, plain = _worker("cycle", args, env, workdir / "plain", deadline)
    _, res = _worker("trace", args, env, workdir / "traced", deadline)
    identical, written = True, 0
    for name in res["cli_jobs"]:
        out_p = workdir / "plain" / "cycle" / name
        out_t = workdir / "traced" / "cycle" / name
        written += _dir_bytes(out_t)
        identical &= _csv_identical(out_p, out_t)
    got = res["metrics"]
    got["cli.bytes_written"] = written
    got["flow.contraction_certificate_ok.known_defects"] = res["known_defect"]
    got["trace.overhead_share"] = res["cpu_s"] / plain["cpu_s"] - 1.0
    units = metric_units()
    missing = sorted(set(units) - set(got))
    if missing:
        raise WorkerError(f"traced run lacks metrics {missing}")
    print(f"{args.workload} traced: {res['attempted']} jobs, "
          f"{res['spans']} spans, untraced {plain['cpu_s']:.2f} s, "
          f"traced {res['cpu_s']:.2f} s CPU, CSVs byte-identical: "
          f"{identical}; spans in {res['trace_out']}")
    for name in units:
        print(f"  {name} {got[name]} {units[name]}")
    metrics = {k: {"value": got[k], "unit": u} for k, u in units.items()}
    summary = {k: plain[k] + res[k]
               for k in ("attempted", "failed", "known_defect", "failures")}
    summary["csv_identical"] = identical
    return summary, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "torusflow" / "__init__.py").is_file():
        print(f"perfbench: no torusflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = _child_env()
    workdir = ROOT / ".perfbench_out" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    print("env " + json.dumps(environment(env, args.workload, args.seed)))
    try:
        if args.trace:
            res, metrics = run_traced(args, env, workdir, deadline)
        else:
            res, metrics = run_untraced(args, env, workdir, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, note in res["failures"]:
        print(f"  not passed {name}: {note}")
    correct = res["failed"] == 0 and res.get("csv_identical", True)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
