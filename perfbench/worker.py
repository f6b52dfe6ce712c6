"""One workload process: set up, then run jobs in a closed loop.

Run by ``run.py``; not meant to be started by hand.  Modes:

- ``setup``: import torusflow, generate inputs, run one warm-up job, print
  ``READY <CPU seconds since the process started>`` and exit;
- ``run``: the same set-up, then cycles of jobs, one job at a time, until
  ``--seconds`` have passed (the first cycle always runs whole), with
  ``REF_PER_JOB`` timed runs of the reference kernel after each job;
  prints one JSON result line;
- ``cycle``: the same set-up, then the first cycle once, keeping the job
  outputs under ``<workdir>/cycle``; prints one JSON result line;
- ``trace``: as ``cycle``, with the tracer installed; the result adds the
  per-layer metrics, and the spans go to
  ``.perfbench_out/trace-<workload>-<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import torusflow  # noqa: E402  (set-up includes the package import)

import gen  # noqa: E402
import jobs  # noqa: E402
from tracing import Tracer  # noqa: E402


#: reference kernel runs after each timed job (about 20 ms each)
REF_PER_JOB = 3


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def cpu_s() -> float:
    """CPU seconds of this process and its reaped children.

    Jobs run one at a time in one thread, so a job's CPU time is its
    latency on a core of its own.  Unlike wall time it leaves out the time
    the hypervisor of a shared host gives the core to other guests (steal
    time), which swings by tens of percent from minute to minute.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _run_jobs(job_list, workdir: Path, tag: str, keep: bool = False):
    """Run jobs one after another; returns [(job, latency, verdict, out)]
    with the latency in CPU seconds."""
    done = []
    for job in job_list:
        out = workdir / tag / job["name"]
        t0 = cpu_s()
        raw = jobs.execute(job, out)
        latency = cpu_s() - t0
        verdict = jobs.check(job, raw, out)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        done.append((job, latency, verdict, out))
    return done


def _cycle(workload: str, seed: int, cycle: int, workdir: Path) -> list:
    job_list = gen.CYCLES[workload](seed, cycle)
    for job in job_list:
        jobs.prepare(job, workdir)
    return job_list


def _summary(done) -> dict:
    """Job counts; a job that shows the known defect has not failed."""
    return {"attempted": len(done),
            "failed": sum(1 for _, _, v, _ in done if not v[0] and not v[1]),
            "known_defect": sum(1 for _, _, v, _ in done
                                if not v[0] and v[1]),
            "failures": [[j["name"],
                          v[2] + (" (known defect)" if v[1] else "")]
                         for j, _, v, _ in done if not v[0]]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "cycle", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(gen.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    warm = gen.warmup_job(args.workload, args.seed)
    jobs.prepare(warm, workdir)
    first = _cycle(args.workload, args.seed, 0, workdir)
    _run_jobs([warm], workdir, "warmup")
    _emit(f"READY {cpu_s()!r}")
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        # the first cycle runs whole, so every slot has a sample; after it
        # the run ends with the first job that finishes past --seconds
        done, refs = [], []

        def run_one(job):
            done.extend(_run_jobs([job], workdir, "run"))
            for _ in range(REF_PER_JOB):
                t0 = cpu_s()
                jobs.reference_kernel()
                refs.append(cpu_s() - t0)

        t_start = time.perf_counter()
        for job in first:
            run_one(job)
        cycle = 1
        while time.perf_counter() - t_start < args.seconds:
            for job in _cycle(args.workload, args.seed, cycle, workdir):
                run_one(job)
                if time.perf_counter() - t_start >= args.seconds:
                    break
            cycle += 1
        result = _summary(done)
        result.update({
            "latencies": [lat for _, lat, _, _ in done],
            "slots": len(first),
            "ref_s": refs,
            "wall_s": time.perf_counter() - t_start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        })
        _emit(json.dumps(result))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = cpu_s()
        done = _run_jobs(first, workdir, "cycle", keep=True)
        cpu_total = cpu_s() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = _summary(done)
    result.update({"cpu_s": cpu_total,
                   "cli_jobs": [j["name"] for j, _, _, _ in done
                                if j["type"] == "cli"]})
    if tracer is not None:
        trace_out = ROOT / ".perfbench_out" / \
            f"trace-{args.workload}-{args.seed}.json.gz"
        tracer.write(trace_out)
        result.update({"metrics": tracer.metrics(),
                       "spans": len(tracer.spans),
                       "trace_out": str(trace_out.relative_to(ROOT))})
    _emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
