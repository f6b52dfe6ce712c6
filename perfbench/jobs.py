"""Job execution and oracles.

``execute`` runs one job against the program and is what the benchmark
times.  ``check`` runs afterwards, outside the timed region, and compares
the job's output with an oracle computed here: a closed form, a
fixed-step RK4 trajectory of the generated modes, or an identity the
result must satisfy.  Its verdict is (as_expected, known_defect, note):

- as_expected is False when the exit code is not the expected one, a
  certificate check fails, an exception escapes, or the result misses its
  oracle;
- known_defect is True for the one such outcome the baseline program shows
  on purpose: at N = 64, rounding dust weighted by e^{2 pi N eps} trips the
  contraction-ratio test on correct flows.  It shows in two forms: the
  ``solve`` exits 1 with ``contraction_ratios`` as its only failed check
  while its flow meets the oracle, or the sweep itself aborts with
  ``NonContraction`` once the iteration has converged down to the dust.
  Such a job is counted as a known defect, not as failed.  A job that is
  not as expected in any other way counts as failed and makes the whole run
  incorrect, so a job that fails fast cannot pass as speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import torusflow as tf
from torusflow import cli
from torusflow.flow import contraction_certificate_ok

from gen import EPS, PROBES, TWO_PI, beta_1d

#: oracle tolerances
TOL_FLOW = 1e-8
TOL_HOMOMORPHISM = 1e-7
TOL_IDENTITY = 1e-8
TOL_CHART = 1e-9
#: pointwise trajectory residual and local chart inversion residual
TOL_TRAJECTORY = 1e-8
TOL_INVERSE = 1e-10
#: RK4 steps per unit time (aligned with the 1/8 breakpoints)
RK4_STEPS = 256
#: the sweep's NonContraction message, as the CLI prints it
ABORT = re.compile(r"observed ratio \S+ >= 1 at step (\d+)")
#: earliest step of a dust abort.  From a first step of about 0.1 and
#: contracting by theta_hat <= 0.21, the step size needs six or more sweeps
#: to fall to the ~1e-7 that rounding dust weighs at N = 64 (steps 6-9 are
#: seen); an abort before this step is not the known defect.
DUST_ABORT_STEP = 5

PROBES_2D = np.stack([PROBES, PROBES[(5 * np.arange(16) + 3) % 16]], axis=-1)


# ---------------------------------------------------------------------------
# execution (timed)
# ---------------------------------------------------------------------------

def prepare(job: dict, workdir: Path) -> None:
    """Write a CLI job's scenario file; part of input generation."""
    if job["type"] == "cli":
        path = workdir / f"{job['name']}.json"
        path.write_text(json.dumps(job["scenario"], indent=1))
        job["scenario_path"] = str(path)


def execute(job: dict, out: Path):
    """Run one job; returns its raw result.

    An exception ends the job as failed and is recorded with its
    traceback, so one broken job does not stop the run.
    """
    try:
        return _EXEC[job["type"]](job, out)
    except Exception:
        return {"error": traceback.format_exc(limit=-3)}


def _exec_cli(job, out: Path):
    argv = [job["kind"], job["scenario_path"], "--out", str(out)]
    if job["kind"] == "sweep":
        argv += ["--workers", "1"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return {"exit": code, "log": sink.getvalue()}


def _field_2d(job):
    modes = {k: [c[0], c[1]] for k, c in job["modes"]}
    f = tf.FourierMap.from_modes(modes, job["order"], m=2)
    return tf.TimeDependentField.constant(f, 4 * EPS)


def _exec_solve_m2(job, out):
    tol = 1e-10
    gamma = tf.AdmissibleField.certify(_field_2d(job), EPS)
    path = tf.solve_flow(gamma, tol_solve=tol, max_step=Fraction(1, 8))
    end = tf.AnalyticDiffeo.certify(path.snapshots[-1], gamma.eps)
    checks = {"residual": path.residual <= tol,
              "contraction_ratios": contraction_certificate_ok(path),
              "strip_invariant": path.check_strip_invariant(),
              "endpoint_mu": end.mu < 1.0}
    return {"checks": checks, "u_end": path.snapshots[-1].coeffs}


def _trig_map(kind: str, mode: int, budget: float, order: int):
    """a sin / a cos of one mode, scaled to beta budget at width 2 eps."""
    a = budget / (TWO_PI * mode * math.exp(TWO_PI * mode * 2 * EPS))
    c = -0.5j * a if kind == "sine" else 0.5 * a
    return tf.FourierMap.from_modes({mode: [c]}, order)


def _exec_homomorphism(job, out):
    order = job["order"]
    pts = PROBES[:, None].astype(complex)
    gam, eta = (tf.AdmissibleField.certify(tf.TimeDependentField.constant(
        _trig_map(*job[key], order), 4 * EPS), EPS) for key in ("gamma", "eta"))
    prod = tf.AdmissibleField.certify(tf.odot(gam, eta), EPS)
    e_prod, e_g, e_e = tf.evol_left(prod), tf.evol_left(gam), tf.evol_left(eta)
    defect = 0.0
    for t in (0.5, 1.0):
        lhs = e_prod.eval_at(t, pts)
        rhs = e_g.eval_at(t, e_e.eval_at(t, pts))
        defect = max(defect, float(np.abs(lhs - rhs).max()))
    return {"defect": defect}


def _modes_1d_map(modes, scale: float, order: int):
    return tf.FourierMap.from_modes({k: [scale * c] for k, c in modes}, order)


def _exec_identity(job, out):
    order = job["order"]
    modes = job["modes"]
    scale = job["budget"] / beta_1d(modes, 2 * EPS)
    gamma = tf.AdmissibleField.certify(tf.TimeDependentField.constant(
        _modes_1d_map(modes, scale, order), 4 * EPS), EPS)
    pts = PROBES[:, None].astype(complex)
    right = tf.evol_right(gamma)
    defect = 0.0
    for tq in job["times"]:
        t = Fraction(tq)
        lhs = right.eval_at(float(t), pts)
        minus = tf.evol_left_by_reversal(gamma.negated(), t)
        rhs = tf.invert_diffeo(minus)(pts)
        defect = max(defect, float(np.abs(lhs - rhs).max()))
    traj = tf.pointwise_solution(right.flow, 0.5, pts[:1, 0])
    return {"defect": defect, "trajectory": traj.max_residual}


def _exec_chart(job, out):
    order = job["order"]
    term = tf.FourierMap.from_modes({1: [-0.5j * job["alpha_amp"]]}, order)
    alpha = tf.LocalAddition([((2,), term)], m=1, order=order)
    cert = tf.find_delta0(alpha, EPS)
    f = tf.FourierMap.from_modes({1: [-0.5j * job["field_amp"]]}, order)
    gamma = tf.AdmissibleField.certify(
        tf.TimeDependentField.constant(f, 4 * EPS), EPS,
        chart_delta0=cert.delta0, for_chart=True)
    flow = tf.solve_flow(gamma)
    path = tf.flow_to_chart(flow, alpha, cert)
    z = PROBES[:, None].astype(complex)
    target = z + 0.2 * cert.delta0 * np.cos(TWO_PI * z)
    w = tf.invert_local(alpha, cert, z, target)
    return {"defect": tf.chart_roundtrip_defect(flow, alpha, path),
            "inverse": float(np.abs(alpha(z, w) - target).max())}


_EXEC = {"cli": _exec_cli, "solve_m2": _exec_solve_m2,
         "homomorphism": _exec_homomorphism, "identity": _exec_identity,
         "chart": _exec_chart}


# ---------------------------------------------------------------------------
# oracles (untimed)
# ---------------------------------------------------------------------------

def field_1d_values(modes, x):
    """Real values of sum over k >= 0 modes (conjugates implied) at x."""
    val = np.zeros_like(x)
    for k, c in modes:
        if k == 0:
            val = val + c.real
        else:
            val = val + 2.0 * (c * np.exp(1j * TWO_PI * k * x)).real
    return val


def _field_2d_values(modes, x):
    val = np.zeros_like(x)
    for k, c in modes:
        phase = np.exp(1j * TWO_PI * (k[0] * x[:, 0] + k[1] * x[:, 1]))
        val = val + 2.0 * np.stack([(c[0] * phase).real,
                                    (c[1] * phase).real], axis=-1)
    return val


def rk4(rhs_pieces, breakpoints, x0):
    """Fixed-step RK4 of x' = rhs_j(x) on piece j, steps aligned to breaks."""
    x = np.array(x0, dtype=float)
    for f, a, b in zip(rhs_pieces, breakpoints, breakpoints[1:]):
        n = max(1, round((b - a) * RK4_STEPS))
        h = (b - a) / n
        for _ in range(n):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


#: the reference kernel's inputs: nine decaying modes at 256 points
REF_X = (np.arange(256) + 0.37) / 256.0
REF_MODES = [(0, 0.01 + 0j)] + [(k, (0.02 + 0.01j) * math.exp(-0.8 * k))
                                for k in range(1, 9)]


def reference_kernel() -> np.ndarray:
    """Fixed work that measures how fast the host runs at the moment.

    RK4 over 1/8 of unit time (32 steps) of a nine-mode m = 1 field at 256
    points: Python loops over small numpy arrays, the same kind of work
    the program does, in the benchmark's own code.  It does not touch
    torusflow, so a change to the program leaves its time alone, while a
    host that runs slower or faster for a while moves it with the jobs.
    """
    return rk4([lambda x: field_1d_values(REF_MODES, x)], [0.0, 0.125], REF_X)


def oracle_1d(oracle) -> np.ndarray:
    """Positions at t = 1 of the generated m = 1 field started at PROBES."""
    if oracle[0] == "sine":
        a = oracle[1]
        y = np.arctan(np.exp(TWO_PI * a) * np.tan(np.pi * PROBES)) / np.pi
        return np.where(PROBES > 0.5, y + 1.0, y)
    _, bps, pieces = oracle
    rhs = [lambda x, m=m: field_1d_values(m, x) for m in pieces]
    return rk4(rhs, bps, PROBES)


def oracle_2d(modes) -> np.ndarray:
    return rk4([lambda x: _field_2d_values(modes, x)], [0.0, 1.0], PROBES_2D)


def flow_1d_from_json(flow: dict) -> np.ndarray:
    """zeta(1) at PROBES from the modes of the last snapshot in flow.json."""
    y = PROBES.astype(complex)
    for k, re, im in flow["snapshots"][-1]:
        y = y + (re + 1j * im) * np.exp(1j * TWO_PI * k * PROBES)
    return y.real


def flow_2d_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """zeta(1) at PROBES_2D from the coefficient cube of the last snapshot."""
    order = coeffs.shape[0] // 2
    x = PROBES_2D
    y = x.astype(complex)
    for i1, i2 in zip(*np.nonzero(np.abs(coeffs).max(axis=-1))):
        k1, k2 = i1 - order, i2 - order
        phase = np.exp(1j * TWO_PI * (k1 * x[:, 0] + k2 * x[:, 1]))
        y = y + coeffs[i1, i2][None, :] * phase[:, None]
    return y.real


def check(job: dict, raw: dict, out: Path):
    """(as_expected, known_defect, note) for one finished job."""
    if "error" in raw:
        return False, False, raw["error"]
    kind = job["type"]
    if kind == "cli":
        return _check_cli(job, raw, out)
    if kind == "solve_m2":
        err = float(np.abs(flow_2d_from_coeffs(raw["u_end"])
                           - oracle_2d(job["modes"])).max())
        failed = [n for n, ok in raw["checks"].items() if not ok]
        return (not failed and err <= TOL_FLOW, False,
                f"oracle {err:.2e} failed {failed}")
    tol = {"homomorphism": TOL_HOMOMORPHISM, "identity": TOL_IDENTITY,
           "chart": TOL_CHART}[kind]
    ok = (raw["defect"] <= tol
          and raw.get("trajectory", 0.0) <= TOL_TRAJECTORY
          and raw.get("inverse", 0.0) <= TOL_INVERSE)
    note = " ".join(f"{k} {v:.2e}" for k, v in raw.items())
    return ok, False, note


def _check_cli(job, raw, out: Path):
    code, want = raw["exit"], job["expect_exit"]
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError):
        summary = {}
    if want == 3:
        ok = code == 3 and summary.get("pass") is False \
            and "rejected" in summary
        return ok, False, f"exit {code}"
    passed = code == 0 and summary.get("pass") is True
    note = f"exit {code}"
    failed = [c["name"] for c in summary.get("checks", []) if not c["pass"]]
    if failed:
        note += " failed " + ",".join(failed)
    met = False
    if job.get("oracle") is not None and (out / "flow.json").exists():
        flow = json.loads((out / "flow.json").read_text())
        err = float(np.abs(flow_1d_from_json(flow)
                           - oracle_1d(job["oracle"])).max())
        met = err <= TOL_FLOW
        note += f" oracle {err:.2e}"
    abort = ABORT.search(raw["log"])
    if abort:
        note += " aborted: " + abort.group(0)
    dust = (failed == ["contraction_ratios"] and met) or (
        abort is not None and int(abort.group(1)) >= DUST_ABORT_STEP)
    known = (job["kind"] == "solve" and job.get("order") == 64 and code == 1
             and dust)
    return passed and (met or job.get("oracle") is None), known, note
