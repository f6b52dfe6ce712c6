"""Scenario-driven batch runner.

Loads a JSON scenario, dispatches the requested computation, and writes a
manifest, metric CSVs, and a pass/fail summary.  Exit codes: 0 all checks
pass, 1 a check failed, 2 scenario validation error, 3 the field was
rejected by an admissibility certificate (the violated bound is named).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AdmissibilityViolation, TorusflowError
from .flow import (AdmissibleField, contraction_certificate_ok,
                   restriction_consistency, solve_flow)
from .fourier import FourierMap, strip_norms
from .group import (AnalyticDiffeo, ac_modulus_check, evol_right,
                    trotter_curve, verify_evolution_pointwise)
from .limits import (MAX_MODE, LinearScaleMap, PointwiseSquareMap,
                     cauchy_bound_check, make_levels, third_ball_lipschitz,
                     verify_continuity_estimate)
from .pullback import contravariance_defect, pullback_apply, pullback_path
from .timepaths import TimeDependentField, TimeGrid

KINDS = ("solve", "verify", "sweep", "trotter", "limits", "pullback")


def _fail(msg: str, code: int) -> int:
    print(f"torusflow: {msg}", file=sys.stderr)
    return code


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))    # np.float64 is a float whose repr names it
    return str(x)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# field construction from scenario specs
# ---------------------------------------------------------------------------

def build_map(spec: dict, order: int, m: int) -> FourierMap:
    kind = spec["type"]
    if kind == "zero":
        return FourierMap.zero(order, m, m)
    if kind == "constant":
        return FourierMap.constant(spec["value"], order, m)
    if kind in ("sine", "cosine"):     # along the first axis for m = 2
        c = (-0.5j if kind == "sine" else 0.5) * float(spec["amplitude"])
        mode = spec.get("mode", 1)
        return FourierMap.from_modes({mode if m == 1 else tuple(mode):
                                      [c, 0.0][:m]}, order, m=m)
    if kind == "coeffs":
        modes = {}
        for entry in spec["modes"]:
            k, re, im = entry[0], entry[1], entry[2]
            key = k if np.isscalar(k) else tuple(k)
            modes[key] = [re + 1j * im]
        return FourierMap.from_modes(modes, order, m=m)
    raise ValueError(f"unknown map spec type {kind!r}")


def build_field(spec: dict, order: int, m: int,
                scale: float) -> TimeDependentField:
    kind = spec["type"]
    if kind == "step":
        grid = TimeGrid(tuple(Fraction(b) for b in spec["grid"]))
        vals = [build_map(s, order, m) for s in spec["values"]]
        return TimeDependentField.step(grid, vals, scale)
    return TimeDependentField.constant(build_map(spec, order, m), scale)


def random_admissible_field(rng: np.random.Generator, order: int = 32,
                            budget: float = 0.3, scale: float = 0.2,
                            eps: float = 0.05,
                            max_mode: int = 4) -> TimeDependentField:
    """Random piecewise-constant field scaled to an L^1 beta budget."""
    n_pieces = int(rng.integers(1, 4))
    if n_pieces > 1:
        cuts = sorted(rng.choice(np.arange(1, 8), size=n_pieces - 1,
                                 replace=False))
        grid = TimeGrid((Fraction(0),)
                        + tuple(Fraction(int(c), 8) for c in cuts)
                        + (Fraction(1),))
    else:
        grid = TimeGrid.uniform(1)
    vals = []
    for _ in range(n_pieces):
        f = FourierMap.zero(order, 1, 1)
        for k in range(1, max_mode + 1):
            v = (rng.normal() + 1j * rng.normal()) * np.exp(-0.8 * k)
            f.coeffs[order + k, 0] = v
            f.coeffs[order - k, 0] = np.conj(v)
        f.coeffs[order, 0] = 0.5 * rng.normal()
        vals.append(FourierMap(f.coeffs))
    field = TimeDependentField.step(grid, vals, scale)
    b = field.lp_norm(1, "beta", 2 * eps)
    return (budget / b) * field if b > 0 else field


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _certify(scenario: dict) -> AdmissibleField:
    order = int(scenario.get("order", 32))
    m = int(scenario.get("m", 1))
    eps = float(scenario.get("eps", 0.05))
    scale = float(scenario.get("scale", 4 * eps))
    spec = scenario["field"]
    if spec["type"] == "random":
        # budget normalised at the scenario's own width 2 eps
        field = random_admissible_field(
            np.random.default_rng(scenario["seed"]), order=order,
            budget=float(spec.get("budget", 0.3)), scale=scale, eps=eps)
    else:
        field = build_field(spec, order, m, scale)
    return AdmissibleField.certify(field, eps,
                                   chart_delta0=scenario.get("delta0", 1.0),
                                   for_chart=scenario.get("for_chart", False))


def _flow_json(data: dict) -> str:
    """flow.json, one line per field and per snapshot: json.dumps without
    indent runs the C encoder, with indent the pure-Python one."""
    fields = {k: json.dumps(v) for k, v in data.items() if k != "snapshots"}
    fields["snapshots"] = "[\n  " + ",\n  ".join(
        map(json.dumps, data["snapshots"])) + "\n ]"
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {fields[k]}"
                               for k in data) + "\n}"


def run_solve(scenario: dict, out: Path, checks: list) -> None:
    tol = float(scenario.get("tolerances", {}).get("tol_solve", 1e-10))
    gamma = _certify(scenario)
    path = solve_flow(gamma, tol_solve=tol)
    write_csv(out / "iteration_log.csv", ("step", "sup_diff", "ratio"),
              path.iteration_log)
    write_csv(out / "norms.csv", ("eps", "nu", "beta", "tail_ratio"),
              [strip_norms(u, gamma.eps).as_row() for u in path.snapshots])
    (out / "flow.json").write_text(_flow_json(path.to_json()))
    checks.append(("residual", path.residual, tol, path.residual <= tol))
    checks.append(("contraction_ratios", gamma.theta_hat + 0.05, 0.55,
                   contraction_certificate_ok(path)))
    reach = path.imag_reach_max(gamma.eps / 2)
    checks.append(("strip_invariant", reach, gamma.eps, reach < gamma.eps))
    end = AnalyticDiffeo.certify(path.snapshots[-1], gamma.eps)
    checks.append(("endpoint_mu", end.mu, 1.0, end.mu < 1.0))


def run_verify(scenario: dict, out: Path, checks: list) -> None:
    tol_pw = float(scenario.get("tolerances", {}).get("tol_pointwise", 1e-8))
    gamma = _certify(scenario)
    evol = evol_right(gamma)
    rng = np.random.default_rng(scenario.get("seed", 0))
    probes = rng.uniform(0, 1, size=(8, gamma.field.m))
    rep = verify_evolution_pointwise(evol, gamma, probes, tol_pw)
    write_csv(out / "pointwise_residuals.csv", ("probe", "time", "residual"),
              rep.rows)
    checks.append(("pointwise_residual", rep.max_residual, tol_pw, rep.passed))
    rrep = restriction_consistency(gamma, gamma.eps / 2)
    checks.append(("restriction", rrep.discrepancy, rrep.tol, rrep.ok))
    ac_rows = ac_modulus_check(evol)
    write_csv(out / "ac_modulus.csv",
              ("t_a", "t_b", "increment", "bound", "pass"), ac_rows)
    checks.append(("ac_modulus", max(r[2] for r in ac_rows),
                   max(r[3] for r in ac_rows), all(r[4] for r in ac_rows)))


def _sweep_item(args) -> tuple:
    index, order, eps, budget, seed, tol = args
    rng = np.random.default_rng(seed)
    field = random_admissible_field(rng, order=order, budget=budget,
                                    eps=eps, scale=4 * eps)
    gamma = AdmissibleField.certify(field, eps)
    path = solve_flow(gamma, tol_solve=tol)
    ratios = [r for _, d, r in path.iteration_log[1:]
              if np.isfinite(r) and d > 1e-13]
    return (index, gamma.theta_hat, max(ratios) if ratios else 0.0,
            path.residual, path.imag_reach_max(eps / 2),
            contraction_certificate_ok(path))


def run_sweep(scenario: dict, out: Path, checks: list,
              workers: int = 1) -> None:
    count = int(scenario.get("count", 10))
    order = int(scenario.get("order", 32))
    eps = float(scenario.get("eps", 0.05))
    seed = int(scenario.get("seed", 0))
    tol = float(scenario.get("tolerances", {}).get("tol_solve", 1e-10))
    budgets = scenario.get("budgets")
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        budget = (float(budgets[i % len(budgets)]) if budgets
                  else float(rng.uniform(0.1, 0.42)))
        items.append((i, order, eps, budget, seed + 1000 + i, tol))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_item, items))
    else:
        rows = [_sweep_item(it) for it in items]
    write_csv(out / "sweep.csv",
              ("index", "theta_hat", "max_ratio", "residual", "reach", "ok"),
              rows)
    worst = max(r[2] for r in rows)
    checks.append(("sweep_contraction", worst, 0.55,
                   all(r[5] for r in rows) and worst <= 0.55))


def run_trotter(scenario: dict, out: Path, checks: list) -> None:
    order = int(scenario.get("order", 32))
    m = int(scenario.get("m", 1))
    eps = float(scenario.get("eps", 0.05))
    v = build_map(scenario["v"], order, m)
    w = build_map(scenario["w"], order, m)
    ladder = tuple(scenario.get("ladder", (8, 16, 32, 64, 128)))
    curve = trotter_curve(v, w, eps, n_values=ladder)
    write_csv(out / "trotter.csv", ("n", "distance"), curve)
    ds = [d for _, d in curve]
    ratios = [ds[i + 1] / ds[i] for i in range(len(ds) - 1) if ds[i] > 0]
    window_ok = all(0.35 <= r <= 0.65 for r in ratios) if ratios else True
    checks.append(("trotter_ratio_window",
                   max(ratios) if ratios else 0.0, 0.65, window_ok))
    checks.append(("trotter_decade", ds[-1], ds[0] / 10,
                   ds[-1] <= ds[0] / 10 or ds[0] == 0))


def run_limits(scenario: dict, out: Path, checks: list) -> None:
    order = int(scenario.get("order", 16))
    eps_top = float(scenario.get("eps_top", 0.2))
    radii = scenario.get("radii", [0.5, 0.6, 0.7, 0.8])
    count = int(scenario.get("count", 1000))
    eps_target = float(scenario.get("eps_target", 0.05))
    rng = np.random.default_rng(scenario.get("seed", 0))
    levels = make_levels(eps_top, radii, order)
    f = (PointwiseSquareMap() if scenario.get("map", "square") == "square"
         else LinearScaleMap(np.full(2 * order + 1, 0.9, dtype=complex)))
    p_eps = levels[-1].eps
    certs = f.lipschitz_certs(levels, p_eps)
    rep = verify_continuity_estimate(f, levels, certs, p_eps, eps_target,
                                     count, rng)
    write_csv(out / "continuity.csv",
              ("sample_id", "depth", "telescoped_bound", "observed_p", "pass"),
              rep.rows)
    checks.append(("continuity_violations", rep.violations, 0,
                   rep.violations == 0))
    n_ratio = scenario.get("ratio_samples", 1000)
    cb = cauchy_bound_check(f, levels[0], levels[0].eps, n_ratio, rng)
    tb = third_ball_lipschitz(f, levels[0], levels[0].eps, n_ratio, rng)
    checks.append(("cauchy_ratio", cb.max_ratio, 1.001, cb.ok()))
    checks.append(("third_ball_ratio", tb.max_ratio, 1.001, tb.ok()))


def run_pullback(scenario: dict, out: Path, checks: list) -> None:
    gamma = _certify(scenario)
    K = int(scenario.get("K", 8))
    rep = pullback_path(gamma, float(scenario.get("t0", 0.0)), K)
    final = rep.matrices[-1]
    write_csv(out / "pullback_matrix.csv", ("j", "k", "re", "im"),
              final.to_rows())
    write_csv(out / "ac_modulus.csv",
              ("t_a", "t_b", "increment", "bound", "pass"), rep.ac_rows)
    write_csv(out / "transport.csv", ("time", "test_fn", "residual"),
              rep.transport_rows)
    checks.append(("pullback_ac", max(r[2] for r in rep.ac_rows),
                   max(r[3] for r in rep.ac_rows), rep.ac_ok))
    checks.append(("transport_residual", rep.max_transport_residual,
                   rep.transport_tol, rep.transport_ok))
    order = gamma.field.order
    phi = AnalyticDiffeo.certify(gamma.field.value_at(0.0) * 0.5, gamma.eps)
    psi = AnalyticDiffeo.certify(
        FourierMap.constant([0.3] * gamma.field.m, order, gamma.field.m),
        gamma.eps)
    d = contravariance_defect(phi, psi, min(2 * K, order))
    checks.append(("contravariance", d, 1e-8, d <= 1e-8))
    f_test = FourierMap.from_modes({1: [0.4]} if gamma.field.m == 1
                                   else {(1, 0): [0.4]}, order,
                                   m=gamma.field.m, ncomp=1)
    g_test = FourierMap.from_modes({2: [-0.2j]} if gamma.field.m == 1
                                   else {(0, 1): [-0.2j]}, order,
                                   m=gamma.field.m, ncomp=1)
    lin = pullback_apply(phi, f_test + 2.0 * g_test, tol_trunc=1e-5) \
        - (pullback_apply(phi, f_test, tol_trunc=1e-5)
           + 2.0 * pullback_apply(phi, g_test, tol_trunc=1e-5))
    lin_defect = float(np.abs(lin.coeffs).max())
    checks.append(("linearity", lin_defect, 1e-12, lin_defect <= 1e-12))


RUNNERS = {
    "solve": run_solve,
    "verify": run_verify,
    "sweep": run_sweep,
    "trotter": run_trotter,
    "limits": run_limits,
    "pullback": run_pullback,
}


def _number(value) -> bool:
    """A JSON number; booleans and numeric strings are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_number(value) -> bool:
    return _number(value) and value > 0


def _integer(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _spec_problem(spec, m: int, order: int, field: bool = False) -> str | None:
    """Why a map or field spec (``step`` values included) cannot be built:
    an unknown type, a step grid that is no rational grid from 0 to 1 or
    values not one map per interval, an amplitude that is no number, a mode
    that is no lattice index k with ||k||_1 <= order, nonzero for
    sine/cosine, or a constant value that is no list of m numbers."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if spec is None or kind == "zero" or (field and kind == "random"):
        return None
    if kind == "step" and field:
        grid, values = spec.get("grid"), spec.get("values")
        try:
            TimeGrid(tuple(map(Fraction, grid)))
        except (ArithmeticError, IndexError, TypeError, ValueError) as exc:
            return f"step grid {grid!r}: {exc}"
        if not (isinstance(values, list) and len(values) == len(grid) - 1):
            return "step values must be a list of one map per grid interval"
        return next(filter(None, (_spec_problem(v, m, order)
                                  for v in values)), None)
    if kind == "constant":
        value = spec.get("value")
        if isinstance(value, list) and len(value) == m and all(
                map(_number, value)):
            return None
        return f"constant value must be a list of m = {m} numbers, got {value!r}"
    if kind in ("sine", "cosine"):
        if not _number(spec.get("amplitude")):
            return f"{kind} amplitude must be a number, got {spec.get('amplitude')!r}"
        entries, low = [spec.get("mode", 1)], 1
    elif kind == "coeffs":      # [k, re, im] entries
        entries, low = spec.get("modes"), 0
    else:
        return f"unknown map spec type {kind!r}"
    for entry in entries if isinstance(entries, list) else [entries]:
        k = entry if low else (entry[0] if isinstance(entry, list) and len(
            entry) == 3 and all(map(_number, entry[1:])) else None)
        pair = (isinstance(k, (list, tuple)) and len(k) == 2
                and all(map(_integer, k)))
        l1 = (abs(k) if m == 1 and _integer(k) else
              abs(k[0]) + abs(k[1]) if m == 2 and pair else -1)
        if not low <= l1 <= order:
            return (f"{kind} modes must be {'integers' if m == 1 else 'integer pairs'}"
                    f" k with {'0 < ' * low}||k||_1 <= order = {order}, got {entry!r}")
    return None


def validate_scenario(scenario: dict, kind: str) -> str | None:
    if scenario.get("kind") != kind:
        return f"scenario kind {scenario.get('kind')!r} does not match {kind!r}"
    tols = scenario.get("tolerances", {})
    if not (isinstance(tols, dict) and all(map(_positive_number, tols.values()))):
        return f"tolerances must be positive numbers, got {tols!r}"
    order = scenario.get("order", 16 if kind == "limits" else 32)
    m = scenario.get("m", 1)
    if not _integer(order) or order < 1:
        return f"order must be an integer >= 1, got {order!r}"
    if not _integer(m) or m not in (1, 2):
        return f"m must be 1 or 2, got {m!r}"
    for key in ("eps_top", "eps_target") if kind == "limits" else ("eps",):
        if not _positive_number(scenario.get(key, 0.1)):
            return f"{key} must be positive, got {scenario[key]!r}"
    eps = scenario.get("eps", 0.05)
    scale = scenario.get("scale", 4 * eps)      # norms are quoted at 2 eps
    if kind in ("solve", "verify", "pullback") and not (
            _positive_number(scale) and scale >= 2 * eps):
        return f"scale must be a number >= 2 eps = {2 * eps:g}, got {scale!r}"
    for key in ("field", "v", "w"):
        problem = _spec_problem(scenario.get(key), m, order, key == "field")
        if problem:
            return f"{key}: {problem}"
    K = scenario.get("K", 8)
    if kind == "pullback" and not (_integer(K) and 1 <= K <= order):
        return f"pullback K must be an integer in [1, order = {order}], got {K!r}"
    ladder = scenario.get("ladder", [8])
    if kind == "trotter" and not (isinstance(ladder, list) and ladder and all(
            _integer(n) and n >= 1 and n & (n - 1) == 0 for n in ladder)):
        return f"trotter ladder entries must be powers of two, got {ladder!r}"
    random_field = (isinstance(scenario.get("field"), dict)
                    and scenario["field"].get("type") == "random")
    if random_field and m != 1:
        return "random field specs draw fields on T^1 only (m = 1)"
    if kind == "sweep" and m != 1:
        return "sweeps draw random fields on T^1 only (m = 1)"
    if kind == "limits" and (m != 1 or "eps" in scenario):
        return ("limits scenarios run the m = 1 harness on the widths "
                "eps_top/eps_target; they take no m != 1 and no eps")
    for key in {"sweep": ["count"], "limits": ["count", "ratio_samples"]}.get(
            kind, []):
        count = scenario.get(key, 10)
        if not (_integer(count) and count >= 1):
            return f"{kind} {key} must be an integer >= 1, got {count!r}"
    if kind == "limits":
        if scenario.get("map", "square") not in ("square", "linear"):
            return f"unknown harness map {scenario['map']!r}"
        if scenario.get("order", 16) < MAX_MODE:
            return f"limits order must be >= {MAX_MODE} (the ball maps' modes)"
        radii = scenario.get("radii", [0.5])
        if not (isinstance(radii, list) and radii
                and all(map(_positive_number, radii))
                and all(a <= b for a, b in zip(radii, radii[1:]))):
            return ("limits radii must be a non-empty, non-decreasing list "
                    f"of positive numbers, got {radii!r}")
    needs_seed = kind in ("sweep", "verify", "limits") or random_field
    if needs_seed and scenario.get("seed") is None:
        return "sampling scenarios must carry a seed for reproducibility"
    if kind in ("solve", "verify", "pullback") and "field" not in scenario:
        return "missing field spec"
    if kind == "trotter" and not ("v" in scenario and "w" in scenario):
        return "trotter scenarios need maps v and w"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="torusflow",
        description="flow solves, verifications and sweeps on the torus")
    ap.add_argument("kind", choices=KINDS)
    ap.add_argument("scenario", type=Path)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)

    try:
        scenario = json.loads(args.scenario.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load scenario: {exc}", 2)
    problem = validate_scenario(scenario, args.kind)
    if problem:
        return _fail(f"invalid scenario: {problem}", 2)
    if args.seed is not None:
        scenario["seed"] = args.seed

    out = args.out or Path(scenario.get("out", f"out_{args.scenario.stem}"))
    out.mkdir(parents=True, exist_ok=True)

    checks: list = []
    try:
        if args.kind == "sweep":
            run_sweep(scenario, out, checks, workers=args.workers)
        else:
            RUNNERS[args.kind](scenario, out, checks)
    except AdmissibilityViolation as exc:
        (out / "summary.json").write_text(json.dumps(
            {"kind": args.kind, "pass": False, "rejected": str(exc)}, indent=1))
        return _fail(f"admissibility rejection: {exc}", 3)
    except TorusflowError as exc:
        return _fail(f"run failed: {exc}", 1)
    except (ValueError, KeyError) as exc:
        return _fail(f"invalid scenario: {exc}", 2)

    manifest = {
        "scenario": scenario,
        "version": __version__,
        "seed": scenario.get("seed"),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    summary = {
        "kind": args.kind,
        "checks": [{"name": n, "value": v, "tol": t, "pass": bool(p)}
                   for n, v, t, p in checks],
        "pass": all(p for *_, p in checks),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    for name, value, tol, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.6g} "
              f"(tol {tol:.6g})")
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
