"""Scenario-driven batch runner.

``parse_scenario`` reads a JSON scenario once, against the table ``FIELDS``,
into a frozen record with every default filled in and every field spec built.
The runners read only that record, and write a manifest (the raw scenario
echoed), metric CSVs and a pass/fail summary.  Exit codes: 0 all checks pass;
1 a check failed or a numerical fault (``TorusflowError``); 2 an invalid
scenario (``ScenarioError`` names the field), with nothing written; 3 an
admissibility rejection (the violated bound is named).  Any other exception
is a bug.  Fields the kind does not read are named in a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AdmissibilityViolation, TorusflowError
from .flow import (AdmissibleField, contraction_check, restriction_consistency,
                   solve_checks, solve_flow, sweep_check)
from .fourier import FourierMap, strip_norms
from .group import (AnalyticDiffeo, ac_check, ac_modulus_check, evol_right,
                    trotter_checks, trotter_curve, verify_evolution_pointwise)
from .limits import (MAX_MODE, LinearScaleMap, PointwiseSquareMap,
                     cauchy_bound_check, make_levels, third_ball_lipschitz,
                     verify_continuity_estimate)
from .pullback import operator_checks, pullback_path
from .timepaths import TimeDependentField, TimeGrid

KINDS = ("solve", "verify", "sweep", "trotter", "limits", "pullback")
RANDOM_MODES = 4        # a random field's highest mode
PARSER = argparse.ArgumentParser(     # built once, for every job of a process
    prog="torusflow",
    description="flow solves, verifications and sweeps on the torus")
PARSER.add_argument("kind", choices=KINDS)
PARSER.add_argument("scenario", type=Path)
PARSER.add_argument("--out", type=Path, default=None)
PARSER.add_argument("--workers", type=int, default=1)
PARSER.add_argument("--seed", type=int, default=None)


class ScenarioError(ValueError):
    """The scenario is invalid; the message names the field."""


def _fail(msg: str, code: int) -> int:
    print(f"torusflow: {msg}", file=sys.stderr)
    return code


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))    # np.float64 is a float whose repr names it
    return str(x)


def _csv_line(fields: list) -> str:
    """One row as ``csv.writer`` writes it (the excel dialect): fields
    joined by commas, a field holding a comma, quote or line break quoted
    with its quotes doubled, a row of one empty field as "", and the
    terminator \\r\\n."""
    line = ",".join(fields)
    if (line.count(",") >= len(fields) or '"' in line or "\r" in line
            or "\n" in line):
        line = ",".join(['"' + f.replace('"', '""') + '"'
                         if any(c in f for c in ',"\r\n') else f
                         for f in fields])
    return (line or '""' * (len(fields) == 1)) + "\r\n"


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line([str(v) for v in header]) + "".join(
            [_csv_line([_fmt(v) for v in row]) for row in rows]))


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def _integer(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    """A finite JSON number: no boolean, numeric string, NaN or infinity."""
    return _integer(value) or isinstance(value, float) and math.isfinite(value)


#: The value types of ``FIELDS``; a list is read as a tuple.
_TYPES = {int: _integer, float: _number, bool: lambda v: isinstance(v, bool),
          str: lambda v: isinstance(v, str), tuple: lambda v: isinstance(v, list)}


def _mode(k, s: dict, kind: str, low: int, entry):
    """``k`` as a ``from_modes`` key: an integer (m = 1) or an integer pair
    (m = 2) with low <= ||k||_1 <= order."""
    m, order = s["m"], s["order"]
    pair = m == 2 and isinstance(k, list) and len(k) == 2 and all(map(_integer, k))
    l1 = abs(k) if m == 1 and _integer(k) else sum(map(abs, k)) if pair else -1
    if not low <= l1 <= order:
        raise ScenarioError(
            f"{kind} modes must be {('integers', 'integer pairs')[m - 1]} k "
            f"with {'0 < ' * low}||k||_1 <= order = {order}, got {entry!r}")
    return tuple(k) if pair else k


def _map(spec, s: dict) -> FourierMap:
    """Check a map spec and build it at the scenario's order and m."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    order, m = s["order"], s["m"]
    if kind == "zero":
        return FourierMap.zero(order, m, m)
    if kind == "constant":
        value = spec.get("value")
        if isinstance(value, list) and len(value) == m and all(map(_number, value)):
            return FourierMap.constant(value, order, m)
        raise ScenarioError(
            f"constant value must be a list of m = {m} numbers, got {value!r}")
    if kind in ("sine", "cosine"):     # along the first axis for m = 2
        amplitude, mode = spec.get("amplitude"), spec.get("mode", 1)
        if not _number(amplitude):
            raise ScenarioError(
                f"{kind} amplitude must be a number, got {amplitude!r}")
        c = (-0.5j if kind == "sine" else 0.5) * float(amplitude)
        return FourierMap.from_modes({_mode(mode, s, kind, 1, mode): [c, 0.0][:m]},
                                     order, m=m)
    if kind != "coeffs":
        raise ScenarioError(f"unknown map spec type {kind!r}")
    entries, modes = spec.get("modes"), {}
    for entry in entries if isinstance(entries, list) else [entries]:
        ok = (isinstance(entry, list) and len(entry) == 3     # [k, re, im]
              and all(map(_number, entry[1:])))
        k = _mode(entry[0] if ok else None, s, kind, 0, entry)
        if entry[2] != 0 and not np.any(k):
            raise ScenarioError(f"coeffs mode k = 0 must be real, got {entry!r}")
        modes[k] = [entry[1] + 1j * entry[2]]
    return FourierMap.from_modes(modes, order, m=m)


def _field(spec, s: dict):
    """Check a field spec and build its TimeDependentField; a ``random`` spec
    becomes its draw, a function of the runner's generator."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "random":     # the budget is normalised at the width 2 eps
        budget = spec.get("budget", 0.3)
        if s["m"] != 1 or s["order"] < RANDOM_MODES or s["seed"] is None or not (
                _number(budget) and budget > 0):
            raise ScenarioError(
                f"random field specs draw fields on T^1 (m = 1) at order >= "
                f"{RANDOM_MODES} from the seed at a positive budget; got m = "
                f"{s['m']}, order {s['order']}, seed {s['seed']!r}, budget {budget!r}")
        return partial(random_admissible_field, order=s["order"],
                       budget=float(budget), scale=s["scale"], eps=s["eps"])
    if kind != "step":
        return TimeDependentField.constant(_map(spec, s), s["scale"])
    grid, values = spec.get("grid"), spec.get("values")
    if not (isinstance(grid, list) and len(grid) > 1
            and all(isinstance(b, str) or _number(b) for b in grid)):
        raise ScenarioError(f"step grid must list rationals, got {grid!r}")
    try:        # Fraction reads each breakpoint, TimeGrid checks their order
        grid = TimeGrid(tuple(map(Fraction, grid)))
    except (ArithmeticError, ValueError) as exc:
        raise ScenarioError(f"step grid {spec['grid']!r}: {exc}") from None
    if not (isinstance(values, list) and len(values) == len(grid) - 1):
        raise ScenarioError("step values must be a list of one map per grid interval")
    return TimeDependentField.step(grid, [_map(v, s) for v in values], s["scale"])


def _harness(name, s: dict):
    """The limits harness map named ``name``."""
    if name not in ("square", "linear"):
        raise ScenarioError(f"unknown harness map {name!r}")
    return PointwiseSquareMap() if name == "square" else LinearScaleMap(
        np.full(2 * s["order"] + 1, 0.9, dtype=complex))


REQUIRED = object()
_FLOWS = ("solve", "verify", "pullback")    # kinds that certify a field
_MAPS = _FLOWS + ("trotter", "sweep")       # kinds with an order, m and eps
_POSITIVE = (lambda v, s: v > 0, "must be a positive number")
_COUNT = (lambda v, s: v >= 1, "must be an integer >= 1")
_SEED = (lambda v, s: v >= 0, "must be a non-negative integer")
_ANY = (None, None)                         # no rule beyond the type
_SCALE = lambda s: 4 * s["eps"]             # norms are quoted at 2 eps

#: Every scenario field: name -> {kinds that read it: (type, default, rule,
#: requirement)}, parsed in this order.  A callable default and a rule see
#: the fields parsed before them.  A spec type (a function) checks and builds
#: its field itself.  Type None marks a value the kind derives but does not
#: read.  A ``tol_*`` field is an entry of ``tolerances``.
FIELDS = {
    "order": {("limits",): (int, 16, lambda v, s: v >= MAX_MODE,
                            f"must be an integer >= {MAX_MODE}"),
              _MAPS: (int, 32, lambda v, s: v >= (RANDOM_MODES if s["kind"] == "sweep"
                                                  else 1),
                      f"must be an integer >= 1 (>= {RANDOM_MODES} in sweeps)")},
    "m": {KINDS: (int, 1, lambda v, s: v == 1 or v == 2 and s["kind"] not in (
        "sweep", "limits"), "must be 1 or 2; sweeps and limits scenarios run on "
        "T^1 (m = 1)")},
    "eps": {_MAPS: (float, 0.05, *_POSITIVE),
            ("limits",): (float, None, lambda v, s: False,
                          "must be left out in limits scenarios")},
    "eps_top": {("limits",): (float, 0.2, *_POSITIVE)},
    "eps_target": {("limits",): (float, 0.05, *_POSITIVE)},
    "scale": {_FLOWS: (float, _SCALE, lambda v, s: v >= 2 * s["eps"],
                       "must be a number >= 2 eps"),
              ("sweep",): (None, _SCALE, *_ANY)},
    "delta0": {_FLOWS: (float, 1.0, *_POSITIVE)},
    "for_chart": {_FLOWS: (bool, False, None, "must be true or false")},
    "tol_solve": {("solve", "sweep"): (float, 1e-10, *_ANY)},
    "tol_pointwise": {("verify",): (float, 1e-8, *_ANY)},
    "seed": {("sweep", "verify", "limits"): (int, REQUIRED, *_SEED),
             ("solve", "trotter", "pullback"): (int, None, *_SEED)},
    "out": {KINDS: (str, None, None, "must be a path")},
    "K": {("pullback",): (int, 8, lambda v, s: 1 <= v <= s["order"],
                          "must be an integer in [1, order]")},
    "t0": {("pullback",): (float, 0.0, lambda v, s: 0 <= v <= 1,
                           "must be a number in [0, 1]")},
    "ladder": {("trotter",): (tuple, [8, 16, 32, 64, 128], lambda v, s: v and all(
        _integer(n) and n >= 1 and n & (n - 1) == 0 for n in v) and all(
        a < b for a, b in zip(v, v[1:])),
        "entries must be powers of two, in strictly increasing order")},
    "count": {("sweep",): (int, 10, *_COUNT), ("limits",): (int, 1000, *_COUNT)},
    "ratio_samples": {("limits",): (int, 1000, *_COUNT)},
    "budgets": {("sweep",): (tuple, None, lambda v, s: v and all(
        _number(b) and b > 0 for b in v),
        "must be a non-empty list of positive numbers")},
    "radii": {("limits",): (tuple, [0.5, 0.6, 0.7, 0.8], lambda v, s: v and all(
        map(_number, v)) and v[0] > 0 and all(a <= b for a, b in zip(v, v[1:])),
        "must be a non-empty, non-decreasing list of positive numbers")},
    "map": {("limits",): (_harness, "square", *_ANY)},
    "field": {_FLOWS: (_field, REQUIRED, *_ANY)},
    "v": {("trotter",): (_map, REQUIRED, *_ANY)},
    "w": {("trotter",): (_map, REQUIRED, *_ANY)},
}

#: The parsed scenario: its kind, one value per ``FIELDS`` entry (None where
#: the kind does not read it) and ``ignored``, the fields it does not read.
Scenario = namedtuple("Scenario", ("kind", *FIELDS, "ignored"))


def parse_scenario(raw, kind: str) -> Scenario:
    """Read a ``kind`` scenario into its record, or raise ScenarioError."""
    if not isinstance(raw, dict) or raw.get("kind") != kind:
        got = (f"kind {raw.get('kind')!r}" if isinstance(raw, dict)
               else type(raw).__name__)
        raise ScenarioError(f"a {kind} scenario is a JSON object with kind "
                            f"{kind!r}, got {got}")
    tols = raw.get("tolerances", {})
    if not (isinstance(tols, dict)
            and all(_number(t) and t > 0 for t in tols.values())):
        raise ScenarioError(f"tolerances must be positive numbers, got {tols!r}")
    s, read = {"kind": kind}, {"kind", "tolerances"}
    for name, rows in FIELDS.items():
        typ, default, rule, requirement = next(
            (row for kinds, row in rows.items() if kind in kinds), (None,) * 4)
        source = tols if name.startswith("tol_") else raw
        if typ is not None and name in source:
            value = source[name]
            read.add(name)
        elif default is REQUIRED:
            raise ScenarioError(f"{kind} {name} is required")
        else:
            value = s[name] = default(s) if callable(default) else default
            if typ is None or value is None:    # derived, or left out
                continue
        if typ not in _TYPES:                   # a spec type
            try:
                s[name] = typ(value, s)
            except ScenarioError as exc:
                raise ScenarioError(f"{kind} {name}: {exc}") from None
        elif _TYPES[typ](value) and (rule is None or rule(typ(value), s)):
            s[name] = typ(value)
        else:
            raise ScenarioError(f"{kind} {name} {requirement}, got {value!r}")
    ignored = [k for k in raw if k not in read]
    ignored += [f"tolerances.{k}" for k in tols if k not in read]
    return Scenario(**s, ignored=tuple(ignored))


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def random_admissible_field(rng: np.random.Generator, *, order: int,
                            budget: float, scale: float,
                            eps: float) -> TimeDependentField:
    """Random piecewise-constant field on T^1 scaled to an L^1 beta budget."""
    n_pieces = int(rng.integers(1, 4))
    cuts = (sorted(rng.choice(np.arange(1, 8), size=n_pieces - 1,
                              replace=False)) if n_pieces > 1 else [])
    grid = TimeGrid((0, *(Fraction(int(c), 8) for c in cuts), 1))
    vals = []
    for _ in range(n_pieces):
        z = rng.normal(size=2 * RANDOM_MODES + 1)   # (re, im) per mode, the mean
        modes = {k: [(z[2 * k - 2] + 1j * z[2 * k - 1]) * np.exp(-0.8 * k)]
                 for k in range(1, RANDOM_MODES + 1)}
        vals.append(FourierMap.from_modes(modes, order))
        vals[-1].coeffs[order, 0] = 0.5 * z[-1]
    field = TimeDependentField.step(grid, vals, scale)
    b = field.lp_norm(1, "beta", 2 * eps)
    return (budget / b) * field if b > 0 else field


def _certify(s: Scenario) -> AdmissibleField:
    field = s.field(np.random.default_rng(s.seed)) if callable(s.field) else s.field
    return AdmissibleField.certify(field, s.eps, s.delta0, s.for_chart)


def _json_indented(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=1)``, byte for byte, for dicts with string
    keys: with indent, json.dumps runs the pure-Python encoder.  Strings
    take the C encoder's escaping, finite floats and ints the reprs json
    writes, any other leaf ``json.dumps``.  ``pad`` is the newline and
    indent of the enclosing level."""
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + " "
        return ("[" + inner + ("," + inner).join(
            [_json_indented(v, inner) for v in obj]) + pad + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + " "
        return ("{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _json_indented(v, inner)
             for k, v in obj.items()]) + pad + "}")
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    return json.dumps(obj)      # true, false, null, NaN, +-inf


def _flow_json(data: dict) -> str:
    """flow.json, one line per field and per snapshot: json.dumps without
    indent runs the C encoder, with indent the pure-Python one."""
    fields = {k: json.dumps(v) for k, v in data.items() if k != "snapshots"}
    fields["snapshots"] = "[\n  " + ",\n  ".join(
        map(json.dumps, data["snapshots"])) + "\n ]"
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {fields[k]}"
                               for k in data) + "\n}"


#: the columns of ``ac_modulus.csv``
AC_HEADER = ("t_a", "t_b", "increment", "bound", "pass")


def run_solve(s: Scenario, out: Path, checks: list) -> None:
    gamma = _certify(s)
    path = solve_flow(gamma, tol_solve=s.tol_solve)
    write_csv(out / "iteration_log.csv", ("step", "sup_diff", "ratio"),
              path.iteration_log)
    n = strip_norms(path.snapshots, gamma.eps)      # one row per snapshot
    write_csv(out / "norms.csv", ("eps", "nu", "beta", "tail_ratio"),
              [(n.eps, *r) for r in zip(n.nu, n.beta, n.tail_ratio)])
    (out / "flow.json").write_text(_flow_json(path.to_json()))
    checks += solve_checks(path, s.tol_solve)


def run_verify(s: Scenario, out: Path, checks: list) -> None:
    gamma = _certify(s)
    evol = evol_right(gamma)
    probes = np.random.default_rng(s.seed).uniform(0, 1, size=(8, s.m))
    rep = verify_evolution_pointwise(evol, gamma, probes, s.tol_pointwise)
    write_csv(out / "pointwise_residuals.csv", ("probe", "time", "residual"),
              rep.rows)
    ac_rows = ac_modulus_check(evol)
    write_csv(out / "ac_modulus.csv", AC_HEADER, ac_rows)
    checks += (*solve_checks(evol.flow), rep.check,
               restriction_consistency(evol.flow, gamma.eps / 2).check,
               ac_check("ac_modulus", ac_rows))


def _sweep_item(s: Scenario, index: int, budget: float) -> tuple:
    rng = np.random.default_rng(s.seed + 1000 + index)
    field = random_admissible_field(rng, order=s.order, budget=budget,
                                    scale=s.scale, eps=s.eps)
    gamma = AdmissibleField.certify(field, s.eps)
    path = solve_flow(gamma, tol_solve=s.tol_solve)
    check = contraction_check(path)
    return (index, gamma.theta_hat, check.value, path.residual,
            path.imag_reach_max(), check.ok), check


def run_sweep(s: Scenario, out: Path, checks: list, workers: int) -> None:
    rng = np.random.default_rng(s.seed)
    budgets = [s.budgets[i % len(s.budgets)] if s.budgets
               else float(rng.uniform(0.1, 0.42)) for i in range(s.count)]
    item = partial(_sweep_item, s)
    # a forked pool starts all its workers at the first submit
    workers = min(workers, s.count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            items = list(ex.map(item, range(s.count), budgets))
    else:
        items = list(map(item, range(s.count), budgets))
    write_csv(out / "sweep.csv",
              ("index", "theta_hat", "max_ratio", "residual", "reach", "ok"),
              [row for row, _ in items])
    checks.append(sweep_check([check for _, check in items]))


def run_trotter(s: Scenario, out: Path, checks: list) -> None:
    curve = trotter_curve(s.v, s.w, s.eps, n_values=s.ladder)
    write_csv(out / "trotter.csv", ("n", "distance"), curve)
    checks += trotter_checks(curve)


def run_limits(s: Scenario, out: Path, checks: list) -> None:
    rng = np.random.default_rng(s.seed)
    levels = make_levels(s.eps_top, s.radii, s.order)
    p_eps = levels[-1].eps
    certs = s.map.lipschitz_certs(levels, p_eps)
    rep = verify_continuity_estimate(s.map, levels, certs, p_eps,
                                     s.eps_target, s.count, rng)
    write_csv(out / "continuity.csv",
              ("sample_id", "depth", "telescoped_bound", "observed_p", "pass"),
              rep.rows)
    top = (levels[0], levels[0].eps, s.ratio_samples, rng)
    checks += (rep.check, cauchy_bound_check(s.map, *top).check,
               third_ball_lipschitz(s.map, *top).check)


def run_pullback(s: Scenario, out: Path, checks: list) -> None:
    gamma = _certify(s)
    rep = pullback_path(gamma, s.t0, s.K)
    write_csv(out / "pullback_matrix.csv", ("j", "k", "re", "im"),
              rep.matrices[-1].to_rows())
    write_csv(out / "ac_modulus.csv", AC_HEADER, rep.ac_rows)
    write_csv(out / "transport.csv", ("time", "test_fn", "residual"),
              rep.transport_rows)
    phi = AnalyticDiffeo.certify(gamma.field.value_at(0.0) * 0.5, gamma.eps)
    psi = AnalyticDiffeo.certify(FourierMap.constant([0.3] * s.m, s.order, s.m),
                                 gamma.eps)
    checks += rep.checks + operator_checks(phi, psi, min(2 * s.K, s.order))


RUNNERS = {"solve": run_solve, "verify": run_verify, "sweep": run_sweep,
           "trotter": run_trotter, "limits": run_limits,
           "pullback": run_pullback}


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)

    try:
        raw = json.loads(args.scenario.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load scenario: {exc}", 2)
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    try:
        scenario = parse_scenario(raw, args.kind)
    except ScenarioError as exc:
        return _fail(f"invalid scenario: {exc}", 2)
    if scenario.ignored:
        print(f"torusflow: warning: {args.kind} scenarios do not read "
              f"{', '.join(scenario.ignored)}", file=sys.stderr)

    out = args.out or Path(scenario.out or f"out_{args.scenario.stem}")
    out.mkdir(parents=True, exist_ok=True)

    checks: list = []
    try:
        if args.kind == "sweep":
            run_sweep(scenario, out, checks, workers=args.workers)
        else:
            RUNNERS[args.kind](scenario, out, checks)
    except AdmissibilityViolation as exc:
        (out / "summary.json").write_text(_json_indented(
            {"kind": args.kind, "pass": False, "rejected": str(exc)}))
        return _fail(f"admissibility rejection: {exc}", 3)
    except TorusflowError as exc:
        return _fail(f"run failed: {exc}", 1)

    manifest = {"scenario": raw, "version": __version__, "seed": scenario.seed,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    (out / "manifest.json").write_text(_json_indented(manifest))
    rows = [{"name": c.name, "value": c.value, "tol": c.bound,
             "sense": "<" if c.strict else "<=", "pass": c.ok} for c in checks]
    summary = {"kind": args.kind, "checks": rows,
               "pass": all(r["pass"] for r in rows)}
    (out / "summary.json").write_text(_json_indented(summary))
    for r in rows:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['name']}: "
              f"{r['value']:.6g} {r['sense']} {r['tol']:.6g}")
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
