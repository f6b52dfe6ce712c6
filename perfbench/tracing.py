"""Span tracing of the package's public layer functions, installed from outside.

``Tracer.install`` wraps each function or method named in ``TRACED`` and
rebinds every attribute of every loaded ``torusflow`` module that is bound
to the original object, so call sites that imported a function by name
(``from .fourier import compose``) are traced too.  Spans are kept in
memory with parent links; a span's self time is its duration minus the
durations of its direct children.  Besides calls and self time, a few
exact counters are computed from arguments and results:

- ``flow.solve_flow``: ``sweeps`` (len(iteration_log), plus 1 for the
  residual sweep unless ``fixed_iters`` is set) and ``distinct_share``
  (distinct inputs / calls; an input hashes the field pieces, its grid,
  eps, tol_solve, max_step, max_iter, start grid and fixed_iters);
- ``fourier.FourierMap.eval``: ``mode_evals``, computed as
  sum of points * (2N+1)^m (the work the dense evaluation implies, not a
  count taken inside the kernel);
- ``fourier.compose``: ``grid_points`` = sum of (oversample (2N+1))^m;
- ``flow.invert_at_point``: ``points`` inverted;
- ``group.AnalyticDiffeo.certify``: ``fallback_share``, the share of
  certified results that needed the verified-inverse fallback;
- ``errors``: calls that ended by an exception.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import sys
import time
from fractions import Fraction

import numpy as np

TRACED = {
    "cli": ("main", "write_csv"),
    "flow": ("solve_flow", "AdmissibleField.certify", "FlowPath.u_at",
             "FlowPath.to_json", "invert_at_point", "pointwise_solution",
             "restriction_consistency"),
    "fourier": ("compose", "fit_grid", "FourierMap.eval", "strip_norms",
                "imag_reach", "multiply"),
    "timepaths": ("TimeDependentField.lp_norm", "TimeDependentField.on_grid",
                  "TimeDependentField.value_at", "TimeGrid.interval_of",
                  "TimeGrid.refined"),
    "group": ("odot", "evol_left", "evol_right", "evol_left_by_reversal",
              "invert_diffeo", "compose_diffeo", "AnalyticDiffeo.certify",
              "verify_evolution_pointwise", "ac_modulus_check",
              "trotter_curve"),
    "charts": ("flow_to_chart", "chart_roundtrip_defect", "find_delta0",
               "invert_local"),
    "pullback": ("pullback_path", "pullback_matrix", "pullback_apply",
                 "contravariance_defect"),
    "limits": ("verify_continuity_estimate", "cauchy_bound_check",
               "third_ball_lipschitz"),
}

#: extra per-function stats reported besides calls and self_s: name -> unit
EXTRA_STATS = {
    "flow.solve_flow": {"errors": "count", "sweeps": "count",
                        "distinct_share": "ratio"},
    "flow.AdmissibleField.certify": {"errors": "count"},
    "flow.invert_at_point": {"points": "count"},
    "fourier.compose": {"errors": "count", "grid_points": "count"},
    "fourier.fit_grid": {"errors": "count"},
    "fourier.FourierMap.eval": {"mode_evals": "count"},
    "group.invert_diffeo": {"errors": "count"},
    "group.AnalyticDiffeo.certify": {"fallback_share": "ratio"},
}

#: stats that are not tied to one traced function
GLOBAL_STATS = {"cli.bytes_written": "B",
                "flow.contraction_certificate_ok.known_defects": "count",
                "trace.overhead_share": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for module, names in TRACED.items():
        for name in names:
            key = f"{module}.{name}"
            units[f"{key}.calls"] = "count"
            units[f"{key}.self_s"] = "s"
            for stat, unit in EXTRA_STATS.get(key, {}).items():
                units[f"{key}.{stat}"] = unit
    units.update(GLOBAL_STATS)
    return units


def _hash_solve_input(bound) -> str:
    a = bound.arguments
    gamma = a["gamma"]
    h = hashlib.sha1()
    for piece in gamma.field.pieces:
        h.update(np.ascontiguousarray(piece).tobytes())
    start = a.get("start")
    h.update(repr((gamma.field.grid.breakpoints, gamma.eps, a["tol_solve"],
                   Fraction(a["max_step"]), a["max_iter"],
                   None if start is None else start.grid.breakpoints,
                   a["fixed_iters"])).encode())
    return h.hexdigest()


class Tracer:
    """In-memory span recorder around the functions listed in TRACED."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []       # [name index, parent span, start, end]
        self.errors: dict = {}
        self.counts: dict = {}
        self.solve_inputs: list = []
        self._stack: list = []
        self._undo: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "torusflow"
                                         or n.startswith("torusflow."))]
        for module, names in TRACED.items():
            mod = sys.modules[f"torusflow.{module}"]
            for name in names:
                key = f"{module}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(key, raw.__func__))
                    else:
                        new = self._wrap(key, raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, name)
                new = self._wrap(key, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, new)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _wrap(self, key: str, fn):
        idx = len(self.names)
        self.names.append(key)
        self.errors[key] = 0
        pre, post = _HOOKS.get(key, (None, None))
        sig = inspect.signature(fn) if pre is not None else None
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = pre(self, sig, args, kwargs) if pre is not None else None
            span = [idx, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                errors[key] += 1
                raise
            finally:
                stack.pop()
            span[3] = clock()
            if post is not None:
                post(self, note, result)
            return result

        return traced

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values keyed by metric name (see ``metric_units``)."""
        n = len(self.names)
        calls = np.zeros(n, dtype=np.int64)
        total = np.zeros(n)
        child = np.zeros(n)
        for name_idx, parent, start, end in self.spans:
            dur = end - start
            calls[name_idx] += 1
            total[name_idx] += dur
            if parent >= 0:
                child[self.spans[parent][0]] += dur
        out = {}
        for i, key in enumerate(self.names):
            out[f"{key}.calls"] = int(calls[i])
            out[f"{key}.self_s"] = float(total[i] - child[i])
            for stat in EXTRA_STATS.get(key, {}):
                if stat == "errors":
                    out[f"{key}.errors"] = self.errors[key]
                elif stat == "distinct_share":
                    seen = self.solve_inputs
                    out[f"{key}.{stat}"] = (len(set(seen)) / len(seen)
                                            if seen else 0.0)
                elif stat == "fallback_share":
                    ok = self.counts.get("certified", 0)
                    out[f"{key}.{stat}"] = (self.counts.get("fallback", 0) / ok
                                            if ok else 0.0)
                else:
                    out[f"{key}.{stat}"] = int(self.counts.get(stat, 0))
        return out

    def write(self, path) -> None:
        """Write names and spans (times relative to the first span, in ns)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        data = {"names": self.names,
                "fields": ["name", "parent", "start_ns", "end_ns"],
                "spans": [[s[0], s[1], int((s[2] - t0) * 1e9),
                           int((s[3] - t0) * 1e9)] for s in self.spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


# -- counters computed from arguments and results ---------------------------

def _pre_solve(tracer, sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.solve_inputs.append(_hash_solve_input(bound))
    return bound.arguments["fixed_iters"]


def _post_solve(tracer, fixed_iters, path):
    tracer.add("sweeps", len(path.iteration_log)
               + (0 if fixed_iters is not None else 1))


def _pre_eval(tracer, sig, args, kwargs):
    f, z = args[0], (args[1] if len(args) > 1 else kwargs["z"])
    size = np.size(z)
    points = max(1, size) if f.m == 1 else size // f.m
    tracer.add("mode_evals", points * (2 * f.order + 1) ** f.m)


def _pre_compose(tracer, sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    n_out = a["g"].order if a["order"] is None else a["order"]
    tracer.add("grid_points", (a["oversample"] * (2 * n_out + 1)) ** a["g"].m)


def _pre_invert(tracer, sig, args, kwargs):
    u = args[0]
    y = args[1] if len(args) > 1 else kwargs["y"]
    tracer.add("points", np.size(y) // u.m)


def _post_certify(tracer, note, result):
    tracer.add("certified", 1)
    if result.inverse_residual is not None:
        tracer.add("fallback", 1)


_HOOKS = {
    "flow.solve_flow": (_pre_solve, _post_solve),
    "fourier.FourierMap.eval": (_pre_eval, None),
    "fourier.compose": (_pre_compose, None),
    "flow.invert_at_point": (_pre_invert, None),
    "group.AnalyticDiffeo.certify": (None, _post_certify),
}
