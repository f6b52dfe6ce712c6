"""Every defaulted parameter of the package is set by some caller.

A parameter that no caller in the package, the tests or the benchmark
ever passes has one value in use: it belongs in a named constant, not in
a signature.  The scan matches calls to definitions by name, so a call of
another function of the same name counts too; it can only miss a knob,
never invent one.
"""

import ast
from pathlib import Path

import torusflow

PACKAGE = Path(torusflow.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
#: perfbench's compose tracer reads it from the signature, with its default
EXEMPT = {("compose", "oversample")}


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text())


def _defaulted(fn):
    """(positional parameter names, names of the defaulted parameters)."""
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    named = pos[len(pos) - len(a.defaults):] if a.defaults else []
    named += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return pos, named


def _calls():
    """name -> [(call node, called as an attribute)] over every call."""
    files = [p for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
             for p in sorted(d.rglob("*.py"))]
    calls = {}
    for _, tree in _trees(files):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            calls.setdefault(name, []).append(
                (node, isinstance(f, ast.Attribute)))
    return calls


def _passes(call, attr, pos, param) -> bool:
    """Whether the call passes ``param``, by keyword or by position; a
    starred argument may pass any."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    skip = 1 if attr and pos and pos[0] in ("self", "cls") else 0
    return param in pos and skip <= pos.index(param) < len(call.args) + skip


def _defaults():
    """(label, name, parameter, positional names, calls of the name) for
    every defaulted parameter of the package's functions but ``__init__``."""
    calls = _calls()
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name == "__init__"):
                continue
            pos, named = _defaulted(fn)
            for p in named:
                yield (f"{path.stem}.{fn.name}({p})", fn.name, p, pos,
                       calls.get(fn.name, []))


def test_every_defaulted_parameter_has_a_caller():
    unset = [label for label, name, p, pos, found in _defaults()
             if (name, p) not in EXEMPT
             and not any(_passes(c, attr, pos, p) for c, attr in found)]
    assert not unset, f"parameters no caller sets: {unset}"


def test_every_default_is_relied_on_by_some_caller():
    """A default that every call overrides never runs: the parameter is
    required.  A starred argument counts as passing it."""
    dead = [label for label, _, p, pos, found in _defaults()
            if found and all(_passes(c, attr, pos, p) for c, attr in found)]
    assert not dead, f"defaults no caller relies on: {dead}"
