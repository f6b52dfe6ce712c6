"""One path per job: static scans of who reaches what in the package.

Only the solver runs the sweep engine, every name the package exports is
reached by the package or the benchmark, or serves a named acceptance
criterion or result of the paper, every private top-level function is
reached by the package, and every top-level function of a helper module of
the tests is reached by the tests or the tools.  Docstrings do not count
as references: the scans read ``Name`` and ``Attribute`` nodes only.
"""

import ast
from pathlib import Path

import torusflow

PACKAGE = Path(torusflow.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

#: exported names that no package or benchmark code reaches, each kept for
#: the acceptance criterion or the result of the paper it serves
CRITERIA_ONLY = {
    # postcomposition of an AC path with an analytic map is AC, with its
    # derivative by the chain rule (a tool of the L^1-regularity proof)
    "ac_postcompose", "AffineRule", "SelfCompositionRule",
    # the bonding maps of the direct limit of strip spaces that the DFS
    # space of analytic fields is, with their Cauchy gain
    "restrict",
    # the adjoint action of Diff^omega(M) on its Lie algebra of fields
    "adjoint",
    # criterion 7: the two-parameter cocycle Fl_{t,s} o Fl_{s,r} = Fl_{t,r}
    "flow_two_param",
    # criterion 2: solves of two fields lie within twice their L^1 distance
    "param_lipschitz_check",
    # criterion 9: the derivative of Evol at 0 is the integral of the field
    "derivative_at_zero",
    # criterion 10: the derivative of Evol at a base field
    "derivative_at_eta",
}


def _parents(tree):
    """node -> its parent, over the whole tree."""
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def _scope(node, parents):
    """(enclosing class name, enclosing function name) of a node."""
    cls = fn = None
    while node in parents:
        node = parents[node]
        if fn is None and isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.ClassDef):
            cls = node.name
            break
    return cls, fn


def test_solve_flow_alone_runs_the_sweep():
    """Only ``flow.solve_flow`` builds a ``_PicardSweep`` or calls its
    ``run``, ``defect`` or ``rounding``; the sweep's own methods may call
    one another."""
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = _parents(tree)
        for node in ast.walk(tree):
            builds = isinstance(node, ast.Name) and node.id == "_PicardSweep"
            calls = (path.name == "flow.py" and isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr in ("run", "defect", "rounding"))
            if not (builds or calls):
                continue
            cls, fn = _scope(node, parents)
            inside = (cls == "_PicardSweep" and calls
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "self")
            if not inside and (cls, fn) != (None, "solve_flow"):
                strays.append((path.name, node.lineno, fn))
    assert strays == []


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names}


def _names(files):
    """Every ``Name`` id and ``Attribute`` attr in the files."""
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _referenced():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return _names(files + sorted((ROOT / "perfbench").glob("*.py")))


def test_every_export_is_reached_or_serves_a_criterion():
    """An exported name that no package or benchmark code reaches must be
    in CRITERIA_ONLY, and every name there must still be exported and
    unreached."""
    exported = _exported()
    unreached = exported - _referenced()
    assert unreached - CRITERIA_ONLY == set(), "exported, reached by nothing"
    assert CRITERIA_ONLY - unreached == set(), "reached or no longer exported"


def test_every_private_function_is_reached_by_the_package():
    """A private top-level function of the package is referenced from the
    package itself (``Name`` and ``Attribute`` nodes), so no helper that
    only the tests' oracles call stays in ``src/``."""
    files = sorted(PACKAGE.glob("*.py"))
    names = _names(files)
    unreached = [(path.name, node.name) for path in files
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_") and node.name not in names]
    assert unreached == []


def test_every_test_helper_is_reached():
    """A top-level function of a helper module of the tests
    (``tests/_*.py``) is referenced from the tests or the tools, so no
    oracle or reader that nothing calls stays behind."""
    tests = Path(__file__).resolve().parent
    names = _names(sorted(tests.glob("*.py"))
                   + sorted((ROOT / "tools").glob("*.py")))
    unreached = [(path.name, node.name) for path in sorted(tests.glob("_*.py"))
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name not in names]
    assert unreached == []
