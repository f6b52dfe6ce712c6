"""Shared fixtures: canonical test fields and seeded random factories."""

import ast
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import torusflow
from torusflow import fourier
from torusflow import AdmissibleField, FourierMap, TimeDependentField, TimeGrid

EPS = 0.05
ORDER = 32


def sine_map(a=0.02, order=ORDER, mode=1):
    """a * sin(2 pi mode x) as a one-component map."""
    return FourierMap.from_modes({mode: [-0.5j * a]}, order)


def cosine_map(a=0.02, order=ORDER, mode=1):
    return FourierMap.from_modes({mode: [0.5 * a]}, order)


def random_real_map(rng, order=ORDER, max_mode=4, decay=0.8, const=0.5):
    f = FourierMap.zero(order, 1, 1)
    for k in range(1, max_mode + 1):
        v = (rng.normal() + 1j * rng.normal()) * np.exp(-decay * k)
        f.coeffs[order + k, 0] = v
        f.coeffs[order - k, 0] = np.conj(v)
    f.coeffs[order, 0] = const * rng.normal()
    return FourierMap(f.coeffs)


def random_admissible(rng, eps=EPS, order=ORDER, budget=None, max_mode=4,
                      max_pieces=3):
    """Random piecewise-constant field scaled to an L^1 beta budget."""
    n_pieces = int(rng.integers(1, max_pieces + 1))
    if n_pieces > 1:
        cuts = sorted(rng.choice(np.arange(1, 8), size=n_pieces - 1,
                                 replace=False))
        grid = TimeGrid((Fraction(0),)
                        + tuple(Fraction(int(c), 8) for c in cuts)
                        + (Fraction(1),))
    else:
        grid = TimeGrid.uniform(1)
    vals = [random_real_map(rng, order, max_mode) for _ in range(n_pieces)]
    field = TimeDependentField.step(grid, vals, scale=4 * eps)
    b = field.lp_norm(1, "beta", 2 * eps)
    budget = float(rng.uniform(0.1, 0.42)) if budget is None else budget
    field = (budget / b) * field
    return AdmissibleField.certify(field, eps)


def probe_points(n=64, offset=0.31):
    return ((np.arange(n) + offset) / n)[:, None].astype(complex)


@pytest.fixture(scope="session")
def sine_gamma():
    return AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.02), scale=4 * EPS), EPS)


@pytest.fixture(scope="session")
def sine_flow(sine_gamma):
    from torusflow import solve_flow
    return solve_flow(sine_gamma)


@contextmanager
def composition_grids():
    """Every (M, alias) that ``CompositionPlan.composition_grid`` returns
    inside the block, in call order; an alias that is infinite for every
    map says that no grid certifies the composite."""
    found, pick = [], fourier.CompositionPlan.composition_grid

    def spy(self, *args):
        found.append(pick(self, *args))
        return found[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier.CompositionPlan, "composition_grid", spy)
        yield found


def src_module_names():
    """(file name, names it uses or imports) of every module of the package."""
    for path in sorted(Path(torusflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        yield path.name, names
