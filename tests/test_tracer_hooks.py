"""The benchmark tracer's hooks still find the layers they trace.

``perfbench/tracing.py`` patches the package from outside by name, so a
renamed or moved layer would silently drop out of ``--trace 1`` runs.  This
test installs the tracer around a small solve, an inversion, a chart
transport, a chart inversion and a certificate that falls back on a
verified inverse, and checks that the kernels and the chart and certify
layers recorded calls and that uninstalling restores every attribute it
patched, that its count of ``fourier.compose`` calls is the number of
compositions a solve runs, and that its count of ``flow.solve_flow`` calls
is the number of solves a Trotter ladder makes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import torusflow
import torusflow.cli  # noqa: F401  (loads every module the tracer patches)
from torusflow import (AdmissibleField, FourierMap, LocalAddition,
                       TimeDependentField, find_delta0)
from torusflow import fourier, group
from torusflow.flow import solve_flow
from torusflow.group import AnalyticDiffeo, invert_diffeo, trotter_curve

from conftest import EPS, cosine_map, sine_map

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def _package_attributes(traced: dict) -> dict:
    """Every module attribute of the package and every traced method."""
    state = {(name, attr): value for name, mod in list(sys.modules.items())
             if name == "torusflow" or name.startswith("torusflow.")
             for attr, value in vars(mod).items()}
    for module, names in traced.items():
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(sys.modules[f"torusflow.{module}"], cls_name)
                state[(f"{module}.{cls_name}", meth)] = cls.__dict__[meth]
    return state


def test_tracer_records_kernels_and_restores_the_package(tracing):
    before = _package_attributes(tracing.TRACED)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gamma = AdmissibleField.certify(
            TimeDependentField.constant(sine_map(0.02, 16), scale=4 * EPS), EPS)
        path = solve_flow(gamma)
        invert_diffeo(AnalyticDiffeo.certify(path.snapshots[-1], EPS))
        alpha = LocalAddition([((2,), sine_map(0.05, 16))])
        cert = find_delta0(alpha, EPS)
        chart_gamma = AdmissibleField.certify(
            TimeDependentField.constant(sine_map(0.02, 16), scale=4 * EPS),
            EPS, chart_delta0=cert.delta0, for_chart=True)
        # through the package, as the benchmark's jobs call them
        torusflow.flow_to_chart(solve_flow(chart_gamma), alpha, cert)
        z = np.array([[0.1 + 0j], [0.6 + 0j]])
        torusflow.invert_local(alpha, cert, z, z + 0.1 * cert.delta0)
        # mu = 1.24: the certificate falls back on a verified inverse
        assert AnalyticDiffeo.certify(sine_map(0.03, 16), 0.3).mu >= 1.0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for key in ("fourier.compose", "fourier.FourierMap.eval",
                "fourier.fit_grid", "flow.invert_at_point",
                "charts.flow_to_chart", "charts.invert_local",
                "group.AnalyticDiffeo.certify"):
        assert metrics[f"{key}.calls"] > 0, key
    assert metrics["group.AnalyticDiffeo.certify.fallback_share"] > 0
    assert metrics["fourier.FourierMap.eval.mode_evals"] > 0
    after = _package_attributes(tracing.TRACED)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("m", [1, 2])
def test_tracer_counts_every_composition_of_a_solve(tracing, monkeypatch, m):
    """``fourier.compose.calls`` of a traced solve equals the calls of
    ``CompositionPlan.compose`` that a spy counts over the same solve."""
    if m == 1:
        f = sine_map(0.02, 16)
    else:
        a = 2e-4
        f = FourierMap.from_modes(
            {(1, 0): [0.5j * a, a], (-1, 0): [-0.5j * a, a],
             (0, 2): [a, 0.5j * a], (0, -2): [a, -0.5j * a]}, 8, m=2)
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(f, scale=4 * EPS), EPS)
    calls, compose = [], fourier.CompositionPlan.compose
    monkeypatch.setattr(fourier.CompositionPlan, "compose",
                        lambda self, *a: calls.append(1) or compose(self, *a))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        solve_flow(gamma)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["fourier.compose.calls"] == len(calls) > 0


def test_tracer_counts_the_solves_of_a_trotter_ladder(tracing, monkeypatch):
    """``flow.solve_flow.calls`` of a traced ``trotter_curve`` equals the
    solves a spy counts behind the tracer's hook: three for any ladder."""
    calls = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with monkeypatch.context() as patch:
            traced = group.solve_flow
            patch.setattr(group, "solve_flow", lambda *a, **kw: (
                calls.append(1) or traced(*a, **kw)))
            trotter_curve(sine_map(0.02, 16), cosine_map(0.02, 16), EPS,
                          (8, 16, 32, 64, 128))
    finally:
        tracer.uninstall()
    assert tracer.metrics()["flow.solve_flow.calls"] == len(calls) == 3
