"""Quantitative inversion of local additions and chart transport."""

import numpy as np
import pytest
from scipy.optimize import brentq

from torusflow import (AdmissibilityViolation, FourierMap, LocalAddition,
                       TimeDependentField, chart_roundtrip_defect,
                       find_delta0, flow_to_chart, invert_local, solve_flow)
from torusflow.charts import InverseChartCert, InversionResult
from torusflow.errors import ContractionStall, NoPositiveRadius, OutOfRange
from torusflow.flow import AdmissibleField

from _readings import fiber_jacobian_defect, step_factors
from conftest import EPS, sine_map


def quadratic_addition(order=8, amp=0.05):
    """alpha(z, w) = z + w + amp sin(2 pi z) w^2."""
    return LocalAddition([((2,), sine_map(amp, order))], m=1, order=order)


# -- construction ------------------------------------------------------------

def test_constructor_rejects_low_order_terms():
    with pytest.raises(ValueError):
        LocalAddition([((1,), sine_map(0.1, 8))], m=1, order=8)
    with pytest.raises(ValueError):
        LocalAddition([((0,), sine_map(0.1, 8))], m=1, order=8)


def test_base_point_and_fiber_derivative():
    alpha = quadratic_addition()
    z = np.array([[0.3 + 0.01j]])
    assert np.abs(alpha(z, np.zeros_like(z)) - z).max() < 1e-15
    h = fiber_jacobian_defect(alpha, z, np.zeros_like(z))
    assert np.abs(h).max() < 1e-15


# -- certified radius -----------------------------------------------------------

def test_flat_sentinel():
    cert = find_delta0(LocalAddition([], m=1, order=8), EPS)
    assert cert.flat and cert.delta0 == 1.0 and cert.defect_bound == 0.0


def test_quadratic_radius_meets_closed_form():
    # analytic bound: 0.1 e^{0.1 pi} delta <= 1/2, so delta <= 3.6515
    cert = find_delta0(quadratic_addition(), EPS)
    assert cert.delta0 >= 3.6
    assert cert.delta0 <= 0.5 / (0.1 * np.exp(0.1 * np.pi))
    assert cert.defect_bound <= 0.5


def test_no_positive_radius():
    huge = LocalAddition([((2,), sine_map(1e13, 8))], m=1, order=8)
    with pytest.raises(NoPositiveRadius):
        find_delta0(huge, EPS)


# -- inversion --------------------------------------------------------------------

def test_invert_flat_exact():
    alpha = LocalAddition([], m=1, order=8)
    cert = find_delta0(alpha, EPS)
    z = np.array([[0.2 + 0j]])
    target = np.array([[0.45 + 0j]])
    w = invert_local(alpha, cert, z, target, delta=1.0)
    assert np.abs(w - 0.25).max() < 1e-15


def test_invert_at_base_point():
    alpha = quadratic_addition()
    cert = find_delta0(alpha, EPS)
    z = np.array([[0.37 + 0j]])
    w = invert_local(alpha, cert, z, z, delta=1.0)
    assert np.abs(w).max() < 1e-14


def test_invert_quadratic_against_root_oracle():
    alpha = quadratic_addition()
    cert = find_delta0(alpha, EPS)
    res = invert_local(alpha, cert, np.array([0.1 + 0j]),
                       np.array([0.4 + 0j]), delta=1.0, full=True)
    s = 0.05 * np.sin(0.2 * np.pi)
    w_star = brentq(lambda w: w + s * w * w - 0.3, 0.0, 1.0, xtol=1e-15)
    assert abs(res.w[0].real - w_star) < 1e-12
    assert isinstance(res, InversionResult)
    assert (step_factors(res) <= 0.5 + 1e-6).all()


def test_invert_out_of_range():
    alpha = quadratic_addition()
    cert = find_delta0(alpha, EPS)
    with pytest.raises(OutOfRange):
        invert_local(alpha, cert, np.array([0.0 + 0j]),
                     np.array([0.6 + 0j]), delta=1.0)
    with pytest.raises(OutOfRange):
        invert_local(alpha, cert, np.array([0.0 + 0j]),
                     np.array([0.1 + 0j]), delta=2 * cert.delta0)


def test_invert_local_stalls_past_the_certified_radius():
    """alpha = z + w + w^2 under a hand-built certificate of radius 2, which
    the defect 2|w| does not earn.  Displacement steps from z = 0.3
    contract by 2|w| near the solution w: for the target z + 0.8 (w =
    0.52) the residual falls by 0.80 and then by 0.960, over
    the stall rule's 0.95; for z + 0.68 (w = 0.46) it falls by 0.93 a
    step, too slowly to reach TOL_INVERT in 200 steps.  Both
    ``ContractionStall`` raises of ``invert_local`` are reached through
    its public call."""
    alpha = LocalAddition([((2,), FourierMap.constant([1.0], 8))], m=1, order=8)
    cert = InverseChartCert(delta0=2.0, eps=0.05, defect_bound=0.0,
                            flat=False, grid_exponent=1.0)
    z = np.array([0.3 + 0j])
    with pytest.raises(ContractionStall,
                       match=r"residual stalled at .* \(factor 0\.960\)"):
        invert_local(alpha, cert, z, z + 0.8)
    with pytest.raises(ContractionStall,
                       match="no convergence in 200 displacement steps"):
        invert_local(alpha, cert, z, z + 0.68)


def test_inverse_lipschitz_two_and_coverage():
    alpha = quadratic_addition()
    cert = find_delta0(alpha, EPS)
    rng = np.random.default_rng(0)
    delta = 2.0
    z = np.full((1000, 1), 0.2, dtype=complex)
    t1 = z + rng.uniform(-delta / 2, delta / 2, (1000, 1)) * 0.999
    t2 = z + rng.uniform(-delta / 2, delta / 2, (1000, 1)) * 0.999
    w1 = invert_local(alpha, cert, z, t1, delta=delta)
    w2 = invert_local(alpha, cert, z, t2, delta=delta)
    # coverage: every target in B_{delta/2}(z) inverted, |w| < delta
    assert (np.abs(w1).max(axis=-1) < delta).all()
    # round trip
    assert np.abs(alpha(z, w1) - t1).max() <= 1e-12
    num = np.abs(w1 - w2).max(axis=-1)
    den = np.abs(t1 - t2).max(axis=-1)
    good = den > 1e-12
    assert (num[good] / den[good]).max() <= 2 + 1e-9


# -- chart transport -----------------------------------------------------------------

@pytest.fixture(scope="module")
def chart_flow():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.02), 0.2), EPS,
        chart_delta0=1.0, for_chart=True)
    return solve_flow(gamma)


def test_flow_to_chart_flat_returns_perturbations(chart_flow):
    alpha = LocalAddition([], m=1, order=32)
    path = flow_to_chart(chart_flow, alpha, find_delta0(alpha, EPS))
    worst = max(np.abs(v.coeffs - u.coeffs).max()
                for v, u in zip(path.values, chart_flow.snapshots))
    assert worst < 1e-12


def test_flow_to_chart_identity_flow_is_zero():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(FourierMap.zero(16, 1, 1), 0.2), EPS,
        for_chart=True)
    flow = solve_flow(gamma)
    alpha = quadratic_addition(order=16)
    path = flow_to_chart(flow, alpha, find_delta0(alpha, EPS))
    assert max(np.abs(v.coeffs).max() for v in path.values) < 1e-14


def test_flow_to_chart_quadratic_roundtrip(chart_flow):
    alpha = quadratic_addition(order=32)
    cert = find_delta0(alpha, EPS)
    path = flow_to_chart(chart_flow, alpha, cert)
    assert chart_roundtrip_defect(chart_flow, alpha, path) <= 1e-9
    assert path.integral_defect() <= 1e-8


def test_flow_to_chart_requires_certificate(chart_flow):
    alpha = quadratic_addition(order=32, amp=0.05)
    tiny_cert = find_delta0(alpha, EPS)
    object.__setattr__(tiny_cert, "delta0", 1e-4)
    with pytest.raises(AdmissibilityViolation):
        flow_to_chart(chart_flow, alpha, tiny_cert)


def test_chart_relatedness_under_half_translation(chart_flow):
    # representing the flow in the chart shifted by 1/2 translates the
    # chart vectors by the same amount
    alpha = LocalAddition([], m=1, order=32)
    cert = find_delta0(alpha, EPS)
    path = flow_to_chart(chart_flow, alpha, cert)
    k = np.arange(-32, 33)
    phase = np.exp(1j * np.pi * k)[:, None]
    for t in (0.0, 0.25, 1.0):
        u = chart_flow.u_at(t)
        # conjugated flow perturbation: u2(x) = u(x + 1/2)
        u2 = FourierMap(u.coeffs * phase)
        w = path.value_at(t)
        w2_expected = FourierMap(w.coeffs * phase)
        assert np.abs(u2.coeffs - w2_expected.coeffs).max() <= 1e-10
