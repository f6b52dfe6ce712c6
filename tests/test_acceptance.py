"""Acceptance suite: every quantified contract at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see the
lines while passing).  Random data are seeded per criterion; oracles are
computed in place (closed forms, finite differences, quadrature) and never
copied from the implementation under test.
"""

from fractions import Fraction

import numpy as np
import pytest

from torusflow import (AdmissibleField, AnalyticDiffeo, FourierMap,
                       LocalAddition, PointwiseSquareMap, TimeDependentField,
                       cauchy_bound_check, compose_diffeo,
                       contravariance_defect, derivative_at_eta,
                       derivative_at_zero, evol_left, evol_left_by_reversal,
                       evol_right, find_delta0, flow_two_param, invert_diffeo,
                       invert_local, make_levels, odot, param_lipschitz_check,
                       pullback_apply, restriction_consistency, solve_flow,
                       third_ball_lipschitz, trotter_curve,
                       verify_continuity_estimate)
from torusflow.flow import contraction_certificate_ok
from torusflow.group import _probe_points
from torusflow.pullback import pullback_path

from _readings import (eval_points, max_observed, min_real_jacobian,
                       richardson_ratio, snapshot_map, step_factors)
from conftest import EPS, ORDER, cosine_map, random_admissible, sine_map


def report(num, name, value, tol, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): "
          f"{value:.3e} vs {tol:.3e}")
    assert ok, f"criterion {num} ({name}): {value} vs {tol}"


def budgeted(field_map: FourierMap, budget: float) -> AdmissibleField:
    """Autonomous field scaled to an exact L^1 beta budget."""
    f = TimeDependentField.constant(field_map, 0.2)
    b = f.lp_norm(1, "beta", 2 * EPS)
    return AdmissibleField.certify((budget / b) * f, EPS)


def test_criterion_01_contraction_constant():
    rng = np.random.default_rng(101)
    worst = 0.0
    all_ok = True
    for _ in range(50):
        gamma = random_admissible(rng)
        path = solve_flow(gamma)
        all_ok &= contraction_certificate_ok(path)
        ratios = [r for _, d, r in path.iteration_log[1:]
                  if np.isfinite(r) and d > 1e-13]
        if ratios:
            worst = max(worst, max(ratios))
            all_ok &= max(ratios) <= gamma.theta_hat + 0.05
    ok = all_ok and worst <= 0.55
    report(1, "contraction ratios", worst, 0.55, ok)


def test_criterion_02_parameter_lipschitz_two():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(50):
        g1 = random_admissible(rng, budget=float(rng.uniform(0.08, 0.38)))
        if i % 2 == 0:
            delta = random_admissible(
                rng, budget=float(rng.uniform(0.01, 0.08)))
            g2 = AdmissibleField.certify(g1.field + delta.field, EPS)
        else:
            g2 = random_admissible(rng, budget=float(rng.uniform(0.08, 0.38)))
        worst = max(worst, param_lipschitz_check(g1, g2).ratio)
    report(2, "parameter Lipschitz", worst, 2 + 1e-6, worst <= 2 + 1e-6)


def test_criterion_03_closed_form_flow(sine_flow):
    a = 0.02
    probes = (np.arange(64) + 0.3) / 64
    got = eval_points(sine_flow, 1.0, probes[:, None].astype(complex))[:, 0]
    want = np.arctan(np.exp(2 * np.pi * a) * np.tan(np.pi * probes)) / np.pi
    want = np.where(probes > 0.5, want + 1.0, want)
    err = float(np.abs(got.real - want).max())
    # the probe value recomputed from the closed form before the build
    y_q = float(np.arctan(np.exp(2 * np.pi * a) * np.tan(np.pi * 0.25)) / np.pi)
    assert y_q == pytest.approx(0.26994756896743394, abs=1e-15)
    report(3, "tangent closed form", err, 1e-8, err <= 1e-8)


def test_criterion_04_restriction_consistency(sine_flow):
    rep = restriction_consistency(sine_flow, EPS / 2)
    report(4, "restriction consistency", rep.discrepancy, 1e-9,
           rep.discrepancy <= 1e-9)


def test_criterion_05_imaginary_invariance():
    rng = np.random.default_rng(105)
    violations = 0
    worst = 0.0
    total = 0
    for _ in range(5):
        gamma = random_admissible(rng)
        path = solve_flow(gamma)
        starts = (rng.uniform(0, 1, 200)
                  + 1j * rng.uniform(-EPS / 2, EPS / 2, 200))[:, None]
        for t in path.grid.floats:
            vals = eval_points(path, t, starts)
            m = float(np.abs(vals.imag).max())
            worst = max(worst, m)
            violations += int(m >= EPS)
        total += 200
        assert path.check_strip_invariant()
    assert total >= 1000
    report(5, "imaginary invariance", worst, EPS, violations == 0)


def test_criterion_06_left_right_identity():
    rng = np.random.default_rng(106)
    pts = _probe_points(1, 64)
    worst = 0.0
    for _ in range(20):
        gamma = random_admissible(rng, budget=float(rng.uniform(0.08, 0.35)),
                                  max_mode=3)
        r = evol_right(gamma)
        for tq in (Fraction(3, 8), Fraction(1, 2), Fraction(1)):
            lhs = r.eval_at(float(tq), pts)
            minus = evol_left_by_reversal(gamma.negated(), tq)
            rhs = invert_diffeo(minus)(pts)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    report(6, "left/right evolution identity", worst, 1e-8, worst <= 1e-8)


def test_criterion_07_two_parameter_cocycle():
    rng = np.random.default_rng(107)
    worst = 0.0
    pts = _probe_points(1, 64)
    for _ in range(4):
        gamma = random_admissible(rng, budget=float(rng.uniform(0.1, 0.35)))
        evo = evol_right(gamma)
        for _ in range(5):
            t, s, t0 = np.sort(rng.uniform(0, 1, 3))[::-1]
            lhs = flow_two_param(evo, t, t0)
            rhs = compose_diffeo(flow_two_param(evo, t, s),
                                 flow_two_param(evo, s, t0))
            worst = max(worst, float(np.abs(lhs(pts) - rhs(pts)).max()))
    report(7, "two-parameter cocycle", worst, 1e-8, worst <= 1e-8)


def test_criterion_08_flow_maps_are_certified_diffeos():
    rng = np.random.default_rng(108)
    worst_mu, worst_res, worst_jac = 0.0, 0.0, np.inf
    for _ in range(5):
        gamma = random_admissible(rng, budget=float(rng.uniform(0.1, 0.4)))
        evo = evol_right(gamma)
        n = len(evo.grid) - 1
        for j in (0, n // 3, n // 2, 2 * n // 3, n):
            phi = snapshot_map(evo, j)
            inv = invert_diffeo(phi)
            worst_mu = max(worst_mu, phi.mu)
            worst_res = max(worst_res, inv.inverse_residual)
            worst_jac = min(worst_jac, min_real_jacobian(phi))
            assert min_real_jacobian(phi) >= 1 - phi.mu - 1e-12 > 0
    ok = worst_mu < 1.0 and worst_res <= 1e-10 and worst_jac > 0
    report(8, "analytic-diffeo certificates", worst_res, 1e-10, ok)


def test_criterion_09_derivative_formula_at_zero():
    gamma = AdmissibleField.certify(
        TimeDependentField.constant(sine_map(0.04), 0.2), EPS)
    rep = derivative_at_zero(gamma, 1.0)
    ok = rep.discrepancy <= 1e-6 and 0.2 <= richardson_ratio(rep) <= 0.3
    print(f"          richardson ratio {richardson_ratio(rep):.4f}")
    report(9, "derivative at zero", rep.discrepancy, 1e-6, ok)


def test_criterion_10_derivative_at_base_field():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        mode_e, mode_g = rng.integers(1, 3, 2)
        eta = budgeted(sine_map(1.0, mode=int(mode_e)),
                       float(rng.uniform(0.1, 0.3)))
        gam = budgeted(cosine_map(1.0, mode=int(mode_g)),
                       float(rng.uniform(0.1, 0.3)))
        worst = max(worst, derivative_at_eta(eta, gam, 0.6))
    report(10, "derivative at base field", worst, 1e-5, worst <= 1e-5)


def test_criterion_11_product_homomorphism():
    rng = np.random.default_rng(111)
    pts = _probe_points(1, 64)
    worst = 0.0
    for _ in range(20):
        m1, m2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        gam = budgeted(sine_map(1.0, mode=m1), float(rng.uniform(0.05, 0.2)))
        eta = budgeted(cosine_map(1.0, mode=m2), float(rng.uniform(0.05, 0.2)))
        prod = AdmissibleField.certify(odot(gam, eta), EPS)
        e_prod, e_g, e_e = evol_left(prod), evol_left(gam), evol_left(eta)
        for t in (0.5, 1.0):
            lhs = e_prod.eval_at(t, pts)
            rhs = e_g.eval_at(t, e_e.eval_at(t, pts))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    report(11, "product homomorphism", worst, 1e-7, worst <= 1e-7)


def test_criterion_12_trotter_product():
    curve = trotter_curve(sine_map(0.02), cosine_map(0.02), EPS,
                          n_values=(8, 16, 32, 64, 128))
    ds = [d for _, d in curve]
    ratios = [b / a for a, b in zip(ds, ds[1:])]
    ok = all(0.35 <= r <= 0.65 for r in ratios) and ds[-1] <= ds[0] / 10
    report(12, "Trotter product", max(ratios), 0.65, ok)


def test_criterion_13_quantitative_inverse():
    alpha = LocalAddition([((2,), sine_map(0.05, 8))], m=1, order=8)
    cert = find_delta0(alpha, EPS)
    rng = np.random.default_rng(113)
    delta = min(2.0, cert.delta0)
    z = np.full((1000, 1), 0.2, dtype=complex)
    t1 = z + rng.uniform(-delta / 2, delta / 2, (1000, 1)) * 0.999
    t2 = z + rng.uniform(-delta / 2, delta / 2, (1000, 1)) * 0.999
    w1 = invert_local(alpha, cert, z, t1, delta=delta)
    w2 = invert_local(alpha, cert, z, t2, delta=delta)
    num = np.abs(w1 - w2).max(axis=-1)
    den = np.abs(t1 - t2).max(axis=-1)
    good = den > 1e-12
    lip = float((num[good] / den[good]).max())
    worst_factor = 0.0
    for i in range(0, 1000, 100):
        res = invert_local(alpha, cert, z[i], t1[i], delta=delta, full=True)
        if step_factors(res).size:
            worst_factor = max(worst_factor, float(step_factors(res).max()))
    ok = lip <= 2 + 1e-9 and worst_factor <= 0.5 + 1e-6
    print(f"          step factor {worst_factor:.4f}")
    report(13, "quantitative inverse", lip, 2 + 1e-9, ok)


def test_criterion_14_continuity_estimate():
    levels = make_levels(0.2, [0.5, 0.6, 0.7, 0.8], order=16)
    square = PointwiseSquareMap()
    p_eps = levels[-1].eps
    certs = square.lipschitz_certs(levels, p_eps)
    rep = verify_continuity_estimate(square, levels, certs, p_eps,
                                     eps_target=0.05, count=10_000,
                                     rng=np.random.default_rng(114))
    report(14, "telescoped continuity", max_observed(rep), 0.05,
           rep.violations == 0)


def test_criterion_15_cauchy_and_third_ball():
    levels = make_levels(0.2, [0.5, 0.6, 0.7, 0.8], order=16)
    square = PointwiseSquareMap()
    rng = np.random.default_rng(115)
    cb = cauchy_bound_check(square, levels[0], levels[0].eps, 1000, rng)
    tb = third_ball_lipschitz(square, levels[0], levels[0].eps, 1000, rng)
    worst = max(cb.max_ratio, tb.max_ratio)
    report(15, "Cauchy and third-ball ratios", worst, 1 + 1e-3,
           cb.check.ok and tb.check.ok)


def test_criterion_16_pullback_layer(sine_gamma):
    phi = AnalyticDiffeo.certify(sine_map(0.02), EPS)
    psi = AnalyticDiffeo.certify(
        FourierMap.from_modes({1: [0.008j], 2: [0.003]}, ORDER), EPS)
    f = FourierMap.from_modes({1: [0.4]}, ORDER, ncomp=1)
    g = FourierMap.from_modes({2: [-0.2j]}, ORDER, ncomp=1)
    lin = pullback_apply(phi, f + 2.0 * g, tol_trunc=1e-5) \
        - (pullback_apply(phi, f, tol_trunc=1e-5)
           + 2.0 * pullback_apply(phi, g, tol_trunc=1e-5))
    lin_defect = float(np.abs(lin.coeffs).max())
    contra = contravariance_defect(phi, psi, 16)
    rep = pullback_path(sine_gamma, 0.0, 8, n_transport_times=3)
    ok = (lin_defect <= 1e-12 and contra <= 1e-8
          and rep.transport_check.value <= 1e-7 and rep.ac_check.ok)
    print(f"          linearity {lin_defect:.2e}, contravariance "
          f"{contra:.2e}, transport {rep.transport_check.value:.2e}")
    report(16, "pullback layer", contra, 1e-8, ok)
