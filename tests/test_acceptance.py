"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Values marked by closed forms are asserted at the stated tolerances;
oscillatory values are additionally cross-checked against the independent
Abel-regularization oracle.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from abel_oracle import ORACLE_TOL, abel_limit
from zvar.cov import (CovError, apply_cov, make_bridge_cov, make_exp_cov, make_finite_power_cov,
                      make_power_cov)
from zvar.expr import evaluate, parse
from zvar.taper import check_moments, make_matched_trig, make_smooth_taper
from zvar.verify import compare_pair, run_suite
from zvar.zeval import (DELTA_SHRINK, EvalConfig, FiniteIntegral, InfiniteIntegral, eval_finite,
                        eval_infinite)

COS1 = math.cos(1.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def smooth():
    return make_smooth_taper(1.0)


@pytest.fixture(scope="module")
def matched():
    return make_matched_trig(1.0, 1.0)


def test_criterion_01_conventional_agreement(smooth, matched):
    worst = 0.0
    t0 = time.monotonic()
    for z in (smooth, matched):
        spec = InfiniteIntegral(parse("x^-2"), 1.0, z)
        r = eval_infinite(spec, EvalConfig(b_start=2e6, b_step=1.0, b_count=30))
        assert r.status == "converged"
        worst = max(worst, abs(r.value - 1.0))
    elapsed = time.monotonic() - t0
    _report("01 conventional agreement", worst < 1e-6 and elapsed < 1.0,
            f"|value-1| <= {worst:.2e} under both taper kinds in {elapsed:.2f}s")


def test_criterion_02_tonal_existence(matched):
    spec = InfiniteIntegral(parse("sin(x)"), 0.0, matched)
    r = eval_infinite(spec, EvalConfig())
    bracket_dev = max(abs(v - 1.0) for _, v in r.samples)
    oracle = abel_limit(np.sin, 0.0)
    ok = (r.status == "converged" and abs(r.value - 1.0) < 1e-6
          and bracket_dev < 1e-8 and abs(oracle - r.value) < ORACLE_TOL)
    _report("02 tonal existence", ok,
            f"value={r.value:.9f}, max bracket dev={bracket_dev:.2e}, "
            f"abel oracle={oracle:.6f}")


def test_criterion_03_existence_caveat(smooth):
    spec = InfiniteIntegral(parse("sin(x)"), 0.0, smooth)
    r = eval_infinite(spec, EvalConfig())
    rc, rs = check_moments(smooth, 1.0)
    values = [v for _, v in r.samples]
    spread = max(values[-5:]) - min(values[-5:])
    # the bracket oscillates with amplitude set by the moment residuals
    amplitude = math.hypot(rc, rs)
    ok = (r.status == "oscillatory" and abs(rs) > 0.3
          and spread > 0.1 and spread <= 2.5 * amplitude)
    _report("03 existence caveat", ok,
            f"status={r.status}, residual_sin={rs:.3f}, window spread={spread:.3f}, "
            f"2*amplitude={2 * amplitude:.3f}")


def test_criterion_04_linear_map_tone(matched):
    left = InfiniteIntegral(parse("sin(x)"), 1.0, matched)
    doubled = apply_cov(left, make_power_cov(2.0, 1.0, 1.0))
    assert doubled.lower_limit == pytest.approx(2.0)
    for y in (2.0, 3.5, 10.0):
        assert evaluate(doubled.integrand, {"y": y}) == pytest.approx(
            math.sin(y / 2.0) / 2.0, rel=1e-12)
    right = InfiniteIntegral(doubled.integrand, doubled.lower_limit,
                             make_matched_trig(0.5, 1.0), variable="y")
    rl = eval_infinite(left, EvalConfig())
    rr = eval_infinite(right, EvalConfig())
    oracle = abel_limit(np.sin, 1.0)
    ok = (rl.status == rr.status == "converged"
          and abs(rl.value - COS1) < 1e-5 and abs(rr.value - COS1) < 1e-5
          and abs(oracle - COS1) < ORACLE_TOL)
    _report("04 linear map, both exist", ok,
            f"left={rl.value:.7f}, right={rr.value:.7f}, cos(1)={COS1:.7f}")


def test_criterion_05_power_map_absolutely_convergent(smooth):
    left = InfiniteIntegral(parse("x^-2"), 1.0, smooth)
    right = apply_cov(left, make_power_cov(1.0, 2.0, 1.0))
    cfg = EvalConfig(b_start=4e12, b_step=1.0, b_count=30)
    rl = eval_infinite(left, cfg)
    rr = eval_infinite(right, cfg)
    ok = (rl.status == rr.status == "converged"
          and abs(rl.value - 1.0) < 1e-6 and abs(rr.value - 1.0) < 1e-6)
    _report("05 power map on x^-2", ok,
            f"left={rl.value!r}, right={rr.value!r}")


def test_criterion_06_exp_map_log_tail(smooth):
    left = InfiniteIntegral(parse("x^-2"), 1.0, smooth)
    right = apply_cov(left, make_exp_cov(1.0, 1.0))
    assert right.lower_limit == pytest.approx(math.e)
    for y in (3.0, 10.0):
        assert evaluate(right.integrand, {"y": y}) == pytest.approx(
            1.0 / (y * math.log(y) ** 2), rel=1e-12)
    cfg = EvalConfig(b_start=1e7, b_step=1e7, b_count=300, tol=1e-8,
                     quad_tol=1e-11, accelerate=True)
    r = eval_infinite(right, cfg)
    ok = r.status == "converged" and abs(r.value - 1.0) < 1e-6
    _report("06 exponential map on x^-2", ok,
            f"transformed value={r.value!r} (err {r.value - 1.0:.2e}, "
            f"est {r.error_estimate:.1e})")


def test_criterion_07_existence_asymmetry(matched):
    left = InfiniteIntegral(parse("sin(x)"), 1.0, matched)
    right = apply_cov(left, make_power_cov(1.0, 2.0, 1.0))
    out = compare_pair(left, right, EvalConfig(b_start=1.0, b_count=35), 1e-5)
    ok = (out.verdict == "existence_asymmetry"
          and out.left.status == "converged"
          and out.right.status == "oscillatory")
    _report("07 existence asymmetry", ok,
            f"left={out.left.status}, right={out.right.status}, verdict={out.verdict}")


def test_criterion_08_bridge_value_and_direct_agreement(smooth):
    spec = FiniteIntegral(parse("sin(1/u)/u^2"), 1.0, smooth)
    t0 = time.monotonic()
    bridge = eval_finite(spec, EvalConfig(b_start=1.0, b_count=14, tol=1e-5,
                                          quad_tol=1e-9), mode="bridge")
    bridge_time = time.monotonic() - t0
    direct_cfg = EvalConfig(delta_count=17, tol=1e-3, quad_tol=1e-8)
    # configured floor beta * shrink^(K-1) sits at the 1e-5 scale
    floor = 1.0 * DELTA_SHRINK ** (direct_cfg.delta_count - 1)
    assert 1e-5 <= floor < 2e-5
    direct = eval_finite(spec, direct_cfg, mode="direct")
    delta_min = min(d for d, _ in direct.samples)
    ok = (bridge.status == "converged" and abs(bridge.value - COS1) < 1e-5
          and bridge_time < 30.0
          and direct.status == "converged" and delta_min >= 1e-5
          and abs(direct.value - bridge.value) < 5e-4)
    _report("08 bridge evaluation", ok,
            f"bridge={bridge.value:.7f} in {bridge_time:.1f}s, "
            f"direct={direct.value:.7f}, delta_min={delta_min:.2e}, "
            f"|diff|={abs(direct.value - bridge.value):.2e}")


def test_criterion_09_bridge_equivalence_both_directions(smooth):
    # finite -> infinite: the bridged image evaluates identically
    fin = FiniteIntegral(parse("sin(1/u)/u^2"), 1.0, smooth)
    cfg = EvalConfig(b_start=1.0, b_count=14, tol=1e-5, quad_tol=1e-9)
    via_bridge = eval_finite(fin, cfg, mode="bridge")
    explicit = apply_cov(fin, make_bridge_cov(1.0, 1.0))
    for x in (0.0, 0.7, 1.5):
        assert evaluate(explicit.integrand, {"x": x}) == pytest.approx(
            math.exp(x) * math.sin(math.exp(x)), rel=1e-12)
    direct_inf = eval_infinite(explicit, cfg)
    pair_one = (via_bridge.status == direct_inf.status == "converged"
                and abs(via_bridge.value - direct_inf.value) < 1e-5)

    # infinite -> finite: exp decay maps to the constant integrand
    inf = InfiniteIntegral(parse("exp(-x)"), 0.0, smooth)
    fin_image = apply_cov(inf, make_bridge_cov(1.0, 1.0))
    r_inf = eval_infinite(inf, EvalConfig(accelerate=True))
    r_fin = eval_finite(fin_image, EvalConfig(accelerate=True), mode="direct")
    pair_two = (r_inf.status == r_fin.status == "converged"
                and abs(r_inf.value - 1.0) < 1e-5 and abs(r_fin.value - 1.0) < 1e-5)

    # divergence transfers too: statuses match with neither converged
    div = FiniteIntegral(parse("1/u"), 1.0, smooth)
    d_direct = eval_finite(div, EvalConfig(), mode="direct")
    d_bridge = eval_finite(div, EvalConfig(), mode="bridge")
    pair_three = (d_direct.status == d_bridge.status != "converged")

    _report("09 bridge equivalence", pair_one and pair_two and pair_three,
            f"osc pair |diff|={abs(via_bridge.value - direct_inf.value):.2e}; "
            f"exp pair values=({r_inf.value:.8f}, {r_fin.value:.8f}); "
            f"divergent statuses=({d_direct.status}, {d_bridge.status})")


def test_criterion_10_finite_limit_power_map(smooth):
    cov = make_finite_power_cov(1.0, 2.0)

    sqrt_spec = FiniteIntegral(parse("u^(-1/2)"), 1.0, smooth)
    sqrt_image = apply_cov(sqrt_spec, cov)
    cfg = EvalConfig(accelerate=True)
    r1 = eval_finite(sqrt_spec, cfg)
    r2 = eval_finite(sqrt_image, cfg)
    first = (r1.status == r2.status == "converged"
             and abs(r1.value - 2.0) < 1e-6 and abs(r2.value - 2.0) < 1e-6)

    osc_spec = FiniteIntegral(parse("sin(1/u)/u^2"), 1.0, smooth)
    osc_image = apply_cov(osc_spec, cov)
    cfg_osc = EvalConfig(delta_count=10, tol=1e-3, quad_tol=1e-8)
    r3 = eval_finite(osc_spec, cfg_osc)
    r4 = eval_finite(osc_image, cfg_osc)
    second = (r3.status == r4.status == "converged"
              and abs(r3.value - COS1) < 1e-4 and abs(r4.value - COS1) < 1e-4)

    _report("10 finite-limit power map", first and second,
            f"u^-1/2: ({r1.value!r}, {r2.value!r}); "
            f"oscillatory: ({r3.value:.7f}, {r4.value:.7f}) vs cos(1)={COS1:.7f}")


def test_criterion_11_guards():
    checks = []
    with pytest.raises(CovError):
        make_power_cov(1.0, 0.5, -1.0)
    checks.append("power r=1/2, a=-1 rejected")
    make_power_cov(2.0, 3.0, -1.0)
    checks.append("power r=3, a=-1 accepted")
    for d, r in ((0.0, 2.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -3.0)):
        with pytest.raises(CovError):
            make_power_cov(d, r, 1.0)
    for d, alpha in ((0.0, 1.0), (1.0, 0.0), (1.0, -2.0), (-1.0, 1.0)):
        with pytest.raises(CovError):
            make_exp_cov(d, alpha)
    checks.append("nonpositive d, r, alpha rejected")
    _report("11 constructor guards", True, "; ".join(checks))


def test_criterion_12_property_suites():
    t0 = time.monotonic()
    import test_expr
    import test_quad
    import test_zeval

    test_expr.test_derivative_fd_property()
    test_expr.test_roundtrip_property()
    test_quad.test_polynomial_exactness_degree_10()
    test_zeval.test_classify_constant_converged()
    test_zeval.test_classify_sine_samples_oscillatory()
    test_zeval.test_classify_monotone_drifting()

    from zvar.cov import make_custom_cov
    from zvar.taper import make_matched_trig
    from zvar.zeval import InfiniteIntegral as II

    spec = II(parse("sin(x)"), 1.0, make_matched_trig(1.0, 1.0))
    fwd = apply_cov(spec, make_power_cov(1.0, 2.0, 1.0))
    back = apply_cov(fwd, make_custom_cov("infinite_cov", "x^(1/2)", "y^2", (1.0, 1e5)))
    for p in np.linspace(1.1, 40.0, 32):
        a = evaluate(spec.integrand, {"x": float(p)})
        b = evaluate(back.integrand, {"y": float(p)})
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    elapsed = time.monotonic() - t0
    _report("12 property suites", elapsed < 300.0,
            f"derivative FD, round-trip, quad exactness, classification, "
            f"cov identity re-ran clean in {elapsed:.1f}s")


def test_shipped_corpus_is_the_acceptance_surface():
    report = run_suite()
    _report("corpus", report.all_expected,
            f"{len(report.cases)} cases, all expected verdicts hold")
