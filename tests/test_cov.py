"""Change-of-variable tests: constructors, guards, sampled checks, application."""

import math

import numpy as np
import pytest

from zvar.cov import (
    ChangeOfVariable,
    CovError,
    apply_cov,
    make_bridge_cov,
    make_custom_cov,
    make_exp_cov,
    make_finite_power_cov,
    make_power_cov,
    parse_cov_spec,
)
from zvar.expr import differentiate, evaluate, parse
from zvar.taper import make_matched_trig, make_smooth_taper
from zvar.zeval import FiniteIntegral, InfiniteIntegral


def _pointwise_equal(f, g, var_name, points, rtol=1e-10):
    for p in points:
        a = evaluate(f, {var_name: p})
        b = evaluate(g, {var_name: p})
        assert a == pytest.approx(b, rel=rtol, abs=1e-14), f"at {var_name}={p}: {a} vs {b}"


# ---------------------------------------------------------------------------
# constructors and guards
# ---------------------------------------------------------------------------

def test_power_cov_algebra():
    cov = make_power_cov(1.0, 2.0, 1.0)
    assert evaluate(cov.forward, {"x": 2.0}) == 4.0
    assert evaluate(cov.inverse, {"y": 4.0}) == pytest.approx(2.0, rel=1e-14)
    dq = differentiate(cov.inverse, "y")
    assert evaluate(dq, {"y": 4.0}) == pytest.approx(0.25, rel=1e-12)


def test_power_cov_caveat_guard():
    with pytest.raises(CovError, match="non-odd-integer"):
        make_power_cov(1.0, 0.5, -1.0)
    # odd integer exponent tolerates a negative lower limit
    cov = make_power_cov(2.0, 3.0, -1.0)
    assert evaluate(cov.inverse, {"y": -16.0}) == pytest.approx(-2.0, rel=1e-12)
    with pytest.raises(CovError):
        make_power_cov(0.0, 2.0, 1.0)
    with pytest.raises(CovError):
        make_power_cov(1.0, -2.0, 1.0)


def test_exp_cov_algebra():
    cov = make_exp_cov(1.0, 1.0)
    assert evaluate(cov.inverse, {"y": math.e}) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(CovError):
        make_exp_cov(2.0, 0.0)
    with pytest.raises(CovError):
        make_exp_cov(-1.0, 1.0)


def test_finite_power_cov_algebra():
    cov = make_finite_power_cov(1.0, 2.0)
    # t = P(u) = u^(1/2), u = Q(t) = t^2
    assert evaluate(cov.forward, {"u": 9.0}) == pytest.approx(3.0)
    assert evaluate(cov.inverse, {"t": 3.0}) == pytest.approx(9.0)
    with pytest.raises(CovError):
        make_finite_power_cov(1.0, 0.0)
    with pytest.raises(CovError):
        make_finite_power_cov(0.0, 2.0)
    with pytest.raises(CovError):
        make_finite_power_cov(-1.0, 2.0)


def test_custom_cov_shift_and_linear():
    shift = make_custom_cov("infinite_cov", "x+5", "y-5", (0.0, 50.0))
    assert evaluate(shift.forward, {"x": 1.0}) == 6.0
    linear = make_custom_cov("infinite_cov", "2*x", "y/2", (0.0, 50.0))
    assert evaluate(linear.inverse, {"y": 8.0}) == 4.0


def test_custom_cov_non_injective_roundtrip_failure():
    with pytest.raises(CovError, match="round-trip"):
        make_custom_cov("infinite_cov", "sin(x)", "y", (0.0, 50.0))


# ---------------------------------------------------------------------------
# sampled checks: a custom map is refused only when a check refutes it
# ---------------------------------------------------------------------------

def _refusal(spec, cov):
    """The message of apply_cov's refusal of cov."""
    with pytest.raises(CovError, match="^transform failed validation: ") as err:
        apply_cov(spec, cov)
    return str(err.value)


def _conditions(message):
    """The conditions a refusal names, in order."""
    refuted = message.removeprefix("transform failed validation: ").split("; ")
    return [part.split(" (")[0] for part in refuted]


def test_validate_specializations_analytic(smooth_z, monkeypatch):
    # A shipped family meets its kind's conditions by construction, so
    # apply_cov runs no sampled check on it; the checks refute none of them
    # either, exp included, whose P' overflows past x = 709.
    import zvar.cov

    shipped = (make_power_cov(1.0, 2.0, 1.0), make_exp_cov(1.0, 1.0),
               make_finite_power_cov(1.0, 2.0))
    assert [zvar.cov._sampled_checks(cov) for cov in shipped] == [[], [], []]
    monkeypatch.setattr(zvar.cov, "_sampled_checks", None)
    for cov in (*shipped, make_bridge_cov(1.0, 1.0)):
        form = FiniteIntegral if cov.kind == "finite_cov" else InfiniteIntegral
        apply_cov(form(parse("1", variables=(cov.forward_var,)), 1.0, smooth_z,
                       variable=cov.forward_var), cov)


def test_custom_map_that_no_check_refutes_is_applied(smooth_z):
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    for forward, inverse in (("x+5", "y-5"), ("2*x", "y/2")):
        out = apply_cov(spec, make_custom_cov("infinite_cov", forward, inverse, (0.0, 50.0)))
        assert out.lower_limit == evaluate(parse(forward), {"x": 1.0})


def test_custom_map_is_refused_at_a_limit_outside_its_domain(smooth_z):
    # A custom map is known only on its domain: a must be at least lo, and
    # beta at most hi.  a = 1 below lo = 2e6 once printed lower_limit 6.0.
    shift = make_custom_cov("infinite_cov", "x+5", "y-5", (2e6, 3e6))
    with pytest.raises(CovError, match=r"limit a=1\.0 below its domain's lo=2000000\.0$"):
        apply_cov(InfiniteIntegral(parse("x^-2"), 1.0, smooth_z), shift)
    assert apply_cov(InfiniteIntegral(parse("x^-2"), 2e6, smooth_z), shift).lower_limit == 2e6 + 5
    same = make_custom_cov("finite_cov", "u", "t", (1e-9, 0.5))
    with pytest.raises(CovError, match=r"limit beta=1\.0 above its domain's hi=0\.5$"):
        apply_cov(FiniteIntegral(parse("u^-0.5", variables=("u",)), 1.0, smooth_z), same)
    assert apply_cov(FiniteIntegral(parse("u^-0.5", variables=("u",)), 0.5, smooth_z),
                     same).upper_limit == 0.5


def test_validate_derivative_touching_zero_is_invalid(smooth_z):
    # P(x) = x + sin(x): monotone but P' = 1 + cos(x) touches zero, failing
    # strict positivity; built directly since it has no closed-form inverse
    forward = parse("x + sin(x)")
    cov = ChangeOfVariable(
        kind="infinite_cov",
        forward=forward,
        inverse=parse("y"),
        domain=(1.0, 1e6),
        analytic=False,
    )
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    assert "forward_derivative_positive" in _conditions(_refusal(spec, cov))
    # P(x) = (x-5)^3 + 125 has an exact inverse, so the round-trip passes,
    # but P' = 3(x-5)^2 is 0 at x = 5.
    cubic = make_custom_cov("infinite_cov", "(x-5)^3+125",
                            "5+(y-125)/abs(y-125)*abs(y-125)^(1/3)", (1.0, 60.0))
    message = _refusal(spec, cubic)
    assert _conditions(message) == ["forward_derivative_positive"]
    assert "near x=5 " in message


def test_validate_decreasing_map_is_invalid(smooth_z):
    cov = ChangeOfVariable(
        kind="infinite_cov",
        forward=parse("-x"),
        inverse=parse("-y"),
        domain=(1.0, 1e6),
        analytic=False,
    )
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    assert _conditions(_refusal(spec, cov)) == ["forward_unbounded",
                                                "forward_derivative_positive"]


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def test_apply_power_cov_to_inverse_square(smooth_z):
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    out = apply_cov(spec, make_power_cov(1.0, 2.0, 1.0))
    assert isinstance(out, InfiniteIntegral)
    assert out.lower_limit == pytest.approx(1.0)
    assert out.taper is smooth_z
    expect = parse("(1/2)*y^(-3/2)")
    _pointwise_equal(out.integrand, expect, "y", [1.0, 2.0, 5.0, 100.0])


def test_apply_exp_cov_to_inverse_square(smooth_z):
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    out = apply_cov(spec, make_exp_cov(1.0, 1.0))
    assert out.lower_limit == pytest.approx(math.e)
    expect = parse("1/(y*ln(y)^2)")
    _pointwise_equal(out.integrand, expect, "y", [3.0, 10.0, 100.0])


def test_apply_shift_needs_no_override(matched_z):
    spec = InfiniteIntegral(parse("sin(x)"), 1.0, matched_z)
    shift = make_custom_cov("infinite_cov", "x+5", "y-5", (1.0, 60.0))
    out = apply_cov(spec, shift)
    assert out.lower_limit == pytest.approx(6.0)
    _pointwise_equal(out.integrand, parse("sin(y-5)"), "y", [6.0, 7.5, 20.0])


def test_apply_kind_mismatch(smooth_z):
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    with pytest.raises(CovError, match="does not match"):
        apply_cov(spec, make_finite_power_cov(1.0, 2.0))
    # a bridge converts between the forms instead of refusing the mismatch
    assert isinstance(apply_cov(spec, make_bridge_cov(1.0, 1.0)), FiniteIntegral)


def test_apply_finite_power_to_inverse_sqrt(smooth_z):
    spec = FiniteIntegral(parse("u^(-1/2)"), 1.0, smooth_z)
    out = apply_cov(spec, make_finite_power_cov(1.0, 2.0))
    assert isinstance(out, FiniteIntegral)
    assert out.upper_limit == pytest.approx(1.0)
    # g(t^2) * 2t = 2 for t > 0
    _pointwise_equal(out.integrand, parse("2 + 0*t"), "t", [0.1, 0.5, 1.0])


def test_argument_level_round_trip(matched_z):
    spec = InfiniteIntegral(parse("sin(x)"), 1.0, matched_z)
    forward = apply_cov(spec, make_power_cov(1.0, 2.0, 1.0))
    back = apply_cov(
        forward,
        make_custom_cov("infinite_cov", "x^(1/2)", "y^2", (1.0, 1e5)),
    )
    pts = np.linspace(1.1, 40.0, 32)
    for p in pts:
        orig = evaluate(spec.integrand, {"x": float(p)})
        again = evaluate(back.integrand, {"y": float(p)})
        assert again == pytest.approx(orig, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# bridge transform
# ---------------------------------------------------------------------------

def test_bridge_finite_to_infinite(smooth_z):
    spec = FiniteIntegral(parse("sin(1/u)/u^2"), 1.0, smooth_z)
    out = apply_cov(spec, make_bridge_cov(1.0, 1.0))
    assert isinstance(out, InfiniteIntegral)
    assert out.lower_limit == pytest.approx(0.0)
    assert out.taper is smooth_z
    for x in (0.0, 1.0, 2.0):
        got = evaluate(out.integrand, {"x": x})
        want = math.exp(x) * math.sin(math.exp(x))
        assert got == pytest.approx(want, rel=1e-12)


def test_bridge_infinite_to_finite(smooth_z):
    spec = InfiniteIntegral(parse("exp(-x)"), 0.0, smooth_z)
    out = apply_cov(spec, make_bridge_cov(1.0, 1.0))
    assert isinstance(out, FiniteIntegral)
    assert out.upper_limit == pytest.approx(1.0)
    assert out.taper is smooth_z
    for u in (0.2, 0.5, 1.0):
        assert evaluate(out.integrand, {"u": u}) == pytest.approx(1.0, rel=1e-12)


def test_bridge_round_trip_pointwise(smooth_z):
    spec = FiniteIntegral(parse("sin(1/u)/u^2"), 1.0, smooth_z)
    bridge = make_bridge_cov(1.0, 1.0)
    back = apply_cov(apply_cov(spec, bridge), bridge)
    assert isinstance(back, FiniteIntegral)
    assert back.upper_limit == pytest.approx(1.0)
    for u in (0.05, 0.3, 0.9):
        a = evaluate(spec.integrand, {"u": u})
        b = evaluate(back.integrand, {"u": u})
        assert b == pytest.approx(a, rel=1e-10)


def test_bridge_scale_family(smooth_z):
    spec = FiniteIntegral(parse("u^(-1/2)"), 1.0, smooth_z)
    out = apply_cov(spec, make_bridge_cov(2.0, 0.5))
    assert out.lower_limit == pytest.approx(-math.log(1.0 / 2.0) / 0.5)
    for x in (2.0, 3.0, 5.0):
        u = 2.0 * math.exp(-0.5 * x)
        want = u ** -0.5 * 0.5 * u
        assert evaluate(out.integrand, {"x": x}) == pytest.approx(want, rel=1e-12)


def test_bridge_general_scale_preserves_value(smooth_z):
    # the exponential family works for any d > 0, alpha > 0, not just (1, 1)
    from zvar.zeval import EvalConfig, eval_finite, eval_infinite

    spec = FiniteIntegral(parse("u^(-1/2)"), 1.0, smooth_z)
    base = eval_finite(spec, EvalConfig(accelerate=True))
    for d, alpha in ((1.0, 2.0), (2.0, 0.5), (3.0, 1.0)):
        image = apply_cov(spec, make_bridge_cov(d, alpha))
        r = eval_infinite(image, EvalConfig(accelerate=True))
        assert r.status == "converged", (d, alpha)
        assert abs(r.value - base.value) < 1e-6, (d, alpha, r.value)


def test_bridge_infinite_to_finite_scale_family(smooth_z):
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    d, alpha = 2.0, 3.0
    out = apply_cov(spec, make_bridge_cov(d, alpha))
    assert isinstance(out, FiniteIntegral)
    assert out.upper_limit == d * math.exp(-alpha)
    assert out.taper is smooth_z
    for u in (0.01, 0.05, 0.09):
        x = -math.log(u / d) / alpha
        want = x ** -2 / (alpha * u)
        assert evaluate(out.integrand, {"u": u}) == pytest.approx(want, rel=1e-12)


def test_bridge_parameter_guards():
    with pytest.raises(CovError):
        make_bridge_cov(0.0, 1.0)
    with pytest.raises(CovError):
        make_bridge_cov(1.0, -1.0)


def test_custom_finite_cov_sampled_checks(smooth_z):
    spec = FiniteIntegral(parse("u^(-1/2)"), 1.0, smooth_z)
    shifted = make_custom_cov("finite_cov", "u+1", "t-1", (1e-9, 1.0))
    assert _conditions(_refusal(spec, shifted)) == ["forward_vanishes_at_zero"]

    sqrt_map = make_custom_cov("finite_cov", "u^2", "t^(1/2)", (1e-9, 1.0))
    out = apply_cov(spec, sqrt_map)
    assert isinstance(out, FiniteIntegral)
    assert out.upper_limit == pytest.approx(1.0)
    # g(t^(1/2)) * (1/2) t^(-1/2) = (1/2) t^(-3/4)
    for t in (0.01, 0.3, 1.0):
        assert evaluate(out.integrand, {"t": t}) == pytest.approx(0.5 * t ** -0.75, rel=1e-12)


def test_failed_validation_names_what_refutes_the_map(smooth_z):
    # P(x) = x + |x - 1|^0.5 is increasing and unbounded, but P' is NaN at
    # x = 1, the first point sampled.  The error names that fault and its
    # evidence.
    cov = parse_cov_spec("custom:kind=infinite_cov,forward=x + abs(x - 1)^0.5,"
                         "inverse=1 + ((sqrt(4*y - 3) - 1)/2)^2,lo=1,hi=1e6")
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth_z)
    assert _refusal(spec, cov) == ("transform failed validation: evaluation (sample "
                                   "evaluation fault: non-finite value at 1.0)")


def test_custom_domain_must_leave_the_checks_a_finite_sample():
    # np.geomspace over a non-finite or non-positive end let a RuntimeWarning escape
    for kind, domain, match in (
            ("finite_cov", (-2.0, -1.0), "positive, finite hi, got -1.0"),
            ("finite_cov", (0.0, math.inf), "positive, finite hi, got inf"),
            ("finite_cov", (-math.inf, 1.0), "lo must be finite, got -inf"),
            ("infinite_cov", (-math.inf, 60.0), "lo must be finite, got -inf"),
            ("infinite_cov", (1e305, 2e305), r"lo <= 1e300, .* got 1e\+305")):
        with pytest.raises(CovError, match=match):
            make_custom_cov(kind, "x" if kind == "infinite_cov" else "u",
                            "y" if kind == "infinite_cov" else "t", domain)


def test_derivative_sample_lies_in_the_domain(smooth_z, monkeypatch):
    # The six decades of P' samples start at the domain, not at 1: for
    # lo = 2e6 the grid once ran backwards from 2e6 down to 1e6.  The lower
    # limit lies in the domain, as apply_cov requires.
    import zvar.cov

    seen = []
    original = zvar.cov._refined_min
    monkeypatch.setattr(zvar.cov, "_refined_min",
                        lambda fn, pts: seen.append(pts) or original(fn, pts))
    for lo in (0.0, 2e6):
        cov = make_custom_cov("infinite_cov", "x+5", "y-5", (lo, lo + 1e6))
        apply_cov(InfiniteIntegral(parse("x^-2"), max(lo, 1.0), smooth_z), cov)
        pts = seen.pop()
        start = max(lo, 1.0)
        assert pts[0] == start and pts.min() >= lo
        assert pts[-1] == pytest.approx(1e6 * start)


def test_custom_bridge_is_rejected():
    with pytest.raises(CovError, match="custom transform kind"):
        make_custom_cov("bridge", "exp(-x)", "-ln(u)", (0.0, 50.0))
    with pytest.raises(CovError, match="custom transform kind"):
        parse_cov_spec("custom:kind=bridge,forward=exp(-x),inverse=-ln(u),lo=0,hi=50")


# ---------------------------------------------------------------------------
# transform spec strings
# ---------------------------------------------------------------------------

def test_parse_cov_specs():
    cov = parse_cov_spec("power:d=1,r=2", a=1.0)
    assert cov.params == {"d": 1.0, "r": 2.0}
    cov = parse_cov_spec("exp:d=1,alpha=1")
    assert cov.params["alpha"] == 1.0
    cov = parse_cov_spec("finpower:d=1,r=2")
    assert cov.kind == "finite_cov"
    bridge = parse_cov_spec("bridge:d=1,alpha=1")
    assert bridge.kind == "bridge"
    custom = parse_cov_spec(
        "custom:kind=infinite_cov,forward=x+5,inverse=y-5,lo=0,hi=50")
    assert custom.kind == "infinite_cov"

    with pytest.raises(CovError, match="unknown transform kind"):
        parse_cov_spec("rotate:angle=3")
    with pytest.raises(CovError, match="missing fields"):
        parse_cov_spec("power:d=1", a=1.0)
    with pytest.raises(CovError, match="lower limit"):
        parse_cov_spec("power:d=1,r=2")
    with pytest.raises(CovError, match="non-odd-integer"):
        parse_cov_spec("power:d=1,r=0.5", a=-1.0)
    with pytest.raises(CovError, match="repeats field 'd'"):
        parse_cov_spec("power:d=1,d=3,r=2", a=1.0)
    with pytest.raises(CovError, match="field 'd' is not a number: 'abc'"):
        parse_cov_spec("power:d=abc,r=2", a=1.0)
    with pytest.raises(CovError, match="field 'lo' is not a number"):
        parse_cov_spec("custom:kind=infinite_cov,forward=x+5,inverse=y-5,lo=zero,hi=50")
    # commas inside parentheses belong to the expression
    with pytest.raises(CovError, match="unknown fields: hi2"):
        parse_cov_spec("custom:kind=infinite_cov,forward=(x+5),inverse=(y-5),lo=0,hi=50,hi2=1")


@pytest.fixture(scope="module")
def smooth_z():
    return make_smooth_taper(1.0)


@pytest.fixture(scope="module")
def matched_z():
    return make_matched_trig(1.0, 1.0)
