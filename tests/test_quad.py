"""Quadrature engine tests: exactness, oscillation stress, budgets, faults."""

import math

import mpmath
import numpy as np
import pytest

from zvar.expr import DomainFault, parse
from zvar.quad import integrate_callable, integrate_proper


def test_basic_values():
    r = integrate_proper(parse("x^2"), "x", 0.0, 1.0, 1e-12)
    assert r.converged and abs(r.value - 1.0 / 3.0) < 1e-12

    r = integrate_proper(parse("sin(x)"), "x", 0.0, math.pi, 1e-12)
    assert r.converged and abs(r.value - 2.0) < 1e-12

    r = integrate_proper(parse("exp(x)"), "x", 0.0, 1.0, 1e-12)
    assert r.converged and abs(r.value - (math.e - 1.0)) < 1e-12


def test_polynomial_exactness_degree_10():
    rng = np.random.default_rng(42)
    for _ in range(20):
        coeffs = [float(c) for c in rng.uniform(-3.0, 3.0, size=11)]
        text = " + ".join(f"{c!r}*x^{k}" for k, c in enumerate(coeffs))
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        r = integrate_proper(parse(text), "x", 0.0, 1.0, 1e-12)
        assert r.converged
        assert abs(r.value - exact) < 1e-12


def test_oscillation_stress():
    hi = 2.0 * math.pi * 1000.0
    r = integrate_proper(parse("sin(x)"), "x", 0.0, hi, 1e-9, max_evals=10_000_000)
    assert r.converged
    assert abs(r.value) < 1e-8
    # Golden counts here and below pin the refinement rule (which panels
    # are bisected, when the loop stops): a change to it shows up as a
    # different count even when the value stays within tolerance.
    assert r.evaluations == 120

    # Fresnel integral: error spread over many panels, so the count depends
    # on how many of them each round bisects.
    r = integrate_proper(parse("sin(x^2)"), "x", 0.0, 30.0, 1e-10)
    exact = float(mpmath.sqrt(mpmath.pi / 2) * mpmath.fresnels(30.0 * mpmath.sqrt(2 / mpmath.pi)))
    assert r.converged and abs(r.value - exact) < 1e-10
    assert r.evaluations == 7350


def test_open_endpoint_singularities():
    # integral_0^1 ln(x) dx = -1; the rule must never touch x=0
    r = integrate_proper(parse("ln(x)"), "x", 0.0, 1.0, 1e-11)
    assert r.converged and abs(r.value - (-1.0)) < 1e-10
    assert r.evaluations == 1140

    # integral_0^1 x^(-1/2) dx = 2
    r = integrate_proper(parse("x^(-1/2)"), "x", 0.0, 1.0, 1e-10)
    assert r.converged and abs(r.value - 2.0) < 1e-9
    assert r.evaluations == 2040


def test_params_binding():
    # integral_0^1 (x + b) dx = 1/2 + b
    r = integrate_proper(parse("x + b"), "x", 0.0, 1.0, 1e-12, params={"b": 3.0})
    assert r.converged and abs(r.value - 3.5) < 1e-12


def test_budget_exhaustion_is_soft():
    r = integrate_proper(parse("x^(-1/2)"), "x", 0.0, 1.0, 1e-13, max_evals=300)
    assert not r.converged
    assert r.error_estimate > 0.0
    assert abs(r.value - 2.0) <= 10.0 * r.error_estimate
    assert r.evaluations == 300


def test_budget_is_never_overspent():
    # The first batch costs 120 evaluations and each bisection 30.
    f = parse("x^(-1/2)")
    for budget in (1, 119, 120, 121, 149, 150, 151, 299):
        r = integrate_proper(f, "x", 0.0, 1.0, 1e-13, max_evals=budget)
        assert not r.converged
        assert r.evaluations <= budget
    r = integrate_callable(np.cos, 0.0, 1.0, 1e-12, max_evals=119)
    assert r.evaluations == 0
    assert not r.converged and r.error_estimate == math.inf


def test_monotone_budget_on_regression_corpus():
    cases = [
        (parse("sin(x)"), 0.0, 2.0 * math.pi * 50.0),
        (parse("x^(-1/2)"), 0.0, 1.0),
        (parse("exp(-x)*sin(10*x)"), 0.0, 20.0),
    ]
    for f, lo, hi in cases:
        budgets = [600, 1200, 2400, 4800, 9600]
        errors = [
            integrate_proper(f, "x", lo, hi, 1e-14, max_evals=n).error_estimate
            for n in budgets
        ]
        for small, big in zip(errors, errors[1:]):
            assert big <= small


def test_float_resolution_panels_are_frozen():
    # Bisection closes in on the jump until the panel holding it is one ulp
    # wide; that panel is frozen and still counted in value and error.
    def step(x):
        return (x >= 1.0 / 3.0).astype(float)

    r = integrate_callable(step, 0.0, 0.34, 3e-17)
    assert r.converged
    assert abs(r.value - (0.34 - 1.0 / 3.0)) <= 3e-17
    assert r.evaluations == 1620


def test_tolerance_below_roundoff_stops_early():
    # 10 eps times the integral of |f| exceeds abs_tol: no refinement can
    # meet it, so the run stops after the first batch instead of spending
    # its budget.
    def step(x):
        return (x >= 1.0 / 3.0).astype(float)

    for fn, lo, hi, tol in ((step, 0.0, 0.34, 1e-17), (np.sin, 0.0, 1000.0, 1e-14)):
        r = integrate_callable(fn, lo, hi, tol, max_evals=1_000_000)
        assert not r.converged
        assert r.evaluations <= 120


def test_domain_fault_raised_with_location():
    with pytest.raises(DomainFault):
        integrate_proper(parse("ln(x)"), "x", -1.0, 1.0, 1e-10)


def test_determinism():
    f = parse("sin(1/x)/x")
    r1 = integrate_proper(f, "x", 0.01, 2.0, 1e-11)
    r2 = integrate_proper(f, "x", 0.01, 2.0, 1e-11)
    assert r1 == r2


def test_callable_interface():
    r = integrate_callable(np.cos, 0.0, math.pi / 2, 1e-12)
    assert r.converged and abs(r.value - 1.0) < 1e-12


def test_invalid_arguments():
    f = parse("x")
    for integrate in (lambda *args: integrate_proper(f, "x", *args),
                      lambda *args: integrate_callable(np.cos, *args)):
        with pytest.raises(ValueError):
            integrate(1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate(0.0, math.inf, 1e-10)
        with pytest.raises(ValueError):
            integrate(0.0, 1.0, 0.0)
