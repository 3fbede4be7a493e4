"""Quadrature engine tests: exactness, oscillation stress, budgets, faults."""

import math

import mpmath
import numpy as np
import pytest

from zvar import quad
from zvar.expr import DomainFault, compile_expr, parse
from zvar.quad import MIN_PANELS, PANEL_EVALS, _WG, _WK, _XK, integrate_segments

from one_segment import integrate_one

FIRST_BATCH = MIN_PANELS * _XK.size   # evaluations before the first decision
BISECTION = 2 * _XK.size                  # evaluations per bisected panel


def _fx(text):
    """The compiled integrand of an expression in x."""
    return compile_expr(parse(text), ("x",))


def test_rule_constants():
    # The Kronrod rule is exact to degree 91 and the Gauss rule to degree 59;
    # the Gauss nodes and weights are those of 30-point Gauss-Legendre.  A
    # 61-point rule that holds those 30 nodes and is exact to degree 91 is
    # their unique Kronrod extension, so these fix the whole table.
    assert np.all(np.diff(_XK) > 0.0)
    for weights, degree in ((_WK, 91), (_WG, 59)):
        for k in range(degree + 1):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert abs(weights @ _XK**k - exact) <= 4 * np.spacing(2.0)
    gauss = _WG != 0.0
    nodes, weights = np.polynomial.legendre.leggauss(30)
    np.testing.assert_allclose(_XK[gauss], nodes, rtol=0.0, atol=1e-15)
    # leggauss's end weights are 2.4e-15 off the 30-digit ones here.
    np.testing.assert_allclose(_WG[gauss], weights, rtol=0.0, atol=1e-14)
    # Two of QUADPACK dqk61's published values: the outer node, the centre weight.
    assert _XK[-1] == 0.999484410050490637571325895705811
    assert _WK[_XK.size // 2] == 0.051494729429451567558340433647099


def test_first_batch_is_no_coarser_than_eight_gk15_panels():
    # Aliasing insurance: on a unit span the first batch leaves no wider gap
    # between nodes, and no wider margin at either end, than eight panels of
    # the Gauss-Kronrod 7/15 rule did.
    def first_batch(nodes, panels):
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        return (mid[:, None] + half[:, None] * nodes).ravel()

    gk15_half = np.array([0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
                          0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
                          0.207784955007898468])
    gk15 = first_batch(np.concatenate([-gk15_half, [0.0], gk15_half[::-1]]), 8)
    x = first_batch(_XK, MIN_PANELS)
    assert np.diff(x).max() <= np.diff(gk15).max() <= 0.0129866
    assert max(x[0], 1.0 - x[-1]) <= 5.34e-4


def test_basic_values():
    r = integrate_one(_fx("x^2"), 0.0, 1.0, 1e-12)
    assert r.converged and abs(r.value - 1.0 / 3.0) < 1e-12

    r = integrate_one(_fx("sin(x)"), 0.0, math.pi, 1e-12)
    assert r.converged and abs(r.value - 2.0) < 1e-12

    r = integrate_one(_fx("exp(x)"), 0.0, 1.0, 1e-12)
    assert r.converged and abs(r.value - (math.e - 1.0)) < 1e-12


def test_polynomial_exactness_degree_10():
    rng = np.random.default_rng(42)
    for _ in range(20):
        coeffs = [float(c) for c in rng.uniform(-3.0, 3.0, size=11)]
        text = " + ".join(f"{c!r}*x^{k}" for k, c in enumerate(coeffs))
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        r = integrate_one(_fx(text), 0.0, 1.0, 1e-12)
        assert r.converged
        assert abs(r.value - exact) < 1e-12


def test_oscillation_stress():
    hi = 2.0 * math.pi * 1000.0
    r = integrate_one(_fx("sin(x)"), 0.0, hi, 1e-9, max_evals=10_000_000)
    assert r.converged
    assert abs(r.value) < 1e-8
    # Golden counts here and below pin the refinement rule (which panels
    # are split, and how, and when the loop stops): a change to it shows up
    # as a different count even when the value stays within tolerance.
    # sin is odd about the midpoint of each of the two starting panels, 500
    # periods wide, so both sums vanish and the first batch converges.
    assert r.evaluations == 122
    # One radian longer, panels of many periods stay unresolved and are cut
    # in four level after level, which costs more than bisecting alone
    # (15,494).
    r = integrate_one(_fx("sin(x)"), 0.0, hi + 1.0, 1e-9, max_evals=10_000_000)
    assert r.converged and abs(r.value - (1.0 - math.cos(1.0))) < 1e-8
    assert r.evaluations == 16470

    # Fresnel integral: error spread over many panels, so the count depends
    # on how many of them each round bisects.
    r = integrate_one(_fx("sin(x^2)"), 0.0, 30.0, 1e-10)
    exact = float(mpmath.sqrt(mpmath.pi / 2) * mpmath.fresnels(30.0 * mpmath.sqrt(2 / mpmath.pi)))
    assert r.converged and abs(r.value - exact) < 1e-10
    assert r.evaluations == 2196


def test_open_endpoint_singularities():
    # integral_0^1 ln(x) dx = -1; the rule must never touch x=0.  No split
    # resolves the panel at 0, so it is cut in four, which here costs one
    # bisection more than bisecting alone (4,026 and 8,174).
    r = integrate_one(_fx("ln(x)"), 0.0, 1.0, 1e-11)
    assert r.converged and abs(r.value - (-1.0)) < 1e-10
    assert r.evaluations == 4148

    # integral_0^1 x^(-1/2) dx = 2
    r = integrate_one(_fx("x^(-1/2)"), 0.0, 1.0, 1e-10)
    assert r.converged and abs(r.value - 2.0) < 1e-9
    assert r.evaluations == 8296


def test_params_binding():
    # integral_0^1 (x + b) dx = 1/2 + b
    # params bind every free variable but x, one value per segment
    r, = integrate_segments([(compile_expr(parse("x + b"), ("x", "b")), [0.0], [1.0], [3.0])],
                            1e-12)
    assert r.converged and abs(r.value - 3.5) < 1e-12


def test_budget_exhaustion_is_soft():
    r = integrate_one(_fx("x^(-1/2)"), 0.0, 1.0, 1e-13, max_evals=300)
    assert not r.converged
    assert r.error_estimate > 0.0
    assert abs(r.value - 2.0) <= 10.0 * r.error_estimate
    assert r.evaluations == 244   # the most whole bisections within 300


def test_budget_is_never_overspent():
    # A quadrature depends on max_evals only through the bisections it
    # affords, (max_evals - FIRST_BATCH) // BISECTION, so one budget per
    # count of bisections covers every budget up to convergence; a panel
    # cut in four costs two.
    chirp = compile_expr(parse("sin(1/x)/x^2"), ("x",))
    full = integrate_one(chirp, 2e-4, 1.0, 1e-10)
    for budget in range(FIRST_BATCH, full.evaluations + 1, BISECTION):
        r = integrate_one(chirp, 2e-4, 1.0, 1e-10, max_evals=budget)
        assert r.evaluations <= budget
        assert (r.evaluations - FIRST_BATCH) % BISECTION == 0
        assert r.converged == (budget == full.evaluations)
    f = _fx("x^(-1/2)")
    for budget in (1, FIRST_BATCH - 1, FIRST_BATCH, FIRST_BATCH + 1,
                   FIRST_BATCH + BISECTION - 1, FIRST_BATCH + BISECTION,
                   FIRST_BATCH + BISECTION + 1, FIRST_BATCH + 6 * BISECTION - 1):
        r = integrate_one(f, 0.0, 1.0, 1e-13, max_evals=budget)
        assert not r.converged
        assert r.evaluations <= budget
    r = integrate_one(np.cos, 0.0, 1.0, 1e-12, max_evals=FIRST_BATCH - 1)
    assert r.evaluations == 0
    assert not r.converged and r.error_estimate == math.inf


def test_monotone_budget_on_regression_corpus():
    cases = [
        (_fx("sin(x)"), 0.0, 2.0 * math.pi * 50.0),
        (_fx("x^(-1/2)"), 0.0, 1.0),
        (_fx("exp(-x)*sin(10*x)"), 0.0, 20.0),
    ]
    for f, lo, hi in cases:
        budgets = [600, 1200, 2400, 4800, 9600]
        errors = [
            integrate_one(f, lo, hi, 1e-14, max_evals=n).error_estimate
            for n in budgets
        ]
        for small, big in zip(errors, errors[1:]):
            assert big <= small


def test_float_resolution_panels_stop_their_segment():
    # Bisection closes in on the jump until the halves of the panel holding
    # it, a few thousand ulps wide, could not hold their 61 nodes strictly
    # inside.  The segment stops at that panel, too narrow to split: its
    # error, about 1e-14, is more than 3e-17 allows, so the run ends
    # unconverged, with an error estimate that covers the true error.  (Once
    # bisection went on to one-ulp panels whose nodes fell on their ends, and
    # converged at 3e-17 after 2,184 evaluations of the 21-point rule.)
    def step(x):
        return (x >= 1.0 / 3.0).astype(float)

    truth = 0.34 - 1.0 / 3.0
    r = integrate_one(step, 0.0, 0.34, 3e-17)
    assert not r.converged and r.evaluations == 4880
    assert abs(r.value - truth) <= r.error_estimate < 1.1e-14
    r = integrate_one(step, 0.0, 0.34, 2e-14)
    assert r.converged and r.evaluations == 4880
    assert abs(r.value - truth) <= 2e-14


def test_tolerance_below_roundoff_stops_early():
    # 10 eps times the integral of |f| exceeds abs_tol: no refinement can
    # meet it, so the run stops after the first batch instead of spending
    # its budget.
    def step(x):
        return (x >= 1.0 / 3.0).astype(float)

    for fn, lo, hi, tol in ((step, 0.0, 0.34, 1e-17), (np.sin, 0.0, 1000.0, 1e-14)):
        r = integrate_one(fn, lo, hi, tol, max_evals=1_000_000)
        assert not r.converged
        assert r.evaluations <= FIRST_BATCH


def test_domain_fault_raised_with_location():
    with pytest.raises(DomainFault):
        integrate_one(_fx("ln(x)"), -1.0, 1.0, 1e-10)
    # A divide by zero in the integrand raises no warning either: a node of
    # one of six one-ulp panels rounds below lo, where ln(x - 1) is -inf or nan.
    hi = 1.0 + 6 * np.spacing(1.0)
    with pytest.raises(DomainFault, match=r"value at 0\.9999999999999999$") as fault:
        integrate_one(lambda x: np.log(x - 1.0), 1.0, hi, 1e-10, start=6)
    assert fault.value.evaluations == 6 * PANEL_EVALS


def test_determinism():
    r1 = integrate_one(_fx("sin(1/x)/x"), 0.01, 2.0, 1e-11)
    r2 = integrate_one(_fx("sin(1/x)/x"), 0.01, 2.0, 1e-11)
    assert r1 == r2


def test_callable_interface():
    r = integrate_one(np.cos, 0.0, math.pi / 2, 1e-12)
    assert r.converged and abs(r.value - 1.0) < 1e-12
    assert integrate_one(np.cos, 0.0, math.pi / 2, 1e-12, max_evals=10**30) == r


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate_one(np.cos, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_one(np.cos, 0.0, math.inf, 1e-10)
    with pytest.raises(ValueError, match=r"\[1.0, 1e\+308\]"):  # 0.5 * (a + b) overflows
        integrate_one(np.cos, 1.0, 1e308, 1e-10)
    with pytest.raises(ValueError):
        integrate_one(np.cos, 0.0, 1.0, 0.0)


def test_non_integrable_integral_is_not_certified():
    # tan has a pole at pi/2.  Bisection closes in on it until the segment
    # picks a panel too narrow to split, and there the run stops unconverged
    # (QUADPACK's ier=3).
    r = integrate_one(_fx("tan(x)"), 1.0, 2.0, 1e-10)
    assert not r.converged
    assert r.evaluations == 5124


def test_rounding_noise_near_a_pole_is_not_bisected_wholesale():
    # Within about 1e-9 of tan's pole a panel's error is the rounding noise
    # of its abscissae, which bisection does not shrink.  The panel at the
    # pole holds most of the segment's error, so only panels of at least
    # 1/4096 of it are candidates: splitting the rest spends evaluations
    # that the failing segment never needed (taking every panel ends
    # unconverged too, after 144,936).  The largest call, 4 panels, is the
    # last.  No panel is split into children that cannot hold their 61 nodes
    # strictly inside, so every panel evaluated has 61 distinct abscissae.
    # Once panels went down to one ulp, and 7 of the 20 panels of the last
    # call of the 21-point rule had all their abscissae on one float.
    calls = []

    def tan(x):
        calls.append(x)
        return np.tan(x)

    r = integrate_one(tan, 1.0, 2.0, 1e-10)
    assert not r.converged and r.evaluations == 5124
    panels = [x.size // _XK.size for x in calls]
    assert max(panels) == panels[-1] == 4 and len(panels) == 22
    rows = np.concatenate(calls).reshape(-1, _XK.size)
    assert (np.diff(rows, axis=1) > 0).all()


def test_nodes_stay_inside_their_panel():
    # Toward a singular right end, bisection once reached panels a few ulps
    # wide whose Kronrod nodes rounded onto the end: (1-x)^-0.5 on [0, 1]
    # raised DomainFault at 1.0 after 2,814 evaluations.  A panel whose
    # halves cannot hold their nodes strictly inside is too narrow to
    # split, so no node reaches the end: the segment stops at the end panel,
    # unconverged, its estimate covering the true error.
    for text, lo, hi, evaluations in (("(1-x)^(-0.5)", 0.0, 1.0, 5124),
                                      ("(2-x)^(-0.5)", 1.0, 2.0, 5002)):
        calls = []
        fn = _fx(text)

        def recorded(x, fn=fn):
            calls.append(x)
            return fn(x)

        r = integrate_one(recorded, lo, hi, 1e-10)
        assert not r.converged and r.evaluations == evaluations
        assert abs(r.value - 2.0) <= r.error_estimate < 1e-6
        points = np.concatenate(calls)
        assert points.size == evaluations and lo < points.min() and points.max() < hi


def test_quarters_of_narrow_panels_hold_their_nodes():
    # A picked panel's quarters are tested for their nodes only when it is
    # narrower than quad._NARROW of its magnitude, a bound derived from the
    # outermost node.  2^-39, enough for 21 nodes, is too wide a bound for
    # 61: there 19 of these 200 integrands, singular at hi, put a quarter's
    # outer node on hi and raised DomainFault.
    for hi in np.linspace(1.0001, 1.4, 200):
        points = []

        def fn(x, hi=hi):
            points.append(x)
            return (hi - x) ** -0.5

        integrate_one(fn, 1.0, hi, 1e-10)
        x = np.concatenate(points)
        assert 1.0 < x.min() and x.max() < hi


def test_segment_stops_at_a_panel_too_narrow_to_split():
    # Toward the interior singularity at 0.3 bisection reaches a panel whose
    # halves cannot hold their nodes.  The segment stops there, with its
    # value and error, and spends nothing more on its other panels.
    truth = (0.3**0.3 + 0.7**0.3) / 0.3
    r = integrate_one(lambda x: np.abs(x - 0.3) ** -0.7, 0.0, 1.0, 1e-10)
    assert not r.converged and r.evaluations == 5490
    assert abs(r.value - truth) <= r.error_estimate


def _split_in_four(calls):
    """Whether some panel had its four quarters evaluated and its halves not.

    calls holds the abscissae of each integrand call, 61 per panel; the
    centre node of a panel is its midpoint.
    """
    rows = np.concatenate(calls).reshape(-1, _XK.size)
    mid = rows[:, _XK.size // 2]
    half = 0.5 * (rows[:, -1] - rows[:, 0]) / _XK[-1]

    def seen(m, h):
        return np.any(np.isclose(mid, m, rtol=1e-12, atol=0.0) & np.isclose(half, h, rtol=1e-6))

    return any(all(seen(m + k * h / 4, h / 4) for k in (-3, -1, 1, 3))
               and not seen(m - h / 2, h / 2) and not seen(m + h / 2, h / 2)
               for m, h in zip(mid, half))


def test_unresolved_panels_are_split_in_four():
    # sin(k/x)/x^2 has its error spread over many panels, which stay
    # unresolved for several bisections.  No panel holds most of the error,
    # so every panel is a candidate, and each round splits the fewest
    # largest-error panels after which what is left is within abs_tol.  Each
    # of them whose error is still more than 1/32 of its parent's is cut in
    # four without evaluating its halves.  The chirp takes 13 rounds, one
    # integrand call each.  Bisecting alone takes 21 rounds and 13,786
    # evaluations, and a cut that reads only panels of at least 1/32 of the
    # largest error splits the same panels in 15 rounds.  The deep window of
    # sin(1.7/u)/u^2 that a finite-form evaluation samples takes 4.
    for k, lo, hi, rounds, evaluations in ((1.0, 2e-4, 1.0, 13, 11468),
                                           (1.7, 0.01 / math.e, 0.01, 4, 732)):
        calls = []

        def chirp(x, k=k):
            calls.append(x)
            return np.sin(k / x) / x**2

        r = integrate_one(chirp, lo, hi, 1e-10)
        assert r.converged
        assert abs(r.value - (math.cos(k / hi) - math.cos(k / lo)) / k) <= 1e-10
        assert len(calls) == rounds
        assert r.evaluations == sum(x.size for x in calls) == evaluations
        assert _split_in_four(calls)
        # The two starting panels have no parent, so the first round only bisects.
        assert not _split_in_four(calls[:2])


def test_candidate_cut_changes_only_the_rounds(monkeypatch):
    # A segment that converges splits the same panels whatever the cut:
    # its value, error and evaluations do not depend on it, only the number
    # of rounds it takes to split them does.
    cases = [(lambda x: np.sin(1.0 / x) / x**2, 2e-4, 1.0, 1e-10),
             (lambda u: np.sin(1.7 / u) / u**2, 0.01 / math.e, 0.01, 1e-10),
             (_fx("sin(x^2)"), 0.0, 30.0, 1e-10),
             (_fx("x^(-1/2)"), 0.0, 1.0, 1e-10),
             (_fx("ln(x)"), 0.0, 1.0, 1e-11)]

    def run():
        calls = []
        results = [integrate_one(lambda x, fn=fn: calls.append(x) or fn(x), lo, hi, tol)
                   for fn, lo, hi, tol in cases]
        return results, len(calls)

    reference, rounds = run()
    assert all(r.converged for r in reference)
    for cut in (2, 1e300):
        monkeypatch.setattr(quad, "_CANDIDATE_CUT", cut)
        results, cut_rounds = run()
        assert results == reference and cut_rounds != rounds


def test_error_past_the_float_range_is_not_certified():
    # Panel values of opposite infinite sign: their sum is nan, with no warning.
    r = integrate_one(lambda x: np.where(x < 3.0, 1e308, -1e308), 0.0, 6.0, 1e-6)
    assert not r.converged and r.evaluations == FIRST_BATCH
    # On six one-ulp panels the error formula's ratio overflows: no warning,
    # and the roundoff floor of the huge values stops the run unconverged.
    hi = 1.0 + 6 * np.spacing(1.0)
    r = integrate_one(lambda x: 1e300 * np.sin(1e16 * x), 1.0, hi, 1e-30, start=6)
    assert not r.converged and r.evaluations == 6 * PANEL_EVALS
    # Here each panel is one subnormal wide: the sum of |f| over it
    # overflows and its half-width rounds to zero, so its value, error and
    # roundoff floor are nan, and a floor that is not a number stops the
    # segment.
    tiny = 5e-324
    r = integrate_one(lambda x: np.where(x / tiny % 2 < 1, 1.7e308, -1.7e308),
                      0.0, 6 * tiny, 1e-10, start=6)
    assert not r.converged and r.evaluations == 6 * PANEL_EVALS


def _outcome(result):
    """A result as a comparable value: a QuadResult, or a fault's text and evaluations."""
    if isinstance(result, DomainFault):
        return str(result), result.evaluations
    return result


def test_segments_match_one_at_a_time():
    # Every segment of a lockstep batch gets, bit for bit, the result it gets
    # alone: value, error, evaluations and converged, or the same DomainFault
    # after the same evaluations.  Lone results hold wherever a pool's budget
    # does not bind.  So each group has a pool of its own, with the budget
    # times its segments: the budget binds only segments alone in a group
    # (the chirp, the step, tan), which then have all of their pool's.
    def step(x):
        return (x >= 1.0 / 3.0).astype(float)

    def loud(x):
        # Its error stays 1e13 to 2e14 times that of the ripples: a running sum
        # of errors carried over from loud into a ripple loses the ripple's
        # bits, and moves the cut, which compares that sum with what the
        # ripple's tolerance still allows.
        return 1e3 * np.sin(1000.0 * x)

    ripples = [lambda x: 1e-11 * np.sin(50.0 * x), lambda x: 1e-10 * np.sin(20.0 * x)]

    def chirp(x):
        return np.sin(1.0 / x) / x**2

    heard = []

    def recorded_chirp(x):
        heard.append(x)
        return chirp(x)

    def damped(x, p):
        return 1e-7 * np.sin(p * x) * np.exp(-x)

    def kink(x, c):
        # Bisection closes in on the kink one panel per round; the smooth
        # panels' error is their roundoff floor, so the floor's bits show in
        # the result.
        return np.abs(x - c) * np.exp(x)

    rng = np.random.default_rng(7)
    plain = [
        (step, 0.0, 0.34),                              # 3e-17: too narrow to split
        (np.sin, 0.0, 1000.0),                          # 3e-17: below roundoff
        (chirp, 3e-4, 1.0),                             # 1e-10: budget spent
        (np.tan, 1.0, 2.0),                             # 1e-10: too narrow to split
        (compile_expr(parse("ln(x)"), ("x",)), -1.0, 1.0),   # non-finite
    ]
    plain += [(np.exp, lo, lo + w)
              for lo, w in zip(rng.uniform(-3, 0, 4), rng.uniform(0.01, 0.1, 4))]
    plain = [plain[i] for i in rng.permutation(len(plain))]
    # On [1, 1 + 6 ulp] all six starting panels are one ulp wide, too narrow
    # to split: the step converges on them, and the first sin segment stops
    # on their roundoff floor.  The second picks all six of its two-ulp
    # panels in its first cut, and stops there, as they are too narrow to
    # split.
    ulp = np.spacing(1.0)
    plain += [(lambda x: (x >= 1.0 + 3 * ulp).astype(float), 1.0, 1.0 + 6 * ulp),  # converges
              (lambda x: 1e20 * np.sin(1e16 * x), 1.0, 1.0 + 6 * ulp),            # roundoff
              (lambda x: 1e6 * np.sin(1e16 * x), 1.0, 1.0 + 12 * ulp)]            # all six picked
    lo_p = rng.uniform(0.0, 1.0, 12)
    hi_p = lo_p + rng.uniform(0.5, 3.0, 12)
    freqs = rng.uniform(1.0, 40.0, 12)
    kinks = rng.uniform(0.1, 0.9, 24)

    def alone(fn, lo, hi, tol, budget, start):
        try:
            return integrate_one(fn, lo, hi, tol, budget, start)
        except DomainFault as fault:
            return fault

    outcomes = set()
    # The third run's sin segment bisects more than _BATCH_PANELS / 2 panels
    # in one round, so its children take more than one integrand call.  Every
    # run starts the few-ulp segments from six panels.  The last starts the
    # others from 2, 12 and 96 panels in turn, and that sin segment from
    # 1,500, so its first round holds more panels than one application of
    # the rule takes.
    for tol, budget, wide, mixed in (
            (3e-17, 6000, [], False), (1e-10, 6000, [], False),
            (1e-10, 100_000, [20000.0], False), (1e-10, 100_000, [20000.0], True)):
        heard.clear()
        groups = [(recorded_chirp, [2e-4], [1.0], None),
                  (loud, [0.0], [30.0], None),
                  *[(fn, [0.0], [30.0], None) for fn in ripples],
                  (damped, lo_p, hi_p, freqs),
                  (np.cos, [], [], None),                     # no segments
                  (kink, np.zeros(kinks.size), np.ones(kinks.size), kinks),
                  *[(fn, [lo], [hi], None) for fn, lo, hi in plain],
                  (np.sin, [0.0] * len(wide), wide, None)]
        caps = [budget * max(len(lo), 1) for _, lo, _, _ in groups]
        count = sum(len(lo) for _, lo, _, _ in groups)
        few = slice(count - 3 - len(wide), count - len(wide))
        starts = [(MIN_PANELS, 12, 96)[i % 3] if mixed else MIN_PANELS for i in range(count)]
        starts[few] = [6, 6, 6]
        if mixed:
            starts[-1] = 1500
        batch = integrate_segments(groups, tol, caps, pools=range(len(groups)),
                                   start_panels=starts)
        # In the batch, this segment has panels cut in four unless its tolerance
        # is below roundoff.
        assert _split_in_four(heard) == (tol > 3e-17)
        if not mixed:   # starts below MIN_PANELS are MIN_PANELS-panel starts
            for other in ([0] * count, [i % (MIN_PANELS + 1) for i in range(count)]):
                other[few] = starts[few]
                again = integrate_segments(groups, tol, caps, pools=range(len(groups)),
                                           start_panels=other)
                assert list(map(_outcome, again)) == list(map(_outcome, batch))
        segments = [(chirp, 2e-4, 1.0), (loud, 0.0, 30.0)]
        segments += [(fn, 0.0, 30.0) for fn in ripples]
        segments += [(lambda x, p=p: damped(x, p), lo, hi) for lo, hi, p in zip(lo_p, hi_p, freqs)]
        segments += [(lambda x, c=c: kink(x, c), 0.0, 1.0) for c in kinks]
        segments += plain
        segments += [(np.sin, 0.0, hi) for hi in wide]
        expected = [alone(fn, lo, hi, tol, budget, start)
                    for (fn, lo, hi), start in zip(segments, starts, strict=True)]
        assert len(batch) == len(expected)
        for got, want, start in zip(batch, expected, starts):
            if isinstance(want, DomainFault):
                assert isinstance(got, DomainFault) and str(got) == str(want)
                assert got.evaluations == want.evaluations
                outcomes.add("fault")
            else:
                assert got == want
                # A segment ends with its start's panels only if it split none.
                assert got.panels >= start
                assert (got.panels == start) == (got.evaluations == PANEL_EVALS * start)
                outcomes.add((tol, got.converged, got.evaluations))
        narrow_step, narrow_sin, all_picked = batch[-3 - len(wide):][:3]
        assert narrow_step.converged and narrow_step.value == 6.661338147750939e-16
        assert not narrow_sin.converged and not all_picked.converged
        assert narrow_step.evaluations == narrow_sin.evaluations == all_picked.evaluations == 366
    assert "fault" in outcomes
    assert (3e-17, False, 4880) in outcomes     # the step: a panel too narrow to split
    assert (3e-17, False, 122) in outcomes      # below roundoff
    assert (1e-10, False, 5978) in outcomes     # budget spent: 48 bisections
    assert (1e-10, False, 5124) in outcomes     # tan: a panel too narrow to split


def test_segments_after_a_failure_in_read_order_stop_early():
    # Read in read_order, the results after the first failure (tan's) are
    # never read: x^-0.9 stops in the round of it, unconverged, and reports
    # the evaluations it spent.  The exp segment placed after tan had
    # already converged and keeps its result.
    spent = []

    def cusp(x):
        spent.append(x.size)
        return x**-0.9

    groups = [(np.exp, [0.0, 1.0], [1.0, 2.0], None),
              (np.tan, [1.0], [2.0], None),
              (cusp, [0.0], [1.0], None)]
    got = integrate_segments(groups, 1e-10, read_order=[0, 3, 1, 2])
    alone = [integrate_one(np.exp, 0.0, 1.0, 1e-10),
             integrate_one(np.exp, 1.0, 2.0, 1e-10),
             integrate_one(np.tan, 1.0, 2.0, 1e-10)]
    assert got[:3] == alone and not alone[2].converged
    cut = sum(spent)
    assert not got[3].converged and got[3].evaluations == cut == 5368
    spent.clear()
    full = integrate_segments(groups, 1e-10)[3]     # no read order: x^-0.9 runs on
    assert cut < sum(spent) == full.evaluations == 44164
    assert full.converged and full == integrate_one(cusp, 0.0, 1.0, 1e-10)


def test_pools_keep_their_own_read_order_cutoff():
    # ln(x) faults at read position 0 of pool 0, so the cusp read after it
    # stops in that round.  Pool 1 reads its own order: its cusp runs on,
    # and its segments get bit for bit what they get in a call of their own.
    cusp = _fx("x^(-1/2)")
    pool_1 = [(np.exp, [0.0, 1.0], [1.0, 2.0], None), (cusp, [0.0], [1.0], None)]
    alone = integrate_segments(pool_1, 1e-10, read_order=[0, 1, 2])
    got = integrate_segments([(_fx("ln(x)"), [-1.0], [1.0], None), (cusp, [0.0], [1.0], None),
                              *pool_1], 1e-10, read_order=[0, 1, 0, 1, 2], pools=[0, 0, 1, 1])
    assert isinstance(got[0], DomainFault)
    assert not got[1].converged and got[1].evaluations == FIRST_BATCH
    assert got[2:] == alone and alone[2].converged and alone[2].evaluations == 8296


def test_budget_caps_each_pool_as_a_whole():
    # A pool spending its budget takes nothing from another pool.
    chirp = compile_expr(parse("sin(1/x)/x^2"), ("x",))
    others = [(np.exp, [0.0], [1.0], None), (_fx("x^(-1/2)"), [0.0], [1.0], None)]
    got = integrate_segments([(chirp, [2e-4], [1.0], None), *others], 1e-10, [3000, 10**7],
                             pools=[0, 1, 1])
    assert got[0] == integrate_one(chirp, 2e-4, 1.0, 1e-10, 3000) and not got[0].converged
    assert got[1:] == integrate_segments(others, 1e-10)
    # Within a pool, a finished segment's unspent share goes to those still
    # running: beside exp, which converges in its first batch, the chirp
    # spends what it spends alone with the rest of the budget.
    got = integrate_segments([(np.exp, [0.0], [1.0], None), (chirp, [2e-4], [1.0], None)],
                             1e-10, FIRST_BATCH + 3000)
    assert got[1] == integrate_one(chirp, 2e-4, 1.0, 1e-10, 3000)
    # Two chirps in one pool take what they ask for in read order, the one
    # read first first, and together spend all that the pool holds.  The
    # budgets are sized so that the one read first spends more at each: with
    # 40 bisections past the first batches instead of 60, it spends no more
    # than the other in 52 of the 140 runs.
    for extra in range(BISECTION, 5 * BISECTION, 7):
        budget = 2 * FIRST_BATCH + 60 * BISECTION + extra
        for order in ([0, 1], [1, 0]):
            got = integrate_segments([(chirp, [2e-4, 3e-4], [1.0, 1.0], None)], 1e-10, budget,
                                     read_order=order)
            assert not any(r.converged for r in got)
            assert budget - BISECTION < sum(r.evaluations for r in got) <= budget
            assert got[order.index(0)].evaluations > got[order.index(1)].evaluations
