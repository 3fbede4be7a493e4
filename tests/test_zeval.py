"""Evaluator tests: bracket sequences, classification, acceleration, bridge."""

import math
import random
import time

import numpy as np
import pytest

from abel_oracle import ORACLE_TOL, abel_limit
from one_segment import integrate_one
from zvar.expr import DomainFault, parse
from zvar.quad import MIN_PANELS
from zvar.taper import make_matched_trig, make_smooth_taper
from zvar.zeval import (
    _chunk_end,
    _extrapolate,
    _geometric_stop,
    _graded_share,
    _pieces,
    _start_panels,
    _tail_fit,
    DELTA_SHRINK,
    MAX_EVALS,
    STABILITY_WINDOW,
    EvalConfig,
    FiniteIntegral,
    InfiniteIntegral,
    TooFewSamples,
    classify_sequence,
    eval_finite,
    eval_infinite,
)


@pytest.fixture(scope="module")
def smooth():
    return make_smooth_taper(1.0)


@pytest.fixture(scope="module")
def matched():
    return make_matched_trig(1.0, 1.0)


# ---------------------------------------------------------------------------
# classify_sequence
# ---------------------------------------------------------------------------

def test_classify_constant_converged():
    assert classify_sequence([1.0] * 5, 3, 1e-8) == "converged"


def test_classify_sine_samples_oscillatory():
    samples = [math.sin(k) for k in range(1, 21)]
    assert classify_sequence(samples, 5, 1e-3) == "oscillatory"


def test_classify_monotone_drifting():
    assert classify_sequence([float(k) for k in range(1, 11)], 3, 1e-6) == "drifting"
    assert classify_sequence([float(k) for k in range(1, 11)], 5, 1e-6) == "drifting"


def test_classify_accepts_parameter_pairs():
    pairs = [(0.1 * k, 2.0) for k in range(6)]
    assert classify_sequence(pairs, 3, 1e-9) == "converged"


def test_classify_too_few_samples():
    with pytest.raises(TooFewSamples):
        classify_sequence([1.0, 2.0], 3, 1e-6)


# ---------------------------------------------------------------------------
# infinite-limit evaluation
# ---------------------------------------------------------------------------

def test_inverse_square_spec_example(smooth):
    # window spacing 1, 30 samples; a large start makes the 1/b bracket
    # remainder negligible without acceleration
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth)
    r = eval_infinite(spec, EvalConfig(b_start=2e6, b_step=1.0, b_count=30))
    assert r.status == "converged"
    assert abs(r.value - 1.0) < 1e-6


def test_sine_matched_taper_converges(matched):
    spec = InfiniteIntegral(parse("sin(x)"), 0.0, matched)
    r = eval_infinite(spec, EvalConfig())
    assert r.status == "converged"
    assert abs(r.value - 1.0) < 1e-6
    for _, bracket in r.samples:
        assert abs(bracket - 1.0) < 1e-8
    assert abs(abel_limit(np.sin, 0.0) - r.value) < ORACLE_TOL


def test_sine_smooth_taper_oscillatory(smooth):
    spec = InfiniteIntegral(parse("sin(x)"), 0.0, smooth)
    r = eval_infinite(spec, EvalConfig())
    assert r.status == "oscillatory"
    values = [v for _, v in r.samples]
    assert max(values[-5:]) - min(values[-5:]) > 0.1


def test_matched_tone_constancy_invariant():
    for omega in (0.5, 1.0, 2.0):
        z = make_matched_trig(omega, 1.0)
        f = parse(f"sin({omega!r}*x)")
        for a in (0.0, 1.0):
            spec = InfiniteIntegral(f, a, z)
            r = eval_infinite(spec, EvalConfig())
            expected = math.cos(omega * a) / omega
            assert r.status == "converged"
            for _, bracket in r.samples:
                assert abs(bracket - expected) < 1e-8


def test_conventional_agreement_both_taper_kinds(smooth, matched):
    # absolutely convergent corpus cases must hit their closed forms to 1e-6
    # under BOTH shipped taper kinds: the value cannot depend on z
    log_cfg = EvalConfig(b_start=1e7, b_step=1e7, b_count=300, tol=1e-8,
                         quad_tol=1e-11, accelerate=True)
    infinite_cases = [
        (parse("x^-2"), 1.0, "x", 1.0, EvalConfig(b_start=2e6, b_step=1.0, b_count=30)),
        (parse("exp(-x)"), 0.0, "x", 1.0, EvalConfig(accelerate=True)),
        (parse("1/(y*ln(y)^2)"), math.e, "y", 1.0, log_cfg),
    ]
    for z in (smooth, matched):
        for integrand, a, variable, closed_form, cfg in infinite_cases:
            r = eval_infinite(InfiniteIntegral(integrand, a, z, variable=variable), cfg)
            assert r.status == "converged", (variable, z.kind)
            assert abs(r.value - closed_form) < 1e-6, (z.kind, r.value)
        spec = FiniteIntegral(parse("u^(-1/2)"), 1.0, z)
        r = eval_finite(spec, EvalConfig(accelerate=True))
        assert r.status == "converged"
        assert abs(r.value - 2.0) < 1e-6


def test_acceleration_never_downgrades_converged(matched):
    spec = InfiniteIntegral(parse("sin(x)"), 0.0, matched)
    plain = eval_infinite(spec, EvalConfig())
    accel = eval_infinite(spec, EvalConfig(accelerate=True))
    assert plain.status == accel.status == "converged"
    assert plain.value == accel.value
    assert not accel.accelerated


def test_log_decay_needs_model_acceleration(smooth):
    # bracket remainder ~ -1/ln(b): no window plateau certifies the limit,
    # so accelerate=True must engage the validated remainder fit
    spec = InfiniteIntegral(parse("1/(y*ln(y)^2)"), math.e, smooth, variable="y")
    cfg = EvalConfig(b_start=1e7, b_step=1e7, b_count=300, tol=1e-8,
                     quad_tol=1e-11, accelerate=True)
    r = eval_infinite(spec, cfg)
    assert r.status == "converged" and r.accelerated
    assert abs(r.value - 1.0) < 1e-6
    assert abs(r.value - 1.0) <= 4.0 * r.error_estimate

    plain = eval_infinite(spec, EvalConfig(b_start=1e7, b_step=1e7, b_count=300,
                                           tol=1e-8, quad_tol=1e-11))
    assert plain.status != "converged"


def test_extrapolate_fits_a_log_remainder_only_on_a_growing_parameter():
    # L + A/ln p + B/ln^2 p is the fit's own basis, so it recovers L exactly,
    # but only for p growing from above 1.5.
    def bracket(params):
        return [1.0 - 1.0 / math.log(p) + 0.5 / math.log(p) ** 2 for p in params]

    tol = 1e-8
    errors = [1e-12] * 40
    growing = [1e7 * (k + 1) for k in range(40)]
    limit, error = _extrapolate(growing, bracket(growing), errors, 5, tol)
    assert abs(limit - 1.0) <= tol and error <= tol
    shrinking = growing[::-1]
    assert _extrapolate(shrinking, bracket(shrinking), errors, 5, tol) is None
    for start in (1.5, 1.2):
        low = [start + 1e7 * k for k in range(40)]
        assert _extrapolate(low, bracket(low), errors, 5, tol) is None
    just_above = [1.5000001 + 1e7 * k for k in range(40)]
    assert _extrapolate(just_above, bracket(just_above), errors, 5, tol) is not None


def test_acceleration_cannot_fabricate_convergence(smooth):
    # a genuinely oscillatory bracket must stay oscillatory even with the
    # Aitken + model-fit pipeline switched on
    spec = InfiniteIntegral(parse("sin(x)"), 0.0, smooth)
    r = eval_infinite(spec, EvalConfig(accelerate=True))
    assert r.status == "oscillatory"
    assert not r.accelerated

    divergent = InfiniteIntegral(parse("1/x"), 1.0, smooth)
    r = eval_infinite(divergent, EvalConfig(accelerate=True))
    assert r.status != "converged"


def test_quad_failure_on_domain_fault(smooth):
    spec = InfiniteIntegral(parse("ln(x - 5)"), 1.0, smooth)
    r = eval_infinite(spec, EvalConfig())
    assert r.status == "quad_failure"
    assert math.isinf(r.error_estimate)


def test_integrands_compiled_once_per_evaluation(smooth, monkeypatch):
    # One compilation for the running segment and one for the window,
    # however many samples and quadrature calls the evaluation makes.
    import zvar.zeval as zeval

    calls = []
    original = zeval.compile_expr

    def counting(ast, args):
        calls.append(args)
        return original(ast, args)

    monkeypatch.setattr(zeval, "compile_expr", counting)
    cfg = EvalConfig(b_count=8, delta_count=8)
    inf_spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth)
    fin_spec = FiniteIntegral(parse("u^(-1/2)", variables=("u",)), 1.0, smooth)
    for run in (lambda: eval_infinite(inf_spec, cfg),
                lambda: eval_finite(fin_spec, cfg, mode="direct"),
                lambda: eval_finite(fin_spec, cfg, mode="bridge")):
        calls.clear()
        result = run()
        assert len(result.samples) == 8
        assert len(calls) == 2


def _record_quadrature(monkeypatch):
    """Record the groups of every integrate_segments call zeval makes."""
    import zvar.zeval as zeval

    calls = []
    original = zeval.integrate_segments

    def recording(groups, *args, **kwargs):
        calls.append([(fn, list(lo), list(hi), params) for fn, lo, hi, params in groups])
        return original(groups, *args, **kwargs)

    monkeypatch.setattr(zeval, "integrate_segments", recording)
    return calls


def _one_at_a_time(f, window_f, start, grid, span, cfg):
    """The bracket loop without chunks: one quadrature call per integral."""
    values, evals, running, prev = [], 0, 0.0, start
    m = STABILITY_WINDOW
    for p in grid:
        try:
            if p != prev:
                inc = integrate_one(f, min(prev, p), max(prev, p), cfg.quad_tol, MAX_EVALS)
                evals += inc.evaluations
                if not inc.converged:
                    break
                running += inc.value
                prev = p
            lo, hi = span(p)
            window = integrate_one(lambda t: window_f(t, p), lo, hi, cfg.quad_tol, MAX_EVALS)
        except DomainFault:
            break
        evals += window.evaluations
        if not window.converged:
            break
        values.append(running + window.value)
        if len(values) >= m and max(values[-m:]) - min(values[-m:]) <= cfg.tol:
            break
    return values, evals


@pytest.mark.parametrize("form", ["infinite", "finite"])
def test_converging_evaluation_integrates_no_point_past_its_last_sample(smooth, monkeypatch,
                                                                        form):
    calls = _record_quadrature(monkeypatch)
    cfg = EvalConfig()
    if form == "infinite":
        r = eval_infinite(InfiniteIntegral(parse("exp(-x)"), 0.0, smooth), cfg)
        start, grid = 0.0, [1.0 + k * cfg.b_step for k in range(cfg.b_count)]
        span = lambda b: (b, b + smooth.width)  # noqa: E731
    else:
        r = eval_finite(FiniteIntegral(parse("u", variables=("u",)), 1.0, smooth), cfg)
        start, grid = 1.0, [DELTA_SHRINK ** k for k in range(cfg.delta_count)]
        span = lambda d: (math.exp(-smooth.width) * d, d)  # noqa: E731
    assert r.status == "converged"
    points = [p for call in calls for p in call[1][3]]
    # Every integrated point is a sample: none past the stopping one.
    assert points == [p for p, _ in r.samples]
    assert max(len(call[1][3]) for call in calls[1:]) > 1   # later chunks hold several points
    # Bit for bit what integrating one integral at a time gives.
    f, window_f = calls[0][0][0], calls[0][1][0]
    values, evals = _one_at_a_time(f, window_f, start, grid, span, cfg)
    assert [v for _, v in r.samples] == values
    assert r.evaluations == evals


def test_domain_fault_inside_a_chunk_keeps_the_samples_before_it(smooth, monkeypatch,
                                                                 evaluated_points):
    # ln(3.3 - x) faults past x = 3.3: the window of the third point, [2.4, 3.4],
    # is the first integral to reach there, inside the first five-point chunk.
    # The evaluations count every quadrature of the chunk, the faulted one and
    # those after it included: they are the points evaluated.
    calls = _record_quadrature(monkeypatch)
    cfg = EvalConfig()
    r = eval_infinite(InfiniteIntegral(parse("ln(3.3 - x)"), 0.0, smooth), cfg)
    assert r.status == "quad_failure"
    assert r.evaluations == sum(evaluated_points)
    assert [p for p, _ in r.samples] == [1.0, 1.7]
    assert len(calls) == 1 and len(calls[0][1][3]) == 5
    f, window_f = calls[0][0][0], calls[0][1][0]
    grid = [1.0 + k * cfg.b_step for k in range(cfg.b_count)]
    values, evals = _one_at_a_time(f, window_f, 0.0, grid, lambda b: (b, b + smooth.width), cfg)
    assert [v for _, v in r.samples] == values
    assert r.evaluations > evals   # more than the quadratures read


def test_chunk_results_are_read_in_grid_order(smooth, monkeypatch):
    # zeval reads each point's running segment, then its window, and stops at
    # the first failure; integrate_segments is given that order, so the
    # quadratures it would never read stop early.
    import zvar.zeval as zeval

    orders = []
    original = zeval.integrate_segments

    def recording(groups, *args, read_order=None, **kwargs):
        (_, _, run_hi, _), (_, _, _, points) = groups
        labels = [("run", p) for p in run_hi] + [("window", p) for p in points]
        orders.append(([label for _, label in sorted(zip(read_order, labels))], points))
        return original(groups, *args, read_order=read_order, **kwargs)

    monkeypatch.setattr(zeval, "integrate_segments", recording)
    eval_infinite(InfiniteIntegral(parse("exp(-x)"), 0.0, smooth), EvalConfig())
    assert len(orders) > 1
    for order, points in orders:
        assert order == [(kind, p) for p in points for kind in ("run", "window")]


def _power_tail(n, q, m=STABILITY_WINDOW):
    """n falling samples whose window of m ending at count k spreads k^-q, for k = n, n - m + 1, ..."""
    counts = np.arange(n, 0, -(m - 1))[::-1].astype(float)
    drops = np.concatenate([np.cumsum((counts[1:] ** -q)[::-1])[::-1], [0.0]])
    return np.interp(np.arange(1, n + 1), counts, drops).tolist()


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_tail_fit_predicts_where_a_power_law_tail_stops(q):
    # A window spreads k^-q <= tol from count tol^(-1/q) on: 10^12, 10^6, 10^3.
    m, tol = STABILITY_WINDOW, 1e-6
    for n in (2 * m + 1, 40, 201):
        fitted, stop = _tail_fit(_power_tail(n, q), m, tol)
        assert fitted == pytest.approx(q, rel=1e-9)
        assert abs(stop - tol ** (-1.0 / q)) <= 1
    assert _tail_fit(_power_tail(2 * m, q), m, tol) is None   # too few samples to fit


@pytest.mark.parametrize("values", [
    [1.0] * 20,                                      # flat: no spread
    [0.5 * k for k in range(20)],                    # a steady creep
    [k * k for k in range(20)],                      # growing
    [(-1.0) ** k for k in range(20)],                # oscillating
    [k % 4 for k in range(20)],                      # a sawtooth with a period under m
], ids=["flat", "creep", "growing", "oscillating", "sawtooth"])
def test_tail_fit_needs_a_decaying_tail(values):
    assert _tail_fit(values, STABILITY_WINDOW, 1e-6) is None
    assert all(_geometric_stop(values[:n], STABILITY_WINDOW, 1e-6) is None
               for n in range(len(values) + 1))


def test_tail_fit_stays_finite_far_out():
    # spread/tol is 1e300, and the spreads fall by one ulp between windows:
    # q is about 1e-16, and the stop is held at n e^40.
    m, n = STABILITY_WINDOW, 11
    s1 = 1e290
    s0 = math.nextafter(s1, math.inf)
    values = [0.0, 0.0, s0, 0.0, 0.0, 0.0, 0.0, s1, s1, s1, s1]   # windows [2, 6] and [6, 10]
    fitted, stop = _tail_fit(values, m, 1e-10)
    assert 0.0 < fitted < 1e-14
    assert stop == math.ceil(n * math.exp(40.0))
    assert _chunk_end(values, 10**30, m, 1e-10) == 2 * n


def test_chunk_end_takes_at_most_as_many_new_points_as_it_has():
    # A 1/ln k creep, the slowest tail the corpus samples: a fitted chunk runs
    # past the first point that could stop, but never past 2n or the count,
    # except that it runs on to the count when 2n leaves fewer than m points
    # and the stop predicted, a lower bound, is at or past the count: from
    # n = 148 on, where 2n is 296, it reaches 300.
    m, tol = STABILITY_WINDOW, 1e-6
    creep = [1.0 / math.log(k + 2.0) for k in range(300)]
    grown = 0
    for n in range(2 * m + 1, 300):
        for size in (n + 1, n + 7, 300, 10**12):
            end = _chunk_end(creep[:n], size, m, tol)
            assert n < end <= min(2 * n, size) or (
                end == size < 2 * n + m and _geometric_stop(creep[:n], m, tol) >= size)
            grown += end > n + 1
    assert grown
    assert _chunk_end(creep[:147], 300, m, tol) == 294
    assert _chunk_end(creep[:148], 300, m, tol) == 300


def test_chunk_end_fits_no_tail_that_turns():
    # (-1)^k / (k + 1) spreads its windows like a power law, but its
    # differences change sign: the chunk ends at the first point that could
    # stop, not halfway to a fitted stop.
    m, tol = STABILITY_WINDOW, 1e-6
    turning = [(-1.0) ** k / (k + 1.0) for k in range(40)]
    assert _tail_fit(turning, m, tol) is not None
    assert _geometric_stop(turning, m, tol) is None
    assert _chunk_end(turning, 10**12, m, tol) == len(turning) + m - 1


def _true_stop(diff, m=STABILITY_WINDOW, tol=1e-6):
    """First count k whose window of m samples spreads within tol, for a
    monotone sequence whose difference ending at count j is diff(j)."""
    def spread(k):
        return math.fsum(abs(diff(j)) for j in range(k - m + 2, k + 1))
    lo, hi = m, 10**12   # spread(hi) <= tol < spread(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if spread(mid) <= tol else (mid, hi)
    return hi


@pytest.mark.parametrize("r", [0.1, 0.42, 0.9, 0.99])
def test_geometric_stop_predicts_where_a_geometric_tail_stops(r):
    m, tol = STABILITY_WINDOW, 1e-6
    stop = _true_stop(lambda j: r ** (j - 2) * (1.0 - r))   # the differences of r^k
    values = [r ** k for k in range(stop)]
    for n in range(5, stop):
        assert abs(_geometric_stop(values[:n], m, tol) - stop) <= 1


@pytest.mark.parametrize("diff", [
    *(lambda j, p=p: j ** -p for p in (1.01, 1.5, 2.0, 3.0)),
    lambda j: 1.0 / math.log(j + 2.0) - 1.0 / math.log(j + 1.0),   # a 1/ln k creep
], ids=["p1.01", "p1.5", "p2", "p3", "creep"])
def test_geometric_stop_is_no_later_than_the_stop_of_a_slower_tail(diff):
    # Ratios of differences that do not fall keep every later difference at
    # least as large as the geometric prediction's.
    m, tol = STABILITY_WINDOW, 1e-6
    stop = _true_stop(diff)
    values = np.cumsum([diff(j) for j in range(1, 301)]).tolist()
    predicted = [_geometric_stop(values[:n], m, tol) for n in range(5, 301)]
    assert all(k is None or k <= stop for k in predicted)
    assert any(k is not None for k in predicted)


def test_geometric_stop_needs_ratios_that_agree():
    # Decay that speeds up: the ratios of 2^-k (k + 3)'s differences,
    # (k + 3) / (2k + 4), fall toward 1/2 by ever smaller steps.  Their line
    # predicts a stop no later than the true one, 30, from six samples on.
    accelerating = [2.0 ** -k * (k + 3) for k in range(41)]
    stop = _true_stop(lambda j: 2.0 ** -(j - 1) * (j + 1) - 2.0 ** -(j - 2) * j)
    assert stop == 30
    predicted = [_geometric_stop(accelerating[:n], STABILITY_WINDOW, 1e-6) for n in range(stop)]
    assert predicted == [None] * 6 + [23, 25, 27, 28, 28, 29, 29] + [30] * 17
    # The first 20 evaluations of the benchmark's deep_oscillatory workload
    # with seed 1, sin(k/u)/u^2 in both modes: their ratios do not agree and
    # do not fall on a line, so none gets a prediction.
    rng = random.Random(1)
    ks, betas = ([round(lo + (i + rng.random()) * (hi - lo) / 160, 4) for i in range(160)]
                 for lo, hi in ((0.5, 3.0), (0.5, 2.0)))
    rng.shuffle(betas)
    taper = make_smooth_taper(1.0)
    deep = [[v for _, v in eval_finite(spec, EvalConfig(), mode).samples]
            for k, beta in zip(ks[:10], betas)
            for spec in [FiniteIntegral(parse(f"sin({k}/u)/u^2", variables=("u",)), beta, taper)]
            for mode in ("direct", "bridge")]
    for values in deep:
        assert all(_geometric_stop(values[:n], STABILITY_WINDOW, 1e-6) is None
                   for n in range(len(values) + 1))


@pytest.mark.parametrize("values, tol", [
    ([1e300, 1e200, 1e100, 1.0, 1e-100], 1e-6),   # ratios 1e-100: r^-(m-1) overflows
    (np.cumsum([1e290 * (1.0 - 2.0 ** -40) ** k for k in range(8)]).tolist(), 1e-6),
    ([1e300 * 0.9 ** k for k in range(8)], 1e-6),
    ([1e300 * 0.9 ** k for k in range(8)], 5e-324),
], ids=["tiny-ratio", "ratio-near-one", "huge-spread", "huge-spread-tiny-tol"])
def test_geometric_stop_stays_finite_far_out(values, tol):
    m, n = STABILITY_WINDOW, len(values)
    stop = _geometric_stop(values, m, tol)
    assert isinstance(stop, int) and stop > n
    assert n < _chunk_end(values, 10**30, m, tol) <= n + max(n, 32)


@pytest.mark.parametrize("form", ["infinite", "finite"])
def test_geometric_tail_runs_its_chunk_to_its_stop(smooth, monkeypatch, form):
    # exp(-x) on the b grid and u^-0.5 on the halving d grid have geometric
    # tails: the second chunk runs to the predicted stop, two engine calls in
    # all where the power fit alone makes five, with the same result.
    import zvar.zeval as zeval

    def run():
        if form == "infinite":
            return eval_infinite(InfiniteIntegral(parse("exp(-x)"), 0.0, smooth), EvalConfig())
        spec = FiniteIntegral(parse("u^-0.5", variables=("u",)), 1.0, smooth)
        return eval_finite(spec, EvalConfig(), mode="direct")

    calls = _record_quadrature(monkeypatch)
    predicted = run()
    assert len(calls) == 2
    calls.clear()
    monkeypatch.setattr(zeval, "_geometric_stop", lambda values, m, tol: None)
    assert repr(run()) == repr(predicted)
    assert len(calls) == 5


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7, 0.9, 0.95])
def test_falling_ratios_predict_no_later_than_the_true_stop(r):
    # The partial sums of (k + b + 1)^p r^k: the ratios of their differences,
    # r (1 + 1/(k + b + 1))^p, fall toward r by ever smaller steps.  At every
    # count n their prediction is no later than the true stop, wherever the
    # last three ratios fall by at least twice their rounding, 4 eps max|v| /
    # min|d|; where rounding dominates, the steady band reads them and may be
    # one count late.  A chunk passes the stop only where the power fit's
    # halfway rule takes it.  The 0.1% band alone read (k + 4)^3 0.95^k at
    # n = 354 as steady and ran its chunk to 700, 19 points past its stop, 681.
    m, tol, eps = STABILITY_WINDOW, 1e-6, np.finfo(float).eps
    for b in (0, 3, 10, 30):
        for p in (1, 2, 3):
            def term(k):
                return (k + b + 1.0) ** p * r ** k

            stop = _true_stop(lambda j: term(j - 1))
            values = np.cumsum([term(k) for k in range(stop)]).tolist()
            read = 0
            for n in range(6, stop):
                head = values[:n]   # its last four differences are term(n - 4 .. n - 1)
                fall = term(n - 3) / term(n - 4) - term(n - 1) / term(n - 2)
                rounding = 4.0 * eps * head[-1] / min(term(k) for k in range(n - 4, n))
                late = fall < 2.0 * rounding   # rounding dominates: one count late at most
                predicted = _geometric_stop(head, m, tol)
                assert predicted is None or predicted <= stop + late, (b, p, n)
                fit = _tail_fit(head, m, tol)
                halfway = 0 if fit is None else min((n + fit[1]) // 2, 2 * n)
                assert _chunk_end(head, 10**12, m, tol) <= max(stop + late, halfway), (b, p, n)
                read += predicted is not None and not late
            assert read, (b, p)


def test_falling_ratios_near_one_end_their_walk_at_the_cap():
    # Ratios from 1 - 1e-6 that fall by about 1e-9 a step reach 0 on their
    # line only after some 10^9 steps, and the stop lies far past any chunk:
    # the walk ends m - 1 points past the cap n + max(n, 32), at once.
    m, tol = STABILITY_WINDOW, 1e-6
    diffs = [1.0]
    for i in range(4):
        diffs.append(diffs[-1] * (1.0 - 1e-6 - 1e-9 * i + 1e-11 * i * i))
    values = np.cumsum([0.0, *diffs]).tolist()
    n = len(values)
    start = time.perf_counter()
    assert _geometric_stop(values, m, tol) == n + max(n, 32) + m - 1
    assert _chunk_end(values, 10**30, m, tol) == n + max(n, 32)
    assert time.perf_counter() - start < 0.01


def test_a_chunk_runs_to_the_count_when_its_cap_leaves_fewer_than_m_points(smooth, monkeypatch):
    # u^-0.4588 in bridge mode is geometric with a stop past its 40 samples.
    # Its second chunk's cap, 5 + 32 points, would leave 3: the chunk takes
    # them, two engine calls in all where the cap makes three, with the same
    # result, evaluations included.
    import zvar.zeval as zeval

    def run():
        spec = FiniteIntegral(parse("u^-0.4588", variables=("u",)), 1.1215, smooth)
        return eval_finite(spec, EvalConfig(accelerate=True), mode="bridge")

    calls = _record_quadrature(monkeypatch)
    result = run()
    assert len(calls) == 2 and len(result.samples) == 40
    calls.clear()
    chunk_end = zeval._chunk_end
    monkeypatch.setattr(zeval, "_chunk_end", lambda values, size, m, tol: min(
        chunk_end(values, size, m, tol), len(values) + max(len(values), 32)))
    assert repr(run()) == repr(result)
    assert len(calls) == 3


def test_start_panels_extrapolate_only_a_rising_need():
    # Rising needs grow the starts by their last ratio, held at 2, and the
    # start at 16 times the last need, however long the chunk.
    assert _start_panels([10, 20, 30], 4) == [45, 67, 101, 151]
    assert _start_panels([10, 40, 160], 3) == [320, 640, 1280]
    assert _start_panels([10, 40, 160], 2000)[-1] == 2560
    # Otherwise half the last need, and never fewer than MIN_PANELS, two.
    assert _start_panels([10, 40, 40], 2) == [20, 20]
    assert _start_panels([40, 20, 30], 1) == [15]
    assert _start_panels([], 2) == _start_panels([3], 2) == [MIN_PANELS] * 2 == [2, 2]


def test_graded_share_follows_a_geometric_frequency():
    # Panels graded to a frequency that grows by 1/h across a span take
    # (1 - h)/ln(1/h) of the equal ones, h = min(g, 1/g); equal panels take all.
    assert _graded_share(1.0) == 1.0
    assert _graded_share(0.5) == _graded_share(2.0) == pytest.approx(0.5 / math.log(2.0))
    assert _graded_share(8.0) == pytest.approx(0.875 / math.log(8.0))
    # A grade past e^600 either way, as widths past the float range can
    # give, is held there, as a starting grade is: no share is 0.
    assert (_graded_share(0.0) == _graded_share(math.inf) == _graded_share(1e300)
            == pytest.approx(1.0 / 600.0))


@pytest.mark.parametrize("q, p, start, most", [
    (1.0, 1e7, 1.0, 7),
    (-1e300, 1e300, -1e300, 256),
    (0.0, 1.7e308, 0.0, 257),
    (1e300, 8.9e307, 1e300, 256),
    (1.0, 1e5, 0.0, 5),
    (1e15, 1e15 + 1e5, 1e15, 2),
])
def test_ladder_is_bounded_and_covers_its_segment(q, p, start, most):
    # The rungs are start + 16^j; none overflows, even at the top of the float
    # range, none lies a few ulps from start, and no piece is more than 32
    # times as wide as max(1, its distance from start) past 2^-40 |start|.
    # A segment far from zero is still cut: [a, a + 1e5] at a = 1e15 is
    # [a, a + 4096] and the rest.
    pieces = _pieces(q, p, start)
    assert 2 <= len(pieces) <= most
    edges = [lo for lo, _ in pieces] + [pieces[-1][1]]
    assert edges[0] == q and edges[-1] == p
    assert all(lo < hi for lo, hi in pieces)
    assert all(hi == lo for (_, hi), (lo, _) in zip(pieces, pieces[1:]))
    floor = math.ldexp(abs(start), -40)
    for lo, hi in pieces:
        assert hi - lo <= 32 * max(1.0, lo - start, 16 * floor)


@pytest.mark.parametrize("grid", [{"b_step": 1e5}, {"b_start": 1e15 + 1e5}])
def test_far_lower_limit_is_not_certified_wrong(grid):
    # exp(-(x - a)) from a = 1e15 integrates to 1, but its mass lies within a
    # few hundred ulps of a.  Cut no finer than some thousands of ulps, the
    # first piece's nodes may still miss it; the evaluation may then fail,
    # but must not certify a value off by more than its estimate.  With the
    # cuts kept 2^-36 |a| from a, [a, a + 1e5] was one piece and the far
    # start certified 2e-14.
    a = 1e15
    spec = InfiniteIntegral(parse(f"exp(-(x - {a!r}))"), a, make_smooth_taper(1.0))
    result = eval_infinite(spec, EvalConfig(**grid))
    assert result.status != "converged" or abs(result.value - 1.0) <= result.error_estimate


def test_graded_span_across_the_float_range_stays_within_budget():
    # [-1e300, 1e300] is cut into a few pieces, each from two panels: the
    # constant's integral, 2, takes a few thousand evaluations.
    spec = InfiniteIntegral(parse("1e-300"), -1e300, make_smooth_taper(1e290))
    result = eval_infinite(spec, EvalConfig(b_start=1e300, b_step=1e285))
    assert result.status == "converged"
    assert abs(result.value - 2.0) <= 1e-9
    assert result.evaluations <= 10_000 < MAX_EVALS


def test_domain_fault_in_a_graded_piece(monkeypatch):
    # ln(|x - 300| - 10) is not finite on (290, 310), which only the piece
    # [256, 4096] of [0, 1e4] holds.  The segment fails as that piece fails,
    # with its fault, and the evaluation counts the evaluations of every piece.
    import zvar.zeval as zeval

    returned = []
    original = zeval.integrate_segments

    def recording(*args, **kwargs):
        results = original(*args, **kwargs)
        returned.extend(results)
        return results

    monkeypatch.setattr(zeval, "integrate_segments", recording)
    spec = InfiniteIntegral(parse("ln(abs(x - 300) - 10)"), 0.0, make_smooth_taper(1.0))
    result = eval_infinite(spec, EvalConfig(b_start=1e4))
    assert result.status == "quad_failure" and result.samples == ()
    faults = [r for r in returned if isinstance(r, DomainFault)]
    assert len(faults) == 1
    where = float(str(faults[0]).rsplit(" ", 1)[1])
    assert 290.0 <= where <= 310.0
    pieces = _pieces(0.0, 1e4, 0.0)
    assert pieces[3] == (256.0, 4096.0)
    assert zeval._increment(returned[:len(pieces)]) is faults[0]
    assert result.evaluations == sum(r.evaluations for r in returned)


@pytest.mark.parametrize("integrand, a, c, grid, want", [
    ("exp(-x)", 0.0, 1.0, {"b_start": 0.0, "b_step": 1e5},
     (1.0, 2.220448015513001e-15, 1830, 6)),
    ("x^-2", 1.0, 10.0, {"b_start": 1.0, "b_step": 1e6, "b_count": 6},
     (0.9999998000002398, 7.999942421843538e-07, 1952, 6)),
])
def test_a_chunk_mixes_a_point_at_start_with_a_graded_segment(integrand, a, c, grid, want):
    # The first point lies at the lower limit and adds no running segment;
    # the second's segment is graded.  The results are pinned bit for bit.
    spec = InfiniteIntegral(parse(integrand), a, make_smooth_taper(c))
    r = eval_infinite(spec, EvalConfig(**grid))
    assert r.status == "converged"
    assert (r.value, r.error_estimate, r.evaluations, len(r.samples)) == want


def test_graded_pieces_lie_in_the_first_chunk_which_starts_from_min_panels(monkeypatch):
    # Only the first two running segments can be graded, and both lie in the
    # first chunk, which holds at least m points and knows no need yet: so
    # every graded piece starts from MIN_PANELS, as every segment of that call
    # does, and the three needs the next chunk reads are those of ungraded
    # segments.  Over the bracket oracle's far-start and wide-step grids.
    import zvar.zeval as zeval
    from test_bracket_oracle import C, FAMILIES, GRIDS

    graded, calls = [], []
    ladder, engine = zeval._pieces, zeval.integrate_segments

    def pieces(*args):
        out = ladder(*args)
        graded.extend(out)
        return out

    def recording(groups, *args, start_panels, **kwargs):
        calls.append((len(graded), list(zip(groups[0][1], groups[0][2])), start_panels))
        return engine(groups, *args, start_panels=start_panels, **kwargs)

    monkeypatch.setattr(zeval, "_pieces", pieces)
    monkeypatch.setattr(zeval, "integrate_segments", recording)
    seen = 0
    for family in sorted(FAMILIES):
        for grid in ("far-start", "wide-step"):
            for half in (0, 1):
                rng = random.Random(f"{family}-{grid}-{half}")
                integrand, a, _, _ = FAMILIES[family](rng)
                cfg = EvalConfig(**GRIDS[grid](rng, a, half))
                graded.clear()
                calls.clear()
                eval_infinite(InfiniteIntegral(parse(integrand), a, make_smooth_taper(C)), cfg)
                made, first, starts = calls[0]
                assert {n for n, _, _ in calls} == {made}, (family, grid, half)
                assert set(graded) <= set(first), (family, grid, half)
                assert set(starts) == {MIN_PANELS}, (family, grid, half)
                assert not set(first[-3:]) & set(graded), (family, grid, half)
                seen += len(graded)
    assert seen > 0


def _warm_start_sweep(seed):
    """(spec, mode) draws of the families whose bracket segments start warm, or must not."""
    rng = random.Random(seed)
    z = make_smooth_taper(1.0)
    cases = []
    for _ in range(3):
        k, beta, p = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), rng.uniform(1.5, 2.5)
        chirp = FiniteIntegral(parse(f"sin({k!r}/u)/u^{p!r}", variables=("u",)), beta, z)
        cases += [(chirp, "direct"), (chirp, "bridge")]
        a = rng.uniform(0.0, 2.0)
        cases.append((InfiniteIntegral(parse("sin(x^2)"), a, z), None))
        # Localized bumps: one segment needs many panels, its successors few,
        # so no trend may be extrapolated from it.
        cases.append((InfiniteIntegral(parse("exp(-x) + exp(-((x-12)*20)^2)"), a, z), None))
        cases.append((InfiniteIntegral(parse("1/(1+x^2) + 1/(1+((x-9.3)*300)^2)"), a, z), None))
    return cases


def test_warm_starts_move_values_only_within_their_error(monkeypatch):
    # Against segments that all start from MIN_PANELS, as the engine alone
    # does: the same statuses and sample counts, values within the two runs'
    # summed error estimates, and at most 10% more evaluations per result
    # that does not fail.  sin(k/u)/u^p with p near 2.5 ends quad_failure
    # when a segment's roundoff floor passes quad_tol, right after its first
    # batch: a warm start pays that batch, and the unread segments after it
    # pay theirs, so such a result spends up to 4.5 times as much.
    import zvar.zeval as zeval

    def run(spec, mode):
        if mode is None:
            return eval_infinite(spec, EvalConfig())
        return eval_finite(spec, EvalConfig(), mode)

    cases = _warm_start_sweep(seed=3)
    warm = [run(spec, mode) for spec, mode in cases]
    monkeypatch.setattr(zeval, "_start_panels", lambda needs, count: [MIN_PANELS] * count)
    spent = 0
    for (spec, mode), got in zip(cases, warm, strict=True):
        cold = run(spec, mode)
        assert (got.status, len(got.samples)) == (cold.status, len(cold.samples)), spec
        assert abs(got.value - cold.value) <= got.error_estimate + cold.error_estimate, spec
        if got.status != "quad_failure":
            assert got.evaluations <= 1.10 * cold.evaluations, spec
            spent += cold.evaluations - got.evaluations
    assert spent > 0
    assert "quad_failure" in {result.status for result in warm}


def _equal_starts(monkeypatch):
    """Make every segment zeval integrates start on equal panels, as grades of 1 do.

    The driver then also sizes each start as for equal panels: no need is cut
    to a graded share of it.
    """
    import zvar.zeval as zeval

    engine = zeval.integrate_segments
    monkeypatch.setattr(zeval, "integrate_segments",
                        lambda *args, start_grades=None, **kwargs: engine(*args, **kwargs))
    monkeypatch.setattr(zeval, "_graded_share", lambda g: 1.0)


@pytest.mark.parametrize("k, beta", [(1.0, 1.0), (2.3, 0.7), (0.6, 1.8)])
def test_graded_starts_spend_less_on_a_chirp(smooth, monkeypatch, k, beta):
    # Each window, and each running segment, of sin(k/u)/u^2 is its
    # predecessor scaled: started on the grading its predecessor ended with,
    # it spends less than on equal panels, with the same statuses and sample
    # counts and values within the two runs' summed error estimates.
    spec = FiniteIntegral(parse(f"sin({k!r}/u)/u^2", variables=("u",)), beta, smooth)
    graded = [eval_finite(spec, EvalConfig(), mode) for mode in ("direct", "bridge")]
    _equal_starts(monkeypatch)
    for mode, got in zip(("direct", "bridge"), graded):
        equal = eval_finite(spec, EvalConfig(), mode)
        assert got.status == equal.status == "converged", mode
        assert len(got.samples) == len(equal.samples), mode
        assert abs(got.value - equal.value) <= got.error_estimate + equal.error_estimate, mode
        assert got.evaluations < equal.evaluations, mode


def test_a_need_that_stops_rising_decays(smooth, monkeypatch):
    # A graded start that ended without splitting records its start as its
    # need, so starts extrapolated from a rising need could feed their own
    # rise.  The running segments of sin(2 x^2) e^(-x/c) at quad_tol 1e-13
    # need up to 484 panels; were every unsplit graded start recorded as its
    # need, they would start from up to 1,755 panels, and the evaluation
    # would spend 475,922, where equal starts spend 176,229 and so do graded
    # ones with the rule below.  (With the
    # 21-point rule the windows of sin(x^2) e^(-x/c) at quad_tol 1e-10 showed
    # it, 92,085 against 25,347; two 61-node panels resolve those windows.)
    # A start that left an error below 1/1000 of quad_tol had panels to
    # spare, and records half of itself, so the need decays.
    import zvar.zeval as zeval

    starts = []
    engine = zeval.integrate_segments

    def recording(groups, *args, **kwargs):
        starts.extend(kwargs["start_panels"][:len(groups[0][1])])   # the running segments'
        return engine(groups, *args, **kwargs)

    monkeypatch.setattr(zeval, "integrate_segments", recording)
    spec = InfiniteIntegral(parse("sin(2*x^2)*exp(-x/12.617619095934067)"), 0.9313001401995467,
                            smooth)
    cfg = EvalConfig(b_count=200, tol=1e-10, quad_tol=1e-13)
    graded = eval_infinite(spec, cfg)
    assert max(starts) == 484
    # sin(x^2)/x's need rises for 140 samples; graded, it spends no more
    # than it spent on equal starts.
    rising = eval_infinite(InfiniteIntegral(parse("sin(x^2)/x"), 1.0, smooth),
                           EvalConfig(b_count=200, tol=1e-9))
    assert rising.status == "converged" and len(rising.samples) == 140
    assert rising.evaluations <= 66_124
    _equal_starts(monkeypatch)
    equal = eval_infinite(spec, cfg)
    assert (graded.status, len(graded.samples)) == (equal.status, len(equal.samples))
    assert graded.evaluations <= equal.evaluations == 176_229


def test_repeated_grid_points_add_no_running_segment(smooth, monkeypatch):
    # 1 + k * 1e-17 rounds to 1 for k <= 11: the grid repeats its first point
    # and is rejected before any quadrature, whether its last two points are
    # distinct floats (35 points) or one float (the default 40).  With 35
    # points five samples at b = 1 once certified 0.7728576; the integral
    # is 1.  A first point equal to the lower limit repeats the start
    # instead, and adds no running segment.
    calls = _record_quadrature(monkeypatch)
    spec = InfiniteIntegral(parse("exp(-x)"), 0.0, smooth)
    for count in (35, 40):
        with pytest.raises(ValueError, match=r"^b_step 1e-17 does not advance the grid from "
                                             r"b_start 1\.0: points 0 and 1 are both 1\.0$"):
            eval_infinite(spec, EvalConfig(b_start=1.0, b_step=1e-17, b_count=count))
    assert calls == []
    cfg = EvalConfig(b_start=0.0)
    r = eval_infinite(spec, cfg)
    assert r.status == "converged" and abs(r.value - 1.0) <= r.error_estimate
    (f, run_lo, _, _), (window_f, window_lo, _, _) = calls[0]
    assert window_lo[0] == 0.0 and len(run_lo) == len(window_lo) - 1
    grid = [k * cfg.b_step for k in range(cfg.b_count)]
    values, evals = _one_at_a_time(f, window_f, 0.0, grid, lambda b: (b, b + smooth.width), cfg)
    assert [v for _, v in r.samples] == values
    assert r.evaluations == evals


def test_sample_counts_cost_nothing_until_reached(smooth):
    # Points are computed as they are integrated: a count of 10^12 is not
    # allocated or walked, and a converging evaluation ends as it does with
    # the default count.
    huge = EvalConfig(b_count=10**12, delta_count=10**12)
    for run in (lambda cfg: eval_infinite(InfiniteIntegral(parse("exp(-x)"), 0.0, smooth), cfg),
                lambda cfg: eval_finite(FiniteIntegral(parse("cos(u)", variables=("u",)),
                                                       1.0, smooth), cfg)):
        default = run(EvalConfig())
        assert default.status == "converged"
        assert run(huge) == default


def test_finite_sampling_stops_at_the_delta_floor(smooth, monkeypatch):
    calls = _record_quadrature(monkeypatch)
    r = eval_finite(FiniteIntegral(parse("1/u", variables=("u",)), 1.0, smooth),
                    EvalConfig(delta_count=10**12))
    points = [p for call in calls for p in call[1][3]]
    assert points == [0.5 ** k for k in range(27)]   # 0.5^27 < 1e-8 <= 0.5^26
    assert [p for p, _ in r.samples] == points


def test_b_start_below_lower_limit_rejected(smooth):
    spec = InfiniteIntegral(parse("x^-2"), 1.0, smooth)
    with pytest.raises(ValueError):
        eval_infinite(spec, EvalConfig(b_start=0.5))


def test_determinism(matched):
    spec = InfiniteIntegral(parse("sin(x)"), 1.0, matched)
    r1 = eval_infinite(spec, EvalConfig())
    r2 = eval_infinite(spec, EvalConfig())
    assert r1 == r2


# ---------------------------------------------------------------------------
# finite-limit evaluation
# ---------------------------------------------------------------------------

def test_inverse_sqrt_direct_both_tapers(smooth, matched):
    for z in (smooth, matched):
        spec = FiniteIntegral(parse("u^(-1/2)"), 1.0, z)
        r = eval_finite(spec, EvalConfig(accelerate=True))
        assert r.status == "converged"
        assert abs(r.value - 2.0) < 1e-6


def test_oscillatory_singularity_bridge_mode(smooth):
    spec = FiniteIntegral(parse("sin(1/u)/u^2"), 1.0, smooth)
    cfg = EvalConfig(b_start=1.0, b_count=14, tol=1e-5, quad_tol=1e-9)
    r = eval_finite(spec, cfg, mode="bridge")
    assert r.status == "converged"
    assert abs(r.value - math.cos(1.0)) < 1e-5
    # independent Abel check after x = 1/u
    assert abs(abel_limit(np.sin, 1.0) - r.value) < ORACLE_TOL


def test_oscillatory_singularity_direct_agrees_with_bridge(smooth):
    spec = FiniteIntegral(parse("sin(1/u)/u^2"), 1.0, smooth)
    bridge = eval_finite(spec, EvalConfig(b_start=1.0, b_count=14, tol=1e-5,
                                          quad_tol=1e-9), mode="bridge")
    direct = eval_finite(spec, EvalConfig(delta_count=17, tol=1e-3, quad_tol=1e-8),
                         mode="direct")
    assert direct.status == "converged"
    assert min(d for d, _ in direct.samples) >= 1e-5
    assert abs(direct.value - bridge.value) < 5e-4


def test_boundary_taper_bridge_agreement(smooth):
    # w derived from z through u = e^-x makes direct finite evaluation and
    # the bridged infinite evaluation agree to 1e-6 on convergent cases
    cases = [
        (parse("u^(-1/2)"), EvalConfig(accelerate=True)),
        (parse("sin(1/u)/u^2"), EvalConfig(delta_count=17, tol=1e-3, quad_tol=1e-8,
                                           b_start=1.0, b_count=14)),
    ]
    for integrand, cfg in cases:
        spec = FiniteIntegral(integrand, 1.0, smooth)
        direct = eval_finite(spec, cfg, mode="direct")
        bridged = eval_finite(spec, cfg, mode="bridge")
        assert direct.status == bridged.status == "converged"
        assert abs(direct.value - bridged.value) < 1e-6


def test_nonunit_upper_limit_both_routes(smooth):
    # Z integral_0^2 u^(-1/2) du = 2 sqrt(2); beta != 1 exercises the
    # -ln(beta) lower limit on the bridged side
    spec = FiniteIntegral(parse("u^(-1/2)"), 2.0, smooth)
    expected = 2.0 * math.sqrt(2.0)
    for mode in ("direct", "bridge"):
        r = eval_finite(spec, EvalConfig(accelerate=True), mode=mode)
        assert r.status == "converged"
        assert abs(r.value - expected) < 1e-8


def test_logarithmic_divergence_direct_and_bridge(smooth):
    spec = FiniteIntegral(parse("1/u"), 1.0, smooth)
    direct = eval_finite(spec, EvalConfig(), mode="direct")
    bridge = eval_finite(spec, EvalConfig(), mode="bridge")
    assert direct.status == "drifting"
    assert bridge.status == "drifting"


def test_unknown_mode_rejected(smooth):
    spec = FiniteIntegral(parse("1/u"), 1.0, smooth)
    with pytest.raises(ValueError):
        eval_finite(spec, EvalConfig(), mode="sideways")


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(b_count=STABILITY_WINDOW - 1)
    with pytest.raises(ValueError):
        EvalConfig(delta_count=STABILITY_WINDOW - 1)
    with pytest.raises(ValueError):
        EvalConfig(tol=1e-12, quad_tol=1e-10)
    with pytest.raises(ValueError):
        EvalConfig(b_step=0.0)


def test_spec_validation(smooth):
    with pytest.raises(ValueError):
        InfiniteIntegral(parse("x + y"), 0.0, smooth)
    with pytest.raises(ValueError):
        FiniteIntegral(parse("1/u"), -1.0, smooth)
    with pytest.raises(ValueError, match=r"unexpected free variables \['y'\]"):
        FiniteIntegral(parse("u*y"), 1.0, smooth)
    with pytest.raises(ValueError):
        InfiniteIntegral(parse("x"), math.inf, smooth)
