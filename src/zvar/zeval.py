"""Limit evaluators for termination-function improper integrals.

The infinite-limit form samples the bracket
    F(b) = integral_a^b f dx + integral_b^{b+c} f(x) z(x - b) dx
along an arithmetic sequence b_k = b_start + k*step, reusing the running
prefix integral.  The finite-limit form (critical point fixed at 0)
samples
    G(d) = integral_{v0 d}^{d} g(u) w(u/d) du + integral_d^{beta} g du
along a geometric sequence d_k = beta * shrink^k, where v0 = e^-c is the
taper's support floor.  Each evaluation compiles the integrand and z once,
and the window integrand composes the two: f(x) z(x - b), or
g(u) z(-ln(u/d)), which is g(u) w(u/d).  Either way the sample sequence
is classified as converged / oscillatory / drifting from its last
windows.  Optional acceleration then tries to certify a limit the window
misses: iterated Aitken first, then, on a growing b, a least-squares fit
of a 1/ln b remainder, which Aitken cannot accelerate.

Bridge mode rewrites a finite-limit problem through u = e^-x into the
infinite-limit form with integrand g(e^-x) e^-x and lower limit -ln(beta);
because w is z read through the same substitution, the two bracket
sequences coincide sample for sample.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain, pairwise

import numpy as np

from .expr import (DomainFault, ExprAST, compile_expr, const, exp as expr_exp,
                   free_variables, simplify, substitute, var)
from .quad import MAX_LIMIT, MIN_PANELS, PANEL_EVALS, QuadResult, integrate_segments
from .taper import TaperError, TerminationFunction

__all__ = [
    "InfiniteIntegral", "FiniteIntegral", "ZIntegralSpec", "EvalConfig",
    "ZResult", "TooFewSamples",
    "eval_infinite", "eval_finite", "plan_infinite", "plan_finite", "run_together",
    "bridge_image", "classify_sequence",
]

DELTA_FLOOR = 1e-8   # direct finite-limit sampling never shrinks delta below this
DELTA_SHRINK = 0.5   # ratio of consecutive deltas
STABILITY_WINDOW = 5   # samples per classification window
MAX_EVALS = 10_000_000   # integrand evaluations one evaluation may spend
# A rising need is extrapolated at most _GROWTH-fold per segment and
# _REACH-fold in all, which bounds what a wrong extrapolation wastes.  The
# default grids double a chirp's need per step (delta halves, e^0.7 is 2.01).
_GROWTH = 2.0
_REACH = 16
_GRADE = 64   # a running segment wider than 64 max(1, its distance from start) is graded
_SLACK = 1e-3   # an unsplit start whose error is below 1e-3 quad_tol had panels to spare
_RANGE = "the largest limit the quadrature takes"


def is_number(value) -> bool:
    """Whether value is a number as JSON has them: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TooFewSamples(ValueError):
    """Classification needs at least the stability window of samples."""


@dataclass(frozen=True)
class InfiniteIntegral:
    """Z-integral of f over [a, infinity) under termination function z."""

    integrand: ExprAST
    lower_limit: float
    taper: TerminationFunction
    variable: str = "x"

    def __post_init__(self):
        if not math.isfinite(self.lower_limit):
            raise ValueError("lower limit must be finite")
        extra = free_variables(self.integrand) - {self.variable}
        if extra:
            raise ValueError(f"integrand has unexpected free variables {sorted(extra)}")


@dataclass(frozen=True)
class FiniteIntegral:
    """Z-integral of g over (0, beta] with critical point 0.

    Its boundary taper is w(v) = z(-ln v) above the support floor e^-c and 0
    at and below it, for the termination function z it holds as `taper`.
    """

    integrand: ExprAST
    upper_limit: float
    taper: TerminationFunction
    variable: str = "u"

    def __post_init__(self):
        if not (math.isfinite(self.upper_limit) and self.upper_limit > 0.0):
            raise ValueError("upper limit must be finite and positive")
        if not math.exp(-self.taper.width) < 1.0:
            raise TaperError(f"taper width c={self.taper.width!r} is too small for a boundary "
                             f"taper: e^-c rounds to 1, leaving w no support")
        extra = free_variables(self.integrand) - {self.variable}
        if extra:
            raise ValueError(f"integrand has unexpected free variables {sorted(extra)}")


ZIntegralSpec = InfiniteIntegral | FiniteIntegral


@dataclass(frozen=True)
class EvalConfig:
    """Sampling plan for the limit sequences.

    b_start=None resolves to lower_limit + 1.  tol gates classification;
    quad_tol is the absolute tolerance handed to every inner quadrature.
    The finite form's deltas shrink by DELTA_SHRINK, the classifier reads
    windows of STABILITY_WINDOW samples, and MAX_EVALS caps the integrand
    evaluations of the whole evaluation.
    """

    b_start: float | None = None
    b_step: float = 0.7
    b_count: int = 40
    delta_count: int = 40
    tol: float = 1e-6
    quad_tol: float = 1e-10
    accelerate: bool = False

    def __post_init__(self):
        # a corpus config is JSON: 17.0 or "no" must not reach a range() or an if
        for name in ("b_count", "delta_count"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        for name in ("b_start", "b_step", "tol", "quad_tol"):
            value = getattr(self, name)
            if not (is_number(value) or (name == "b_start" and value is None)):
                raise ValueError(f"{name} must be a number")
            if value is not None and not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if type(self.accelerate) is not bool:
            raise ValueError("accelerate must be true or false")
        if self.b_count < STABILITY_WINDOW or self.delta_count < STABILITY_WINDOW:
            raise ValueError("sample counts must be at least the stability window")
        if not self.b_step > 0.0:
            raise ValueError("b_step must be positive")
        if not self.tol > self.quad_tol > 0.0:
            raise ValueError("need tol > quad_tol > 0")


@dataclass(frozen=True)
class ZResult:
    value: float
    error_estimate: float
    status: str                          # converged | oscillatory | drifting | quad_failure
    samples: tuple[tuple[float, float], ...]
    evaluations: int
    accelerated: bool = False


# --------------------------------------------------------------------------
# Sequence classification.
# --------------------------------------------------------------------------

def classify_sequence(samples, m: int, tol: float) -> str:
    """Classify a limit-sample sequence as converged / oscillatory / drifting.

    converged: the last m values agree to within tol.  oscillatory: the
    last window is neither shrinking nor escaping -- its spread matches the
    previous window (ratio in [0.8, 1.25]) or remains a solid fraction of
    the historical spread, while its values stay inside the historical
    envelope.  drifting: anything still on the move (monotone escape,
    steady shrink toward a limit the tolerance has not certified, ...).
    """
    values = [s[1] if isinstance(s, (tuple, list)) else float(s) for s in samples]
    if m < 1 or len(values) < m:
        raise TooFewSamples(f"need at least {m} samples, got {len(values)}")
    last = values[-m:]
    spread_last = max(last) - min(last)
    if spread_last <= tol:
        return "converged"
    if len(values) < 2 * m:
        return "drifting"
    prev = values[-2 * m:-m]
    spread_prev = max(prev) - min(prev)
    ratio = spread_last / spread_prev if spread_prev > 0.0 else math.inf
    hist = values[:-m]
    hist_spread = max(hist) - min(hist)
    margin = 0.05 * hist_spread + tol
    bounded = min(hist) - margin <= min(last) and max(last) <= max(hist) + margin
    steady = 0.8 <= ratio <= 1.25 or spread_last >= 0.3 * hist_spread
    if bounded and steady:
        return "oscillatory"
    return "drifting"


def _extrapolate(params, values, errors, m: int, tol: float):
    """Extrapolate the limit of a sequence whose last window is not within tol.

    Returns (limit, error_estimate), the quadrature error included, or None.
    Iterated Aitken delta-squared runs first, stopping at the samples' noise
    floor or at m values; its result counts if its last m values agree
    within tol.  Aitken cannot accelerate a 1/ln p remainder, and no
    transform accelerates every logarithmically convergent sequence
    (Delahaye & Germain-Bonne 1980).  So when the parameter p grows from
    above 1.5, the samples are then fitted by least squares on
    [1, 1/ln p, 1/ln^2 p].  The fit counts if, fitted without the last m
    samples, it predicts them within tol, its residual window spreads within
    tol, and the held-out error, the limit's shift between the two halves'
    fits and three standard errors of the limit sum to at most tol.
    """
    noise = max(32.0 * np.finfo(float).eps * max(abs(v) for v in values), 4.0 * max(errors))
    seq = np.asarray(values, dtype=float)
    while seq.size >= m + 2:
        d1 = np.diff(seq)
        d2 = np.diff(d1)
        if np.any(np.abs(d2) <= noise):
            break
        new = seq[2:] - d1[1:] ** 2 / d2
        if not np.all(np.isfinite(new)):
            break
        seq = new
    window = seq[-m:].tolist()
    if _spread(window) <= tol:
        return window[-1], _spread(window) + errors[-1] + noise

    n = len(values)
    if n < 3 * m + 6 or not 1.5 < params[0] < params[-1]:
        return None
    x = np.asarray(params, dtype=float)
    y = np.asarray(values, dtype=float)
    a = np.column_stack([np.ones_like(x), 1.0 / np.log(x), np.log(x) ** -2.0])
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        return None
    coef_train, *_ = np.linalg.lstsq(a[:-m], y[:-m], rcond=None)
    val_err = float(np.max(np.abs(a[-m:] @ coef_train - y[-m:])))
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    if val_err > tol or float(resid[-m:].max() - resid[-m:].min()) > tol:
        return None
    half = n // 2
    s1, *_ = np.linalg.lstsq(a[:half], y[:half], rcond=None)
    s2, *_ = np.linalg.lstsq(a[half:], y[half:], rcond=None)
    sigma2 = float(resid @ resid) / (n - 3)
    cov00 = float(np.linalg.inv(a.T @ a)[0, 0]) * sigma2
    fit_err = val_err + abs(float(s1[0] - s2[0])) + 3.0 * math.sqrt(max(cov00, 0.0))
    return (float(coef[0]), fit_err + errors[-1]) if fit_err <= tol else None


# --------------------------------------------------------------------------
# Evaluators.
# --------------------------------------------------------------------------

def eval_infinite(spec: InfiniteIntegral, cfg: EvalConfig) -> ZResult:
    """Sample and classify the infinite-limit bracket sequence."""
    return run_together([plan_infinite(spec, cfg)], cfg.quad_tol)[0]


def eval_finite(spec: FiniteIntegral, cfg: EvalConfig, mode: str = "direct") -> ZResult:
    """Sample and classify the finite-limit sequence, directly or via bridge."""
    return run_together([plan_finite(spec, cfg, mode)], cfg.quad_tol)[0]


def plan_infinite(spec: InfiniteIntegral, cfg: EvalConfig):
    """eval_infinite as a plan, a generator that _sample_brackets describes."""
    z = spec.taper
    a = spec.lower_limit
    b0 = (a + 1.0) if cfg.b_start is None else float(cfg.b_start)
    if b0 < a:
        raise ValueError(f"b_start {b0!r} lies below the lower limit {a!r}")
    if not abs(a) <= MAX_LIMIT:
        raise ValueError(f"lower limit {a!r} is past {MAX_LIMIT!r}, {_RANGE}")
    last = b0 + (cfg.b_count - 1) * cfg.b_step if cfg.b_count <= 2**1023 else math.inf
    if not last < math.inf:   # 2**1023 keeps float(b_count - 1) finite
        raise ValueError(f"b_step {cfg.b_step!r} takes the grid from b_start {b0!r} past the "
                         f"float range before its last point")
    f = compile_expr(spec.integrand, (spec.variable,))
    zc = compile_expr(z.body, ("s",))

    def window_f(t, b):
        return f(t) * zc(t - b)

    # Each point and window is checked as it is made, so only sampled ones are.
    def point(k):
        b = b0 + k * cfg.b_step
        if k and not b > b0 + (k - 1) * cfg.b_step:
            raise ValueError(f"b_step {cfg.b_step!r} does not advance the grid from b_start "
                             f"{b0!r}: points {k - 1} and {k} are both {b!r}")
        return b

    def span(b):
        if not b + z.width > b:
            raise ValueError(f"b_start {b0!r} leaves no window: b + c rounds to b at {b!r}")
        if not b + z.width <= MAX_LIMIT:
            raise ValueError(f"b_start {b0!r} and taper width c={z.width!r} put the window "
                             f"end {b + z.width!r} past {MAX_LIMIT!r}, {_RANGE}")
        return b, b + z.width

    return (yield from _sample_brackets(f, window_f, a, cfg.b_count, point, span, cfg))


def plan_finite(spec: FiniteIntegral, cfg: EvalConfig, mode: str = "direct"):
    """eval_finite as a plan, a generator that _sample_brackets describes."""
    if mode == "bridge":
        return (yield from plan_infinite(bridge_image(spec, 1.0, 1.0), cfg))
    if mode != "direct":
        raise ValueError(f"unknown mode {mode!r} (expected 'direct' or 'bridge')")
    z = spec.taper
    beta = spec.upper_limit
    if not beta <= MAX_LIMIT:
        raise ValueError(f"beta {beta!r} is past {MAX_LIMIT!r}, {_RANGE}")
    g = compile_expr(spec.integrand, (spec.variable,))
    zc = compile_expr(z.body, ("s",))

    def window_g(t, d):
        return g(t) * zc(-np.log(t / d))

    def delta(k):
        return beta * DELTA_SHRINK ** k

    # the deltas decrease, so those at or above the floor come first
    count = bisect.bisect_left(range(cfg.delta_count), True, key=lambda k: delta(k) < DELTA_FLOOR)
    if count < STABILITY_WINDOW:
        raise ValueError(f"beta {beta!r} leaves {count} deltas at or above the floor "
                         f"{DELTA_FLOOR!r}, fewer than the {STABILITY_WINDOW} samples a "
                         f"classification needs; bridge mode has no floor")
    return (yield from _sample_brackets(g, window_g, beta, count, delta,
                                        lambda d: (math.exp(-z.width) * d, d), cfg))


def run_together(plans, abs_tol: float) -> list[ZResult]:
    """Run plans side by side: the pending chunks of all in one integrate_segments call.

    Each plan's segments are a budget pool of their own, so each plan gets
    bit for bit what it gets run alone.  If plans raise, the first one's
    error is raised once those before it end, as it is when they run one
    after the other.
    """
    results = [None] * len(plans)
    answers = dict.fromkeys(range(len(plans)))   # what each running plan is sent next
    error = None
    while answers:
        pending = {}
        for i, answer in answers.items():
            try:
                pending[i] = plans[i].send(answer)
            except StopIteration as end:
                results[i] = end.value
            except ValueError as err:   # raised once the plans before it end
                error = err   # the plans after it are dropped
                break
        if not pending:
            break
        groups, budgets, orders, starts, grades = zip(*pending.values())
        out = iter(integrate_segments(
            [group for chunk in groups for group in chunk], abs_tol, budgets,
            read_order=[p for order in orders for p in order],
            pools=[pool for pool, chunk in enumerate(groups) for _ in chunk],
            start_panels=[n for chunk in starts for n in chunk],
            start_grades=[g for chunk, ns in zip(grades, starts) for g in chunk or [1.0] * len(ns)]
            if any(grades) else None))
        answers = {i: [next(out) for _, lo, _, _ in chunk for _ in lo]
                   for i, chunk in zip(pending, groups)}
    if error is not None:
        raise error
    return results


def bridge_image(spec: FiniteIntegral, d: float, alpha: float) -> InfiniteIntegral:
    """The u = d e^(-alpha x) image of a finite-limit spec, under the same z."""
    x = "x" if spec.variable != "x" else "xb"
    decay = const(d) * expr_exp(-(const(alpha) * var(x)))
    integrand = simplify(substitute(spec.integrand, spec.variable, decay) * const(alpha) * decay)
    a = -math.log(spec.upper_limit / d) / alpha
    return InfiniteIntegral(integrand, a, spec.taper, variable=x)


def _sample_brackets(f, window_f, start, count, point, span, cfg):
    """Sample the bracket at point(k) for k < count, then classify the sequence.

    This is a plan: a generator that yields each chunk's request, its
    segment groups, budget, read order and starting panels, is sent the
    chunk's results, and returns the ZResult.  run_together runs the chunks
    of one plan, or of several, in one quadrature call.  Each point is
    computed when its chunk is made, so the count costs nothing until it is
    reached.  f and window_f are built once per evaluation.  The bracket at
    point p is the running integral of f between `start` and p plus the window
    integral of window_f(t, p) over span(p); each point adds the running
    segment between the previous point and itself.  Sampling stops once the
    last STABILITY_WINDOW values agree within tol.  An inner quadrature that
    fails to converge or meets a domain fault ends it as quad_failure,
    keeping the samples before it.

    Each point's running segment is a tuple of pieces: none for a point at
    start, else one, or, where a growing grid's segment is more than _GRADE
    times as wide as max(1, its distance from start), the ladder _pieces
    builds toward start.  The pieces are read in order before the point's
    window; the increment is their sum, and fails as any piece fails.

    A chunk's running segments and windows are one budget pool of one
    integrate_segments call.  _chunk_end sizes it: through the first point
    that could stop the sequence, or on toward the stop its fitted tail
    predicts.  The results are read in point order up to the stopping
    point, so points past it change no value; the quadratures after a failed
    one stop early, as they are never read.  The evaluations
    counted are those of every quadrature of every chunk, read or not, and
    MAX_EVALS caps their sum: a chunk's pool holds what the evaluation has
    left, so a chunk that cannot pay for its first batches ends as
    quad_failure.

    Each piece and window starts from the panels those of its kind before
    it needed (_start_panels), or from MIN_PANELS if the evaluation's
    remaining budget cannot pay the chunk's first batches.  Only the first
    two segments can be graded: from the third on, a segment is one step
    wide and at least one step from start.  Both lie in the first chunk,
    which holds at least m points and, knowing no need yet, starts all from
    MIN_PANELS; the three needs the next chunk reads are those of ungraded
    segments.  Each also starts on the grade the last of its kind in the
    last chunk read in full ended with, as it is that one scaled or
    shifted.  A need measured on equal panels counts them as fine as the
    segment's fastest part throughout, so a start on grade g takes
    _graded_share(g) of it; a need measured on graded panels is taken as it
    is.  The share is at most 1, so the caps of _start_panels still bound a
    start.  An unsplit graded start records itself as its need, or half if
    its error is below _SLACK quad_tol: a need that stops rising then decays.
    A start moves a value within quadrature error only, so a value depends
    on where its chunk's boundaries fall, within that error; it stays
    deterministic.
    """
    samples: list[tuple[float, float]] = []
    values: list[float] = []
    errors: list[float] = []
    evals = 0
    running = 0.0
    running_err = 0.0
    prev = start
    failed = stopped = False
    m = STABILITY_WINDOW
    needs = [], []   # the panels the last finished running segments, and windows, needed
    grade = [1.0, 1.0]   # the grades the last running segment, and window, ended with
    on_equal = [True, True]   # whether those needs were measured on equal panels
    while len(values) < count and not (failed or stopped):
        points = [point(k) for k in range(len(values), _chunk_end(values, count, m, cfg.tol))]
        windows = [span(p) for p in points]
        # Each point's running segment as pieces: none at start, one, or a graded ladder.
        runs = [() if q == p else _pieces(q, p, start) if p - q > _GRADE * max(1.0, q - start)
                else ((p, q) if p < q else (q, p),) for q, p in zip([prev, *points], points)]
        pieces = [*chain.from_iterable(runs)]
        # A need measured on equal panels is cut to the share graded panels take of it.
        starts = [max(round(n * (_graded_share(g) if equal else 1.0)), MIN_PANELS)
                  for kind, g, equal, size in zip(needs, grade, on_equal,
                                                  (len(pieces), len(points)))
                  for n in _start_panels(kind, size)]
        if sum(starts) * PANEL_EVALS > MAX_EVALS - evals:
            starts = [MIN_PANELS] * len(starts)
        grades = None if grade == [1.0, 1.0] else [grade[0]] * len(pieces) + [grade[1]] * len(points)
        read = yield (
            [(f, [lo for lo, _ in pieces], [hi for _, hi in pieces], None),
             (window_f, [lo for lo, _ in windows], [hi for _, hi in windows], points)],
            MAX_EVALS - evals,
            [2 * i + j / len(run) for i, run in enumerate(runs) for j, _ in enumerate(run)]
            + [*range(1, 2 * len(points), 2)], starts, grades)
        evals += sum(result.evaluations for result in read)
        out = iter(read)
        increments = [None if not run else next(out) if len(run) == 1
                      else _increment([next(out) for _ in run]) for run in runs]
        for p, inc, window in zip(points, increments, out):
            if inc is not None:
                if not _converged(inc):
                    failed = True
                    break
                running += inc.value
                running_err += inc.error_estimate
            if not _converged(window):
                failed = True
                break
            values.append(running + window.value)
            errors.append(running_err + window.error_estimate)
            samples.append((p, values[-1]))
            stopped = len(values) >= m and _spread(values[-m:]) <= cfg.tol
            if stopped:
                break
        if not (failed or stopped):   # every result was read, and converged
            # A segment needed its final panels if it split, its start if that was graded
            # and not far within quad_tol, else at most half its start.
            need = [r.panels if r.panels > n
                    or (r.grade != 1.0 and r.error_estimate >= _SLACK * cfg.quad_tol) else n // 2
                    for r, n in zip(read, starts)]
            needs[0].extend(need[:len(pieces)])
            needs[1].extend(need[len(pieces):])
            del needs[0][:-3], needs[1][:-3]   # all that _start_panels reads
            on_equal = [g == 1.0 for g in grade]
            grade = [read[len(pieces) - 1].grade if pieces else grade[0], read[-1].grade]
        prev = points[-1]
    return _classify_result(samples, values, errors, evals, cfg, failed)


def _converged(result) -> bool:
    return not isinstance(result, DomainFault) and result.converged


def _pieces(q, p, start) -> list[tuple[float, float]]:
    """The pieces [lo, hi] of a graded running segment from q to p, in read order.

    The cuts are the rungs start + v of a ladder, v = 16^j, taken where v
    is past twice q's distance from start, past 2^-40 |start|, some
    thousands of start's ulps (so that no piece is a few ulps wide), and
    below half of p's.  So a piece is at most 32 times as wide as max(1,
    its distance from start), or 16 times 2^-40 |start|.  v = 2^4j with 4j
    below the exponent of p - start, at most 1020: no rung overflows, and
    there are at most 256.
    """
    low = max(2.0 * (q - start), math.ldexp(abs(start), -40))
    high = (p - start) / 2.0
    ladder = (math.ldexp(1.0, 4 * j) for j in range((math.frexp(p - start)[1] + 3) // 4))
    edges = [q, *(start + v for v in ladder if low < v < high), p]
    return list(zip(edges, edges[1:]))


def _increment(pieces):
    """A graded segment's result: its pieces' sums, or its first failed piece's result."""
    failed = next((r for r in pieces if not _converged(r)), None)
    if failed is not None:
        return failed   # a DomainFault keeps its abscissa
    value, error, evaluations, _, panels, _ = map(sum, zip(*pieces))
    return QuadResult(value, error, evaluations, True, panels)


def _chunk_end(values, size, m, tol) -> int:
    """End index, among the `size` points, of the next chunk of points.

    Point j can stop the sequence only as the last of m samples spread
    within tol.  So it cannot while fewer than m samples exist, nor while
    the known samples of its window already spread wider than tol.  The
    chunk takes those points and the first one that could stop.  Once the
    tail is fitted, it runs on halfway to the fitted stop if that is later,
    but takes at most n new points to the n samples known and never passes
    `size`: a fit that reaches too far at most doubles the points sampled.
    The fit is read only while the last window's differences keep one sign
    (zeros allowed): a tail that turns is no power law.  A tail whose ratios
    _geometric_stop reads runs on through the stop it predicts, no later
    than the true one, with at most max(n, 32) new points: that bounds what
    a quadrature failure inside the chunk wastes.  A cap that would leave
    fewer than m points is `size`, as a chunk that small is not worth a call.
    """
    n = len(values)
    j = n
    while j + 1 < size and (j + 1 < m or _spread(values[j + 1 - m:n] or [0.0]) > tol):
        j += 1
    steps = [b - a for a, b in pairwise(values[-m:])]
    turns = min(steps, default=0.0) < 0.0 < max(steps, default=0.0)
    fit = None if turns else _tail_fit(values, m, tol)
    end = j + 1 if fit is None else max(j + 1, min((n + fit[1]) // 2, 2 * n, size))
    cap = n + max(n, 32)
    stop = _geometric_stop(values, m, tol)
    return end if stop is None else max(end, min(stop, size if size < cap + m else cap))


def _geometric_stop(values, m, tol):
    """A sample count no later than the tail's stop, or None if its ratios are not read.

    The tail is the last five, or four, differences that are finite, nonzero
    and of one sign; its rounding is 4 eps max|v| / min|d| over five samples.
    Falling: four ratios below 1, each fall no larger than the one before,
    and the last three falling by more than their rounding.  Later ratios
    follow the line of the last fall, floored at 0; while later falls are no
    larger, the true ratios and differences are no smaller, so the first
    count whose window of m samples the line's differences spread within tol
    is no later than the true stop.  The walk ends m - 1 points past the
    chunk cap n + max(n, 32).  Steady: three ratios below 1, within 0.1% of
    each other and not falling by more than their rounding.  With r the
    smallest, the window ending at count k spreads |d| r^(k-n) (r^-(m-1) - 1)
    / (r^-1 - 1), computed in logs, so no ratio overflows it.  The ratios of
    a geometric, power-law or 1/ln k tail do not fall, so it stops no earlier.
    """
    n = len(values)
    d = [b - a for a, b in pairwise(values[-6:])]
    if d and d[-1] < 0.0:   # a falling tail is read as its mirror image
        d = [-x for x in d]
    # the tail: the trailing run of finite, positive differences
    d = d[max((i + 1 for i, x in enumerate(d) if not 0.0 < x < math.inf), default=0):]
    if len(d) < 4:
        return None
    ratios = [b / a for a, b in pairwise(d)]
    falls = [a - b for a, b in pairwise(ratios)]
    rounding = 4.0 * np.finfo(float).eps * max(map(abs, values[-5:])) / min(d[-4:])
    if min(falls[-2:]) > 0.0 and ratios[-3] - ratios[-1] > rounding:
        if not (len(falls) == 3 and ratios[0] < 1.0 and falls[0] >= falls[1] >= falls[2]):
            return None
        k, diff, ratio = n, d[-1], ratios[-1]
        window = d[1 - m:]
        while sum(window) > tol and k < n + max(n, 32) + m - 1:
            ratio = max(ratio - falls[-1], 0.0)
            diff *= ratio
            window = [*window[1:], diff]
            k += 1
        return k
    r = min(ratios[-3:])
    # r > 0 then: three ratios that underflow to 0 need a difference below the least float
    if not (max(ratios[-3:]) < 1.0 and max(ratios[-3:]) <= 1.001 * r):
        return None
    # log(spread at count n / tol); the sum of r^i, i < m - 1, lies in [1, m - 1]
    excess = (math.log(d[-1]) - math.log(tol) - (m - 2) * math.log(r)
              + math.log(sum(r ** i for i in range(m - 1))))
    return n + math.ceil(excess / -math.log(r))


def _tail_fit(values, m, tol):
    """(q, stop): the tail's decay like k^-q, and the sample count at which it stops.

    Once 2m + 1 samples exist, the spreads s0 and s1 of the last two windows
    of m samples, which share one sample and end at counts n - m + 1 and n,
    are fitted by s(k) = s1 (k/n)^-q.  stop is the first count k at which
    s(k) <= tol, computed in logs and held at n e^40 so that a tiny q
    cannot overflow it; q is also what a k^-q tail-remainder bound reads.
    None when the spreads are not decaying.
    """
    n = len(values)
    if n < 2 * m + 1:
        return None
    s0, s1 = _spread(values[n + 1 - 2 * m:n + 1 - m]), _spread(values[n - m:])
    if not (s1 > 0.0 and s0 / s1 > 1.0):
        return None
    q = math.log(s0 / s1) / math.log(n / (n + 1 - m))
    return q, math.ceil(n * math.exp(min(max(math.log(s1 / tol), 0.0) / q, 40.0)))


def _graded_share(g) -> float:
    """The share of an equal start's panels that a start graded by g needs.

    A span needs panels in proportion to the integral of its local
    frequency.  Equal panels must all be as fine as its fast end; where the
    frequency grows geometrically by 1/h across it, h = min(g, 1/g), panels
    graded to it take (1 - h)/ln(1/h) as many.  Measured on the minimal
    starts of sin(k/u)/u^2 segments that converge unsplit: 0.77 at g = 1/2,
    0.55 at g = 4 and 0.48 at g = 8, where the share is 0.72, 0.54 and 0.42.
    """
    # |ln g| held at 600, as a starting grade is: widths can differ past the float range
    h = min(g, 1.0 / g) if math.exp(-600.0) < g < math.exp(600.0) else math.exp(-600.0)
    return (1.0 - h) / -math.log(h) if h < 1.0 else 1.0


def _start_panels(needs, count) -> list[int]:
    """Starting panels of the next `count` segments of one kind, from those it needed.

    When the last three needs rise strictly, the j-th segment (from 0)
    starts at need * r^(j+1), r the last ratio of needs held at _GROWTH,
    and at most _REACH times the last need.  Else each starts at half the
    last need, so a start that was too large decays.  Never below MIN_PANELS.
    """
    if len(needs) >= 3 and needs[-3] < needs[-2] < needs[-1]:
        need = needs[-1]
        r = min(need / needs[-2], _GROWTH)
        reach = math.ceil(math.log(_REACH) / math.log(r))   # r^reach >= _REACH: no overflow
        return [max(int(min(need * r ** min(j + 1, reach), _REACH * need)), MIN_PANELS)
                for j in range(count)]
    return [max(needs[-1] // 2 if needs else 0, MIN_PANELS)] * count


def _spread(window) -> float:
    return max(window) - min(window)


def _classify_result(samples, values, errors, evals, cfg, failed) -> ZResult:
    m = STABILITY_WINDOW
    if failed or len(values) < m:
        value = values[-1] if values else math.nan
        return ZResult(value=value, error_estimate=math.inf, status="quad_failure",
                       samples=tuple(samples), evaluations=evals)
    status = classify_sequence(values, m, cfg.tol)
    fitted = None
    if status != "converged" and cfg.accelerate:
        fitted = _extrapolate([p for p, _ in samples], values, errors, m, cfg.tol)
    if fitted is None:
        value, error = values[-1], _spread(values[-m:]) + errors[-1]
    else:
        (value, error), status = fitted, "converged"
    return ZResult(value=value, error_estimate=error, status=status, samples=tuple(samples),
                   evaluations=evals, accelerated=fitted is not None)
