"""Adaptive proper-integral engine on finite intervals.

A Gauss(7)/Kronrod(15) embedded pair drives global adaptive bisection
(QUADPACK's QAG scheme): the span starts as eight panels, and each round
bisects the panels carrying at least half of the frontier's error
estimate and applies the rule to their children in one vectorized batch.
Only those children are evaluated; every other panel keeps its value and
error from the round that created it.  The Kronrod nodes are strictly
interior, so endpoints are never sampled.

Budget exhaustion is a soft failure: the best-effort value is returned
with converged=False and an honest error estimate.  No evaluation is
spent beyond max_evals, so a budget too small for the first batch
returns converged=False after zero evaluations.  So is a tolerance below
roundoff: once the panels' roundoff floors (10 eps times the integral of
|f| over each) and the frozen panels' errors exceed abs_tol together, no
refinement can meet it, and the run stops (QUADPACK's ier=2).  Non-finite
integrand values raise DomainFault with the offending abscissa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Mapping

import numpy as np

from .expr import DomainFault, ExprAST, compile_expr

__all__ = ["QuadResult", "integrate_proper", "integrate_callable"]

# Gauss-Kronrod 7-15 pair, nodes sorted ascending.  WG is aligned with the
# Kronrod nodes and zero where the node is Kronrod-only.
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WG_HALF = np.array([
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
])

_XK = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [0.209482141084727828012999174891714], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, [0.417959183673469387755102040816327], _WG_HALF[::-1]])
_WKG = np.column_stack([_WK, _WG])   # one matmul gives the Kronrod and Gauss sums

_EPS = np.finfo(float).eps
_INITIAL_SPLIT = 8   # aliasing insurance: never judge the span by one panel
_SLOTS = np.arange(_INITIAL_SPLIT + 1, dtype=float)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def integrate_proper(f: ExprAST, var: str, lo: float, hi: float, abs_tol: float,
                     max_evals: int = 10_000_000,
                     params: Mapping[str, float] | None = None) -> QuadResult:
    """Integrate the expression f over [lo, hi] to absolute tolerance abs_tol.

    params binds free variables of f other than the integration variable.
    The expression is compiled on every call; a caller integrating one
    expression many times compiles it once and uses integrate_callable.
    """
    names = (var,) + tuple(params.keys() if params else ())
    compiled = compile_expr(f, names)
    extra = tuple(float(v) for v in (params.values() if params else ()))

    def fn(x: np.ndarray) -> np.ndarray:
        return compiled(x, *extra)

    return integrate_callable(fn, lo, hi, abs_tol, max_evals)


def integrate_callable(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       abs_tol: float, max_evals: int = 10_000_000) -> QuadResult:
    """Core engine over a vectorized callable (x-array -> f-array)."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")
    if max_evals < _INITIAL_SPLIT * _XK.size:
        return QuadResult(value=math.nan, error_estimate=math.inf, evaluations=0,
                          converged=False)
    # np.linspace(lo, hi, _INITIAL_SPLIT + 1) bit for bit, at a third of its cost.
    edges = _SLOTS * ((hi - lo) / _INITIAL_SPLIT) + lo
    edges[-1] = hi
    # The frontier is unordered: a bisected panel's left child takes its
    # slot and the right child is appended.  b is written in place, so it
    # must not share memory with a.
    a = edges[:-1]
    b = edges[1:].copy()
    vals, errs, floors, evals = _rule_batch(fn, a, b)
    # Panels not yet tested for float resolution: the left children sit in
    # the slots `split` of their parents, the right children from slot n on.
    new_a, new_b, split, n = a, b, np.arange(0), 0

    frozen_value = 0.0
    frozen_error = 0.0

    while True:
        err_sum = float(errs.sum())
        if err_sum + frozen_error <= abs_tol:
            return _finish(vals, errs, frozen_value, frozen_error, evals, True, abs_tol)
        if evals >= max_evals or float(floors.sum()) + frozen_error > abs_tol:
            return _finish(vals, errs, frozen_value, frozen_error, evals, False, abs_tol)

        # Freeze intervals too narrow to bisect in floating point.  A panel
        # that passed this test once always passes, so only new ones run it.
        mids = 0.5 * (new_a + new_b)
        stuck = (mids <= new_a) | (mids >= new_b)
        new_a = new_b = a[:0]
        if stuck.any():
            k = split.size
            gone = np.concatenate([split[stuck[:k]], n + np.flatnonzero(stuck[k:])])
            frozen_value += float(vals[gone].sum())
            frozen_error += float(errs[gone].sum())
            keep = np.ones(a.size, dtype=bool)
            keep[gone] = False
            a, b, vals, errs, floors = a[keep], b[keep], vals[keep], errs[keep], floors[keep]
            if a.size == 0:
                done = frozen_error <= abs_tol
                return _finish(vals, errs, frozen_value, frozen_error, evals, done, abs_tol)
            continue

        # Bisect the subset carrying at least half of the frontier error.
        order = np.argsort(errs)[::-1]
        cum = np.cumsum(errs[order])
        split = order[:int(np.searchsorted(cum, 0.5 * err_sum)) + 1]

        if evals + 2 * split.size * 15 > max_evals:
            allowed = max(0, (max_evals - evals) // 30)
            if allowed == 0:
                return _finish(vals, errs, frozen_value, frozen_error, evals, False, abs_tol)
            split = split[:allowed]

        n = a.size
        k = split.size
        left = a[split]
        right = b[split]
        mid = 0.5 * (left + right)
        new_a = np.concatenate([left, mid])
        new_b = np.concatenate([mid, right])
        cvals, cerrs, cfloors, used = _rule_batch(fn, new_a, new_b)
        evals += used

        b[split] = mid
        vals[split] = cvals[:k]
        errs[split] = cerrs[:k]
        floors[split] = cfloors[:k]
        a = np.concatenate([a, mid])
        b = np.concatenate([b, right])
        vals = np.concatenate([vals, cvals[k:]])
        errs = np.concatenate([errs, cerrs[k:]])
        floors = np.concatenate([floors, cfloors[k:]])


def _rule_batch(fn, a: np.ndarray, b: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Apply the 15-point rule to every [a_i, b_i]; returns (values, errors, floors, evals)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    fx = fn(x.ravel()).reshape(x.shape)
    resabs = np.abs(fx) @ _WK
    if not math.isfinite(resabs.sum()):
        # A non-finite f makes the sum non-finite; only then scan the points.
        bad = ~np.isfinite(fx)
        if bad.any():
            where = x[bad][0]
            raise DomainFault(f"integrand evaluated to a non-finite value at {where!r}")
    kg = fx @ _WKG
    resk = kg[:, 0]
    resg = kg[:, 1]
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _WK
    value = resk * half
    raw = np.abs(resk - resg) * half
    asc = resasc * half
    err = np.where(
        (asc != 0.0) & (raw != 0.0),
        asc * np.minimum(1.0, (200.0 * raw / np.where(asc == 0.0, 1.0, asc)) ** 1.5),
        raw,
    )
    floor = 10.0 * _EPS * resabs * half
    return value, np.maximum(err, floor), floor, x.size


def _finish(vals, errs, frozen_value, frozen_error, evals, converged, abs_tol):
    value = float(vals.sum()) + frozen_value
    error = float(errs.sum()) + frozen_error
    if converged and error > abs_tol:  # pragma: no cover - guarded by caller
        converged = False
    return QuadResult(value=value, error_estimate=error, evaluations=evals, converged=converged)
