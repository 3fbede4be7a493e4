"""Adaptive proper-integral engine on finite intervals.

One engine integrates S segments in lockstep, each by QUADPACK's QAG
scheme (Piessens et al. 1983) with its own frontier, error budget and
evaluation count, as `scipy.integrate.quad_vec` does for the components
of a vector integrand.  A segment starts as six panels; each round it
bisects the panels carrying at least half of its error estimate.  The
Gauss(10)/Kronrod(21) rule is then applied to the children of every live
segment in one vectorized batch, with one call per integrand, in blocks
of whole segments of at most 512 panels (a larger segment runs alone).
Only children are evaluated: every other panel keeps its value and error
from the round that created it.  The Kronrod nodes are strictly
interior, so endpoints are never sampled.

A segment's decisions and sums read only its own panels, in the order a
one-segment run keeps them, and its rule sums take one BLAS call with
the shape they have when it runs alone, so a segment gets the same
result, bit for bit, in a batch of any size.  A caller that reads the
results in order and stops at the first failure can say so, and the
segments it would never read stop early.

A segment stops unconverged, with its best-effort value and error, when
- its budget is spent.  No evaluation goes beyond max_evals, so a budget
  smaller than the first batch returns after zero evaluations;
- abs_tol is below roundoff.  Once the panels' roundoff floors (10 eps
  times the integral of |f| over each) and the frozen panels' errors
  exceed abs_tol together, no refinement can meet it (QUADPACK's ier=2);
- the frozen panels hold more than abs_tol in absolute value.  A panel
  too narrow to bisect in floating point is frozen: its value and error
  still count, but its value can no longer be checked (ier=5).
A non-finite integrand value fails its own segment only, with a
DomainFault that names the abscissa.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .expr import DomainFault, ExprAST, compile_expr

__all__ = ["QuadResult", "integrate_proper", "integrate_callable", "integrate_segments"]

# Gauss-Kronrod 10-21 pair (QUADPACK's QK21), nodes sorted ascending.  WG is
# aligned with the Kronrod nodes and zero where the node is Kronrod-only,
# the centre included: the 10-point Gauss rule has no centre node.
_XK_HALF = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WK_HALF = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_WG_HALF = np.array([
    0.0,
    0.066671344308688137593568809893332,
    0.0,
    0.149451349150580593145776339657697,
    0.0,
    0.219086362515982043995534934228163,
    0.0,
    0.269266719309996355091226921569469,
    0.0,
    0.295524224714752870173892994651338,
])

_XK = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [0.149445554002916905664936468389821], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, [0.0], _WG_HALF[::-1]])
_WKG = np.column_stack([_WK, _WG])   # one matmul gives the Kronrod and Gauss sums

_EPS = np.finfo(float).eps
_INITIAL_SPLIT = 6   # aliasing insurance: never judge the span by one panel
_SLOTS = np.arange(_INITIAL_SPLIT + 1, dtype=float)
_NONE = np.arange(0)
_BATCH_PANELS = 512  # rule batch bound; a segment with more children runs alone
_MAX_LIMIT = sys.float_info.max / 2   # so a + b, and every panel midpoint, stays finite

# Segments sharing one integrand: (fn, lo, hi, params), see integrate_segments.
SegmentGroup = tuple[Callable[..., np.ndarray], Sequence[float], Sequence[float],
                     Sequence[float] | None]


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
    """Integrate a vectorized callable (x-array -> f-array) over [lo, hi]."""
    result, = integrate_segments([(fn, (lo,), (hi,), None)], abs_tol, max_evals)
    if isinstance(result, DomainFault):
        raise result
    return result


def integrate_segments(groups: Sequence[SegmentGroup], abs_tol: float,
                       max_evals: int = 10_000_000,
                       read_order: Sequence[int] | None = None
                       ) -> list[QuadResult | DomainFault | None]:
    """Integrate every segment of every group to absolute tolerance abs_tol.

    A group (fn, lo, hi, params) holds the segments [lo[i], hi[i]] of fn,
    which is called as fn(x) when params is None and as fn(x, p) otherwise,
    p holding params[i] at every point of segment i.  The results come in
    group order, one per segment: what integrate_callable returns for that
    segment alone, or the DomainFault it raises.  max_evals caps each
    segment.

    read_order, one position per segment, is the order in which a caller
    reads the results and stops at the first failure (a DomainFault or
    converged=False).  A segment placed after a failed one is never read,
    so it stops within a round of that failure; its result is None unless
    it had finished.
    """
    owner, param, lo, hi = [], [], [], []
    for g, (_, glo, ghi, gparams) in enumerate(groups):
        for i, (a, b) in enumerate(zip(glo, ghi, strict=True)):
            if not (abs(a) <= _MAX_LIMIT and abs(b) <= _MAX_LIMIT):
                raise ValueError(f"integration limits [{a!r}, {b!r}] must be finite and "
                                 f"at most {_MAX_LIMIT!r} in magnitude")
            if not a < b:
                raise ValueError(f"need lo < hi, got [{a!r}, {b!r}]")
            owner.append(g)
            param.append(None if gparams is None else gparams[i])
            lo.append(a)
            hi.append(b)
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")
    count = len(lo)
    first_batch = _INITIAL_SPLIT * _XK.size
    if max_evals < first_batch:
        return [QuadResult(value=math.nan, error_estimate=math.inf, evaluations=0,
                           converged=False) for _ in range(count)]
    position = [0] * count if read_order is None else list(read_order)
    cutoff = math.inf   # read position of the first failure so far
    rule = _Rule([group[0] for group in groups], owner, param)
    results: list[QuadResult | DomainFault | None] = [None] * count
    evals = [first_batch] * count
    frozen_value = [0.0] * count
    frozen_error = [0.0] * count
    frozen_abs = [0.0] * count

    def finish(s, block, converged, err_sum=None):
        nonlocal cutoff
        if err_sum is None:
            err_sum = float(block[3].sum())
        results[s] = QuadResult(value=float(block[2].sum()) + frozen_value[s],
                                error_estimate=err_sum + frozen_error[s],
                                evaluations=evals[s], converged=converged)
        if not converged:
            cutoff = min(cutoff, position[s])

    # The frontier holds one block of columns (a, b, value, error, roundoff
    # floor) per live segment, in segment order.  A bisected panel's left
    # child takes its column and the right child is appended to the block,
    # so each block keeps the panel order, and the sums, of a one-segment
    # run.  Each round's children are the columns of `kids`; an entry of
    # `carried` is (segment, block, first and end child column, split): the
    # first split.size children replace the split columns, the rest are
    # appended.  The starting panels are children appended to empty blocks.
    lo_arr = np.array(lo, dtype=float)
    hi_arr = np.array(hi, dtype=float)
    # np.linspace(lo, hi, _INITIAL_SPLIT + 1) bit for bit, at a third of its cost.
    edges = _SLOTS * ((hi_arr - lo_arr) / _INITIAL_SPLIT)[:, None] + lo_arr[:, None]
    edges[:, -1] = hi_arr
    kids = np.empty((5, count, _INITIAL_SPLIT))
    kids[0] = edges[:, :-1]
    kids[1] = edges[:, 1:]
    kids = kids.reshape(5, -1)
    panels = kids[:, :0]
    rows = [(s, s * _INITIAL_SPLIT, (s + 1) * _INITIAL_SPLIT) for s in range(count)]
    carried = [(s, panels, r0, r1, _NONE) for s, r0, r1 in rows]
    at = _NONE
    stuck: dict[int, np.ndarray] = {}   # segment -> fresh columns too narrow to bisect

    while carried:
        faults, narrow = rule.apply(kids, rows)
        if at.size:
            panels[1:, at] = _join([kids[1:, r0:(r0 + r1) // 2] for _, r0, r1 in rows], axis=1)
        for s, fault in faults.items():
            results[s] = fault
            cutoff = min(cutoff, position[s])
        pieces, live, sizes = [], [], []
        for s, block, r0, r1, split in carried:
            if s in faults or position[s] > cutoff:
                continue
            n = block.shape[1]
            added = r1 - r0 - split.size
            if narrow is not None and narrow[r0:r1].any():
                fresh = np.concatenate([split, n + np.arange(added)])
                stuck[s] = fresh[narrow[r0:r1]]
            pieces += (block, kids[:, r1 - added:r1])
            live.append(s)
            sizes.append(n + added)
        if not live:
            break
        panels = np.concatenate(pieces, axis=1)
        del pieces, block   # views that would keep the last frontier alive

        carried, splits, rows, children = [], [], [], 0
        end = 0
        for s, n in zip(live, sizes):
            start, end = end, end + n
            if position[s] > cutoff:
                continue
            block = panels[:, start:end]
            gone = stuck.pop(s, None)
            errs = block[3]
            err_sum = float(errs.sum())
            if err_sum + frozen_error[s] <= abs_tol:
                finish(s, block, True, err_sum)
            elif evals[s] >= max_evals or float(block[4].sum()) + frozen_error[s] > abs_tol:
                finish(s, block, False, err_sum)
            elif gone is not None:
                # Freeze the panels too narrow to bisect in floating point.  A
                # panel that passed this test once always passes, so only
                # fresh ones run it.
                frozen_value[s] += float(block[2, gone].sum())
                frozen_error[s] += float(block[3, gone].sum())
                frozen_abs[s] += float(np.abs(block[2, gone]).sum())
                keep = np.ones(n, dtype=bool)
                keep[gone] = False
                block = block[:, keep]
                if frozen_abs[s] > abs_tol or block.shape[1] == 0:
                    converged = frozen_abs[s] <= abs_tol and frozen_error[s] <= abs_tol
                    finish(s, block, converged)
                else:
                    carried.append((s, block, children, children, _NONE))
            else:
                # Bisect the subset carrying at least half of the segment's error.
                order = errs.argsort()[::-1]
                cum = errs[order].cumsum()
                split = order[:int(cum.searchsorted(0.5 * err_sum)) + 1]
                if evals[s] + 2 * split.size * _XK.size > max_evals:
                    allowed = max(0, (max_evals - evals[s]) // (2 * _XK.size))
                    if allowed == 0:
                        finish(s, block, False, err_sum)
                        continue
                    split = split[:allowed]
                k = split.size
                evals[s] += 2 * k * _XK.size
                splits.append(split + start)
                rows.append((s, children, children + 2 * k))
                carried.append((s, block, children, children + 2 * k, split))
                children += 2 * k

        at = _NONE
        if splits:
            at = _join(splits)
            left = panels[0, at]
            right = panels[1, at]
            mid = 0.5 * (left + right)
            # Segment by segment: the left children, then the right ones.
            kids = np.empty((5, children))
            if len(rows) == 1:   # the same columns; a lone segment's rounds are frequent
                np.concatenate([left, mid], out=kids[0])
                np.concatenate([mid, right], out=kids[1])
            else:
                sides = [slice(r0 // 2, r1 // 2) for _, r0, r1 in rows]
                np.concatenate([part for i in sides for part in (left[i], mid[i])], out=kids[0])
                np.concatenate([part for i in sides for part in (mid[i], right[i])], out=kids[1])
    return results


class _Rule:
    """The 21-point rule over the columns of a panel batch, one call per integrand."""

    def __init__(self, fns, owner, param):
        self.fns = fns
        self.owner = owner
        self.param = param

    def apply(self, panels, rows):
        """Fill value, error and roundoff floor (rows 2-4) of every panel [a, b].

        rows lists (segment, first column, end column), contiguous and in
        segment order.  Returns the DomainFault of each segment whose
        integrand is not finite, and a mask of the panels too narrow to
        bisect (None when there are none).
        """
        faults = {}
        narrow = None
        first = 0
        while first < len(rows):
            last = first + 1
            while last < len(rows) and rows[last][2] - rows[first][1] <= _BATCH_PANELS:
                last += 1
            r0, r1 = rows[first][1], rows[last - 1][2]
            local = [(s, q0 - r0, q1 - r0) for s, q0, q1 in rows[first:last]]
            first = last
            a = panels[0, r0:r1]
            b = panels[1, r0:r1]
            mid = 0.5 * (a + b)
            tight = (mid <= a) | (mid >= b)
            if np.count_nonzero(tight):
                if narrow is None:
                    narrow = np.zeros(panels.shape[1], dtype=bool)
                narrow[r0:r1] = tight
            half = 0.5 * (b - a)
            faults.update(self._block(panels[2:, r0:r1], mid, half, local))
        return faults, narrow

    def _block(self, out, mid, half, rows):
        fx = self._evaluate(mid, half, rows)
        resabs = _sums(np.abs(fx), _WK, rows)
        faults = {}
        if not math.isfinite(resabs.sum()):
            # A non-finite f makes the sum non-finite; only then scan the points.
            # The faulted segments' results are dropped; zeroing their f keeps
            # the rest of the block's arithmetic finite.
            fx = fx.copy()
            bad = ~np.isfinite(fx)
            for s, q0, q1 in rows:
                if bad[q0:q1].any():
                    r, c = np.argwhere(bad[q0:q1])[0]
                    where = mid[q0 + r] + half[q0 + r] * _XK[c]
                    faults[s] = DomainFault(
                        f"integrand evaluated to a non-finite value at {where!r}")
                    fx[q0:q1] = 0.0
                    resabs[q0:q1] = 0.0
        kg = _sums(fx, _WKG, rows)
        resk = kg[:, 0]
        resg = kg[:, 1]
        dev = fx - 0.5 * resk[:, None]
        resasc = _sums(np.abs(dev, out=dev), _WK, rows)
        raw = np.abs(resk - resg) * half
        asc = resasc * half
        err = np.where(
            (asc != 0.0) & (raw != 0.0),
            asc * np.minimum(1.0, (200.0 * raw / np.where(asc == 0.0, 1.0, asc)) ** 1.5),
            raw,
        )
        np.multiply(resk, half, out=out[0])
        floor = np.multiply(10.0 * _EPS * resabs, half, out=out[2])
        np.maximum(err, floor, out=out[1])
        return faults

    def _evaluate(self, mid, half, rows):
        """f at every node, one call per run of rows sharing an integrand.

        A run longer than _BATCH_PANELS rows is cut into calls of that many,
        which bounds the integrand's temporaries.
        """
        s, q0, q1 = rows[0]
        if len(rows) == 1 and q1 - q0 <= _BATCH_PANELS:   # one call, with less overhead
            x = (mid[:, None] + half[:, None] * _XK).ravel()
            fn, p = self.fns[self.owner[s]], self.param[s]
            return (fn(x) if p is None else fn(x, np.full(x.size, p))).reshape(-1, _XK.size)
        parts = []
        for g, run in itertools.groupby(rows, key=lambda row: self.owner[row[0]]):
            run = list(run)
            start, end = run[0][1], run[-1][2]
            params = None
            if self.param[run[0][0]] is not None:
                params = np.repeat([self.param[s] for s, _, _ in run],
                                   [(q1 - q0) * _XK.size for _, q0, q1 in run])
            for r0 in range(start, end, _BATCH_PANELS):
                r1 = min(r0 + _BATCH_PANELS, end)
                x = (mid[r0:r1, None] + half[r0:r1, None] * _XK).ravel()
                if params is None:
                    parts.append(self.fns[g](x))
                else:
                    p = params[(r0 - start) * _XK.size:(r1 - start) * _XK.size]
                    parts.append(self.fns[g](x, p))
        return _join(parts).reshape(-1, _XK.size)


def _sums(m, weights, rows):
    """m @ weights in one BLAS call per segment, with the shape the segment
    has when it runs alone: BLAS's result for a row can depend on the number
    of rows in the call."""
    return _join([m[q0:q1] @ weights for _, q0, q1 in rows])


def _join(parts, axis=0):
    """np.concatenate(parts, axis), without the copy when there is one part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)
