"""Adaptive proper-integral engine on finite intervals.

One engine integrates S segments in lockstep, each by QUADPACK's QAG
scheme (Piessens et al. 1983) with its own frontier, error budget and
evaluation count, as `scipy.integrate.quad_vec` does for the components
of a vector integrand.  A segment starts as its caller asks, at least
two panels; each round it splits its largest-error panels, the
fewest after which the error left is within what abs_tol still allows
(quad_vec's loop leaves abs_tol/8 instead), and at least one.  Where the
error is spread, every panel is a candidate, so the segment splits in
one round all that its tolerance asks for, as quad_vec does.  While one
panel holds more than half of the error, only the panels of at least
1/4096 of that panel's error are, so panels whose error is rounding
noise that bisection cannot shrink (near a pole) are not all split every
round.  A taken panel is bisected, unless its error is still more than
1/32 of its parent's: that bisection did not resolve it, so it is cut
into the quarters two bisections give, at their cost, and the level
between is never evaluated (QAG and quad_vec only bisect).  A panel
whose quarters could not hold their nodes (below) is only bisected.  At
an endpoint singularity no split resolves the end panel, so there the
quarters cost a little: ln x on [0, 1] at 1e-11 takes 4,148 evaluations,
where bisection alone takes 4,026.  The Gauss(30)/Kronrod(61) rule,
QUADPACK's highest-order QAG rule for smooth integrands, is then applied
to the children of every live segment in one vectorized batch, with one
integrand call per group of segments sharing an integrand, cut into
calls of at most 176 panels (10,736 points).  Only children are
evaluated: every other panel keeps its value and error from the round
that created it.  The Kronrod nodes are strictly interior, and no panel
is split into children too narrow to hold them in floating point (about
3,900 ulps), so only the first batch of a segment narrower than about
7,800 ulps can sample a panel's endpoints.  A caller may grade the
starting panels geometrically from lo to hi, and each result reports its
grade, the width ratio of its end panels, so that the next of a caller's
scaled copies of one shape can start as its predecessor ended.

The frontier is one set of panel columns tagged with a segment index, and
each round takes every decision for all segments at once with array
operations.  A segment's decisions and sums read only its own panels, in
an order its own rounds determine, and every sum is a reduction over one
row or one segment: a BLAS product's result for a row can depend on how
many rows share the call, a row reduction's cannot.  So a segment gets
the same result, bit for bit, in a batch of any size.  A caller that
reads the results in order and stops at the first failure can say so,
and the segments it would never read stop early.

A segment stops unconverged, with its best-effort value and error, when
- its pool's budget is spent.  No pool spends beyond its max_evals, so a
  pool that cannot pay for its segments' first batches returns them after
  zero evaluations;
- abs_tol is below roundoff.  Once the panels' roundoff floors (10 eps
  times the integral of |f| over each) exceed abs_tol together, no
  refinement can meet it (QUADPACK's ier=2);
- it picks a panel too narrow to split, whose halves could not hold their
  nodes (ier=3).
A non-finite integrand value fails its own segment only, with a
DomainFault that names the abscissa.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .expr import DomainFault

__all__ = ["MAX_LIMIT", "MIN_PANELS", "PANEL_EVALS", "QuadResult", "integrate_segments"]

# Gauss-Kronrod 30-61 pair (QUADPACK's QK61), nodes sorted ascending.  The
# half tables run from the outermost node in; the Gauss nodes are every
# other one, from the second.  WG is aligned with the Kronrod nodes and zero
# where the node is Kronrod-only, the centre included: the 30-point Gauss
# rule has no centre node.
_XK_HALF = np.array([
    0.999484410050490637571325895705811,
    0.996893484074649540271630050918695,
    0.991630996870404594858628366109486,
    0.983668123279747209970032581605663,
    0.973116322501126268374693868423707,
    0.960021864968307512216871025581798,
    0.944374444748559979415831324037439,
    0.926200047429274325879324277080474,
    0.905573307699907798546522558925958,
    0.882560535792052681543116462530226,
    0.857205233546061098958658510658944,
    0.829565762382768397442898119732502,
    0.799727835821839083013668942322683,
    0.767777432104826194917977340974503,
    0.733790062453226804726171131369528,
    0.697850494793315796932292388026640,
    0.660061064126626961370053668149271,
    0.620526182989242861140477556431189,
    0.579345235826361691756024932172540,
    0.536624148142019899264169793311073,
    0.492480467861778574993693061207709,
    0.447033769538089176780609900322854,
    0.400401254830394392535476211542661,
    0.352704725530878113471037207089374,
    0.304073202273625077372677107199257,
    0.254636926167889846439805129817805,
    0.204525116682309891438957671002025,
    0.153869913608583546963794672743256,
    0.102806937966737030147096751318001,
    0.051471842555317695833025213166723,
])
_WK_HALF = np.array([
    0.001389013698677007624551591226760,
    0.003890461127099884051267201844516,
    0.006630703915931292173319826369750,
    0.009273279659517763428441146892024,
    0.011823015253496341742232898853251,
    0.014369729507045804812451432443580,
    0.016920889189053272627572289420322,
    0.019414141193942381173408951050128,
    0.021828035821609192297167485738339,
    0.024191162078080601365686370725232,
    0.026509954882333101610601709335075,
    0.028754048765041292843978785354334,
    0.030907257562387762472884252943092,
    0.032981447057483726031814191016854,
    0.034979338028060024137499670731468,
    0.036882364651821229223911065617136,
    0.038678945624727592950348651532281,
    0.040374538951535959111995279752468,
    0.041969810215164246147147541285970,
    0.043452539701356069316831728117073,
    0.044814800133162663192355551616723,
    0.046059238271006988116271735559374,
    0.047185546569299153945261478181099,
    0.048185861757087129140779492298305,
    0.049055434555029778887528165367238,
    0.049795683427074206357811569379942,
    0.050405921402782346840893085653585,
    0.050881795898749606492297473049805,
    0.051221547849258772170656282604944,
    0.051426128537459025933862879215781,
])
_WG_HALF = np.zeros(30)
_WG_HALF[1::2] = [
    0.007968192496166605615465883474674,
    0.018466468311090959142302131912047,
    0.028784707883323369349719179611292,
    0.038799192569627049596801936446348,
    0.048402672830594052902938140422808,
    0.057493156217619066481721689402056,
    0.065974229882180495128128515115962,
    0.073755974737705206268243850022191,
    0.080755895229420215354694938460530,
    0.086899787201082979802387530715126,
    0.092122522237786128717632707087619,
    0.096368737174644259639468626351810,
    0.099593420586795267062780282103569,
    0.101762389748405504596428952168554,
    0.102852652893558840341285636705415,
]

_XK = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [0.051494729429451567558340433647099], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, [0.0], _WG_HALF[::-1]])

_EPS = np.finfo(float).eps
MIN_PANELS = 2   # a segment's fewest starting panels: never judge the span by one panel
PANEL_EVALS = _XK.size   # integrand evaluations per panel evaluated
_CANDIDATE_CUT = 4096   # while one panel holds most of the error, candidates hold 1/4096 of it
# Points per integrand call, which bounds its temporaries below glibc's 128 KB
# mmap threshold, in whole panels: 176 of 61 nodes.
_BATCH_PANELS = 10_752 // PANEL_EVALS
_RULE_PANELS = 8 * _BATCH_PANELS   # panels per application of the rule's sums
# Quarters of a panel _NARROW of its magnitude wide keep their outer nodes
# 2^-50 of it, 4 ulps or more, inside their ends (2^-36.1 for 61 nodes).
_NARROW = 2**-47 / (1.0 - _XK[-1])
MAX_LIMIT = sys.float_info.max / 2   # so a + b, and every panel midpoint, stays finite
_GRADES = math.exp(-600.0), math.exp(600.0)   # a starting grade's range: expm1(7/6 600) is finite

# Segments sharing one integrand: (fn, lo, hi, params), see integrate_segments.
SegmentGroup = tuple[Callable[..., np.ndarray], Sequence[float], Sequence[float],
                     Sequence[float] | None]


class QuadResult(NamedTuple):
    """One segment's result: a named tuple, as an engine call builds one per segment."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    panels: int   # the panels its partition ended with, 0 if it never started
    grade: float = 1.0   # width of its panel at hi over that of its panel at lo


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_segments(groups: Sequence[SegmentGroup], abs_tol: float,
                       max_evals: int | list[int] | tuple[int, ...] = 10_000_000,
                       read_order: Sequence[int] | None = None,
                       pools: Sequence[int] | None = None,
                       start_panels: Sequence[int] | None = None,
                       start_grades: Sequence[float] | None = None
                       ) -> list[QuadResult | DomainFault]:
    """Integrate every segment of every group to absolute tolerance abs_tol.

    A group (fn, lo, hi, params) holds the segments [lo[i], hi[i]] of fn,
    which is called as fn(x) when params is None and as fn(x, p) otherwise,
    p holding params[i] at every point of segment i.  The results come in
    group order, one per segment: a QuadResult, or the DomainFault of a
    segment where fn is not finite, whose `evaluations` attribute holds the
    evaluations spent before it.

    pools, one id per group (0 for all by default), puts each group's
    segments in a budget pool, and max_evals, one int or a list or tuple
    with one per pool id, caps each pool's evaluations.  A pool that cannot
    pay its segments' first batches starts none of them.  Each round, its
    segments take the bisections they ask for from what it has left, in
    read order, so a finished segment's unspent share goes to the rest.  A
    segment gets bit for bit what it gets alone in a call wherever its
    pool's budget does not bind, and always when alone in its pool.

    start_panels, one count per segment in group order (MIN_PANELS, two,
    for all by default, and never fewer), cuts each segment into that many
    equal panels to start with; its first batch, start_panels times
    PANEL_EVALS evaluations, is counted in its evaluations and its pool's
    budget.  A segment gets the same result, bit for bit, from the same
    start whatever else the call holds.

    start_grades, one grade g per segment (1 for all by default), grades
    the n > MIN_PANELS starting panels of a segment: panel k is
    g^(k/(n-1)) times as wide as panel 0, |ln g| held at 600, unless one
    could not hold its nodes.  A result's `grade` is its final partition's;
    one that never split reports the grade it started with, 1 on equal
    panels.

    read_order, one position per segment, is the order in which a caller
    reads the results of each pool and stops at the first failure (a
    DomainFault or converged=False).  A segment placed after a failed one
    of its pool is never read, so it stops in the round of that failure,
    unconverged, with its best-effort value and the evaluations it spent,
    unless it had finished.

    Overflow, invalid operations and divides by zero raise no warning, in
    fn too: a non-finite value of fn fails its segment with a DomainFault,
    and a sum past the float range leaves its segment unconverged.
    """
    lo, hi, first, pool = [], [], [0], []   # first: each group's first segment, then the count
    for (_, glo, ghi, _), p in zip(groups, [0] * len(groups) if pools is None else pools,
                                   strict=True):
        for a, b in zip(glo, ghi, strict=True):
            if not (abs(a) <= MAX_LIMIT and abs(b) <= MAX_LIMIT):
                raise ValueError(f"integration limits [{a!r}, {b!r}] must be finite and "
                                 f"at most {MAX_LIMIT!r} in magnitude")
            if not a < b:
                raise ValueError(f"need lo < hi, got [{a!r}, {b!r}]")
            lo.append(a)
            hi.append(b)
            pool.append(p)
        first.append(len(lo))
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")
    count = len(lo)
    split = np.maximum(np.array([MIN_PANELS] * count if start_panels is None else start_panels,
                                dtype=np.int64), MIN_PANELS)
    spent = split * _XK.size   # what each segment has spent, from its first batch on
    if not isinstance(max_evals, (list, tuple)):
        max_evals = [max_evals] * (max(pool, default=0) + 1)
    pool_of = pool = np.array(pool, dtype=np.intp)
    # Bisections each pool affords once it has paid for its first batches,
    # negative if it cannot (min: so budgets fit the int64 counts).  slack is
    # at most what any pool with live segments has left.
    caps = [(min(cap, sys.maxsize) - int(paid)) // (2 * _XK.size)
            for cap, paid in zip(max_evals, np.bincount(pool, spent, len(max_evals)).tolist())]
    slack = min([cap for cap in caps if cap >= 0], default=0)
    cutoff = np.array([math.inf] * len(caps))   # each pool's read position of its first failure
    value = np.zeros(count)
    error = np.zeros(count)
    converged = np.zeros(count, dtype=bool)
    final = np.zeros(count, dtype=np.int64)
    faults: dict[int, DomainFault] = {}
    bisections = np.zeros(count, dtype=np.int64)
    # Per live segment: its id, pool, read position, limits, and whether it
    # cannot split: it picked a panel too narrow to split, or its pool is empty.
    ids = np.arange(count)
    position = np.zeros(count) if read_order is None else np.asarray(read_order, dtype=float)
    lo_arr = np.array(lo, dtype=float)
    hi_arr = np.array(hi, dtype=float)
    if min(caps) < 0:   # a segment that never starts has no value, and no error bound
        started = np.array(caps)[pool] >= 0
        ids = np.flatnonzero(started)
        spent[~started] = 0
        pool, position = pool[ids], position[ids]
        value[:], error[:] = math.nan, math.inf
    narrow = np.zeros(ids.size, dtype=bool)

    # The frontier is one set of columns (a, b, value, error, roundoff floor,
    # parent's error: inf for a starting panel) with a live-segment index
    # each, sorted by index and then by descending error.  A round splits the
    # first columns of each segment and merges the evaluated children in with
    # one stable sort, so equal errors keep the order that the segment's own
    # rounds gave them.  The starting panels are the first children of an
    # empty frontier, the edges of n of them np.linspace(lo, hi, n + 1) bit for
    # bit, at a third of its cost: k * ((hi - lo) / n) + lo, and hi.  Graded
    # ones have edge k at lo + (hi - lo) expm1(k t) / expm1(n t), t = ln g / (n - 1).
    n, seg_lo, seg_hi = split[ids], lo_arr[ids], hi_arr[ids]
    kid_seg = np.arange(ids.size).repeat(n)
    last = np.cumsum(n) - 1   # each segment's last panel
    slot = np.arange(kid_seg.size) - (last + 1 - n)[kid_seg]
    kids = np.empty((6, kid_seg.size))
    lo_kid = seg_lo[kid_seg]
    kids[0] = slot * ((seg_hi - seg_lo) / n)[kid_seg] + lo_kid
    grade = np.ones(count)   # each segment's starting grade, then its final one
    if start_grades is not None:
        g = np.clip(np.asarray(start_grades, dtype=float)[ids], *_GRADES)
        t = np.log(g) / (n - 1)   # 0 for a grade of 1, nan for one that is not a number
        t[n <= MIN_PANELS] = 0.0
        if np.count_nonzero(t):
            edges = lo_kid + (seg_hi - seg_lo)[kid_seg] * (np.expm1(slot * t[kid_seg])
                                                          / np.expm1(n * t)[kid_seg])
            right = np.append(edges[1:], 0.0)
            right[last] = seg_hi
            t[kid_seg[~_holds_nodes(edges, right)]] = 0.0   # equal panels where a graded one fails
            kids[0] = np.where(t[kid_seg] != 0.0, edges, kids[0])
            grade[ids] = np.where(t != 0.0, g, 1.0)
    kids[1, :-1] = kids[0, 1:]
    kids[1, last] = seg_hi
    kids[5] = math.inf
    panels, seg = kids[:, :0], kid_seg[:0]
    pick = np.zeros(0, dtype=np.intp)   # the frontier columns split last round
    small = np.min_scalar_type(ids.size)   # a stable sort by index of this type is a radix sort
    rule = _Rule(groups, first)

    while ids.size:
        new_faults = rule.apply(kids, kid_seg, ids)
        # Merge the kids in.  Their parents sort past every segment, and are cut.
        panels = np.concatenate([panels, kids], axis=1)
        seg = np.concatenate([seg, kid_seg])
        key = seg.astype(small)
        key[pick] = ids.size
        order = np.lexsort((-panels[3], key))[:seg.size - pick.size]
        panels, seg = panels.take(order, axis=1), seg[order]
        starts = np.searchsorted(seg, np.arange(ids.size))
        value_sum, err, floor_sum = np.add.reduceat(panels[2:5], starts, axis=1)
        done = err <= abs_tol
        stop = ~done & (~(floor_sum <= abs_tol) | narrow)
        if new_faults:
            lost = np.zeros(ids.size, dtype=bool)
            lost[list(new_faults)] = True
            for i, fault in new_faults.items():
                fault.evaluations = int(spent[ids[i]] + 2 * _XK.size * bisections[ids[i]])
                faults[int(ids[i])] = fault
            done &= ~lost
            stop |= lost
        end = done | stop
        if np.count_nonzero(end):
            if np.count_nonzero(stop):
                np.minimum.at(cutoff, pool[stop], position[stop])
                stop |= ~done & (position > cutoff[pool])
                end = done | stop
            out = ids[end]
            value[out] = value_sum[end]
            error[out] = err[end]
            spent[out] += 2 * _XK.size * bisections[out]
            converged[out] = done[end]
            final[out] = np.bincount(seg, minlength=ids.size)[end]
            grown = end & (bisections[ids] > 0)
            if np.count_nonzero(grown):   # the widths of its one panel at hi and at lo
                at = np.flatnonzero(grown[seg])
                x0, x1, own = panels[0, at], panels[1, at], ids[seg[at]]
                grade[ids[grown]] = (x1 - x0)[x1 == hi_arr[own]] / (x1 - x0)[x0 == lo_arr[own]]
            if np.count_nonzero(end) == end.size:
                break
            live = ~end
            keep = live[seg]
            panels = np.compress(keep, panels, axis=1)
            seg = (np.cumsum(live) - 1)[seg[keep]]
            ids, pool, position = ids[live], pool[live], position[live]
            narrow, err = narrow[live], err[live]
            starts = np.searchsorted(seg, np.arange(ids.size))

        # Split each segment's largest-error panels, its first columns: the
        # fewest after which the error left is within abs_tol, so the panels
        # left could pass the done test as they are.  While one panel holds
        # more than half of the error, or the sum is not finite, only panels
        # of at least 1/_CANDIDATE_CUT of the largest are candidates; else
        # every panel is.  A segment's candidates, a prefix of its run, are
        # summed along its own row of a padded table, so that no other
        # segment's error enters them.
        top = panels[3, starts]
        spread = (top <= 0.5 * err) & (err < math.inf)
        cand = panels[3] >= np.where(spread, 0.0, top / _CANDIDATE_CUT)[seg]
        cand_seg = seg[cand]
        large = np.bincount(cand_seg, minlength=ids.size)
        table = np.zeros((ids.size, large.max()))
        table[cand_seg, np.flatnonzero(cand) - starts[cand_seg]] = panels[3, cand]
        # Columns before the first whose running sum leaves at most the
        # allowance; a non-finite error leaves none.  A bisecting segment
        # always takes at least one panel.
        need = (table.cumsum(axis=1) < (err - abs_tol)[:, None]).sum(axis=1)
        take = np.maximum(np.minimum(need + 1, large), 1)
        # A round spends at most two bisections per frontier column, so only
        # where slack is below that can a pool's budget bind.  Then each
        # segment takes, at most, what its pool has left less what those
        # before it in read order ask, and one that gets nothing stops.
        tight = slack < 2 * seg.size
        if tight:
            left = caps - np.bincount(pool_of, bisections, len(caps)).astype(np.int64)
            slack = int(left[pool].min())
            take = np.clip(_room(take, left, pool, position), 0, take)
            narrow |= take == 0
        slack -= 2 * seg.size
        run_end = np.cumsum(take)
        pick = np.arange(run_end[-1]) + (starts + take - run_end).repeat(take)
        # A picked panel its last bisection left unresolved is cut in four, if
        # its quarters hold their nodes and its segment can afford that for all
        # such panels.  A segment that picked one whose halves cannot splits
        # nothing: its picks stay in the frontier, and it stops next round.
        chosen, owner = panels[:, pick], seg[pick]
        a, b = chosen[:2]
        mid = 0.5 * (a + b)
        cuts = np.array([a, 0.5 * (a + mid), mid, 0.5 * (mid + b), b]).T   # a panel per row
        four = chosen[3] > chosen[5] / 32
        # Only a panel narrower than _NARROW of its magnitude (past the
        # subnormals) can have quarters that do not hold their nodes.
        if np.count_nonzero(b - a < _NARROW * np.maximum(-a, b) + 2**-1000):
            four &= _holds_nodes(cuts[:, :-1], cuts[:, 1:]).all(axis=1)
            stuck = ~four & ~_holds_nodes(cuts[:, :3:2], cuts[:, 2::2]).all(axis=1)
            narrow[owner[stuck]] = True
            take[narrow] = 0
            split = ~narrow[owner]
            pick, chosen, owner = pick[split], chosen[:, split], owner[split]
            cuts, four = cuts[split], four[split]
        extra = np.bincount(owner[four], minlength=ids.size)
        if tight:   # a segment's quarters come all, or none
            extra *= extra <= _room(extra, left - np.bincount(pool, take, left.size), pool,
                                    position)
        four &= extra[owner] > 0
        bisections[ids] += take + extra
        slots = four[:, None] | [True, False, True, False, True]   # the cuts each panel keeps
        pieces = 2 + 2 * four
        kids = np.empty((6, pieces.sum()))   # each picked panel's children, left to right
        kids[0] = cuts[:, :-1][slots[:, :-1]]
        kids[1] = cuts[:, 1:][slots[:, 1:]]
        kids[5] = chosen[3].repeat(pieces)
        kid_seg = owner.repeat(pieces)
    return [faults[s] if s in faults else QuadResult(*row)
            for s, row in enumerate(zip(value.tolist(), error.tolist(), spent.tolist(),
                                        converged.tolist(), final.tolist(), grade.tolist()))]


def _room(asked, left, pool, position):
    """Per live segment, what its pool has left less what those before it in read order ask."""
    order = np.lexsort((position, pool))
    before = np.cumsum(asked[order]) - asked[order]   # what the segments before ask, any pool
    room = left[pool]
    room[order] -= before - before[np.searchsorted(pool[order], pool[order])]
    return room


class _Rule:
    """The 61-point rule over the columns of a panel batch, one call per integrand."""

    def __init__(self, groups, first):
        self.fns = [fn for fn, _, _, _ in groups]
        self.first = np.array(first)
        self.param = [None if p is None else np.asarray(p, dtype=float)
                      for _, _, _, p in groups]

    def apply(self, panels, seg, ids):
        """Fill value, error and roundoff floor (rows 2-4) of every panel [a, b].

        Segment ids[seg[i]] owns panel i; seg is in ascending order.  Returns
        the DomainFault of each index in seg whose integrand is not finite,
        at its first such abscissa.  The panels are taken _RULE_PANELS at a
        time, which bounds the temporaries of a round however many it holds.
        """
        if seg.size <= _RULE_PANELS:
            return self._apply(panels, seg, ids)
        faults = {}
        for r0 in range(0, seg.size, _RULE_PANELS):
            block = slice(r0, r0 + _RULE_PANELS)
            for s, fault in self._apply(panels[:, block], seg[block], ids).items():
                faults.setdefault(s, fault)
        return faults

    def _apply(self, panels, seg, ids):
        a, b = panels[0], panels[1]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fx = np.empty((a.size, _XK.size))
        owner = ids[seg]
        bounds = np.searchsorted(owner, self.first)
        for g, fn in enumerate(self.fns):
            # A group's panels are cut into calls of at most _BATCH_PANELS,
            # which bounds the integrand's temporaries.
            for r0 in range(bounds[g], bounds[g + 1], _BATCH_PANELS):
                r1 = min(r0 + _BATCH_PANELS, bounds[g + 1])
                x = (mid[r0:r1, None] + half[r0:r1, None] * _XK).ravel()
                if self.param[g] is None:
                    fx[r0:r1] = fn(x).reshape(-1, _XK.size)
                else:
                    p = np.repeat(self.param[g][owner[r0:r1] - self.first[g]], _XK.size)
                    fx[r0:r1] = fn(x, p).reshape(-1, _XK.size)
        # Each sum is a row reduction, whose value for a row does not depend on
        # the other rows; a BLAS product's can depend on their number.
        resabs = np.vecdot(np.abs(fx), _WK)
        faults = {}
        if not math.isfinite(resabs.sum()):
            # A non-finite f makes the sum non-finite; only then scan the points.
            # The faulted segments' results are dropped; zeroing their f keeps
            # the rest of the arithmetic finite.
            bad = ~np.isfinite(fx)
            at = np.flatnonzero(bad)
            faulted, first = np.unique(seg[at // _XK.size], return_index=True)
            for s, (r, c) in zip(faulted.tolist(), zip(*np.divmod(at[first], _XK.size))):
                where = float(mid[r] + half[r] * _XK[c])
                faults[s] = DomainFault(f"integrand evaluated to a non-finite value at {where!r}")
            fx[bad] = 0.0
            resabs = np.vecdot(np.abs(fx), _WK)
        resk = np.vecdot(fx, _WK)
        resg = np.vecdot(fx, _WG)
        dev = np.subtract(fx, 0.5 * resk[:, None], out=fx)
        resasc = np.vecdot(np.abs(dev, out=dev), _WK)
        raw = np.abs(resk - resg) * half
        asc = resasc * half
        flat = asc == 0.0
        err = np.where(flat, raw,
                       asc * np.minimum(1.0, (200.0 * raw / np.where(flat, 1.0, asc)) ** 1.5))
        np.multiply(resk, half, out=panels[2])
        floor = np.multiply(10.0 * _EPS * resabs, half, out=panels[4])
        np.maximum(err, floor, out=panels[3])
        return faults


def _holds_nodes(a, b):
    """Whether the Kronrod nodes of each panel [a, b] lie strictly inside it."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # mid + half*x rounds monotonically in x, so the outer nodes decide.
    return (mid + half * _XK[0] > a) & (mid + half * _XK[-1] < b)
