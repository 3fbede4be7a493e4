"""One interval through the lockstep quadrature, the way the tests integrate it.

integrate_segments is the quadrature's only entry point.  The tests integrate
single intervals, and run a batch's segments one at a time as its reference,
through integrate_one.
"""

from zvar.expr import DomainFault
from zvar.quad import MIN_PANELS, QuadResult, integrate_segments


def integrate_one(fn, lo: float, hi: float, abs_tol: float,
                  max_evals: int = 10_000_000, start: int = MIN_PANELS,
                  grade: float = 1.0) -> QuadResult:
    """The one segment [lo, hi] of fn(x) from `start` panels of `grade`, alone in a call.

    Raises the segment's DomainFault.
    """
    result, = integrate_segments([(fn, (lo,), (hi,), None)], abs_tol, max_evals, read_order=[0],
                                 start_panels=[start], start_grades=[grade])
    if isinstance(result, DomainFault):
        raise result
    return result
