"""A checked-in table of pathological single segments, held to closed forms.

Each row pins what the engine spends on one segment and whether it
converges, so a change to the rule or to the refinement shows up as a
changed row, to be argued.  Every result with a closed form must lie
within its error estimate of it.  The last column keeps what the 10/21
Gauss-Kronrod pair spent from six panels, for comparison.
"""

import numpy as np
import pytest

from zvar.expr import compile_expr, parse
from zvar.quad import integrate_segments

from one_segment import integrate_one

# integrand, lo, hi, abs_tol, closed form (None: not integrable), converged,
# evaluations, evaluations with the 21-point rule
TABLE = [
    ("tan(x)", 1.0, 2.0, 1e-10, None, False, 5124, 2142),
    ("x^(-1/2)", 0.0, 1.0, 1e-10, 2.0, True, 8296, 2856),
    ("ln(x)", 0.0, 1.0, 1e-11, -1.0, True, 4148, 1596),
    ("abs(x-0.3)^(-0.7)", 0.0, 1.0, 1e-10, (0.3**0.3 + 0.7**0.3) / 0.3, False, 5490, 1932),
    ("abs(x-0.37)", 0.0, 1.0, 1e-10, (0.37**2 + 0.63**2) / 2, True, 1586, 672),
]


@pytest.mark.parametrize("text, lo, hi, tol, truth, converged, evaluations, _",
                         TABLE, ids=[row[0] for row in TABLE])
def test_pathological_segment(text, lo, hi, tol, truth, converged, evaluations, _):
    r = integrate_one(compile_expr(parse(text), ("x",)), lo, hi, tol)
    assert (r.converged, r.evaluations) == (converged, evaluations)
    if truth is not None:
        assert abs(r.value - truth) <= r.error_estimate


def test_steps_converge_within_their_estimate():
    # (x >= c) on [0, 1] for c = i/998, i = 1..997, in one call.  A jump
    # between a first-batch panel's end and its outermost node is not seen:
    # the sums agree on a value without it.  That band is 4.3e-3 of a
    # half-width for 21 nodes, where 68 of these steps converged outside
    # their estimate, and 5.2e-4 for 61, where none does.  A jump inside
    # the narrower band is still missed (x >= 0.99995 certifies 0).
    c = np.arange(1, 998) / 998

    def step(x, c):
        return (x >= c).astype(float)

    results = integrate_segments([(step, [0.0] * c.size, [1.0] * c.size, c)], 1e-10)
    assert all(r.converged for r in results)
    assert all(abs(r.value - (1.0 - ci)) <= r.error_estimate for r, ci in zip(results, c))
    # A mean of 3,945 a step; 1,329 with the 21-point rule.
    assert sum(r.evaluations for r in results) == 3_932_914
