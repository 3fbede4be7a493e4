"""Bracket-level oracle: every sample F(b) of the infinite form against a reference.

F(b) = int_a^b f dx + int_b^{b+c} f(x) z(x - b) dx.  The running prefix has a
closed form for each family, and each window comes from mpmath.quad at 30
digits with the smooth taper written out again here, so the reference shares
no code with the package.  Each sample is the sum of its running segments,
each graded piece counted as one, and its window, each converged within
quad_tol; so a sample past k of them must lie within (k + 1) quad_tol of its
reference.  The grids start far out, step far past the window, or step far
below it; each range is drawn once from its lower half and once from its
upper half, on the log scale.
"""

import random

import mpmath
import pytest

from zvar import zeval
from zvar.expr import parse
from zvar.taper import make_smooth_taper
from zvar.zeval import EvalConfig, InfiniteIntegral, eval_infinite

C = 1.0   # taper width


def _taper(s):
    t = s / C
    return 1 - t ** 3 * (10 - 15 * t + 6 * t * t)


def _exp_family(rng):
    k, a = rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
    mk, ma = mpmath.mpf(k), mpmath.mpf(a)
    return (f"exp(-{k!r}*x)", a, lambda x: mpmath.exp(-mk * x),
            lambda b: (mpmath.exp(-mk * ma) - mpmath.exp(-mk * b)) / mk)


def _power_family(rng):
    p, a = rng.uniform(1.5, 3.0), rng.uniform(1.0, 3.0)
    mp, ma = mpmath.mpf(p), mpmath.mpf(a)
    return (f"x^-{p!r}", a, lambda x: x ** -mp,
            lambda b: (ma ** (1 - mp) - b ** (1 - mp)) / (mp - 1))


def _decade(rng, lo, hi, half):
    """10^e, e drawn from the lower (half 0) or upper (half 1) half of [lo, hi]."""
    return 10 ** (lo + (hi - lo) * (half + rng.random()) / 2)


FAMILIES = {"exp": _exp_family, "power": _power_family}
GRIDS = {
    "far-start": lambda rng, a, half: {"b_start": a + _decade(rng, 4.0, 7.0, half)},
    "wide-step": lambda rng, a, half: {"b_step": _decade(rng, 3.0, 6.0, half)},
    "step-below-window": lambda rng, a, half: {"b_step": C * _decade(rng, -3.0, -2.0, half),
                                               "b_count": 12},
}


@pytest.mark.parametrize("half", [0, 1])
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_sample_matches_its_reference(monkeypatch, family, grid, half):
    rng = random.Random(f"{family}-{grid}-{half}")
    integrand, a, f, prefix = FAMILIES[family](rng)
    cfg = EvalConfig(**GRIDS[grid](rng, a, half))
    ends = []   # the upper end of every running segment or graded piece
    engine = zeval.integrate_segments

    def recording(groups, *args, **kwargs):
        ends.extend(groups[0][2])
        return engine(groups, *args, **kwargs)

    monkeypatch.setattr(zeval, "integrate_segments", recording)
    result = eval_infinite(InfiniteIntegral(parse(integrand), a, make_smooth_taper(C)), cfg)
    assert len(result.samples) >= zeval.STABILITY_WINDOW
    with mpmath.workdps(30):
        for b, value in result.samples:
            mb = mpmath.mpf(b)
            window = mpmath.quad(lambda x: f(x) * _taper(x - mb), [mb, mb + C])
            segments = sum(1 for hi in ends if hi <= b)
            assert abs(value - (prefix(mb) + window)) <= (segments + 1) * cfg.quad_tol, (b, value)
