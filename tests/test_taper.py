"""Taper construction and moment-matching tests.

Moment residuals are verified against mpmath's independent integrator so
the in-package quadrature is never the only witness for its own tapers.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from zvar import taper
from zvar.expr import DomainFault, compile_expr, const, cos, evaluate, parse, simplify, sin, var
from zvar.taper import (
    MOMENT_TOL,
    TaperError,
    TerminationFunction,
    check_moments,
    make_matched_trig,
    make_smooth_taper,
    parse_boundary_spec,
    parse_taper_spec,
)
from zvar.taper import _moment_tol
from zvar.verify import spec_object
from zvar.zeval import FiniteIntegral

from one_segment import integrate_one


def _mp_moment(z, omega, trig):
    f = mpmath.sin if trig == "sin" else mpmath.cos
    return float(mpmath.quad(lambda s: f(omega * float(s)) * z(float(s)), [0, z.width]))


def test_smooth_taper_endpoints_and_midpoint():
    z = make_smooth_taper(1.0)
    assert abs(z(0.0) - 1.0) < 1e-12
    assert abs(z(1.0)) < 1e-12
    # symmetry of the quintic forces the midpoint value
    assert abs(z(0.5) - 0.5) < 1e-12
    # endpoint derivatives vanish
    from zvar.expr import differentiate

    dz = differentiate(z.body, "s")
    assert abs(evaluate(dz, {"s": 0.0})) < 1e-12
    assert abs(evaluate(dz, {"s": 1.0})) < 1e-12


def test_smooth_taper_scaling():
    z1 = make_smooth_taper(1.0)
    z2 = make_smooth_taper(2.0)
    for s in np.linspace(0.0, 2.0, 41):
        assert abs(z2(s) - z1(s / 2.0)) < 1e-15


def test_smooth_taper_rejects_bad_width():
    for _ in range(2):   # a width that fails is not kept: it fails on every call
        with pytest.raises(TaperError):
            make_smooth_taper(0.0)
        with pytest.raises(TaperError):
            make_smooth_taper(-1.0)
        # A non-finite width is refused before it reaches the cache or the
        # quintic, which once divided inf by inf.
        for c in (math.inf, -math.inf, math.nan):
            with pytest.raises(TaperError, match=rf"^taper width must be positive and finite, "
                                                 rf"got {c!r}$"):
                make_smooth_taper(c)


def test_smooth_taper_is_built_once_per_width():
    z = make_smooth_taper(1)
    assert z is make_smooth_taper(1.0)
    assert z.width == 1.0 and type(z.width) is float
    assert make_smooth_taper(2.0) is not z


def _moments_one_at_a_time(body, omega, c, tol=MOMENT_TOL):
    # (cos, sin) tone moments of body, one quadrature call each
    s = var("s")
    results = [integrate_one(compile_expr(kernel * body, ("s",)), 0.0, c, tol)
               for kernel in (cos(const(omega) * s), sin(const(omega) * s))]
    assert all(r.converged for r in results)
    return tuple(r.value for r in results)


@pytest.mark.parametrize("omega,c", [(1.0, 1.0), (0.5, 1.0), (2.7, 1.0), (3.9, 2.0)])
def test_matched_trig_equals_one_quadrature_at_a_time(omega, c):
    # The six moments run as one lockstep call; each must be what its own
    # quadrature call gives, so the body and residuals are bit for bit
    # those of the construction with six separate calls.
    z = make_matched_trig(omega, c)
    base = make_smooth_taper(c).body
    s = var("s")
    harmonics = [sin(const(2.0 * math.pi / c) * s), sin(const(4.0 * math.pi / c) * s)]
    (c1, s1), (c2, s2), (c0, s0) = (
        _moments_one_at_a_time(body, omega, c)
        for body in (base * harmonics[0], base * harmonics[1], base))
    a1, a2 = (float(v) for v in np.linalg.solve(np.array([[c1, c2], [s1, s2]]),
                                                 np.array([-c0, 1.0 / omega - s0])))
    assert z.body == simplify(base * (const(1.0) + const(a1) * harmonics[0]
                                      + const(a2) * harmonics[1]))
    # A slow tone's correction overshoots 1 by hundreds (omega=0.5: 310), so
    # its moments are checked to MOMENT_TOL relative to max |z|.
    cos_m, sin_m = _moments_one_at_a_time(z.body, omega, c, _moment_tol(z))
    rc, rs = check_moments(z, omega)
    assert (rc, rs) == (cos_m, sin_m - 1.0 / omega)
    assert abs(rc) < 1e-12 and abs(rs) < 1e-12
    assert abs(_mp_moment(z, omega, "cos")) < 1e-10
    assert abs(_mp_moment(z, omega, "sin") - 1.0 / omega) < 1e-10


def test_moment_quadrature_raises_a_domain_fault_as_itself():
    z = TerminationFunction(body=parse("ln(s - 0.5)"), width=1.0, kind="smooth_taper")
    with pytest.raises(DomainFault, match="non-finite value"):
        check_moments(z, 1.0)


def test_moment_quadratures_share_one_budget(monkeypatch):
    # No panel resolves a tone of frequency 1e300, so each moment quadrature
    # runs until the budget is spent.  The six share the one budget of their
    # call, 10^7 evaluations: capped one by one they spent six times that.
    # make_matched_trig refuses such a tone before integrating its moments,
    # so they are integrated here as it would integrate them.
    import zvar.taper

    spent = []
    original = zvar.taper.integrate_segments

    def counted(*args, **kwargs):
        results = original(*args, **kwargs)
        spent.append(sum(r.evaluations for r in results))
        return results

    monkeypatch.setattr(zvar.taper, "integrate_segments", counted)
    base = make_smooth_taper(1.0).body
    bodies = (base * sin(const(2.0 * math.pi) * var("s")),
              base * sin(const(4.0 * math.pi) * var("s")), base)
    with pytest.raises(TaperError, match=r"^moment quadrature failed to converge$"):
        taper._tone_moments(bodies, 1e300, 1.0, MOMENT_TOL)
    assert len(spent) == 1 and 9_000_000 < spent[0] <= 10_000_000


def test_matched_trig_moment_residuals():
    z = make_matched_trig(1.0, 1.0)
    rc, rs = check_moments(z, 1.0)
    assert abs(rc) < 1e-10
    assert abs(rs) < 1e-10
    # independent verification via mpmath
    assert abs(_mp_moment(z, 1.0, "cos")) < 1e-10
    assert abs(_mp_moment(z, 1.0, "sin") - 1.0) < 1e-10


def test_matched_trig_other_tones():
    z = make_matched_trig(2.0, 1.0)
    rc, rs = check_moments(z, 2.0)
    assert abs(rc) < 1e-10 and abs(rs) < 1e-10

    # matched only at its own tone
    z1 = make_matched_trig(1.0, 1.0)
    rc2, rs2 = check_moments(z1, 2.0)
    assert max(abs(rc2), abs(rs2)) > 1e-3


def test_smooth_taper_misses_tone_moments():
    z = make_smooth_taper(1.0)
    _, rs = check_moments(z, 1.0)
    assert rs < -0.54
    assert abs(rs) > 0.3


def test_matched_trig_bracket_constant_in_window_position():
    # For f = sin(omega x), the terminal bracket
    #   integral_a^b f + integral_b^{b+c} f(x) z(x-b) dx
    # must be constant in b once the moments match; checked directly with
    # quad over the grid b = a + 0.7k, k = 0..10.
    from zvar.expr import const, parse, substitute, var

    for omega in (0.5, 1.0, 2.0):
        z = make_matched_trig(omega, 1.0)
        f = substitute(parse("sin(om*x)"), "om", const(omega))
        zx = substitute(z.body, "s", var("x") - var("b"))
        prefix_fn = compile_expr(f, ("x",))
        tail_fn = compile_expr(f * zx, ("x", "b"))
        for a in (0.0, 1.0):
            expected = math.cos(omega * a) / omega
            brackets = []
            for k in range(11):
                b = a + 0.7 * k
                prefix = integrate_one(prefix_fn, a, b, 1e-12) if b > a else None
                tail = integrate_one(lambda x, b=b: tail_fn(x, b), b, b + 1.0, 1e-12)
                assert tail.converged and (prefix is None or prefix.converged)
                brackets.append((prefix.value if prefix else 0.0) + tail.value)
            assert all(abs(v - brackets[0]) < 1e-8 for v in brackets)
            assert abs(brackets[0] - expected) < 1e-8


def test_matched_trig_rejects_bad_parameters():
    with pytest.raises(TaperError):
        make_matched_trig(0.0, 1.0)
    with pytest.raises(TaperError):
        make_matched_trig(1.0, -2.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(TaperError, match=rf"^tone frequency must be positive and finite, "
                                             rf"got {bad!r}$"):
            make_matched_trig(bad, 1.0)
        with pytest.raises(TaperError, match=rf"^taper width must be positive and finite, "
                                             rf"got {bad!r}$"):
            make_matched_trig(1.0, bad)


@pytest.mark.parametrize("omega, c, fault", [
    (1e300, 1e300, "integrand evaluated to a non-finite value"),  # omega s overflows
    (1.0, 1e-320, "integrand evaluated to a non-finite value"),   # 2 pi / c overflows
    (1.0, 1e308, "integration limits"),                          # c is past quad's range
])
def test_matched_trig_names_the_tone_a_moment_quadrature_cannot_take(omega, c, fault):
    with pytest.raises(TaperError, match="^" + re.escape(
            f"tone moments of omega={omega!r}, c={c!r} cannot be integrated: {fault}")):
        make_matched_trig(omega, c)


def test_matched_trig_is_built_once_per_tone(monkeypatch):
    z = make_matched_trig(1, 1)
    assert z is make_matched_trig(1.0, 1.0)
    assert type(z.omega) is float and type(z.width) is float
    assert make_matched_trig(2.0, 1.0) is not z
    assert make_matched_trig(1.0, 2.0) is not z
    # What the cache keeps is what a fresh build makes.
    taper._matched_trig.cache_clear()
    fresh = make_matched_trig(1.0, 1.0)
    assert fresh is not z
    assert (fresh.body, fresh.width, fresh.omega, fresh.kind) == (z.body, z.width, z.omega, z.kind)
    # A build that fails is not kept: each call runs its moment quadrature again.
    calls = []
    original = taper._tone_moments

    def counted(*args):
        calls.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(taper, "_tone_moments", counted)
    for _ in range(2):
        with pytest.raises(TaperError, match="near-singular"):
            make_matched_trig(1e-300, 1.0)
    assert calls == [(1e-300, 1.0)] * 2


def test_boundary_taper_rejects_width_below_float_resolution():
    # A finite-limit integral reads z as w(v) = z(-ln v) above e^-c, which
    # must leave w some support however the integral is built.
    z = parse_boundary_spec("wfromz:taper:c=1e-300")
    assert z is make_smooth_taper(1e-300)
    with pytest.raises(TaperError, match=r"c=1e-300 .* e\^-c rounds to 1"):
        FiniteIntegral(parse("1", variables=("u",)), 1.0, z)


def test_taper_spec_strings():
    z = parse_taper_spec("taper:c=1")
    assert z.kind == "smooth_taper" and z.width == 1.0
    z = parse_taper_spec("matched:omega=2,c=1")
    assert z.kind == "matched_trig" and z.omega == 2.0
    assert parse_boundary_spec("wfromz:taper:c=1") is make_smooth_taper(1)
    assert parse_boundary_spec("wfromz:matched:omega=2,c=1").kind == "matched_trig"

    with pytest.raises(TaperError, match="unknown taper kind"):
        parse_taper_spec("bogus:c=1")
    with pytest.raises(TaperError, match="missing fields"):
        parse_taper_spec("matched:c=1")
    with pytest.raises(TaperError, match="unknown fields"):
        parse_taper_spec("taper:c=1,d=2")
    with pytest.raises(TaperError, match="repeats field 'c'"):
        parse_taper_spec("taper:c=1,c=2")
    with pytest.raises(TaperError, match="field 'omega' is not a number"):
        parse_taper_spec("matched:omega=one,c=1")
    with pytest.raises(TaperError, match="malformed"):
        parse_taper_spec("taper:c")
    with pytest.raises(TaperError):
        parse_boundary_spec("taper:c=1")


def test_spec_strings_write_what_the_parser_reads():
    for text, canonical in (("taper:c=1", "taper:c=1.0"),
                            ("matched:omega=0.5,c=2", "matched:omega=0.5,c=2.0")):
        z = parse_taper_spec(text)
        assert z.spec_string() == canonical
        again = parse_taper_spec(canonical)
        assert repr(again.body) == repr(z.body)
    # a finite-limit integral's taper is written back with its wfromz: prefix
    fin = FiniteIntegral(parse("1/u", variables=("u",)), 1.0,
                         parse_boundary_spec("wfromz:taper:c=1"))
    assert spec_object(fin)["taper"] == "wfromz:taper:c=1.0"
