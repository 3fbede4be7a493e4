"""Termination functions z(s) on [0, c].

Admissibility here means bounded, continuous, z(0) = 1, z(c) = 0.  Every
constructor builds z as the quintic smoothstep, or that times a sum of
sines, so z is smooth by construction; it checks the endpoint values, and
that z is finite and bounded on a grid, numerically at build time.  The
matched-trig family additionally zeroes the two tone moments
integral_0^c cos(w s) z(s) ds = 0 and integral_0^c sin(w s) z(s) ds = 1/w,
which makes the terminal bracket of a pure tone sin(w x) constant in the
window position (the mechanism this library uses to give oscillatory
integrals a well-defined value).

A finite-limit integral's boundary taper is its termination function z
read through u = e^-x: w(v) = z(-ln v) above the support floor e^-c, 0 at
and below it.  So a finite-limit integral holds z itself, and finite-limit
and infinite-limit evaluations correspond exactly under the exponential
bridge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .expr import DomainFault, ExprAST, compile_expr, const, evaluate, var
from .quad import MAX_LIMIT, integrate_segments

__all__ = [
    "TaperError", "TerminationFunction",
    "make_smooth_taper", "make_matched_trig",
    "check_moments", "parse_taper_spec", "parse_boundary_spec", "split_spec",
]

MOMENT_TOL = 1e-13
MOMENT_EVALS = 10_000_000   # the moment quadrature's budget
_ENDPOINT_TOL = 1e-12
# Boundedness guard.  Matched corrections legitimately overshoot 1 by large
# factors for slow tones: the sine moment 1/omega has to fit inside a short
# window, which forces amplitude (about 310 for omega=0.5, c=1).  The guard
# exists to reject runaway constructions, not to cap that overshoot.
_BOUND_LIMIT = 1000.0
_GRID_SAMPLES = 10_000


class TaperError(ValueError):
    """Invalid or numerically unusable taper construction."""


@dataclass(frozen=True)
class TerminationFunction:
    """z(s) on [0, c]; body is an expression in the variable s."""

    body: ExprAST
    width: float
    kind: str                  # "smooth_taper" | "matched_trig"
    omega: float | None = None

    def __call__(self, s: float) -> float:
        return evaluate(self.body, {"s": s})

    def spec_string(self) -> str:
        if self.kind == "matched_trig":
            return f"matched:omega={self.omega!r},c={self.width!r}"
        return f"taper:c={self.width!r}"


def make_smooth_taper(c: float) -> TerminationFunction:
    """Quintic smoothstep from z(0)=1 to z(c)=0 with z'=z''=0 at both ends.

    The result is immutable, so it is built and validated once per width
    and then shared: make_smooth_taper(1) is make_smooth_taper(1.0).
    """
    return _smooth_taper(_positive_finite(c, "taper width"))


@functools.lru_cache
def _smooth_taper(c: float) -> TerminationFunction:
    t = var("s") / const(c)
    body = const(1.0) - t ** 3 * (const(10.0) - const(15.0) * t + const(6.0) * t * t)
    z = TerminationFunction(body=expr.simplify(body), width=c, kind="smooth_taper")
    _validate(z)
    return z


def make_matched_trig(omega: float, c: float) -> TerminationFunction:
    """Smooth taper corrected so the tone moments at frequency omega match.

    z(s) = T(s) * (1 + a1 sin(2 pi s / c) + a2 sin(4 pi s / c)) with T the
    smooth taper; the sine corrections vanish at both endpoints, so the
    endpoint values and admissibility are preserved while (a1, a2) solve
    the 2x2 moment system.  Like the smooth taper, the result is built and
    validated once per (omega, c) and then shared; a build that fails is
    not kept, so it fails again on every call.
    """
    omega = _positive_finite(omega, "tone frequency")
    c = _positive_finite(c, "taper width")
    # The moment quadrature's pool holds 10^7 evaluations: past half as many
    # cycles over [0, c], not even all of it gives two samples per cycle, and
    # it would be spent in vain.  An omega * c past the float range, or a c
    # past the engine's, already fails on the first batch.
    cycles = omega * c / (2.0 * math.pi)
    if MOMENT_EVALS / 2 < cycles < math.inf and c <= MAX_LIMIT:
        raise TaperError(f"tone omega={omega!r} has {cycles:.3g} cycles over the taper width "
                         f"c={c!r}, more than the {MOMENT_EVALS // 2:,} that its moments' "
                         f"{MOMENT_EVALS:,} evaluations can resolve")
    return _matched_trig(omega, c)


@functools.lru_cache
def _matched_trig(omega: float, c: float) -> TerminationFunction:
    base = make_smooth_taper(c)
    s = var("s")
    harmonics = [
        expr.sin(const(2.0 * math.pi / c) * s),
        expr.sin(const(4.0 * math.pi / c) * s),
    ]

    try:
        (c1, s1), (c2, s2), (c0, s0) = _tone_moments(
            (base.body * harmonics[0], base.body * harmonics[1], base.body), omega, c, MOMENT_TOL)
    except TaperError:
        raise
    except ValueError as err:   # omega*c or 2 pi/c past the float range, or c past quad's range
        raise TaperError(f"tone moments of omega={omega!r}, c={c!r} cannot be integrated: "
                         f"{err}") from None
    m = np.array([[c1, c2], [s1, s2]])
    rhs = np.array([-c0, 1.0 / omega - s0])
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > 1e8:
        raise TaperError(
            f"moment system is near-singular (condition estimate {cond:.2e}); "
            f"change the taper width c away from {c!r} for omega={omega!r}"
        )
    a1, a2 = (float(v) for v in np.linalg.solve(m, rhs))
    body = base.body * (const(1.0) + const(a1) * harmonics[0] + const(a2) * harmonics[1])
    z = TerminationFunction(body=expr.simplify(body), width=c, kind="matched_trig", omega=omega)
    _validate(z)
    return z


def check_moments(z: TerminationFunction, omega: float) -> tuple[float, float]:
    """Residuals of the tone-moment conditions at frequency omega.

    Returns (integral cos(w s) z ds, integral sin(w s) z ds - 1/w); both
    vanish exactly when z makes sin(w x) terminate cleanly.  The moments
    are integrated to _moment_tol(z), MOMENT_TOL relative to max |z|.
    """
    omega = _positive_finite(omega, "tone frequency")
    (cos_moment, sin_moment), = _tone_moments((z.body,), omega, z.width, _moment_tol(z))
    return cos_moment, sin_moment - 1.0 / omega


def _positive_finite(value: float, name: str) -> float:
    if not 0.0 < value < math.inf:
        raise TaperError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _moment_tol(z: TerminationFunction) -> float:
    """MOMENT_TOL times max(1, max |z|), the peak taken over the validation grid.

    A slow tone's matched taper overshoots 1 by a factor of hundreds, and the
    roundoff floor of its moments grows with it: at omega=0.5, c=1 the cos
    moment's floor is 2.35e-13, beyond MOMENT_TOL itself.  Non-finite samples
    are left to the quadrature, which fails on them if it meets them.
    """
    vals = _samples(z)
    finite = np.abs(vals[np.isfinite(vals)])
    return MOMENT_TOL * max(1.0, float(finite.max(initial=0.0)))


def _tone_moments(bodies: tuple[ExprAST, ...], omega: float, c: float,
                  tol: float) -> list[tuple[float, float]]:
    """(integral_0^c cos(w s) body ds, integral_0^c sin(w s) body ds) at w = omega, per body.

    Every (kernel, body) pair is one segment of one lockstep quadrature,
    which gives each the result it gets alone; the first failure in pair
    order is raised.
    """
    s = var("s")
    kernels = (expr.cos(const(omega) * s), expr.sin(const(omega) * s))
    groups = [(compile_expr(kernel * body, ("s",)), (0.0,), (c,), None)
              for body in bodies for kernel in kernels]
    results = integrate_segments(groups, tol, MOMENT_EVALS, read_order=range(len(groups)))
    for r in results:
        if isinstance(r, DomainFault):
            raise r
        if not r.converged:
            raise TaperError("moment quadrature failed to converge")
    values = [r.value for r in results]
    return list(zip(values[0::2], values[1::2]))


def _validate(z: TerminationFunction) -> None:
    if abs(z(0.0) - 1.0) > _ENDPOINT_TOL:
        raise TaperError(f"termination function must satisfy z(0)=1, got {z(0.0)!r}")
    if abs(z(z.width)) > _ENDPOINT_TOL:
        raise TaperError(f"termination function must satisfy z(c)=0, got {z(z.width)!r}")
    vals = _samples(z)
    if not np.isfinite(vals).all():
        raise TaperError("termination function is not finite on [0, c]")
    if np.abs(vals).max() > _BOUND_LIMIT:
        raise TaperError(f"termination function exceeds the bound {_BOUND_LIMIT}")


def _samples(z: TerminationFunction) -> np.ndarray:
    """z on the validation grid: _GRID_SAMPLES equal steps over [0, c]."""
    return compile_expr(z.body, ("s",))(np.linspace(0.0, z.width, _GRID_SAMPLES + 1))


# --------------------------------------------------------------------------
# CLI spec strings: "taper:c=1", "matched:omega=1,c=1", "wfromz:<taper spec>"
# --------------------------------------------------------------------------

_TAPER_FIELDS = {"taper": ("c",), "matched": ("omega", "c")}


def parse_taper_spec(text: str) -> TerminationFunction:
    head, fields = split_spec(text, _TAPER_FIELDS, "taper")
    if head == "taper":
        return make_smooth_taper(fields["c"])
    return make_matched_trig(fields["omega"], fields["c"])


def parse_boundary_spec(text: str) -> TerminationFunction:
    """The termination function z of a boundary taper spec "wfromz:<taper spec>"."""
    head, _, payload = text.strip().partition(":")
    if head != "wfromz":
        raise TaperError(f"unknown boundary taper kind {head!r} (expected 'wfromz:<taper>')")
    return parse_taper_spec(payload)


def split_spec(text: str, kinds: dict[str, tuple[str, ...]], noun: str,
               error: type[ValueError] = TaperError,
               text_fields: tuple[str, ...] = ()) -> tuple[str, dict]:
    """Split a "kind:key=value,..." spec string into its kind and fields.

    kinds maps each accepted kind to its field names, all of them required;
    a field may not repeat.  Commas inside parentheses belong to a value (an
    expression), not to the field list.  Fields named in text_fields stay
    strings; every other value is converted to a float.  Errors are raised
    as `error`, naming the spec's `noun` ("taper", "transform").
    """
    head, _, payload = text.strip().partition(":")
    if head not in kinds:
        raise error(f"unknown {noun} kind {head!r} (expected one of: {', '.join(kinds)})")
    items = []
    depth = start = 0
    for i, ch in enumerate(payload):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(payload[start:i])
            start = i + 1
    if payload.strip():
        items.append(payload[start:])
    fields: dict = {}
    for item in items:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise error(f"malformed {noun} field {item!r} (expected key=value)")
        if key in fields:
            raise error(f"{noun} {head!r} repeats field {key!r}")
        fields[key] = value.strip()
    missing = [name for name in kinds[head] if name not in fields]
    if missing:
        raise error(f"{noun} {head!r} is missing fields: {', '.join(missing)}")
    unknown = [key for key in fields if key not in kinds[head]]
    if unknown:
        raise error(f"{noun} {head!r} has unknown fields: {', '.join(unknown)}")
    for key in (name for name in kinds[head] if name not in text_fields):
        try:
            fields[key] = float(fields[key])
        except ValueError:
            raise error(f"{noun} {head!r} field {key!r} is not a number: "
                        f"{fields[key]!r}") from None
    return head, fields
