"""Changes of the integration variable, their checks, and application.

Three kinds are supported, all applied by apply_cov.  infinite_cov maps
y = P(x) with P' > 0 and P(x) -> infinity, carrying integral_a^inf f(x) dx
to integral_{P(a)}^inf f(Q(y)) Q'(y) dy with Q the inverse.  finite_cov maps
t = P(u) with P > 0, P' > 0 and P -> 0 at 0, preserving the critical point.
bridge maps u = psi(x) = d e^{-alpha x}, converting between the two forms.

Shipped specializations (power, exponential, bridge) meet their kind's
conditions by construction.  A custom transform is checked by dense
sampling with local refinement, which can refute the strict global
conditions but never certify them: a map that no check refutes is applied
as given.  Every transform, the bridge included, carries the
termination function z over unchanged, since a finite-limit integral holds
z too, as its boundary taper read through u = e^-x -- existence on the
transformed side is a genuinely separate question, which the verification
harness probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .expr import (
    DomainFault,
    ExprAST,
    compile_expr,
    const,
    differentiate,
    evaluate,
    parse,
    simplify,
    substitute,
    var,
)
from .taper import split_spec
from .zeval import FiniteIntegral, InfiniteIntegral, ZIntegralSpec, bridge_image

__all__ = [
    "CovError", "ChangeOfVariable",
    "make_power_cov", "make_exp_cov", "make_finite_power_cov",
    "make_custom_cov", "make_bridge_cov", "apply_cov", "parse_cov_spec",
]

_VARS = {"infinite_cov": ("x", "y"), "finite_cov": ("u", "t"), "bridge": ("x", "u")}
_ROUNDTRIP_POINTS = 32
_ROUNDTRIP_RTOL = 1e-8


class CovError(ValueError):
    """Bad construction parameters, a refuted condition, or kind mismatch."""


@dataclass(frozen=True)
class ChangeOfVariable:
    kind: str                        # infinite_cov | finite_cov | bridge
    forward: ExprAST                 # P (or psi) in the source variable
    inverse: ExprAST                 # Q (or psi^-1) in the target variable
    domain: tuple[float, float]      # sampling range used for checks
    params: dict[str, float] = field(default_factory=dict)
    analytic: bool = False           # certified specialization

    @property
    def forward_var(self) -> str:
        return _VARS[self.kind][0]

    @property
    def inverse_var(self) -> str:
        return _VARS[self.kind][1]


def _is_odd_integer(r: float) -> bool:
    return abs(r - round(r)) < 1e-12 and int(round(r)) % 2 == 1


def make_power_cov(d: float, r: float, a: float) -> ChangeOfVariable:
    """y = d * x^r on [a, infinity); requires a > 0 unless r is an odd integer."""
    if not d > 0.0:
        raise CovError(f"power map needs d > 0, got {d!r}")
    if not r > 0.0:
        raise CovError(f"power map needs r > 0, got {r!r}")
    if not _is_odd_integer(r) and not a > 0.0:
        raise CovError(
            f"power map with non-odd-integer exponent {r!r} needs a positive "
            f"lower limit, got a={a!r}"
        )
    x, y = var("x"), var("y")
    forward = const(d) * x ** const(r)
    if a > 0.0:
        inverse = (y / const(d)) ** const(1.0 / r)
    else:
        # odd integer exponent with a lower limit <= 0: the inverse must act
        # on negative arguments, so take the sign-preserving real root
        ay = expr.absval(y)
        inverse = (y / ay) * (ay / const(d)) ** const(1.0 / r)
    return _analytic("infinite_cov", forward, inverse, (a, 1e6), {"d": d, "r": r})


def make_exp_cov(d: float, alpha: float) -> ChangeOfVariable:
    """y = d * e^(alpha x); valid for any real lower limit."""
    if not d > 0.0:
        raise CovError(f"exponential map needs d > 0, got {d!r}")
    if not alpha > 0.0:
        raise CovError(f"exponential map needs alpha > 0, got {alpha!r}")
    x, y = var("x"), var("y")
    forward = const(d) * expr.exp(const(alpha) * x)
    inverse = expr.ln(y / const(d)) / const(alpha)
    return _analytic("infinite_cov", forward, inverse, (0.0, min(600.0 / alpha, 1e6)),
                     {"d": d, "alpha": alpha})


def make_finite_power_cov(d: float, r: float) -> ChangeOfVariable:
    """u = d * t^r near the critical point: always a valid finite-limit map."""
    if not d > 0.0:
        raise CovError(f"power map needs d > 0, got {d!r}")
    if not r > 0.0:
        raise CovError(f"power map needs r > 0, got {r!r}")
    u, t = var("u"), var("t")
    forward = (u / const(d)) ** const(1.0 / r)      # t = P(u)
    inverse = const(d) * t ** const(r)              # u = Q(t)
    return _analytic("finite_cov", forward, inverse, (1e-9, 1.0), {"d": d, "r": r})


def make_bridge_cov(d: float, alpha: float) -> ChangeOfVariable:
    """u = psi(x) = d * e^(-alpha x), the finite<->infinite bridge family."""
    if not d > 0.0:
        raise CovError(f"bridge needs d > 0, got {d!r}")
    if not alpha > 0.0:
        raise CovError(f"bridge needs alpha > 0, got {alpha!r}")
    x, u = var("x"), var("u")
    forward = const(d) * expr.exp(-(const(alpha) * x))
    inverse = -(expr.ln(u / const(d)) / const(alpha))
    return _analytic("bridge", forward, inverse, (0.0, min(600.0 / alpha, 1e6)),
                     {"d": d, "alpha": alpha})


def _analytic(kind: str, forward: ExprAST, inverse: ExprAST, domain: tuple[float, float],
              params: dict[str, float]) -> ChangeOfVariable:
    """A certified specialization; checks the inverse round-trip."""
    cov = ChangeOfVariable(
        kind=kind,
        forward=simplify(forward),
        inverse=simplify(inverse),
        domain=domain,
        params=params,
        analytic=True,
    )
    _check_roundtrip(cov)
    return cov


def make_custom_cov(kind: str, forward_text: str, inverse_text: str,
                    domain: tuple[float, float]) -> ChangeOfVariable:
    """Build an infinite_cov or finite_cov from expression text; checks the round-trip."""
    if kind not in ("infinite_cov", "finite_cov"):
        raise CovError(f"unknown custom transform kind {kind!r} "
                       f"(expected infinite_cov or finite_cov)")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise CovError(f"empty domain [{lo!r}, {hi!r}]")
    # The checks sample from lo: a finite_cov's up to hi, an infinite_cov's six decades on.
    if not np.isfinite(lo):
        raise CovError(f"domain lo must be finite, got {lo!r}")
    if kind == "finite_cov" and not 0.0 < hi < np.inf:
        raise CovError(f"a finite_cov domain needs a positive, finite hi, got {hi!r}")
    if kind == "infinite_cov" and not lo <= 1e300:
        raise CovError(f"an infinite_cov domain needs lo <= 1e300, which keeps six decades "
                       f"from lo in the float range, got {lo!r}")
    fv, iv = _VARS[kind]
    forward = parse(forward_text, variables=(fv,))
    inverse = parse(inverse_text, variables=(iv,))
    cov = ChangeOfVariable(
        kind=kind,
        forward=forward,
        inverse=inverse,
        domain=(lo, hi),
        analytic=False,
    )
    _check_roundtrip(cov)
    return cov


def _roundtrip_sample(cov: ChangeOfVariable) -> np.ndarray:
    lo, hi = cov.domain
    span_hi = min(hi, max(abs(lo) * 10.0 + 10.0, 100.0))
    if lo > 0 and span_hi / lo > 1e3:
        pts = np.geomspace(lo, span_hi, _ROUNDTRIP_POINTS)
    else:
        pts = np.linspace(lo, span_hi, _ROUNDTRIP_POINTS)
        pts = np.where(np.abs(pts) < 1e-3, pts + 2e-3, pts)  # keep sign maps away from 0
    return pts


def _check_roundtrip(cov: ChangeOfVariable) -> None:
    fv, iv = _VARS[cov.kind]
    pts = _roundtrip_sample(cov)
    fwd = compile_expr(cov.forward, (fv,))
    inv = compile_expr(cov.inverse, (iv,))
    with np.errstate(all="ignore"):
        back = inv(fwd(pts))
    rel = np.abs(back - pts) / np.maximum(1.0, np.abs(pts))
    bad = ~np.isfinite(back) | (rel > _ROUNDTRIP_RTOL)
    if bad.any():
        worst = pts[bad][int(np.argmax(np.where(np.isfinite(rel[bad]), rel[bad], np.inf)))]
        raise CovError(
            f"inverse round-trip failed: Q(P(s)) != s near s={float(worst)!r} "
            f"(the map may not be injective on [{cov.domain[0]!r}, {cov.domain[1]!r}])"
        )


# --------------------------------------------------------------------------
# Checks of a map that no shipped family built.
# --------------------------------------------------------------------------

def _sampled_checks(cov: ChangeOfVariable) -> list[str]:
    """The conditions of the map's kind that a refined sample refutes, each with its evidence.

    A finite sample can refute the strict global conditions but never
    certify them.  A sampled +inf reads as large and positive; NaN or -inf
    is an evaluation fault, which names its point.
    """
    fv, _ = _VARS[cov.kind]
    fwd = compile_expr(cov.forward, (fv,))
    dfwd = compile_expr(differentiate(cov.forward, fv), (fv,))
    lo, hi = cov.domain
    refuted: list[str] = []
    try:
        if cov.kind == "infinite_cov":
            start = max(lo, 1.0)
            pts = np.geomspace(start, start * 1e6, 256)
            probes = _values(fwd, 10.0 ** np.arange(0, 7, dtype=float))
            if not (np.all((probes[1:] > probes[:-1]) | (probes[1:] == np.inf))
                    and probes[-1] >= 1e3):
                refuted.append(f"forward_unbounded (P(10^k) k=0..6: "
                               f"{np.array2string(probes, precision=3)})")
        else:  # finite_cov
            pts = np.geomspace(max(lo, 1e-8), hi, 256)
            pmin = float(_values(fwd, pts).min())
            if not pmin > 0.0:
                refuted.append(f"forward_positive (min P ~ {pmin:.3e} on ({pts[0]:.3g}, {hi:.3g}])")
            probes = _values(fwd, 10.0 ** -np.arange(1, 9, dtype=float))
            if not (np.all(probes[1:] < probes[:-1]) and abs(probes[-1]) < 1e-3):
                refuted.append(f"forward_vanishes_at_zero (P(10^-k) k=1..8: "
                               f"{np.array2string(probes, precision=3)})")
        # Refining cuts the coarse minimum of P' by more than 1e-9 only
        # where P' touches zero.
        dmin, where, coarse = _refined_min(dfwd, pts)
        if not (dmin > 1e-9 and dmin >= 1e-9 * coarse):
            refuted.append(f"forward_derivative_positive (min P' ~ {dmin:.3e} near {fv}="
                           f"{where:.6g} over [{pts[0]:.3g}, {pts[-1]:.3g}])")
    except DomainFault as fault:
        return [f"evaluation (sample evaluation fault: {fault})"]
    try:
        _check_roundtrip(cov)
    except CovError as err:
        refuted.append(f"inverse_roundtrip ({err})")
    return refuted


def _values(fn, pts: np.ndarray) -> np.ndarray:
    """fn at pts; DomainFault at the first point where it is NaN or -inf."""
    vals = fn(pts)
    bad = ~(vals > -np.inf)
    if bad.any():
        raise DomainFault(f"non-finite value at {float(pts[bad][0])!r}")
    return vals


def _refined_min(fn, pts: np.ndarray, rounds: int = 8) -> tuple[float, float, float]:
    """Minimum of fn over pts, sharpened by local grid refinement: (min, where, coarse min).

    Enough rounds to expose a derivative that merely touches zero even when
    the coarse grid is log-spaced and the touch point sits between nodes.
    """
    vals = _values(fn, pts)
    i = int(np.argmin(vals))
    best, where = float(vals[i]), float(pts[i])
    lo = pts[max(i - 1, 0)]
    hi = pts[min(i + 1, len(pts) - 1)]
    for _ in range(rounds):
        grid = np.linspace(lo, hi, 64)
        gvals = _values(fn, grid)
        j = int(np.argmin(gvals))
        if gvals[j] < best:
            best, where = float(gvals[j]), float(grid[j])
        if best <= 0.0:
            break
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, len(grid) - 1)]
    return best, where, float(vals[i])


# --------------------------------------------------------------------------
# Application.
# --------------------------------------------------------------------------

def apply_cov(spec: ZIntegralSpec, cov: ChangeOfVariable) -> ZIntegralSpec:
    """Rewrite the integral through the transform; a bridge also changes its form."""
    bridge = cov.kind == "bridge"
    if not bridge and isinstance(spec, InfiniteIntegral) != (cov.kind == "infinite_cov"):
        raise CovError(f"transform kind {cov.kind!r} does not match the integral form")
    infinite = isinstance(spec, InfiniteIntegral)
    limit = spec.lower_limit if infinite else spec.upper_limit
    # A custom map is known only on its stated domain, which must hold the
    # limit it carries: a at or above lo, beta at or below hi.
    lo, hi = cov.domain
    if not cov.analytic and not (lo <= limit if infinite else limit <= hi):
        where = (f"a={limit!r} below its domain's lo={lo!r}" if infinite
                 else f"beta={limit!r} above its domain's hi={hi!r}")
        raise CovError(f"the custom map cannot carry the limit {where}")
    refuted = [] if cov.analytic else _sampled_checks(cov)
    if refuted:
        raise CovError(f"transform failed validation: {'; '.join(refuted)}")
    if bridge and isinstance(spec, FiniteIntegral):
        return bridge_image(spec, cov.params["d"], cov.params["alpha"])

    iv = cov.inverse_var
    dq = differentiate(cov.inverse, iv)
    if bridge:
        dq = -dq  # psi decreases, so the limits swap
    new_integrand = simplify(substitute(spec.integrand, spec.variable, cov.inverse) * dq)
    form = InfiniteIntegral if infinite and not bridge else FiniteIntegral
    return form(new_integrand, evaluate(cov.forward, {cov.forward_var: limit}), spec.taper,
                variable=iv)


# --------------------------------------------------------------------------
# CLI transform strings, "kind:key=value,...": the fields of each kind.
# --------------------------------------------------------------------------

_COV_FIELDS = {"power": ("d", "r"), "exp": ("d", "alpha"), "finpower": ("d", "r"),
               "bridge": ("d", "alpha"), "custom": ("kind", "forward", "inverse", "lo", "hi")}


def parse_cov_spec(text: str, a: float | None = None) -> ChangeOfVariable:
    """Parse a CLI transform string; `a` supplies the power-map caveat context."""
    head, fields = split_spec(text, _COV_FIELDS, "transform", CovError,
                              text_fields=("kind", "forward", "inverse"))
    if head == "power":
        if a is None:
            raise CovError("power transforms need the integral's lower limit for "
                           "the odd-exponent caveat")
        return make_power_cov(fields["d"], fields["r"], a)
    if head == "exp":
        return make_exp_cov(fields["d"], fields["alpha"])
    if head == "finpower":
        return make_finite_power_cov(fields["d"], fields["r"])
    if head == "bridge":
        return make_bridge_cov(fields["d"], fields["alpha"])
    return make_custom_cov(fields["kind"], fields["forward"], fields["inverse"],
                           (fields["lo"], fields["hi"]))
