"""Changes of the integration variable, their validation, and application.

Three kinds are supported, all applied by apply_cov.  infinite_cov maps
y = P(x) with P' > 0 and P(x) -> infinity, carrying integral_a^inf f(x) dx
to integral_{P(a)}^inf f(Q(y)) Q'(y) dy with Q the inverse.  finite_cov maps
t = P(u) with P > 0, P' > 0 and P -> 0 at 0, preserving the critical point.
bridge maps u = psi(x) = d e^{-alpha x}, converting between the two forms.

Shipped specializations (power, exponential, bridge) are certified
analytically; custom transforms are validated by dense sampling with local
refinement, which can refute but never certify the strict global conditions,
so their best verdict is "inconclusive" and applying them requires an
explicit override.  The termination taper is carried over unchanged (the
bridge swaps z and the boundary taper derived from it) -- existence on the
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
    serialize,
    simplify,
    substitute,
    var,
)
from .taper import boundary_taper_from_z
from .zeval import (BridgeUnavailable, FiniteIntegral, InfiniteIntegral, ZIntegralSpec,
                    bridge_image)

__all__ = [
    "CovError", "ChangeOfVariable", "CheckResult", "ValidationReport",
    "make_power_cov", "make_exp_cov", "make_finite_power_cov",
    "make_custom_cov", "make_bridge_cov", "validate_cov", "apply_cov",
    "parse_cov_spec",
]

_VARS = {"infinite_cov": ("x", "y"), "finite_cov": ("u", "t"), "bridge": ("x", "u")}
_ROUNDTRIP_POINTS = 32
_ROUNDTRIP_RTOL = 1e-8


class CovError(ValueError):
    """Bad construction parameters, failed validation, or kind mismatch."""


@dataclass(frozen=True)
class ChangeOfVariable:
    kind: str                        # infinite_cov | finite_cov | bridge
    forward: ExprAST                 # P (or psi) in the source variable
    inverse: ExprAST                 # Q (or psi^-1) in the target variable
    forward_derivative: ExprAST      # auto-derived from forward
    domain: tuple[float, float]      # sampling range used for checks
    params: dict[str, float] = field(default_factory=dict)
    analytic: bool = False           # certified specialization

    @property
    def forward_var(self) -> str:
        return _VARS[self.kind][0]

    @property
    def inverse_var(self) -> str:
        return _VARS[self.kind][1]

    def describe(self) -> str:
        return (f"{self.kind}: {self.forward_var} -> {serialize(self.forward)}, "
                f"inverse {serialize(self.inverse)}")


@dataclass(frozen=True)
class CheckResult:
    condition: str
    evidence: str
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    verdict: str                     # valid | invalid | inconclusive
    checks: tuple[CheckResult, ...]
    sampled_domain: tuple[float, float]


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
        forward_derivative=differentiate(forward, _VARS[kind][0]),
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
    fv, iv = _VARS[kind]
    forward = parse(forward_text, variables=(fv,))
    inverse = parse(inverse_text, variables=(iv,))
    cov = ChangeOfVariable(
        kind=kind,
        forward=forward,
        inverse=inverse,
        forward_derivative=differentiate(forward, fv),
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
            f"inverse round-trip failed: Q(P(s)) != s near s={worst!r} "
            f"(the map may not be injective on [{cov.domain[0]!r}, {cov.domain[1]!r}])"
        )


# --------------------------------------------------------------------------
# Validation.
# --------------------------------------------------------------------------

def validate_cov(cov: ChangeOfVariable) -> ValidationReport:
    """Check the sufficient conditions for the transform's kind.

    Specializations built by this module are certified analytically.  Custom
    transforms are probed on a refined sample; a finite sample can refute
    strict positivity but never certify it, so their passing verdict is
    "inconclusive" (recorded as a deliberately failing certificate check).
    """
    if cov.analytic:
        checks = tuple(
            CheckResult(condition, "certified analytically for this family", True)
            for condition in _conditions(cov.kind)
        ) + (CheckResult("analytic_certificate", "closed-form family", True),)
        return ValidationReport("valid", checks, cov.domain)

    try:
        checks = _sampled_checks(cov)
    except DomainFault as fault:
        checks = [CheckResult("evaluation", f"sample evaluation fault: {fault}", False)]
    all_passed = all(c.passed for c in checks)
    certificate = CheckResult(
        "analytic_certificate",
        "sampling cannot certify strict global conditions",
        False,
    )
    verdict = "inconclusive" if all_passed else "invalid"
    return ValidationReport(verdict, tuple(checks) + (certificate,), cov.domain)


def _conditions(kind: str) -> tuple[str, ...]:
    if kind == "infinite_cov":
        return ("forward_derivative_positive", "forward_unbounded", "inverse_roundtrip")
    if kind == "finite_cov":
        return ("forward_positive", "forward_derivative_positive",
                "forward_vanishes_at_zero", "inverse_roundtrip")
    return ("forward_derivative_negative", "forward_positive",
            "forward_vanishes_at_infinity", "inverse_roundtrip")


def _sampled_checks(cov: ChangeOfVariable) -> list[CheckResult]:
    fv, _ = _VARS[cov.kind]
    fwd = compile_expr(cov.forward, (fv,))
    dfwd = compile_expr(cov.forward_derivative, (fv,))
    lo, hi = cov.domain
    checks: list[CheckResult] = []

    if cov.kind == "infinite_cov":
        pts = np.geomspace(max(lo, 1.0), 1e6, 256)
        dmin, where = _refined_min(dfwd, pts)
        tol = 1e-9 * (1.0 + float(np.median(np.abs(dfwd(pts)))))
        checks.append(CheckResult(
            "forward_derivative_positive",
            f"min P' ~ {dmin:.3e} near x={where:.6g} over [{pts[0]:.3g}, 1e6]",
            bool(dmin > tol),
        ))
        probes = fwd(10.0 ** np.arange(0, 7, dtype=float))
        growing = bool(np.all(np.diff(probes) > 0.0) and probes[-1] >= 1e3)
        checks.append(CheckResult(
            "forward_unbounded",
            f"P(10^k) k=0..6: {np.array2string(probes, precision=3)}",
            growing,
        ))
    else:  # finite_cov
        pts = np.geomspace(max(lo, 1e-8), hi, 256)
        vals = fwd(pts)
        pmin = float(vals.min())
        checks.append(CheckResult(
            "forward_positive",
            f"min P ~ {pmin:.3e} on ({pts[0]:.3g}, {hi:.3g}]",
            bool(np.isfinite(vals).all() and pmin > 0.0),
        ))
        dmin, where = _refined_min(dfwd, pts)
        tol = 1e-9 * (1.0 + float(np.median(np.abs(dfwd(pts)))))
        checks.append(CheckResult(
            "forward_derivative_positive",
            f"min P' ~ {dmin:.3e} near u={where:.6g}",
            bool(dmin > tol),
        ))
        probes = fwd(10.0 ** -np.arange(1, 9, dtype=float))
        shrinking = bool(np.all(np.diff(probes) < 0.0) and abs(probes[-1]) < 1e-3)
        checks.append(CheckResult(
            "forward_vanishes_at_zero",
            f"P(10^-k) k=1..8: {np.array2string(probes, precision=3)}",
            shrinking,
        ))
    try:
        _check_roundtrip(cov)
        checks.append(CheckResult("inverse_roundtrip",
                                  f"Q(P(s)) = s to {_ROUNDTRIP_RTOL} on {_ROUNDTRIP_POINTS} points",
                                  True))
    except CovError as err:
        checks.append(CheckResult("inverse_roundtrip", str(err), False))
    return checks


def _refined_min(fn, pts: np.ndarray, rounds: int = 8) -> tuple[float, float]:
    """Minimum of fn over pts, sharpened by local grid refinement.

    Enough rounds to expose a derivative that merely touches zero even when
    the coarse grid is log-spaced and the touch point sits between nodes.
    """
    vals = fn(pts)
    if not np.isfinite(vals).all():
        bad = pts[~np.isfinite(vals)][0]
        raise DomainFault(f"non-finite value at {bad!r}")
    i = int(np.argmin(vals))
    best, where = float(vals[i]), float(pts[i])
    lo = pts[max(i - 1, 0)]
    hi = pts[min(i + 1, len(pts) - 1)]
    for _ in range(rounds):
        grid = np.linspace(lo, hi, 64)
        gvals = fn(grid)
        if not np.isfinite(gvals).all():
            bad = grid[~np.isfinite(gvals)][0]
            raise DomainFault(f"non-finite value at {bad!r}")
        j = int(np.argmin(gvals))
        if gvals[j] < best:
            best, where = float(gvals[j]), float(grid[j])
        if best <= 0.0:
            break
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, len(grid) - 1)]
    return best, where


# --------------------------------------------------------------------------
# Application.
# --------------------------------------------------------------------------

def apply_cov(spec: ZIntegralSpec, cov: ChangeOfVariable,
              allow_inconclusive: bool = False) -> ZIntegralSpec:
    """Rewrite the integral through the transform; a bridge also changes its form."""
    bridge = cov.kind == "bridge"
    if not bridge and isinstance(spec, InfiniteIntegral) != (cov.kind == "infinite_cov"):
        raise CovError(f"transform kind {cov.kind!r} does not match the integral form")
    report = validate_cov(cov)
    if report.verdict == "invalid":
        failed = [c.condition for c in report.checks if not c.passed]
        raise CovError(f"transform failed validation: {', '.join(failed)}")
    if report.verdict == "inconclusive" and not allow_inconclusive:
        raise CovError(
            "transform validation is inconclusive (sampled only); pass "
            "allow_inconclusive=True to apply it anyway"
        )
    if bridge and isinstance(spec, FiniteIntegral):
        try:
            return bridge_image(spec, cov.params["d"], cov.params["alpha"])
        except BridgeUnavailable as err:
            raise CovError(str(err)) from None

    iv = cov.inverse_var
    dq = differentiate(cov.inverse, iv)
    if bridge:
        dq = -dq  # psi decreases, so the limits swap
    new_integrand = simplify(substitute(spec.integrand, spec.variable, cov.inverse) * dq)
    if isinstance(spec, InfiniteIntegral):
        new_limit = evaluate(cov.forward, {cov.forward_var: spec.lower_limit})
        if bridge:
            return FiniteIntegral(new_integrand, new_limit, boundary_taper_from_z(spec.taper),
                                  variable=iv)
        return InfiniteIntegral(new_integrand, new_limit, spec.taper, variable=iv)
    new_limit = evaluate(cov.forward, {cov.forward_var: spec.upper_limit})
    return FiniteIntegral(new_integrand, new_limit, spec.taper, variable=iv)


# --------------------------------------------------------------------------
# CLI transform strings:
#   "power:d=1,r=2", "exp:d=1,alpha=1", "finpower:d=1,r=2",
#   "custom:kind=...,forward=...,inverse=...,lo=...,hi=...",
#   "bridge:d=1,alpha=1"
# --------------------------------------------------------------------------

def parse_cov_spec(text: str, a: float | None = None) -> ChangeOfVariable:
    """Parse a CLI transform string; `a` supplies the power-map caveat context."""
    head, _, payload = text.strip().partition(":")
    fields = _split_fields(payload)
    if head == "power":
        _require(fields, ("d", "r"), head)
        if a is None:
            raise CovError("power transforms need the integral's lower limit for "
                           "the odd-exponent caveat")
        return make_power_cov(float(fields["d"]), float(fields["r"]), a)
    if head == "exp":
        _require(fields, ("d", "alpha"), head)
        return make_exp_cov(float(fields["d"]), float(fields["alpha"]))
    if head == "finpower":
        _require(fields, ("d", "r"), head)
        return make_finite_power_cov(float(fields["d"]), float(fields["r"]))
    if head == "bridge":
        _require(fields, ("d", "alpha"), head)
        return make_bridge_cov(float(fields["d"]), float(fields["alpha"]))
    if head == "custom":
        _require(fields, ("kind", "forward", "inverse", "lo", "hi"), head)
        return make_custom_cov(fields["kind"], fields["forward"], fields["inverse"],
                               (float(fields["lo"]), float(fields["hi"])))
    raise CovError(f"unknown transform kind {head!r}")


def _split_fields(payload: str) -> dict[str, str]:
    # commas inside parentheses belong to expressions, not field separators
    out: dict[str, str] = {}
    depth = 0
    start = 0
    items = []
    for i, ch in enumerate(payload):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(payload[start:i])
            start = i + 1
    if payload[start:].strip():
        items.append(payload[start:])
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise CovError(f"malformed transform field {item!r} (expected key=value)")
        out[key.strip()] = value.strip()
    return out


def _require(fields: dict[str, str], names: tuple[str, ...], kind: str) -> None:
    missing = [n for n in names if n not in fields]
    if missing:
        raise CovError(f"{kind} transform is missing fields: {', '.join(missing)}")
    extra = [k for k in fields if k not in names]
    if extra:
        raise CovError(f"{kind} transform has unknown fields: {', '.join(extra)}")
