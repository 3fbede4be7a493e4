"""Pairwise verification: value preservation, bridge equivalence, existence.

A corpus line pairs a left integral with either an explicit right integral
or a transform that derives one, plus the expected comparison verdict.
"Exists" is operationalized as status == converged under the configured
sample sequence; the verdict table is total over status pairs:

    both converged, |dv| <= tol                 -> equal_within_tol
    both converged, |dv| >  tol                 -> mismatch
    one converged, the other oscillatory        -> existence_asymmetry
    one converged, the other drifting or failed -> unresolved
    neither converged                           -> both_nonconverged

A side that drifts or fails shows no evidence that its integral does not
exist, so only an oscillating one makes an asymmetry.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .cov import CovError, apply_cov, parse_cov_spec
from .expr import ExprError, parse, serialize
from .taper import TaperError, parse_boundary_spec, parse_taper_spec
from .zeval import (
    EvalConfig,
    FiniteIntegral,
    InfiniteIntegral,
    ZIntegralSpec,
    ZResult,
    eval_finite,
    eval_infinite,
    is_number,
    plan_finite,
    plan_infinite,
    run_together,
)

__all__ = [
    "CorpusError", "VerificationOutcome", "CaseReport", "SuiteReport",
    "compare_pair", "evaluate_spec", "pair_verdict", "build_spec", "spec_object", "derive_right",
    "run_suite", "load_corpus", "shipped_corpus_path", "strict_json",
]


class CorpusError(ValueError):
    """Corpus file cannot be read, parsed, or validated."""


@dataclass(frozen=True)
class VerificationOutcome:
    left: ZResult
    right: ZResult
    verdict: str
    tolerance: float
    case_id: str = ""


def compare_pair(spec_a: ZIntegralSpec, spec_b: ZIntegralSpec, cfg: EvalConfig,
                 tol: float, case_id: str = "", mode_a: str = "direct",
                 mode_b: str = "direct") -> VerificationOutcome:
    """Evaluate both integrals, side by side in each quadrature call, and classify the pair."""
    left, right = run_together([plan_finite(spec, cfg, mode) if isinstance(spec, FiniteIntegral)
                                else plan_infinite(spec, cfg)
                                for spec, mode in ((spec_a, mode_a), (spec_b, mode_b))],
                               cfg.quad_tol)
    return VerificationOutcome(left=left, right=right,
                               verdict=pair_verdict(left, right, tol),
                               tolerance=tol, case_id=case_id)


def evaluate_spec(spec: ZIntegralSpec, cfg: EvalConfig, mode: str) -> ZResult:
    """Evaluate either integral form; mode applies to the finite form only."""
    if isinstance(spec, FiniteIntegral):
        return eval_finite(spec, cfg, mode=mode)
    return eval_infinite(spec, cfg)


def pair_verdict(left: ZResult, right: ZResult, tol: float) -> str:
    """The verdict table of the module docstring."""
    lc = left.status == "converged"
    rc = right.status == "converged"
    if lc and rc:
        return "equal_within_tol" if abs(left.value - right.value) <= tol else "mismatch"
    if lc != rc:
        other = right if lc else left
        return "existence_asymmetry" if other.status == "oscillatory" else "unresolved"
    return "both_nonconverged"


# --------------------------------------------------------------------------
# Corpus: one JSON object per line.
#
# {"id": ..., "left_spec": {...}, "right_spec": {...}?, "cov": "..."?,
#  "expected_verdict": ..., "tol": ..., "config": {...}?}
#
# Integral spec objects, written by spec_object and read by build_spec:
#   {"type": "infinite", "integrand": str, "a": float, "taper": "taper:...",
#    "var": str?}
#   {"type": "finite", "integrand": str, "beta": float,
#    "taper": "wfromz:...", "mode": "direct"|"bridge"?, "var": str?}
# --------------------------------------------------------------------------

_CASE_KEYS = {"id", "left_spec", "right_spec", "cov", "expected_verdict", "tol", "config"}


class _Form(NamedTuple):
    cls: type
    limit: str                          # the limit's key in a spec object
    attr: str                           # the limit's attribute on cls
    parse_taper: Callable
    var: str                            # default integration variable
    has_mode: bool = False              # takes a "mode": "direct" | "bridge" key
    taper_prefix: str = ""              # written before the taper's spec string


_FORMS = {
    "infinite": _Form(InfiniteIntegral, "a", "lower_limit", parse_taper_spec, "x"),
    "finite": _Form(FiniteIntegral, "beta", "upper_limit", parse_boundary_spec, "u", True,
                    "wfromz:"),
}
_VERDICTS = {"equal_within_tol", "mismatch", "existence_asymmetry", "unresolved",
             "both_nonconverged"}


@dataclass(frozen=True)
class Case:
    case_id: str
    left: ZIntegralSpec
    left_mode: str
    right: ZIntegralSpec
    right_mode: str
    expected_verdict: str
    tol: float
    config: EvalConfig


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    verdict: str
    expected_verdict: str
    as_expected: bool
    left_value: float
    right_value: float
    left_status: str
    right_status: str
    evaluations: int


@dataclass(frozen=True)
class SuiteReport:
    cases: tuple[CaseReport, ...]
    all_expected: bool

    def to_json(self) -> str:
        return strict_json({"cases": [asdict(c) for c in self.cases],
                            "all_expected": self.all_expected}, indent=2)

    def to_table(self) -> str:
        rows = [f"{'case':34} {'verdict':22} {'expected':22} {'ok':3} "
                f"{'left':14} {'right':14} evals"]
        for c in self.cases:
            rows.append(
                f"{c.case_id:34} {c.verdict:22} {c.expected_verdict:22} "
                f"{'yes' if c.as_expected else 'NO ':3} "
                f"{c.left_value:14.8g} {c.right_value:14.8g} {c.evaluations}"
            )
        return "\n".join(rows)


def strict_json(payload, indent: int | None = None) -> str:
    """Standard JSON text of payload, with every non-finite float written as null."""
    try:
        return json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError:   # a non-finite float: walk the payload only then
        pass

    def clean(item):
        if isinstance(item, float) and not math.isfinite(item):
            return None
        if isinstance(item, dict):
            return {key: clean(value) for key, value in item.items()}
        if isinstance(item, (list, tuple)):
            return [clean(value) for value in item]
        return item

    return json.dumps(clean(payload), indent=indent, allow_nan=False)


def shipped_corpus_path() -> resources.abc.Traversable:
    """The shipped corpus as a resource: a file, or a member of a zipped package."""
    return resources.files("zvar").joinpath("data/corpus.jsonl")


def load_corpus(path: str | Path | None = None) -> list[Case]:
    source = shipped_corpus_path() if path is None else Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as err:
        raise CorpusError(f"cannot read corpus {source}: {err}") from None
    cases = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise CorpusError(f"{source}:{lineno}: invalid json: {err}") from None
        try:
            case = _build_case(obj)
        except (CorpusError, TaperError, CovError, ExprError, ValueError, TypeError) as err:
            raise CorpusError(f"{source}:{lineno}: {err}") from None
        if case.case_id in cases:
            raise CorpusError(f"{source}:{lineno}: duplicate case id {case.case_id!r}")
        cases[case.case_id] = case
    if not cases:
        raise CorpusError(f"no cases in corpus {source}")
    return list(cases.values())


def _build_case(obj: dict) -> Case:
    if not isinstance(obj, dict):
        raise CorpusError("case must be a json object")
    unknown = set(obj) - _CASE_KEYS
    if unknown:
        raise CorpusError(f"unknown case fields: {', '.join(sorted(unknown))}")
    for required in ("id", "left_spec", "expected_verdict", "tol"):
        if required not in obj:
            raise CorpusError(f"case is missing field {required!r}")
    if obj["expected_verdict"] not in _VERDICTS:
        raise CorpusError(f"unknown expected_verdict {obj['expected_verdict']!r}")
    if not is_number(obj["tol"]):
        raise CorpusError("tol must be a number")
    tol = float(obj["tol"])
    if not (math.isfinite(tol) and tol > 0.0):
        raise CorpusError(f"tol must be positive and finite, got {obj['tol']!r}")
    cfg = EvalConfig(**obj.get("config", {}))
    left, left_mode = build_spec(obj["left_spec"], field="left_spec")

    if ("right_spec" in obj) == ("cov" in obj):
        raise CorpusError("exactly one of right_spec or cov is required")
    if "right_spec" in obj:
        right, right_mode = build_spec(obj["right_spec"], field="right_spec")
    else:
        right, right_mode = derive_right(left, left_mode, obj["cov"])
    return Case(case_id=str(obj["id"]), left=left, left_mode=left_mode,
                right=right, right_mode=right_mode,
                expected_verdict=obj["expected_verdict"], tol=tol, config=cfg)


def derive_right(left: ZIntegralSpec, left_mode: str, cov_text: str) -> tuple[ZIntegralSpec, str]:
    """The image of `left` under a transform string, and the mode it runs in.

    A finite image inherits the left side's mode; an infinite image runs direct.
    """
    cov = parse_cov_spec(cov_text,
                         a=left.lower_limit if isinstance(left, InfiniteIntegral) else None)
    right = apply_cov(left, cov)
    return right, left_mode if isinstance(right, FiniteIntegral) else "direct"


def build_spec(obj: dict, field: str) -> tuple[ZIntegralSpec, str]:
    """Build an integral spec and its evaluation mode from a corpus spec object."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise CorpusError(f"{field}: integral spec needs a 'type'")
    form = _FORMS.get(obj["type"])
    if form is None:
        raise CorpusError(f"{field}.type: unknown integral type {obj['type']!r}")
    keys = {"type", "integrand", form.limit, "taper", "var"} | ({"mode"} if form.has_mode else set())
    unknown = set(obj) - keys
    if unknown:
        raise CorpusError(f"{field}: unknown fields: {', '.join(sorted(unknown))}")
    for required in ("integrand", form.limit, "taper"):
        if required not in obj:
            raise CorpusError(f"{field}: missing field {required!r}")
    mode = obj.get("mode", "direct")
    if mode not in ("direct", "bridge"):
        raise CorpusError(f"{field}.mode: unknown mode {mode!r}")
    variable = obj.get("var", form.var)
    if not is_number(obj[form.limit]):
        raise CorpusError(f"{field}.{form.limit} must be a number")
    try:   # a finite integral checks that its taper leaves w some support
        taper = form.parse_taper(obj["taper"])
        spec = form.cls(parse(obj["integrand"], variables=(variable,)), float(obj[form.limit]),
                        taper, variable=variable)
    except TaperError as err:
        raise CorpusError(f"{field}.taper: {err}") from None
    return spec, mode


def spec_object(spec: ZIntegralSpec, mode: str = "direct") -> dict:
    """The corpus spec object of `spec` evaluated in `mode`: the inverse of build_spec."""
    kind, form = next((kind, form) for kind, form in _FORMS.items() if isinstance(spec, form.cls))
    obj = {"type": kind, "integrand": serialize(spec.integrand),
           form.limit: getattr(spec, form.attr),
           "taper": form.taper_prefix + spec.taper.spec_string(), "var": spec.variable}
    if form.has_mode:
        obj["mode"] = mode
    return obj


def run_suite(path: str | Path | None = None) -> SuiteReport:
    """Evaluate every corpus case and compare verdicts with expectations.

    The report is ordered by case id, independent of evaluation order.
    """
    reports = []
    for case in load_corpus(path):
        outcome = compare_pair(case.left, case.right, case.config, case.tol,
                               case_id=case.case_id, mode_a=case.left_mode,
                               mode_b=case.right_mode)
        reports.append(CaseReport(
            case_id=case.case_id,
            verdict=outcome.verdict,
            expected_verdict=case.expected_verdict,
            as_expected=outcome.verdict == case.expected_verdict,
            left_value=outcome.left.value,
            right_value=outcome.right.value,
            left_status=outcome.left.status,
            right_status=outcome.right.status,
            evaluations=outcome.left.evaluations + outcome.right.evaluations,
        ))
    reports.sort(key=lambda r: r.case_id)
    return SuiteReport(cases=tuple(reports), all_expected=all(r.as_expected for r in reports))
