"""Command-line front end: evaluate, transform, verify.

Exit codes: 0 for converged evaluations and expected/equal verdicts, 2 for
non-convergence or verdict mismatches, 1 for usage or evaluation errors.
JSON mode emits a single object whose spec_echo block reproduces the run: its
spec and config drop into a corpus line as left_spec and config.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

from .cov import CovError
from .expr import ExprError, serialize
from .taper import TaperError
from .verify import (CorpusError, build_spec, compare_pair, derive_right, evaluate_spec,
                     run_suite, spec_object, strict_json)
from .zeval import EvalConfig, InfiniteIntegral, ZResult

_USAGE_ERRORS = (ExprError, TaperError, CovError, CorpusError, ValueError)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read -1e3 as a value, as -5 and -0.5 are, not as an unknown flag.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # argparse default exits with 2; we reserve 2
        raise _CliError(message)


@functools.cache   # built on first use, then shared: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="zvar", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_spec_flags(p):
        p.add_argument("--type", choices=("inf", "fin"), required=True,
                       help="integral form: infinite upper limit or critical lower limit 0")
        p.add_argument("--f", help="integrand for an infinite-limit integral (in x)")
        p.add_argument("--g", help="integrand for a finite-limit integral (in u)")
        p.add_argument("--var", help="integration variable (default x / u)")
        p.add_argument("--a", type=float, help="finite lower limit (infinite form)")
        p.add_argument("--beta", type=float, help="noncritical upper limit (finite form)")
        p.add_argument("--z", help="termination function, e.g. taper:c=1 or matched:omega=1,c=1",
                       required=False)
        p.add_argument("--w", help="boundary taper, e.g. wfromz:taper:c=1", required=False)
        p.add_argument("--mode", choices=("direct", "bridge"), default="direct",
                       help="finite-limit evaluation route")

    def add_config_flags(p):
        p.add_argument("--b-start", type=float, dest="b_start")
        p.add_argument("--b-step", type=float, dest="b_step")
        p.add_argument("--b-count", type=int, dest="b_count")
        p.add_argument("--delta-count", type=int, dest="delta_count")
        p.add_argument("--tol", type=float, dest="tol")
        p.add_argument("--quad-tol", type=float, dest="quad_tol")
        p.add_argument("--accelerate", action="store_true", default=None)

    p_eval = sub.add_parser("eval", help="evaluate one integral")
    add_spec_flags(p_eval)
    add_config_flags(p_eval)
    p_eval.add_argument("--json", action="store_true")

    p_tr = sub.add_parser("transform", help="apply a change of variable")
    add_spec_flags(p_tr)
    add_config_flags(p_tr)
    p_tr.add_argument("--cov", required=True,
                      help="power:d=1,r=2 | exp:d=1,alpha=1 | finpower:d=1,r=2 | "
                           "custom:kind=...,forward=...,inverse=...,lo=...,hi=... | "
                           "bridge:d=1,alpha=1")
    p_tr.add_argument("--print-spec", action="store_true",
                      help="print the transformed integral instead of evaluating the pair")
    p_tr.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run a corpus of comparison cases")
    p_ver.add_argument("--corpus", help="jsonl corpus path (default: shipped corpus)")
    p_ver.add_argument("--json", action="store_true")
    return parser


def _build_config(args) -> EvalConfig:
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(EvalConfig)
              if getattr(args, f.name) is not None}
    return EvalConfig(**fields)


def _spec_object(args, default_taper: bool) -> dict:
    """The corpus spec object (see verify.build_spec) that the spec flags describe."""
    if args.type == "inf":
        obj = {"type": "infinite", "integrand": args.f if args.f is not None else args.g,
               "a": args.a, "taper": args.z}
        if obj["integrand"] is None:
            raise _CliError("--f is required for --type inf")
        if args.a is None:
            raise _CliError("--a is required for --type inf")
        if args.z is None:
            if not default_taper:
                raise _CliError("--z is required for --type inf")
            obj["taper"] = "taper:c=1"
    else:
        obj = {"type": "finite", "integrand": args.g if args.g is not None else args.f,
               "beta": args.beta, "taper": args.w, "mode": args.mode}
        if obj["integrand"] is None:
            raise _CliError("--g is required for --type fin")
        if args.beta is None:
            raise _CliError("--beta is required for --type fin")
        if args.w is None:
            if not default_taper:
                raise _CliError("--w is required for --type fin")
            obj["taper"] = "wfromz:taper:c=1"
    if args.var:
        obj["var"] = args.var
    return obj


def _result_payload(result: ZResult, spec, mode: str, cfg: EvalConfig) -> dict:
    b_start = cfg.b_start
    if b_start is None and isinstance(spec, InfiniteIntegral):
        b_start = spec.lower_limit + 1.0
    return {
        "value": result.value,
        "error_estimate": result.error_estimate,
        "status": result.status,
        "samples": result.samples,   # json writes a tuple as a list
        "evaluations": result.evaluations,
        "accelerated": result.accelerated,
        # a corpus line's left_spec and config, as resolved for this run
        "spec_echo": {"spec": spec_object(spec, mode),
                      "config": {**vars(cfg), "b_start": b_start}},
    }


def _print_result(result: ZResult, out) -> None:
    print(f"status: {result.status}", file=out)
    print(f"value: {result.value!r}", file=out)
    print(f"error_estimate: {result.error_estimate:.6g}", file=out)
    print(f"evaluations: {result.evaluations}", file=out)
    print(f"samples: {len(result.samples)}", file=out)


def _cmd_eval(args, out) -> int:
    spec, mode = build_spec(_spec_object(args, default_taper=False), field="spec")
    cfg = _build_config(args)
    result = evaluate_spec(spec, cfg, mode)
    if args.json:
        print(strict_json(_result_payload(result, spec, mode, cfg)), file=out)
    else:
        _print_result(result, out)
    return 0 if result.status == "converged" else 2


def _cmd_transform(args, out) -> int:
    spec, mode = build_spec(_spec_object(args, default_taper=True), field="spec")
    cfg = _build_config(args)
    transformed, transformed_mode = derive_right(spec, mode, args.cov)

    if args.print_spec:
        if args.json:
            print(strict_json(spec_object(transformed, transformed_mode)), file=out)
        else:
            if isinstance(transformed, InfiniteIntegral):
                limit_name, limit = "lower_limit", transformed.lower_limit
            else:
                limit_name, limit = "upper_limit", transformed.upper_limit
            print(f"integrand: {serialize(transformed.integrand)}", file=out)
            print(f"{limit_name}: {limit!r}", file=out)
        return 0

    outcome = compare_pair(spec, transformed, cfg, cfg.tol, mode_a=mode, mode_b=transformed_mode)
    left, right = outcome.left, outcome.right
    if args.json:
        print(strict_json({
            "verdict": outcome.verdict,
            "left": {"value": left.value, "status": left.status},
            "right": {"value": right.value, "status": right.status,
                      "integrand": serialize(transformed.integrand)},
        }), file=out)
    else:
        print(f"verdict: {outcome.verdict}", file=out)
        print(f"left:  status={left.status} value={left.value!r}", file=out)
        print(f"right: status={right.status} value={right.value!r} "
              f"integrand={serialize(transformed.integrand)}", file=out)
    return 0 if outcome.verdict == "equal_within_tol" else 2


def _cmd_verify(args, out) -> int:
    report = run_suite(args.corpus)
    print(report.to_json() if args.json else report.to_table(), file=out)
    return 0 if report.all_expected else 2


def run_cli(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "eval":
            return _cmd_eval(args, out)
        if args.subcommand == "transform":
            return _cmd_transform(args, out)
        return _cmd_verify(args, out)
    except (_CliError, *_USAGE_ERRORS) as e:
        print(f"zvar: error: {e}", file=err)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
