"""Termination-function improper integrals.

Evaluate infinite-limit and critical-lower-limit integrals under the
termination-function definitions, build changes of the integration
variable (including the exponential finite<->infinite bridge) and refuse a
custom one that a sampled check refutes, and verify value preservation and
existence (a)symmetry numerically.
"""

from .cov import (
    ChangeOfVariable,
    CovError,
    apply_cov,
    make_bridge_cov,
    make_custom_cov,
    make_exp_cov,
    make_finite_power_cov,
    make_power_cov,
)
from .expr import DomainFault, ExprAST, ParseError, differentiate, evaluate, parse, serialize, substitute
from .taper import (
    TaperError,
    TerminationFunction,
    check_moments,
    make_matched_trig,
    make_smooth_taper,
)
from .verify import VerificationOutcome, compare_pair, run_suite
from .zeval import (
    EvalConfig,
    FiniteIntegral,
    InfiniteIntegral,
    ZResult,
    classify_sequence,
    eval_finite,
    eval_infinite,
)

__version__ = "0.1.0"

__all__ = [
    "ChangeOfVariable", "CovError",
    "apply_cov", "make_bridge_cov", "make_custom_cov",
    "make_exp_cov", "make_finite_power_cov", "make_power_cov",
    "DomainFault", "ExprAST", "ParseError", "differentiate", "evaluate",
    "parse", "serialize", "substitute",
    "TaperError", "TerminationFunction", "check_moments", "make_matched_trig",
    "make_smooth_taper",
    "VerificationOutcome", "compare_pair", "run_suite",
    "EvalConfig", "FiniteIntegral", "InfiniteIntegral", "ZResult",
    "classify_sequence", "eval_finite", "eval_infinite",
]
