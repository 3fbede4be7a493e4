"""Seeded inputs, reference values and one round of operations per workload.

A round is a fixed list of operations generated once from the seed; a run
repeats whole rounds, so the failed share of attempted operations is the same
in every run.  References are closed forms or Abel values computed here with
`math`, never by zvar.

Functions look zvar up through `sys.modules` at call time, so a run sees the
modules of the last (re-)import and any wrapper the tracer has installed.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter


def _zvar(name: str):
    return sys.modules[f"zvar.{name}"]


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One draw from each of n equal slices of [lo, hi], in slice order."""
    width = (hi - lo) / n
    return [round(lo + (i + rng.random()) * width, 4) for i in range(n)]


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [round(rng.uniform(lo, hi), 4) for _ in range(n)]


# --------------------------------------------------------------------------
# corpus: passes over the shipped 13-case corpus, in a seeded case order.
# --------------------------------------------------------------------------

_COS1 = math.cos(1.0)

# Values each side converges to, by case id: closed forms, and the Abel
# value cos(1) for the tone and sin(1/u)/u^2 cases.  None marks a side that
# has no value (it must not come back converged).
CORPUS_REFERENCE = {
    "conv_inverse_square_taper_independence": (1.0, 1.0),
    "conv_inverse_square_power_map": (1.0, 1.0),
    "conv_inverse_square_exp_map": (1.0, 1.0),
    "tone_shift_map": (1.0, 1.0),
    "tone_linear_rescale": (_COS1, _COS1),
    "tone_power_image_asymmetry": (_COS1, None),
    "tone_taper_choice_asymmetry": (1.0, None),
    "bridge_oscillatory_direct_vs_bridge": (_COS1, _COS1),
    "bridge_exp_decay_to_constant": (1.0, 1.0),
    "bridge_logarithmic_divergence": (None, None),
    "finite_power_inverse_sqrt": (2.0, 2.0),
    "finite_power_oscillatory": (_COS1, _COS1),
    "distinct_values_mismatch": (1.0, 2.0),
}


def _side_ok(result, reference, tol) -> bool:
    if result.status != "converged":
        return True
    return reference is not None and abs(result.value - reference) <= tol


def corpus_inputs(seed: int) -> list[str]:
    order = sorted(CORPUS_REFERENCE)
    random.Random(seed).shuffle(order)
    return order


def corpus_round(order: list[str], record) -> None:
    verify = _zvar("verify")
    cases = {case.case_id: case for case in verify.load_corpus()}
    for case_id in order:
        case = cases[case_id]
        start = perf_counter()
        out = verify.compare_pair(case.left, case.right, case.config, case.tol,
                                  case_id=case.case_id, mode_a=case.left_mode,
                                  mode_b=case.right_mode)
        elapsed = perf_counter() - start
        left_ref, right_ref = CORPUS_REFERENCE[case_id]
        ok = (out.verdict == case.expected_verdict
              and _side_ok(out.left, left_ref, case.tol)
              and _side_ok(out.right, right_ref, case.tol))
        record(elapsed, ok, out.left.evaluations + out.right.evaluations)


# --------------------------------------------------------------------------
# eval_scan: in-process `zvar eval ... --json` requests over closed forms.
# --------------------------------------------------------------------------

TOL = 1e-6               # EvalConfig's default tol; every eval_scan request uses it
_TAIL_REMAINDER = 1e-7   # x^-p requests start where the dropped tail is this
PER_FAMILY = 8


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    reference: float
    probe: bool = False


def _inf(f: str, a: float, z: str, *extra: str) -> tuple[str, ...]:
    return ("eval", "--type", "inf", "--f", f, "--a", repr(a), "--z", z, *extra, "--json")


def _fin(g: str, beta: float, mode: str, *extra: str) -> tuple[str, ...]:
    return ("eval", "--type", "fin", "--g", g, "--beta", repr(beta),
            "--w", "wfromz:taper:c=1", "--mode", mode, *extra, "--json")


# The known classifier fault: monotone creep labelled oscillatory.  These
# do not depend on the seed and fail on every run until the classifier is
# fixed; they pass once their status is not oscillatory.
PROBES = (
    Request(_inf("x^-1.5", 1.0, "taper:c=1", "--b-start", "10", "--b-step", "10",
                 "--accelerate"), 2.0, probe=True),
    Request(_inf("1/(x*ln(x)^2)", 2.0, "taper:c=1", "--b-step", "50"),
            1.0 / math.log(2.0), probe=True),
)


def eval_scan_inputs(seed: int) -> list[Request]:
    """The probes, then the five families interleaved, PER_FAMILY requests each."""
    rng = random.Random(seed)
    n = PER_FAMILY
    modes = ("direct", "bridge") * (n // 2)
    exp_reqs = [Request(_inf(f"exp(-{k}*x)", a, "taper:c=1"), math.exp(-k * a) / k)
                for k, a in zip(_strata(rng, 1.0, 3.0, n), _uniform(rng, 0.0, 2.0, n))]
    tone_reqs = [Request(_inf(f"sin({w}*x)", a, f"matched:omega={w},c=1"), math.cos(w * a) / w)
                 for w, a in zip(_strata(rng, 0.5, 4.0, n), _uniform(rng, 0.0, 2.0, n))]
    power_reqs = []
    for p, a in zip(_strata(rng, 1.5, 3.0, n), _uniform(rng, 1.0, 3.0, n)):
        b_start = (_TAIL_REMAINDER * (p - 1.0)) ** (1.0 / (1.0 - p))
        power_reqs.append(Request(_inf(f"x^-{p}", a, "taper:c=1", "--b-start", repr(b_start)),
                                  a ** (1.0 - p) / (p - 1.0)))
    uq_reqs = [Request(_fin(f"u^-{q}", beta, mode, "--accelerate"), beta ** (1.0 - q) / (1.0 - q))
               for q, beta, mode in zip(_strata(rng, 0.1, 0.9, n), _uniform(rng, 0.5, 2.0, n), modes)]
    ln_reqs = [Request(_fin("ln(u)", beta, mode, "--accelerate"), beta * math.log(beta) - beta)
               for beta, mode in zip(_strata(rng, 0.5, 3.0, n), modes)]
    families = zip(exp_reqs, tone_reqs, power_reqs, uq_reqs, ln_reqs)
    return list(PROBES) + [req for group in families for req in group]


def eval_scan_round(requests: list[Request], record) -> None:
    cli = _zvar("cli")
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        code = cli.run_cli(list(req.argv), out=out, err=err)
        elapsed = perf_counter() - start
        if code == 1:
            record(elapsed, False, 0, req.probe)
            continue
        payload = json.loads(out.getvalue())
        converged = payload["status"] == "converged"
        close = abs(payload["value"] - req.reference) <= TOL
        if req.probe:
            ok = payload["status"] != "oscillatory" and (close or not converged)
        else:
            ok = code == 0 and converged and close
        record(elapsed, ok, payload["evaluations"], req.probe)


# --------------------------------------------------------------------------
# deep_oscillatory: sin(k/u)/u^2 on (0, beta], default EvalConfig.
# --------------------------------------------------------------------------

DEEP_PAIRS = 160


@dataclass(frozen=True)
class DeepCase:
    spec: object
    mode: str
    reference: float


def deep_inputs(seed: int) -> list[DeepCase]:
    """DEEP_PAIRS (k, beta) points, Latin-hypercube over the ranges, each in both modes.

    Evaluation counts jump by up to 2x when k moves by 0.5% (the stopping
    window closes one sample earlier or later), so only a large round keeps
    the per-seed means steady.
    """
    zvar = sys.modules["zvar"]
    rng = random.Random(seed)
    taper = _zvar("taper").parse_boundary_spec("wfromz:taper:c=1")
    ks = _strata(rng, 0.5, 3.0, DEEP_PAIRS)
    betas = _strata(rng, 0.5, 2.0, DEEP_PAIRS)
    rng.shuffle(betas)
    cases = []
    for k, beta in zip(ks, betas):
        spec = zvar.FiniteIntegral(zvar.parse(f"sin({k}/u)/u^2", variables=("u",)), beta, taper)
        # Abel value: with t = 1/u the integral is that of sin(k t) from 1/beta.
        reference = math.cos(k / beta) / k
        cases.extend(DeepCase(spec, mode, reference) for mode in ("direct", "bridge"))
    return cases


def deep_round(cases: list[DeepCase], record) -> None:
    zeval = _zvar("zeval")
    cfg = zeval.EvalConfig()
    for case in cases:
        start = perf_counter()
        result = zeval.eval_finite(case.spec, cfg, mode=case.mode)
        elapsed = perf_counter() - start
        ok = result.status == "converged" and abs(result.value - case.reference) <= cfg.tol
        record(elapsed, ok, result.evaluations)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], list]      # seed -> one round's inputs
    run_round: Callable[..., None]          # (inputs, record) -> None
    tail_percentile: int                    # op_tail_s percentile, see README


WORKLOADS = {
    "corpus": Workload(corpus_inputs, corpus_round, 98),
    "eval_scan": Workload(eval_scan_inputs, eval_scan_round, 99),
    "deep_oscillatory": Workload(deep_inputs, deep_round, 96),
}
