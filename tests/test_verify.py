"""Verification harness tests: verdicts, corpus schema, suite, spec objects."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import zvar
from zvar.cov import apply_cov, make_custom_cov, make_power_cov
from zvar.expr import parse
from zvar.taper import make_matched_trig, make_smooth_taper
from zvar.verify import (
    CorpusError,
    build_spec,
    compare_pair,
    evaluate_spec,
    load_corpus,
    pair_verdict,
    run_suite,
    spec_object,
)
from zvar.zeval import STABILITY_WINDOW, EvalConfig, FiniteIntegral, InfiniteIntegral, ZResult


@pytest.fixture(scope="module")
def matched():
    return make_matched_trig(1.0, 1.0)


def test_compare_shift_pair(matched):
    left = InfiniteIntegral(parse("sin(x)"), 0.0, matched)
    shift = make_custom_cov("infinite_cov", "x+5", "y-5", (0.0, 60.0))
    right = apply_cov(left, shift)
    out = compare_pair(left, right, EvalConfig(), 1e-5, case_id="shift")
    assert out.verdict == "equal_within_tol"
    assert out.left.value == pytest.approx(1.0, abs=1e-6)
    assert out.right.value == pytest.approx(1.0, abs=1e-6)


def test_compare_linear_rescale_pair(matched):
    left = InfiniteIntegral(parse("sin(x)"), 1.0, matched)
    right = InfiniteIntegral(parse("sin(y/2)/2"), 2.0, make_matched_trig(0.5, 1.0),
                             variable="y")
    out = compare_pair(left, right, EvalConfig(), 1e-5)
    assert out.verdict == "equal_within_tol"
    assert out.left.value == pytest.approx(math.cos(1.0), abs=1e-6)


def test_compare_pair_gives_each_side_what_it_gets_alone():
    # The two sides share each quadrature call, each in a budget pool of its
    # own, so each gets bit for bit what it gets evaluated alone, samples and
    # evaluations included.  tan(x) has a pole in its first window, so that
    # side ends quad_failure while the other runs on.
    smooth = make_smooth_taper(1.0)
    pairs = [(c.left, c.left_mode, c.right, c.right_mode, c.config) for c in load_corpus()]
    pairs.append((InfiniteIntegral(parse("tan(x)"), 0.0, smooth), "direct",
                  FiniteIntegral(parse("sin(1/u)/u^2", variables=("u",)), 1.0, smooth),
                  "bridge", EvalConfig()))
    for left, left_mode, right, right_mode, cfg in pairs:
        out = compare_pair(left, right, cfg, 1e-6, mode_a=left_mode, mode_b=right_mode)
        assert repr(out.left) == repr(evaluate_spec(left, cfg, left_mode))
        assert repr(out.right) == repr(evaluate_spec(right, cfg, right_mode))
    assert out.left.status == "quad_failure" and out.right.status == "converged"
    assert len(pairs) == 14


def test_fitted_chunks_change_no_result_of_the_corpus(monkeypatch):
    # A chunk may run past the stopping point, but no result past it is read:
    # each side gives by repr, evaluations aside, what it gives when the chunk
    # holding its stopping sample (or failing point) ends there, and spends at
    # least as many.  A pass makes at most 44 engine calls: chunks sized from
    # a fitted power tail alone made 53, and chunks that end at the first
    # point that could stop made 135.
    import zvar.zeval

    calls = []
    original = zvar.zeval.integrate_segments
    monkeypatch.setattr(zvar.zeval, "integrate_segments",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    cases = load_corpus()

    def run():
        return [compare_pair(c.left, c.right, c.config, c.tol, mode_a=c.left_mode,
                             mode_b=c.right_mode) for c in cases]

    def shown(side):
        return repr(dataclasses.replace(side, evaluations=0))

    chunked = run()
    assert len(calls) <= 44
    chunk_end = zvar.zeval._chunk_end
    for case, out in zip(cases, chunked, strict=True):
        for spec, mode, side in ((case.left, case.left_mode, out.left),
                                 (case.right, case.right_mode, out.right)):
            stop = len(side.samples) + (side.status == "quad_failure")
            monkeypatch.setattr(zvar.zeval, "_chunk_end",
                                lambda *args, stop=stop: min(chunk_end(*args), stop))
            cut = evaluate_spec(spec, case.config, mode)
            assert shown(side) == shown(cut)
            assert side.evaluations >= cut.evaluations
    # One point per chunk puts each segment first in its chunk, so it starts
    # from other panels than in a longer chunk, and its value moves within
    # quadrature error: the same verdicts, statuses and sample counts, and
    # values within the two runs' summed error estimates.
    monkeypatch.setattr(zvar.zeval, "_chunk_end", lambda values, size, m, tol: len(values) + 1)
    for fitted, single in zip(chunked, run(), strict=True):
        assert fitted.verdict == single.verdict
        for a, b in ((fitted.left, single.left), (fitted.right, single.right)):
            assert (a.status, len(a.samples)) == (b.status, len(b.samples))
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_compare_pair_raises_the_left_error_first(monkeypatch):
    # The right side's beta is past the engine's range, which it refuses
    # before any quadrature.  The left side's windows reach past the range
    # only after several chunks; its error is still the one raised, as when
    # the sides run one after the other.  The step is small enough that the
    # left side's geometric tail does not run its second chunk to the end of
    # the range.
    import zvar.zeval

    calls = []
    original = zvar.zeval.integrate_segments
    monkeypatch.setattr(zvar.zeval, "integrate_segments",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    cfg = EvalConfig(b_start=8.9e307, b_step=1e304, b_count=200)
    left = InfiniteIntegral(parse("1/x"), 1e300, make_smooth_taper(1e300))
    right = FiniteIntegral(parse("u", variables=("u",)), 9e307, make_smooth_taper(1.0))
    with pytest.raises(ValueError, match=r"^b_start 8\.9e\+307 and taper width"):
        compare_pair(left, right, cfg, 1e-6)
    assert len(calls) > 1
    with pytest.raises(ValueError, match=r"^beta 9e\+307 is past"):
        compare_pair(right, left, cfg, 1e-6)


def _last_window_spread(result):
    values = [v for _, v in result.samples[-STABILITY_WINDOW:]]
    return max(values) - min(values)


def test_compare_power_image_asymmetry(matched):
    left = InfiniteIntegral(parse("sin(x)"), 1.0, matched)
    right = apply_cov(left, make_power_cov(1.0, 2.0, 1.0))
    cfg = EvalConfig(b_start=1.0, b_count=35)
    out = compare_pair(left, right, cfg, 1e-5)
    assert out.verdict == "existence_asymmetry"
    assert out.left.status == "converged"
    assert out.right.status == "oscillatory"
    assert _last_window_spread(out.right) > 0.1
    # symmetry: swapping the sides keeps the verdict class
    swapped = compare_pair(right, left, cfg, 1e-5)
    assert swapped.verdict == "existence_asymmetry"


def test_taper_choice_asymmetry_row():
    # the same tone exists under a matched taper and oscillates under a smooth one
    (case,) = [c for c in load_corpus() if c.case_id == "tone_taper_choice_asymmetry"]
    left = evaluate_spec(case.left, case.config, case.left_mode)
    right = evaluate_spec(case.right, case.config, case.right_mode)
    assert left.status == "converged"
    assert abs(left.value - 1.0) < 1e-6
    assert right.status == "oscillatory"
    assert _last_window_spread(right) > 0.1


def test_verdict_table_is_total():
    from zvar.verify import pair_verdict

    def zr(status, value=1.0):
        return ZResult(value=value, error_estimate=0.0, status=status,
                       samples=((1.0, value),), evaluations=1)

    statuses = ("converged", "oscillatory", "drifting", "quad_failure")
    for a in statuses:
        for b in statuses:
            verdict = pair_verdict(zr(a), zr(b, 1.0), 1e-6)
            assert verdict in {"equal_within_tol", "mismatch", "existence_asymmetry",
                               "unresolved", "both_nonconverged"}
            flipped = pair_verdict(zr(b, 1.0), zr(a), 1e-6)
            assert flipped == verdict  # symmetric for equal values

    assert pair_verdict(zr("converged", 1.0), zr("converged", 2.0), 1e-6) == "mismatch"
    assert pair_verdict(zr("converged"), zr("oscillatory"), 1e-6) == "existence_asymmetry"
    # drifting or failing is no evidence that an integral does not exist
    assert pair_verdict(zr("converged"), zr("drifting"), 1e-6) == "unresolved"
    assert pair_verdict(zr("quad_failure"), zr("converged"), 1e-6) == "unresolved"
    assert pair_verdict(zr("drifting"), zr("quad_failure"), 1e-6) == "both_nonconverged"


# ---------------------------------------------------------------------------
# corpus handling
# ---------------------------------------------------------------------------

def test_shipped_corpus_all_expected():
    report = run_suite()
    assert len(report.cases) >= 12
    for case in report.cases:
        assert case.as_expected, f"{case.case_id}: {case.verdict} != {case.expected_verdict}"
    assert report.all_expected


def test_suite_determinism():
    assert run_suite() == run_suite()


def test_corpus_loads_shipped_file():
    cases = load_corpus()
    assert len({c.case_id for c in cases}) == len(cases)


def test_shipped_corpus_builds_each_tone_once(monkeypatch):
    # Five of the corpus's six matched specs share omega=1, c=1; the sixth is
    # omega=0.5.  A load builds each of the two once, and a second load none.
    import zvar.taper

    tones = []
    original = zvar.taper._tone_moments

    def counted(bodies, omega, c, tol):
        tones.append((omega, c))
        return original(bodies, omega, c, tol)

    monkeypatch.setattr(zvar.taper, "_tone_moments", counted)
    zvar.taper._smooth_taper.cache_clear()
    zvar.taper._matched_trig.cache_clear()
    load_corpus()
    assert sorted(tones) == [(0.5, 1.0), (1.0, 1.0)]
    load_corpus()
    assert len(tones) == 2


def test_shipped_corpus_loads_from_a_zipped_package(tmp_path):
    # Imported from a zip, the corpus is a zip member, not a file on disk.
    package = Path(zvar.__file__).parent
    archive = tmp_path / "zvar.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in package.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, Path("zvar") / path.relative_to(package))
    code = ("import zvar, zvar.verify\n"
            "assert '.zip' in zvar.__file__, zvar.__file__\n"
            "print(len(zvar.verify.load_corpus()))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(archive)})
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == len(load_corpus())


def test_empty_corpus_rejected(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(CorpusError, match="no cases"):
        load_corpus(empty)


def test_unknown_taper_kind_names_field(tmp_path):
    bad = tmp_path / "bad.jsonl"
    case = {
        "id": "x", "left_spec": {"type": "infinite", "integrand": "x^-2", "a": 1.0,
                                 "taper": "mystery:c=1"},
        "right_spec": {"type": "infinite", "integrand": "x^-2", "a": 1.0,
                       "taper": "taper:c=1"},
        "expected_verdict": "equal_within_tol", "tol": 1e-5,
    }
    bad.write_text(json.dumps(case) + "\n")
    with pytest.raises(CorpusError, match=r"left_spec\.taper.*mystery"):
        load_corpus(bad)


_GOOD_SPEC = {"type": "infinite", "integrand": "x^-2", "a": 1.0, "taper": "taper:c=1"}
_GOOD_CASE = {"id": "x", "left_spec": _GOOD_SPEC, "right_spec": _GOOD_SPEC,
              "expected_verdict": "equal_within_tol", "tol": 1e-5}
_FINITE_SPEC = {"type": "finite", "integrand": "1/u", "beta": 1.0, "taper": "wfromz:taper:c=1"}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("case, match", [
    pytest.param(None, "cannot read corpus .*bad.jsonl", id="unreadable-path"),
    pytest.param([1, 2], "bad.jsonl:1: case must be a json object", id="not-an-object"),
    pytest.param({**_GOOD_CASE, "surprise": 1}, "bad.jsonl:1: unknown case fields: surprise",
                 id="unknown-case-field"),
    pytest.param(_without(_GOOD_CASE, "tol"), "bad.jsonl:1: case is missing field 'tol'",
                 id="no-tol"),
    pytest.param({**_GOOD_CASE, "expected_verdict": "maybe"},
                 "bad.jsonl:1: unknown expected_verdict 'maybe'", id="unknown-verdict"),
    pytest.param({**_GOOD_CASE, "tol": 0.0}, "bad.jsonl:1: tol must be positive", id="tol-zero"),
    pytest.param({**_GOOD_CASE, "left_spec": _without(_GOOD_SPEC, "type")},
                 "bad.jsonl:1: left_spec: integral spec needs a 'type'", id="no-type"),
    pytest.param({**_GOOD_CASE, "left_spec": {**_GOOD_SPEC, "type": "sideways"}},
                 "bad.jsonl:1: left_spec.type: unknown integral type 'sideways'",
                 id="unknown-type"),
    pytest.param({**_GOOD_CASE, "left_spec": {**_GOOD_SPEC, "surprise": 1}},
                 "bad.jsonl:1: left_spec: unknown fields: surprise", id="unknown-spec-field"),
    pytest.param({**_GOOD_CASE, "left_spec": _without(_GOOD_SPEC, "integrand")},
                 "bad.jsonl:1: left_spec: missing field 'integrand'", id="no-integrand"),
    pytest.param({**_GOOD_CASE, "left_spec": {**_FINITE_SPEC, "mode": "sideways"}},
                 "bad.jsonl:1: left_spec.mode: unknown mode 'sideways'", id="unknown-mode"),
    pytest.param({**_GOOD_CASE, "left_spec": _FINITE_SPEC, "right_spec": _FINITE_SPEC,
                  "config": {"delta_count": 17.0}},
                 "bad.jsonl:1: delta_count must be an integer", id="float-delta-count"),
    pytest.param({**_GOOD_CASE, "config": {"b_count": True}},
                 "bad.jsonl:1: b_count must be an integer", id="bool-b-count"),
    # The window, delta ratio and budget are constants: a config that sets
    # one is rejected, naming it.
    *[pytest.param({**_GOOD_CASE, "config": {name: value}},
                   f"bad.jsonl:1: .* unexpected keyword argument '{name}'", id=ident)
      for name, value, ident in (("stability_window", 5.0, "float-window"),
                                 ("max_evals_per_point", 1e7, "float-max-evals"),
                                 ("delta_shrink", False, "config-bool-delta-shrink"))],
    pytest.param({**_GOOD_CASE, "config": {"accelerate": "no"}},
                 "bad.jsonl:1: accelerate must be true or false", id="string-accelerate"),
    # the override of the sampled checks is gone
    pytest.param({**_GOOD_CASE, "allow_inconclusive": "no"},
                 "bad.jsonl:1: unknown case fields: allow_inconclusive",
                 id="string-allow-inconclusive"),
    # A float field takes a JSON number, not a bool or a string: {"tol": true}
    # once read as 1.0 and gave a wrong equal_within_tol.
    *[pytest.param({**_GOOD_CASE, "config": {name: value}}, f"bad.jsonl:1: {name} must be a number",
                   id=f"config-{kind}-{name.replace('_', '-')}")
      for name, value, kind in (("tol", True, "bool"), ("b_start", "1", "string"),
                                ("b_step", "0.7", "string"), ("quad_tol", "1e-10", "string"))],
    # ... and a finite one: {"tol": Infinity} once made both divergent sides converged.
    *[pytest.param({**_GOOD_CASE, "config": {name: value}},
                   f"bad.jsonl:1: {name} must be finite, got {value!r}",
                   id=f"config-{kind}-{name.replace('_', '-')}")
      for name, value, kind in (("tol", math.inf, "inf"), ("b_step", math.inf, "inf"),
                                ("b_start", math.nan, "nan"), ("quad_tol", -math.inf, "-inf"))],
    pytest.param({**_GOOD_CASE, "tol": True}, "bad.jsonl:1: tol must be a number", id="bool-tol"),
    pytest.param({**_GOOD_CASE, "tol": "1e-5"}, "bad.jsonl:1: tol must be a number",
                 id="string-tol"),
    pytest.param({**_GOOD_CASE, "left_spec": {**_GOOD_SPEC, "a": True}},
                 r"bad.jsonl:1: left_spec\.a must be a number", id="bool-a"),
    pytest.param({**_GOOD_CASE, "right_spec": {**_FINITE_SPEC, "beta": "1"}},
                 r"bad.jsonl:1: right_spec\.beta must be a number", id="string-beta"),
    pytest.param({**_GOOD_CASE, "right_spec": {**_FINITE_SPEC, "taper": "wfromz:taper:c=1e-300"}},
                 r"bad.jsonl:1: right_spec\.taper: taper width c=1e-300 .* e\^-c rounds to 1",
                 id="finite-taper-without-support"),
])
def test_malformed_corpus_rejected(tmp_path, case, match):
    bad = tmp_path / "bad.jsonl"
    if case is not None:
        bad.write_text(json.dumps(case) + "\n")
    with pytest.raises(CorpusError, match=match):
        load_corpus(bad)


def test_malformed_json_reports_line(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x",\n')
    with pytest.raises(CorpusError, match=":1:"):
        load_corpus(bad)


def test_duplicate_case_id_rejected(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(_GOOD_CASE) + "\n" + json.dumps(_GOOD_CASE) + "\n")
    with pytest.raises(CorpusError, match="bad.jsonl:2: duplicate case id 'x'"):
        load_corpus(bad)


def test_right_spec_and_cov_conflict(tmp_path):
    bad = tmp_path / "bad.jsonl"
    case = {
        "id": "x",
        "left_spec": {"type": "infinite", "integrand": "x^-2", "a": 1.0,
                      "taper": "taper:c=1"},
        "right_spec": {"type": "infinite", "integrand": "x^-2", "a": 1.0,
                       "taper": "taper:c=1"},
        "cov": "power:d=1,r=2",
        "expected_verdict": "equal_within_tol", "tol": 1e-5,
    }
    bad.write_text(json.dumps(case) + "\n")
    with pytest.raises(CorpusError, match="exactly one"):
        load_corpus(bad)


# ---------------------------------------------------------------------------
# spec objects
# ---------------------------------------------------------------------------

def test_spec_object_stands_in_for_every_shipped_cov():
    # each transform's image, written as a spec object and read back as a
    # right_spec, evaluates bit for bit like the image the cov derives
    cases = [json.loads(line) for line in
             zvar.verify.shipped_corpus_path().read_text().splitlines() if line.strip()]
    loaded = {case.case_id: case for case in load_corpus()}
    checked = 0
    for obj in cases:
        if "cov" not in obj:
            continue
        case = loaded[obj["id"]]
        written = json.loads(json.dumps(spec_object(case.right, case.right_mode)))
        right, right_mode = build_spec(written, field="right_spec")
        assert right_mode == case.right_mode
        left = evaluate_spec(case.left, case.config, case.left_mode)
        derived = evaluate_spec(case.right, case.config, case.right_mode)
        assert evaluate_spec(right, case.config, right_mode) == derived, obj["id"]
        assert pair_verdict(left, derived, case.tol) == case.expected_verdict
        checked += 1
    assert checked == 7


def test_spec_object_inverts_build_spec():
    for obj in ({"type": "infinite", "integrand": "sin(y/2.0)/2.0", "a": 2.0,
                 "taper": "matched:omega=0.5,c=1.0", "var": "y"},
                {"type": "finite", "integrand": "u^-0.5", "beta": 1.5,
                 "taper": "wfromz:taper:c=1.0", "var": "u", "mode": "bridge"}):
        assert spec_object(*build_spec(obj, field="spec")) == obj

