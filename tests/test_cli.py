"""CLI tests: flags, exit codes, json schema, spec-echo round trip."""

import io
import json
import math

import pytest

from zvar import taper, zeval
from zvar.cli import _build_parser, run_cli
from zvar.expr import MAX_DEPTH
from zvar.verify import evaluate_spec, load_corpus, run_suite, strict_json


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _first_run(argv):
    """What argv prints as the first request of a process: nothing built yet."""
    _build_parser.cache_clear()
    taper._smooth_taper.cache_clear()
    taper._matched_trig.cache_clear()
    return _run(argv)


def test_eval_infinite_json():
    argv = ["eval", "--type", "inf", "--f", "x^-2", "--a", "1", "--z", "taper:c=1",
            "--b-start", "2e6", "--b-step", "1", "--b-count", "30", "--json"]
    first = _first_run(argv)
    code, out, err = first
    assert code == 0, err
    # One parser serves every request of a process.  Neither a request that
    # fails parsing after setting a flag, nor a flag given to the request
    # before, carries over: the second call prints what it prints first.
    code, _, err = _first_run(["eval", "--type", "inf", "--accelerate", "--b-count", "many"])
    assert code == 1 and "invalid int value: 'many'" in err
    assert _run(argv) == first
    code, accelerated, _ = _first_run([*argv, "--accelerate"])
    assert code == 0 and json.loads(accelerated)["spec_echo"]["config"]["accelerate"] is True
    assert _run(argv) == first
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert abs(payload["value"] - 1.0) < 1e-6
    assert payload["evaluations"] > 0
    assert payload["spec_echo"]["spec"] == {"type": "infinite", "integrand": "x^-2.0", "a": 1.0,
                                            "taper": "taper:c=1.0", "var": "x"}
    assert payload["spec_echo"]["config"] == {
        "b_start": 2e6, "b_step": 1.0, "b_count": 30, "delta_count": 40, "tol": 1e-6,
        "quad_tol": 1e-10, "accelerate": False}


def test_eval_text_mode_and_exit_two_on_oscillation():
    code, out, _ = _run(["eval", "--type", "inf", "--f", "sin(x)", "--a", "0",
                         "--z", "taper:c=1"])
    assert code == 2
    assert "status: oscillatory" in out


def test_eval_finite_bridge_mode():
    code, out, err = _run(["eval", "--type", "fin", "--g", "sin(1/u)/u^2",
                           "--beta", "1", "--w", "wfromz:taper:c=1",
                           "--mode", "bridge", "--b-start", "1", "--b-count", "14",
                           "--tol", "1e-5", "--quad-tol", "1e-9", "--json"])
    assert code == 0, err
    payload = json.loads(out)
    assert abs(payload["value"] - math.cos(1.0)) < 1e-5


def test_eval_finite_bridge_mode_default_config():
    # the flag set from the docs, no tuning: defaults must still land cos(1)
    code, out, err = _run(["eval", "--type", "fin", "--g", "sin(1/u)/u^2",
                           "--beta", "1", "--w", "wfromz:taper:c=1",
                           "--mode", "bridge", "--json"])
    assert code == 0, err
    assert abs(json.loads(out)["value"] - math.cos(1.0)) < 1e-5


def _replay_through_corpus(tmp_path, payload):
    """The eval payload's spec_echo as a corpus line, loaded and evaluated again."""
    echo = payload["spec_echo"]
    corpus = tmp_path / "echo.jsonl"
    corpus.write_text(json.dumps({"id": "echo", "left_spec": echo["spec"],
                                  "right_spec": echo["spec"], "config": echo["config"],
                                  "expected_verdict": "equal_within_tol", "tol": 1e-6}) + "\n")
    (case,) = load_corpus(corpus)
    return evaluate_spec(case.left, case.config, case.left_mode)


def _assert_replays(tmp_path, argv):
    # eval --json -> corpus line -> load_corpus -> evaluate_spec, bit for bit
    _, out, err = _run(["eval", *argv, "--json"])
    first = json.loads(out)
    replay = _replay_through_corpus(tmp_path, first)
    assert replay.value == first["value"], err
    assert replay.status == first["status"]
    assert [list(s) for s in replay.samples] == first["samples"]
    assert replay.evaluations == first["evaluations"]
    assert replay.accelerated == first["accelerated"]
    return first


def test_spec_echo_round_trips_identically(tmp_path):
    first = _assert_replays(tmp_path, ["--type", "inf", "--f", "sin(x)", "--a", "0",
                                       "--z", "matched:omega=1,c=1"])
    assert first["status"] == "converged"
    assert first["spec_echo"]["spec"]["taper"] == "matched:omega=1.0,c=1.0"


@pytest.mark.parametrize("argv", [
    ["--type", "inf", "--f", "sin(0.7*y)", "--var", "y", "--a", "0.3",
     "--z", "matched:omega=0.7,c=1"],
    ["--type", "inf", "--f", "x^-1.7", "--a", "1.5", "--z", "taper:c=1", "--b-start", "2e4",
     "--b-step", "3"],
    ["--type", "fin", "--g", "u^-0.4", "--beta", "1.3", "--w", "wfromz:taper:c=1",
     "--mode", "bridge", "--accelerate"],
    ["--type", "fin", "--g", "ln(u)", "--beta", "0.8", "--w", "wfromz:taper:c=1",
     "--accelerate", "--tol", "1e-5"],
    ["--type", "inf", "--f", "sin(x)", "--a", "0", "--z", "taper:c=1"],
], ids=["matched-var-y", "power-tail", "bridge", "finite-direct", "oscillatory"])
def test_spec_echo_round_trips_for_every_form(tmp_path, argv):
    _assert_replays(tmp_path, argv)


def test_transform_print_spec():
    code, out, _ = _run(["transform", "--type", "inf", "--f", "sin(x)", "--a", "1",
                         "--cov", "power:d=1,r=2", "--print-spec"])
    assert code == 0
    assert "lower_limit: 1.0" in out
    # the printed integrand is semantically sin(y^(1/2)) / (2 y^(1/2))
    integrand_text = out.splitlines()[0].split(": ", 1)[1]
    from zvar.expr import evaluate, parse

    got = parse(integrand_text)
    for y in (1.0, 4.0, 9.0):
        want = math.sin(math.sqrt(y)) / (2.0 * math.sqrt(y))
        assert evaluate(got, {"y": y}) == pytest.approx(want, rel=1e-12)
    code, out, _ = _run(["transform", "--type", "fin", "--g", "u^-0.5", "--beta", "1",
                         "--cov", "finpower:d=1,r=2", "--print-spec"])
    assert code == 0
    assert out.splitlines()[1] == "upper_limit: 1.0"


def test_transform_evaluates_pair():
    code, out, _ = _run(["transform", "--type", "inf", "--f", "sin(x)", "--a", "0",
                         "--z", "matched:omega=1,c=1",
                         "--cov", "custom:kind=infinite_cov,forward=x+5,inverse=y-5,lo=0,hi=60",
                         "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equal_within_tol"


def test_custom_map_that_overflows_far_out_runs_as_the_shipped_one():
    # The custom exp(x) is the shipped exp:d=1,alpha=1: its P' overflows past
    # x = 709, inside the checks' sample, and +inf reads as large and positive.
    spec = ["transform", "--type", "inf", "--f", "x^-2", "--a", "1", "--z", "taper:c=1"]
    custom = _run([*spec, "--cov", "custom:kind=infinite_cov,forward=exp(x),inverse=ln(y),"
                                   "lo=0,hi=60"])
    assert custom == _run([*spec, "--cov", "exp:d=1,alpha=1"])
    assert "integrand=ln(y)^-2.0*(1.0/y)" in custom[1]


def test_one_converged_side_beside_a_drifting_one_is_unresolved():
    # Both sides converge absolutely to e^-1, but the image decays like
    # e^-sqrt(y) and drifts on the default grid: no evidence of an asymmetry.
    code, out, _ = _run(["transform", "--type", "inf", "--f", "exp(-x)", "--a", "1",
                         "--cov", "power:d=1,r=2", "--json"])
    payload = json.loads(out)
    assert (code, payload["verdict"]) == (2, "unresolved")
    assert (payload["left"]["status"], payload["right"]["status"]) == ("converged", "drifting")


def test_transform_asymmetry_exit_code():
    code, out, _ = _run(["transform", "--type", "inf", "--f", "sin(x)", "--a", "1",
                         "--z", "matched:omega=1,c=1", "--cov", "power:d=1,r=2",
                         "--b-start", "1", "--b-count", "35", "--json"])
    assert code == 2
    assert json.loads(out)["verdict"] == "existence_asymmetry"


def test_transform_bridge():
    code, out, _ = _run(["transform", "--type", "fin", "--g", "sin(1/u)/u^2",
                         "--beta", "1", "--cov", "bridge:d=1,alpha=1", "--print-spec",
                         "--json"])
    assert code == 0
    payload = json.loads(out)
    assert {key: payload[key] for key in ("type", "a", "taper", "var")} == {
        "type": "infinite", "a": 0.0, "taper": "taper:c=1.0", "var": "x"}
    assert set(payload) == {"type", "integrand", "a", "taper", "var"}
    from zvar.expr import evaluate, parse

    got = parse(payload["integrand"])
    for x in (0.0, 1.0):
        want = math.exp(x) * math.sin(math.exp(x))
        assert evaluate(got, {"x": x}) == pytest.approx(want, rel=1e-12)


def test_transform_finite_power_end_to_end():
    code, out, _ = _run(["transform", "--type", "fin", "--g", "u^(-1/2)",
                         "--beta", "1", "--w", "wfromz:taper:c=1",
                         "--cov", "finpower:d=1,r=2", "--accelerate", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equal_within_tol"
    assert abs(payload["left"]["value"] - 2.0) < 1e-6
    assert abs(payload["right"]["value"] - 2.0) < 1e-6


def test_verify_shipped_corpus():
    code, out, _ = _run(["verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_expected"] is True
    assert len(payload["cases"]) >= 12
    code, out, _ = _run(["verify"])
    assert code == 0
    header, *rows = out.splitlines()
    assert header.split()[:4] == ["case", "verdict", "expected", "ok"]
    assert len(rows) == len(payload["cases"]) == 13
    assert all(row.split()[3] == "yes" for row in rows)


def test_verify_prints_the_same_from_kept_and_fresh_tapers():
    # The second run takes its tapers from the caches the first one filled.
    first = _run(["verify", "--json"])
    assert first[0] == 0
    assert _run(["verify", "--json"]) == first
    assert _first_run(["verify", "--json"]) == first


def test_verify_bad_corpus_exit_one(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    code, _, err = _run(["verify", "--corpus", str(bad)])
    assert code == 1
    assert err.strip()


def test_verify_non_number_config_exit_one(tmp_path):
    # {"tol": true} once read as 1.0: x^-2 from 1 came out equal_within_tol
    # with both sides converged at 0.811, exit 0.  Now the load fails.
    spec = {"type": "infinite", "integrand": "x^-2", "a": 1.0, "taper": "taper:c=1"}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "x", "left_spec": spec, "right_spec": spec,
                               "expected_verdict": "equal_within_tol", "tol": 1e-5,
                               "config": {"tol": True}}) + "\n")
    code, out, err = _run(["verify", "--corpus", str(bad)])
    assert code == 1 and not out
    assert f"{bad}:1: tol must be a number" in err


def test_usage_errors_exit_one():
    for argv in (
        ["eval", "--type", "inf", "--a", "1", "--z", "taper:c=1"],       # no --f
        ["eval", "--type", "inf", "--f", "x^-2", "--z", "taper:c=1"],    # no --a
        ["eval", "--type", "inf", "--f", "x^-2", "--a", "1"],            # no --z
        ["eval", "--type", "fin", "--beta", "1", "--w", "wfromz:taper:c=1"],   # no --g
        ["eval", "--type", "fin", "--g", "1/u", "--w", "wfromz:taper:c=1"],   # no --beta
        ["eval", "--type", "fin", "--g", "1/u", "--beta", "1"],          # no --w
        ["eval", "--type", "fin", "--g", "1/u", "--beta", "1",
         "--w", "wfromz:taper:c=1e-300"],                                # e^-c rounds to 1
        ["eval", "--type", "fin", "--g", "1/u", "--beta", "1",
         "--w", "mystery:c=1"],                                          # bad taper
        ["eval", "--type", "fin", "--g", "u^-0.5", "--beta", "1e-7",
         "--w", "wfromz:taper:c=1"],                                     # 4 deltas above 1e-8
        ["eval", "--type", "inf", "--f", "2*q", "--a", "1",
         "--z", "taper:c=1"],                                            # unknown name
        ["eval", "--type", "inf", "--f", "x^-2", "--a", "1",
         "--z", "taper:c=1", "--frobnicate"],                            # unknown flag
        # flags of the removed window, delta-shrink and budget settings
        *(["eval", "--type", "inf", "--f", "x^-2", "--a", "1", "--z", "taper:c=1", *flag]
          for flag in (("--max-evals", "1"), ("--window", "4"), ("--delta-shrink", "0.6"))),
        ["transform", "--type", "inf", "--f", "x^-2", "--a", "1",
         "--cov", "rotate:t=1"],                                         # bad cov
        # a decreasing map, which the sampled checks refute
        ["transform", "--type", "inf", "--f", "x^-2", "--a", "1",
         "--cov", "custom:kind=infinite_cov,forward=-x,inverse=-y,lo=1,hi=100"],
        # the removed override of the sampled checks
        ["transform", "--type", "inf", "--f", "x^-2", "--a", "1",
         "--cov", "custom:kind=infinite_cov,forward=x+5,inverse=y-5,lo=0,hi=60",
         "--allow-inconclusive"],
        # a custom map's domain must hold the limit it carries: a = 1 < lo
        ["transform", "--type", "inf", "--f", "x^-2", "--a", "1", "--print-spec",
         "--cov", "custom:kind=infinite_cov,forward=x+5,inverse=y-5,lo=2e6,hi=3e6"],
        # a wrong inverse: the message names the abscissa where it fails
        ["transform", "--type", "fin", "--g", "1/u", "--beta", "1",
         "--cov", "custom:kind=finite_cov,forward=u*ln(u)^2+u,inverse=t,lo=1e-9,hi=1"],
        # a finite_cov's checks sample up to hi, which must be positive and finite
        *(["transform", "--type", "fin", "--g", "u", "--beta", "1", "--print-spec",
           "--cov", f"custom:kind=finite_cov,forward=u,inverse=t,{domain}"]
          for domain in ("lo=-2,hi=-1", "lo=0,hi=inf")),
        ["eval", "--type", "inf", "--f", "x^-2", "--a", "1",
         "--z", "taper:c=1e308"],                                        # span past float range
        # 1,000 levels deep: parentheses, a sum, a power chain, calls, signs
        *(["eval", "--type", "inf", f"--f={f}", "--a", "1", "--z", "taper:c=1"]
          for f in ("(" * 1000 + "x^-2" + ")" * 1000, "+".join(["x^-2"] * 1000),
                    "^".join(["x"] * 1000), "exp(" * 1000 + "-x" + ")" * 1000,
                    "-" * 1000 + "x^-2")),
        ["demo"],                                                        # no such subcommand
    ):
        code, out, err = _run(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("zvar: error:"), argv
        assert "np.float64(" not in err, err   # abscissae print as plain floats
    # A non-finite config value is named: --tol inf once certified the
    # divergent integral of x as converged, and the others failed naming no flag.
    for name, value in (("tol", "inf"), ("b_step", "inf"), ("b_start", "nan"),
                        ("quad_tol", "nan")):
        code, out, err = _run(["eval", "--type", "inf", "--f", "x", "--a", "0",
                               "--z", "taper:c=1", "--" + name.replace("_", "-"), value])
        assert (code, out) == (1, "")
        assert err == f"zvar: error: {name} must be finite, got {float(value)!r}\n"
    # A literal past the float range once parsed to inf, and the request
    # spent 1,260 evaluations to end quad_failure, exit 2.
    code, out, err = _run(["eval", "--type", "inf", "--f", "1e999*exp(-x)", "--a", "0",
                           "--z", "taper:c=1", "--json"])
    assert (code, out) == (1, "")
    assert err == "zvar: error: number '1e999' overflows the float range (at offset 0)\n"


def test_expression_at_the_depth_bound_evaluates_and_transforms():
    f = "+".join(["exp(-x)"] * (MAX_DEPTH - 2))     # a tree MAX_DEPTH levels deep
    spec = ["--type", "inf", "--f", f, "--a", "0", "--z", "taper:c=1"]
    code, out, err = _run(["eval", *spec])
    assert (code, err) == (0, "")
    assert float(out.split("value: ")[1].split()[0]) == pytest.approx(MAX_DEPTH - 2, abs=1e-6)
    code, out, err = _run(["transform", *spec, "--cov", "exp:d=1,alpha=1"])
    assert code in (0, 2) and err == ""
    assert out.startswith("verdict: ")


def test_max_evals_is_enforced(monkeypatch):
    # 1 evaluation cannot pay for a single quadrature batch
    monkeypatch.setattr(zeval, "MAX_EVALS", 1)
    code, out, _ = _run(["eval", "--type", "inf", "--f", "exp(-x)", "--a", "0",
                         "--z", "taper:c=1", "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "quad_failure"
    assert payload["evaluations"] == 0


def test_non_integrable_inner_integral_ends_quad_failure(evaluated_points):
    # The window over [1, 2] holds tan's pole at pi/2: its inner quadrature
    # stops unconverged instead of certifying a value, after some thousands
    # of evaluations rather than a whole budget.  The quadratures that ran
    # beside it are counted too: evaluations are the points evaluated.  Taking
    # every panel next to the pole as a candidate spends 164,822, and
    # splitting panels into children too narrow for their nodes spends the
    # whole budget, 9,999,974 (7,350 against 144,648 and 9,030 with the
    # 21-point rule).
    code, out, _ = _run(["eval", "--type", "inf", "--f", "tan(x)", "--a", "0",
                         "--z", "taper:c=1", "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "quad_failure"
    assert payload["evaluations"] == sum(evaluated_points) <= 16_470


_INF = ["eval", "--type", "inf"]


@pytest.mark.parametrize(("argv", "named"), [
    ([*_INF, "--f", "x^-1.01", "--a", "1", "--z", "taper:c=100", "--b-start", "1e17",
      "--b-step", "1"], "b_step"),
    ([*_INF, "--f", "x^-2", "--a", "1", "--z", "taper:c=1", "--b-start", "1e17"], "b_step"),
    ([*_INF, "--f", "x^-2", "--a", "1e300", "--z", "taper:c=1"], "b_step"),
    ([*_INF, "--f", "x^-2", "--a", "1", "--z", "taper:c=1", "--b-start", "1e17",
      "--b-step", "100"], "b_start"),
    ([*_INF, "--f", "x^-2", "--a", "1", "--z", "taper:c=1", "--b-count", "1" + "0" * 400],
     "b_step"),
    ([*_INF, "--f", "exp(-x)", "--a", "0", "--z", "taper:c=1", "--b-start", "1", "--b-step",
      "1e-17", "--b-count", "35"], "b_step"),
    ([*_INF, "--f", "exp(x/1e16)", "--a", "-1e17", "--z", "taper:c=1", "--b-start", "-1e17",
      "--b-step", "2.5e15"], "b_start"),
    (["eval", "--type", "fin", "--g", "u", "--beta", "9e307", "--w", "wfromz:taper:c=1"],
     "beta"),
    (["transform", "--type", "fin", "--g", "u", "--beta", "1e308", "--cov",
      "finpower:d=1,r=2"], "beta"),
    ([*_INF, "--f", "1/x^2", "--a", "1", "--z", "taper:c=1e307", "--b-start", "8e307",
      "--b-step", "1e300"], "b_start"),
    ([*_INF, "--f", "1/x^2", "--a", "-1e308", "--z", "taper:c=1", "--b-start", "0"],
     "lower limit"),
], ids=["repeated-point", "default-step", "default-start", "window-without-width",
        "past-the-float-range", "repeated-first-points", "first-window-without-width",
        "beta-past-the-engine-range", "transform-beta-past-the-engine-range",
        "window-past-the-engine-range", "lower-limit-past-the-engine-range"])
def test_grid_that_does_not_advance_is_rejected(argv, named):
    # The integral of x^-1.01 from 1 is 100, but b_start + k*1 rounds to one
    # float near 1e17 for every k: five samples at one point once certified
    # 32.3917 with exit 0.  A window [b, b + c] whose b + c rounds to b once
    # reached the engine, which failed naming no input ("need lo < hi").  A
    # count whose last point is past the float range is refused the same way.
    # Every sampled point and window is checked, not only the last: the grid
    # from 1 by 1e-17 repeats its first points while its last two differ, and
    # once certified 0.7728576 for exp(-x), whose integral is 1; the grid
    # from -1e17 has an empty first window and a last one that is not.  A
    # limit past the engine's range (half the largest float) is refused by
    # the evaluator that makes the segment, naming its input: the engine's
    # own error names none, and cannot tell the sides of a comparison apart.
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"zvar: error: {named} ") and "need lo < hi" not in err
    assert "integration limits" not in err


def test_negative_limit_in_exponent_notation():
    # argparse takes -1e1 for a flag unless told it is a number: --a -1e1
    # once failed with "expected one argument", while --a -10 and --a=-1e1
    # were read as numbers.
    spec = ["--f", "exp(-x-10)", "--z", "taper:c=1", "--json"]
    runs = {_run(["eval", "--type", "inf", *limit, *spec])
            for limit in (["--a", "-1e1"], ["--a=-1e1"], ["--a", "-10"], ["--a", "-.1E+2"])}
    (code, out, err), = runs
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "converged"


@pytest.mark.parametrize("grid", [
    ["--f", "exp(-x)", "--a", "0", "--z", "taper:c=1", "--b-step", "1e5"],
    ["--f", "exp(-x)", "--a", "0", "--z", "taper:c=1", "--b-start", "1e5"],
    ["--f", "x^-2", "--a", "1", "--z", "taper:c=10", "--b-start", "2e16", "--b-step", "8"],
], ids=["wide-step", "far-start", "far-start-wide-taper"])
def test_far_running_segment_is_graded_toward_its_start(grid):
    # Each integral is 1.  A running segment much wider than its distance
    # from a is cut on a ladder toward a.  Judged by the six starting panels
    # of the 21-point rule alone, [1, 100001] for the wide step or [0, 1e5]
    # for the far start, its nodes missed the mass, and the requests
    # certified 0.6321, 1.9e-14 and 4.1e-13, each with exit 0.
    code, out, err = _run(["eval", "--type", "inf", *grid, "--json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert abs(payload["value"] - 1.0) <= payload["error_estimate"]


def test_overflowing_inner_sums_end_quad_failure():
    # Every value of 1e308*sin(x) is finite, but the rule's sums over a panel
    # pass the float range: no warning, and the quadrature is not certified.
    code, out, _ = _run(["eval", "--type", "inf", "--f", "1e308*sin(x)", "--a", "0",
                         "--z", "taper:c=1", "--json"])
    assert code == 2
    assert json.loads(out)["status"] == "quad_failure"


@pytest.mark.parametrize("argv", [
    ["--f", "sin(1e300*x)"],
    ["--f", "sin(x)", "--b-count", "1000000000000"],
], ids=["unresolvable", "endless-grid"])
def test_one_budget_caps_the_whole_evaluation(monkeypatch, argv):
    # The budget caps every quadrature of the evaluation together.  Capping
    # each quadrature alone let sin(1e300*x) spend 72 million evaluations,
    # and a 10^12-point grid on an oscillating sequence never end.
    monkeypatch.setattr(zeval, "MAX_EVALS", 200_000)
    code, out, _ = _run(["eval", "--type", "inf", *argv, "--a", "0", "--z", "taper:c=1",
                         "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "quad_failure"
    assert 0 < payload["evaluations"] <= 200_000


@pytest.mark.parametrize("mode", ["direct", "bridge"])
def test_inner_quad_failure_ends_both_modes_alike(monkeypatch, mode):
    # The budget runs out deep in the oscillation, after more than a
    # stability window of samples; both routes report the failure.
    monkeypatch.setattr(zeval, "MAX_EVALS", 3000)
    code, out, _ = _run(["eval", "--type", "fin", "--g", "sin(1/u)/u^2", "--beta", "1",
                         "--w", "wfromz:taper:c=1", "--mode", mode, "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "quad_failure"
    assert len(payload["samples"]) >= zeval.STABILITY_WINDOW
    assert payload["evaluations"] <= 3000


@pytest.mark.parametrize("mode", ["direct", "bridge"])
def test_budget_is_spent_before_quad_failure(monkeypatch, mode):
    # The quadratures of a chunk share what the evaluation has left, so one
    # that needs more takes what the others leave.  An equal share for each
    # once ended sin(1/u)/u^2 after 4,872 evaluations direct and 7,602 bridge.
    monkeypatch.setattr(zeval, "MAX_EVALS", 10_000)
    code, out, _ = _run(["eval", "--type", "fin", "--g", "sin(1/u)/u^2", "--beta", "1",
                         "--w", "wfromz:taper:c=1", "--mode", mode, "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "quad_failure"
    assert 9_000 <= payload["evaluations"] <= 10_000


def test_transform_and_corpus_derive_the_same_right_side(tmp_path):
    left = {"type": "finite", "integrand": "sin(1/u)/u^2", "beta": 1.0,
            "taper": "wfromz:taper:c=1", "mode": "bridge"}
    config = {"delta_count": 10, "tol": 1e-3, "quad_tol": 1e-8}
    corpus = tmp_path / "case.jsonl"
    corpus.write_text(json.dumps({"id": "finpower-bridge", "left_spec": left,
                                  "cov": "finpower:d=1,r=2",
                                  "expected_verdict": "equal_within_tol", "tol": 1e-3,
                                  "config": config}) + "\n")
    (case,) = run_suite(corpus).cases

    code, out, err = _run(["transform", "--type", "fin", "--g", left["integrand"],
                           "--beta", "1", "--w", left["taper"], "--mode", "bridge",
                           "--cov", "finpower:d=1,r=2", "--delta-count", "10",
                           "--tol", "1e-3", "--quad-tol", "1e-8", "--json"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["verdict"] == case.verdict == "equal_within_tol"
    assert payload["right"]["value"] == case.right_value


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_output_is_strict(monkeypatch):
    monkeypatch.setattr(zeval, "MAX_EVALS", 1)
    code, out, _ = _run(["eval", "--type", "inf", "--f", "exp(-x)", "--a", "0",
                         "--z", "taper:c=1", "--json"])
    assert code == 2
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["value"] is None
    assert payload["error_estimate"] is None
    monkeypatch.undo()
    _, out, _ = _run(["verify", "--json"])
    json.loads(out, parse_constant=_reject_constant)


def test_strict_json_writes_every_non_finite_float_as_null():
    # A result's samples are tuples; a NaN inside one is written as null, as
    # an inf at the top level is, and a finite payload as json writes it.
    payload = {"value": math.inf, "samples": ((1.0, math.nan), (2.0, 0.5)), "evaluations": 3}
    text = strict_json(payload)
    assert json.loads(text, parse_constant=_reject_constant) == {
        "value": None, "samples": [[1.0, None], [2.0, 0.5]], "evaluations": 3}
    finite = {**payload, "value": 1.0, "samples": ((1.0, 0.25),)}
    assert strict_json(finite, indent=2) == json.dumps(finite, indent=2)


def test_non_numeric_transform_field_is_named():
    code, _, err = _run(["transform", "--type", "inf", "--f", "x^-2", "--a", "1",
                         "--cov", "power:d=abc,r=2"])
    assert code == 1
    assert "field 'd' is not a number: 'abc'" in err


def test_exp_map_print_spec_has_no_zero_terms():
    code, out, _ = _run(["transform", "--type", "inf", "--f", "x^-2", "--a", "1",
                         "--cov", "exp:d=2,alpha=3", "--print-spec"])
    assert code == 0
    text = out.splitlines()[0].split(": ", 1)[1]
    assert "*0.0" not in text
    from zvar.expr import evaluate, parse

    # the integrand printed before constant factors were differentiated directly
    before = parse("(ln(y/2.0)/3.0)^-2.0*((0.5/(y/2.0)*3.0 - ln(y/2.0)*0.0)/9.0)")
    for y in (40.5, 100.0, 1e4, 1e8):
        assert evaluate(parse(text), {"y": y}) == pytest.approx(evaluate(before, {"y": y}),
                                                                rel=1e-15)


def test_print_spec_json_stands_in_for_the_cov(tmp_path):
    left = {"type": "finite", "integrand": "u^(-1/2)", "beta": 1.0,
            "taper": "wfromz:taper:c=1", "mode": "direct"}
    code, out, _ = _run(["transform", "--type", "fin", "--g", left["integrand"], "--beta", "1",
                         "--w", left["taper"], "--cov", "finpower:d=1,r=2", "--print-spec",
                         "--json"])
    assert code == 0
    right_spec = json.loads(out)
    case = {"id": "finpower", "left_spec": left, "expected_verdict": "equal_within_tol",
            "tol": 1e-6, "config": {"accelerate": True}}
    corpus = tmp_path / "pair.jsonl"
    corpus.write_text(json.dumps({**case, "cov": "finpower:d=1,r=2"}) + "\n"
                      + json.dumps({**case, "id": "printed", "right_spec": right_spec}) + "\n")
    by_cov, by_spec = load_corpus(corpus)
    assert by_spec.right_mode == by_cov.right_mode == "direct"
    assert (evaluate_spec(by_spec.right, by_spec.config, by_spec.right_mode)
            == evaluate_spec(by_cov.right, by_cov.config, by_cov.right_mode))
    verdicts = {c.case_id: c.verdict for c in run_suite(corpus).cases}
    assert verdicts == {"finpower": "equal_within_tol", "printed": "equal_within_tol"}
