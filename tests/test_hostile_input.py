"""Hostile input ends in exit 0, 1 or 2, never a traceback, and an exit-1
message names what was wrong.

This covers the taper strings: a seeded draw of `taper:`, `matched:` and
`wfromz:` specs with extreme widths and tones, run in-process through
`zvar eval` (both forms) and `zvar transform`.  Plain `random` draws them.
"""

import io
import random
import re
import time

import pytest

from zvar.cli import run_cli
from zvar.taper import TaperError, make_matched_trig

HOSTILE = ("0", "-1", "1e-320", "1e-300", "1e300", "1e308", "inf", "-inf", "nan", "x")
# What an exit-1 message about a taper must name: the spec, a field, or the
# grid start whose window the width broke.
NAMED = re.compile(r"spec\.taper|\bc=|\bomega\b|\bb_start\b")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _argv(command: str, spec: str) -> list[str]:
    if command == "eval-inf":
        return ["eval", "--type", "inf", "--f", "exp(-x)", "--a", "0", "--z", spec,
                "--b-count", "6"]
    if command == "eval-fin":
        return ["eval", "--type", "fin", "--g", "u^-0.5", "--beta", "1", "--w", "wfromz:" + spec,
                "--delta-count", "6"]
    if command == "transform-inf":
        return ["transform", "--type", "inf", "--f", "exp(-x)", "--a", "1", "--z", spec,
                "--cov", "power:d=1,r=2", "--b-count", "6"]
    return ["transform", "--type", "fin", "--g", "u^-0.5", "--beta", "1", "--w", "wfromz:" + spec,
            "--cov", "finpower:d=1,r=2", "--delta-count", "6"]


def hostile_taper_argv(seed: int, count: int) -> list[list[str]]:
    """count argv, each with at least one hostile width or tone."""
    rng = random.Random(seed)
    commands = ("eval-inf", "eval-fin", "transform-inf", "transform-fin")
    runs = []
    while len(runs) < count:
        c, omega = (rng.choice(HOSTILE + ("1",)) for _ in range(2))
        if rng.random() < 0.4:
            if c == "1":
                continue
            spec = f"taper:c={c}"
        else:
            if c == omega == "1":
                continue
            spec = f"matched:omega={omega},c={c}"
        runs.append(_argv(rng.choice(commands), spec))
    return runs


def test_hostile_taper_specs_end_in_a_named_error():
    runs = hostile_taper_argv(seed=11, count=120)
    drawn = " ".join(arg for argv in runs for arg in argv)
    assert all(f"={value}" in drawn for value in HOSTILE)
    assert "taper:c=" in drawn and "matched:" in drawn and "wfromz:" in drawn
    for argv in runs:
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        if code == 1:
            assert NAMED.search(err), (argv, err)


@pytest.mark.parametrize("argv", [
    ["--type", "inf", "--f", "exp(-x)", "--a", "0", "--z", "taper:c=inf"],
    ["--type", "inf", "--f", "exp(-x)", "--a", "0", "--z", "matched:omega=1,c=inf"],
    ["--type", "inf", "--f", "exp(-x)", "--a", "0", "--z", "matched:omega=inf,c=1"],
    ["--type", "fin", "--g", "1", "--beta", "1", "--w", "wfromz:taper:c=inf"],
])
def test_non_finite_taper_fields_are_named(argv):
    # These once failed dividing inf by inf, or on a non-finite integrand
    # value, naming neither the spec nor the field.
    code, out, err = _run(["eval", *argv])
    assert (code, out) == (1, "")
    assert re.fullmatch(r"zvar: error: spec\.taper: (taper width|tone frequency) must be "
                        r"positive and finite, got inf\n", err)


@pytest.mark.parametrize("omega", [1e300, 1e308])
def test_unresolvable_tone_is_refused_before_its_moments(omega):
    # More than 5 * 10^6 cycles over [0, c] leave fewer than two of the
    # moment pool's 10^7 evaluations per cycle.  Such a tone once spent the
    # whole pool before it failed: 1.59 s at omega=1e300.
    start = time.perf_counter()
    with pytest.raises(TaperError, match=r"omega=.* c=1\.0"):
        make_matched_trig(omega, 1.0)
    assert time.perf_counter() - start < 0.1
    assert make_matched_trig(1e5, 1.0).omega == 1e5
