"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs each workload briefly with tracing off and on, from the repository root,
and asserts that the last line is a result whose metric names and units are
exactly those BENCHMARK.json lists (end_to_end for --trace 0, per_layer for
--trace 1), and that every operation but the fixed eval_scan probes passed.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise CheckFailed(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            where = f"{workload} trace {trace}"
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{where}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == expected[trace], f"{where}: {got} != {expected[trace]}")
            require(result["correct"] is True, f"{where}: incorrect output")
            require(result["attempted"] >= 1, f"{where}: no operations")
            print(f"ok  {workload:17} trace {trace}  attempted {result['attempted']:5}"
                  f"  failed {result['failed']}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as err:
        print(f"selfcheck: {err}", file=sys.stderr)
        sys.exit(1)
