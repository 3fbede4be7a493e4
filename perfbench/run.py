"""zvar benchmark: one workload, closed loop, one operation in flight.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root; zvar is imported from ./src.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end figures; with
--trace 1 the zvar layers are wrapped (see spans.py) and the metrics are the
per-layer figures.  Result files and span dumps go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: the benchmark measures one operation at a time on a small
# machine, and zvar's numpy work is elementwise, not BLAS-bound.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
WARMUP_OPS = 16
# A run must end within 180 s.  Rounds are whole, so a program slow enough
# to overrun this (a 4x regression on deep_oscillatory) ends the run with an
# error instead of a result.
ABORT_AFTER_S = 140.0

sys.path.insert(0, str(HERE))

import clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _fresh_import() -> None:
    """Import zvar from ./src, discarding any earlier import of it.

    numpy is already loaded (clock.py imports it), so the timed import is
    zvar's own.
    """
    for name in [m for m in sys.modules if m == "zvar" or m.startswith("zvar.")]:
        del sys.modules[name]
    zvar = importlib.import_module("zvar")
    importlib.import_module("zvar.cli")
    if Path(zvar.__file__).resolve().parent != SRC / "zvar":
        raise ImportError(f"zvar imported from {zvar.__file__}, expected {SRC / 'zvar'}")


def set_up(workload, seed: int):
    """Import zvar and build the inputs SETUP_REPEATS times.

    Returns the median set-up time in reference seconds, and the inputs of
    the last repeat.
    """
    times, stamps, kernel = [], [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        _fresh_import()
        inputs = workload.make_inputs(seed)
        stamps.append(perf_counter())
        times.append(stamps[-1] - start)
        kernel.append(clock.time_kernel())
    scaled = [t * f for t, f in zip(times, clock.scale_factors(kernel, stamps, times))]
    return statistics.median(scaled), inputs


def percentile(sorted_values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zvar" / "__init__.py").is_file():
        print(f"benchmark: no zvar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    setup_s, inputs = set_up(workload, args.seed)

    correct = True
    latencies: list[float] = []
    work: list[float] = []        # wall time since the previous mark, calibration excluded
    stamps: list[float] = []      # end of each such interval
    calibration: list[float] = []
    failed = 0
    evaluations = 0
    mark = 0.0

    def check(ok: bool, probe: bool) -> None:
        # Only the fixed probes may fail; any other failed check makes the
        # run incorrect (and is counted in failed as well).
        nonlocal correct
        correct = correct and (ok or probe)

    def record(elapsed: float, ok: bool, evals: int, probe: bool = False) -> None:
        nonlocal failed, evaluations, mark
        check(ok, probe)
        latencies.append(elapsed)
        failed += not ok
        evaluations += evals
        now = perf_counter()
        if now - start > ABORT_AFTER_S:
            raise SystemExit(f"benchmark: measurement exceeded {ABORT_AFTER_S:.0f} s; no result")
        kernel_s = clock.time_kernel()
        work.append(now - mark)
        stamps.append(now)
        calibration.append(kernel_s)
        mark = now + kernel_s

    # Untimed, checked operations fill first-call caches (numpy dispatch,
    # LAPACK load); this covers a whole corpus pass and every eval_scan family.
    workload.run_round(inputs[:WARMUP_OPS], lambda elapsed, ok, evals, probe=False: check(ok, probe))

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    rounds = 0
    start = mark = perf_counter()
    try:
        while True:
            workload.run_round(inputs, record)
            rounds += 1
            if perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    wall = perf_counter() - start

    ops = len(latencies)
    scale = clock.scale_factors(calibration, stamps, work)
    reference_s = sum(w * f for w, f in zip(work, scale))
    ops_per_s = ops / reference_s
    raw_ops_per_s = ops / sum(work)
    if tracer is None:
        ranked = sorted(lat * f for lat, f in zip(latencies, scale))
        raw = sorted(latencies)
        tail, beyond = percentile(ranked, workload.tail_percentile)
        print(f"{args.workload}: {ops} ops in {rounds} rounds, {wall:.2f} s; "
              f"op_tail_s is p{workload.tail_percentile} with {beyond} samples beyond; "
              f"speed factor median {statistics.median(scale):.3f}; raw ops_per_s "
              f"{raw_ops_per_s:.4g} p50 {statistics.median(raw):.4g} "
              f"tail {percentile(raw, workload.tail_percentile)[0]:.4g}",
              file=sys.stderr)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(ranked), "s"),
            "op_tail_s": (tail, "s"),
            "evals_per_op": (evaluations / ops, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        layers = tracer.per_layer(ops, time_scale=reference_s / sum(work))
        layers["trace.ops_per_s"] = ops_per_s
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    result = {
        "correct": bool(correct),
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
