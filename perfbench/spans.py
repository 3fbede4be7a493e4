"""Per-layer tracing from outside zvar.

The tracer replaces public names in the namespace of the module that calls
them (for example `zvar.zeval.integrate_proper` and `zvar.quad.compile_expr`)
with wrappers that record a span (name, start, end, parent) and the counts
the layer reports.  What `compile_expr` returns is wrapped as well: its
calls inside the quadrature engine are `expr.integrand` spans, the rest
`expr.sample`.  Spans are kept in memory, in flat arrays, and written out
once the run ends.  The module name is the layer.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


# Layer span -> the zvar names that enter the layer.  Every zvar module that
# holds one of these names (the module defining it included, since calls
# within a module go through its globals) gets the wrapper.  A span does not
# nest in a span of the same name, so a layer is counted once per entry
# however its functions call each other, and a name that a later version
# moves to another module is still found.
LAYERS = {
    "verify.load": ("load_corpus",),
    "verify.compare_pair": ("compare_pair",),
    "cli.run_cli": ("run_cli",),
    "zeval.eval": ("eval_infinite", "eval_finite"),
    "quad.integrate_proper": ("integrate_proper",),
    "quad.integrate_callable": ("integrate_callable",),
    "taper.build": ("parse_taper_spec", "parse_boundary_spec", "boundary_taper_from_z",
                    "make_smooth_taper", "make_matched_trig"),
    "cov.apply": ("parse_cov_spec", "apply_cov", "validate_cov", "bridge_transform"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._open: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result) records counts once it returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            self._open[name] += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._open[name] -= 1
            if after is not None:
                after(result)
            return result
        return wrapper

    def patch_everywhere(self, attr: str, wrap) -> None:
        """Replace attr with wrap(original) in every zvar module holding it."""
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "zvar" or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrap(original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def install(self) -> None:
        """Wrap every zvar boundary the per-layer metrics need."""
        counts = self.counts
        after = {
            "quad.integrate_proper": self._quad_done,
            "zeval.eval": self._zeval_done,
        }
        for layer, attrs in LAYERS.items():
            for attr in attrs:
                self.patch_everywhere(
                    attr, lambda fn, layer=layer: self.spanned(layer, fn, after.get(layer)))

        def traced_expression(compiled):
            # Called inside the quadrature engine it is the integrand;
            # elsewhere (taper checks, cov validation) it is plain sampling.
            def expression(x, *extra):
                integrand = self._open["quad.integrate_callable"] > 0
                idx = self.open("expr.integrand" if integrand else "expr.sample")
                try:
                    return compiled(x, *extra)
                finally:
                    self.close(idx)
                    if integrand:
                        counts["expr.integrand_points"] += np.size(x)
            return expression

        def traced_compile(compile_expr):
            compile_span = self.spanned("expr.compile", compile_expr)

            @functools.wraps(compile_expr)
            def wrapper(*args, **kwargs):
                return traced_expression(compile_span(*args, **kwargs))
            return wrapper

        self.patch_everywhere("compile_expr", traced_compile)

    def _quad_done(self, result) -> None:
        self.counts["quad.evaluations"] += result.evaluations
        self.counts["quad.unconverged_calls"] += not result.converged

    def _zeval_done(self, result) -> None:
        self.counts["zeval.samples"] += len(result.samples)
        self.counts["zeval.accelerated"] += result.accelerated

    def per_layer(self, ops: int, time_scale: float) -> dict[str, float]:
        """Per-operation layer figures (per corpus pass for verify.load_s).

        Span times are multiplied by time_scale, the run's factor from wall
        seconds to reference seconds (see clock.py).
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start) * time_scale
        end = np.frombuffer(self.end) * time_scale
        dur = end - start
        has_parent = parent >= 0
        child_time = np.zeros(dur.size)
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        last_child_end = start.copy()
        np.maximum.at(last_child_end, parent[has_parent], end[has_parent])

        def select(layer):
            nid = self._ids.get(layer)
            return name == nid if nid is not None else np.zeros(dur.size, dtype=bool)

        def count(layer):
            return int(select(layer).sum())

        def total(layer):
            return float(dur[select(layer)].sum())

        def self_time(layer):
            sel = select(layer)
            return float((dur[sel] - child_time[sel]).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        quad_calls = count("quad.integrate_proper")
        callable_s = total("quad.integrate_callable")
        integrand_s = total("expr.integrand")
        zeval = select("zeval.eval")
        return {
            "expr.compile_calls": count("expr.compile") / ops,
            "expr.compile_s": total("expr.compile") / ops,
            "expr.integrand_s": integrand_s / ops,
            "expr.integrand_points_per_s": ratio(c["expr.integrand_points"], integrand_s),
            "quad.calls": quad_calls / ops,
            "quad.evals_per_call": ratio(c["quad.evaluations"], quad_calls),
            "quad.rounds_per_call": ratio(count("expr.integrand"),
                                          count("quad.integrate_callable")),
            "quad.unconverged_calls": c["quad.unconverged_calls"] / ops,
            "quad.bookkeeping_s": self_time("quad.integrate_callable") / ops,
            "quad.evals_per_s": ratio(c["quad.evaluations"], callable_s),
            "taper.builds": count("taper.build") / ops,
            "taper.build_s": total("taper.build") / ops,
            "cov.apply_s": total("cov.apply") / ops,
            "zeval.samples": c["zeval.samples"] / ops,
            "zeval.driver_s": self_time("zeval.eval") / ops,
            "zeval.classify_s": float((end[zeval] - last_child_end[zeval]).sum()) / ops,
            "zeval.accelerated": c["zeval.accelerated"] / ops,
            "verify.load_s": ratio(total("verify.load"), count("verify.load")),
            "cli.overhead_s": self_time("cli.run_cli") / ops,
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
