"""Timing spans around the public functions of each `permpml` module.

`Tracer.install` replaces every binding of a traced function, in every
`permpml` module that holds one (the package namespace included), by a
wrapper that records a span: name, start, end, parent span and the
operation it belongs to.  Start and end are CPU times of the process, the
clock the untraced run times its operations with.  The source of `permpml`
is not touched.  A layer's self time is the time its spans cover minus the
time their child spans cover; the benchmark's own `op` spans take whatever
no layer claims.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> public functions the workloads reach
TRACED = {
    "estimator": ("approximate_pml", "exact_pml_oracle", "estimate_property"),
    "convex": ("build_discretization", "maximize_log_g", "pseudo_distribution_of"),
    "rounding": ("round_allocation",),
    "profiles": ("profile_probability_grouped",),
    "approx": ("sinkhorn_scale", "sinkhorn_permanent", "scaled_sinkhorn_permanent", "bethe_permanent"),
    "permanent": ("log_permanent",),
}
LAYERS = (*TRACED, "bench")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, op, parent, start, end)
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.op = -1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.iters = defaultdict(int)
        self.good = defaultdict(int)  # certified / converged results

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, time.process_time(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans[index] = (name, self.op, parent, frame[1], end)
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_s[name] += duration - frame[2]

    def run_op(self, op: int, fn):
        self.op = op
        return self.span("bench.op", fn)

    def _wrap(self, name: str, fn):
        if name == "convex.maximize_log_g":

            def wrapper(*args, return_info=False, **kwargs):
                alloc, info = self.span(name, fn, *args, return_info=True, **kwargs)
                self.iters[name] += info.iterations
                self.good[name] += bool(info.converged)
                return (alloc, info) if return_info else alloc

        elif name == "approx.sinkhorn_scale":

            def wrapper(*args, **kwargs):
                witness = self.span(name, fn, *args, **kwargs)
                self.iters[name] += witness.iterations
                return witness

        elif name == "approx.bethe_permanent":

            def wrapper(*args, on_iteration=None, **kwargs):
                def count(value):
                    self.iters[name] += 1
                    if on_iteration is not None:
                        on_iteration(value)

                report = self.span(name, fn, *args, on_iteration=count, **kwargs)
                self.good[name] += bool(report.converged)
                return report

        else:

            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self, pm) -> None:
        """Swap every binding of a traced function in the loaded permpml modules."""
        modules = [m for key, m in sys.modules.items() if key == "permpml" or key.startswith("permpml.")]
        for mod_name, funcs in TRACED.items():
            module = getattr(pm, mod_name)
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer figures, named as in BENCHMARK.json."""

        def per(value):
            return value / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in ("estimator.approximate_pml", "estimator.exact_pml_oracle"):
            m[f"{name}.calls"] = (per(self.calls[name]), "count")
            m[f"{name}.self_s"] = (per(self.self_s[name]), "s")
        for name in (
            "convex.build_discretization",
            "convex.maximize_log_g",
            "convex.pseudo_distribution_of",
            "rounding.round_allocation",
            "profiles.profile_probability_grouped",
            "approx.sinkhorn_scale",
            "approx.bethe_permanent",
            "permanent.log_permanent",
        ):
            m[f"{name}.s"] = (per(self.busy[name]), "s")
        for name in (
            "convex.maximize_log_g",
            "rounding.round_allocation",
            "profiles.profile_probability_grouped",
            "approx.sinkhorn_scale",
            "approx.bethe_permanent",
            "permanent.log_permanent",
        ):
            m[f"{name}.calls"] = (per(self.calls[name]), "count")
        for name in ("convex.maximize_log_g", "approx.sinkhorn_scale", "approx.bethe_permanent"):
            m[f"{name}.iters"] = (per(self.iters[name]), "count")
        g = "convex.maximize_log_g"
        m[f"{g}.certified_ratio"] = (ratio(self.good[g], self.calls[g]), "ratio")
        b = "approx.bethe_permanent"
        m[f"{b}.converged_ratio"] = (ratio(self.good[b], self.calls[b]), "ratio")
        p = "profiles.profile_probability_grouped"
        m[f"{p}.s_per_call"] = (ratio(self.busy[p], self.calls[p]), "s")
        for layer in LAYERS:
            own = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            m[f"{layer}.self_s"] = (per(own), "s")
        m["ops.s"] = (per(self.busy["bench.op"]), "s")
        return m

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "op", "parent", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )
