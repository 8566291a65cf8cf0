"""Span tracing for the benchmark's traced run.

`Tracer.install` wraps the public functions listed in LAYERS at every binding
inside the loaded `qfeedback` modules, because `cli` and `scenarios` bind them
with `from .x import f`. A class is traced by wrapping its `__init__`. Spans
(name, start, end, parent, invocation) are kept in memory and written out
when the run ends. Self time is a span's duration minus that of its wrapped
children.

The tracer also keeps the computed counts listed in COUNTS. They derive from
array sizes and repeat exactly for the same inputs; `joint_bytes_computed` is
computed from shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

LAYERS = {
    "cli": ("cmd_sweep", "cmd_steady", "cmd_trajectories"),
    "scenarios": ("resolve_config", "build_protocols", "metric_row"),
    "quantum": ("depolarizing_channel", "amplitude_damping_channel", "identity_channel",
                "controller_state", "partial_swap"),
    "loop": ("FeedbackProtocol", "build_superoperator", "steady_state", "sample_ensemble"),
    "metrics": ("haar_avg_bitflip_fidelity", "von_neumann_entropy", "linear_entropy", "purity"),
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
COUNTS = {"loop.joint_bytes_computed": "B", "loop.traj_steps": "count", "cli.csv_rows": "count",
          "cli.csv_bytes": "B", "metrics.haar_states": "count"}
BYTES_PER_ENTRY = 16  # complex128


def _superoperator_counts(args) -> dict[str, int]:
    p = args["p"]
    return {"loop.joint_bytes_computed": BYTES_PER_ENTRY * p.n_outcomes * p.d ** 6}


def _ensemble_counts(args) -> dict[str, int]:
    p, n, steps = args["p"], args["n_traj"], args["steps"]
    return {"loop.joint_bytes_computed": BYTES_PER_ENTRY * p.n_outcomes * n * p.d ** 4 * steps,
            "loop.traj_steps": n * steps}


def _haar_counts(args) -> dict[str, int]:
    return {"metrics.haar_states": args["nodes"] ** 2}


COUNTERS = {
    "loop.build_superoperator": _superoperator_counts,
    "loop.sample_ensemble": _ensemble_counts,
    "metrics.haar_avg_bitflip_fidelity": _haar_counts,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.invocation = -1
        self.spans: list[list] = []        # [name, start, end, parent index, invocation]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a qfeedback module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qfeedback" or k.startswith("qfeedback."))]
        for mod_name, names in LAYERS.items():
            home = sys.modules[f"qfeedback.{mod_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                span = f"{mod_name}.{fn_name}"
                if inspect.isclass(original):
                    original.__init__ = self._wrap(span, original.__init__)
                    continue
                wrapped = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer, spans, local = self, self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, n in counter(bound.arguments).items():
                    tracer.counts[key] += n
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.invocation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, total_s and self_s per span name, plus the counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, total, self_s) in agg.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, n in self.counts.items():
            out[name] = (n, COUNTS[name])
        return out

    def write_spans(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "invocation")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
