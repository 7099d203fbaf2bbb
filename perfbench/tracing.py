"""Span tracing installed from outside the program.

`Tracer.install()` replaces every public function of the traced cfedit
modules with a wrapper that records a span (name, start, end, parent, op)
and restores the originals on `uninstall()`. Nothing under src/ changes: the
wrapper is patched into every cfedit module namespace that holds the
function, so calls made through `from .x import y` imports are traced too.

Spans are kept in memory and written as JSONL by `write_jsonl`. Self time of
a span is its duration minus the durations of its direct children; spans nest
strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

# module short name -> module path; the layers the per-layer metrics name
TRACED_MODULES = ("network", "search", "relaxed", "grids", "render", "metrics", "data", "cli")


class Tracer:
    def __init__(self, modules=TRACED_MODULES):
        self.modules = modules
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.op = None  # identifier shared by the spans of one benchmark operation
        self._stack = []  # [span id, child ns] of open spans
        self._next_id = 0
        self._patches = []  # (namespace module, attribute, original)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in self.modules:
            mod = sys.modules[f"cfedit.{short}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "cfedit" or n.startswith("cfedit.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                tracer.spans.append((sid, name, start, end, parent[0] if parent else None, tracer.op))
            if hook is not None:
                hook(tracer.counters, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def table(self) -> dict:
        """{span name: {"calls", "self_ms"}} for every traced function that ran."""
        return {
            name: {"calls": self.calls[name], "self_ms": self.self_ns[name] / 1e6}
            for name in sorted(self.calls)
        }

    def write_jsonl(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


# -- counters read where the work happens -------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_head_rows(counters, args, kwargs, out):
    counters["head_rows"] += len(out)


def _count_greedy(counters, args, kwargs, result):
    counters["greedy_pairs"] += 1
    counters["committed_edits"] += result.edit_count


def _note_sharpness(counters, args, kwargs, out):
    """Whether this step met the solver's stop test (gate and alignment both
    at least `sharpness_stop` at the gate's argmax)."""
    opt = _arg(args, kwargs, 6, "opt")
    a, P = out[3], out[4]
    i = int(a.argmax())
    counters["relaxed_last_step_sharp"] = int(a[i] >= opt.sharpness_stop and P[i].max() >= opt.sharpness_stop)


def _count_relaxed(counters, args, kwargs, out):
    """A call converged when its last step met the stop test, which may be
    the last allowed step; the trajectory holds one objective per step."""
    counters["relaxed_calls"] += 1
    counters["relaxed_steps"] += len(out[3])
    counters["relaxed_converged"] += counters["relaxed_last_step_sharp"]


def _count_candidates(counters, args, kwargs, out):
    F = _arg(args, kwargs, 1, "F")
    n = F.cells
    counters["candidate_steps"] += 1
    counters["candidate_bytes"] += n * n * n * F.d * 8


def _count_written(counters, args, kwargs, paths):
    counters["bytes_written"] += sum(os.path.getsize(p) for p in paths.values())


_HOOKS = {
    "network.head_logprobs_batch": _count_head_rows,
    "search.greedy_counterfactual": _count_greedy,
    "relaxed.relaxed_objective_and_grads": _note_sharpness,
    "relaxed.best_edit_relaxed": _count_relaxed,
    "search.candidate_scores": _count_candidates,
    "render.write_explanation": _count_written,
}
