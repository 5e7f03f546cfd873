"""Outside-in tracer: times calls into the program's public functions
without editing the program.

Each traced function is replaced, in every ``lama`` module namespace that
holds it, by a wrapper that records a span (name, start, end, parent span).
Spans stay in memory; ``self_times`` turns them into the time each name
spent outside its traced children. Garbage-collector pauses come from
``gc.callbacks`` and overlap the spans.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute) of every traced function; the span is named
# "<module without the lama. prefix>.<attribute>"
TRACED = [
    ("lama.gru", "bigru_encode"),
    ("lama.autodiff", "backward"),
    ("lama.autodiff", "take_rows"),
    ("lama.training", "sgd_step"),
    ("lama.attention", "attend"),
    ("lama.classifier", "classify"),
    ("lama.model", "forward_doc"),
    ("lama.model", "doc_objective"),
    ("lama.training", "evaluate"),
    ("lama.training", "Checkpoint.save"),
    ("lama.training", "Checkpoint.load"),
    ("lama.text", "load_dataset"),
    ("lama.text", "tokenize"),
]

# per-layer metrics the traced run reports, as (name, unit)
PER_LAYER = [
    ("gru.bigru_encode.s", "s"),
    ("gru.bigru_encode.calls", "count"),
    ("autodiff.backward.s", "s"),
    ("autodiff.backward.calls", "count"),
    ("autodiff.backward.nodes_per_doc", "nodes/doc"),
    ("autodiff.take_rows.s", "s"),
    ("training.sgd_step.s", "s"),
    ("training.sgd_step.calls", "count"),
    ("attention.attend.s", "s"),
    ("classifier.classify.s", "s"),
    ("model.forward_doc.s", "s"),
    ("model.forward_doc.calls", "count"),
    ("model.doc_objective.s", "s"),
    ("training.evaluate.s", "s"),
    ("training.Checkpoint.save.s", "s"),
    ("training.Checkpoint.load.s", "s"),
    ("text.load_dataset.s", "s"),
    ("text.tokenize.calls", "count"),
    ("runtime.gc.s", "s"),
    ("runtime.gc.collections", "count"),
    ("runtime.gc.gen2", "count"),
    ("unattributed.s", "s"),
    ("trace.overhead_frac", "frac"),
]


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root span


def self_times(spans) -> dict:
    """Sum, per (phase, name), of each span's duration minus the part of it
    that its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    out = {}
    for span, child in zip(spans, covered):
        key = (span.phase, span.name)
        out[key] = out.get(key, 0.0) + (span.end - span.start) - child
    return out


def count_nodes(root) -> int:
    """Nodes of the autodiff graph reachable from ``root`` through
    ``Node.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _lama_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lama" or name.startswith("lama."))]


class Tracer:
    """Spans, call counts and GC pauses, split by phase (set-up or measured
    rounds), so that per-layer figures can be normalised per phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter = Counter()   # (phase, name) -> calls
        self.absent: list[str] = []       # traced names the program lacks
        self.phase = "idle"
        self.wall: Counter = Counter()    # phase -> seconds inside in_phase()
        self.gc_seconds: Counter = Counter()
        self.gc_collections: Counter = Counter()
        self.gc_gen2: Counter = Counter()
        self.own_seconds: Counter = Counter()  # graph walks, outside any span
        self.graph_nodes = 0
        self.wrapped_calls = 0
        self._stack: list[int] = []
        self._restore: list = []
        self._gc_started = None

    # -- spans ---------------------------------------------------------
    def wrap(self, name, fn, count=True, before=None, after=None):
        """``fn`` recording one span per call. ``before`` sees the arguments
        ahead of the span and ``after`` the result behind it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            self.wrapped_calls += 1
            if count:
                self.calls[(self.phase, name)] += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            span = Span(name, self.phase, self.clock(), parent=parent)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            return after(result) if after else result
        return traced

    @contextmanager
    def in_phase(self, phase):
        previous, self.phase = self.phase, phase
        started = self.clock()
        try:
            yield
        finally:
            self.wall[phase] += self.clock() - started
            self.phase = previous

    # -- installing ----------------------------------------------------
    def install(self):
        hooks = {"autodiff.backward": {"before": self._count_graph},
                 "autodiff.take_rows": {"after": self._trace_pullbacks}}
        for module_name, attr in TRACED:
            name = f"{module_name.removeprefix('lama.')}.{attr}"
            module = importlib.import_module(module_name)
            if not self._patch(name, module, attr, hooks.get(name, {})):
                self.absent.append(name)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, name, module, attr, hooks) -> bool:
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            # a method: replace it on its class, keeping classmethods bound
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(fn_name) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__))
            else:
                replacement = self.wrap(name, raw)
            self._restore.append((owner, fn_name, raw))
            setattr(owner, fn_name, replacement)
            return True
        original = getattr(module, fn_name, None)
        if not callable(original):
            return False
        traced = self.wrap(name, original, **hooks)
        # a caller that imported the function by name looks it up in its
        # own namespace, so patch every lama namespace that holds it
        for mod in _lama_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, traced)
        return True

    def _count_graph(self, root, *args, **kwargs):
        started = self.clock()
        try:
            self.graph_nodes += count_nodes(root)
        except (AttributeError, TypeError, ValueError):
            pass  # a graph this walk does not understand is left uncounted
        self.own_seconds[self.phase] += self.clock() - started

    def _trace_pullbacks(self, node):
        # the embedding gradient is built in take_rows' pullback, which runs
        # inside backward: time it under take_rows' own name
        try:
            node.parents = tuple(
                (parent, self.wrap("autodiff.take_rows", pull, count=False))
                for parent, pull in node.parents)
        except (AttributeError, TypeError, ValueError):
            pass
        return node

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            self.gc_seconds[self.phase] += self.clock() - self._gc_started
            self.gc_collections[self.phase] += 1
            self.gc_gen2[self.phase] += info.get("generation") == 2
            self._gc_started = None

    # -- results -------------------------------------------------------
    def per_layer(self, per_phase: dict, train_docs: int, call_cost: float) -> dict:
        """Per-layer metrics for one pass of each phase.

        ``per_phase`` maps a phase to how many times it ran; each figure is
        the sum over phases of its phase total divided by that count.
        ``call_cost`` is the wrapper's own cost per call (see
        ``wrapper_cost``), from which the tracing overhead is estimated.
        """
        selfs = self_times(self.spans)

        def norm(table, name=None):
            return sum(table.get((p, name) if name else p, 0.0) / n
                       for p, n in per_phase.items())

        out = {}
        for module_name, attr in TRACED:
            name = f"{module_name.removeprefix('lama.')}.{attr}"
            if name not in self.absent:
                out[f"{name}.s"] = norm(selfs, name)
                out[f"{name}.calls"] = norm(self.calls, name)
        if "autodiff.backward" not in self.absent:
            out["autodiff.backward.nodes_per_doc"] = self.graph_nodes / max(train_docs, 1)
        out["runtime.gc.s"] = norm(self.gc_seconds)
        out["runtime.gc.collections"] = norm(self.gc_collections)
        out["runtime.gc.gen2"] = norm(self.gc_gen2)
        spans_self = Counter()
        for (phase, _), seconds in selfs.items():
            spans_self[phase] += seconds
        out["unattributed.s"] = sum(
            (self.wall[p] - spans_self[p] - self.own_seconds[p]) / n
            for p, n in per_phase.items())
        traced_wall = sum(self.wall[p] for p in per_phase)
        overhead = self.wrapped_calls * call_cost + sum(self.own_seconds.values())
        out["trace.overhead_frac"] = overhead / traced_wall if traced_wall else 0.0
        return {name: out[name] for name, _ in PER_LAYER if name in out}


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    elapsed = []
    for fn in (noop, traced):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - started)
    return max(elapsed[1] - elapsed[0], 0.0) / calls
