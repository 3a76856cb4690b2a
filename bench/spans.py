"""Span recorder for the benchmark's traced runs.

Public functions of evsynth's modules are replaced, by module attribute,
with wrappers that record one span per call: name, operation id, parent
span, start and end.  Because evsynth calls its own functions through
module attributes (``glm.fit_binomial``, ``simgen.rng_stream``, ...), calls
made from inside the package pass through the wrappers as well.  Nothing in
``src/`` is modified; :meth:`Recorder.installed` restores the originals on
exit.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of its interval that its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# (module, function) pairs whose calls become spans.  Module names are the
# evsynth layers; the per-layer metrics are named "<module>.<function>".
TRACED = (
    ("hypothesis", "parse"),
    ("hypothesis", "transform_constraints"),
    ("glm", "dataset_from_csv"),
    ("glm", "fit_ols"),
    ("glm", "fit_binomial"),
    ("simgen", "rng_stream"),
    ("simgen", "gen_dataset"),
    ("bf", "evaluate"),
    ("bf", "adjustment_center"),
    ("bf", "bf_iu"),
    ("synthesis", "aggregate_log_bf"),
    ("synthesis", "update"),
    ("cli", "main"),
    ("cli", "load_records"),
    ("cli", "synthesize_records"),
    ("cli", "run_iteration"),
    ("cli", "write_results_csv"),
)
MODULES = ("hypothesis", "glm", "simgen", "bf", "synthesis", "cli")


class Span(NamedTuple):
    span_id: int
    parent: int | None
    op: object
    name: str
    start: float
    end: float


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds).

    Self time is the span's duration minus the union of its direct
    children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out[s.name]
        entry[0] += 1
        entry[1] += (s.end - s.start) - covered
    return {name: (calls, total) for name, (calls, total) in out.items()}


class Recorder:
    """Collects spans and layer counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._paused = False

    def active(self, name: str) -> bool:
        return any(n == name for _, n in self._stack)

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without recording, for the benchmark's
        own use of evsynth (its output checks)."""
        self._paused = True
        try:
            yield self
        finally:
            self._paused = False

    def _wrap(self, name: str, fn, observe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                self.spans.append(Span(span_id, parent, self.op, name, start, end))
                if observe is not None:
                    observe(self, args, kwargs, None, exc)
                raise
            end = clock()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.op, name, start, end))
            if observe is not None:
                observe(self, args, kwargs, result, None)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, modules: dict, targets=TRACED, observers=None):
        """Replace each traced function with a recording wrapper.

        ``modules`` maps layer names to module objects; ``observers`` maps
        span names to callables ``(recorder, args, kwargs, result, exc)``
        that update :attr:`counters` after each call.
        """
        observers = observers or {}
        saved = []
        try:
            for mod_name, attr in targets:
                module = modules[mod_name]
                original = getattr(module, attr)
                name = f"{mod_name}.{attr}"
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, observers.get(name)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, passes: int = 1) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_ms`` for every traced function,
        plus ``<module>.self_ms`` totals, each divided by ``passes``."""
        per_name = self_times(self.spans)
        metrics: dict[str, float] = {}
        module_ms = dict.fromkeys(MODULES, 0.0)
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            calls, total = per_name.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls / passes
            metrics[f"{name}.self_ms"] = total * 1e3 / passes
            module_ms[mod_name] += total * 1e3 / passes
        for mod_name, ms in module_ms.items():
            metrics[f"{mod_name}.self_ms"] = ms
        return metrics

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
