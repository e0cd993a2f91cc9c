"""Span recorder that traces seqht from outside the library.

``Tracer.install`` replaces each traced public function, in every seqht
module that holds a reference to it, with a wrapper that records a span:
(span id, name, job id, parent span id, start ns, end ns). Wrapping the
function as each caller sees it (``seqht.harness.simulate_batch``,
``seqht.cli.exact_errors``, ...) catches calls made inside the library as
well as the benchmark's own. Parents come from a thread-local stack; a span
opened on a worker thread with an empty stack takes the main thread's open
span as its parent, which is where the thread pool was started from.

Spans stay in memory, in one flat int64 array (six fields a span, 48 bytes),
and are written out when the benchmark ends. Work counts (draws, trial
samples, types, sweeps) are added at the same boundaries.
"""

from __future__ import annotations

import array
import gzip
import itertools
import math
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FIELDS = ("span", "name", "job", "parent", "start_ns", "end_ns")


@dataclass(frozen=True)
class TracePoint:
    """One traced function: where it lives and how to name and count it.

    ``classify`` picks the span name from the call's arguments (used to split
    ``exact_errors`` by evaluation path). ``count`` adds work counters after
    the call. ``memory`` measures the call's peak traced allocation with
    tracemalloc when the current job runs on one thread.
    """

    module: str
    attr: str
    name: str
    classify: Callable | None = None
    count: Callable | None = None
    memory: bool = False


class Tracer:
    """Spans and work counters of one traced run; ``install`` starts tracing."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array.array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self.notes: dict[int, dict] = {}
        self.job = -1
        self.job_threads = 1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, name_id, parent, t0, t1) -> None:
        stack.pop()
        # One extend call per span keeps the six fields of a row together
        # when worker threads record spans concurrently.
        self.spans.extend((sid, name_id, self.job, parent, t0, t1))

    def run_span(self, name: str, fn: Callable):
        """Call ``fn`` inside a span that the benchmark opens itself."""
        name_id = self.name_id(name)
        stack, sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self._close(stack, sid, name_id, parent, t0, time.perf_counter_ns())

    def _wrap(self, fn: Callable, point: TracePoint) -> Callable:
        fixed_id = self.name_id(point.name)

        def traced(*args, **kwargs):
            name_id = fixed_id if point.classify is None else self.name_id(point.classify(args, kwargs))
            measure = point.memory and self.job_threads == 1 and not tracemalloc.is_tracing()
            stack, sid, parent = self._open()
            if measure:
                tracemalloc.start()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                peak = None
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(stack, sid, name_id, parent, t0, t1)
            if point.count is not None:
                point.count(self, sid, args, kwargs, result, t1 - t0, peak)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, points: list[TracePoint]) -> None:
        """Wrap every point in every loaded seqht module that refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "seqht" or n.startswith("seqht.")]
        for point in points:
            original = getattr(sys.modules[point.module], point.attr)
            wrapper = self._wrap(original, point)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def table(self) -> np.ndarray:
        """Spans as an (n, 6) int64 array sorted by span id."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(FIELDS)).copy()
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def write(self, path: Path) -> None:
        rows = self.table()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(",".join(FIELDS) + "\n")
            names = self.names
            for sid, name, job, parent, t0, t1 in rows.tolist():
                fh.write(f"{sid},{names[name]},{job},{parent},{t0},{t1}\n")


def self_times(rows: np.ndarray) -> np.ndarray:
    """Per-span duration minus the part of it that child spans cover.

    Children on one thread never overlap, so their durations are summed; a
    parent whose children overlap (thread-pool workers) gets the length of
    the union of their intervals instead.
    """
    dur = rows[:, 5] - rows[:, 4]
    parents = rows[:, 3]
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(rows))
    child = np.nonzero(has_parent)[0]
    order = child[np.lexsort((rows[child, 4], parents[child]))]
    same = parents[order[1:]] == parents[order[:-1]]
    overlap = same & (rows[order[1:], 4] < rows[order[:-1], 5])
    for parent in np.unique(parents[order[1:]][overlap]):
        kids = order[parents[order] == parent]
        union, reach = 0, -math.inf
        for start, end in sorted(zip(rows[kids, 4].tolist(), rows[kids, 5].tolist())):
            if end > reach:
                union += end - max(start, reach)
                reach = end
        covered[parent] = union
    return dur - covered
