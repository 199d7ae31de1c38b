"""In-memory spans and counters recorded around srlab's public functions.

A span is (id, name, start, end, parent, attrs).  The tracer replaces a
function at the module attribute its caller looks up, so no library source
changes; `restore` puts every original back.  `thinness_integral` calls into
its layers from a ThreadPoolExecutor, so span ids, stacks, the span list and
the counters are all updated under one lock.  A span opened on a thread with
an empty stack (a pool worker) takes the innermost open span of the thread
that created the tracer as its parent, because that thread is blocked in the
call that submitted the work.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.counters: Counter = Counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None):
        """`fn` inside a span; `describe(bound_args, result)` gives its attrs."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = self._next_id
                self._next_id += 1
                if stack:
                    parent = stack[-1]
                elif self._main_stack:
                    parent = self._main_stack[-1]
                else:
                    parent = None
                stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    stack.pop()
            attrs = {}
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = describe(bound.arguments, result)
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, attrs))
                self.counters[name + ".calls"] += 1
            return result

        return traced

    def patch(self, module, attr: str, name: str, describe=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, describe))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap (pool workers) or outlast the parent; their
    intervals are clipped to the parent and merged before subtracting.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = s.duration - covered
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return table
