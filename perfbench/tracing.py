"""Spans around the public entry points of each coracmg layer.

The benchmark patches module and class attributes of the package while a
trace is active and restores them afterwards; the package itself carries no
tracing code.  A span records its name, start, end, thread and parent.  A
span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent, so work a thread pool
does for ``run_experiment`` counts as that call's children.

Self time is a span's duration minus the part of its interval that the
union of its child spans covers.
"""

from __future__ import annotations

import functools
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a top-level span
    size: float = 0.0  # per-call work measure (chars, postings, candidates, ...)


class Tracer:
    def __init__(self, base: "Tracer | None" = None):
        """A new trace, starting from a copy of ``base``'s spans and counts."""
        self.spans: list[Span] = list(base.spans) if base else []
        self.counts: dict[str, int] = dict(base.counts) if base else {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        span = Span(name, time.perf_counter(), parent=parent)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int, size: float = 0.0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.size = size
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``size(args, result)`` gives the span's work measure.  Class- and
        static methods keep their kind.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            measured = 0.0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    measured = size(args, result)
                return result
            finally:
                self.end(idx, measured)

        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, raw))

    def count_processes(self, name: str) -> None:
        """Count every child process started through ``subprocess.Popen``."""
        tracer = self
        original = subprocess.Popen

        class CountingPopen(original):
            def __init__(self, *args, **kwargs):
                tracer.count(name)
                super().__init__(*args, **kwargs)

        subprocess.Popen = CountingPopen
        self._patches.append((subprocess, "Popen", original))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def sizes(self, name: str) -> list[float]:
        return [s.size for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span.name == name:
                covered = union_length(
                    [(c.start, c.end) for c in children.get(idx, [])], span.start, span.end
                )
                total += (span.end - span.start) - covered
        return total

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        tops = [(s.start, s.end) for s in self.spans if s.parent < 0]
        return union_length(tops, start, end) / (end - start)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered
