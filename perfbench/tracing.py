"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into ``eigengeo``
(name, wall start/end, CPU start/end, parent, thread) and written out only
when the run ends.  ``NullTracer`` has the same interface and records
nothing, so untraced runs pay one attribute lookup and a no-op context
manager per call site.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its children (children clipped to the parent's interval)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.sid] = s.duration - covered
    return out


class Tracer:
    """Records nested spans per thread; parents follow the thread's stack."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            s = Span(sid, name, stack[-1] if stack else None, threading.get_ident(), 0.0)
            self.spans.append(s)
        stack.append(sid)
        s.cpu_start = time.process_time()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.cpu_end = time.process_time()
            stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def summary(self) -> dict:
        """Per span name: count, total, self and CPU seconds."""
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += selfs[s.sid]
            row["cpu_s"] += s.cpu
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracer stand-in for untraced runs."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        yield None
