"""Span tracer that wraps the package's public functions from outside.

Each wrapper records one span (name, start, end, parent) per call, keeps it in
memory, and can also add to named counters from the call's arguments and
result. A function is wrapped where its caller looks it up: ``runner`` calls
``run_group_round`` through its own module global, so that global is the one
replaced. :meth:`Tracer.restore` puts every replaced attribute back.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

OnResult = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        # (span_id, name, start, end, parent_id); parent_id is -1 at a thread's top
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, name: str, on_result: OnResult | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording spans named ``name``.

        ``owner`` is a module or a class; a class must define ``attr`` itself,
        so that restoring it cannot shadow an inherited attribute.
        """
        if isinstance(owner, type) and attr not in vars(owner):
            raise ValueError(f"{owner.__name__} does not define {attr!r} itself")
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\n")
            for span_id, name, start, end, parent in sorted(self.spans):
                handle.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def reduce_spans(spans: list[tuple[int, str, float, float, int]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Self time is busy time minus the time of the spans directly inside it.
    Children run in the parent's thread, one after another, so their
    durations add up without overlapping.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: defaultdict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, _ in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[span_id]
    return dict(stats)


def durations(spans, name: str) -> list[float]:
    return [end - start for _, span_name, start, end, _ in spans if span_name == name]


def inside(spans, name: str, container: str) -> tuple[int, float]:
    """Count and seconds of ``name`` spans that start while a ``container`` span is open.

    Works across threads: worker-thread spans have no parent link, but they
    run while the call that dispatched them is open. Container spans must
    not overlap each other, which holds for calls made from one thread.
    """
    windows = sorted((start, end) for _, n, start, end, _ in spans if n == container)
    starts = [lo for lo, _ in windows]
    count, total = 0, 0.0
    for _, n, start, end, _ in spans:
        if n != name:
            continue
        i = bisect.bisect_right(starts, start) - 1
        if i >= 0 and start <= windows[i][1]:
            count += 1
            total += end - start
    return count, total
