"""Span recording around the program's public functions, from outside it.

A Tracer replaces module and class attributes with timing wrappers while it
is installed and puts the originals back on uninstall.  Every wrapped call
updates per-name totals (calls, duration, self time); names listed as kept
also leave one span each in memory, written out as JSON lines at the end.
Self time is a call's duration minus the time its traced children cover.

Hot functions (millions of calls per engine run) are aggregated only, so
memory stays flat however long the run.
"""

import functools
import json
import threading
from time import perf_counter


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {}


class Tracer:
    def __init__(self, kept=()):
        self._kept = frozenset(kept)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, Stat]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, "str | None", str]] = []

    # -- per-thread state ----------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack = []
            local.stats = {}
            with self._lock:
                self._per_thread.append(local.stats)
            return local.stack, local.stats

    def _record(self, name, start, end, child_s, parent, stats):
        duration = end - start
        stat = stats.get(name)
        if stat is None:
            stat = stats[name] = Stat()
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - child_s
        if name in self._kept:
            self.spans.append((name, start, end, parent, threading.current_thread().name))
        return stat

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr with a traced wrapper.  ``count(args, result)``
        runs after the span closes and returns {counter: increment}; a
        counter named ``peak:<x>`` keeps the maximum instead of the sum."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack, stats = tracer._thread_state()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                stat = tracer._record(name, start, end, frame[1], parent, stats)
            if count is not None:
                for key, value in count(args, result).items():
                    if key.startswith("peak:"):
                        stat.counts[key] = max(stat.counts.get(key, 0), value)
                    else:
                        stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def span(self, name: str):
        """Context manager recording one span around a block of the
        benchmark's own code (used for calls made only by its checks)."""
        return _Span(self, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, Stat]:
        merged: dict[str, Stat] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, stat in table.items():
                into = merged.setdefault(name, Stat())
                into.calls += stat.calls
                into.total_s += stat.total_s
                into.self_s += stat.self_s
                for key, value in stat.counts.items():
                    if key.startswith("peak:"):
                        into.counts[key] = max(into.counts.get(key, 0), value)
                    else:
                        into.counts[key] = into.counts.get(key, 0) + value
        return merged

    def kept_spans(self, name: str) -> list[tuple[float, float]]:
        return [(s, e) for n, s, e, _, _ in self.spans if n == name]

    def write_spans(self, path, request_of) -> None:
        """Write kept spans as JSON lines; ``request_of(start)`` maps a span
        start to the client request it belongs to (or None)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start_s": start,
                    "end_s": end,
                    "parent": parent,
                    "thread": thread,
                    "request": request_of(start),
                }) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        stack, self._stats = self._tracer._thread_state()
        self._parent = stack[-1][0] if stack else None
        self._frame = [self._name, 0.0]
        stack.append(self._frame)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        stack, _ = self._tracer._thread_state()
        stack.pop()
        if stack:
            stack[-1][1] += end - self._start
        self._tracer._record(
            self._name, self._start, end, self._frame[1], self._parent, self._stats
        )
        return False
