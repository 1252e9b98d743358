"""In-memory span tracer with self-time accounting.

A span covers one call of a wrapped function.  Each thread keeps its own
stack of open spans, so spans from the worker threads of ``gpconv
figures`` nest only within their own thread.  A span's self time is its
duration minus the durations of its direct children; a recursive call
(a mixture ``kernel_matrix`` calling itself) is an ordinary child span of
the same name.  Only aggregates are kept: per name the call count, the
inclusive and self time, named counters, and per thread the summed self
time.  Inclusive durations are kept for the names listed in
``keep_durations`` so their percentiles can be taken.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter, keep_durations=()):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._keep = set(keep_durations)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.thread_self_s: dict[int, float] = defaultdict(float)

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append(_Frame(name, self._clock()))

    def exit(self, name: str) -> None:
        end = self._clock()
        stack = self._stack()
        frame = stack.pop()
        if frame.name != name:
            raise RuntimeError(f"span {name!r} closed while {frame.name!r} was open")
        duration = end - frame.start
        own = duration - frame.child_s
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += own
            self.thread_self_s[threading.get_ident()] += own
            if name in self._keep:
                self.durations[name].append(duration)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name: str, fn, on_return=None):
        """Wrap ``fn`` in a span; ``on_return(result, *args, **kwargs)``
        runs inside the span after a normal return.  An exception raised
        by ``fn`` adds one to the counter ``<name>.failures``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result, *args, **kwargs)
                return result
            except BaseException:
                self.count(f"{name}.failures")
                raise
            finally:
                self.exit(name)

        return traced

    def summary(self) -> dict:
        """Plain-data snapshot, suitable for JSON."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "counters": dict(self.counters),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "thread_self_s": [self.thread_self_s[k] for k in sorted(self.thread_self_s)],
            }
