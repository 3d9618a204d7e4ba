"""Span aggregation for the traced benchmark run.

Spans are kept in memory, aggregated per (name, parent name): a sweep makes
about a million wrapped calls, so per-call records would cost more memory
than the program under test.  A span's self time is its duration minus the
durations of the spans it directly encloses; the program is single-threaded,
so child spans never overlap and their durations simply add up.
"""

from __future__ import annotations

import time


class Tracer:
    """Nested spans opened and closed around wrapped calls.

    spans maps (name, parent) to [calls, total seconds, child seconds], with
    parent None at the root.  counts holds named work counters.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        agg = self.spans.get((name, parent))
        if agg is None:
            agg = self.spans[(name, parent)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += child

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def wrap(tracer: Tracer, name, fn, after=None):
    """fn wrapped in a span.

    name is a span name, or a callable that picks one from the call's
    arguments.  after(tracer, result, args, kwargs), when given, records
    work counters from the result once the span has closed.
    """
    pick = name if callable(name) else (lambda *args, **kwargs: name)

    def wrapper(*args, **kwargs):
        tracer.enter(pick(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, result, args, kwargs)
        return result

    return wrapper


class FirstCall:
    """Span name picker: cold for the first call with a given key, warm
    after it.  key maps the call's arguments to what the callee caches by."""

    def __init__(self, cold: str, warm: str, key):
        self.cold = cold
        self.warm = warm
        self.key = key
        self.seen: set = set()

    def __call__(self, *args, **kwargs) -> str:
        k = self.key(*args, **kwargs)
        if k in self.seen:
            return self.warm
        self.seen.add(k)
        return self.cold


def totals(spans) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds], over all
    parents."""
    out: dict[str, list] = {}
    for (name, _), (calls, total, child) in spans.items():
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += total - child
    return out


def time_under(spans, names, parents) -> float:
    """Total seconds of spans named in names whose direct parent is named
    in parents."""
    return sum(
        total
        for (name, parent), (_, total, _) in spans.items()
        if name in names and parent in parents
    )

