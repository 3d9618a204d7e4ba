"""Self-tests for the span arithmetic of the traced benchmark run.

A fake clock advances only when a test says so, so every expected time is
exact.
"""

import pytest

from layers import EXPAND_COLD, EXPAND_WARM, _expand_key
from tracing import FirstCall, Tracer, time_under, totals, wrap


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    # root: 10 s in all; b: 3 s holding c for 1 s; a second c of 2 s.
    tracer.enter("root")
    clock.advance(1)
    tracer.enter("b")
    clock.advance(1)
    tracer.enter("c")
    clock.advance(1)
    tracer.exit()
    clock.advance(1)
    tracer.exit()
    clock.advance(1)
    tracer.enter("c")
    clock.advance(2)
    tracer.exit()
    clock.advance(3)
    tracer.exit()

    assert tracer.stack == []
    assert tracer.spans == {
        ("c", "b"): [1, 1.0, 0.0],
        ("b", "root"): [1, 3.0, 1.0],
        ("c", "root"): [1, 2.0, 0.0],
        ("root", None): [1, 10.0, 5.0],
    }
    assert totals(tracer.spans) == {
        "root": [1, 10.0, 5.0],
        "b": [1, 3.0, 2.0],
        "c": [2, 3.0, 3.0],
    }
    # Self times add up to the root's duration.
    assert sum(agg[2] for agg in totals(tracer.spans).values()) == 10.0
    assert time_under(tracer.spans, {"c"}, {"root"}) == 2.0
    assert time_under(tracer.spans, {"b", "c"}, {"root", "b"}) == 6.0


def test_wrapped_calls_nest_and_count():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(x):
        clock.advance(x)
        return [x] * x

    wrapped_leaf = wrap(tracer, "leaf", leaf,
                        lambda t, result, args, kwargs: t.count("items", len(result)))

    def outer():
        clock.advance(1)
        return wrapped_leaf(2) + wrapped_leaf(x=3)

    assert wrap(tracer, "outer", outer)() == [2, 2, 3, 3, 3]
    assert totals(tracer.spans) == {"leaf": [2, 5.0, 5.0], "outer": [1, 6.0, 1.0]}
    assert tracer.counts == {"items": 5}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        wrap(tracer, "boom", boom)()
    assert tracer.stack == []
    assert tracer.spans[("boom", None)][0] == 1


class FakeMExpr:
    def __init__(self, degree):
        self.degree = degree


def test_expand_in_cold_then_warm_per_degree_and_basis():
    clock = FakeClock()
    tracer = Tracer(clock)
    built = set()

    def expand_in(f, basis):
        # Building the inverse for a new (degree, basis) costs 10 s; each
        # solve against a built one costs 1 s.
        key = (f.degree, basis)
        clock.advance(1 if key in built else 10)
        built.add(key)

    traced = wrap(tracer, FirstCall(EXPAND_COLD, EXPAND_WARM, _expand_key), expand_in)
    for degree, basis in [(3, "young-qs"), (3, "young-qs"), (4, "young-qs"),
                          (3, "dual-immaculate"), (4, "young-qs"), (3, "young-qs")]:
        traced(FakeMExpr(degree), basis)

    agg = totals(tracer.spans)
    assert agg[EXPAND_COLD] == [3, 30.0, 30.0]
    assert agg[EXPAND_WARM] == [3, 3.0, 3.0]
