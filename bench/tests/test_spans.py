"""Self-time arithmetic of the span tracer."""

import itertools
import threading

import pytest

from spans import Tracer


def scripted_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_nested_spans_subtract_children():
    tracer = Tracer(clock=scripted_clock(0.0, 1.0, 3.0, 6.0))
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit("inner")
    tracer.exit("outer")
    assert tracer.total_s == {"outer": 6.0, "inner": 2.0}
    assert tracer.self_s == {"outer": 4.0, "inner": 2.0}
    assert list(tracer.thread_self_s.values()) == [6.0]


def test_recursive_span_counts_each_level_once():
    # a mixture kernel_matrix calling itself for a component
    tracer = Tracer(clock=scripted_clock(0.0, 2.0, 5.0, 9.0))
    tracer.enter("kernel_matrix")
    tracer.enter("kernel_matrix")
    tracer.exit("kernel_matrix")
    tracer.exit("kernel_matrix")
    assert tracer.calls["kernel_matrix"] == 2
    assert tracer.total_s["kernel_matrix"] == 12.0  # inclusive times overlap
    assert tracer.self_s["kernel_matrix"] == 9.0  # self times do not


def test_wrapped_recursion_and_counters():
    tracer = Tracer(clock=itertools.count().__next__)

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("depth", depth, lambda result, n: tracer.count("depth.entries", n))
    assert traced(3) == 3
    assert tracer.calls["depth"] == 4
    assert tracer.counters["depth.entries"] == 6
    # the clock reads 0..7: spans of 7, 5, 3 and 1 ticks, nested
    assert tracer.total_s["depth"] == 16
    assert tracer.self_s["depth"] == 7


def test_failure_is_counted_and_span_closed():
    tracer = Tracer(clock=itertools.count().__next__)

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.counters["boom.failures"] == 1
    assert tracer.calls["boom"] == 1
    tracer.enter("after")
    tracer.exit("after")  # the stack is empty again, so this is a root span
    assert tracer.self_s["after"] == tracer.total_s["after"]


def test_spans_from_two_threads_do_not_nest():
    lock = threading.Lock()
    ticks = itertools.count()

    def clock():
        with lock:
            return float(next(ticks))

    tracer = Tracer(clock=clock)
    barrier = threading.Barrier(2, timeout=10)

    def first():
        tracer.enter("a")
        barrier.wait()  # b opens and closes while a is open
        barrier.wait()
        tracer.exit("a")

    def second():
        barrier.wait()
        tracer.enter("b")
        tracer.exit("b")
        barrier.wait()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.self_s["a"] == tracer.total_s["a"]
    assert tracer.self_s["b"] == tracer.total_s["b"] == 1.0
    assert len(tracer.thread_self_s) == 2


def test_mismatched_exit_is_rejected():
    tracer = Tracer(clock=itertools.count().__next__)
    tracer.enter("a")
    with pytest.raises(RuntimeError):
        tracer.exit("b")
