"""Self-time, span-coverage and percentile arithmetic of the benchmark.

    python3 -m pytest perfbench/tests
"""

import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from common import percentile  # noqa: E402
from spans import LayerStats, Tracer, self_times, uncovered_share  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # A [0,100] holds B [10,40] and C [50,70]; B holds D [20,30]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 70]
    parent = [-1, 0, 1, 0]
    assert list(self_times(start, end, parent)) == [50, 20, 10, 20]


def test_self_times_add_up_to_the_root():
    rng = random.Random(7)
    start, end, parent = [], [], []

    def grow(lo, hi, up, depth):
        idx = len(start)
        start.append(lo)
        end.append(hi)
        parent.append(up)
        t = lo
        while depth and t < hi - 2:
            a = rng.randint(t, hi - 2)
            b = rng.randint(a + 1, hi - 1)
            grow(a, b, idx, depth - 1)
            t = b

    grow(0, 10_000, -1, 4)
    assert sum(self_times(start, end, parent)) == 10_000
    assert all(s >= 0 for s in self_times(start, end, parent))


def test_uncovered_share_counts_only_top_level_spans():
    start = [0, 2, 20]
    end = [10, 8, 30]
    parent = [-1, 0, -1]
    assert uncovered_share(start, end, parent, 0, 40) == pytest.approx(0.5)
    # a window clips the spans it cuts through
    assert uncovered_share(start, end, parent, 5, 25) == pytest.approx(0.5)


def test_tracer_records_parents_ops_and_failures():
    tracer = Tracer()

    def leaf():
        return 1

    def boom():
        raise ValueError

    leaf_t = tracer.wrap(leaf, "leaf")
    boom_t = tracer.wrap(boom, "boom")

    def root():
        leaf_t()
        with pytest.raises(ValueError):
            boom_t()
        return leaf_t()

    root_t = tracer.wrap(root, "root")
    tracer.op_id = 3
    assert root_t() == 1
    tracer.enabled = False
    leaf_t()                       # not recorded
    assert [tracer.names[n] for n in tracer.name_id] == [
        "root", "leaf", "boom", "leaf"]
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert list(tracer.op) == [3, 3, 3, 3]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))

    stats = LayerStats(tracer)
    assert stats.count("leaf") == 2
    assert stats.failed("boom") == 1 and stats.failed("leaf") == 0
    assert stats.calls_under("leaf", "root") == 2
    root_ns = tracer.end[0] - tracer.start[0]
    total_self_us = stats.mean_self_us("root", "leaf", "boom") * 4
    assert total_self_us == pytest.approx(root_ns / 1000)


def test_in_ops_leaves_out_spans_outside_operations():
    tracer = Tracer()
    leaf_t = tracer.wrap(lambda: None, "leaf")
    tracer.op_id = 0
    leaf_t()
    leaf_t()
    tracer.op_id = -1
    leaf_t()                       # set-up or warm-up: no operation
    stats = LayerStats(tracer)
    us = [(e - s) / 1000 for s, e in zip(tracer.start, tracer.end)]
    assert stats.mean_self_us("leaf", in_ops=True) == pytest.approx(
        sum(us[:2]) / 2)
    assert stats.mean_self_us("leaf") == pytest.approx(sum(us) / 3)


@pytest.mark.parametrize("q, expected",[(0, 1), (25, 2), (50, 3),
                                         (100, 5), (90, 4.6)])
def test_percentile_interpolates_between_ranks(q, expected):
    assert percentile([5, 3, 1, 4, 2], q) == pytest.approx(expected)


def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(3)
    xs = [rng.expovariate(1.0) for _ in range(1001)]
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    for q in (1, 25, 50, 75, 99):
        assert percentile(xs, q) == pytest.approx(cuts[q - 1])


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)
