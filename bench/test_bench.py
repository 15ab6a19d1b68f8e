"""Tests of the benchmark's own arithmetic: self time, percentiles, ratios.

    python3 -m pytest bench/test_bench.py -q
"""

import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from splitbus import broker as bk  # noqa: E402
from splitbus import nn  # noqa: E402
from stats import distribution, nearest_rank, ratio, tail_per_mille  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_nested_children_on_one_thread():
    spans = [
        Span(0, "outer", 0.0, 10.0, 1, None, None),
        Span(1, "mid", 1.0, 4.0, 1, 0, None),
        Span(2, "inner", 2.0, 3.0, 1, 1, 7),
        Span(3, "mid", 5.0, 7.0, 1, 0, None),
    ]
    totals = self_times(spans)
    assert totals["outer"] == (1, pytest.approx(10.0 - 3.0 - 2.0))
    assert totals["mid"] == (2, pytest.approx((3.0 - 1.0) + 2.0))
    assert totals["inner"] == (1, pytest.approx(1.0))


def test_concurrent_spans_on_other_threads_are_not_children():
    spans = [
        Span(0, "outer", 0.0, 10.0, 1, None, None),
        Span(1, "worker", 2.0, 8.0, 2, None, None),
        Span(2, "worker", 3.0, 9.0, 3, None, None),
    ]
    totals = self_times(spans)
    assert totals["outer"] == (1, pytest.approx(10.0))
    assert totals["worker"] == (2, pytest.approx(12.0))


def test_tracer_links_parents_per_thread():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.01))
    with tracer.span("outer"):
        workers = [threading.Thread(target=leaf) for _ in range(2)]
        for t in workers:
            t.start()
        leaf()
        for t in workers:
            t.join(timeout=5)
            assert not t.is_alive()
    outer = next(s for s in tracer.spans if s.name == "outer")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 3
    assert sorted(s.parent is None for s in leaves) == [False, True, True]
    assert all(s.parent == outer.sid for s in leaves if s.thread == outer.thread)
    totals = self_times(tracer.spans)
    nested = next(s for s in leaves if s.parent == outer.sid)
    expected = (outer.end - outer.start) - (nested.end - nested.start)
    assert totals["outer"][1] == pytest.approx(expected)


def test_installed_wrappers_record_batches_and_restore_originals():
    originals = (nn.forward, bk.Broker.subscribe, bk.Broker.publish)
    tracer = Tracer()
    with tracer.installed():
        broker = bk.Broker(2, 1, 1)
        payload, _ = nn.forward(nn.init_mlp([3, 2], [nn.Activation.RELU], 0), np.ones((4, 3)))
        broker.publish(bk.ChannelMessage(bk.MessageKind.GRADIENT, 1, payload, (0, 4), 0, 0))
        broker.subscribe(bk.MessageKind.GRADIENT, 1, 0.0)
        broker.subscribe(bk.MessageKind.GRADIENT, 1, 0.0)
    assert (nn.forward, bk.Broker.subscribe, bk.Broker.publish) == originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [s.batch for s in by_name["broker.publish"]] == [1]
    assert [s.batch for s in by_name["broker.subscribe"]] == [1, 1]
    assert [(s.kind, s.delivered) for s in tracer.subscribes] == [("gradient", True), ("", False)]
    assert tracer.subscribes[0].residency >= 0.0
    assert tracer.subscribes[1].residency is None


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 500) == 50.0
    assert nearest_rank(values, 990) == 99.0
    assert nearest_rank(values, 999) == 100.0
    assert nearest_rank([3.0], 500) == 3.0


@pytest.mark.parametrize(
    "n, per_mille",
    [(0, None), (19, None), (20, 500), (39, 500), (40, 750), (99, 750), (100, 900),
     (199, 900), (200, 950), (999, 950), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(n, per_mille):
    assert tail_per_mille(n) == per_mille
    if per_mille is not None:
        rank = -(-per_mille * n // 1000)
        assert n - rank >= 10


def test_distribution_reports_median_tail_and_count():
    values = [float(v) for v in range(100, 0, -1)]
    assert distribution(values) == {"p50": 50.5, "tail": 90.0, "tail_pct": 90.0, "n": 100}
    assert distribution([1.0, 2.0, 3.0]) == {"p50": 2.0, "tail": 0.0, "tail_pct": 0.0, "n": 3}
    assert distribution([]) == {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}


def test_ratio_with_zero_denominator_is_zero():
    assert ratio(3, 4) == 0.75
    assert ratio(5, 0) == 0.0
    assert ratio(0, 0) == 0.0
    assert ratio(0.0, 0.0) == 0.0
