"""Tests of the benchmark's own statistics and span accounting."""

import json
import math
import os

import pytest

from perfbench.report import END_TO_END, PER_LAYER
from perfbench.speed import REFERENCE_S, window_factor
from perfbench.stats import Span, Tally, covered, self_times, tail
from perfbench.tracing import OP, join_server_spans, layer_metrics, op_totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- tail_ms: the highest percentile leaving >= 10 samples beyond it ----------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    result = tail(values)
    assert result.value == 90.0
    assert result.percentile == 90.0
    assert result.samples == 100
    assert sum(v > result.value for v in values) == 10


def test_tail_percentile_follows_sample_count():
    result = tail([float(v) for v in range(1, 21)])
    assert (result.value, result.percentile) == (10.0, 50.0)
    result = tail([float(v) for v in range(1000, 0, -1)])  # order does not matter
    assert (result.value, result.percentile, result.samples) == (990.0, 99.0, 1000)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)
    assert tail([1.0] * 11).percentile == pytest.approx(100 / 11)


# -- self time: duration minus the union of child intervals ------------------
def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span(1, None, "a", "parent", 0.0, 10.0),
        Span(2, 1, "a", "child", 1.0, 4.0),
        Span(3, 1, "a", "child", 3.0, 6.0),  # overlaps span 2 (another thread)
        Span(4, 1, "a", "child", 8.0, 12.0),  # runs past the parent: clipped
        Span(5, 2, "a", "grandchild", 1.5, 3.5),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(2.0)


def test_covered_merges_touching_and_nested_intervals():
    assert covered([(0, 2), (2, 3), (0.5, 1), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(-5, 20)], 0, 10) == pytest.approx(10.0)


def test_server_spans_of_two_concurrent_ops_stay_with_their_op():
    # Two client threads: their requests overlap in time on the server.
    client = [
        Span(1, None, "c0-0", OP, 0.0, 10.0),
        Span(2, 1, "c0-0", "http", 1.0, 9.0),
        Span(3, None, "c1-0", OP, 0.5, 10.5),
        Span(4, 3, "c1-0", "http", 1.5, 9.5),
    ]
    server = [
        Span(1, None, "c0-0", "service.handle", 2.0, 8.0),
        Span(2, 1, "c0-0", "detection.type2", 3.0, 4.0),
        Span(3, None, "c1-0", "service.handle", 2.5, 7.5),
        Span(4, None, "warm-up", "service.handle", 0.0, 1.0),
    ]
    joined = join_server_spans(client, server)
    assert len(joined) == 7  # the warm-up request is dropped
    metrics, seen = layer_metrics(joined, {}, ops=2)
    assert metrics["http.overhead_ms"] == pytest.approx(1000.0 * (2.0 + 3.0) / 2)
    assert metrics["service.handle_ms"] == pytest.approx(1000.0 * (5.0 + 5.0) / 2)
    assert metrics["detection.type2_ms"] == pytest.approx(1000.0 * 1.0 / 2)
    assert metrics["unattributed_ms"] == pytest.approx(1000.0 * (2.0 + 2.0) / 2)
    assert seen["service.handle"] == 2


def test_counter_totals_keep_only_benchmark_ops():
    counts = {"btp.ltps": {"op-1": 3.0, "op-2": 2.0, None: 7.0, "warm-up": 1.0}}
    assert op_totals(counts, {"op-1", "op-2"}) == {"btp.ltps": 5.0}


# -- failed_ratio --------------------------------------------------------------
def test_failed_ratio_counts_each_op_once():
    tally = Tally()
    for _ in range(4):
        tally.attempt()
    tally.fail("op-1", "wrong answer")
    tally.fail("op-1", "byte mismatch")  # a second check failing the same op
    tally.fail("op-3", "HTTP 500")
    assert tally.failed == 2
    assert tally.failed_ratio == 0.5
    assert tally.reasons["op-1"] == "wrong answer"


def test_failed_ratio_of_nothing_attempted_is_zero():
    assert Tally().failed_ratio == 0.0


# -- host-speed normalisation ---------------------------------------------------
def test_speed_factor_is_the_median_probe_within_the_window():
    probes = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (2.0, 4 * REFERENCE_S), (9.0, 8 * REFERENCE_S)]
    # [1.2, 1.8] with a 2 s window: probes at 0, 1 and 2 -> median 2x.
    assert window_factor(probes, 1.2, 1.8) == pytest.approx(1 / 2)
    # One stalled probe among steady ones does not move the factor.
    steady = [(t / 4, REFERENCE_S) for t in range(20)] + [(5.0, 10 * REFERENCE_S)]
    assert window_factor(sorted(steady), 4.6, 4.9) == pytest.approx(1.0)


def test_speed_factor_always_takes_the_neighbouring_probes():
    probes = [(0.0, 2 * REFERENCE_S), (10.0, 4 * REFERENCE_S), (20.0, 8 * REFERENCE_S)]
    # No probe within the window: the two neighbours, median (mean) 3x.
    assert window_factor(probes, 4.0, 6.0) == pytest.approx(1 / 3)
    # Before the first or after the last probe: the one side there is.
    assert window_factor(probes[1:], 3.0, 4.0) == pytest.approx(1 / 4)
    assert window_factor(probes[:2], 14.0, 15.0) == pytest.approx(1 / 4)
    with pytest.raises(ValueError):
        window_factor([], 0.0, 1.0)


# -- BENCHMARK.json names the metrics the command prints ----------------------
def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(m["bound"] <= 0.25 and not math.isnan(m["bound"]) for m in spec["end_to_end"])
