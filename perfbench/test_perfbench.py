"""Tests for the benchmark's own helpers (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
from harness import (  # noqa: E402
    MIN_BEYOND,
    PROBE_REFERENCE,
    Bracket,
    Request,
    Span,
    Tracer,
    counter_drift,
    due_time_latencies,
    durable_latencies,
    percentile_summary,
    samples_beyond,
    self_times,
    steadiest,
    unattributed,
    union_length,
)


# --------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------- #
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    summary = percentile_summary(range(1, 1001))
    assert summary.count == 1000
    assert summary.tail_percent == 99.0
    assert summary.tail == 990
    assert samples_beyond(1000, 99.0) == MIN_BEYOND
    assert summary.p50 == 500


def test_tail_steps_down_the_ladder_as_samples_shrink():
    assert percentile_summary(range(999)).tail_percent == 98.0
    assert percentile_summary(range(200)).tail_percent == 95.0
    assert percentile_summary(range(100)).tail_percent == 90.0
    assert percentile_summary(range(40)).tail_percent == 75.0
    assert percentile_summary(range(20)).tail_percent == 50.0


def test_too_few_samples_repeat_the_median_and_say_so():
    summary = percentile_summary([5.0, 1.0, 3.0])
    assert not summary.resolved
    assert summary.tail == summary.p50 == 3.0
    assert summary.count == 3


def test_every_reported_tail_has_enough_samples_beyond():
    for count in range(20, 2001, 37):
        summary = percentile_summary(range(count))
        beyond = sum(1 for value in range(count) if value > summary.tail)
        assert beyond >= MIN_BEYOND, count


# --------------------------------------------------------------------- #
# Span self time
# --------------------------------------------------------------------- #
def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 2),  # overlaps a: counted once
        Span("c", 9.0, 12.0, 0, 3),  # clipped to the parent's end
        Span("a.inner", 1.5, 2.0, 1, 4),
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - 5.0 - 1.0
    assert own[1] == 3.0 - 0.5
    assert own[4] == 0.5
    assert unattributed(spans, 0) == own[0]


def test_tracer_nests_spans_by_context():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("run") as root:
        with tracer.span("apply"):
            pass
        with tracer.span("apply"):
            pass
    assert [s.parent for s in tracer.spans] == [None, root.ident, root.ident]
    assert tracer.count("apply") == 2
    assert tracer.total("apply") == 2.0
    assert unattributed(tracer.spans, root.ident) == root.duration - 2.0


# --------------------------------------------------------------------- #
# Due-time accounting
# --------------------------------------------------------------------- #
def test_latency_counts_from_due_time_not_send_time():
    # The generator stalled: the second request went out 40 ms late.
    requests = [
        Request("ingest", due=0.000, sent=0.000, replied=0.002),
        Request("ingest", due=0.010, sent=0.050, replied=0.052),
    ]
    latency, lateness = due_time_latencies(requests)
    assert [round(x, 6) for x in latency] == [0.002, 0.042]
    assert [round(x, 6) for x in lateness] == [0.0, 0.04]


def test_durable_latency_waits_for_the_covering_reply():
    requests = [
        Request("ingest", due=0.0, replied=0.001, last_op=16, durable=0),
        Request("ingest", due=0.1, replied=0.101, last_op=32, durable=0),
        Request("ingest", due=0.2, replied=0.201, last_op=48, durable=32),
        Request("ingest", due=0.3, replied=0.301, last_op=64, durable=32),
    ]
    latencies = durable_latencies(requests)
    # ops 1..32 became durable with the third reply; ops 33..64 never did.
    assert [round(x, 6) for x in latencies] == [0.201, 0.101]


def test_failed_replies_never_count_as_durable():
    requests = [
        Request("ingest", due=0.0, replied=0.001, last_op=16, durable=16, ok=False),
        Request("ingest", due=0.1, replied=0.101, last_op=32, durable=32),
    ]
    assert [round(x, 6) for x in durable_latencies(requests)] == [0.101, 0.001]


# --------------------------------------------------------------------- #
# Host-noise handling
# --------------------------------------------------------------------- #
def test_bracket_scales_to_reference_seconds_and_measures_drift():
    steady = Bracket(PROBE_REFERENCE / 2, PROBE_REFERENCE / 2)
    assert steady.scale == 2.0  # a CPU twice as fast as the reference
    assert steady.drift == 0.0
    assert abs(Bracket(0.004, 0.005).drift - 0.25) < 1e-9


def test_steadiest_keeps_the_least_drifting_segments_in_run_order():
    brackets = [Bracket(1.0, 1.5), Bracket(1.0, 1.0), Bracket(1.0, 1.1), Bracket(2.0, 2.0)]
    kept = steadiest(["a", "b", "c", "d"], brackets, 3)
    assert [segment for segment, _ in kept] == ["b", "c", "d"]


# --------------------------------------------------------------------- #
# Counter drift
# --------------------------------------------------------------------- #
def test_counter_drift_reports_changed_added_and_removed():
    before = {"core.updates": 100, "core.swaps_1": 7, "tenant.batches": 3}
    after = {"core.updates": 100, "core.swaps_1": 8, "core.swaps_2": 1}
    assert counter_drift(before, after) == [
        ("core.swaps_1", 7, 8),
        ("core.swaps_2", None, 1),
        ("tenant.batches", 3, None),
    ]
    assert counter_drift(before, dict(before)) == []


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #
def test_layer_mapping_covers_every_per_layer_metric():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in manifest["per_layer"]]
    end_to_end = [m["name"] for m in manifest["end_to_end"]]
    assert sorted(per_layer) == sorted(catalog.PER_LAYER)
    assert sorted(end_to_end) == sorted(catalog.END_TO_END_MEANING)
    assert len(set(per_layer + end_to_end)) == len(per_layer + end_to_end)
