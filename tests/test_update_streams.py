"""Tests for the update-stream generators.

Every generator must produce a *valid* stream: applying the operations in
order to the originating graph must never raise.
"""

from __future__ import annotations

import pytest

from repro.exceptions import UpdateError
from repro.generators.random_graphs import erdos_renyi_graph
from repro.updates.coalesce import coalesce_batch
from repro.updates.operations import UpdateKind
from repro.updates.streams import (
    burst_stream,
    bursty_churn_stream,
    flash_crowd_stream,
    mixed_update_stream,
    random_edge_stream,
    random_vertex_stream,
    sliding_window_stream,
)


@pytest.fixture
def base_graph():
    return erdos_renyi_graph(50, 0.08, seed=21)


def _assert_valid(graph, stream):
    working = graph.copy()
    stream.apply_all(working)
    working.check_consistency()
    return working


class TestRandomEdgeStream:
    def test_length_and_validity(self, base_graph):
        stream = random_edge_stream(base_graph, 200, seed=1)
        assert len(stream) == 200
        _assert_valid(base_graph, stream)

    def test_only_edge_operations(self, base_graph):
        stream = random_edge_stream(base_graph, 100, seed=2)
        assert all(op.is_edge_operation for op in stream)

    def test_insert_ratio_extremes(self, base_graph):
        inserts = random_edge_stream(base_graph, 100, insert_ratio=1.0, seed=3)
        assert all(op.kind is UpdateKind.INSERT_EDGE for op in inserts)
        deletes = random_edge_stream(base_graph, 40, insert_ratio=0.0, seed=3)
        kinds = deletes.counts_by_kind()
        assert kinds.get(UpdateKind.DELETE_EDGE, 0) > 0

    def test_invalid_ratio_raises(self, base_graph):
        with pytest.raises(UpdateError):
            random_edge_stream(base_graph, 10, insert_ratio=2.0)

    def test_deterministic_with_seed(self, base_graph):
        a = random_edge_stream(base_graph, 50, seed=9)
        b = random_edge_stream(base_graph, 50, seed=9)
        assert [str(op) for op in a] == [str(op) for op in b]

    def test_original_graph_untouched(self, base_graph):
        before = base_graph.copy()
        random_edge_stream(base_graph, 100, seed=4)
        assert base_graph == before


class TestRandomVertexStream:
    def test_length_and_validity(self, base_graph):
        stream = random_vertex_stream(base_graph, 150, seed=5)
        assert len(stream) == 150
        _assert_valid(base_graph, stream)

    def test_only_vertex_operations(self, base_graph):
        stream = random_vertex_stream(base_graph, 80, seed=6)
        assert all(op.is_vertex_operation for op in stream)

    def test_new_vertices_get_fresh_ids(self, base_graph):
        stream = random_vertex_stream(base_graph, 60, insert_ratio=1.0, seed=7)
        inserted = [op.vertex for op in stream if op.kind is UpdateKind.INSERT_VERTEX]
        assert len(inserted) == len(set(inserted))
        assert all(v not in base_graph for v in inserted)


class TestMixedStream:
    def test_contains_both_classes(self, base_graph):
        stream = mixed_update_stream(base_graph, 300, edge_fraction=0.5, seed=8)
        kinds = stream.counts_by_kind()
        edge_ops = kinds.get(UpdateKind.INSERT_EDGE, 0) + kinds.get(UpdateKind.DELETE_EDGE, 0)
        vertex_ops = kinds.get(UpdateKind.INSERT_VERTEX, 0) + kinds.get(
            UpdateKind.DELETE_VERTEX, 0
        )
        assert edge_ops > 0
        assert vertex_ops > 0
        _assert_valid(base_graph, stream)

    def test_invalid_fraction_raises(self, base_graph):
        with pytest.raises(UpdateError):
            mixed_update_stream(base_graph, 10, edge_fraction=-0.1)

    def test_prefix(self, base_graph):
        stream = mixed_update_stream(base_graph, 100, seed=10)
        prefix = stream.prefix(30)
        assert len(prefix) == 30
        assert [str(op) for op in prefix] == [str(op) for op in stream[:30]]
        _assert_valid(base_graph, prefix)

    def test_metadata_recorded(self, base_graph):
        stream = mixed_update_stream(base_graph, 20, edge_fraction=0.6, insert_ratio=0.4, seed=1)
        assert stream.metadata["edge_fraction"] == 0.6
        assert stream.metadata["insert_ratio"] == 0.4
        assert "mixed_update_stream" in stream.description


class TestOtherWorkloads:
    def test_sliding_window_stream_valid(self, base_graph):
        stream = sliding_window_stream(base_graph, 150, window=30, seed=11)
        assert len(stream) == 150
        _assert_valid(base_graph, stream)

    def test_sliding_window_contains_deletions(self, base_graph):
        stream = sliding_window_stream(base_graph, 200, window=20, seed=12)
        kinds = stream.counts_by_kind()
        assert kinds.get(UpdateKind.DELETE_EDGE, 0) > 0

    def test_burst_stream_valid(self, base_graph):
        stream = burst_stream(base_graph, 120, burst_size=15, seed=13)
        assert len(stream) <= 120
        assert len(stream) > 0
        _assert_valid(base_graph, stream)

    def test_sliding_window_flicker_valid_and_coalescible(self, base_graph):
        stream = sliding_window_stream(
            base_graph, 200, window=30, flicker=0.5, seed=16
        )
        assert len(stream) == 200
        _assert_valid(base_graph, stream)
        # Flickered pairs are adjacent inverse operations, so the coalesced
        # net effect must be strictly smaller than the stream.
        net = coalesce_batch(base_graph, list(stream))
        assert net.num_coalesced > 0

    def test_sliding_window_invalid_flicker_raises(self, base_graph):
        with pytest.raises(UpdateError):
            sliding_window_stream(base_graph, 10, flicker=1.5, seed=16)

    def test_bursty_churn_stream_valid_and_coalescible(self, base_graph):
        stream = bursty_churn_stream(
            base_graph, 200, burst_size=20, churn=0.8, seed=17
        )
        assert len(stream) == 200
        assert all(op.is_edge_operation for op in stream)
        _assert_valid(base_graph, stream)
        net = coalesce_batch(base_graph, list(stream))
        # Most of every burst is retracted inside the stream, so the whole-
        # stream net effect is a small fraction of the operation count.
        assert net.num_coalesced >= len(stream) // 2

    def test_bursty_churn_invalid_parameters_raise(self, base_graph):
        with pytest.raises(UpdateError):
            bursty_churn_stream(base_graph, 10, churn=-0.1, seed=18)
        with pytest.raises(UpdateError):
            bursty_churn_stream(base_graph, 10, burst_size=0, seed=18)

    def test_flash_crowd_stream_valid_and_coalescible(self, base_graph):
        stream = flash_crowd_stream(
            base_graph, 200, burst_size=16, max_neighbors=2, churn=0.9, seed=19
        )
        assert len(stream) == 200
        _assert_valid(base_graph, stream)
        kinds = stream.counts_by_kind()
        assert kinds.get(UpdateKind.INSERT_VERTEX, 0) > 0
        assert kinds.get(UpdateKind.DELETE_VERTEX, 0) > 0
        net = coalesce_batch(base_graph, list(stream))
        assert net.num_coalesced >= len(stream) // 2

    def test_flash_crowd_invalid_churn_raises(self, base_graph):
        with pytest.raises(UpdateError):
            flash_crowd_stream(base_graph, 10, churn=2.0, seed=20)


class TestStreamContainer:
    def test_iteration_and_indexing(self, base_graph):
        stream = random_edge_stream(base_graph, 25, seed=14)
        assert len(list(stream)) == 25
        assert stream[0] is stream.operations[0]

    def test_counts_by_kind_sums_to_length(self, base_graph):
        stream = mixed_update_stream(base_graph, 90, seed=15)
        assert sum(stream.counts_by_kind().values()) == len(stream)
