"""Tests for the update-stream generators.

Every generator must produce a *valid* stream: applying the operations in
order to the originating graph must never raise.
"""

from __future__ import annotations

import pytest

from graph_helpers import erdos_renyi_graph

from repro.exceptions import UpdateError
from repro.updates.coalesce import coalesce_batch
from repro.updates.operations import UpdateKind
from repro.updates.streams import (
    burst_stream,
    flash_crowd_stream,
    mixed_update_stream,
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

    @pytest.mark.parametrize("insert_ratio", [-0.5, 1.5])
    def test_invalid_ratio_raises(self, base_graph, insert_ratio):
        with pytest.raises(UpdateError, match=r"insert_ratio must lie in \[0, 1\]"):
            mixed_update_stream(base_graph, 10, insert_ratio=insert_ratio)

    def test_edge_fraction_extremes(self, base_graph):
        edges = mixed_update_stream(base_graph, 100, edge_fraction=1.0, seed=2)
        assert not any(op.is_vertex_operation for op in edges)
        vertices = mixed_update_stream(base_graph, 80, edge_fraction=0.0, seed=6)
        assert all(op.is_vertex_operation for op in vertices)
        _assert_valid(base_graph, vertices)

    def test_insert_ratio_extremes(self, base_graph):
        inserts = mixed_update_stream(
            base_graph, 100, edge_fraction=1.0, insert_ratio=1.0, seed=3
        )
        assert all(op.kind is UpdateKind.INSERT_EDGE for op in inserts)
        deletes = mixed_update_stream(
            base_graph, 40, edge_fraction=1.0, insert_ratio=0.0, seed=3
        )
        kinds = deletes.counts_by_kind()
        assert kinds.get(UpdateKind.DELETE_EDGE, 0) > 0

    def test_new_vertices_get_fresh_ids(self, base_graph):
        stream = mixed_update_stream(
            base_graph, 60, edge_fraction=0.0, insert_ratio=1.0, seed=7
        )
        inserted = [op.vertex for op in stream if op.kind is UpdateKind.INSERT_VERTEX]
        assert len(inserted) == len(stream)
        assert len(inserted) == len(set(inserted))
        assert all(v not in base_graph for v in inserted)

    def test_deterministic_with_seed(self, base_graph):
        a = mixed_update_stream(base_graph, 50, seed=9)
        b = mixed_update_stream(base_graph, 50, seed=9)
        assert [str(op) for op in a] == [str(op) for op in b]

    def test_original_graph_untouched(self, base_graph):
        before = base_graph.copy()
        mixed_update_stream(base_graph, 100, seed=4)
        assert base_graph == before

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

    @pytest.mark.parametrize(
        "generate, message",
        [
            (lambda g: sliding_window_stream(g, 10, window=0, seed=1), "window"),
            (lambda g: burst_stream(g, 40, burst_size=0, seed=1), "burst_size"),
            (
                lambda g: mixed_update_stream(
                    g, 40, max_neighbors=-1, edge_fraction=0.0, seed=1
                ),
                "max_neighbors",
            ),
            (lambda g: flash_crowd_stream(g, 40, max_neighbors=-1, seed=1), "max_neighbors"),
        ],
        ids=["sliding-window", "burst", "mixed", "flash-crowd"],
    )
    def test_out_of_range_parameter_raises(self, base_graph, generate, message):
        with pytest.raises(UpdateError, match=f"{message} must be at least"):
            generate(base_graph)


class TestStreamContainer:
    def test_iteration_and_indexing(self, base_graph):
        stream = mixed_update_stream(base_graph, 25, seed=14)
        assert len(list(stream)) == 25
        assert stream[0] is stream.operations[0]

    def test_counts_by_kind_sums_to_length(self, base_graph):
        stream = mixed_update_stream(base_graph, 90, seed=15)
        assert sum(stream.counts_by_kind().values()) == len(stream)
