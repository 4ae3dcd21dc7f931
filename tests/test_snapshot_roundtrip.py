"""Snapshot/restore round-trip tests: bit-for-bit state capture and resume.

The contract under test (see :mod:`repro.workloads.snapshot`): restoring a
snapshot taken at an operation boundary and continuing the stream must be
*indistinguishable* from never having been interrupted — same solution, same
graph (bit-for-bit, including recycled slots and the free-list order), same
statistics.  Streams that churn vertices (flash crowds, mixed vertex ops)
are covered explicitly so slot recycling crosses the snapshot boundary.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.one_swap import DyOneSwap
from repro.core.framework import KSwapFramework
from repro.core.two_swap import DyTwoSwap
from repro.exceptions import GraphError, SnapshotError
from repro.experiments.runner import create_algorithm
from repro.generators.random_graphs import gnm_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.faults import SNAPSHOT_WRITE
from repro.resilience.integrity import write_document
from repro.updates.operations import UpdateOperation
from repro.updates.streams import flash_crowd_stream, mixed_update_stream
from repro.workloads.replay import load_checkpoint, save_checkpoint
from repro.workloads.snapshot import (
    algorithm_from_payload,
    algorithm_to_payload,
    graph_from_payload,
    graph_to_payload,
    load_snapshot,
    save_snapshot,
)


def _churned_graph() -> DynamicGraph:
    """A graph whose slot arrays contain recycled and free slots."""
    graph = gnm_random_graph(30, 60, seed=5)
    stream = flash_crowd_stream(graph, 120, seed=6)
    stream.apply_all(graph)
    return graph


class TestGraphPayload:
    def test_roundtrip_bit_for_bit_after_churn(self):
        graph = _churned_graph()
        payload = graph_to_payload(graph)
        restored = graph_from_payload(payload)
        assert graph_to_payload(restored) == payload
        assert restored == graph
        restored.check_consistency()
        # Slot identity: every label sits in the same slot with the same order.
        for v in graph.vertices():
            assert restored.slot_of(v) == graph.slot_of(v)
            assert restored.order_of(v) == graph.order_of(v)

    def test_future_allocations_recycle_identically(self):
        graph = _churned_graph()
        restored = graph_from_payload(graph_to_payload(graph))
        # Inserting after restore must pick the same recycled slots in the
        # same order as inserting into the original.
        for i in range(10):
            label = f"fresh-{i}"
            graph.add_vertex(label)
            restored.add_vertex(label)
            assert restored.slot_of(label) == graph.slot_of(label)
            assert restored.order_of(label) == graph.order_of(label)

    def test_string_labels_roundtrip(self):
        graph = DynamicGraph(edges=[("alice", "bob"), ("bob", "carol")])
        graph.remove_vertex("alice")
        graph.add_vertex("dave")
        restored = graph_from_payload(graph_to_payload(graph))
        assert graph_to_payload(restored) == graph_to_payload(graph)

    def test_unserialisable_label_rejected(self):
        graph = DynamicGraph(vertices=[(1, 2)])  # tuple label
        with pytest.raises(SnapshotError):
            graph_to_payload(graph)

    def test_wrong_format_rejected(self):
        with pytest.raises(SnapshotError):
            graph_from_payload({"format": "something-else/9"})

    def test_malformed_payload_rejected(self):
        payload = graph_to_payload(DynamicGraph(edges=[(0, 1)]))
        del payload["adjacency"]
        with pytest.raises(SnapshotError):
            graph_from_payload(payload)

    def test_inconsistent_payload_rejected(self):
        payload = graph_to_payload(DynamicGraph(edges=[(0, 1)]))
        payload["num_edges"] = 7
        with pytest.raises(SnapshotError):
            graph_from_payload(payload)

    def test_asymmetric_adjacency_rejected(self):
        payload = graph_to_payload(DynamicGraph(edges=[(0, 1), (1, 2)]))
        payload["adjacency"][0] = []  # 1 still lists 0, 0 no longer lists 1
        with pytest.raises(SnapshotError, match="asymmetric|edge counter"):
            graph_from_payload(payload)

    def test_type_corrupt_fields_rejected_as_snapshot_error(self):
        payload = graph_to_payload(DynamicGraph(edges=[(0, 1)]))
        payload["orders"] = [str(o) for o in payload["orders"]]
        with pytest.raises(SnapshotError):
            graph_from_payload(payload)
        payload2 = graph_to_payload(DynamicGraph(edges=[(0, 1)]))
        payload2["free"] = ["0"]
        with pytest.raises(SnapshotError):
            graph_from_payload(payload2)

    def test_unlabelled_live_slot_rejected(self):
        # A null label marks a free slot; a live slot carrying one would
        # restore a vertex that no later snapshot could write.
        payload = {
            "format": DynamicGraph.PAYLOAD_FORMAT,
            "labels": [None, 2, 3],
            "adjacency": [[], [], []],
            "orders": [0, 1, 2],
            "free": [],
            "live": [0, 1, 2],
            "num_edges": 0,
            "next_order": 3,
        }
        with pytest.raises(GraphError, match="live slot 0 has no label"):
            DynamicGraph.from_payload(payload)
        with pytest.raises(SnapshotError, match="live slot 0 has no label"):
            graph_from_payload(payload)

    def test_edge_to_free_slot_rejected(self):
        graph = DynamicGraph(edges=[(0, 1), (1, 2)])
        graph.remove_vertex(0)
        payload = graph_to_payload(graph)
        free_slot = payload["free"][0]
        payload["adjacency"][payload["live"][0]] = [free_slot]
        with pytest.raises(SnapshotError):
            graph_from_payload(payload)


def _through_json(payload):
    return json.loads(json.dumps(payload))


class TestFlatLabels:
    """``repro-graph/2``: labels are one flat list of JSON-native values."""

    def test_labels_are_stored_as_they_are_with_null_for_free_slots(self):
        graph = DynamicGraph(edges=[(0, "a"), ("a", True)])
        graph.remove_vertex(0)
        payload = graph_to_payload(graph)
        assert payload["format"] == "repro-graph/2"
        assert payload["labels"] == [None, "a", True]
        assert payload["free"] == [0]

    @pytest.mark.parametrize("one", [True, 1], ids=["bool", "int"])
    def test_int_str_and_bool_labels_keep_their_type(self, one):
        # True == 1, so a graph holds one of them; "1" is distinct from both.
        graph = DynamicGraph(edges=[(one, "1"), ("1", 2)])
        restored = graph_from_payload(_through_json(graph_to_payload(graph)))
        assert {(type(v), v) for v in restored.vertices()} == {
            (type(one), one), (str, "1"), (int, 2)
        }
        assert graph_to_payload(restored) == graph_to_payload(graph)

    # Tuple labels: TestGraphPayload.test_unserialisable_label_rejected.
    @pytest.mark.parametrize("label", [1.5, None], ids=["float", "none"])
    def test_non_json_native_label_refused_on_save(self, label, tmp_path):
        graph = DynamicGraph(edges=[(label, 0)])
        with pytest.raises(SnapshotError, match="only int, str and bool"):
            graph_to_payload(graph)
        path = tmp_path / "engine.snapshot.json"
        with pytest.raises(SnapshotError, match="only int, str and bool"):
            save_snapshot(DyOneSwap(graph), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "entry", [["i", 0], 0.0, {"i": 0}], ids=["list", "float", "dict"]
    )
    def test_non_json_native_label_entry_refused_on_restore(self, entry):
        payload = _through_json(graph_to_payload(DynamicGraph(edges=[(0, 1)])))
        payload["labels"][0] = entry
        with pytest.raises(SnapshotError, match="label entry"):
            graph_from_payload(payload)

    def test_repro_graph_1_payload_refused(self, tmp_path):
        payload = algorithm_to_payload(DyOneSwap(DynamicGraph(edges=[(0, 1)])))
        payload["graph"]["format"] = "repro-graph/1"
        payload["graph"]["labels"] = [["i", 0], ["i", 1]]
        with pytest.raises(SnapshotError, match="'repro-graph/1'.*'repro-graph/2'"):
            graph_from_payload(payload["graph"])
        # A digest-valid /1 snapshot file is refused as a snapshot, not as rot.
        path = tmp_path / "old.snapshot.json"
        with path.open("wb") as stream:
            write_document(stream, payload, fault_point=SNAPSHOT_WRITE)
        with pytest.raises(SnapshotError, match="repro-graph/1"):
            load_snapshot(path)


class TestAlgorithmPayload:
    @pytest.mark.parametrize("algorithm_class", [DyOneSwap, DyTwoSwap])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_roundtrip_preserves_state_and_stats(self, algorithm_class, lazy):
        graph = gnm_random_graph(40, 90, seed=1)
        stream = mixed_update_stream(graph, 200, seed=2, edge_fraction=0.6)
        algorithm = algorithm_class(graph.copy(), lazy=lazy)
        algorithm.apply_stream(stream)
        payload = algorithm_to_payload(algorithm)
        restored = algorithm_from_payload(payload)
        assert restored.solution() == algorithm.solution()
        assert restored.stats == algorithm.stats
        assert restored.state.stats == algorithm.state.stats
        assert graph_to_payload(restored.graph) == graph_to_payload(algorithm.graph)
        # The restored payload is itself identical: snapshotting is idempotent.
        assert algorithm_to_payload(restored) == payload

    def test_framework_instance_counters_roundtrip(self):
        from repro.core.framework import KSwapFramework

        graph = gnm_random_graph(25, 50, seed=6)
        algorithm = KSwapFramework(graph, k=2)
        algorithm.search_limit_hits = 7  # as if the bounded search gave up
        restored = algorithm_from_payload(algorithm_to_payload(algorithm))
        assert restored.search_limit_hits == 7

    def test_file_roundtrip(self, tmp_path):
        graph = gnm_random_graph(25, 50, seed=3)
        algorithm = DyOneSwap(graph)
        path = tmp_path / "run.snap.json"
        save_snapshot(algorithm, path)
        restored = load_snapshot(path)
        assert restored.solution() == algorithm.solution()

    def test_unsupported_algorithm_rejected(self):
        class NotAnAlgorithm:
            pass

        with pytest.raises(SnapshotError):
            algorithm_to_payload(NotAnAlgorithm())

    @pytest.mark.parametrize(
        "writer, options, reader, refusal",
        [
            (
                "DyOneSwap",
                {},
                DyTwoSwap,
                r"by DyOneSwap \(k=1\), but the factory builds DyTwoSwap \(k=2\)",
            ),
            (
                "KSwapFramework",
                {"k": 3},
                KSwapFramework,
                r"\(k=3\), but the factory builds KSwapFramework \(k=2\)",
            ),
        ],
        ids=["class", "k"],
    )
    def test_a_factory_building_another_engine_is_refused(
        self, writer, options, reader, refusal
    ):
        """The payload's solution is k-maximal for the engine that wrote it
        only; a restore into another class or another ``k`` would serve it
        unrepaired."""
        graph = gnm_random_graph(40, 80, seed=4)
        payload = algorithm_to_payload(create_algorithm(writer, graph, **options))

        def factory(restored_graph, solution, **snapshot_options):
            snapshot_options["k"] = 2
            return reader(restored_graph, initial_solution=solution, **snapshot_options)

        with pytest.raises(SnapshotError, match=refusal):
            algorithm_from_payload(payload, factory)

    def test_corrupt_solution_rejected(self):
        graph = gnm_random_graph(20, 40, seed=4)
        algorithm = DyOneSwap(graph)
        payload = algorithm_to_payload(algorithm)
        # Claim a slot adjacent to the solution is also in it: installation
        # must refuse (independence) and restore must flag the corruption.
        solution = set(payload["solution_slots"])
        adj = algorithm.graph.adjacency_slots_view()
        neighbour = next(
            t for s in solution for t in adj[s] if t not in solution
        )
        payload["solution_slots"] = sorted(solution | {neighbour})
        with pytest.raises(SnapshotError, match="names adjacent slots"):
            algorithm_from_payload(payload)


class TestContinuationEquivalence:
    """snapshot → restore → continue  ==  uninterrupted run."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph_seed=st.integers(0, 2**16),
        stream_seed=st.integers(0, 2**16),
        cut_fraction=st.floats(0.1, 0.9),
        lazy=st.booleans(),
        algorithm_class=st.sampled_from([DyOneSwap, DyTwoSwap]),
    )
    def test_mixed_stream_continuation(
        self, graph_seed, stream_seed, cut_fraction, lazy, algorithm_class
    ):
        graph = gnm_random_graph(24, 45, seed=graph_seed)
        stream = mixed_update_stream(
            graph, 120, seed=stream_seed, edge_fraction=0.6
        )
        cut = int(len(stream) * cut_fraction)

        uninterrupted = algorithm_class(graph.copy(), lazy=lazy)
        uninterrupted.apply_stream(stream)

        interrupted = algorithm_class(graph.copy(), lazy=lazy)
        interrupted.apply_stream(stream[:cut])
        resumed = algorithm_from_payload(algorithm_to_payload(interrupted))
        resumed.apply_stream(stream[cut:])

        assert resumed.solution() == uninterrupted.solution()
        assert resumed.stats == uninterrupted.stats
        assert resumed.state.stats == uninterrupted.state.stats
        assert graph_to_payload(resumed.graph) == graph_to_payload(
            uninterrupted.graph
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stream_seed=st.integers(0, 2**16),
        cut_fraction=st.floats(0.1, 0.9),
        batch_size=st.sampled_from([1, 40]),
    )
    def test_vertex_churn_continuation_covers_slot_recycling(
        self, stream_seed, cut_fraction, batch_size
    ):
        """Flash crowds churn vertices, so recycled slots cross the snapshot."""
        graph = gnm_random_graph(20, 35, seed=11)
        stream = flash_crowd_stream(graph, 160, seed=stream_seed, churn=0.9)
        # Align the cut with the batch grid so the interrupted run's batch
        # boundaries match the uninterrupted run's.
        cut = max(batch_size, (int(len(stream) * cut_fraction) // batch_size) * batch_size)

        uninterrupted = DyOneSwap(graph.copy())
        uninterrupted.apply_stream(stream, batch_size=batch_size)

        interrupted = DyOneSwap(graph.copy())
        interrupted.apply_stream(stream[:cut], batch_size=batch_size)
        resumed = algorithm_from_payload(algorithm_to_payload(interrupted))
        resumed.apply_stream(stream[cut:], batch_size=batch_size)

        assert resumed.solution() == uninterrupted.solution()
        assert resumed.stats == uninterrupted.stats
        assert graph_to_payload(resumed.graph) == graph_to_payload(
            uninterrupted.graph
        )


class TestForkPayload:
    """A fork snapshots like the engine it was taken from, and stays put."""

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_fork_payload_is_frozen_while_the_engine_runs(self, lazy):
        engine = DyOneSwap(_churned_graph(), lazy=lazy)
        fork = engine.fork()
        frozen = json.dumps(algorithm_to_payload(fork), sort_keys=True)
        assert frozen == json.dumps(algorithm_to_payload(engine), sort_keys=True)
        engine.apply_stream(mixed_update_stream(engine.graph.copy(), 60, seed=13))
        assert json.dumps(algorithm_to_payload(fork), sort_keys=True) == frozen
        restored = algorithm_from_payload(json.loads(frozen))
        assert restored.solution() == fork.solution()

    def test_restored_fork_continues_like_the_engine(self):
        engine = DyTwoSwap(_churned_graph())
        restored = algorithm_from_payload(algorithm_to_payload(engine.fork()))
        stream = mixed_update_stream(engine.graph.copy(), 80, seed=17)
        engine.apply_stream(stream, batch_size=8)
        restored.apply_stream(stream, batch_size=8)
        assert algorithm_to_payload(restored) == algorithm_to_payload(engine)

    @pytest.mark.parametrize("name, options", [
        ("DyOneSwap", {}), ("DyTwoSwap", {}), ("KSwapFramework", {"k": 3}),
    ])
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_checkpoint_of_a_diverged_fork_continues_like_it(
        self, tmp_path, name, options, lazy
    ):
        """Both sides of a fork write, vertex churn recycles slots, and the
        labels are of every kind a checkpoint holds (bools, big ints,
        strings with non-ASCII characters and escapes): the fork's
        checkpoint file restores an engine that continues exactly like it."""
        odd = 'ü"\\\n'
        labels = [True, "a", -5, False, odd, 10**20, 7, "b"]
        edges = [(True, "a"), ("a", -5), (-5, odd), (odd, 10**20), (10**20, True),
                 (False, 7), (7, "b"), ("b", False), ("a", 7)]
        engine = create_algorithm(name, DynamicGraph(labels, edges), lazy=lazy, **options)
        fork = engine.fork()
        fork.apply_batch([
            UpdateOperation.delete_vertex(odd),
            UpdateOperation.delete_vertex(True),
            UpdateOperation.insert_vertex("é\t", ["a", 10**20]),
            UpdateOperation.insert_vertex(10**21, [-5, "b"]),
            UpdateOperation.delete_edge("a", 7),
        ])
        engine.apply_batch([UpdateOperation.delete_edge("a", -5)])
        path = save_checkpoint(
            fork, tmp_path, algorithm_name=name, processed=5, initial_size=0
        )
        restored = load_checkpoint(path).restore()
        assert algorithm_to_payload(restored) == algorithm_to_payload(fork)
        more = [
            UpdateOperation.insert_vertex(odd, ["é\t", 7]),
            UpdateOperation.insert_edge(False, 10**21),
            UpdateOperation.delete_vertex("a"),
        ]
        for side in (fork, restored):
            side.apply_batch(list(more))
        assert algorithm_to_payload(restored) == algorithm_to_payload(fork)
