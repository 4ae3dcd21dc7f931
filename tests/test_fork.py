"""Copy-on-write engine forks (:meth:`DynamicMISBase.fork`).

The fork layer promises three things, each pinned here against an
independent oracle:

* **oracle equivalence** — a fork that diverges under further updates walks
  exactly the trajectory a full ``copy.deepcopy`` of the engine would walk
  (same graph, same solution, same statistics), under arbitrary
  slot-recycling churn (vertex deletes refill the free-list, later inserts
  recycle slots in LIFO order on both sides),
* **parent isolation** — after a fork diverges and is discarded, the parent
  is byte-identical (snapshot payload and service digest) to never having
  been forked at all,
* **chains** — forks of forks keep both properties; each hop shares
  structure with its parent and privatizes only what it touches.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.exceptions import SolutionInvariantError
from repro.experiments.runner import create_algorithm
from repro.generators.random_graphs import gnm_random_graph
from repro.graphs import dynamic_graph
from repro.updates.operations import UpdateOperation
from repro.updates.streams import mixed_update_stream
from repro.workloads.snapshot import algorithm_to_payload

CONFIGURATIONS = [
    (algorithm_class, lazy)
    for algorithm_class in (DyOneSwap, DyTwoSwap)
    for lazy in (False, True)
]


def _deepcopy_engine(algorithm):
    """A true deep copy of the engine — the oracle forks are compared against.

    The memo pre-seeds the graph's free-slot sentinel so ``deepcopy`` keeps
    its identity (the label table distinguishes free slots by ``is _FREE``;
    a cloned sentinel would make every free slot look occupied).
    """
    sentinel = dynamic_graph._FREE
    return copy.deepcopy(algorithm, {id(sentinel): sentinel})


def _payload_bytes(algorithm) -> bytes:
    """Canonical byte serialization of the engine's complete state."""
    return json.dumps(algorithm_to_payload(algorithm), sort_keys=True).encode()


def _build(algorithm_class, lazy, graph_seed, churn_seed, n=18, m=30, churn=80):
    """An engine warmed up with slot-recycling churn (deletes + re-inserts)."""
    graph = gnm_random_graph(n, m, seed=graph_seed)
    algorithm = algorithm_class(graph, lazy=lazy)
    # Vertex-heavy mix: deletions refill the free-list and later insertions
    # recycle slots, so the fork's shared spine covers recycled slots too.
    churn_stream = mixed_update_stream(
        algorithm.graph, churn, edge_fraction=0.5, seed=churn_seed
    )
    algorithm.apply_stream(churn_stream)
    return algorithm


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph_seed=st.integers(0, 2**16),
    churn_seed=st.integers(0, 2**16),
    diverge_seed=st.integers(0, 2**16),
    diverge=st.integers(10, 60),
    batch_size=st.sampled_from([1, 48]),
)
def test_fork_divergence_matches_deepcopy_oracle(
    graph_seed, churn_seed, diverge_seed, diverge, batch_size
):
    for algorithm_class, lazy in CONFIGURATIONS:
        parent = _build(algorithm_class, lazy, graph_seed, churn_seed)
        oracle = _deepcopy_engine(parent)
        fork = parent.fork()
        assert _payload_bytes(fork) == _payload_bytes(oracle)
        stream = mixed_update_stream(
            fork.graph.copy(), diverge, edge_fraction=0.5, seed=diverge_seed
        )
        fork.apply_stream(stream, batch_size=batch_size)
        oracle.apply_stream(stream, batch_size=batch_size)
        label = (algorithm_class.__name__, lazy, batch_size)
        assert _payload_bytes(fork) == _payload_bytes(oracle), (
            f"{label}: fork diverged from the deep-copy oracle"
        )
        fork.graph.check_consistency()
        fork._verify()


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph_seed=st.integers(0, 2**16),
    churn_seed=st.integers(0, 2**16),
    diverge_seed=st.integers(0, 2**16),
)
def test_parent_is_byte_identical_after_fork_diverges_and_dies(
    graph_seed, churn_seed, diverge_seed
):
    for algorithm_class, lazy in CONFIGURATIONS:
        parent = _build(algorithm_class, lazy, graph_seed, churn_seed)
        before = _payload_bytes(parent)
        fork = parent.fork()
        fork.apply_stream(
            mixed_update_stream(
                fork.graph.copy(), 50, edge_fraction=0.5, seed=diverge_seed
            )
        )
        del fork
        assert _payload_bytes(parent) == before, (
            f"{algorithm_class.__name__} lazy={lazy}: "
            "fork divergence leaked into the parent"
        )
        parent.graph.check_consistency()
        parent._verify()
        # The parent is still a fully functional engine afterwards.
        parent.apply_stream(
            mixed_update_stream(parent.graph.copy(), 20, seed=diverge_seed + 1)
        )
        parent._verify()


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph_seed=st.integers(0, 2**16),
    seeds=st.tuples(
        st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16)
    ),
)
def test_fork_of_fork_chains(graph_seed, seeds):
    for algorithm_class, lazy in CONFIGURATIONS:
        engine = _build(algorithm_class, lazy, graph_seed, seeds[0], churn=40)
        oracle = _deepcopy_engine(engine)
        generations = [engine]
        for depth, seed in enumerate(seeds):
            child = generations[-1].fork()
            child_oracle = _deepcopy_engine(oracle)
            stream = mixed_update_stream(
                child.graph.copy(), 25, edge_fraction=0.5, seed=seed
            )
            child.apply_stream(stream)
            child_oracle.apply_stream(stream)
            assert _payload_bytes(child) == _payload_bytes(child_oracle), (
                f"{algorithm_class.__name__} lazy={lazy}: "
                f"generation {depth + 1} diverged from its oracle"
            )
            generations.append(child)
            oracle = child_oracle
        # Every ancestor is still consistent after the whole chain mutated.
        for generation in generations:
            generation.graph.check_consistency()
            generation._verify()


class TestForkMechanics:
    def test_fork_shares_adjacency_until_first_write(self):
        graph = gnm_random_graph(12, 20, seed=3)
        parent = DyOneSwap(graph)
        fork = parent.fork()
        slots = list(parent.graph.slots())
        shared = [
            s for s in slots if parent.graph._adj[s] is fork.graph._adj[s]
        ]
        # Structural sharing is the whole point: before any write, every
        # adjacency set is shared, not copied.
        assert shared == slots
        fork.apply_update(UpdateOperation.insert_edge(0, 5))
        touched = fork.graph.slot_of(0)
        assert parent.graph._adj[touched] is not fork.graph._adj[touched]

    def test_fork_copies_statistics_snapshots(self):
        parent = _build(DyTwoSwap, False, 5, 7, churn=30)
        fork = parent.fork()
        fork.apply_stream(mixed_update_stream(fork.graph.copy(), 20, seed=11))
        assert fork.stats.updates_processed == parent.stats.updates_processed + 20
        # The parent's counters (and Counter identity) are untouched.
        assert fork.stats.swaps_performed is not parent.stats.swaps_performed

    def test_fork_mid_repair_is_rejected(self):
        parent = _build(DyOneSwap, False, 1, 2, churn=10)
        parent._candidates[1][0] = None  # simulate an undrained queue
        with pytest.raises(SolutionInvariantError, match="fork"):
            parent.fork()
        parent._candidates[1].clear()
        parent.fork()  # drained again: fork allowed

    def test_fork_preserves_instance_counters(self):
        from repro.core.framework import KSwapFramework

        graph = gnm_random_graph(14, 24, seed=21)
        parent = KSwapFramework(graph, k=2)
        parent.apply_stream(mixed_update_stream(parent.graph.copy(), 40, seed=22))
        fork = parent.fork()
        assert fork.search_limit_hits == parent.search_limit_hits
        assert _payload_bytes(fork) == _payload_bytes(parent)

    def test_fork_is_cheaper_than_deepcopy(self):
        """The advertised asymptotics, sanity-checked (full measurement in
        benchmarks/bench_fork_whatif.py): fork shares, deepcopy duplicates."""
        import time

        parent = _build(DyOneSwap, False, 3, 4, n=400, m=1600, churn=200)
        start = time.perf_counter()
        for _ in range(10):
            parent.fork()
        fork_time = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(10):
            _deepcopy_engine(parent)
        deep_time = time.perf_counter() - start
        assert fork_time < deep_time, (
            f"fork ({fork_time:.4f}s) not cheaper than deepcopy ({deep_time:.4f}s)"
        )


@pytest.mark.parametrize(
    "name", ["DyARW", "DyOneSwap+perturb", "DyTwoSwap+perturb", "KSwapFramework"]
)
def test_other_registered_engines_fork_like_a_deepcopy(name):
    """The snapshot-capable registry entries that CONFIGURATIONS leaves out."""
    graph = gnm_random_graph(20, 36, seed=17)
    parent = create_algorithm(name, graph)
    parent.apply_stream(
        mixed_update_stream(parent.graph.copy(), 60, edge_fraction=0.5, seed=18),
        batch_size=16,
    )
    before = _payload_bytes(parent)
    oracle = _deepcopy_engine(parent)
    fork = parent.fork()
    assert type(fork) is type(parent)
    stream = mixed_update_stream(fork.graph.copy(), 60, edge_fraction=0.5, seed=19)
    fork.apply_stream(stream)
    oracle.apply_stream(stream)
    assert _payload_bytes(fork) == _payload_bytes(oracle)
    assert _payload_bytes(parent) == before
    fork.graph.check_consistency()
    fork._verify()
