"""Property-based equivalence of the eager and the lazy solution state.

The eager :class:`~repro.core.state.MISState` and the lazy
:class:`~repro.core.lazy.LazyMISState` expose the same interface and the
maintenance algorithms take every decision through it, in deterministic
(interned-insertion-index) order.  Consequently an algorithm instantiated on
either state must walk the *same* trajectory: after any valid update stream
the two runs hold identical solutions and identical per-vertex counts — also
when the candidate drain is deferred across batches via
``apply_stream(..., batch_size > 1)``.

These tests generate random graphs and mixed update streams (Hypothesis
driving the seeds of the library's own stream generator, so every stream is
valid by construction) and assert that equivalence, plus the solution-quality
invariants (maximality and the hierarchy bookkeeping) on both runs.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from slot_helpers import counts_by_label

from repro.core.framework import KSwapFramework
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_maximal_independent_set
from repro.generators.random_graphs import gnm_random_graph
from repro.updates.streams import mixed_update_stream


def _build_workload(graph_seed: int, stream_seed: int, n: int, m: int, updates: int):
    graph = gnm_random_graph(n, m, seed=graph_seed)
    stream = mixed_update_stream(graph, updates, seed=stream_seed, edge_fraction=0.7)
    return graph, stream


def _run(algorithm_class, graph, stream, *, lazy: bool, batch_size: int, **kwargs):
    algo = algorithm_class(graph.copy(), lazy=lazy, **kwargs)
    algo.apply_stream(stream, batch_size=batch_size)
    return algo


def _assert_equivalent(eager, lazy_algo):
    assert eager.solution() == lazy_algo.solution()
    eager_counts = counts_by_label(eager.state)
    lazy_counts = counts_by_label(lazy_algo.state)
    for v in eager.graph.vertices():
        assert eager_counts[v] == lazy_counts[v], f"count({v!r}) diverged"
    # Both bookkeeping variants must still satisfy their own invariants and
    # the maintained set must be maximal on the live graph.
    eager.state.check_invariants()
    lazy_algo.state.check_invariants()
    assert is_maximal_independent_set(eager.graph, eager.solution())


class TestEagerLazyEquivalence:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**20),
        stream_seed=st.integers(min_value=0, max_value=2**20),
        batch_size=st.sampled_from([1, 3, 7]),
    )
    def test_one_swap_equivalence(self, graph_seed, stream_seed, batch_size):
        graph, stream = _build_workload(graph_seed, stream_seed, n=24, m=40, updates=60)
        eager = _run(DyOneSwap, graph, stream, lazy=False, batch_size=batch_size)
        lazy = _run(DyOneSwap, graph, stream, lazy=True, batch_size=batch_size)
        _assert_equivalent(eager, lazy)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**20),
        stream_seed=st.integers(min_value=0, max_value=2**20),
        batch_size=st.sampled_from([1, 4]),
    )
    def test_two_swap_equivalence(self, graph_seed, stream_seed, batch_size):
        graph, stream = _build_workload(graph_seed, stream_seed, n=20, m=32, updates=50)
        eager = _run(DyTwoSwap, graph, stream, lazy=False, batch_size=batch_size)
        lazy = _run(DyTwoSwap, graph, stream, lazy=True, batch_size=batch_size)
        _assert_equivalent(eager, lazy)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**20),
        stream_seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_framework_k3_equivalence(self, graph_seed, stream_seed):
        graph, stream = _build_workload(graph_seed, stream_seed, n=16, m=24, updates=30)
        eager = _run(KSwapFramework, graph, stream, lazy=False, batch_size=1, k=3)
        lazy = _run(KSwapFramework, graph, stream, lazy=True, batch_size=1, k=3)
        _assert_equivalent(eager, lazy)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**20),
        stream_seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_equivalence_under_slot_recycling(self, graph_seed, stream_seed):
        """Vertex-heavy streams recycle graph slots; trajectories must not notice.

        With ``edge_fraction=0.25`` most operations delete/insert vertices,
        so newly inserted vertices constantly land in recycled slots of the
        dense-slot core (see ``tests/test_slot_reuse.py`` for the layer-level
        contract).
        """
        graph = gnm_random_graph(22, 36, seed=graph_seed)
        stream = mixed_update_stream(graph, 70, seed=stream_seed, edge_fraction=0.25)
        for algorithm_class in (DyOneSwap, DyTwoSwap):
            eager = _run(algorithm_class, graph, stream, lazy=False, batch_size=1)
            lazy = _run(algorithm_class, graph, stream, lazy=True, batch_size=1)
            _assert_equivalent(eager, lazy)


class TestBatchedStreamSemantics:
    """Batched application must preserve the solution-quality guarantees.

    A batched run may walk a different (equally valid) trajectory than the
    per-update run, but after every batch boundary the solution must be
    maximal and the bookkeeping consistent; at the end of the stream no
    candidate may be left pending.
    """

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**20),
        stream_seed=st.integers(min_value=0, max_value=2**20),
        batch_size=st.sampled_from([2, 5, 100]),
    )
    def test_batched_run_is_maximal_and_drained(self, graph_seed, stream_seed, batch_size):
        graph, stream = _build_workload(graph_seed, stream_seed, n=24, m=40, updates=60)
        for algorithm_class in (DyOneSwap, DyTwoSwap):
            algo = algorithm_class(graph.copy(), check_invariants=True)
            algo.apply_stream(stream, batch_size=batch_size)
            assert not algo.has_pending_candidates()
            assert is_maximal_independent_set(algo.graph, algo.solution())
            assert algo.stats.updates_processed == len(stream)
