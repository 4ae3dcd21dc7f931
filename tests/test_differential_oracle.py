"""Differential-oracle fuzzing of the maintenance engine.

Hypothesis drives random operation streams over small graphs and checks every
engine configuration — DyOneSwap and DyTwoSwap, eager and lazy state,
unbatched and batched application — against two independent oracles:

* the **naive structural oracle**: applying the stream one operation at a
  time to a plain :class:`~repro.graphs.dynamic_graph.DynamicGraph` (no
  maintenance at all) gives the ground-truth final graph; every engine
  configuration must end *graph-identical* to it, with a solution that is
  k-maximal on that graph (checked by the brute-force swap searcher in
  :mod:`repro.core.verification`, a separate implementation from the
  incremental bookkeeping under test),
* the **exact solver oracle** (:mod:`repro.baselines.exact`): the maintained
  solution can never exceed the independence number, and — Theorem 2 — a
  1-maximal solution times ``Δ/2 + 1`` must cover it.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_independence_number
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_k_maximal_independent_set
from repro.experiments import apply_stream_to_graph
from repro.generators.random_graphs import gnm_random_graph
from repro.updates.streams import (
    flash_crowd_stream,
    mixed_update_stream,
    sliding_window_stream,
)

#: Every engine configuration the oracle cross-checks.
CONFIGURATIONS = [
    (algorithm_class, lazy, batch_size)
    for algorithm_class in (DyOneSwap, DyTwoSwap)
    for lazy in (False, True)
    for batch_size in (1, 48)
]


def _oracle_check(graph, stream, *, check_reference: bool = True):
    """Run every configuration over ``stream`` and compare against the oracles."""
    naive_graph = apply_stream_to_graph(graph, stream)
    solutions = {}
    for algorithm_class, lazy, batch_size in CONFIGURATIONS:
        algorithm = algorithm_class(graph.copy(), lazy=lazy)
        algorithm.apply_stream(stream, batch_size=batch_size)
        label = (algorithm_class.__name__, lazy, batch_size)
        # Graph-identical to naive one-by-one application.
        assert algorithm.graph == naive_graph, f"{label}: final graph diverged"
        solution = algorithm.solution()
        assert is_k_maximal_independent_set(
            naive_graph, solution, algorithm.k
        ), f"{label}: solution is not {algorithm.k}-maximal"
        solutions[label] = solution
    # Eager and lazy runs of the same algorithm walk the same trajectory.
    for (name, _lazy, batch_size), solution in solutions.items():
        assert solution == solutions[(name, False, batch_size)], (
            f"{name} lazy/eager divergence at batch_size={batch_size}"
        )
    if not check_reference:
        return
    alpha = exact_independence_number(naive_graph, node_budget=200_000)
    max_degree = naive_graph.max_degree()
    for label, solution in solutions.items():
        assert len(solution) <= alpha, f"{label}: solution beats the exact optimum"
        # Theorem 2: a 1-maximal set is a (Δ/2 + 1)-approximation.
        assert (max_degree / 2.0 + 1.0) * len(solution) >= alpha, (
            f"{label}: approximation guarantee violated"
        )


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph_seed=st.integers(0, 2**16),
    stream_seed=st.integers(0, 2**16),
    n=st.integers(6, 16),
    edge_factor=st.floats(0.8, 2.5),
    updates=st.integers(20, 90),
    edge_fraction=st.floats(0.4, 1.0),
)
def test_mixed_streams_match_oracles(
    graph_seed, stream_seed, n, edge_factor, updates, edge_fraction
):
    graph = gnm_random_graph(n, int(n * edge_factor), seed=graph_seed)
    stream = mixed_update_stream(
        graph, updates, seed=stream_seed, edge_fraction=edge_fraction
    )
    _oracle_check(graph, stream)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    stream_seed=st.integers(0, 2**16),
    churn=st.floats(0.5, 1.0),
)
def test_vertex_churn_streams_match_oracles(stream_seed, churn):
    """Flash crowds force slot recycling under every configuration."""
    graph = gnm_random_graph(10, 18, seed=23)
    stream = flash_crowd_stream(graph, 100, seed=stream_seed, churn=churn)
    _oracle_check(graph, stream)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    stream_seed=st.integers(0, 2**16),
    window=st.integers(5, 40),
    flicker=st.floats(0.0, 0.5),
)
def test_sliding_window_streams_match_oracles(stream_seed, window, flicker):
    """Expiry-style deletion patterns (the temporal-workload shape)."""
    graph = gnm_random_graph(12, 20, seed=29)
    stream = sliding_window_stream(
        graph, 90, window=window, flicker=flicker, seed=stream_seed
    )
    # Skip the exact-reference cross-check here: the structural and
    # maximality oracles are the interesting part for expiry patterns, and
    # the two stream families above already exercise the solver oracle.
    _oracle_check(graph, stream, check_reference=False)
