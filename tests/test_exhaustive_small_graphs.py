"""Bounded-exhaustive k-maximality: every small graph, every update.

``fixtures/small_graphs.txt`` holds the 208 graphs with 1 to 6 vertices,
one per isomorphism class (written by ``fixtures/make_small_graphs.py``).
Five engines run on each: DyOneSwap (k = 1) and DyTwoSwap (k = 2), each
eager and lazy, and KSwapFramework at k = 3.  The passes:

* ``single-n1`` .. ``single-n6``: every single update of every graph with
  that many vertices, each on a fresh engine: each vertex pair toggled (the
  edge inserted, or deleted if present), each vertex deleted, and a new
  vertex inserted with every subset of the vertices as its neighbours;
* ``pairs-short`` and ``pairs-bulk``: every pair of such updates on the
  graphs with at most 4 vertices, the second drawn from the graph the first
  leaves, applied as one ``apply_batch`` of two.  ``pairs-bulk`` lowers
  ``BULK_APPLY_THRESHOLD`` to 1, so the pair takes the coalescing bulk path
  instead of per-operation dispatch.

After every update or batch the solution must be k-maximal, by the
brute-force checker of :mod:`repro.core.verification`, and a lazy engine
must hold the same solution as the eager engine given the same input.
"""

from __future__ import annotations

from itertools import combinations, permutations
from pathlib import Path

import pytest

from repro.core.base import DynamicMISBase
from repro.core.framework import KSwapFramework
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_k_maximal_independent_set
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation, apply_update

FIXTURE = Path(__file__).parent / "fixtures" / "small_graphs.txt"

#: Graphs on n unlabelled vertices (OEIS A000088), n = 1 .. 6.
CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}

#: Engine id -> (class, constructor options, k).
ENGINES = {
    "DyOneSwap": (DyOneSwap, {}, 1),
    "DyOneSwap+lazy": (DyOneSwap, {"lazy": True}, 1),
    "DyTwoSwap": (DyTwoSwap, {}, 2),
    "DyTwoSwap+lazy": (DyTwoSwap, {"lazy": True}, 2),
    "KSwapFramework-k3": (KSwapFramework, {"k": 3}, 3),
}

PASSES = [f"single-n{n}" for n in CLASSES] + ["pairs-short", "pairs-bulk"]

#: Largest graph whose pairs of updates are enumerated.
PAIR_MAX_VERTICES = 4


def _load():
    """``(vertex count, edges)`` of every graph in the fixture."""
    graphs = []
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        count, *pairs = line.split()
        edges = [tuple(int(end) for end in pair.split("-")) for pair in pairs]
        graphs.append((int(count), edges))
    return graphs


GRAPHS = _load()


def _updates(graph: DynamicGraph):
    """Every single update of ``graph``, whose vertices are integers."""
    vertices = sorted(graph.vertices())
    for u, v in combinations(vertices, 2):
        if graph.has_edge(u, v):
            yield UpdateOperation.delete_edge(u, v)
        else:
            yield UpdateOperation.insert_edge(u, v)
    for v in vertices:
        yield UpdateOperation.delete_vertex(v)
    new = max(vertices, default=-1) + 1
    for size in range(len(vertices) + 1):
        for neighbours in combinations(vertices, size):
            yield UpdateOperation.insert_vertex(new, neighbours)


def _cases(pass_name: str):
    """``(graph, batches)`` for every graph of the pass."""
    pairs = pass_name.startswith("pairs")
    size = None if pairs else int(pass_name[len("single-n"):])
    for count, edges in GRAPHS:
        if (count > PAIR_MAX_VERTICES) if pairs else (count != size):
            continue
        graph = DynamicGraph(vertices=range(count), edges=edges)
        if not pairs:
            yield graph, [[update] for update in _updates(graph)]
            continue
        batches = []
        for first in _updates(graph):
            after = graph.copy()
            apply_update(after, first)
            batches.extend([first, second] for second in _updates(after))
        yield graph, batches


def test_fixture_holds_every_isomorphism_class_once():
    """With the class counts right, no two graphs isomorphic means all are there."""
    counts = {n: sum(1 for count, _ in GRAPHS if count == n) for n in CLASSES}
    assert counts == CLASSES
    seen = set()
    for count, edges in GRAPHS:
        # The smallest edge bitmask over all relabellings names the class.
        bit = {}
        for i, (u, v) in enumerate(combinations(range(count), 2)):
            bit[u, v] = bit[v, u] = 1 << i
        canonical = min(
            sum(bit[p[u], p[v]] for u, v in edges) for p in permutations(range(count))
        )
        assert (count, canonical) not in seen
        seen.add((count, canonical))


@pytest.mark.parametrize("pass_name", PASSES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_update_leaves_a_k_maximal_solution(engine, pass_name, monkeypatch):
    cls, options, k = ENGINES[engine]
    if pass_name == "pairs-bulk":
        monkeypatch.setattr(DynamicMISBase, "BULK_APPLY_THRESHOLD", 1)
    checked = coalesced = 0
    for graph, batches in _cases(pass_name):
        # Each batch runs on a fork of one engine built on the graph.
        base = cls(graph.copy(), **options)
        eager = cls(graph.copy()) if options.get("lazy") else None
        for batch in batches:
            algorithm = _apply(base.fork(), batch)
            coalesced += algorithm.stats.operations_coalesced
            solution = algorithm.solution()
            assert is_k_maximal_independent_set(
                algorithm.graph, solution, k
            ), (engine, sorted(graph.edges()), batch)
            if eager is not None:
                assert solution == _apply(eager.fork(), batch).solution(), (
                    engine, sorted(graph.edges()), batch
                )
            checked += 1
    assert checked > 0
    # Only the bulk path coalesces, and some pairs cancel there.
    assert (coalesced > 0) == (pass_name == "pairs-bulk")


def _apply(algorithm, batch):
    """``algorithm`` after one update, or after ``batch`` as one batch."""
    if len(batch) == 1:
        algorithm.apply_update(batch[0])
    else:
        algorithm.apply_batch(batch)
    return algorithm
