"""Update-stream generators.

The paper's evaluation protocol "randomly inserts/removes a predetermined
number of vertices/edges to simulate the update operations".  The generators
in this module produce *valid* update sequences: each operation is legal on
the graph obtained by applying all previous operations (they simulate the
stream on a scratch copy of the input graph while generating it).

The main entry points are:

* :func:`random_edge_stream` — random edge insertions/deletions,
* :func:`random_vertex_stream` — random vertex insertions/deletions,
* :func:`mixed_update_stream` — the paper's default workload (a mix of all
  four operation kinds),
* :func:`sliding_window_stream` — an insertion-then-expiry pattern typical of
  streaming applications (with an optional *flicker* fraction of edges that
  retract almost immediately),
* :func:`burst_stream` — bursts of insertions around hub vertices, modelling
  the "hot topic" scenario the introduction motivates,
* :func:`bursty_churn_stream` — hub bursts where most of the burst is
  retracted within the same window, the workload the batched update engine's
  stream coalescing is built for (inverse pairs inside one batch cancel),
* :func:`flash_crowd_stream` — bursts of *transient vertices* that arrive,
  interact and leave within one window; the heaviest coalescing win, since a
  cancelled vertex insertion/deletion pair also cancels all its incident
  edges and the maximality repair both would have triggered.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.exceptions import UpdateError
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation, apply_update
from repro.updates.protocol import OperationStream


class UpdateStream(OperationStream):
    """A materialised sequence of update operations plus provenance metadata.

    The list-backed :class:`~repro.updates.protocol.OperationStream`: sized,
    indexable and replayable; ``seed`` records the generator's seed.
    """

    def __init__(
        self,
        operations: List[UpdateOperation],
        description: str = "",
        seed: Optional[int] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        super().__init__(description=description, metadata=metadata)
        self.operations = operations
        self.seed = seed

    def __iter__(self) -> Iterator[UpdateOperation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __getitem__(self, index):
        return self.operations[index]

    def length_hint(self) -> int:
        return len(self.operations)

    def prefix(self, length: int) -> "UpdateStream":
        """Return a stream containing only the first ``length`` operations."""
        return UpdateStream(
            operations=self.operations[:length],
            description=f"{self.description}[:{length}]",
            seed=self.seed,
            metadata=self._metadata,
        )


class _StreamBuilder:
    """Shared machinery: simulate operations on a scratch graph while emitting them."""

    def __init__(self, graph: DynamicGraph, seed: Optional[int]) -> None:
        self.scratch = graph.copy()
        self.rng = random.Random(seed)
        self.operations: List[UpdateOperation] = []
        self._vertex_pool: List = list(self.scratch.vertices())
        self._edge_pool: List = list(self.scratch.edges())
        self._next_vertex_id = self._compute_next_id()

    def _compute_next_id(self) -> int:
        numeric = [v for v in self.scratch.vertices() if isinstance(v, int)]
        return (max(numeric) + 1) if numeric else 0

    # -------------------------------------------------------------- #
    def _emit(self, operation: UpdateOperation) -> None:
        apply_update(self.scratch, operation)
        self.operations.append(operation)

    def insert_random_edge(self, *, max_attempts: int = 200) -> bool:
        """Insert an edge between two random, currently non-adjacent vertices."""
        vertices = self._vertex_pool
        if len(vertices) < 2:
            return False
        for _ in range(max_attempts):
            u = self.rng.choice(vertices)
            v = self.rng.choice(vertices)
            if u == v:
                continue
            if not self.scratch.has_vertex(u) or not self.scratch.has_vertex(v):
                continue
            if self.scratch.has_edge(u, v):
                continue
            self._emit(UpdateOperation.insert_edge(u, v))
            self._edge_pool.append((u, v))
            return True
        return False

    def delete_random_edge(self, *, max_attempts: int = 200) -> bool:
        """Delete a uniformly random existing edge."""
        for _ in range(max_attempts):
            if not self._edge_pool:
                return False
            index = self.rng.randrange(len(self._edge_pool))
            u, v = self._edge_pool[index]
            # Swap-remove for O(1) deletion from the pool.
            self._edge_pool[index] = self._edge_pool[-1]
            self._edge_pool.pop()
            if self.scratch.has_edge(u, v):
                self._emit(UpdateOperation.delete_edge(u, v))
                return True
        return False

    def insert_random_vertex(self, *, max_neighbors: int = 5) -> bool:
        """Insert a fresh vertex wired to a few random existing vertices."""
        new_vertex = self._next_vertex_id
        self._next_vertex_id += 1
        existing = [v for v in self._vertex_pool if self.scratch.has_vertex(v)]
        degree = self.rng.randint(0, min(max_neighbors, len(existing)))
        neighbors = self.rng.sample(existing, degree) if degree else []
        self._emit(UpdateOperation.insert_vertex(new_vertex, neighbors))
        self._vertex_pool.append(new_vertex)
        for nbr in neighbors:
            self._edge_pool.append((new_vertex, nbr))
        return True

    def delete_random_vertex(self, *, max_attempts: int = 200) -> bool:
        """Delete a uniformly random existing vertex."""
        for _ in range(max_attempts):
            if not self._vertex_pool:
                return False
            index = self.rng.randrange(len(self._vertex_pool))
            vertex = self._vertex_pool[index]
            self._vertex_pool[index] = self._vertex_pool[-1]
            self._vertex_pool.pop()
            if self.scratch.has_vertex(vertex):
                self._emit(UpdateOperation.delete_vertex(vertex))
                return True
        return False


def random_edge_stream(
    graph: DynamicGraph,
    num_updates: int,
    *,
    insert_ratio: float = 0.5,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Generate ``num_updates`` random edge insertions/deletions.

    ``insert_ratio`` is the probability that any given operation is an
    insertion; the remainder are deletions of random existing edges.
    """
    if not 0.0 <= insert_ratio <= 1.0:
        raise UpdateError("insert_ratio must lie in [0, 1]")
    builder = _StreamBuilder(graph, seed)
    produced = 0
    guard = 0
    while produced < num_updates and guard < 20 * num_updates + 100:
        guard += 1
        if builder.rng.random() < insert_ratio:
            ok = builder.insert_random_edge()
        else:
            ok = builder.delete_random_edge() or builder.insert_random_edge()
        if ok:
            produced += 1
    return UpdateStream(
        operations=builder.operations,
        description=f"random_edge_stream(n={num_updates}, insert_ratio={insert_ratio})",
        seed=seed,
        metadata={"insert_ratio": insert_ratio},
    )


def random_vertex_stream(
    graph: DynamicGraph,
    num_updates: int,
    *,
    insert_ratio: float = 0.5,
    max_neighbors: int = 5,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Generate ``num_updates`` random vertex insertions/deletions."""
    if not 0.0 <= insert_ratio <= 1.0:
        raise UpdateError("insert_ratio must lie in [0, 1]")
    builder = _StreamBuilder(graph, seed)
    produced = 0
    guard = 0
    while produced < num_updates and guard < 20 * num_updates + 100:
        guard += 1
        if builder.rng.random() < insert_ratio:
            ok = builder.insert_random_vertex(max_neighbors=max_neighbors)
        else:
            ok = builder.delete_random_vertex() or builder.insert_random_vertex(
                max_neighbors=max_neighbors
            )
        if ok:
            produced += 1
    return UpdateStream(
        operations=builder.operations,
        description=f"random_vertex_stream(n={num_updates}, insert_ratio={insert_ratio})",
        seed=seed,
        metadata={"insert_ratio": insert_ratio, "max_neighbors": max_neighbors},
    )


def mixed_update_stream(
    graph: DynamicGraph,
    num_updates: int,
    *,
    edge_fraction: float = 0.8,
    insert_ratio: float = 0.5,
    max_neighbors: int = 5,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Generate the paper's default workload: a random mix of all four update kinds.

    ``edge_fraction`` of the operations are edge updates; the rest are vertex
    updates.  Within each class, ``insert_ratio`` of the operations are
    insertions.
    """
    if not 0.0 <= edge_fraction <= 1.0:
        raise UpdateError("edge_fraction must lie in [0, 1]")
    builder = _StreamBuilder(graph, seed)
    produced = 0
    guard = 0
    while produced < num_updates and guard < 20 * num_updates + 100:
        guard += 1
        use_edge = builder.rng.random() < edge_fraction
        use_insert = builder.rng.random() < insert_ratio
        if use_edge and use_insert:
            ok = builder.insert_random_edge()
        elif use_edge:
            ok = builder.delete_random_edge() or builder.insert_random_edge()
        elif use_insert:
            ok = builder.insert_random_vertex(max_neighbors=max_neighbors)
        else:
            ok = builder.delete_random_vertex() or builder.insert_random_vertex(
                max_neighbors=max_neighbors
            )
        if ok:
            produced += 1
    return UpdateStream(
        operations=builder.operations,
        description=(
            f"mixed_update_stream(n={num_updates}, edge_fraction={edge_fraction}, "
            f"insert_ratio={insert_ratio})"
        ),
        seed=seed,
        metadata={"edge_fraction": edge_fraction, "insert_ratio": insert_ratio},
    )


def sliding_window_stream(
    graph: DynamicGraph,
    num_updates: int,
    *,
    window: int = 100,
    flicker: float = 0.0,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Generate an insertion stream where edges expire after ``window`` further updates.

    Models streaming workloads (interaction graphs, temporal networks) where
    only the most recent interactions are kept.  With ``flicker > 0``, that
    fraction of inserted edges is retracted on the very next operation
    instead of waiting for expiry — the short-lived interactions real
    streams are full of.  Flickered pairs are adjacent inverse operations,
    so batch coalescing (:mod:`repro.updates.coalesce`) cancels them
    whenever both ends fall inside one batch.
    """
    if not 0.0 <= flicker <= 1.0:
        raise UpdateError("flicker must lie in [0, 1]")
    builder = _StreamBuilder(graph, seed)
    live: List = []
    produced = 0
    guard = 0
    while produced < num_updates and guard < 20 * num_updates + 100:
        guard += 1
        if len(live) >= window:
            u, v = live.pop(0)
            if builder.scratch.has_edge(u, v):
                builder._emit(UpdateOperation.delete_edge(u, v))
                produced += 1
                continue
        before = len(builder.operations)
        if builder.insert_random_edge():
            op = builder.operations[before]
            produced += 1
            if produced < num_updates and builder.rng.random() < flicker:
                builder._emit(UpdateOperation.delete_edge(*op.edge))
                produced += 1
            else:
                live.append(op.edge)
    return UpdateStream(
        operations=builder.operations,
        description=(
            f"sliding_window_stream(n={num_updates}, window={window}, "
            f"flicker={flicker})"
        ),
        seed=seed,
        metadata={"window": window, "flicker": flicker},
    )


def burst_stream(
    graph: DynamicGraph,
    num_updates: int,
    *,
    burst_size: int = 20,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Generate bursts of edge insertions centred on random hub vertices.

    This is the "hot topic" scenario from the paper's introduction: a vertex
    suddenly acquires many new neighbours (a topic going viral), followed by a
    quieter period where random edges are removed again.
    """
    builder = _StreamBuilder(graph, seed)
    vertices = [v for v in builder.scratch.vertices()]
    produced = 0
    guard = 0
    while produced < num_updates and vertices and guard < 20 * num_updates + 100:
        guard += 1
        hub = builder.rng.choice(vertices)
        if not builder.scratch.has_vertex(hub):
            continue
        burst = min(burst_size, num_updates - produced)
        for _ in range(burst):
            target = builder.rng.choice(vertices)
            if (
                target != hub
                and builder.scratch.has_vertex(target)
                and builder.scratch.has_vertex(hub)
                and not builder.scratch.has_edge(hub, target)
            ):
                builder._emit(UpdateOperation.insert_edge(hub, target))
                produced += 1
        # Cool-down: remove a few random edges.
        for _ in range(max(1, burst // 4)):
            if produced >= num_updates:
                break
            if builder.delete_random_edge():
                produced += 1
    return UpdateStream(
        operations=builder.operations,
        description=f"burst_stream(n={num_updates}, burst_size={burst_size})",
        seed=seed,
        metadata={"burst_size": burst_size},
    )


def bursty_churn_stream(
    graph: DynamicGraph,
    num_updates: int,
    *,
    burst_size: int = 32,
    churn: float = 0.75,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Generate hub bursts where most of each burst is retracted immediately.

    The "hot topic" pattern of the paper's introduction taken to its bursty
    extreme: a hub acquires ``burst_size`` new neighbours at once, and a
    ``churn`` fraction of exactly those edges is deleted again within the
    same burst window (the topic cools as fast as it flared).  Every
    retracted edge forms an insert/delete inverse pair a few positions
    apart, so a batched consumer cancels them outright: with
    ``batch_size >= burst_size * (1 + churn)`` the net effect of a burst is
    only its surviving ``1 - churn`` fraction.
    """
    if not 0.0 <= churn <= 1.0:
        raise UpdateError("churn must lie in [0, 1]")
    if burst_size < 1:
        raise UpdateError("burst_size must be at least 1")
    builder = _StreamBuilder(graph, seed)
    vertices = list(builder.scratch.vertices())
    produced = 0
    guard = 0
    while produced < num_updates and vertices and guard < 20 * num_updates + 100:
        guard += 1
        hub = builder.rng.choice(vertices)
        if not builder.scratch.has_vertex(hub):
            continue
        inserted: List = []
        for _ in range(min(burst_size, num_updates - produced)):
            target = builder.rng.choice(vertices)
            if (
                target != hub
                and builder.scratch.has_vertex(target)
                and not builder.scratch.has_edge(hub, target)
            ):
                builder._emit(UpdateOperation.insert_edge(hub, target))
                inserted.append(target)
                produced += 1
        # Retraction wave: the most recent interactions vanish first.
        retract = int(len(inserted) * churn)
        for target in reversed(inserted[len(inserted) - retract :]):
            if produced >= num_updates:
                break
            if builder.scratch.has_edge(hub, target):
                builder._emit(UpdateOperation.delete_edge(hub, target))
                produced += 1
    return UpdateStream(
        operations=builder.operations,
        description=(
            f"bursty_churn_stream(n={num_updates}, burst_size={burst_size}, "
            f"churn={churn})"
        ),
        seed=seed,
        metadata={"burst_size": burst_size, "churn": churn},
    )


def flash_crowd_stream(
    graph: DynamicGraph,
    num_updates: int,
    *,
    burst_size: int = 24,
    max_neighbors: int = 2,
    churn: float = 0.9,
    seed: Optional[int] = None,
) -> UpdateStream:
    """Generate bursts of transient vertices: arrive, interact, mostly leave.

    The bursty workload of the batched update engine: each burst inserts
    ``burst_size`` fresh vertices wired to up to ``max_neighbors`` random
    existing vertices, then deletes a ``churn`` fraction of exactly those
    vertices before the next burst (a flash crowd dispersing).  Because the
    arrivals carry few edges, many enter the maintained solution on arrival
    and force repair work on departure — expensive one-by-one, but an exact
    inverse pair under coalescing: with ``batch_size`` covering a burst and
    its retraction wave, the net effect is only the surviving fraction.
    """
    if not 0.0 <= churn <= 1.0:
        raise UpdateError("churn must lie in [0, 1]")
    if burst_size < 1:
        raise UpdateError("burst_size must be at least 1")
    builder = _StreamBuilder(graph, seed)
    produced = 0
    guard = 0
    while produced < num_updates and guard < 20 * num_updates + 100:
        guard += 1
        arrivals: List = []
        for _ in range(min(burst_size, num_updates - produced)):
            before = len(builder.operations)
            builder.insert_random_vertex(max_neighbors=max_neighbors)
            arrivals.append(builder.operations[before].vertex)
            produced += 1
        # Dispersal wave: the most recent arrivals leave first.  They sit at
        # the tail of the builder's vertex pool (nothing else appends during
        # a burst), so each one is popped off as it leaves — otherwise dead
        # labels accumulate and every later arrival's candidate scan grows
        # with the total number of past arrivals instead of the live graph.
        retract = int(len(arrivals) * churn)
        pool = builder._vertex_pool
        for vertex in reversed(arrivals[len(arrivals) - retract :]):
            if produced >= num_updates:
                break
            if builder.scratch.has_vertex(vertex):
                builder._emit(UpdateOperation.delete_vertex(vertex))
                if pool and pool[-1] == vertex:
                    pool.pop()
                produced += 1
    return UpdateStream(
        operations=builder.operations,
        description=(
            f"flash_crowd_stream(n={num_updates}, burst_size={burst_size}, "
            f"max_neighbors={max_neighbors}, churn={churn})"
        ),
        seed=seed,
        metadata={
            "burst_size": burst_size,
            "max_neighbors": max_neighbors,
            "churn": churn,
        },
    )
