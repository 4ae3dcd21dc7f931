"""Stream coalescing: reduce an update batch to its minimal net effect.

The paper's maintenance framework only requires the solution to be k-maximal
at *observation points*, which licenses treating a batch of updates as a
single compound change.  Consecutive operations frequently cancel outright
(an edge inserted and deleted inside the same window, a vertex that flickers
in and out) or repeat work on the same entity (an edge toggled several
times).  :func:`coalesce_batch` simulates a batch against the *current* graph
without mutating it and returns the minimal net effect, already grouped into
the four phases the bulk-apply path consumes.

Correctness contract (property-tested in ``tests/test_batch_engine.py``):

* applying the net effect to the graph yields a final graph *identical*
  (same labels, same adjacency) to applying the original batch in order;
* the net phases are valid in their emission order: edge deletions between
  surviving vertices, then vertex deletions (incident edges implicit), then
  vertex insertions carrying every incident edge whose other endpoint
  already exists, then the remaining edge insertions;
* when the net effect drives :meth:`DynamicMISBase.apply_batch`, the
  maintained solution is k-maximal at the batch boundary and size-equivalent
  with one-by-one application under :mod:`repro.core.verification` — both
  runs certify as k-maximal on the identical final graph (batched and
  unbatched repairs may pick different, equally valid, k-maximal solutions).

What coalescing does **not** preserve is the intermediate trajectory: a
vertex deleted and re-inserted inside one batch keeps its label but is never
structurally removed by the net sequence (its adjacency diff is emitted as
edge operations), so its interned insertion index differs from the churned
run's.

Performance: this function runs once per batch on the stream hot path, so it
is written as one flat pass with plain dicts — no helper objects, no
per-operation allocations beyond the touched-entity entries.

Validation matches per-operation semantics: every operation must be legal at
its position in the input sequence (duplicate insertions, deletions of
missing entities, edges referencing absent — including batch-deleted or
only-later-inserted — vertices all raise
:class:`~repro.exceptions.UpdateError`).  Because validation completes
during the simulation, a coalesced net effect can never fail mid-apply:
:meth:`DynamicMISBase.apply_batch` either rejects the batch before touching
any state or applies it completely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.exceptions import UpdateError
from repro.graphs.dynamic_graph import DynamicGraph, Vertex
from repro.resilience.faults import COALESCE, trip
from repro.updates.operations import UpdateKind, UpdateOperation


@dataclass
class CoalescedBatch:
    """The net effect of a batch, grouped into valid application phases."""

    #: Net edge deletions between vertices that survive the batch.
    edge_deletions: List[Tuple[Vertex, Vertex]]
    #: Net vertex deletions (their incident edges vanish implicitly).
    vertex_deletions: List[Vertex]
    #: Net vertex insertions with the incident new edges that can ride along.
    vertex_insertions: List[Tuple[Vertex, Tuple[Vertex, ...]]]
    #: Remaining net edge insertions (both endpoints exist by this phase).
    edge_insertions: List[Tuple[Vertex, Vertex]]
    #: Size of the input batch.
    num_input: int = 0

    @property
    def num_net_operations(self) -> int:
        """Number of operations the net effect consists of."""
        return (
            len(self.edge_deletions)
            + len(self.vertex_deletions)
            + len(self.vertex_insertions)
            + len(self.edge_insertions)
        )

    @property
    def num_coalesced(self) -> int:
        """Input operations cancelled or merged away."""
        return self.num_input - self.num_net_operations

    @property
    def operations(self) -> List[UpdateOperation]:
        """Materialise the net effect as a valid operation sequence.

        Built on demand (the bulk-apply hot path consumes the phase lists
        directly and never pays for these objects).
        """
        ops: List[UpdateOperation] = [
            UpdateOperation.delete_edge(u, v) for u, v in self.edge_deletions
        ]
        ops.extend(UpdateOperation.delete_vertex(v) for v in self.vertex_deletions)
        ops.extend(
            UpdateOperation.insert_vertex(v, neighbors)
            for v, neighbors in self.vertex_insertions
        )
        ops.extend(
            UpdateOperation.insert_edge(u, v) for u, v in self.edge_insertions
        )
        return ops

    def __len__(self) -> int:
        return self.num_net_operations

    def __iter__(self):
        return iter(self.operations)


def coalesce_batch(
    graph: DynamicGraph, operations: Iterable[UpdateOperation]
) -> CoalescedBatch:
    """Reduce ``operations`` to their net effect against ``graph``.

    ``graph`` must be the graph the batch is about to be applied to; it is
    only read, never mutated.  ``operations`` may be any iterable — it is
    consumed in one pass and never materialised, so the caller's batch
    window is the only resident copy.  Raises
    :class:`~repro.exceptions.UpdateError` on batch-internal contradictions
    (see the module docstring for the exact validation contract).
    """
    # The ``coalesce`` fault point fires before any work: the batch is not
    # yet validated and the graph is never mutated here, so an injected
    # crash leaves the engine exactly at the previous batch boundary.
    trip(COALESCE)
    # label -> [existed_before_batch, exists_now]
    v_state: Dict[Vertex, List[bool]] = {}
    # edge key -> [u, v, existed_before_batch, exists_now].  Invariant: a key
    # absent from e_state means neither endpoint was deleted inside the batch
    # (vertex deletion eagerly sweeps every incident edge in), hence the
    # edge's current presence equals its presence in the live graph.
    e_state: Dict[Hashable, list] = {}
    v_get = v_state.get
    e_get = e_state.get
    # Incidence index label -> touched-edge entries, each entry indexed
    # under both endpoints when it is created, so a vertex deletion finds
    # the batch's edges at it without scanning e_state.
    incident: Dict[Vertex, List[list]] = {}
    # Inlined graph probes: one pass over dense views, no method calls on
    # the per-operation path.  Edge keys are normalised endpoint pairs
    # (ordered tuples when the labels compare, a frozenset otherwise), built
    # inline at every site.
    slot_map = graph.slot_map_view()
    slot_get = slot_map.get
    adj = graph.adjacency_slots_view()
    labels = graph.labels_view()
    INSERT_EDGE = UpdateKind.INSERT_EDGE
    DELETE_EDGE = UpdateKind.DELETE_EDGE
    INSERT_VERTEX = UpdateKind.INSERT_VERTEX

    num_input = 0
    for op in operations:
        num_input += 1
        kind = op.kind
        if kind is INSERT_EDGE or kind is DELETE_EDGE:
            u, v = op.edge
            # Normalised key: an ordered tuple when the labels form a total
            # order, a frozenset otherwise (partially ordered labels such as
            # frozensets compare False both ways without raising).
            try:
                if u <= v:  # type: ignore[operator]
                    key = (u, v)
                elif v <= u:  # type: ignore[operator]
                    key = (v, u)
                else:
                    key = frozenset((u, v))
            except TypeError:
                key = frozenset((u, v))
            entry = e_get(key)
            if kind is INSERT_EDGE:
                # Both endpoints must be present *at this point of the
                # batch* — in the graph and not batch-deleted, or inserted
                # earlier in the batch.  This keeps batched validation
                # identical to per-operation semantics (an edge referencing
                # a vertex only inserted later is rejected, not reordered)
                # and guarantees a coalesced net effect can never fail
                # mid-apply: the operations the coalescer emits are fully
                # validated before any state is mutated.
                v_entry = v_get(u)
                if (
                    (not v_entry[1])
                    if v_entry is not None
                    else u not in slot_map
                ):
                    raise UpdateError(
                        f"batch inserts edge with missing endpoint {u!r}"
                    )
                v_entry = v_get(v)
                if (
                    (not v_entry[1])
                    if v_entry is not None
                    else v not in slot_map
                ):
                    raise UpdateError(
                        f"batch inserts edge with missing endpoint {v!r}"
                    )
                if entry is None:
                    su = slot_get(u)
                    if su is not None:
                        sv = slot_get(v)
                        if sv is not None and sv in adj[su]:
                            raise UpdateError(
                                f"batch inserts duplicate edge ({u!r}, {v!r})"
                            )
                    entry = e_state[key] = [u, v, False, True]
                    incident.setdefault(u, []).append(entry)
                    incident.setdefault(v, []).append(entry)
                elif entry[3]:
                    raise UpdateError(
                        f"batch inserts duplicate edge ({u!r}, {v!r})"
                    )
                else:
                    entry[3] = True
            else:
                if entry is None:
                    su = slot_get(u)
                    sv = slot_get(v) if su is not None else None
                    if sv is None or sv not in adj[su]:
                        raise UpdateError(
                            f"batch deletes missing edge ({u!r}, {v!r})"
                        )
                    entry = e_state[key] = [u, v, True, False]
                    incident.setdefault(u, []).append(entry)
                    incident.setdefault(v, []).append(entry)
                elif not entry[3]:
                    raise UpdateError(
                        f"batch deletes missing edge ({u!r}, {v!r})"
                    )
                else:
                    entry[3] = False
        elif kind is INSERT_VERTEX:
            label = op.vertex
            entry = v_get(label)
            if entry is None:
                if label in slot_map:
                    raise UpdateError(
                        f"batch inserts vertex {label!r} that is already present"
                    )
                v_state[label] = [False, True]
            elif entry[1]:
                raise UpdateError(
                    f"batch inserts vertex {label!r} that is already present"
                )
            else:
                entry[1] = True
            neighbors = op.neighbors
            if not neighbors:
                continue
            own_bucket = incident.get(label)
            if own_bucket is None:
                own_bucket = incident[label] = []
            for nbr in neighbors:
                if nbr == label:
                    raise UpdateError(f"batch inserts self loop on {label!r}")
                nbr_entry = v_get(nbr)
                if nbr_entry is None:
                    if nbr not in slot_map:
                        raise UpdateError(
                            f"batch inserts edge with missing endpoint {nbr!r}"
                        )
                elif not nbr_entry[1]:
                    raise UpdateError(
                        f"batch inserts edge with missing endpoint {nbr!r}"
                    )
                try:
                    if label <= nbr:  # type: ignore[operator]
                        key = (label, nbr)
                    elif nbr <= label:  # type: ignore[operator]
                        key = (nbr, label)
                    else:
                        key = frozenset((label, nbr))
                except TypeError:
                    key = frozenset((label, nbr))
                e_entry = e_get(key)
                if e_entry is None:
                    # label was absent a moment ago, so the edge cannot
                    # pre-exist unless label is churning — then the sweep of
                    # its deletion already created an entry.  A fresh entry
                    # therefore means "new edge".
                    e_entry = e_state[key] = [label, nbr, False, True]
                    own_bucket.append(e_entry)
                    nbr_bucket = incident.get(nbr)
                    if nbr_bucket is None:
                        incident[nbr] = [e_entry]
                    else:
                        nbr_bucket.append(e_entry)
                elif e_entry[3]:
                    raise UpdateError(
                        f"batch inserts duplicate edge ({label!r}, {nbr!r})"
                    )
                else:
                    e_entry[3] = True
        else:  # DELETE_VERTEX (any unknown kind falls through to UpdateError)
            if kind is not UpdateKind.DELETE_VERTEX:  # pragma: no cover
                raise UpdateError(f"unknown update kind {kind!r}")
            label = op.vertex
            slot = slot_get(label)
            entry = v_get(label)
            if entry is None:
                if slot is None:
                    raise UpdateError(f"batch deletes missing vertex {label!r}")
                v_state[label] = entry = [True, False]
            elif not entry[1]:
                raise UpdateError(f"batch deletes missing vertex {label!r}")
            else:
                entry[1] = False
            # Eagerly sweep every incident edge so the e_state invariant
            # holds.  Graph-side edges first (only deletions of graph
            # vertices can have untouched incident edges) …
            if slot is not None and adj[slot]:
                bucket = incident.get(label)
                if bucket is None:
                    bucket = incident[label] = []
                for t in adj[slot]:
                    other = labels[t]
                    try:
                        if label <= other:  # type: ignore[operator]
                            key = (label, other)
                        elif other <= label:  # type: ignore[operator]
                            key = (other, label)
                        else:
                            key = frozenset((label, other))
                    except TypeError:
                        key = frozenset((label, other))
                    e_entry = e_get(key)
                    if e_entry is None:
                        e_entry = e_state[key] = [label, other, True, False]
                        bucket.append(e_entry)
                        other_bucket = incident.get(other)
                        if other_bucket is None:
                            incident[other] = [e_entry]
                        else:
                            other_bucket.append(e_entry)
                    else:
                        e_entry[3] = False
            # … then every batch-touched incident edge, via the index.
            for e_entry in incident.get(label, ()):
                e_entry[3] = False

    # ------------------------------------------------------------------ #
    # Emission: four phases, each valid given the previous ones.
    # ------------------------------------------------------------------ #
    edge_deletions: List[Tuple[Vertex, Vertex]] = []
    new_edges: List[Tuple[Vertex, Vertex]] = []
    for u, v, before, now in e_state.values():
        if before:
            if not now:
                eu = v_get(u)
                ev = v_get(v)
                if (eu is None or eu[1]) and (ev is None or ev[1]):
                    edge_deletions.append((u, v))
        elif now:
            new_edges.append((u, v))

    vertex_deletions: List[Vertex] = []
    vertex_insertions: List[Tuple[Vertex, Tuple[Vertex, ...]]] = []
    edge_insertions: List[Tuple[Vertex, Vertex]]
    pending: Dict[Vertex, int] = {}
    for label, (before, now) in v_state.items():
        if before and not now:
            vertex_deletions.append(label)
        elif now and not before:
            pending[label] = len(pending)  # first-touch emission order
    if pending:
        # Attach each new edge with a brand-new endpoint to whichever of its
        # new endpoints is inserted later, so the other side always exists.
        edge_insertions = []
        attach: Dict[Vertex, List[Vertex]] = {}
        pending_get = pending.get
        for u, v in new_edges:
            pu = pending_get(u)
            pv = pending_get(v)
            if pu is None:
                if pv is None:
                    edge_insertions.append((u, v))
                else:
                    attach.setdefault(v, []).append(u)
            elif pv is None or pu >= pv:
                attach.setdefault(u, []).append(v)
            else:
                attach.setdefault(v, []).append(u)
        empty: Tuple[Vertex, ...] = ()
        for label in pending:
            nbrs = attach.get(label)
            vertex_insertions.append((label, tuple(nbrs) if nbrs else empty))
    else:
        edge_insertions = new_edges

    return CoalescedBatch(
        edge_deletions=edge_deletions,
        vertex_deletions=vertex_deletions,
        vertex_insertions=vertex_insertions,
        edge_insertions=edge_insertions,
        num_input=num_input,
    )
