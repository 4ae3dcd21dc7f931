"""Engine snapshot/restore: serialize a maintenance run and resume it bit-for-bit.

A long replay must be interruptible: this module captures the *complete*
engine state of a maintenance algorithm at an operation boundary and
restores it so that the resumed run walks exactly the trajectory the
uninterrupted run would have walked.

What makes that possible is a library-wide invariant: after every
:meth:`~repro.core.base.DynamicMISBase.apply_update` / ``apply_batch`` the
candidate queues are fully drained and the solution is k-maximal, so at an
operation boundary the engine state is exactly

* the slot-indexed :class:`~repro.graphs.dynamic_graph.DynamicGraph` —
  captured **bit-for-bit** including the label→slot assignment, the interned
  insertion orders, the free-list (with its LIFO order) and the
  label-insertion order of the slot map, so a restored run resolves every
  future operand to the same slot and recycles the same slots in the same
  order as the original,
* the solution membership (a set of slots) — everything else the slot
  state keeps (the counts of :class:`~repro.core.state.SlotState`, plus the
  ``I(v)`` sets and level hierarchy of the eager
  :class:`~repro.core.state.MISState`) is a pure function of graph +
  membership and is rebuilt on restore,
* the statistics counters of the algorithm and its state (so a resumed
  run's reported statistics are indistinguishable from an uninterrupted
  run's).

The on-disk format is versioned JSON (:data:`GRAPH_FORMAT` /
:data:`ALGORITHM_FORMAT`).  Vertex labels are stored untagged, as one flat
list of JSON-native values (``null`` for a free slot): JSON already keeps
``1``, ``"1"`` and ``true`` apart, so int, str and bool labels round-trip
exactly, and any other label type is refused on save.  Payloads of an older
format (``repro-graph/1`` tagged every label) are refused, not converted.
Payload mismatches raise :class:`~repro.exceptions.SnapshotError`.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.exceptions import GraphError, SnapshotError
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.durable import atomic_writer, makedirs
from repro.resilience.faults import SNAPSHOT_WRITE
from repro.resilience.integrity import Fragment, verify_document, write_document

PathLike = Union[str, Path]


GRAPH_FORMAT = DynamicGraph.PAYLOAD_FORMAT
ALGORITHM_FORMAT = "repro-algorithm/1"

#: Fields of AlgorithmStatistics captured verbatim (swaps_performed is a
#: Counter and handled separately).
_ALGORITHM_COUNTERS = (
    "updates_processed",
    "perturbations",
    "candidates_processed",
    "operations_coalesced",
    "batches_applied",
)
_STATE_COUNTERS = ("move_in_calls", "move_out_calls", "count_updates")
#: Instance-level counters some algorithms keep outside AlgorithmStatistics
#: (KSwapFramework's bounded-search give-up counter); captured when present.
_INSTANCE_COUNTERS = ("search_limit_hits",)


# --------------------------------------------------------------------- #
# Graph payloads
# --------------------------------------------------------------------- #
def graph_to_payload(graph: DynamicGraph) -> Dict:
    """Capture a graph bit-for-bit (slots, orders, free-list, insertion order).

    Two graphs with identical payloads are indistinguishable to every
    maintenance algorithm: same label→slot mapping (in the same insertion
    order), same adjacency, same interned orders, and the same free slots in
    the same LIFO order — so future insertions recycle identically.

    The representation-level work lives on
    :meth:`~repro.graphs.dynamic_graph.DynamicGraph.to_payload` so the
    payload contract evolves together with the graph's internals; this
    wrapper only owns the exception contract (a label that is not an int,
    str or bool raises :class:`SnapshotError`).
    """
    try:
        return graph.to_payload()
    except GraphError as exc:
        raise SnapshotError(str(exc)) from exc


def graph_to_document(graph: DynamicGraph) -> Dict:
    """:func:`graph_to_payload` for the writers, at the cost of what changed.

    The adjacency member is the graph's pre-encoded
    :meth:`~repro.graphs.dynamic_graph.DynamicGraph.adjacency_json` text,
    which re-sorts only the rows written since the previous encode, so
    :func:`~repro.resilience.integrity.canonical_bytes` of this document
    equals that of :func:`graph_to_payload` byte for byte.
    """
    try:
        return graph.payload_around(Fragment(graph.adjacency_json()))
    except GraphError as exc:
        raise SnapshotError(str(exc)) from exc


def graph_from_payload(payload: Dict) -> DynamicGraph:
    """Rebuild a graph from :func:`graph_to_payload` (bit-for-bit inverse).

    Raises :class:`SnapshotError` on version mismatches, malformed
    documents, and structurally inconsistent ones (validation is
    raise-based — corrupt data must never silently poison a resumed run).
    """
    try:
        return DynamicGraph.from_payload(payload)
    except GraphError as exc:
        raise SnapshotError(str(exc)) from exc


# --------------------------------------------------------------------- #
# Algorithm payloads
# --------------------------------------------------------------------- #
def algorithm_to_payload(algorithm) -> Dict:
    """Capture a maintenance algorithm at an operation boundary.

    ``algorithm`` must be a :class:`~repro.core.base.DynamicMISBase`
    subclass instance with no pending candidates (which is always the case
    between :meth:`apply_update` / ``apply_batch`` calls — mid-batch
    snapshots are rejected because the drained-queue invariant is what makes
    the solution + graph a complete trajectory state).
    """
    return _capture(algorithm, graph_to_payload)


def algorithm_to_document(algorithm) -> Dict:
    """:func:`algorithm_to_payload` for the writers (see :func:`graph_to_document`).

    :func:`save_snapshot` and
    :func:`~repro.workloads.replay.save_checkpoint` write this document; its
    canonical bytes equal those of :func:`algorithm_to_payload`, which stays
    the reference that restores, tests and digests compare against.
    """
    return _capture(algorithm, graph_to_document)


def _capture(algorithm, graph_payload: Callable[[DynamicGraph], Dict]) -> Dict:
    required = ("has_pending_candidates", "state", "stats", "graph")
    for attribute in required:
        if not hasattr(algorithm, attribute):
            raise SnapshotError(
                f"{type(algorithm).__name__} does not expose {attribute!r}; "
                "only DynamicMISBase algorithms support snapshots"
            )
    if algorithm.has_pending_candidates():
        raise SnapshotError(
            "cannot snapshot mid-update: candidate queues are not drained "
            "(snapshot only at operation/batch boundaries)"
        )
    stats = algorithm.stats
    state_stats = algorithm.state.stats
    return {
        "format": ALGORITHM_FORMAT,
        "class": type(algorithm).__name__,
        "k": algorithm.k,
        "lazy": algorithm.lazy,
        "perturbation": algorithm.perturbation,
        "graph": graph_payload(algorithm.graph),
        "solution_slots": sorted(algorithm.state.solution_slots_view()),
        "stats": {
            **{name: getattr(stats, name) for name in _ALGORITHM_COUNTERS},
            "swaps_performed": {
                str(size): count for size, count in sorted(stats.swaps_performed.items())
            },
        },
        "state_stats": {name: getattr(state_stats, name) for name in _STATE_COUNTERS},
        "instance_counters": {
            name: getattr(algorithm, name)
            for name in _INSTANCE_COUNTERS
            if hasattr(algorithm, name)
        },
    }


def algorithm_from_payload(
    payload: Dict,
    factory: Optional[Callable] = None,
):
    """Restore an algorithm from :func:`algorithm_to_payload`.

    Parameters
    ----------
    payload:
        A document produced by :func:`algorithm_to_payload`.
    factory:
        ``factory(graph, initial_solution, **options)`` constructing the
        algorithm (the experiment runner passes its registry factory so
        user-supplied options survive a resume).  When omitted, the core
        classes (``DyOneSwap``, ``DyTwoSwap``, ``KSwapFramework``) are
        resolved by the recorded class name.

    The restored instance's graph is bit-for-bit identical to the captured
    one (including recycled slots), its state is rebuilt from graph +
    membership, and its statistics counters are overwritten with the
    captured values — so continuing the stream yields results
    indistinguishable from never having been interrupted.
    """
    if payload.get("format") != ALGORITHM_FORMAT:
        raise SnapshotError(
            f"unsupported algorithm payload format {payload.get('format')!r} "
            f"(expected {ALGORITHM_FORMAT!r})"
        )
    graph = graph_from_payload(payload["graph"])
    solution_slots = set(payload["solution_slots"])
    initial_solution = [graph.vertex_of(s) for s in sorted(solution_slots)]
    options = {
        "k": payload["k"],
        "lazy": payload["lazy"],
        "perturbation": payload["perturbation"],
        # The captured solution is already k-maximal, so re-stabilising
        # would only burn work; installation extends greedily, which is a
        # no-op on a maximal set.
        "stabilize": False,
    }
    if factory is None:
        factory = _default_factory(payload["class"])
    algorithm = factory(graph, initial_solution, **options)
    restored = algorithm.state.solution_slots_view()
    if restored != solution_slots:
        raise SnapshotError(
            "restored solution diverges from the snapshot (payload corrupt "
            f"or not at an operation boundary): {sorted(restored)} != "
            f"{sorted(solution_slots)}"
        )
    stats = algorithm.stats
    for name in _ALGORITHM_COUNTERS:
        setattr(stats, name, payload["stats"][name])
    stats.swaps_performed = Counter(
        {int(size): count for size, count in payload["stats"]["swaps_performed"].items()}
    )
    state_stats = algorithm.state.stats
    for name in _STATE_COUNTERS:
        setattr(state_stats, name, payload["state_stats"][name])
    for name, value in payload.get("instance_counters", {}).items():
        if hasattr(algorithm, name):
            setattr(algorithm, name, value)
    return algorithm


def _default_factory(class_name: str) -> Callable:
    from repro.baselines.dyn_arw import DyARW
    from repro.core.framework import KSwapFramework
    from repro.core.one_swap import DyOneSwap
    from repro.core.two_swap import DyTwoSwap

    classes = {
        cls.__name__: cls for cls in (DyOneSwap, DyTwoSwap, KSwapFramework, DyARW)
    }
    try:
        cls = classes[class_name]
    except KeyError:
        raise SnapshotError(
            f"no default factory for algorithm class {class_name!r}; pass one"
        ) from None

    def factory(graph, initial_solution, **options):
        return cls(graph, initial_solution=initial_solution, **options)

    return factory


# --------------------------------------------------------------------- #
# File-level convenience
# --------------------------------------------------------------------- #
def save_snapshot(algorithm, path: PathLike) -> None:
    """Serialise :func:`algorithm_to_document` to ``path`` as JSON (atomically).

    The document carries an embedded SHA-256 digest
    (:mod:`repro.resilience.integrity`) which :func:`load_snapshot` verifies,
    so on-disk corruption after the atomic commit is detected instead of
    restored.  The ``snapshot.write`` fault point fires mid-write inside the
    atomic-writer context — an injected crash there aborts the commit and
    leaves ``path`` untouched.  Write-side failures raise
    :class:`SnapshotError`, mirroring :func:`load_snapshot` — callers
    following the module's exception contract see both directions; the
    parent directory is created.
    """
    path = Path(path)
    payload = algorithm_to_document(algorithm)
    try:
        makedirs(path.parent)
        with atomic_writer(path) as stream:
            write_document(stream, payload, fault_point=SNAPSHOT_WRITE)
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc


def load_snapshot(path: PathLike, factory: Optional[Callable] = None):
    """Restore an algorithm from a file written by :func:`save_snapshot`.

    Verifies the embedded SHA-256 digest first; a snapshot whose bytes no
    longer hash to the digest recorded at write time raises
    :class:`~repro.exceptions.IntegrityError` and is never restored.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if isinstance(payload, dict):
        verify_document(payload, source=path)
    return algorithm_from_payload(payload, factory)
