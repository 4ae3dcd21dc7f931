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

A snapshot file embeds the SHA-256 of its canonical encoding.
:func:`load_snapshot` checks it on the bytes as written and re-encodes
the parsed document only when they fail that check, to tell a file
rewritten by another JSON encoder from a damaged one.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import GraphError, SnapshotError, SolutionInvariantError
from repro.graphs.dynamic_graph import _FREE, DynamicGraph, Vertex
from repro.resilience.durable import atomic_writer, makedirs
from repro.resilience.faults import SNAPSHOT_WRITE
from repro.resilience.integrity import intact_as_written, verify_document, write_document

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
        "graph": graph_to_payload(algorithm.graph),
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

    Raises :class:`SnapshotError` when ``solution_slots`` names a slot that
    is not a live vertex of the graph or two adjacent slots, when the
    factory builds an engine of another class or another ``k`` than the one
    that wrote the payload (its solution need not be k-maximal for the
    engine built, and nothing would repair it), and when the restored
    solution differs from the recorded one.
    """
    if payload.get("format") != ALGORITHM_FORMAT:
        raise SnapshotError(
            f"unsupported algorithm payload format {payload.get('format')!r} "
            f"(expected {ALGORITHM_FORMAT!r})"
        )
    graph = graph_from_payload(payload["graph"])
    slots = payload["solution_slots"]
    initial_solution = _solution_labels(graph, slots)
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
    try:
        algorithm = factory(graph, initial_solution, **options)
    except SolutionInvariantError as exc:
        pair = _adjacent_pair(graph, slots)
        if pair is None:
            raise
        raise SnapshotError(
            f"solution_slots names adjacent slots {pair[0]} and {pair[1]}, "
            "which is not an independent set"
        ) from exc
    built = (type(algorithm).__name__, algorithm.k)
    if built != (payload["class"], payload["k"]):
        raise SnapshotError(
            f"snapshot was written by {payload['class']} (k={payload['k']}), "
            f"but the factory builds {built[0]} (k={built[1]}); restoring it "
            "would serve a solution no engine of that kind maintained"
        )
    solution_slots = set(slots)
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


def _solution_labels(graph: DynamicGraph, slots) -> List[Vertex]:
    """The labels at ``slots``, each of which must be a live slot of ``graph``."""
    labels = graph.labels_view()
    total = len(labels)
    solution = []
    for slot in slots:
        if type(slot) is not int or not 0 <= slot < total or labels[slot] is _FREE:
            raise SnapshotError(
                f"solution_slots names {slot!r}, which is not a live slot of "
                "the snapshot's graph"
            )
        solution.append(labels[slot])
    return solution


def _adjacent_pair(graph: DynamicGraph, slots) -> Optional[Tuple[int, int]]:
    """The first two of ``slots`` that are adjacent in ``graph``, if any."""
    members = set(slots)
    adjacency = graph.adjacency_slots_view()
    for slot in sorted(members):
        for other in sorted(adjacency[slot] & members):
            return slot, other
    return None


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
    """Serialise :func:`algorithm_to_payload` to ``path`` as JSON (atomically).

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
    payload = algorithm_to_payload(algorithm)
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
    :class:`~repro.exceptions.IntegrityError` and is never restored.  The
    file is read once.  Bytes exactly as :func:`save_snapshot` wrote them
    are checked against their digest as they are
    (:func:`~repro.resilience.integrity.intact_as_written`); only a file
    that fails that, such as one re-encoded by another JSON encoder, has
    its parsed document re-encoded in canonical form and checked
    (:func:`~repro.resilience.integrity.verify_document`).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
        payload = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if isinstance(payload, dict) and not intact_as_written(raw):
        verify_document(payload, source=path)
    return algorithm_from_payload(payload, factory)
