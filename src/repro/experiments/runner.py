"""Experiment runner: algorithms × datasets × update streams.

The runner knows how to

* instantiate every evaluated algorithm by name (the five algorithms of the
  paper plus the generic framework and the optimization variants),
* execute an update stream against an algorithm while timing it and honouring
  an optional per-run time limit (the analogue of the paper's five-hour
  cut-off after which DGOneDIS/DGTwoDIS are reported as "-"),
* compute the reference solution size for a final graph — the exact
  independence number when the branch-and-reduce solver finishes within its
  node budget, and the best known solution otherwise (the paper's Table IV
  convention).
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.baselines.arw import ArwLocalSearch
from repro.baselines.dgdis import DGOneDIS, DGTwoDIS
from repro.baselines.dyn_arw import DyARW
from repro.baselines.exact import BranchAndReduceSolver
from repro.core.framework import KSwapFramework
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.exceptions import ExperimentError, SolverTimeoutError
from repro.experiments.metrics import RunMeasurement, Stopwatch
from repro.graphs.dynamic_graph import DynamicGraph, Vertex
from repro.updates.protocol import (
    StreamCursor,
    stream_description,
    stream_length_hint,
)
from repro.updates.streams import UpdateStream
from repro.workloads.replay import (
    Checkpoint,
    CheckpointConfig,
    load_checkpoint,
    save_checkpoint,
)

#: Batches (operations, when unbatched) read between wall-clock checks of
#: a :class:`~repro.workloads.replay.CheckpointConfig` with
#: ``every_seconds``, within the ``CHECKPOINT_CHUNK`` cap.
WALL_CLOCK_STRIDE = 64

#: Cap on the chunk the replay loop reads between stopwatch intervals,
#: rounded down to whole batches: a long stream or a huge
#: ``CheckpointConfig.every`` must not turn into an equally huge in-RAM
#: operation list.  The time limit, the guard and the checkpoint schedule
#: are consulted between chunks.
CHECKPOINT_CHUNK = 1024

#: Algorithm names in the order the paper's tables list them.
PAPER_ALGORITHMS: Tuple[str, ...] = (
    "DGOneDIS",
    "DGTwoDIS",
    "DyARW",
    "DyOneSwap",
    "DyTwoSwap",
)


def _constructor_options(cls) -> FrozenSet[str]:
    """Keyword options ``cls(graph, initial_solution=..., **options)`` accepts.

    Follows ``**kwargs`` up the MRO (``DyOneSwap`` forwards everything to
    :class:`~repro.core.base.DynamicMISBase`) and stops at the first
    constructor that names all of its keywords.
    """
    names: Set[str] = set()
    for klass in cls.__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        params = inspect.signature(init).parameters.values()
        names.update(p.name for p in params if p.kind is p.KEYWORD_ONLY)
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break
    names.discard("initial_solution")
    return frozenset(names)


def _make_factory(cls, **fixed):
    def factory(graph: DynamicGraph, initial_solution, **options):
        merged = dict(fixed)
        merged.update(options)
        return cls(graph, initial_solution=initial_solution, **merged)

    factory.options = _constructor_options(cls)
    return factory


#: Registry mapping algorithm names to factories ``(graph, initial_solution, **options)``.
ALGORITHM_FACTORIES: Dict[str, Callable] = {
    "DGOneDIS": _make_factory(DGOneDIS),
    "DGTwoDIS": _make_factory(DGTwoDIS),
    "DyARW": _make_factory(DyARW),
    "DyOneSwap": _make_factory(DyOneSwap),
    "DyTwoSwap": _make_factory(DyTwoSwap),
    "DyOneSwap+perturb": _make_factory(DyOneSwap, perturbation=True),
    "DyTwoSwap+perturb": _make_factory(DyTwoSwap, perturbation=True),
    "DyOneSwap+lazy": _make_factory(DyOneSwap, lazy=True),
    "DyTwoSwap+lazy": _make_factory(DyTwoSwap, lazy=True),
    "KSwapFramework": _make_factory(KSwapFramework),
}


#: Registry entries whose instances support engine snapshots — every
#: DynamicMISBase maintainer (all of which are deterministic and keep their
#: whole state in graph + membership + counters); the index-based DGDIS
#: baselines are not snapshot-capable.
SNAPSHOT_CAPABLE: Tuple[str, ...] = (
    "DyOneSwap",
    "DyTwoSwap",
    "DyARW",
    "DyOneSwap+perturb",
    "DyTwoSwap+perturb",
    "DyOneSwap+lazy",
    "DyTwoSwap+lazy",
    "KSwapFramework",
)


def supports_snapshots(name: str) -> bool:
    """Whether the registered algorithm ``name`` can be checkpointed.

    Shared by the runner's checkpoint validation and the service layer's
    tenant bootstrap (a tenant without snapshot support could never be
    warm-started or crash-recovered, so it is rejected at configuration
    time).
    """
    return name in SNAPSHOT_CAPABLE


def available_algorithms() -> Tuple[str, ...]:
    """Names accepted by :func:`run_algorithm`."""
    return tuple(ALGORITHM_FACTORIES)


def check_algorithm_options(name: str, options: Mapping) -> None:
    """Refuse an unregistered algorithm or an option its constructor lacks.

    Raises :class:`ExperimentError` naming the algorithm and every unknown
    option, so a bad configuration fails where it is loaded instead of as a
    bare ``TypeError`` from the constructor.
    """
    try:
        factory = ALGORITHM_FACTORIES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHM_FACTORIES)}"
        ) from None
    unknown = sorted(set(options) - factory.options)
    if unknown:
        raise ExperimentError(
            f"algorithm {name!r} does not accept option(s) "
            f"{', '.join(map(repr, unknown))}; accepted: {sorted(factory.options)}"
        )


def create_algorithm(
    name: str,
    graph: DynamicGraph,
    initial_solution: Optional[Iterable[Vertex]] = None,
    **options,
):
    """Instantiate a registered algorithm on ``graph``.

    Options are checked by :func:`check_algorithm_options` first.
    """
    check_algorithm_options(name, options)
    return ALGORITHM_FACTORIES[name](graph, initial_solution, **options)


def _whole_batches(count: int, batch_size: int) -> int:
    """``count`` operations rounded down to whole batches (at least one)."""
    if batch_size <= 1:
        return count
    return max(batch_size, count // batch_size * batch_size)


class _Run:
    """One algorithm in a replay: engine, stopwatch, time limit and offset.

    Batches go through ``apply_batch`` where the algorithm has one; the
    DGDIS baselines fall back to per-operation application, so batched
    competitions run across the whole registry.  ``limit`` is in measured
    seconds (``None``: no limit); ``finished`` turns false when the run is
    cut off at it.
    """

    def __init__(self, name, algorithm, batch_size, initial_size, limit) -> None:
        self.name = name
        self.algorithm = algorithm
        batched = batch_size > 1 and hasattr(algorithm, "apply_batch")
        self.batch_size = batch_size if batched else 1
        self.initial_size = initial_size
        self.limit = limit
        self.processed = 0
        self.finished = True
        self.stopwatch = Stopwatch()

    def apply(self, chunk: List) -> None:
        """Apply one chunk of whole batches under the run's stopwatch."""
        step = self.batch_size
        with self.stopwatch:
            if step > 1:
                apply_batch = self.algorithm.apply_batch
                for start in range(0, len(chunk), step):
                    apply_batch(chunk[start : start + step])
            else:
                apply_update = self.algorithm.apply_update
                for operation in chunk:
                    apply_update(operation)
        self.processed += len(chunk)

    def measurement(self, dataset: str) -> RunMeasurement:
        algorithm = self.algorithm
        return RunMeasurement(
            algorithm=self.name,
            dataset=dataset,
            num_updates=self.processed,
            initial_size=self.initial_size,
            final_size=algorithm.solution_size,
            elapsed_seconds=self.stopwatch.elapsed,
            memory_footprint=algorithm.memory_footprint(),
            finished=self.finished,
            extra=_algorithm_extras(algorithm),
        )


def _reader(stream: Iterable) -> Callable[[int], List]:
    """``read(size)``: the next at most ``size`` operations of ``stream``."""
    iterator = iter(stream)
    return lambda size: list(islice(iterator, size))


def _replay(
    run: _Run,
    read: Callable[[int], List],
    batch_size: int,
    hook: Optional[_CheckpointHook] = None,
) -> None:
    """Apply a stream to ``run``, chunk by chunk.

    Chunks hold ``CHECKPOINT_CHUNK`` operations rounded down to whole
    batches, or ``hook.stride()``, and ``read`` fetches each one outside
    the stopwatch, so producing, decoding and fingerprinting the stream
    are never measured.  The time limit is checked between chunks, once the
    next chunk shows that work remains, so a limit that elapses during the
    final chunk never cuts off a completed run.  After each chunk
    ``hook.after_chunk()`` runs the guard and writes a checkpoint when one
    is due.
    """
    size = _whole_batches(CHECKPOINT_CHUNK, batch_size)
    while True:
        if hook is not None:
            size = hook.stride()
        chunk = read(size)
        if not chunk:
            return
        if run.limit is not None and run.stopwatch.elapsed >= run.limit:
            run.finished = False
            return
        run.apply(chunk)
        if hook is not None:
            hook.after_chunk()
        if len(chunk) < size:
            return


class _CheckpointHook:
    """The guard and checkpoint schedule of one checkpointed run.

    A chunk ends at the next multiple of ``config.every`` operations since
    the previous checkpoint, so operation-interval checkpoints land exactly
    on it; with ``every_seconds`` set, the clock is also consulted after at
    most ``WALL_CLOCK_STRIDE`` batches.  The guard and the write run between
    chunks, outside the stopwatch.  ``record`` holds the run's fixed
    :func:`~repro.workloads.replay.save_checkpoint` keywords.
    """

    def __init__(self, run, config, cursor, guard, guard_every, record) -> None:
        self.run = run
        self.config = config
        self.cursor = cursor
        self.guard = guard
        self.guard_every = guard_every or 1
        self.record = record
        self.written = self.guarded = run.processed
        self.written_at = time.monotonic()
        batch_size = record["batch_size"]
        self.cap = _whole_batches(CHECKPOINT_CHUNK, batch_size)
        if config.every_seconds is not None:
            self.cap = min(self.cap, WALL_CLOCK_STRIDE * max(1, batch_size))

    def stride(self) -> int:
        every = self.config.every
        if every is None:
            return self.cap
        return min(every - (self.run.processed - self.written), self.cap)

    def after_chunk(self, end: bool = False) -> None:
        """Guard and checkpoint when due; at the ``end`` of the stream, guard
        and persist whatever the last interval left, so a violation in the
        last chunk cannot slip into the measurement and wall-clock-only
        configs still leave a resumable checkpoint."""
        run = self.run
        processed = run.processed
        if self.guard is not None and processed - self.guarded >= (
            1 if end else self.guard_every
        ):
            self.guard(run.algorithm)
            self.guarded = processed
        pending = processed - self.written
        if (end and pending) or self.config.due(
            pending, time.monotonic() - self.written_at
        ):
            save_checkpoint(
                run.algorithm,
                self.config,
                algorithm_name=run.name,
                processed=processed,
                initial_size=run.initial_size,
                elapsed_seconds=run.stopwatch.elapsed,
                stream_identity=self.cursor.fingerprint,
                **self.record,
            )
            self.written = processed
            self.written_at = time.monotonic()


@dataclass(frozen=True)
class ReferenceResult:
    """A reference solution size together with its provenance."""

    size: int
    kind: str  # "exact" or "best-known"


def compute_reference(
    graph: DynamicGraph,
    *,
    node_budget: int = 150_000,
    arw_iterations: int = 25,
    known_solutions: Sequence[Set[Vertex]] = (),
    seed: int = 0,
) -> ReferenceResult:
    """Compute the quality reference for a (final) graph.

    Tries the exact branch-and-reduce solver first; if it exceeds its node
    budget, falls back to the best known solution: the largest of an ARW
    local-search run and any solutions supplied by the caller (typically the
    final solutions of the evaluated algorithms).  This mirrors the paper's
    protocol: the independence number from VCSolver on easy graphs, the best
    result of ARW on hard graphs.
    """
    solver = BranchAndReduceSolver(node_budget=node_budget)
    try:
        report = solver.solve(graph)
        return ReferenceResult(size=report.independence_number, kind="exact")
    except SolverTimeoutError:
        pass
    best = 0
    for solution in known_solutions:
        best = max(best, len(solution))
    arw = ArwLocalSearch(max_iterations=arw_iterations, seed=seed).run(graph)
    best = max(best, len(arw.solution))
    return ReferenceResult(size=best, kind="best-known")


def _load_resume(
    resume_from: Union[str, Path, Checkpoint],
    name: str,
    *,
    dataset: str,
    description: str,
    stream_length: Optional[int],
    batch_size: int,
) -> Checkpoint:
    """Load the checkpoint to resume from, refusing one of another run.

    A :class:`~repro.workloads.replay.Checkpoint` is taken as loaded: it
    was verified when it was read.
    """
    if isinstance(resume_from, Checkpoint):
        restored = resume_from
    else:
        restored = load_checkpoint(resume_from)
    if restored.algorithm_name != name:
        raise ExperimentError(
            f"checkpoint {restored.path} belongs to {restored.algorithm_name!r}, "
            f"not {name!r}"
        )
    if (
        restored.stream_length is not None
        and stream_length is not None
        and restored.stream_length != stream_length
    ):
        raise ExperimentError(
            f"checkpoint {restored.path} was taken on a stream of "
            f"{restored.stream_length} operations; got {stream_length}"
        )
    if (
        restored.stream_description
        and description
        and restored.stream_description != description
    ):
        raise ExperimentError(
            f"checkpoint {restored.path} was taken on stream "
            f"{restored.stream_description!r}; resuming against "
            f"{description!r} would silently mix two runs"
        )
    if restored.dataset and dataset and restored.dataset != dataset:
        raise ExperimentError(
            f"checkpoint {restored.path} was taken on dataset "
            f"{restored.dataset!r}, not {dataset!r}"
        )
    if restored.batch_size != batch_size:
        # Batch boundaries are part of the trajectory: resuming an
        # unbatched checkpoint in batched mode (or vice versa) would
        # shift every coalescing group relative to an uninterrupted run.
        raise ExperimentError(
            f"checkpoint {restored.path} was written by a "
            f"batch_size={restored.batch_size} run; resuming with "
            f"batch_size={batch_size} would shift every batch boundary"
        )
    if stream_length is not None and restored.processed > stream_length:
        raise ExperimentError(
            f"checkpoint {restored.path} consumed {restored.processed} "
            f"operations but the stream only has {stream_length}"
        )
    return restored


def _fast_forward(cursor: StreamCursor, restored: Checkpoint) -> None:
    """Skip ``cursor`` to the checkpoint's offset, verifying the prefix."""
    skip = restored.processed
    skipped = cursor.skip(skip)
    if skipped < skip:
        raise ExperimentError(
            f"checkpoint {restored.path} consumed {skip} operations but "
            f"the stream only yielded {skipped}"
        )
    if (
        restored.stream_identity is not None
        and cursor.fingerprint != restored.stream_identity
    ):
        raise ExperimentError(
            f"checkpoint {restored.path} was taken at offset {skip} of a "
            f"stream whose prefix fingerprint is "
            f"{restored.stream_identity[:16]}…, but the supplied stream's "
            f"prefix hashes to {cursor.fingerprint[:16]}… — resuming "
            "would silently mix two runs"
        )


def _run_single(
    name: str,
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str,
    initial_solution: Optional[Iterable[Vertex]],
    time_limit_seconds: Optional[float],
    batch_size: int,
    options: Dict,
    checkpoint: Optional[CheckpointConfig] = None,
    resume_from: Optional[Union[str, Path, Checkpoint]] = None,
    guard: Optional[Callable] = None,
    guard_every: Optional[int] = None,
) -> Tuple[RunMeasurement, object]:
    """Shared engine of :func:`run_algorithm` / :func:`run_competition`.

    Returns ``(measurement, algorithm)`` — the caller may need the live
    algorithm for its final graph/solution (the competition's shared
    reference).  The stream is consumed strictly as an iterator (``len()``
    is never called on it; a ``length_hint`` is recorded when the stream
    offers one), so unbounded lazy streams run in O(chunk) memory.
    Handles the optional checkpoint/resume wiring:

    * with ``checkpoint`` set, the stream is read through a hashing
      :class:`~repro.updates.protocol.StreamCursor` and a checkpoint
      recording ``(offset, prefix fingerprint)`` is written after every
      ``checkpoint.every`` operations and/or every
      ``checkpoint.every_seconds`` of wall-clock time (checkpoint I/O and
      fingerprinting are excluded from the measured update time),
    * with ``resume_from`` set, the algorithm is restored bit-for-bit from
      that checkpoint, the first ``processed`` operations of the stream are
      skipped by consuming the iterator, the fingerprint of the skipped
      prefix is verified against the checkpoint's recorded identity, and
      measurement fields (update count, elapsed time, initial size)
      continue from the checkpointed values — so a resumed run is
      indistinguishable from an uninterrupted one.
    """
    stream_length: Optional[int] = stream_length_hint(stream)
    description = stream_description(stream)
    if guard is not None and checkpoint is None:
        # The guard runs at checkpoint-chunk boundaries (outside the
        # stopwatch); without checkpointing there are no such boundaries.
        raise ExperimentError(
            "an invariant guard requires checkpoint=CheckpointConfig(...): "
            "guards run at checkpoint-chunk boundaries"
        )
    if guard_every is not None and guard_every < 1:
        raise ExperimentError("guard_every must be at least 1 when given")
    if checkpoint is not None and not supports_snapshots(name):
        # Fail before any stream work is done — discovering the missing
        # capability at the first save_checkpoint would burn a full chunk of
        # updates first.
        raise ExperimentError(
            f"algorithm {name!r} does not support engine snapshots; "
            f"checkpointing is available for {SNAPSHOT_CAPABLE}"
        )
    every = None if checkpoint is None else checkpoint.every
    if batch_size > 1 and every is not None and every % batch_size:
        raise ExperimentError(
            f"checkpoint interval {every} must be a multiple of "
            f"batch_size {batch_size} so checkpoints land on batch boundaries"
        )
    restored = None
    if resume_from is not None:
        restored = _load_resume(
            resume_from,
            name,
            dataset=dataset,
            description=description,
            stream_length=stream_length,
            batch_size=batch_size,
        )

        def factory(restored_graph, solution, **snapshot_options):
            merged = dict(options)
            merged.update(snapshot_options)
            return create_algorithm(name, restored_graph, solution, **merged)

        algorithm = restored.restore(factory)
        initial_size = restored.initial_size
    else:
        algorithm = create_algorithm(name, graph.copy(), initial_solution, **options)
        initial_size = algorithm.solution_size
    run = _Run(name, algorithm, batch_size, initial_size, time_limit_seconds)
    if restored is not None:
        # Continue the checkpoint's offset and update time: the time limit
        # budgets the whole run, and the measurement reports its totals.
        run.processed = restored.processed
        run.stopwatch.elapsed = restored.elapsed_seconds
    # A hashing cursor is only paid for when the run writes checkpoints or
    # fast-forwards a resume; plain runs read the raw iterator.
    hook = None
    if checkpoint is None and not run.processed:
        read = _reader(stream)
    else:
        cursor = StreamCursor(stream)
        if run.processed:
            _fast_forward(cursor, restored)
        read = cursor.take
        if checkpoint is not None:
            record = dict(
                dataset=dataset,
                stream_length=stream_length,
                stream_description=description,
                batch_size=batch_size,
            )
            hook = _CheckpointHook(run, checkpoint, cursor, guard, guard_every, record)
    _replay(run, read, batch_size, hook)
    if hook is not None and run.finished:
        hook.after_chunk(end=True)
    return run.measurement(dataset), algorithm


def run_algorithm(
    name: str,
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str = "",
    initial_solution: Optional[Iterable[Vertex]] = None,
    time_limit_seconds: Optional[float] = None,
    batch_size: int = 1,
    checkpoint: Optional[CheckpointConfig] = None,
    resume_from: Optional[Union[str, Path, Checkpoint]] = None,
    guard: Optional[Callable] = None,
    guard_every: Optional[int] = None,
    **options,
) -> RunMeasurement:
    """Run one algorithm over one update stream and measure it.

    The graph is copied, so the same input graph and stream can be reused for
    several algorithms.  The stream is read in chunks of at most
    :data:`CHECKPOINT_CHUNK` operations (whole batches), and the stopwatch
    covers only the calls that apply them: building the initial solution
    and indexes is excluded, as in the paper, and so are producing and
    reading the stream, the guard and checkpoint I/O.

    Parameters
    ----------
    time_limit_seconds:
        When set, the run is abandoned once this much time has been spent on
        updates; the measurement is returned with ``finished=False`` (the
        paper reports such runs as "-").  The limit is checked between
        chunks, so a run may overshoot it by up to one chunk.
    batch_size:
        When greater than one, feed the stream through the batched update
        engine (coalescing plus one repair pass per batch); algorithms
        without batch support fall back to per-operation application.
    checkpoint:
        When set, write a resumable checkpoint every
        :attr:`~repro.workloads.replay.CheckpointConfig.every` operations
        and/or every
        :attr:`~repro.workloads.replay.CheckpointConfig.every_seconds` of
        wall-clock time (I/O excluded from the measured time).  Each
        checkpoint records the stream offset plus the incremental prefix
        fingerprint, so resumes work on lazy streams that were never
        materialised.  Checkpointing requires a
        :class:`~repro.core.base.DynamicMISBase` algorithm (the core
        maintainers); the index-based baselines are not snapshot-capable.
    resume_from:
        Path of a checkpoint to resume from, or a
        :class:`~repro.workloads.replay.Checkpoint` already loaded (as
        :func:`~repro.workloads.replay.latest_valid_checkpoint` returns
        it, so recovery reads the file once); the run skips ahead by
        consuming the stream iterator (verifying the prefix fingerprint)
        and its measurement reports cumulative totals, so the result is
        identical to an uninterrupted run (asserted by the test suite).
    guard:
        Optional callable invoked with the live algorithm at
        checkpoint-chunk boundaries, *outside* the measured update time —
        the hook the resilience supervisor's
        :class:`~repro.resilience.supervisor.InvariantGuard` plugs into.
        Requires ``checkpoint``.
    guard_every:
        Run the guard only once at least this many operations have been
        applied since its last pass (default: every chunk boundary).
    """
    measurement, _algorithm = _run_single(
        name,
        graph,
        stream,
        dataset=dataset,
        initial_solution=initial_solution,
        time_limit_seconds=time_limit_seconds,
        batch_size=batch_size,
        checkpoint=checkpoint,
        resume_from=resume_from,
        options=options,
        guard=guard,
        guard_every=guard_every,
    )
    return measurement


def run_competition(
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str = "",
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    initial_solution: Optional[Iterable[Vertex]] = None,
    time_limit_seconds: Optional[float] = None,
    batch_size: int = 1,
    reference_node_budget: int = 150_000,
    attach_reference: bool = True,
    algorithm_options: Optional[Dict[str, Dict]] = None,
) -> Dict[str, RunMeasurement]:
    """Run several algorithms on the same dataset/stream and attach a shared reference.

    The stream is replayed once per algorithm, one algorithm after another,
    as in the paper.  Returns a mapping ``algorithm name -> RunMeasurement``.
    When ``attach_reference`` is true, the reference size of the *final*
    graph is computed once (exact if possible, best-known otherwise, seeded
    with every algorithm's final solution) and attached to each
    measurement.  With ``batch_size > 1`` every batch-capable algorithm
    processes the stream through the batched update engine (the DGDIS
    baselines fall back to per-operation application).  Timing follows
    :func:`run_algorithm`: each algorithm's stopwatch covers only the calls
    that apply the stream's chunks to it, and ``time_limit_seconds`` is
    checked between chunks.

    A **one-shot** stream (an iterator, or a lazy stream over a one-shot
    source) cannot be replayed: with two or more algorithms it raises
    :class:`ExperimentError` before any operation is read.
    """
    replayable = getattr(stream, "replayable", None)
    if len(algorithms) > 1 and (
        iter(stream) is stream or (callable(replayable) and not replayable())
    ):
        raise ExperimentError(
            f"run_competition replays the stream once for each of its "
            f"{len(algorithms)} algorithms, but this stream is one-shot and "
            "can be read only once: pass a list, an UpdateStream, or a "
            "stream over a list or a file"
        )
    if initial_solution is not None:
        # Read once, so every algorithm starts from the same set.
        initial_solution = list(initial_solution)
    algorithm_options = algorithm_options or {}
    measurements: Dict[str, RunMeasurement] = {}
    final_solutions = []
    final_graph: Optional[DynamicGraph] = None
    for name in algorithms:
        measurement, algorithm = _run_single(
            name,
            graph,
            stream,
            dataset=dataset,
            initial_solution=initial_solution,
            time_limit_seconds=time_limit_seconds,
            batch_size=batch_size,
            options=algorithm_options.get(name, {}),
        )
        measurements[name] = measurement
        if measurement.finished:
            final_solutions.append(algorithm.solution())
            final_graph = algorithm.graph
    if attach_reference and final_graph is not None:
        reference = compute_reference(
            final_graph,
            node_budget=reference_node_budget,
            known_solutions=final_solutions,
        )
        for measurement in measurements.values():
            if measurement.finished:
                measurement.reference_size = reference.size
                measurement.reference_kind = reference.kind
    return measurements


def apply_stream_to_graph(graph: DynamicGraph, stream: UpdateStream) -> DynamicGraph:
    """Return a copy of ``graph`` with every operation of ``stream`` applied."""
    final_graph = graph.copy()
    stream.apply_all(final_graph)
    return final_graph


def _algorithm_extras(algorithm) -> Dict[str, float]:
    """Pull algorithm-specific statistics into the measurement's extra fields."""
    extra: Dict[str, float] = {}
    stats = getattr(algorithm, "stats", None)
    if stats is None:
        return extra
    swaps = getattr(stats, "swaps_performed", None)
    if swaps is not None:
        extra["swaps"] = float(sum(swaps.values()))
    perturbations = getattr(stats, "perturbations", None)
    if perturbations is not None:
        extra["perturbations"] = float(perturbations)
    scanned = getattr(stats, "index_entries_scanned", None)
    if scanned is not None:
        extra["index_scans"] = float(scanned)
    coalesced = getattr(stats, "operations_coalesced", None)
    if coalesced:
        extra["operations_coalesced"] = float(coalesced)
    batches = getattr(stats, "batches_applied", None)
    if batches:
        extra["batches_applied"] = float(batches)
    return extra

