"""Replay checkpoints: interrupt a stream run and resume it mid-stream.

A checkpoint wraps an engine snapshot (:mod:`repro.workloads.snapshot`) with
stream provenance: how many operations of which stream were consumed, how
much update time had elapsed, and the initial solution size of the run (so a
resumed run reports the same :class:`~repro.experiments.metrics.RunMeasurement`
fields as an uninterrupted one).  The experiment runner
(:func:`repro.experiments.runner.run_algorithm`) writes one every
``CheckpointConfig.every`` operations and resumes from one on request.

Checkpoint files are JSON documents named
``<algorithm>-<processed>.ckpt.json`` inside ``CheckpointConfig.directory``,
so several algorithms can share one directory and the newest checkpoint of
each is discoverable by filename alone.

Checkpoints are written synchronously, on the caller's thread, through
:mod:`repro.resilience.durable`: a checkpoint is durable, even across a
power loss, once :func:`save_checkpoint` returns, and keep-N pruning runs
only after that commit, from a fresh listing of the directory, so files
moved or deleted by anyone else (a quarantine, another process) are
counted as they are on disk.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import CheckpointError, IntegrityError
from repro.resilience.durable import atomic_writer, makedirs, remove, replace
from repro.resilience.faults import CHECKPOINT_WRITE
from repro.resilience.integrity import verify_document, write_document
from repro.workloads.snapshot import algorithm_from_payload, algorithm_to_document

PathLike = Union[str, Path]

#: ``/2`` added the embedded SHA-256 document digest (verified on every
#: load), so a checkpoint that survived its atomic write but rotted on disk
#: afterwards is detected instead of silently replayed.
CHECKPOINT_FORMAT = "repro-checkpoint/2"

#: Subdirectory (inside the checkpoint directory) where corrupt checkpoints
#: are moved by :func:`quarantine_checkpoint`; its name never matches the
#: checkpoint filename pattern, so quarantined files are never rediscovered.
QUARANTINE_DIRNAME = "quarantine"

#: Algorithm names may contain ``+`` (option variants); everything outside
#: this set is flattened to ``_`` in filenames.
_SAFE = re.compile(r"[^A-Za-z0-9+._-]")


@dataclass(frozen=True)
class CheckpointConfig:
    """How often and where a replay run persists its state.

    Attributes
    ----------
    directory:
        Where checkpoint files are written (created on first use).
    every:
        Checkpoint after each ``every`` processed operations.  With a
        batched run this must be a multiple of the batch size so checkpoint
        boundaries coincide with batch boundaries (where the solution is
        k-maximal and the candidate queues are drained).
    keep:
        Retain at most this many checkpoint *files* per algorithm (oldest
        pruned first, from a fresh listing after each commit); ``None``
        keeps every checkpoint.  Keep-N counts files by name and does not
        open them: a file damaged after its commit still holds one of the
        places until discovery (:func:`latest_valid_checkpoint`)
        quarantines it, so with ``keep=2`` a torn newest file and a single
        valid older one can be all that is left.
    every_seconds:
        Wall-clock retention: additionally checkpoint once at least this
        many seconds have passed since the previous checkpoint.  The
        runner looks at the clock between chunks of at most
        :data:`~repro.experiments.runner.WALL_CLOCK_STRIDE` batches, the
        service tenant after each batch and when idle.  May be combined
        with ``every`` (whichever comes first: a short ``every_seconds``
        fires long before a huge ``every`` would, and operation-interval
        checkpoints still land exactly on multiples of ``every`` since the
        previous checkpoint) or used alone for runs whose per-operation
        cost is unpredictable.  At least one of ``every`` /
        ``every_seconds`` must be set.
    """

    directory: PathLike
    every: Optional[int] = None
    keep: Optional[int] = None
    every_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every is None and self.every_seconds is None:
            raise CheckpointError(
                "a CheckpointConfig needs an interval: set 'every' "
                "(operations) and/or 'every_seconds' (wall clock)"
            )
        if self.every is not None and self.every < 1:
            raise CheckpointError("checkpoint interval 'every' must be at least 1")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise CheckpointError("'every_seconds' must be positive when given")
        if self.keep is not None and self.keep < 1:
            raise CheckpointError("'keep' must be at least 1 when given")

    def due(self, pending_ops: int, seconds_since_last: float) -> bool:
        """Whether a checkpoint is due, ``pending_ops`` operations and
        ``seconds_since_last`` seconds after the previous one: after
        ``every`` operations or ``every_seconds`` seconds, whichever comes
        first, and never with nothing new to write."""
        if pending_ops < 1:
            return False
        if self.every is not None and pending_ops >= self.every:
            return True
        return (
            self.every_seconds is not None
            and seconds_since_last >= self.every_seconds
        )


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint document.

    ``processed`` is the resume *offset* into the stream;
    ``stream_identity`` identifies exactly that prefix (the runner's
    :class:`~repro.updates.protocol.StreamCursor` fingerprint, or a service
    tenant's :func:`~repro.updates.protocol.advance_identity` chain), so a
    resume can verify it continues the same stream without either side
    materialising it.  ``stream_length`` is only a hint — lazy
    streams legitimately record ``None``.
    """

    algorithm_name: str
    dataset: str
    processed: int
    initial_size: int
    elapsed_seconds: float
    stream_length: Optional[int]
    stream_description: str
    batch_size: int
    payload: Dict
    path: Optional[Path] = None
    stream_identity: Optional[str] = None
    #: Free-form writer metadata (the service layer records tenant name and
    #: batching policy here so a warm start can refuse a config mismatch).
    metadata: Dict = field(default_factory=dict)

    def restore(self, factory: Optional[Callable] = None):
        """Rebuild the algorithm instance (see :func:`snapshot.algorithm_from_payload`)."""
        return algorithm_from_payload(self.payload, factory)


def checkpoint_path(directory: PathLike, algorithm_name: str, processed: int) -> Path:
    """The canonical file path for a checkpoint of ``algorithm_name`` at ``processed``."""
    safe = _SAFE.sub("_", algorithm_name)
    return Path(directory) / f"{safe}-{processed:010d}.ckpt.json"


def save_checkpoint(
    algorithm,
    config_or_directory: Union[CheckpointConfig, PathLike],
    *,
    algorithm_name: str,
    processed: int,
    initial_size: int,
    elapsed_seconds: float = 0.0,
    dataset: str = "",
    stream_length: Optional[int] = None,
    stream_description: str = "",
    stream_identity: Optional[str] = None,
    batch_size: int = 1,
    metadata: Optional[Dict] = None,
) -> Path:
    """Write a checkpoint for ``algorithm`` after ``processed`` operations.

    ``stream_identity`` should identify the consumed prefix (see
    :class:`Checkpoint`); resumes verify it.  ``metadata``
    is an optional JSON-serialisable dict stored verbatim for the writer's
    own provenance (the runner leaves it empty; the service layer records
    tenant identity and batching policy).  Returns the path written.  With
    a :class:`CheckpointConfig` whose ``keep`` is set, older checkpoints of
    the same algorithm beyond the retention limit are pruned.
    """
    if isinstance(config_or_directory, CheckpointConfig):
        directory = Path(config_or_directory.directory)
        keep = config_or_directory.keep
    else:
        directory = Path(config_or_directory)
        keep = None
    makedirs(directory)
    path = checkpoint_path(directory, algorithm_name, processed)
    document = {
        "format": CHECKPOINT_FORMAT,
        "algorithm_name": algorithm_name,
        "dataset": dataset,
        "processed": processed,
        "initial_size": initial_size,
        "elapsed_seconds": elapsed_seconds,
        "stream": {
            "length": stream_length,
            "description": stream_description,
            "identity": stream_identity,
        },
        "batch_size": batch_size,
        "metadata": dict(metadata or {}),
        "algorithm": algorithm_to_document(algorithm),
    }
    # Atomic replace: a crash mid-write (the exact scenario checkpoints
    # exist for) must never leave a truncated newest checkpoint shadowing
    # the intact older ones.  The ``checkpoint.write`` fault point fires
    # *inside* the atomic-writer context with half the payload already
    # written — the torn-write scenario — and aborting there discards the
    # temp file, so even a planned crash mid-write leaves the directory
    # exactly as it was.
    with atomic_writer(path) as stream:
        write_document(stream, document, fault_point=CHECKPOINT_WRITE)
    # Prune strictly *after* the new checkpoint is durably committed: a
    # crash between write and prune leaves extra files (harmless), never
    # fewer resumable states than promised.  Pruning is best-effort and adds
    # no fsync (a power loss may bring a pruned file back, which the next
    # prune removes): a file someone else already removed is skipped, and
    # one we cannot unlink degrades to a warning; neither may fail the write
    # that just committed.
    if keep is not None:
        for _, stale in find_checkpoints(directory, algorithm_name)[:-keep]:
            try:
                remove(stale)
            except OSError as exc:
                warnings.warn(
                    f"could not prune stale checkpoint {stale}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return path


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Load and validate a checkpoint document.

    Validation is three-layered: unreadable/unparseable files and format
    mismatches raise :class:`~repro.exceptions.CheckpointError`; a parseable
    document whose embedded SHA-256 digest is absent or wrong raises
    :class:`~repro.exceptions.IntegrityError` (the bytes on disk are not the
    bytes that were written — the checkpoint must never be replayed);
    structurally incomplete documents raise :class:`CheckpointError` again.
    :func:`latest_valid_checkpoint` catches both and falls back.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise CheckpointError(
            f"{path}: checkpoint document must be a JSON object, "
            f"got {type(document).__name__}"
        )
    if document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {document.get('format')!r} "
            f"(expected {CHECKPOINT_FORMAT!r})"
        )
    verify_document(document, source=path)
    try:
        stream_info = document.get("stream") or {}
        return Checkpoint(
            algorithm_name=document["algorithm_name"],
            dataset=document.get("dataset", ""),
            processed=document["processed"],
            initial_size=document["initial_size"],
            elapsed_seconds=document.get("elapsed_seconds", 0.0),
            stream_length=stream_info.get("length"),
            stream_description=stream_info.get("description", ""),
            stream_identity=stream_info.get("identity"),
            batch_size=document.get("batch_size", 1),
            payload=document["algorithm"],
            path=path,
            metadata=document.get("metadata") or {},
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing checkpoint field {exc}") from exc


def find_checkpoints(
    directory: PathLike, algorithm_name: str
) -> List[Tuple[int, Path]]:
    """All checkpoints of ``algorithm_name`` in ``directory``, oldest first.

    Discovery is tolerant of foreign content: files of other algorithms,
    the ``quarantine/`` subdirectory and unrelated files are skipped
    silently, while entries that *look* like checkpoints of this algorithm
    but violate the naming scheme (a malformed offset, or a directory
    wearing a checkpoint name) are skipped with a :class:`RuntimeWarning`
    instead of raising — one stray file in a shared checkpoint directory
    must never take down every run that scans it.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    safe = _SAFE.sub("_", algorithm_name)
    pattern = re.compile(re.escape(safe) + r"-(\d+)\.ckpt\.json$")
    prefix = f"{safe}-"
    found: List[Tuple[int, Path]] = []
    for path in directory.iterdir():
        match = pattern.fullmatch(path.name)
        if match is None:
            if path.name.startswith(prefix) and path.name.endswith(".ckpt.json"):
                warnings.warn(
                    f"skipping stray file {path}: name does not match the "
                    "checkpoint naming scheme "
                    f"{prefix}<offset>.ckpt.json",
                    RuntimeWarning,
                    stacklevel=2,
                )
            continue
        if not path.is_file():
            warnings.warn(
                f"skipping {path}: matches the checkpoint naming scheme "
                "but is not a regular file",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        found.append((int(match.group(1)), path))
    found.sort()
    return found


def latest_checkpoint(directory: PathLike, algorithm_name: str) -> Optional[Path]:
    """Path of the newest checkpoint of ``algorithm_name``, or ``None``.

    Purely name-based — the file is not opened, so a torn or rotted newest
    checkpoint is still returned.  Recovery paths should prefer
    :func:`latest_valid_checkpoint`, which validates candidates and falls
    back past corrupt ones.
    """
    found = find_checkpoints(directory, algorithm_name)
    return found[-1][1] if found else None


def quarantine_checkpoint(path: PathLike, *, reason: str = "") -> Optional[Path]:
    """Move a corrupt checkpoint into the ``quarantine/`` subdirectory.

    Quarantining instead of deleting keeps the evidence for post-mortems
    while guaranteeing discovery never offers the file again.  Name
    collisions get a numeric suffix; failures degrade to a warning and
    ``None`` (a file we cannot move is a file we also must not crash on —
    discovery callers skip it either way).
    """
    path = Path(path)
    target_dir = path.parent / QUARANTINE_DIRNAME
    try:
        makedirs(target_dir)
        target = target_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = target_dir / f"{path.name}.{suffix}"
        replace(path, target)
    except OSError as exc:
        warnings.warn(
            f"could not quarantine corrupt checkpoint {path}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    warnings.warn(
        f"quarantined corrupt checkpoint {path} -> {target}"
        + (f" ({reason})" if reason else ""),
        RuntimeWarning,
        stacklevel=2,
    )
    return target


def latest_valid_checkpoint(
    directory: PathLike, algorithm_name: str
) -> Optional[Checkpoint]:
    """The newest checkpoint that loads and passes its integrity check.

    Walks the discovered checkpoints newest-first, fully validating each
    (parse, format, embedded SHA-256 digest, structural completeness); a
    candidate that fails is quarantined and the walk falls back to the next
    older one.  Returns the loaded :class:`Checkpoint` (its ``path`` says
    which file), so recovery reads the file once, or ``None`` when no valid
    checkpoint survives — the caller starts fresh, which is always safe,
    merely slower.
    """
    for _, path in reversed(find_checkpoints(directory, algorithm_name)):
        try:
            return load_checkpoint(path)
        except (CheckpointError, IntegrityError) as exc:
            quarantine_checkpoint(path, reason=str(exc))
    return None
