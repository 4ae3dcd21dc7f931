"""The operation log of a service tenant: one record per applied batch.

A tenant makes its applied batches durable by appending them to a log
segment, and writes a full checkpoint
(:func:`~repro.workloads.replay.save_checkpoint`) only to compact the log.
A segment continues one checkpoint and is named after its offset
(:func:`segment_path`); once its records reach an offset at which a newer
checkpoint was written, the log goes on in that checkpoint's segment.
:func:`replay_log` follows that chain, and :func:`prune_segments` removes
the segments no kept checkpoint leads to.

Each record is one line: the document ``{"identity": ..., "offset": ...,
"ops": ...}`` — the stream identity after the batch
(:func:`~repro.updates.protocol.advance_identity`), the offset before it and
the batch's wire operations — written by
:func:`~repro.resilience.integrity.write_document`, so the line carries its
own SHA-256 and :func:`~repro.resilience.integrity.intact_as_written`
checks it without parsing it.  A replay therefore knows, record by record,
that the bytes are the ones written, that the batch starts where the
previous one ended and that it continues the same stream.  The first record
that fails any of the three ends the replay, and the segment is cut back to
the records before it.
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.resilience.durable import append_writer, atomic_writer, remove
from repro.resilience.faults import LOG_APPEND
from repro.resilience.integrity import intact_as_written, write_document
from repro.updates.operations import UpdateOperation
from repro.updates.protocol import advance_identity, decode_operation
from repro.updates.wire import operations_to_wire
from repro.workloads.replay import checkpoint_path, find_checkpoints

PathLike = Union[str, Path]

#: A file name ending like a segment's, with its offset.
_SEGMENT_NAME = re.compile(r".*-([0-9]+)\.log")


def segment_path(directory: PathLike, algorithm_name: str, offset: int) -> Path:
    """The log segment that continues the checkpoint at ``offset``: the
    checkpoint's path with ``.log`` in place of ``.ckpt.json``."""
    checkpoint = checkpoint_path(directory, algorithm_name, offset)
    return checkpoint.with_name(checkpoint.name[: -len(".ckpt.json")] + ".log")


def append_records(
    directory: PathLike,
    algorithm_name: str,
    segment: int,
    batches: Iterable[Tuple[List[UpdateOperation], str]],
    offset: int,
) -> Optional[int]:
    """Append one record per ``(batch, identity after it)``, the first batch
    starting at ``offset``, to the segment that continues the checkpoint at
    ``segment``, and fsync once; return the segment's size in bytes.

    A segment that holds no records yet (``offset == segment``) is written
    whole through :func:`~repro.resilience.durable.atomic_writer`, so its
    directory entry is durable too (any older file of that name is
    replaced).  One that should hold records and is gone takes none, and
    the return is ``None``.  The ``log.append`` fault point fires once per
    record, with half of it written.
    """
    path = segment_path(directory, algorithm_name, segment)
    new = offset == segment
    if not new and not path.exists():
        return None
    with (atomic_writer if new else append_writer)(path) as stream:
        for batch, identity in batches:
            record = {
                "identity": identity,
                "offset": offset,
                "ops": operations_to_wire(batch),
            }
            write_document(stream, record, fault_point=LOG_APPEND)
            stream.write(b"\n")
            offset += len(batch)
        return stream.tell()


def replay_log(
    directory: PathLike,
    algorithm_name: str,
    offset: int,
    identity: str,
    apply: Callable[[List[UpdateOperation]], object],
    *,
    until: Optional[int] = None,
) -> Tuple[int, str, int, int]:
    """Apply the log that continues the checkpoint at ``offset``, whose
    stream identity is ``identity``, one batch per record, up to ``until``.

    The replay starts with the checkpoint's own segment and goes on into
    the segment named after the offset reached, as long as one exists, so a
    fallback to an older checkpoint replays forward through the segments
    of the newer ones.  Returns the offset and identity reached, and the
    offset and size in bytes of the last segment read, which the next
    records continue.
    """
    while True:
        start = offset
        offset, identity, size = _replay_segment(
            segment_path(directory, algorithm_name, start), offset, identity, apply, until
        )
        if offset in (start, until) or not segment_path(
            directory, algorithm_name, offset
        ).exists():
            return offset, identity, start, size


def _replay_segment(
    path: Path,
    offset: int,
    identity: str,
    apply: Callable[[List[UpdateOperation]], object],
    until: Optional[int],
) -> Tuple[int, str, int]:
    """Apply the records of one segment that continue ``(offset, identity)``.

    Each record must be intact as written, start at the offset reached and
    carry the identity its batch advances to; the replay stops at the first
    that is not, or once it has reached ``until``.  When the segment holds
    more than the records applied, it is cut back to them by an atomic
    rewrite, so the next append continues them.  Returns the offset and
    identity reached and the size of the segment (0 when there is none).
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return offset, identity, 0
    kept = 0
    while until is None or offset < until:
        end = data.find(b"\n", kept)
        if end < 0 or not intact_as_written(data[kept:end]):
            break
        record = json.loads(data[kept:end])
        batch = [decode_operation(entry) for entry in record["ops"]]
        if record["offset"] != offset or record["identity"] != advance_identity(
            identity, batch
        ):
            break
        apply(batch)
        offset, identity, kept = offset + len(batch), record["identity"], end + 1
    if kept < len(data):
        with atomic_writer(path) as stream:
            stream.write(data[:kept])
    return offset, identity, kept


def prune_segments(directory: PathLike, algorithm_name: str) -> None:
    """Remove the segments older than every checkpoint of ``algorithm_name``
    in ``directory``, which no replay reaches.

    Run after keep-N has pruned the checkpoints
    (:func:`~repro.workloads.replay.save_checkpoint`), and best effort like
    it: no fsync, and a segment that cannot be removed is a warning.
    """
    checkpoints = find_checkpoints(directory, algorithm_name)
    if not checkpoints:
        return
    oldest = checkpoints[0][0]
    for path in Path(directory).glob("*.log"):
        match = _SEGMENT_NAME.fullmatch(path.name)
        if match is None or int(match.group(1)) >= oldest:
            continue
        if path != segment_path(directory, algorithm_name, int(match.group(1))):
            continue  # another algorithm's, or not a segment name
        try:
            remove(path)
        except OSError as exc:
            warnings.warn(
                f"could not prune stale log segment {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
