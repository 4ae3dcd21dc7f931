"""The lazy operation-stream protocol: constant-memory streams end to end.

The paper's setting is an *unbounded* stream of updates, so no layer of the
pipeline may assume the whole stream fits in RAM.  This module defines the
small contract every producer and consumer speaks:

* an **operation stream** is any iterable of
  :class:`~repro.updates.operations.UpdateOperation`.  The library's own
  streams are :class:`OperationStream` subclasses, which additionally carry
  a ``description`` string, a ``metadata`` dict and a ``length_hint()``
  method returning the number of operations *when it is known without
  consuming the stream* (``None`` otherwise).  The list-backed
  :class:`~repro.updates.streams.UpdateStream` is one of them.

* a :class:`StreamCursor` wraps one pass over a stream and maintains an
  **incremental identity fingerprint**: a running SHA-256 over the canonical
  encoding of every operation consumed so far.  The cursor is also the
  ``stream.read`` fault point of the resilience subsystem
  (:mod:`repro.resilience.faults`) — checkpointed runs consume their stream
  through a cursor, so a planned fault here simulates the source dying
  mid-replay at an exact operation count.  Checkpoints record
  ``(offset, fingerprint)`` instead of absolute offsets into an in-RAM list;
  resuming skips ahead through a fresh iterator and verifies the fingerprint
  of the skipped prefix, so a resumed run provably replays the same stream
  without either side ever materialising it.

* :func:`advance_identity` chains an identity that a service tenant resumes
  from the hex digest its checkpoint stores: one SHA-256 per applied batch.
  It and the cursor render operations with :func:`_fingerprint_text`, the
  one text rule for stream identities.

* :func:`chunked` is the one sanctioned way to batch a stream: it yields
  lists of at most ``size`` operations via :func:`itertools.islice`, so no
  consumer ever holds more than one batch window resident.

:func:`stream_length_hint` and :func:`stream_description` read the optional
attributes duck-typed, so plain lists and generators remain valid streams.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.resilience.faults import STREAM_READ, trip
from repro.updates.operations import (
    _DELETE_VERTEX,
    _INSERT_EDGE,
    _INSERT_VERTEX,
    UpdateKind,
    UpdateOperation,
    apply_update,
)


# --------------------------------------------------------------------- #
# Canonical operation encoding (shared by fingerprints and stream caches)
# --------------------------------------------------------------------- #
def encode_operation(operation: UpdateOperation) -> List:
    """Encode an operation as a compact JSON-serialisable list.

    The canonical wire form of the pipeline: the chunked stream cache
    persists it, and ``repr(encode_operation(op))`` is the operation's
    **fingerprint text**, the UTF-8 bytes :class:`StreamCursor` feeds its
    SHA-256.  Stable across sessions (no id()/hash values).
    """
    kind = operation.kind
    if kind is UpdateKind.INSERT_VERTEX:
        return ["+v", operation.vertex, list(operation.neighbors)]
    if kind is UpdateKind.DELETE_VERTEX:
        return ["-v", operation.vertex]
    if kind is UpdateKind.INSERT_EDGE:
        return ["+e", operation.edge[0], operation.edge[1]]
    return ["-e", operation.edge[0], operation.edge[1]]


def decode_operation(entry: Sequence) -> UpdateOperation:
    """Inverse of :func:`encode_operation`."""
    tag = entry[0]
    if tag == "+v":
        return UpdateOperation.insert_vertex(entry[1], entry[2])
    if tag == "-v":
        return UpdateOperation.delete_vertex(entry[1])
    if tag == "+e":
        return UpdateOperation.insert_edge(entry[1], entry[2])
    if tag == "-e":
        return UpdateOperation.delete_edge(entry[1], entry[2])
    raise ValueError(f"unknown operation tag {tag!r}")


def _fingerprint_text(operation: UpdateOperation) -> str:
    """``repr(encode_operation(operation))``, rendered by one ``%`` format.

    Byte-identical to the definition, without building the list first.
    """
    kind = operation.kind
    if kind is _INSERT_VERTEX:
        return "['+v', %r, %r]" % (operation.vertex, list(operation.neighbors))
    if kind is _DELETE_VERTEX:
        return "['-v', %r]" % (operation.vertex,)
    u, v = operation.edge
    if kind is _INSERT_EDGE:
        return "['+e', %r, %r]" % (u, v)
    return "['-e', %r, %r]" % (u, v)


#: Fingerprint of the empty prefix (offset 0) — what a cursor reports before
#: consuming anything, and what a checkpoint taken at offset 0 would record.
EMPTY_FINGERPRINT = hashlib.sha256().hexdigest()

_END = object()

#: Most operations :meth:`StreamCursor.skip` holds resident per window.
_SKIP_WINDOW = 1024


def advance_identity(identity: str, operations: Iterable[UpdateOperation]) -> str:
    """``sha256(bytes.fromhex(identity) || joined texts of the batch)``, in hex.

    An empty batch leaves ``identity`` unchanged.  The value depends on the
    batch boundaries, as the engine state it identifies does.
    """
    text = "".join(map(_fingerprint_text, operations))
    if not text:
        return identity
    return hashlib.sha256(bytes.fromhex(identity) + text.encode("utf-8")).hexdigest()


class StreamCursor:
    """One hashing pass over an operation stream.

    Wraps an iterator (or iterable) and tracks ``offset`` (operations
    consumed) plus the incremental SHA-256 ``fingerprint`` of the consumed
    prefix: the hash of the concatenated UTF-8 fingerprint texts
    ``repr(encode_operation(op))`` of those operations.  The fingerprint is
    a pure function of the operation sequence — two streams agree on a
    prefix iff their cursors agree on ``(offset, fingerprint)`` — which is
    what makes offset-based checkpoint/resume sound without a materialised
    list on either side.

    :meth:`take` is the one read path: it hashes once per window, over the
    joined texts of the window's operations, and :meth:`skip` reads through
    it.  Because SHA-256 is incremental, the digest does not depend on how
    the stream is split into windows.
    """

    __slots__ = ("_iterator", "_digest", "offset")

    def __init__(self, operations: Iterable[UpdateOperation]) -> None:
        self._iterator = iter(operations)
        self._digest = hashlib.sha256()
        self.offset = 0

    @property
    def fingerprint(self) -> str:
        """Hex SHA-256 of the canonical encoding of the consumed prefix."""
        return self._digest.hexdigest()

    def take(self, count: int) -> List[UpdateOperation]:
        """Consume and return up to ``count`` operations (fewer at the end).

        ``stream.read`` trips before every operation, and the digest is
        updated once for the whole window.  If a fault (or the source)
        raises mid-window, the ``finally`` hashes exactly the operations
        consumed so far, so ``(offset, fingerprint)`` never runs ahead of or
        behind the stream.
        """
        iterator = self._iterator
        operations: List[UpdateOperation] = []
        texts: List[str] = []
        try:
            for _ in range(count):
                trip(STREAM_READ)
                operation = next(iterator, _END)
                if operation is _END:
                    break
                texts.append(_fingerprint_text(operation))
                operations.append(operation)
        finally:
            self._digest.update("".join(texts).encode("utf-8"))
            self.offset += len(texts)
        return operations

    def skip(self, count: int) -> int:
        """Consume up to ``count`` operations, discarding them; return how many.

        The discarded operations still flow through the fingerprint — this is
        the resume fast-forward: afterwards ``(offset, fingerprint)`` matches
        a checkpoint taken at the same position of the same stream.  Reads go
        through :meth:`take`, at most ``_SKIP_WINDOW`` operations at a time.
        """
        skipped = 0
        while skipped < count:
            wanted = min(count - skipped, _SKIP_WINDOW)
            read = len(self.take(wanted))
            skipped += read
            if read < wanted:
                break
        return skipped


def chunked(
    operations: Iterable[UpdateOperation], size: int
) -> Iterator[List[UpdateOperation]]:
    """Yield lists of at most ``size`` operations until the stream ends.

    The canonical batching loop: at any moment exactly one window is
    resident, whatever the stream length.
    """
    if size < 1:
        raise ValueError("chunk size must be at least 1")
    iterator = iter(operations)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


class OperationStream:
    """Base class of every stream the library returns (iterable + provenance).

    Subclasses implement :meth:`__iter__`: the list-backed
    :class:`~repro.updates.streams.UpdateStream`, the lazy temporal replay
    and the on-disk stream cache.  ``length_hint`` returns the operation
    count only when it is already known — it must never consume the stream.
    Deliberately **no** ``__len__`` here: sized consumers must go through
    :func:`stream_length_hint` and handle ``None``.
    """

    description: str = ""

    def __init__(
        self, *, description: str = "", metadata: Optional[Dict] = None
    ) -> None:
        self.description = description
        self._metadata: Dict = dict(metadata or {})

    def __iter__(self) -> Iterator[UpdateOperation]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def metadata(self) -> Dict:
        return self._metadata

    def length_hint(self) -> Optional[int]:
        return None

    def replayable(self) -> bool:
        """Whether :meth:`__iter__` supports more than one full pass.

        Default ``True``; streams backed by a one-shot source override.
        Multi-pass consumers (e.g. a competition running several algorithms
        over the same stream) must check this instead of discovering an
        exhausted iterator as a silent empty run.
        """
        return True

    # Conveniences shared by every rich stream (one pass over self each).
    def apply_all(self, graph) -> None:
        """Apply every operation in order to ``graph`` (mutates it in place)."""
        for operation in self:
            apply_update(graph, operation)

    def counts_by_kind(self) -> Dict:
        """Return ``{UpdateKind: count}`` (one pass over the stream)."""
        counts: Dict = {}
        for operation in self:
            counts[operation.kind] = counts.get(operation.kind, 0) + 1
        return counts

    def prefix(self, length: int) -> "OperationStream":
        """A lazy stream of only the first ``length`` operations."""
        return _PrefixStream(self, length)


class _PrefixStream(OperationStream):
    """First ``length`` operations of another stream, still lazy/replayable."""

    def __init__(self, base: OperationStream, length: int) -> None:
        # The raw dict, not the ``metadata`` property: a lazy base may
        # compute its summary keys with a full pass, and taking a prefix
        # must stay O(1).
        super().__init__(
            description=f"{base.description}[:{length}]",
            metadata=base._metadata,
        )
        self._base = base
        self._limit = length

    def __iter__(self) -> Iterator[UpdateOperation]:
        return islice(iter(self._base), self._limit)

    def length_hint(self) -> Optional[int]:
        base_hint = self._base.length_hint()
        if base_hint is None:
            return None
        return min(base_hint, self._limit)

    def replayable(self) -> bool:
        # A prefix is exactly as replayable as its base: a prefix of a
        # one-shot stream yields *different* operations on a second pass
        # (the drained source continues), which multi-pass consumers must
        # be able to detect.
        return self._base.replayable()


# --------------------------------------------------------------------- #
# Duck-typed readers (work on UpdateStream, OperationStream, lists, …)
# --------------------------------------------------------------------- #
def stream_length_hint(stream: Iterable[UpdateOperation]) -> Optional[int]:
    """Best-effort operation count without consuming ``stream``.

    Prefers a ``length_hint()`` method (the lazy protocol), falls back to
    ``len()`` for sized containers, and returns ``None`` for generators and
    unsized streams — callers must treat ``None`` as "unknown", never as 0.
    """
    hint = getattr(stream, "length_hint", None)
    if callable(hint):
        return hint()
    try:
        return len(stream)  # type: ignore[arg-type]
    except TypeError:
        return None


def stream_description(stream: Iterable[UpdateOperation]) -> str:
    """The stream's provenance description ('' when it carries none)."""
    return getattr(stream, "description", "") or ""
