"""Temporal workload ingestion: timestamped edge lists → lazy update streams.

The paper's experiments replay long real-world update sequences; the natural
source for such sequences is a *temporal graph* — a SNAP-style edge list
whose lines carry a timestamp (``u v t``, whitespace-separated, ``#``
comments).  Since the stream-protocol refactor every stage of this module is
**iterator-first**: a replay holds O(retention window) state, never O(stream),
so temporal datasets larger than RAM replay fine.

* :func:`iter_temporal_edge_list` is the streaming parser: a *replayable*
  event source that re-opens the file (gzip-transparent) on every pass and
  validates line by line (malformed lines, self loops and non-monotone
  timestamps raise :class:`~repro.exceptions.GraphError` with the offending
  line number).  :func:`read_temporal_edge_list` materialises it into a list
  and additionally supports ``unsorted="sort"``.
* :func:`temporal_update_stream` replays the events through a retention
  policy that synthesizes deletions — a **time window** (an interaction
  expires once the stream clock has advanced ``window`` past it) and/or a
  **capacity decay** (at most ``max_live`` interactions are kept, oldest
  evicted first), with optional garbage collection of isolated vertices so
  long runs churn *vertices* too (exercising slot recycling).  The result is
  a lazy, replayable :class:`TemporalUpdateStream` — operations are generated
  on the fly with only the live window resident.
* :func:`cached_temporal_stream` memoises the parsed/windowed stream on
  disk in a **chunked JSONL layout** readable as a lazy iterator, keyed by
  the source file's identity and the policy parameters, so replaying a large
  temporal dataset pays the parse cost once and the replay side never holds
  more than one chunk.
* :func:`synthetic_temporal_events` / :func:`iter_synthetic_temporal_events`
  generate deterministic hub-biased interaction sequences used by the
  workload catalog (:mod:`repro.experiments.datasets`), since the real SNAP
  temporal datasets are not redistributable inside this repository (see
  :mod:`repro.experiments.fetch` for downloading the real ones).

Every produced stream is *valid by construction*: operations are simulated
on a scratch :class:`~repro.graphs.dynamic_graph.DynamicGraph` while being
emitted, exactly like the random generators in :mod:`repro.updates.streams`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import GraphError, IntegrityError, UpdateError
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.durable import atomic_writer, makedirs
from repro.resilience.faults import CACHE_READ, trip
from repro.updates.operations import UpdateOperation, apply_update
from repro.updates.protocol import (
    OperationStream,
    decode_operation,
    encode_operation,
)

PathLike = Union[str, Path]

#: Bumped whenever the parser output or the stream cache layout changes, so
#: stale cache files are transparently regenerated instead of misread.
#: ``/2`` switched the cache from one monolithic JSON document to a chunked
#: JSONL layout readable as a lazy iterator; ``/3`` added the incremental
#: ``body_sha256`` digest to the header, so bit rot that still parses as
#: valid JSON is detected at the end of a replay instead of silently
#: feeding altered operations to the engine.
CACHE_FORMAT = "repro-temporal-stream/3"

#: Operations per line in the chunked stream cache: large enough to amortise
#: the JSON framing, small enough that a reader holds only a sliver of the
#: stream resident.
CACHE_CHUNK = 512

#: Bytes of the first line that the cache writer reserves for the header
#: (newline included).  The header is written into it last, padded with
#: spaces, which JSON ignores.
_HEADER_WIDTH = 4096


@dataclass(frozen=True)
class TemporalEdge:
    """One timestamped interaction ``(u, v)`` at time ``timestamp``."""

    u: int
    v: int
    timestamp: float

    def canonical(self) -> Tuple[int, int]:
        """The undirected endpoint pair with the smaller id first."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #
def _open_text(path: Path):
    """Open a possibly gzip-compressed text file (SNAP ships ``.txt.gz``)."""
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def _parse_event_line(
    path: Path,
    line_number: int,
    raw_line: str,
    comment_prefix: str,
    self_loops: str,
) -> Optional[TemporalEdge]:
    """Parse one ``u v t`` line; ``None`` for comments/blanks/skipped loops.

    The single implementation of the per-line validation (shared by the
    streaming source and the sort-policy reader, which cannot stream):
    malformed fields raise :class:`~repro.exceptions.GraphError` carrying
    ``path:line_number``; monotonicity is the caller's concern.
    """
    line = raw_line.strip()
    if not line or line.startswith(comment_prefix):
        return None
    parts = line.split()
    if len(parts) < 3:
        raise GraphError(
            f"{path}:{line_number}: expected 'u v timestamp', got {line!r}"
        )
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphError(
            f"{path}:{line_number}: vertex ids must be integers, got {line!r}"
        ) from exc
    try:
        timestamp = float(parts[2])
    except ValueError as exc:
        raise GraphError(
            f"{path}:{line_number}: timestamp must be numeric, got {line!r}"
        ) from exc
    if u == v:
        if self_loops == "error":
            raise GraphError(f"{path}:{line_number}: self loop on vertex {u}")
        return None
    return TemporalEdge(u, v, timestamp)


class TemporalEventSource:
    """A replayable, constant-memory iterator over a temporal edge-list file.

    Each :meth:`__iter__` re-opens the file and yields validated
    :class:`TemporalEdge` events one line at a time; nothing is kept between
    events, so the source works for files far larger than RAM.  Validation
    matches :func:`read_temporal_edge_list` except that ``unsorted="sort"``
    is rejected (sorting inherently requires materialising — use
    :func:`read_temporal_edge_list` for small unsorted files).
    """

    def __init__(
        self,
        path: PathLike,
        *,
        comment_prefix: str = "#",
        self_loops: str = "error",
        unsorted: str = "error",
    ) -> None:
        if self_loops not in ("error", "skip"):
            raise ValueError(
                f"self_loops must be 'error' or 'skip', got {self_loops!r}"
            )
        if unsorted not in ("error", "skip"):
            raise ValueError(
                "a streaming event source cannot sort (that would materialise "
                "the file); unsorted must be 'error' or 'skip', got "
                f"{unsorted!r} — use read_temporal_edge_list for 'sort'"
            )
        self.path = Path(path)
        self.comment_prefix = comment_prefix
        self.self_loops = self_loops
        self.unsorted = unsorted

    def __iter__(self) -> Iterator[TemporalEdge]:
        comment_prefix = self.comment_prefix
        self_loops = self.self_loops
        unsorted = self.unsorted
        path = self.path
        last_timestamp: Optional[float] = None
        with _open_text(path) as handle:
            for line_number, raw_line in enumerate(handle, start=1):
                event = _parse_event_line(
                    path, line_number, raw_line, comment_prefix, self_loops
                )
                if event is None:
                    continue
                if last_timestamp is not None and event.timestamp < last_timestamp:
                    if unsorted == "error":
                        raise GraphError(
                            f"{path}:{line_number}: timestamp "
                            f"{event.timestamp:g} is smaller than its "
                            f"predecessor {last_timestamp:g} (pass "
                            "unsorted='sort' to read_temporal_edge_list to "
                            "accept and sort)"
                        )
                    continue
                last_timestamp = event.timestamp
                yield event


def iter_temporal_edge_list(
    path: PathLike,
    *,
    comment_prefix: str = "#",
    self_loops: str = "error",
    unsorted: str = "error",
) -> TemporalEventSource:
    """Streaming parser for a SNAP-style timestamped edge list (``u v t``).

    Returns a replayable :class:`TemporalEventSource`; nothing is read until
    it is iterated, and each pass holds one line at a time.  See
    :func:`read_temporal_edge_list` for the materialising variant (which
    also supports ``unsorted="sort"``).
    """
    return TemporalEventSource(
        path,
        comment_prefix=comment_prefix,
        self_loops=self_loops,
        unsorted=unsorted,
    )


def read_temporal_edge_list(
    path: PathLike,
    *,
    comment_prefix: str = "#",
    self_loops: str = "error",
    unsorted: str = "error",
) -> List[TemporalEdge]:
    """Parse a SNAP-style timestamped edge list into a list of events.

    Parameters
    ----------
    path:
        File to read.  Lines starting with ``comment_prefix`` and blank
        lines are skipped.
    self_loops:
        ``"error"`` (default) raises on ``u == v``; ``"skip"`` drops the
        line (SNAP temporal dumps occasionally contain self-interactions).
    unsorted:
        ``"error"`` (default) raises on a timestamp smaller than its
        predecessor; ``"sort"`` accepts the file and stably sorts the events
        by timestamp before returning.

    Returns
    -------
    list of TemporalEdge
        The validated events, in non-decreasing timestamp order.

    Raises
    ------
    GraphError
        On malformed lines (fewer than three fields, non-integer vertex ids,
        non-numeric timestamps), on self loops under ``self_loops="error"``,
        and on non-monotone timestamps under ``unsorted="error"``.  Every
        message carries ``path:line_number``.
    """
    if self_loops not in ("error", "skip"):
        raise ValueError(f"self_loops must be 'error' or 'skip', got {self_loops!r}")
    if unsorted not in ("error", "sort"):
        raise ValueError(f"unsorted must be 'error' or 'sort', got {unsorted!r}")
    if unsorted == "sort":
        # Sorting requires the whole file anyway: parse without the
        # monotonicity constraint, then stably sort.
        events = _read_all_unordered(
            Path(path), comment_prefix=comment_prefix, self_loops=self_loops
        )
        events.sort(key=lambda event: event.timestamp)
        return events
    return list(
        TemporalEventSource(
            path,
            comment_prefix=comment_prefix,
            self_loops=self_loops,
            unsorted=unsorted,
        )
    )


def _read_all_unordered(
    path: Path, *, comment_prefix: str, self_loops: str
) -> List[TemporalEdge]:
    """Parse every line (no monotonicity constraint) for the 'sort' policy."""
    events: List[TemporalEdge] = []
    with _open_text(path) as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            event = _parse_event_line(
                path, line_number, raw_line, comment_prefix, self_loops
            )
            if event is not None:
                events.append(event)
    return events


def write_temporal_edge_list(
    events: Iterable[TemporalEdge], path: PathLike, *, header: Optional[str] = None
) -> None:
    """Write events as a SNAP-style ``u v t`` file (the parser's inverse).

    Accepts any iterable (a generator streams straight to disk).  Timestamps
    round-trip exactly: integral values (the SNAP norm — unix epochs) are
    written as integers, anything else with ``repr``'s shortest-exact float
    representation.  Fixed-precision formats like ``%g`` would collapse
    distinct epoch-scale timestamps.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for event in events:
            timestamp = event.timestamp
            text = (
                str(int(timestamp))
                if float(timestamp).is_integer()
                else repr(float(timestamp))
            )
            handle.write(f"{event.u}\t{event.v}\t{text}\n")


# --------------------------------------------------------------------- #
# Windowing / decay
# --------------------------------------------------------------------- #
class TemporalUpdateStream(OperationStream):
    """A lazy replay of timestamped events through a retention policy.

    Iterating generates the update operations on the fly; the only resident
    state is the scratch graph of *currently live* interactions plus the
    expiry queue — O(retention window), not O(stream).  The stream is
    replayable whenever its event source is (a list, or a
    :class:`TemporalEventSource`).

    ``metadata`` lazily includes the replay summary (``duplicates_refreshed``,
    ``final_vertices``, ``final_edges``, ``events``); reading it before any
    complete pass triggers one summary pass.  :meth:`count` likewise counts
    via one pass and caches the result; :meth:`length_hint` never iterates.
    Deliberately **no** ``__len__``: ``list(stream)`` probes ``len()`` for
    preallocation, which would silently burn a hidden pass (and consume a
    one-shot event source) before the real iteration — sized consumers must
    ask :meth:`count` explicitly.
    """

    def __init__(
        self,
        events: Union[Sequence[TemporalEdge], Iterable[TemporalEdge]],
        *,
        window: Optional[float] = None,
        max_live: Optional[int] = None,
        gc_isolated: bool = True,
        description: str = "temporal",
        extra_metadata: Optional[Dict] = None,
    ) -> None:
        if window is not None and window <= 0:
            raise UpdateError("window must be positive when given")
        if max_live is not None and max_live < 1:
            raise UpdateError("max_live must be at least 1 when given")
        self._events = events
        self.window = window
        self.max_live = max_live
        self.gc_isolated = gc_isolated
        self._length: Optional[int] = None
        # The description carries the *policy* only — never anything that
        # depends on how the events are supplied (a list knows its length, a
        # streaming source does not), because checkpoint resume compares
        # descriptions: the same dataset windowed the same way must resume
        # regardless of which equally-valid construction produced it.
        super().__init__(
            description=(
                f"{description}(window={window}, max_live={max_live}, "
                f"gc_isolated={gc_isolated})"
            ),
            metadata={
                "window": window,
                "max_live": max_live,
                "gc_isolated": gc_isolated,
                **(extra_metadata or {}),
            },
        )
        events_hint = len(events) if hasattr(events, "__len__") else None
        if events_hint is not None:
            self._metadata["events"] = events_hint

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[UpdateOperation]:
        return self._generate()

    def _generate(self) -> Iterator[UpdateOperation]:
        window = self.window
        max_live = self.max_live
        gc_isolated = self.gc_isolated
        scratch = DynamicGraph()
        emitted = 0

        def expire(key: Tuple[int, int]) -> Iterator[UpdateOperation]:
            u, v = key
            operation = UpdateOperation.delete_edge(u, v)
            apply_update(scratch, operation)
            yield operation
            if gc_isolated:
                for endpoint in key:
                    if scratch.degree(endpoint) == 0:
                        operation = UpdateOperation.delete_vertex(endpoint)
                        apply_update(scratch, operation)
                        yield operation

        # Live interactions in expiry order: key -> insertion timestamp.  A
        # refresh moves the key to the end, so values stay non-decreasing and
        # the oldest entry is always first.
        live: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        duplicates = 0
        events_seen = 0
        clock: Optional[float] = None
        for event in self._events:
            if clock is not None and event.timestamp < clock:
                raise UpdateError(
                    f"event timestamps must be non-decreasing, got "
                    f"{event.timestamp:g} after {clock:g}"
                )
            clock = event.timestamp
            events_seen += 1
            if window is not None:
                while live:
                    key, inserted_at = next(iter(live.items()))
                    if clock - inserted_at < window:
                        break
                    del live[key]
                    for operation in expire(key):
                        emitted += 1
                        yield operation
            key = event.canonical()
            if key in live:
                live[key] = clock
                live.move_to_end(key)
                duplicates += 1
                continue
            for endpoint in key:
                if not scratch.has_vertex(endpoint):
                    operation = UpdateOperation.insert_vertex(endpoint)
                    apply_update(scratch, operation)
                    emitted += 1
                    yield operation
            operation = UpdateOperation.insert_edge(*key)
            apply_update(scratch, operation)
            emitted += 1
            yield operation
            live[key] = clock
            if max_live is not None and len(live) > max_live:
                oldest, _ = live.popitem(last=False)
                for operation in expire(oldest):
                    emitted += 1
                    yield operation
        # A completed pass determines the replay summary and the length.
        self._length = emitted
        self._metadata.update(
            {
                "events": events_seen,
                "duplicates_refreshed": duplicates,
                "final_vertices": scratch.num_vertices,
                "final_edges": scratch.num_edges,
            }
        )

    # ------------------------------------------------------------------ #
    def replayable(self) -> bool:
        """Whether the event source supports another pass.

        A one-shot source (a generator, or any object whose ``iter()`` is
        itself) must never be consumed by a hidden bookkeeping pass — only
        by the caller's single real iteration.
        """
        events = self._events
        return iter(events) is not events

    @property
    def metadata(self) -> Dict:
        """Provenance + replay summary.

        The summary keys (``duplicates_refreshed``, ``final_vertices``,
        ``final_edges``, ``events``) appear once a full pass has completed.
        Reading them earlier triggers one summary pass — but only over a
        *replayable* event source; with a one-shot source the dict simply
        holds the static keys until the caller's own pass finishes (a
        hidden pass would silently drain the source).
        """
        if "final_vertices" not in self._metadata and self.replayable():
            self._summary_pass()
        return self._metadata

    def length_hint(self) -> Optional[int]:
        return self._length

    def count(self) -> int:
        """The stream's operation count (one counting pass, then cached).

        Raises :class:`TypeError` for a one-shot event source whose pass
        has not completed yet — counting would consume the caller's only
        pass.
        """
        if self._length is None:
            if not self.replayable():
                raise TypeError(
                    "cannot count a stream over a one-shot event source "
                    "before its single pass has completed"
                )
            self._summary_pass()
        assert self._length is not None
        return self._length

    def _summary_pass(self) -> None:
        for _ in self._generate():
            pass


def temporal_update_stream(
    events: Union[Sequence[TemporalEdge], Iterable[TemporalEdge]],
    *,
    window: Optional[float] = None,
    max_live: Optional[int] = None,
    gc_isolated: bool = True,
    description: str = "temporal",
    extra_metadata: Optional[Dict] = None,
) -> TemporalUpdateStream:
    """Replay timestamped events through a retention policy, lazily.

    Each event inserts its interaction edge (creating unseen endpoints as
    vertex insertions first); deletions are synthesized from the timestamps:

    * ``window``: an interaction expires as soon as the stream clock reaches
      ``timestamp + window`` (checked before each arriving event), the
      temporal-graph analogue of :func:`~repro.updates.streams.sliding_window_stream`;
    * ``max_live``: at most this many interactions stay live — the oldest is
      evicted when the cap is exceeded (capacity decay);
    * both ``None``: pure insertion replay (the graph only grows).

    A repeated interaction while the previous one is still live *refreshes*
    its expiry instead of emitting anything (the dominant redundancy in real
    temporal dumps).  With ``gc_isolated=True`` an endpoint left with degree
    zero by an expiry is deleted too, so long replays churn vertices and the
    engine's slot free-list genuinely recycles.

    Returns a lazy :class:`TemporalUpdateStream`: operations are generated
    while iterating with only the retention window resident, and the stream
    is replayable whenever ``events`` is (a sequence or a
    :class:`TemporalEventSource`; a one-shot generator gives a one-shot
    stream).

    Raises
    ------
    UpdateError
        On invalid policy parameters (eagerly), or — during iteration — on
        events whose timestamps decrease (feed files through
        :func:`iter_temporal_edge_list` first).
    """
    return TemporalUpdateStream(
        events,
        window=window,
        max_live=max_live,
        gc_isolated=gc_isolated,
        description=description,
        extra_metadata=extra_metadata,
    )


# --------------------------------------------------------------------- #
# Chunked on-disk stream cache
# --------------------------------------------------------------------- #
def _cache_key(path: Path, policy: Dict[str, object]) -> str:
    stat = path.stat()
    identity = json.dumps(
        {
            "format": CACHE_FORMAT,
            "path": str(path.resolve()),
            "size": stat.st_size,
            "mtime_ns": stat.st_mtime_ns,
            "policy": policy,
        },
        sort_keys=True,
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def _entry_digest(path: Path, policy: Dict[str, object]) -> str:
    """Filename component covering the source *path* and policy — not content.

    The cache *filename* must be stable across source-file edits (the full
    key, which also covers size/mtime, is validated inside the entry and a
    stale entry is rebuilt in place — embedding it in the name would orphan
    a dataset-sized file on every edit), but must still distinguish
    same-stem sources sharing an explicit ``cache_dir``, hence the resolved
    path in the digest.
    """
    identity = json.dumps(
        {"format": CACHE_FORMAT, "path": str(path.resolve()), "policy": policy},
        sort_keys=True,
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


class CachedOperationStream(OperationStream):
    """Lazy reader over a chunked stream-cache file (JSONL).

    Line 1 is the header document (format, key, description, metadata,
    operation count, body digest), padded with spaces to a fixed width by
    the writer; every further line is a JSON array of up to
    :data:`CACHE_CHUNK` encoded operations.  Iteration decodes one line at a
    time — O(chunk) resident, replayable, and cheap to skip through.

    Only the header is validated when the cache is opened (validating the
    body would cost a full read per hit); corruption *behind* the header —
    truncation, bit rot — therefore surfaces lazily, at the point of replay
    where the damage sits: structurally broken chunks raise a
    :class:`~repro.exceptions.GraphError` naming the file, and damage that
    still parses (flipped bits inside valid JSON) is caught at end of
    iteration by the header's incremental ``body_sha256`` digest, which
    raises :class:`~repro.exceptions.IntegrityError`.  ``__len__`` is safe
    here (unlike the unsized lazy streams): the count comes straight from
    the header, which the hit-validation requires to be present.
    """

    def __init__(self, path: Path, header: Dict) -> None:
        metadata = dict(header.get("metadata", {}))
        metadata["cache_path"] = str(path)
        super().__init__(description=header.get("description", ""), metadata=metadata)
        self.path = path
        self._length = int(header["num_operations"])
        self._body_sha256 = header.get("body_sha256")

    def _chunks(self) -> Iterator[List[UpdateOperation]]:
        """Read, verify and decode the cache body one chunk line at a time.

        All per-chunk work — file I/O, the ``cache.read`` fault point, the
        incremental body digest and JSON decode — lives here.  The
        end-of-stream count and digest checks run after the last chunk,
        inside the same stage.
        """
        count = 0
        body_digest = hashlib.sha256() if self._body_sha256 is not None else None
        with self.path.open("r", encoding="utf-8") as handle:
            handle.readline()  # header
            for line in handle:
                # The ``cache.read`` fault point fires per chunk line,
                # *outside* the decode try-block below — an injected fault
                # must surface as the crash it simulates, never be
                # misreported as cache corruption.
                trip(CACHE_READ)
                if not line.strip():
                    continue
                if body_digest is not None:
                    body_digest.update(line.encode("utf-8"))
                # Decode the whole chunk *before* yielding: the try block
                # must never contain a yield, or an exception thrown into
                # the generator by the consumer (an engine error mid-apply)
                # would be misreported as cache corruption.  The broad
                # except matches everything a malformed-but-valid-JSON entry
                # can raise out of decode_operation.
                try:
                    decoded = [decode_operation(e) for e in json.loads(line)]
                except (ValueError, TypeError, IndexError, KeyError, UpdateError) as exc:
                    raise GraphError(
                        f"stream cache entry {self.path} is corrupt mid-body "
                        f"({exc!r}); delete the file to rebuild it from the "
                        "source dataset"
                    ) from exc
                yield decoded
                count += len(decoded)
        if count != self._length:
            raise GraphError(
                f"stream cache entry {self.path} is truncated: header "
                f"promises {self._length} operations, file holds {count}; "
                "delete the file to rebuild it from the source dataset"
            )
        if body_digest is not None and body_digest.hexdigest() != self._body_sha256:
            raise IntegrityError(
                f"stream cache entry {self.path} failed its body integrity "
                f"check: header digest {self._body_sha256} != observed "
                f"{body_digest.hexdigest()}; delete the file to rebuild it "
                "from the source dataset",
                source=self.path,
            )

    def __iter__(self) -> Iterator[UpdateOperation]:
        for decoded in self._chunks():
            yield from decoded

    def length_hint(self) -> Optional[int]:
        return self._length

    def __len__(self) -> int:
        return self._length


def _read_cache_header(path: Path) -> Optional[Dict]:
    """The header document of a cache file, or ``None`` when unreadable."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
    except (OSError, ValueError):
        return None
    return header if isinstance(header, dict) else None


def _write_cache_streaming(
    cache_path: Path, key: str, stream: TemporalUpdateStream
) -> Dict:
    """Write ``stream`` into the chunked cache layout, one pass, atomically.

    Operations flow straight from the generator into the atomic writer's
    temp file in :data:`CACHE_CHUNK`-sized lines, behind a blank first line
    of :data:`_HEADER_WIDTH` bytes.  The header needs the operation count,
    the replay summary and the body digest, which only exist after that
    pass, so the writer then seeks back and writes the header into the
    reserved line.  Memory stays O(chunk), every body byte is written once,
    and a crash never leaves a partial entry under the cache path.
    """
    makedirs(cache_path.parent)
    num_operations = 0
    # The body digest is accumulated line-by-line as the chunks are
    # written — the read side replays the same incremental hash, so neither
    # direction ever needs the body resident to verify it.
    body_digest = hashlib.sha256()
    with atomic_writer(cache_path) as out:
        out.write(b" " * (_HEADER_WIDTH - 1) + b"\n")
        chunk: List = []

        def emit(entries: List) -> None:
            data = (json.dumps(entries, separators=(",", ":")) + "\n").encode("utf-8")
            body_digest.update(data)
            out.write(data)

        for operation in stream:
            chunk.append(encode_operation(operation))
            num_operations += 1
            if len(chunk) >= CACHE_CHUNK:
                emit(chunk)
                chunk = []
        if chunk:
            emit(chunk)
        # The pass above completed, so the stream's summary metadata is set.
        header = {
            "format": CACHE_FORMAT,
            "key": key,
            "description": stream.description,
            "metadata": {
                k: v for k, v in stream._metadata.items() if k != "cache_path"
            },
            "num_operations": num_operations,
            "body_sha256": body_digest.hexdigest(),
        }
        line = json.dumps(header).encode("utf-8")
        if len(line) >= _HEADER_WIDTH:
            raise GraphError(
                f"stream cache header of {len(line)} bytes does not fit the "
                f"{_HEADER_WIDTH - 1} bytes reserved for it"
            )
        out.seek(0)
        out.write(line.ljust(_HEADER_WIDTH - 1) + b"\n")
    return header


def cached_temporal_stream(
    path: PathLike,
    *,
    cache_dir: Optional[PathLike] = None,
    comment_prefix: str = "#",
    self_loops: str = "error",
    unsorted: str = "error",
    window: Optional[float] = None,
    max_live: Optional[int] = None,
    gc_isolated: bool = True,
) -> CachedOperationStream:
    """Parse + window a temporal edge list, memoised on disk, read lazily.

    The cache key covers the source file's resolved path, size and mtime
    plus every policy parameter, so editing the file or changing the policy
    transparently regenerates the stream; a cache entry whose *header* is
    corrupt or version-mismatched is silently rebuilt (corruption behind
    the header surfaces lazily as a :class:`~repro.exceptions.GraphError`
    during replay — see :class:`CachedOperationStream`).  Both directions
    are constant-memory:
    a miss streams the windowed replay into chunked JSONL (one pass,
    O(window + chunk) resident) and the returned
    :class:`CachedOperationStream` reads it back one chunk at a time.  The
    returned stream's metadata records ``cache: "hit"`` or ``cache: "miss"``
    and the cache file path.

    The cache directory defaults to ``<source dir>/.stream-cache``.
    """
    path = Path(path)
    policy: Dict[str, object] = {
        "comment_prefix": comment_prefix,
        "self_loops": self_loops,
        "unsorted": unsorted,
        "window": window,
        "max_live": max_live,
        "gc_isolated": gc_isolated,
    }
    key = _cache_key(path, policy)
    directory = (
        Path(cache_dir) if cache_dir is not None else path.parent / ".stream-cache"
    )
    # One file per (source path, policy): editing the source changes `key`
    # but not the filename, so the rebuild overwrites the stale entry
    # instead of accumulating orphaned dataset-sized files.
    cache_path = directory / f"{path.stem}-{_entry_digest(path, policy)[:16]}.jsonl"
    if cache_path.exists():
        header = _read_cache_header(cache_path)
        if (
            header is not None
            and header.get("format") == CACHE_FORMAT
            and header.get("key") == key
            and isinstance(header.get("num_operations"), int)
            and isinstance(header.get("body_sha256"), str)
        ):
            reader = CachedOperationStream(cache_path, header)
            reader.metadata["cache"] = "hit"
            return reader
    if unsorted == "sort":
        events: Iterable[TemporalEdge] = read_temporal_edge_list(
            path,
            comment_prefix=comment_prefix,
            self_loops=self_loops,
            unsorted="sort",
        )
    else:
        events = iter_temporal_edge_list(
            path,
            comment_prefix=comment_prefix,
            self_loops=self_loops,
            unsorted=unsorted,
        )
    stream = temporal_update_stream(
        events,
        window=window,
        max_live=max_live,
        gc_isolated=gc_isolated,
        description=path.stem,
    )
    header = _write_cache_streaming(cache_path, key, stream)
    reader = CachedOperationStream(cache_path, header)
    reader.metadata["cache"] = "miss"
    return reader


# --------------------------------------------------------------------- #
# Synthetic temporal events (for the workload catalog)
# --------------------------------------------------------------------- #
def iter_synthetic_temporal_events(
    num_events: int,
    *,
    num_vertices: int,
    seed: int = 0,
    hub_fraction: float = 0.05,
    hub_bias: float = 0.6,
    max_step: int = 3,
) -> Iterator[TemporalEdge]:
    """Generator form of :func:`synthetic_temporal_events` (constant memory).

    Deterministic for a given parameter set; stream it straight into
    :func:`write_temporal_edge_list` or :func:`temporal_update_stream` to
    build arbitrarily long workloads without materialising the event list.
    """
    import random

    if num_vertices < 2:
        raise UpdateError("num_vertices must be at least 2")
    if not 0.0 < hub_fraction <= 1.0:
        raise UpdateError("hub_fraction must lie in (0, 1]")
    if not 0.0 <= hub_bias <= 1.0:
        raise UpdateError("hub_bias must lie in [0, 1]")
    rng = random.Random(seed)
    num_hubs = max(1, int(num_vertices * hub_fraction))
    produced = 0
    clock = 0
    while produced < num_events:
        clock += rng.randint(0, max_step)
        if rng.random() < hub_bias:
            u = rng.randrange(num_hubs)
        else:
            u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        produced += 1
        yield TemporalEdge(u, v, float(clock))


def synthetic_temporal_events(
    num_events: int,
    *,
    num_vertices: int,
    seed: int = 0,
    hub_fraction: float = 0.05,
    hub_bias: float = 0.6,
    max_step: int = 3,
) -> List[TemporalEdge]:
    """Generate a deterministic hub-biased timestamped interaction sequence.

    A ``hub_bias`` fraction of interactions touch the small ``hub_fraction``
    head of the id space (the skew of real communication graphs); timestamps
    advance by a random step in ``[0, max_step]`` so windows expire a varying
    number of interactions per tick.  Used by the temporal workload catalog
    as the stand-in for the non-redistributable SNAP temporal datasets.
    """
    return list(
        iter_synthetic_temporal_events(
            num_events,
            num_vertices=num_vertices,
            seed=seed,
            hub_fraction=hub_fraction,
            hub_bias=hub_bias,
            max_step=max_step,
        )
    )
