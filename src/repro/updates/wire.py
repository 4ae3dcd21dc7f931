"""Wire adapter: operation streams over newline-delimited JSON sockets.

The service gateway (:mod:`repro.service`) speaks NDJSON — one JSON object
per line — because it composes with every stream tool in existence and
because framing by newline keeps the reader allocation-bounded.  This module
is the *protocol adapter* between that wire form and the in-memory stream
protocol of :mod:`repro.updates.protocol`:

* operations cross the wire in the pipeline's canonical encoding
  (:func:`~repro.updates.protocol.encode_operation`), so a socket ingest,
  a stream-cache line and a fingerprinted checkpoint prefix all agree on
  one byte-level representation of an update;
* :func:`operations_from_wire` / :func:`operations_to_wire` convert whole
  batches with validation errors reported as
  :class:`~repro.exceptions.WireError` (never a bare ``KeyError`` from a
  hostile payload);
* :func:`encode_line` / :func:`decode_line` are the framing layer: compact
  JSON, one object per line, with a hard line-size cap — a client cannot
  make the server buffer an unbounded line.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Union

from repro.exceptions import UpdateError, WireError
from repro.updates.operations import _DELETE_VERTEX, _INSERT_VERTEX, UpdateOperation
from repro.updates.protocol import decode_operation, encode_operation

#: Hard cap on one NDJSON line (requests *and* replies).  Large ingests are
#: expected to arrive as many lines of bounded batches, not one giant line —
#: the bound is what keeps a hostile client from ballooning server memory.
MAX_LINE_BYTES = 1 << 20


def encode_line(document: Dict) -> bytes:
    """Encode one wire message: compact JSON + newline, size-capped."""
    try:
        raw = json.dumps(document, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"cannot encode wire message: {exc}") from exc
    if len(raw) > MAX_LINE_BYTES:
        raise WireError(
            f"wire message of {len(raw)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line cap; split the batch"
        )
    return raw + b"\n"


def decode_line(line: Union[bytes, str]) -> Dict:
    """Decode one wire line into a message dict (strict).

    Raises :class:`~repro.exceptions.WireError` on oversized lines, invalid
    UTF-8/JSON and non-object documents — the gateway turns this into an
    error reply instead of dying.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise WireError(
                f"wire line of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte cap"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"wire line is not valid UTF-8: {exc}") from exc
    try:
        document = json.loads(line)
    except ValueError as exc:
        raise WireError(f"wire line is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise WireError(
            f"wire message must be a JSON object, got {type(document).__name__}"
        )
    return document


def operations_to_wire(operations: Iterable[UpdateOperation]) -> List[List]:
    """Encode operations into their canonical wire entries."""
    return [encode_operation(operation) for operation in operations]


def operations_from_wire(entries: Sequence) -> List[UpdateOperation]:
    """Decode wire entries into operations, validating every one.

    A malformed entry names its batch index in the error, so a client can
    fix exactly the operation the server rejected.  So does an entry with a
    vertex label that is not an int, str or bool: no checkpoint could hold
    it (the rule of :meth:`~repro.graphs.dynamic_graph.DynamicGraph.to_payload`),
    and an unhashable one could not even be applied.  An entry with more
    fields than its tag takes, and a vertex insertion whose neighbours are
    not an array or name the vertex itself or one vertex twice, are refused
    too: no graph could apply them, so admitting one would fail the batch
    that holds it.  These checks live here, not in
    :func:`~repro.updates.protocol.decode_operation`, which the stream-cache
    reader calls once per operation on trusted input.
    """
    if not isinstance(entries, (list, tuple)):
        raise WireError(
            f"operation batch must be a JSON array, got {type(entries).__name__}"
        )
    operations: List[UpdateOperation] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or not entry:
            raise WireError(
                f"operation #{index} must be a non-empty array, got {entry!r}"
            )
        try:
            operation = decode_operation(entry)
        except (ValueError, TypeError, IndexError, UpdateError) as exc:
            raise WireError(f"operation #{index} is malformed: {exc}") from exc
        kind = operation.kind
        fields = 2 if kind is _DELETE_VERTEX else 3
        if len(entry) > fields:
            raise WireError(
                f"operation #{index} has {len(entry)} fields, but "
                f"{entry[0]!r} takes {fields}: {entry!r}"
            )
        for label in operation.touched_vertices():
            if not isinstance(label, (int, str)):
                raise WireError(
                    f"operation #{index} has vertex label {label!r} of type "
                    f"{type(label).__name__}: only int, str and bool labels "
                    "are accepted"
                )
        if kind is _INSERT_VERTEX:
            neighbors = operation.neighbors
            if not isinstance(entry[2], (list, tuple)):
                raise WireError(
                    f"operation #{index} must list its neighbours in an array, "
                    f"got {entry[2]!r}"
                )
            if operation.vertex in neighbors:
                raise WireError(
                    f"operation #{index} lists vertex {operation.vertex!r} as "
                    "its own neighbour (a self loop)"
                )
            if len(set(neighbors)) != len(neighbors):
                raise WireError(
                    f"operation #{index} repeats a neighbour in {entry[2]!r}"
                )
        operations.append(operation)
    return operations
