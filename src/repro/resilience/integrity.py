"""Embedded SHA-256 digests for durable artifacts.

Checkpoints, snapshots and stream-cache entries are JSON documents written
atomically (temp file + fsync + rename), which protects against *torn*
writes — but nothing previously protected against the bytes changing
*after* the write: bit rot, truncation by an external tool, a well-meaning
editor, or a crash in a filesystem without rename barriers.  Replaying a
corrupt checkpoint silently poisons every downstream measurement, so in
the spirit of error-detecting codes each artifact now carries enough
redundancy to *detect* corruption on load.

The scheme is deliberately minimal: the digest of a document is the
SHA-256 of its canonical JSON serialisation (sorted keys, no whitespace)
**excluding** the digest field itself.  :func:`write_document` encodes a
document once in that canonical form, hashes exactly those bytes and
writes them with the digest added as one more member;
:func:`verify_document` checks it and raises
:class:`~repro.exceptions.IntegrityError` on mismatch.  A writer may hand
over a member it has already encoded as a :class:`Fragment`, which the
canonical encoding emits verbatim.  Canonical serialisation makes the
digest independent of key order and formatting, so re-writing an artifact
with a different JSON encoder (say with ``indent=2``) does not invalidate
it — only changing the *data* does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, BinaryIO, Dict, Optional

from repro.exceptions import IntegrityError
from repro.resilience.faults import trip

#: Key under which the digest is embedded in artifact documents.
DIGEST_KEY = "sha256"

#: The canonical rule: sorted keys, no whitespace, ASCII-escaped strings.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Fragment:
    """Canonical JSON text that :func:`canonical_bytes` emits verbatim.

    Lets a writer splice in a member it has already encoded (the graph's
    adjacency rows, see
    :meth:`~repro.graphs.dynamic_graph.DynamicGraph.adjacency_json`)
    instead of handing over the value to encode again.  The text must be
    what the canonical rule would produce for that value; the document's
    bytes and digest are then those of the plain document.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _canonical_text(value: Any) -> str:
    """Encode ``value`` by the canonical rule, emitting fragments verbatim.

    Plain dicts with string keys are walked member by member, because a
    fragment may sit anywhere beneath them; every other value is one call
    of the C encoder.  The result equals ``_CANONICAL.encode`` of the same
    document with each fragment replaced by its value.
    """
    if type(value) is Fragment:
        return value.text
    if type(value) is dict and all(type(key) is str for key in value):
        members = [
            f"{_CANONICAL.encode(key)}:{_canonical_text(item)}"
            for key, item in sorted(value.items())
        ]
        return "{%s}" % ",".join(members)
    return _CANONICAL.encode(value)


def canonical_bytes(document: Dict[str, Any]) -> bytes:
    """The canonical serialisation of ``document`` (digest field excluded)."""
    body = {key: value for key, value in document.items() if key != DIGEST_KEY}
    return _canonical_text(body).encode("utf-8")


def document_digest(document: Dict[str, Any]) -> str:
    """Hex SHA-256 of the canonical serialisation of ``document``."""
    return hashlib.sha256(canonical_bytes(document)).hexdigest()


def write_document(
    stream: BinaryIO, document: Dict[str, Any], *, fault_point: str
) -> None:
    """Write ``document`` to the binary ``stream`` with its digest embedded.

    The document is JSON-encoded exactly once: the canonical body is hashed
    and the digest is spliced in as the last member, so the bytes written
    are the canonical body plus ``"sha256":"<hex>"`` and
    :func:`verify_document` re-derives the same digest from the parsed
    document.  ``fault_point`` is tripped (:func:`~repro.resilience.faults.trip`)
    with half the bytes written — the torn-write scenario of the atomic
    writers.
    """
    body = canonical_bytes(document)
    stamp = f'"{DIGEST_KEY}":"{hashlib.sha256(body).hexdigest()}"}}'.encode("ascii")
    data = body[:-1] + (b"," if body != b"{}" else b"") + stamp
    half = len(data) // 2
    stream.write(data[:half])
    trip(fault_point)
    stream.write(data[half:])


def verify_document(
    document: Dict[str, Any],
    *,
    source: Optional[object] = None,
    required: bool = True,
) -> Dict[str, Any]:
    """Check the embedded digest of ``document``; raise on absence or mismatch.

    With ``required=False`` a document without a digest passes (for formats
    whose older versions predate integrity stamping); a *present but wrong*
    digest always raises.
    """
    stored = document.get(DIGEST_KEY)
    if stored is None:
        if required:
            raise IntegrityError(
                "artifact carries no integrity digest"
                + (f" ({source})" if source is not None else ""),
                source=source,
            )
        return document
    actual = document_digest(document)
    if stored != actual:
        raise IntegrityError(
            "artifact failed its integrity check: stored digest "
            f"{stored!r} != computed {actual!r}"
            + (f" ({source})" if source is not None else ""),
            source=source,
        )
    return document
