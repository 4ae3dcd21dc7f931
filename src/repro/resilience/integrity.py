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
:class:`~repro.exceptions.IntegrityError` on mismatch.  Canonical
serialisation makes the digest independent of key order and formatting,
so re-writing an artifact with a different JSON encoder (say with
``indent=2``) does not invalidate it — only changing the *data* does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, BinaryIO, Dict, Optional

from repro.exceptions import IntegrityError
from repro.resilience.faults import trip

#: Key under which the digest is embedded in artifact documents.
DIGEST_KEY = "sha256"

#: What :func:`write_document` writes between the body and the hex digest.
_STAMP_HEAD = f'"{DIGEST_KEY}":"'.encode("ascii")

#: The canonical rule: sorted keys, no whitespace, ASCII-escaped strings.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_bytes(document: Dict[str, Any]) -> bytes:
    """The canonical serialisation of ``document`` (digest field excluded)."""
    body = {key: value for key, value in document.items() if key != DIGEST_KEY}
    return _CANONICAL.encode(body).encode("utf-8")


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
    stamp = _STAMP_HEAD + hashlib.sha256(body).hexdigest().encode("ascii") + b'"}'
    data = body[:-1] + (b"," if body != b"{}" else b"") + stamp
    half = len(data) // 2
    stream.write(data[:half])
    trip(fault_point)
    stream.write(data[half:])


def intact_as_written(data: bytes) -> bool:
    """Whether ``data`` is a document exactly as :func:`write_document` wrote it.

    Hashes the canonical body and compares the result with the stamp spliced
    in after it, without parsing the JSON, so a file cut short or changed
    after its write fails.  So does a document re-encoded with another JSON
    encoder, which :func:`verify_document` accepts once parsed.
    """
    split = len(data) - len(_STAMP_HEAD) - 66  # 64 hex digits, then '"}'
    stamp = data[split:]
    if split < 1 or not (stamp.startswith(_STAMP_HEAD) and stamp.endswith(b'"}')):
        return False
    # The body is what precedes the stamp with its last byte, the ',' before
    # the digest member, turned back into '}'; an empty body kept its '{'.
    if split == 1:
        end = 1
    elif data[split - 1 : split] == b",":
        end = split - 1
    else:
        return False
    digest = hashlib.sha256(memoryview(data)[:end])
    digest.update(b"}")
    return digest.hexdigest().encode("ascii") == stamp[len(_STAMP_HEAD) : -2]


def verify_document(
    document: Dict[str, Any], *, source: Optional[object] = None
) -> Dict[str, Any]:
    """Check the embedded digest of ``document``; raise on absence or mismatch."""
    stored = document.get(DIGEST_KEY)
    if stored is None:
        raise IntegrityError(
            "artifact carries no integrity digest"
            + (f" ({source})" if source is not None else ""),
            source=source,
        )
    actual = document_digest(document)
    if stored != actual:
        raise IntegrityError(
            "artifact failed its integrity check: stored digest "
            f"{stored!r} != computed {actual!r}"
            + (f" ({source})" if source is not None else ""),
            source=source,
        )
    return document
