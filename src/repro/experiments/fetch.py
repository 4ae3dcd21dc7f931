"""Download-with-checksum helpers for real SNAP temporal datasets.

The workload catalog (:mod:`repro.experiments.datasets`) ships deterministic
*synthetic* stand-ins because the SNAP temporal datasets are not
redistributable inside this repository.  This module points the ingestion
layer at the real thing:

* :data:`SNAP_TEMPORAL_DATASETS` names the small/medium SNAP temporal graphs
  whose ``u v t`` format :mod:`repro.workloads.temporal` parses directly
  (gzip-transparent — the downloads stay compressed on disk),
* :func:`fetch_dataset` downloads one with SHA-256 verification.  Integrity
  pinning is two-level: a caller-supplied (or registry) digest is enforced
  when present, and the digest observed on first download is recorded in a
  ``<file>.sha256`` sidecar so later reads detect on-disk corruption even
  for unpinned datasets.  Downloads are **retrying and resumable**
  (:func:`_fetch_file`): the payload accumulates in a ``<file>.part``
  sibling, transient failures back off exponentially and resume with an
  HTTP ``Range`` request from the bytes already fetched, zero-byte and
  truncated transfers are hard failures, and a checksum mismatch deletes
  the partial file instead of leaving a poisoned cache entry,
* :func:`snap_temporal_stream` turns a downloaded file into a lazy, cached
  update stream (:func:`~repro.workloads.temporal.cached_temporal_stream`).

Everything is **offline-safe**: with ``download=False`` (the default) a
missing file never touches the network — :func:`fetch_dataset` returns
``None`` and :func:`snap_temporal_stream` raises
:class:`~repro.exceptions.DatasetError` with a clear message saying which
file to fetch and how.  CI and the test-suite therefore run without network
access; the real datasets light up the moment the operator drops the files
in (or opts into downloading).
"""

from __future__ import annotations

import hashlib
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.exceptions import DatasetError, InjectedFault
from repro.resilience.durable import (
    append_writer,
    atomic_writer,
    makedirs,
    remove,
    replace,
)
from repro.resilience.faults import FETCH, trip
from repro.resilience.supervisor import RetryPolicy

PathLike = Union[str, Path]

#: Default directory for downloaded datasets (overridable per call and via
#: the ``REPRO_DATASET_DIR`` environment variable).
DEFAULT_DATASET_DIR = Path("datasets/snap")

#: :func:`_fetch_file`'s default retries: 4 attempts, backing off from 0.25 s
#: up to at most 8 s between them.
FETCH_RETRY = RetryPolicy(max_attempts=4, base_delay=0.25, cap=8.0)


@dataclass(frozen=True)
class SnapDataset:
    """One downloadable SNAP temporal dataset.

    ``sha256`` pins the exact upstream file when known; ``None`` means
    "trust on first download" (the observed digest is recorded in a sidecar
    and enforced from then on).  ``approx_events`` is documentation — it
    sizes expectations, nothing validates it.
    """

    name: str
    url: str
    filename: str
    sha256: Optional[str] = None
    approx_events: int = 0
    description: str = ""


#: SNAP temporal graphs in the exact ``u v t`` format the temporal parser
#: reads (directed multigraph dumps; the windowing layer canonicalises and
#: deduplicates interactions).  Ordered smallest first.
SNAP_TEMPORAL_DATASETS: Dict[str, SnapDataset] = {
    dataset.name: dataset
    for dataset in (
        SnapDataset(
            name="CollegeMsg",
            url="https://snap.stanford.edu/data/CollegeMsg.txt.gz",
            filename="CollegeMsg.txt.gz",
            approx_events=59_835,
            description="private messages on a UC-Irvine social network",
        ),
        SnapDataset(
            name="email-Eu-core-temporal",
            url="https://snap.stanford.edu/data/email-Eu-core-temporal.txt.gz",
            filename="email-Eu-core-temporal.txt.gz",
            approx_events=332_334,
            description="internal mail of a European research institution",
        ),
        SnapDataset(
            name="sx-mathoverflow",
            url="https://snap.stanford.edu/data/sx-mathoverflow.txt.gz",
            filename="sx-mathoverflow.txt.gz",
            approx_events=506_550,
            description="MathOverflow comments/answers interactions",
        ),
    )
}


def _dataset_dir(directory: Optional[PathLike] = None) -> Path:
    """Resolve the dataset directory (arg > ``$REPRO_DATASET_DIR`` > default)."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get("REPRO_DATASET_DIR")
    return Path(env) if env else DEFAULT_DATASET_DIR


def _sha256_of(path: PathLike, *, chunk_size: int = 1 << 20) -> str:
    """SHA-256 of a file, streamed in ``chunk_size`` blocks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while True:
            block = handle.read(chunk_size)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


def _record_digest(path: Path, digest: str) -> None:
    """Write ``path``'s checksum sidecar atomically: a crash never leaves a
    torn digest that would later read as on-disk corruption."""
    with atomic_writer(_sidecar(path)) as stream:
        stream.write(f"{digest}\n".encode("ascii"))


def _verify_checksum(path: PathLike, expected: Optional[str] = None) -> str:
    """Verify ``path`` against ``expected`` and/or its recorded sidecar digest.

    Returns the file's digest.  Raises :class:`~repro.exceptions.DatasetError`
    on any mismatch; records the digest in the sidecar when none exists yet
    (trust-on-first-use for unpinned datasets).
    """
    path = Path(path)
    digest = _sha256_of(path)
    if expected is not None and digest != expected:
        raise DatasetError(
            f"{path}: SHA-256 mismatch — expected {expected}, got {digest}; "
            "the download is corrupt or the upstream file changed "
            "(delete the file to re-fetch)"
        )
    sidecar = _sidecar(path)
    if sidecar.exists():
        recorded = sidecar.read_text(encoding="utf-8").strip()
        if recorded and digest != recorded:
            raise DatasetError(
                f"{path}: SHA-256 mismatch vs the digest recorded at download "
                f"time ({sidecar.name}) — expected {recorded}, got {digest}; "
                "the file was modified or corrupted on disk"
            )
    else:
        _record_digest(path, digest)
    return digest


def _partial_path(dest: Path) -> Path:
    return dest.with_name(dest.name + ".part")


def _transfer_once(
    url: str, part: Path, *, timeout: float, chunk_size: int
) -> Optional[int]:
    """One transfer attempt: append to ``part`` from where it left off.

    Issues an HTTP ``Range`` request when ``part`` already holds bytes and
    restarts from scratch when the server ignores it (a 200 instead of a
    206 — also the ``file://`` case, which knows no ranges).  Returns the
    expected *total* size when the server declared one (``Content-Length``
    plus the resume offset), else ``None``.  Transient errors — including
    injected ``fetch`` faults, which model the connection dying mid-body —
    propagate to the caller's retry loop with the bytes received so far
    appended, so the next attempt resumes instead of restarting (its clean
    close fsyncs them with its own).
    """
    offset = part.stat().st_size if part.exists() else 0
    request = urllib.request.Request(url)
    if offset:
        request.add_header("Range", f"bytes={offset}-")
    try:
        response = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        if exc.code == 416 and offset:
            # Range not satisfiable: every byte is already in the part
            # file (the previous attempt died after the final chunk).
            return None
        raise
    with response:
        status = getattr(response, "status", None)
        if offset and status != 206:
            # The server ignored the range request; the body is the whole
            # file again, so the partial bytes must be discarded.
            remove(part)
            offset = 0
        declared = response.headers.get("Content-Length")
        expected = offset + int(declared) if declared is not None else None
        with append_writer(part) as out:
            while True:
                # The ``fetch`` fault point fires once per chunk, before
                # the read — an injected fault is indistinguishable from
                # the socket dying between chunks.
                trip(FETCH)
                block = response.read(chunk_size)
                if not block:
                    break
                out.write(block)
    return expected


def _fetch_file(
    url: str,
    dest: PathLike,
    *,
    sha256: Optional[str] = None,
    timeout: float = 60.0,
    chunk_size: int = 1 << 20,
    retry: RetryPolicy = FETCH_RETRY,
    sleep: Callable[[float], None] = time.sleep,
) -> Path:
    """Download ``url`` to ``dest``, resumably, verifying ``sha256`` when given.

    The payload accumulates in a ``<dest>.part`` sibling; transient failures
    (connection resets, timeouts, truncated bodies) are retried up to
    ``retry.max_attempts`` times, waiting :meth:`RetryPolicy.delay
    <repro.resilience.supervisor.RetryPolicy.delay>` between attempts (via
    the injectable ``sleep``), and every retry resumes with an HTTP ``Range``
    request from the bytes already on disk — a multi-GB dataset never
    restarts from zero because the connection dropped at 99%.  Completion is
    strict: a zero-byte download is a hard failure, a body shorter than the
    declared ``Content-Length`` after the final attempt is a hard failure,
    and a checksum mismatch **deletes the partial file** (nothing poisoned
    is left to be resumed into a future download) and raises.  Only a fully
    verified payload is atomically renamed to ``dest``, so no partial file
    ever sits at the destination path.  The rename and the ``.sha256``
    sidecar written after it are durable once this function returns.
    """
    dest = Path(dest)
    makedirs(dest.parent)
    part = _partial_path(dest)
    expected: Optional[int] = None
    failure: Optional[BaseException] = None
    for attempt in range(retry.max_attempts):
        if attempt:
            sleep(retry.delay(attempt))
        failure = None
        try:
            expected = _transfer_once(
                url, part, timeout=timeout, chunk_size=chunk_size
            )
        except (OSError, InjectedFault) as exc:
            # URLError is an OSError subclass, but so are the bare socket
            # timeouts/resets that response.read() raises mid-body; an
            # injected fetch fault models exactly those.  All transient:
            # the part file keeps its bytes and the next attempt resumes.
            failure = exc
            continue
        size = part.stat().st_size if part.exists() else 0
        if expected is not None and size < expected:
            # The connection closed cleanly but early (truncated body);
            # retry — the range request continues from `size`.
            failure = DatasetError(
                f"download of {url} is truncated: expected {expected} bytes, "
                f"got {size}"
            )
            continue
        break
    if failure is not None:
        raise DatasetError(f"cannot download {url}: {failure}") from failure
    size = part.stat().st_size if part.exists() else 0
    if size == 0:
        remove(part)
        raise DatasetError(
            f"download of {url} is empty (zero bytes) — refusing to install "
            "an empty dataset file"
        )
    digest = _sha256_of(part)
    if sha256 is not None and digest != sha256:
        # A poisoned partial file must not survive: resuming a future
        # download on top of corrupt bytes could never converge.
        remove(part)
        raise DatasetError(
            f"download of {url} does not match the pinned SHA-256 "
            f"(expected {sha256}, got {digest})"
        )
    replace(part, dest)
    _record_digest(dest, digest)
    return dest


def fetch_dataset(
    name: str,
    *,
    directory: Optional[PathLike] = None,
    download: bool = False,
    timeout: float = 60.0,
) -> Optional[Path]:
    """Locate (and optionally download) a registered SNAP temporal dataset.

    Returns the local path when the file is present and checksum-clean.
    When absent: downloads it if ``download=True``, otherwise returns
    ``None`` — the offline-safe default, so callers can skip with a message
    instead of failing in air-gapped environments.
    """
    try:
        spec = SNAP_TEMPORAL_DATASETS[name]
    except KeyError:
        raise DatasetError(
            f"unknown SNAP temporal dataset {name!r}; "
            f"known: {sorted(SNAP_TEMPORAL_DATASETS)}"
        ) from None
    path = _dataset_dir(directory) / spec.filename
    if path.exists():
        # Re-hashing a multi-hundred-MB dump on every call would dominate a
        # cache-hit replay, so the full verification is skipped while the
        # sidecar digest is at least as new as the file (the file was not
        # modified since its digest was recorded).  Touching the file — or
        # deleting the sidecar — re-triggers the full check.
        sidecar = _sidecar(path)
        if (
            sidecar.exists()
            and sidecar.stat().st_mtime_ns >= path.stat().st_mtime_ns
        ):
            return path
        _verify_checksum(path, spec.sha256)
        return path
    if not download:
        return None
    return _fetch_file(spec.url, path, sha256=spec.sha256, timeout=timeout)


def _dataset_unavailable_message(name: str, directory: Optional[PathLike] = None) -> str:
    """The one canonical "dataset missing, here is how to get it" message."""
    spec = SNAP_TEMPORAL_DATASETS.get(name)
    where = _dataset_dir(directory)
    if spec is None:
        return f"dataset {name!r} is not registered"
    return (
        f"SNAP dataset {name!r} is not present at {where / spec.filename} — "
        f"skipping (offline-safe).  Fetch it with "
        f"repro.experiments.fetch.fetch_dataset({name!r}, download=True) "
        f"or download {spec.url} into {where}/ manually."
    )


def snap_temporal_stream(
    name: str,
    *,
    directory: Optional[PathLike] = None,
    download: bool = False,
    window: Optional[float] = None,
    max_live: Optional[int] = None,
    gc_isolated: bool = True,
    self_loops: str = "skip",
    unsorted: str = "error",
):
    """A lazy, disk-cached update stream over a real SNAP temporal dataset.

    Parses the (possibly gzipped) download with the streaming parser and
    replays it through the given retention policy via
    :func:`~repro.workloads.temporal.cached_temporal_stream` — constant
    memory end to end, so even the larger SNAP dumps replay fine.
    ``self_loops`` defaults to ``"skip"`` because real SNAP temporal dumps
    contain self-interactions.

    Raises
    ------
    DatasetError
        When the file is absent and ``download=False`` (message includes the
        fetch instructions) or the download/checksum fails.
    """
    from repro.workloads.temporal import cached_temporal_stream

    path = fetch_dataset(name, directory=directory, download=download, timeout=60.0)
    if path is None:
        raise DatasetError(_dataset_unavailable_message(name, directory))
    return cached_temporal_stream(
        path,
        self_loops=self_loops,
        unsorted=unsorted,
        window=window,
        max_live=max_live,
        gc_isolated=gc_isolated,
    )
