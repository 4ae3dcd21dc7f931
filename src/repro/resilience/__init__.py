"""Resilience subsystem: fault injection, durable writes, artifact integrity, recovery.

Four pillars (see the per-module docstrings):

* :mod:`repro.resilience.faults` — deterministic, seedable fault injection
  at named points threaded through the whole pipeline (stream read,
  coalesce, bulk apply, checkpoint/snapshot write, cache read, fetch);
  zero-overhead no-ops when disabled.
* :mod:`repro.resilience.durable` — the only code that creates, writes,
  renames, unlinks or fsyncs a persistent file, with a test-only trace of
  its calls for crash-state enumeration.
* :mod:`repro.resilience.integrity` — embedded SHA-256 digests for durable
  artifacts, verified on load.
* :mod:`repro.resilience.supervisor` — :func:`supervised_replay`: crash
  detection → recover from the newest *valid* checkpoint (corrupt ones
  quarantined) → capped jittered backoff → a measurement bit-identical to
  an uninterrupted run.

Layering: ``faults``, ``durable`` and ``integrity`` sit *below* the
pipeline (only :mod:`repro.exceptions` and the standard library beneath
them; ``integrity`` trips the torn-write points of ``faults``) so every
layer can import its fault hook and its writers; the supervisor drives the
experiment runner, imports it lazily and is itself loaded lazily via module
``__getattr__`` — ``from repro.resilience import supervised_replay`` works,
but merely importing a fault point never drags the runner in (which would
cycle).
"""

from __future__ import annotations

from repro.exceptions import (
    InjectedFault,
    IntegrityError,
    RecoveryExhaustedError,
    ResilienceError,
)
from repro.resilience.faults import (
    BULK_APPLY,
    CACHE_READ,
    CHECKPOINT_WRITE,
    COALESCE,
    FAULT_POINTS,
    FETCH,
    SERVICE_INGEST,
    SERVICE_QUERY,
    SERVICE_SHUTDOWN,
    SNAPSHOT_WRITE,
    STREAM_READ,
    FaultInjector,
    FaultPlan,
    FiredFault,
    active,
    inject_faults,
    install,
    trip,
    uninstall,
)
from repro.resilience.integrity import (
    DIGEST_KEY,
    document_digest,
    verify_document,
    write_document,
)

#: Supervisor names resolved lazily (importing them eagerly would pull the
#: experiment runner into every module that merely hosts a fault point).
_SUPERVISOR_EXPORTS = (
    "CrashRecord",
    "InvariantGuard",
    "RetryPolicy",
    "SupervisedResult",
    "supervised_replay",
    "RECOVERABLE",
)

__all__ = [
    # exceptions
    "ResilienceError",
    "IntegrityError",
    "RecoveryExhaustedError",
    "InjectedFault",
    # faults
    "FAULT_POINTS",
    "STREAM_READ",
    "COALESCE",
    "BULK_APPLY",
    "CHECKPOINT_WRITE",
    "SNAPSHOT_WRITE",
    "CACHE_READ",
    "FETCH",
    "SERVICE_INGEST",
    "SERVICE_QUERY",
    "SERVICE_SHUTDOWN",
    "FaultPlan",
    "FaultInjector",
    "FiredFault",
    "inject_faults",
    "install",
    "uninstall",
    "active",
    "trip",
    # integrity
    "DIGEST_KEY",
    "document_digest",
    "verify_document",
    "write_document",
    # supervisor (lazy)
    *_SUPERVISOR_EXPORTS,
]


def __getattr__(name: str):
    if name in _SUPERVISOR_EXPORTS:
        from repro.resilience import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
