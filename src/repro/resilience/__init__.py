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
experiment runner and imports it lazily.  Like every ``repro`` package,
this one resolves its exports on first use (:mod:`repro._exports`):
``from repro.resilience import supervised_replay`` works, but merely
importing a fault point never drags the runner in (which would cycle).
"""

from repro._exports import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.exceptions": (
            "ResilienceError",
            "IntegrityError",
            "RecoveryExhaustedError",
            "InjectedFault",
        ),
        "repro.resilience.faults": (
            "FAULT_POINTS",
            "STREAM_READ",
            "COALESCE",
            "BULK_APPLY",
            "CHECKPOINT_WRITE",
            "SNAPSHOT_WRITE",
            "LOG_APPEND",
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
        ),
        "repro.resilience.integrity": (
            "DIGEST_KEY",
            "document_digest",
            "verify_document",
            "write_document",
        ),
        "repro.resilience.supervisor": (
            "CrashRecord",
            "InvariantGuard",
            "RetryPolicy",
            "SupervisedResult",
            "supervised_replay",
            "RECOVERABLE",
        ),
    },
)
