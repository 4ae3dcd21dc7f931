"""Deterministic fault injection for the update pipeline.

Crash-recovery code is only trustworthy if crashes are *reproducible*: a
fuzz harness that kills the pipeline at a random C-level moment cannot
assert anything about the recovered state.  This module instead defines a
small set of **named fault points** threaded through the pipeline —

========================  ====================================================
point                     where it fires
========================  ====================================================
``stream.read``           :class:`~repro.updates.protocol.StreamCursor`
                          (once per operation consumed through a cursor)
``coalesce``              :func:`~repro.updates.coalesce.coalesce_batch`
                          (once per batch, before simulation)
``bulk_apply``            :meth:`~repro.core.base.DynamicMISBase.apply_batch`
                          (once per batch, before any state mutation)
``checkpoint.write``      :func:`~repro.workloads.replay.save_checkpoint`
                          (inside the atomic write, after the payload bytes —
                          the torn-write scenario; the commit is aborted)
``snapshot.write``        :func:`~repro.workloads.snapshot.save_snapshot`
                          (same position as ``checkpoint.write``)
``log.append``            :func:`~repro.workloads.oplog.append_records`
                          (once per record of a service tenant's operation
                          log, with half the record written — a torn
                          append; the commit's fsync never runs)
``cache.read``            :class:`~repro.workloads.temporal.CachedOperationStream`
                          (once per chunk line decoded)
``fetch``                 :func:`~repro.experiments.fetch._fetch_file`
                          (once per network chunk received)
``service.ingest``        :meth:`~repro.service.tenant.Tenant.offer`
                          (once per ingest request, before admission; the
                          gateway degrades it to an ``injected-fault`` error
                          reply — the connection and the tenant survive)
``service.query``         the gateway's query dispatch
                          (once per membership/solution query; degraded to
                          an error reply like ``service.ingest``)
``service.shutdown``      :meth:`~repro.service.tenant.Tenant.drain`
                          (once per tenant drain, before the final
                          checkpoint; the gateway retries the drain under
                          its retry policy, so graceful shutdown still
                          flushes and closes)
========================  ====================================================

— and a seedable :class:`FaultPlan` that says *at which traversal counts*
each point raises :class:`~repro.exceptions.InjectedFault`.  The same plan
against the same workload crashes at exactly the same operation, so the
recovery path can be asserted bit-for-bit against an uninterrupted run.

When no injector is installed (the production state) every fault point is a
single module-global ``is None`` check — the hook sits only on batch/chunk/
I/O granularity paths plus the (already hashing) checkpoint cursor, never
inside the per-operation maintenance hot loop, so the disabled overhead is
unmeasurable on the core benchmarks.

Usage::

    plan = FaultPlan.at(CHECKPOINT_WRITE, 2)          # kill the 2nd write
    with inject_faults(plan) as injector:
        ...                                            # pipeline crashes
    assert injector.fired[0].point == CHECKPOINT_WRITE

Hit counters persist across retries within one ``inject_faults`` block:
a planned hit fires exactly once, so a supervised re-run sails past the
fault it already absorbed — precisely the transient-fault model crash
recovery is built for.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import InjectedFault, ResilienceError

#: The named fault points threaded through the pipeline.
STREAM_READ = "stream.read"
COALESCE = "coalesce"
BULK_APPLY = "bulk_apply"
CHECKPOINT_WRITE = "checkpoint.write"
SNAPSHOT_WRITE = "snapshot.write"
LOG_APPEND = "log.append"
CACHE_READ = "cache.read"
FETCH = "fetch"
SERVICE_INGEST = "service.ingest"
SERVICE_QUERY = "service.query"
SERVICE_SHUTDOWN = "service.shutdown"

FAULT_POINTS: FrozenSet[str] = frozenset(
    (
        STREAM_READ,
        COALESCE,
        BULK_APPLY,
        CHECKPOINT_WRITE,
        SNAPSHOT_WRITE,
        LOG_APPEND,
        CACHE_READ,
        FETCH,
        SERVICE_INGEST,
        SERVICE_QUERY,
        SERVICE_SHUTDOWN,
    )
)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule: fault point → 1-based hit counts that raise.

    Immutable and seed-reproducible; build one with :meth:`at` (explicit
    hits) or :meth:`random` (a seeded spread over the whole point set, for
    fuzzing).  Plans are data, not state — the per-run counters live on the
    :class:`FaultInjector`.
    """

    schedule: Mapping[str, FrozenSet[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for point, hits in self.schedule.items():
            if point not in FAULT_POINTS:
                raise ResilienceError(
                    f"unknown fault point {point!r}; known: {sorted(FAULT_POINTS)}"
                )
            for hit in hits:
                if not isinstance(hit, int) or hit < 1:
                    raise ResilienceError(
                        f"fault hits are 1-based operation counts, got {hit!r} "
                        f"for point {point!r}"
                    )

    @classmethod
    def at(cls, point: str, *hits: int) -> "FaultPlan":
        """A plan firing ``point`` at exactly the given traversal counts."""
        return cls(schedule={point: frozenset(hits)})

    @classmethod
    def union(cls, *plans: "FaultPlan") -> "FaultPlan":
        """Merge several plans (hit sets of shared points are united)."""
        merged: Dict[str, set] = {}
        for plan in plans:
            for point, hits in plan.schedule.items():
                merged.setdefault(point, set()).update(hits)
        return cls(
            schedule={point: frozenset(hits) for point, hits in merged.items()}
        )

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        faults: int = 3,
        horizon: int = 1000,
        points: Sequence[str] = tuple(sorted(FAULT_POINTS)),
    ) -> "FaultPlan":
        """A seeded plan of ``faults`` (point, hit) pairs with hits in ``[1, horizon]``.

        Deterministic for a given ``(seed, faults, horizon, points)`` — the
        crash-simulation fuzz harness derives arbitrary kill schedules from a
        single pinned seed.
        """
        if faults < 1:
            raise ResilienceError("a random plan needs at least one fault")
        if horizon < 1:
            raise ResilienceError("the fault horizon must be at least 1")
        for point in points:
            if point not in FAULT_POINTS:
                raise ResilienceError(
                    f"unknown fault point {point!r}; known: {sorted(FAULT_POINTS)}"
                )
        rng = random.Random(seed)
        schedule: Dict[str, set] = {}
        for _ in range(faults):
            point = points[rng.randrange(len(points))]
            schedule.setdefault(point, set()).add(rng.randint(1, horizon))
        return cls(
            schedule={point: frozenset(hits) for point, hits in schedule.items()}
        )

    def describe(self) -> str:
        """Human-readable schedule, point-sorted (for logs and CI output)."""
        parts = [
            f"{point}@{sorted(hits)}"
            for point, hits in sorted(self.schedule.items())
        ]
        return "FaultPlan(" + ", ".join(parts) + ")" if parts else "FaultPlan(empty)"


@dataclass(frozen=True)
class FiredFault:
    """A record of one injected fault, kept by the injector for assertions."""

    point: str
    hit: int


class FaultInjector:
    """Counts fault-point traversals and raises at the planned hits.

    One injector = one crash-simulation session: counters survive pipeline
    restarts inside the session (each planned hit fires exactly once), and
    :attr:`fired` records every fault actually raised, in order.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.hits: Dict[str, int] = {point: 0 for point in FAULT_POINTS}
        self.fired: List[FiredFault] = []

    def check(self, point: str) -> None:
        """Count one traversal of ``point``; raise if the plan says so."""
        count = self.hits[point] + 1
        self.hits[point] = count
        if count in self.plan.schedule.get(point, ()):
            self.fired.append(FiredFault(point, count))
            raise InjectedFault(point, count)

    def pending(self) -> Dict[str, Tuple[int, ...]]:
        """Planned hits that have not fired yet (points past their counter drop out)."""
        remaining: Dict[str, Tuple[int, ...]] = {}
        for point, hits in self.plan.schedule.items():
            left = tuple(sorted(h for h in hits if h > self.hits[point]))
            if left:
                remaining[point] = left
        return remaining


#: The installed injector; ``None`` (the default) makes every fault point a
#: no-op behind a single ``is None`` check.
_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None``."""
    return _ACTIVE


def install(plan_or_injector) -> FaultInjector:
    """Install a fault injector globally (one at a time; see :func:`inject_faults`)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ResilienceError(
            "a fault injector is already installed; nest fault plans by "
            "building one merged FaultPlan.union(...) instead"
        )
    injector = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Context manager: install ``plan``, yield the injector, always uninstall."""
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()


def trip(point: str) -> None:
    """The fault-point hook the pipeline calls; no-op unless an injector is installed."""
    if _ACTIVE is not None:
        _ACTIVE.check(point)
