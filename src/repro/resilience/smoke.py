"""Seed-pinned crash-simulation smoke check (``python -m repro.resilience.smoke``).

The CI-facing end-to-end proof of the resilience acceptance criterion: a
replay killed repeatedly by injected faults — mid-stream, mid-batch and
mid-checkpoint-write — recovers through :func:`supervised_replay` and
produces a measurement **bit-identical** to the uninterrupted run.  Three
deterministic scenarios run against the quick temporal workload:

1. *Unbatched*: faults planned at two stream-read counts (one of which
   lands inside a resume fast-forward) plus a torn second checkpoint
   write.
2. *Batched*: faults planned at a coalesce pass, a bulk-apply pass and a
   checkpoint write, with the invariant guard verifying k-maximality at
   chunk boundaries.
3. *Service*: the same workload ingested through a live in-process
   gateway (:mod:`repro.service`) over a real Unix socket, with faults at
   every service point — a rejected ingest admission, a degraded query, a
   mid-batch engine crash (supervised tenant restart with replay-buffer
   recovery), a torn checkpoint write, a torn log append and an injected
   crash during the shutdown drain.  The client retries degraded replies; the drained
   tenant's engine digest must equal an uninterrupted in-process run with
   the same batch boundaries, and the final checkpoint must verify.

Everything is pinned — fault plans, workload seed, retry policy (zero
backoff, so the smoke check costs CI no sleeping) — making a failure here
a reproducible regression, not flake.  Exit code 0 on success.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.resilience.faults import (
    BULK_APPLY,
    CHECKPOINT_WRITE,
    COALESCE,
    LOG_APPEND,
    SERVICE_INGEST,
    SERVICE_QUERY,
    SERVICE_SHUTDOWN,
    STREAM_READ,
    FaultPlan,
    inject_faults,
)
from repro.resilience.supervisor import RetryPolicy, supervised_replay

#: No-backoff policy: smoke runs recover instantly (determinism does not
#: need the delays; production defaults do back off).
_RETRY = RetryPolicy(max_attempts=8, base_delay=0.0, cap=0.0)


def _fingerprint(measurement):
    """The bit-identity fields (elapsed wall-clock legitimately differs)."""
    return (
        measurement.num_updates,
        measurement.initial_size,
        measurement.final_size,
        measurement.memory_footprint,
        measurement.finished,
        measurement.extra,
    )


def _scenario(
    name,
    graph,
    stream,
    plan,
    workdir,
    reference,
    **run_options,
):
    """One crash-simulation scenario; returns the failure message or ``None``."""
    from repro.workloads.replay import CheckpointConfig

    checkpoint = CheckpointConfig(
        directory=workdir, every=run_options.pop("every", 64)
    )
    with inject_faults(plan) as injector:
        result = supervised_replay(
            "DyOneSwap",
            graph,
            stream,
            dataset="smoke",
            checkpoint=checkpoint,
            retry=_RETRY,
            **run_options,
        )
    fired = [(f.point, f.hit) for f in injector.fired]
    print(f"  {name}: {plan.describe()}")
    print(
        f"  {name}: {len(fired)} faults fired {fired}, "
        f"{result.attempts} attempts, {len(result.crashes)} crashes absorbed"
    )
    if not fired:
        return f"{name}: no planned fault fired — the scenario tested nothing"
    if not result.recovered:
        return f"{name}: no crash was absorbed — the scenario tested nothing"
    if _fingerprint(result.measurement) != _fingerprint(reference):
        return (
            f"{name}: recovered measurement diverges from the uninterrupted "
            f"run: {_fingerprint(result.measurement)} != "
            f"{_fingerprint(reference)}"
        )
    return None


def _service_scenario(name, operations, workdir) -> "str | None":
    """Fault-injected in-process gateway vs an uninterrupted reference.

    Exercises every ``service.*`` fault point plus a mid-batch engine crash,
    a torn checkpoint write and a torn log append, over a real Unix-socket
    round-trip.
    Returns the failure message or ``None``.
    """
    from repro.experiments.runner import create_algorithm
    from repro.graphs.dynamic_graph import DynamicGraph
    from repro.service import ServiceConfig, ServiceThread, TenantSpec
    from repro.service.tenant import engine_digest
    from repro.updates.protocol import chunked
    from repro.workloads.replay import latest_valid_checkpoint

    batch = 64
    # Reference first, outside the injector: uninterrupted, same boundaries.
    reference_engine = create_algorithm("DyOneSwap", DynamicGraph(), None)
    for group in chunked(iter(operations), batch):
        reference_engine.apply_batch(group)
    expected_digest = engine_digest(reference_engine)
    plan = FaultPlan.union(
        FaultPlan.at(SERVICE_INGEST, 2),
        FaultPlan.at(SERVICE_QUERY, 1),
        FaultPlan.at(BULK_APPLY, 3),
        FaultPlan.at(CHECKPOINT_WRITE, 2),
        FaultPlan.at(LOG_APPEND, 3),
        FaultPlan.at(SERVICE_SHUTDOWN, 1),
    )
    config = ServiceConfig(
        data_dir=str(workdir / "data"),
        unix_socket=str(workdir / "service.sock"),
        tenants=(
            TenantSpec(
                name="svc",
                batch_size=batch,
                window_max=batch * 4,
                adaptive=False,
                checkpoint_every=batch * 2,
            ),
        ),
        retry=_RETRY,
    )
    with inject_faults(plan) as injector:
        with ServiceThread(config) as service:
            with service.client() as client:
                # ingest_stream retries the injected admission rejection.
                client.ingest_stream("svc", operations, chunk=batch)
                query = client.query("svc", 0)
                query_retries = 0
                while not query.get("ok") and query_retries < 5:
                    query_retries += 1  # the degraded (injected) reply
                    query = client.query("svc", 0)
                digest_reply = client.digest("svc")
        report = service.report
    fired = [(f.point, f.hit) for f in injector.fired]
    print(f"  {name}: {plan.describe()}")
    print(f"  {name}: {len(fired)} faults fired {fired}")
    fired_points = {point for point, _hit in fired}
    for point in (
        SERVICE_INGEST,
        SERVICE_QUERY,
        SERVICE_SHUTDOWN,
        BULK_APPLY,
        CHECKPOINT_WRITE,
        LOG_APPEND,
    ):
        if point not in fired_points:
            return (
                f"{name}: required fault point {point!r} never fired — "
                f"the scenario tested nothing at it"
            )
    if not query.get("ok"):
        return f"{name}: query never recovered from the injected fault: {query}"
    if not digest_reply.get("ok"):
        return f"{name}: digest request failed: {digest_reply}"
    if digest_reply["digest"] != expected_digest:
        return (
            f"{name}: drained engine digest diverges from the uninterrupted "
            f"run ({digest_reply['digest'][:16]}… != {expected_digest[:16]}…)"
        )
    if report is None or not report.clean:
        return f"{name}: shutdown drain was not clean: {report}"
    final = latest_valid_checkpoint(workdir / "data" / "svc", "DyOneSwap")
    if final is None:
        return f"{name}: drain left no valid final checkpoint"
    if final.processed != len(operations):
        return f"{name}: final checkpoint does not cover the whole stream"
    return None


def main(argv=None) -> int:
    del argv  # the smoke check is deliberately parameterless: pinned or nothing
    from repro.experiments import load_temporal_workload, run_algorithm
    from repro.workloads.replay import CheckpointConfig

    print("resilience smoke: seed-pinned crash-simulation replay")
    graph, stream = load_temporal_workload(
        "quick", "wiki-talk-window", num_events=260
    )
    failures = []
    with tempfile.TemporaryDirectory(prefix="resilience-smoke-") as tmp:
        tmp = Path(tmp)
        reference = run_algorithm(
            "DyOneSwap",
            graph,
            stream,
            dataset="smoke",
            checkpoint=CheckpointConfig(directory=tmp / "ref", every=64),
        )
        # Scenario 1 — unbatched: the second stream-read fault lands inside
        # a resume fast-forward, the checkpoint fault tears the second
        # write mid-payload (the commit aborts; the older checkpoint
        # carries the recovery).
        failure = _scenario(
            "unbatched",
            graph,
            stream,
            FaultPlan.union(
                FaultPlan.at(STREAM_READ, 57, 211),
                FaultPlan.at(CHECKPOINT_WRITE, 2),
            ),
            tmp / "s1",
            reference,
        )
        if failure:
            failures.append(failure)
        reference_batched = run_algorithm(
            "DyOneSwap",
            graph,
            stream,
            dataset="smoke",
            batch_size=64,
            checkpoint=CheckpointConfig(directory=tmp / "ref-batched", every=128),
        )
        # Scenario 2 — batched, with the invariant guard re-verifying
        # k-maximality from first principles at chunk boundaries.
        failure = _scenario(
            "batched",
            graph,
            stream,
            FaultPlan.union(
                FaultPlan.at(COALESCE, 2),
                FaultPlan.at(BULK_APPLY, 5),
                FaultPlan.at(CHECKPOINT_WRITE, 1),
            ),
            tmp / "s2",
            reference_batched,
            batch_size=64,
            every=128,
            verify_every=128,
        )
        if failure:
            failures.append(failure)
        # Scenario 3 — the always-on service layer: the same operations
        # ingested through a live gateway over a Unix socket, with faults
        # at admission, query, batch apply, checkpoint write, log append
        # and the shutdown drain.
        failure = _service_scenario("service", list(stream), tmp / "s3")
        if failure:
            failures.append(failure)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("resilience smoke: OK (recovered runs bit-identical to uninterrupted)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
