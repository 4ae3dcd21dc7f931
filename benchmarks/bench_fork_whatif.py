"""Benchmark — copy-on-write forks and what-if queries.

The companion scenario for the fork layer, and the **acceptance gate** for
its headline claim: at ``>= 10k`` live slots, ``engine.fork()`` must be at
least ``--min-speedup`` (default 5×) cheaper than both full-copy baselines —
a (sentinel-pinned) ``copy.deepcopy`` of the engine and a snapshot-payload
round trip — while a fork that then diverges stays bit-identical to the deep
copy walking the same updates.

Two scenarios, both written to machine-readable JSON with ``--output``:

* ``fork``     — fork vs. deepcopy vs. snapshot round-trip latency, plus the
                 bit-identity check on a shared divergence stream.
* ``what_if``  — latency of a full hypothetical query (fork, coalesced
                 batch apply, solution diff, discard), the primitive behind
                 the service layer's ``what_if`` command, plus a checkpoint
                 written after a what-if, compared byte for byte with the
                 reference encoding.

Exit code 1 when a gate fails.  ``--gate-mode warn`` downgrades only the two
speed ratios to a loud warning, for noisy shared runners; the correctness
checks (bit-identical divergence, a non-vacuous divergence stream, an
unperturbed base engine, the checkpoint after a what-if) always fail.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import DyOneSwap
from repro.generators.random_graphs import gnm_random_graph
from repro.graphs import dynamic_graph
from repro.resilience.faults import CHECKPOINT_WRITE
from repro.resilience.integrity import DIGEST_KEY, write_document
from repro.service.tenant import engine_digest
from repro.updates.operations import UpdateKind, UpdateOperation
from repro.updates.streams import mixed_update_stream
from repro.workloads.replay import save_checkpoint
from repro.workloads.snapshot import algorithm_from_payload, algorithm_to_payload

#: Live-slot floor for the fork scenario — the acceptance criterion is
#: stated "at >= 10k live slots", so the default workload sits above it.
DEFAULT_VERTICES = 12_000
DEFAULT_EDGES = 24_000


def _deepcopy_engine(engine):
    """Sentinel-pinned deep copy (the graph's free-slot marker is compared
    by identity, so a naive deepcopy would corrupt the label table)."""
    sentinel = dynamic_graph._FREE
    return copy.deepcopy(engine, {id(sentinel): sentinel})


def _best_of(rounds, callable_):
    times = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        times.append(time.perf_counter() - start)
    return min(times), result


def _build_engine(num_vertices, num_edges, seed=11):
    graph = gnm_random_graph(num_vertices, num_edges, seed=seed)
    return DyOneSwap(graph)


def bench_fork(rounds, num_vertices, num_edges):
    engine = _build_engine(num_vertices, num_edges)
    live = engine.graph.num_vertices

    fork_s, fork = _best_of(rounds, engine.fork)
    deepcopy_s, oracle = _best_of(rounds, lambda: _deepcopy_engine(engine))
    snapshot_s, _ = _best_of(
        rounds,
        lambda: algorithm_from_payload(algorithm_to_payload(engine)),
    )

    # Bit-identity under divergence: the cheap fork and the expensive deep
    # copy must walk the exact same trajectory.
    divergence = list(mixed_update_stream(engine.graph.copy(), 400, seed=7))
    fork.apply_batch(divergence)
    oracle.apply_batch(divergence)
    identical = engine_digest(fork) == engine_digest(oracle)
    parent_clean = engine_digest(engine) != engine_digest(fork)

    return {
        "live_slots": live,
        "fork_ms": fork_s * 1e3,
        "deepcopy_ms": deepcopy_s * 1e3,
        "snapshot_roundtrip_ms": snapshot_s * 1e3,
        "speedup_vs_deepcopy": deepcopy_s / fork_s,
        "speedup_vs_snapshot": snapshot_s / fork_s,
        "divergence_bit_identical": identical,
        "parent_diverged_from_fork": parent_clean,
    }


def bench_what_if(rounds, num_vertices, num_edges, batch=32):
    engine = _build_engine(num_vertices, num_edges, seed=13)
    hypothetical = list(
        mixed_update_stream(engine.graph.copy(), batch, seed=17)
    )
    before_digest = engine_digest(engine)
    base = set(engine.solution())

    def what_if():
        fork = engine.fork()
        fork.apply_batch(list(hypothetical))
        after = set(fork.solution())
        return len(after), after - base, base - after

    times = []
    answer = None
    for _ in range(max(rounds * 5, 10)):
        start = time.perf_counter()
        answer = what_if()
        times.append(time.perf_counter() - start)
    unperturbed = engine_digest(engine) == before_digest
    return {
        "live_slots": engine.graph.num_vertices,
        "hypothetical_ops": len(hypothetical),
        "what_if_ms_best": min(times) * 1e3,
        "what_if_ms_median": statistics.median(times) * 1e3,
        "size": answer[0],
        "added": len(answer[1]),
        "removed": len(answer[2]),
        "tenant_unperturbed": unperturbed,
        "checkpoint_after_what_if_identical": checkpoint_after_what_if(
            engine, hypothetical
        ),
    }


def checkpoint_after_what_if(engine, hypothetical) -> bool:
    """Is a checkpoint written after a what-if the reference encoding?

    The checkpoint encoder keeps the text of every adjacency row whose set
    object is unchanged since its previous encode; it relies on the
    ownership bitmap that ``fork()`` resets and that each encode resets
    again.  So: run a what-if, write on the base, checkpoint, write again
    on the same rows (deleting the edges just inserted), checkpoint again,
    and compare that file byte for byte with the same document encoded
    from ``algorithm_to_payload``.
    """
    engine.fork().apply_batch(list(hypothetical))
    engine.apply_batch(list(hypothetical))
    graph = engine.graph
    undo = [
        UpdateOperation.delete_edge(*op.edge)
        for op in hypothetical
        if op.kind is UpdateKind.INSERT_EDGE and graph.has_edge(*op.edge)
    ]
    with tempfile.TemporaryDirectory() as directory:
        save_checkpoint(engine, directory, algorithm_name="bench", processed=0, initial_size=0)
        engine.apply_batch(undo)
        path = save_checkpoint(
            engine, directory, algorithm_name="bench", processed=1, initial_size=0
        )
        written = path.read_bytes()
    document = json.loads(written)
    del document[DIGEST_KEY]
    document["algorithm"] = algorithm_to_payload(engine)
    reference = io.BytesIO()
    write_document(reference, document, fault_point=CHECKPOINT_WRITE)
    return bool(undo) and written == reference.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--edges", type=int, default=DEFAULT_EDGES)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fork must beat both full-copy baselines by this factor",
    )
    parser.add_argument("--output", default=None, help="write results JSON here")
    parser.add_argument("--gate-mode", choices=("fail", "warn"), default="fail")
    args = parser.parse_args(argv)

    if args.vertices < 10_000:
        print(
            f"note: --vertices {args.vertices} is below the 10k-live-slot "
            "acceptance floor; numbers are informational only"
        )

    fork = bench_fork(args.rounds, args.vertices, args.edges)
    what_if = bench_what_if(args.rounds, args.vertices, args.edges)

    print(f"fork @ {fork['live_slots']} live slots:")
    print(
        f"  fork {fork['fork_ms']:.3f} ms  |  deepcopy "
        f"{fork['deepcopy_ms']:.1f} ms ({fork['speedup_vs_deepcopy']:.1f}x)  |  "
        f"snapshot round-trip {fork['snapshot_roundtrip_ms']:.1f} ms "
        f"({fork['speedup_vs_snapshot']:.1f}x)"
    )
    print(
        f"what_if ({what_if['hypothetical_ops']} ops on "
        f"{what_if['live_slots']} live): best "
        f"{what_if['what_if_ms_best']:.2f} ms, median "
        f"{what_if['what_if_ms_median']:.2f} ms"
    )
    print(
        "checkpoint after what_if: "
        + ("identical to" if what_if["checkpoint_after_what_if_identical"] else "DIFFERS from")
        + " the reference encoding"
    )

    # Correctness checks fail in every gate mode; only the speed ratios
    # are noisy enough to downgrade.
    broken = []
    if not fork["divergence_bit_identical"]:
        broken.append("fork divergence is NOT bit-identical to deepcopy")
    if not fork["parent_diverged_from_fork"]:
        broken.append("divergence stream was a no-op (benchmark is vacuous)")
    if not what_if["tenant_unperturbed"]:
        broken.append("what_if perturbed the base engine digest")
    if not what_if["checkpoint_after_what_if_identical"]:
        broken.append("checkpoint written after what_if differs from the reference encoding")
    slow = []
    if fork["speedup_vs_deepcopy"] < args.min_speedup:
        slow.append(
            f"fork only {fork['speedup_vs_deepcopy']:.1f}x cheaper than "
            f"deepcopy (need >= {args.min_speedup}x)"
        )
    if fork["speedup_vs_snapshot"] < args.min_speedup:
        slow.append(
            f"fork only {fork['speedup_vs_snapshot']:.1f}x cheaper than the "
            f"snapshot round-trip (need >= {args.min_speedup}x)"
        )
    failures = broken + slow

    document = {
        "benchmark": "fork-whatif",
        "python": platform.python_version(),
        "rounds": args.rounds,
        "fork": fork,
        "what_if": what_if,
        "gates": {"min_speedup": args.min_speedup, "failures": failures},
    }
    if args.output:
        Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
        print(f"results written to {args.output}")

    for failure in broken:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    banner = "GATE FAILED" if args.gate_mode == "fail" else "GATE WARNING"
    for failure in slow:
        print(f"{banner}: {failure}", file=sys.stderr)
    if broken or (slow and args.gate_mode == "fail"):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
