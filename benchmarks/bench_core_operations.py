"""Micro-benchmarks of the core maintenance loop (per-update cost).

These are not tied to one paper artefact; they back the complexity discussion
in DESIGN.md by measuring the amortised per-update cost of each maintenance
algorithm on a fixed power-law workload.  Unlike the table/figure benchmarks
they use multiple rounds, so pytest-benchmark's statistics are meaningful.

Two entry points:

* ``pytest benchmarks/bench_core_operations.py`` — pytest-benchmark suite
  (algorithm-level per-update cost plus state-level hot-path throughput).
* ``python benchmarks/bench_core_operations.py`` — the *quick profile*: runs
  the same workloads with ``time.perf_counter`` best-of-N timing and writes
  machine-readable results to ``BENCH_core.json`` at the repository root, so
  the performance trajectory is tracked across PRs (compare against the
  committed file from the previous PR before overwriting it).

The quick profile doubles as the **regression gate**: pass
``--compare BENCH_core.json`` to check the fresh numbers against the
committed baseline — any algorithm whose per-update time regresses by more
than ``--tolerance`` (default 15%) fails the run (exit code 1), and changed
solution sizes fail unconditionally (the optimisations must never change the
algorithmic decisions).  ``--compare-mode warn`` downgrades the failure to a
loud warning for machines with known-noisy clocks.

Since PR 3 the profile covers two streams (the historical ``mixed`` workload
and a ``bursty`` flash-crowd workload) and the batched update engine
(``batch_size=64`` scenarios), and every run *appends* its summary to the
``trajectory`` list inside the output JSON — the machine-readable perf
history seed → PR1 → PR2 → PR3 → … — instead of overwriting it.

Since PR 5 every scenario additionally records its **tracemalloc peak**
(``peak_kb``: allocations during ``apply_stream``, measured in one separate
untimed round so the ~2× tracemalloc slowdown never pollutes the timings),
and ``--compare`` gates *memory* regressions too: a peak more than
``--memory-tolerance`` (default 25%) above the committed baseline fails the
run alongside the time gate.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
import tracemalloc
from pathlib import Path

from repro.core import DyOneSwap, DyTwoSwap
from repro.core.state import MISState
from repro.generators import power_law_random_graph
from repro.updates import flash_crowd_stream, mixed_update_stream

_GRAPH = power_law_random_graph(800, 2.2, seed=123)
_STREAM = mixed_update_stream(_GRAPH, 400, seed=321, edge_fraction=0.8)

#: The quick-profile workload is larger so best-of-N per-update numbers are
#: stable enough to compare across PRs.
_QUICK_UPDATES = 2000
_QUICK_ROUNDS = 5

#: Streams of the quick profile, built lazily on the canonical graph.  The
#: ``mixed`` stream is the historical workload every PR is gated on; the
#: ``bursty`` stream (flash crowds: transient vertices that arrive and
#: mostly leave within one burst window) is where the batched update
#: engine's coalescing pays off.
_STREAM_FACTORIES = {
    "mixed": lambda graph: mixed_update_stream(
        graph, _QUICK_UPDATES, seed=321, edge_fraction=0.8
    ),
    "bursty": lambda graph: flash_crowd_stream(
        graph, _QUICK_UPDATES, burst_size=24, max_neighbors=2, churn=0.9, seed=321
    ),
}

#: Scenarios measured by the quick profile: (name, class, kwargs, stream).
#: ``batch_size`` in kwargs routes through apply_stream's batched engine.
_ALGORITHMS = [
    ("DyOneSwap", DyOneSwap, {}, "mixed"),
    ("DyOneSwap-lazy", DyOneSwap, {"lazy": True}, "mixed"),
    ("DyTwoSwap", DyTwoSwap, {}, "mixed"),
    ("DyTwoSwap-batch16", DyTwoSwap, {"batch_size": 16}, "mixed"),
    ("DyTwoSwap-batch64", DyTwoSwap, {"batch_size": 64}, "mixed"),
    ("DyOneSwap-bursty", DyOneSwap, {}, "bursty"),
    ("DyOneSwap-bursty-batch64", DyOneSwap, {"batch_size": 64}, "bursty"),
    ("DyTwoSwap-bursty", DyTwoSwap, {}, "bursty"),
    ("DyTwoSwap-bursty-batch64", DyTwoSwap, {"batch_size": 64}, "bursty"),
]


def _run(algorithm_class, *, batch_size=1, **kwargs):
    algo = algorithm_class(_GRAPH.copy(), **kwargs)
    if batch_size > 1:
        algo.apply_stream(_STREAM, batch_size=batch_size)
    else:
        # The DGDIS baselines expose plain apply_stream without batching.
        algo.apply_stream(_STREAM)
    return algo.solution_size


# --------------------------------------------------------------------------- #
# pytest-benchmark suite (guarded so the standalone quick profile below works
# in environments without pytest)
# --------------------------------------------------------------------------- #
try:
    import pytest
except ImportError:  # pragma: no cover - standalone quick-profile mode
    pytest = None

if pytest is not None:
    from repro.baselines import DGTwoDIS, DyARW

    @pytest.mark.parametrize(
        "algorithm_class,kwargs",
        [
            (DyOneSwap, {}),
            (DyOneSwap, {"lazy": True}),
            (DyOneSwap, {"batch_size": 64}),
            (DyTwoSwap, {}),
            (DyTwoSwap, {"batch_size": 64}),
            (DyARW, {}),
            (DGTwoDIS, {}),
        ],
        ids=[
            "DyOneSwap",
            "DyOneSwap-lazy",
            "DyOneSwap-batch64",
            "DyTwoSwap",
            "DyTwoSwap-batch64",
            "DyARW",
            "DGTwoDIS",
        ],
    )
    def test_per_update_cost(benchmark, algorithm_class, kwargs):
        size = benchmark.pedantic(
            _run, args=(algorithm_class,), kwargs=kwargs, rounds=3, iterations=1
        )
        assert size > 0

    def test_state_hot_ops(benchmark):
        rates = benchmark.pedantic(
            _state_hot_op_rates, kwargs={"cycles": 200}, rounds=3, iterations=1
        )
        assert all(rate > 0 for rate in rates.values())


# --------------------------------------------------------------------------- #
# State-level hot-path micro-benchmark
# --------------------------------------------------------------------------- #
def _state_hot_op_rates(*, cycles: int = 2000, k: int = 2) -> dict:
    """Measure the slot-level move and edge mutators' throughput (ops/second).

    Each pair of inverse operations (``move_out_slot``/``move_in_slot`` and
    ``remove_edge_one_sided``/``add_edge_slots``) is cycled on a fixed
    prepared state so every timed call exercises the complete bookkeeping
    (counts, ``I(v)`` sets, hierarchy buckets) without growing the
    structures.
    """
    graph = power_law_random_graph(600, 2.2, seed=7)
    state = MISState(graph, k=k)
    member = state.in_solution_view()
    for v in sorted(graph.vertices(), key=graph.degree_order_key):
        slot = graph.slot_of(v)
        if not member[slot] and state.count_slot(slot) == 0:
            state.move_in_slot(slot)
    # A sample of solution vertices for the move cycle and of edges with
    # exactly one solution endpoint, as (outside, inside) slot pairs, for
    # the edge cycle (those touch counts).
    sample_slots = sorted(state.solution_slots_view(), key=graph.orders_view().__getitem__)[:50]
    sample_edges = []
    for u, v in graph.edges():
        su, sv = graph.slot_of(u), graph.slot_of(v)
        if member[su] != member[sv]:
            sample_edges.append((sv, su) if member[su] else (su, sv))
    sample_edges = sample_edges[:50]

    rates = {}
    timer = time.perf_counter

    start = timer()
    for _ in range(cycles):
        for slot in sample_slots:
            state.move_out_slot(slot)
            state.move_in_slot(slot)
    elapsed = timer() - start
    ops = 2 * cycles * len(sample_slots)
    rates["move_out_move_in"] = ops / elapsed if elapsed else float("inf")

    start = timer()
    for _ in range(cycles):
        for s_out, s_in in sample_edges:
            state.remove_edge_one_sided(s_out, s_in)
            state.add_edge_slots(s_out, s_in)
    elapsed = timer() - start
    ops = 2 * cycles * len(sample_edges)
    rates["remove_edge_add_edge"] = ops / elapsed if elapsed else float("inf")

    state.check_invariants()
    return rates


# --------------------------------------------------------------------------- #
# Quick profile (standalone, writes BENCH_core.json)
# --------------------------------------------------------------------------- #
def run_quick_profile(rounds: int = _QUICK_ROUNDS) -> dict:
    """Best-of-``rounds`` per-update cost on the canonical quick workloads."""
    rounds = max(1, rounds)
    graph = power_law_random_graph(800, 2.2, seed=123)
    streams = {
        key: factory(graph) for key, factory in _STREAM_FACTORIES.items()
    }
    results = {}
    for name, algorithm_class, kwargs, stream_key in _ALGORITHMS:
        kwargs = dict(kwargs)
        batch_size = kwargs.pop("batch_size", 1)
        stream = streams[stream_key]
        best = float("inf")
        size = 0
        for _ in range(rounds):
            algo = algorithm_class(graph.copy(), **kwargs)
            start = time.perf_counter()
            algo.apply_stream(stream, batch_size=batch_size)
            best = min(best, time.perf_counter() - start)
            size = algo.solution_size
        # One separate untimed round under tracemalloc: the instrumentation
        # roughly doubles runtime, so it must never share a round with the
        # timer.  The baseline is taken after construction, so the peak is
        # the stream-processing allocation footprint of the scenario.
        algo = algorithm_class(graph.copy(), **kwargs)
        tracemalloc.start()
        baseline = tracemalloc.get_traced_memory()[0]
        algo.apply_stream(stream, batch_size=batch_size)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        results[name] = {
            "per_update_us": round(best / len(stream) * 1e6, 3),
            "solution_size": size,
            "peak_kb": round((peak - baseline) / 1024, 1),
        }
    return results


def compare_against_baseline(
    per_update: dict,
    baseline: dict,
    *,
    tolerance: float,
    memory_tolerance: float = 0.25,
    label: str = "baseline",
) -> list:
    """Return a list of regression messages vs the committed baseline payload.

    A regression is a per-update time more than ``tolerance`` (fractional)
    above the baseline, a tracemalloc peak more than ``memory_tolerance``
    above it, or any change in solution size.  Algorithms (or fields, e.g. a
    baseline predating the memory gate) present only on one side are
    reported informationally but never fail the gate.
    """
    reference = baseline.get("per_update", {})
    failures = []
    for name, fresh in per_update.items():
        ref = reference.get(name)
        if ref is None:
            print(f"note: {name} has no baseline entry in {label}")
            continue
        ref_us = ref["per_update_us"]
        new_us = fresh["per_update_us"]
        limit = ref_us * (1.0 + tolerance)
        if new_us > limit:
            failures.append(
                f"{name}: {new_us:.3f} us/update exceeds baseline "
                f"{ref_us:.3f} us by more than {tolerance:.0%} "
                f"(limit {limit:.3f} us)"
            )
        else:
            print(
                f"ok: {name} {new_us:.3f} us/update vs baseline {ref_us:.3f} us "
                f"({(new_us / ref_us - 1.0):+.1%})"
            )
        ref_kb = ref.get("peak_kb")
        new_kb = fresh.get("peak_kb")
        if ref_kb is None:
            print(f"note: {name} has no memory baseline in {label} (pre-PR5)")
        elif new_kb is not None and ref_kb > 0:
            mem_limit = ref_kb * (1.0 + memory_tolerance)
            if new_kb > mem_limit:
                failures.append(
                    f"{name}: peak memory {new_kb:.1f} KiB exceeds baseline "
                    f"{ref_kb:.1f} KiB by more than {memory_tolerance:.0%} "
                    f"(limit {mem_limit:.1f} KiB)"
                )
            else:
                print(
                    f"ok: {name} peak {new_kb:.1f} KiB vs baseline "
                    f"{ref_kb:.1f} KiB ({(new_kb / ref_kb - 1.0):+.1%})"
                )
        if fresh.get("solution_size") != ref.get("solution_size"):
            failures.append(
                f"{name}: solution size changed "
                f"{ref.get('solution_size')} -> {fresh.get('solution_size')} "
                "(bookkeeping must not change algorithmic decisions)"
            )
    for name in reference:
        if name not in per_update:
            failures.append(
                f"{name}: present in {label} but missing from the fresh run "
                "— the gate would silently lose coverage"
            )
    return failures


def _load_trajectory(path: Path) -> list:
    """Return the perf trajectory stored in ``path`` (seed → PR1 → PR2 → …).

    Older baseline files carried the history as ``seed_reference`` /
    ``pr1_reference`` blobs next to the then-current ``per_update`` section;
    those are folded into trajectory entries so the machine-readable history
    survives the format change.
    """
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    trajectory = data.get("trajectory")
    if trajectory:
        return list(trajectory)
    trajectory = []
    seed_ref = data.get("seed_reference")
    if seed_ref:
        trajectory.append(
            {"label": "seed", "per_update_us": dict(seed_ref["per_update_us"])}
        )
    pr1_ref = data.get("pr1_reference")
    if pr1_ref:
        trajectory.append(
            {"label": "PR1", "per_update_us": dict(pr1_ref["per_update_us"])}
        )
    per_update = data.get("per_update")
    if per_update:
        trajectory.append(
            {
                "label": "PR2",
                "per_update_us": {
                    name: entry["per_update_us"]
                    for name, entry in per_update.items()
                },
                "solution_size": {
                    name: entry["solution_size"]
                    for name, entry in per_update.items()
                },
            }
        )
    return trajectory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="where to write the machine-readable results",
    )
    parser.add_argument("--rounds", type=int, default=_QUICK_ROUNDS)
    parser.add_argument(
        "--label",
        default=None,
        help="trajectory label for this run (e.g. PR3); appended to the "
        "'trajectory' list carried over from the previous --output file",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE_JSON",
        default=None,
        help="committed baseline to gate against (e.g. BENCH_core.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="fractional per-update regression allowed before the gate trips",
    )
    parser.add_argument(
        "--memory-tolerance",
        type=float,
        default=0.25,
        help="fractional peak-memory regression allowed before the gate trips",
    )
    parser.add_argument(
        "--compare-mode",
        choices=("fail", "warn"),
        default="fail",
        help="whether a tripped gate exits non-zero or only warns loudly",
    )
    args = parser.parse_args(argv)

    # Load the baseline up front: --output may point at the very same file
    # (it defaults to BENCH_core.json), and comparing freshly written numbers
    # against themselves would make the gate vacuous.
    baseline = None
    if args.compare is not None:
        baseline = json.loads(Path(args.compare).read_text())

    output = Path(args.output)
    # The trajectory (seed → PR1 → PR2 → …) is carried over from the
    # previous contents of --output so history is appended to, never
    # overwritten; each run adds one entry.  A fresh output path (e.g. CI's
    # artifact file) inherits the history from the --compare baseline, so
    # warn-mode CI runs still leave the full machine-readable record.
    trajectory = _load_trajectory(output)
    if not trajectory and args.compare is not None:
        trajectory = _load_trajectory(Path(args.compare))

    per_update = run_quick_profile(rounds=args.rounds)
    hot_ops = _state_hot_op_rates()
    trajectory_entry = {
        "label": args.label or f"run-{len(trajectory)}",
        "python": platform.python_version(),
        "per_update_us": {
            name: entry["per_update_us"] for name, entry in per_update.items()
        },
        "solution_size": {
            name: entry["solution_size"] for name, entry in per_update.items()
        },
        "peak_kb": {
            name: entry["peak_kb"] for name, entry in per_update.items()
        },
    }
    trajectory.append(trajectory_entry)
    payload = {
        "benchmark": "bench_core_operations.quick_profile",
        "workload": {
            "graph": "power_law_random_graph(800, 2.2, seed=123)",
            "streams": {
                "mixed": f"mixed_update_stream(n={_QUICK_UPDATES}, seed=321, edge_fraction=0.8)",
                "bursty": (
                    f"flash_crowd_stream(n={_QUICK_UPDATES}, burst_size=24, "
                    "max_neighbors=2, churn=0.9, seed=321)"
                ),
            },
            "timing": f"best of {args.rounds} rounds, apply_stream only (setup excluded)",
        },
        "python": platform.python_version(),
        "per_update": per_update,
        "state_hot_ops_per_sec": {k: round(v) for k, v in hot_ops.items()},
        "trajectory": trajectory,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {output}")
    if baseline is None:
        return 0
    failures = compare_against_baseline(
        per_update,
        baseline,
        tolerance=args.tolerance,
        memory_tolerance=args.memory_tolerance,
        label=args.compare,
    )
    if not failures:
        print(f"benchmark gate OK (tolerance {args.tolerance:.0%})")
        return 0
    banner = "=" * 72
    print(f"\n{banner}\nBENCHMARK REGRESSION vs {args.compare}\n{banner}")
    for line in failures:
        print(f"  REGRESSION: {line}")
    if args.compare_mode == "warn":
        print("(--compare-mode warn: not failing the run)")
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
