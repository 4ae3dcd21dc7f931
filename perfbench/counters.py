"""Exact work counters read from an engine's public surface."""

from __future__ import annotations

from typing import Dict, List


def engine_counters(engine) -> Dict[str, float]:
    """The noise-free ``core.*``, ``state.*`` and ``graph.*`` counters.

    Read from the engine's public statistics (``engine.stats`` and
    ``engine.state.stats``, both carried bit-for-bit through checkpoints), so
    a restored engine reports exactly what the live one did.
    """
    stats = engine.stats
    state_stats = engine.state.stats
    swaps = stats.swaps_performed
    candidates = stats.candidates_processed
    total_swaps = sum(swaps.values())
    return {
        "core.updates": stats.updates_processed,
        "core.batches": stats.batches_applied,
        "core.coalesced": stats.operations_coalesced,
        "core.candidates": candidates,
        "core.swaps_1": swaps.get(1, 0),
        "core.swaps_2": swaps.get(2, 0),
        "core.swap_yield": total_swaps / candidates if candidates else 0.0,
        "core.solution_size": engine.solution_size,
        "core.footprint": engine.memory_footprint(),
        "state.move_in": state_stats.move_in_calls,
        "state.move_out": state_stats.move_out_calls,
        "state.count_updates": state_stats.count_updates,
        "graph.vertices": engine.graph.num_vertices,
        "graph.edges": engine.graph.num_edges,
    }


def counter_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """Work done between two readings; sizes and ratios keep the later value."""
    cumulative = {
        "core.updates", "core.batches", "core.coalesced", "core.candidates",
        "core.swaps_1", "core.swaps_2", "state.move_in", "state.move_out",
        "state.count_updates",
    }
    delta = {
        name: (value - before[name] if name in cumulative else value)
        for name, value in after.items()
    }
    return _with_yield(delta)


def _with_yield(counters: Dict[str, float]) -> Dict[str, float]:
    swaps = counters["core.swaps_1"] + counters["core.swaps_2"]
    candidates = counters["core.candidates"]
    counters["core.swap_yield"] = swaps / candidates if candidates else 0.0
    return counters


def combine(readings: List[Dict[str, float]]) -> Dict[str, float]:
    """Counters of several independent engines, summed."""
    total = {name: sum(r[name] for r in readings) for name in readings[0]}
    return _with_yield(total)
