"""Workload ``update-mixed``: the paper's per-update model on a large graph.

Input: a power-law random graph (beta 2.2) and an in-memory
``mixed_update_stream`` with 80% edge updates, the paper's default workload.
Each run builds ``INPUTS`` such pairs from the seed.  Set-up is
``create_algorithm("DyTwoSwap", graph)``, which builds the greedy initial
solution and stabilises it.  The timed call is ``engine.apply_stream(ops)``
at the default ``batch_size=1``; rounds repeat it over every input on fresh
engines until the run's time is spent.  The traced run calls
``apply_stream`` over fixed chunks instead (the same trajectory), so the
per-call latency of the core is visible.
"""

from __future__ import annotations

import gc
import os
import time
from pathlib import Path
from typing import Dict, List

from repro.core.verification import find_one_swap, is_maximal_independent_set
from repro.experiments.runner import create_algorithm
from repro.generators import power_law_random_graph
from repro.updates import mixed_update_stream

from counters import combine, counter_delta, engine_counters
from harness import (
    Result,
    Tracer,
    Bracket,
    Pinning,
    host_probe,
    median,
    proc_peak_rss_mb,
    reset_peak_rss_mb,
    steadiest,
    self_times,
)

ALGORITHM = "DyTwoSwap"
#: Independent (graph, stream) inputs per run, derived from the seed: their
#: average cost varies less across seeds than one input's.
INPUTS = 4
NUM_VERTICES = 20_000
BETA = 2.2
NUM_UPDATES = 6_000
EDGE_FRACTION = 0.8
#: Operations per ``apply_stream`` call in the traced run.
CHUNK = 500
#: Rounds run (at least) and rounds kept: those during which the CPU's speed
#: held steadiest.
MIN_ROUNDS = 24
KEEP_ROUNDS = 20


def _inputs(seed: int):
    """``(graph, operations)`` pairs, each built from its own sub-seed."""
    inputs = []
    for k in range(INPUTS):
        sub = seed * 1000 + k
        graph = power_law_random_graph(NUM_VERTICES, BETA, seed=sub)
        operations = list(
            mixed_update_stream(
                graph, NUM_UPDATES, seed=sub + 500, edge_fraction=EDGE_FRACTION
            )
        )
        inputs.append((graph, operations))
    return inputs


def _construct(graph):
    gc.collect()  # the previous engine is freed before this one's copy exists
    working = graph.copy()
    gc.collect()
    start = time.perf_counter()
    engine = create_algorithm(ALGORITHM, working)
    return engine, time.perf_counter() - start


def _verify(engine, result: Result) -> None:
    solution = engine.solution()
    result.check(not engine.has_pending_candidates(), "candidate queues not drained")
    result.check(
        is_maximal_independent_set(engine.graph, solution),
        "final solution is not a maximal independent set",
    )
    result.check(find_one_swap(engine.graph, solution) is None, "final solution has a 1-swap")


def run(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    del work  # everything stays in memory
    result = Result()
    inputs = _inputs(seed)
    gc.freeze()
    if trace:
        _traced(inputs, result)
        return result
    total = sum(len(operations) for _graph, operations in inputs)
    rounds = []
    reference: Dict[int, Dict] = {}
    pinning = Pinning()
    brackets: List[Bracket] = []
    resident = reset_peak_rss_mb()
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        probe = pinning.settle()
        setups: List[float] = []
        calls: List[float] = []
        for k, (graph, operations) in enumerate(inputs):
            engine, setup = _construct(graph)
            setups.append(setup)
            before = engine_counters(engine)
            gc.collect()
            start = time.perf_counter()
            engine.apply_stream(operations)
            calls.append(time.perf_counter() - start)
            counters = counter_delta(engine_counters(engine), before)
            if k not in reference:
                reference[k] = counters
                _verify(engine, result)
            result.check(counters == reference[k], f"input {k} repeat drifted")
            result.attempted += len(operations)
            del engine
        rounds.append((setups, calls))
        brackets.append(Bracket(probe, host_probe()))
    kept = steadiest(rounds, brackets, KEEP_ROUNDS)
    result.counters.update(combine(list(reference.values())))
    setups = [s * b.scale for (round_setups, _calls), b in kept for s in round_setups]
    result.put("setup_s", median(setups), f"median of {len(setups)} engine constructions")
    result.put(
        "updates_per_s",
        median(total / (sum(calls) * b.scale) for (_setups, calls), b in kept),
        f"median of the steadiest {len(kept)} of {len(rounds)} rounds over "
        f"{INPUTS} inputs, {total} ops each; raw "
        f"{median(total / sum(calls) for (_setups, calls), _b in kept):.6g}",
    )
    peak = proc_peak_rss_mb(os.getpid())
    result.put(
        "peak_rss_mb",
        peak - resident,
        f"high-water mark {peak:.1f} MB during the rounds minus {resident:.1f} MB "
        "resident before them",
    )
    return result


def _traced(inputs, result: Result) -> None:
    tracer = Tracer()
    roots = []
    untraced = 0.0
    counters = []
    for graph, operations in inputs:
        engine, _setup = _construct(graph)
        gc.collect()
        start = time.perf_counter()
        engine.apply_stream(operations)
        untraced += time.perf_counter() - start
        engine, _setup = _construct(graph)
        before = engine_counters(engine)
        chunks = [operations[i : i + CHUNK] for i in range(0, len(operations), CHUNK)]
        gc.collect()
        with tracer.span("run") as root:
            for chunk in chunks:
                with tracer.span("core.apply"):
                    engine.apply_stream(chunk)
        roots.append(root)
        _verify(engine, result)
        counters.append(counter_delta(engine_counters(engine), before))
    for name, value in combine(counters).items():
        result.count(name, value)
    apply_s = tracer.total("core.apply")
    result.put("core.apply_s", apply_s)
    result.put("core.self_s", apply_s, "no coalescing at batch_size=1")
    result.latency("core.call", tracer.durations("core.apply"), f"apply_stream of {CHUNK} ops")
    traced = sum(root.duration for root in roots)
    result.put("trace.overhead_frac", traced / untraced - 1.0, "chunked traced vs one call")
    own = self_times(tracer.spans)
    result.put("trace.unattributed_s", sum(own[root.ident] for root in roots))
    result.attempted = sum(len(operations) for _graph, operations in inputs)
