"""Workload ``replay-churn``: cached temporal replay with checkpoints.

Input: ``STREAMS`` files of hub-biased synthetic temporal events (the skew of
the ``stackoverflow-burst`` catalog entry), each derived from the seed and
written as ``u v t`` lines.  Several short streams instead of one long one
average out how much one seed's event mix costs, while keeping enough timed
replays for a latency tail.  Set-up parses and windows every file into the
on-disk stream cache.  The timed call is ``run_algorithm("DyOneSwap+lazy",
...)`` over one cached stream in 64-op batches with operation-count
checkpoints; rounds replay every stream on fresh engines until the run's time
is spent.

The traced run re-drives the runner's loop from public calls (cursor chunks,
a read-only ``coalesce_batch`` sibling, ``apply_batch`` per batch,
``save_checkpoint`` plus a sibling ``algorithm_to_payload`` at the same
offsets) and must end on the digest of the untraced run's final checkpoint.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List

from repro.core.verification import find_one_swap, is_maximal_independent_set
from repro.experiments.runner import create_algorithm, run_algorithm
from repro.graphs import DynamicGraph
from repro.service import engine_digest
from repro.updates import StreamCursor, coalesce_batch
from repro.workloads import (
    CheckpointConfig,
    algorithm_to_payload,
    cached_temporal_stream,
    find_checkpoints,
    iter_synthetic_temporal_events,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
    write_temporal_edge_list,
)

from counters import combine, engine_counters
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

ALGORITHM = "DyOneSwap+lazy"
STREAMS = 4
EVENTS = 3_000
NUM_VERTICES = 20_000
HUB_FRACTION = 0.02
HUB_BIAS = 0.8
#: Short window: most interactions expire within one or two batches.
WINDOW = 15.0
BATCH = 64
CHECKPOINT_EVERY = 32 * BATCH
CHECKPOINT_KEEP = 3
#: The runner's chunk cap (operations materialised between checkpoints).
CHUNK = 1024
SETUP_REPEATS = 5
KEEP_SETUPS = 3
#: Rounds run (at least) and rounds kept: those during which the CPU's speed
#: held steadiest.
MIN_ROUNDS = 16
KEEP_ROUNDS = 10


def _write_events(seed: int, path: Path) -> None:
    events = iter_synthetic_temporal_events(
        EVENTS,
        num_vertices=NUM_VERTICES,
        seed=seed,
        hub_fraction=HUB_FRACTION,
        hub_bias=HUB_BIAS,
    )
    write_temporal_edge_list(events, path)


def _build_caches(paths: List[Path], cache_dir: Path):
    """Build every stream's cache from scratch; return (streams, seconds)."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    gc.collect()
    start = time.perf_counter()
    streams = [
        cached_temporal_stream(path, cache_dir=cache_dir, window=WINDOW, gc_isolated=True)
        for path in paths
    ]
    elapsed = time.perf_counter() - start
    if any(stream.metadata.get("cache") != "miss" for stream in streams):
        raise RuntimeError("stream cache unexpectedly hit during set-up")
    return streams, elapsed


def _replay(stream, directory: Path, keep=CHECKPOINT_KEEP):
    """One untraced replay; returns (wall seconds, measurement)."""
    shutil.rmtree(directory, ignore_errors=True)
    config = CheckpointConfig(directory=directory, every=CHECKPOINT_EVERY, keep=keep)
    gc.collect()
    start = time.perf_counter()
    measurement = run_algorithm(
        ALGORITHM, DynamicGraph(), stream, batch_size=BATCH, checkpoint=config
    )
    return time.perf_counter() - start, measurement


def _payload_digest(payload: Dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _final_checkpoint(directory: Path, result: Result, measurement, length: int):
    """Load and verify a replay's final checkpoint.

    Returns ``(checkpoint, engine, seconds to load and restore it)``.
    """
    path = latest_checkpoint(directory, ALGORITHM)
    result.check(path is not None, "replay wrote no checkpoint")
    start = time.perf_counter()
    checkpoint = load_checkpoint(path)
    engine = checkpoint.restore()
    load_seconds = time.perf_counter() - start
    solution = engine.solution()
    result.check(checkpoint.processed == length, "final checkpoint is not at stream end")
    result.check(measurement.finished, "replay did not finish")
    result.check(measurement.num_updates == length, "replay skipped operations")
    result.check(
        is_maximal_independent_set(engine.graph, solution),
        "final solution is not a maximal independent set",
    )
    result.check(find_one_swap(engine.graph, solution) is None, "final solution has a 1-swap")
    result.check(
        engine.solution_size == measurement.final_size,
        "restored solution size differs from RunMeasurement.final_size",
    )
    return checkpoint, engine, load_seconds


def run(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    result = Result()
    paths = [work / f"events{k}.txt" for k in range(STREAMS)]
    for k, path in enumerate(paths):
        _write_events(seed * 1000 + k, path)
    gc.freeze()
    pinning = Pinning()
    builds: List[float] = []
    brackets: List[Bracket] = []
    for index in range(SETUP_REPEATS):
        probe = pinning.settle()
        streams, elapsed = _build_caches(paths, work / f"cache{index}")
        builds.append(elapsed)
        brackets.append(Bracket(probe, host_probe()))
    kept_builds = steadiest(builds, brackets, KEEP_SETUPS)
    if trace:
        _traced(streams, [b for b, _bracket in kept_builds], work, result)
        return result

    total = sum(len(stream) for stream in streams)
    rounds: List[List[float]] = []
    reference: Dict[int, tuple] = {}
    counters = []
    brackets = []
    resident = reset_peak_rss_mb()
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        probe = pinning.settle()
        walls: List[float] = []
        for k, stream in enumerate(streams):
            directory = work / f"ckpt{k}"
            wall, measurement = _replay(stream, directory)
            walls.append(wall)
            result.attempted += measurement.num_updates
            observed = (measurement.final_size, tuple(sorted(measurement.extra.items())))
            if k not in reference:
                reference[k] = observed
                _checkpoint, engine, _load = _final_checkpoint(
                    directory, result, measurement, len(stream)
                )
                counters.append(engine_counters(engine))
            result.check(observed == reference[k], f"stream {k} replay drifted")
            shutil.rmtree(directory)
        rounds.append(walls)
        brackets.append(Bracket(probe, host_probe()))
    kept = steadiest(rounds, brackets, KEEP_ROUNDS)
    peak = proc_peak_rss_mb(os.getpid())
    result.counters.update(combine(counters))
    result.put(
        "setup_s",
        median(b * bracket.scale for b, bracket in kept_builds),
        f"median of the steadiest {KEEP_SETUPS} of {SETUP_REPEATS} builds of {STREAMS} caches",
    )
    result.put(
        "updates_per_s",
        median(total / (sum(walls) * bracket.scale) for walls, bracket in kept),
        f"median of the steadiest {len(kept)} of {len(rounds)} rounds over "
        f"{STREAMS} streams, {total} ops each; raw "
        f"{median(total / sum(walls) for walls, _ in kept):.6g}",
    )
    # The whole process, not the growth over ``resident``: the replay's own
    # working set (about 40 live vertices, one chunk, one checkpoint) is a
    # few hundred KB that reuses pages the set-up freed, so the growth is
    # too small to repeat.
    result.put(
        "peak_rss_mb",
        peak,
        f"high-water mark of the benchmark process during the rounds; "
        f"{resident:.1f} MB resident before them",
    )
    return result


def _traced(streams, builds: List[float], work: Path, result: Result) -> None:
    tracer = Tracer()
    counters = []
    roots = []
    untraced = load_s = update_s = outside_s = 0.0
    in_ops = net_ops = checkpoint_bytes = checkpoints = 0
    for k, stream in enumerate(streams):
        length = len(stream)
        with tracer.span("temporal.decode"):
            decoded = sum(1 for _ in stream)
        result.check(decoded == length, "raw decode pass lost operations")

        # Untraced reference: the runner itself, for the runner split, the
        # overhead baseline, the checkpoints it writes and the digest the
        # traced loop must reproduce.  It keeps every checkpoint, so the
        # files left are exactly the runner's writes.
        directory = work / f"ckpt-untraced{k}"
        wall, measurement = _replay(stream, directory, keep=None)
        written = [offset for offset, _path in find_checkpoints(directory, ALGORITHM)]
        checkpoints += len(written)
        untraced += wall
        update_s += measurement.elapsed_seconds
        outside_s += wall - measurement.elapsed_seconds
        checkpoint, _engine, seconds = _final_checkpoint(directory, result, measurement, length)
        load_s += seconds
        expected_digest = _payload_digest(checkpoint.payload)

        config = CheckpointConfig(
            directory=work / f"ckpt-traced{k}",
            every=CHECKPOINT_EVERY,
            keep=CHECKPOINT_KEEP,
        )
        gc.collect()
        with tracer.span("run") as root:
            engine = create_algorithm(ALGORITHM, DynamicGraph())
            threshold = engine.BULK_APPLY_THRESHOLD
            cursor = StreamCursor(stream)
            processed = pending = 0
            saved = []
            while True:
                stride = min(CHECKPOINT_EVERY - pending, CHUNK)
                with tracer.span("protocol.take"):
                    chunk = cursor.take(stride)
                for start in range(0, len(chunk), BATCH):
                    batch = chunk[start : start + BATCH]
                    if len(batch) >= threshold:
                        with tracer.span("coalesce"):
                            net = coalesce_batch(engine.graph, batch)
                        in_ops += len(batch)
                        net_ops += net.num_net_operations
                    with tracer.span("core.apply"):
                        engine.apply_batch(batch)
                processed += len(chunk)
                pending += len(chunk)
                if pending and (pending >= CHECKPOINT_EVERY or len(chunk) < stride):
                    with tracer.span("replay.checkpoint"):
                        path = save_checkpoint(
                            engine,
                            config,
                            algorithm_name=ALGORITHM,
                            processed=processed,
                            initial_size=0,
                            stream_length=length,
                            stream_description=stream.description,
                            stream_identity=cursor.fingerprint,
                            batch_size=BATCH,
                        )
                    checkpoint_bytes += path.stat().st_size
                    saved.append(processed)
                    with tracer.span("snapshot.payload"):
                        algorithm_to_payload(engine)
                    pending = 0
                if len(chunk) < stride:
                    break
        roots.append(root)
        result.check(processed == length, "traced loop lost operations")
        result.check(saved == written, "traced loop checkpoints at other offsets than run_algorithm")
        result.check(
            engine_digest(engine) == expected_digest,
            "traced loop digest differs from the untraced run's final checkpoint",
        )
        counters.append(engine_counters(engine))

    for name, value in combine(counters).items():
        result.count(name, value)
    result.count("replay.checkpoints", checkpoints)
    result.count("coalesce.in_ops", in_ops)
    result.count("coalesce.net_ops", net_ops)
    result.put("coalesce.cancel_ratio", 1.0 - net_ops / in_ops if in_ops else 0.0)
    result.put("temporal.cache_build_s", median(builds), f"median of {len(builds)}")
    result.put("temporal.cache_bytes", sum(stream.path.stat().st_size for stream in streams))
    result.put("temporal.decode_s", tracer.total("temporal.decode"), "raw decode pre-pass")
    result.put("protocol.take_s", tracer.total("protocol.take"), "decode + fingerprint")
    apply_s = tracer.total("core.apply")
    coalesce_s = tracer.total("coalesce")
    result.put("coalesce.s", coalesce_s, "read-only sibling of apply_batch")
    result.put("core.apply_s", apply_s)
    result.put("core.self_s", apply_s - coalesce_s, "apply - coalesce")
    result.latency("core.call", tracer.durations("core.apply"), "apply_batch")
    result.put("runner.update_s", update_s, "RunMeasurement.elapsed_seconds")
    result.put("runner.outside_s", outside_s, "wall - update_s")
    checkpoints = tracer.durations("replay.checkpoint")
    result.put("replay.checkpoint_s", sum(checkpoints))
    result.latency("replay.checkpoint", checkpoints, "save_checkpoint", p50=False)
    result.put("replay.checkpoint_bytes", checkpoint_bytes, "total written")
    result.put("snapshot.payload_s", tracer.total("snapshot.payload"))
    result.put("snapshot.load_s", load_s, "final checkpoints")
    traced = sum(root.duration for root in roots)
    result.put(
        "trace.overhead_frac",
        traced / untraced - 1.0,
        "traced loop (incl. sibling coalesce + payload) vs run_algorithm",
    )
    own = self_times(tracer.spans)
    result.put("trace.unattributed_s", sum(own[root.ident] for root in roots))
    result.attempted = sum(len(stream) for stream in streams)
