"""Runner-level checkpoint/resume: interrupt a replay at any checkpoint.

Asserts the ISSUE's acceptance criterion: a temporal dataset replay can be
interrupted at an *arbitrary* checkpoint and resumed, and the resumed run's
final solution, graph and per-algorithm statistics are identical to an
uninterrupted run's.

Also pins that checkpoints are committed synchronously by the writing
thread, and keep-N pruning from a fresh listing of the directory.
"""

from __future__ import annotations

import pytest

from repro.core.one_swap import DyOneSwap
from repro.exceptions import CheckpointError, ExperimentError, InjectedFault
from repro.experiments import load_temporal_workload, run_algorithm
from repro.experiments.runner import CHECKPOINT_CHUNK
from repro.generators.random_graphs import gnm_random_graph
from repro.resilience.faults import CHECKPOINT_WRITE, FaultPlan, inject_faults
from repro.updates.streams import UpdateStream
from repro.workloads import (
    CheckpointConfig,
    checkpoint_path,
    find_checkpoints,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.updates.streams import mixed_update_stream
from repro.workloads.replay import latest_valid_checkpoint
from repro.workloads.snapshot import algorithm_to_payload, graph_to_payload


@pytest.fixture(scope="module")
def temporal_workload():
    return load_temporal_workload("quick", "wiki-talk-window", num_events=260)


def _measurement_fingerprint(measurement):
    return (
        measurement.num_updates,
        measurement.initial_size,
        measurement.final_size,
        measurement.memory_footprint,
        measurement.finished,
        measurement.extra,
    )


class TestRunAlgorithmCheckpointing:
    def test_checkpoints_written_on_schedule(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100)
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        assert measurement.finished
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert [processed for processed, _ in checkpoints[:3]] == [100, 200, 300]
        # The final (partial-chunk) checkpoint covers the whole stream.
        assert checkpoints[-1][0] == stream.count() == measurement.num_updates

    def test_resume_from_every_checkpoint_is_identical(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=150)
        reference = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 3
        reference_graph = graph_to_payload(
            load_checkpoint(checkpoints[-1][1]).restore().graph
        )
        for _processed, path in checkpoints[:-1]:
            resumed = run_algorithm(
                "DyOneSwap", graph, stream, dataset="t", resume_from=path
            )
            assert _measurement_fingerprint(resumed) == _measurement_fingerprint(
                reference
            )
        # Resuming the last checkpoint and re-checkpointing reproduces the
        # reference's final graph bit-for-bit.
        resumed_dir = tmp_path / "resumed"
        resumed_config = CheckpointConfig(directory=resumed_dir, every=150)
        run_algorithm(
            "DyOneSwap",
            graph,
            stream,
            dataset="t",
            resume_from=checkpoints[0][1],
            checkpoint=resumed_config,
        )
        resumed_last = find_checkpoints(resumed_dir, "DyOneSwap")[-1]
        assert resumed_last[0] == stream.count()
        resumed_graph = graph_to_payload(
            load_checkpoint(resumed_last[1]).restore().graph
        )
        assert resumed_graph == reference_graph

    def test_batched_checkpointing_requires_aligned_interval(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=130)
        with pytest.raises(ExperimentError, match="multiple"):
            run_algorithm(
                "DyOneSwap", graph, stream, batch_size=64, checkpoint=config
            )

    def test_dyarw_resume_is_identical(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=150)
        reference = run_algorithm(
            "DyARW", graph, stream, dataset="t", checkpoint=config
        )
        mid = find_checkpoints(tmp_path, "DyARW")[1][1]
        resumed = run_algorithm("DyARW", graph, stream, dataset="t", resume_from=mid)
        assert _measurement_fingerprint(resumed) == _measurement_fingerprint(reference)

    def test_batched_resume_is_identical(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=128)
        reference = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", batch_size=64, checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        mid = checkpoints[len(checkpoints) // 2][1]
        resumed = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", batch_size=64, resume_from=mid
        )
        assert _measurement_fingerprint(resumed) == _measurement_fingerprint(reference)

    def test_resume_validates_dataset(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, dataset="workload-a", checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        with pytest.raises(ExperimentError, match="dataset"):
            run_algorithm(
                "DyOneSwap", graph, stream, dataset="workload-b", resume_from=path
            )

    def test_resume_validates_batch_size(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=128)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = find_checkpoints(tmp_path, "DyOneSwap")[0][1]
        # An unbatched checkpoint resumed in batched mode would shift every
        # batch boundary relative to an uninterrupted batched run.
        with pytest.raises(ExperimentError, match="batch_size"):
            run_algorithm("DyOneSwap", graph, stream, batch_size=64, resume_from=path)

    def test_keep_prunes_old_checkpoints(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100, keep=2)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) == 2
        assert checkpoints[-1][0] == stream.count()

    def test_resume_validates_algorithm_name(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        with pytest.raises(ExperimentError, match="belongs to"):
            run_algorithm("DyTwoSwap", graph, stream, resume_from=path)

    def test_resume_validates_stream_length(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        with pytest.raises(ExperimentError, match="stream"):
            run_algorithm("DyOneSwap", graph, stream.prefix(50), resume_from=path)

    def test_resume_validates_stream_identity(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        # Same length, different provenance: the length check alone would
        # let this through and silently mix two runs.
        other = UpdateStream(
            operations=list(stream), description="some-other-workload"
        )
        with pytest.raises(ExperimentError, match="mix two runs"):
            run_algorithm("DyOneSwap", graph, other, resume_from=path)

    def test_non_snapshot_capable_algorithm_fails_fast(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100)
        with pytest.raises(ExperimentError, match="does not support engine snapshots"):
            run_algorithm("DGOneDIS", graph, stream, checkpoint=config)
        assert not find_checkpoints(tmp_path, "DGOneDIS")

    def test_checkpoint_files_have_no_temp_residue(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_missing_checkpoint_raises(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        with pytest.raises(CheckpointError):
            run_algorithm(
                "DyOneSwap", graph, stream, resume_from=tmp_path / "nope.ckpt.json"
            )

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, every=0)
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, every=10, keep=0)


class TestWallClockCheckpointing:
    def test_config_requires_some_interval(self, tmp_path):
        with pytest.raises(CheckpointError, match="interval"):
            CheckpointConfig(directory=tmp_path)
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, every_seconds=0.0)

    def test_every_seconds_writes_periodic_checkpoints(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        # A threshold of zero seconds is "due" at every stride boundary, so
        # this deterministically exercises the wall-clock path.
        config = CheckpointConfig(directory=tmp_path, every_seconds=0.0000001)
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        assert measurement.finished
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 2  # several strides tripped the timer
        assert checkpoints[-1][0] == measurement.num_updates

    def test_large_every_seconds_still_leaves_final_checkpoint(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every_seconds=3600.0)
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        # The hour never elapses, but the end-of-stream checkpoint must
        # still make the run resumable/continuable.
        assert [processed for processed, _ in checkpoints] == [
            measurement.num_updates
        ]

    def test_wall_clock_resume_is_identical(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        straight = run_algorithm("DyOneSwap", graph, stream, dataset="t")
        config = CheckpointConfig(
            directory=tmp_path, every_seconds=0.0000001, keep=4
        )
        checkpointed = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        assert _measurement_fingerprint(straight) == _measurement_fingerprint(
            checkpointed
        )
        mid = find_checkpoints(tmp_path, "DyOneSwap")[0][1]
        resumed = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", resume_from=mid
        )
        assert _measurement_fingerprint(resumed) == _measurement_fingerprint(straight)

    def test_keep_pruning_applies_to_wall_clock_checkpoints(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(
            directory=tmp_path, every_seconds=0.0000001, keep=2
        )
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        assert len(find_checkpoints(tmp_path, "DyOneSwap")) <= 2

    def test_combined_intervals_checkpoint_on_operation_schedule(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(
            directory=tmp_path, every=100, every_seconds=3600.0
        )
        measurement = run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        # The hour never elapses: every operation-interval checkpoint lands
        # exactly on a multiple of 100, plus the end-of-stream checkpoint.
        total = measurement.num_updates
        assert [processed for processed, _ in checkpoints] == [
            *range(100, total, 100),
            total,
        ]

    def test_combined_short_clock_beats_huge_operation_interval(
        self, temporal_workload, tmp_path
    ):
        # The regression this pins: with every=10**6 alone setting the
        # stride, the clock would only be consulted after the whole stream —
        # 'whichever trips first' requires the wall-clock interval to fire
        # at its own (stride) granularity despite the huge 'every'.
        graph, stream = temporal_workload
        config = CheckpointConfig(
            directory=tmp_path, every=1_000_000, every_seconds=0.0000001
        )
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 2  # periodic, not just end-of-stream
        assert checkpoints[0][0] < measurement.num_updates


    def test_wall_clock_batched_chunks_respect_the_chunk_cap(self, tmp_path):
        # Every chunk boundary is due under a 100 ns interval, so each gap
        # between checkpoints is one chunk of whole 64-operation batches.
        graph = gnm_random_graph(60, 90, seed=5)
        stream = mixed_update_stream(graph.copy(), 2100, seed=6)
        config = CheckpointConfig(directory=tmp_path, every_seconds=0.0000001)
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, batch_size=64, checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        offsets = [0] + [processed for processed, _ in checkpoints]
        assert offsets[-1] == measurement.num_updates == 2100
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(gap <= CHECKPOINT_CHUNK for gap in gaps), gaps


class TestSynchronousCheckpoints:
    """``save_checkpoint`` commits on the caller's thread before it returns."""

    def _engine(self):
        return DyOneSwap(gnm_random_graph(24, 40, seed=7))

    def _kwargs(self, processed):
        return dict(
            algorithm_name="DyOneSwap",
            processed=processed,
            initial_size=0,
            dataset="checkpoint-test",
        )

    def _run(self, directory, **kwargs):
        graph = gnm_random_graph(16, 24, seed=3)
        operations = list(mixed_update_stream(graph.copy(), 300, seed=9))
        config = CheckpointConfig(directory=directory, every=100)
        return run_algorithm("DyOneSwap", graph, operations, checkpoint=config, **kwargs)

    def test_save_returns_the_committed_path(self, tmp_path):
        engine = self._engine()
        path = save_checkpoint(engine, tmp_path, **self._kwargs(10))
        assert path == checkpoint_path(tmp_path, "DyOneSwap", 10)
        assert path.exists()
        loaded = load_checkpoint(path)
        assert loaded.processed == 10
        assert sorted(loaded.restore().solution()) == sorted(engine.solution())

    def test_checkpoint_is_unaffected_by_later_updates(self, tmp_path):
        engine = self._engine()
        frozen = algorithm_to_payload(engine)
        path = save_checkpoint(engine, tmp_path, **self._kwargs(1))
        engine.apply_stream(mixed_update_stream(engine.graph.copy(), 60, seed=13))
        assert algorithm_to_payload(engine) != frozen
        assert load_checkpoint(path).payload == frozen

    def test_write_failure_leaves_no_file_and_the_next_save_succeeds(self, tmp_path):
        engine = self._engine()
        with inject_faults(FaultPlan.at(CHECKPOINT_WRITE, 1)):
            with pytest.raises(InjectedFault):
                save_checkpoint(engine, tmp_path, **self._kwargs(1))
        # The torn write left no file behind.
        assert find_checkpoints(tmp_path, "DyOneSwap") == []
        save_checkpoint(engine, tmp_path, **self._kwargs(2))
        assert find_checkpoints(tmp_path, "DyOneSwap") == [
            (2, checkpoint_path(tmp_path, "DyOneSwap", 2))
        ]

    def test_runner_checkpoint_failure_aborts_the_run(self, tmp_path):
        with inject_faults(FaultPlan.at(CHECKPOINT_WRITE, 2)):
            with pytest.raises(InjectedFault):
                self._run(tmp_path)
        # The failed run committed everything before the fault and nothing
        # after it (no half-written trail).
        committed = find_checkpoints(tmp_path, "DyOneSwap")
        assert [processed for processed, _ in committed] == [100]

    def test_checkpoints_are_durable_when_the_run_returns(self, tmp_path):
        measurement = self._run(tmp_path)
        committed = find_checkpoints(tmp_path, "DyOneSwap")
        assert [processed for processed, _ in committed] == [100, 200, 300]
        last = load_checkpoint(committed[-1][1])  # verifies the digest
        assert last.restore().solution_size == measurement.final_size

    def test_resume_after_a_failed_write_matches_an_uninterrupted_run(self, tmp_path):
        reference = self._run(tmp_path / "straight")
        with inject_faults(FaultPlan.at(CHECKPOINT_WRITE, 3)):
            with pytest.raises(InjectedFault):
                self._run(tmp_path / "crashed")
        newest = latest_checkpoint(tmp_path / "crashed", "DyOneSwap")
        assert load_checkpoint(newest).processed == 200
        resumed = self._run(tmp_path / "crashed", resume_from=newest)
        assert _measurement_fingerprint(resumed) == _measurement_fingerprint(reference)


class TestKeepN:
    def _save(self, engine, config, processed):
        return save_checkpoint(
            engine,
            config,
            algorithm_name="DyOneSwap",
            processed=processed,
            initial_size=0,
        )

    def test_keep_n_after_every_write(self, tmp_path):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=1))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=2)
        for step in range(1, 7):
            self._save(engine, config, step)
            survivors = find_checkpoints(tmp_path, "DyOneSwap")
            expected = [max(1, step - 1), step][: step if step < 2 else 2]
            assert [processed for processed, _ in survivors] == expected

    def test_external_deletion_triggers_a_rescan(self, tmp_path):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=2))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=2)
        for step in (1, 2, 3):
            self._save(engine, config, step)
        # Another process empties the directory behind the writer's back.
        for _, path in find_checkpoints(tmp_path, "DyOneSwap"):
            path.unlink()
        # Each pruning write lists the directory afresh — no crash, and the
        # retention invariant holds against what is on disk.
        self._save(engine, config, 4)
        self._save(engine, config, 5)
        self._save(engine, config, 6)
        assert [
            processed for processed, _ in find_checkpoints(tmp_path, "DyOneSwap")
        ] == [5, 6]

    def test_keep_one_retains_only_the_newest(self, tmp_path):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=4))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=1)
        for step in (3, 1, 2):  # out-of-order offsets still prune by offset
            self._save(engine, config, step)
        assert [
            processed for processed, _ in find_checkpoints(tmp_path, "DyOneSwap")
        ] == [3]

    def test_algorithms_sharing_a_directory_prune_independently(self, tmp_path):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=5))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=2)
        for step in range(1, 5):
            self._save(engine, config, step)
            save_checkpoint(
                engine,
                config,
                algorithm_name="DyOneSwap+lazy",
                processed=10 * step,
                initial_size=0,
            )
        assert [p for p, _ in find_checkpoints(tmp_path, "DyOneSwap")] == [3, 4]
        assert [p for p, _ in find_checkpoints(tmp_path, "DyOneSwap+lazy")] == [30, 40]

    def test_a_quarantined_checkpoint_no_longer_counts(self, tmp_path):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=3))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=2)
        for step in (100, 200, 300):
            torn = self._save(engine, config, step)
        torn.write_text(torn.read_text(encoding="utf-8")[:50], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt checkpoint"):
            restored = latest_valid_checkpoint(tmp_path, "DyOneSwap")
        assert restored.path == checkpoint_path(tmp_path, "DyOneSwap", 200)
        # The next write keeps two checkpoints: the quarantined one is gone
        # from disk, so it no longer takes a place among the newest two.
        self._save(engine, config, 348)
        assert [
            processed for processed, _ in find_checkpoints(tmp_path, "DyOneSwap")
        ] == [200, 348]
