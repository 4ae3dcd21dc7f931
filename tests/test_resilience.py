"""Resilience subsystem: fault injection, artifact integrity, supervised recovery.

Asserts the resilience acceptance criteria end to end:

* a replay killed by injected faults at arbitrary pipeline points —
  including mid-checkpoint-write — recovers through
  :func:`~repro.resilience.supervisor.supervised_replay` to a measurement
  bit-identical to an uninterrupted run's,
* corrupt or torn checkpoints are detected by their embedded digest,
  quarantined, and never loaded,
* downloads resume from partial bytes, and truncated / zero-byte /
  checksum-mismatching transfers fail the way the fetch contract promises.

The crash-point fuzz test at the bottom drives the whole recovery path from
seeded random fault plans (hypothesis) against the differential oracle of an
uninterrupted reference run.
"""

from __future__ import annotations

import hashlib
import io
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    DatasetError,
    ExperimentError,
    InjectedFault,
    IntegrityError,
    RecoveryExhaustedError,
    ResilienceError,
    SolutionInvariantError,
)
from repro.experiments import load_temporal_workload, run_algorithm
from repro.experiments.fetch import fetch_file
from repro.experiments.runner import create_algorithm
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience import (
    BULK_APPLY,
    CACHE_READ,
    CHECKPOINT_WRITE,
    COALESCE,
    FETCH,
    SNAPSHOT_WRITE,
    STREAM_READ,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    active,
    document_digest,
    inject_faults,
    install,
    supervised_replay,
    trip,
    uninstall,
    verify_document,
    write_document,
)
from repro.resilience.integrity import DIGEST_KEY, Fragment, canonical_bytes
from repro.resilience.supervisor import InvariantGuard
from repro.workloads import (
    CheckpointConfig,
    cached_temporal_stream,
    find_checkpoints,
    latest_checkpoint,
    latest_valid_checkpoint,
    save_checkpoint,
    synthetic_temporal_events,
    write_temporal_edge_list,
)
from repro.workloads import replay as replay_module
from repro.workloads.replay import (
    QUARANTINE_DIRNAME,
    load_checkpoint,
    quarantine_checkpoint,
)
from repro.workloads.snapshot import load_snapshot, save_snapshot

#: Zero-backoff policy: recovery tests retry instantly.
NO_BACKOFF = RetryPolicy(max_attempts=8, base_delay=0.0, cap=0.0)


@pytest.fixture(scope="module")
def temporal_workload():
    return load_temporal_workload("quick", "wiki-talk-window", num_events=260)


@pytest.fixture(scope="module")
def references(temporal_workload, tmp_path_factory):
    """Uninterrupted oracle runs (unbatched and batched) to compare against."""
    graph, stream = temporal_workload
    tmp = tmp_path_factory.mktemp("resilience-refs")
    unbatched = run_algorithm(
        "DyOneSwap",
        graph,
        stream,
        dataset="t",
        checkpoint=CheckpointConfig(directory=tmp / "u", every=64),
    )
    batched = run_algorithm(
        "DyOneSwap",
        graph,
        stream,
        dataset="t",
        batch_size=64,
        checkpoint=CheckpointConfig(directory=tmp / "b", every=128),
    )
    return {"unbatched": unbatched, "batched": batched}


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


def _small_algorithm():
    graph = DynamicGraph()
    for vertex in range(6):
        graph.add_vertex(vertex)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)):
        graph.add_edge(u, v)
    return create_algorithm("DyOneSwap", graph)


class TestFaultPlan:
    def test_at_builds_a_single_point_schedule(self):
        plan = FaultPlan.at(STREAM_READ, 3, 7)
        assert plan.schedule == {STREAM_READ: frozenset({3, 7})}
        assert plan.num_faults == 2

    def test_union_merges_hit_sets_of_shared_points(self):
        plan = FaultPlan.union(
            FaultPlan.at(STREAM_READ, 3),
            FaultPlan.at(STREAM_READ, 9),
            FaultPlan.at(COALESCE, 1),
        )
        assert plan.schedule[STREAM_READ] == frozenset({3, 9})
        assert plan.schedule[COALESCE] == frozenset({1})
        assert plan.num_faults == 3

    def test_unknown_point_is_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault point"):
            FaultPlan.at("disk.melt", 1)

    def test_hits_must_be_positive_integers(self):
        with pytest.raises(ResilienceError, match="1-based"):
            FaultPlan.at(STREAM_READ, 0)
        with pytest.raises(ResilienceError, match="1-based"):
            FaultPlan.at(STREAM_READ, -2)

    def test_random_plans_are_seed_deterministic(self):
        assert FaultPlan.random(42) == FaultPlan.random(42)
        assert len({FaultPlan.random(s).describe() for s in range(20)}) > 1

    def test_random_plan_validation(self):
        with pytest.raises(ResilienceError, match="at least one fault"):
            FaultPlan.random(1, faults=0)
        with pytest.raises(ResilienceError, match="horizon"):
            FaultPlan.random(1, horizon=0)
        with pytest.raises(ResilienceError, match="unknown fault point"):
            FaultPlan.random(1, points=("nope",))

    def test_describe_is_stable_and_covers_the_empty_plan(self):
        assert FaultPlan().describe() == "FaultPlan(empty)"
        text = FaultPlan.at(COALESCE, 2, 1).describe()
        assert "coalesce@[1, 2]" in text


class TestFaultInjector:
    def test_fires_at_the_planned_hit_exactly_once(self):
        injector = FaultInjector(FaultPlan.at(COALESCE, 2))
        injector.check(COALESCE)
        with pytest.raises(InjectedFault) as exc:
            injector.check(COALESCE)
        assert exc.value.point == COALESCE
        assert exc.value.hit == 2
        # The counter moved past the planned hit: later traversals sail by —
        # the transient-fault model a supervised retry relies on.
        injector.check(COALESCE)
        injector.check(COALESCE)
        assert [(f.point, f.hit) for f in injector.fired] == [(COALESCE, 2)]

    def test_pending_reports_unfired_hits(self):
        injector = FaultInjector(
            FaultPlan.union(FaultPlan.at(STREAM_READ, 1, 5), FaultPlan.at(FETCH, 2))
        )
        assert injector.pending() == {STREAM_READ: (1, 5), FETCH: (2,)}
        with pytest.raises(InjectedFault):
            injector.check(STREAM_READ)
        assert injector.pending() == {STREAM_READ: (5,), FETCH: (2,)}

    def test_trip_is_a_noop_without_an_installed_injector(self):
        assert active() is None
        trip(STREAM_READ)  # must not raise, must not need an injector

    def test_install_conflicts_are_rejected_and_uninstall_is_idempotent(self):
        injector = install(FaultPlan.at(STREAM_READ, 1))
        try:
            assert active() is injector
            with pytest.raises(ResilienceError, match="already installed"):
                install(FaultPlan.at(COALESCE, 1))
        finally:
            uninstall()
        uninstall()  # idempotent
        assert active() is None

    def test_inject_faults_uninstalls_even_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with inject_faults(FaultPlan.at(STREAM_READ, 1)):
                raise RuntimeError("boom")
        assert active() is None

    def test_trip_routes_to_the_installed_injector(self):
        with inject_faults(FaultPlan.at(BULK_APPLY, 1)) as injector:
            with pytest.raises(InjectedFault):
                trip(BULK_APPLY)
        assert injector.hits[BULK_APPLY] == 1


#: JSON values whose dicts have either all-str or all-int keys (the json
#: module cannot sort mixed keys).
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=12,
)


def _written(document, fault_point=CHECKPOINT_WRITE) -> bytes:
    stream = io.BytesIO()
    write_document(stream, document, fault_point=fault_point)
    return stream.getvalue()


class TestIntegrity:
    def test_write_and_verify_round_trip(self):
        document = {"format": "x/1", "value": [1, 2, 3]}
        loaded = json.loads(_written(document))
        assert verify_document(loaded) is loaded
        assert loaded == {**document, "sha256": document_digest(document)}
        assert "sha256" not in document  # the caller's document is not stamped

    def test_written_bytes_are_the_canonical_body_plus_its_digest(self):
        document = {"y": [2, 1], "x": {"b": True, "a": None}, "sha256": "stale"}
        body = canonical_bytes(document)
        digest = hashlib.sha256(body).hexdigest()
        assert _written(document) == body[:-1] + f',"sha256":"{digest}"}}'.encode()
        assert json.loads(_written({})) == {"sha256": document_digest({})}

    @settings(max_examples=200, deadline=None)
    @given(document=st.dictionaries(st.text(), _JSON_VALUES))
    @example(document={"sha256": 0, "a": {"sha256": 1}})
    def test_canonical_bytes_are_the_json_module_rule(self, document):
        # The top-level digest member is dropped; a nested one is data.
        body = {key: value for key, value in document.items() if key != DIGEST_KEY}
        assert canonical_bytes(document) == json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def test_fragments_are_emitted_verbatim(self):
        rows = [[1, 2], [], [0]]
        plain = {"z": {"rows": rows, "n": 3}, "a": [1.5, {"b": None}]}
        spliced = {
            "z": {"rows": Fragment(json.dumps(rows, separators=(",", ":"))), "n": 3},
            "a": [1.5, {"b": None}],
        }
        assert canonical_bytes(spliced) == canonical_bytes(plain)
        assert _written(spliced) == _written(plain)
        assert document_digest(spliced) == document_digest(plain)

    def test_fault_point_fires_with_half_the_bytes_written(self):
        document = {"value": list(range(100))}
        full = _written(document, SNAPSHOT_WRITE)
        stream = io.BytesIO()
        with inject_faults(FaultPlan.at(SNAPSHOT_WRITE, 1)):
            with pytest.raises(InjectedFault):
                write_document(stream, document, fault_point=SNAPSHOT_WRITE)
        assert stream.getvalue() == full[: len(full) // 2]

    def test_digest_ignores_key_order_and_the_digest_field(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1, "sha256": "stale"}
        assert document_digest(a) == document_digest(b)

    def test_tampered_document_is_rejected(self):
        document = json.loads(_written({"format": "x/1", "value": 7}))
        document["value"] = 8
        with pytest.raises(IntegrityError, match="failed its integrity check"):
            verify_document(document, source="unit-test")

    def test_missing_digest_policy(self):
        with pytest.raises(IntegrityError, match="no integrity digest"):
            verify_document({"value": 1})
        assert verify_document({"value": 1}, required=False) == {"value": 1}
        # A digest that is present but wrong always fails, even when optional.
        with pytest.raises(IntegrityError):
            verify_document({"value": 1, "sha256": "bogus"}, required=False)


class TestCheckpointDurability:
    def test_torn_write_leaves_the_directory_exactly_as_it_was(self, tmp_path):
        algorithm = _small_algorithm()
        first = save_checkpoint(
            algorithm, tmp_path, algorithm_name="DyOneSwap", processed=10,
            initial_size=0,
        )
        with inject_faults(FaultPlan.at(CHECKPOINT_WRITE, 1)):
            with pytest.raises(InjectedFault):
                save_checkpoint(
                    algorithm, tmp_path, algorithm_name="DyOneSwap",
                    processed=20, initial_size=0,
                )
        # The torn write aborted before the atomic rename: no new
        # checkpoint, no leftover temp file, and the intact older
        # checkpoint still recovers.
        assert [p.name for p in sorted(tmp_path.iterdir())] == [first.name]
        assert latest_valid_checkpoint(tmp_path, "DyOneSwap").path == first

    def test_torn_write_never_prunes_retained_checkpoints(self, tmp_path):
        algorithm = _small_algorithm()
        config = CheckpointConfig(directory=tmp_path, every=10, keep=1)
        save_checkpoint(
            algorithm, config, algorithm_name="DyOneSwap", processed=10,
            initial_size=0,
        )
        kept = save_checkpoint(
            algorithm, config, algorithm_name="DyOneSwap", processed=20,
            initial_size=0,
        )
        assert find_checkpoints(tmp_path, "DyOneSwap") == [(20, kept)]
        with inject_faults(FaultPlan.at(CHECKPOINT_WRITE, 1)):
            with pytest.raises(InjectedFault):
                save_checkpoint(
                    algorithm, config, algorithm_name="DyOneSwap",
                    processed=30, initial_size=0,
                )
        # Pruning runs strictly after a durable commit, so the crashed
        # write consumed nothing from the retention budget.
        assert find_checkpoints(tmp_path, "DyOneSwap") == [(20, kept)]

    def test_corrupt_newest_checkpoint_is_quarantined_never_loaded(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        run_algorithm(
            "DyOneSwap", graph, stream, dataset="t",
            checkpoint=CheckpointConfig(directory=tmp_path, every=100),
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 2
        newest, fallback = checkpoints[-1][1], checkpoints[-2][1]
        # Flip payload bits while keeping the JSON valid: exactly the rot
        # the embedded digest exists to catch.
        document = json.loads(newest.read_text(encoding="utf-8"))
        document["processed"] += 1
        newest.write_text(json.dumps(document), encoding="utf-8")
        assert latest_checkpoint(tmp_path, "DyOneSwap") == newest
        with pytest.warns(RuntimeWarning, match="quarantined corrupt checkpoint"):
            assert latest_valid_checkpoint(tmp_path, "DyOneSwap").path == fallback
        quarantine = tmp_path / QUARANTINE_DIRNAME
        assert (quarantine / newest.name).exists()
        assert not newest.exists()
        # Discovery never offers the quarantined file again.
        assert find_checkpoints(tmp_path, "DyOneSwap")[-1][1] == fallback

    def test_no_valid_checkpoint_returns_none(self, tmp_path):
        algorithm = _small_algorithm()
        path = save_checkpoint(
            algorithm, tmp_path, algorithm_name="DyOneSwap", processed=10,
            initial_size=0,
        )
        path.write_text("not json at all", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            assert latest_valid_checkpoint(tmp_path, "DyOneSwap") is None

    def test_discovery_warns_on_stray_lookalikes_and_skips_foreign_files(
        self, tmp_path
    ):
        algorithm = _small_algorithm()
        good = save_checkpoint(
            algorithm, tmp_path, algorithm_name="DyOneSwap", processed=10,
            initial_size=0,
        )
        (tmp_path / "DyOneSwap-notanumber.ckpt.json").write_text("{}")
        (tmp_path / "DyOneSwap-0000000099.ckpt.json").mkdir()
        (tmp_path / "README.txt").write_text("unrelated")
        (tmp_path / "Other-0000000005.ckpt.json").write_text("{}")
        with pytest.warns(RuntimeWarning) as caught:
            found = find_checkpoints(tmp_path, "DyOneSwap")
        assert found == [(10, good)]
        messages = [str(w.message) for w in caught]
        assert any("does not match the checkpoint naming scheme" in m for m in messages)
        assert any("not a regular file" in m for m in messages)


class TestQuarantine:
    def test_name_collisions_get_a_numeric_suffix(self, tmp_path):
        path = tmp_path / "DyOneSwap.ckpt"
        targets = []
        for generation in range(3):
            path.write_text(f"corrupt #{generation}")
            with pytest.warns(RuntimeWarning, match="quarantined corrupt checkpoint"):
                targets.append(quarantine_checkpoint(path, reason="test"))
            assert not path.exists()
        quarantine = tmp_path / QUARANTINE_DIRNAME
        assert targets == [
            quarantine / "DyOneSwap.ckpt",
            quarantine / "DyOneSwap.ckpt.1",
            quarantine / "DyOneSwap.ckpt.2",
        ]
        assert [t.read_text() for t in targets] == [
            "corrupt #0", "corrupt #1", "corrupt #2"
        ]

    def test_an_unmovable_file_degrades_to_a_warning(self, tmp_path):
        missing = tmp_path / "gone.ckpt"
        with pytest.warns(RuntimeWarning, match="could not quarantine"):
            assert quarantine_checkpoint(missing) is None


class TestSupervisedRecovery:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.at(STREAM_READ, 57),
            FaultPlan.at(CHECKPOINT_WRITE, 2),
            FaultPlan.union(
                FaultPlan.at(STREAM_READ, 57, 211),
                FaultPlan.at(CHECKPOINT_WRITE, 2),
            ),
        ],
        ids=["stream-read", "torn-checkpoint", "multi-fault"],
    )
    def test_unbatched_recovery_is_bit_identical(
        self, temporal_workload, references, tmp_path, plan
    ):
        graph, stream = temporal_workload
        with inject_faults(plan) as injector:
            result = supervised_replay(
                "DyOneSwap", graph, stream, dataset="t", retry=NO_BACKOFF,
                checkpoint=CheckpointConfig(directory=tmp_path, every=64),
            )
        assert injector.fired
        assert result.recovered
        assert result.attempts == len(result.crashes) + 1
        assert _fingerprint(result.measurement) == _fingerprint(
            references["unbatched"]
        )

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.at(COALESCE, 2),
            FaultPlan.at(BULK_APPLY, 3),
        ],
        ids=["coalesce", "bulk-apply"],
    )
    def test_batched_recovery_is_bit_identical(
        self, temporal_workload, references, tmp_path, plan
    ):
        graph, stream = temporal_workload
        with inject_faults(plan) as injector:
            result = supervised_replay(
                "DyOneSwap", graph, stream, dataset="t", retry=NO_BACKOFF,
                batch_size=64, verify_every=128,
                checkpoint=CheckpointConfig(directory=tmp_path, every=128),
            )
        assert injector.fired
        assert result.recovered
        assert _fingerprint(result.measurement) == _fingerprint(
            references["batched"]
        )

    def test_crash_records_carry_the_resume_provenance(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        plan = FaultPlan.at(STREAM_READ, 100)
        with inject_faults(plan):
            result = supervised_replay(
                "DyOneSwap", graph, stream, dataset="t", retry=NO_BACKOFF,
                checkpoint=CheckpointConfig(directory=tmp_path, every=64),
            )
        (crash,) = result.crashes
        assert crash.attempt == 1
        assert "stream.read" in crash.error
        assert crash.resumed_from is None  # the first attempt started fresh

    def test_a_retry_reads_the_newest_checkpoint_once(
        self, temporal_workload, references, tmp_path, monkeypatch
    ):
        """Discovery loads and verifies the checkpoint it returns, and the
        resumed run starts from that load instead of reading the file again."""
        graph, stream = temporal_workload
        verified = []
        real = replay_module.verify_document

        def counting(document, **kwargs):
            verified.append(kwargs.get("source"))
            return real(document, **kwargs)

        monkeypatch.setattr(replay_module, "verify_document", counting)
        with inject_faults(FaultPlan.at(STREAM_READ, 100)):
            result = supervised_replay(
                "DyOneSwap", graph, stream, dataset="t", retry=NO_BACKOFF,
                checkpoint=CheckpointConfig(directory=tmp_path, every=64),
            )
        assert result.attempts == 2
        assert verified == [tmp_path / "DyOneSwap-0000000064.ckpt.json"]
        assert result.crashes[0].resumed_from is None
        assert _fingerprint(result.measurement) == _fingerprint(
            references["unbatched"]
        )

    def test_retry_exhaustion_raises_with_full_history(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, cap=0.0)
        with inject_faults(FaultPlan.at(STREAM_READ, 1, 2, 3)):
            with pytest.raises(RecoveryExhaustedError) as exc:
                supervised_replay(
                    "DyOneSwap", graph, stream, dataset="t", retry=policy,
                    checkpoint=CheckpointConfig(directory=tmp_path, every=64),
                )
        assert exc.value.attempts == 3
        assert [record.attempt for record in exc.value.history] == [1, 2, 3]

    def test_non_recoverable_exceptions_propagate_immediately(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        with inject_faults(FaultPlan.at(STREAM_READ, 5)):
            with pytest.raises(InjectedFault):
                supervised_replay(
                    "DyOneSwap", graph, stream, dataset="t", retry=NO_BACKOFF,
                    recoverable=(),
                    checkpoint=CheckpointConfig(directory=tmp_path, every=64),
                )

    def test_checkpoint_config_is_mandatory(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        with pytest.raises(ExperimentError, match="CheckpointConfig"):
            supervised_replay(
                "DyOneSwap", graph, stream, dataset="t", checkpoint=tmp_path
            )

    def test_guard_requires_a_checkpoint_in_the_runner(self, temporal_workload):
        graph, stream = temporal_workload
        with pytest.raises(ExperimentError, match="invariant guard requires"):
            run_algorithm(
                "DyOneSwap", graph, stream, dataset="t",
                guard=InvariantGuard(), guard_every=64,
            )

    def test_backoff_sleeps_follow_the_policy(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        policy = RetryPolicy(max_attempts=4, base_delay=0.125, cap=1.0, seed=9)
        slept = []
        with inject_faults(FaultPlan.at(STREAM_READ, 1, 2)):
            result = supervised_replay(
                "DyOneSwap", graph, stream, dataset="t", retry=policy,
                sleep=slept.append,
                checkpoint=CheckpointConfig(directory=tmp_path, every=64),
            )
        assert result.attempts == 3
        assert slept == [policy.delay(1), policy.delay(2)]


class TestRetryPolicy:
    def test_delay_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, cap=0.5, seed=3)
        assert policy.delay(2) == policy.delay(2)
        for attempt in range(1, 12):
            assert 0.0 <= policy.delay(attempt) <= 0.5
        # Deep attempts saturate at the cap scaled by jitter in [0.5, 1.0].
        assert policy.delay(10) >= 0.25

    def test_distinct_seeds_desynchronise_the_jitter(self):
        a = RetryPolicy(base_delay=1.0, cap=10.0, seed=0)
        b = RetryPolicy(base_delay=1.0, cap=10.0, seed=1)
        assert a.delay(1) != b.delay(1)

    def test_validation(self):
        with pytest.raises(ExperimentError, match="at least 1"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExperimentError, match="non-negative"):
            RetryPolicy(base_delay=-0.1)


class _GuardProbe:
    """A minimal algorithm-shaped object for exercising the invariant guard."""

    def __init__(self, solution, *, repairable=True):
        self.graph = DynamicGraph()
        self.graph.add_vertex(1)
        self.graph.add_vertex(2)
        self.k = 1
        self._solution = set(solution)
        self._repairable = repairable

    def solution(self):
        return set(self._solution)

    def _stabilize(self):
        if self._repairable:
            self._solution = {1, 2}


class TestInvariantGuard:
    def test_valid_solution_passes(self):
        guard = InvariantGuard()
        guard(_GuardProbe({1, 2}))
        assert (guard.checks, guard.violations, guard.repairs) == (1, 0, 0)

    def test_repair_policy_restabilises_and_recovers(self):
        guard = InvariantGuard("repair")
        guard(_GuardProbe({1}))  # not maximal: vertex 2 is addable
        assert (guard.violations, guard.repairs) == (1, 1)

    def test_repair_failure_aborts(self):
        guard = InvariantGuard("repair")
        with pytest.raises(SolutionInvariantError, match="could not be repaired"):
            guard(_GuardProbe({1}, repairable=False))

    def test_abort_policy_raises_immediately(self):
        guard = InvariantGuard("abort")
        probe = _GuardProbe({1})
        with pytest.raises(SolutionInvariantError, match="'abort'"):
            guard(probe)
        assert probe.solution() == {1}  # no repair was attempted

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ExperimentError, match="'repair' or 'abort'"):
            InvariantGuard("shrug")


class TestCacheIntegrity:
    def _cached_stream(self, tmp_path, name="events"):
        events = synthetic_temporal_events(60, num_vertices=15, seed=3)
        source = tmp_path / f"{name}.txt"
        write_temporal_edge_list(events, source)
        return cached_temporal_stream(source, cache_dir=tmp_path / "cache")

    def test_bit_rot_inside_valid_json_is_detected(self, tmp_path):
        stream = self._cached_stream(tmp_path)
        reference = list(stream)
        assert reference  # the pristine cache replays fine
        lines = stream.path.read_text(encoding="utf-8").splitlines(keepends=True)
        # Inject whitespace into a body chunk: the JSON still decodes to the
        # same operations, so only the digest can notice.
        assert lines[1].startswith("[")
        lines[1] = "[ " + lines[1][1:]
        stream.path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(IntegrityError, match="body integrity"):
            list(stream)

    def test_cache_read_fault_point_fires_per_chunk(self, tmp_path):
        stream = self._cached_stream(tmp_path)
        with inject_faults(FaultPlan.at(CACHE_READ, 1)) as injector:
            with pytest.raises(InjectedFault):
                list(stream)
        assert injector.fired[0].point == CACHE_READ

    def test_supervised_replay_recovers_from_a_cache_read_crash(self, tmp_path):
        stream = self._cached_stream(tmp_path)
        reference = run_algorithm(
            "DyOneSwap", DynamicGraph(), stream, dataset="t",
            checkpoint=CheckpointConfig(directory=tmp_path / "ref", every=16),
        )
        with inject_faults(FaultPlan.at(CACHE_READ, 1)) as injector:
            result = supervised_replay(
                "DyOneSwap", DynamicGraph(), stream, dataset="t",
                retry=NO_BACKOFF,
                checkpoint=CheckpointConfig(directory=tmp_path / "sup", every=16),
            )
        assert injector.fired
        assert result.recovered
        assert _fingerprint(result.measurement) == _fingerprint(reference)


class TestSnapshotIntegrity:
    def test_tampered_snapshot_is_rejected(self, tmp_path):
        path = tmp_path / "engine.snapshot.json"
        save_snapshot(_small_algorithm(), path)
        load_snapshot(path)  # pristine snapshot round-trips
        document = json.loads(path.read_text(encoding="utf-8"))
        document["tampered"] = True
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(IntegrityError, match="failed its integrity check"):
            load_snapshot(path)

    def test_torn_snapshot_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "engine.snapshot.json"
        with inject_faults(FaultPlan.at(SNAPSHOT_WRITE, 1)):
            with pytest.raises(InjectedFault):
                save_snapshot(_small_algorithm(), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp file survives either


def _save_checkpoint(algorithm, directory):
    return save_checkpoint(
        algorithm, directory, algorithm_name="DyOneSwap", processed=10,
        initial_size=0,
    )


def _save_snapshot(algorithm, directory):
    path = directory / "engine.snapshot.json"
    save_snapshot(algorithm, path)
    return path


def _load_checkpoint(path):
    return load_checkpoint(path).restore()


_ARTIFACTS = [
    pytest.param(_save_checkpoint, _load_checkpoint, id="checkpoint"),
    pytest.param(_save_snapshot, load_snapshot, id="snapshot"),
]


class TestArtifactEncoding:
    """The digest covers the data, not the bytes: formatting is free, data is not."""

    @pytest.mark.parametrize("save, load", _ARTIFACTS)
    def test_artifact_loads_after_reindenting(self, save, load, tmp_path):
        algorithm = _small_algorithm()
        path = save(algorithm, tmp_path)
        document = json.loads(path.read_bytes())
        path.write_text(json.dumps(document, indent=2), encoding="utf-8")
        assert load(path).solution() == algorithm.solution()

    @pytest.mark.parametrize("save, load", _ARTIFACTS)
    def test_one_byte_change_inside_labels_is_rejected(self, save, load, tmp_path):
        path = save(_small_algorithm(), tmp_path)
        data = bytearray(path.read_bytes())
        start = data.index(b'"labels":[') + len(b'"labels":[')
        assert data[start : start + 1] == b"0"
        data[start] = ord("9")
        path.write_bytes(bytes(data))
        json.loads(data)  # still valid JSON: only the digest can tell
        with pytest.raises(IntegrityError, match="failed its integrity check"):
            load(path)


class _FakeResponse:
    """A urlopen response serving ``body``, optionally dying mid-transfer."""

    def __init__(self, body, status, *, declared=None, die_after_reads=None):
        self._body = body
        self._pos = 0
        self._reads = 0
        self._die_after_reads = die_after_reads
        self.status = status
        length = len(body) if declared is None else declared
        self.headers = {"Content-Length": str(length)}

    def read(self, n):
        if self._die_after_reads is not None and self._reads >= self._die_after_reads:
            raise OSError("connection reset by peer")
        self._reads += 1
        block = self._body[self._pos : self._pos + n]
        self._pos += len(block)
        return block

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class _FakeServer:
    """A ``urlopen`` stand-in with per-attempt failure scripting.

    ``script`` holds one dict of :class:`_FakeResponse` keyword overrides per
    expected request; requests beyond the script are served cleanly.
    ``requests`` records the ``Range`` header of every request, in order.
    """

    def __init__(self, payload, *, honor_range=True, script=()):
        self.payload = payload
        self.honor_range = honor_range
        self.script = list(script)
        self.requests = []

    def __call__(self, request, timeout=None):
        range_header = request.get_header("Range")
        self.requests.append(range_header)
        overrides = self.script.pop(0) if self.script else {}
        offset = 0
        if range_header is not None and self.honor_range:
            offset = int(range_header.split("=")[1].rstrip("-"))
            if offset >= len(self.payload):
                raise urllib.error.HTTPError(
                    request.full_url, 416, "Range Not Satisfiable", {}, None
                )
            return _FakeResponse(self.payload[offset:], 206, **overrides)
        return _FakeResponse(self.payload, 200, **overrides)


@pytest.fixture
def no_sleep():
    slept = []
    return slept.append


class TestResumableFetch:
    PAYLOAD = b"0123456789abcdef" * 4  # 64 bytes

    def _digest(self, data=None):
        return hashlib.sha256(self.PAYLOAD if data is None else data).hexdigest()

    def test_resumes_with_a_range_request_after_a_midstream_drop(
        self, tmp_path, monkeypatch, no_sleep
    ):
        server = _FakeServer(self.PAYLOAD, script=[{"die_after_reads": 2}])
        monkeypatch.setattr(urllib.request, "urlopen", server)
        dest = tmp_path / "data.bin"
        fetch_file(
            "http://example.test/data.bin", dest, sha256=self._digest(),
            chunk_size=8, sleep=no_sleep,
        )
        assert dest.read_bytes() == self.PAYLOAD
        # Attempt 1 died after 16 bytes; attempt 2 resumed from them.
        assert server.requests == [None, "bytes=16-"]
        assert not dest.with_name(dest.name + ".part").exists()
        assert dest.with_name(dest.name + ".sha256").exists()

    def test_restarts_cleanly_when_the_server_ignores_range(
        self, tmp_path, monkeypatch, no_sleep
    ):
        server = _FakeServer(
            self.PAYLOAD, honor_range=False, script=[{"die_after_reads": 1}]
        )
        monkeypatch.setattr(urllib.request, "urlopen", server)
        dest = tmp_path / "data.bin"
        fetch_file(
            "http://example.test/data.bin", dest, sha256=self._digest(),
            chunk_size=8, sleep=no_sleep,
        )
        # The retry asked for a range, got a 200, threw the partial bytes
        # away and still converged on the full correct payload.
        assert server.requests == [None, "bytes=8-"]
        assert dest.read_bytes() == self.PAYLOAD

    def test_completed_part_file_finishes_via_416(
        self, tmp_path, monkeypatch, no_sleep
    ):
        server = _FakeServer(self.PAYLOAD)
        monkeypatch.setattr(urllib.request, "urlopen", server)
        dest = tmp_path / "data.bin"
        dest.with_name(dest.name + ".part").write_bytes(self.PAYLOAD)
        fetch_file(
            "http://example.test/data.bin", dest, sha256=self._digest(),
            sleep=no_sleep,
        )
        assert dest.read_bytes() == self.PAYLOAD
        assert server.requests == ["bytes=64-"]

    def test_zero_byte_download_is_a_hard_failure(
        self, tmp_path, monkeypatch, no_sleep
    ):
        server = _FakeServer(b"")
        monkeypatch.setattr(urllib.request, "urlopen", server)
        dest = tmp_path / "data.bin"
        with pytest.raises(DatasetError, match="zero bytes"):
            fetch_file("http://example.test/data.bin", dest, sleep=no_sleep)
        assert not dest.exists()
        assert not dest.with_name(dest.name + ".part").exists()
        assert len(server.requests) == 1  # an empty body is not retried

    def test_truncated_transfers_retry_then_fail_hard(
        self, tmp_path, monkeypatch, no_sleep
    ):
        # Every attempt closes cleanly but short of the declared length, and
        # the server ignores ranges (otherwise the resume would legitimately
        # finish the payload — which is the point of resumable fetch).
        server = _FakeServer(
            self.PAYLOAD[:16],
            honor_range=False,
            script=[{"declared": 64}, {"declared": 64}],
        )
        monkeypatch.setattr(urllib.request, "urlopen", server)
        dest = tmp_path / "data.bin"
        with pytest.raises(DatasetError, match="truncated"):
            fetch_file(
                "http://example.test/data.bin", dest,
                retry=RetryPolicy(max_attempts=2), sleep=no_sleep,
            )
        assert not dest.exists()
        # The partial bytes survive for a future resume — only a checksum
        # mismatch poisons (and therefore deletes) them.
        assert dest.with_name(dest.name + ".part").exists()
        assert server.requests == [None, "bytes=16-"]

    def test_checksum_mismatch_deletes_the_partial_file(
        self, tmp_path, monkeypatch, no_sleep
    ):
        server = _FakeServer(self.PAYLOAD)
        monkeypatch.setattr(urllib.request, "urlopen", server)
        dest = tmp_path / "data.bin"
        with pytest.raises(DatasetError, match="pinned SHA-256"):
            fetch_file(
                "http://example.test/data.bin", dest,
                sha256=self._digest(b"other"), sleep=no_sleep,
            )
        assert not dest.exists()
        assert not dest.with_name(dest.name + ".part").exists()

    def test_injected_fetch_fault_is_absorbed_by_the_retry_loop(
        self, tmp_path, monkeypatch, no_sleep
    ):
        server = _FakeServer(self.PAYLOAD)
        monkeypatch.setattr(urllib.request, "urlopen", server)
        dest = tmp_path / "data.bin"
        with inject_faults(FaultPlan.at(FETCH, 2)) as injector:
            fetch_file(
                "http://example.test/data.bin", dest, sha256=self._digest(),
                chunk_size=8, sleep=no_sleep,
            )
        assert injector.fired
        assert dest.read_bytes() == self.PAYLOAD
        # The fault killed attempt 1 after one 8-byte chunk; the retry
        # resumed from it instead of restarting.
        assert server.requests == [None, "bytes=8-"]


class TestSmokeHarness:
    def test_seed_pinned_smoke_check_passes(self):
        from repro.resilience import smoke

        assert smoke.main() == 0


class TestCrashPointFuzz:
    """Random kill schedules vs the differential oracle, seed-deterministic."""

    @pytest.fixture(scope="class")
    def oracle(self, tmp_path_factory):
        graph, stream = load_temporal_workload(
            "quick", "wiki-talk-window", num_events=120
        )
        tmp = tmp_path_factory.mktemp("fuzz-oracle")
        reference = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t",
            checkpoint=CheckpointConfig(directory=tmp, every=32),
        )
        return graph, stream, _fingerprint(reference)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_arbitrary_crash_schedules_recover_bit_identically(
        self, oracle, tmp_path, seed
    ):
        import tempfile
        from pathlib import Path

        graph, stream, reference = oracle
        plan = FaultPlan.random(
            seed, faults=3, horizon=200,
            points=(STREAM_READ, CHECKPOINT_WRITE),
        )
        with tempfile.TemporaryDirectory(dir=tmp_path) as workdir:
            with inject_faults(plan) as injector:
                result = supervised_replay(
                    "DyOneSwap", graph, stream, dataset="t", retry=NO_BACKOFF,
                    checkpoint=CheckpointConfig(
                        directory=Path(workdir), every=32
                    ),
                )
        # Whether or not a planned hit landed inside this workload's
        # horizon, the recovered measurement must match the oracle.
        assert result.attempts == len(result.crashes) + 1
        assert len(result.crashes) == len(injector.fired)
        assert _fingerprint(result.measurement) == reference
