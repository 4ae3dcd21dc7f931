"""Tests for the always-on service layer (:mod:`repro.service`).

The gateway runs in a daemon thread with its own event loop
(:class:`~repro.service.client.ServiceThread`); tests talk to it through
the blocking :class:`~repro.service.client.ServiceClient` over a real Unix
socket, so every assertion exercises the full wire → admission → engine →
durability path.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import shutil
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.exceptions import ServiceError, WireError
from repro.experiments.runner import SNAPSHOT_CAPABLE, create_algorithm
from repro.generators.worst_case import flicker_update_stream
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.faults import (
    BULK_APPLY,
    CHECKPOINT_WRITE,
    SERVICE_INGEST,
    SERVICE_SHUTDOWN,
    FaultPlan,
    inject_faults,
)
from repro.resilience.supervisor import RetryPolicy
from repro.service import (
    SERVICE_FORMAT,
    ServiceConfig,
    ServiceThread,
    TenantSpec,
)
from repro.service.tenant import Tenant, engine_digest
from repro.updates.operations import UpdateOperation
from repro.updates.protocol import (
    EMPTY_FINGERPRINT,
    advance_identity,
    chunked,
    encode_operation,
)
from repro.updates.streams import mixed_update_stream
from repro.updates.wire import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    operations_from_wire,
    operations_to_wire,
)
from repro.workloads import replay
from repro.workloads.replay import load_checkpoint, save_checkpoint
from repro.workloads.snapshot import save_snapshot

#: Zero-backoff supervision for tests (determinism needs no sleeping).
FAST_RETRY = RetryPolicy(max_attempts=8, base_delay=0.0, cap=0.0)


def build_ops(count=256, seed=3):
    """A deterministic mixed stream over an initially empty graph."""
    graph = DynamicGraph()
    stream = mixed_update_stream(graph, count, seed=seed, edge_fraction=0.5)
    return list(stream)


def service(tmp_path, *tenants, **overrides):
    defaults = dict(
        data_dir=str(tmp_path / "data"),
        unix_socket=str(tmp_path / "service.sock"),
        retry=FAST_RETRY,
    )
    defaults.update(overrides)
    return ServiceThread(ServiceConfig(tenants=tuple(tenants), **defaults))


def reference_digest(operations, batch, initial_graph=None):
    engine = create_algorithm(
        "DyOneSwap", (initial_graph or DynamicGraph()).copy(), None
    )
    for group in chunked(iter(operations), batch):
        engine.apply_batch(group)
    return engine_digest(engine)


# --------------------------------------------------------------------- #
# Wire adapter
# --------------------------------------------------------------------- #
class TestWire:
    def test_line_round_trip(self):
        doc = {"cmd": "query", "vertex": 7, "nested": [1, "x", None]}
        assert decode_line(encode_line(doc)) == doc

    def test_line_rejects_oversized(self):
        with pytest.raises(WireError):
            encode_line({"blob": "x" * MAX_LINE_BYTES})
        with pytest.raises(WireError):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    def test_line_rejects_bad_payloads(self):
        with pytest.raises(WireError):
            decode_line(b"\xff\xfe")
        with pytest.raises(WireError):
            decode_line(b"not json")
        with pytest.raises(WireError):
            decode_line(b"[1, 2, 3]")
        with pytest.raises(WireError):
            encode_line({"bad": object()})

    def test_operations_round_trip(self):
        ops = [
            UpdateOperation.insert_vertex(1, ()),
            UpdateOperation.insert_vertex(2, (1,)),
            UpdateOperation.insert_edge(1, 2),
            UpdateOperation.delete_edge(1, 2),
            UpdateOperation.delete_vertex(2),
        ]
        assert operations_from_wire(operations_to_wire(ops)) == ops

    def test_malformed_operation_names_index(self):
        entries = operations_to_wire([UpdateOperation.insert_vertex(1)])
        entries.append(["?bogus", 9])
        with pytest.raises(WireError, match="#1"):
            operations_from_wire(entries)
        with pytest.raises(WireError):
            operations_from_wire({"not": "a list"})
        with pytest.raises(WireError, match="#0"):
            operations_from_wire([[]])

    @pytest.mark.parametrize(
        "entry, reason",
        [
            (["+v", 7, [7]], "as its own neighbour"),
            (["+v", 1, [True]], "as its own neighbour"),
            (["+v", 9, [1, 1]], "repeats a neighbour"),
            (["+v", 9, [1, True]], "repeats a neighbour"),
            (["+v", 9, "12"], "neighbours in an array"),
            (["+v", 9, {"1": 2}], "neighbours in an array"),
            (["+e", 1, 2, 3], "has 4 fields, but '\\+e' takes 3"),
            (["-e", 1, 2, 3], "has 4 fields, but '-e' takes 3"),
            (["+v", 9, [], 0], "has 4 fields, but '\\+v' takes 3"),
            (["-v", 9, []], "has 3 fields, but '-v' takes 2"),
        ],
        ids=[
            "self-neighbour",
            "bool-self-neighbour",
            "repeated-neighbour",
            "bool-repeated-neighbour",
            "string-neighbours",
            "object-neighbours",
            "insert-edge-extra-field",
            "delete-edge-extra-field",
            "insert-vertex-extra-field",
            "delete-vertex-extra-field",
        ],
    )
    def test_shapes_no_graph_can_apply_name_index(self, entry, reason):
        good = [["+v", 1, []], ["+v", 2, [1]], ["+e", 1, 3], ["-v", 2]]
        assert len(operations_from_wire(good)) == 4
        with pytest.raises(WireError, match=f"operation #4 .*{reason}"):
            operations_from_wire(good + [entry])

    def test_labels_must_be_int_str_or_bool(self):
        good = [["+v", True, []], ["+v", "a", [True]], ["+e", -(2**70), "a"]]
        assert len(operations_from_wire(good)) == 3
        for bad in (["+v", 2.5, []], ["+e", 1, [2]], ["+v", 3, ["a", None]]):
            with pytest.raises(WireError, match="operation #3 has vertex label"):
                operations_from_wire(good + [bad])


# --------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------- #
class TestConfig:
    def test_validation_errors(self, tmp_path):
        with pytest.raises(ServiceError, match="tenant name"):
            TenantSpec(name="bad/name")
        with pytest.raises(ServiceError, match="unknown algorithm"):
            TenantSpec(name="t", algorithm="NoSuch")
        with pytest.raises(ServiceError, match="snapshot"):
            TenantSpec(name="t", algorithm="DGOneDIS")
        with pytest.raises(ServiceError, match="window_max"):
            TenantSpec(name="t", batch_size=10, window_max=15)
        with pytest.raises(ServiceError, match="queue_cap"):
            TenantSpec(name="t", batch_size=64, queue_cap=10)
        with pytest.raises(ServiceError, match="checkpoint_every"):
            TenantSpec(name="t", batch_size=10, window_max=20, checkpoint_every=15)
        with pytest.raises(ServiceError, match="at least one tenant"):
            ServiceConfig(data_dir=str(tmp_path), tenants=(), port=0)
        spec = TenantSpec(name="t")
        with pytest.raises(ServiceError, match="duplicate"):
            ServiceConfig(data_dir=str(tmp_path), tenants=(spec, spec), port=0)
        with pytest.raises(ServiceError, match="listener"):
            ServiceConfig(data_dir=str(tmp_path), tenants=(spec,))

    @pytest.mark.parametrize("options", [{"workers": 2}, {"lazzy": True}])
    @pytest.mark.parametrize("algorithm", SNAPSHOT_CAPABLE)
    def test_unknown_algorithm_options_are_refused(self, tmp_path, algorithm, options):
        (option,) = options
        with pytest.raises(ServiceError, match=f"tenant 't'.*{option!r}"):
            TenantSpec(name="t", algorithm=algorithm, options=options)
        # Refused when the file is loaded, not when the gateway starts.
        path = tmp_path / "service.json"
        path.write_text(json.dumps({
            "data_dir": str(tmp_path / "d"),
            "port": 0,
            "tenants": [{"name": "t", "algorithm": algorithm, "options": options}],
        }))
        with pytest.raises(ServiceError, match=repr(option)):
            ServiceConfig.from_file(path)

    def test_json_round_trip(self, tmp_path):
        config = ServiceConfig(
            data_dir=str(tmp_path / "d"),
            tenants=(
                TenantSpec(name="a", batch_size=32, window_max=64, adaptive=False),
                TenantSpec(name="b", checkpoint_every=128, options={"k": 2}),
                *(
                    TenantSpec(name=f"t{i}", algorithm=name, options={"check_invariants": True})
                    for i, name in enumerate(SNAPSHOT_CAPABLE)
                ),
            ),
            port=0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.1, cap=1.0, seed=5),
        )
        path = tmp_path / "service.json"
        config.save(path)
        loaded = ServiceConfig.from_file(path)
        assert loaded == config

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"tenants": [{"name": "a", "batchsize": 16, "checkpoint_evry": 128}]},
             r"tenant 'a'.*'batchsize', 'checkpoint_evry'"),
            ({"drain_timout": 5.0}, r"service config.*'drain_timout'"),
            ({"retry": {"max_attempt": 3}}, r"retry.*'max_attempt'"),
            ({"retry": "fast"}, r"retry must be a JSON object, got str"),
            ({"tenants": [["a"]]}, r"tenant None must be a JSON object, got list"),
        ],
        ids=["tenant-typos", "service-typo", "retry-typo", "retry-string", "tenant-list"],
    )
    def test_unknown_keys_are_refused(self, tmp_path, change, named):
        document = {"data_dir": str(tmp_path), "port": 0, "tenants": [{"name": "a"}]}
        document.update(change)
        with pytest.raises(ServiceError, match=named):
            ServiceConfig.from_dict(document)

    def test_documents_hold_exactly_the_fields(self, tmp_path):
        """Each key of a saved config is a field, and an absent one its default."""
        loaded = ServiceConfig.from_dict(
            {"data_dir": str(tmp_path), "port": 0, "tenants": [{"name": "a"}]}
        )
        assert loaded == ServiceConfig(
            data_dir=str(tmp_path), tenants=(TenantSpec(name="a"),), port=0
        )
        document = loaded.to_dict()
        assert list(document) == [f.name for f in dataclasses.fields(ServiceConfig)]
        assert list(document["tenants"][0]) == [
            f.name for f in dataclasses.fields(TenantSpec)
        ]
        assert document["retry"] == dataclasses.asdict(RetryPolicy())
        assert json.loads(json.dumps(document)) == document

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ServiceError):
            ServiceConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ServiceError):
            ServiceConfig.from_file(bad)

    def test_default_checkpoint_policy_is_wall_clock(self, tmp_path):
        spec = TenantSpec(name="t")
        config = spec.checkpoint_config(tmp_path)
        assert config.every is None
        assert config.every_seconds is not None
        assert Path(config.directory) == tmp_path / "t"


# --------------------------------------------------------------------- #
# Gateway round trips
# --------------------------------------------------------------------- #
class TestGateway:
    def test_ingest_query_digest_matches_direct_engine(self, tmp_path):
        ops = build_ops(192)
        spec = TenantSpec(
            name="main", batch_size=32, window_max=64, adaptive=False, queue_cap=1024
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                assert client.health()["status"] == "serving"
                assert client.ready()["ready"] is True
                assert client.ingest_stream("main", ops, chunk=32)["accepted"] == len(ops)
                # An ingest reply acknowledges admission, not application:
                # flush so the serve loop has applied every admitted batch.
                reply = client.flush("main")
                assert reply["accepted"] == reply["applied"] == len(ops)
                digest = client.digest("main")["digest"]
                solution = client.solution("main")["solution"]
                # Membership queries agree with the returned solution.
                sample = solution[:3] + [999_999]
                for vertex in sample:
                    member = client.query("main", vertex)
                    assert member["ok"]
                    assert member["in_solution"] == (vertex in solution)
        assert digest == reference_digest(ops, 32)
        report = svc.report
        assert report.clean
        assert report.tenants[0].durable == len(ops)

    def test_self_loop_deletion_is_refused_at_admission(self, tmp_path):
        spec = TenantSpec(name="t", batch_size=4, window_max=4, adaptive=False)
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                refused = client.request(
                    {
                        "cmd": "ingest",
                        "tenant": "t",
                        "seq": 1,
                        "ops": [["+v", 5, []], ["-e", 5, 5]],
                    }
                )
                assert not refused["ok"]
                assert "operation #1" in refused["error"]
                assert "self loop" in refused["error"]
                # Nothing was admitted and the tenant still serves.
                assert client.offset("t")["accepted"] == 0
                ops = [UpdateOperation.insert_vertex(5)]
                assert client.ingest("t", ops, 1)["accepted"] == 1
                assert client.flush("t")["applied"] == 1
                assert client.health()["tenants"]["t"] == "serving"

    @pytest.mark.parametrize(
        "entry, reason",
        [
            (["+v", 2.5, [1]], "only int, str and bool labels"),
            (["+e", 1, [2]], "only int, str and bool labels"),
            (["+v", 9, [1, None]], "only int, str and bool labels"),
            (["-e", {"v": 1}, 2], "only int, str and bool labels"),
            (["-v", None], "only int, str and bool labels"),
            (["+v", 7, [7]], "as its own neighbour"),
            (["+v", 9, [1, 1]], "repeats a neighbour"),
            (["+v", 9, "12"], "neighbours in an array"),
            (["+e", 1, 2, 3], "has 4 fields"),
        ],
        ids=[
            "float-vertex",
            "list-endpoint",
            "null-neighbour",
            "dict-endpoint",
            "null-vertex",
            "self-neighbour",
            "repeated-neighbour",
            "string-neighbours",
            "extra-field",
        ],
    )
    def test_malformed_entries_are_refused_at_admission(self, tmp_path, entry, reason):
        """Labels no checkpoint can hold and shapes no graph can apply are
        refused before admission; the tenant keeps serving."""
        spec = TenantSpec(
            name="t", batch_size=2, window_max=2, adaptive=False, checkpoint_every=2
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                ops = [UpdateOperation.insert_vertex(1), UpdateOperation.insert_vertex(2)]
                assert client.ingest("t", ops, 1)["accepted"] == 2
                assert client.flush("t")["durable"] == 2
                digest = client.digest("t")["digest"]
                refused = client.request(
                    {"cmd": "ingest", "tenant": "t", "seq": 3, "ops": [["+v", 3, []], entry]}
                )
                assert not refused["ok"]
                assert "operation #1" in refused["error"]
                assert reason in refused["error"]
                # Nothing was admitted, the digest is unchanged, and the
                # tenant still serves and checkpoints.
                assert client.offset("t")["accepted"] == 2
                assert client.digest("t")["digest"] == digest
                more = [
                    UpdateOperation.insert_edge(1, 2),
                    UpdateOperation.insert_vertex("x", [2]),
                ]
                assert client.ingest("t", more, 3)["accepted"] == 4
                assert client.flush("t")["durable"] == 4
                assert client.health()["tenants"]["t"] == "serving"
                assert client.stats("t")["stats"]["crashes"] == 0

    def test_what_if_answers_without_perturbing_tenant(self, tmp_path):
        ops = build_ops(128)
        hypothetical = build_ops(24, seed=11)
        spec = TenantSpec(name="wi", batch_size=32, window_max=64, adaptive=False)
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                client.ingest_stream("wi", ops, chunk=32)
                client.flush("wi")
                before = client.digest("wi")["digest"]
                reply = client.what_if("wi", hypothetical)
                assert reply["ok"]
                # ``applied`` anchors the answer to the base stream position.
                assert reply["applied"] == len(ops)
                # The live engine is byte-for-byte unperturbed.
                assert client.digest("wi")["digest"] == before
                # The hypothetical answer matches an engine that really
                # walked the same trajectory (admitted batches, then the
                # what-if operations as one coalesced batch).
                engine = create_algorithm("DyOneSwap", DynamicGraph(), None)
                for group in chunked(iter(ops), 32):
                    engine.apply_batch(group)
                assert reply["base_size"] == len(engine.solution())
                base = set(engine.solution())
                engine.apply_batch(list(hypothetical))
                expected = set(engine.solution())
                assert reply["size"] == len(expected)
                assert set(reply["added"]) == expected - base
                assert set(reply["removed"]) == base - expected
                # Repeatable: the discarded fork left no trace, so the same
                # question gets the same answer.
                assert client.what_if("wi", hypothetical) == reply
                assert client.digest("wi")["digest"] == before

    @pytest.mark.parametrize("valid_prefix", [0, 40], ids=["short-batch", "bulk-batch"])
    def test_refused_what_if_keeps_the_connection(self, tmp_path, valid_prefix):
        """A hypothetical the graph cannot take degrades to a reply."""
        spec = TenantSpec(name="t", batch_size=8, window_max=8, adaptive=False)
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                ops = [UpdateOperation.insert_vertex(v) for v in range(8)]
                ops += [UpdateOperation.insert_edge(5, 6)]
                client.ingest_stream("t", ops, chunk=8)
                before = client.digest("t")["digest"]
                prefix = [["+v", f"n{i}", [5]] for i in range(valid_prefix)]
                refused = client.request(
                    {"cmd": "what_if", "tenant": "t", "ops": [*prefix, ["-e", 5, 99]]}
                )
                assert not refused["ok"]
                assert "what_if cannot be applied" in refused["error"]
                assert "99" in refused["error"]
                # The same connection still answers; the tenant is untouched.
                assert client.query("t", 5)["ok"]
                assert client.digest("t")["digest"] == before
                reply = client.what_if("t", [UpdateOperation.delete_edge(5, 6)])
                assert reply["ok"] and reply["applied"] == len(ops)
                assert client.digest("t")["digest"] == before
                assert client.health()["tenants"]["t"] == "serving"

    @pytest.mark.parametrize(
        "message, field",
        [
            ({"cmd": "query", "tenant": "t", "vertex": [1, 2]}, "'vertex'"),
            ({"cmd": "query", "tenant": "t", "vertex": {"v": 1}}, "'vertex'"),
            ({"cmd": "query", "tenant": "t", "vertex": 1.5}, "'vertex'"),
            (
                {"cmd": "query", "tenant": "t", "vertex": 1, "timeout_ms": "soon"},
                "'timeout_ms'",
            ),
            ({"cmd": "offset", "tenant": ["t"]}, "'tenant'"),
            ({"cmd": "ingest", "tenant": "t", "seq": True, "ops": []}, "'seq'"),
        ],
        ids=[
            "list-vertex",
            "dict-vertex",
            "float-vertex",
            "string-timeout",
            "list-tenant",
            "bool-seq",
        ],
    )
    def test_wrongly_typed_fields_keep_the_connection(self, tmp_path, message, field):
        """A request field of the wrong type degrades to a reply naming it."""
        spec = TenantSpec(name="t", batch_size=2, window_max=2, adaptive=False)
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                assert client.ingest("t", [UpdateOperation.insert_vertex(1)], 1)["ok"]
                refused = client.request(message)
                assert not refused["ok"]
                assert field in refused["error"]
                # The same connection still answers; nothing was admitted.
                assert client.health()["tenants"]["t"] == "serving"
                assert client.offset("t")["accepted"] == 1

    def test_sequence_gap_duplicate_and_overlap(self, tmp_path):
        ops = build_ops(64)
        spec = TenantSpec(name="seq", batch_size=8, window_max=16, adaptive=False)
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                first = client.ingest("seq", ops[:16], 1)
                assert first["ok"] and first["accepted"] == 16
                # Gap: skipping ahead is refused with the expected position.
                gap = client.ingest("seq", ops[32:40], 33)
                assert not gap["ok"]
                assert gap["expected"] == 17
                # Full duplicate: idempotent acknowledgement.
                dup = client.ingest("seq", ops[:16], 1)
                assert dup["ok"] and dup["accepted"] == 16
                # Overlap: only the novel tail is admitted.
                overlap = client.ingest("seq", ops[8:24], 9)
                assert overlap["ok"] and overlap["accepted"] == 24
                assert client.ingest("seq", ops[24:], 25)["accepted"] == len(ops)
                flushed = client.flush("seq")
                assert flushed["applied"] == len(ops)
                # Bad requests degrade to error replies, connection survives.
                assert not client.ingest("seq", ops[:4], 0).get("ok")
                assert not client.request({"cmd": "ingest", "tenant": "seq"}).get(
                    "ok"
                )
                assert not client.request({"cmd": "nope"}).get("ok")
                assert not client.query("nosuch", 1).get("ok")
                assert client.health()["ok"]

    def test_subscription_pushes_solution_deltas(self, tmp_path):
        spec = TenantSpec(name="sub", batch_size=4, window_max=8, adaptive=False)
        with service(tmp_path, spec) as svc:
            with svc.client() as client, svc.client() as subscriber:
                assert subscriber.subscribe("sub")["ok"]
                ops = [
                    UpdateOperation.insert_vertex(v, ()) for v in range(4)
                ]
                client.ingest("sub", ops, 1)
                client.flush("sub")
                event = subscriber.next_event()
                assert event["event"] == "delta"
                assert event["tenant"] == "sub"
                assert set(event["added"]) == {0, 1, 2, 3}
                assert event["removed"] == []

    def test_tcp_listener_and_ephemeral_port(self, tmp_path):
        spec = TenantSpec(name="tcp", batch_size=8, window_max=8)
        svc = ServiceThread(
            ServiceConfig(
                data_dir=str(tmp_path / "data"),
                tenants=(spec,),
                port=0,
                retry=FAST_RETRY,
            )
        )
        with svc:
            assert svc.port not in (None, 0)
            with svc.client() as client:
                assert client.health()["ok"]


# --------------------------------------------------------------------- #
# Backpressure and load shedding
# --------------------------------------------------------------------- #
class TestBackpressure:
    # Tenant.offer admits a whole ingest request inside the gateway's
    # handler, before the serve task next runs, so one request builds a
    # queue as deep as itself.

    def test_bounded_queue_sheds_with_explicit_reply(self, tmp_path):
        ops = build_ops(96)
        spec = TenantSpec(
            name="busy", batch_size=8, window_max=32, queue_cap=32, adaptive=True
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                assert client.ingest("busy", ops[:8], 1)["ok"]
                assert client.flush("busy")["applied"] == 8
                # One request of queue_cap + 1 operations is shed whole,
                # with the exact resume position.
                shed = client.ingest("busy", ops[8:41], 9)
                assert not shed["ok"]
                assert shed["error"] == "overloaded"
                assert shed["accepted"] == 8
                offsets = client.offset("busy")
                assert (offsets["accepted"], offsets["queue_depth"]) == (8, 0)
                stats = client.stats("busy")["stats"]
                assert stats["sheds"] == 1
                assert stats["peak_queue"] == 8
                # A request of exactly queue_cap fits, and its deep queue
                # widens the window to window_max.
                assert client.ingest("busy", ops[8:40], 9)["ok"]
                client.ingest_stream("busy", ops, chunk=8)
                final = client.flush("busy")
                assert final["applied"] == len(ops)
                stats = client.stats("busy")["stats"]
                assert stats["peak_queue"] == 32
                assert stats["peak_window"] == 32

    def test_deterministic_mode_keeps_fixed_windows(self, tmp_path):
        ops = build_ops(128)
        spec = TenantSpec(
            name="det", batch_size=16, window_max=64, queue_cap=256, adaptive=False
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                client.ingest("det", ops, 1)  # deep queue before any apply
                client.flush("det")
                stats = client.stats("det")["stats"]
                assert stats["peak_queue"] == 128
                assert stats["peak_window"] == 16


# --------------------------------------------------------------------- #
# Supervision: crash recovery, isolation
# --------------------------------------------------------------------- #
class TestSupervision:
    def test_engine_crash_recovers_bit_identically(self, tmp_path):
        ops = build_ops(256)
        crashy = TenantSpec(
            name="crashy",
            batch_size=64,
            window_max=128,
            adaptive=False,
            checkpoint_every=64,
        )
        bystander = TenantSpec(
            name="bystander", batch_size=8, window_max=16, adaptive=False
        )
        plan = FaultPlan.at(BULK_APPLY, 2)
        with inject_faults(plan) as injector:
            with service(tmp_path, crashy, bystander) as svc:
                with svc.client() as client:
                    client.ingest_stream("crashy", ops, chunk=64)
                    # Flushing forces every crashy batch (and the planned
                    # hit) to resolve before the bystander applies anything,
                    # making the fault target deterministic.
                    client.flush("crashy")
                    client.ingest_stream("bystander", ops[:64], chunk=8)
                    crashy_digest = client.digest("crashy")["digest"]
                    bystander_digest = client.digest("bystander")["digest"]
                    stats = client.stats("crashy")
                    assert stats["stats"]["crashes"] >= 1
                    assert stats["stats"]["restarts"] >= 1
                    assert client.stats("bystander")["stats"]["crashes"] == 0
        assert [f.point for f in injector.fired] == [BULK_APPLY]
        assert crashy_digest == reference_digest(ops, 64)
        assert bystander_digest == reference_digest(ops[:64], 8)

    def test_torn_checkpoint_write_is_absorbed(self, tmp_path):
        ops = build_ops(256)
        spec = TenantSpec(
            name="torn",
            batch_size=32,
            window_max=64,
            adaptive=False,
            checkpoint_every=64,
        )
        with inject_faults(FaultPlan.at(CHECKPOINT_WRITE, 2)) as injector:
            with service(tmp_path, spec) as svc:
                with svc.client() as client:
                    client.ingest_stream("torn", ops, chunk=32)
                    digest = client.digest("torn")["digest"]
        assert [f.point for f in injector.fired] == [CHECKPOINT_WRITE]
        assert digest == reference_digest(ops, 32)

    def test_exhausted_retries_fail_tenant_but_not_service(self, tmp_path):
        ops = build_ops(128)
        doomed = TenantSpec(
            name="doomed", batch_size=64, window_max=64, adaptive=False
        )
        healthy = TenantSpec(
            name="healthy", batch_size=8, window_max=8, adaptive=False
        )
        # Hits 1-3 are exactly doomed's first apply plus its two supervised
        # retries (nothing else applies a batch until it has failed), so
        # max_attempts=3 exhausts and the tenant fails while later applies
        # by the healthy tenant run fault-free.
        plan = FaultPlan.at(BULK_APPLY, 1, 2, 3)
        config_retry = RetryPolicy(max_attempts=3, base_delay=0.0, cap=0.0)
        with inject_faults(plan):
            with service(tmp_path, doomed, healthy, retry=config_retry) as svc:
                with svc.client() as client:
                    client.ingest("doomed", ops[:64], 1)
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        if client.offset("doomed")["status"] == "failed":
                            break
                        time.sleep(0.02)
                    assert client.offset("doomed")["status"] == "failed"
                    # A failed tenant refuses ingests with a clear error...
                    refused = client.ingest("doomed", ops[64:72], 65)
                    assert not refused["ok"] and "failed" in refused["error"]
                    # ...while the healthy tenant keeps serving.
                    client.ingest_stream("healthy", ops[:32], chunk=8)
                    assert client.flush("healthy")["applied"] == 32
                    assert client.health()["tenants"]["doomed"] == "failed"

    def test_failing_checkpoint_writes_exhaust_the_retries(self, tmp_path):
        # Every checkpoint write after the first fails (a full disk).  A
        # batch that lands but whose due checkpoint does not is no progress,
        # so max_attempts binds: exactly three crashes, and the replay
        # buffer never holds more than the batches since the durable one.
        ops = build_ops(400)
        spec = TenantSpec(
            name="full", batch_size=8, window_max=8, adaptive=False,
            checkpoint_every=8,
        )
        retry = RetryPolicy(max_attempts=3, base_delay=0.0, cap=0.0)

        async def scenario():
            tenant = Tenant(spec, tmp_path, retry=retry)
            task = asyncio.get_running_loop().create_task(tenant.run())
            await tenant.ready.wait()
            tenant.offer(ops, 1)
            await asyncio.wait_for(task, 30)
            return tenant

        with inject_faults(FaultPlan.at(CHECKPOINT_WRITE, *range(2, 400))):
            tenant = asyncio.run(scenario())
        assert tenant.status == "failed"
        assert tenant.stats["crashes"] == retry.max_attempts
        assert tenant.stats["restarts"] == retry.max_attempts - 1
        assert tenant.durable == 8
        assert len(tenant._replay) == retry.max_attempts

    def test_terminal_failure_names_its_cause_in_stats(self, tmp_path):
        # Admission checks an operation's shape, not whether the graph can
        # take it: the batch holding the bad deletion fails the tenant for
        # good, and the stats reply must say why.
        spec = TenantSpec(name="t", batch_size=4, window_max=4, adaptive=False)
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                admitted = client.request(
                    {
                        "cmd": "ingest",
                        "tenant": "t",
                        "seq": 1,
                        "ops": [["+v", 1, []], ["+v", 2, [1]], ["-e", 5, 6], ["+v", 3, []]],
                    }
                )
                assert admitted["ok"]
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if client.health()["tenants"]["t"] == "failed":
                        break
                    time.sleep(0.02)
                assert client.health()["tenants"]["t"] == "failed"
                reply = client.stats("t")
                (crash,) = reply["crashes"]
                assert crash.startswith("VertexNotFoundError: ")
                # The counter counts every crash, terminal ones included.
                assert reply["stats"]["crashes"] == len(reply["crashes"])


# --------------------------------------------------------------------- #
# Durability and graceful shutdown
# --------------------------------------------------------------------- #
class TestDurability:
    def test_graceful_shutdown_orders_flush_checkpoint_close(self, tmp_path):
        ops = build_ops(200)  # deliberately not a multiple of the batch
        spec = TenantSpec(
            name="drain",
            batch_size=64,
            window_max=128,
            adaptive=False,
            checkpoint_every=64,
        )
        svc = service(tmp_path, spec)
        svc.start()
        with svc.client() as client:
            client.ingest("drain", ops, 1)
            # Stop immediately: the queued tail (including the partial
            # batch) must still be applied before the final checkpoint.
        report = svc.stop()
        assert report.clean
        (tenant_report,) = report.tenants
        assert tenant_report.durable == len(ops)
        assert tenant_report.final_checkpoint is not None
        restored = load_checkpoint(tenant_report.final_checkpoint)
        assert restored.processed == len(ops)
        assert restored.metadata["tenant"] == "drain"
        # Sockets are gone only after the drain: reconnecting now fails.
        with pytest.raises((ServiceError, OSError)):
            svc.client(timeout=0.5).health()

    def test_shutdown_absorbs_injected_drain_fault(self, tmp_path):
        ops = build_ops(128)
        spec = TenantSpec(
            name="fragile",
            batch_size=32,
            window_max=64,
            adaptive=False,
            checkpoint_every=32,
        )
        with inject_faults(FaultPlan.at(SERVICE_SHUTDOWN, 1)) as injector:
            svc = service(tmp_path, spec)
            svc.start()
            with svc.client() as client:
                client.ingest_stream("fragile", ops, chunk=32)
            report = svc.stop()
        assert [f.point for f in injector.fired] == [SERVICE_SHUTDOWN]
        assert report.clean
        (tenant_report,) = report.tenants
        assert tenant_report.durable == len(ops)
        load_checkpoint(tenant_report.final_checkpoint)  # verifies integrity

    def test_wall_clock_checkpoint_policy(self, tmp_path):
        ops = build_ops(32)
        spec = TenantSpec(
            name="wall",
            batch_size=16,
            window_max=16,
            adaptive=False,
            checkpoint_every_seconds=0.2,
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                client.ingest("wall", ops, 1)
                deadline = time.monotonic() + 20
                durable = 0
                while time.monotonic() < deadline:
                    durable = client.offset("wall")["durable"]
                    if durable >= 32:
                        break
                    time.sleep(0.05)
                assert durable >= 32  # the wall-clock timer checkpointed

    def test_process_restart_resumes_from_checkpoint(self, tmp_path):
        """Same data dir, new gateway: counters and state come back."""
        ops = build_ops(192)
        spec = TenantSpec(
            name="phoenix",
            batch_size=32,
            window_max=64,
            adaptive=False,
            checkpoint_every=64,
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                client.ingest_stream("phoenix", ops[:128], chunk=32)
        # "Process" two: a fresh ServiceThread over the same data_dir.
        with service(tmp_path, spec) as svc2:
            with svc2.client() as client:
                resumed = client.offset("phoenix")
                assert resumed["applied"] == resumed["durable"] == 128
                client.ingest_stream("phoenix", ops, chunk=32)
                digest = client.digest("phoenix")["digest"]
        assert digest == reference_digest(ops, 32)

    def test_config_mismatch_refuses_warm_start(self, tmp_path):
        ops = build_ops(64)
        spec = TenantSpec(
            name="strict",
            batch_size=32,
            window_max=32,
            adaptive=False,
            checkpoint_every=32,
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                client.ingest_stream("strict", ops, chunk=32)
        changed = TenantSpec(
            name="strict",
            batch_size=16,  # different boundary geometry
            window_max=32,
            adaptive=False,
            checkpoint_every=32,
        )
        svc2 = service(tmp_path, changed)
        with pytest.raises(ServiceError, match="batch_size"):
            svc2.start()
        # The thread winds down on its own after the startup failure.
        svc2._thread.join(timeout=20)
        assert not svc2._thread.is_alive()

    def test_snapshot_warm_start_and_flicker_ingest(self, tmp_path):
        graph, stream = flicker_update_stream(6, rounds=24, seed=5)
        ops = list(stream)
        seed_engine = create_algorithm("DyOneSwap", graph.copy(), None)
        snapshot_path = tmp_path / "witness.snap.json"
        save_snapshot(seed_engine, snapshot_path)
        spec = TenantSpec(
            name="flicker",
            batch_size=16,
            window_max=32,
            adaptive=False,
            checkpoint_every=32,
            snapshot=str(snapshot_path),
        )
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                assert client.offset("flicker")["applied"] == 0
                client.ingest_stream("flicker", ops, chunk=16)
                digest = client.digest("flicker")["digest"]
        assert digest == reference_digest(ops, 16, initial_graph=graph)

    def test_checkpoint_metadata_round_trip(self, tmp_path):
        engine = create_algorithm("DyOneSwap", DynamicGraph(), None)
        path = save_checkpoint(
            engine,
            tmp_path,
            algorithm_name="DyOneSwap",
            processed=0,
            initial_size=0,
            metadata={"tenant": "x", "adaptive": False},
        )
        restored = load_checkpoint(path)
        assert restored.metadata == {"tenant": "x", "adaptive": False}
        # Old-style writers (no metadata) load with an empty dict.
        bare = save_checkpoint(
            engine,
            tmp_path / "bare",
            algorithm_name="DyOneSwap",
            processed=0,
            initial_size=0,
        )
        assert load_checkpoint(bare).metadata == {}

    def test_failed_checkpoint_command_keeps_the_connection(self, tmp_path):
        ops = build_ops(16)
        spec = TenantSpec(
            name="t",
            batch_size=4,
            window_max=4,
            adaptive=False,
            checkpoint_every_seconds=3600,
        )
        directory = tmp_path / "data" / "t"
        with service(tmp_path, spec) as svc:
            with svc.client() as client:
                client.ingest_stream("t", ops[:8], chunk=4)
                assert client.flush("t")["applied"] == 8
                # A regular file where the checkpoint directory should be:
                # every write fails.
                shutil.rmtree(directory, ignore_errors=True)
                directory.write_text("not a directory")
                failed = client.checkpoint("t")
                assert not failed["ok"]
                assert "checkpoint write failed" in failed["error"]
                # The same connection answers, and the tenant keeps serving.
                assert client.health()["tenants"]["t"] == "serving"
                client.ingest_stream("t", ops, chunk=4)
                assert client.flush("t")["applied"] == 16
                directory.unlink()
                written = client.checkpoint("t")
                assert written["ok"] and written["durable"] == 16
                assert load_checkpoint(written["checkpoint"]).processed == 16
        assert svc.report.clean

    def test_checkpoint_on_request(self, tmp_path):
        spec = TenantSpec(name="t", batch_size=4, adaptive=False)
        tenant = Tenant(spec, tmp_path)
        tenant._bootstrap()
        assert tenant.checkpoint() is None  # nothing applied yet
        tenant._apply_batch(build_ops(4))
        path = tenant.checkpoint()
        assert load_checkpoint(path).stream_identity == tenant.fingerprint
        assert tenant.durable == 4
        tenant.engine = None
        with pytest.raises(ServiceError, match="engine is down"):
            tenant.checkpoint()

    def test_recovery_and_warm_start_read_the_newest_checkpoint_once(
        self, tmp_path, monkeypatch
    ):
        spec = TenantSpec(name="t", batch_size=4, adaptive=False)
        tenant = Tenant(spec, tmp_path)
        tenant._bootstrap()
        tenant._apply_batch(build_ops(4))
        path = tenant.checkpoint()
        verified = []
        real = replay.verify_document

        def counting(document, **kwargs):
            verified.append(kwargs.get("source"))
            return real(document, **kwargs)

        monkeypatch.setattr(replay, "verify_document", counting)
        digest = tenant.digest()
        tenant.engine = None
        tenant._recover()
        assert verified == [path]
        assert tenant.digest() == digest
        restarted = Tenant(spec, tmp_path)
        restarted._bootstrap()
        assert verified == [path, path]
        assert restarted.digest() == digest


# --------------------------------------------------------------------- #
# Degraded replies and deadlines
# --------------------------------------------------------------------- #
class TestDegradation:
    def test_injected_ingest_fault_degrades_to_reply(self, tmp_path):
        ops = build_ops(32)
        spec = TenantSpec(name="t", batch_size=8, window_max=8, adaptive=False)
        with inject_faults(FaultPlan.at(SERVICE_INGEST, 1)) as injector:
            with service(tmp_path, spec) as svc:
                with svc.client() as client:
                    degraded = client.ingest("t", ops[:8], 1)
                    assert not degraded["ok"]
                    assert degraded["error"] == "injected-fault"
                    # Same connection, immediate retry: admitted.
                    retried = client.ingest("t", ops[:8], 1)
                    assert retried["ok"] and retried["accepted"] == 8
        assert [f.point for f in injector.fired] == [SERVICE_INGEST]

    def test_query_deadline_times_out_on_unready_tenant(self, tmp_path):
        spec = TenantSpec(name="slow", batch_size=8, window_max=8)
        with service(tmp_path, spec) as svc:
            svc.call(lambda gw: gw.tenants["slow"].ready.clear())
            with svc.client() as client:
                reply = client.query("slow", 1, timeout_ms=100)
                assert not reply["ok"]
                assert reply["error"] == "timeout"
                assert client.ready()["ready"] is False
            svc.call(lambda gw: gw.tenants["slow"].ready.set())
            with svc.client() as client:
                assert client.query("slow", 1)["ok"]


# --------------------------------------------------------------------- #
# CLI entry point
# --------------------------------------------------------------------- #
class TestMain:
    def test_parse_and_load_with_overrides(self, tmp_path):
        from repro.service.__main__ import load_config, parse_args

        base = ServiceConfig(
            data_dir=str(tmp_path / "a"),
            tenants=(TenantSpec(name="t"),),
            port=1234,
        )
        config_path = tmp_path / "svc.json"
        base.save(config_path)
        args = parse_args(
            [
                "--config",
                str(config_path),
                "--port",
                "0",
                "--data-dir",
                str(tmp_path / "b"),
            ]
        )
        loaded = load_config(args)
        assert loaded.port == 0
        assert loaded.data_dir == str(tmp_path / "b")
        assert loaded.tenant("t").name == "t"

    def test_serve_runs_until_client_shutdown(self, tmp_path):
        from repro.service.__main__ import serve

        config = ServiceConfig(
            data_dir=str(tmp_path / "data"),
            tenants=(TenantSpec(name="t", batch_size=8, window_max=8),),
            unix_socket=str(tmp_path / "cli.sock"),
            retry=FAST_RETRY,
        )
        banners = []
        done = threading.Event()

        def runner():
            asyncio.run(serve(config, banner=banners.append))
            done.set()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not Path(config.unix_socket).exists():
            time.sleep(0.02)
        from repro.service.client import connect_with_retry

        with connect_with_retry(unix_socket=config.unix_socket) as client:
            assert client.health()["ok"]
            client.shutdown()
        assert done.wait(20)
        assert any("listening" in line for line in banners)
        assert any("drained tenant t" in line for line in banners)


# --------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------- #
class TestClient:
    def test_failed_connects_leave_no_open_socket(self, tmp_path):
        from repro.service.client import connect_with_retry

        missing = str(tmp_path / "nobody-listens.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ServiceError, match="could not connect"):
                connect_with_retry(unix_socket=missing, attempts=5, delay=0.0)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []


# --------------------------------------------------------------------- #
# Chaos drill
# --------------------------------------------------------------------- #
class TestSmoke:
    def test_sigkill_chaos_drill_passes(self):
        """The CI acceptance drill: SIGKILL a live gateway subprocess
        mid-ingest, restart it over the same data directory, and require
        bit-identical recovery on both tenants."""
        from repro.service import smoke

        assert smoke.main() == 0


# --------------------------------------------------------------------- #
# Stream identity chain
# --------------------------------------------------------------------- #
def reference_chain(identity, batches):
    """The chain by its definition: per non-empty batch,
    ``identity = sha256(identity || joined repr(encode_operation(op)))``."""
    for batch in batches:
        if batch:
            text = "".join(repr(encode_operation(op)) for op in batch)
            identity = hashlib.sha256(
                bytes.fromhex(identity) + text.encode("utf-8")
            ).hexdigest()
    return identity


def chain(identity, batches):
    """Fold :func:`advance_identity` over ``batches``, in order."""
    for batch in batches:
        identity = advance_identity(identity, batch)
    return identity


def relabel(operations, mapping):
    """``operations`` with every vertex label ``v`` replaced by ``mapping(v)``."""
    out = []
    for op in operations:
        if op.is_vertex_operation:
            if op.is_insertion:
                out.append(
                    UpdateOperation.insert_vertex(
                        mapping(op.vertex), [mapping(w) for w in op.neighbors]
                    )
                )
            else:
                out.append(UpdateOperation.delete_vertex(mapping(op.vertex)))
        else:
            u, v = op.edge
            build = UpdateOperation.insert_edge if op.is_insertion else UpdateOperation.delete_edge
            out.append(build(mapping(u), mapping(v)))
    return out


def mixed_label(v):
    """Distinct labels of every admitted kind: bools (0 and 1 only, so no
    int collides with them), str with non-ASCII characters and escapes,
    negative and big ints."""
    if v in (0, 1):
        return bool(v)
    if v % 3 == 0:
        return f'ü{v}"\\\n\t€'
    if v % 3 == 1:
        return -(10**20) - v
    return v


class TestFingerprint:
    def test_chain_is_order_sensitive_and_resumable(self):
        ops = build_ops(8)
        batches = list(chunked(ops, 3))
        forward = chain(EMPTY_FINGERPRINT, batches)
        # Resuming the chain from the hex digest at any batch boundary lands
        # on the same tip.
        for cut in range(len(batches) + 1):
            middle = chain(EMPTY_FINGERPRINT, batches[:cut])
            assert chain(middle, batches[cut:]) == forward
        assert advance_identity(forward, []) == forward
        # Different order, different tip; different boundaries too, as the
        # engine state the identity stands for depends on them.
        whole = advance_identity(EMPTY_FINGERPRINT, ops)
        assert advance_identity(EMPTY_FINGERPRINT, reversed(ops)) != whole
        assert whole != forward

    def test_chain_value_is_pinned(self):
        # Checkpoints store the chain tip: resuming an older checkpoint
        # needs exactly the same bytes per batch.
        tip = chain(EMPTY_FINGERPRINT, chunked(build_ops(8), 4))
        assert tip == "7d5c9ab43fa7cc84a0b418b79f68033b885ba76e8604d7aa5e063b6576fb40a3"

    def test_chain_equals_the_definition_over_mixed_labels(self):
        ops = relabel(build_ops(64), mixed_label)
        ops += [
            UpdateOperation.insert_vertex(7, [True, "é\u2028", -3, 2**70, False]),
            UpdateOperation.insert_vertex("", []),
            UpdateOperation.insert_edge(-(2**80), "tab\there"),
            UpdateOperation.delete_edge(False, "\x00"),
            UpdateOperation.delete_vertex(True),
            # Types the wire refuses still chain exactly.
            UpdateOperation.insert_vertex(2.5, [None]),
        ]
        assert {type(v) for op in ops for v in op.touched_vertices()} >= {
            int, str, bool, float, type(None)
        }
        for size in (1, 7, 64, len(ops)):
            batches = list(chunked(ops, size))
            assert chain(EMPTY_FINGERPRINT, batches) == reference_chain(
                EMPTY_FINGERPRINT, batches
            )

    def test_recover_rechains_to_the_reference(self, tmp_path):
        ops = relabel(build_ops(40), mixed_label)
        spec = TenantSpec(
            name="chain", batch_size=4, adaptive=False, checkpoint_every=16
        )
        tenant = Tenant(spec, tmp_path)
        tenant._bootstrap()
        batches = [list(batch) for batch in chunked(ops, 4)]
        for batch in batches:
            tenant._apply_batch(batch)
        assert tenant.fingerprint == reference_chain(EMPTY_FINGERPRINT, batches)
        assert tenant.durable == 32 and len(tenant._replay) == 2
        digest = tenant.digest()
        # Crash: the rebuilt engine re-chains the replay buffer's batches
        # from the durable checkpoint's identity.
        tenant.engine = None
        tenant._recover()
        assert tenant.fingerprint == reference_chain(EMPTY_FINGERPRINT, batches)
        assert tenant.digest() == digest

    def test_recover_refuses_a_foreign_checkpoint(self, tmp_path):
        # Two tenants with one spec checkpoint different operations at the
        # same offset, so their checkpoint files share a name.
        spec = TenantSpec(name="t", batch_size=4, adaptive=False, checkpoint_every=8)
        ours, theirs = Tenant(spec, tmp_path / "a"), Tenant(spec, tmp_path / "b")
        for tenant, seed in ((ours, 3), (theirs, 4)):
            tenant._bootstrap()
            for batch in chunked(build_ops(8, seed=seed), 4):
                tenant._apply_batch(list(batch))
            assert tenant.durable == 8
        assert ours.fingerprint != theirs.fingerprint
        (path,) = (tmp_path / "a" / "t").glob("*.ckpt.json")
        shutil.copyfile(next((tmp_path / "b" / "t").glob("*.ckpt.json")), path)
        ours.engine = None
        with pytest.raises(ServiceError, match="cannot reconstruct") as refused:
            ours._recover()
        assert ours.fingerprint in str(refused.value)
        assert theirs.fingerprint in str(refused.value)
        assert ours.engine is None

    def test_a_stored_identity_is_where_the_chain_resumes(self, tmp_path):
        spec = TenantSpec(name="t", batch_size=4, adaptive=False, checkpoint_every=8)
        tenant = Tenant(spec, tmp_path)
        tenant._bootstrap()
        ops = build_ops(16)
        for batch in chunked(ops[:8], 4):
            tenant._apply_batch(list(batch))
        # A checkpoint written by an older chain stores a digest this chain
        # never produces; it warm-starts, and the chain continues from it.
        foreign = hashlib.sha256(b"an older chain").hexdigest()
        save_checkpoint(
            tenant.engine,
            tenant.checkpoints,
            algorithm_name=spec.algorithm,
            processed=8,
            initial_size=0,
            stream_identity=foreign,
            batch_size=4,
            metadata={"service": SERVICE_FORMAT, "tenant": "t"},
        )
        restarted = Tenant(spec, tmp_path)
        restarted._bootstrap()
        assert (restarted.durable, restarted.fingerprint) == (8, foreign)
        batches = [list(batch) for batch in chunked(ops[8:], 4)]
        for batch in batches:
            restarted._apply_batch(batch)
        assert restarted.fingerprint == reference_chain(foreign, batches)
