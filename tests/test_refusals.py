"""Refusals that no other tier-1 test reaches.

Each case drives one ``raise`` (or warning) of the library through its
public entry point where one exists and asserts the exception type and a
distinctive part of the message.  Cases that share a shape are one
parametrized test.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.baselines.dgdis import DGOneDIS
from repro.core.lazy import LazyMISState
from repro.core.one_swap import DyOneSwap
from repro.core.state import MISState
from repro.exceptions import (
    CheckpointError,
    ExperimentError,
    GraphError,
    ServiceError,
    SnapshotError,
    SolutionInvariantError,
    UpdateError,
    VertexNotFoundError,
)
from repro.experiments.runner import create_algorithm, run_algorithm
from repro.generators.random_graphs import gnm_random_graph
from repro.generators.worst_case import subdivide
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.faults import CHECKPOINT_WRITE
from repro.resilience.integrity import write_document
from repro.resilience.supervisor import RetryPolicy
from repro.service import SERVICE_FORMAT, ServiceConfig, ServiceThread, TenantSpec
from repro.service.gateway import MISGateway
from repro.service.tenant import Tenant
from repro.updates.coalesce import coalesce_batch
from repro.updates.operations import UpdateOperation
from repro.updates.streams import flash_crowd_stream, mixed_update_stream
from repro.updates.wire import encode_line
from repro.workloads import replay
from repro.workloads.replay import CheckpointConfig, load_checkpoint, save_checkpoint
from repro.workloads.snapshot import (
    algorithm_from_payload,
    algorithm_to_payload,
    save_snapshot,
)
from repro.workloads.temporal import TemporalEventSource, synthetic_temporal_events

insert_vertex = UpdateOperation.insert_vertex
delete_vertex = UpdateOperation.delete_vertex
insert_edge = UpdateOperation.insert_edge
delete_edge = UpdateOperation.delete_edge


def _path(n=4):
    return DynamicGraph(edges=[(i, i + 1) for i in range(n - 1)])


# --------------------------------------------------------------------- #
# The batch coalescer
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "batch, message",
    [
        ([insert_vertex(9, [0, 9])], "batch inserts self loop on 9"),
        ([delete_vertex(2), insert_vertex(9, [2])], "batch inserts edge with missing endpoint 2"),
        ([insert_vertex(9, [0, 0])], "batch inserts duplicate edge (9, 0)"),
        ([delete_vertex(1), delete_vertex(1)], "batch deletes missing vertex 1"),
    ],
    ids=["self-loop", "deleted-neighbour", "repeated-edge", "deleted-twice"],
)
def test_coalescer_refuses_a_contradictory_batch(batch, message):
    graph = _path()
    before = graph.to_payload()
    with pytest.raises(UpdateError, match=re.escape(message)):
        coalesce_batch(graph, batch)
    assert graph.to_payload() == before


# --------------------------------------------------------------------- #
# Checkpoint files
# --------------------------------------------------------------------- #
def _engine():
    return create_algorithm("DyOneSwap", _path())


def _without_processed(tmp_path):
    """A checkpoint whose digest verifies but which lacks ``processed``."""
    written = save_checkpoint(
        _engine(), tmp_path / "source", algorithm_name="DyOneSwap",
        processed=0, initial_size=2,
    )
    document = json.loads(written.read_text(encoding="utf-8"))
    del document["processed"], document["sha256"]
    path = tmp_path / "no-processed.json"
    with open(path, "wb") as stream:
        write_document(stream, document, fault_point=CHECKPOINT_WRITE)
    return path


def _write_text(text):
    def build(tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(text, encoding="utf-8")
        return path
    return build


@pytest.mark.parametrize(
    "build, message",
    [
        (_write_text("[1, 2]"), "must be a JSON object, got list"),
        (_write_text('{"format": "repro-checkpoint/0"}'), "unsupported checkpoint format"),
        (_without_processed, "missing checkpoint field 'processed'"),
    ],
    ids=["not-an-object", "wrong-format", "missing-field"],
)
def test_load_checkpoint_refuses_a_malformed_document(tmp_path, build, message):
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(build(tmp_path))


def test_a_prune_that_cannot_unlink_only_warns(tmp_path, monkeypatch):
    config = CheckpointConfig(directory=tmp_path, every=1, keep=1)
    engine = _engine()
    first = save_checkpoint(
        engine, config, algorithm_name="DyOneSwap", processed=1, initial_size=2
    )

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(replay, "remove", refuse)
    with pytest.warns(RuntimeWarning, match="could not prune stale checkpoint"):
        latest = save_checkpoint(
            engine, config, algorithm_name="DyOneSwap", processed=2, initial_size=2
        )
    assert first.exists() and latest.exists()


# --------------------------------------------------------------------- #
# Engine snapshots
# --------------------------------------------------------------------- #
def test_snapshot_refuses_an_engine_mid_update():
    engine = _engine()
    in_sol = engine.state.in_solution_view()
    counts = engine.state.counts_slots_view()
    slot = next(s for s in engine.graph.slots() if not in_sol[s] and counts[s] == 1)
    engine._register_slot(slot)  # a candidate the drain has not processed
    assert engine.has_pending_candidates()
    with pytest.raises(SnapshotError, match="cannot snapshot mid-update"):
        algorithm_to_payload(engine)


def _payload(**changes):
    payload = algorithm_to_payload(_engine())
    payload.update(changes)
    return payload


@pytest.mark.parametrize(
    "payload, message",
    [
        (_payload(format="repro-algorithm/0"), "unsupported algorithm payload format"),
        (_payload(solution_slots=[]), "restored solution diverges from the snapshot"),
        (_payload(**{"class": "NoSuchEngine"}), "no default factory for algorithm class"),
    ],
    ids=["wrong-format", "diverging-solution", "unknown-class"],
)
def test_restore_refuses_a_payload_it_cannot_rebuild(payload, message):
    with pytest.raises(SnapshotError, match=message):
        algorithm_from_payload(payload)


def test_save_snapshot_reports_a_failed_write(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    with pytest.raises(SnapshotError, match="cannot write snapshot"):
        save_snapshot(_engine(), blocker / "snapshot.json")


# --------------------------------------------------------------------- #
# Graph payloads and label lookups
# --------------------------------------------------------------------- #
def _corrupt(**changes):
    """A payload of 0-1-2-3 after deleting 1 and 2 (free slots [1, 2])."""
    graph = _path()
    graph.remove_vertex(1)
    graph.remove_vertex(2)
    payload = graph.to_payload()
    for key, change in changes.items():
        payload[key] = change(payload[key])
    return payload


@pytest.mark.parametrize(
    "payload, reason",
    [
        (_corrupt(orders=lambda orders: orders + [9]), "slot table sizes out of sync"),
        (_corrupt(free=lambda free: [1, 1]), "duplicate free slots"),
        (_corrupt(labels=lambda labels: [0, 7, None, 3]), "free slot 1 still labelled"),
        (_corrupt(live=lambda live: [0, -1]), "slot -1 label mismatch for 3"),
        (_corrupt(next_order=lambda _: 0), "order index of slot 0 beyond next_order"),
        (_corrupt(adjacency=lambda rows: [[0]] + rows[1:]), "self loop on slot 0"),
    ],
    ids=["sizes", "duplicate-free", "labelled-free", "label-mismatch", "order", "self-loop"],
)
def test_from_payload_refuses_an_inconsistent_graph(payload, reason):
    with pytest.raises(GraphError, match=f"inconsistent graph: {reason}"):
        DynamicGraph.from_payload(payload)


@pytest.mark.parametrize(
    "call",
    [
        lambda graph: graph.slot_of(99),
        lambda graph: graph.degree(99),
        lambda graph: graph.order_of(99),
        lambda graph: graph.add_edge(99, 0),
        lambda graph: graph.remove_edge(99, 0),
    ],
    ids=["slot_of", "degree", "order_of", "add_edge", "remove_edge"],
)
def test_label_lookups_name_the_missing_vertex(call):
    with pytest.raises(VertexNotFoundError, match="vertex 99 is not in the graph"):
        call(_path())


@pytest.mark.parametrize("engine_class", [DyOneSwap, DGOneDIS])
@pytest.mark.parametrize(
    "operation",
    [delete_vertex(99), insert_edge(0, 99), delete_edge(99, 0)],
    ids=["delete-vertex", "insert-edge", "delete-edge"],
)
def test_engines_refuse_an_update_on_a_missing_vertex(engine_class, operation):
    engine = engine_class(_path())
    graph, solution = engine.graph.to_payload(), engine.solution()
    with pytest.raises(VertexNotFoundError, match="vertex 99 is not in the graph"):
        engine.apply_update(operation)
    assert engine.graph.to_payload() == graph and engine.solution() == solution


# --------------------------------------------------------------------- #
# Solution-state invariants
# --------------------------------------------------------------------- #
def _state(state_class=MISState):
    """Path 0-...-5 with I = {0, 2, 4}: I(1) = {0, 2}, I(3) = {2, 4}, I(5) = {4}."""
    graph = _path(6)
    state = state_class(graph, k=2)
    for vertex in (0, 2, 4):
        state.move_in_slot(graph.slot_of(vertex))
    state.check_invariants()
    return state


def _drop_member(state):
    state._sol_slots.discard(0)


def _clear_member_byte(state):
    state._in_sol[0] = 0


def _add_dead_member(state):
    state._sol_slots.add(99)


@pytest.mark.parametrize("state_class", [MISState, LazyMISState])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_add_dead_member, "solution slot 99 missing from graph"),
        (_clear_member_byte, "0 is in the solution set but its membership byte is clear"),
        (_drop_member, "membership byte of 0 out of sync"),
    ],
    ids=["dead-member", "clear-byte", "dropped-member"],
)
def test_check_invariants_sees_a_corrupt_membership(state_class, corrupt, message):
    state = _state(state_class)
    corrupt(state)
    with pytest.raises(SolutionInvariantError, match=message):
        state.check_invariants()


def _add_to_bucket(state, level, owners, vertex):
    """Record ``vertex`` in the eager state's ``¯I_level(owners)`` bucket."""
    if level == 1:
        (owner,) = owners
        if state._tight1[owner] is None:
            state._tight1[owner] = set()
        state._tight1[owner].add(vertex)
    else:
        state._tight[level].setdefault(frozenset(owners), set()).add(vertex)


@pytest.mark.parametrize(
    "level, owners, vertex, message",
    [
        (1, {0}, 2, r"solution vertex 2 recorded in ¯I_1\(\{0\}\)"),
        (1, {0}, 5, r"5 recorded in ¯I_1\(\{0\}\) but I\(v\) = \{4\}"),
        (2, {0, 2}, 4, r"solution vertex 4 recorded in ¯I_2\(\{0, 2\}\)"),
        (2, {0, 2}, 3, r"3 recorded in ¯I_2\(\{0, 2\}\) but I\(v\) = \{2, 4\}"),
    ],
    ids=["member-in-I1", "wrong-owner-I1", "member-in-I2", "wrong-owners-I2"],
)
def test_check_invariants_sees_a_corrupt_hierarchy(level, owners, vertex, message):
    state = _state()
    _add_to_bucket(state, level, owners, vertex)
    with pytest.raises(SolutionInvariantError, match=message):
        state.check_invariants()


@pytest.mark.parametrize(
    "query",
    [
        lambda state: state.tight_up_to_slots(frozenset({0}), 3),
        lambda state: state.nonsolution_slots_with_count(3),
    ],
    ids=["tight_up_to_slots", "nonsolution_slots_with_count"],
)
def test_a_level_beyond_k_is_refused(query):
    with pytest.raises(ValueError, match="level 3 exceeds tracked k=2"):
        query(_state())


# --------------------------------------------------------------------- #
# The service
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "query",
    [
        lambda tenant: tenant.in_solution(1),
        lambda tenant: tenant.solution(),
        lambda tenant: tenant.solution_size(),
        lambda tenant: tenant.digest(),
        lambda tenant: tenant.what_if([]),
    ],
    ids=["in_solution", "solution", "solution_size", "digest", "what_if"],
)
def test_a_tenant_without_an_engine_refuses_queries(tmp_path, query):
    tenant = Tenant(TenantSpec(name="t"), tmp_path)
    with pytest.raises(ServiceError, match="tenant 't' engine is down"):
        query(tenant)


@pytest.mark.parametrize(
    "metadata",
    [None, {"service": SERVICE_FORMAT, "tenant": "other"}],
    ids=["runner", "other-tenant"],
)
def test_a_tenant_refuses_to_warm_start_from_another_writers_checkpoint(
    tmp_path, metadata
):
    spec = TenantSpec(name="t", batch_size=4, adaptive=False)
    save_checkpoint(
        create_algorithm(spec.algorithm, _path()),
        spec.checkpoint_config(tmp_path).directory,
        algorithm_name=spec.algorithm,
        processed=4,
        initial_size=2,
        stream_identity="0" * 64,
        batch_size=4,
        metadata=metadata,
    )
    with pytest.raises(ServiceError, match="was not written by service tenant 't'"):
        Tenant(spec, tmp_path)._bootstrap()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"checkpoint_every_seconds": 0}, "checkpoint_every_seconds must be positive"),
        ({"checkpoint_keep": 0}, "checkpoint_keep must be >= 1"),
    ],
    ids=["batch_size", "checkpoint_every_seconds", "checkpoint_keep"],
)
def test_tenant_spec_refuses_a_bad_policy(fields, message):
    with pytest.raises(ServiceError, match=f"tenant 't': {message}"):
        TenantSpec(name="t", **fields)


def test_service_config_refusals(tmp_path):
    spec = TenantSpec(name="t")
    with pytest.raises(ServiceError, match="query_timeout and drain_timeout must be positive"):
        ServiceConfig(data_dir=str(tmp_path), tenants=(spec,), port=0, drain_timeout=0)
    config = ServiceConfig(data_dir=str(tmp_path), tenants=(spec,), port=0)
    with pytest.raises(ServiceError, match="unknown tenant 'missing'"):
        config.tenant("missing")
    with pytest.raises(ServiceError, match="invalid service config: .*'name'"):
        ServiceConfig.from_dict(
            {"data_dir": str(tmp_path), "port": 0, "tenants": [{"algorithm": "DyOneSwap"}]}
        )


def test_a_draining_gateway_refuses_ingest(tmp_path):
    config = ServiceConfig(data_dir=str(tmp_path), tenants=(TenantSpec(name="t"),), port=0)

    async def ingest_after_drain():
        gateway = MISGateway(config)
        await gateway.shutdown()
        request = {"cmd": "ingest", "tenant": "t", "seq": 1, "ops": []}
        return await gateway._dispatch(encode_line(request), None, [])

    assert asyncio.run(ingest_after_drain()) == {"ok": False, "error": "draining"}


def test_a_query_without_a_vertex_is_refused(tmp_path):
    config = ServiceConfig(
        data_dir=str(tmp_path / "data"),
        tenants=(TenantSpec(name="t"),),
        unix_socket=str(tmp_path / "service.sock"),
        retry=RetryPolicy(max_attempts=8, base_delay=0.0, cap=0.0),
    )
    with ServiceThread(config) as svc:
        with svc.client() as client:
            reply = client.request({"cmd": "query", "tenant": "t"})
            assert reply == {"ok": False, "error": "query needs a 'vertex'"}
            assert client.health()["tenants"]["t"] == "serving"


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
def test_resume_refuses_a_checkpoint_beyond_the_stream(tmp_path):
    graph = gnm_random_graph(30, 40, seed=1)
    stream = mixed_update_stream(graph, 40, seed=2)
    path = save_checkpoint(
        create_algorithm("DyOneSwap", graph.copy()), tmp_path,
        algorithm_name="DyOneSwap", processed=100, initial_size=0,
    )
    with pytest.raises(ExperimentError, match="100 operations but the stream only has 40"):
        run_algorithm("DyOneSwap", graph, stream, resume_from=path)
    # An unsized stream is refused when the fast-forward runs dry.
    with pytest.raises(ExperimentError, match="100 operations but the stream only yielded 40"):
        run_algorithm("DyOneSwap", graph, (op for op in stream), resume_from=path)


def test_run_algorithm_refuses_a_guard_period_below_one():
    graph = _path()
    with pytest.raises(ExperimentError, match="guard_every must be at least 1 when given"):
        run_algorithm("DyOneSwap", graph, [], guard_every=0)


# --------------------------------------------------------------------- #
# Stream and graph generators
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "options, message",
    [
        ({"self_loops": "keep"}, "self_loops must be 'error' or 'skip'"),
        ({"unsorted": "sort"}, "a streaming event source cannot sort"),
    ],
    ids=["self_loops", "unsorted"],
)
def test_temporal_event_source_refuses_an_unknown_policy(tmp_path, options, message):
    with pytest.raises(ValueError, match=message):
        TemporalEventSource(tmp_path / "events.txt", **options)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"num_vertices": 1}, r"num_vertices must be at least 2"),
        ({"num_vertices": 10, "hub_fraction": 0.0}, r"hub_fraction must lie in \(0, 1\]"),
        ({"num_vertices": 10, "hub_bias": 1.5}, r"hub_bias must lie in \[0, 1\]"),
    ],
    ids=["num_vertices", "hub_fraction", "hub_bias"],
)
def test_synthetic_temporal_events_refuse_bad_parameters(options, message):
    with pytest.raises(UpdateError, match=message):
        synthetic_temporal_events(10, **options)


def test_generators_refuse_bad_parameters():
    with pytest.raises(ValueError, match="num_vertices must be non-negative"):
        gnm_random_graph(-1, 0)
    with pytest.raises(UpdateError, match="burst_size must be at least 1"):
        flash_crowd_stream(_path(), 10, burst_size=0)
    with pytest.raises(ValueError, match="subdivide requires integer vertex ids"):
        subdivide(DynamicGraph(edges=[("a", "b")]))
