"""Model-based test of the slot-state core: eager and lazy states in lockstep.

A Hypothesis rule-based state machine drives :class:`MISState` and
:class:`LazyMISState` through the same slot-level operations — vertex
insertion (including insertions that must be refused) and deletion (with
slot recycling), single and bulk edge insertion and deletion (including
batches that must be refused), ``move_in_slot`` /
``move_out_slot``, and forks that then diverge from their parent.  Each pair
of states is shadowed by a plain model: a vertex set, an edge set and a
solution set.  After every step every pair is checked against a brute-force
reading of its model — counts, ``I(v)``, the tight sets and the count
classes — and the eager and lazy states must agree on their graphs and on
their :class:`StateStatistics`.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.lazy import LazyMISState
from repro.core.state import MISState
from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexExistsError,
    VertexNotFoundError,
)
from repro.graphs.dynamic_graph import DynamicGraph

#: Forks beyond this many live state pairs are skipped, so runs stay small.
MAX_PAIRS = 3


@dataclasses.dataclass
class Model:
    """What the states must describe: plain sets of labels."""

    vertices: set
    edges: set
    solution: set

    def copy(self) -> "Model":
        return Model(set(self.vertices), set(self.edges), set(self.solution))

    def neighbors(self, v):
        return {w for e in self.edges if v in e for w in e if w != v}

    def owners(self, v):
        """``I(v)``: the solution neighbours of a non-solution vertex."""
        return set() if v in self.solution else self.neighbors(v) & self.solution


@dataclasses.dataclass
class Pair:
    eager: MISState
    lazy: LazyMISState
    model: Model

    @property
    def states(self):
        return (self.eager, self.lazy)

    def slot(self, label):
        return self.eager.graph.slot_of(label)


def _fingerprint(state):
    """Every byte of a state and its graph, for the refused-batch checks."""
    graph = state.graph
    cow = graph._cow_adj
    facts = [
        graph.to_payload(),
        graph.num_edges,
        None if cow is None else bytes(cow),
        bytes(state.in_solution_view()),
        list(state.counts_slots_view()),
        sorted(state.solution_slots_view()),
        dataclasses.asdict(state.stats),
    ]
    if isinstance(state, MISState):
        facts += [
            None if state._cow_sn is None else (bytes(state._cow_sn), bytes(state._cow_t1)),
            [sorted(nbrs) for nbrs in state._sn],
            [None if bucket is None else sorted(bucket) for bucket in state._tight1],
            [sorted((sorted(key), sorted(b)) for key, b in lvl.items()) for lvl in state._tight],
            state.structure_size(),
        ]
    return facts


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except (
        SelfLoopError,
        EdgeExistsError,
        EdgeNotFoundError,
        VertexNotFoundError,
        VertexExistsError,
    ) as exc:
        return type(exc).__name__, exc.args


class StateCoreMachine(RuleBasedStateMachine):
    K = 2

    @initialize(
        n=st.integers(min_value=2, max_value=7),
        edge_bits=st.lists(st.booleans(), min_size=21, max_size=21),
        greedy=st.booleans(),
    )
    def build(self, n, edge_bits, greedy):
        edges = [e for e, bit in zip(combinations(range(n), 2), edge_bits) if bit]
        graph = DynamicGraph(vertices=range(n), edges=edges)
        model = Model(set(range(n)), {frozenset(e) for e in edges}, set())
        pair = Pair(MISState(graph.copy(), k=self.K), LazyMISState(graph.copy(), k=self.K), model)
        if greedy:  # start from a maximal solution, so counts are live at once
            for v in range(n):
                if not model.neighbors(v) & model.solution:
                    for state in pair.states:
                        state.move_in_slot(pair.slot(v))
                    model.solution.add(v)
        self.pairs = [pair]
        self.next_label = n

    # ------------------------------------------------------------------ #
    # Drawing helpers
    # ------------------------------------------------------------------ #
    def _pair(self, data):
        return data.draw(st.sampled_from(self.pairs), label="pair")

    @staticmethod
    def _vertex(data, pool, label="vertex"):
        return data.draw(st.sampled_from(sorted(pool)), label=label)

    @staticmethod
    def _edges(model):
        return sorted(tuple(sorted(edge)) for edge in model.edges)

    @staticmethod
    def _non_edges(model):
        return [
            (u, v)
            for u, v in combinations(sorted(model.vertices), 2)
            if frozenset((u, v)) not in model.edges
        ]

    def _evict(self, pair, conflicts):
        """Evict the second endpoint of each still-conflicting pair of slots."""
        for state in pair.states:
            member = state.in_solution_view()
            for su, sv in conflicts:
                if member[su] and member[sv]:
                    state.move_out_slot(sv)
        label = pair.eager.graph.labels_view()
        for su, sv in conflicts:
            if label[su] in pair.model.solution and label[sv] in pair.model.solution:
                pair.model.solution.discard(label[sv])

    # ------------------------------------------------------------------ #
    # Vertices
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def add_vertex(self, data):
        pair = self._pair(data)
        model = pair.model
        neighbors = data.draw(
            st.lists(st.sampled_from(sorted(model.vertices)), unique=True, max_size=4)
            if model.vertices
            else st.just([]),
            label="neighbors",
        )
        label = self.next_label
        self.next_label += 1
        results = [state.add_vertex_slot(label, neighbors) for state in pair.states]
        assert results[0] == results[1]
        assert results[0][1] == len(set(neighbors) & model.solution)
        model.vertices.add(label)
        model.edges |= {frozenset((label, w)) for w in neighbors}

    @rule(data=st.data(), kind=st.sampled_from(["missing", "repeated", "itself", "present"]))
    def refused_vertex_insertion(self, data, kind):
        """A refused insertion names the first bad neighbour and changes nothing."""
        pair = self._pair(data)
        model = pair.model
        neighbors = data.draw(
            st.lists(st.sampled_from(sorted(model.vertices)), unique=True, max_size=3)
            if model.vertices
            else st.just([]),
            label="valid neighbours",
        )
        vertex = self.next_label
        if kind == "present":
            if not model.vertices:
                return
            vertex = self._vertex(data, model.vertices)
        elif kind == "repeated":
            if not neighbors:
                return
            neighbors.append(data.draw(st.sampled_from(neighbors), label="repeat"))
        else:
            position = data.draw(st.integers(0, len(neighbors)), label="position")
            neighbors.insert(position, -1 if kind == "missing" else vertex)
        expected = {
            "missing": "VertexNotFoundError",
            "repeated": "EdgeExistsError",
            "itself": "SelfLoopError",
            "present": "VertexExistsError",
        }[kind]
        before = [_fingerprint(state) for state in pair.states]
        outcomes = [_outcome(state.add_vertex_slot, vertex, neighbors) for state in pair.states]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == expected
        assert [_fingerprint(state) for state in pair.states] == before

    @rule(data=st.data())
    def remove_vertex(self, data):
        pair = self._pair(data)
        model = pair.model
        if not model.vertices:
            return
        v = self._vertex(data, model.vertices)
        slot = pair.slot(v)
        results = [state.remove_vertex_slot(slot) for state in pair.states]
        assert results[0] == results[1]
        was_in, neighbor_slots = results[0]
        assert was_in == (v in model.solution)
        assert neighbor_slots == {pair.slot(w) for w in model.neighbors(v)}
        model.vertices.discard(v)
        model.solution.discard(v)
        model.edges = {e for e in model.edges if v not in e}

    # ------------------------------------------------------------------ #
    # Solution moves
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def move_in(self, data):
        pair = self._pair(data)
        model = pair.model
        free = [
            v for v in model.vertices
            if v not in model.solution and not model.neighbors(v) & model.solution
        ]
        if not free:
            return
        v = self._vertex(data, free)
        for state in pair.states:
            state.move_in_slot(pair.slot(v))
        model.solution.add(v)

    @rule(data=st.data())
    def move_out(self, data):
        pair = self._pair(data)
        if not pair.model.solution:
            return
        v = self._vertex(data, pair.model.solution)
        for state in pair.states:
            state.move_out_slot(pair.slot(v))
        pair.model.solution.discard(v)

    # ------------------------------------------------------------------ #
    # Single edges
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def add_edge(self, data):
        pair = self._pair(data)
        candidates = self._non_edges(pair.model)
        if not candidates:
            return
        u, v = data.draw(st.sampled_from(candidates), label="edge")
        su, sv = pair.slot(u), pair.slot(v)
        for state in pair.states:
            state.add_edge_slots(su, sv)
        pair.model.edges.add(frozenset((u, v)))
        self._evict(pair, [(su, sv)])  # both in I: the caller's eviction

    @rule(data=st.data())
    def remove_edge(self, data):
        pair = self._pair(data)
        model = pair.model
        if not model.edges:
            return
        u, v = data.draw(st.sampled_from(self._edges(model)), label="edge")
        if (u in model.solution) != (v in model.solution):
            out, into = (v, u) if u in model.solution else (u, v)
            expected = len(model.owners(out)) - 1
            for state in pair.states:
                assert state.remove_edge_one_sided(pair.slot(out), pair.slot(into)) == expected
        else:
            for state in pair.states:
                state.remove_edge_structural(pair.slot(u), pair.slot(v))
        model.edges.discard(frozenset((u, v)))

    # ------------------------------------------------------------------ #
    # Bulk edges
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def add_edges_bulk(self, data):
        pair = self._pair(data)
        candidates = self._non_edges(pair.model)
        batch = data.draw(
            st.lists(st.sampled_from(candidates), unique=True, max_size=6)
            if candidates
            else st.just([]),
            label="batch",
        )
        slot_pairs = [(pair.slot(u), pair.slot(v)) for u, v in batch]
        results = [state.add_edges_slots_bulk(slot_pairs) for state in pair.states]
        assert results[0] == results[1]
        bumped, conflicts = results[0]
        solution = pair.model.solution
        assert conflicts == [
            (su, sv) for (u, v), (su, sv) in zip(batch, slot_pairs)
            if u in solution and v in solution
        ]
        assert len(bumped) == sum((u in solution) != (v in solution) for u, v in batch)
        pair.model.edges |= {frozenset(e) for e in batch}
        self._evict(pair, conflicts)

    @rule(data=st.data())
    def remove_edges_bulk(self, data):
        pair = self._pair(data)
        model = pair.model
        batch = data.draw(
            st.lists(st.sampled_from(self._edges(model)), unique=True, max_size=6)
            if model.edges
            else st.just([]),
            label="batch",
        )
        slot_pairs = [(pair.slot(u), pair.slot(v)) for u, v in batch]
        results = [state.remove_edges_slots_bulk(slot_pairs) for state in pair.states]
        assert results[0] == results[1]
        dropped, outside = results[0]
        solution = model.solution
        assert outside == [
            (su, sv) for (u, v), (su, sv) in zip(batch, slot_pairs)
            if u not in solution and v not in solution
        ]
        assert len(dropped) == sum((u in solution) != (v in solution) for u, v in batch)
        model.edges -= {frozenset(e) for e in batch}

    @rule(data=st.data(), kind=st.sampled_from(["self-loop", "existing", "repeated"]))
    def refused_insertion_batch(self, data, kind):
        pair = self._pair(data)
        model = pair.model
        candidates = self._non_edges(model)
        valid = data.draw(
            st.lists(st.sampled_from(candidates), unique=True, max_size=4)
            if candidates
            else st.just([]),
            label="valid prefix",
        )
        if kind == "self-loop" and model.vertices:
            v = self._vertex(data, model.vertices)
            bad = (v, v)
        elif kind == "existing" and model.edges:
            bad = data.draw(st.sampled_from(self._edges(model)))
        elif valid:
            bad = valid[0][::-1]
        else:
            return
        self._refuse(pair, "add_edges_slots_bulk", [*valid, bad])

    @rule(data=st.data(), kind=st.sampled_from(["missing", "repeated"]))
    def refused_deletion_batch(self, data, kind):
        pair = self._pair(data)
        model = pair.model
        present = self._edges(model)
        valid = data.draw(
            st.lists(st.sampled_from(present), unique=True, max_size=4)
            if present
            else st.just([]),
            label="valid prefix",
        )
        absent = self._non_edges(model)
        if kind == "missing" and absent:
            bad = data.draw(st.sampled_from(absent))
        elif valid:
            bad = valid[0][::-1]
        else:
            return
        self._refuse(pair, "remove_edges_slots_bulk", [*valid, bad])

    def _refuse(self, pair, mutator, batch):
        slot_pairs = [(pair.slot(u), pair.slot(v)) for u, v in batch]
        before = [_fingerprint(state) for state in pair.states]
        outcomes = [_outcome(getattr(state, mutator), slot_pairs) for state in pair.states]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] != "ok"
        assert [_fingerprint(state) for state in pair.states] == before

    # ------------------------------------------------------------------ #
    # Forks
    # ------------------------------------------------------------------ #
    @precondition(lambda self: len(self.pairs) < MAX_PAIRS)
    @rule(data=st.data())
    def fork(self, data):
        pair = self._pair(data)
        self.pairs.append(
            Pair(
                pair.eager.fork(pair.eager.graph.fork()),
                pair.lazy.fork(pair.lazy.graph.fork()),
                pair.model.copy(),
            )
        )

    # ------------------------------------------------------------------ #
    # Checks after every step
    # ------------------------------------------------------------------ #
    @invariant()
    def states_match_the_model(self):
        for pair in self.pairs:
            self._check_pair(pair)

    def _check_pair(self, pair):
        eager, lazy, model = pair.eager, pair.lazy, pair.model
        k = self.K
        assert eager.graph.to_payload() == lazy.graph.to_payload()
        assert eager.stats == lazy.stats
        slot = pair.slot
        outside = model.vertices - model.solution
        for state in pair.states:
            graph = state.graph
            assert set(graph.vertices()) == model.vertices
            assert {frozenset(e) for e in graph.edges()} == model.edges
            assert state.solution() == model.solution
            state.check_invariants()
            assert state.is_maximal() == all(model.owners(v) for v in outside)
            for v in model.vertices:
                s = slot(v)
                assert state.count_slot(s) == len(model.owners(v))
                assert set(state.sn_slots_view(s)) == {slot(w) for w in model.owners(v)}
            for level in range(1, k + 1):
                expected = {slot(v) for v in outside if len(model.owners(v)) == level}
                assert set(state.nonsolution_slots_with_count(level)) == expected
            members = sorted(model.solution)
            for owner in members:
                expected = {slot(v) for v in outside if model.owners(v) == {owner}}
                assert set(state.tight1_view(slot(owner))) == expected
            for size in range(1, k + 1):
                for owners in combinations(members, size):
                    key = frozenset(map(slot, owners))
                    exact = {slot(v) for v in outside if model.owners(v) == set(owners)}
                    assert set(state.tight_view(key, size)) == exact
                    for level in range(1, k + 1):
                        up_to = {
                            slot(v)
                            for v in outside
                            if 1 <= len(model.owners(v)) <= level
                            and model.owners(v) <= set(owners)
                        }
                        assert set(state.tight_up_to_slots(key, level)) == up_to


class StateCoreK1(StateCoreMachine):
    K = 1


class StateCoreK3(StateCoreMachine):
    K = 3


_SETTINGS = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

TestStateCoreK1 = StateCoreK1.TestCase
TestStateCoreK2 = StateCoreMachine.TestCase
TestStateCoreK3 = StateCoreK3.TestCase
TestStateCoreK1.settings = TestStateCoreK2.settings = TestStateCoreK3.settings = _SETTINGS


def test_the_machine_catches_a_diverging_state():
    """A planted count drift in one state fails the lockstep check."""
    machine = StateCoreMachine()
    machine.build(n=3, edge_bits=[True, True, False] + [False] * 18, greedy=False)
    pair = machine.pairs[0]
    for state in pair.states:
        state.move_in_slot(pair.slot(0))
    pair.model.solution.add(0)
    machine.states_match_the_model()
    pair.lazy.stats.count_updates += 1
    with pytest.raises(AssertionError):
        machine.states_match_the_model()
