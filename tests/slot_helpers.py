"""Label-to-slot translation for tests of the slot-level solution states.

:class:`~repro.core.state.MISState` and :class:`~repro.core.lazy.LazyMISState`
speak graph slots only; tests read better in vertex labels.  This module is
the one place the tests translate between the two.
"""

from __future__ import annotations


def move_in(state, *labels):
    """Move the labelled vertices into the solution, in order."""
    slot_of = state.graph.slot_of
    for label in labels:
        state.move_in_slot(slot_of(label))


def move_out(state, *labels):
    """Move the labelled vertices out of the solution, in order."""
    slot_of = state.graph.slot_of
    for label in labels:
        state.move_out_slot(slot_of(label))


def remove_edge(state, u, v):
    """Delete the edge ``{u, v}`` through the mutator its endpoints call for."""
    su, sv = state.graph.slot_of(u), state.graph.slot_of(v)
    member = state.in_solution_view()
    if member[su] != member[sv]:
        s_out, s_in = (sv, su) if member[su] else (su, sv)
        state.remove_edge_one_sided(s_out, s_in)
    else:
        state.remove_edge_structural(su, sv)


def count(state, label):
    """``count(v)`` of the labelled vertex."""
    return state.count_slot(state.graph.slot_of(label))


def slots(state, labels):
    """The slots of ``labels``, as a frozenset (an owner set for the views)."""
    slot_of = state.graph.slot_of
    return frozenset(slot_of(label) for label in labels)


def slot_pairs(state, pairs):
    """The slot pairs of labelled edges, in order (a bulk mutator's input)."""
    slot_of = state.graph.slot_of
    return [(slot_of(u), slot_of(v)) for u, v in pairs]


def labels(state, slot_set):
    """The labels of ``slot_set``, as a set."""
    label = state.graph.labels_view()
    return {label[s] for s in slot_set}


def counts_by_label(state):
    """``{label: count}`` over every live vertex."""
    counts = state.counts_slots_view()
    return {v: counts[s] for v, s in state.graph.slot_map_view().items()}
