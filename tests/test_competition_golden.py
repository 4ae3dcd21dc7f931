"""Golden competitions: every measured field of ``run_competition``.

Each case runs a fixed list of algorithms over one seeded stream and pins,
per algorithm, every :class:`~repro.experiments.metrics.RunMeasurement`
field except ``elapsed_seconds``; the shared reference size and kind are
fields of the measurement.  The cases cover the paper's five algorithms
(DGOneDIS and DGTwoDIS included) per operation and in 64-operation
batches, with and without an initial solution, a temporal workload whose
reference falls back to the best known solution, and registry variants
with forwarded options.

The values were recorded from the runner while it still had a second,
fork-based path for one-shot streams and competition-wide checkpoints.
Replaying a replayable stream once per algorithm must reproduce them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.greedy import randomized_greedy
from repro.experiments.runner import PAPER_ALGORITHMS, run_competition
from repro.generators.power_law import power_law_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.streams import mixed_update_stream
from repro.workloads import synthetic_temporal_events, temporal_update_stream

VARIANTS = ("DyOneSwap+lazy", "DyTwoSwap+perturb", "KSwapFramework")


def _mixed():
    graph = power_law_random_graph(120, 2.2, seed=11)
    return graph, mixed_update_stream(graph, 300, seed=12, edge_fraction=0.7)


def _temporal():
    events = synthetic_temporal_events(
        400, num_vertices=90, seed=13, hub_fraction=0.1, hub_bias=0.6
    )
    return DynamicGraph(), temporal_update_stream(
        events, window=50.0, description="competition"
    )


def _case(source, batch, *, initial=False, algorithms=PAPER_ALGORITHMS, **extra):
    return dict(source=source, batch=batch, initial=initial, algorithms=algorithms, **extra)


CASES = {
    "paper-b1": _case(_mixed, 1),
    "paper-b64": _case(_mixed, 64),
    "paper-initial-b1": _case(_mixed, 1, initial=True),
    "paper-initial-b64": _case(_mixed, 64, initial=True),
    "paper-temporal-b64": _case(_temporal, 64, reference_node_budget=1),
    "variants-b1": _case(
        _mixed,
        1,
        algorithms=VARIANTS,
        algorithm_options={"KSwapFramework": {"k": 3}},
    ),
}


def _fields(measurement) -> dict:
    fields = dataclasses.asdict(measurement)
    del fields["elapsed_seconds"]
    return fields


def observe(case: str) -> dict:
    """Every measured field of every algorithm of ``case``, by name."""
    spec = dict(CASES[case])
    graph, stream = spec.pop("source")()
    batch = spec.pop("batch")
    initial = randomized_greedy(graph, seed=14) if spec.pop("initial") else None
    measurements = run_competition(
        graph,
        stream,
        dataset=case,
        batch_size=batch,
        initial_solution=initial,
        **spec,
    )
    return {name: _fields(measurement) for name, measurement in measurements.items()}


GOLDEN = {
    "paper-b1": {
        "DGOneDIS": {
            "algorithm": "DGOneDIS",
            "dataset": "paper-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 75,
            "memory_footprint": 130,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 37.0},
        },
        "DGTwoDIS": {
            "algorithm": "DGTwoDIS",
            "dataset": "paper-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 75,
            "memory_footprint": 206,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 40.0},
        },
        "DyARW": {
            "algorithm": "DyARW",
            "dataset": "paper-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 373,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 9.0},
        },
        "DyOneSwap": {
            "algorithm": "DyOneSwap",
            "dataset": "paper-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 373,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 9.0},
        },
        "DyTwoSwap": {
            "algorithm": "DyTwoSwap",
            "dataset": "paper-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 396,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 11.0},
        },
    },
    "paper-b64": {
        "DGOneDIS": {
            "algorithm": "DGOneDIS",
            "dataset": "paper-b64",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 75,
            "memory_footprint": 130,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 37.0},
        },
        "DGTwoDIS": {
            "algorithm": "DGTwoDIS",
            "dataset": "paper-b64",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 75,
            "memory_footprint": 206,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 40.0},
        },
        "DyARW": {
            "algorithm": "DyARW",
            "dataset": "paper-b64",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 372,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"batches_applied": 5.0, "operations_coalesced": 56.0, "perturbations": 0.0, "swaps": 4.0},
        },
        "DyOneSwap": {
            "algorithm": "DyOneSwap",
            "dataset": "paper-b64",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 372,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"batches_applied": 5.0, "operations_coalesced": 56.0, "perturbations": 0.0, "swaps": 4.0},
        },
        "DyTwoSwap": {
            "algorithm": "DyTwoSwap",
            "dataset": "paper-b64",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 396,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"batches_applied": 5.0, "operations_coalesced": 56.0, "perturbations": 0.0, "swaps": 4.0},
        },
    },
    "paper-initial-b1": {
        "DGOneDIS": {
            "algorithm": "DGOneDIS",
            "dataset": "paper-initial-b1",
            "num_updates": 300,
            "initial_size": 68,
            "final_size": 74,
            "memory_footprint": 137,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 43.0},
        },
        "DGTwoDIS": {
            "algorithm": "DGTwoDIS",
            "dataset": "paper-initial-b1",
            "num_updates": 300,
            "initial_size": 68,
            "final_size": 74,
            "memory_footprint": 205,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 55.0},
        },
        "DyARW": {
            "algorithm": "DyARW",
            "dataset": "paper-initial-b1",
            "num_updates": 300,
            "initial_size": 77,
            "final_size": 76,
            "memory_footprint": 373,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 15.0},
        },
        "DyOneSwap": {
            "algorithm": "DyOneSwap",
            "dataset": "paper-initial-b1",
            "num_updates": 300,
            "initial_size": 77,
            "final_size": 76,
            "memory_footprint": 373,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 15.0},
        },
        "DyTwoSwap": {
            "algorithm": "DyTwoSwap",
            "dataset": "paper-initial-b1",
            "num_updates": 300,
            "initial_size": 77,
            "final_size": 76,
            "memory_footprint": 396,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 16.0},
        },
    },
    "paper-initial-b64": {
        "DGOneDIS": {
            "algorithm": "DGOneDIS",
            "dataset": "paper-initial-b64",
            "num_updates": 300,
            "initial_size": 68,
            "final_size": 74,
            "memory_footprint": 137,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 43.0},
        },
        "DGTwoDIS": {
            "algorithm": "DGTwoDIS",
            "dataset": "paper-initial-b64",
            "num_updates": 300,
            "initial_size": 68,
            "final_size": 74,
            "memory_footprint": 205,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"index_scans": 55.0},
        },
        "DyARW": {
            "algorithm": "DyARW",
            "dataset": "paper-initial-b64",
            "num_updates": 300,
            "initial_size": 77,
            "final_size": 76,
            "memory_footprint": 369,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"batches_applied": 5.0, "operations_coalesced": 56.0, "perturbations": 0.0, "swaps": 10.0},
        },
        "DyOneSwap": {
            "algorithm": "DyOneSwap",
            "dataset": "paper-initial-b64",
            "num_updates": 300,
            "initial_size": 77,
            "final_size": 76,
            "memory_footprint": 369,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"batches_applied": 5.0, "operations_coalesced": 56.0, "perturbations": 0.0, "swaps": 10.0},
        },
        "DyTwoSwap": {
            "algorithm": "DyTwoSwap",
            "dataset": "paper-initial-b64",
            "num_updates": 300,
            "initial_size": 77,
            "final_size": 76,
            "memory_footprint": 397,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"batches_applied": 5.0, "operations_coalesced": 56.0, "perturbations": 0.0, "swaps": 10.0},
        },
    },
    "paper-temporal-b64": {
        "DGOneDIS": {
            "algorithm": "DGOneDIS",
            "dataset": "paper-temporal-b64",
            "num_updates": 1348,
            "initial_size": 0,
            "final_size": 20,
            "memory_footprint": 40,
            "finished": True,
            "reference_size": 20,
            "reference_kind": "best-known",
            "extra": {"index_scans": 70.0},
        },
        "DGTwoDIS": {
            "algorithm": "DGTwoDIS",
            "dataset": "paper-temporal-b64",
            "num_updates": 1348,
            "initial_size": 0,
            "final_size": 20,
            "memory_footprint": 69,
            "finished": True,
            "reference_size": 20,
            "reference_kind": "best-known",
            "extra": {"index_scans": 73.0},
        },
        "DyARW": {
            "algorithm": "DyARW",
            "dataset": "paper-temporal-b64",
            "num_updates": 1348,
            "initial_size": 0,
            "final_size": 20,
            "memory_footprint": 130,
            "finished": True,
            "reference_size": 20,
            "reference_kind": "best-known",
            "extra": {"batches_applied": 22.0, "operations_coalesced": 586.0, "perturbations": 0.0, "swaps": 21.0},
        },
        "DyOneSwap": {
            "algorithm": "DyOneSwap",
            "dataset": "paper-temporal-b64",
            "num_updates": 1348,
            "initial_size": 0,
            "final_size": 20,
            "memory_footprint": 130,
            "finished": True,
            "reference_size": 20,
            "reference_kind": "best-known",
            "extra": {"batches_applied": 22.0, "operations_coalesced": 586.0, "perturbations": 0.0, "swaps": 21.0},
        },
        "DyTwoSwap": {
            "algorithm": "DyTwoSwap",
            "dataset": "paper-temporal-b64",
            "num_updates": 1348,
            "initial_size": 0,
            "final_size": 20,
            "memory_footprint": 136,
            "finished": True,
            "reference_size": 20,
            "reference_kind": "best-known",
            "extra": {"batches_applied": 22.0, "operations_coalesced": 586.0, "perturbations": 0.0, "swaps": 21.0},
        },
    },
    "variants-b1": {
        "DyOneSwap+lazy": {
            "algorithm": "DyOneSwap+lazy",
            "dataset": "variants-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 183,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 9.0},
        },
        "DyTwoSwap+perturb": {
            "algorithm": "DyTwoSwap+perturb",
            "dataset": "variants-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 396,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 25.0, "swaps": 10.0},
        },
        "KSwapFramework": {
            "algorithm": "KSwapFramework",
            "dataset": "variants-b1",
            "num_updates": 300,
            "initial_size": 78,
            "final_size": 76,
            "memory_footprint": 403,
            "finished": True,
            "reference_size": 76,
            "reference_kind": "exact",
            "extra": {"perturbations": 0.0, "swaps": 11.0},
        },
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_competition_reproduces_the_recorded_measurements(case):
    assert observe(case) == GOLDEN[case]
