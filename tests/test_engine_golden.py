"""Golden engine trajectories: final digests and statistics.

DyARW, DyOneSwap and DyTwoSwap with perturbation, ``KSwapFramework`` at
``k = 2`` and at ``k = 3`` (lazy, with perturbation) each run one seeded
mixed stream through ``apply_stream`` per operation, in 8-operation batches
(the short-batch path) and in 64-operation batches (the coalesced bulk
path), on a 400-vertex power-law graph.  Two streams are used: an
edge-heavy one (edge fraction 0.8) and a vertex-heavy one (0.3) that
recycles slots.  Each case pins the final engine digest (the SHA-256 of the
engine's snapshot payload), every :class:`~repro.core.base.AlgorithmStatistics`
counter and every :class:`~repro.core.state.StateStatistics` counter, so a
swap that moves a different vertex, in a different order, or one more time
fails it.

The values were recorded from the engine before its swap performers were
merged into one swap step and its uncoalesced batch strategy was deleted.
A change to how swaps, fills or batches are carried out must reproduce them
exactly.  Three more cases do the same for an engine built from a partial
initial solution, right after construction and after a stream.

Nine more scenarios pin the same counters, and the solution size, on an
800-vertex power-law graph with 2,000-operation streams: a mixed one and a
flash-crowd one, whose transient vertices mostly cancel inside a 64-operation
batch.  They cover plain and lazy DyOneSwap, plain DyTwoSwap and batch 16.
Each also bounds the tracemalloc peak of its ``apply_stream`` call at 25%
above the one recorded, which fails on a retention that grows with the
stream, such as a copy of the solution kept per batch, and what its
construction leaves allocated at 25% above the one recorded, which fails on
a per-vertex allocation that the set-up does not need, such as a set of its
own for every empty ``I(v)``.
"""

from __future__ import annotations

import dataclasses
import platform
import random
import sys
import tracemalloc

import pytest

from repro.baselines import DyARW
from repro.core import DyOneSwap, DyTwoSwap, KSwapFramework
from repro.experiments.runner import create_algorithm
from repro.generators import power_law_random_graph
from repro.service.tenant import engine_digest
from repro.updates import flash_crowd_stream, mixed_update_stream

ALGORITHMS = {
    "DyARW": (DyARW, {}),
    "DyOneSwap+perturb": (DyOneSwap, {"perturbation": True}),
    "DyTwoSwap+perturb": (DyTwoSwap, {"perturbation": True}),
    "KSwap-k2": (KSwapFramework, {"k": 2}),
    "KSwap-k3+lazy+perturb": (
        KSwapFramework,
        {"k": 3, "lazy": True, "perturbation": True},
    ),
}

#: Edge fraction of each stream: edge-heavy and vertex-heavy.
STREAMS = {"edges": 0.8, "vertices": 0.3}

BATCH_SIZES = (1, 8, 64)

CASES = {
    f"{name}-{stream}-b{batch}": (name, stream, batch)
    for name in ALGORITHMS
    for stream in STREAMS
    for batch in BATCH_SIZES
}


def _graph():
    return power_law_random_graph(400, 2.3, seed=20)


def _run(cls, options, graph, operations, batch):
    """``cls(graph.copy(), **options)`` after applying ``operations`` in
    batches of ``batch``."""
    engine = cls(graph.copy(), **options)
    engine.apply_stream(operations, batch_size=batch)
    return engine


def observe(engine) -> dict:
    """Everything the golden pins for ``engine`` after its run."""
    stats = vars(engine.stats).copy()
    stats["swaps_performed"] = dict(sorted(stats["swaps_performed"].items()))
    return {
        "digest": engine_digest(engine),
        "stats": stats,
        "state": dataclasses.asdict(engine.state.stats),
    }


GOLDEN = {
    "DyARW-edges-b1": {
        "digest": "ba9c0f02cb8bfd64f13fb8d44498ca6f4a92a863aafa9c7eb9f29862ff9d01a7",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 24},
            "perturbations": 0,
            "candidates_processed": 308,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 418, "move_out_calls": 130, "count_updates": 1113},
    },
    "DyARW-edges-b64": {
        "digest": "f7d6751235bb9d564e820ab9bd850654444f0cfcdfdedaa353899b4cf651e32c",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 17},
            "perturbations": 0,
            "candidates_processed": 285,
            "operations_coalesced": 31,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 397, "move_out_calls": 109, "count_updates": 1025},
    },
    "DyARW-edges-b8": {
        "digest": "d65667d3d15c8231a8d0457a4319d79132d1d682fa2a776cd7b1475e8539f2ea",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 22},
            "perturbations": 0,
            "candidates_processed": 302,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 413, "move_out_calls": 126, "count_updates": 1091},
    },
    "DyARW-vertices-b1": {
        "digest": "eaf1795bd2718f652bf15af42dcd7863d7b7bb4cf86965c9d5f42c6e1825fa36",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 33},
            "perturbations": 0,
            "candidates_processed": 285,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 441, "move_out_calls": 69, "count_updates": 969},
    },
    "DyARW-vertices-b64": {
        "digest": "f234aa14c2b0ab67f6078cf2d3166836c59080ad40b4f9bbbdef796f326bdbd4",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 27},
            "perturbations": 0,
            "candidates_processed": 261,
            "operations_coalesced": 39,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 427, "move_out_calls": 59, "count_updates": 902},
    },
    "DyARW-vertices-b8": {
        "digest": "a9c71225d873f1107c38d208cd80f35c7c60eef52b22e483645b8801b1592d0c",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 30},
            "perturbations": 0,
            "candidates_processed": 279,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 436, "move_out_calls": 65, "count_updates": 945},
    },
    "DyOneSwap+perturb-edges-b1": {
        "digest": "acf5a3988dac9539c041b9ef2a7dbfe731b67d619125f3fbc93951431839f509",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 26},
            "perturbations": 35,
            "candidates_processed": 387,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 457, "move_out_calls": 168, "count_updates": 1318},
    },
    "DyOneSwap+perturb-edges-b64": {
        "digest": "874f2d8e53cc941ed75b66a060414379a0002fb6bb951f1141338b39ab7184f5",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 20},
            "perturbations": 32,
            "candidates_processed": 347,
            "operations_coalesced": 31,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 429, "move_out_calls": 141, "count_updates": 1197},
    },
    "DyOneSwap+perturb-edges-b8": {
        "digest": "06fcead6751c4f0e529181146ef98e776eaa0822adb9108dbb504195d77a433e",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 24},
            "perturbations": 38,
            "candidates_processed": 385,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 459, "move_out_calls": 170, "count_updates": 1325},
    },
    "DyOneSwap+perturb-vertices-b1": {
        "digest": "af3242e2e265f23e36436c301ac70975d71dc2f0ad94784de4959befc499cc97",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 29},
            "perturbations": 39,
            "candidates_processed": 344,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 475, "move_out_calls": 103, "count_updates": 1117},
    },
    "DyOneSwap+perturb-vertices-b64": {
        "digest": "46058027b9c34205a5ef11f338af227ca847fef30e3ddacbfc12342fa9d55c51",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 29},
            "perturbations": 36,
            "candidates_processed": 317,
            "operations_coalesced": 39,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 466, "move_out_calls": 97, "count_updates": 1064},
    },
    "DyOneSwap+perturb-vertices-b8": {
        "digest": "d767a895c7322e345c797d0da3b1b76bb29abc65eb1718965699865410ef0702",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 29},
            "perturbations": 36,
            "candidates_processed": 338,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 473, "move_out_calls": 100, "count_updates": 1099},
    },
    "DyTwoSwap+perturb-edges-b1": {
        "digest": "7516be832233029c6de08c5333b5aa2e9ca86732ca1f027d8b34cd8b6faa5f67",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 19, 2: 8},
            "perturbations": 37,
            "candidates_processed": 751,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 468, "move_out_calls": 180, "count_updates": 1376},
    },
    "DyTwoSwap+perturb-edges-b64": {
        "digest": "dd7ac24da73096b1b7cd42e74188cfb9b12f4723b218de74921988961d5625bb",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 16, 2: 7},
            "perturbations": 35,
            "candidates_processed": 619,
            "operations_coalesced": 31,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 445, "move_out_calls": 156, "count_updates": 1273},
    },
    "DyTwoSwap+perturb-edges-b8": {
        "digest": "4f0a28ac02257f5dc4ee24986c4fa6e4099d210252efb4f4795034fb0a27c6c6",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 18, 2: 8},
            "perturbations": 44,
            "candidates_processed": 773,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 475, "move_out_calls": 187, "count_updates": 1417},
    },
    "DyTwoSwap+perturb-vertices-b1": {
        "digest": "ea3bfd37f32c7df6d91633c756e0b6cef1c4d63d00b8a43eb61055c5f258059b",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 21, 2: 12},
            "perturbations": 48,
            "candidates_processed": 693,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 501, "move_out_calls": 130, "count_updates": 1265},
    },
    "DyTwoSwap+perturb-vertices-b64": {
        "digest": "7b16fd0ff053efad0b5b36279cc18e105a716e9aa43c83955bd9613d6d87b6fc",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 27, 2: 5},
            "perturbations": 38,
            "candidates_processed": 587,
            "operations_coalesced": 39,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 480, "move_out_calls": 108, "count_updates": 1147},
    },
    "DyTwoSwap+perturb-vertices-b8": {
        "digest": "ef380cd65b45da24bdcf448afe3726642a6444b918437aa82544f9266351183f",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 20, 2: 13},
            "perturbations": 44,
            "candidates_processed": 675,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 500, "move_out_calls": 127, "count_updates": 1244},
    },
    "KSwap-k2-edges-b1": {
        "digest": "d67b3035e630dc0c2326aabbdb4735cfd667c8f86a8065c4ef2713c85e7ecda9",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 24, 2: 13},
            "perturbations": 0,
            "candidates_processed": 657,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 448, "move_out_calls": 160, "count_updates": 1282},
    },
    "KSwap-k2-edges-b64": {
        "digest": "6736d7f807a19f3ef15aa4f61f0f579c1af7a26f9ab6a67b2f216ba14d91b9d2",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 13, 2: 12},
            "perturbations": 0,
            "candidates_processed": 544,
            "operations_coalesced": 31,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 418, "move_out_calls": 130, "count_updates": 1141},
    },
    "KSwap-k2-edges-b8": {
        "digest": "a9351cef144525001348b99756997707b8871a6b8a0ac877026e2c52e7395f1c",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 17, 2: 17},
            "perturbations": 0,
            "candidates_processed": 654,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 448, "move_out_calls": 159, "count_updates": 1279},
    },
    "KSwap-k2-vertices-b1": {
        "digest": "e3f60c2b5c9c009c9579e1b424cb96b37fe8f0312b94ae4c69b632d9f93e694e",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 24, 2: 14},
            "perturbations": 0,
            "candidates_processed": 578,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 461, "move_out_calls": 88, "count_updates": 1082},
    },
    "KSwap-k2-vertices-b64": {
        "digest": "5adc7bf7022c38e2b1f7c83eb666db2150dafe074b4d61620a0a8a7483bc55b8",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 22, 2: 9},
            "perturbations": 0,
            "candidates_processed": 498,
            "operations_coalesced": 39,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 441, "move_out_calls": 72, "count_updates": 994},
    },
    "KSwap-k2-vertices-b8": {
        "digest": "3fd0e39695870030c682f5b8c1c09d88a537ca2e5b750f056e95c53f35a7eb66",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 21, 2: 12},
            "perturbations": 0,
            "candidates_processed": 545,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 450, "move_out_calls": 80, "count_updates": 1019},
    },
    "KSwap-k3+lazy+perturb-edges-b1": {
        "digest": "76a2283a326e631bf561411b7c710033f704d2d4fd55dec11b23aa546ca9211b",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 18, 2: 9, 3: 5},
            "perturbations": 47,
            "candidates_processed": 1223,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 494, "move_out_calls": 206, "count_updates": 1538},
    },
    "KSwap-k3+lazy+perturb-edges-b64": {
        "digest": "1632dd64570dc52731710b02cf26c2c39f1c05aa97a9d63fad47e0e9fde21e53",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 17, 2: 7, 3: 2},
            "perturbations": 39,
            "candidates_processed": 903,
            "operations_coalesced": 31,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 454, "move_out_calls": 165, "count_updates": 1334},
    },
    "KSwap-k3+lazy+perturb-edges-b8": {
        "digest": "ec28ab92016ae5a21373a6276f5913f73003ad86b9158d81f5f192781a6964e1",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 16, 2: 9, 3: 5},
            "perturbations": 50,
            "candidates_processed": 1208,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 496, "move_out_calls": 208, "count_updates": 1545},
    },
    "KSwap-k3+lazy+perturb-vertices-b1": {
        "digest": "678c3c4ef69349bd8a5c6c131d247222caa38fc49809c08d1843c56b0a58195a",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 23, 2: 10, 3: 3},
            "perturbations": 50,
            "candidates_processed": 1093,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 512, "move_out_calls": 139, "count_updates": 1319},
    },
    "KSwap-k3+lazy+perturb-vertices-b64": {
        "digest": "5676acc723a6774c2710fe44dd54e247f9fa3d778b90c41f5bd51131930d6316",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 26, 2: 4, 3: 2},
            "perturbations": 37,
            "candidates_processed": 855,
            "operations_coalesced": 39,
            "batches_applied": 10,
        },
        "state": {"move_in_calls": 480, "move_out_calls": 110, "count_updates": 1151},
    },
    "KSwap-k3+lazy+perturb-vertices-b8": {
        "digest": "4ef4d22d53578c5e8d699aef0f4ef4dddfda8a2651b9cba95bec65384a98a887",
        "stats": {
            "updates_processed": 600,
            "swaps_performed": {1: 22, 2: 10, 3: 3},
            "perturbations": 47,
            "candidates_processed": 1057,
            "operations_coalesced": 0,
            "batches_applied": 75,
        },
        "state": {"move_in_calls": 508, "move_out_calls": 134, "count_updates": 1293},
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_reproduces_the_recorded_trajectory(case):
    name, stream, batch = CASES[case]
    cls, options = ALGORITHMS[name]
    graph = _graph()
    operations = mixed_update_stream(
        graph, 600, seed=21, edge_fraction=STREAMS[stream]
    )
    assert observe(_run(cls, options, graph, operations, batch)) == GOLDEN[case]


#: Engine -> (options, digest after construction from a partial initial
#: solution, digest after 600 more operations in 64-operation batches).  The
#: digest covers every statistics counter.  Recorded when the members of an
#: initial solution moved in in (degree, insertion) order and the greedy
#: fill sorted every slot; moving them in as given and sorting only the
#: slots left free must change neither.
INSTALLED = {
    "DyOneSwap": (
        {},
        "f987a0171ef3f81b9e7821a5c1b540df9cfe92cdcf893d5ce42db35cb220de01",
        "454d768cdbbd14437f711a4229edd200996b4399eb644d79f3a3a96ab3b7969e",
    ),
    "DyTwoSwap": (
        {},
        "07f1fac1588d0b6acc2bd43a4120605c2778b5e0cf3503842d93c57e4e0046dc",
        "afed9b09cbdbdc407dc80d283fc05b180f78ea31a7c3affdf7fc836749815939",
    ),
    "KSwapFramework": (
        {"k": 3},
        "2bc78b047f271b969b8cdb254b959fb5b0eb2dd8e78d451e007c3acae442b231",
        "6f8df24d534724ce8f9e2e60b412aac624db272d250b57cde3c186ca1ddd41be",
    ),
}


def _partial_solution(graph):
    """An independent set that is not maximal, in no sorted order: a greedy
    pick over the vertices in a seeded shuffle, every second one kept."""
    vertices = sorted(graph.vertices())
    random.Random(7).shuffle(vertices)
    chosen, blocked = [], set()
    for vertex in vertices:
        if vertex not in blocked:
            chosen.append(vertex)
            blocked.add(vertex)
            blocked.update(graph.neighbors(vertex))
    return chosen[::2]


@pytest.mark.parametrize("name", sorted(INSTALLED))
def test_install_from_a_partial_solution_reproduces_the_recorded_trajectory(name):
    options, installed, after = INSTALLED[name]
    graph = _graph()
    engine = create_algorithm(name, graph.copy(), _partial_solution(graph), **options)
    assert engine_digest(engine) == installed
    operations = mixed_update_stream(graph, 600, seed=21, edge_fraction=0.8)
    engine.apply_stream(operations, batch_size=64)
    assert engine_digest(engine) == after


#: Scenario -> (engine class, options, stream, batch size, KiB its
#: construction leaves allocated, tracemalloc peak of its ``apply_stream``
#: call in KiB).  Both are measured above what was allocated when the call
#: began (the graph copy is made before), on CPython 3.11.
SCENARIOS = {
    "DyOneSwap": (DyOneSwap, {}, "mixed", 1, 167.2, 279.8),
    "DyOneSwap-lazy": (DyOneSwap, {"lazy": True}, "mixed", 1, 45.5, 164.4),
    "DyTwoSwap": (DyTwoSwap, {}, "mixed", 1, 195.2, 349.0),
    "DyTwoSwap-batch16": (DyTwoSwap, {}, "mixed", 16, 195.3, 358.3),
    "DyTwoSwap-batch64": (DyTwoSwap, {}, "mixed", 64, 195.1, 366.0),
    "DyOneSwap-bursty": (DyOneSwap, {}, "bursty", 1, 166.9, 263.7),
    "DyOneSwap-bursty-batch64": (DyOneSwap, {}, "bursty", 64, 166.9, 159.8),
    "DyTwoSwap-bursty": (DyTwoSwap, {}, "bursty", 1, 195.0, 316.7),
    "DyTwoSwap-bursty-batch64": (DyTwoSwap, {}, "bursty", 64, 195.0, 198.2),
}


@pytest.fixture(scope="module")
def scenario_inputs():
    graph = power_law_random_graph(800, 2.2, seed=123)
    streams = {
        "mixed": mixed_update_stream(graph, 2000, seed=321, edge_fraction=0.8),
        "bursty": flash_crowd_stream(
            graph, 2000, burst_size=24, max_neighbors=2, churn=0.9, seed=321
        ),
    }
    return graph, streams


SCENARIO_GOLDEN = {
    "DyOneSwap": {
        "size": 472,
        "digest": "c33fbaf5445fe6ff40b3765ae4ec073b4b096477bbc0bdbc9c627e4e83380a35",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 92},
            "perturbations": 0,
            "candidates_processed": 940,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 1024, "move_out_calls": 427, "count_updates": 3440},
    },
    "DyOneSwap-lazy": {
        "size": 472,
        "digest": "0569605df40415c69b9850fb32f43249dc3ff12ade543626193603d76623b959",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 92},
            "perturbations": 0,
            "candidates_processed": 940,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 1024, "move_out_calls": 427, "count_updates": 3440},
    },
    "DyTwoSwap": {
        "size": 477,
        "digest": "994688052fd0db44f772912979698beee9c97ca567afd50896a6c8e51f881ac1",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 69, 2: 39},
            "perturbations": 0,
            "candidates_processed": 2077,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 1087, "move_out_calls": 481, "count_updates": 3775},
    },
    "DyTwoSwap-batch16": {
        "size": 477,
        "digest": "22e178cdfd320487af576637b75d372a31e58cd06a77eaae50a243898a27d2b9",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 65, 2: 39},
            "perturbations": 0,
            "candidates_processed": 2052,
            "operations_coalesced": 0,
            "batches_applied": 125,
        },
        "state": {"move_in_calls": 1080, "move_out_calls": 475, "count_updates": 3739},
    },
    "DyTwoSwap-batch64": {
        "size": 478,
        "digest": "bd5067f74a78fd05e4c6c555f617da12b7dd0662faba32f57965605cbec4f8e6",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 59, 2: 34},
            "perturbations": 0,
            "candidates_processed": 1872,
            "operations_coalesced": 42,
            "batches_applied": 32,
        },
        "state": {"move_in_calls": 1047, "move_out_calls": 444, "count_updates": 3542},
    },
    "DyOneSwap-bursty": {
        "size": 608,
        "digest": "34685b0f99fcd8a3c2e09d37726a7a8920ae17ac3b64083759a6bef9585e2c8a",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 115},
            "perturbations": 0,
            "candidates_processed": 776,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 1266, "move_out_calls": 115, "count_updates": 1696},
    },
    "DyOneSwap-bursty-batch64": {
        "size": 609,
        "digest": "fb8e0850172e9566fff1ca15188a23e4330e332c0166971dc742bf1a69ab3cdc",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 46},
            "perturbations": 0,
            "candidates_processed": 382,
            "operations_coalesced": 1244,
            "batches_applied": 32,
        },
        "state": {"move_in_calls": 841, "move_out_calls": 46, "count_updates": 1026},
    },
    "DyTwoSwap-bursty": {
        "size": 610,
        "digest": "c7500a4ffc8deeffc26e9299eeccd56e3a61c1bd2498a76a7eeb30be82587a79",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 115, 2: 25},
            "perturbations": 0,
            "candidates_processed": 1414,
            "operations_coalesced": 0,
            "batches_applied": 0,
        },
        "state": {"move_in_calls": 1336, "move_out_calls": 165, "count_updates": 1974},
    },
    "DyTwoSwap-bursty-batch64": {
        "size": 610,
        "digest": "e590bd9438885c0346dbd098f803e2fb63d1d0c76bd38cf79d4b09dd98a3cb27",
        "stats": {
            "updates_processed": 2000,
            "swaps_performed": {1: 44, 2: 7},
            "perturbations": 0,
            "candidates_processed": 650,
            "operations_coalesced": 1244,
            "batches_applied": 32,
        },
        "state": {"move_in_calls": 857, "move_out_calls": 58, "count_updates": 1094},
    },
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_reproduces_the_recorded_trajectory(scenario, scenario_inputs):
    cls, options, stream, batch, _setup, _peak = SCENARIOS[scenario]
    graph, streams = scenario_inputs
    engine = _run(cls, options, graph, streams[stream], batch)
    assert {"size": engine.solution_size, **observe(engine)} == SCENARIO_GOLDEN[scenario]


recorded_on_cpython_3_11 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the allocations were recorded on CPython 3.11, and this is "
    f"{platform.python_implementation()} {platform.python_version()}",
)


def _traced(call, *args, **kwargs):
    """``call``'s result, the KiB it left allocated and its peak KiB, both
    above what was allocated when it began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (current - before) / 1024, (peak - before) / 1024


@recorded_on_cpython_3_11
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_construction_stays_within_a_quarter_of_the_recorded_one(
    scenario, scenario_inputs
):
    cls, options, _stream, _batch, setup_kib, _peak = SCENARIOS[scenario]
    graph, _streams = scenario_inputs
    _engine, retained, _ = _traced(cls, graph.copy(), **options)
    assert retained <= 1.25 * setup_kib


@recorded_on_cpython_3_11
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_peak_stays_within_a_quarter_of_the_recorded_one(
    scenario, scenario_inputs
):
    cls, options, stream, batch, _setup, peak_kib = SCENARIOS[scenario]
    graph, streams = scenario_inputs
    engine = cls(graph.copy(), **options)
    _, _, peak = _traced(engine.apply_stream, streams[stream], batch_size=batch)
    assert peak <= 1.25 * peak_kib

