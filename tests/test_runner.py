"""Tests for the experiment runner (algorithm factories, competitions, references)."""

from __future__ import annotations

import inspect
import re
import time

import pytest

from graph_helpers import erdos_renyi_graph

from repro.baselines.greedy import randomized_greedy
from repro.core.verification import is_maximal_independent_set
from repro.exceptions import ExperimentError
from repro.experiments.runner import (
    ALGORITHM_FACTORIES,
    PAPER_ALGORITHMS,
    compute_reference,
    create_algorithm,
    run_algorithm,
    run_competition,
)
from repro.generators.power_law import power_law_random_graph
from repro.updates.streams import mixed_update_stream
from repro.workloads import CheckpointConfig


@pytest.fixture
def graph_and_stream():
    graph = power_law_random_graph(120, 2.2, seed=3)
    stream = mixed_update_stream(graph, 200, seed=4)
    return graph, stream


def _keyword_defaults(cls):
    """Default of every keyword-only constructor parameter along the MRO."""
    defaults = {}
    for klass in cls.__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        for param in inspect.signature(init).parameters.values():
            if param.kind is param.KEYWORD_ONLY:
                defaults.setdefault(param.name, param.default)
    defaults.pop("initial_solution", None)
    return defaults


class TestFactories:
    def test_paper_algorithms_are_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in ALGORITHM_FACTORIES

    def test_create_algorithm_unknown_name(self, path_graph):
        with pytest.raises(ExperimentError):
            create_algorithm("NotAnAlgorithm", path_graph)

    def test_create_each_algorithm(self, small_random_graph):
        for name in ALGORITHM_FACTORIES:
            algo = create_algorithm(name, small_random_graph.copy())
            assert algo.solution_size > 0

    def test_variant_options_applied(self, small_random_graph):
        perturb = create_algorithm("DyOneSwap+perturb", small_random_graph.copy())
        assert perturb.perturbation is True
        lazy = create_algorithm("DyTwoSwap+lazy", small_random_graph.copy())
        assert lazy.lazy is True

    def test_framework_accepts_k_option(self, small_random_graph):
        algo = create_algorithm("KSwapFramework", small_random_graph.copy(), k=3)
        assert algo.k == 3

    @pytest.mark.parametrize(
        "options", [{"workers": 2}, {"lazzy": True}, {"workers": 2, "lazzy": True}]
    )
    @pytest.mark.parametrize("name", tuple(ALGORITHM_FACTORIES))
    def test_unknown_options_are_refused(self, path_graph, name, options):
        before = path_graph.copy()
        with pytest.raises(ExperimentError, match=re.escape(repr(name))) as excinfo:
            create_algorithm(name, path_graph, **options)
        for option in options:
            assert repr(option) in str(excinfo.value)
        # Refused before the constructor could touch the graph.
        assert path_graph == before

    @pytest.mark.parametrize("name", tuple(ALGORITHM_FACTORIES))
    def test_constructor_options_are_accepted(self, name, small_random_graph):
        """Every option an algorithm declares is one its constructors take."""
        cls = type(create_algorithm(name, small_random_graph.copy()))
        defaults = _keyword_defaults(cls)
        assert set(defaults) == ALGORITHM_FACTORIES[name].options
        algo = create_algorithm(name, small_random_graph.copy(), **defaults)
        assert is_maximal_independent_set(algo.graph, algo.solution())


class TestRunAlgorithm:
    def test_measurement_fields(self, graph_and_stream):
        graph, stream = graph_and_stream
        measurement = run_algorithm("DyOneSwap", graph, stream, dataset="toy")
        assert measurement.algorithm == "DyOneSwap"
        assert measurement.dataset == "toy"
        assert measurement.num_updates == len(stream)
        assert measurement.finished
        assert measurement.elapsed_seconds > 0
        assert measurement.memory_footprint > 0
        assert measurement.final_size > 0

    def test_original_graph_not_mutated(self, graph_and_stream):
        graph, stream = graph_and_stream
        before = graph.copy()
        run_algorithm("DyTwoSwap", graph, stream)
        assert graph == before

    def test_time_limit_interrupts_run(self, graph_and_stream):
        graph, stream = graph_and_stream
        measurement = run_algorithm("DyOneSwap", graph, stream, time_limit_seconds=0.0)
        assert not measurement.finished
        assert measurement.num_updates < len(stream)

    def test_initial_solution_is_used(self, path_graph):
        stream = mixed_update_stream(path_graph, 5, seed=1)
        measurement = run_algorithm(
            "DyOneSwap", path_graph, stream, initial_solution=[0, 2, 4]
        )
        assert measurement.initial_size == 3


class TestMeasuredTime:
    """Plain, checkpointed and competition runs time the apply calls only."""

    class _Slow:
        """A replayable stream that sleeps 10 ms before each operation."""

        def __init__(self, operations):
            self.operations = operations

        def __iter__(self):
            for operation in self.operations:
                time.sleep(0.01)
                yield operation

    @pytest.mark.parametrize("mode", ["plain", "checkpointed", "competition"])
    def test_stream_producer_is_not_timed(self, mode, tmp_path):
        graph = power_law_random_graph(60, 2.2, seed=3)
        operations = list(mixed_update_stream(graph, 20, seed=4))
        stream = self._Slow(operations)  # sleeps 0.2 s per pass
        if mode == "competition":
            measurements = run_competition(
                graph,
                stream,
                algorithms=("DyOneSwap", "DyTwoSwap"),
                attach_reference=False,
            )
        else:
            checkpoint = CheckpointConfig(directory=tmp_path, every=10)
            measurements = {
                "DyOneSwap": run_algorithm(
                    "DyOneSwap",
                    graph,
                    stream,
                    checkpoint=checkpoint if mode == "checkpointed" else None,
                )
            }
        assert len(measurements) == (2 if mode == "competition" else 1)
        for measurement in measurements.values():
            assert measurement.num_updates == 20
            assert measurement.elapsed_seconds < 0.1


class TestRunCompetition:
    def test_all_algorithms_measured_with_shared_reference(self, graph_and_stream):
        graph, stream = graph_and_stream
        results = run_competition(
            graph, stream, dataset="toy", reference_node_budget=50_000
        )
        assert set(results) == set(PAPER_ALGORITHMS)
        references = {m.reference_size for m in results.values() if m.finished}
        assert len(references) == 1
        for measurement in results.values():
            assert measurement.quality is not None
            assert 0 < measurement.quality.accuracy <= 1.05

    def test_one_shot_initial_solution_reaches_every_algorithm(
        self, graph_and_stream
    ):
        graph, stream = graph_and_stream
        solution = sorted(randomized_greedy(graph, seed=14))
        initial_sizes = {}
        for make in (list, iter):
            results = run_competition(
                graph,
                stream,
                algorithms=("DyOneSwap", "DyTwoSwap", "DGOneDIS"),
                initial_solution=make(solution),
                attach_reference=False,
            )
            initial_sizes[make] = {n: m.initial_size for n, m in results.items()}
        assert initial_sizes[iter] == initial_sizes[list]

    def test_competition_without_reference(self, graph_and_stream):
        graph, stream = graph_and_stream
        results = run_competition(
            graph, stream, algorithms=("DyOneSwap",), attach_reference=False
        )
        assert results["DyOneSwap"].reference_size is None

    def test_algorithm_options_forwarded(self, graph_and_stream):
        graph, stream = graph_and_stream
        results = run_competition(
            graph,
            stream,
            algorithms=("KSwapFramework",),
            attach_reference=False,
            algorithm_options={"KSwapFramework": {"k": 2}},
        )
        assert results["KSwapFramework"].finished


class TestComputeReference:
    def test_exact_reference_on_small_graph(self):
        graph = erdos_renyi_graph(30, 0.15, seed=2)
        reference = compute_reference(graph, node_budget=100_000)
        assert reference.kind == "exact"
        assert reference.size > 0

    def test_fallback_to_best_known(self):
        graph = erdos_renyi_graph(200, 0.2, seed=3)
        reference = compute_reference(graph, node_budget=2, arw_iterations=2)
        assert reference.kind == "best-known"
        assert reference.size > 0

    def test_known_solutions_seed_the_fallback(self):
        graph = erdos_renyi_graph(200, 0.2, seed=4)
        huge_fake = set(range(5000))
        reference = compute_reference(
            graph, node_budget=2, arw_iterations=1, known_solutions=[huge_fake]
        )
        assert reference.size == len(huge_fake)
