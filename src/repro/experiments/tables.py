"""Reproduction of the paper's tables (I–IV).

Every function returns a list of plain row dictionaries (one row per dataset,
algorithm results flattened into columns) so callers can render them with
:func:`repro.experiments.reporting.format_table`, assert on them in tests, or
dump them to CSV.  The benchmarks in ``benchmarks/`` call these functions with
the ``quick`` profile.

Mapping to the paper:

* :func:`table1_dataset_statistics` — Table I (dataset statistics, original
  versus synthetic stand-in),
* :func:`table2_easy_quality` — Table II (gap & accuracy on easy graphs after
  the "100k updates" analogue),
* :func:`table3_many_updates` — Table III (gap & accuracy on the last seven
  easy graphs after the "1M updates" analogue),
* :func:`table4_hard_quality` — Table IV (gap to the ARW best result on hard
  graphs after the "1M updates" analogue).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.arw import ArwLocalSearch
from repro.baselines.exact import BranchAndReduceSolver
from repro.exceptions import SolverTimeoutError
from repro.experiments.datasets import (
    ExperimentProfile,
    dataset_and_stream,
    get_profile,
    load_profile_dataset,
)
from repro.experiments.metrics import QualityMetrics, RunMeasurement
from repro.experiments.runner import PAPER_ALGORITHMS, run_competition
from repro.generators.datasets import LAST_SEVEN_EASY, get_dataset_spec
from repro.graphs.dynamic_graph import DynamicGraph, Vertex

#: The perturbation variants whose gap is reported in the paper's ``gap*`` columns.
PERTURBATION_VARIANTS: Tuple[str, ...] = ("DyOneSwap+perturb", "DyTwoSwap+perturb")


# --------------------------------------------------------------------------- #
# Table I
# --------------------------------------------------------------------------- #
def table1_dataset_statistics(
    profile="quick", *, datasets: Optional[Sequence[str]] = None
) -> List[Dict[str, object]]:
    """Table I: statistics of the original graphs and their synthetic stand-ins."""
    profile = get_profile(profile)
    names = list(datasets) if datasets is not None else list(
        profile.easy_datasets + profile.hard_datasets
    )
    rows: List[Dict[str, object]] = []
    for name in names:
        spec = get_dataset_spec(name)
        graph = load_profile_dataset(profile, name)
        rows.append(
            {
                "dataset": spec.name,
                "category": spec.category,
                "paper_n": spec.paper_vertices,
                "paper_m": spec.paper_edges,
                "paper_avg_degree": spec.paper_average_degree,
                "repro_n": graph.num_vertices,
                "repro_m": graph.num_edges,
                "repro_avg_degree": round(graph.average_degree(), 2),
                "scale_factor": round(spec.paper_vertices / graph.num_vertices, 1),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Tables II and III (gap & accuracy against the independence number)
# --------------------------------------------------------------------------- #
def table2_easy_quality(
    profile="quick", *, datasets: Optional[Sequence[str]] = None
) -> List[Dict[str, object]]:
    """Table II: gap and accuracy on easy graphs after the small update stream."""
    profile = get_profile(profile)
    names = list(datasets) if datasets is not None else list(profile.easy_datasets)
    return _quality_table(profile, names, profile.updates_small, initial_kind="exact")

def table3_many_updates(
    profile="quick",
    *,
    datasets: Optional[Sequence[str]] = None,
    batch_size: int = 1,
) -> List[Dict[str, object]]:
    """Table III: gap and accuracy on the last seven easy graphs after the large stream.

    ``batch_size > 1`` reruns the table through the batched update engine
    (one coalesce + repair pass per batch); quality columns are then the
    batch-boundary solutions, which carry the same k-maximality guarantee.
    """
    profile = get_profile(profile)
    if datasets is not None:
        names = list(datasets)
    else:
        names = [name for name in profile.easy_datasets if name in LAST_SEVEN_EASY]
        if not names:
            names = list(profile.easy_datasets)
    return _quality_table(
        profile,
        names,
        profile.updates_large,
        initial_kind="exact",
        batch_size=batch_size,
    )


def _quality_table(
    profile: ExperimentProfile,
    names: Sequence[str],
    num_updates: int,
    *,
    initial_kind: str,
    batch_size: int = 1,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    algorithms = list(PAPER_ALGORITHMS) + list(PERTURBATION_VARIANTS)
    for name in names:
        graph, stream = dataset_and_stream(profile, name, num_updates)
        initial_solution, initial_source = compute_initial_solution(
            graph,
            prefer=initial_kind,
            node_budget=profile.reference_node_budget,
            arw_iterations=profile.arw_iterations,
            seed=profile.seed,
        )
        measurements = run_competition(
            graph,
            stream,
            dataset=name,
            algorithms=algorithms,
            initial_solution=initial_solution,
            time_limit_seconds=profile.time_limit_seconds,
            batch_size=batch_size,
            reference_node_budget=profile.reference_node_budget,
        )
        rows.append(
            _quality_row(
                name,
                num_updates,
                measurements,
                initial_source=initial_source,
            )
        )
    return rows


def _quality_row(
    dataset: str,
    num_updates: int,
    measurements: Dict[str, RunMeasurement],
    *,
    initial_source: str,
) -> Dict[str, object]:
    reference = None
    reference_kind = "unknown"
    for measurement in measurements.values():
        if measurement.reference_size is not None:
            reference = measurement.reference_size
            reference_kind = measurement.reference_kind
            break
    row: Dict[str, object] = {
        "dataset": dataset,
        "updates": num_updates,
        "reference": reference,
        "reference_kind": reference_kind,
        "initial_solution": initial_source,
    }
    for name in PAPER_ALGORITHMS:
        measurement = measurements.get(name)
        if measurement is None or not measurement.finished:
            row[f"{name}_gap"] = None
            row[f"{name}_acc"] = None
            continue
        quality = measurement.quality
        row[f"{name}_gap"] = quality.formatted_gap() if quality else None
        row[f"{name}_acc"] = round(quality.accuracy, 4) if quality else None
    for variant in PERTURBATION_VARIANTS:
        measurement = measurements.get(variant)
        base = variant.split("+", 1)[0]
        if measurement is None or not measurement.finished or measurement.quality is None:
            row[f"{base}_gap*"] = None
        else:
            row[f"{base}_gap*"] = measurement.quality.formatted_gap()
    return row


# --------------------------------------------------------------------------- #
# Table IV (gap to the ARW best result on hard graphs)
# --------------------------------------------------------------------------- #
def table4_hard_quality(
    profile="quick", *, datasets: Optional[Sequence[str]] = None
) -> List[Dict[str, object]]:
    """Table IV: gap to the best ARW result on hard graphs after the large stream.

    DGOneDIS / DGTwoDIS rows show ``None`` (rendered as "-") when they do not
    finish within the profile's time limit, mirroring the paper.
    """
    profile = get_profile(profile)
    names = list(datasets) if datasets is not None else list(profile.hard_datasets)
    algorithms = list(PAPER_ALGORITHMS) + list(PERTURBATION_VARIANTS)
    rows: List[Dict[str, object]] = []
    for name in names:
        graph, stream = dataset_and_stream(profile, name, profile.updates_large)
        initial_solution, initial_source = compute_initial_solution(
            graph,
            prefer="arw",
            node_budget=profile.reference_node_budget,
            arw_iterations=profile.arw_iterations,
            seed=profile.seed,
        )
        measurements = run_competition(
            graph,
            stream,
            dataset=name,
            algorithms=algorithms,
            initial_solution=initial_solution,
            time_limit_seconds=profile.time_limit_seconds,
            attach_reference=False,
        )
        # The reference is ARW's best result on the *final* graph.
        final_graph = graph.copy()
        stream.apply_all(final_graph)
        best_result = ArwLocalSearch(
            max_iterations=profile.arw_iterations, seed=profile.seed
        ).run(final_graph, initial_solution=None)
        reference = len(best_result.solution)
        row: Dict[str, object] = {
            "dataset": name,
            "updates": profile.updates_large,
            "best_result": reference,
            "initial_solution": initial_source,
        }
        for algorithm in PAPER_ALGORITHMS:
            measurement = measurements.get(algorithm)
            if measurement is None or not measurement.finished:
                row[f"{algorithm}_gap"] = None
                continue
            quality = QualityMetrics(
                solution_size=measurement.final_size,
                reference_size=reference,
                reference_kind="best-known",
            )
            row[f"{algorithm}_gap"] = quality.formatted_gap()
        for variant in PERTURBATION_VARIANTS:
            measurement = measurements.get(variant)
            base = variant.split("+", 1)[0]
            if measurement is None or not measurement.finished:
                row[f"{base}_gap*"] = None
            else:
                quality = QualityMetrics(
                    solution_size=measurement.final_size,
                    reference_size=reference,
                    reference_kind="best-known",
                )
                row[f"{base}_gap*"] = quality.formatted_gap()
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Initial solutions
# --------------------------------------------------------------------------- #
def compute_initial_solution(
    graph: DynamicGraph,
    *,
    prefer: str = "exact",
    node_budget: int = 60_000,
    arw_iterations: int = 10,
    seed: int = 0,
) -> Tuple[Set[Vertex], str]:
    """Compute the initial independent set handed to every algorithm.

    Mirrors the paper's protocol: a maximum independent set (VCSolver) for
    easy graphs, a strong ARW local-search solution for hard graphs.  When
    ``prefer="exact"`` but the solver exceeds its budget, the ARW solution is
    used instead (and the provenance string says so).
    """
    if prefer == "exact":
        solver = BranchAndReduceSolver(node_budget=node_budget)
        try:
            report = solver.solve(graph)
            return set(report.solution), "exact"
        except SolverTimeoutError:
            pass
    result = ArwLocalSearch(max_iterations=arw_iterations, seed=seed).run(graph)
    return set(result.solution), "arw"
