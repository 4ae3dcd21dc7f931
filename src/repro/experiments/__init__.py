"""Experiment harness: profiles, runner, metrics, and table/figure reproduction."""

from repro._exports import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.experiments.datasets": (
            "ExperimentProfile",
            "QUICK_PROFILE",
            "STANDARD_PROFILE",
            "FULL_PROFILE",
            "get_profile",
            "load_profile_dataset",
            "build_update_stream",
            "dataset_and_stream",
            "TemporalWorkloadSpec",
            "TEMPORAL_WORKLOADS",
            "temporal_workload_names",
            "load_temporal_workload",
        ),
        "repro.experiments.fetch": (
            "SnapDataset",
            "SNAP_TEMPORAL_DATASETS",
            "fetch_dataset",
            "snap_temporal_stream",
        ),
        "repro.experiments.metrics": ("QualityMetrics", "RunMeasurement", "Stopwatch"),
        "repro.experiments.reporting": ("format_table",),
        "repro.experiments.runner": (
            "SNAPSHOT_CAPABLE",
            "PAPER_ALGORITHMS",
            "ALGORITHM_FACTORIES",
            "create_algorithm",
            "supports_snapshots",
            "run_algorithm",
            "run_competition",
            "compute_reference",
            "ReferenceResult",
        ),
        "repro.experiments.tables": (
            "table1_dataset_statistics",
            "table2_easy_quality",
            "table3_many_updates",
            "table4_hard_quality",
            "compute_initial_solution",
        ),
        "repro.experiments.figures": (
            "figure5_easy_performance",
            "figure6_hard_performance",
            "figure7_optimizations",
            "figure8_batched_scalability",
            "figure8_update_scalability",
            "figure9_k_sweep",
            "figure10_power_law",
            "performance_sweep",
            "theorem3_worst_case_table",
            "theory_bound_check",
        ),
    },
)
