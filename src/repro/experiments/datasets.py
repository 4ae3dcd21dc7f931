"""Experiment profiles and dataset selection.

The paper's evaluation uses 22 graphs with up to billions of edges and update
streams of 100 000 and 1 000 000 operations.  The reproduction scales both
down while preserving the ratios that drive the qualitative behaviour:

* stand-in graphs keep the original average degree and a power-law degree
  distribution (see :mod:`repro.generators.datasets`),
* the "small" update stream is roughly ``1.3 × n`` operations — the same
  updates-per-vertex ratio as 100 000 updates on Epinions — and the "large"
  stream is several times that, reproducing the highly-dynamic regime where
  the paper's algorithms shine.

Three profiles are provided: ``quick`` (used by the pytest benchmarks so the
whole suite stays fast), ``standard`` (a fuller sweep over more datasets) and
``full`` (every dataset of Table I at the registry's default scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.exceptions import ExperimentError
from repro.generators.datasets import dataset_names, load_dataset
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.streams import UpdateStream, mixed_update_stream
from repro.workloads.temporal import (
    TemporalUpdateStream,
    synthetic_temporal_events,
    temporal_update_stream,
)


@dataclass(frozen=True)
class ExperimentProfile:
    """Sizing knobs shared by every table/figure reproduction.

    Attributes
    ----------
    easy_vertices, hard_vertices:
        Stand-in sizes for easy/hard datasets.
    updates_small, updates_large:
        Stream lengths corresponding to the paper's 100 000 and 1 000 000
        update experiments.
    easy_datasets, hard_datasets:
        Which named datasets are included.
    reference_node_budget:
        Node budget handed to the exact solver when computing references.
    arw_iterations:
        Iterations of the ARW fallback reference.
    time_limit_seconds:
        Per-run cut-off (the five-hour analogue); ``None`` disables it.
    plr_vertices:
        Size of the Fig 10 power-law random graphs.
    seed:
        Base seed for streams and generators.
    """

    name: str
    easy_vertices: int
    hard_vertices: int
    updates_small: int
    updates_large: int
    easy_datasets: Tuple[str, ...]
    hard_datasets: Tuple[str, ...]
    reference_node_budget: int = 60_000
    arw_iterations: int = 10
    time_limit_seconds: Optional[float] = None
    plr_vertices: int = 1_000
    seed: int = 2022


QUICK_PROFILE = ExperimentProfile(
    name="quick",
    easy_vertices=500,
    hard_vertices=600,
    updates_small=700,
    updates_large=2_100,
    easy_datasets=("Epinions", "Email", "com-dblp", "web-BerkStan", "hollywood"),
    hard_datasets=("soc-pokec", "cit-Patents", "com-orkut"),
    reference_node_budget=15_000,
    arw_iterations=4,
    time_limit_seconds=60.0,
    plr_vertices=600,
)

STANDARD_PROFILE = ExperimentProfile(
    name="standard",
    easy_vertices=1_200,
    hard_vertices=1_500,
    updates_small=1_600,
    updates_large=6_000,
    easy_datasets=tuple(dataset_names("easy")),
    hard_datasets=tuple(dataset_names("hard")),
    reference_node_budget=80_000,
    arw_iterations=10,
    time_limit_seconds=300.0,
    plr_vertices=2_000,
)

FULL_PROFILE = ExperimentProfile(
    name="full",
    easy_vertices=3_000,
    hard_vertices=4_000,
    updates_small=4_000,
    updates_large=16_000,
    easy_datasets=tuple(dataset_names("easy")),
    hard_datasets=tuple(dataset_names("hard")),
    reference_node_budget=300_000,
    arw_iterations=25,
    time_limit_seconds=1_800.0,
    plr_vertices=10_000,
)

_PROFILES: Dict[str, ExperimentProfile] = {
    profile.name: profile
    for profile in (QUICK_PROFILE, STANDARD_PROFILE, FULL_PROFILE)
}


def get_profile(name_or_profile) -> ExperimentProfile:
    """Resolve a profile by name, or pass an :class:`ExperimentProfile` through."""
    if isinstance(name_or_profile, ExperimentProfile):
        return name_or_profile
    try:
        return _PROFILES[name_or_profile]
    except KeyError:
        raise ExperimentError(
            f"unknown profile {name_or_profile!r}; known: {sorted(_PROFILES)}"
        ) from None


def load_profile_dataset(profile: ExperimentProfile, name: str) -> DynamicGraph:
    """Load the stand-in for ``name`` at the size the profile prescribes."""
    if name in profile.hard_datasets:
        size = profile.hard_vertices
    else:
        size = profile.easy_vertices
    return load_dataset(name, scaled_vertices=size)


def build_update_stream(
    profile: ExperimentProfile,
    graph: DynamicGraph,
    num_updates: int,
    *,
    dataset: str = "",
) -> UpdateStream:
    """Build the paper's default workload (random mixed updates) for a dataset."""
    seed = profile.seed + sum(ord(c) for c in dataset)
    return mixed_update_stream(
        graph,
        num_updates,
        edge_fraction=0.8,
        insert_ratio=0.5,
        seed=seed,
    )


def dataset_and_stream(
    profile: ExperimentProfile, name: str, num_updates: int
) -> Tuple[DynamicGraph, UpdateStream]:
    """Convenience: load a dataset stand-in plus its update stream."""
    graph = load_profile_dataset(profile, name)
    stream = build_update_stream(profile, graph, num_updates, dataset=name)
    return graph, stream


# --------------------------------------------------------------------- #
# Temporal workload catalog
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TemporalWorkloadSpec:
    """A named temporal replay workload (stand-in for a SNAP temporal dataset).

    The real temporal datasets (wiki-Talk, email-Eu, sx-stackoverflow, …)
    are not redistributable inside this repository, so each catalog entry
    generates a deterministic hub-biased interaction sequence at the
    profile's scale (:func:`repro.workloads.temporal.synthetic_temporal_events`)
    and replays it through the named retention policy
    (:func:`repro.workloads.temporal.temporal_update_stream`).

    Attributes
    ----------
    name:
        Catalog key.
    events_factor:
        Timestamped interactions generated per profile "small" update
        (deletions synthesized by the policy come on top, so the resulting
        stream is longer than the event count).
    window:
        Time-window retention in timestamp units (``None`` disables it).
    max_live:
        Capacity decay: at most this many live interactions (``None``
        disables it).
    gc_isolated:
        Delete endpoints isolated by expiries (vertex churn, exercising the
        engine's slot recycling).
    hub_fraction, hub_bias:
        Skew knobs of the synthetic event generator.
    description:
        The real-world scenario the workload models.
    """

    name: str
    events_factor: float = 1.0
    window: Optional[float] = None
    max_live: Optional[int] = None
    gc_isolated: bool = True
    hub_fraction: float = 0.05
    hub_bias: float = 0.6
    description: str = ""


TEMPORAL_WORKLOADS: Dict[str, TemporalWorkloadSpec] = {
    spec.name: spec
    for spec in (
        TemporalWorkloadSpec(
            name="wiki-talk-window",
            events_factor=1.0,
            window=40.0,
            description="message-graph replay where interactions expire after a time window",
        ),
        TemporalWorkloadSpec(
            name="email-eu-decay",
            events_factor=1.0,
            max_live=400,
            hub_bias=0.7,
            description="mail traffic with a bounded live set (capacity decay, oldest first)",
        ),
        TemporalWorkloadSpec(
            name="stackoverflow-burst",
            events_factor=1.0,
            window=15.0,
            hub_fraction=0.02,
            hub_bias=0.8,
            description="hot-question bursts: short window, heavy hub skew, fast churn",
        ),
        TemporalWorkloadSpec(
            name="citation-growth",
            events_factor=1.0,
            window=None,
            max_live=None,
            gc_isolated=False,
            hub_bias=0.4,
            description="append-only citation growth (no deletions; the graph only accretes)",
        ),
    )
}


def temporal_workload_names() -> Tuple[str, ...]:
    """Names accepted by :func:`load_temporal_workload`."""
    return tuple(TEMPORAL_WORKLOADS)


def load_temporal_workload(
    profile, name: str, *, num_events: Optional[int] = None
) -> Tuple[DynamicGraph, TemporalUpdateStream]:
    """Build a catalog temporal workload at the profile's scale.

    Returns ``(initial graph, stream)`` ready for
    :func:`~repro.experiments.runner.run_algorithm` /
    :func:`~repro.experiments.runner.run_competition`: the initial graph is
    empty (a temporal replay builds its graph from the stream) and the
    stream replays ``num_events`` timestamped interactions (default: the
    profile's small update count times the spec's ``events_factor``) through
    the spec's retention policy.
    """
    profile = get_profile(profile)
    try:
        spec = TEMPORAL_WORKLOADS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown temporal workload {name!r}; known: {sorted(TEMPORAL_WORKLOADS)}"
        ) from None
    if num_events is None:
        num_events = max(1, int(profile.updates_small * spec.events_factor))
    seed = profile.seed + sum(ord(c) for c in name)
    events = synthetic_temporal_events(
        num_events,
        num_vertices=profile.easy_vertices,
        seed=seed,
        hub_fraction=spec.hub_fraction,
        hub_bias=spec.hub_bias,
    )
    stream = temporal_update_stream(
        events,
        window=spec.window,
        max_live=spec.max_live,
        gc_isolated=spec.gc_isolated,
        description=name,
        # Passed at construction: poking stream.metadata afterwards would
        # force an eager summary pass over the lazy stream.
        extra_metadata={"workload": name, "profile": profile.name},
    )
    return DynamicGraph(), stream
