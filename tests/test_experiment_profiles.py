"""Tests for experiment profiles and dataset/stream helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.datasets import (
    FULL_PROFILE,
    QUICK_PROFILE,
    STANDARD_PROFILE,
    build_update_stream,
    dataset_and_stream,
    get_profile,
    load_profile_dataset,
)


class TestProfiles:
    def test_builtin_profiles_registered(self):
        for name in ("quick", "standard", "full"):
            assert get_profile(name).name == name

    def test_get_profile_by_name(self):
        assert get_profile("quick") is QUICK_PROFILE
        assert get_profile("standard") is STANDARD_PROFILE
        assert get_profile("full") is FULL_PROFILE

    def test_get_profile_passthrough(self):
        assert get_profile(QUICK_PROFILE) is QUICK_PROFILE

    def test_unknown_profile_raises(self):
        with pytest.raises(ExperimentError):
            get_profile("gigantic")

    def test_profiles_scale_monotonically(self):
        assert QUICK_PROFILE.easy_vertices < STANDARD_PROFILE.easy_vertices
        assert STANDARD_PROFILE.easy_vertices < FULL_PROFILE.easy_vertices
        assert QUICK_PROFILE.updates_small < QUICK_PROFILE.updates_large

    def test_standard_profile_covers_all_paper_datasets(self):
        assert len(STANDARD_PROFILE.easy_datasets) == 13
        assert len(STANDARD_PROFILE.hard_datasets) == 9

    def test_quick_profile_uses_subsets(self):
        assert set(QUICK_PROFILE.easy_datasets) <= set(STANDARD_PROFILE.easy_datasets)
        assert set(QUICK_PROFILE.hard_datasets) <= set(STANDARD_PROFILE.hard_datasets)


class TestDatasetHelpers:
    def test_load_profile_dataset_uses_profile_size(self):
        graph = load_profile_dataset(QUICK_PROFILE, "Email")
        assert graph.num_vertices == QUICK_PROFILE.easy_vertices
        hard = load_profile_dataset(QUICK_PROFILE, QUICK_PROFILE.hard_datasets[0])
        assert hard.num_vertices == QUICK_PROFILE.hard_vertices

    def test_build_update_stream_deterministic_per_dataset(self):
        graph = load_profile_dataset(QUICK_PROFILE, "Email")
        a = build_update_stream(QUICK_PROFILE, graph, 50, dataset="Email")
        b = build_update_stream(QUICK_PROFILE, graph, 50, dataset="Email")
        assert [str(op) for op in a] == [str(op) for op in b]

    def test_streams_differ_across_datasets(self):
        graph = load_profile_dataset(QUICK_PROFILE, "Email")
        a = build_update_stream(QUICK_PROFILE, graph, 50, dataset="Email")
        b = build_update_stream(QUICK_PROFILE, graph, 50, dataset="Epinions")
        assert [str(op) for op in a] != [str(op) for op in b]

    def test_dataset_and_stream_is_consistent(self):
        graph, stream = dataset_and_stream(QUICK_PROFILE, "Email", 40)
        assert len(stream) == 40
        working = graph.copy()
        stream.apply_all(working)
        working.check_consistency()
