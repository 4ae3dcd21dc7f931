"""Tests for the Table I synthetic dataset registry."""

from __future__ import annotations

import pytest

from repro.exceptions import DatasetError
from repro.generators.datasets import (
    LAST_SEVEN_EASY,
    TABLE1_DATASETS,
    dataset_names,
    get_dataset_spec,
    load_dataset,
)


class TestRegistry:
    def test_contains_all_22_paper_datasets(self):
        assert len(TABLE1_DATASETS) == 22
        assert len(dataset_names()) == 22

    def test_easy_hard_split_matches_paper(self):
        easy = dataset_names("easy")
        hard = dataset_names("hard")
        assert len(easy) == 13
        assert len(hard) == 9
        assert easy[0] == "Epinions"
        assert hard[0] == "soc-pokec"
        assert hard[-1] == "uk-2007"

    def test_last_seven_easy_matches_table3(self):
        assert LAST_SEVEN_EASY == [
            "web-BerkStan",
            "in-2004",
            "as-skitter",
            "hollywood",
            "WikiTalk",
            "com-lj",
            "soc-LiveJournal",
        ]

    def test_unknown_category_raises(self):
        with pytest.raises(DatasetError):
            dataset_names("medium")

    def test_lookup_is_case_insensitive(self):
        assert get_dataset_spec("epinions").name == "Epinions"
        assert get_dataset_spec("HOLLYWOOD").name == "hollywood"

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            get_dataset_spec("not-a-dataset")

    def test_paper_statistics_recorded(self):
        spec = get_dataset_spec("Epinions")
        assert spec.paper_vertices == 75_879
        assert spec.paper_edges == 405_740
        assert spec.paper_average_degree == pytest.approx(10.69, abs=0.01)

    def test_scale_factor_positive(self):
        for spec in TABLE1_DATASETS:
            assert spec.scale_factor > 1.0
            assert spec.seed >= 0


class TestLoading:
    def test_load_dataset_is_deterministic(self):
        a = load_dataset("Email", scaled_vertices=500)
        b = load_dataset("Email", scaled_vertices=500)
        assert a == b

    def test_load_dataset_respects_size_override(self):
        graph = load_dataset("Slashdot", scaled_vertices=321)
        assert graph.num_vertices == 321

    def test_load_dataset_average_degree_tracks_paper(self):
        # The stand-in preserves the paper's average degree up to sampling noise
        # and the erased-configuration-model loss.
        spec = get_dataset_spec("com-dblp")
        graph = load_dataset("com-dblp", scaled_vertices=1500)
        assert graph.average_degree() == pytest.approx(spec.paper_average_degree, rel=0.35)

    def test_sparser_datasets_have_lower_density(self):
        email = load_dataset("Email", scaled_vertices=800)
        epinions = load_dataset("Epinions", scaled_vertices=800)
        assert email.average_degree() < epinions.average_degree()

    def test_graphs_are_simple(self):
        graph = load_dataset("as-skitter", scaled_vertices=400)
        graph.check_consistency()
