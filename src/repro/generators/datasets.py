"""Synthetic stand-ins for the 22 real graphs of Table I.

The paper evaluates on SNAP / Laboratory-for-Web-Algorithmics graphs ranging
from 75 k vertices (Epinions) to 109 M vertices and 3.4 B edges (uk-2007).
Those datasets are not redistributable inside this repository and are far
beyond what a pure-Python prototype can stream, so each named dataset is
replaced by a *scaled synthetic stand-in*:

* the number of vertices is scaled down (the scale factor is recorded),
* the average degree of the original is preserved,
* the degree distribution is power-law with an exponent chosen per dataset
  (web graphs are given heavier tails than communication graphs),

which preserves the properties the algorithms are sensitive to — density,
skew, and the easy/hard classification — while keeping every experiment
runnable on a laptop.  See DESIGN.md §3 for the substitution rationale.

Every dataset is generated deterministically from its name, so experiments
are reproducible without shipping any graph files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import DatasetError
from repro.generators.power_law import power_law_degree_sequence, erased_configuration_model
from repro.graphs.dynamic_graph import DynamicGraph

#: Default number of vertices used for easy stand-ins.
DEFAULT_EASY_SCALE = 3000
#: Default number of vertices used for hard stand-ins (denser / heavier graphs).
DEFAULT_HARD_SCALE = 4000


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one Table I dataset and its synthetic stand-in.

    Attributes
    ----------
    name:
        Dataset name as it appears in the paper.
    paper_vertices, paper_edges, paper_average_degree:
        The statistics reported in Table I.
    category:
        ``"easy"`` when VCSolver solved the instance within five hours in the
        paper, ``"hard"`` otherwise.
    beta:
        Power-law exponent used for the synthetic degree sequence.
    scaled_vertices:
        Number of vertices in the stand-in.
    """

    name: str
    paper_vertices: int
    paper_edges: int
    paper_average_degree: float
    category: str
    beta: float
    scaled_vertices: int

    @property
    def seed(self) -> int:
        """Deterministic seed derived from the dataset name."""
        return sum(ord(c) * (i + 1) for i, c in enumerate(self.name)) % (2**31)


def _spec(name, n, m, category, beta, scaled=None) -> DatasetSpec:
    avg = 2.0 * m / n
    if scaled is None:
        scaled = DEFAULT_EASY_SCALE if category == "easy" else DEFAULT_HARD_SCALE
    return DatasetSpec(
        name=name,
        paper_vertices=n,
        paper_edges=m,
        paper_average_degree=round(avg, 2),
        category=category,
        beta=beta,
        scaled_vertices=scaled,
    )


#: The 22 datasets of Table I in paper order.  The first thirteen are "easy"
#: (exactly solvable by VCSolver within five hours), the last nine "hard".
TABLE1_DATASETS: List[DatasetSpec] = [
    _spec("Epinions", 75_879, 405_740, "easy", 2.1),
    _spec("Slashdot", 82_168, 504_230, "easy", 2.1),
    _spec("Email", 265_214, 364_481, "easy", 2.6),
    _spec("com-dblp", 317_080, 1_049_866, "easy", 2.4),
    _spec("com-amazon", 334_863, 925_872, "easy", 2.5),
    _spec("web-Google", 875_713, 4_322_051, "easy", 2.2),
    _spec("web-BerkStan", 685_230, 6_649_470, "easy", 2.0),
    _spec("in-2004", 1_382_870, 13_591_473, "easy", 2.0),
    _spec("as-skitter", 1_696_415, 11_095_298, "easy", 2.1),
    _spec("hollywood", 1_985_306, 114_492_816, "easy", 1.9),
    _spec("WikiTalk", 2_394_385, 4_659_565, "easy", 2.5),
    _spec("com-lj", 3_997_962, 34_681_189, "easy", 2.1),
    _spec("soc-LiveJournal", 4_847_571, 42_851_237, "easy", 2.1),
    _spec("soc-pokec", 1_632_803, 22_301_964, "hard", 2.0),
    _spec("wiki-topcats", 1_791_489, 25_444_207, "hard", 2.0),
    _spec("com-orkut", 3_072_441, 117_185_083, "hard", 1.9),
    _spec("cit-Patents", 3_774_768, 16_518_947, "hard", 2.2),
    _spec("uk-2005", 39_454_746, 783_027_125, "hard", 1.9),
    _spec("it-2004", 41_290_682, 1_027_474_947, "hard", 1.9),
    _spec("twitter-2010", 41_652_230, 1_468_365_182, "hard", 1.9),
    _spec("Friendster", 65_608_366, 1_806_067_135, "hard", 1.9),
    _spec("uk-2007", 109_499_800, 3_448_528_200, "hard", 1.9),
]

_SPEC_BY_NAME: Dict[str, DatasetSpec] = {spec.name.lower(): spec for spec in TABLE1_DATASETS}

#: Datasets used in Table III / Fig 5(c): the last seven easy graphs.
LAST_SEVEN_EASY = [spec.name for spec in TABLE1_DATASETS[6:13]]


def dataset_names(category: Optional[str] = None) -> List[str]:
    """Return dataset names, optionally filtered to ``"easy"`` or ``"hard"``."""
    if category is None:
        return [spec.name for spec in TABLE1_DATASETS]
    if category not in ("easy", "hard"):
        raise DatasetError(f"unknown dataset category {category!r}")
    return [spec.name for spec in TABLE1_DATASETS if spec.category == category]


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up the :class:`DatasetSpec` for ``name`` (case-insensitive)."""
    try:
        return _SPEC_BY_NAME[name.lower()]
    except KeyError:
        raise DatasetError(f"unknown dataset {name!r}; known: {dataset_names()}") from None


def _degree_cap(spec: DatasetSpec) -> int:
    # Heavy-tailed web/social graphs get a higher degree ceiling.
    return max(8, int(math.sqrt(spec.scaled_vertices) * (2.2 - min(spec.beta, 2.1))) * 4)


def load_dataset(
    name: str,
    *,
    scaled_vertices: Optional[int] = None,
    seed: Optional[int] = None,
) -> DynamicGraph:
    """Materialise the synthetic stand-in graph for dataset ``name``.

    The generated graph matches the original's average degree (up to sampling
    noise) with a power-law degree distribution of exponent ``spec.beta``.

    Parameters
    ----------
    scaled_vertices:
        Override the registry's default stand-in size.
    seed:
        Override the deterministic per-dataset seed.
    """
    spec = get_dataset_spec(name)
    n = scaled_vertices if scaled_vertices is not None else spec.scaled_vertices
    rng_seed = spec.seed if seed is None else seed
    target_avg = spec.paper_average_degree
    degrees = _degree_sequence_matching_average(
        n, spec.beta, target_avg, max_degree=_degree_cap(spec), seed=rng_seed
    )
    return erased_configuration_model(degrees, seed=rng_seed + 1)


def _degree_sequence_matching_average(
    num_vertices: int,
    beta: float,
    target_average: float,
    *,
    max_degree: int,
    seed: int,
) -> List[int]:
    """Sample a power-law degree sequence, then rescale it to hit a target mean.

    A raw power-law sample with exponent ``beta`` has some mean ``mu``; we
    multiply every degree by ``target_average / mu`` (clamping to
    ``[1, max_degree]``) so the stand-in's density matches the original graph.
    """
    base = power_law_degree_sequence(
        num_vertices, beta, min_degree=1, max_degree=max_degree, seed=seed
    )
    if not base:
        return base
    mean = sum(base) / len(base)
    factor = target_average / mean if mean > 0 else 1.0
    rng = random.Random(seed + 7)
    scaled: List[int] = []
    for d in base:
        value = d * factor
        floor = int(value)
        # Randomised rounding keeps the expected mean exact.
        if rng.random() < (value - floor):
            floor += 1
        scaled.append(max(1, min(max_degree, floor)))
    if sum(scaled) % 2 == 1:
        scaled[-1] += 1
    return scaled
