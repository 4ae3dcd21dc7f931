"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import pytest

from repro.generators.power_law import power_law_random_graph
from repro.generators.random_graphs import erdos_renyi_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.streams import mixed_update_stream


class _ErrorRecords(logging.Handler):
    """Keep every ERROR-or-worse record emitted while installed."""

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def fail_on_asyncio_errors():
    """Fail the test during which the ``asyncio`` logger recorded an ERROR.

    asyncio logs, rather than raises, an exception that escapes a
    connection handler ("Unhandled exception in client_connected_cb"), and
    the client only sees its connection close.  Logging handlers are
    process-wide, so this also covers a gateway running in another thread.
    """
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged an error during the test:\n"
            + "\n".join(handler.format(record) for record in handler.records),
            pytrace=False,
        )


@pytest.fixture
def path_graph() -> DynamicGraph:
    """A path on five vertices: 0 - 1 - 2 - 3 - 4 (α = 3)."""
    return DynamicGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def cycle_graph() -> DynamicGraph:
    """A cycle on six vertices (α = 3)."""
    return DynamicGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


@pytest.fixture
def star_graph() -> DynamicGraph:
    """A star with centre 0 and six leaves (α = 6)."""
    return DynamicGraph(edges=[(0, leaf) for leaf in range(1, 7)])


@pytest.fixture
def triangle_with_pendant() -> DynamicGraph:
    """A triangle 0-1-2 with a pendant vertex 3 attached to 0 (α = 2)."""
    return DynamicGraph(edges=[(0, 1), (1, 2), (2, 0), (0, 3)])


@pytest.fixture
def small_random_graph() -> DynamicGraph:
    """A fixed-seed Erdős–Rényi graph used by several behavioural tests."""
    return erdos_renyi_graph(60, 0.08, seed=7)


@pytest.fixture
def small_power_law_graph() -> DynamicGraph:
    """A fixed-seed power-law graph (β = 2.3) used by several behavioural tests."""
    return power_law_random_graph(80, 2.3, seed=11)


@pytest.fixture
def small_update_stream(small_random_graph):
    """A mixed update stream over the small random graph."""
    return mixed_update_stream(small_random_graph, 250, seed=3, edge_fraction=0.7)
