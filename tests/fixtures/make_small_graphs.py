"""Write ``small_graphs.txt``: every graph with 1 to 6 vertices, up to isomorphism.

The graphs come from the atlas of all graphs with up to seven vertices in
networkx (``networkx.graph_atlas_g()``, after Read and Wilson, *An Atlas of
Graphs*).  networkx is needed only to rewrite the fixture, not by the
tests::

    python tests/fixtures/make_small_graphs.py

Each line is one graph: its vertex count, then its edges as ``u-v`` with
``u < v`` over the vertices ``0 .. n-1``.  Lines starting with ``#`` are
comments.
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx

MAX_VERTICES = 6
#: Graphs on n unlabelled vertices (OEIS A000088), n = 1 .. 6.
EXPECTED = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def main() -> None:
    graphs = [g for g in nx.graph_atlas_g() if 1 <= len(g) <= MAX_VERTICES]
    counts = {n: sum(1 for g in graphs if len(g) == n) for n in EXPECTED}
    assert counts == EXPECTED, counts
    lines = [
        f"# The {len(graphs)} graphs with 1 to {MAX_VERTICES} vertices, one per "
        "isomorphism class,",
        "# in the order of networkx.graph_atlas_g(); written by make_small_graphs.py.",
        "# <vertices> <u-v> ...",
    ]
    for graph in graphs:
        edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
        lines.append(" ".join([str(len(graph))] + [f"{u}-{v}" for u, v in edges]))
    path = Path(__file__).with_name("small_graphs.txt")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(graphs)} graphs to {path}")


if __name__ == "__main__":
    main()
