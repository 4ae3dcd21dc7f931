"""Exact maximum independent set solver (branch-and-reduce).

The paper uses VCSolver (Akiba & Iwata's branch-and-reduce vertex-cover /
independent-set code) to obtain the independence number α(G) of the "easy"
instances, against which the gap and accuracy columns of Tables II and III
are computed.  VCSolver is a large C++ code base; this module provides a
Python branch-and-reduce solver from the same algorithmic family:

* exhaustive low-degree kernelisation — isolated vertices, pendant vertices,
  degree-two paths (triangle elimination and two-neighbour branching) are
  handled without binary branching,
* connected-component decomposition,
* branching on a maximum-degree vertex of the kernel,
* pruning with a greedy clique-cover upper bound against the best solution
  found so far,
* all of it on a single mutable adjacency structure with an undo stack, so no
  graph copies are made inside the search.

It is exact, and fast enough for the scaled-down instances used by this
reproduction.  A configurable node budget turns it into an anytime solver
that raises :class:`~repro.exceptions.SolverTimeoutError` when exceeded (the
analogue of the paper's five-hour limit that defines the easy/hard split);
the best solution found so far is attached to the exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.greedy import min_degree_greedy
from repro.core.verification import is_independent_set
from repro.exceptions import SolverTimeoutError
from repro.graphs.dynamic_graph import DynamicGraph, Vertex


@dataclass
class SolverReport:
    """Result of an exact solve: the optimum set plus search statistics."""

    solution: Set[Vertex]
    branch_nodes: int
    reduced_vertices: int

    @property
    def independence_number(self) -> int:
        """Size of the returned maximum independent set."""
        return len(self.solution)


class _Budget:
    """Shared branching-node counter with an optional hard limit."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: Optional[int]) -> None:
        self.nodes = 0
        self.limit = limit

    def charge(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise _BudgetExceeded()


class _BudgetExceeded(Exception):
    """Internal control-flow exception raised when the node budget runs out."""


class _Workspace:
    """Mutable adjacency structure with an undo stack for the search."""

    __slots__ = ("adjacency", "order", "_undo")

    def __init__(self, graph: DynamicGraph, vertices: Set[Vertex]) -> None:
        self.adjacency: Dict[Vertex, Set[Vertex]] = {
            v: graph.neighbors(v) & vertices for v in vertices
        }
        # Interned insertion indices: O(1) deterministic tie-breaks for the
        # kernelisation/branching orders (no per-comparison string building).
        self.order: Dict[Vertex, int] = {v: graph.order_of(v) for v in vertices}
        self._undo: List[Tuple[Vertex, Set[Vertex]]] = []

    def __len__(self) -> int:
        return len(self.adjacency)

    def degree(self, vertex: Vertex) -> int:
        return len(self.adjacency[vertex])

    def remove(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and record how to restore it."""
        neighbors = self.adjacency.pop(vertex)
        for u in neighbors:
            self.adjacency[u].discard(vertex)
        self._undo.append((vertex, neighbors))

    def checkpoint(self) -> int:
        return len(self._undo)

    def rollback(self, checkpoint: int) -> None:
        """Restore every vertex removed since ``checkpoint`` (in reverse order)."""
        while len(self._undo) > checkpoint:
            vertex, neighbors = self._undo.pop()
            self.adjacency[vertex] = neighbors
            for u in neighbors:
                if u in self.adjacency:
                    self.adjacency[u].add(vertex)

    def clique_cover_bound(self) -> int:
        """Greedy clique-cover upper bound on α of the current subgraph."""
        adjacency = self.adjacency
        unassigned = set(adjacency)
        order = sorted(unassigned, key=lambda v: -len(adjacency[v]))
        cliques = 0
        for v in order:
            if v not in unassigned:
                continue
            unassigned.discard(v)
            clique = [v]
            for u in sorted(adjacency[v] & unassigned, key=lambda w: -len(adjacency[w])):
                if u in unassigned and all(u in adjacency[w] for w in clique):
                    clique.append(u)
                    unassigned.discard(u)
            cliques += 1
        return cliques


class BranchAndReduceSolver:
    """Exact MaxIS solver in the VCSolver family (reduce, decompose, branch, bound).

    Parameters
    ----------
    node_budget:
        Maximum number of branching nodes across the whole solve before
        giving up with :class:`SolverTimeoutError`.  ``None`` means unlimited.
    """

    def __init__(self, *, node_budget: Optional[int] = 500_000) -> None:
        self.node_budget = node_budget

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, graph: DynamicGraph) -> SolverReport:
        """Compute a maximum independent set of ``graph``.

        Raises
        ------
        SolverTimeoutError
            If the node budget is exhausted.  ``best_known`` carries the size
            of the best (greedy fallback) solution assembled so far.
        """
        budget = _Budget(self.node_budget)
        solution: Set[Vertex] = set()
        components = graph.connected_components()
        # The exclude-branch chain can be as deep as the kernel is large, so
        # the default recursion limit is raised for the duration of the solve.
        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10 * graph.num_vertices + 10_000))
        try:
            for component in sorted(components, key=len):
                solution |= self._solve_component(graph, component, budget)
        except _BudgetExceeded:
            fallback = min_degree_greedy(graph)
            raise SolverTimeoutError(
                f"branch-and-reduce node budget of {self.node_budget} exceeded",
                best_known=max(len(fallback), len(solution)),
            ) from None
        finally:
            sys.setrecursionlimit(old_limit)
        return SolverReport(
            solution=solution,
            branch_nodes=budget.nodes,
            reduced_vertices=graph.num_vertices - len(solution),
        )

    def independence_number(self, graph: DynamicGraph) -> int:
        """Convenience wrapper returning only α(G)."""
        return len(self.solve(graph).solution)

    # ------------------------------------------------------------------ #
    # Per-component search
    # ------------------------------------------------------------------ #
    def _solve_component(
        self, graph: DynamicGraph, component: Set[Vertex], budget: _Budget
    ) -> Set[Vertex]:
        workspace = _Workspace(graph, component)
        incumbent = self._greedy_on_workspace(workspace)
        best: List[Set[Vertex]] = [incumbent]
        found = self._search(workspace, set(), best, budget)
        return max(found, best[0], key=len)

    def _search(
        self,
        workspace: _Workspace,
        chosen: Set[Vertex],
        best: List[Set[Vertex]],
        budget: _Budget,
    ) -> Set[Vertex]:
        """Return the best extension of ``chosen`` over the current workspace."""
        budget.charge()
        checkpoint = workspace.checkpoint()
        local_chosen: Set[Vertex] = set()
        order = workspace.order
        # --- kernelisation: repeatedly eliminate vertices of degree <= 2 ---
        try:
            while True:
                adjacency = workspace.adjacency
                if not adjacency:
                    break
                vertex = min(adjacency, key=lambda v: (len(adjacency[v]), order[v]))
                degree = len(adjacency[vertex])
                if degree == 0:
                    local_chosen.add(vertex)
                    workspace.remove(vertex)
                elif degree == 1:
                    (neighbor,) = tuple(adjacency[vertex])
                    local_chosen.add(vertex)
                    workspace.remove(neighbor)
                    workspace.remove(vertex)
                elif degree == 2:
                    a, b = tuple(adjacency[vertex])
                    if b in adjacency[a]:
                        # Triangle: taking the degree-two vertex is optimal.
                        local_chosen.add(vertex)
                        workspace.remove(a)
                        workspace.remove(b)
                        workspace.remove(vertex)
                    else:
                        # Two-way branch: either the vertex is in the MaxIS,
                        # or both of its neighbours are.
                        result = self._branch_degree_two(
                            workspace, vertex, a, b, chosen | local_chosen, best, budget
                        )
                        return self._finish(workspace, checkpoint, local_chosen | result)
                else:
                    break
            if not workspace.adjacency:
                return self._finish(workspace, checkpoint, local_chosen)
            # --- bound ---
            current = chosen | local_chosen
            if len(current) + workspace.clique_cover_bound() <= len(best[0]):
                return self._finish(workspace, checkpoint, local_chosen)
            # --- branch on a maximum-degree vertex ---
            adjacency = workspace.adjacency
            pivot = max(adjacency, key=lambda v: (len(adjacency[v]), order[v]))
            result = self._branch_pivot(workspace, pivot, current, best, budget)
            return self._finish(workspace, checkpoint, local_chosen | result)
        except _BudgetExceeded:
            workspace.rollback(checkpoint)
            raise

    def _branch_degree_two(
        self,
        workspace: _Workspace,
        vertex: Vertex,
        a: Vertex,
        b: Vertex,
        current: Set[Vertex],
        best: List[Set[Vertex]],
        budget: _Budget,
    ) -> Set[Vertex]:
        adjacency = workspace.adjacency
        # Branch 1: take the degree-two vertex.
        checkpoint = workspace.checkpoint()
        workspace.remove(a)
        workspace.remove(b)
        workspace.remove(vertex)
        take_vertex = {vertex} | self._search(workspace, current | {vertex}, best, budget)
        self._update_best(best, current | take_vertex)
        workspace.rollback(checkpoint)
        # Branch 2: take both neighbours (they are non-adjacent).
        checkpoint = workspace.checkpoint()
        to_remove = (adjacency[a] | adjacency[b] | {a, b}) - {vertex}
        for w in to_remove:
            if w in workspace.adjacency:
                workspace.remove(w)
        if vertex in workspace.adjacency:
            workspace.remove(vertex)
        take_neighbors = {a, b} | self._search(workspace, current | {a, b}, best, budget)
        self._update_best(best, current | take_neighbors)
        workspace.rollback(checkpoint)
        return max(take_vertex, take_neighbors, key=len)

    def _branch_pivot(
        self,
        workspace: _Workspace,
        pivot: Vertex,
        current: Set[Vertex],
        best: List[Set[Vertex]],
        budget: _Budget,
    ) -> Set[Vertex]:
        adjacency = workspace.adjacency
        # Branch 1: include the pivot — its closed neighbourhood disappears.
        checkpoint = workspace.checkpoint()
        for w in list(adjacency[pivot]):
            workspace.remove(w)
        workspace.remove(pivot)
        include = {pivot} | self._search(workspace, current | {pivot}, best, budget)
        self._update_best(best, current | include)
        workspace.rollback(checkpoint)
        # Branch 2: exclude the pivot.
        checkpoint = workspace.checkpoint()
        workspace.remove(pivot)
        exclude = self._search(workspace, current, best, budget)
        self._update_best(best, current | exclude)
        workspace.rollback(checkpoint)
        return max(include, exclude, key=len)

    @staticmethod
    def _finish(
        workspace: _Workspace, checkpoint: int, result: Set[Vertex]
    ) -> Set[Vertex]:
        workspace.rollback(checkpoint)
        return result

    @staticmethod
    def _update_best(best: List[Set[Vertex]], candidate: Set[Vertex]) -> None:
        if len(candidate) > len(best[0]):
            best[0] = set(candidate)

    @staticmethod
    def _greedy_on_workspace(workspace: _Workspace) -> Set[Vertex]:
        """Minimum-degree greedy incumbent computed directly on the workspace."""
        adjacency = {v: set(nbrs) for v, nbrs in workspace.adjacency.items()}
        order = workspace.order
        solution: Set[Vertex] = set()
        remaining = set(adjacency)
        while remaining:
            vertex = min(remaining, key=lambda v: (len(adjacency[v] & remaining), order[v]))
            solution.add(vertex)
            remaining.discard(vertex)
            remaining -= adjacency[vertex]
        return solution


def clique_cover_bound(graph: DynamicGraph) -> int:
    """Upper bound on α(G): the size of a greedy clique cover.

    Every independent set picks at most one vertex per clique of a clique
    cover, so the number of cliques bounds α from above.
    """
    workspace = _Workspace(graph, set(graph.vertices()))
    return workspace.clique_cover_bound()


def exact_independence_number(
    graph: DynamicGraph, *, node_budget: Optional[int] = 500_000
) -> int:
    """One-shot helper: α(G) via :class:`BranchAndReduceSolver`."""
    return BranchAndReduceSolver(node_budget=node_budget).independence_number(graph)


def brute_force_maximum_independent_set(graph: DynamicGraph) -> Set[Vertex]:
    """Exponential brute force over all subsets — only for tiny test graphs (n <= 20)."""
    vertices = list(graph.vertices())
    if len(vertices) > 20:
        raise ValueError("brute force is limited to graphs with at most 20 vertices")
    best: Set[Vertex] = set()
    n = len(vertices)
    for mask in range(1 << n):
        subset = {vertices[i] for i in range(n) if mask >> i & 1}
        if len(subset) > len(best) and is_independent_set(graph, subset):
            best = subset
    return best
