"""Star-shaped resolution graphs and exact log discrepancies.

The graph of a cone surface singularity has one central curve (the vertex
blow-up divisor) with Hirzebruch-Jung chains attached.  Log discrepancies
solve the adjunction system
    sum_j (a_j - 1) (E_j . E_i) = -2 - E_i^2     for every i,
valid because every exceptional curve here is rational.  The graph is a
tree, so the system is solved by elimination from the leaves towards the
central node in O(n), and the answer is re-checked exactly node by node.
For an lc germ the minimum over the graph is its minimal log discrepancy.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import SeifertData
from .errors import NotContractible
from .rationals import hj_expand, lcm_of_denominators
# Unused here; benchmarks/selftest/test_benchmark.py looks it up on this module.
from .rationals import solve_linear  # noqa: F401


@dataclass(frozen=True)
class GraphNode:
    self_intersection: int
    is_central: bool = False

    def __post_init__(self):
        if self.self_intersection > -1:
            raise ValueError(
                f"self-intersection must be <= -1, got {self.self_intersection}"
            )


class DualGraph:
    """Star-shaped dual graph: one central node, chains hanging off it."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes, edges):
        self.nodes: tuple[GraphNode, ...] = tuple(nodes)
        normalized = set()
        for i, j in edges:
            if i == j:
                raise ValueError("self-loop")
            if not (0 <= i < len(self.nodes) and 0 <= j < len(self.nodes)):
                raise ValueError(f"edge ({i}, {j}) out of range")
            normalized.add((min(i, j), max(i, j)))
        self.edges: frozenset[tuple[int, int]] = frozenset(normalized)
        self._validate()

    def _validate(self):
        n = len(self.nodes)
        centrals = [i for i, node in enumerate(self.nodes) if node.is_central]
        if len(centrals) != 1:
            raise ValueError(f"need exactly one central node, got {len(centrals)}")
        if len(self.edges) != n - 1:
            raise ValueError("graph must be a tree")
        # connectivity, and degree <= 2 away from the center
        adjacency = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        if len(seen) != n:
            raise ValueError("graph must be connected")
        for i in range(n):
            if not self.nodes[i].is_central and len(adjacency[i]) > 2:
                raise ValueError(f"non-central node {i} has degree {len(adjacency[i])}")

    def adjacency(self) -> list[set[int]]:
        adjacency: list[set[int]] = [set() for _ in self.nodes]
        for i, j in self.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        return adjacency

    @property
    def central_index(self) -> int:
        return next(i for i, node in enumerate(self.nodes) if node.is_central)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DualGraph)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        ints = [node.self_intersection for node in self.nodes]
        return f"DualGraph({ints}, central={self.central_index}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact log discrepancies of a graph, their minimum, and the induced
    klt flag and canonical (Gorenstein) index.

    ``mld`` is the minimum over the graph.  It is the mld of the germ only
    when the germ is lc (``mld >= 0``); otherwise the mld is -infinity.
    """

    log_discrepancies: tuple[Fraction, ...]
    mld: Fraction
    is_klt: bool
    canonical_index: int


def build_graph(seifert: SeifertData) -> DualGraph:
    """Star-shaped graph of Seifert data: central node -b, one
    Hirzebruch-Jung chain per branch attached at its first node."""
    nodes = [GraphNode(-seifert.b, is_central=True)]
    edges = []
    for alpha, beta in seifert.branches:
        previous = 0
        for c in hj_expand(alpha, beta):
            nodes.append(GraphNode(-c))
            edges.append((previous, len(nodes) - 1))
            previous = len(nodes) - 1
    return DualGraph(nodes, edges)


def discrepancies(graph: DualGraph) -> DiscrepancyReport:
    """Solve the adjunction system exactly and report mld, klt status and
    the lcm of the discrepancy denominators (the canonical index, by the
    numerical Q-Cartier criterion valid for these rational singularities).

    With x_i = a_i - 1 the system reads E_i^2 x_i + sum_{j ~ i} x_j = r_i,
    r_i = -2 - E_i^2.  Leaves are eliminated towards the central node by the
    Schur updates d_p -= 1/d_v, r_p -= r_v/d_v, then x_v = (r_v - x_p)/d_v
    going back down.  The d_v are the pivots of an LDL^T elimination, so
    the matrix is negative definite iff every one of them is negative.
    """
    adjacency = graph.adjacency()
    root = graph.central_index
    parent = {root: None}
    order = [root]  # breadth first: every parent before its children
    for v in order:
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    squares = [node.self_intersection for node in graph.nodes]
    d = [Fraction(e) for e in squares]
    r = [Fraction(-2 - e) for e in squares]
    for v in reversed(order):
        if d[v] >= 0:
            raise NotContractible("intersection matrix is not negative definite")
        p = parent[v]
        if p is not None:
            d[p] -= 1 / d[v]
            r[p] -= r[v] / d[v]
    x = [Fraction(0)] * len(d)
    x[root] = r[root] / d[root]
    for v in order[1:]:
        x[v] = (r[v] - x[parent[v]]) / d[v]
    for i, e in enumerate(squares):
        if e * x[i] + sum(x[j] for j in adjacency[i]) != -2 - e:
            raise RuntimeError("exact solve verification failed")
    log_discrepancies = tuple(1 + value for value in x)
    mld = min(log_discrepancies)
    return DiscrepancyReport(
        log_discrepancies=log_discrepancies,
        mld=mld,
        is_klt=all(a > 0 for a in log_discrepancies),
        canonical_index=lcm_of_denominators(log_discrepancies),
    )


def central_log_discrepancy(graph: DualGraph) -> Fraction:
    return discrepancies(graph).log_discrepancies[graph.central_index]
