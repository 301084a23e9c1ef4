"""Star-shaped resolution graphs and exact log discrepancies.

The graph of a cone surface singularity has one central curve (the vertex
blow-up divisor) with Hirzebruch-Jung chains attached.  Log discrepancies
solve the adjunction system
    sum_j (a_j - 1) (E_j . E_i) = -2 - E_i^2     for every i,
valid because every exceptional curve here is rational.  It is solved
chain by chain, eliminating each from its far end towards the central
curve in O(n), and the answer is re-checked exactly node by node.
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
class DualGraph:
    """Star-shaped dual graph: a central curve E_0 with E_0^2 = -b and one
    Hirzebruch-Jung chain per branch.  ``chains[k]`` lists the c's
    (E^2 = -c) of branch k, starting from the curve that meets E_0.

    Nodes are numbered E_0 first, then each chain in order.
    """

    b: int
    chains: tuple[tuple[int, ...], ...] = ()

    central_index = 0

    def __post_init__(self):
        if self.b < 1 or any(c < 2 for chain in self.chains for c in chain):
            raise ValueError(f"need b >= 1 and every c >= 2, got {self.b}, {self.chains}")

    @property
    def nodes(self) -> tuple[int, ...]:
        """Self-intersections, in node order."""
        return (-self.b, *(-c for chain in self.chains for c in chain))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        edges = set()
        start = 1
        for chain in self.chains:
            curves = range(start, start + len(chain))
            edges.update(zip((0, *curves), curves))
            start += len(chain)
        return frozenset(edges)


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
    """Star-shaped graph of Seifert data: central curve -b, one
    Hirzebruch-Jung chain per branch."""
    return DualGraph(
        seifert.b,
        tuple(tuple(hj_expand(alpha, beta)) for alpha, beta in seifert.branches),
    )


def discrepancies(graph: DualGraph) -> DiscrepancyReport:
    """Solve the adjunction system exactly and report mld, klt status and
    the lcm of the discrepancy denominators (the canonical index, by the
    numerical Q-Cartier criterion valid for these rational singularities).

    With x_i = a_i - 1 the system reads E_i^2 x_i + sum_{j ~ i} x_j = r_i,
    r_i = -2 - E_i^2.  Each chain is eliminated from its far end towards
    E_0 by d <- -c - 1/d, r <- c - 2 - r/d; E_0 is solved, and x = (r - x')/d
    is substituted back out along each chain, x' the neighbour nearer E_0.
    The d are the pivots of an LDL^T elimination, so the matrix is negative
    definite iff every one of them is negative.
    """
    b = graph.b
    d0, r0 = Fraction(-b), Fraction(b - 2)
    eliminated = []
    for chain in graph.chains:
        steps = []
        inverse = quotient = Fraction(0)  # 1/d and r/d of the curve just eliminated
        for c in reversed(chain):
            d = -c - inverse
            if d >= 0:
                raise NotContractible("intersection matrix is not negative definite")
            r = c - 2 - quotient
            inverse, quotient = 1 / d, r / d
            steps.append((d, r))
        d0 -= inverse
        r0 -= quotient
        eliminated.append(steps)
    if d0 >= 0:
        raise NotContractible("intersection matrix is not negative definite")
    x = [r0 / d0]
    central = -b * x[0]
    for chain, steps in zip(graph.chains, eliminated):
        arm = [x[0]]
        for d, r in reversed(steps):
            arm.append((r - arm[-1]) / d)
        arm.append(0)  # nothing beyond the far end
        for i, c in enumerate(chain, 1):
            if arm[i - 1] - c * arm[i] + arm[i + 1] != c - 2:
                raise RuntimeError("exact solve verification failed")
        central += arm[1]
        x.extend(arm[1:-1])
    if central != b - 2:
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
