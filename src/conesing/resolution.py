"""Star-shaped resolution graphs and exact log discrepancies.

The graph of a cone surface singularity has one central curve (the vertex
blow-up divisor) with Hirzebruch-Jung chains attached.  Log discrepancies
solve the adjunction system
    sum_j (a_j - 1) (E_j . E_i) = -2 - E_i^2     for every i,
valid because every exceptional curve here is rational.  It has a closed
form in the Seifert integers (b; (alpha_i, beta_i)) of the star: the graph
is contractible iff deg = b - sum beta_i/alpha_i > 0 (Orlik-Wagreich), the
central curve has a_0 = (2 - sum (1 - 1/alpha_i)) / deg, and each chain
follows from a_0 by a forward recurrence that must end at 1, an exact
self-check.  For an lc germ the minimum over the graph is its minimal log
discrepancy.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .divisors import SeifertData
from .errors import NotContractible, number_text, refuse_above
from .rationals import hj_expand, hj_length
# Unused here; benchmarks/selftest/test_benchmark.py looks it up on this module.
from .rationals import solve_linear  # noqa: F401

# Most nodes build_graph expands; a larger graph is refused before any chain
# is built.  inf:1/100000 has 100000 nodes.  The run-length mld path of
# ROADMAP item 6 would answer mld at any chain length without the node list;
# until then mld shares this cap with resolve.
MAX_GRAPH_NODES = 200_000


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
        if self.b < 1:
            raise ValueError(f"need b >= 1, got {number_text(self.b)}")
        if any(c < 2 for chain in self.chains for c in chain):
            least = min(c for chain in self.chains for c in chain)
            raise ValueError(f"need every c >= 2, got {number_text(least)}")

    @property
    def nodes(self) -> tuple[int, ...]:
        """Self-intersections, in node order."""
        return (-self.b, *(-c for chain in self.chains for c in chain))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with i < j, in sorted order: E_0 to the first curve
        of each chain, then the links along each chain in node order."""
        starts = tuple(accumulate(map(len, self.chains), initial=1))
        spans = tuple(zip(starts, starts[1:]))
        return (
            *((0, start) for start, end in spans if start < end),
            *((i, i + 1) for start, end in spans for i in range(start, end - 1)),
        )


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
    Hirzebruch-Jung chain per branch.

    Raises DomainError when the graph would have more than MAX_GRAPH_NODES
    nodes, counted from the integers before any chain is expanded.
    """
    nodes = 1 + sum(hj_length(alpha, beta) for alpha, beta in seifert.branches)
    refuse_above(nodes, MAX_GRAPH_NODES, "resolution graph has", "nodes")
    return DualGraph(
        seifert.b,
        tuple(tuple(hj_expand(alpha, beta)) for alpha, beta in seifert.branches),
    )


def discrepancies(graph: DualGraph) -> DiscrepancyReport:
    """Solve the adjunction system exactly and report mld, klt status and
    the lcm of the discrepancy denominators (the canonical index, by the
    numerical Q-Cartier criterion valid for these rational singularities).

    Each chain c_1, ..., c_L is the Hirzebruch-Jung expansion of some
    alpha/beta, recovered from the far end by (alpha, beta) <- (c*alpha -
    beta, alpha).  The graph is negative definite iff deg = b - sum
    beta/alpha > 0 (Orlik-Wagreich); otherwise NotContractible.  The central
    curve has a_0 = (2 - sum (1 - 1/alpha)) / deg, the first curve of a chain
    a_1 = (beta a_0 + 1) / alpha, and the adjunction equation of curve k is
    the recurrence a_{k+1} = c_k a_k - a_{k-1}.  Past the far end the value
    must be a_{L+1} = 1; that end value is checked exactly.

    Everything is integer arithmetic: deg and the numerator of a_0 are taken
    over A = lcm alpha, each chain runs over alpha den(a_0), and the minimum
    is tracked by cross-multiplying.  One Fraction is built per node.  The
    c's are integers, so every a_k of a chain lies in Z a_0 + Z a_1, and the
    canonical index is the lcm of den(a_0) and each chain's den(a_1).
    """
    branches = []
    for chain in graph.chains:
        alpha, beta = 1, 0
        for c in reversed(chain):
            alpha, beta = c * alpha - beta, alpha
        branches.append((alpha, beta))
    common = lcm(*(alpha for alpha, _ in branches))
    degree = graph.b * common - sum(beta * (common // alpha) for alpha, beta in branches)
    if degree <= 0:
        raise NotContractible("intersection matrix is not negative definite")
    room = (2 - len(branches)) * common + sum(common // alpha for alpha, _ in branches)
    central = Fraction(room, degree)
    numerator, base = central.numerator, central.denominator
    log_discrepancies = [central]
    # the running minimum low_num / low_den, low_den > 0, and its node
    low_num, low_den, low = numerator, base, 0
    canonical_index = base
    for chain, (alpha, beta) in zip(graph.chains, branches):
        # numerators over the common denominator of a_0 and a_1
        denominator = alpha * base
        previous = alpha * numerator
        current = beta * numerator + base
        canonical_index = lcm(canonical_index, denominator // gcd(current, denominator))
        for c in chain:
            if current * low_den < low_num * denominator:
                low_num, low_den, low = current, denominator, len(log_discrepancies)
            log_discrepancies.append(Fraction(current, denominator))
            previous, current = current, c * current - previous
        if current != denominator:
            raise RuntimeError("exact solve verification failed")
    return DiscrepancyReport(
        log_discrepancies=tuple(log_discrepancies),
        mld=log_discrepancies[low],
        is_klt=low_num > 0,
        canonical_index=canonical_index,
    )
