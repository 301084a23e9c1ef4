"""Reference oracles the tests check the package against.

Each one reaches an answer of the package by another route: a right-to-left
continued-fraction evaluator for ``hj_expand``, an append-and-link builder
for the graph's node numbering, the dense intersection matrix for the tree
solve, a blow-up simulator and a toric lattice minimizer for the mld, and
the full box scan for the A_n plt blow-ups.  No command of the package
calls them, so they live with the tests.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from conesing.divisors import SeifertData
from conesing.errors import NotContractible
from conesing.rationals import RationalMatrix, hj_expand
from conesing.resolution import DualGraph, discrepancies


def continued_fraction_value(coeffs: Sequence[int]) -> Fraction:
    """Evaluate c_1 - 1/(c_2 - 1/(...)) exactly.

    Independent of hj_expand: evaluates right-to-left, used as its oracle.
    """
    if not coeffs:
        raise ValueError("empty continued fraction")
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        value = c - 1 / value
    return value


def star_graph(seifert: SeifertData) -> tuple[tuple[int, ...], frozenset[tuple[int, int]]]:
    """Self-intersections and edges of the resolution graph, built by
    appending each chain curve and linking it to the one before; an oracle
    for the node numbering that ``resolve`` and the dot files print."""
    nodes = [-seifert.b]
    edges = set()
    for alpha, beta in seifert.branches:
        previous = 0
        for c in hj_expand(alpha, beta):
            nodes.append(-c)
            edges.add((previous, len(nodes) - 1))
            previous = len(nodes) - 1
    return tuple(nodes), frozenset(edges)


def intersection_matrix(graph: DualGraph) -> RationalMatrix:
    """Dense intersection matrix; an oracle for the tree solve."""
    n = len(graph.nodes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, e in enumerate(graph.nodes):
        rows[i][i] = Fraction(e)
    for i, j in graph.edges:
        rows[i][j] = Fraction(1)
        rows[j][i] = Fraction(1)
    return RationalMatrix.from_rows(rows)


def mld_blowup_oracle(graph: DualGraph, rounds: int) -> Fraction:
    """Independent confirmation that the graph minimum is the true mld.

    Simulates every sequence of at most ``rounds`` blow-ups using only the
    combination rules: an edge blow-up creates a divisor with log
    discrepancy a_i + a_j, a free blow-up on a node creates a_i + 1.
    Returns the minimum value seen.  Only meaningful for klt graphs (for
    non-klt ones the infimum need not be attained), so those are rejected.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    base = discrepancies(graph)
    if not base.is_klt:
        raise ValueError("blow-up oracle requires a klt graph")
    best = min(base.log_discrepancies)

    def explore(values, edges, depth, best):
        if depth == 0:
            return best
        n = len(values)
        for i, j in edges:
            created = values[i] + values[j]
            rest = edges - {(i, j)} | {(i, n), (j, n)}
            best = explore(values + (created,), rest, depth - 1, min(best, created))
        for i in range(n):
            created = values[i] + 1
            best = explore(
                values + (created,), edges | {(i, n)}, depth - 1, min(best, created)
            )
        return best

    return explore(base.log_discrepancies, graph.edges, rounds, best)


def _full_chain(seifert: SeifertData) -> list[int]:
    """Linear self-intersection chain of a <= 2-branch star: first branch
    reversed, center, second branch."""
    branches = [hj_expand(alpha, beta) for alpha, beta in seifert.branches]
    chain = list(reversed(branches[0])) if branches else []
    chain.append(seifert.b)
    if len(branches) == 2:
        chain.extend(branches[1])
    return chain


def toric_mld_oracle(seifert: SeifertData) -> Fraction:
    """Independent mld for the toric (<= 2 branch) case.

    Rebuilds the 2-dimensional lattice cone whose resolution fan realizes
    the chain (rays satisfy u_{k+1} = c_k u_k - u_{k-1}), then minimizes the
    toric log discrepancy -- the linear functional taking value 1 on both
    primitive generators -- over primitive lattice points interior to the
    cone.  The minimum is attained inside the fundamental parallelogram, so
    the enumeration there is exhaustive.
    """
    if len(seifert.branches) > 2:
        raise ValueError("toric oracle needs at most 2 branches")
    chain = _full_chain(seifert)
    rays = [(1, 0), (0, 1)]
    for c in chain:
        u_prev, u = rays[-2], rays[-1]
        rays.append((c * u[0] - u_prev[0], c * u[1] - u_prev[1]))
    first, last = rays[0], rays[-1]

    def det(u, v) -> int:
        return u[0] * v[1] - u[1] * v[0]

    d = det(first, last)
    if d <= 0:
        raise NotContractible("chain does not span a strictly convex cone")
    for ray in rays[1:-1]:
        if not (det(first, ray) > 0 and det(ray, last) > 0):
            raise NotContractible("resolution rays leave the cone")

    # functional with value 1 on both generators, by Cramer's rule
    weight = (Fraction(last[1] - first[1], d), Fraction(first[0] - last[0], d))

    best: Fraction | None = None
    xs = [first[0], last[0], first[0] + last[0], 0]
    ys = [first[1], last[1], first[1] + last[1], 0]
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            # barycentric coordinates relative to the two generators
            s = Fraction(det((x, y), last), d)
            t = Fraction(det(first, (x, y)), d)
            if not (0 < s <= 1 and 0 < t <= 1):
                continue
            value = x * weight[0] + y * weight[1]
            if best is None or value < best:
                best = value
    assert best is not None  # the sum of the generators always qualifies
    return best


def an_blowups_box_scan(
    n: int, height_bound: int
) -> list[tuple[tuple[int, int], int, int, tuple[Fraction, Fraction], Fraction]]:
    """(ray, a, b, diff, delta_threshold) of every primitive ray strictly
    inside the A_n cone <(0,1), (n+1,-n)> with max(|x|, |y|) <= height_bound.

    Independent of the interior walk of ``enumerate_plt_blowups``: scans the
    whole (2H+1)^2 box, keeps the rays whose barycentric coordinates are both
    positive, and sorts them.
    """
    u1, u2 = (0, 1), (n + 1, -n)

    def det(u, v) -> int:
        return u[0] * v[1] - u[1] * v[0]

    orientation = det(u1, u2)
    rows = []
    for x in range(-height_bound, height_bound + 1):
        for y in range(-height_bound, height_bound + 1):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            ray = (x, y)
            if not (det(ray, u2) * orientation > 0 and det(u1, ray) * orientation > 0):
                continue
            a, b = abs(det(u1, ray)), abs(det(ray, u2))
            rows.append(
                (
                    ray,
                    a,
                    b,
                    (Fraction(a - 1, a), Fraction(b - 1, b)),
                    min(Fraction(1, a), Fraction(1, b)),
                )
            )
    return sorted(rows)
