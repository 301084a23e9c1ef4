"""Reference oracles the tests check the package against.

Each one reaches an answer of the package by another route: a right-to-left
continued-fraction evaluator for ``hj_expand``, an append-and-link builder
for the graph's node numbering, the dense intersection matrix and the
chain-by-chain elimination for the closed-form discrepancies, a blow-up
simulator and a toric lattice minimizer for the mld, the divisor-object
classifier for the integer catalog, the full box scan for the A_n plt
blow-ups, and floor-based fractional parts and indices for the divisor's
lowest-terms reading of its coefficients.  No command of the package calls
them, so they live with the tests.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, lcm
from typing import Iterable, Mapping, Sequence

from conesing import cones
from conesing.catalog import CatalogEntry
from conesing.cones import ConeTriple
from conesing.divisors import MARKED_POINTS, PointP1, QDivisorP1, SeifertData
from conesing.errors import NotContractible
from conesing.rationals import RationalMatrix, hj_expand
from conesing.resolution import DiscrepancyReport, DualGraph, build_graph, discrepancies


def lcm_of_denominators(values: Iterable[Fraction]) -> int:
    """The canonical index of a list of log discrepancies, fold by fold."""
    result = 1
    for v in values:
        result = lcm(result, v.denominator)
    return result


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


def elimination_discrepancies(graph: DualGraph) -> DiscrepancyReport:
    """The adjunction system solved by elimination; an oracle for the
    closed-form ``discrepancies``.

    With x_i = a_i - 1 the system reads E_i^2 x_i + sum_{j ~ i} x_j = r_i,
    r_i = -2 - E_i^2.  Each chain is eliminated from its far end towards
    E_0 by d <- -c - 1/d, r <- c - 2 - r/d; E_0 is solved, and x = (r - x')/d
    is substituted back out along each chain, x' the neighbour nearer E_0.
    The d are the pivots of an LDL^T elimination, so the matrix is negative
    definite iff every one of them is negative.  The answer is re-checked
    on every node.
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
    return DiscrepancyReport(
        log_discrepancies=log_discrepancies,
        mld=min(log_discrepancies),
        is_klt=all(a > 0 for a in log_discrepancies),
        canonical_index=lcm_of_denominators(log_discrepancies),
    )


def classify_by_objects(divisor: QDivisorP1) -> CatalogEntry | None:
    """Invariants of a candidate polarization through the divisor objects:
    klt by building the quotient pair, the Seifert form by
    ``normalize_seifert``, the Fano angle from the quotient pair.  None when
    the candidate is not a klt cone.  An oracle for the integer classifier
    of ``enumerate_catalog``."""
    if divisor.degree() <= 0:
        return None
    triple = ConeTriple(divisor)
    if not cones.is_klt_cone(triple):
        return None
    seifert = divisor.normalize_seifert()
    report = discrepancies(build_graph(seifert))
    if not report.is_klt:
        return None
    return CatalogEntry(
        triple=triple,
        seifert=seifert,
        mld=report.mld,
        fano_angle=cones.fano_angle(triple),
        max_isotropy=cones.max_isotropy(triple),
        canonical_index=report.canonical_index,
    )


def catalog_by_objects(epsilon0: Fraction, n_isotropy: int) -> tuple[CatalogEntry, ...]:
    """The catalog from every grid point of the loose windows
    -(a0 + a1) < a_inf <= 2N/epsilon0 - (a0 + a1), that is 0 < deg D <=
    2/epsilon0: canonical forms found by skipping the non-descending ones,
    each classified by ``classify_by_objects`` and filtered on isotropy and
    mld."""
    top = floor(Fraction(2 * n_isotropy) / epsilon0)
    found = []
    for a0 in range(n_isotropy):
        for a1 in range(a0 + 1):
            for a_inf in range(-(a0 + a1) + 1, top - (a0 + a1) + 1):
                if a_inf % n_isotropy > a1:
                    continue
                coeffs = (Fraction(num, n_isotropy) for num in (a0, a1, a_inf))
                entry = classify_by_objects(QDivisorP1(dict(zip(MARKED_POINTS, coeffs))))
                if entry is None:
                    continue
                if entry.max_isotropy > n_isotropy or entry.mld < epsilon0:
                    continue
                found.append(entry)
    return tuple(
        sorted(
            found,
            key=lambda e: (
                e.triple.polarization.degree(),
                e.mld,
                str(e.triple.polarization),
            ),
        )
    )


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

    return explore(base.log_discrepancies, frozenset(graph.edges), rounds, best)


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


# The divisor invariants as floor-based subtractions over a mapping of
# point -> coefficient; ``QDivisorP1`` reads the same numbers from each
# coefficient n/q in lowest terms.


def floor_fractional_profile(
    terms: Mapping[PointP1, Fraction]
) -> list[tuple[PointP1, int, int]]:
    """(point, p, q) of each point whose coefficient c has c - floor(c) = p/q != 0."""
    profile = []
    for point, coeff in sorted(terms.items()):
        frac = coeff - floor(coeff)
        if frac != 0:
            profile.append((point, frac.numerator, frac.denominator))
    return profile


def floor_weil_index(terms: Mapping[PointP1, Fraction], point: PointP1) -> int:
    coeff = terms.get(point, Fraction(0))
    return (coeff - floor(coeff)).denominator


def floor_cartier_index(terms: Mapping[PointP1, Fraction]) -> int:
    index = 1
    for _, _, q in floor_fractional_profile(terms):
        index = lcm(index, q)
    return index


def floor_integer_part(terms: Mapping[PointP1, Fraction]) -> int:
    """The sum of floor(c) over the coefficients."""
    return sum(floor(coeff) for coeff in terms.values())
