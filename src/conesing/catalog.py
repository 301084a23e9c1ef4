"""Finite catalogs of surface cone singularities.

For a log-discrepancy floor epsilon0 and an isotropy bound N, every such
cone is, up to isomorphism and linear equivalence, polarized by one canonical
form D = (r0 {0} + r1 {1} + (r2 + N m) {inf}) / N: a descending residue
shape N > r0 >= r1 >= r2 >= 0 of the fractional parts, and the integer part
m at infinity.  Enumerating those forms and filtering by the exact
invariants yields the full (finite) catalog, each class exactly once.

Each shape is walked once, in integers: its fractional parts p/q give the
branches (q, q - p) of the Seifert form, the isotropy lcm q and the klt
room isotropy * (2 - sum (1 - 1/q)); a shape with room <= 0 is not klt and
is skipped.  The central log discrepancy is 1/r = room / (isotropy deg D)
and the mld is at most 1/r, so with T = N deg D the candidates of a klt
shape are exactly the m with 0 < T <= room N / (epsilon0 isotropy): the
lower end is ampleness, the upper end is 1/r >= epsilon0.  Every candidate
walked is one integer solve of the shape's graph, whose chains are expanded
once per branch (q, beta) and call.  The walk is refused with a DomainError
above MAX_CANDIDATES solves, counted before the first.

The walk builds no divisor, cone or entry objects: each entry kept is a
CatalogRow of the divisor's text, written from the residues, and the values
the views print.  The module renders nothing: the CLI lays out the text and
JSON views of a catalog straight from its rows, and CatalogRow.entry()
builds a row's CatalogEntry for library callers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import cones, resolution
from .cones import ConeTriple
from .divisors import QDivisorP1, SeifertData
from .errors import number_text, refuse_above
from .rationals import hj_expand

# Most graph solves enumerate_catalog makes for one (epsilon0, N); above it
# the request is refused before the first.  (1/1000, 6) solves 19501.
MAX_CANDIDATES = 200_000


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One cone singularity of the catalog, keyed by the canonical form of
    its polarization."""

    triple: ConeTriple
    seifert: SeifertData
    mld: Fraction
    fano_angle: Fraction
    max_isotropy: int
    canonical_index: int


class CatalogRow(NamedTuple):
    """One entry of enumerate_catalog: the fields of its CatalogEntry, the
    polarization given by its canonical form's text, str(polarization)."""

    divisor: str
    seifert: SeifertData
    mld: Fraction
    fano_angle: Fraction
    max_isotropy: int
    canonical_index: int

    def entry(self) -> CatalogEntry:
        return CatalogEntry(ConeTriple(QDivisorP1.parse(self.divisor)), *self[1:])


def integer_parts(
    epsilon0: Fraction, n_isotropy: int, total: int, room: int, isotropy: int
) -> range:
    """The integer parts m at infinity of a klt shape whose residues sum to
    total: 0 < T = total + N m <= room N / (epsilon0 isotropy)."""
    top = room * n_isotropy * epsilon0.denominator // (epsilon0.numerator * isotropy)
    return range(-total // n_isotropy + 1, (top - total) // n_isotropy + 1)


def _klt_shapes(epsilon0: Fraction, n_isotropy: int):
    """Each descending residue shape (r0, r1, r2) whose quotient pair is
    klt, with its branches, its isotropy and its integer parts."""
    for r0 in range(n_isotropy):
        for r1 in range(r0 + 1):
            for r2 in range(r1 + 1):
                branches = []
                for residue in (r0, r1, r2):
                    if residue:
                        common = math.gcd(residue, n_isotropy)
                        q = n_isotropy // common
                        branches.append((q, q - residue // common))
                isotropy = math.lcm(*(q for q, _ in branches))
                # room = isotropy * (2 - deg delta) with deg delta = sum (1 - 1/q)
                room = (2 - len(branches)) * isotropy + sum(isotropy // q for q, _ in branches)
                if room > 0:
                    parts = integer_parts(epsilon0, n_isotropy, r0 + r1 + r2, room, isotropy)
                    yield (r0, r1, r2), tuple(branches), isotropy, parts


def enumerate_catalog(epsilon0: Fraction, n_isotropy: int) -> tuple[CatalogRow, ...]:
    """All cone surface singularities with mld >= epsilon0 and isotropies
    at most N, one row per isomorphism class, sorted by degree, then mld,
    then divisor text.

    Raises DomainError, before the first solve, when the walk would visit
    more than MAX_CANDIDATES residue shapes or make more than MAX_CANDIDATES
    graph solves.
    """
    epsilon0 = Fraction(epsilon0)
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive (the search window is unbounded otherwise)")
    if epsilon0 > 2:
        raise ValueError("epsilon0 must be <= 2 (no log discrepancy exceeds 2)")
    if n_isotropy < 1:
        raise ValueError("isotropy bound must be >= 1")
    subject = f"(epsilon0, N) = ({number_text(epsilon0)}, {number_text(n_isotropy)}) needs"
    shapes = n_isotropy * (n_isotropy + 1) * (n_isotropy + 2) // 6
    refuse_above(shapes, MAX_CANDIDATES, subject, "residue shapes")
    walk = list(_klt_shapes(epsilon0, n_isotropy))
    # a range's len() overflows past sys.maxsize; its bounds do not
    solves = sum(max(0, parts.stop - parts.start) for *_, parts in walk)
    refuse_above(solves, MAX_CANDIDATES, subject, "graph solves")

    expansions: dict[tuple[int, int], tuple[int, ...]] = {}
    found: list[tuple[int, Fraction, CatalogRow]] = []
    for (r0, r1, r2), branches, isotropy, parts in walk:
        for branch in branches:
            if branch not in expansions:
                expansions[branch] = tuple(hj_expand(*branch))
        chains = tuple(expansions[branch] for branch in branches)
        # str(polarization), written from the residues: the fractional parts
        # at 0 and 1, then the coefficient at infinity when it is not 0
        fixed = ",".join(
            f"{point}:{Fraction(r, n_isotropy)}" for point, r in (("0", r0), ("1", r1)) if r
        )
        head = fixed + "," if fixed else ""
        for m in parts:
            b = len(branches) + m
            report = resolution.discrepancies(resolution.DualGraph(b, chains))
            if report.mld < epsilon0:
                continue
            top = r2 + n_isotropy * m
            text = f"{head}inf:{Fraction(top, n_isotropy)}" if top else fixed
            row = CatalogRow(text, SeifertData(b, branches), report.mld,
                             1 / report.log_discrepancies[0], isotropy, report.canonical_index)
            # T = N deg D orders by degree, N being fixed; rows with the same
            # T and mld order by their text, the first field of a row
            found.append((r0 + r1 + r2 + n_isotropy * m, report.mld, row))
    found.sort()
    return tuple(row for _, _, row in found)


def is_member(triple: ConeTriple, epsilon0: Fraction, n_isotropy: int) -> bool:
    """Membership test: klt, mld >= epsilon0, isotropies <= N."""
    if not cones.is_klt_cone(triple):
        return False
    if cones.max_isotropy(triple) > n_isotropy:
        return False
    seifert = triple.polarization.normalize_seifert()
    report = resolution.discrepancies(resolution.build_graph(seifert))
    return report.is_klt and report.mld >= Fraction(epsilon0)


@dataclass(frozen=True)
class ConsistencyCheck:
    entry_index: int
    check: str
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    """The failed identities, in entry order; none for a consistent catalog."""

    checks: tuple[ConsistencyCheck, ...]

    @property
    def ok(self) -> bool:
        return not self.checks

    def failures(self) -> list[ConsistencyCheck]:
        return list(self.checks)


def catalog_consistency_check(entries) -> ConsistencyReport:
    """Re-check every entry, and report each structural identity it fails:

    (i)  max_isotropy, which the catalog takes from the residue shape,
         equals the Cartier index of the polarization (the lcm of the
         denominators q of its fractional points);
    (ii) fano_angle, which the catalog takes from the graph's central
         node, equals the Fano angle of the polarization computed through
         its quotient pair (cones.fano_angle);
    (iii) fano_angle <= 1 / mld.
    """
    checks: list[ConsistencyCheck] = []
    for index, entry in enumerate(entries):
        cartier_index = entry.triple.polarization.cartier_index()
        if entry.max_isotropy != cartier_index:
            detail = f"max_isotropy = {entry.max_isotropy} vs Cartier index {cartier_index}"
            checks.append(ConsistencyCheck(index, "isotropy-cartier-identity", detail))
        angle = cones.fano_angle(entry.triple)
        if angle != entry.fano_angle:
            detail = f"r = {entry.fano_angle} vs quotient pair {angle}"
            checks.append(ConsistencyCheck(index, "vertex-discrepancy-identity", detail))
        if entry.fano_angle > 1 / entry.mld:
            detail = f"r = {entry.fano_angle} vs 1/mld = {1 / entry.mld}"
            checks.append(ConsistencyCheck(index, "angle-bound", detail))
    return ConsistencyReport(tuple(checks))
