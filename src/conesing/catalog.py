"""Finite catalogs of surface cone singularities.

For a log-discrepancy floor epsilon0 and an isotropy bound N, every such
cone is, up to isomorphism and linear equivalence, polarized by one canonical
form D = (a0/N) {0} + (a1/N) {1} + (a_inf/N) {inf}: fractional parts
descending, N > a0 >= a1 >= a_inf mod N, the integer part at infinity, and
a_inf in the finite window (-(a0+a1), 2N/epsilon0 - (a0+a1)]: the lower end
is ampleness, the upper end is the Fano-angle bound r <= 1/epsilon0.
Enumerating that grid and filtering by the exact invariants yields the full
(finite) catalog, each class exactly once.

Candidates are classified from the integers (a0, a1, a_inf) alone: the
fractional parts p/q, the Seifert form (b; (q, q - p)), klt-ness of the
quotient pair (sum (1 - 1/q) < 2), the isotropy lcm q and the central log
discrepancy 1/r.  Since the mld is at most 1/r, a candidate with
1/r < epsilon0 is rejected exactly before any graph is solved; divisor and
cone objects are built only for the entries kept.  The walk is refused
with a DomainError above MAX_CANDIDATES candidates, counted in advance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import cones, resolution
from .cones import ConeTriple
from .divisors import MARKED_POINTS, QDivisorP1, SeifertData
from .errors import DomainError
from .rationals import format_rational

# Most candidates enumerate_catalog walks for one (epsilon0, N); above it
# the request is refused before the walk.  (1/1000, 6) walks 112000.
MAX_CANDIDATES = 200_000


@dataclass(frozen=True)
class CatalogEntry:
    """One cone singularity of the catalog, keyed by the canonical form of
    its polarization."""

    triple: ConeTriple
    seifert: SeifertData
    mld: Fraction
    fano_angle: Fraction
    max_isotropy: int
    canonical_index: int


def a_inf_range(epsilon0: Fraction, n_isotropy: int, a0: int, a1: int) -> range:
    """Integer window for the coefficient numerator at infinity."""
    upper = Fraction(2 * n_isotropy) / epsilon0 - (a0 + a1)
    return range(-(a0 + a1) + 1, math.floor(upper) + 1)


def candidate_count(epsilon0: Fraction, n_isotropy: int) -> int:
    """Number of canonical forms enumerate_catalog walks: over a1 <= a0 < N,
    the a_inf of the window with a_inf mod N <= a1.

    Up to a constant, the integers x < t with x mod N <= a1 number
    floor(t/N) (a1 + 1) + min(t mod N, a1 + 1), so a window [start, stop)
    holds the difference of that closed form at its two ends.  O(N^2).
    """

    def below(t: int, a1: int) -> int:
        periods, rest = divmod(t, n_isotropy)
        return periods * (a1 + 1) + min(rest, a1 + 1)

    total = 0
    for a0 in range(n_isotropy):
        for a1 in range(a0 + 1):
            window = a_inf_range(epsilon0, n_isotropy, a0, a1)
            total += below(window.stop, a1) - below(window.start, a1)
    return total


def _classify(
    epsilon0: Fraction, n_isotropy: int, a0: int, a1: int, a_inf: int
) -> CatalogEntry | None:
    """The entry of the candidate (a0 {0} + a1 {1} + a_inf {inf}) / N, a
    cone since a0 + a1 + a_inf > 0, or None when it is not klt, its
    isotropy exceeds N or its mld is below epsilon0."""
    branches = []
    for a in (a0, a1, a_inf):
        residue = a % n_isotropy
        if residue:
            common = math.gcd(residue, n_isotropy)
            q = n_isotropy // common
            branches.append((q, q - residue // common))
    isotropy = math.lcm(*(q for q, _ in branches))
    # room = isotropy * (2 - deg delta) with deg delta = sum (1 - 1/q)
    room = (2 - len(branches)) * isotropy + sum(isotropy // q for q, _ in branches)
    if room <= 0 or isotropy > n_isotropy:
        return None  # the quotient pair is not klt, or the isotropy is too large
    # 1/r = (2 - deg delta) / deg D is at least the mld: reject 1/r < epsilon0
    degree_n = a0 + a1 + a_inf  # N deg D
    if room * n_isotropy * epsilon0.denominator < epsilon0.numerator * isotropy * degree_n:
        return None
    seifert = SeifertData(sum(-(-a // n_isotropy) for a in (a0, a1, a_inf)), tuple(branches))
    report = resolution.discrepancies(resolution.build_graph(seifert))
    if report.mld < epsilon0:
        return None
    coeffs = (Fraction(a, n_isotropy) for a in (a0, a1, a_inf))
    return CatalogEntry(
        triple=ConeTriple(QDivisorP1(dict(zip(MARKED_POINTS, coeffs)))),
        seifert=seifert,
        mld=report.mld,
        fano_angle=1 / report.log_discrepancies[0],
        max_isotropy=isotropy,
        canonical_index=report.canonical_index,
    )


def enumerate_catalog(epsilon0: Fraction, n_isotropy: int) -> tuple[CatalogEntry, ...]:
    """All cone surface singularities with mld >= epsilon0 and isotropies
    at most N, one entry per isomorphism class, sorted by (degree, mld).

    Raises DomainError, before walking, when the walk would classify more
    than MAX_CANDIDATES canonical forms.
    """
    epsilon0 = Fraction(epsilon0)
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive (the search window is unbounded otherwise)")
    if epsilon0 > 2:
        raise ValueError("epsilon0 must be <= 2 (no log discrepancy exceeds 2)")
    if n_isotropy < 1:
        raise ValueError("isotropy bound must be >= 1")
    # Each window is at least N wide (epsilon0 <= 2), so it holds every
    # residue: the tetrahedral number is a lower bound that spares the exact
    # O(N^2) count when N alone is too large.
    count = n_isotropy * (n_isotropy + 1) * (n_isotropy + 2) // 6
    if count <= MAX_CANDIDATES:
        count = candidate_count(epsilon0, n_isotropy)
    if count > MAX_CANDIDATES:
        raise DomainError(
            f"(epsilon0, N) = ({format_rational(epsilon0)}, {n_isotropy}) needs at "
            f"least {count} candidates, above the cap of {MAX_CANDIDATES}"
        )

    found: list[CatalogEntry] = []
    for a0 in range(n_isotropy):
        for a1 in range(a0 + 1):
            window = a_inf_range(epsilon0, n_isotropy, a0, a1)
            # only descending fractional parts: a_inf mod N <= a1
            for residue in range(a1 + 1):
                first = window.start + (residue - window.start) % n_isotropy
                for a_inf in range(first, window.stop, n_isotropy):
                    entry = _classify(epsilon0, n_isotropy, a0, a1, a_inf)
                    if entry is not None:
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
    ok: bool
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    checks: tuple[ConsistencyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ConsistencyCheck]:
        return [c for c in self.checks if not c.ok]


def catalog_consistency_check(entries) -> ConsistencyReport:
    """Re-check every entry against the structural identities:

    (i)  each point log discrepancy 1/q of the quotient pair is at least
         min(mld, 1) / max_isotropy -- min with 1 because curves through
         the vertex already cap the lc threshold of the germ at 1;
    (ii) fano_angle, which the catalog takes from the graph's central
         node, equals the Fano angle of the polarization computed through
         its quotient pair (cones.fano_angle);
    (iii) fano_angle <= 1 / mld.
    """
    checks: list[ConsistencyCheck] = []
    for index, entry in enumerate(entries):
        profile = entry.triple.polarization.fractional_profile()
        bound = min(entry.mld, Fraction(1)) / entry.max_isotropy
        quotient_ok = all(Fraction(1, q) >= bound for _, _, q in profile)
        checks.append(
            ConsistencyCheck(
                index,
                "quotient-discrepancy-bound",
                quotient_ok,
                f"min point discrepancy vs {format_rational(bound)}",
            )
        )
        angle = cones.fano_angle(entry.triple)
        checks.append(
            ConsistencyCheck(
                index,
                "vertex-discrepancy-identity",
                angle == entry.fano_angle,
                f"r = {format_rational(entry.fano_angle)} vs quotient pair "
                f"{format_rational(angle)}",
            )
        )
        angle_ok = entry.fano_angle <= 1 / entry.mld
        checks.append(
            ConsistencyCheck(
                index,
                "angle-bound",
                angle_ok,
                f"r = {format_rational(entry.fano_angle)} vs 1/mld = "
                f"{format_rational(1 / entry.mld)}",
            )
        )
    return ConsistencyReport(tuple(checks))


def entry_to_json(entry: CatalogEntry) -> dict:
    return {
        "divisor": str(entry.triple.polarization),
        "seifert": {
            "b": entry.seifert.b,
            "branches": [list(branch) for branch in entry.seifert.branches],
        },
        "mld": format_rational(entry.mld),
        "fano_angle": format_rational(entry.fano_angle),
        "max_isotropy": entry.max_isotropy,
        "canonical_index": entry.canonical_index,
    }


def catalog_to_json(epsilon0: Fraction, n_isotropy: int, entries) -> dict:
    return {
        "epsilon0": format_rational(Fraction(epsilon0)),
        "N": n_isotropy,
        "entries": [entry_to_json(entry) for entry in entries],
    }


def catalog_json_text(epsilon0: Fraction, n_isotropy: int, entries) -> str:
    """Byte-stable rendering: sorted keys, fixed separators, trailing newline."""
    document = catalog_to_json(epsilon0, n_isotropy, entries)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
