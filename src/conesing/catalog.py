"""Finite catalogs of surface cone singularities.

For a log-discrepancy floor epsilon0 and an isotropy bound N, every such
cone is, up to isomorphism and linear equivalence, polarized by one canonical
form D = (a0/N) {0} + (a1/N) {1} + (a_inf/N) {inf}: fractional parts
descending, N > a0 >= a1 >= a_inf mod N, the integer part at infinity, and
a_inf in the finite window (-(a0+a1), 2N/epsilon0 - (a0+a1)]: the lower end
is ampleness, the upper end is the Fano-angle bound r <= 1/epsilon0.
Enumerating that grid and filtering by the exact invariants yields the full
(finite) catalog, each class exactly once.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import cones, resolution
from .cones import ConeTriple
from .divisors import MARKED_POINTS, QDivisorP1, SeifertData
from .rationals import format_rational


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


def _classify(divisor: QDivisorP1) -> CatalogEntry | None:
    """Invariants of a candidate polarization, or None when it fails a
    membership filter upstream of the (epsilon0, N) thresholds."""
    if divisor.degree() <= 0:
        return None
    triple = ConeTriple(divisor)
    if not cones.is_klt_cone(triple):
        return None
    seifert = divisor.normalize_seifert()
    report = resolution.discrepancies(resolution.build_graph(seifert))
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


def enumerate_catalog(epsilon0: Fraction, n_isotropy: int) -> tuple[CatalogEntry, ...]:
    """All cone surface singularities with mld >= epsilon0 and isotropies
    at most N, one entry per isomorphism class, sorted by (degree, mld)."""
    epsilon0 = Fraction(epsilon0)
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive (the search window is unbounded otherwise)")
    if epsilon0 > 2:
        raise ValueError("epsilon0 must be <= 2 (no log discrepancy exceeds 2)")
    if n_isotropy < 1:
        raise ValueError("isotropy bound must be >= 1")

    found: list[CatalogEntry] = []
    for a0 in range(n_isotropy):
        for a1 in range(a0 + 1):
            for a_inf in a_inf_range(epsilon0, n_isotropy, a0, a1):
                if a_inf % n_isotropy > a1:
                    continue  # fractional parts not descending: not canonical
                coeffs = (Fraction(num, n_isotropy) for num in (a0, a1, a_inf))
                entry = _classify(QDivisorP1(dict(zip(MARKED_POINTS, coeffs))))
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
    (ii) the central node of the resolution solves to 1 / fano_angle;
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
        central = resolution.central_log_discrepancy(
            resolution.build_graph(entry.seifert)
        )
        vertex_ok = central == 1 / entry.fano_angle
        checks.append(
            ConsistencyCheck(
                index,
                "vertex-discrepancy-identity",
                vertex_ok,
                f"central {format_rational(central)} vs 1/r = "
                f"{format_rational(1 / entry.fano_angle)}",
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
