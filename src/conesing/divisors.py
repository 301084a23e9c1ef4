"""Rational-coefficient divisors on the projective line.

Houses the polarization data of a surface cone singularity: degree,
fractional structure, Cartier/Weil indices, the induced boundary divisor,
the star-shaped (Seifert) normal form, and a canonical representative per
isomorphism class of the associated graded ring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .errors import NotACone
from .rationals import format_rational, parse_rational


@dataclass(frozen=True, order=True)
class PointP1:
    """A point of the projective line: a rational coordinate or infinity.

    Ordering sorts finite points by coordinate and puts infinity last,
    which fixes the traversal order of every divisor operation.
    """

    is_infinity: bool
    coord: Fraction = Fraction(0)

    @classmethod
    def finite(cls, coord) -> "PointP1":
        return cls(False, Fraction(coord))

    @classmethod
    def infinity(cls) -> "PointP1":
        return cls(True)

    @classmethod
    def parse(cls, text: str) -> "PointP1":
        text = text.strip()
        if text == "inf":
            return cls.infinity()
        return cls.finite(parse_rational(text))

    def __str__(self) -> str:
        return "inf" if self.is_infinity else format_rational(self.coord)


INF = PointP1.infinity()
ZERO = PointP1.finite(0)
ONE = PointP1.finite(1)

# Marked points used by canonical forms and by the catalog enumeration.
MARKED_POINTS = (ZERO, ONE, INF)


class QDivisorP1:
    """A finitely supported Q-divisor on the projective line.

    Immutable; zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[PointP1, Fraction | int] | None = None):
        cleaned: dict[PointP1, Fraction] = {}
        for point, coeff in (terms or {}).items():
            value = Fraction(coeff)
            if value != 0:
                cleaned[point] = value
        object.__setattr__(self, "_terms", cleaned)

    @classmethod
    def parse(cls, text: str) -> "QDivisorP1":
        """Parse the CLI text format, e.g. ``0:1/2,1:1/3,inf:-4/5``."""
        terms: dict[PointP1, Fraction] = {}
        stripped = text.strip()
        if not stripped or stripped == "0":
            return cls()
        for chunk in stripped.split(","):
            if chunk.count(":") != 1:
                raise ValueError(f"bad divisor term {chunk!r}; expected point:coeff")
            point_text, coeff_text = chunk.split(":")
            point = PointP1.parse(point_text)
            if point in terms:
                raise ValueError(f"duplicate point {point} in divisor")
            terms[point] = parse_rational(coeff_text)
        return cls(terms)

    def items(self) -> list[tuple[PointP1, Fraction]]:
        return sorted(self._terms.items())

    def coeff(self, point: PointP1) -> Fraction:
        return self._terms.get(point, Fraction(0))

    def support(self) -> list[PointP1]:
        return sorted(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, QDivisorP1) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __rmul__(self, scalar) -> "QDivisorP1":
        scalar = Fraction(scalar)
        return QDivisorP1({p: scalar * c for p, c in self._terms.items()})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return ",".join(f"{p}:{format_rational(c)}" for p, c in self.items())

    def __repr__(self) -> str:
        return f"QDivisorP1.parse({str(self)!r})"

    def degree(self) -> Fraction:
        """Sum of coefficients."""
        return sum(self._terms.values(), Fraction(0))

    def fractional_profile(self) -> list[tuple[PointP1, int, int]]:
        """The points with non-integral coefficient, as (point, p, q).

        The fractional part of each coefficient is written p/q in lowest
        terms with 0 < p < q; integral points are dropped.
        """
        profile = []
        for point, coeff in self.items():
            frac = coeff - math.floor(coeff)
            if frac != 0:
                profile.append((point, frac.numerator, frac.denominator))
        return profile

    def boundary_delta(self) -> "QDivisorP1":
        """The induced boundary: coefficient 1 - 1/q at each fractional point."""
        return QDivisorP1(
            {point: Fraction(q - 1, q) for point, _, q in self.fractional_profile()}
        )

    def cartier_index(self) -> int:
        """Smallest positive integer m with mD integral: lcm of the q's."""
        index = 1
        for _, _, q in self.fractional_profile():
            index = lcm(index, q)
        return index

    def weil_index(self, point: PointP1) -> int:
        """Smallest positive integer w with wD integral at the given point."""
        frac = self.coeff(point) - math.floor(self.coeff(point))
        return frac.denominator

    def normalize_seifert(self) -> "SeifertData":
        """Star-shaped normal form (b; (alpha_i, beta_i)) of the divisor.

        b is the sum of rounded-up coefficients; a fractional part p/q at a
        point contributes the branch (q, q - p).  Requires positive degree
        (otherwise the section ring is not a normal affine cone).
        """
        deg = self.degree()
        if deg <= 0:
            raise NotACone(f"divisor degree {format_rational(deg)} <= 0")
        b = sum(math.ceil(c) for _, c in self.items())
        branches = tuple((q, q - p) for _, p, q in self.fractional_profile())
        data = SeifertData(b, branches)
        if data.degree() != deg:
            raise RuntimeError("seifert normalization lost degree")
        return data

    def canonical_form(self) -> "QDivisorP1":
        """Representative of the divisor's class modulo point relabeling and
        integral linear equivalence.

        Fractional parts are sorted descending and placed at 0, 1, infinity;
        the whole integer part is consolidated at infinity.  Only defined for
        at most three fractional points (beyond that, cross-ratios are
        moduli and no canonical labeling exists).
        """
        profile = self.fractional_profile()
        if len(profile) > 3:
            raise ValueError(
                f"canonical form needs <= 3 fractional points, got {len(profile)}"
            )
        fracs = sorted((Fraction(p, q) for _, p, q in profile), reverse=True)
        b = sum(math.ceil(c) for _, c in self.items())
        anchor_int = b - len(fracs)
        terms: dict[PointP1, Fraction] = {}
        for point, frac in zip(MARKED_POINTS, fracs):
            terms[point] = frac
        if anchor_int:
            terms[INF] = terms.get(INF, Fraction(0)) + anchor_int
        return QDivisorP1(terms)


@dataclass(frozen=True, slots=True)
class SeifertData:
    """Normal form (b; (alpha_1, beta_1), ...) of a positive-degree divisor.

    -b is the central self-intersection of the star-shaped resolution; each
    branch (alpha, beta) is resolved by the Hirzebruch-Jung chain of
    alpha/beta.
    """

    b: int
    branches: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for alpha, beta in self.branches:
            if not (0 < beta < alpha):
                raise ValueError(f"branch ({alpha}, {beta}): need 0 < beta < alpha")
            if math.gcd(alpha, beta) != 1:
                raise ValueError(f"branch ({alpha}, {beta}): not coprime")

    def degree(self) -> Fraction:
        return self.b - sum(
            (Fraction(beta, alpha) for alpha, beta in self.branches), Fraction(0)
        )

    def branch_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.branches))
