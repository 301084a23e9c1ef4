"""Rational-coefficient divisors on the projective line.

Houses the polarization data of a surface cone singularity: degree,
fractional structure, Cartier/Weil indices, the induced boundary divisor,
the star-shaped (Seifert) normal form, and a canonical representative per
isomorphism class of the associated graded ring.  A divisor is the sorted
tuple of its nonzero terms, each coefficient a Fraction n/q in lowest terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping

from .errors import NotACone, number_text, parse_error
from .rationals import parse_rational


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
    def parse(cls, text: str, start: int = 0, end: int | None = None) -> "PointP1":
        """A rational literal or "inf": all of text, or text[start:end]."""
        if text[start:end].strip() == "inf":
            return cls.infinity()
        return cls.finite(parse_rational(text, start, end))

    def __str__(self) -> str:
        return "inf" if self.is_infinity else str(self.coord)


INF = PointP1.infinity()
ZERO = PointP1.finite(0)
ONE = PointP1.finite(1)

# Marked points used by canonical forms and by the catalog enumeration.
MARKED_POINTS = (ZERO, ONE, INF)


class QDivisorP1:
    """A finitely supported Q-divisor on the projective line.

    Immutable: the nonzero terms are stored once, as (point, n/q) pairs
    sorted by point, from which every index and fractional part is read.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[PointP1, Fraction | int] | None = None):
        nonzero = [(point, Fraction(coeff)) for point, coeff in (terms or {}).items() if coeff]
        self._terms = tuple(sorted(nonzero, key=itemgetter(0)))

    @classmethod
    def parse(cls, text: str) -> "QDivisorP1":
        """Parse the CLI text format, e.g. ``0:1/2,1:1/3,inf:-4/5``.  An error
        names the offset in text where reading stopped."""
        terms: dict[PointP1, Fraction] = {}
        if text.strip() in ("", "0"):
            return cls()
        start = 0
        for chunk in text.split(","):
            end = start + len(chunk)
            colon = text.find(":", start, end)
            if colon < 0:
                raise parse_error(text, start)
            point = PointP1.parse(text, start, colon)
            if point in terms:
                raise parse_error(text, start, "duplicate point in")
            terms[point] = parse_rational(text, colon + 1, end)
            start = end + 1
        return cls(terms)

    def items(self) -> list[tuple[PointP1, Fraction]]:
        return list(self._terms)

    def coeff(self, point: PointP1) -> Fraction:
        return next((c for p, c in self._terms if p == point), Fraction(0))

    def support(self) -> list[PointP1]:
        return [p for p, _ in self._terms]

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, QDivisorP1) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __rmul__(self, scalar) -> "QDivisorP1":
        scalar = Fraction(scalar)
        return QDivisorP1({p: scalar * c for p, c in self._terms})

    def __str__(self) -> str:
        return ",".join(f"{p}:{c}" for p, c in self._terms) or "0"

    def __repr__(self) -> str:
        return f"QDivisorP1.parse({str(self)!r})"

    def degree(self) -> Fraction:
        """Sum of coefficients."""
        return sum((c for _, c in self._terms), Fraction(0))

    def fractional_profile(self) -> list[tuple[PointP1, int, int]]:
        """The points with non-integral coefficient n/q, as (point, n mod q, q).

        (n mod q)/q is the fractional part of the coefficient, in lowest
        terms with 0 < n mod q < q; integral points are dropped.
        """
        return [(p, c.numerator % c.denominator, c.denominator)
                for p, c in self._terms if c.denominator > 1]

    def boundary_delta(self) -> "QDivisorP1":
        """The induced boundary: coefficient 1 - 1/q at each fractional point."""
        return QDivisorP1(
            {point: Fraction(q - 1, q) for point, _, q in self.fractional_profile()}
        )

    def cartier_index(self) -> int:
        """Smallest positive integer m with mD integral: lcm of the q's."""
        return math.lcm(*(q for _, _, q in self.fractional_profile()))

    def weil_index(self, point: PointP1) -> int:
        """Smallest positive integer w with wD integral at the given point."""
        return self.coeff(point).denominator

    def normalize_seifert(self) -> "SeifertData":
        """Star-shaped normal form (b; (alpha_i, beta_i)) of the divisor.

        b is the sum of rounded-up coefficients; a fractional part p/q at a
        point contributes the branch (q, q - p).  Requires positive degree
        (otherwise the section ring is not a normal affine cone).
        """
        deg = self.degree()
        if deg <= 0:
            raise NotACone(f"divisor degree {number_text(deg)} <= 0")
        b = sum(math.ceil(c) for _, c in self._terms)
        branches = tuple((q, q - p) for _, p, q in self.fractional_profile())
        data = SeifertData(b, branches)
        if data.degree() != deg:
            raise RuntimeError("seifert normalization lost degree")
        return data

    def canonical_form(self) -> "QDivisorP1":
        """Representative of the divisor's class modulo point relabeling and
        integral linear equivalence.

        Fractional parts are sorted descending and placed at 0, 1, infinity;
        the whole integer part, the sum of n // q over the coefficients n/q,
        is consolidated at infinity.  Only defined for at most three
        fractional points (beyond that, cross-ratios are moduli and no
        canonical labeling exists).
        """
        profile = self.fractional_profile()
        if len(profile) > 3:
            raise ValueError(
                f"canonical form needs <= 3 fractional points, got {len(profile)}"
            )
        fracs = sorted((Fraction(p, q) for _, p, q in profile), reverse=True)
        terms = dict(zip(MARKED_POINTS, fracs))
        integer_part = sum(c.numerator // c.denominator for _, c in self._terms)
        if integer_part:
            terms[INF] = terms.get(INF, Fraction(0)) + integer_part
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
            if not 0 < beta < alpha or math.gcd(alpha, beta) != 1:
                raise ValueError(f"branch ({number_text(alpha)}, {number_text(beta)}): "
                                 "need coprime 0 < beta < alpha")

    def degree(self) -> Fraction:
        return self.b - sum(
            (Fraction(beta, alpha) for alpha, beta in self.branches), Fraction(0)
        )
