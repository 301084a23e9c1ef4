"""The cone-singularity model.

A surface cone singularity is encoded by its associated triple, which on
the projective line is the polarization alone: an ample Q-divisor D.  Every
invariant here comes from D: the quotient pair's boundary
delta = sum (1 - 1/q) p over the fractional points of D, the Fano angle
r = deg D / (2 - deg delta) and its reciprocal (the log discrepancy of the
vertex blow-up), isotropies, Veronese quotients, and the combinatorial
central fiber of the degeneration induced by a plt blow-up.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .divisors import INF, MARKED_POINTS, PointP1, QDivisorP1
from .errors import DomainError, NotACone, NotLogFano, number_text


@dataclass(frozen=True, slots=True)
class ConeTriple:
    """Associated triple of a cone singularity: its polarization, which
    must have positive degree."""

    polarization: QDivisorP1

    def __post_init__(self):
        if self.polarization.degree() <= 0:
            raise NotACone(f"polarization degree {number_text(self.polarization.degree())} <= 0")


def log_fano_quotient(triple: ConeTriple) -> QDivisorP1:
    """Boundary delta of the quotient pair (P^1, delta); raises NotLogFano
    when deg delta >= 2, that is when the cone is not klt.  Every
    coefficient 1 - 1/q is below 1, so the pair is klt on the curve."""
    delta = triple.polarization.boundary_delta()
    if delta.degree() >= 2:
        raise NotLogFano(f"deg delta = {number_text(delta.degree())} >= 2")
    return delta


def is_klt_cone(triple: ConeTriple) -> bool:
    """Cheap filter form of log_fano_quotient."""
    try:
        log_fano_quotient(triple)
    except NotLogFano:
        return False
    return True


def fano_angle(triple: ConeTriple) -> Fraction:
    """The positive rational r with D ~ -r(K + delta).

    On the line deg K = -2, so r = deg D / (2 - deg delta).
    """
    delta = log_fano_quotient(triple)
    return triple.polarization.degree() / (2 - delta.degree())


def vertex_log_discrepancy(triple: ConeTriple) -> Fraction:
    """Log discrepancy of the divisor extracted by blowing up the vertex:
    the inverse of the Fano angle."""
    return 1 / fano_angle(triple)


def isotropy_at(triple: ConeTriple, point: PointP1) -> int:
    """Order of the torus stabilizer over a point: the local Cartier index
    of the polarization there (its Weil index on the line)."""
    return triple.polarization.weil_index(point)


def max_isotropy(triple: ConeTriple) -> int:
    """Largest isotropy: the global Cartier index of the polarization."""
    return triple.polarization.cartier_index()


def veronese(triple: ConeTriple, m: int) -> ConeTriple:
    """Degree-m equivariant cyclic quotient, realized on triples as D -> mD."""
    if m < 1:
        raise ValueError(f"veronese degree must be >= 1, got {number_text(m)}")
    return ConeTriple(m * triple.polarization)


@dataclass(frozen=True)
class CentralFiber:
    """Combinatorial central fiber of the degeneration along a plt blow-up.

    ``quotient`` is the trivial-isotropy cone (polarization m * deg placed at
    the anchor point); ``degree`` is the degree m of the cyclic quotient map
    from the central fiber onto it.  The central fiber itself is recorded
    through its polarization degree and the adjunction boundary (coefficient
    1 - 1/q at marked points).
    """

    quotient: ConeTriple
    degree: int
    fiber_degree: Fraction
    fiber_diff: QDivisorP1


def central_fiber_of_plt_blowup(
    diff_qs: Sequence[int], minus_e_degree: Fraction, m: int
) -> CentralFiber:
    """Build the central fiber data of the degeneration attached to a plt
    blow-up with adjunction denominators ``diff_qs``, exceptional polarization
    degree ``minus_e_degree``, and Cartier multiple ``m``.

    The degree-m Veronese of the central fiber is the trivial-isotropy cone
    returned as ``quotient``; the fiber's own isotropies are the q's, each of
    which must divide m (otherwise m times the polarization is not integral).
    """
    minus_e_degree = Fraction(minus_e_degree)
    if m < 1:
        raise ValueError(f"quotient degree must be >= 1, got {number_text(m)}")
    if len(diff_qs) > 3:
        raise DomainError(
            f"at most 3 adjunction points supported on the line, got {len(diff_qs)}"
        )
    if any(q < 2 for q in diff_qs):
        raise ValueError("adjunction denominators must be >= 2")
    if minus_e_degree <= 0:
        raise NotACone(f"exceptional polarization degree {number_text(minus_e_degree)} <= 0")
    quotient_degree = m * minus_e_degree
    if quotient_degree.denominator != 1:
        raise NotACone(f"{number_text(m)} * {number_text(minus_e_degree)} is not integral")
    for q in diff_qs:
        if m % q != 0:
            raise NotACone(
                f"adjunction denominator {number_text(q)} does not divide "
                f"the Cartier multiple {number_text(m)}"
            )
    quotient = ConeTriple(QDivisorP1({INF: quotient_degree}))
    diff = QDivisorP1(
        {point: Fraction(q - 1, q) for point, q in zip(MARKED_POINTS, diff_qs)}
    )
    return CentralFiber(quotient, m, minus_e_degree, diff)
