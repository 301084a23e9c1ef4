import random
from fractions import Fraction
from math import lcm

import pytest

from conesing.catalog import enumerate_catalog
from conesing.cones import (
    ConeTriple,
    central_fiber_of_plt_blowup,
    fano_angle,
    is_klt_cone,
    isotropy_at,
    log_fano_quotient,
    max_isotropy,
    veronese,
    vertex_log_discrepancy,
)
from conesing.divisors import INF, PointP1, QDivisorP1
from conesing.errors import DomainError, NotACone, NotLogFano
from conesing.groebner import Poly, family_polynomial
from conesing.toric_an import enumerate_plt_blowups

E8_TRIPLE = ConeTriple(QDivisorP1.parse("0:1/2,1:1/3,inf:-4/5"))


def pt(x) -> PointP1:
    return PointP1.finite(x)


def cone(text: str) -> ConeTriple:
    return ConeTriple(QDivisorP1.parse(text))


def test_cone_triple_validation():
    with pytest.raises(NotACone):
        ConeTriple(QDivisorP1({pt(0): -1}))


def test_log_fano_quotient_examples():
    assert log_fano_quotient(cone("0:2")).is_zero()
    assert log_fano_quotient(cone("0:1/2,inf:1/2")) == QDivisorP1.parse("0:1/2,inf:1/2")
    assert log_fano_quotient(E8_TRIPLE) == QDivisorP1.parse("0:1/2,1:2/3,inf:4/5")

    not_klt = cone("0:1/2,1:1/2,2:1/2,inf:1/2")
    with pytest.raises(NotLogFano):
        log_fano_quotient(not_klt)
    assert not is_klt_cone(not_klt)


def test_fano_angle_examples():
    for d in (1, 2, 5, 50):
        assert fano_angle(cone(f"0:{d}")) == Fraction(d, 2)
    assert fano_angle(cone("0:1/2,inf:1/2")) == 1
    assert fano_angle(E8_TRIPLE) == 1


def test_vertex_log_discrepancy_examples():
    for d in (2, 3, 50):
        assert vertex_log_discrepancy(cone(f"0:{d}")) == Fraction(2, d)
    assert vertex_log_discrepancy(cone("0:1/2,inf:1/2")) == 1
    assert vertex_log_discrepancy(E8_TRIPLE) == 1


def test_isotropies():
    integral = cone("0:3")
    assert isotropy_at(integral, pt(0)) == 1
    assert isotropy_at(integral, INF) == 1
    assert max_isotropy(integral) == 1

    mixed = cone("0:1/2,1:2/3")
    assert isotropy_at(mixed, pt(1)) == 3
    assert max_isotropy(mixed) == 6
    assert max_isotropy(cone("0:1/2,inf:1/2")) == 2


def test_veronese():
    half_half = cone("0:1/2,inf:1/2")
    assert veronese(half_half, 1) == half_half
    doubled = veronese(half_half, 2)
    assert doubled.polarization == QDivisorP1({pt(0): 1, INF: 1})
    assert max_isotropy(doubled) == 1
    assert veronese(cone("0:4"), 2).polarization == QDivisorP1({pt(0): 8})
    with pytest.raises(ValueError):
        veronese(half_half, 0)


def test_central_fiber_examples():
    fixed = central_fiber_of_plt_blowup([], Fraction(7), 1)
    assert fixed.quotient.polarization == QDivisorP1({INF: 7})
    assert fixed.degree == 1

    a1 = central_fiber_of_plt_blowup([2, 2], Fraction(1), 2)
    assert a1.quotient.polarization == QDivisorP1({INF: 2})
    assert a1.degree == 2
    assert a1.fiber_diff == QDivisorP1.parse("0:1/2,1:1/2")

    forced = central_fiber_of_plt_blowup([2], Fraction(1, 2), 2)
    assert forced.quotient.polarization == QDivisorP1({INF: 1})
    assert forced.degree == 2


def test_central_fiber_quotient_has_trivial_isotropy_and_bounded_fiber():
    rng = random.Random(41)
    for _ in range(100):
        qs = [rng.choice([2, 3, 4, 5, 6]) for _ in range(rng.randint(0, 3))]
        m = lcm(1, *qs) * rng.randint(1, 3)
        degree = Fraction(rng.randint(1, 12), m)
        fiber = central_fiber_of_plt_blowup(qs, degree, m)
        assert max_isotropy(fiber.quotient) == 1
        assert all(q <= m for q in qs)
        assert fiber.quotient.polarization.degree() == m * degree


def test_central_fiber_rejects_bad_data():
    with pytest.raises(NotACone):
        central_fiber_of_plt_blowup([], Fraction(1, 2), 1)
    with pytest.raises(NotACone):
        central_fiber_of_plt_blowup([3], Fraction(1), 2)
    with pytest.raises(DomainError):
        central_fiber_of_plt_blowup([2, 2, 2, 2], Fraction(1), 4)
    with pytest.raises(NotACone):
        central_fiber_of_plt_blowup([2], Fraction(-1), 2)


@pytest.mark.parametrize(("call", "message"), [
    (lambda: Poly(("x",), {(1, 2): 1}), "does not match"),
    (lambda: family_polynomial(0, 1), "n must be >= 1"),
    (lambda: enumerate_plt_blowups(3, 0), "height_bound must be >= 1"),
    (lambda: central_fiber_of_plt_blowup([1], Fraction(1), 1), "must be >= 2"),
    (lambda: enumerate_catalog(Fraction(1), 0), "isotropy bound must be >= 1"),
], ids=["poly-exponent-length", "family-n", "plt-height-bound", "adjunction-q", "catalog-isotropy"])
def test_library_refuses_out_of_range_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _random_triple(rng: random.Random) -> ConeTriple | None:
    points = rng.sample([pt(0), pt(1), pt(2), INF], rng.randint(1, 3))
    divisor = QDivisorP1(
        {p: Fraction(rng.randint(-6, 18), rng.randint(1, 12)) for p in points}
    )
    if divisor.degree() <= 0:
        return None
    return ConeTriple(divisor)


def test_veronese_isotropy_law_randomized():
    rng = random.Random(43)
    checked = 0
    while checked < 200:
        triple = _random_triple(rng)
        if triple is None:
            continue
        m = rng.randint(1, 12)
        assert max_isotropy(triple) <= m * max_isotropy(veronese(triple, m))
        cartier = triple.polarization.cartier_index()
        assert max_isotropy(veronese(triple, cartier)) == 1
        assert max_isotropy(triple) == cartier
        checked += 1
