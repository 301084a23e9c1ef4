import math
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conesing.divisors import INF, ZERO, PointP1, QDivisorP1, SeifertData
from conesing.errors import NotACone
from reference import (
    floor_cartier_index,
    floor_fractional_profile,
    floor_integer_part,
    floor_weil_index,
)

E8_DIVISOR = QDivisorP1.parse("0:1/2,1:1/3,inf:-4/5")


def pt(x) -> PointP1:
    return PointP1.finite(x)


def test_parse_and_text_round_trip():
    text = "0:1/2,1:1/3,inf:-4/5"
    divisor = QDivisorP1.parse(text)
    assert str(divisor) == text
    assert QDivisorP1.parse(str(divisor)) == divisor
    assert str(QDivisorP1()) == "0"


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError):
        QDivisorP1.parse("0:1/2,0:1/3")
    with pytest.raises(ValueError):
        QDivisorP1.parse("0=1/2")
    with pytest.raises(ValueError):
        QDivisorP1.parse("0:0.5")


@pytest.mark.parametrize(("bad", "message"), [
    ("0:1/2,0:1/3", "duplicate point in '0:1/3' at offset 6"),
    ("0=1/2", "cannot parse '0=1/2' at offset 0"),
    ("0:1:2", "cannot parse ':2' at offset 3"),
    ("inf:1/0", "zero denominator in '1/0' at offset 4"),
    ("0:1/2," + "7" * 100_000, "cannot parse '77777777777777777777' at offset 6"),
    ("0:" + "1" * 100_000 + "/x", "cannot parse '/x' at offset 100002"),
], ids=["duplicate", "no-colon", "two-colons", "zero-denominator", "long-term", "long-coeff"])
def test_parse_error_names_where_reading_stopped(bad, message):
    with pytest.raises(ValueError) as info:
        QDivisorP1.parse(bad)
    assert str(info.value) == message


def test_degree():
    assert QDivisorP1({pt(5): 7}).degree() == 7
    # hand sum: 1/2 + 1/3 - 4/5 = 1/30
    assert E8_DIVISOR.degree() == Fraction(1, 30)
    assert QDivisorP1().degree() == 0


def test_fractional_profile():
    assert QDivisorP1({pt(2): 3}).fractional_profile() == []
    assert QDivisorP1({pt(0): Fraction(1, 2), pt(1): Fraction(5, 3)}).fractional_profile() == [
        (pt(0), 1, 2),
        (pt(1), 2, 3),
    ]
    assert QDivisorP1({INF: Fraction(-4, 5)}).fractional_profile() == [(INF, 1, 5)]


def test_boundary_delta():
    assert QDivisorP1({pt(0): 3}).boundary_delta() == QDivisorP1()
    half = QDivisorP1({pt(0): Fraction(1, 2), INF: Fraction(1, 2)})
    assert half.boundary_delta() == half
    assert E8_DIVISOR.boundary_delta() == QDivisorP1.parse("0:1/2,1:2/3,inf:4/5")


def test_boundary_delta_coefficients_have_unit_fraction_complement():
    rng = random.Random(5)
    for _ in range(100):
        divisor = _random_divisor(rng)
        for point, coeff in divisor.boundary_delta().items():
            assert 0 <= coeff < 1
            assert (1 - coeff).numerator == 1


def test_cartier_and_weil_indices():
    assert QDivisorP1({pt(0): 3}).cartier_index() == 1
    mixed = QDivisorP1({pt(0): Fraction(1, 2), pt(1): Fraction(2, 3)})
    assert mixed.cartier_index() == 6
    assert mixed.weil_index(pt(0)) == 2
    assert mixed.weil_index(pt(1)) == 3
    assert mixed.weil_index(pt(7)) == 1
    assert QDivisorP1({INF: Fraction(-4, 5)}).weil_index(INF) == 5


def test_normalize_seifert_examples():
    for d in (1, 2, 7):
        data = QDivisorP1({pt(0): d}).normalize_seifert()
        assert data == SeifertData(d)
    half_half = QDivisorP1({pt(0): Fraction(1, 2), INF: Fraction(1, 2)})
    assert half_half.normalize_seifert() == SeifertData(2, ((2, 1), (2, 1)))
    assert E8_DIVISOR.normalize_seifert() == SeifertData(2, ((2, 1), (3, 2), (5, 4)))


def test_normalize_seifert_rejects_nonpositive_degree():
    with pytest.raises(NotACone):
        QDivisorP1({pt(0): -1}).normalize_seifert()
    with pytest.raises(NotACone):
        QDivisorP1({pt(0): Fraction(1, 2), INF: Fraction(-1, 2)}).normalize_seifert()


def _random_divisor(rng: random.Random, max_points: int = 3) -> QDivisorP1:
    points = rng.sample([pt(0), pt(1), pt(2), pt(-3), INF], rng.randint(1, max_points))
    return QDivisorP1(
        {p: Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for p in points}
    )


def test_normalize_seifert_degree_identity_randomized():
    rng = random.Random(17)
    checked = 0
    while checked < 150:
        divisor = _random_divisor(rng)
        if divisor.degree() <= 0:
            continue
        data = divisor.normalize_seifert()
        assert data.degree() == divisor.degree()
        assert data.b - sum(Fraction(beta, alpha) for alpha, beta in data.branches) == divisor.degree()
        checked += 1


def test_cartier_index_is_lcm_of_branch_alphas():
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        divisor = _random_divisor(rng)
        if divisor.degree() <= 0:
            continue
        data = divisor.normalize_seifert()
        alphas = [alpha for alpha, _ in data.branches]
        assert divisor.cartier_index() == lcm(1, *alphas)
        for point in divisor.support():
            assert divisor.cartier_index() % divisor.weil_index(point) == 0
        checked += 1


def test_canonical_form_examples():
    moved = QDivisorP1({pt(7): Fraction(1, 2), pt(3): Fraction(1, 2), INF: 1})
    assert moved.canonical_form() == QDivisorP1.parse("0:1/2,1:1/2,inf:1")
    assert QDivisorP1({pt(5): 3}).canonical_form() == QDivisorP1({INF: 3})
    two_fracs = QDivisorP1({pt(0): Fraction(2, 3), INF: Fraction(1, 2)})
    assert two_fracs.canonical_form() == QDivisorP1.parse("0:2/3,1:1/2")


def test_canonical_form_fixes_e8_divisor():
    assert E8_DIVISOR.canonical_form() == E8_DIVISOR


def test_canonical_form_rejects_four_fractional_points():
    divisor = QDivisorP1(
        {pt(0): Fraction(1, 2), pt(1): Fraction(1, 2), pt(2): Fraction(1, 2), INF: Fraction(1, 2)}
    )
    with pytest.raises(ValueError):
        divisor.canonical_form()


def test_canonical_form_idempotent_and_orbit_invariant():
    rng = random.Random(29)
    for _ in range(200):
        count = rng.randint(0, 3)
        fracs = [
            Fraction(rng.randint(1, q - 1), q)
            for q in (rng.choice([2, 3, 4, 5, 7]) for _ in range(count))
        ]
        ints = [rng.randint(-3, 4) for _ in range(count)] + [rng.randint(-3, 4)]
        # place the fractional parts at arbitrary distinct points, integer
        # parts spread arbitrarily: all such divisors are one orbit
        points = rng.sample([pt(0), pt(1), pt(2), pt(9), pt(-1), INF], count + 1)
        terms = {
            p: f + i for p, f, i in zip(points, fracs + [Fraction(0)], ints)
        }
        divisor = QDivisorP1(terms)
        canonical = divisor.canonical_form()
        assert canonical.canonical_form() == canonical

        shuffled_points = rng.sample([pt(0), pt(4), pt(5), pt(-2), INF], count + 1)
        shifts = [rng.randint(-2, 2) for _ in range(count)]
        shuffled = QDivisorP1(
            {
                p: f + i
                for p, f, i in zip(
                    shuffled_points,
                    fracs + [Fraction(0)],
                    shifts + [sum(ints) - sum(shifts)],
                )
            }
        )
        assert shuffled.canonical_form() == canonical
        if divisor.degree() > 0:
            ours = divisor.normalize_seifert()
            theirs = canonical.normalize_seifert()
            assert ours.b == theirs.b
            assert ours.branch_multiset() == theirs.branch_multiset()


def test_seifert_data_validation():
    with pytest.raises(ValueError):
        SeifertData(2, ((2, 2),))
    with pytest.raises(ValueError):
        SeifertData(2, ((4, 2),))


# Finite points and infinity, with coefficients n/q for |n| <= 50 and q <= 12.
divisor_terms = st.dictionaries(
    st.one_of(st.just(INF), st.fractions(-20, 20, max_denominator=6).map(PointP1.finite)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    max_size=6,
)


@given(divisor_terms, st.data())
def test_lowest_terms_reading_matches_floor_reference(terms, data):
    divisor = QDivisorP1(terms)
    shuffled = QDivisorP1(dict(data.draw(st.permutations(list(terms.items())))))
    assert divisor.items() == sorted((p, c) for p, c in terms.items() if c != 0)
    assert shuffled == divisor and hash(shuffled) == hash(divisor)
    assert QDivisorP1.parse(str(divisor)) == divisor

    profile = floor_fractional_profile(terms)
    assert divisor.fractional_profile() == profile
    assert divisor.cartier_index() == floor_cartier_index(terms)
    for point in [*terms, INF, ZERO, pt(Fraction(1, 7))]:
        assert divisor.weil_index(point) == floor_weil_index(terms, point)
    if len(profile) <= 3:
        # the fractional parts sit in (0, 1) at 0, 1 and infinity, so the
        # floors of the canonical form's coefficients add up to its integer part
        canonical = divisor.canonical_form()
        assert sum(math.floor(c) for _, c in canonical.items()) == floor_integer_part(terms)
