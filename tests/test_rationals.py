import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesing.errors import MAX_PRINTED_DIGITS, DomainError, SingularMatrixError, number_text
from conesing.rationals import (
    hj_expand,
    hj_length,
    is_negative_definite,
    parse_integer,
    parse_rational,
    solve_linear,
)
from reference import continued_fraction_value


def test_parse_and_format_round_trip():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("−4/5") == Fraction(-4, 5)  # unicode minus
    # the package prints every rational through str(Fraction)
    assert str(Fraction(3, 2)) == "3/2"
    assert str(Fraction(4, 2)) == "2"
    assert str(Fraction(-1, 3)) == "-1/3"


@pytest.mark.parametrize("bad", ["1.5", "", "a/b", "1/2/3", "2e3", "1/0", "-3/0"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize(("bad", "message"), [
    ("1.5", "cannot parse '.5' at offset 1"),
    (" 1/" + "x" * 100_000, "cannot parse '/xxxxxxxxxxxxxxxxxxx' at offset 2"),
    ("-3/0", "zero denominator in '-3/0' at offset 0"),
], ids=["decimal", "long", "zero-denominator"])
def test_parse_error_names_where_reading_stopped(bad, message):
    with pytest.raises(ValueError) as info:
        parse_rational(bad)
    assert str(info.value) == message


@pytest.mark.parametrize(("text", "value"), [
    ("42", 42), (" -7 ", -7), ("+3", 3), ("1_000", 1000), ("-0012", -12),
])
def test_parse_integer_reads_what_int_reads(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize(("bad", "message"), [
    ("1x", "cannot parse 'x' at offset 1"),
    ("", "cannot parse '' at offset 0"),
    ("1/2", "cannot parse '/2' at offset 1"),
    ("x" * 100_000, "cannot parse 'xxxxxxxxxxxxxxxxxxxx' at offset 0"),
])
def test_parse_integer_refusal_names_where_reading_stopped(bad, message):
    with pytest.raises(ValueError) as info:
        parse_integer(bad)
    assert str(info.value) == message


def test_parse_integer_above_the_digit_limit_is_a_domain_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DomainError) as info:
        parse_integer(" -1" + "0" * limit)
    assert str(info.value) == (
        f"number too long at offset 2: {limit + 1} digits, above the limit of {limit}"
    )


def test_number_text_counts_the_digits_it_cannot_print():
    # a numerator or denominator of more than 40 digits is named by its count
    assert MAX_PRINTED_DIGITS == 40
    assert number_text(Fraction(-7, 3)) == "-7/3"
    assert number_text(10**40 - 1) == "9" * 40
    assert number_text(Fraction(-1, 10**40 - 1)) == "-1/" + "9" * 40
    for k in range(1, 80):  # around each power of ten
        assert number_text(10**k) == (f"<{k + 1} digits>" if k >= 40 else str(10**k))
        assert number_text(10**k - 1) == (f"<{k} digits>" if k > 40 else "9" * k)
        assert number_text(-(10**k)) == (f"<{k + 1} digits>" if k >= 40 else str(-(10**k)))
    assert number_text(Fraction(1, 10**40)) == "<1/41 digits>"
    assert number_text(Fraction(10**40 + 1, 3)) == "<41/1 digits>"
    limit = sys.get_int_max_str_digits()  # above the limit of str(), too
    assert number_text(10**limit) == f"<{limit + 1} digits>"
    assert number_text(Fraction(1, 10**limit)) == f"<1/{limit + 1} digits>"


def test_hj_expand_examples():
    assert hj_expand(2, 1) == [2]
    # expected chains frozen after checking them with the independent evaluator
    assert continued_fraction_value([2, 3]) == Fraction(5, 3)
    assert hj_expand(5, 3) == [2, 3]
    assert continued_fraction_value([2, 4]) == Fraction(7, 4)
    assert hj_expand(7, 4) == [2, 4]


def test_hj_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        hj_expand(3, 3)
    with pytest.raises(ValueError):
        hj_expand(3, 0)
    with pytest.raises(ValueError):
        hj_expand(6, 4)


def test_hj_round_trip_all_coprime_pairs_up_to_200():
    for alpha in range(2, 201):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            chain = hj_expand(alpha, beta)
            assert all(c >= 2 for c in chain)
            assert continued_fraction_value(chain) == Fraction(alpha, beta)


@st.composite
def coprime_pairs(draw) -> tuple[int, int]:
    alpha = draw(st.integers(2, 5000))
    beta = draw(st.integers(1, alpha - 1).filter(lambda b: gcd(alpha, b) == 1))
    return alpha, beta


@settings(max_examples=500, deadline=None)
@given(coprime_pairs())
def test_hj_length_counts_the_expansion(pair):
    assert hj_length(*pair) == len(hj_expand(*pair))


def test_solve_linear_examples():
    identity = [[1, 0], [0, 1]]
    assert solve_linear(identity, [Fraction(3, 2), -1]) == (Fraction(3, 2), Fraction(-1))
    assert solve_linear([[-2]], [-1]) == (Fraction(1, 2),)
    a2 = [[-2, 1], [1, -2]]
    assert solve_linear(a2, [0, 0]) == (Fraction(0), Fraction(0))


def test_solve_linear_random_exact():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        matrix = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        try:
            solution = solve_linear(matrix, rhs)
        except SingularMatrixError:
            continue
        for i in range(n):
            assert sum(matrix[i][j] * solution[j] for j in range(n)) == rhs[i]


def test_solve_linear_singular_reports_rank():
    singular = [[1, 2], [2, 4]]
    with pytest.raises(SingularMatrixError) as info:
        solve_linear(singular, [1, 2])
    assert info.value.rank == 1


@pytest.mark.parametrize("rows", [[], [[1, 2]], [[1], [2, 3]]], ids=["empty", "wide", "ragged"])
def test_dense_solver_refuses_rows_that_are_not_a_square_matrix(rows):
    with pytest.raises(ValueError):
        solve_linear(rows, [1] * len(rows))
    with pytest.raises(ValueError):
        is_negative_definite(rows)


def test_solve_linear_refuses_a_wrong_rhs_length():
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1]], [1, 2, 3])


def test_dense_solver_leaves_its_input_alone():
    # the first column's pivot is in the second row, so the solve swaps rows
    rows, rhs = [[0, 1], [2, 0]], [3, 4]
    assert solve_linear(rows, rhs) == (Fraction(2), Fraction(3))
    negative = [[-2, 1], [1, -2]]
    assert is_negative_definite(negative)
    assert (rows, rhs, negative) == ([[0, 1], [2, 0]], [3, 4], [[-2, 1], [1, -2]])


def test_is_negative_definite_examples():
    assert is_negative_definite([[-2]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[2]])
    # affine A_1: determinant zero
    assert not is_negative_definite([[-2, 2], [2, -2]])


def test_is_negative_definite_rejects_non_symmetric():
    with pytest.raises(ValueError):
        is_negative_definite([[-2, 1], [0, -2]])


def test_negative_definite_matches_principal_minors_on_random_symmetric():
    def det(rows):
        rows = [row[:] for row in rows]
        n = len(rows)
        result = Fraction(1)
        for k in range(n):
            pivot = next((r for r in range(k, n) if rows[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != k:
                rows[k], rows[pivot] = rows[pivot], rows[k]
                result = -result
            result *= rows[k][k]
            for r in range(k + 1, n):
                factor = rows[r][k] / rows[k][k]
                for c in range(k, n):
                    rows[r][c] -= factor * rows[k][c]
        return result

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(rng.randint(-4, 4))
            for j in range(i + 1, n):
                value = Fraction(rng.randint(-3, 3))
                rows[i][j] = value
                rows[j][i] = value
        expected = all(
            (-1) ** k * det([row[:k] for row in rows[:k]]) > 0
            for k in range(1, n + 1)
        )
        assert is_negative_definite(rows) == expected


def test_rational_field_axioms_on_random_triples():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
