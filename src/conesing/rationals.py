"""Exact rational arithmetic, Hirzebruch-Jung continued fractions, and a
dense exact linear solver that the tests use as an oracle.

Rational values are ``fractions.Fraction`` throughout: always in lowest
terms, positive denominator, arbitrary precision.  No floating point
anywhere in this package.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import SingularMatrixError, digit_limit_error, number_text, parse_error

# "p/q" or "p", optional sign, whitespace around.  Decimal literals are
# rejected on purpose.  It always matches, so it tells where reading stopped.
_RATIONAL_RE = re.compile(r"\s*([+−-]?\d+(?:/\d+)?)?\s*")
_INTEGER_RE = re.compile(r"\s*([+-]?\d+)?\s*")


def parse_rational(text: str, start: int = 0, end: int | None = None) -> Fraction:
    """Parse "p/q" or "p" (ASCII or U+2212 minus) into an exact rational:
    all of text, or text[start:end] with errors naming offsets in text."""
    match = _RATIONAL_RE.match(text, start, len(text) if end is None else end)
    if match[1] is None or match.end() < match.endpos:
        raise parse_error(text, match.end())
    try:
        return Fraction(match[1].replace("−", "-"))
    except ZeroDivisionError:
        raise parse_error(text, match.start(1), "zero denominator in") from None
    except ValueError:
        raise digit_limit_error(text, match.start(1), match.end(1)) from None


def parse_integer(text: str) -> int:
    """Parse an integer literal as int() does; a refusal names the offset
    where reading stopped, and a literal with more digits than the
    interpreter reads is a DomainError."""
    try:
        return int(text)
    except ValueError:
        match = _INTEGER_RE.match(text)
        if match[1] is None or match.end() < len(text):
            raise parse_error(text, match.end()) from None
        raise digit_limit_error(text, match.start(1), match.end(1)) from None


def hj_expand(alpha: int, beta: int) -> list[int]:
    """Hirzebruch-Jung expansion of alpha/beta.

    Returns [c_1, ..., c_s] with every c_i >= 2 and
    alpha/beta = c_1 - 1/(c_2 - 1/(... - 1/c_s)), via the ceiling-division
    recursion c = ceil(alpha/beta), (alpha, beta) <- (beta, c*beta - alpha).
    """
    if not 0 < beta < alpha or gcd(alpha, beta) != 1:
        raise ValueError(
            f"need coprime 0 < beta < alpha, got ({number_text(alpha)}, {number_text(beta)})"
        )
    expansion = []
    while beta:
        c = -(-alpha // beta)
        expansion.append(c)
        alpha, beta = beta, c * beta - alpha
    return expansion


def hj_length(alpha: int, beta: int) -> int:
    """len(hj_expand(alpha, beta)) in O(log alpha), without the expansion.

    With alpha/beta = [t_1; t_2, ...] as an ordinary continued fraction,
    each odd-position term gives one curve and each even-position term t
    gives a run of t - 1 curves of self-intersection -2.
    """
    length, odd = 0, True
    while beta:
        t, (alpha, beta) = alpha // beta, (beta, alpha % beta)
        length += 1 if odd else t - 1
        odd = not odd
    return length


def _square(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """A Fraction copy of a non-empty square matrix given as a list of rows."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("need a non-empty square list of rows")
    return [[Fraction(x) for x in row] for row in rows]


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve M x = rhs exactly by Gauss-Jordan elimination, M given as rows of
    Fractions or ints.  Each column's pivot is its first nonzero candidate,
    and the solve is re-checked exactly against the input.  Raises
    SingularMatrixError (carrying the rank found) on singular input."""
    a = _square(rows)
    n = len(a)
    if len(rhs) != n:
        raise ValueError(f"rhs length {len(rhs)} != {n}")
    b = [Fraction(x) for x in rhs]
    rank = 0
    for col in range(n):
        pivot_row = next((r for r in range(rank, n) if a[r][col]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        b[rank], b[pivot_row] = b[pivot_row], b[rank]
        for r in range(n):
            if r != rank and a[r][col]:
                factor = a[r][col] / a[rank][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
                b[r] -= factor * b[rank]
        rank += 1
    if rank < n:
        raise SingularMatrixError(rank, n)
    # at full rank row i holds the pivot of column i, and nothing else
    solution = tuple(b[i] / a[i][i] for i in range(n))
    if any(sum(x * y for x, y in zip(row, solution)) != v for row, v in zip(rows, rhs)):
        raise RuntimeError("exact solve verification failed")
    return solution


def is_negative_definite(rows: Sequence[Sequence]) -> bool:
    """True iff (-1)^k * (k-th leading principal minor) > 0 for all k
    (Sylvester): every pivot of the no-swap elimination is negative."""
    a = _square(rows)
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("definiteness needs a symmetric matrix")
    for k in range(n):
        if a[k][k] >= 0:
            return False
        for r in range(k + 1, n):
            if a[r][k]:
                factor = a[r][k] / a[k][k]
                a[r] = [x - factor * y for x, y in zip(a[r], a[k])]
    return True
