"""Exact rational arithmetic, Hirzebruch-Jung continued fractions, and
exact linear algebra over the rationals.

Rational values are ``fractions.Fraction`` throughout: always in lowest
terms, positive denominator, arbitrary precision.  No floating point
anywhere in this package.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import SingularMatrixError

# "p/q" or "p", optional sign.  Decimal literals are rejected on purpose.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (ASCII or U+2212 minus) into an exact rational."""
    cleaned = text.strip().replace("−", "-")
    if not _RATIONAL_RE.match(cleaned):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(cleaned)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def hj_expand(alpha: int, beta: int) -> list[int]:
    """Hirzebruch-Jung expansion of alpha/beta.

    Returns [c_1, ..., c_s] with every c_i >= 2 and
    alpha/beta = c_1 - 1/(c_2 - 1/(... - 1/c_s)), via the ceiling-division
    recursion c = ceil(alpha/beta), (alpha, beta) <- (beta, c*beta - alpha).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"need 0 < beta < alpha, got ({alpha}, {beta})")
    if beta >= alpha:
        raise ValueError(f"need beta < alpha, got ({alpha}, {beta})")
    if gcd(alpha, beta) != 1:
        raise ValueError(f"alpha and beta must be coprime, got ({alpha}, {beta})")
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


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fraction | int]]) -> "RationalMatrix":
        data = [[Fraction(x) for x in row] for row in rows]
        if not data:
            raise ValueError("matrix needs at least one row")
        ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, tuple(x for row in data for x in row))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )


def solve_linear(
    matrix: RationalMatrix, rhs: Sequence[Fraction | int]
) -> tuple[Fraction, ...]:
    """Solve M x = rhs exactly by Gaussian elimination.

    Pivoting picks the candidate with the largest |numerator|; the solve is
    re-checked exactly against the input before returning.  Raises
    SingularMatrixError (carrying the rank found) on singular input.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("solve_linear needs a square matrix")
    n = matrix.rows
    if len(rhs) != n:
        raise ValueError(f"rhs length {len(rhs)} != {n}")
    a = [list(matrix.row(i)) for i in range(n)]
    b = [Fraction(x) for x in rhs]

    rank = 0
    for col in range(n):
        pivot_row = None
        pivot_size = -1
        for r in range(rank, n):
            if a[r][col] != 0 and abs(a[r][col].numerator) > pivot_size:
                pivot_row = r
                pivot_size = abs(a[r][col].numerator)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        b[rank], b[pivot_row] = b[pivot_row], b[rank]
        pivot = a[rank][col]
        for r in range(n):
            if r == rank or a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for c in range(col, n):
                a[r][c] -= factor * a[rank][c]
            b[r] -= factor * b[rank]
        rank += 1
    if rank < n:
        raise SingularMatrixError(rank, n)

    # After full (Gauss-Jordan) elimination each row has a single pivot.
    solution: list[Fraction] = [Fraction(0)] * n
    for r in range(n):
        col = next(c for c in range(n) if a[r][c] != 0)
        solution[col] = b[r] / a[r][col]

    for i in range(n):
        acc = sum((matrix.at(i, j) * solution[j] for j in range(n)), Fraction(0))
        if acc != Fraction(rhs[i]):
            raise RuntimeError("exact solve verification failed")
    return tuple(solution)


def is_negative_definite(matrix: RationalMatrix) -> bool:
    """True iff (-1)^k * (k-th leading principal minor) > 0 for all k.

    Equivalent: every pivot of the no-swap elimination is negative (a zero
    pivot means a vanishing leading minor, hence not definite).
    """
    if matrix.rows != matrix.cols:
        raise ValueError("definiteness needs a square matrix")
    if not matrix.is_symmetric():
        raise ValueError("definiteness needs a symmetric matrix")
    n = matrix.rows
    a = [list(matrix.row(i)) for i in range(n)]
    for k in range(n):
        pivot = a[k][k]
        if pivot >= 0:
            return False
        for r in range(k + 1, n):
            if a[r][k] == 0:
                continue
            factor = a[r][k] / pivot
            for c in range(k, n):
                a[r][c] -= factor * a[k][c]
    return True
