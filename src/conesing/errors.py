"""Domain errors shared across the package.

Every error carries a machine-readable ``kind`` so the CLI (and the
regression runner) can assert on error categories rather than message text.
"""


class DomainError(Exception):
    """A mathematically invalid request on syntactically valid input."""

    kind = "DOMAIN_ERROR"


class NotACone(DomainError):
    """The divisor data does not define a normal affine cone (degree <= 0)."""

    kind = "NOT_A_CONE"


class NotLogFano(DomainError):
    """The quotient pair is not log Fano (deg delta >= 2); the cone is not klt."""

    kind = "NOT_LOG_FANO"


class NotContractible(DomainError):
    """The intersection matrix is not negative definite."""

    kind = "NOT_CONTRACTIBLE"


class NotIsolated(DomainError):
    """The singular locus is not a fat point at the origin."""

    kind = "NOT_ISOLATED"


class SingularMatrixError(DomainError):
    """Linear solve hit a singular matrix; carries the rank that was found."""

    kind = "SINGULAR_MATRIX"

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"matrix is singular: rank {rank} < size {size}")


def number_text(value) -> str:
    """str(value) of an int or Fraction, for the message of an error.  A
    numerator or denominator with more digits than the interpreter prints
    is named by its digit count instead, as <4500 digits> or, for a
    fraction, <4500/4498 digits>, so building the message cannot raise."""
    try:
        return str(value)
    except ValueError:
        counts = [_digits(value.numerator)]
        if value.denominator != 1:
            counts.append(_digits(value.denominator))
        return f"<{'/'.join(map(str, counts))} digits>"


def _digits(n: int) -> int:
    """The number of decimal digits of n != 0, without printing it."""
    n = abs(n)
    # 10**k <= n for this k, as 2**(bits - 1) <= n and log10(2) < 0.30103
    k = (n.bit_length() - 1) * 30103 // 100000
    while 10 ** k <= n:
        k += 1
    return k
