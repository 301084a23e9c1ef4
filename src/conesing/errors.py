"""Domain errors shared across the package, and the wording of every refusal.

Every error carries a machine-readable ``kind`` so the CLI (and the
regression runner) can assert on error categories rather than message text.

This module is the one place that words a refusal: refuse_above for a
request whose counted work is above a cap, parse_error and
digit_limit_error for a literal that cannot be read, and number_text for
every number a message shows, so a message stays short however long the
numbers in the request are.
"""
import re
import sys

# A number whose numerator or denominator has more digits than this is named
# by its digit count in a message.
MAX_PRINTED_DIGITS = 40
_PRINTED_BELOW = 10 ** MAX_PRINTED_DIGITS


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
    """str(value) of an int or Fraction whose numerator and denominator each
    have at most MAX_PRINTED_DIGITS digits.  A longer number is named by its
    digit counts instead, as <41 digits> or, for a fraction, <4500/4498
    digits>, so the text is short and building it cannot raise."""
    if abs(value.numerator) < _PRINTED_BELOW and value.denominator < _PRINTED_BELOW:
        return str(value)
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


def refuse_above(count: int, cap: int, subject: str, unit: str) -> None:
    """Raise a DomainError reading "{subject} {count} {unit}, above the cap
    of {cap}" when count, the work of a request counted before any of it is
    done, is above cap."""
    if count > cap:
        raise DomainError(f"{subject} {number_text(count)} {unit}, above the cap of {cap}")


def parse_error(text: str, offset: int, what: str = "cannot parse") -> ValueError:
    """The refusal of text where reading stopped: it names the offset and
    quotes at most 20 characters from there, however long the text."""
    return ValueError(f"{what} {text[offset:offset + 20]!r} at offset {offset}")


def digit_limit_error(text: str, start: int, end: int) -> DomainError:
    """The refusal of a well-formed literal text[start:end] that int() cannot
    read: some run of its digits is longer than the interpreter's limit."""
    limit = sys.get_int_max_str_digits()
    run = next(r for r in re.finditer(r"\d+", text[start:end]) if len(r[0]) > limit)
    return DomainError(f"number too long at offset {start + run.start()}: "
                       f"{len(run[0])} digits, above the limit of {limit}")
