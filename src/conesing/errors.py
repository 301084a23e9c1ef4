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
