"""Toric plt blow-ups of A_n surface singularities.

The A_n germ is the affine toric surface of a lattice cone of determinant
n + 1.  Every primitive ray interior to the cone gives a star subdivision
extracting a single divisor; the two subcone determinants (a, b) carry the
adjunction coefficients (1 - 1/a, 1 - 1/b), so the blow-up is delta-plt
exactly for delta below min(1/a, 1/b).

For the A_n cone <(0,1), (n+1,-n)> a ray (x, y) is strictly interior
exactly when x >= 1 and y > -n*x/(n+1), and its subcone determinants are
a = x and b = n*x + (n+1)*y.  So the rays within a height bound H are
walked column by column, x in 1..H and y from the first value above
-n*x/(n+1) up to H, already in sorted order, at a cost linear in the
rays listed plus H.  A walk that would visit more than MAX_LATTICE_POINTS
points is refused with a DomainError before it starts.

A record is the integer triple (x, y, b) and nothing else: the `an-blowups`
document is the tuple of records, and its JSON and text views print every
derived value (a = x, the different, the threshold) straight from those
integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, cycle, repeat
from math import gcd
from typing import NamedTuple

from .errors import number_text, refuse_above

# Most lattice points enumerate_plt_blowups visits for one (n, H); above it
# the request is refused before the walk.  n = 1, H = 800 visits 800400.
MAX_LATTICE_POINTS = 1_000_000


class PltBlowupRecord(NamedTuple):
    """One interior primitive ray (x, y) with b = n*x + (n+1)*y, the
    determinant of its subcone towards (n+1, -n)."""

    x: int
    y: int
    b: int

    @property
    def ray(self) -> tuple[int, int]:
        return (self.x, self.y)

    @property
    def a(self) -> int:
        """Determinant of the subcone towards (0, 1)."""
        return self.x

    @property
    def diff(self) -> tuple[Fraction, Fraction]:
        """Coefficients (1 - 1/a, 1 - 1/b) of the different on the divisor."""
        return (Fraction(self.x - 1, self.x), Fraction(self.b - 1, self.b))

    @property
    def delta_threshold(self) -> Fraction:
        """The blow-up is delta-plt exactly for delta below min(1/a, 1/b)."""
        return Fraction(1, max(self.x, self.b))


def lattice_points_visited(n: int, height_bound: int) -> int:
    """Points (x, y) enumerate_plt_blowups visits: the sum over x in 1..H of
    H + ceil(n x/(n+1)), where ceil(n x/(n+1)) = x - floor(x/(n+1))."""
    h = height_bound
    periods, rest = divmod(h, n + 1)
    floors = (n + 1) * periods * (periods - 1) // 2 + periods * (rest + 1)
    return h * h + h * (h + 1) // 2 - floors


def enumerate_plt_blowups(n: int, height_bound: int) -> tuple[PltBlowupRecord, ...]:
    """All torus-invariant plt blow-ups from primitive rays strictly inside
    the A_n cone with max(|x|, |y|) <= height_bound, sorted by ray.

    Raises DomainError, before walking, when the walk would visit more than
    MAX_LATTICE_POINTS lattice points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    refuse_above(lattice_points_visited(n, height_bound), MAX_LATTICE_POINTS,
                 f"(n, bound) = ({number_text(n)}, {number_text(height_bound)}) visits",
                 "lattice points")
    m = n + 1
    # PltBlowupRecord(x, y, b), without a call of its Python-level __new__ per ray
    record = partial(tuple.__new__, PltBlowupRecord)
    records = []
    for x in range(1, height_bound + 1):
        nx = n * x
        # -(n*x) // (n+1) is floor(-n*x/(n+1)); the y just above it is
        # already > -x >= -height_bound
        low = -nx // m + 1
        # gcd(x, y) depends on y mod x only, so one period of the coprimality
        # test, cycled, selects the primitive rays of the column
        coprime = [gcd(x, y) == 1 for y in range(low, low + x)]
        ys = compress(range(low, height_bound + 1), cycle(coprime))
        bs = compress(range(nx + m * low, nx + m * height_bound + 1, m), cycle(coprime))
        records += map(record, zip(repeat(x), ys, bs))
    return tuple(records)


def minimal_resolution_rays(n: int) -> tuple[tuple[int, int], ...]:
    """Rays of the exceptional curves of the minimal resolution: (k, 1-k)."""
    return tuple((k, 1 - k) for k in range(1, n + 1))


@dataclass(frozen=True)
class AnBoundsReport:
    """Exhaustive sweep verdict for one A_n germ."""

    sum_bound_ok: bool
    equality_rays_ok: bool
    max_threshold: Fraction
    argmax_ray: tuple[int, int]
    threshold_bound_ok: bool
    max_inside_bound: bool

    @property
    def ok(self) -> bool:
        return self.sum_bound_ok and self.equality_rays_ok and self.threshold_bound_ok


def verify_example_bounds(n: int, height_bound: int) -> AnBoundsReport:
    """Sweep all enumerated rays and check: a + b >= n + 1 with equality
    exactly on the minimal-resolution rays, and max min(1/a, 1/b) < 2/n."""
    if height_bound < n:
        raise ValueError("height_bound must be >= n to reach the minimal resolution")
    records = enumerate_plt_blowups(n, height_bound)
    sum_bound_ok = all(r.a + r.b >= n + 1 for r in records)
    equality_rays = {r.ray for r in records if r.a + r.b == n + 1}
    equality_rays_ok = equality_rays == set(minimal_resolution_rays(n))
    # the largest threshold 1/max(a, b), ties broken by the largest ray
    best = max(records, key=lambda r: (-max(r.a, r.b), r.ray))
    threshold_bound_ok = best.delta_threshold < Fraction(2, n)
    max_inside_bound = max(abs(best.ray[0]), abs(best.ray[1])) < height_bound
    return AnBoundsReport(
        sum_bound_ok=sum_bound_ok,
        equality_rays_ok=equality_rays_ok,
        max_threshold=best.delta_threshold,
        argmax_ray=best.ray,
        threshold_bound_ok=threshold_bound_ok,
        max_inside_bound=max_inside_bound,
    )
