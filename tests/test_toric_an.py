from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesing.toric_an import (
    an_cone,
    enumerate_plt_blowups,
    lattice_points_visited,
    minimal_resolution_rays,
    verify_example_bounds,
)
from reference import an_blowups_box_scan


def record_for(n: int, ray: tuple[int, int], bound: int = 12):
    match = [r for r in enumerate_plt_blowups(n, bound) if r.ray == ray]
    assert match, f"ray {ray} not enumerated for n={n}"
    return match[0]


def test_an_cone():
    assert an_cone(1).u1 == (0, 1) and an_cone(1).u2 == (2, -1)
    assert an_cone(3).u2 == (4, -3)
    assert an_cone(7).u2 == (8, -7)
    assert an_cone(5).index() == 6
    with pytest.raises(ValueError):
        an_cone(0)


def test_enumerated_records():
    r = record_for(3, (2, -1))
    assert (r.a, r.b) == (2, 2)
    assert r.diff == (Fraction(1, 2), Fraction(1, 2))
    assert r.delta_threshold == Fraction(1, 2)

    r = record_for(3, (1, 0))
    assert (r.a, r.b) == (1, 3)
    assert r.diff == (Fraction(0), Fraction(2, 3))
    assert r.delta_threshold == Fraction(1, 3)

    r = record_for(1, (1, 0))
    assert (r.a, r.b) == (1, 1)
    assert r.diff == (Fraction(0), Fraction(0))
    assert r.delta_threshold == Fraction(1)


def test_rays_are_strictly_interior_and_primitive():
    from math import gcd

    cone = an_cone(4)
    for r in enumerate_plt_blowups(4, 10):
        assert gcd(abs(r.ray[0]), abs(r.ray[1])) == 1
        assert r.a >= 1 and r.b >= 1
        # boundary rays never appear
        assert r.ray not in (cone.u1, cone.u2)


def test_minimal_resolution_rays_have_split_determinants():
    for n in (2, 5, 9):
        for k, ray in enumerate(minimal_resolution_rays(n), start=1):
            record = record_for(n, ray, bound=4 * n)
            assert (record.a, record.b) == (k, n + 1 - k)


def test_verify_bounds_examples():
    report = verify_example_bounds(3, 10)
    assert report.ok
    assert report.max_threshold == Fraction(1, 2)
    assert report.argmax_ray == (2, -1)

    report4 = verify_example_bounds(4, 10)
    assert report4.ok
    assert report4.max_threshold <= Fraction(1, 3)

    report1 = verify_example_bounds(1, 10)
    assert report1.ok
    assert report1.max_threshold == 1
    assert report1.argmax_ray == (1, 0)


def test_bounds_and_threshold_law_up_to_twelve():
    for n in range(1, 13):
        report = verify_example_bounds(n, 4 * n)
        assert report.sum_bound_ok
        assert report.equality_rays_ok
        assert report.max_threshold == Fraction(1, (n + 2) // 2)
        assert report.threshold_bound_ok
        assert report.max_inside_bound


def test_verify_bounds_requires_reachable_minimal_resolution():
    with pytest.raises(ValueError):
        verify_example_bounds(6, 5)


@st.composite
def an_and_bound(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return n, draw(st.integers(min_value=1, max_value=4 * n + 8))


@settings(max_examples=60, deadline=None)
@given(an_and_bound())
def test_interior_walk_matches_box_scan(case):
    n, bound = case
    expected = an_blowups_box_scan(n, bound)
    records = enumerate_plt_blowups(n, bound)
    assert [(r.ray, r.a, r.b, r.diff, r.delta_threshold) for r in records] == expected
    # column x visits y from floor(-n x/(n+1)) + 1 up to the bound
    walked = sum(bound - (-(n * x) // (n + 1)) for x in range(1, bound + 1))
    assert lattice_points_visited(n, bound) == walked
    if bound >= n:
        # the integer argmax key picks the record the Fraction key picks
        best = max(expected, key=lambda row: (row[4], row[0]))
        report = verify_example_bounds(n, bound)
        assert (report.argmax_ray, report.max_threshold) == (best[0], best[4])

