"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single ``criterion N: PASS/FAIL`` line (run with -s or
-rA to see them) and then asserts.  All comparisons are exact equalities of
rationals -- there are no tolerances anywhere.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from conesing import catalog, cones, groebner, resolution, toric_an
from conesing.checks import _brute_force_members
from conesing.cones import ConeTriple
from conesing.divisors import INF, MARKED_POINTS, PointP1, QDivisorP1
from conesing.errors import NotIsolated
from conesing.rationals import is_negative_definite
from reference import intersection_matrix, mld_blowup_oracle, toric_mld_oracle

CATALOG_PAIRS = [
    (Fraction(1), 1),
    (Fraction(1), 2),
    (Fraction(1, 2), 1),
    (Fraction(1, 2), 2),
]


def _report(criterion: str, failures: list[str], elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {criterion}: {status}{suffix}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def _cone_family_triples():
    return [(d, ConeTriple(QDivisorP1({INF: d}))) for d in range(2, 51)]


def test_criterion_1_cone_family():
    started = time.perf_counter()
    failures = []
    for d, triple in _cone_family_triples():
        graph = resolution.build_graph(triple.polarization.normalize_seifert())
        report = resolution.discrepancies(graph)
        if report.mld != Fraction(2, d):
            failures.append(f"mld({d}) = {report.mld}")
        if cones.fano_angle(triple) != Fraction(d, 2):
            failures.append(f"angle({d}) = {cones.fano_angle(triple)}")
        central = report.log_discrepancies[graph.central_index]
        if cones.vertex_log_discrepancy(triple) != central:
            failures.append(f"vertex({d}) = {central}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report("1 (degree-d cone family)", failures, elapsed)


def test_criterion_2_an_bounds():
    started = time.perf_counter()
    failures = []
    for n in range(1, 21):
        report = toric_an.verify_example_bounds(n, 4 * n)
        if not report.sum_bound_ok:
            failures.append(f"a+b bound fails for n={n}")
        if not report.equality_rays_ok:
            failures.append(f"equality rays wrong for n={n}")
        if report.max_threshold != Fraction(1, (n + 2) // 2):
            failures.append(f"threshold({n}) = {report.max_threshold}")
        if n >= 2 and not report.max_threshold < Fraction(2, n):
            failures.append(f"threshold({n}) not below 2/n")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report("2 (A_n plt blow-up bounds)", failures, elapsed)


def test_criterion_3_tjurina_divergence():
    started = time.perf_counter()
    failures = []
    for n in range(4, 9):
        value = groebner.tjurina_family(n, 1)
        if value != n + 1:
            failures.append(f"tjurina({n},1) = {value}, stated n+1 = {n + 1}")
    value = groebner.tjurina_family(6, Fraction(2, 3))
    if value != 7:
        failures.append(f"tjurina(6,2/3) = {value}, stated 7")
    try:
        groebner.tjurina(groebner.family_polynomial(6, 0))
        failures.append("t=0 member did not raise NOT_ISOLATED")
    except NotIsolated:
        pass
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    # For t != 0 these germs are suspended D_{n+1} singularities, which are
    # quasi-homogeneous up to coordinates, so Tjurina = Milnor = n+1.
    _report("3 (Tjurina divergence)", failures, elapsed)


def test_criterion_4_catalog_finiteness_and_completeness():
    started = time.perf_counter()
    failures = []
    sizes = {(Fraction(1), 1): 2, (Fraction(1, 2), 1): 4}
    for (epsilon0, n_isotropy), expected in sizes.items():
        entries = catalog.enumerate_catalog(epsilon0, n_isotropy)
        if len(entries) != expected:
            failures.append(
                f"catalog({epsilon0},{n_isotropy}) has {len(entries)} entries"
            )
        swept = _brute_force_members(epsilon0, n_isotropy)
        forms = {row.entry().triple.polarization for row in entries}
        if swept != forms:
            failures.append(
                f"brute force disagrees for ({epsilon0},{n_isotropy}): "
                f"{sorted(map(str, swept ^ forms))}"
            )
    for epsilon0, n_isotropy in [(Fraction(1), 2), (Fraction(1, 2), 2)]:
        entries = [row.entry() for row in catalog.enumerate_catalog(epsilon0, n_isotropy)]
        consistency = catalog.catalog_consistency_check(entries)
        if not consistency.ok:
            failures.append(
                f"consistency failures for ({epsilon0},{n_isotropy}): "
                f"{consistency.failures()}"
            )
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report("4 (catalog finiteness/completeness)", failures, elapsed)


def _corpus_seiferts():
    data = [
        triple.polarization.normalize_seifert()
        for _, triple in _cone_family_triples()
    ]
    for epsilon0, n_isotropy in CATALOG_PAIRS:
        for entry in catalog.enumerate_catalog(epsilon0, n_isotropy):
            data.append(entry.seifert)
    return data


def test_criterion_5_oracle_equivalence():
    failures = []
    for seifert in _corpus_seiferts():
        graph = resolution.build_graph(seifert)
        report = resolution.discrepancies(graph)
        if len(seifert.branches) <= 2:
            toric = toric_mld_oracle(seifert)
            if toric != report.mld:
                failures.append(f"toric oracle {toric} != {report.mld} on {seifert}")
        if report.is_klt:
            simulated = mld_blowup_oracle(graph, 4)
            if simulated != report.mld:
                failures.append(
                    f"blow-up oracle {simulated} != {report.mld} on {seifert}"
                )
    _report("5 (oracle equivalence)", failures)


def test_criterion_6_structural_invariants():
    failures = []
    # negative definiteness across the enumeration sweep
    for epsilon0, n_isotropy in CATALOG_PAIRS:
        # the loose window 0 < deg D <= 2/epsilon0 over the (N+1)^2 grid
        top = math.floor(Fraction(2 * n_isotropy) / epsilon0)
        for a0 in range(n_isotropy + 1):
            for a1 in range(n_isotropy + 1):
                for a_inf in range(-(a0 + a1) + 1, top - (a0 + a1) + 1):
                    divisor = QDivisorP1(
                        {
                            point: Fraction(num, n_isotropy)
                            for point, num in zip(MARKED_POINTS, (a0, a1, a_inf))
                        }
                    )
                    if divisor.degree() <= 0:
                        continue
                    matrix = intersection_matrix(
                        resolution.build_graph(divisor.normalize_seifert())
                    )
                    if not is_negative_definite(matrix):
                        failures.append(f"not negative definite: {divisor}")
    # Du Val graphs are crepant with canonical index 1
    e8 = QDivisorP1.parse("0:1/2,1:1/3,inf:-4/5")
    if e8.degree() != Fraction(1, 30):
        failures.append("E8 divisor degree wrong")
    du_val = [
        e8.normalize_seifert(),
        QDivisorP1.parse("0:1/2,inf:1/2").normalize_seifert(),
    ]
    for data in du_val:
        report = resolution.discrepancies(resolution.build_graph(data))
        if set(report.log_discrepancies) != {Fraction(1)}:
            failures.append(f"Du Val graph {data} not crepant")
        if report.canonical_index != 1:
            failures.append(f"Du Val graph {data} has index {report.canonical_index}")
    # Veronese isotropy law on 500 randomized triples
    rng = random.Random(509)
    checked = 0
    while checked < 500:
        points = rng.sample(
            [PointP1.finite(0), PointP1.finite(1), PointP1.finite(2), INF],
            rng.randint(1, 3),
        )
        divisor = QDivisorP1(
            {p: Fraction(rng.randint(-8, 20), rng.randint(1, 12)) for p in points}
        )
        if divisor.degree() <= 0:
            continue
        triple = ConeTriple(divisor)
        m = rng.randint(1, 12)
        if cones.max_isotropy(triple) > m * cones.max_isotropy(cones.veronese(triple, m)):
            failures.append(f"isotropy law fails for {divisor}, m={m}")
        cartier = divisor.cartier_index()
        if cones.max_isotropy(cones.veronese(triple, cartier)) != 1:
            failures.append(f"Cartier-index Veronese not isotropy-free: {divisor}")
        checked += 1
    _report("6 (structural invariants)", failures)


def test_criterion_7_degeneration_identity():
    failures = []
    for epsilon0, n_isotropy in CATALOG_PAIRS:
        for row in catalog.enumerate_catalog(epsilon0, n_isotropy):
            entry = row.entry()
            divisor = entry.triple.polarization
            m = divisor.cartier_index()
            qs = [q for _, _, q in divisor.fractional_profile()]
            fiber = cones.central_fiber_of_plt_blowup(qs, divisor.degree(), m)
            if cones.max_isotropy(fiber.quotient) != 1:
                failures.append(f"quotient not isotropy-free for {divisor}")
            expected = cones.veronese(entry.triple, m).polarization.canonical_form()
            actual = fiber.quotient.polarization.canonical_form()
            if actual != expected:
                failures.append(
                    f"quotient {actual} != veronese image {expected} for {divisor}"
                )
            if fiber.degree != m or fiber.fiber_degree != divisor.degree():
                failures.append(f"fiber degrees wrong for {divisor}")
            recorded = sorted(
                q for _, _, q in fiber.fiber_diff.fractional_profile()
            )
            if recorded != sorted(qs):
                failures.append(f"fiber diff profile wrong for {divisor}")
            # torus-fixed cones reproduce themselves on the nose
            if m == 1 and fiber.quotient.polarization.canonical_form() != (
                divisor.canonical_form()
            ):
                failures.append(f"fixed cone {divisor} not reproduced")
    _report("7 (degeneration identity)", failures)
