"""Built-in regression suite.

Re-runs the package's reference computations end to end and reports one
machine-readable pass/fail record per assertion: the degree-d cone family,
the A_n blow-up bounds, the diverging Tjurina family, and catalog
consistency plus completeness for small parameter pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import catalog, cones, groebner, resolution, toric_an
from .cones import ConeTriple
from .divisors import INF, MARKED_POINTS, QDivisorP1
from .errors import NotIsolated
from .rationals import format_rational


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    expected: str
    actual: str


def _compare(check_id: str, expected, actual) -> CheckResult:
    return CheckResult(check_id, expected == actual, str(expected), str(actual))


def check_cone_family(max_degree: int = 50) -> list[CheckResult]:
    """Cone over the degree-d rational normal curve: mld = 2/d, Fano angle
    d/2, and the vertex discrepancy matches the graph's central node."""
    results = []
    for d in range(2, max_degree + 1):
        triple = ConeTriple(QDivisorP1({INF: d}))
        graph = resolution.build_graph(triple.polarization.normalize_seifert())
        report = resolution.discrepancies(graph)
        results.append(
            _compare(f"cone-degree-{d}-mld", format_rational(Fraction(2, d)),
                     format_rational(report.mld))
        )
        results.append(
            _compare(f"cone-degree-{d}-fano-angle", format_rational(Fraction(d, 2)),
                     format_rational(cones.fano_angle(triple)))
        )
        central = report.log_discrepancies[graph.central_index]
        results.append(
            _compare(
                f"cone-degree-{d}-vertex-identity",
                format_rational(cones.vertex_log_discrepancy(triple)),
                format_rational(central),
            )
        )
    return results


def check_an_bounds(max_n: int = 20) -> list[CheckResult]:
    """A_n sweeps: a + b >= n + 1, equality on the minimal resolution, and
    the sharp plt threshold 1/ceil((n+1)/2) below 2/n."""
    results = []
    for n in range(1, max_n + 1):
        report = toric_an.verify_example_bounds(n, 4 * n)
        results.append(_compare(f"an-{n}-sum-bound", True, report.sum_bound_ok))
        results.append(
            _compare(f"an-{n}-equality-rays", True, report.equality_rays_ok)
        )
        sharp = Fraction(1, (n + 2) // 2)
        results.append(
            _compare(
                f"an-{n}-threshold",
                format_rational(sharp),
                format_rational(report.max_threshold),
            )
        )
        results.append(
            _compare(f"an-{n}-threshold-below-2/n", True, report.threshold_bound_ok)
        )
    return results


def check_tjurina_family() -> list[CheckResult]:
    """Tjurina numbers across the diverging family (suspended D_{n+1}
    germs: value n + 1), one non-unit deformation parameter, and the
    non-isolated limit member."""
    results = []
    for n in range(4, 9):
        results.append(
            _compare(f"tjurina-{n}", n + 1, groebner.tjurina_family(n, 1))
        )
    results.append(
        _compare("tjurina-6-t-2/3", 7, groebner.tjurina_family(6, Fraction(2, 3)))
    )
    try:
        groebner.tjurina(groebner.family_polynomial(6, 0))
        results.append(CheckResult("tjurina-limit-not-isolated", False,
                                   "NOT_ISOLATED", "no error"))
    except NotIsolated:
        results.append(CheckResult("tjurina-limit-not-isolated", True,
                                   "NOT_ISOLATED", "NOT_ISOLATED"))
    return results


def _brute_force_members(epsilon0: Fraction, n_isotropy: int) -> set[QDivisorP1]:
    """Independent sweep: every divisor with denominators dividing N and
    support in the marked points, over a box wide enough that anything of
    degree up to 2N/epsilon0 + 3 appears up to linear equivalence."""
    degree_cap = Fraction(2 * n_isotropy) / epsilon0 + 3
    lo = -3 * n_isotropy
    hi = int(degree_cap * n_isotropy) + 3 * n_isotropy
    members = set()
    for k0 in range(lo, hi + 1):
        for k1 in range(lo, hi + 1):
            for k_inf in range(lo, hi + 1):
                coeffs = (Fraction(k0, n_isotropy), Fraction(k1, n_isotropy),
                          Fraction(k_inf, n_isotropy))
                degree = sum(coeffs)
                if not (0 < degree <= degree_cap):
                    continue
                divisor = QDivisorP1(dict(zip(MARKED_POINTS, coeffs)))
                triple = ConeTriple(divisor)
                if catalog.is_member(triple, epsilon0, n_isotropy):
                    members.add(divisor.canonical_form())
    return members


def check_catalogs() -> list[CheckResult]:
    """Catalog sizes, internal consistency, and brute-force completeness."""
    results = []
    expected_sizes = {(Fraction(1), 1): 2, (Fraction(1, 2), 1): 4}
    swept_catalogs = []
    for epsilon0, n_isotropy in [
        (Fraction(1), 1),
        (Fraction(1), 2),
        (Fraction(1, 2), 1),
        (Fraction(1, 2), 2),
    ]:
        label = f"catalog-{format_rational(epsilon0)}-{n_isotropy}"
        entries = catalog.enumerate_catalog(epsilon0, n_isotropy)
        if (epsilon0, n_isotropy) in expected_sizes:
            results.append(
                _compare(f"{label}-size", expected_sizes[(epsilon0, n_isotropy)],
                         len(entries))
            )
            swept_catalogs.append((label, epsilon0, n_isotropy, entries))
        consistency = catalog.catalog_consistency_check(entries)
        results.append(
            _compare(f"{label}-consistency", 0, len(consistency.failures()))
        )
    for label, epsilon0, n_isotropy, entries in swept_catalogs:
        catalog_forms = {entry.triple.polarization for entry in entries}
        swept = _brute_force_members(epsilon0, n_isotropy)
        results.append(
            _compare(f"{label}-completeness", set(), swept - catalog_forms)
        )
    return results


def run_paper_checks() -> list[CheckResult]:
    """The full regression suite, in a fixed order."""
    results = []
    results.extend(check_cone_family())
    results.extend(check_an_bounds())
    results.extend(check_tjurina_family())
    results.extend(check_catalogs())
    return results
