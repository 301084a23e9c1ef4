import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from conesing import catalog, cones, resolution
from conesing.catalog import catalog_consistency_check, enumerate_catalog, is_member
from conesing.cli import _enumerate_json
from conesing.cones import ConeTriple
from conesing.divisors import INF, MARKED_POINTS, ONE, ZERO, QDivisorP1
from conesing.errors import DomainError
from reference import catalog_by_objects


def forms(rows) -> set[QDivisorP1]:
    return {row.entry().triple.polarization for row in rows}


def entries_of(epsilon0, n) -> list[catalog.CatalogEntry]:
    return [row.entry() for row in enumerate_catalog(epsilon0, n)]


def test_enumerate_small_catalogs():
    assert forms(enumerate_catalog(Fraction(1), 1)) == {
        QDivisorP1({INF: 1}),
        QDivisorP1({INF: 2}),
    }
    assert forms(enumerate_catalog(Fraction(1, 2), 1)) == {
        QDivisorP1({INF: d}) for d in (1, 2, 3, 4)
    }
    assert forms(enumerate_catalog(Fraction(2), 1)) == {QDivisorP1({INF: 1})}


def test_enumerate_smooth_entry_invariants():
    entries = entries_of(Fraction(1), 1)
    smooth = next(e for e in entries if e.triple.polarization.degree() == 1)
    assert smooth.mld == 2
    assert smooth.fano_angle == Fraction(1, 2)
    assert smooth.max_isotropy == 1
    assert smooth.canonical_index == 1
    cone = next(e for e in entries if e.triple.polarization.degree() == 2)
    assert cone.mld == 1


def test_enumerate_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        enumerate_catalog(Fraction(0), 1)
    with pytest.raises(ValueError):
        enumerate_catalog(Fraction(-1), 2)
    with pytest.raises(ValueError):
        enumerate_catalog(Fraction(5, 2), 1)


def test_is_member_examples():
    cubic = ConeTriple(QDivisorP1({INF: 3}))
    assert is_member(cubic, Fraction(2, 3), 1)
    assert not is_member(cubic, Fraction(1), 1)
    a3 = ConeTriple(QDivisorP1.parse("0:1/2,inf:1/2"))
    assert is_member(a3, Fraction(1), 2)
    assert not is_member(a3, Fraction(1), 1)  # isotropy 2 exceeds the bound


def test_consistency_check_passes_on_fresh_catalogs():
    for epsilon0, n in [(Fraction(1), 1), (Fraction(1, 2), 2), (Fraction(1), 2)]:
        report = catalog_consistency_check(entries_of(epsilon0, n))
        assert report.ok, report.failures()


def test_consistency_check_flags_corrupted_entry():
    entries = entries_of(Fraction(1, 2), 2)
    target = max(entries, key=lambda e: e.max_isotropy)
    corrupted = replace(target, fano_angle=target.fano_angle * 100)
    report = catalog_consistency_check([corrupted])
    assert not report.ok
    assert any(c.check == "vertex-discrepancy-identity" for c in report.failures())

    halved = replace(target, mld=target.mld / 2)
    halved_report = catalog_consistency_check([halved])
    # the vertex identity is untouched; only mld-dependent checks may trip
    assert all(
        c.check != "vertex-discrepancy-identity" for c in halved_report.failures()
    )


def test_consistency_check_flags_a_wrong_isotropy():
    # too small and too large: max_isotropy must be the Cartier index itself
    entries = [e for e in entries_of(Fraction(1, 2), 4) if e.max_isotropy > 1]
    assert len(entries) == 15
    for entry in entries:
        for wrong in (1, 100 * entry.max_isotropy):
            report = catalog_consistency_check([replace(entry, max_isotropy=wrong)])
            assert [c.check for c in report.failures()] == ["isotropy-cartier-identity"]


def _full_grid(epsilon0, n) -> list[QDivisorP1]:
    """The (N+1)^2 grid of a0, a1 in [0, N], each with its loose a_inf
    window -(a0 + a1) < a_inf <= 2N/epsilon0 - (a0 + a1), that is
    0 < deg D <= 2/epsilon0."""
    top = math.floor(Fraction(2 * n) / epsilon0)
    grid = [
        (a0, a1, a_inf)
        for a0 in range(n + 1)
        for a1 in range(n + 1)
        for a_inf in range(-(a0 + a1) + 1, top - (a0 + a1) + 1)
    ]
    return [
        QDivisorP1(dict(zip(MARKED_POINTS, (Fraction(a, n) for a in nums))))
        for nums in grid
    ]


def test_dedup_soundness():
    for epsilon0, n in [(Fraction(1), 2), (Fraction(1, 2), 2)]:
        entries = enumerate_catalog(epsilon0, n)
        assert len(forms(entries)) == len(entries)
        kept = {
            (entry.seifert.b, tuple(sorted(entry.seifert.branches))) for entry in entries
        }
        # every candidate surviving the filters has the seifert data of a kept entry
        for divisor in _full_grid(epsilon0, n):
            if divisor.degree() <= 0:
                continue
            if not is_member(ConeTriple(divisor), epsilon0, n):
                continue
            data = divisor.normalize_seifert()
            assert (data.b, tuple(sorted(data.branches))) in kept


def test_catalog_walks_each_canonical_form_once(monkeypatch):
    true_shapes = catalog._klt_shapes
    true_solver = resolution.discrepancies
    for epsilon0, n in [
        (Fraction(1), 1),
        (Fraction(2), 1),
        (Fraction(1), 2),
        (Fraction(1, 2), 3),
        (Fraction(2, 3), 4),
        (Fraction(1, 3), 5),
    ]:
        seen: list[tuple[int, int, int]] = []
        solves = []

        def recording(epsilon0, n_isotropy):
            for shape in true_shapes(epsilon0, n_isotropy):
                (r0, r1, r2), _, _, parts = shape
                seen.extend((r0, r1, r2 + n_isotropy * m) for m in parts)
                yield shape

        def counting(graph):
            solves.append(graph)
            return true_solver(graph)

        monkeypatch.setattr(catalog, "_klt_shapes", recording)
        monkeypatch.setattr(resolution, "discrepancies", counting)
        entries = enumerate_catalog(epsilon0, n)
        monkeypatch.undo()
        assert len(solves) == len(seen), (epsilon0, n)  # every form walked is solved
        divisors = [
            QDivisorP1(dict(zip(MARKED_POINTS, (Fraction(a, n) for a in nums))))
            for nums in seen
        ]
        assert len(set(divisors)) == len(divisors), (epsilon0, n)
        assert all(divisor.canonical_form() == divisor for divisor in divisors)
        # the klt canonical forms of the loose grid past the vertex bound
        expected = {
            form
            for form in {divisor.canonical_form() for divisor in _full_grid(epsilon0, n)}
            if cones.is_klt_cone(ConeTriple(form))
            and cones.vertex_log_discrepancy(ConeTriple(form)) >= epsilon0
        }
        assert set(divisors) == expected, (epsilon0, n)
        assert all(entry.max_isotropy <= n for entry in entries)
        if n >= 2:  # ties a0 == a1 are walked too
            assert any(d.coeff(ZERO) == d.coeff(ONE) != 0 for d in divisors)


def test_walk_keeps_the_seifert_data_it_solved(monkeypatch):
    # (1/6, 6) solves 117 candidates; each kept row holds the very
    # SeifertData its graph was solved from, not a copy built again
    true_solver = resolution.discrepancies
    solved = []

    def recording(graph):
        solved.append(graph.seifert)
        return true_solver(graph)

    monkeypatch.setattr(resolution, "discrepancies", recording)
    rows = enumerate_catalog(Fraction(1, 6), 6)
    assert len(solved) == 117
    solved_ids = {id(seifert) for seifert in solved}  # all alive, so distinct
    assert rows and all(id(row.seifert) in solved_ids for row in rows)


def test_walk_holds_no_divisor_objects():
    # 19501 rows of text, Seifert form and invariants; the entries with
    # their divisor and cone objects held 14.8 MB (Python 3.11)
    tracemalloc.start()
    try:
        rows = enumerate_catalog(Fraction(1, 1000), 6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 19501
    assert held < 11_000_000


def _solves_planned(epsilon0, n) -> int:
    return sum(len(parts) for *_, parts in catalog._klt_shapes(epsilon0, n))


def test_enumerate_refuses_walks_above_the_cap(monkeypatch):
    assert _solves_planned(Fraction(1, 1000), 6) == 19501
    with pytest.raises(DomainError, match="1950001 graph solves"):
        enumerate_catalog(Fraction(1, 100000), 6)
    with pytest.raises(DomainError, match="200002 graph solves"):
        enumerate_catalog(Fraction(1, 100001), 1)
    with pytest.raises(DomainError, match="residue shapes"):  # from the shape count alone
        enumerate_catalog(Fraction(2), 10**6)

    # exactly at the cap the request is admitted: it reaches its first solve
    class FirstSolve(Exception):
        pass

    def stop(graph):
        raise FirstSolve

    assert _solves_planned(Fraction(1, 100000), 1) == catalog.MAX_CANDIDATES == 200000
    monkeypatch.setattr(resolution, "discrepancies", stop)
    with pytest.raises(FirstSolve):
        enumerate_catalog(Fraction(1, 100000), 1)


@pytest.mark.parametrize(
    ("epsilon0", "n", "solves"),
    [(Fraction(1, 2), 4, 22), (Fraction(1, 6), 6, 117), (Fraction(1, 10), 10, 314)],
)
def test_catalog_solves_only_candidates_past_the_vertex_bound(monkeypatch, epsilon0, n, solves):
    true_solver = resolution.discrepancies
    calls = []

    def counting(graph):
        calls.append(graph)
        return true_solver(graph)

    monkeypatch.setattr(resolution, "discrepancies", counting)
    entries = enumerate_catalog(epsilon0, n)
    assert len(calls) == solves
    assert len(entries) <= solves


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_classifier_matches_divisor_objects(n):
    # floors of room N / (epsilon0 isotropy) with numerators other than 1
    others = [Fraction(2), Fraction(3, 2), Fraction(2, 3), Fraction(3, 7), Fraction(5, 11)]
    for epsilon0 in [Fraction(1, k) for k in range(1, n + 1)] + others:
        assert entries_of(epsilon0, n) == list(catalog_by_objects(epsilon0, n)), epsilon0


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_json_text_is_the_json_document(n):
    # the template against the indenting encoder: the zero-branch entry
    # inf:1, negative coefficients at infinity, and an empty catalog
    others = [Fraction(2), Fraction(3, 2), Fraction(2, 3), Fraction(3, 7), Fraction(5, 11)]
    for epsilon0 in [Fraction(1, k) for k in range(1, n + 1)] + others:
        for rows in (enumerate_catalog(epsilon0, n), ()):
            document = {
                "epsilon0": str(epsilon0),
                "N": n,
                "entries": [
                    {
                        "divisor": str(entry.triple.polarization),
                        "seifert": {
                            "b": entry.seifert.b,
                            "branches": [list(branch) for branch in entry.seifert.branches],
                        },
                        "mld": str(entry.mld),
                        "fano_angle": str(entry.fano_angle),
                        "max_isotropy": entry.max_isotropy,
                        "canonical_index": entry.canonical_index,
                    }
                    for entry in map(catalog.CatalogRow.entry, rows)
                ],
            }
            expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
            assert _enumerate_json((epsilon0, n, rows)) == expected, epsilon0


@pytest.mark.parametrize(
    ("epsilon0", "n", "digest"),
    [
        (Fraction(1), 2, "fd22c85c5855ca4eb6dbc07a03b284450f4d0308342c90c4409730bf4401caca"),
        (Fraction(1, 2), 4, "b4ee6229843f8667d5e8f844e880a97a4aad63dd7e13a4f48e7b094b8c39a657"),
        (Fraction(1, 6), 6, "bf49bbd6b9bffc3098ea6e914d261092ae8320a0f404b4402d1fd6dead3ff9da"),
        (Fraction(1, 10), 10, "9478c9cb8b547860a9e8d3be56134e1bb922b1a16fba7c3ad8cddb677721be6e"),
    ],
)
def test_catalog_json_digest_is_pinned(epsilon0, n, digest):
    text = _enumerate_json((epsilon0, n, enumerate_catalog(epsilon0, n)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_vertex_bound_sharp_on_integral_entries():
    # integral polarization: trivial isotropies, so the delta-free quotient
    # is 1-lc and the vertex bound min(1, 1/r) applies; sharp for degree >= 2
    for epsilon0, n in [(Fraction(1, 2), 1), (Fraction(1, 2), 2)]:
        for entry in entries_of(epsilon0, n):
            if entry.triple.polarization.fractional_profile():
                continue
            bound = min(Fraction(1), 1 / entry.fano_angle)
            assert entry.mld >= bound
            if entry.triple.polarization.degree() >= 2:
                assert entry.mld == bound == 1 / entry.fano_angle


def test_catalog_monotone_in_parameters():
    base = forms(enumerate_catalog(Fraction(1), 1))
    assert base <= forms(enumerate_catalog(Fraction(1, 2), 1))
    assert base <= forms(enumerate_catalog(Fraction(1), 2))
    assert forms(enumerate_catalog(Fraction(1, 2), 1)) <= forms(
        enumerate_catalog(Fraction(1, 2), 2)
    )


def test_entries_sorted_by_degree_then_mld():
    entries = entries_of(Fraction(1, 2), 2)
    keys = [(e.triple.polarization.degree(), e.mld) for e in entries]
    assert keys == sorted(keys)


def test_catalog_json_is_byte_stable():
    entries = enumerate_catalog(Fraction(1), 2)
    first = _enumerate_json((Fraction(1), 2, entries))
    second = _enumerate_json((Fraction(1), 2, enumerate_catalog(Fraction(1), 2)))
    assert first == second
    assert '"epsilon0": "1"' in first
    assert "." not in first  # rationals are p/q strings, never decimals
