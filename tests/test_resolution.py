import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesing.cones import ConeTriple, fano_angle, is_klt_cone, vertex_log_discrepancy
from conesing.divisors import INF, PointP1, QDivisorP1, SeifertData
from conesing.errors import DomainError, NotContractible, NotLogFano
from conesing.rationals import is_negative_definite, solve_linear
from conesing.resolution import (
    MAX_GRAPH_NODES,
    DualGraph,
    build_graph,
    discrepancies,
)
from reference import (
    elimination_discrepancies,
    intersection_matrix,
    mld_blowup_oracle,
    star_graph,
    toric_mld_oracle,
)


def pt(x) -> PointP1:
    return PointP1.finite(x)


def single_node(d: int) -> DualGraph:
    return build_graph(SeifertData(d))


def test_build_graph_single_node():
    graph = single_node(5)
    assert graph == DualGraph(5)
    assert graph.nodes == (-5,)
    assert graph.edges == ()
    assert graph.central_index == 0


def test_build_graph_a3_chain():
    graph = build_graph(SeifertData(2, ((2, 1), (2, 1))))
    assert graph == DualGraph(2, ((2,), (2,)))
    assert graph.nodes == (-2, -2, -2)
    assert graph.edges == ((0, 1), (0, 2))


def test_build_graph_e8_star():
    graph = build_graph(SeifertData(2, ((2, 1), (3, 2), (5, 4))))
    assert graph.chains == ((2,), (2, 2), (2, 2, 2, 2))
    assert graph.nodes == (-2,) * 8
    assert sum(1 for edge in graph.edges if 0 in edge) == 3  # center carries the three arms


def test_graph_validation():
    with pytest.raises(ValueError):
        DualGraph(0)
    with pytest.raises(ValueError):
        DualGraph(2, ((2, 1),))


def test_intersection_matrix():
    assert intersection_matrix(single_node(3)) == [[-3]]
    chain = DualGraph(2, ((2,),))
    assert intersection_matrix(chain) == [[-2, 1], [1, -2]]


def test_discrepancies_single_node_family():
    for d in range(1, 30):
        report = discrepancies(single_node(d))
        assert report.log_discrepancies == (Fraction(2, d),)
        assert report.mld == Fraction(2, d)
        assert report.is_klt
        assert report.canonical_index == Fraction(2, d).denominator


def test_discrepancies_du_val_graphs_are_crepant():
    for data in [
        SeifertData(2, ((2, 1), (2, 1))),
        SeifertData(2, ((2, 1), (3, 2), (5, 4))),  # E8 star
        SeifertData(2, ((2, 1), (2, 1), (2, 1))),  # D4
    ]:
        report = discrepancies(build_graph(data))
        assert set(report.log_discrepancies) == {Fraction(1)}
        assert report.mld == 1
        assert report.canonical_index == 1


def test_discrepancies_smooth_point():
    report = discrepancies(single_node(1))
    assert report.log_discrepancies == (Fraction(2),)
    assert report.mld == 2


def test_discrepancies_rejects_non_contractible():
    # degree 0: the affine D4 graph
    graph = build_graph(SeifertData(2, ((2, 1),) * 4))
    with pytest.raises(NotContractible):
        discrepancies(graph)


def test_canonical_index_of_odd_cone():
    assert discrepancies(single_node(3)).canonical_index == 3
    assert discrepancies(single_node(4)).canonical_index == 2


def test_central_node_identity_across_triples():
    rng = random.Random(59)
    checked = not_klt = 0
    while checked < 120:
        points = rng.sample([pt(0), pt(1), pt(3), INF], rng.randint(1, 3))
        divisor = QDivisorP1(
            {p: Fraction(rng.randint(-6, 14), rng.randint(1, 9)) for p in points}
        )
        if divisor.degree() <= 0:
            continue
        triple = ConeTriple(divisor)
        graph = build_graph(divisor.normalize_seifert())
        central = discrepancies(graph).log_discrepancies[graph.central_index]
        # the cone is klt exactly when the vertex blow-up has a_0 > 0
        assert is_klt_cone(triple) == (central > 0)
        if central > 0:
            assert central == vertex_log_discrepancy(triple)
            checked += 1
        else:
            with pytest.raises(NotLogFano):
                fano_angle(triple)
            not_klt += 1
    assert not_klt > 0


def test_blowup_oracle_examples():
    assert mld_blowup_oracle(single_node(4), 3) == Fraction(1, 2)
    chain = DualGraph(2, ((2,), (2,)))  # the center in the middle of a chain
    assert mld_blowup_oracle(chain, 3) == 1
    assert mld_blowup_oracle(single_node(1), 5) == 2


def test_blowup_oracle_rejects_non_klt():
    # central -3 with four (2,1) arms solves to a_central = 0: lc, not klt
    graph = build_graph(SeifertData(3, ((2, 1),) * 4))
    assert not discrepancies(graph).is_klt
    with pytest.raises(ValueError):
        mld_blowup_oracle(graph, 2)


def test_toric_oracle_examples():
    assert toric_mld_oracle(SeifertData(2)) == 1
    assert toric_mld_oracle(SeifertData(2, ((2, 1), (2, 1)))) == 1
    for d in range(1, 12):
        assert toric_mld_oracle(SeifertData(d)) == discrepancies(single_node(d)).mld


def test_toric_oracle_rejects_three_branches():
    with pytest.raises(ValueError):
        toric_mld_oracle(SeifertData(2, ((2, 1), (2, 1), (2, 1))))


def _random_seifert(rng: random.Random, max_branches: int) -> SeifertData:
    branches = []
    for _ in range(rng.randint(0, max_branches)):
        alpha = rng.randint(2, 9)
        beta = rng.choice([b for b in range(1, alpha) if gcd(alpha, b) == 1])
        branches.append((alpha, beta))
    return SeifertData(rng.randint(1, 5), tuple(branches))


def test_oracles_agree_with_graph_solve_randomized():
    rng = random.Random(61)
    toric_checked = 0
    blowup_checked = 0
    while toric_checked < 60 or blowup_checked < 25:
        data = _random_seifert(rng, 2)
        if data.degree() <= 0:
            continue
        graph = build_graph(data)
        report = discrepancies(graph)
        if toric_checked < 60:
            assert toric_mld_oracle(data) == report.mld
            toric_checked += 1
        if report.is_klt and len(graph.nodes) <= 6 and blowup_checked < 25:
            assert mld_blowup_oracle(graph, 3) == report.mld
            blowup_checked += 1


def test_negative_definite_iff_positive_degree():
    rng = random.Random(67)
    positive = 0
    nonpositive = 0
    while positive < 60 or nonpositive < 20:
        data = _random_seifert(rng, 3)
        matrix = intersection_matrix(build_graph(data))
        if data.degree() > 0:
            assert is_negative_definite(matrix)
            positive += 1
        else:
            assert not is_negative_definite(matrix)
            nonpositive += 1


@st.composite
def seifert_data(draw) -> SeifertData:
    """1 to 5 branches; small b, so degree <= 0 is drawn often."""
    branches = []
    for _ in range(draw(st.integers(1, 5))):
        alpha = draw(st.integers(2, 9))
        beta = draw(st.sampled_from([b for b in range(1, alpha) if gcd(alpha, b) == 1]))
        branches.append((alpha, beta))
    return SeifertData(draw(st.integers(1, 4)), tuple(branches))


@settings(max_examples=200, deadline=None)
@given(seifert_data())
def test_node_numbering_matches_append_and_link(data):
    graph = build_graph(data)
    assert (graph.nodes, frozenset(graph.edges)) == star_graph(data)
    assert graph.edges == tuple(sorted(graph.edges))


@settings(max_examples=300, deadline=None)
@given(seifert_data())
def test_tree_solve_matches_dense_oracle(data):
    graph = build_graph(data)
    matrix = intersection_matrix(graph)
    definite = is_negative_definite(matrix)
    # Orlik-Wagreich / Pinkham: contractible iff the Seifert degree is positive
    assert definite == (data.degree() > 0)
    if not definite:
        with pytest.raises(NotContractible):
            discrepancies(graph)
        return
    rhs = [-2 - e for e in graph.nodes]
    expected = tuple(1 + x for x in solve_linear(matrix, rhs))
    report = discrepancies(graph)
    assert report.log_discrepancies == expected
    assert report.mld == min(expected)
    assert report.is_klt == all(a > 0 for a in expected)
    assert report.canonical_index == lcm(*(a.denominator for a in expected))


@st.composite
def dual_graphs(draw) -> DualGraph:
    """0 to 5 chains of up to 6 curves; small b, so graphs that are not lc
    (some a < 0) or not contractible (degree <= 0) are drawn often."""
    chains = draw(st.lists(st.lists(st.integers(2, 7), min_size=1, max_size=6), max_size=5))
    return DualGraph(draw(st.integers(1, 5)), tuple(map(tuple, chains)))


@settings(max_examples=400, deadline=None)
@given(dual_graphs())
def test_closed_form_matches_elimination(graph):
    try:
        expected = elimination_discrepancies(graph)
    except NotContractible:
        with pytest.raises(NotContractible):
            discrepancies(graph)
        return
    assert discrepancies(graph) == expected


def _central_by_formula(data: SeifertData) -> Fraction:
    """Vertex identity a_center = (2 - sum(1 - 1/alpha)) / degree."""
    boundary = sum((1 - Fraction(1, alpha) for alpha, _ in data.branches), Fraction(0))
    return (2 - boundary) / data.degree()


@pytest.mark.parametrize(
    "data, size",
    [
        (SeifertData(4, ((101, 100),) * 4), 401),  # star: four arms of 100 (-2)s
        (SeifertData(3, ((1000, 999), (1001, 1000))), 2000),  # chain through a -3
    ],
    ids=["star-401", "chain-2000"],
)
def test_large_graphs_solve_in_linear_time(data, size):
    graph = build_graph(data)
    assert len(graph.nodes) == size
    start = time.perf_counter()
    report = discrepancies(graph)
    assert time.perf_counter() - start < 1.0
    assert report.log_discrepancies[graph.central_index] == _central_by_formula(data)


def test_build_graph_refuses_graphs_above_the_node_cap():
    at_cap = SeifertData(1, ((MAX_GRAPH_NODES, MAX_GRAPH_NODES - 1),))
    assert len(build_graph(at_cap).nodes) == MAX_GRAPH_NODES
    over = SeifertData(1, ((MAX_GRAPH_NODES + 1, MAX_GRAPH_NODES),))
    with pytest.raises(DomainError, match=f"{MAX_GRAPH_NODES + 1} nodes"):
        build_graph(over)
