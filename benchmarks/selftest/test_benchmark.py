"""Self-test of the benchmark's tracing and oracles.

Run from the root of a checkout:

    python3 -m pytest benchmarks/selftest -q
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer, self_times  # noqa: E402

from conesing import cli, groebner, resolution  # noqa: E402

SAMPLE_ARGV = [
    ("resolve", "--divisor=0:1/2,1:1/3,inf:-4/5", "--format", "json"),
    ("mld", "--divisor=0:1/7,1:1/7,2:1/7,3:1/7,inf:1/7"),
    ("mld", "--divisor=-1:1/2,inf:-1"),
    ("enumerate", "--epsilon0", "1/2", "--isotropy", "3", "--format", "json"),
    ("tjurina", "--poly", "x^4+y^5+z^6+1/2*x*y*z"),
    ("tjurina", "--poly", "x^3+y^3+z^2-2*z^3+z^4"),
    ("an-blowups", "--n", "6", "--format", "json"),
]


def run(argv, tracer=None, request_id=0):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.request_id = request_id
        code = cli.main(list(argv))
        if tracer is not None:
            tracer.request_id = None
    return code, out.getvalue(), err.getvalue()


def namespace_snapshot():
    return {
        (name, key): value
        for name, module in sorted(sys.modules.items())
        if name == "conesing" or name.startswith("conesing.")
        for key, value in vars(module).items()
    }


def test_wrappers_are_installed_everywhere_and_restored():
    before = namespace_snapshot()
    methods = {m: vars(cli.QDivisorP1)[m] for m in ("canonical_form", "normalize_seifert")}
    tracer = Tracer()
    tracer.install()
    try:
        # imported by name into resolution, and re-exported by the package
        assert resolution.solve_linear.__wrapped__ is before[("conesing.rationals", "solve_linear")]
        assert sys.modules["conesing"].solve_linear is resolution.solve_linear
        assert groebner.normal_form is not before[("conesing.groebner", "normal_form")]
        assert all(vars(cli.QDivisorP1)[m] is not f for m, f in methods.items())
        assert len(tracer._patches) > len(TARGETS)
    finally:
        tracer.uninstall()
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(vars(cli.QDivisorP1)[m] is f for m, f in methods.items())


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    tracer.install()
    try:
        for request_id, argv in enumerate(SAMPLE_ARGV):
            run(argv, tracer, request_id)
        run(SAMPLE_ARGV[0])  # outside a request: not traced
    finally:
        tracer.uninstall()
    spans = tracer.spans
    roots = [s for s in spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"] * len(SAMPLE_ARGV)
    assert [s[4] for s in roots] == list(range(len(SAMPLE_ARGV)))
    for name, start, end, parent, request in spans:
        assert start <= end
        if parent is not None:
            _, p_start, p_end, _, p_request = spans[parent]
            assert p_start <= start and end <= p_end and request == p_request
    totals = {}
    for (name, seconds), span in zip(self_times(spans), spans):
        assert seconds >= -1e-12, name
        totals[span[4]] = totals.get(span[4], 0.0) + seconds
    for root in roots:
        assert abs(totals[root[4]] - (root[2] - root[1])) < 1e-9
    assert tracer.counts["groebner.normal_form.zero"] > 0
    assert tracer.counts["catalog.discrepancies_calls"] > 0


def test_self_time_subtracts_only_child_coverage():
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 3.0, 0, 0],
        ["c", 1.5, 2.0, 1, 0],
        ["d", 4.0, 9.0, 0, 0],
    ]
    assert [round(s, 9) for _, s in self_times(spans)] == [3.0, 1.5, 0.5, 5.0]


def test_stdout_is_identical_with_tracing_on_and_off():
    argvs = list(SAMPLE_ARGV) + [r.argv for r in workloads.graph_cycle(7, 0)[:8]]
    plain = [run(argv) for argv in argvs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run(argv, tracer, i) for i, argv in enumerate(argvs)]
    finally:
        tracer.uninstall()
    assert traced == plain


def test_workloads_are_seeded():
    for cycle in (workloads.catalog_cycle, workloads.graph_cycle, workloads.algebra_cycle):
        assert cycle(5, 1) == cycle(5, 1)
        assert cycle(5, 1) != cycle(6, 1)


def test_graph_oracle_accepts_answers_and_rejects_tampering():
    terms = [("0", Fraction(1, 2)), ("1", Fraction(1, 3)), ("inf", Fraction(-4, 5))]
    resolve = workloads.Request("resolve", SAMPLE_ARGV[0], terms)
    code, out, err = run(resolve.argv)
    assert oracles.check_graph(resolve, code, out, err) == oracles.PASS
    doc = json.loads(out)
    doc["log_discrepancies"][-1] = "1/7"
    assert oracles.check_graph(resolve, 0, json.dumps(doc), "") == oracles.UNEXPECTED
    nonlc = workloads.Request("mld", SAMPLE_ARGV[1],
                              [(p, Fraction(1, 7)) for p in ("0", "1", "2", "3", "inf")])
    code, out, err = run(nonlc.argv)
    assert oracles.check_graph(nonlc, code, out, err) == oracles.KNOWN_WRONG
    assert oracles.check_graph(nonlc, 0, "-inf\n", "") == oracles.PASS
    nonlc_resolve = workloads.Request("resolve", ("resolve", nonlc.argv[1], "--format", "json"), nonlc.data)
    code, out, err = run(nonlc_resolve.argv)
    assert oracles.check_graph(nonlc_resolve, code, out, err) == oracles.KNOWN_WRONG
    doc = json.loads(out)
    doc["mld"] = "-inf"
    assert oracles.check_graph(nonlc_resolve, 0, json.dumps(doc), "") == oracles.PASS
    doc["mld"] = "1/7"
    assert oracles.check_graph(nonlc_resolve, 0, json.dumps(doc), "") == oracles.UNEXPECTED
    nocone = workloads.Request("mld", SAMPLE_ARGV[2], [("-1", Fraction(1, 2)), ("inf", Fraction(-1))])
    assert oracles.check_graph(nocone, *run(nocone.argv)) == oracles.PASS


def test_graph_cycle_has_one_lc_draw_per_node_count_stratum():
    requests = workloads.graph_cycle(3, 2)
    cdf = workloads.node_count_cdfs()[True]
    strata = []
    lc = nonlc = nocone = 0
    for request in requests:
        _, branches, degree = oracles.star_data(request.data)
        fracs = [(q - s, q) for q, s in branches]
        if degree <= 0:
            nocone += 1
        elif workloads._is_lc(fracs):
            lc += 1
            low, high = cdf[workloads._node_count(fracs)]
            strata.append((int(low * workloads.GRAPH_LC_STRATA), high * workloads.GRAPH_LC_STRATA))
        else:
            nonlc += 1
    assert (lc, nonlc, nocone) == (workloads.GRAPH_LC_STRATA, 2, 2)
    assert sum(r.kind == "mld" for r in requests) == len(requests) // 2
    # stratum i is filled by a node count whose CDF step meets [i, i + 1) / strata
    strata.sort()
    assert all(first <= i < last for i, (first, last) in enumerate(strata))


def test_tree_elimination_matches_dense_solve():
    for request in workloads.graph_cycle(11, 0)[:40]:
        terms = request.data
        if oracles.star_data(terms)[2] <= 0:
            continue
        divisor = cli.QDivisorP1.parse(request.argv[1].split("=", 1)[1])
        report = resolution.discrepancies(resolution.build_graph(divisor.normalize_seifert()))
        assert sorted(oracles.star_discrepancies(terms)) == sorted(report.log_discrepancies)


def test_catalog_oracle_rebuilds_and_pins_every_grid_point():
    digests = oracles.load_digests()
    assert set(digests) == {oracles.catalog_key(e, n) for e, n in workloads.CATALOG_GRID}
    checker = oracles.CatalogOracle()
    request = workloads.Request("enumerate", SAMPLE_ARGV[3], (Fraction(1, 2), 3))
    code, out, err = run(request.argv)
    assert checker.check(request, code, out, err) == oracles.PASS
    assert checker.check(request, code, out.replace('"mld": "1"', '"mld": "2"', 1), err) == oracles.UNEXPECTED


def test_algebra_oracles():
    checker = oracles.AlgebraOracle()
    blowups = workloads.Request("an-blowups", SAMPLE_ARGV[6], 6)
    code, out, err = run(blowups.argv)
    assert checker.check(blowups, code, out, err) == oracles.PASS
    rows = json.loads(out)
    assert checker.check(blowups, 0, json.dumps(rows[:-1], indent=2), "") == oracles.UNEXPECTED
    twisted = workloads.Request("twisted", SAMPLE_ARGV[5], (3, 3, 2))
    assert checker.check(twisted, *run(twisted.argv)) == oracles.KNOWN_WRONG
    assert checker.check(twisted, 0, "4\n", "") == oracles.PASS
    perturbed = workloads.Request("perturbed", SAMPLE_ARGV[4], SAMPLE_ARGV[4][2])
    code, out, err = run(perturbed.argv)
    assert checker.check(perturbed, code, out, err) is None
    assert checker.finish(perturbed, code, out, err) == oracles.PASS
    assert oracles.sympy_tjurina("x^3+y^3+z^2-2*z^3+z^4") is None
