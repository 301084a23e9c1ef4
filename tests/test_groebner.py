import contextlib
import itertools
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conesing import groebner
from conesing.errors import DomainError, NotIsolated
from conesing.groebner import (
    INFINITE,
    GroebnerBasis,
    Poly,
    buchberger,
    normal_form,
    parse_polynomial,
    quotient_dimension,
    s_polynomial,
    tjurina,
    tjurina_family,
)


def poly(text: str, variables=None) -> Poly:
    return parse_polynomial(text, variables)


def test_parser_round_trip_and_arithmetic():
    f = poly("x^2+y^2+z^3+z^2*w+w^4")
    assert f.variables == ("x", "y", "z", "w")
    assert f.terms[(2, 0, 0, 0)] == 1
    assert f.terms[(0, 0, 2, 1)] == 1
    g = poly("1/2*x^2 - 3*x*y + 2", variables=("x", "y"))
    assert g.terms[(2, 0)] == Fraction(1, 2)
    assert g.terms[(1, 1)] == -3
    assert g.terms[(0, 0)] == 2


def test_parser_rejects_garbage():
    for bad in ["", "x^", "x^-2", "x**2", "x^2 + ", "(x+1)^2", "x^0", "1/0*x",
                "2x+1", "x^2y^3", "x^2 3", "3 4"]:
        with pytest.raises(ValueError):
            parse_polynomial(bad)


@pytest.mark.parametrize(("spaced", "plain"), [
    (" x ^ 2 + 1 / 2 * y ", "x^2+1/2*y"),
    ("+-x", "-x"),
    ("- -x+ - +y", "x-y"),
    ("x^2+y\n", "x^2+y"),
])
def test_parser_accepts_whitespace_and_sign_runs(spaced, plain):
    assert parse_polynomial(spaced) == parse_polynomial(plain)


# short ids: the inputs themselves would make 100000-character test names
@pytest.mark.parametrize(("bad", "variables"), [
    ("x*" * 50_000 + "?", None),  # one term of 50000 factors, then a bad character
    ("x * " * 25_000 + "?", None),
    ("x" + " " * 99_998 + "y", None),
    ("1" * 99_999 + "x", None),
    ("x^" + "2" * 99_996 + " 3", None),
    ("+ - " * 25_000, None),
    ("x+" * 50_000 + "1/0", None),
    ("x" * 100_000 + "+y", ("y",)),
], ids=["factors", "spaced-factors", "spaces", "digits", "exponent", "signs", "zero-denominator",
        "unknown-variable"])
def test_parser_refuses_long_garbage_in_bounded_time(bad, variables):
    # each token pattern backtracks at most linearly, never exponentially
    assert len(bad) >= 100_000
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        parse_polynomial(bad, variables)
    assert time.perf_counter() - start < 1.0
    # the message quotes a bounded window of the input, not all of it
    assert len(str(info.value)) < 200


@pytest.mark.parametrize(("bad", "variables", "message"), [
    ("2x+1", None, "cannot parse 'x+1' at offset 1"),
    ("x^2 3", None, "cannot parse ' 3' at offset 3"),
    ("x*" * 50_000 + "?", None, "cannot parse '?' at offset 100000"),
    ("x^2+1/0*y", None, "zero denominator in '1/0*y' at offset 4"),
    ("y+z", ("y",), "unknown variable in 'z' at offset 2"),
], ids=["juxtaposed", "spaced-power", "factors", "zero-denominator", "unknown-variable"])
def test_parser_error_names_where_reading_stopped(bad, variables, message):
    with pytest.raises(ValueError) as info:
        parse_polynomial(bad, variables)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["x*" * 50_000 + "?", "x*" * 50_000 + "x"],
                         ids=["garbage", "valid"])
def test_parser_memory_is_flat_in_the_factors_of_a_term(text):
    # a term is read one factor at a time, with no backtracking mark kept
    # per factor
    tracemalloc.start()
    try:
        with contextlib.suppress(ValueError):
            parse_polynomial(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@st.composite
def polys(draw):
    variables = ("x", "y", "z")[: draw(st.integers(1, 3))]
    exponents = st.tuples(*(st.integers(0, 4) for _ in variables))
    coefficients = st.fractions(max_denominator=50).filter(bool)
    return Poly(variables, draw(st.dictionaries(exponents, coefficients, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(polys())
def test_parser_reads_back_what_str_prints(p):
    assert parse_polynomial(str(p), p.variables) == p


def test_partial_derivatives():
    f = poly("x^3+2*x*y^2", variables=("x", "y"))
    assert f.partial(0) == poly("3*x^2+2*y^2", variables=("x", "y"))
    assert f.partial(1) == poly("4*x*y", variables=("x", "y"))
    assert poly("5", variables=("x",)).partial(0).is_zero()


def test_buchberger_fixed_points():
    basis = buchberger([poly("x", ("x", "y")), poly("y", ("x", "y"))])
    assert {str(g) for g in basis.generators} == {"x", "y"}
    single = buchberger([poly("x", ("x",))])
    assert [str(g) for g in single.generators] == ["x"]


def test_buchberger_membership_example():
    basis = buchberger([poly("x^2-y", ("x", "y")), poly("y^2", ("x", "y"))])
    # x^4 = (x^2 - y)(x^2 + y) + y^2 lies in the ideal
    assert normal_form(poly("x^4", ("x", "y")), basis.generators).is_zero()
    leading = {g.leading()[0] for g in basis.generators}
    assert (2, 0) in leading  # x^2 heads one generator


def test_buchberger_output_is_reduced_and_sound():
    gens = [
        poly("x^2+y^2+z^2-1", ("x", "y", "z")),
        poly("x*y-z", ("x", "y", "z")),
        poly("y^2-z^2", ("x", "y", "z")),
    ]
    basis = buchberger(gens)
    for g in basis.generators:
        assert g.leading()[1] == 1  # monic
    leads = basis.leading_monomials()
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not all(x >= y for x, y in zip(a, b))  # no LM divides another
    for i, f in enumerate(basis.generators):
        for g in basis.generators[i + 1 :]:
            s = s_polynomial(f, g)
            assert normal_form(s, basis.generators).is_zero()
    for g in gens:
        assert normal_form(g, basis.generators).is_zero()


def test_buchberger_determinism():
    gens = [poly("x^2-y", ("x", "y")), poly("x*y-1", ("x", "y"))]
    first = buchberger(gens)
    second = buchberger(list(gens))
    assert first == second


def test_buchberger_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([Poly(("x",))])
    with pytest.raises(ValueError):
        buchberger([poly("x", ("x",)), poly("y", ("y",))])


def test_interreduction_is_one_pass(monkeypatch):
    # x+y has the tail y, which y reduces away, and the leading monomial of
    # x*y is a multiple of x's: one normal form for each of the two kept
    xy = ("x", "y")
    calls = []
    original = groebner.normal_form

    def counting(poly, basis):
        calls.append(poly)
        return original(poly, basis)

    monkeypatch.setattr(groebner, "normal_form", counting)
    kept = groebner._interreduce([poly("x+y", xy), poly("y", xy), poly("x*y", xy)])
    assert kept == [poly("y", xy), poly("x", xy)]
    assert len(calls) == len(kept)


def test_quotient_dimension_examples():
    assert quotient_dimension(buchberger([poly("x", ("x", "y")), poly("y", ("x", "y"))])) == 1
    assert quotient_dimension(buchberger([poly("x^2", ("x",))])) == 2
    assert quotient_dimension(buchberger([poly("x", ("x", "y"))])) == INFINITE
    assert quotient_dimension(buchberger([poly("1+x", ("x",)), poly("x", ("x",))])) == 0


def test_quotient_dimension_refuses_a_box_above_the_cap():
    # x^40+...: the partials give the box 39^4 = 2313441, refused before the scan
    with pytest.raises(DomainError) as raised:
        tjurina(poly("x^40+y^40+z^40+w^40"))
    assert type(raised.value) is DomainError
    assert "2313441 monomials" in str(raised.value)
    # the Milnor number of x^20+...: the box 19^4 is scanned
    assert tjurina(poly("x^20+y^20+z^20+w^20")) == 130321


def test_tjurina_examples():
    assert tjurina(poly("x^2+y^2", ("x", "y"))) == 1
    # quasi-homogeneous: Tjurina = Milnor = product of (exponent - 1) = 1*1*3
    assert tjurina(poly("x^2+y^2+z^4", ("x", "y", "z"))) == 3
    # suspended D_5 germ (cubic part z^2(z+w)): dimension 5
    assert tjurina(poly("x^2+y^2+z^3+z^2*w+w^4")) == 5


def test_tjurina_rejects_non_isolated():
    with pytest.raises(NotIsolated):
        tjurina(poly("x^2+y^2+z^3+z^2*w"))
    # nilpotency failure away from the origin: V(x-1) style quotient
    with pytest.raises(NotIsolated):
        tjurina(poly("x^2-2*x+1", ("x",)))


def test_tjurina_family_values_and_monotonicity():
    values = [tjurina_family(n, 1) for n in range(4, 9)]
    assert values == [n + 1 for n in range(4, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert tjurina_family(6, Fraction(2, 3)) == tjurina_family(6, 1)
    with pytest.raises(ValueError):
        tjurina_family(3, 1)
    with pytest.raises(NotIsolated):
        tjurina_family(5, 0)


def _sympy_local_dimension(f, gens, k):
    """dim K[gens]/(f, Jac f, m^k) by counting grevlex standard monomials."""
    import sympy

    power = [
        sympy.prod(v**e for v, e in zip(gens, exps))
        for exps in itertools.product(range(k + 1), repeat=len(gens))
        if sum(exps) == k
    ]
    ideal = [f] + [f.diff(v) for v in gens] + power
    basis = sympy.groebner(ideal, *gens, order="grevlex")
    leading = [g.monoms(order="grevlex")[0] for g in basis.polys]
    # every monomial of degree >= k lies in m^k, so only lower ones can be standard
    return sum(
        1
        for exps in itertools.product(range(k), repeat=len(gens))
        if sum(exps) < k
        and not any(all(a >= b for a, b in zip(exps, lead)) for lead in leading)
    )


def test_tjurina_family_matches_sympy_local_algebra():
    # independent oracle: sympy's Groebner engine on the local algebra
    # K[x,y,z,w]/(f, Jac f, m^k); equal dimensions at k and k+1 mean
    # m^k lies in (f, Jac f) + m^(k+1), so m^k is 0 in the local ring (Nakayama)
    sympy = pytest.importorskip("sympy")
    gens = x, y, z, w = sympy.symbols("x y z w")
    for n in range(4, 9):
        for t in (Fraction(1), Fraction(2, 3)):
            coefficient = sympy.Rational(t.numerator, t.denominator)
            f = x**2 + y**2 + z**3 + z**2 * w + coefficient * w**n
            k = 1
            dimension = _sympy_local_dimension(f, gens, k)
            while True:
                following = _sympy_local_dimension(f, gens, k + 1)
                if following == dimension:
                    break
                k, dimension = k + 1, following
            assert dimension == n + 1 == tjurina_family(n, t), (n, t, k)


def test_brieskorn_dimensions_match_product_oracle():
    # independent oracle: for sums of pure powers the Milnor/Tjurina algebra
    # is monomial with dimension prod(exponent - 1)
    cases = [("x^3+y^3", 4), ("x^2+y^5", 4), ("x^3+y^4+z^2", 6)]
    for text, expected in cases:
        f = parse_polynomial(text)
        exponents = [max(e) for e in zip(*f.terms.keys())]
        oracle = 1
        for e in exponents:
            oracle *= e - 1
        assert oracle == expected
        assert tjurina(f) == expected


# the benchmark's two slowest perturbed shapes, with fixed coefficients
SLOW_SHAPES = (
    ("x^5+y^4+z^3+w^2+x*y^3*z*w+3/5*x^2*y^2*z^2*w", 24),
    ("x^7+y^4+z^7-1/5*x^4*y*z^2+3/5*x^4*y^3*z^6", 90),
)


@st.composite
def zero_dimensional_ideals(draw):
    """(f, caps): f is a pure power x_i^a_i of each of 2-4 variables plus
    1-3 mixed monomials with small rational coefficients, each on or above
    the Newton boundary (sum of m_i / a_i >= 1, every m_i <= a_i); the
    ideal is f, its partials and x_i^c_i with a_i <= c_i <= a_i + 3.  The
    pure powers make it zero-dimensional and bound its cost: without them
    some draws have singular points away from the origin and a global
    algebra that takes either engine minutes."""
    nvars = draw(st.integers(2, 4))
    top = {2: 7, 3: 5, 4: 4}[nvars]
    exponents = draw(st.lists(st.integers(2, top), min_size=nvars, max_size=nvars))
    terms = {
        tuple(a if j == i else 0 for j in range(nvars)): Fraction(1)
        for i, a in enumerate(exponents)
    }
    mixed = st.tuples(*(st.integers(0, a) for a in exponents)).filter(
        lambda m: sum(1 for e in m if e) >= 2
        and sum(Fraction(e, a) for e, a in zip(m, exponents)) >= 1
    )
    coefficients = st.builds(
        Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3, 5))
    )
    for _ in range(draw(st.integers(1, 3))):
        monomial = draw(mixed)
        terms[monomial] = terms.get(monomial, Fraction(0)) + draw(coefficients)
    caps = tuple(a + draw(st.integers(0, 3)) for a in exponents)
    return str(Poly(("x", "y", "z", "w")[:nvars], terms)), caps


@settings(max_examples=40, deadline=None)
@given(zero_dimensional_ideals())
@example((SLOW_SHAPES[0][0], ()))
@example((SLOW_SHAPES[1][0], ()))
@example(("2/5*x^4*y^4*z-2/5*x^2*y^4+y^5+x^4-1/3*x*y*z^2+z^2", (7, 8, 5)))
@example(("2/3*x^3*y*z^2*w^2+1/5*x^2*z^2*w^2+z^4+3/5*y^2*z*w+x^3+y^2+w^2", (6, 3, 6, 5)))
def test_buchberger_matches_sympy_groebner(ideal):
    # independent oracle: sympy's reduced grevlex basis is unique, so it
    # must equal ours generator for generator (both monic), and the
    # standard monomials it leaves must number quotient_dimension; the
    # first two fixed examples are the Tjurina ideals (f, Jac f) alone,
    # the last two ran for minutes when the input generators joined the
    # basis in the order given instead of by increasing leading monomial
    sympy = pytest.importorskip("sympy")
    text, caps = ideal
    f = parse_polynomial(text)
    gens = [f] + [f.partial(i) for i in range(len(f.variables))]
    gens += [
        Poly.monomial(f.variables, tuple(c if j == i else 0 for j in range(len(caps))))
        for i, c in enumerate(caps)
    ]
    ours = buchberger(gens)

    symbols = sympy.symbols(f.variables)
    theirs = sympy.groebner(
        [
            sympy.Poly.from_dict(
                {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()},
                *symbols,
                domain="QQ",
            )
            for g in gens
            if not g.is_zero()
        ],
        *symbols,
        order="grevlex",
    )
    def rational(c):
        return Fraction(int(c.p), int(c.q))

    expected = {
        frozenset(
            (e, rational(c) / rational(g.LC(order="grevlex"))) for e, c in g.terms()
        )
        for g in theirs.polys
    }
    assert {frozenset(g.terms.items()) for g in ours.generators} == expected

    leads = [g.monoms(order="grevlex")[0] for g in theirs.polys]
    caps = [
        min((m[i] for m in leads if sum(m) == m[i]), default=None)
        for i in range(len(symbols))
    ]
    if any(cap is None for cap in caps):
        dimension = INFINITE
    else:
        dimension = sum(
            1
            for exps in itertools.product(*(range(cap) for cap in caps))
            if not any(all(a >= b for a, b in zip(exps, m)) for m in leads)
        )
    assert quotient_dimension(ours) == dimension


@pytest.mark.parametrize(("text", "tau", "most"), [
    (SLOW_SHAPES[0][0], SLOW_SHAPES[0][1], 200),
    (SLOW_SHAPES[1][0], SLOW_SHAPES[1][1], 125),
])
def test_pair_criteria_bound_the_s_polynomials(monkeypatch, text, tau, most):
    # these germs form 163 and 98 S-polynomials; 1942 and 1081 with the
    # product criterion alone, 249 and 142 without the chain criterion, and
    # 222 and 159 without criterion M
    formed = []
    original = groebner.s_polynomial

    def counting(f, g):
        formed.append(1)
        return original(f, g)

    monkeypatch.setattr(groebner, "s_polynomial", counting)
    assert tjurina(parse_polynomial(text)) == tau
    assert len(formed) <= most
