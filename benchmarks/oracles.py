"""Answer oracles for the benchmark requests.

Everything here is recomputed by benchmark code from the request's own
parameters, never from the program's internals:

* graph: the adjunction residual on the returned tree (O(n)), the vertex
  identity 1/r, mld as the minimum (-infinity for a germ that is not lc),
  the canonical index as an lcm, and an O(n) tree elimination;
* catalog: pinned digests of the JSON bytes, the package's
  ``catalog_consistency_check`` on the parsed entries, and an exhaustive
  sweep over canonical forms that rebuilds every entry;
* algebra: the closed form prod(a_i - 1) for Brieskorn-Pham germs and their
  unit twists, ``sympy.groebner`` (grevlex) for perturbed germs, and a
  recount of the interior primitive rays for ``an-blowups``.

An oracle returns one of three verdicts.  PASS: the answer is right.
KNOWN_WRONG: the answer is wrong in exactly the way the package is known
to get it wrong (a finite mld, from ``mld`` or in a ``resolve`` document,
for a germ that is not log canonical, or NOT_ISOLATED for a germ whose
local Tjurina number is finite); it counts as a failed request but not as
a broken benchmark.  UNEXPECTED: anything else.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

PASS, KNOWN_WRONG, UNEXPECTED = "pass", "known_wrong", "unexpected"

DIGESTS_PATH = Path(__file__).with_name("catalog_digests.json")

# Renderings of -infinity a corrected `mld` may print for a germ that is not lc.
MINUS_INFINITY = {"-inf", "-oo", "−∞", "-∞"}


def fmt(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def error_kind(stderr: str):
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


# ---------------------------------------------------------------- graph ---

def hj_chain(alpha: int, beta: int) -> list[int]:
    """Hirzebruch-Jung continued fraction alpha/beta = c1 - 1/(c2 - ...)."""
    chain = []
    while beta:
        c = -(-alpha // beta)
        chain.append(c)
        alpha, beta = beta, c * beta - alpha
    return chain


def star_data(terms) -> tuple[int, list[tuple[int, int]], Fraction]:
    """(b, branches, degree) of a divisor given as [(point, coefficient)]."""
    degree = sum((c for _, c in terms), Fraction(0))
    b = sum(math.ceil(c) for _, c in terms)
    branches = []
    for _, c in terms:
        frac = c - math.floor(c)
        if frac:
            branches.append((frac.denominator, frac.denominator - frac.numerator))
    return b, branches, degree


def solve_star(b: int, chains: list[list[int]]) -> tuple[Fraction, list[list[Fraction]]] | None:
    """Log discrepancies of the star with central curve -b and the given
    chains (self-intersections -c, listed from the center outwards), by
    eliminating each chain from its leaf.  None if not negative definite.

    With x = a - 1 the adjunction row of node i reads
    -c_i x_i + sum(x_j over neighbours j) = c_i - 2.
    """
    slopes = []
    for chain in chains:
        alpha, beta = Fraction(0), Fraction(0)  # x_next = alpha * x_k + beta
        steps = []
        for c in reversed(chain):
            pivot = c - alpha
            if pivot <= 0:
                return None
            alpha, beta = 1 / pivot, (beta - c + 2) / pivot
            steps.append((alpha, beta))
        slopes.append(steps[::-1])
    pivot = Fraction(b) - sum(steps[0][0] for steps in slopes)
    if pivot <= 0:
        return None
    x0 = (sum(steps[0][1] for steps in slopes) - b + 2) / pivot
    chain_values = []
    for steps in slopes:
        values, x = [], x0
        for alpha, beta in steps:
            x = alpha * x + beta
            values.append(1 + x)
        chain_values.append(values)
    return 1 + x0, chain_values


def star_discrepancies(terms):
    """Flat list of log discrepancies (center first) of a positive-degree
    divisor, from the tree elimination."""
    b, branches, _ = star_data(terms)
    center, chains = solve_star(b, [hj_chain(a, s) for a, s in branches])
    return [center] + [a for chain in chains for a in chain]


def vertex_value(terms) -> Fraction:
    """1/r with r = deg D / (2 - sum(1 - 1/q))."""
    b, branches, degree = star_data(terms)
    boundary = sum((1 - Fraction(1, q) for q, _ in branches), Fraction(0))
    return (2 - boundary) / degree


def check_graph(request, code: int, out: str, err: str) -> str:
    terms = request.data
    _, _, degree = star_data(terms)
    if degree <= 0:
        return PASS if code == 1 and error_kind(err) == "NOT_A_CONE" else UNEXPECTED
    smallest = fmt(min(star_discrepancies(terms)))
    lc = not smallest.startswith("-")
    if request.kind == "mld":
        if lc:
            return PASS if code == 0 and out == smallest + "\n" else UNEXPECTED
        if (code == 0 and out.strip() in MINUS_INFINITY) or (code == 1 and error_kind(err) == "NOT_LC"):
            return PASS
        # the seed prints the smallest log discrepancy on the graph
        return KNOWN_WRONG if code == 0 and out == smallest + "\n" else UNEXPECTED
    if code == 1 and not lc and error_kind(err) == "NOT_LC":
        return PASS
    if code != 0:
        return UNEXPECTED
    doc = json.loads(out)
    if not resolve_document_ok(terms, doc):
        return UNEXPECTED
    if doc["mld"] in MINUS_INFINITY:
        return UNEXPECTED if lc else PASS
    if fmt(Fraction(doc["mld"])) != smallest:
        return UNEXPECTED
    # the seed gives the smallest log discrepancy as the mld of a germ
    # that is not lc, where the mld is -infinity
    return PASS if lc else KNOWN_WRONG


def resolve_document_ok(terms, doc) -> bool:
    """Residual, shape, vertex identity and index of a resolve document."""
    nodes = [node["self_intersection"] for node in doc["nodes"]]
    values = [Fraction(text) for text in doc["log_discrepancies"]]
    n = len(nodes)
    if len(values) != n or len(doc["edges"]) != n - 1:
        return False
    neighbours = [[] for _ in range(n)]
    for i, j in doc["edges"]:
        neighbours[i].append(j)
        neighbours[j].append(i)
    # adjunction: sum_j (a_j - 1)(E_j.E_i) = -2 - E_i^2 on every node
    for i in range(n):
        lhs = (values[i] - 1) * nodes[i] + sum(values[j] - 1 for j in neighbours[i])
        if lhs != -2 - nodes[i]:
            return False
    centrals = [i for i, node in enumerate(doc["nodes"]) if node["is_central"]]
    if len(centrals) != 1:
        return False
    center = centrals[0]
    # read the chains off the tree and compare with the expected star
    chains, seen = [], {center}
    for start in neighbours[center]:
        chain, previous, current = [], center, start
        while True:
            seen.add(current)
            chain.append(-nodes[current])
            following = [k for k in neighbours[current] if k != previous]
            if len(following) > 1:
                return False
            if not following:
                break
            previous, current = current, following[0]
        chains.append(chain)
    b, branches, _ = star_data(terms)
    if len(seen) != n or nodes[center] != -b:
        return False
    if sorted(chains) != sorted(hj_chain(a, s) for a, s in branches):
        return False
    if values[center] != vertex_value(terms):
        return False
    return doc["canonical_index"] == math.lcm(*(v.denominator for v in values))


# -------------------------------------------------------------- catalog ---

def catalog_key(epsilon0: Fraction, n: int) -> str:
    return f"{fmt(epsilon0)},{n}"


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def expected_catalog(epsilon0: Fraction, n: int) -> dict:
    """The catalog document rebuilt by sweeping canonical forms directly:
    up to three fractional parts in (0, 1) with denominator dividing N,
    sorted descending at 0, 1, inf, plus every integer part at inf whose
    degree keeps the vertex discrepancy 1/r at least epsilon0."""
    fracs = [Fraction(k, n) for k in range(1, n)]
    shapes = [()]
    for size in (1, 2, 3):
        shapes += [s[::-1] for s in itertools.combinations_with_replacement(fracs, size)]
    entries = []
    for shape in shapes:
        boundary = sum((1 - Fraction(1, f.denominator) for f in shape), Fraction(0))
        if boundary >= 2:
            continue  # the quotient pair is not klt
        low = math.floor(-sum(shape)) + 1
        high = math.floor((2 - boundary) / epsilon0 - sum(shape))
        for m in range(low, high + 1):
            coeffs = list(shape)
            points = ["0", "1", "inf"][: len(coeffs)]
            if len(coeffs) == 3:
                coeffs[2] += m
            elif m:
                points.append("inf")
                coeffs.append(Fraction(m))
            terms = list(zip(points, coeffs))
            degree = sum(shape) + m
            values = star_discrepancies(terms)
            if min(values) < epsilon0:
                continue
            b, branches, _ = star_data(terms)
            entries.append((degree, min(values), {
                "divisor": ",".join(f"{p}:{fmt(c)}" for p, c in terms),
                "seifert": {"b": b, "branches": [list(br) for br in branches]},
                "mld": fmt(min(values)),
                "fano_angle": fmt(degree / (2 - boundary)),
                "max_isotropy": math.lcm(*(f.denominator for f in shape)),
                "canonical_index": math.lcm(*(v.denominator for v in values)),
            }))
    entries.sort(key=lambda e: (e[0], e[1], e[2]["divisor"]))
    return {"epsilon0": fmt(epsilon0), "N": n, "entries": [e[2] for e in entries]}


def consistency_failures(document: dict) -> list:
    """The package's own catalog_consistency_check, run on entries rebuilt
    from the JSON the program printed."""
    from conesing import catalog, cones, divisors

    entries = []
    for row in document["entries"]:
        divisor = divisors.QDivisorP1.parse(row["divisor"])
        entries.append(catalog.CatalogEntry(
            triple=cones.ConeTriple(divisor),
            seifert=divisors.SeifertData(row["seifert"]["b"],
                                         tuple(tuple(br) for br in row["seifert"]["branches"])),
            mld=Fraction(row["mld"]),
            fano_angle=Fraction(row["fano_angle"]),
            max_isotropy=row["max_isotropy"],
            canonical_index=row["canonical_index"],
        ))
    return catalog.catalog_consistency_check(entries).failures()


class CatalogOracle:
    """Checks each distinct output once; repeats of the same bytes reuse
    the verdict."""

    def __init__(self):
        self.digests = load_digests()
        self.verdicts: dict[tuple, str] = {}

    def check(self, request, code: int, out: str, err: str) -> str:
        epsilon0, n = request.data
        digest = hashlib.sha256(out.encode()).hexdigest()
        key = (epsilon0, n, code, digest)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(epsilon0, n, code, out, digest)
        return self.verdicts[key]

    def _verdict(self, epsilon0, n, code, out, digest) -> str:
        if code != 0 or digest != self.digests.get(catalog_key(epsilon0, n)):
            return UNEXPECTED
        document = json.loads(out)
        if document != expected_catalog(epsilon0, n) or consistency_failures(document):
            return UNEXPECTED
        return PASS


# -------------------------------------------------------------- algebra ---

_ROW = re.compile(
    r'\{\s*"a": (\d+),\s*"b": (\d+),\s*"diff": \[\s*"([^"]*)",\s*"([^"]*)"\s*\],'
    r'\s*"ray": \[\s*(-?\d+),\s*(-?\d+)\s*\],\s*"threshold": "([^"]*)"\s*\}'
)
_GAP = re.compile(r"[\s,\[\]]*")


def interior_rays(n: int, bound: int):
    """Primitive (x, y), max(|x|, |y|) <= bound, strictly inside the cone
    spanned by (0, 1) and (n + 1, -n): x > 0 and n x + (n + 1) y > 0.
    Sorted by (x, y); yields (x, y, a, b) with a, b the subcone indices."""
    for x in range(1, bound + 1):
        for y in range(-(n * x) // (n + 1) + 1, bound + 1):
            if math.gcd(x, abs(y)) == 1:
                yield x, y, x, n * x + (n + 1) * y


def check_an_blowups(n: int, code: int, out: str) -> str:
    """Stream the rows of the JSON document against the recount: every row
    in order, a + b >= n + 1 with equality exactly on the rays (k, 1 - k),
    and the largest threshold 1/ceil((n + 1) / 2)."""
    if code != 0:
        return UNEXPECTED
    expected = interior_rays(n, 4 * n)
    position, best, equality = 0, 0, set()
    for match in _ROW.finditer(out):
        if not _GAP.fullmatch(out, position, match.start()):
            return UNEXPECTED
        position = match.end()
        row = next(expected, None)
        if row is None:
            return UNEXPECTED
        x, y, a, b = row
        got = match.groups()
        want = (str(a), str(b), fmt(Fraction(a - 1, a)), fmt(Fraction(b - 1, b)),
                str(x), str(y), fmt(Fraction(1, max(a, b))))
        if got != want or a + b < n + 1:
            return UNEXPECTED
        if a + b == n + 1:
            equality.add((x, y))
        best = max(best, Fraction(1, max(a, b)))
    if next(expected, None) is not None or not _GAP.fullmatch(out, position):
        return UNEXPECTED
    if equality != {(k, 1 - k) for k in range(1, n + 1)}:
        return UNEXPECTED
    return PASS if best == Fraction(1, (n + 2) // 2) else UNEXPECTED


def sympy_tjurina(poly: str) -> int | None:
    """dim Q[x]/(f, df) from sympy's grevlex basis, or None when some
    variable is not nilpotent (the quotient is not supported at the origin
    alone, so the global count is not the local Tjurina number)."""
    import sympy

    names = sorted(set(re.findall(r"[a-z]", poly)))
    symbols = sympy.symbols(names)
    f = sympy.sympify(poly.replace("^", "**"), locals=dict(zip(names, symbols)))
    basis = sympy.groebner([f] + [sympy.diff(f, s) for s in symbols], *symbols, order="grevlex")
    leads = [sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in basis.exprs]
    caps = [min((lead[i] for lead in leads if sum(lead) == lead[i] and lead[i]), default=None)
            for i in range(len(symbols))]
    if any(cap is None for cap in caps):
        return None
    count = 0
    for exponents in itertools.product(*(range(cap) for cap in caps)):
        if not any(all(e >= l for e, l in zip(exponents, lead)) for lead in leads):
            count += 1
    if any(basis.reduce(s ** max(count, 1))[1] != 0 for s in symbols):
        return None
    return count


class AlgebraOracle:
    """Closed forms and the ray recount run at once; sympy verdicts for
    perturbed germs are deferred until the measured passes are over (so
    sympy is not imported into the measured process) and cached per
    polynomial."""

    def __init__(self):
        self.sympy_cache: dict[str, int | None] = {}

    def check(self, request, code: int, out: str, err: str) -> str | None:
        kind, data = request.kind, request.data
        if kind == "an-blowups":
            return check_an_blowups(data, code, out)
        if kind == "family0":
            return PASS if code == 1 and error_kind(err) == "NOT_ISOLATED" else UNEXPECTED
        if kind == "perturbed":
            return None  # deferred to finish()
        tau = math.prod(a - 1 for a in data)
        if code == 0 and out == f"{tau}\n":
            return PASS
        if kind == "twisted" and code == 1 and error_kind(err) == "NOT_ISOLATED":
            return KNOWN_WRONG
        return UNEXPECTED

    def finish(self, request, code: int, out: str, err: str) -> str:
        poly = request.data
        if poly not in self.sympy_cache:
            self.sympy_cache[poly] = sympy_tjurina(poly)
        tau = self.sympy_cache[poly]
        return PASS if tau is not None and code == 0 and out == f"{tau}\n" else UNEXPECTED
