"""Seeded request mixes for the three workloads.

A workload is a sequence of cycles.  Every cycle has the same composition
(the stated request mix), so a run that measures whole cycles measures
that mix exactly; the seed picks the concrete inputs and their order, and
cycle ``j`` of seed ``s`` is always the same list of requests.  The sizes
that set a request's cost are stratified: graph node counts by quantile of
their distribution, A_n indices by band, perturbed germs by shape.  So a
cycle costs about the same for every seed: a few large inputs dominate
each workload's time, and letting the seed move them made the throughput
of a run depend on the seed.
"""
from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from oracles import fmt, hj_chain

@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    data: object


def _rng(seed: int, cycle: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}:{cycle}")


# ---------------------------------------------------------------- catalog ---

CATALOG_GRID = tuple(
    (Fraction(1, k), n) for n in range(2, 7) for k in range(1, n + 1)
)


def catalog_cycle(seed: int, cycle: int) -> list[Request]:
    """Every (epsilon0, N) of the grid once, in a seeded order."""
    grid = list(CATALOG_GRID)
    _rng(seed, cycle, "catalog").shuffle(grid)
    return [
        Request("enumerate",
                ("enumerate", "--epsilon0", fmt(e), "--isotropy", str(n), "--format", "json"),
                (e, n))
        for e, n in grid
    ]


# ------------------------------------------------------------------ graph ---

# The divisor sampler: 1 to 5 fractional points p/q, q log-uniform in
# [2, 128], and an integer part in 0..3 on one of them.  Its node counts
# run from 2 to about 150; draws above GRAPH_MAX_NODES are set aside.  The
# 0.36% of lc draws above 80 nodes take about 16% of the time, and a run
# holds only about five of them, so their count alone moved the throughput
# of a run by 7 to 12% between seeds; below 80 nodes the seed moves it by
# about 2%.
GRAPH_MAX_DENOMINATOR = 128
GRAPH_MAX_NODES = 80
# Lc requests per cycle: one per quantile stratum of the lc node-count
# distribution, so every cycle holds the whole distribution, its tail
# included, and p50 and p99 are read where the strata meet.
GRAPH_LC_STRATA = 96
GRAPH_NONLC_STRATA = 2          # one resolve and one mld on germs that are not lc
GRAPH_HISTOGRAM_DRAWS = 100_000
POINTS = ("0", "1", "inf", "-1", "2", "1/2", "3", "-2", "1/3")


@functools.cache
def _chain_length(p: int, q: int) -> int:
    return len(hj_chain(q, q - p))


def _node_count(fracs) -> int:
    return 1 + sum(_chain_length(p, q) for p, q in fracs)


def _is_lc(fracs) -> bool:
    """A cone of positive degree is lc exactly when sum(1 - 1/q) <= 2,
    that is sum(1/q) >= k - 2 for k points (exact near equality)."""
    excess = sum(1 / q for _, q in fracs) - (len(fracs) - 2)
    if abs(excess) > 1e-9:
        return excess > 0
    return sum((Fraction(1, q) for _, q in fracs), Fraction(0)) >= len(fracs) - 2


def _draw_fracs(rng: random.Random) -> list[tuple[int, int]]:
    log_low, log_high = math.log(2), math.log(GRAPH_MAX_DENOMINATOR)
    fracs = []
    for _ in range(rng.randint(1, 5)):
        q = max(2, round(math.exp(rng.uniform(log_low, log_high))))
        p = rng.randrange(1, q)
        while math.gcd(p, q) != 1:
            p = rng.randrange(1, q)
        fracs.append((p, q))
    return fracs


@functools.cache
def node_count_cdfs() -> dict[bool, dict[int, tuple[float, float]]]:
    """For lc (True) and not lc (False): n -> (P(nodes < n), P(nodes <= n))
    among the sampler's draws of that class, from a fixed-seed histogram of
    GRAPH_HISTOGRAM_DRAWS draws."""
    counts = {True: Counter(), False: Counter()}
    rng = random.Random("graph-node-counts")
    for _ in range(GRAPH_HISTOGRAM_DRAWS):
        fracs = _draw_fracs(rng)
        n = _node_count(fracs)
        if n <= GRAPH_MAX_NODES:
            counts[_is_lc(fracs)][n] += 1
    cdfs = {}
    for lc, histogram in counts.items():
        total, below, cdfs[lc] = sum(histogram.values()), 0, {}
        for n in sorted(histogram):
            cdfs[lc][n] = (below / total, (below + histogram[n]) / total)
            below += histogram[n]
    return cdfs


def _stratified_draws(rng: random.Random, lc: bool, strata: int) -> list:
    """One draw of the sampler's class per quantile stratum of its node
    count.  A draw lands in the stratum of u, uniform on the CDF step of
    its node count (a randomised probability integral transform), and the
    first draw to land in a stratum fills it; so stratum i holds a draw of
    the sampler conditioned on u in [i/strata, (i+1)/strata)."""
    cdf = node_count_cdfs()[lc]
    chosen = [None] * strata
    missing = strata
    while missing:
        fracs = _draw_fracs(rng)
        n = _node_count(fracs)
        if _is_lc(fracs) != lc or n not in cdf:
            continue
        low, high = cdf[n]
        stratum = min(int((low + rng.random() * (high - low)) * strata), strata - 1)
        if chosen[stratum] is None:
            chosen[stratum] = fracs
            missing -= 1
    return chosen


def _divisor(rng: random.Random, fracs, cone: bool = True):
    """Terms [(point, coefficient)] with the integer part on one point:
    0..3, or small enough to make the degree <= 0 when not ``cone``."""
    total = sum(Fraction(p, q) for p, q in fracs)
    integer = rng.randint(0, 3) if cone else -math.ceil(total) - rng.randint(0, 2)
    points = rng.sample(POINTS, len(fracs))
    coeffs = [Fraction(p, q) for p, q in fracs]
    coeffs[rng.randrange(len(coeffs))] += integer
    return sorted(zip(points, coeffs), key=lambda t: _point_key(t[0]))


def _point_key(point: str):
    return (1, 0) if point == "inf" else (0, Fraction(point))


def _divisor_text(terms) -> str:
    return ",".join(f"{p}:{fmt(c)}" for p, c in terms)


def graph_cycle(seed: int, cycle: int) -> list[Request]:
    """100 requests: 96 lc germs, one per node-count stratum, resolve and
    mld taking alternate strata; one resolve and one mld on germs that are
    not lc (one per half of their node-count distribution); one resolve
    and one mld on a divisor of degree <= 0."""
    rng = _rng(seed, cycle, "graph")
    offset = rng.randrange(2)
    plan = [(("resolve", "mld")[(i + offset) % 2], fracs, True)
            for i, fracs in enumerate(_stratified_draws(rng, True, GRAPH_LC_STRATA))]
    nonlc = _stratified_draws(rng, False, GRAPH_NONLC_STRATA)
    plan += [(kind, fracs, True) for kind, fracs in zip(rng.sample(("resolve", "mld"), 2), nonlc)]
    plan += [(kind, _draw_fracs(rng), False) for kind in ("resolve", "mld")]
    rng.shuffle(plan)
    requests = []
    for kind, fracs, cone in plan:
        terms = _divisor(rng, fracs, cone)
        # "=" keeps argparse from reading a leading "-1:" as an option
        argv = (kind, f"--divisor={_divisor_text(terms)}")
        if kind == "resolve":
            argv += ("--format", "json")
        requests.append(Request(kind, argv, terms))
    return requests


# ---------------------------------------------------------------- algebra ---

VARIABLES = "xyzw"

# Perturbed Brieskorn-Pham germs: (exponents, mixed monomials above the
# Newton boundary).  Buchberger's cost depends on this structure by orders
# of magnitude (0.01 s to 13 s over random draws) and on the coefficients
# by up to 3x, so the shapes are fixed and the seed draws the coefficients;
# a seeded shape made the cost of a run depend on the seed.  Every
# coefficient choice keeps the origin the only singular point (checked
# with sympy over the whole coefficient set).  Costs are on a 2-vCPU Xeon.
PERTURBED_SHAPES = (
    # 10 to 30 ms
    ((5, 6, 7), ((2, 2, 2),)),
    ((4, 4, 3, 3), ((1, 3, 1, 0),)),
    # 0.1 to 0.2 s
    ((5, 3, 6), ((3, 2, 1), (3, 2, 3))),
    # 0.3 to 0.75 s: with the 31-45 A_n band, the block that holds p80
    ((3, 5, 3, 2), ((1, 4, 1, 0), (2, 1, 1, 0))),
    ((5, 3, 5, 4), ((5, 1, 0, 0), (1, 1, 2, 2))),
    ((4, 5, 4), ((1, 4, 1), (4, 5, 3))),
    ((5, 4, 4, 4), ((4, 0, 3, 3), (1, 4, 3, 1))),
    ((4, 2, 5, 3), ((0, 1, 5, 1), (2, 2, 3, 2))),
    ((3, 4, 4), ((1, 3, 2), (2, 4, 4))),
    # 0.8 to 2.6 s
    ((7, 4, 7), ((4, 1, 2), (4, 3, 6))),
    ((5, 4, 3, 2), ((1, 3, 1, 1), (2, 2, 2, 1))),
)
COEFFICIENTS = tuple(
    sign * Fraction(p, q)
    for sign in (1, -1) for p in (1, 2, 3) for q in (1, 2, 3, 5) if math.gcd(p, q) == 1
)
# A_n indices: (requests per cycle, lowest n, highest n).  Every band is
# drawn in every cycle, so 5..60 is covered.  The 8 requests with n in
# 12..14 take 70 to 110 ms and hold p50: a median read off requests that
# short is moved by the machine's millisecond stalls, and one read off
# perturbed germs by their coefficients.  The last band is n = 60 alone:
# its 8 MB JSON sets the peak memory of the run, which would otherwise
# depend on the largest n the seed drew.
AN_BANDS = ((1, 5, 11), (8, 12, 14), (1, 15, 30), (1, 31, 45), (1, 46, 59), (1, 60, 60))
BP_PER_CYCLE = 8


def _monomial(exponents) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, exponents) if e)


def _polynomial(terms) -> str:
    """terms: [(coefficient, exponents)] rendered in the CLI syntax."""
    text = ""
    for coeff, exponents in terms:
        sign = "-" if coeff < 0 else "+"
        body = _monomial(exponents) if abs(coeff) == 1 else f"{fmt(abs(coeff))}*{_monomial(exponents)}"
        text += sign + body
    return text.lstrip("+")


def _pure(exponents):
    n = len(exponents)
    return [(Fraction(1), tuple(a if j == i else 0 for j in range(n))) for i, a in enumerate(exponents)]


def _bp_exponents(rng):
    if rng.random() < 0.5:
        return tuple(rng.randint(2, 8) for _ in range(3))
    return tuple(rng.randint(2, 5) for _ in range(4))


def algebra_cycle(seed: int, cycle: int) -> list[Request]:
    """34 requests: 13 an-blowups (AN_BANDS), 8 Brieskorn-Pham germs, the
    11 perturbed shapes, 1 unit-twisted germ x^a + y^b + z^c (1 - z)^2
    and 1 t = 0 family member."""
    rng = _rng(seed, cycle, "algebra")
    requests = []
    for count, low, high in AN_BANDS:
        for n in (rng.randint(low, high) for _ in range(count)):
            requests.append(Request("an-blowups", ("an-blowups", "--n", str(n), "--format", "json"), n))
    for _ in range(BP_PER_CYCLE):
        exponents = _bp_exponents(rng)
        requests.append(Request("bp", ("tjurina", "--poly", _polynomial(_pure(exponents))), exponents))
    for exponents, mixed in PERTURBED_SHAPES:
        terms = _pure(exponents) + [(rng.choice(COEFFICIENTS), m) for m in mixed]
        poly = _polynomial(terms)
        requests.append(Request("perturbed", ("tjurina", "--poly", poly), poly))
    a, b, c = rng.randint(2, 6), rng.randint(2, 6), rng.randint(2, 6)
    twisted = _pure((a, b, c)) + [(Fraction(-2), (0, 0, c + 1)), (Fraction(1), (0, 0, c + 2))]
    requests.append(Request("twisted", ("tjurina", "--poly", _polynomial(twisted)), (a, b, c)))
    n = rng.randint(4, 9)
    requests.append(Request("family0", ("tjurina", "--family-n", str(n), "--t", "0"), n))
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "catalog": catalog_cycle,
    "graph": graph_cycle,
    "algebra": algebra_cycle,
}
