"""Minimal Groebner-basis engine over the rationals.

Just enough Buchberger to count quotient dimensions of zero-dimensional
ideals: sparse polynomials with exact rational coefficients, the degrevlex
order throughout, normal-strategy pair selection, the Gebauer-Moeller
pair criteria (the chain criterion on queued pairs, criteria M and F and
the product criterion on new ones), one interreduction pass of the
minimal basis.  The headline consumer is the Tjurina number of an
isolated hypersurface singularity at the origin.
"""
from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, NotIsolated

Exponents = tuple[int, ...]


def degrevlex_key(exponents: Exponents) -> tuple:
    # ties break on the last differing exponent, smaller loses its negation
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


class Poly:
    """Sparse multivariate polynomial over the rationals.

    `terms` is never mutated after construction: every operation builds a
    new Poly.  So the leading term is computed once, on the first call to
    `leading()`, and cached.
    """

    __slots__ = ("variables", "terms", "_lead")

    def __init__(
        self,
        variables: Sequence[str],
        terms: dict[Exponents, Fraction] | None = None,
    ):
        self.variables: tuple[str, ...] = tuple(variables)
        cleaned: dict[Exponents, Fraction] = {}
        for exponents, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if len(exponents) != len(self.variables):
                raise ValueError(
                    f"exponent vector {exponents} does not match {self.variables}"
                )
            if coeff != 0:
                cleaned[tuple(exponents)] = coeff
        self.terms = cleaned
        self._lead: tuple[Exponents, Fraction] | None = None

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exponents: Exponents, coeff=1
    ) -> "Poly":
        return cls(variables, {tuple(exponents): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def scaled(self, scalar) -> "Poly":
        scalar = Fraction(scalar)
        return Poly(self.variables, {e: scalar * c for e, c in self.terms.items()})

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading exponents and coefficient in degrevlex."""
        if self._lead is None:
            exponents = max(self.terms, key=degrevlex_key)
            self._lead = exponents, self.terms[exponents]
        return self._lead

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative in the index-th variable."""
        derived: dict[Exponents, Fraction] = {}
        for exponents, coeff in self.terms.items():
            e = exponents[index]
            if e == 0:
                continue
            lowered = list(exponents)
            lowered[index] = e - 1
            derived[tuple(lowered)] = coeff * e
        return Poly(self.variables, derived)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exponents in sorted(self.terms, key=degrevlex_key, reverse=True):
            coeff = self.terms[exponents]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exponents)
                if e
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return "+".join(parts).replace("+-", "-")

    def __repr__(self) -> str:
        return f"Poly({self.variables}, {str(self)!r})"


_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_FACTOR_RE = re.compile(rf"(\d+)(?:\s*/\s*(\d+))?|({_NAME_RE.pattern})(?:\s*\^\s*(\d+))?")
# a term is optional signs, then factors joined by "*", then a sign or the
# end; so every term after the first opens with a sign
_SIGNS_RE = re.compile(r"[-+\s]*")
_AFTER_FACTOR_RE = re.compile(r"\s*(?:(\*)\s*|(?=[-+]|\Z))")


def parse_polynomial(text: str, variables: Sequence[str] | None = None) -> Poly:
    """Parse `+`/`-` separated terms of `*`-joined factors, each factor a
    rational literal or var(^power).  Whitespace may separate tokens, and a
    factor must be followed by `*`, `+`, `-` or the end: "2x" and "x^2 3"
    are errors, not 2+x and x^23.  Variables default to first-appearance
    order."""
    if variables is None:
        variables = dict.fromkeys(_NAME_RE.findall(text))
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    terms: dict[Exponents, Fraction] = {}
    position = 0
    while position < len(text):
        # one factor at a time, so memory stays flat however long the term
        start = position
        signs = _SIGNS_RE.match(text, start)
        coeff = Fraction(-1 if signs[0].count("-") % 2 else 1)
        exponents = [0] * len(variables)
        position = signs.end()
        while True:
            factor = _FACTOR_RE.match(text, position)
            after = factor and _AFTER_FACTOR_RE.match(text, factor.end())
            if after is None:
                raise ValueError(f"cannot parse the term at offset {start} of {text!r}")
            position = after.end()
            numerator, denominator, name, power = factor.groups()
            if numerator:
                if denominator and int(denominator) == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                coeff *= Fraction(int(numerator), int(denominator or 1))
            elif name not in index:
                raise ValueError(f"unknown variable {name!r}")
            elif power and int(power) < 1:
                raise ValueError("exponents must be positive integers")
            else:
                exponents[index[name]] += int(power or 1)
            if not after[1]:
                break
        key = tuple(exponents)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    if not terms:
        raise ValueError("empty polynomial")
    return Poly(variables, terms)


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(poly: Poly, basis: Sequence[Poly]) -> Poly:
    """Remainder of multivariate division by the basis.  Each step divides
    by the divisor with the smallest leading monomial (Cox-Little-O'Shea,
    *Ideals, Varieties, and Algorithms*, p. 111)."""
    remainder: dict[Exponents, Fraction] = {}
    work = dict(poly.terms)
    # min-heap on the negated degrevlex key; a reduction step only adds
    # terms below the one it removes, so a popped monomial never returns and
    # an entry whose monomial has left `work` (cancelled) is just skipped
    heap = [(-sum(e), e[::-1], e) for e in work]
    heapq.heapify(heap)
    leads = sorted(
        ((g, *g.leading()) for g in basis if not g.is_zero()),
        key=lambda lead: degrevlex_key(lead[1]),
    )
    while heap:
        exponents = heapq.heappop(heap)[2]
        coeff = work.pop(exponents, None)
        if coeff is None:
            continue
        for g, g_lead, g_coeff in leads:
            if all(e >= l for e, l in zip(exponents, g_lead)):
                shift = tuple(e - l for e, l in zip(exponents, g_lead))
                factor = coeff / g_coeff
                for e2, c2 in g.terms.items():
                    if e2 == g_lead:
                        continue
                    target = tuple(a + b for a, b in zip(e2, shift))
                    delta = factor * c2
                    previous = work.get(target)
                    if previous is None:
                        work[target] = -delta
                        heapq.heappush(heap, (-sum(target), target[::-1], target))
                    elif previous != delta:
                        work[target] = previous - delta
                    else:
                        del work[target]
                break
        else:
            remainder[exponents] = coeff
    return Poly(poly.variables, remainder)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """lcm/LT(f) * f - lcm/LT(g) * g for the lcm of the leading monomials."""
    f_lead, f_coeff = f.leading()
    g_lead, g_coeff = g.leading()
    lcm = _lcm(f_lead, g_lead)
    terms: dict[Exponents, Fraction] = {}
    for poly, lead, scale in ((f, f_lead, 1 / f_coeff), (g, g_lead, -1 / g_coeff)):
        shift = tuple(m - a for m, a in zip(lcm, lead))
        for exponents, coeff in poly.terms.items():
            target = tuple(a + b for a, b in zip(exponents, shift))
            terms[target] = terms.get(target, 0) + scale * coeff
    return Poly(f.variables, terms)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic generators, no leading monomial divides
    another, every generator fully reduced against the rest."""

    generators: tuple[Poly, ...]
    variables: tuple[str, ...]

    def leading_monomials(self) -> list[Exponents]:
        return [g.leading()[0] for g in self.generators]


Pair = tuple[tuple, int, int, Exponents]  # (degrevlex key of the lcm, i, j, lcm)


def _gebauer_moller(
    leads: list[Exponents], active: list[int], pairs: list[Pair], j: int
) -> tuple[list[int], list[Pair]]:
    """Gebauer-Moeller update for a new generator j: the active generators
    and the pair heap once j has joined them.

    A queued pair (i, k) whose lcm the new leading monomial divides goes
    unless lcm(i, j) or lcm(k, j) equals it (chain criterion B_k).  A new
    pair (i, j) goes when another new pair's lcm properly divides its lcm
    (criterion M); of the new pairs with equal lcm one stays, and none when
    one of them has coprime leading monomials (criterion F and the product
    criterion).  Generators whose leading monomial the new one divides
    leave the active set; their queued pairs stay.
    """
    lead_j = leads[j]
    kept = [
        pair
        for pair in pairs
        if not _divides(lead_j, pair[3])
        or _lcm(leads[pair[1]], lead_j) == pair[3]
        or _lcm(leads[pair[2]], lead_j) == pair[3]
    ]
    lcms = {i: _lcm(leads[i], lead_j) for i in active}
    distinct = set(lcms.values())
    coprime = {
        lcms[i]
        for i in active
        if all(min(a, b) == 0 for a, b in zip(leads[i], lead_j))
    }
    seen: set[Exponents] = set()
    for i in active:
        m = lcms[i]
        if m in seen or m in coprime:
            continue
        seen.add(m)
        if any(d != m and _divides(d, m) for d in distinct):
            continue
        kept.append((degrevlex_key(m), i, j, m))
    heapq.heapify(kept)
    return [i for i in active if not _divides(lead_j, leads[i])] + [j], kept


def buchberger(gens: Sequence[Poly]) -> GroebnerBasis:
    """Buchberger's algorithm with normal-strategy pair selection (smallest
    lcm in degrevlex first, ties by index) and the Gebauer-Moeller pair
    criteria (see `_gebauer_moller`), followed by one interreduction pass
    (see `_interreduce`).
    The input generators join by increasing leading monomial, as in
    Becker-Weispfenning, *Groebner Bases*, p. 232; S-polynomials are
    reduced by the active generators only.

    The order is not cosmetic: pairs of equal lcm are kept and taken by
    index, so it steers the path through the intermediate bases.  In
    the order given, some ideals (f, grad f, x_i^c_i) build intermediate
    coefficients of thousands of bits on the way to a reduced basis with
    single-digit ones, and take minutes; by increasing leading monomial the
    same ideals take milliseconds.

    Membership of every input generator is re-verified by a zero normal
    form before returning.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    variables = gens[0].variables
    if any(g.variables != variables for g in gens):
        raise ValueError("all generators must share one variable sequence")

    basis: list[Poly] = []  # every generator ever added; pairs index it
    leads: list[Exponents] = []
    active: list[int] = []
    pairs: list[Pair] = []

    def add(g: Poly):
        nonlocal active, pairs
        lead, coeff = g.leading()
        basis.append(g.scaled(1 / coeff))
        leads.append(lead)
        active, pairs = _gebauer_moller(leads, active, pairs, len(basis) - 1)

    for g in sorted(gens, key=lambda g: degrevlex_key(g.leading()[0])):
        add(g)

    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        remainder = normal_form(
            s_polynomial(basis[i], basis[j]), [basis[k] for k in active]
        )
        if not remainder.is_zero():
            add(remainder)

    reduced = _interreduce([basis[k] for k in active])
    result = GroebnerBasis(tuple(reduced), variables)
    for g in gens:
        if not normal_form(g, result.generators).is_zero():
            raise RuntimeError("input generator does not reduce to zero")
    return result


def _interreduce(basis: list[Poly]) -> list[Poly]:
    """The reduced basis from a monic Groebner basis.  Dropping every
    generator whose leading monomial another's divides (the first of equal
    ones stays) leaves a minimal basis; then one pass reducing each
    generator by the others is enough, since no leading term can move
    (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 2 Sec. 7,
    Prop. 6)."""
    leads = [g.leading()[0] for g in basis]
    keep = [
        g
        for i, g in enumerate(basis)
        if not any(
            j != i and _divides(lead, leads[i]) and (lead != leads[i] or j < i)
            for j, lead in enumerate(leads)
        )
    ]
    for i in range(len(keep)):
        keep[i] = normal_form(keep[i], keep[:i] + keep[i + 1 :])
    return sorted(keep, key=lambda g: degrevlex_key(g.leading()[0]))


INFINITE = math.inf
# Most monomials quotient_dimension scans; x^20+y^20+z^20+w^20 needs
# 19^4 = 130321, and x^40+... (39^4, about 2.3 million) is refused.
MAX_STANDARD_MONOMIALS = 1_000_000


def quotient_dimension(basis: GroebnerBasis) -> int | float:
    """Number of standard monomials (those outside the leading-term ideal),
    or INFINITE when some variable has no pure power among the leading
    monomials.

    The count scans the box below the smallest pure powers; a box of more
    than MAX_STANDARD_MONOMIALS monomials is refused with a DomainError
    before the scan.
    """
    leads = basis.leading_monomials()
    nvars = len(basis.variables)
    if any(sum(lead) == 0 for lead in leads):
        return 0  # the ideal is the whole ring
    caps = [None] * nvars
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            if caps[i] is None or lead[i] < caps[i]:
                caps[i] = lead[i]
    if any(cap is None for cap in caps):
        return INFINITE
    box = math.prod(caps)
    if box > MAX_STANDARD_MONOMIALS:
        raise DomainError(
            f"the standard monomials lie in a box of {box} monomials, "
            f"above the cap of {MAX_STANDARD_MONOMIALS}"
        )
    count = 0
    for exponents in itertools.product(*(range(cap) for cap in caps)):
        if not any(all(e >= l for e, l in zip(exponents, lead)) for lead in leads):
            count += 1
    return count


def tjurina(f: Poly) -> int:
    """Tjurina number of an isolated hypersurface singularity at the origin:
    the dimension of the quotient by the equation plus all its partials.

    Validity of the global computation rests on the quotient being
    supported at the origin, which is enforced: the dimension must be
    finite and every variable nilpotent modulo the ideal.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no Tjurina number")
    basis = buchberger([f] + [f.partial(i) for i in range(len(f.variables))])
    dimension = quotient_dimension(basis)
    if dimension == INFINITE:
        raise NotIsolated("quotient is infinite-dimensional: singular locus has positive dimension")
    power = max(int(dimension), 1)
    for i, variable in enumerate(f.variables):
        exponents = tuple(power if j == i else 0 for j in range(len(f.variables)))
        pure_power = Poly.monomial(f.variables, exponents)
        if not normal_form(pure_power, basis.generators).is_zero():
            raise NotIsolated(
                f"variable {variable} is not nilpotent modulo the ideal: "
                "the singular scheme is not supported at the origin"
            )
    return int(dimension)


FAMILY_VARIABLES = ("x", "y", "z", "w")


def family_polynomial(n: int, t: Fraction | int) -> Poly:
    """x^2 + y^2 + z^3 + z^2 w + t w^n over (x, y, z, w)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = {
        (2, 0, 0, 0): Fraction(1),
        (0, 2, 0, 0): Fraction(1),
        (0, 0, 3, 0): Fraction(1),
        (0, 0, 2, 1): Fraction(1),
    }
    t = Fraction(t)
    if t != 0:
        key = (0, 0, 0, n)
        terms[key] = terms.get(key, Fraction(0)) + t
    return Poly(FAMILY_VARIABLES, terms)


def tjurina_family(n: int, t: Fraction | int) -> int:
    """Tjurina number of the degree-n member of the deformation family.

    For n >= 4 and t != 0 the germ is a suspended D_{n+1} singularity
    (the cubic part z^2(z+w) plus the w^n tail), so the value is n + 1,
    independent of t.  The t = 0 limit has a one-dimensional singular
    locus and raises NotIsolated straight from the tjurina computation.
    """
    if n < 4:
        raise ValueError("family members need n >= 4")
    return tjurina(family_polynomial(n, t))
