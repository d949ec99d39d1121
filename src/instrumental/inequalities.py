"""Inequality families, Instrumental-to-Bell lifting, and facet classification.

Expressions are rational coefficient vectors over a scenario's correlation
coordinates plus a constant.  Closed-form bounds are kept in an exact symbolic
form (rational plus one square root or one cosine) so comparisons never go
through floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CapacityError, CertificateError
from .polytope import (
    LinearInequality,
    MembershipCertificate,
    VPolytope,
    _dot,
    _eliminate_leads,
    _reduced,
    membership,
    no_signalling_polytope,
    normalization_equalities,
    reduce_modulo,
)
from .linprog import LpStatus, solve_lp
from .rationals import integerize, over_common_denominator
from .scenario import (
    Correlation,
    DeterministicStrategy,
    Kind,
    Scenario,
    _check_strategy_count,
    enumerate_deterministic_strategies,
    strategy_to_correlation,
    validate,
)

__all__ = [
    "LinearExpression",
    "ExactValue",
    "BoundsTriple",
    "SymmetryGroup",
    "Orbit",
    "pearl_expressions",
    "catalog",
    "bounds",
    "lift_to_bell",
    "identity_check",
    "identity_max_residual",
    "identity_residual_expression",
    "verify_identity",
    "symmetry_group",
    "facet_orbit_classify",
    "extension_membership",
    "classical_maximum",
    "gpt_maximum",
    "CATALOG_KINDS",
    "check_catalog_params",
]

F0 = Fraction(0)
F1 = Fraction(1)

# Most deterministic strategies the classical extension test takes as LP
# columns, checked before any is built: the LP's time grows far faster than
# its column count.  4,096 admits every binary table with up to 10 inputs.
_MEMBERSHIP_STRATEGY_LIMIT = 4096

# Largest trial divisor `_square_free` tries.  A cofactor that still needs a
# larger one exceeds 10^18.
_TRIAL_DIVISOR_LIMIT = 10**6


# ---------------------------------------------------------------------------
# linear expressions over correlation coordinates


@dataclass(frozen=True)
class LinearExpression:
    """coeffs . p + constant over the coordinates of one scenario."""

    scenario: Scenario
    coeffs: tuple[Fraction, ...]
    constant: Fraction = F0

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.scenario.dim:
            raise ValueError("coefficient length does not match the scenario")

    def evaluate(self, p: Correlation):
        """Exact Fraction on exact tables, float on Born tables."""
        if p.scenario != self.scenario:
            raise ValueError("correlation scenario does not match the expression")
        total = sum(c * v for c, v in zip(self.coeffs, p.entries) if c and v)
        if p.exact:
            return self.constant + total
        return float(self.constant) + total

    def as_inequality(self, bound) -> LinearInequality:
        """coeffs . p + constant <= bound, with the constant folded in."""
        return LinearInequality(self.coeffs, Fraction(bound) - self.constant)

    def _binary(self, other: "LinearExpression", sign: int) -> "LinearExpression":
        """self + sign * other, touching only the nonzero entries of other."""
        if self.scenario != other.scenario:
            raise ValueError("expressions live over different scenarios")
        coeffs = list(self.coeffs)
        for i, b in enumerate(other.coeffs):
            if b:
                coeffs[i] += b if sign > 0 else -b
        return LinearExpression(
            self.scenario, tuple(coeffs), self.constant + sign * other.constant
        )

    def __add__(self, other: "LinearExpression") -> "LinearExpression":
        return self._binary(other, 1)

    def __sub__(self, other: "LinearExpression") -> "LinearExpression":
        return self._binary(other, -1)

    def __mul__(self, scale) -> "LinearExpression":
        q = Fraction(scale)
        return LinearExpression(
            self.scenario, tuple(c and c * q for c in self.coeffs), self.constant * q
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for coords, c in zip(self.scenario.coords(), self.coeffs):
            if c == 0:
                continue
            if self.scenario.kind is Kind.BELL:
                x, y, a, b = coords
                name = f"p({a}{b}|{x}{y})"
            else:
                x, a, b = coords
                name = f"p({a}{b}|{x})"
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _accumulate(dim: int, terms: Iterable[tuple[int, Fraction]]) -> tuple[Fraction, ...]:
    """The vector sum of w at index i over the (i, w) terms.  An index no
    term reaches keeps the shared F0, and the first term at an index is
    stored, not added, so only repeated indices cost a Fraction sum."""
    coeffs = [F0] * dim
    for i, w in terms:
        coeffs[i] = w if coeffs[i] is F0 else coeffs[i] + w
    return tuple(coeffs)


def _sum_terms(s: Scenario, coords_list: Iterable[tuple]) -> LinearExpression:
    coeffs = _accumulate(s.dim, ((s.index(*c), F1) for c in coords_list))
    return LinearExpression(s, coeffs)


def _correlator_entries(s: Scenario, terms: Iterable[tuple]):
    """The (index, weight) terms of sum w * <A_x B_y> over the (w, x, y)
    terms, entry by entry: <A_x B_y> = sum_ab (-1)^(a+b) p(ab|xy) on a
    binary Bell scenario s."""
    return (
        (s.index(x, y, a, b), w if a == b else -w)
        for w, x, y in terms for a in range(2) for b in range(2)
    )


def _correlator_sum(s: Scenario, terms: Iterable[tuple]) -> LinearExpression:
    return LinearExpression(s, _accumulate(s.dim, _correlator_entries(s, terms)))


def _bell_correlators(kind: str, alpha, n) -> list[tuple]:
    """The (w, x, y) correlator terms of tilted_chsh or chained_bell."""
    if kind == "tilted_chsh":
        return [(alpha, 0, 0), (F1, 0, 1), (alpha, 1, 0), (-F1, 1, 1)]
    return [(F1, 0, 0), (-F1, 0, n - 1)] + [(F1, j, j - d) for j in range(1, n) for d in (0, 1)]


# ---------------------------------------------------------------------------
# exact symbolic bound values


def _square_free(n: int) -> tuple[int, int]:
    """n = m^2 * k with k square-free; returns (m, k).

    Primes are divided out only while d^3 <= the cofactor c.  Every prime
    factor left in c then exceeds the cube root of c, so c is 1, p, p^2 or
    p*q, and only p^2 is a square.
    """
    m, k, c, d = 1, 1, n, 2
    while d * d * d <= c:
        if d > _TRIAL_DIVISOR_LIMIT:
            raise CapacityError(
                f"square-free part of {n}: trial division passed "
                f"{_TRIAL_DIVISOR_LIMIT} with cofactor {c} left"
            )
        e = 0
        while c % d == 0:
            c //= d
            e += 1
        m *= d ** (e // 2)
        k *= d ** (e % 2)
        d += 1
    r = math.isqrt(c)
    if c > 1 and r * r == c:
        return m * r, k
    return m, k * c


@dataclass(frozen=True)
class ExactValue:
    """rational + coefficient * R, with R = sqrt(surd) or cos(pi/divisor).

    Normalized at construction: square factors leave the radical, recognizable
    cosines (pi over 1, 2, 3, 4, 6) fold into rational or surd form, and a zero
    coefficient collapses to the plain rational.  Equal values therefore
    compare equal as dataclasses.
    """

    rational: Fraction
    coefficient: Fraction = F0
    surd: int = 1
    divisor: int | None = None

    def __post_init__(self) -> None:
        rational = Fraction(self.rational)
        coefficient = Fraction(self.coefficient)
        surd = self.surd
        divisor = self.divisor
        if divisor is not None:
            if divisor < 1:
                raise ValueError("cosine divisor must be a positive integer")
            folds = {1: (Fraction(-1), 1), 2: (F0, 1), 3: (Fraction(1, 2), 1),
                     4: (Fraction(1, 2), 2), 6: (Fraction(1, 2), 3)}
            if divisor in folds:
                scale, surd = folds[divisor]
                coefficient *= scale
                divisor = None
        if divisor is None:
            if surd < 0:
                raise ValueError("negative radicand")
            m, k = _square_free(surd)
            coefficient *= m
            surd = k
            if surd == 1 or surd == 0 or coefficient == 0:
                if surd == 1:
                    rational += coefficient
                coefficient = F0
                surd = 1
        elif coefficient == 0:
            divisor = None
            surd = 1
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "surd", surd)
        object.__setattr__(self, "divisor", divisor)

    @staticmethod
    def of(q) -> "ExactValue":
        return ExactValue(Fraction(q))

    @staticmethod
    def root(radicand, coefficient=1, rational=0) -> "ExactValue":
        """rational + coefficient * sqrt(radicand), radicand a nonneg rational."""
        r = Fraction(radicand)
        if r < 0:
            raise ValueError("negative radicand")
        # sqrt(p/q) = sqrt(p*q)/q
        return ExactValue(
            Fraction(rational),
            Fraction(coefficient) / r.denominator,
            r.numerator * r.denominator,
        )

    @staticmethod
    def cosine(divisor: int, coefficient=1, rational=0) -> "ExactValue":
        """rational + coefficient * cos(pi/divisor)."""
        return ExactValue(
            Fraction(rational), Fraction(coefficient), 1, divisor
        )

    def __float__(self) -> float:
        if self.coefficient == 0:
            return float(self.rational)
        if self.divisor is not None:
            radical = math.cos(math.pi / self.divisor)
        else:
            radical = math.sqrt(self.surd)
        return float(self.rational) + float(self.coefficient) * radical

    def __add__(self, q) -> "ExactValue":
        return ExactValue(
            self.rational + Fraction(q), self.coefficient, self.surd, self.divisor
        )

    def __mul__(self, q) -> "ExactValue":
        q = Fraction(q)
        return ExactValue(
            self.rational * q, self.coefficient * q, self.surd, self.divisor
        )

    def __str__(self) -> str:
        if self.coefficient == 0:
            return str(self.rational)
        radical = (
            f"cos(pi/{self.divisor})" if self.divisor is not None
            else f"sqrt({self.surd})"
        )
        if self.coefficient == 1:
            tail = radical
        elif self.coefficient == -1:
            tail = f"-{radical}"
        else:
            tail = f"({self.coefficient})*{radical}"
        if self.rational == 0:
            return tail
        sign = "-" if tail.startswith("-") else "+"
        return f"{self.rational} {sign} {tail.lstrip('-')}"


@dataclass(frozen=True)
class BoundsTriple:
    """Tight classical / quantum / GPT values of one expression."""

    classical: ExactValue
    quantum: ExactValue
    gpt: ExactValue

    def __post_init__(self) -> None:
        c, q, g = float(self.classical), float(self.quantum), float(self.gpt)
        if not (c <= q + 1e-12 and q <= g + 1e-12):
            raise ValueError("bounds must be ordered classical <= quantum <= gpt")


# ---------------------------------------------------------------------------
# the inequality catalog


CATALOG_KINDS = ("bonet", "tilted", "chained", "chsh", "tilted_chsh", "chained_bell")


def check_catalog_params(kind: str, alpha, n) -> tuple[Fraction | None, int | None]:
    """Validate the parameters of a catalog kind; returns (alpha, n) parsed.

    Tilted kinds take only a weight alpha >= 1, chained kinds only a chain
    length n >= 2, the others nothing; every error message names the kind.
    """
    if kind not in CATALOG_KINDS:
        raise ValueError(f"unknown expression kind {kind!r}")
    if kind in ("tilted", "tilted_chsh"):
        if n is not None:
            raise ValueError(f"{kind} takes no chain length n")
        if alpha is None:
            raise ValueError(f"{kind} needs a weight alpha")
        try:
            alpha = Fraction(alpha)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {kind} weight {alpha!r}") from None
        if alpha < 1:
            raise ValueError(f"{kind} needs a weight alpha >= 1")
        return alpha, None
    if kind in ("chained", "chained_bell"):
        if alpha is not None:
            raise ValueError(f"{kind} takes no weight alpha")
        if n is None:
            raise ValueError(f"{kind} needs a chain length n")
        n = int(n)
        if n < 2:
            raise ValueError(f"{kind} needs a chain length n >= 2")
        return None, n
    if alpha is not None or n is not None:
        raise ValueError(f"{kind} takes no parameters")
    return None, None


def catalog(kind: str, *, alpha=None, n=None) -> LinearExpression:
    """Coefficient vector of a named expression.

    Instrumental families: bonet (three inputs), tilted (weight alpha >= 1,
    equal to bonet at alpha 1), chained (chain length n, wiring y = (x-a) mod
    n).  Bell families: chsh, tilted_chsh, chained_bell, written through the
    correlator expansion.
    """
    alpha, n = check_catalog_params(kind, alpha, n)
    if kind == "bonet":
        return catalog("tilted", alpha=1)
    if kind == "tilted":
        s = Scenario.instrumental(3)
        half = (1 - alpha) / 2  # on every a = 0 entry at x = 0, 1
        terms = [((x, 0, b), half) for x in range(2) for b in range(2)] + [
            ((0, 0, 0), alpha), ((0, 1, 1), F1), ((1, 0, 0), alpha),
            ((1, 1, 0), F1), ((2, 0, 1), alpha),
        ]
        return LinearExpression(s, _accumulate(s.dim, ((s.index(*c), w) for c, w in terms)))
    if kind == "chained":
        s = Scenario.chained(n)
        return _sum_terms(s, [(j, v, v) for j in range(1, n) for v in range(2)]
                          + [(0, 0, 0), (0, 1, 0), (n, 1, 1)])
    if kind == "chsh":
        return catalog("tilted_chsh", alpha=1)
    bell = Scenario.bell(2, 2) if kind == "tilted_chsh" else Scenario.bell(n, n)
    return _correlator_sum(bell, _bell_correlators(kind, alpha, n))


def bounds(kind: str, *, alpha=None, n=None) -> BoundsTriple:
    """Closed-form tight values for a catalog expression.

    Only the Bell families are written out.  An Instrumental row follows
    from its Bell row through the lifting identity: a quarter of the Bell
    value plus the identity's constant shift, since the penalty term it
    subtracts is nonnegative and sent to zero by the dummy-input
    construction.
    """
    alpha, n = check_catalog_params(kind, alpha, n)
    if kind == "bonet":
        return bounds("tilted", alpha=1)
    if kind in ("tilted", "chained"):
        parent = "tilted_chsh" if kind == "tilted" else "chained_bell"
        bell = bounds(parent, alpha=alpha, n=n)
        shift = _identity_shift(kind, alpha, n)
        return BoundsTriple(*(
            v * Fraction(1, 4) + shift for v in (bell.classical, bell.quantum, bell.gpt)
        ))
    if kind == "chsh":
        return bounds("tilted_chsh", alpha=1)
    if kind == "tilted_chsh":
        return BoundsTriple(
            ExactValue.of(2 * alpha),
            ExactValue.root(alpha * alpha + 1, 2),
            ExactValue.of(2 + 2 * alpha),
        )
    # chained_bell
    return BoundsTriple(
        ExactValue.of(2 * n - 2),
        ExactValue.cosine(2 * n, 2 * n),
        ExactValue.of(2 * n),
    )


def pearl_expressions(s: Scenario) -> list[LinearExpression]:
    """sum_b p(a, b | x_b) for every a and non-constant choice function b -> x.

    Each is bounded by 1 on every post-selected no-signalling box: the b-th
    term is at most Bob's marginal of b on input a, and those marginals sum to
    one.  Constant choice functions reduce to normalization and are omitted.
    Only the plain wiring y = a admits this argument, so other wirings are
    rejected.
    """
    if s.kind is not Kind.INSTRUMENTAL:
        raise ValueError("these expressions need the plain wiring y = a")
    out = []
    for a in range(s.nA):
        for choice in itertools.product(range(s.nX), repeat=s.nB):
            if all(x == choice[0] for x in choice):
                continue
            out.append(_sum_terms(s, [(x, a, b) for b, x in enumerate(choice)]))
    return out


# ---------------------------------------------------------------------------
# lifting and the Bell-side identities


def _lifted_terms(e: LinearExpression):
    """The (parent-Bell index, coefficient) of each nonzero coefficient of a
    wired expression: p(ab|x) sits at p(ab|x, y=wire(a,x))."""
    return ((i, c) for i, c in zip(e.scenario.wired_indices(), e.coeffs) if c)


def lift_to_bell(e: LinearExpression) -> LinearExpression:
    """Rewrite over the parent Bell scenario via p(ab|x) -> p(ab|x, y=wire(a,x)).

    Evaluation commutes with post-selection: lift(e)(q) = e(postselect(q)).
    """
    s = e.scenario
    if s.kind is Kind.BELL:
        raise ValueError("the expression is already over a Bell scenario")
    bell = s.parent_bell()
    return LinearExpression(bell, _accumulate(bell.dim, _lifted_terms(e)), e.constant)


def _identity_shift(kind: str, alpha, n) -> Fraction:
    """The constant of the lifting identity's Bell side: 1 + alpha/2 for the
    tilted family (alpha = 1 for bonet) and (n + 1)/2 for the chain."""
    if kind in ("bonet", "tilted"):
        return 1 + (F1 if kind == "bonet" else alpha) / 2
    if kind == "chained":
        return Fraction(n + 1, 2)
    raise ValueError(f"no lifting identity for kind {kind!r}")


@functools.lru_cache(maxsize=None)
def identity_residual_expression(kind: str, *, alpha=None, n=None) -> LinearExpression:
    """lift(catalog(kind)) minus its Bell-side closed form, as one expression:
    the lifted terms, minus a quarter of the parent Bell correlators written in
    the lifted scenario, plus the penalty alpha p(11|2,0) (1 for bonet) or
    p(01|n,n-1), summed in one pass; the constant is minus the shift."""
    alpha, n = check_catalog_params(kind, alpha, n)
    e = catalog(kind, alpha=alpha, n=n)
    bell = e.scenario.parent_bell()
    weight = F1 if alpha is None else alpha
    if kind == "chained":
        parent, penalty = _bell_correlators("chained_bell", None, n), (n, n - 1, 0, 1)
    else:
        parent, penalty = _bell_correlators("tilted_chsh", weight, None), (2, 0, 1, 1)
    quarter = _correlator_entries(bell, [(-w / 4, x, y) for w, x, y in parent])
    terms = itertools.chain(_lifted_terms(e), quarter, [(bell.index(*penalty), weight)])
    return LinearExpression(bell, _accumulate(bell.dim, terms), -_identity_shift(kind, alpha, n))


def identity_check(kind: str, p: Correlation, *, alpha=None, n=None) -> Fraction:
    """Exact residual of the lifting identity on one no-signalling box.

    Zero for every no-signalling p; the identity consumes the normalization
    and marginal-consistency equalities, so a table that is signalling or not
    normalized is rejected.  Entries may be negative: the identity holds on
    the whole affine hull.
    """
    residual = identity_residual_expression(kind, alpha=alpha, n=n)
    if p.scenario != residual.scenario:
        raise ValueError("correlation scenario does not match the identity")
    if not p.exact:
        raise TypeError("exact residuals need rational entries")
    report = validate(p)
    if not (report.normalized and report.no_signalling):
        raise ValueError("the identity holds only for no-signalling boxes")
    return residual.evaluate(p)


def identity_max_residual(kind: str, *, alpha=None, n=None, proved=None) -> Fraction:
    """Largest |residual| of the lifting identity over every deterministic box.

    Zero when `verify_identity` holds: the residual then vanishes on the
    whole no-signalling set.  Otherwise the larger of the residual's and its
    negation's `classical_maximum`, each found by best response under the
    strategy-count limit, without building a box.  `proved` is the verdict
    of a `verify_identity` the caller has already run; None runs it here.
    """
    if proved is None:
        proved = verify_identity(kind, alpha=alpha, n=n)
    if proved:
        return F0
    residual = identity_residual_expression(kind, alpha=alpha, n=n)
    return max(classical_maximum(residual)[0], classical_maximum(residual * -1)[0])


def verify_identity(kind: str, *, alpha=None, n=None) -> bool:
    """Symbolic proof of the lifting identity: the residual expression,
    rewritten in Collins-Gisin coordinates, is the zero affine form.  Those
    coordinates map affinely and one-to-one onto the no-signalling affine
    hull, so an affine residual vanishes on that hull exactly when its
    rewritten form is zero."""
    residual = identity_residual_expression(kind, alpha=alpha, n=n)
    nonzero = itertools.compress(residual.scenario.coords(), residual.coeffs)
    forms, width = _collins_gisin(residual.scenario, nonzero)
    _, coeffs, constant = _in_collins_gisin(residual, forms, width)
    return constant == 0 and not any(coeffs)


# ---------------------------------------------------------------------------
# relabelling symmetry


@dataclass(frozen=True)
class SymmetryGroup:
    """Generators of the scenario-preserving relabellings, as coordinate
    permutations.  For the plain wiring these are input permutations, global
    output relabellings of a (the b-blocks follow through the wire), and
    b-relabellings done separately for each wire value."""

    scenario: Scenario
    generators: tuple[tuple[int, ...], ...]


def symmetry_group(s: Scenario) -> SymmetryGroup:
    """SymmetryGroup's adjacent transpositions, each read off `Scenario.index`
    as a map (x, a, b) -> (x', a', b') of flat indices.  a is swapped at every
    input: per input, b would see an inconsistent wire input."""
    if s.kind is not Kind.INSTRUMENTAL:
        raise ValueError("relabelling generators are defined for the plain wiring")
    coords = list(s.coords())

    def swap(v, i):
        return i + 1 if v == i else i if v == i + 1 else v

    gens = [tuple(s.index(swap(x, i), a, b) for x, a, b in coords) for i in range(s.nX - 1)]
    gens += [tuple(s.index(x, swap(a, i), b) for x, a, b in coords) for i in range(s.nA - 1)]
    gens += [
        tuple(s.index(x, a, swap(b, i) if a == y else b) for x, a, b in coords)
        for y in range(s.nY)
        for i in range(s.nB - 1)
    ]
    return SymmetryGroup(s, tuple(gens))


@dataclass(frozen=True)
class Orbit:
    tag: str
    representative: LinearInequality
    members: tuple[LinearInequality, ...]


def facet_orbit_classify(
    orbits: Iterable[frozenset[LinearInequality]], group: SymmetryGroup
) -> tuple[Orbit, ...]:
    """Tag the relabelling orbits of facets that `adjacency_decomposition`
    or `facet_orbits` returns and sort them by representative, the
    lexicographically smallest member.  Tags: positivity (a single
    coordinate bounded below), pearl (choice-sum expressions), bonet (the
    three-input representative), unknown.  Members must be reduced modulo
    `normalization_equalities`, as the tag seeds are: the affine hull of
    every instrumental hull and projection.
    """
    s = group.scenario
    eliminate = _eliminate_leads(normalization_equalities(s))

    def reduced(q: LinearInequality) -> LinearInequality:
        return _reduced(eliminate, integerize((*q.coeffs, q.bound)))

    seeds: dict[LinearInequality, str] = {}
    for i in range(s.dim):
        coeffs = [0] * s.dim
        coeffs[i] = -1
        seeds.setdefault(_reduced(eliminate, (*coeffs, 0)), "positivity")
    if s.kind is Kind.INSTRUMENTAL:
        for e in pearl_expressions(s):
            seeds.setdefault(reduced(e.as_inequality(1)), "pearl")
        if s.nX == 3 and s.nA == 2 and s.nB == 2:
            seeds.setdefault(reduced(catalog("bonet").as_inequality(2)), "bonet")
    tagged = []
    for orbit in orbits:
        tags = {seeds[q] for q in orbit if q in seeds}
        if len(tags) > 1:
            raise CertificateError("one orbit matched two different families")
        members = tuple(sorted(orbit))
        tagged.append(Orbit(tags.pop() if tags else "unknown", members[0], members))
    tagged.sort(key=lambda o: o.representative)
    return tuple(tagged)


# ---------------------------------------------------------------------------
# bound computation and extension membership


def classical_maximum(e: LinearExpression):
    """Exact maximum over deterministic strategies, by best response.

    Bob's input y is free on Bell scenarios and the wire value
    wire(alpha(x), x) on the wired kinds (the scenario's `response_map`), so
    once Alice's response alpha is fixed, Bob's output can be chosen
    separately for each y: the coefficients of (x, alpha(x), b) go into the
    bucket of their y, and each bucket takes its best b (the smallest on
    ties, 0 when no input reaches it).  Returns (value, DeterministicStrategy)
    for the first alpha in lexicographic order that attains the maximum.  The
    sums run over the coefficients scaled to integers by their common
    denominator.
    """
    s = e.scenario
    _check_strategy_count(s)
    den, (ints,) = over_common_denominator([e.coeffs])
    # rows[x][a]: (y, the coefficients of Bob's outcomes b there) for each y
    # that sees a at x
    rows = [
        [[(y, ints[i : i + s.nB]) for y, i in responses] for responses in by_a]
        for by_a in s.response_map
    ]
    best = witness = None
    for alpha in itertools.product(range(s.nA), repeat=s.nX):
        buckets = [[0] * s.nB for _ in range(s.nY)]
        for by_a, a in zip(rows, alpha):
            for y, coeffs in by_a[a]:
                bucket = buckets[y]
                for b, c in enumerate(coeffs):
                    bucket[b] += c
        beta = tuple(max(range(s.nB), key=bucket.__getitem__) for bucket in buckets)
        value = sum(bucket[b] for bucket, b in zip(buckets, beta))
        if best is None or value > best:
            best, witness = value, DeterministicStrategy(s, alpha, beta)
    return Fraction(best, den) + e.constant, witness


def _collins_gisin(bell: Scenario, coords: Iterable) -> tuple[list[tuple[dict, int]], int]:
    """Each Bell entry p(ab|xy) of `coords`, in order, as an affine form
    ({coordinate: coefficient}, constant) in the Collins-Gisin coordinates
    p_A(a|x), p_B(b|y), p(ab|xy) for a < nA-1, b < nB-1 (Collins and Gisin,
    J. Phys. A 37, 1775 (2004)); and the number of coordinates.  A last
    outcome is one minus the others, so each entry expands as a product."""
    la, lb = bell.nA - 1, bell.nB - 1
    na, nb = bell.nX * la, bell.nY * lb

    def side(o: int, last: int):  # one party's outcome as (terms, constant)
        return ([(o, 1)], 0) if o < last else ([(k, -1) for k in range(last)], 1)

    forms = []
    for x, y, a, b in coords:
        (ta, ka), (tb, kb) = side(a, la), side(b, lb)
        form = {x * la + i: s * kb for i, s in ta}
        form.update({na + y * lb + j: t * ka for j, t in tb})
        joint = na + nb + (x * bell.nY + y) * la * lb
        form.update({joint + i * lb + j: s * t for i, s in ta for j, t in tb})
        forms.append(({k: m for k, m in form.items() if m}, ka * kb))
    return forms, na + nb + bell.nX * bell.nY * la * lb


def _in_collins_gisin(e: LinearExpression, forms, width) -> tuple[int, list[int], int]:
    """A Bell expression with every entry replaced by its `_collins_gisin`
    form, times the lcm D > 0 of the denominators of its nonzero coefficients
    and constant: (D, D times each of the `width` coordinates' coefficients,
    D times the constant), all `int`s.  `forms` are the forms of the entries
    with a nonzero coefficient, in order; no other entry is expanded."""
    den, ((*ints, constant),) = over_common_denominator([(*filter(None, e.coeffs), e.constant)])
    coeffs = [0] * width
    for c, (form, const) in zip(ints, forms):
        constant += c * const
        for j, m in form.items():
            coeffs[j] += c * m
    return den, coeffs, constant


def gpt_maximum(e: LinearExpression):
    """Exact maximum over post-selections of no-signalling boxes.

    Instrumental expressions are lifted first; the maximum over the projected
    set equals the maximum of the lift over the no-signalling polytope because
    post-selection is onto.  Returns (value, witness Bell box), the box
    checked to attain the value and to be nonnegative.  The LP runs in
    Collins-Gisin coordinates, where that polytope is positivity rows alone
    with right-hand sides 0 or 1, so it starts from the slack basis.
    """
    lifted = e if e.scenario.kind is Kind.BELL else lift_to_bell(e)
    bell = lifted.scenario
    forms, width = _collins_gisin(bell, bell.coords())
    nonzero = itertools.compress(forms, lifted.coeffs)
    den, objective, offset = _in_collins_gisin(lifted, nonzero, width)
    rows = []
    for form, const in forms:
        if len(form) > 1 or const:  # a lone joint coordinate is its sign
            row = [0] * len(objective)
            for j, m in form.items():
                row[j] = -m
            rows.append((row, const))
    # the objective times den > 0: the same pivots and x
    res = solve_lp(objective, ineqs=rows, nonneg=True)
    if res.status is not LpStatus.OPTIMAL:
        raise CertificateError("the no-signalling polytope is compact and nonempty")
    # each box entry from x times its common denominator, one Fraction apiece
    xden, (xs,) = over_common_denominator([res.x])
    box = Correlation(bell, tuple(
        Fraction(const * xden + sum(m * xs[j] for j, m in form.items()), xden)
        for form, const in forms
    ))
    value = (res.value + offset) / den
    if lifted.evaluate(box) != value:
        raise CertificateError("the witness box does not attain the no-signalling maximum")
    if any(v < 0 for v in box.entries):
        raise CertificateError("the witness box has a negative entry")
    return value, box


def extension_membership(p: Correlation, theory: str) -> MembershipCertificate:
    """Can p be extended to a Bell box of the given theory?

    theory "classical": weights over Bell deterministic strategies whose
    post-selection mixes to p (the weights certify inside; a separating facet
    of the projected polytope certifies outside).  theory "nosignalling": an
    exact LP over Bell boxes with the wired coordinates pinned to p; inside
    returns the extension, checked in integers to be a nonnegative
    no-signalling box equal to p there, outside a valid inequality
    separating p from every post-selected no-signalling box.  The classical
    test raises CapacityError when s has more than
    `_MEMBERSHIP_STRATEGY_LIMIT` deterministic strategies.
    """
    s = p.scenario
    if s.kind is Kind.BELL:
        raise ValueError("extension tests start from an Instrumental table")
    if not p.exact:
        raise TypeError("exact membership needs rational entries")
    bell = s.parent_bell()
    if theory == "classical":
        _check_strategy_count(s, _MEMBERSHIP_STRATEGY_LIMIT)
        # One column per strategy, duplicates kept: s and its parent Bell
        # scenario enumerate the same (alpha, beta), so the weights line up
        # with enumerate_deterministic_strategies(bell).
        columns = [
            strategy_to_correlation(d).entries
            for d in enumerate_deterministic_strategies(s)
        ]
        return membership(p, VPolytope(s.dim, tuple(columns)))
    if theory != "nosignalling":
        raise ValueError("theory must be 'classical' or 'nosignalling'")
    # Every row times one den > 0, the table's common denominator: the same
    # pivots and Farkas vector as the rational rows (see `linprog`).
    den, (pins,) = over_common_denominator([p.entries])
    eq_rows = [
        ([den * c for c in coeffs], den * r)
        for coeffs, r in no_signalling_polytope(bell).equalities
    ]
    pin_rows = []
    for i, v in zip(s.wired_indices(), pins):
        coeffs = [0] * bell.dim
        coeffs[i] = den
        pin_rows.append((coeffs, v))
    res = solve_lp([0] * bell.dim, eqs=eq_rows + pin_rows, nonneg=True)
    if res.status is LpStatus.OPTIMAL:
        # The extension is checked in integers, on x times its denominator:
        # nonnegative, no-signalling, and equal to p where the wire pins it.
        xden, (xs,) = over_common_denominator([res.x])
        if any(v < 0 for v in xs) or any(
            _dot(c, xs) != r * xden for c, r in eq_rows + pin_rows
        ):
            raise CertificateError("the extension is not a no-signalling box through p")
        return MembershipCertificate(inside=True, extension=res.x)
    # Farkas multipliers of the pinned rows give a functional whose
    # no-signalling maximum certifies the separation.
    if res.farkas is None:
        raise CertificateError("infeasible extension LP without a Farkas vector")
    coeffs = res.farkas[len(eq_rows):]  # one per pinned coordinate of s
    bound, _ = gpt_maximum(LinearExpression(s, coeffs))
    sep = reduce_modulo(LinearInequality(coeffs, bound), ())
    margin = sep.violation(p.entries)
    if margin <= 0:
        raise CertificateError("Farkas functional does not separate the table")
    return MembershipCertificate(inside=False, separator=sep, margin=margin)
