"""Causal scenarios and their correlations.

Three scenario kinds are supported:

* Bell: two parties with free inputs x, y and outputs a, b; a correlation is
  the table p(ab|xy).
* Instrumental: Bob's input is wired to Alice's output (y = a); a correlation
  is the table p(ab|x).
* f-Instrumental: the wire carries y = f(a, x) for an explicit table f; the
  correlation is again p(ab|x).

Tables are flattened into coordinate vectors with the fixed index order
``((x*nY + y)*nA + a)*nB + b`` for Bell and ``(x*nA + a)*nB + b`` for the
instrumental kinds.  Entries are `Fraction` (exact) or `float` (quantum
output); the two are never mixed inside one table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError
from .rationals import over_common_denominator

__all__ = [
    "Kind",
    "Scenario",
    "Correlation",
    "DeterministicStrategy",
    "ValidationReport",
    "iter_deterministic_strategies",
    "enumerate_deterministic_strategies",
    "strategy_to_correlation",
    "classical_correlations",
    "postselect",
    "dummy_input_extension",
    "append_dummy_input",
    "validate",
    "mix_correlations",
    "random_mixture",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class Kind(Enum):
    BELL = "bell"
    INSTRUMENTAL = "instrumental"
    F_INSTRUMENTAL = "f_instrumental"


@dataclass(frozen=True)
class Scenario:
    """Cardinalities (and, for f-Instrumental, the wiring table) of a scenario.

    ``wiring[a][x]`` is the input Bob receives when Alice saw x and output a.
    Plain Instrumental stores no table (its wire is y = a, with nY == nA);
    downstream code reads the wire through `wire`, `parent_bell`,
    `wired_indices` and `response_map`, which treat both wired kinds alike.
    """

    kind: Kind
    nX: int
    nY: int
    nA: int
    nB: int
    wiring: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        # An instrumental nY is Bob's copy of nA, an output count checked below.
        if self.nX < 1 or (self.nY < 1 and self.kind is not Kind.INSTRUMENTAL):
            raise ValueError("input cardinalities must be >= 1")
        if self.nA < 2 or self.nB < 2:
            raise ValueError("output cardinalities must be >= 2")
        if self.kind is Kind.INSTRUMENTAL and self.nY != self.nA:
            raise ValueError("instrumental scenario requires nY == nA")
        if self.kind is Kind.F_INSTRUMENTAL:
            w = self.wiring
            if w is None or len(w) != self.nA or any(len(row) != self.nX for row in w):
                raise ValueError("wiring must be an nA x nX table")
            if any(y < 0 or y >= self.nY for row in w for y in row):
                raise ValueError("wiring entries must lie in range(nY)")
        elif self.wiring is not None:
            raise ValueError("wiring is only meaningful for f-instrumental scenarios")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def bell(nX: int, nY: int, nA: int = 2, nB: int = 2) -> "Scenario":
        return Scenario(Kind.BELL, nX, nY, nA, nB)

    @staticmethod
    def instrumental(nX: int, nA: int = 2, nB: int = 2) -> "Scenario":
        return Scenario(Kind.INSTRUMENTAL, nX, nA, nA, nB)

    @staticmethod
    def f_instrumental(
        nX: int, nY: int, nA: int, nB: int, wiring: Sequence[Sequence[int]]
    ) -> "Scenario":
        table = tuple(tuple(row) for row in wiring)
        return Scenario(Kind.F_INSTRUMENTAL, nX, nY, nA, nB, table)

    @staticmethod
    def chained(n: int) -> "Scenario":
        """The chained wiring y = (x - a) mod n with inputs x in 0..n."""
        if n < 2:
            raise ValueError("chained scenarios need n >= 2")
        wiring = tuple(tuple((x - a) % n for x in range(n + 1)) for a in range(2))
        return Scenario(Kind.F_INSTRUMENTAL, n + 1, n, 2, 2, wiring)

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        if self.kind is Kind.BELL:
            return self.nX * self.nY * self.nA * self.nB
        return self.nX * self.nA * self.nB

    def wire(self, a: int, x: int) -> int:
        """Bob's input given Alice's output a at input x."""
        if self.kind is Kind.INSTRUMENTAL:
            return a
        if self.kind is Kind.F_INSTRUMENTAL:
            return self.wiring[a][x]  # type: ignore[index]
        raise ValueError("Bell scenarios have a free input, not a wire")

    def parent_bell(self) -> "Scenario":
        """The Bell scenario whose second input the wire feeds."""
        if self.kind is Kind.BELL:
            raise ValueError("Bell scenarios have no parent Bell scenario")
        return Scenario.bell(self.nX, self.nY, self.nA, self.nB)

    def wired_indices(self) -> list[int]:
        """Parent-Bell index of each coordinate, in flat index order: the
        coordinate (x, a, b) sits at (x, wire(a, x), a, b)."""
        bell = self.parent_bell()
        return [bell.index(x, self.wire(a, x), a, b) for x, a, b in self.coords()]

    def index(self, *coords: int) -> int:
        """Flat coordinate index of (x, y, a, b) or (x, a, b)."""
        if self.kind is Kind.BELL:
            x, y, a, b = coords
            self._check(x, self.nX, "x"), self._check(y, self.nY, "y")
            self._check(a, self.nA, "a"), self._check(b, self.nB, "b")
            return ((x * self.nY + y) * self.nA + a) * self.nB + b
        x, a, b = coords
        self._check(x, self.nX, "x")
        self._check(a, self.nA, "a"), self._check(b, self.nB, "b")
        return (x * self.nA + a) * self.nB + b

    @staticmethod
    def _check(v: int, n: int, name: str) -> None:
        if not 0 <= v < n:
            raise IndexError(f"{name}={v} out of range({n})")

    def coords(self) -> Iterator[tuple[int, ...]]:
        """All coordinate tuples in flat index order."""
        if self.kind is Kind.BELL:
            return itertools.product(
                range(self.nX), range(self.nY), range(self.nA), range(self.nB)
            )
        return itertools.product(range(self.nX), range(self.nA), range(self.nB))

    def input_blocks(self) -> list[list[int]]:
        """Coordinate indices grouped by input context (one block per x or xy).

        The outcomes (a, b) are innermost in the flat layout, so each context
        is a contiguous run of nA*nB indices.
        """
        k = self.nA * self.nB
        return [list(range(i, i + k)) for i in range(0, self.dim, k)]

    @functools.cached_property
    def response_map(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """Where Alice's answer sends Bob: ``response_map[x][a]`` lists, for
        each Bob input y that sees a at x, the pair (y, flat index of the
        entry with Bob's outcome b = 0); outcome b sits at that index + b.
        Every y sees a in a Bell scenario, only wire(a, x) on the wired kinds.
        """
        idx = self.index
        if self.kind is Kind.BELL:
            return tuple(
                tuple(tuple((y, idx(x, y, a, 0)) for y in range(self.nY))
                      for a in range(self.nA))
                for x in range(self.nX)
            )
        return tuple(
            tuple(((self.wire(a, x), idx(x, a, 0)),) for a in range(self.nA))
            for x in range(self.nX)
        )

    @functools.cached_property
    def marginal_groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The no-signalling conditions of a Bell scenario as index groups.

        Each group holds one index block per context, and the block sums are
        one party's marginal there: Alice's p(a|x) across y for every (x, a),
        then Bob's p(b|y) across x for every (y, b).  A table is
        no-signalling iff the block sums agree within every group.
        """
        if self.kind is not Kind.BELL:
            raise ValueError("marginal conditions apply to Bell scenarios")
        idx = self.index
        nX, nY, nA, nB = self.nX, self.nY, self.nA, self.nB
        alice = tuple(
            tuple(tuple(idx(x, y, a, b) for b in range(nB)) for y in range(nY))
            for x in range(nX)
            for a in range(nA)
        )
        bob = tuple(
            tuple(tuple(idx(x, y, a, b) for a in range(nA)) for x in range(nX))
            for y in range(nY)
            for b in range(nB)
        )
        return alice + bob


@dataclass(frozen=True)
class Correlation:
    """A flattened probability table over a scenario."""

    scenario: Scenario
    entries: tuple

    def __post_init__(self) -> None:
        if len(self.entries) != self.scenario.dim:
            raise ValueError(
                f"expected {self.scenario.dim} entries, got {len(self.entries)}"
            )
        kinds = {type(e) for e in self.entries}
        if int in kinds and kinds <= {Fraction, int}:
            object.__setattr__(self, "entries", tuple(
                Fraction(e) if type(e) is int else e for e in self.entries
            ))
        elif not (kinds <= {Fraction} or kinds <= {float}):
            raise TypeError("entries must be all rational or all float")

    @property
    def exact(self) -> bool:
        return not self.entries or isinstance(self.entries[0], Fraction)

    def __getitem__(self, coords) -> Fraction | float:
        if isinstance(coords, tuple):
            return self.entries[self.scenario.index(*coords)]
        return self.entries[coords]


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of response functions.

    ``alpha[x]`` is Alice's output.  ``beta`` is indexed by Bob's input y,
    which for the wired kinds is the wire value.
    """

    scenario: Scenario
    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self) -> None:
        s = self.scenario
        if len(self.alpha) != s.nX:
            raise ValueError("alpha must assign an output to every x")
        if len(self.beta) != s.nY:
            raise ValueError("beta must assign an output to every wire value")
        if any(not 0 <= a < s.nA for a in self.alpha):
            raise ValueError("alpha values out of range")
        if any(not 0 <= b < s.nB for b in self.beta):
            raise ValueError("beta values out of range")


# The most deterministic strategies, or table entries, a command builds.
_COUNT_LIMIT = 10**7


def _check_strategy_count(s: Scenario, limit: int = _COUNT_LIMIT) -> None:
    """Raise CapacityError when s has more than `limit` deterministic
    strategies (nA^nX * nB^nY)."""
    count = s.nA**s.nX * s.nB**s.nY
    if count > limit:
        raise CapacityError(
            f"{count} deterministic strategies exceed the limit of {limit}"
        )


def iter_deterministic_strategies(
    s: Scenario, limit: int = _COUNT_LIMIT
) -> Iterator[DeterministicStrategy]:
    """All deterministic strategies in lexicographic (alpha, beta) order, one
    at a time.

    Raises CapacityError at the call, before any strategy is made, when the
    count exceeds `limit`.
    """
    _check_strategy_count(s, limit)
    return (
        DeterministicStrategy(s, alpha, beta)
        for alpha in itertools.product(range(s.nA), repeat=s.nX)
        for beta in itertools.product(range(s.nB), repeat=s.nY)
    )


def enumerate_deterministic_strategies(
    s: Scenario, limit: int = _COUNT_LIMIT
) -> list[DeterministicStrategy]:
    """`iter_deterministic_strategies` as a list."""
    return list(iter_deterministic_strategies(s, limit))


def _strategy_table(
    s: Scenario, alpha: Sequence[int], beta: Sequence[int]
) -> Correlation:
    """The 0/1 table of Alice's responses alpha and Bob's beta (indexed by y)."""
    entries = [_F0] * s.dim
    for responses, a in zip(s.response_map, alpha):
        for y, i in responses[a]:
            entries[i + beta[y]] = _F1
    return Correlation(s, tuple(entries))


def strategy_to_correlation(d: DeterministicStrategy) -> Correlation:
    """The 0/1 table induced by a deterministic strategy."""
    return _strategy_table(d.scenario, d.alpha, d.beta)


def classical_correlations(s: Scenario) -> list[Correlation]:
    """Correlations of all deterministic strategies, without duplicates.

    Two strategies induce the same table exactly when they share alpha and
    their betas differ only on wire values that no input reaches.  Of each
    such group, the first in enumeration order is kept: the one whose beta is
    0 on every unreached wire value.  So each alpha runs only over the
    outputs on its reached wire values (every y in a Bell scenario), in
    lexicographic order, and no strategy is built.  Raises CapacityError
    first, as `iter_deterministic_strategies` does.
    """
    _check_strategy_count(s)
    out: list[Correlation] = []
    for alpha in itertools.product(range(s.nA), repeat=s.nX):
        reached = {y for rs, a in zip(s.response_map, alpha) for y, _ in rs[a]}
        outputs = [range(s.nB) if y in reached else (0,) for y in range(s.nY)]
        out.extend(
            _strategy_table(s, alpha, beta) for beta in itertools.product(*outputs)
        )
    return out


def postselect(p: Correlation, target: Scenario) -> Correlation:
    """Restrict a Bell correlation to the slice where Bob's input obeys the wire.

    The result is the instrumental table q(ab|x) = p(ab|x, y=wire(a, x)).  For
    no-signalling p this is a normalized correlation; for signalling p the
    blocks may fail to sum to one, which is reported as an error.
    """
    s = p.scenario
    if s.kind is not Kind.BELL:
        raise ValueError("postselect expects a Bell correlation")
    if target.kind is Kind.BELL:
        raise ValueError("postselect target must be instrumental or f-instrumental")
    if (target.nX, target.nA, target.nB) != (s.nX, s.nA, s.nB):
        raise ValueError("target cardinalities do not match the Bell scenario")
    if target.nY > s.nY:
        raise ValueError("wire values exceed the Bell scenario's nY")
    # Index through p's own scenario: its nY may exceed the wire range.
    q = Correlation(target, tuple(
        p.entries[s.index(x, target.wire(a, x), a, b)] for x, a, b in target.coords()
    ))
    report = validate(q)
    if not report.normalized:
        raise ValueError(
            "post-selected table is not normalized; the input correlation is "
            f"signalling (first bad block at {report.first_violation})"
        )
    return q


def append_dummy_input(p: Correlation, fixed_a: int) -> Correlation:
    """Extend a Bell correlation with one extra input for Alice.

    At the new input x = nX, Alice outputs `fixed_a` deterministically and Bob
    keeps the marginal he had at x = 0.  The extension is no-signalling iff the
    input is.
    """
    s = p.scenario
    if s.kind is not Kind.BELL:
        raise ValueError("dummy inputs apply to Bell correlations")
    if not 0 <= fixed_a < s.nA:
        raise ValueError("fixed output out of range")
    ext = Scenario.bell(s.nX + 1, s.nY, s.nA, s.nB)
    entries = list(p.entries)
    zero = _F0 if p.exact else 0.0
    for y in range(s.nY):
        marg = []
        for b in range(s.nB):
            marg.append(sum(p.entries[s.index(0, y, a, b)] for a in range(s.nA)))
        for a in range(s.nA):
            for b in range(s.nB):
                entries.append(marg[b] if a == fixed_a else zero)
    return Correlation(ext, tuple(entries))


def dummy_input_extension(p: Correlation) -> Correlation:
    """Extend a two-input Bell correlation with a third input where a = 0."""
    if p.scenario.nX != 2:
        raise ValueError("the dummy-input extension starts from nX = 2")
    return append_dummy_input(p, fixed_a=0)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the probabilistic-consistency checks on a table.

    `no_signalling` is None for instrumental kinds, where the condition has no
    meaning.  `first_violation` names the first failed check and the offending
    coordinate (or block/context indices for the aggregate checks).
    """

    nonnegative: bool
    normalized: bool
    no_signalling: bool | None
    first_violation: tuple[str, tuple] | None


def validate(p: Correlation, atol: float = 1e-9) -> ValidationReport:
    """Check nonnegativity, per-context normalization and (Bell) no-signalling.

    Exact tables are checked exactly, in integers; float tables within `atol`.
    """
    s = p.scenario
    if p.exact:
        one, (values,) = over_common_denominator([p.entries])
    else:
        values, one = p.entries, 1.0
    get = values.__getitem__
    tol = 0 if p.exact else atol
    first: tuple[str, tuple] | None = None

    neg = next((i for i, v in enumerate(values) if v < -tol), None)
    nonneg = neg is None
    if not nonneg:
        first = ("nonnegative", next(itertools.islice(s.coords(), neg, None)))

    unnormalized = next((bi for bi, block in enumerate(s.input_blocks())
                         if not abs(sum(map(get, block)) - one) <= tol), None)
    normalized = unnormalized is None
    if not normalized:
        first = first or ("normalized", (unnormalized,))

    nosig: bool | None = None
    if s.kind is Kind.BELL:
        nosig = not _marginal_gap(s, values) > tol
        if not nosig:
            first = first or ("no_signalling", ())
    return ValidationReport(nonneg, normalized, nosig, first)


def _marginal_gap(s: Scenario, values: Sequence):
    """Largest absolute marginal mismatch of `values` across contexts."""
    get = values.__getitem__
    worst = 0
    for group in s.marginal_groups:
        sums = [sum(map(get, block)) for block in group]
        worst = max(worst, max(sums) - sums[0], sums[0] - min(sums))
    return worst


def mix_correlations(pairs: Iterable[tuple[Fraction, Correlation]]) -> Correlation:
    """Convex (or affine) combination of exact correlations over one scenario."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("nothing to mix")
    s = pairs[0][1].scenario
    if any(c.scenario != s for _, c in pairs):
        raise ValueError("mixtures must stay within one scenario")
    if any(not c.exact for _, c in pairs):
        raise TypeError("mixtures are defined for exact correlations only")
    entries = [_F0] * s.dim
    for w, c in pairs:
        w = Fraction(w)
        for i, e in enumerate(c.entries):
            entries[i] += w * e
    return Correlation(s, tuple(entries))


def random_mixture(
    s: Scenario,
    rng,
    *,
    pool: Sequence[Correlation] | None = None,
) -> Correlation:
    """A random rational mixture of four extreme points, drawn from `rng`.

    All weights are multiples of 1/d for one denominator d <= 1000, so the
    result has small exact entries.  The default pool is the deterministic
    strategies of `s`; pass a precomputed `pool` to avoid re-enumeration or to
    mix over other extreme points.
    """
    if pool is None:
        pool = [
            strategy_to_correlation(d)
            for d in enumerate_deterministic_strategies(s)
        ]
    parts = 4
    d = rng.randint(1, 1000)
    cuts = sorted(rng.randint(0, d) for _ in range(parts - 1))
    weights = [
        Fraction(hi - lo, d) for lo, hi in zip([0, *cuts], [*cuts, d])
    ]
    picks = [rng.choice(pool) for _ in range(parts)]
    return mix_correlations(list(zip(weights, picks)))

