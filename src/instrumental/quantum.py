"""Two-qubit measurement strategies and their probability tables.

Born probabilities come out as floats.  Float tables are checked within a
tolerance by `scenario.validate` and evaluated by
`LinearExpression.evaluate`, and `cli` compares the resulting quantum values
with their closed forms within a tolerance.  `rationalize_correlation` is the
only bridge from a float table into the exact layer (facets, LPs,
membership).  All observables are restricted to the x-z plane of the Bloch
sphere, which is enough for every extremal two-input/two-output correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .inequalities import catalog
from .scenario import (
    Correlation,
    Kind,
    Scenario,
    dummy_input_extension,
    postselect,
)

__all__ = [
    "Observable2",
    "QuantumStrategy",
    "born_table",
    "chained_strategy",
    "SeeSawResult",
    "tilted_search",
    "rationalize_correlation",
]

_UNIT_TOL = 1e-12
_SNAP_TOL = 1e-9  # largest move rationalization may make to an entry or total


@dataclass(frozen=True)
class Observable2:
    """A binary qubit observable vx*sigma_x + vz*sigma_z.

    The direction (vx, vz) must be a unit vector.  Outcome 0 is the +1
    eigenvalue throughout.
    """

    vx: float
    vz: float

    def __post_init__(self) -> None:
        norm = math.hypot(self.vx, self.vz)
        if not abs(norm - 1.0) <= _UNIT_TOL:  # also rejects nan
            raise ValueError(f"direction must have unit length, got {norm!r}")

    @classmethod
    def from_angle(cls, theta: float) -> "Observable2":
        """Direction at angle theta from the z axis, in the x-z plane."""
        return cls(math.sin(theta), math.cos(theta))


@dataclass(frozen=True)
class QuantumStrategy:
    """One planar observable per input on each side of the maximally
    entangled state |Phi+> = (|00> + |11>)/sqrt(2)."""

    alice: tuple[Observable2, ...]
    bob: tuple[Observable2, ...]

    def __post_init__(self) -> None:
        if not self.alice or not self.bob:
            raise ValueError("each side needs at least one observable")


def born_table(strategy: QuantumStrategy, scenario: Scenario) -> Correlation:
    """The float probability table of a strategy in the given scenario.

    Instrumental tables are produced by measuring the Bell table and feeding
    Alice's outcome down the wire, so Bob needs one observable per wire value.
    """
    if scenario.nA != 2 or scenario.nB != 2:
        raise ValueError("planar qubit strategies produce binary outcomes")
    if len(strategy.alice) != scenario.nX:
        raise ValueError("need one observable per input x")
    if len(strategy.bob) != scenario.nY:
        raise ValueError("need one observable per wire value")
    # p(ab|xy) = (1 + (-1)^(a+b) u_x.w_y)/4 on |Phi+>, in Bell index order.
    # Directions are unit to within 1e-12, so a negative entry is rounding.
    entries: list[float] = []
    for u in strategy.alice:
        for w in strategy.bob:
            c = u.vx * w.vx + u.vz * w.vz
            same, differ = max((1.0 + c) / 4.0, 0.0), max((1.0 - c) / 4.0, 0.0)
            entries += (same, differ, differ, same)
    if scenario.kind is Kind.BELL:
        return Correlation(scenario, tuple(entries))
    return postselect(Correlation(scenario.parent_bell(), tuple(entries)), scenario)


def chained_strategy(n: int) -> QuantumStrategy:
    """Optimal n-input chain in the x-z plane.

    Alice's directions sit at angles pi*j/n, Bob's halfway between
    consecutive ones; every chained correlator term then equals
    cos(pi/2n).
    """
    if n < 2:
        raise ValueError("the chain needs n >= 2")
    alice = tuple(Observable2.from_angle(math.pi * j / n) for j in range(n))
    bob = tuple(
        Observable2.from_angle(math.pi * (2 * j + 1) / (2 * n)) for j in range(n)
    )
    return QuantumStrategy(alice, bob)


@dataclass(frozen=True)
class SeeSawResult:
    """The optimal tilted strategy and the values it reaches."""

    bell_value: float
    instrumental_value: float
    strategy: QuantumStrategy
    iterations: int


def tilted_search(alpha) -> SeeSawResult:
    """The strategy reaching 2*sqrt(alpha^2 + 1) on the weighted correlator
    test alpha*(E00 + E10) + E01 - E11, and its value on the tilted
    Instrumental expression.

    Tsirelson's vector form gives the optimum in closed form: with
    h = atan(1/alpha), Alice measures at 0 and 2h, Bob at h and h - pi/2.
    Both values are read off the Born table, the Instrumental one through
    the dummy-input extension.  Nothing is iterated, so `iterations` is 0.
    """
    a = float(alpha)
    if a < 1.0:
        raise ValueError("the weight must satisfy alpha >= 1")
    h = math.atan(1.0 / a)
    strategy = QuantumStrategy(
        (Observable2.from_angle(0.0), Observable2.from_angle(2 * h)),
        (Observable2.from_angle(h), Observable2.from_angle(h - math.pi / 2)),
    )
    bell = born_table(strategy, Scenario.bell(2, 2))
    wired = postselect(dummy_input_extension(bell), Scenario.instrumental(3))
    return SeeSawResult(
        catalog("tilted_chsh", alpha=alpha).evaluate(bell),
        catalog("tilted", alpha=alpha).evaluate(wired),
        strategy,
        0,
    )


def rationalize_correlation(
    p: Correlation, *, max_denominator: int = 10**6
) -> Correlation:
    """Snap a float table to nearby small rationals and renormalize exactly.

    Raises if an entry lies outside [0, 1] by more than 1e-9, if any entry
    moves by more than 1e-9, or if a context's total is too far from one for
    the exact renormalization to be faithful.  Each is decided exactly: e - 1
    is exact for a float e in [1/2, 2], and the rest on the floats' rational
    values.
    """
    if p.exact:
        return p
    if not all(-_SNAP_TOL <= e and e - 1 <= _SNAP_TOL for e in p.entries):
        raise ValueError("table entries must lie in [0, 1]")
    s = p.scenario
    approx = [Fraction(e).limit_denominator(max_denominator) for e in p.entries]
    entries = list(approx)
    for block in s.input_blocks():
        total = sum(entries[i] for i in block)
        if abs(total - 1) > _SNAP_TOL:
            raise ValueError(f"context total {float(total)} too far from one")
        if total != 1:
            for i in block:
                entries[i] /= total
    drift = max(abs(f - Fraction(e)) for f, e in zip(entries, p.entries))
    if drift > _SNAP_TOL:
        raise ValueError(f"rationalization moved an entry by {float(drift)}")
    return Correlation(s, tuple(entries))
