"""Two-qubit measurement strategies and their probability tables.

Floating point lives here and nowhere else: Born probabilities come out as
floats, and `rationalize_correlation` is the only bridge back into the exact
layer.  All observables are restricted to the x-z plane of the Bloch sphere,
which is enough for every extremal two-input/two-output correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    "TwoQubitState",
    "QuantumStrategy",
    "born_table",
    "chsh_strategy",
    "bonet_strategy",
    "chained_strategy",
    "SeeSawResult",
    "tilted_search",
    "rationalize_correlation",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

_UNIT_TOL = 1e-12
_CLIP_TOL = 1e-12
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
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"direction must have unit length, got {norm!r}")

    @classmethod
    def from_angle(cls, theta: float) -> "Observable2":
        """Direction at angle theta from the z axis, in the x-z plane."""
        return cls(math.sin(theta), math.cos(theta))

    @property
    def angle(self) -> float:
        return math.atan2(self.vx, self.vz)

    def matrix(self) -> np.ndarray:
        return self.vx * _SX + self.vz * _SZ

    def projector(self, outcome: int) -> np.ndarray:
        if outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        sign = 1.0 if outcome == 0 else -1.0
        return (_I2 + sign * self.matrix()) / 2.0


class TwoQubitState:
    """A validated 4x4 density matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        rho = np.asarray(matrix, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("a two-qubit state is a 4x4 matrix")
        if np.linalg.norm(rho - rho.conj().T) > 1e-12:
            raise ValueError("density matrix must be hermitian")
        if abs(np.trace(rho) - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            raise ValueError("density matrix must be positive semidefinite")
        self.matrix = rho
        self.matrix.flags.writeable = False

    @classmethod
    def phi_plus(cls) -> "TwoQubitState":
        """The maximally entangled state (|00> + |11>)/sqrt(2)."""
        v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        return cls(np.outer(v, v.conj()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoQubitState):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"TwoQubitState({self.matrix!r})"


@dataclass(frozen=True)
class QuantumStrategy:
    """A shared state with one planar observable per input on each side."""

    state: TwoQubitState
    alice: tuple[Observable2, ...]
    bob: tuple[Observable2, ...]

    def __post_init__(self) -> None:
        if not self.alice or not self.bob:
            raise ValueError("each side needs at least one observable")


def _bell_entries(strategy: QuantumStrategy, nx: int, ny: int) -> list[float]:
    rho = strategy.state.matrix
    entries: list[float] = []
    for x in range(nx):
        pa = [strategy.alice[x].projector(a) for a in (0, 1)]
        for y in range(ny):
            pb = [strategy.bob[y].projector(b) for b in (0, 1)]
            for a in (0, 1):
                for b in (0, 1):
                    val = float(np.trace(rho @ np.kron(pa[a], pb[b])).real)
                    if val < 0.0:
                        if val < -_CLIP_TOL:
                            raise ValueError(
                                f"Born probability {val} below tolerance"
                            )
                        val = 0.0
                    entries.append(val)
    return entries


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
    entries = _bell_entries(strategy, scenario.nX, scenario.nY)
    if scenario.kind is Kind.BELL:
        return Correlation(scenario, tuple(entries))
    return postselect(Correlation(scenario.parent_bell(), tuple(entries)), scenario)


def chsh_strategy() -> QuantumStrategy:
    """Angles reaching 2*sqrt(2) on the two-input correlator test."""
    return QuantumStrategy(
        TwoQubitState.phi_plus(),
        (Observable2.from_angle(0.0), Observable2.from_angle(math.pi / 2)),
        (Observable2.from_angle(math.pi / 4), Observable2.from_angle(-math.pi / 4)),
    )


def bonet_strategy() -> QuantumStrategy:
    """Three-input strategy whose wired table reaches (3 + sqrt(2))/2.

    The first two inputs play the optimal correlator game; the third points
    opposite Bob's first direction, so the penalized joint outcome never
    occurs.
    """
    r = 1.0 / math.sqrt(2.0)
    return QuantumStrategy(
        TwoQubitState.phi_plus(),
        (Observable2(1.0, 0.0), Observable2(0.0, 1.0), Observable2(-r, -r)),
        (Observable2(r, r), Observable2(r, -r)),
    )


def chained_strategy(n: int) -> QuantumStrategy:
    """Optimal n-input chain over the shared singlet plane.

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
    return QuantumStrategy(TwoQubitState.phi_plus(), alice, bob)


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
        TwoQubitState.phi_plus(),
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

    Raises if any entry moves by more than 1e-9, or if a context's total is
    too far from one for the exact renormalization to be faithful.
    """
    if p.exact:
        return p
    s = p.scenario
    approx = [Fraction(e).limit_denominator(max_denominator) for e in p.entries]
    entries = list(approx)
    for block in s.input_blocks():
        total = sum(entries[i] for i in block)
        if abs(float(total) - 1.0) > _SNAP_TOL:
            raise ValueError(f"context total {float(total)} too far from one")
        if total != 1:
            for i in block:
                entries[i] /= total
    drift = max(abs(float(f) - e) for f, e in zip(entries, p.entries))
    if drift > _SNAP_TOL:
        raise ValueError(f"rationalization moved an entry by {drift}")
    return Correlation(s, tuple(entries))
