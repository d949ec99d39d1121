"""Helpers for exact rational arithmetic.

All polytope-facing data in this package is kept as `fractions.Fraction`.
Floating-point numbers appear only at the quantum-evaluation boundary and are
converted by `quantum.rationalize_correlation` (continued fractions with a
denominator cap) before they touch any exact computation.  The helpers here
scale rational vectors to primitive integer ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

__all__ = ["integerize", "primitive"]


def integerize(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to a primitive integer vector.

    Primitive means the gcd of all entries is 1 (the zero vector stays zero).
    The scale factor is always positive, so inequality senses are preserved.
    """
    fracs = [Fraction(v) for v in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm // gcd(lcm, f.denominator) * f.denominator
    ints = [int(f * lcm) for f in fracs]
    return primitive(ints)


def primitive(ints: Iterable[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (kept positive)."""
    ints = tuple(ints)
    g = gcd(*ints)
    if g <= 1:
        return ints
    return tuple(v // g for v in ints)
