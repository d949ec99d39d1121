"""Helpers for exact rational arithmetic.

Correlation tables and LP data are `fractions.Fraction`s.  Inequalities and
equalities built by the polytope layer have primitive Python `int` entries,
which compare, hash and print like the equal `Fraction`s.
Floating-point numbers appear in Born tables and their values (`quantum`),
in `scenario.validate`'s tolerance on float tables, in
`inequalities.BoundsTriple`, which orders its three bounds in floats, and in
`cli`, which checks a quantum value against its closed form within a
tolerance.  A float table reaches an exact computation only through
`quantum.rationalize_correlation` (continued fractions with a denominator
cap).  The helpers here scale rational vectors to primitive integer ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = ["integerize", "primitive"]


def integerize(vec: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to a primitive integer vector.

    Entries must be `int` or `Fraction`.  Primitive means the gcd of all
    entries is 1 (the zero vector stays zero).  The scale factor is always
    positive, so inequality senses are preserved.  An all-`int` vector
    needs no common denominator and goes straight to `primitive`.
    """
    if all(type(v) is int for v in vec):
        return primitive(vec)
    den = lcm(*(v.denominator for v in vec))
    return primitive(v.numerator * (den // v.denominator) for v in vec)


def primitive(ints: Iterable[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (kept positive)."""
    ints = tuple(ints)
    g = gcd(*ints)
    if g <= 1:
        return ints
    return tuple(v // g for v in ints)
