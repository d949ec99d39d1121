"""Helpers for exact rational arithmetic.

Correlation tables are `fractions.Fraction`s.  Inequalities and equalities
built by the polytope layer have primitive Python `int` entries, which
compare, hash and print like the equal `Fraction`s, and LP rows are `int`s,
rational data scaled by one common denominator (`over_common_denominator`).
Floating-point numbers appear in Born tables and their values (`quantum`),
in `scenario.validate`'s tolerance on float tables, in
`inequalities.BoundsTriple`, which orders its three bounds in floats, and in
`cli`, which checks a quantum value against its closed form within a
tolerance.  A float table reaches an exact computation only through
`quantum.rationalize_correlation` (continued fractions with a denominator
cap).  The helpers here scale rational vectors to integer ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = ["integerize", "over_common_denominator", "primitive"]


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


def over_common_denominator(
    vecs: Iterable[Sequence[int | Fraction]],
) -> tuple[int, list[tuple[int, ...]]]:
    """(D, rows): D > 0 is the lcm of every entry's denominator, and each
    row is its vector times D, as `int`s."""
    vecs = list(vecs)
    den = lcm(*(v.denominator for vec in vecs for v in vec))
    return den, [tuple(v.numerator * (den // v.denominator) for v in vec) for vec in vecs]


def primitive(ints: Iterable[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (kept positive)."""
    ints = tuple(ints)
    g = gcd(*ints)
    if g <= 1:
        return ints
    return tuple(v // g for v in ints)
