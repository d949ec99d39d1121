"""Exact linear programming over the rationals.

A dense tableau simplex with Bland's anti-cycling pivot rule; there is no
scaling, no tolerance and no big-M construction.  Inputs are anything
`Fraction()` accepts; outputs and certificates are `Fraction`s.  Inside,
each tableau cell is a reduced pair of `int`s (numerator, denominator > 0;
zero is (0, 1)): the values a `Fraction` tableau would hold, without a
`Fraction` object per cell operation.  Both exact answers are certified,
and each certificate is checked in `Fraction`s against the caller's rows
before it is handed to the caller: a Farkas vector for infeasibility, dual
multipliers for an optimum.

Problems are stated over free or nonnegative variables as

    max/min  objective . x
    s.t.     coeffs . x <= rhs   (ineqs)
             coeffs . x  = rhs   (eqs)

Internally everything is reduced to standard form (equalities over
nonnegative variables) with slack variables and, for free variables, a
difference split.  An LP with no equality rows and no negative right-hand
side starts phase 2 straight from the slack basis, which is feasible there.
Every other LP runs two phases, with one artificial column per row.  Either
way the duals are read off the final objective row at the starting basis's
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import CertificateError

__all__ = ["LpStatus", "LpResult", "solve_lp"]

_F0 = Fraction(0)

Row = tuple[Sequence[Fraction], Fraction]  # (coefficients, right-hand side)
Pair = tuple[int, int]  # a reduced tableau cell: (numerator, denominator > 0)

_ZERO: Pair = (0, 1)
_ONE: Pair = (1, 1)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve.

    `x`, `value` and `dual` are set for OPTIMAL.  `farkas` is set for
    INFEASIBLE.  Both hold one multiplier per constraint row, equalities
    first, then inequalities, in input order.

    `farkas` has y_i <= 0 on inequality rows, and the combined constraint
    sums to an impossibility: y . A vanishes on free variables, is <= 0 on
    nonnegative ones, and y . rhs > 0.

    `dual` proves `value` optimal: y . A equals the objective on free
    variables, y . rhs == value, and when maximizing y_i >= 0 on inequality
    rows and y . A >= objective on nonnegative variables (both signs flip
    when minimizing).
    """

    status: LpStatus
    x: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None


def solve_lp(
    objective: Sequence[Fraction],
    *,
    ineqs: Sequence[Row] = (),
    eqs: Sequence[Row] = (),
    nonneg: bool = False,
    maximize: bool = True,
) -> LpResult:
    """Solve an exact LP; see the module docstring for the problem form."""
    d = len(objective)
    obj = _exact(objective)
    ineqs = [(_exact(row), *_exact([rhs])) for row, rhs in ineqs]
    eqs = [(_exact(row), *_exact([rhs])) for row, rhs in eqs]
    stated = eqs + ineqs  # the order of the multipliers
    for row, _ in stated:
        if len(row) != d:
            raise ValueError("constraint length does not match the objective")

    n_slack = len(ineqs)
    width = (d if nonneg else 2 * d) + n_slack
    no_slack = [_ZERO] * n_slack

    def widen(coeffs: list[Fraction], slack: int | None) -> list[Pair]:
        out = _pairs(coeffs)
        if not nonneg:
            out += [(-a, b) for a, b in out]
        out += no_slack
        if slack is not None:
            out[-n_slack + slack] = _ONE
        return out

    rows = [widen(c, None) for c, _ in eqs] + [
        widen(c, i) for i, (c, _) in enumerate(ineqs)
    ]
    rhs = _pairs([r for _, r in stated])
    c_std = widen([-c for c in obj] if maximize else obj, None)
    slacks = None
    if not eqs and all(a >= 0 for a, _ in rhs):
        slacks = list(range(width - n_slack, width))

    status, x_std, y = _simplex_standard(c_std, rows, rhs, slacks)
    if status is LpStatus.INFEASIBLE:
        _check_farkas(
            y, [c for c, _ in stated], [r for _, r in stated], len(eqs), nonneg
        )
        return LpResult(LpStatus.INFEASIBLE, farkas=tuple(y))
    if status is LpStatus.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED)
    if nonneg:
        x = x_std[:d]
    else:
        x = [x_std[j] - x_std[d + j] for j in range(d)]
    value = sum(c * v for c, v in zip(obj, x))
    # y proves min c_std . x_std; the stated problem's dual is -y when
    # maximizing, since c_std is the negated objective there.
    dual = tuple(-v for v in y) if maximize else tuple(y)
    _check_dual(dual, obj, ineqs, eqs, nonneg, maximize, value)
    return LpResult(LpStatus.OPTIMAL, x=tuple(x), value=value, dual=dual)


def _exact(values: Sequence) -> list:
    """The values as `int`s and `Fraction`s, converting only other types."""
    return [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in values]


def _pairs(values: Sequence) -> list[Pair]:
    """`int`s and `Fraction`s as reduced (numerator, denominator) pairs."""
    return [(c, 1) if type(c) is int else c.as_integer_ratio() for c in values]


def _reduced(num: int, den: int) -> Pair:
    g = gcd(num, den)
    return num // g, den // g


def _sub(a: Pair, b: Pair) -> Pair:
    return _reduced(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def _simplex_standard(
    c: list[Pair],
    rows: list[list[Pair]],
    rhs: list[Pair],
    slacks: list[int] | None = None,
) -> tuple[LpStatus, list[Fraction], list[Fraction] | None]:
    """min c.x s.t. rows.x = rhs, x >= 0, over reduced pairs.

    `slacks`, when given, names for each row a zero-cost column that is 1 in
    that row and 0 elsewhere, and every rhs is >= 0: those columns are a
    feasible basis and phase 2 starts there.  Otherwise phase 1 finds a
    feasible basis from one artificial column per row.

    Returns (status, x, y) in `Fraction`s, where y is the Farkas certificate
    on INFEASIBLE (y . rows <= 0 componentwise, y . rhs > 0), the duals on
    OPTIMAL (y . rows <= c componentwise, y . rhs == c . x) and None on
    UNBOUNDED.
    """
    m, n = len(rows), len(c)
    flip = [1] * m
    if slacks is not None:
        tab = [row + [r] for row, r in zip(rows, rhs)]
        return _phase_two(c, tab, list(slacks), slacks, flip, n)
    tab: list[list[Pair]] = []
    for i in range(m):
        row = rows[i]
        r = rhs[i]
        if r[0] < 0:
            flip[i] = -1
            row = [(-a, b) for a, b in row]
            r = (-r[0], r[1])
        # columns: n originals, m artificials, rhs
        art = [_ZERO] * m
        art[i] = _ONE
        tab.append(row + art + [r])
    basis = [n + i for i in range(m)]
    total = n + m

    # Phase 1: minimize the sum of artificials.
    obj = [_ZERO] * n + [_ONE] * m + [_ZERO]
    for row in tab:
        for j in range(total + 1):
            if row[j][0]:
                obj[j] = _sub(obj[j], row[j])
    if not _pivot_loop(tab, basis, obj, allowed=total):
        raise CertificateError("phase 1 cannot be unbounded")
    if obj[-1][0] < 0:  # leftover artificial mass: infeasible
        # y_i = flip_i (1 - obj_{n+i}), with obj_{n+i} = a / b
        y = [Fraction(f * (b - a), b) for f, (a, b) in zip(flip, obj[n:total])]
        return LpStatus.INFEASIBLE, [], y

    # Drive remaining artificials out of the basis (degenerate rows).
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j][0]), None)
            if col is None:
                drop.append(i)  # redundant constraint
            else:
                _pivot(tab, basis, i, col)
    for i in reversed(drop):
        del tab[i], basis[i]
    return _phase_two(c + [_ZERO] * m, tab, basis, range(n, total), flip, n)


def _phase_two(
    c: list[Pair],
    tab: list[list[Pair]],
    basis: list[int],
    start: Sequence[int],
    flip: list[int],
    n: int,
) -> tuple[LpStatus, list[Fraction], list[Fraction] | None]:
    """Minimize c over a feasible tableau, entering only the first n columns.

    `start[i]` is the zero-cost column that was the unit vector of row i,
    sign-flipped by `flip[i]`, in the tableau before any pivot: the slacks,
    or the artificials, which never re-enter but keep their columns so the
    duals stay readable.  The final objective row holds 0 - y_i there.
    """
    obj = list(c) + [_ZERO]
    for i, row in enumerate(tab):
        cn, cd = obj[basis[i]]
        if cn:
            for j, (a, b) in enumerate(row):
                if a:
                    obj[j] = _sub(obj[j], (cn * a, cd * b))
    if not _pivot_loop(tab, basis, obj, allowed=n):
        return LpStatus.UNBOUNDED, [], None
    x = [_F0] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(*tab[i][-1])
    y = [Fraction(-f * obj[j][0], obj[j][1]) for f, j in zip(flip, start)]
    return LpStatus.OPTIMAL, x, y


def _pivot_loop(
    tab: list[list[Pair]],
    basis: list[int],
    obj: list[Pair],
    allowed: int,
) -> bool:
    """Run Bland pivots until optimal (True) or unbounded (False).

    `allowed` bounds the entering-column search; columns beyond it (the
    artificials in phase 2) are frozen.  The ratio test compares
    rhs / coef across rows by cross-multiplying; ties go to the lowest
    basis label.
    """
    while True:
        enter = next((j for j in range(allowed) if obj[j][0] < 0), None)
        if enter is None:
            return True
        leave = None
        for i, row in enumerate(tab):
            cn, cd = row[enter]
            if cn > 0:
                rn, rd = row[-1]
                num, den = rn * cd, rd * cn  # rhs / coef, den > 0
                if (
                    leave is None
                    or num * best_den < best_num * den
                    or (num * best_den == best_num * den and basis[i] < basis[leave])
                ):
                    best_num, best_den, leave = num, den, i
        if leave is None:
            return False
        _pivot(tab, basis, leave, enter, obj)


def _pivot(
    tab: list[list[Pair]],
    basis: list[int],
    row_i: int,
    col: int,
    obj: list[Pair] | None = None,
) -> None:
    prow = tab[row_i]
    pn, pd = prow[col]
    if pn != pd:  # the pivot is not 1: scale the row by its inverse pd / pn
        if pn < 0:
            pn, pd = -pn, -pd
        prow = [_reduced(a * pd, b * pn) if a else _ZERO for a, b in prow]
        tab[row_i] = prow
    nonzeros = [(j, a, b) for j, (a, b) in enumerate(prow) if a]
    targets = tab if obj is None else tab + [obj]
    for row in targets:
        if row is prow:
            continue
        fn, fd = row[col]
        if fn:
            # row[j] -= (fn / fd) * (a / b), reduced
            for j, a, b in nonzeros:
                rn, rd = row[j]
                td = fd * b
                if td == 1 == rd:
                    row[j] = (rn - fn * a, 1)
                    continue
                num = rn * td - fn * a * rd
                den = rd * td
                g = gcd(num, den)
                row[j] = (num // g, den // g)
    basis[row_i] = col


def _check_farkas(
    y: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    n_eqs: int | None = None,
    nonneg: bool = True,
) -> None:
    """Raise CertificateError unless y proves that no x meets the rows: see
    `LpResult.farkas` for the conditions.  The first `n_eqs` rows (all of
    them by default) are equalities, the rest inequalities; x is
    nonnegative when `nonneg`, else free."""
    # Internal soundness guard: a bad certificate means a solver bug, so fail
    # loudly rather than hand it to a caller that will build a proof from it.
    if n_eqs is None:
        n_eqs = len(rows)
    if len(y) != len(rows) or any(v > 0 for v in y[n_eqs:]):
        raise CertificateError("Farkas certificate has the wrong sign")
    if sum(v * r for v, r in zip(y, rhs)) <= 0:
        raise CertificateError("Farkas certificate does not witness infeasibility")
    combo = [0] * (len(rows[0]) if rows else 0)  # y . A, from the nonzeros
    for v, row in zip(y, rows):
        if v:
            for j, a in enumerate(row):
                if a:
                    combo[j] += v * a
    if any(g > 0 or (g and not nonneg) for g in combo):
        raise CertificateError("Farkas certificate violates column inequality")


def _check_dual(
    y: Sequence[Fraction],
    objective: Sequence[Fraction],
    ineqs: Sequence[Row],
    eqs: Sequence[Row],
    nonneg: bool,
    maximize: bool,
    value: Fraction,
) -> None:
    """Raise CertificateError unless y proves `value` optimal for the stated
    LP: see `LpResult.dual` for the conditions."""
    sign = 1 if maximize else -1
    rows = [*eqs, *ineqs]
    if len(y) != len(rows) or any(sign * v < 0 for v in y[len(eqs):]):
        raise CertificateError("dual multipliers have the wrong sign")
    if sum(v * r for v, (_, r) in zip(y, rows)) != value:
        raise CertificateError("dual multipliers do not attain the optimum")
    gaps = [-c for c in objective]  # y . A - objective, from the nonzeros
    for v, (row, _) in zip(y, rows):
        if v:
            for j, a in enumerate(row):
                if a:
                    gaps[j] += v * a
    if any(sign * g < 0 or (g and not nonneg) for g in gaps):
        raise CertificateError("dual multipliers are infeasible")
