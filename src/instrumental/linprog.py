"""Exact linear programming over the rationals.

A dense tableau simplex with Bland's anti-cycling pivot rule.  All
arithmetic is `Fraction`; there is no scaling, no tolerance and no big-M
construction.  Both exact answers are certified, and each certificate is
checked against the constraint rows before it is handed to the caller: a
Farkas vector for infeasibility, dual multipliers for an optimum.

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
from typing import Sequence

from .errors import CertificateError

__all__ = ["LpStatus", "LpResult", "solve_lp"]

_F0 = Fraction(0)
_F1 = Fraction(1)

Row = tuple[Sequence[Fraction], Fraction]  # (coefficients, right-hand side)


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
    obj = [Fraction(c) for c in objective]
    ineqs = [([Fraction(c) for c in row], Fraction(rhs)) for row, rhs in ineqs]
    eqs = [([Fraction(c) for c in row], Fraction(rhs)) for row, rhs in eqs]
    for row, _ in ineqs + eqs:
        if len(row) != d:
            raise ValueError("constraint length does not match the objective")

    n_slack = len(ineqs)
    width = (d if nonneg else 2 * d) + n_slack

    def widen(coeffs: list[Fraction], slack: int | None) -> list[Fraction]:
        if nonneg:
            out = list(coeffs)
        else:
            out = list(coeffs) + [-c for c in coeffs]
        out += [_F0] * n_slack
        if slack is not None:
            out[-n_slack + slack] = _F1
        return out

    rows = [widen(c, None) for c, _ in eqs] + [
        widen(c, i) for i, (c, _) in enumerate(ineqs)
    ]
    rhs = [r for _, r in eqs] + [r for _, r in ineqs]
    c_std = widen([-c for c in obj] if maximize else obj, None)
    slacks = None
    if not eqs and all(r >= 0 for r in rhs):
        slacks = list(range(width - n_slack, width))

    status, x_std, y = _simplex_standard(c_std, rows, rhs, slacks)
    if status is LpStatus.INFEASIBLE:
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


def _simplex_standard(
    c: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    slacks: list[int] | None = None,
) -> tuple[LpStatus, list[Fraction], list[Fraction] | None]:
    """min c.x s.t. rows.x = rhs, x >= 0.

    `slacks`, when given, names for each row a zero-cost column that is 1 in
    that row and 0 elsewhere, and every rhs is >= 0: those columns are a
    feasible basis and phase 2 starts there.  Otherwise phase 1 finds a
    feasible basis from one artificial column per row.

    Returns (status, x, y) where y is the Farkas certificate on INFEASIBLE
    (y . rows <= 0 componentwise, y . rhs > 0), the duals on OPTIMAL
    (y . rows <= c componentwise, y . rhs == c . x) and None on UNBOUNDED.
    """
    m, n = len(rows), len(c)
    flip = [1] * m
    if slacks is not None:
        tab = [list(row) + [r] for row, r in zip(rows, rhs)]
        return _phase_two(c, tab, list(slacks), slacks, flip, n)
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = list(rows[i])
        r = rhs[i]
        if r < 0:
            flip[i] = -1
            row = [-v for v in row]
            r = -r
        # columns: n originals, m artificials, rhs
        art = [_F0] * m
        art[i] = _F1
        tab.append(row + art + [r])
    basis = [n + i for i in range(m)]
    total = n + m

    # Phase 1: minimize the sum of artificials.
    obj = [_F0] * n + [_F1] * m + [_F0]
    for row in tab:
        for j in range(total + 1):
            if row[j]:
                obj[j] -= row[j]
    if not _pivot_loop(tab, basis, obj, allowed=total):
        raise CertificateError("phase 1 cannot be unbounded")
    if -obj[-1] > 0:  # leftover artificial mass: infeasible
        y = [flip[i] * (_F1 - obj[n + i]) for i in range(m)]
        _check_farkas(y, rows, rhs)
        return LpStatus.INFEASIBLE, [], y

    # Drive remaining artificials out of the basis (degenerate rows).
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)  # redundant constraint
            else:
                _pivot(tab, basis, i, col)
    for i in reversed(drop):
        del tab[i], basis[i]
    return _phase_two(c + [_F0] * m, tab, basis, range(n, total), flip, n)


def _phase_two(
    c: list[Fraction],
    tab: list[list[Fraction]],
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
    obj = list(c) + [_F0]
    for i, row in enumerate(tab):
        cb = obj[basis[i]]
        if cb:
            for j, v in enumerate(row):
                if v:
                    obj[j] -= cb * v
    if not _pivot_loop(tab, basis, obj, allowed=n):
        return LpStatus.UNBOUNDED, [], None
    x = [_F0] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    y = [-f * obj[j] for f, j in zip(flip, start)]
    return LpStatus.OPTIMAL, x, y


def _pivot_loop(
    tab: list[list[Fraction]],
    basis: list[int],
    obj: list[Fraction],
    allowed: int,
) -> bool:
    """Run Bland pivots until optimal (True) or unbounded (False).

    `allowed` bounds the entering-column search; columns beyond it (the
    artificials in phase 2) are frozen.
    """
    while True:
        enter = next((j for j in range(allowed) if obj[j] < 0), None)
        if enter is None:
            return True
        leave = None
        best: Fraction | None = None
        for i, row in enumerate(tab):
            coef = row[enter]
            if coef > 0:
                ratio = row[-1] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave is None:
            return False
        _pivot(tab, basis, leave, enter, obj)


def _pivot(
    tab: list[list[Fraction]],
    basis: list[int],
    row_i: int,
    col: int,
    obj: list[Fraction] | None = None,
) -> None:
    prow = tab[row_i]
    piv = prow[col]
    if piv != 1:
        inv = _F1 / piv
        tab[row_i] = prow = [v * inv for v in prow]
    nonzeros = [(j, pv) for j, pv in enumerate(prow) if pv]
    targets = tab if obj is None else tab + [obj]
    for row in targets:
        if row is prow:
            continue
        factor = row[col]
        if factor:
            for j, pv in nonzeros:
                row[j] -= factor * pv
    basis[row_i] = col


def _check_farkas(
    y: list[Fraction], rows: list[list[Fraction]], rhs: list[Fraction]
) -> None:
    # Internal soundness guard: a bad certificate means a solver bug, so fail
    # loudly rather than hand it to a caller that will build a proof from it.
    if sum(yi * r for yi, r in zip(y, rhs)) <= 0:
        raise CertificateError("Farkas certificate does not witness infeasibility")
    n = len(rows[0]) if rows else 0
    for j in range(n):
        if sum(y[i] * rows[i][j] for i in range(len(rows))) > 0:
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
