"""Exact linear programming over the rationals.

A dense two-phase tableau simplex with Bland's anti-cycling pivot rule.  All
arithmetic is `Fraction`; there is no scaling, no tolerance and no big-M
construction.  Infeasibility is certified: the returned Farkas vector is
checked against the constraint rows before it is handed to the caller.

Problems are stated over free or nonnegative variables as

    max/min  objective . x
    s.t.     coeffs . x <= rhs   (ineqs)
             coeffs . x  = rhs   (eqs)

Internally everything is reduced to standard form (equalities over
nonnegative variables) with slack variables and, for free variables, a
difference split.
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

    `x` and `value` are set for OPTIMAL.  `farkas` is set for INFEASIBLE: one
    multiplier per constraint row (equalities first, then inequalities, in
    input order) with y_i <= 0 on inequality rows, such that the combined
    constraint sums to an impossibility; concretely y . A vanishes on free
    variables, is <= 0 on nonnegative ones, and y . rhs > 0.
    """

    status: LpStatus
    x: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None


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

    status, x_std, y = _simplex_standard(c_std, rows, rhs)
    if status is LpStatus.INFEASIBLE:
        return LpResult(LpStatus.INFEASIBLE, farkas=tuple(y))
    if status is LpStatus.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED)
    if nonneg:
        x = x_std[:d]
    else:
        x = [x_std[j] - x_std[d + j] for j in range(d)]
    value = sum(c * v for c, v in zip(obj, x))
    return LpResult(LpStatus.OPTIMAL, x=tuple(x), value=value)


def _simplex_standard(
    c: list[Fraction], rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[LpStatus, list[Fraction], list[Fraction] | None]:
    """min c.x s.t. rows.x = rhs, x >= 0.

    Returns (status, x, y) where y is the Farkas certificate on INFEASIBLE
    (y . rows <= 0 componentwise, y . rhs > 0) and None otherwise.
    """
    m, n = len(rows), len(c)
    flip = [1] * m
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

    # Phase 2 over the original cost vector; artificials never re-enter but
    # their columns are kept so the duals stay readable.
    obj = list(c) + [_F0] * m + [_F0]
    for i, row in enumerate(tab):
        cb = obj[basis[i]]
        if cb:
            for j in range(total + 1):
                if row[j]:
                    obj[j] -= cb * row[j]
    if not _pivot_loop(tab, basis, obj, allowed=n):
        return LpStatus.UNBOUNDED, [], None
    x = [_F0] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return LpStatus.OPTIMAL, x, None


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
    targets = tab if obj is None else tab + [obj]
    for row in targets:
        if row is prow:
            continue
        factor = row[col]
        if factor:
            for j, pv in enumerate(prow):
                if pv:
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
