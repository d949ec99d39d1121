"""Exact linear programming over the rationals.

A simplex with Bland's anti-cycling pivot rule on a condensed (Tucker)
tableau; there is no scaling, no tolerance and no big-M construction.
Inputs are `int`s; outputs and certificates are `Fraction`s.  Inside, each
tableau cell is a reduced pair of `int`s (numerator, denominator > 0; zero
is (0, 1)).  Both exact answers are certified, and each certificate is
checked in integers against the caller's rows before it is handed to the
caller: a Farkas vector for infeasibility, dual multipliers for an optimum.

A caller with rational data scales its objective by one c > 0 and all its
rows by one r > 0.  That scales each slack and artificial by r and every
reduced cost by c, so no sign and no ratio-test order moves: the pivots and
x stay, the value scales by c, the duals by c / r, and a Farkas vector stays
as it is.  One factor per row would reweigh phase 1 and move its pivots.

Problems are stated over free or nonnegative variables as

    max      objective . x
    s.t.     coeffs . x <= rhs   (ineqs)
             coeffs . x  = rhs   (eqs)

Internally everything is reduced to standard form (equalities over
nonnegative variables) with slack variables and, for free variables, a
difference split.  Every variable has a label, its column in the full
tableau: the n_vars structural columns, then slack n_vars + k for inequality
k, then artificial n + i for row i.  The tableau stores only the nonbasic
columns; a basic variable is the label of its row, and its unit column is
never built.  A pivot stores the leaving variable's column where the
entering one was.  Each stored cell equals the full tableau's cell, so
Bland's rule (the lowest label with a negative reduced cost enters) and the
ratio test take the same pivots.

Row i starts on its slack when it is an inequality with rhs >= 0, else on
its artificial, sign-flipped when rhs < 0.  Phase 1 runs only when some row
starts on an artificial: it minimizes the sum of those artificials, and the
tableau stores the slacks of their inequality rows.  The duals are the final
reduced costs of the starting basis, 0 on a variable still basic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import CapacityError, CertificateError

__all__ = ["LpStatus", "LpResult", "solve_lp"]

_F0 = Fraction(0)

Row = tuple[Sequence[int], int]  # (coefficients, right-hand side)
Pair = tuple[int, int]  # a reduced tableau cell: (numerator, denominator > 0)

_ZERO: Pair = (0, 1)

# The most cells a tableau may store, about 64 bytes each: 90 times the
# largest LP of the test suite and the benchmark (330 rows, 43,560 cells).
_CELL_LIMIT = 4 * 10**6


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
    variables, y . rhs == value, y_i >= 0 on inequality rows and
    y . A >= objective on nonnegative variables.
    """

    status: LpStatus
    x: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None


def solve_lp(
    objective: Sequence[int],
    *,
    ineqs: Sequence[Row] = (),
    eqs: Sequence[Row] = (),
    nonneg: bool = False,
) -> LpResult:
    """Solve an exact LP over `int` data; see the module docstring."""
    d = len(objective)
    stated = [*eqs, *ineqs]  # the order of the multipliers
    for row, _ in stated:
        if len(row) != d:
            raise ValueError("constraint length does not match the objective")

    def cells(coeffs: Sequence[int]) -> list[Pair]:
        out = [(a, 1) for a in coeffs]
        return out if nonneg else out + [(-a, 1) for a in coeffs]

    cost = cells([-c for c in objective])
    rhs = [r for _, r in stated]
    rows = [cells(c) for c, _ in stated]
    status, x_std, y = _simplex_standard(cost, rows, rhs, len(eqs))
    if status is LpStatus.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED)
    if status is LpStatus.INFEASIBLE:
        farkas = _fractions(y)
        _check_farkas(farkas, [c for c, _ in stated], rhs, len(eqs), nonneg)
        return LpResult(LpStatus.INFEASIBLE, farkas=farkas)
    if not nonneg:
        x_std = [_sub(p, m) for p, m in zip(x_std, x_std[d:])]
    den = lcm(*(b for _, b in x_std))
    value = Fraction(sum(c * a * (den // b) for c, (a, b) in zip(objective, x_std)), den)
    # y proves min cost . x_std; the cost is the negated objective, so the
    # stated problem's dual is -y.
    dual = _fractions([(-a, b) for a, b in y])
    _check_dual(dual, objective, ineqs, eqs, nonneg, value)
    return LpResult(LpStatus.OPTIMAL, x=_fractions(x_std), value=value, dual=dual)


def _fractions(pairs: Sequence[Pair]) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, b) if a else _F0 for a, b in pairs)


def _reduced(num: int, den: int) -> Pair:
    g = gcd(num, den)
    return num // g, den // g


def _sub(a: Pair, b: Pair) -> Pair:
    return _reduced(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def _simplex_standard(
    cost: list[Pair], rows: list[list[Pair]], rhs: list[int], n_eqs: int
) -> tuple[LpStatus, list[Pair], list[Pair] | None]:
    """min cost . x s.t. rows . x (+ slack) = rhs, x >= 0, over reduced pairs.

    `cost` and `rows` cover the structural columns; the rows after the first
    `n_eqs` get a slack each.  Row i starts on its slack when it is an
    inequality with rhs >= 0, else on its artificial n + i (see the module
    docstring); the tableau stores the structural columns and the slacks of
    the inequality rows that start on an artificial.  Raises CapacityError
    before it builds a tableau of more than `_CELL_LIMIT` cells.

    Returns (status, x, y), x over the structural columns, where y is the
    Farkas certificate on INFEASIBLE (y . rows <= 0 componentwise, with the
    slacks, and y . rhs > 0), the duals on OPTIMAL (y . rows <= cost,
    y . rhs == cost . x) and None on UNBOUNDED.
    """
    m, n_vars = len(rows), len(cost)
    n, slack = n_vars + m - n_eqs, n_vars - n_eqs  # row i's slack is slack + i
    start = [n + i if i < n_eqs or r < 0 else slack + i for i, r in enumerate(rhs)]
    flip = [-1 if r < 0 else 1 for r in rhs]
    stored = [slack + i for i in range(n_eqs, m) if rhs[i] < 0]
    cells = m * (n_vars + 1 + len(stored))
    if cells > _CELL_LIMIT:
        raise CapacityError(
            f"an LP of {m} rows would store {cells} tableau cells,"
            f" over the limit of {_CELL_LIMIT}"
        )
    tab = []
    for i, (row, r) in enumerate(zip(rows, rhs)):
        row = row + [(int(c == slack + i), 1) for c in stored] + [(r, 1)]
        tab.append([(-a, b) for a, b in row] if r < 0 else row)
    basis, cols = start[:], list(range(n_vars)) + stored
    arts = [i for i, label in enumerate(start) if label >= n]
    if arts:
        # Phase 1: minimize the sum of artificials; every cell is still an int.
        obj = [(-sum(tab[i][p][0] for i in arts), 1) for p in range(len(cols) + 1)]
        if not _pivot_loop(tab, basis, cols, obj, allowed=n + m):
            raise CertificateError("phase 1 cannot be unbounded")
        if obj[-1][0] < 0:  # leftover artificial mass: infeasible
            # y_i = flip_i (c_i - r_i) for the reduced cost r_i of row i's start
            # variable, whose phase-1 cost c_i is 1 on an artificial, 0 on a slack
            costs = _final_costs(cols, obj, start)
            return LpStatus.INFEASIBLE, [], [
                _reduced(f * ((label >= n) * b - a), b)
                for f, label, (a, b) in zip(flip, start, costs)
            ]
        # Drive remaining artificials out of the basis (degenerate rows).
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= n:
                nonzero = [(c, p) for p, c in enumerate(cols) if c < n and tab[i][p][0]]
                if nonzero:
                    _pivot(tab, basis, cols, i, min(nonzero)[1])
                else:
                    drop.append(i)  # redundant constraint
        for i in reversed(drop):
            del tab[i], basis[i]
    return _phase_two(cost, tab, basis, cols, start, flip, n)


def _phase_two(
    cost: list[Pair], tab: list[list[Pair]], basis: list[int], cols: list[int],
    start: Sequence[int], flip: list[int], n: int,
) -> tuple[LpStatus, list[Pair], list[Pair] | None]:
    """Minimize the cost over a feasible tableau, entering only labels < n.

    `start[i]` is the variable of row i in the starting basis, whose column
    was that row's unit vector, sign-flipped by `flip[i]`: its slack, or its
    artificial, which never re-enters but keeps its stored column so the
    duals stay readable.  Its final reduced cost is 0 - y_i.
    """
    n_vars = len(cost)
    obj = [cost[c] if c < n_vars else _ZERO for c in cols] + [_ZERO]
    for i, row in enumerate(tab):
        if basis[i] < n_vars:
            cn, cd = cost[basis[i]]
            if cn:
                for p, (a, b) in enumerate(row):
                    if a:
                        obj[p] = _sub(obj[p], (cn * a, cd * b))
    if not _pivot_loop(tab, basis, cols, obj, allowed=n):
        return LpStatus.UNBOUNDED, [], None
    x = [_ZERO] * n_vars
    for i, b in enumerate(basis):
        if b < n_vars:
            x[b] = tab[i][-1]
    costs = _final_costs(cols, obj, start)
    return LpStatus.OPTIMAL, x, [(-f * a, b) for f, (a, b) in zip(flip, costs)]


def _final_costs(cols: list[int], obj: list[Pair], labels: Sequence[int]) -> list[Pair]:
    """The reduced cost of each label: its stored cell, 0 while it is basic."""
    stored = dict(zip(cols, obj))
    return [stored.get(label, _ZERO) for label in labels]


def _pivot_loop(
    tab: list[list[Pair]], basis: list[int], cols: list[int], obj: list[Pair], allowed: int
) -> bool:
    """Run Bland pivots until optimal (True) or unbounded (False).

    Only labels below `allowed` enter; the others (the artificials in phase
    2) are frozen.  The ratio test compares rhs / coef across rows by
    cross-multiplying; ties go to the lowest basis label.
    """
    while True:
        enter = min(
            ((c, p) for p, c in enumerate(cols) if c < allowed and obj[p][0] < 0),
            default=None,
        )
        if enter is None:
            return True
        col = enter[1]
        leave = None
        for i, row in enumerate(tab):
            cn, cd = row[col]
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
        _pivot(tab, basis, cols, leave, col, obj)


def _pivot(
    tab: list[list[Pair]], basis: list[int], cols: list[int], row_i: int, col: int,
    obj: list[Pair] | None = None,
) -> None:
    """Exchange row_i's basic variable with the nonbasic one stored at
    position `col`, whose cell in that row is the pivot a.  The leaving
    variable's column takes position `col`: 1/a in the pivot row and -f/a
    in a row whose entering-column cell was f."""
    prow = tab[row_i]
    pn, pd = prow[col]
    if pn != pd:  # the pivot is not 1: scale the row by its inverse pd / pn
        if pn < 0:
            pn, pd = -pn, -pd
        prow = [_reduced(a * pd, b * pn) if a else _ZERO for a, b in prow]
        prow[col] = (pd, pn)
        tab[row_i] = prow
    nonzeros = [(j, a, b) for j, (a, b) in enumerate(prow) if a]
    targets = tab if obj is None else tab + [obj]
    for row in targets:
        if row is prow:
            continue
        fn, fd = row[col]
        if fn:
            row[col] = _ZERO
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
    basis[row_i], cols[col] = cols[col], basis[row_i]


def _check_farkas(
    y: Sequence[Fraction], rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction], n_eqs: int | None = None, nonneg: bool = True,
) -> None:
    """Raise CertificateError unless y proves that no x meets the rows: see
    `LpResult.farkas` for the conditions.  The first `n_eqs` rows (all of
    them by default) are equalities, the rest inequalities; x is
    nonnegative when `nonneg`, else free.  Decided in integers (`_combine`)."""
    # Internal soundness guard: a bad certificate means a solver bug, so fail
    # loudly rather than hand it to a caller that will build a proof from it.
    if n_eqs is None:
        n_eqs = len(rows)
    if len(y) != len(rows) or any(v.numerator > 0 for v in y[n_eqs:]):
        raise CertificateError("Farkas certificate has the wrong sign")
    _, combo, total = _combine(y, rows, rhs)
    if total <= 0:
        raise CertificateError("Farkas certificate does not witness infeasibility")
    if any(g > 0 or (g and not nonneg) for g in combo):
        raise CertificateError("Farkas certificate violates column inequality")


def _check_dual(
    y: Sequence[Fraction], objective: Sequence[int | Fraction], ineqs: Sequence[Row],
    eqs: Sequence[Row], nonneg: bool, value: int | Fraction,
) -> None:
    """Raise CertificateError unless y proves `value` optimal for the stated
    LP: see `LpResult.dual` for the conditions.  Decided in integers
    (`_combine`)."""
    rows = [*eqs, *ineqs]
    if len(y) != len(rows) or any(v.numerator < 0 for v in y[len(eqs):]):
        raise CertificateError("dual multipliers have the wrong sign")
    scale, combo, total = _combine(y, [c for c, _ in rows], [r for _, r in rows], objective)
    if total * value.denominator != scale * value.numerator:
        raise CertificateError("dual multipliers do not attain the optimum")
    # y . A - objective, scaled
    gaps = [g - scale * c.numerator // c.denominator for g, c in zip(combo, objective)]
    if any(g < 0 or (g and not nonneg) for g in gaps):
        raise CertificateError("dual multipliers are infeasible")


def _combine(y, rows, rhs, objective=()):
    """y . rows and y . rhs in integers, scaled by one positive factor.

    y is scaled by the lcm L of its denominators; the rows with a nonzero
    multiplier, their right-hand sides and the objective by the lcm R of
    their denominators (1 on `int` data), so L R times an objective entry is
    an integer too.  Returns (L R, L R (y . rows), L R (y . rhs)).
    """
    used = [(v, row, r) for v, row, r in zip(y, rows, rhs) if v]
    den = lcm(*(v.denominator for v, _, _ in used))
    scale = lcm(
        *(a.denominator for _, row, r in used for a in (*row, r)),
        *(c.denominator for c in objective),
    )
    combo = [0] * len(rows[0] if rows else objective)
    total = 0
    for v, row, r in used:
        f = v.numerator * (den // v.denominator) * scale
        for j, a in enumerate(row):
            if a:
                combo[j] += f * a.numerator // a.denominator
        total += f * r.numerator // r.denominator
    return den * scale, combo, total
