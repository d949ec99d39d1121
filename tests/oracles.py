"""Second routes to quantities the package computes one way, kept as test
oracles.  Import with ``from oracles import ...`` (pytest puts this directory
on ``sys.path``)."""

from __future__ import annotations

from fractions import Fraction

from instrumental.errors import CapacityError
from instrumental.inequalities import LinearExpression
from instrumental.polytope import no_signalling_polytope, vertex_enumeration
from instrumental.scenario import Correlation, Kind, Scenario, postselect


def gpt_box_search(expression: LinearExpression):
    """Exact maximum of a wired expression over boxes with a no-signalling
    extension, found by scanning the extension polytope's vertices.

    Returns the value and the lexicographically smallest maximizing table.
    The scan enumerates every extremal no-signalling behaviour, so it is
    capped at four inputs.  `gpt_maximum` computes the same value with one LP.
    """
    s = expression.scenario
    if s.kind is Kind.BELL:
        raise ValueError("the search applies to wired expressions")
    if s.nA != 2 or s.nB != 2:
        raise ValueError("the vertex scan handles binary outcomes only")
    if s.nX > 4:
        raise CapacityError("vertex scan is limited to four inputs")
    bell = s.parent_bell()
    verts = vertex_enumeration(no_signalling_polytope(bell))
    best_value: Fraction | None = None
    best_entries: tuple | None = None
    for v in verts.vertices:
        p = postselect(Correlation(bell, v), s)
        val = expression.evaluate(p)
        if (
            best_value is None
            or val > best_value
            or (val == best_value and p.entries < best_entries)
        ):
            best_value, best_entries = val, p.entries
    return best_value, Correlation(s, best_entries)


def input_blocks(s: Scenario) -> list[list[int]]:
    """Coordinate indices per input context, built through `Scenario.index`.
    `Scenario.input_blocks` reads the same blocks off the flat layout."""
    if s.kind is Kind.BELL:
        return [
            [s.index(x, y, a, b) for a in range(s.nA) for b in range(s.nB)]
            for x in range(s.nX)
            for y in range(s.nY)
        ]
    return [
        [s.index(x, a, b) for a in range(s.nA) for b in range(s.nB)]
        for x in range(s.nX)
    ]


def no_signalling_equalities(s: Scenario) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """Normalization and marginal-consistency rows of a Bell scenario, one per
    context and per adjacent pair of contexts, unreduced.  Alice's marginal
    must not depend on y, Bob's not on x."""
    d = s.dim
    eqs = []
    for block in input_blocks(s):
        eqs.append((tuple(Fraction(int(i in block)) for i in range(d)), Fraction(1)))
    for x in range(s.nX):
        for a in range(s.nA):
            for y in range(s.nY - 1):
                coeffs = [Fraction(0)] * d
                for b in range(s.nB):
                    coeffs[s.index(x, y, a, b)] += 1
                    coeffs[s.index(x, y + 1, a, b)] -= 1
                eqs.append((tuple(coeffs), Fraction(0)))
    for y in range(s.nY):
        for b in range(s.nB):
            for x in range(s.nX - 1):
                coeffs = [Fraction(0)] * d
                for a in range(s.nA):
                    coeffs[s.index(x, y, a, b)] += 1
                    coeffs[s.index(x + 1, y, a, b)] -= 1
                eqs.append((tuple(coeffs), Fraction(0)))
    return eqs


def signalling_residual(p: Correlation):
    """Largest absolute gap between a party's marginal in some context and
    in that party's first context, one explicit loop per party."""
    s = p.scenario
    worst = Fraction(0) if p.exact else 0.0
    for x in range(s.nX):
        for a in range(s.nA):
            margs = [
                sum(p.entries[s.index(x, y, a, b)] for b in range(s.nB))
                for y in range(s.nY)
            ]
            worst = max([worst] + [abs(m - margs[0]) for m in margs[1:]])
    for y in range(s.nY):
        for b in range(s.nB):
            margs = [
                sum(p.entries[s.index(x, y, a, b)] for a in range(s.nA))
                for x in range(s.nX)
            ]
            worst = max([worst] + [abs(m - margs[0]) for m in margs[1:]])
    return worst
