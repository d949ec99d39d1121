"""Second routes to quantities the package computes one way, kept as test
oracles.  Import with ``from oracles import ...`` (pytest puts this directory
on ``sys.path``)."""

from __future__ import annotations

from fractions import Fraction

from instrumental.errors import CapacityError
from instrumental.inequalities import LinearExpression
from instrumental.polytope import no_signalling_polytope, vertex_enumeration
from instrumental.scenario import Correlation, Kind, postselect


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
