"""The benchmark's own exact arithmetic: deterministic tables, no-signalling
boxes, facet fingerprints and certificate checks.

Nothing here imports the package under test, so every answer the benchmark
accepts is checked by code separate from the code that produced it.  Tables
use the package's documented flat layouts: Instrumental p(ab|x) at
``(x*nA + a)*nB + b`` and Bell p(ab|xy) at ``((x*nY + y)*nA + a)*nB + b``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

F0, F1 = Fraction(0), Fraction(1)


def inst_index(nA, nB, x, a, b):
    return (x * nA + a) * nB + b


def bell_index(nY, nA, nB, x, y, a, b):
    return ((x * nY + y) * nA + a) * nB + b


def deterministic_strategies(nX, nA, nB):
    """(alpha, beta) pairs of the parent Bell scenario (nY = nA), in the
    lexicographic order whose post-selections are the membership columns."""
    for alpha in itertools.product(range(nA), repeat=nX):
        for beta in itertools.product(range(nB), repeat=nA):
            yield alpha, beta


def wired_deterministic_supports(nX, nA=2, nB=2):
    """Each deterministic Instrumental table (a = alpha[x], b = beta[a]) as
    the indices of its ones."""
    return [
        tuple(inst_index(nA, nB, x, alpha[x], beta[alpha[x]]) for x in range(nX))
        for alpha, beta in deterministic_strategies(nX, nA, nB)
    ]


def wired_deterministic_tables(nX, nA=2, nB=2):
    tables = []
    for support in wired_deterministic_supports(nX, nA, nB):
        t = [F0] * (nX * nA * nB)
        for i in support:
            t[i] = F1
        tables.append(t)
    return tables


def mix(weights, tables):
    out = [F0] * len(tables[0])
    for w, t in zip(weights, tables):
        for i, v in enumerate(t):
            out[i] += w * v
    return out


def dot(c, p):
    return sum(ci * pi for ci, pi in zip(c, p))


# -- Bell boxes --------------------------------------------------------------


def parity_box(nX, nY, f):
    """a XOR b = f[x][y] with uniform marginals: no-signalling for every f."""
    half = Fraction(1, 2)
    box = [F0] * (nX * nY * 4)
    for x, y, a in itertools.product(range(nX), range(nY), range(2)):
        box[bell_index(nY, 2, 2, x, y, a, a ^ f[x][y])] = half
    return box


def local_box(nX, nY, alpha, beta):
    box = [F0] * (nX * nY * 4)
    for x, y in itertools.product(range(nX), range(nY)):
        box[bell_index(nY, 2, 2, x, y, alpha[x], beta[y])] = F1
    return box


def postselect(box, nX, nY=2, nA=2, nB=2):
    """q(ab|x) = p(ab|x, y=a), the plain instrumental wire."""
    return [
        box[bell_index(nY, nA, nB, x, a, a, b)]
        for x in range(nX)
        for a in range(nA)
        for b in range(nB)
    ]


def no_signalling_defect(box, nX, nY, nA=2, nB=2):
    """A description of the first failed positivity, normalization or
    marginal condition of a Bell box, or None."""
    if any(v < 0 for v in box):
        return "negative entry"
    for x, y in itertools.product(range(nX), range(nY)):
        block = [box[bell_index(nY, nA, nB, x, y, a, b)] for a in range(nA) for b in range(nB)]
        if sum(block) != 1:
            return f"context x={x} y={y} sums to {sum(block)}"
    for x, a in itertools.product(range(nX), range(nA)):
        margs = {
            sum(box[bell_index(nY, nA, nB, x, y, a, b)] for b in range(nB))
            for y in range(nY)
        }
        if len(margs) > 1:
            return f"Alice's marginal at x={x} a={a} depends on y"
    for y, b in itertools.product(range(nY), range(nB)):
        margs = {
            sum(box[bell_index(nY, nA, nB, x, y, a, b)] for a in range(nA))
            for x in range(nX)
        }
        if len(margs) > 1:
            return f"Bob's marginal at y={y} b={b} depends on x"
    return None


# -- facets ------------------------------------------------------------------


def _primitive(values):
    den = math.lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = math.gcd(*ints)
    return tuple(i // g for i in ints) if g else tuple(ints)


def slack_vectors(rows, supports):
    """For each row (c, bound), the values bound - c.v over the 0/1 points
    given by their supports, scaled to primitive integers."""
    out = []
    for coeffs, bound in rows:
        ints = _primitive([*coeffs, bound])
        c, b = ints[:-1], ints[-1]
        slack = [b - sum(c[i] for i in support) for support in supports]
        g = math.gcd(*slack)
        out.append(tuple(v // g for v in slack) if g else tuple(slack))
    return out


def facet_fingerprint(inequalities, supports):
    """Digest of a facet set that does not depend on how each facet is written.

    An inequality c.p <= bound is identified by its primitive slack vector
    over the deterministic tables.  Those span the polytope's affine hull, so
    two inequalities have the same slack vector exactly when they differ by
    a positive scale and a multiple of the equalities.
    """
    slacks = sorted(slack_vectors(inequalities, supports))
    return hashlib.sha256(repr(slacks).encode()).hexdigest()[:32], slacks


def parse_rows(rows):
    """JSON rows {"coeffs": [...], "bound": "..."} as (coeffs, bound) Fractions."""
    return [
        ([Fraction(c) for c in row["coeffs"]], Fraction(row["bound"])) for row in rows
    ]


def inside(table, facets, equalities):
    return all(dot(c, table) <= b for c, b in facets) and all(
        dot(c, table) == r for c, r in equalities
    )
