"""Second routes to quantities the package computes one way, kept as test
oracles, and the fixtures and small helpers that only the tests use.  Import
with ``from oracles import ...`` (pytest puts this directory on
``sys.path``)."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import atan2, gcd, lcm, sqrt
from typing import Sequence

import numpy as np

from instrumental.errors import CapacityError, CertificateError
from instrumental.inequalities import (
    LinearExpression,
    _collins_gisin,
    catalog,
    identity_check,
    identity_residual_expression,
    lift_to_bell,
)
from instrumental.linprog import LpResult, LpStatus, _check_dual, _check_farkas, solve_lp
from instrumental.polytope import (
    Equality,
    HPolytope,
    LinearInequality,
    VPolytope,
    _as_point,
    _check_implied,
    _check_violated,
    _dot,
    _echelon,
    _null_space,
    facet_enumeration,
    no_signalling_polytope,
    reduce_modulo,
    vertex_enumeration,
)
from instrumental.quantum import Observable2, QuantumStrategy
from instrumental.rationals import integerize, primitive
from instrumental.scenario import (
    Correlation,
    Kind,
    Scenario,
    ValidationReport,
    classical_correlations,
    enumerate_deterministic_strategies,
    postselect,
    strategy_to_correlation,
)


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


def two_phase_gpt_maximum(expression: LinearExpression):
    """Exact maximum of an expression (lifted first when wired) over the
    no-signalling polytope, by one two-phase LP over every Bell entry with the
    normalization and no-signalling equalities.  `gpt_maximum` solves the
    same LP in Collins-Gisin coordinates from the slack basis.

    Returns (value, witness Bell box).
    """
    if expression.scenario.kind is Kind.BELL:
        lifted = expression
    else:
        lifted = lift_to_bell(expression)
    bell = lifted.scenario
    res = fraction_solve_lp(
        list(lifted.coeffs),
        eqs=no_signalling_polytope(bell).equalities,
        nonneg=True,
    )
    if res.status is not LpStatus.OPTIMAL:
        raise ValueError(f"no finite no-signalling maximum: {res.status}")
    return res.value + lifted.constant, Correlation(bell, tuple(res.x))


def dense_combination(
    e: LinearExpression, other: LinearExpression, sign: int
) -> LinearExpression:
    """e + sign * other, one Fraction sum for every coordinate.
    `LinearExpression.__add__` and `__sub__` touch only other's nonzero
    entries."""
    if e.scenario != other.scenario:
        raise ValueError("expressions live over different scenarios")
    return LinearExpression(
        e.scenario,
        tuple(a + sign * b for a, b in zip(e.coeffs, other.coeffs)),
        e.constant + sign * other.constant,
    )


def dense_scale(e: LinearExpression, scale) -> LinearExpression:
    """scale * e, one Fraction product for every coordinate.
    `LinearExpression.__mul__` skips the zero entries."""
    q = Fraction(scale)
    return LinearExpression(e.scenario, tuple(c * q for c in e.coeffs), e.constant * q)


def dense_lift(e: LinearExpression) -> LinearExpression:
    """`lift_to_bell` by adding every coefficient, zero or not, into a dense
    Bell vector."""
    bell = e.scenario.parent_bell()
    coeffs = [Fraction(0)] * bell.dim
    for i, c in zip(e.scenario.wired_indices(), e.coeffs):
        coeffs[i] += c
    return LinearExpression(bell, tuple(coeffs), e.constant)


def dense_embed(e: LinearExpression, target: Scenario) -> LinearExpression:
    """`inequalities._embed` by adding every coefficient, zero or not, at its
    coordinates in the larger Bell scenario."""
    coeffs = [Fraction(0)] * target.dim
    for coords, c in zip(e.scenario.coords(), e.coeffs):
        coeffs[target.index(*coords)] += c
    return LinearExpression(target, tuple(coeffs), e.constant)


def dense_in_collins_gisin(e: LinearExpression):
    """A Bell expression in Collins-Gisin coordinates, summed in Fractions:
    (the forms, the coefficient of each coordinate, the constant).
    `inequalities._in_collins_gisin` returns the same coefficients and
    constant times the expression's common denominator, summed in ints from
    the forms of the nonzero coefficients alone."""
    forms, width = _collins_gisin(e.scenario, e.scenario.coords())
    coeffs = [Fraction(0)] * width
    constant = e.constant
    for c, (form, const) in zip(e.coeffs, forms):
        if c:
            constant += c * const
            for j, m in form.items():
                coeffs[j] += c * m
    return forms, coeffs, constant


def dense_gpt_maximum(e: LinearExpression):
    """`gpt_maximum` through `dense_in_collins_gisin`: the objective scaled
    to integers after the map, and each witness box entry summed in
    Fractions from the LP's x.  Returns (value, witness Bell box)."""
    lifted = e if e.scenario.kind is Kind.BELL else dense_lift(e)
    forms, objective, offset = dense_in_collins_gisin(lifted)
    rows = []
    for form, const in forms:
        if len(form) > 1 or const:
            row = [0] * len(objective)
            for j, m in form.items():
                row[j] = -m
            rows.append((row, const))
    den = lcm(*(c.denominator for c in objective))
    res = solve_lp([int(c * den) for c in objective], ineqs=rows, nonneg=True)
    if res.status is not LpStatus.OPTIMAL:
        raise ValueError(f"no finite no-signalling maximum: {res.status}")
    box = Correlation(lifted.scenario, tuple(
        const + sum(m * res.x[j] for j, m in form.items()) for form, const in forms
    ))
    return res.value / den + offset, box


def dense_identity_residual(kind: str, *, alpha=None, n=None) -> LinearExpression:
    """lift(catalog(kind)) minus the lifting identity's Bell side, built with
    the dense oracles above from `correlator_sum`: a quarter of the parent
    Bell expression embedded in Bell(nX + 1, nX), minus the penalty term
    alpha p(11|2,0) (tilted, alpha = 1 for bonet) or p(01|n,n-1) (chained),
    plus the constant 1 + alpha/2 or (n + 1)/2.
    `identity_residual_expression` builds it with sparse sums."""
    lifted = dense_lift(catalog(kind, alpha=alpha, n=n))
    bell = lifted.scenario
    if kind == "chained":
        parent, weight, penalty = correlator_sum("chained_bell", n=n), 1, (n, n - 1, 0, 1)
        shift = Fraction(n + 1, 2)
    else:
        alpha = Fraction(1 if kind == "bonet" else alpha)
        parent, weight, penalty = correlator_sum("tilted_chsh", alpha=alpha), alpha, (2, 0, 1, 1)
        shift = 1 + alpha / 2
    coeffs = [Fraction(0)] * bell.dim
    coeffs[bell.index(*penalty)] = Fraction(weight)
    rhs = dense_combination(
        dense_scale(dense_embed(parent, bell), Fraction(1, 4)),
        LinearExpression(bell, tuple(coeffs)),
        -1,
    )
    return dense_combination(lifted, LinearExpression(bell, rhs.coeffs, rhs.constant + shift), -1)


def density_matrix_born_table(strategy, scenario: Scenario) -> Correlation:
    """Float table of a planar qubit strategy by the Born rule on density
    matrices: p(ab|xy) = tr(rho (P_a^x (x) P_b^y)) with rho = |Phi+><Phi+| and
    P_a = (I + (-1)^a (vx sigma_x + vz sigma_z))/2, wired by post-selection
    when the scenario is instrumental.  `born_table` uses the closed form
    (1 + (-1)^(a+b) u_x.w_y)/4 instead."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = np.outer(phi, phi.conj())

    def projectors(o):
        m = o.vx * sx + o.vz * sz
        return [(np.eye(2) + m) / 2.0, (np.eye(2) - m) / 2.0]

    entries = []
    for u in strategy.alice:
        for w in strategy.bob:
            for pa in projectors(u):
                for pb in projectors(w):
                    entries.append(max(float(np.trace(rho @ np.kron(pa, pb)).real), 0.0))
    bell = Scenario.bell(len(strategy.alice), len(strategy.bob))
    table = Correlation(bell, tuple(entries))
    return table if scenario.kind is Kind.BELL else postselect(table, scenario)


def dense_correlator(s: Scenario, x: int, y: int) -> LinearExpression:
    """<A_x B_y> = sum_ab (-1)^(a+b) p(ab|xy) on a binary Bell scenario;
    outcome 0 maps to eigenvalue +1."""
    coeffs = [Fraction(0)] * s.dim
    for a in range(2):
        for b in range(2):
            coeffs[s.index(x, y, a, b)] = Fraction((-1) ** (a + b))
    return LinearExpression(s, tuple(coeffs))


def correlator_sum(kind: str, *, alpha=None, n=None) -> LinearExpression:
    """The Bell catalog expressions summed one dense correlator expression at
    a time, O(n) additions of length-n^2 vectors for the chain.  `catalog`
    writes the same coefficients entry by entry."""
    if kind == "tilted_chsh":
        s = Scenario.bell(2, 2)
        return (
            alpha * dense_correlator(s, 0, 0)
            + dense_correlator(s, 0, 1)
            + alpha * dense_correlator(s, 1, 0)
            - dense_correlator(s, 1, 1)
        )
    if kind != "chained_bell":
        raise ValueError(f"{kind!r} is not a correlator expression")
    s = Scenario.bell(n, n)
    e = dense_correlator(s, 0, 0) - dense_correlator(s, 0, n - 1)
    for j in range(1, n):
        e = e + dense_correlator(s, j, j) + dense_correlator(s, j, j - 1)
    return e


def square_free(n: int) -> tuple[int, int]:
    """n = m^2 * k with k square-free; returns (m, k).  Trial-divides squares
    up to the square root of n.  `_square_free` stops at the cube root and
    classifies the cofactor left over."""
    m, k, d = 1, n, 2
    while d * d <= k:
        while k % (d * d) == 0:
            k //= d * d
            m *= d
        d += 1
    return m, k


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


def canonicalize_equality(eq: Equality) -> Equality:
    """Primitive integers with the first nonzero coefficient positive; the
    form `polytope._reduce_equalities` gives each row."""
    coeffs, rhs = eq
    if all(c == 0 for c in coeffs):
        raise ValueError("cannot canonicalize an equality with zero coefficients")
    ints = list(integerize(tuple(coeffs) + (Fraction(rhs),)))
    lead = next(v for v in ints[:-1] if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in `Fraction` arithmetic; returns the nonzero
    rows and pivot columns.  `polytope._echelon` returns the same rows scaled
    to primitive integers."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots: list[int] = []
    lead = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pr = next((i for i in range(lead, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[lead], rows[pr] = rows[pr], rows[lead]
        piv = rows[lead][col]
        if piv != 1:
            rows[lead] = [v / piv for v in rows[lead]]
        for i, row in enumerate(rows):
            if i != lead and row[col] != 0:
                f = row[col]
                rows[i] = [v - f * pv for v, pv in zip(row, rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows[:lead], pivots


def rref_null_space(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Null-space basis read off `rref`: 1 on each free column in turn."""
    reduced, pivots = rref(rows)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[f]
        basis.append(tuple(vec))
    return basis


def rref_equalities(eqs, dim: int) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
    """`rref` of the augmented system, each row through
    `canonicalize_equality`; raises on an inconsistent system."""
    if not eqs:
        return ()
    reduced, _ = rref([[*coeffs, rhs] for coeffs, rhs in eqs])
    out = []
    for row in reduced:
        coeffs, rhs = row[:dim], row[dim]
        if all(c == 0 for c in coeffs):
            if rhs != 0:
                raise ValueError("inconsistent equality system")
            continue
        out.append(canonicalize_equality((tuple(coeffs), rhs)))
    return tuple(out)


def brute_force_extreme_rays(rows) -> set[tuple[int, ...]]:
    """Extreme rays of the pointed cone {u : row . u >= 0 for every row},
    one per (r-1)-subset of rows of rank r-1: the primitive null vector of
    the subset, of either sign, kept if every row is >= 0 on it.
    `polytope._dd_pointed` inserts the rows one at a time instead."""
    r = len(rows[0])
    rays = set()
    for subset in combinations(rows, r - 1):
        basis = rref_null_space(list(subset), r)
        if len(basis) != 1:
            continue
        u = fraction_integerize(basis[0])
        for ray in (u, tuple(-v for v in u)):
            if all(sum(a * b for a, b in zip(row, ray)) >= 0 for row in rows):
                rays.add(ray)
    return rays


def python_dd_pointed(
    rows: list[tuple[int, ...]], max_rays: int
) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {u : row . u >= 0 for every row}, in
    the order `polytope._dd_pointed` returns them, from the same insertions
    with every ray a tuple of Python ints and every pair tested one at a time.

    Incremental insertion in the given row order; adjacency of rays is decided
    combinatorially from tight-constraint bitmasks (Fukuda and Prodon, "Double
    description method revisited", 1996): rays p and m are adjacent iff no
    third ray is tight on every constraint both are tight on.  Any such third
    ray is a witness against the pair, and one found for (p, m) often rules
    out (p, m') too, so each positive ray keeps the witnesses it has met and
    tries them before the full test.  Raises ValueError unless rank(rows)
    equals the ambient dimension (a pointed cone), and CapacityError, naming
    the row being inserted, once more than `max_rays` rays are held.
    """
    r = len(rows[0])
    # Initial simplicial cone from the first r independent rows A.  Echelon
    # of [rows^T | I] is [E | (A^-1)^T]: its pivots pick A, and the identity
    # block carries the columns of A^-1, each tight on all of A but one row.
    n = len(rows)
    ech, chosen = _echelon(
        [list(col) + [int(j == k) for j in range(r)] for k, col in enumerate(zip(*rows))]
    )
    if chosen[-1] >= n:
        raise ValueError("cone is not pointed (rank-deficient constraint matrix)")

    rays: list[tuple[int, ...]] = []
    tight: list[int] = []
    for k in range(r):
        rays.append(primitive(ech[k][n:]))
        mask = 0
        for j, idx in enumerate(chosen):
            if j != k:
                mask |= 1 << idx
        tight.append(mask)

    chosen_set = set(chosen)
    row_bytes = (n + 7) // 8
    for idx, row in enumerate(rows):
        if idx in chosen_set:
            continue
        dots = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        neg = [i for i, dv in enumerate(dots) if dv < 0]
        if not neg:
            for i, dv in enumerate(dots):
                if dv == 0:
                    tight[i] |= 1 << idx
            continue
        pos = [i for i, dv in enumerate(dots) if dv > 0]
        zero = [i for i, dv in enumerate(dots) if dv == 0]
        bit = 1 << idx
        # Ray bitmask per constraint: which current rays are tight on it.
        # The adjacency test ANDs these columns, which runs at word speed
        # instead of scanning the ray list per candidate pair.  They are the
        # transpose of the tight masks as a 0/1 matrix, built in one step:
        # one byte row per ray, unpacked, transposed and packed again.
        masks = b"".join(t.to_bytes(row_bytes, "little") for t in tight)
        bits = np.unpackbits(
            np.frombuffer(masks, np.uint8).reshape(len(tight), row_bytes),
            axis=1,
            bitorder="little",
        )
        packed = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
        col_bytes = (len(tight) + 7) // 8
        cols = [
            int.from_bytes(packed[j * col_bytes : (j + 1) * col_bytes], "little")
            for j in range(n)
        ]
        new_rays: list[tuple[int, ...]] = []
        new_tight: list[int] = []
        neg_tight = [(m, tight[m]) for m in neg]
        need = r - 2
        everyone = (1 << len(rays)) - 1
        for p in pos:
            tp = tight[p]
            witnesses: list[tuple[int, int]] = []
            for m, tm in neg_tight:
                common = tp & tm
                if common.bit_count() < need:
                    continue
                # A ray other than p and m that is tight on all of common
                # proves the pair not adjacent; m itself is tight on it.
                for k, not_tk in witnesses:
                    if not common & not_tk and k != m:
                        break
                else:
                    # Rows inserted later are tight on fewer rays, so the
                    # highest bits rule out the others soonest.
                    others = everyone & ~((1 << p) | (1 << m))
                    t = common
                    while t and others:
                        j = t.bit_length() - 1
                        others &= cols[j]
                        t ^= 1 << j
                    if others:
                        k = others.bit_length() - 1
                        witnesses.append((k, ~tight[k]))
                    else:
                        dp, dm = dots[p], dots[m]
                        combo = tuple(
                            dp * vm - dm * vp for vp, vm in zip(rays[p], rays[m])
                        )
                        new_rays.append(primitive(combo))
                        new_tight.append(common | bit)
        keep_rays = [rays[i] for i in pos] + [rays[i] for i in zero]
        keep_tight = [tight[i] for i in pos] + [tight[i] | bit for i in zero]
        rays = keep_rays + new_rays
        tight = keep_tight + new_tight
        if len(rays) > max_rays:
            raise CapacityError(
                f"double description exceeded {max_rays} intermediate rays"
                f" at row {idx + 1} of {n}"
            )
        if not rays:
            return []
    # Degenerate duplicates cannot arise from adjacent pairs, but stay safe.
    return list(dict.fromkeys(rays))


def postselected_strategy_columns(s: Scenario) -> list[tuple[Fraction, ...]]:
    """Wired tables of the parent Bell scenario's deterministic strategies,
    one per strategy in enumeration order, each built as a Bell table and
    post-selected."""
    return [
        postselect(strategy_to_correlation(d), s).entries
        for d in enumerate_deterministic_strategies(s.parent_bell())
    ]


def full_box_residual_max(kind: str, *, alpha=None, n=None) -> Fraction:
    """Largest |residual| of the lifting identity over every deterministic box
    of its Bell scenario, all of them held in one list.
    `identity_max_residual` returns zero when `verify_identity` holds and
    otherwise takes the best responses to the residual and its negation."""
    bell = identity_residual_expression(kind, alpha=alpha, n=n).scenario
    return max(
        abs(identity_check(kind, p, alpha=alpha, n=n))
        for p in classical_correlations(bell)
    )


def sequential_eliminate_leads(
    row: tuple[int, ...], equalities: Sequence[Equality]
) -> tuple[int, ...]:
    """Zero the leading column of each row-reduced equality in the integer
    row (coeffs..., bound), one equality at a time: scale the row by the
    equality's lead made positive, subtract the equality and make the
    result primitive again, so every step scales the row by a positive
    rational.  The oracle of `polytope._eliminate_leads`, which does all of
    them in one pass."""
    for e_coeffs, e_rhs in equalities:
        lead = next(j for j, c in enumerate(e_coeffs) if c != 0)
        f = row[lead]
        if f:
            p = e_coeffs[lead]
            if p < 0:
                p, f = -p, -f
            row = integerize(
                [p * v - f * e for v, e in zip(row, (*e_coeffs, e_rhs))]
            )
    return row


def echelon_identity_holds(residual: LinearExpression) -> bool:
    """Whether an affine Bell expression vanishes on the no-signalling affine
    hull: it reduces to zero modulo the echelon of the no-signalling
    equalities.  `verify_identity` rewrites it in Collins-Gisin coordinates
    instead."""
    ns = no_signalling_polytope(residual.scenario)
    # coeffs . p + constant reads as the inequality coeffs . p <= -constant
    row = integerize((*residual.coeffs, -residual.constant))
    return not any(sequential_eliminate_leads(row, ns.equalities))


def hashed_classical_correlations(s: Scenario) -> list[Correlation]:
    """Deterministic tables without duplicates, found by hashing every
    strategy's table and keeping first occurrences.  `classical_correlations`
    skips the duplicate strategies without building their tables."""
    out, seen = [], set()
    for d in enumerate_deterministic_strategies(s):
        c = strategy_to_correlation(d)
        if c.entries not in seen:
            seen.add(c.entries)
            out.append(c)
    return out


def fraction_integerize(vec) -> tuple[int, ...]:
    """Primitive integer multiple of a rational vector, built through
    `Fraction`s and a running lcm.  `rationals.integerize` reads numerators
    and denominators instead."""
    fracs = [Fraction(v) for v in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm // gcd(lcm, f.denominator) * f.denominator
    return primitive(int(f * lcm) for f in fracs)


def gpt_vroute(s: Scenario) -> HPolytope:
    """The post-quantum (GPT) polytope of a wired scenario by the V-route:
    every vertex of the parent Bell scenario's no-signalling polytope,
    post-selected, then the hull of those tables.  `fourier_motzkin_project`
    computes the same polytope by projecting the H-representation."""
    bell = s.parent_bell()
    verts = vertex_enumeration(no_signalling_polytope(bell)).vertices
    tables = [postselect(Correlation(bell, v), s) for v in verts]
    return facet_enumeration(VPolytope.from_points(tables))


def two_phase_prune(ineqs, eqs):
    """Drop each (coeffs, bound) row that the rows still kept and the
    equalities imply, decided by one two-phase LP per row in the original
    coordinates.  `polytope._prune_redundant` keeps the same rows, in the
    same order, with phase-2-only LPs from one feasible point."""
    rows = list(ineqs)
    idx = 0
    while idx < len(rows):
        coeffs, rhs = rows[idx]
        res = solve_lp(
            coeffs,
            ineqs=rows[:idx] + rows[idx + 1 :],
            eqs=eqs,
            nonneg=False,
        )
        if res.status is LpStatus.OPTIMAL and res.value <= rhs:
            rows.pop(idx)
        else:
            idx += 1
    return rows


def fraction_prune(ineqs, eqs):
    """Drop each (coeffs, bound) row that the rows still kept and the
    equalities imply, by the phase-2-only LPs of `polytope._prune_redundant`
    in `Fraction` coordinates: x = x0 + N z over the `rref_null_space`
    vectors N, 1 on each free column, and the feasible point x0 as the LP
    returns it, row j as (c_j N) . z <= b_j - c_j . x0 and the cap on row i
    at s_i + 1.  Every LP runs on the `Fraction` tableau of
    `fraction_solve_lp`.
    `_prune_redundant` scales each z column and every right-hand side by
    positive constants to reach integer rows; its LPs pivot alike and give
    the same duals."""
    rows = list(ineqs)
    if not rows:
        return rows
    d = len(rows[0][0])
    start = fraction_solve_lp([0] * d, ineqs=rows, eqs=eqs)
    if start.status is not LpStatus.OPTIMAL:
        return rows
    x0 = start.x
    null = rref_null_space([c for c, _ in eqs], d)
    local = [(tuple(_dot(c, n) for n in null), b - _dot(c, x0)) for c, b in rows]
    idx = 0
    while idx < len(rows):
        a, s = local[idx]
        others = rows[:idx] + rows[idx + 1 :]
        res = fraction_solve_lp(a, ineqs=[*local[:idx], *local[idx + 1 :], (a, s + 1)])
        if res.status is not LpStatus.OPTIMAL:
            raise CertificateError("a capped pruning LP has no optimum")
        if res.value <= s:
            _check_implied(rows[idx], others, eqs, res.dual[:-1])
            del rows[idx], local[idx]
        else:
            x = [v + _dot(res.x, col) for v, col in zip(x0, zip(*null))]
            *xs, den = integerize((*x, 1))
            _check_violated(rows[idx], others, eqs, xs, den)
            idx += 1
    return rows


def two_phase_separating_facet(q, verts) -> LinearInequality:
    """A facet of the hull of the vertices that the point q violates, by one
    two-phase LP over (g, beta) in the original coordinates: maximize
    g . q - beta over g . v <= beta on every vertex, g . c - beta = -1 at the
    centroid c, and g orthogonal to the hull's normals.  Its optimum is the
    normalized violation (g . q - beta) / (beta - g . c) of the facet it
    returns.  A point off the affine hull gets the violated equality,
    oriented, before any LP.  `polytope._separating_facet` solves the same
    LP in polar form from the slack basis."""
    d = len(q)
    n = len(verts)
    centroid = tuple(sum(v[i] for v in verts) / n for i in range(d))
    centered = [[v[i] - centroid[i] for i in range(d)] for v in verts]
    normals = _null_space(*_echelon(centered), d)
    for nvec in normals:
        rhs = sum(nv * c for nv, c in zip(nvec, centroid))
        val = sum(nv * qi for nv, qi in zip(nvec, q))
        if val > rhs:
            return reduce_modulo(LinearInequality(tuple(nvec), rhs), ())
        if val < rhs:
            return reduce_modulo(LinearInequality(tuple(-c for c in nvec), -rhs), ())
    objective = list(q) + [Fraction(-1)]
    ineq_rows = [(list(v) + [Fraction(-1)], Fraction(0)) for v in verts]
    eq_rows = [(list(centroid) + [Fraction(-1)], Fraction(-1))]
    for nvec in normals:
        eq_rows.append((list(nvec) + [Fraction(0)], Fraction(0)))
    res = fraction_solve_lp(
        objective, ineqs=ineq_rows, eqs=eq_rows, nonneg=False
    )
    if res.status is not LpStatus.OPTIMAL or res.value <= 0:
        raise ValueError("the point is not outside the hull")
    return reduce_modulo(LinearInequality(tuple(res.x[:-1]), res.x[-1]), ())


def h_maximum(coeffs, h: HPolytope) -> Fraction:
    """Exact maximum of coeffs . x over an H-polytope, by one LP on the
    `Fraction` tableau.  `polytope.maximize_linear` scans a vertex list
    instead."""
    res = fraction_solve_lp(
        list(coeffs),
        ineqs=[(list(q.coeffs), q.bound) for q in h.inequalities],
        eqs=[(list(c), r) for c, r in h.equalities],
        nonneg=False,
    )
    if res.status is not LpStatus.OPTIMAL:
        raise ValueError(f"no finite maximum over the H-polytope: {res.status}")
    return res.value


def h_implies(h: HPolytope, ineq: LinearInequality) -> bool:
    """Whether every point of h satisfies the inequality."""
    return h_maximum(ineq.coeffs, h) <= ineq.bound


def _h_implies_equality(h: HPolytope, eq: Equality) -> bool:
    coeffs, rhs = eq
    return h_maximum(coeffs, h) == rhs == -h_maximum([-c for c in coeffs], h)


def h_polytopes_equal(h1: HPolytope, h2: HPolytope) -> bool:
    """Mutual implication of two H-representations, checked by exact LPs."""
    if h1.dim != h2.dim:
        return False
    return (
        all(h_implies(h1, q) for q in h2.inequalities)
        and all(_h_implies_equality(h1, e) for e in h2.equalities)
        and all(h_implies(h2, q) for q in h1.inequalities)
        and all(_h_implies_equality(h2, e) for e in h1.equalities)
    )


# ---------------------------------------------------------------------------
# The simplex over a full `Fraction` tableau, every slack and artificial
# column stored.  `linprog.solve_lp` runs the same Bland pivots on reduced
# int pairs and stores only the nonbasic columns.  This takes anything
# `Fraction()` accepts.

_F0 = Fraction(0)
_F1 = Fraction(1)


def fraction_solve_lp(objective, *, ineqs=(), eqs=(), nonneg=False) -> LpResult:
    """`linprog.solve_lp` with one `Fraction` per tableau cell: the same
    standard form, start basis, pivots and certificate checks."""
    d = len(objective)
    obj = [Fraction(c) for c in objective]
    ineqs = [([Fraction(c) for c in row], Fraction(rhs)) for row, rhs in ineqs]
    eqs = [([Fraction(c) for c in row], Fraction(rhs)) for row, rhs in eqs]
    for row, _ in ineqs + eqs:
        if len(row) != d:
            raise ValueError("constraint length does not match the objective")

    n_slack = len(ineqs)
    width = (d if nonneg else 2 * d) + n_slack

    def widen(coeffs, slack):
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
    c_std = widen([-c for c in obj], None)
    slacks = [None] * len(eqs) + list(range(width - n_slack, width))

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
    dual = tuple(-v for v in y)
    _check_dual(dual, obj, ineqs, eqs, nonneg, value)
    return LpResult(LpStatus.OPTIMAL, x=tuple(x), value=value, dual=dual)


def _simplex_standard(c, rows, rhs, slacks):
    """min c.x s.t. rows.x = rhs, x >= 0; returns (status, x, y) as
    `linprog._simplex_standard` does, checking a Farkas y here.  `slacks[i]`
    is the column of row i's slack, None on an equality row.  Row i starts on
    that slack when rhs_i >= 0, else on its artificial n + i, whose column is
    e_i, not sign-flipped with the row.  The artificial column of a row that
    starts on its slack is zero."""
    m, n = len(rows), len(c)
    start = [
        s if s is not None and r >= 0 else n + i for i, (s, r) in enumerate(zip(slacks, rhs))
    ]
    flip = [-1 if r < 0 else 1 for r in rhs]
    tab = []
    for i in range(m):
        art = [_F0] * m
        if start[i] >= n:
            art[i] = _F1
        tab.append([flip[i] * v for v in rows[i]] + art + [flip[i] * rhs[i]])
    basis = list(start)
    total = n + m
    arts = [i for i in range(m) if start[i] >= n]
    if not arts:
        return _phase_two(c + [_F0] * m, tab, basis, start, flip, n)

    obj = [_F0] * n + [_F1 if start[i] >= n else _F0 for i in range(m)] + [_F0]
    for i in arts:
        for j in range(total + 1):
            if tab[i][j]:
                obj[j] -= tab[i][j]
    if not _pivot_loop(tab, basis, obj, allowed=total):
        raise CertificateError("phase 1 cannot be unbounded")
    if -obj[-1] > 0:
        y = [f * (int(j >= n) - obj[j]) for f, j in zip(flip, start)]
        _check_farkas(y, rows, rhs)
        return LpStatus.INFEASIBLE, [], y

    drop = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(tab, basis, i, col)
    for i in reversed(drop):
        del tab[i], basis[i]
    return _phase_two(c + [_F0] * m, tab, basis, start, flip, n)


def _phase_two(c, tab, basis, start, flip, n):
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


def _pivot_loop(tab, basis, obj, allowed):
    while True:
        enter = next((j for j in range(allowed) if obj[j] < 0), None)
        if enter is None:
            return True
        leave = None
        best = None
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


def _pivot(tab, basis, row_i, col, obj=None):
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


# ---------------------------------------------------------------------------
# fixtures and helpers that only the tests use


# The box [0, 10] x [0, 1] with its corner cut by x + y <= 10.9: every row is
# a facet, but from the interior point (1/2, 1/2) that pruning finds, the ray
# along the cut's normal meets y <= 1 first, so the cut is kept by its LP.
CUT_BOX = [((1, 0), 10), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((10, 10), 109)]


def pr_box() -> Correlation:
    """The extremal no-signalling box with a + b = x*y (mod 2), all marginals 1/2."""
    s = Scenario.bell(2, 2)
    half = Fraction(1, 2)
    entries = [Fraction(0)] * s.dim
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == (x * y) % 2:
                        entries[s.index(x, y, a, b)] = half
    return Correlation(s, tuple(entries))


def uniform_box(s: Scenario) -> Correlation:
    """The maximally mixed table: every outcome pair equally likely."""
    w = Fraction(1, s.nA * s.nB)
    return Correlation(s, tuple([w] * s.dim))


def bonet_strategy() -> QuantumStrategy:
    """Three-input strategy whose wired table reaches (3 + sqrt(2))/2.

    The first two inputs play the optimal correlator game; the third points
    opposite Bob's first direction, so the penalized joint outcome never
    occurs.
    """
    r = 1.0 / sqrt(2.0)
    return QuantumStrategy(
        (Observable2(1.0, 0.0), Observable2(0.0, 1.0), Observable2(-r, -r)),
        (Observable2(r, r), Observable2(r, -r)),
    )


def angle(o: Observable2) -> float:
    """The angle of o's direction from the z axis, as `from_angle` takes it."""
    return atan2(o.vx, o.vz)


def report_ok(report: ValidationReport) -> bool:
    """Nonnegative, normalized and, for Bell tables, no-signalling."""
    return report.nonnegative and report.normalized and report.no_signalling is not False


def satisfied_by(ineq: LinearInequality, point: Sequence[Fraction]) -> bool:
    return ineq.violation(point) <= 0


def contains(h: HPolytope, point: Sequence[Fraction]) -> bool:
    point = _as_point(point, h.dim)
    if any(not satisfied_by(ineq, point) for ineq in h.inequalities):
        return False
    return all(
        sum(c * p for c, p in zip(coeffs, point)) == rhs
        for coeffs, rhs in h.equalities
    )


def affine_dimension(h: HPolytope) -> int:
    return h.dim - len(_echelon([c for c, _ in h.equalities])[1])


def _relabelling_map(
    source: Scenario,
    target: Scenario,
    x_perm: Sequence[int],
    a_perms: Sequence[Sequence[int]],
    b_perms: Sequence[Sequence[int]],
) -> tuple[int, ...]:
    """Index permutation for (x, a, b) -> (x_perm[x], a_perms[x][a],
    b_perms[y][b]) with y the source wire value, between two scenarios of
    equal shapes: the general relabelling that `symmetry_group`'s adjacent
    transpositions are tested against."""
    out = [0] * source.dim
    for x in range(source.nX):
        for a in range(source.nA):
            y = source.wire(a, x)
            for b in range(source.nB):
                out[source.index(x, a, b)] = target.index(
                    x_perm[x], a_perms[x][a], b_perms[y][b]
                )
    return tuple(out)


def relabel_expression(
    e: LinearExpression,
    target: Scenario,
    x_perm: Sequence[int],
    a_perms: Sequence[Sequence[int]],
    b_perms: Sequence[Sequence[int]],
) -> LinearExpression:
    perm = _relabelling_map(e.scenario, target, x_perm, a_perms, b_perms)
    coeffs = [Fraction(0)] * target.dim
    for i, c in enumerate(e.coeffs):
        coeffs[perm[i]] = c
    return LinearExpression(target, tuple(coeffs), e.constant)


def relabel_correlation(
    p: Correlation,
    target: Scenario,
    x_perm: Sequence[int],
    a_perms: Sequence[Sequence[int]],
    b_perms: Sequence[Sequence[int]],
) -> Correlation:
    perm = _relabelling_map(p.scenario, target, x_perm, a_perms, b_perms)
    entries = [p.entries[0]] * target.dim
    for i, v in enumerate(p.entries):
        entries[perm[i]] = v
    return Correlation(target, tuple(entries))
