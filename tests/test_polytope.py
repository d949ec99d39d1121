import random
import re
from fractions import Fraction

import pytest

import instrumental.linprog as linprog
import instrumental.polytope as polytope
from instrumental.errors import CapacityError
from instrumental.inequalities import extension_membership, symmetry_group
from instrumental.polytope import (
    HPolytope,
    LinearInequality,
    VPolytope,
    _reduce_equalities,
    adjacency_decomposition,
    classical_vpolytope,
    facet_enumeration,
    fourier_motzkin_project,
    maximize_linear,
    membership,
    no_signalling_polytope,
    reduce_modulo,
    vertex_enumeration,
)
from instrumental.scenario import (
    Correlation,
    Scenario,
    dummy_input_extension,
    postselect,
    strategy_to_correlation,
    enumerate_deterministic_strategies,
)

from oracles import (
    affine_dimension,
    canonicalize_equality,
    contains,
    h_maximum,
    h_polytopes_equal,
    pr_box,
    satisfied_by,
)

F = Fraction
F0 = F(0)
F1 = F(1)

BELL22 = Scenario.bell(2, 2)
INSTR2 = Scenario.instrumental(2)
INSTR3 = Scenario.instrumental(3)


def ineq(coeffs, bound):
    return LinearInequality(tuple(F(c) for c in coeffs), F(bound))


def unit_cube(d):
    rows = []
    for i in range(d):
        lo = [F0] * d
        lo[i] = F(-1)
        rows.append(LinearInequality(tuple(lo), F0))
        hi = [F0] * d
        hi[i] = F1
        rows.append(LinearInequality(tuple(hi), F1))
    return HPolytope(d, tuple(rows))


def pearl_inequality(s, a, choice):
    """p(a, b | choice[b]) summed over b, <= 1.  Raw, unreduced form."""
    coeffs = [F0] * s.dim
    for b, x in enumerate(choice):
        coeffs[s.index(x, a, b)] += F1
    return LinearInequality(tuple(coeffs), F1)


def test_canonicalize_scales_to_primitive_integers():
    # with no equalities, reduce_modulo is the primitive positive multiple
    q = reduce_modulo(ineq([F(2, 3), F(-4, 3)], F(2)), ())
    assert q == ineq([1, -2], 3)
    assert reduce_modulo(q, ()) == q
    # positive scale only: orientation is part of the data
    assert reduce_modulo(ineq([-2, 0], 4), ()) == ineq([-1, 0], 2)
    with pytest.raises(ValueError):
        reduce_modulo(ineq([0, 0], 0), ())
    e = canonicalize_equality(((F(-2), F(4)), F(6)))
    assert e == ((F1, F(-2)), F(-3))


def test_reduce_modulo_kills_pivot_columns():
    eqs = (((F1, F1, F0), F1),)  # x0 = 1 - x1
    q = reduce_modulo(ineq([1, 0, 1], 2), eqs)
    assert q.coeffs[0] == 0
    # same face, different presentation: both reduce identically
    q2 = reduce_modulo(ineq([0, -1, 1], 1), eqs)
    assert q == q2


@pytest.mark.parametrize(
    "equalities",
    [
        (((1, 1, 0), 1), ((0, 1, 1), 0)),
        (((-1, 1, 0), 0),),
        (((0, 0, 0), 1),),
    ],
    ids=["nonzero-on-another-lead", "negative-lead", "no-lead"],
)
def test_elimination_needs_row_reduced_equalities(equalities):
    with pytest.raises(ValueError):
        polytope._eliminate_leads(equalities)
    with pytest.raises(ValueError):
        reduce_modulo(ineq([1, 0, 1], 2), equalities)


def test_orbit_without_generators_is_the_seed():
    eqs = (((1, 1, 0), 1),)
    q = reduce_modulo(ineq([1, 0, 1], 2), eqs)
    assert polytope._orbit(q, [], eqs) == frozenset({q})
    assert polytope._orbit(q, [], ()) == frozenset({q})


def test_simplex_facets():
    v = VPolytope.from_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    h = facet_enumeration(v)
    assert h.equalities == (((F1, F1, F1), F1),)
    assert set(h.inequalities) == {
        ineq([0, -1, 0], 0),
        ineq([0, 0, -1], 0),
        ineq([0, 1, 1], 1),
    }
    assert affine_dimension(h) == 2


def test_cube_round_trip():
    h = unit_cube(3)
    v = vertex_enumeration(h)
    assert len(v.vertices) == 8
    assert all(set(p) <= {F0, F1} for p in v.vertices)
    h2 = facet_enumeration(v)
    assert len(h2.inequalities) == 6
    assert h2.equalities == ()
    assert h_polytopes_equal(h, h2)


def test_cross_polytope_round_trip():
    signs = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    h = HPolytope(3, tuple(ineq(s, 1) for s in signs))
    v = vertex_enumeration(h)
    assert len(v.vertices) == 6
    assert all(sum(abs(c) for c in p) == 1 for p in v.vertices)


def test_vertex_enumeration_rejects_unbounded_input():
    half = HPolytope(2, (ineq([1, 0], 1), ineq([0, 1], 1)))
    with pytest.raises(ValueError):
        vertex_enumeration(half)
    slab = HPolytope(2, (ineq([1, 0], 1), ineq([-1, 0], 0)))
    with pytest.raises(ValueError):
        vertex_enumeration(slab)


def test_instrumental_hull_nx2():
    h = facet_enumeration(classical_vpolytope(INSTR2))
    assert len(h.equalities) == 2
    assert affine_dimension(h) == 6
    assert len(h.inequalities) == 12
    facets = set(h.inequalities)
    # 8 positivity facets
    for i in range(8):
        coeffs = [F0] * 8
        coeffs[i] = F(-1)
        assert reduce_modulo(ineq(coeffs, 0), h.equalities) in facets
    # 4 facets from non-constant choice functions b -> x
    for a in range(2):
        for choice in [(0, 1), (1, 0)]:
            q = reduce_modulo(pearl_inequality(INSTR2, a, choice), h.equalities)
            assert q in facets


def test_instrumental_hull_nx3():
    v = classical_vpolytope(INSTR3)
    assert len(v.vertices) == 28
    h = facet_enumeration(v)
    assert len(h.equalities) == 3
    assert len(h.inequalities) == 48
    facets = set(h.inequalities)
    positivity = set()
    for i in range(12):
        coeffs = [F0] * 12
        coeffs[i] = F(-1)
        positivity.add(reduce_modulo(ineq(coeffs, 0), h.equalities))
    assert positivity <= facets and len(positivity) == 12
    pearls = set()
    for a in range(2):
        for x0 in range(3):
            for x1 in range(3):
                if x0 == x1:
                    continue
                q = reduce_modulo(
                    pearl_inequality(INSTR3, a, (x0, x1)), h.equalities
                )
                pearls.add(q)
    assert pearls <= facets and len(pearls) == 12
    assert not pearls & positivity
    # p(a=b|0) + p(b=0|1) + p(a=0,b=1|2) <= 2 is a facet here
    coeffs = [F0] * 12
    for i in (0, 3, 4, 6, 9):
        coeffs[i] = F1
    bonet = reduce_modulo(ineq(coeffs, 2), h.equalities)
    assert bonet in facets
    assert bonet not in pearls | positivity


def test_hull_equals_wired_projection_nx2():
    # The hull of the deterministic strategies must coincide, facet for
    # facet, with the wired slice (y = a) of the two-input Bell local set.
    bell = Scenario.bell(2, 2)
    local = facet_enumeration(VPolytope.from_points(
        strategy_to_correlation(d) for d in enumerate_deterministic_strategies(bell)
    ))
    keep = sorted(bell.index(x, a, a, b) for x in range(2) for a in range(2) for b in range(2))
    full = HPolytope(
        bell.dim,
        local.inequalities,
        local.equalities,
    )
    proj = fourier_motzkin_project(full, keep)
    hull = facet_enumeration(classical_vpolytope(INSTR2))
    assert proj.inequalities == hull.inequalities
    assert proj.equalities == hull.equalities


def test_projection_solved_by_equalities_stays_irredundant(monkeypatch):
    # x2 = x0 and x3 = x0 + x1 solve both eliminated variables; in original
    # column order each equality leads on a kept column.  The last row,
    # x2 + x3 <= 4, is redundant and only the pruning pass removes it.
    h = HPolytope(4, (
        ineq([0, 0, 1, 0], 1),
        ineq([0, 0, 0, 1], 2),
        ineq([-1, 0, 0, 0], 0),
        ineq([0, -1, 0, 0], 0),
        ineq([0, 0, 1, 1], 4),
    ), (
        ((F(-1), F0, F1, F0), F0),
        ((F(-1), F(-1), F0, F1), F0),
    ))
    proj = fourier_motzkin_project(h, [0, 1])
    assert proj.equalities == ()
    assert proj.inequalities == (
        ineq([-1, 0], 0), ineq([0, -1], 0), ineq([1, 0], 1), ineq([1, 1], 2),
    )
    monkeypatch.setattr(polytope, "_prune_redundant", lambda rows, eqs: rows)
    unpruned = fourier_motzkin_project(h, [0, 1])
    assert ineq([2, 1], 4) in unpruned.inequalities
    assert len(unpruned.inequalities) == 5


def test_projection_keeps_equality_pivoting_on_kept_column():
    # x1 + x0 = 1 solves x1; x1 + x0 + x2 = 2 reduces to x2 = 1, which has
    # no eliminated variable left and must survive the projection.  x3 has
    # no equality and goes by row combination.
    h = HPolytope(4, (
        ineq([0, -1, 0, 0], 0),
        ineq([-1, 0, 0, 0], 0),
        ineq([0, 0, 0, -1], 0),
        ineq([-1, 0, 0, 1], 0),
    ), (
        ((F1, F1, F0, F0), F1),
        ((F1, F1, F1, F0), F(2)),
    ))
    proj = fourier_motzkin_project(h, [0, 2])
    assert proj.equalities == (((F0, F1), F1),)
    assert proj.inequalities == (ineq([-1, 0], 0), ineq([1, 0], 1))


def test_no_signalling_2222():
    ns = no_signalling_polytope(BELL22)
    assert affine_dimension(ns) == 8
    v = vertex_enumeration(ns)
    assert len(v.vertices) == 24
    verts = set(v.vertices)
    locals_ = {
        strategy_to_correlation(d).entries
        for d in enumerate_deterministic_strategies(BELL22)
    }
    assert locals_ <= verts
    assert len(locals_) == 16
    assert pr_box().entries in verts
    for p in verts - locals_:
        assert set(p) <= {F0, F(1, 2)}


def test_no_signalling_3222_vertex_count():
    ns = no_signalling_polytope(Scenario.bell(3, 2))
    assert len(vertex_enumeration(ns).vertices) == 128


def test_membership_inside_with_weights():
    v = classical_vpolytope(INSTR2)
    q = postselect(pr_box(), Scenario.instrumental(2))
    cert = membership(q, v)
    assert cert.inside
    assert sum(cert.weights) == 1 and all(w >= 0 for w in cert.weights)
    for i in range(v.dim):
        assert sum(w * p[i] for w, p in zip(cert.weights, v.vertices)) == q.entries[i]


def test_membership_outside_names_the_violated_facet():
    # a = 0 always, b = x: fine as a table, impossible when b sees only a
    entries = [F0] * 8
    entries[INSTR2.index(0, 0, 0)] = F1
    entries[INSTR2.index(1, 0, 1)] = F1
    q = Correlation(INSTR2, tuple(entries))
    v = classical_vpolytope(INSTR2)
    cert = membership(q, v)
    assert not cert.inside
    assert cert.margin > 0
    assert all(satisfied_by(cert.separator, p) for p in v.vertices)
    h = facet_enumeration(v)
    expected = reduce_modulo(pearl_inequality(INSTR2, 0, (0, 1)), h.equalities)
    assert reduce_modulo(cert.separator, h.equalities) == expected


def test_membership_rejects_float_points():
    v = classical_vpolytope(INSTR2)
    q = Correlation(INSTR2, tuple([0.125] * 8))
    with pytest.raises(TypeError):
        membership(q, v)


def test_maximize_agrees_between_representations():
    v = classical_vpolytope(INSTR2)
    h = facet_enumeration(v)
    rng = random.Random(7)
    for _ in range(12):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
        assert maximize_linear(coeffs, v)[0] == h_maximum(coeffs, h)
    assert maximize_linear([F0] * 8, v, constant=F(3))[0] == 3 + h_maximum([F0] * 8, h)


def test_maximize_returns_smallest_maximizing_vertex():
    v = VPolytope.from_points([(0, 0), (1, 0), (0, 1)])
    assert maximize_linear([F1, F1], v) == (1, (F0, F1))
    # the zero objective ties every vertex
    assert maximize_linear([F0, F0], v, constant=F(3)) == (3, v.vertices[0])
    # the tie rule does not rely on the vertex order
    shuffled = VPolytope(2, ((F1, F0), (F0, F1), (F0, F0)))
    assert maximize_linear([F1, F1], shuffled) == (1, (F0, F1))


@pytest.mark.parametrize(
    "points",
    [
        [(0, 1), (1, 0)],  # a segment: each facet's one ridge is the empty face
        [(0, 0), (1, 0)],  # the start facet is tight only at the origin
        [(0,), (1,)],
        [(0, 0), (1, 0), (0, 1)],
        [(F(1, 2), 0), (F(3, 2), 0), (0, F(1, 3)), (1, 1)],
        [(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 0), (F(1, 2), F(1, 2), 0)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    ],
    ids=["segment", "segment-origin", "interval", "triangle", "rational", "flat",
         "bipyramid"],
)
def test_adjacency_decomposition_without_symmetry(points):
    v = VPolytope.from_points(points)
    h, orbits = adjacency_decomposition(v, ())
    assert h == facet_enumeration(v)
    assert set(orbits) == {frozenset({q}) for q in h.inequalities}


def test_adjacency_decomposition_needs_a_coordinate_facet():
    # x0 = 0 and x1 = 0 each cut the diamond through two vertices, but
    # neither -x0 <= 0 nor -x1 <= 0 holds on all four
    v = VPolytope.from_points([(0, -1), (0, 1), (1, 0), (-1, 0)])
    with pytest.raises(ValueError, match="coordinate facet"):
        adjacency_decomposition(v, ())


def test_adjacency_decomposition_of_a_point_has_no_facets():
    h, orbits = adjacency_decomposition(VPolytope.from_points([(1, 1)]), ())
    assert h.inequalities == () and orbits == [] and affine_dimension(h) == 0


@pytest.mark.parametrize("point", [(0, 0), (1, 1)])
def test_facet_enumeration_of_a_point_has_no_facets(point):
    h = facet_enumeration(VPolytope.from_points([point]))
    assert h.inequalities == () and affine_dimension(h) == 0


def test_from_points_keeps_fractions_and_drops_duplicates():
    v = VPolytope.from_points([(F1, F0), (0, 1), (F1, F0), (F(1, 2), 1)])
    assert v.vertices == ((F(0), F(1)), (F(1, 2), F(1)), (F(1), F(0)))
    assert v.vertices[2][0] is F1
    assert all(type(c) is Fraction for p in v.vertices for c in p)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        facet_enumeration(classical_vpolytope(INSTR2), max_rays=3)
    # the trip says how far the projection got
    with pytest.raises(CapacityError, match=re.escape(
        "projection exceeded 2 rows (12 rows after eliminating 0 of 5 variables)"
    )):
        fourier_motzkin_project(unit_cube(6), [0], max_rows=2)
    s = Scenario.instrumental(2)
    with pytest.raises(CapacityError, match=re.escape(
        "projection exceeded 15 rows (16 rows after eliminating 6 of 8 variables)"
    )):
        fourier_motzkin_project(
            no_signalling_polytope(s.parent_bell()), s.wired_indices(), max_rows=15
        )


# Smallest max_rows the GPT projection accepts: the largest deduplicated
# system between two elimination steps, before the final pruning pass.
@pytest.mark.parametrize("n, trip", [(2, 16), (3, 30)])
def test_projection_trip_points(n, trip):
    s = Scenario.instrumental(n)
    ns = no_signalling_polytope(s.parent_bell())
    fourier_motzkin_project(ns, s.wired_indices(), max_rows=trip)
    with pytest.raises(CapacityError):
        fourier_motzkin_project(ns, s.wired_indices(), max_rows=trip - 1)


def test_projection_prunes_without_phase_one(monkeypatch):
    # One two-phase feasibility LP, then phase-2-only pruning LPs: 71
    # pivots at three inputs (46 of them finding the feasible point), against
    # 1,497 when every pruning LP ran both phases (192 with one LP per row).
    s = Scenario.instrumental(3)
    ns = no_signalling_polytope(s.parent_bell())
    pivots = []
    pivot = linprog._pivot
    monkeypatch.setattr(linprog, "_pivot", lambda *a: pivots.append(1) or pivot(*a))
    fourier_motzkin_project(ns, s.wired_indices())
    assert len(pivots) <= 400


@pytest.mark.parametrize("n, lps", [(2, 6), (3, 8)])
def test_projection_keeps_every_facet_by_ray_shooting(monkeypatch, n, lps):
    # The start LP, the interior-point LP and one LP per dropped row, 4 of 16
    # rows at two inputs and 6 of 30 at three: every facet is kept by ray
    # shooting, with no LP of its own.
    s = Scenario.instrumental(n)
    ns = no_signalling_polytope(s.parent_bell())
    calls = []
    solve = polytope.solve_lp
    monkeypatch.setattr(polytope, "solve_lp", lambda *a, **k: calls.append(1) or solve(*a, **k))
    fourier_motzkin_project(ns, s.wired_indices())
    assert len(calls) == lps


def test_separation_runs_without_phase_one(monkeypatch):
    # The separation LP for the PR box with a dummy third input starts from
    # the slack basis: 16 pivots, against 93 when it ran both phases.
    p = postselect(dummy_input_extension(pr_box()), INSTR3)
    pivots, inside = [], []
    pivot, separate = linprog._pivot, polytope._separating_facet

    def counted_pivot(*args):
        if inside:
            pivots.append(1)
        return pivot(*args)

    def counted_separate(*args):
        inside.append(1)
        try:
            return separate(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(linprog, "_pivot", counted_pivot)
    monkeypatch.setattr(polytope, "_separating_facet", counted_separate)
    assert not extension_membership(p, "classical").inside
    assert inside == [] and 0 < len(pivots) <= 40


def _entries(h):
    for q in h.inequalities:
        yield from (*q.coeffs, q.bound)
    for coeffs, rhs in h.equalities:
        yield from (*coeffs, rhs)


def test_returned_rows_are_ints():
    ns = no_signalling_polytope(Scenario.bell(2, 2))
    polytopes = [
        ns,
        facet_enumeration(classical_vpolytope(INSTR2)),
        facet_enumeration(VPolytope.from_points([(F(1, 2), 0), (0, F(1, 3)), (1, 1)])),
        fourier_motzkin_project(ns, INSTR2.wired_indices()),
        fourier_motzkin_project(unit_cube(3), [0, 2]),
    ]
    rows = [
        reduce_modulo(ineq([F(2, 3), F(-4, 3)], F(2)), ()),
        reduce_modulo(ineq([F(1, 2), 0, 1], 2), (((F1, F1, F0), F1),)),
    ]
    entries = [v for h in polytopes for v in _entries(h)]
    entries += [v for q in rows for v in (*q.coeffs, q.bound)]
    assert {type(v) for v in entries} == {int}


def test_round_trip_recovers_extreme_points():
    rng = random.Random(2024)
    for trial in range(4):
        pts = [
            tuple(F(rng.randint(0, 3), rng.choice([1, 2])) for _ in range(4))
            for _ in range(9)
        ]
        pts = list(dict.fromkeys(pts))
        extreme = set()
        for i, p in enumerate(pts):
            rest = pts[:i] + pts[i + 1 :]
            if not membership(p, VPolytope.from_points(rest)).inside:
                extreme.add(p)
        h = facet_enumeration(VPolytope.from_points(pts))
        for p in pts:
            assert all(satisfied_by(q, p) for q in h.inequalities)
        back = vertex_enumeration(h)
        assert set(back.vertices) == extreme


def _convex_position_points(rng, d):
    """Random points that are all vertices of their hull: a subset of the
    0/1 cube (often lower-dimensional), or integer points on the paraboloid
    x_d = |x|^2."""
    if rng.random() < 0.5:
        corners = rng.sample(range(2**d), rng.randint(1, 2**d))
        return [tuple((c >> j) & 1 for j in range(d)) for c in corners]
    count, points = rng.randint(d + 1, min(d + 6, 7 ** (d - 1))), set()
    while len(points) < count:
        x = tuple(rng.randint(-3, 3) for _ in range(d - 1))
        points.add((*x, sum(c * c for c in x)))
    return sorted(points)


def test_double_description_round_trip_on_random_polytopes():
    rng = random.Random(314)
    for _ in range(24):
        v = VPolytope.from_points(_convex_position_points(rng, rng.randint(2, 4)))
        assert vertex_enumeration(facet_enumeration(v)) == v


def test_exact_dtype_switches_to_python_ints_at_two_to_the_63():
    import numpy as np

    assert polytope._exact_dtype(2**63 - 1) is np.int64
    assert polytope._exact_dtype(2**63) is object
    # one product of magnitude 2**63 - 2**32 fits int64; 2**63 does not
    below = polytope._exact_product([[2**31 - 1]], [[2**32]])
    above = polytope._exact_product([[2**31]], [[2**32]])
    assert below.dtype == np.int64 and below.tolist() == [[2**63 - 2**32]]
    assert above.dtype == object and above.tolist() == [[2**63]]


def test_double_description_round_trip_on_hypothesis_polytopes():
    # facets, then vertices, then facets again: the vertices come back as a
    # subset of the points whose hull has the same facets.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    points = st.integers(1, 3).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=8)
    )

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(points)
    def round_trip(pts):
        v = VPolytope.from_points(pts)
        h = facet_enumeration(v)
        back = vertex_enumeration(h)
        assert set(back.vertices) <= set(v.vertices)
        assert all(contains(h, p) for p in v.vertices)
        assert facet_enumeration(back) == h

    round_trip()


@pytest.mark.parametrize("seed", range(4))
def test_facets_invariant_under_relabelled_coordinates(seed):
    # Relabel the coordinates of the three-input hull by a random
    # permutation (conjugating the symmetry generators to match), find the
    # facets again and map them back: the list must not change.  The search
    # inserts the vertices in another order and may start from another
    # coordinate facet.
    s = Scenario.instrumental(3)
    v = classical_vpolytope(s)
    generators = symmetry_group(s).generators
    h, _ = adjacency_decomposition(v, generators)
    perm = list(range(v.dim))
    random.Random(seed).shuffle(perm)
    moved = VPolytope.from_points(
        [tuple(p[perm.index(i)] for i in range(v.dim)) for p in v.vertices]
    )
    conjugated = [tuple(perm[g[perm.index(i)]] for i in range(v.dim)) for g in generators]
    h_moved, _ = adjacency_decomposition(moved, conjugated)
    back = {
        reduce_modulo(
            LinearInequality(tuple(q.coeffs[perm[i]] for i in range(v.dim)), q.bound),
            h.equalities,
        )
        for q in h_moved.inequalities
    }
    assert back == set(h.inequalities)
    assert _reduce_equalities(
        [(tuple(c[perm[i]] for i in range(v.dim)), rhs) for c, rhs in h_moved.equalities],
        v.dim,
    ) == h.equalities
