"""Test oracles against the routes the package uses."""

import json
import os
import random
from fractions import Fraction

import pytest

import instrumental.inequalities as inequalities
import instrumental.io as io
import instrumental.linprog as linprog
import instrumental.polytope as polytope
from instrumental.cli import main
from instrumental.errors import CapacityError
from instrumental.inequalities import (
    LinearExpression,
    _square_free,
    catalog,
    classical_maximum,
    extension_membership,
    gpt_maximum,
    lift_to_bell,
    pearl_expressions,
    symmetry_group,
)
from instrumental.linprog import LpStatus
from instrumental.polytope import (
    HPolytope,
    LinearInequality,
    VPolytope,
    _dd_pointed,
    _dot,
    _echelon,
    _prune_redundant,
    _reduce_equalities,
    adjacency_decomposition,
    classical_vpolytope,
    facet_enumeration,
    facet_orbits,
    fourier_motzkin_project,
    maximize_linear,
    membership,
    no_signalling_polytope,
    normalization_equalities,
    reduce_modulo,
)
from instrumental.rationals import integerize, over_common_denominator, primitive
from instrumental.scenario import (
    Correlation,
    Kind,
    Scenario,
    classical_correlations,
    dummy_input_extension,
    mix_correlations,
    postselect,
    strategy_to_correlation,
    validate,
)

import oracles
from oracles import (
    CUT_BOX,
    brute_force_extreme_rays,
    fraction_integerize,
    fraction_prune,
    fraction_solve_lp,
    gpt_box_search,
    gpt_vroute,
    hashed_classical_correlations,
    input_blocks,
    no_signalling_equalities,
    python_dd_pointed,
    report_ok,
    rref,
    signalling_residual,
    square_free,
    two_phase_gpt_maximum,
    two_phase_prune,
    two_phase_separating_facet,
)

EXPRESSIONS = {
    "bonet": catalog("bonet"),
    "tilted-3/2": catalog("tilted", alpha=Fraction(3, 2)),
    "pearl-x2": pearl_expressions(Scenario.instrumental(2))[0],
    "pearl-x3": pearl_expressions(Scenario.instrumental(3))[5],
}


@pytest.mark.parametrize("name", EXPRESSIONS)
def test_vertex_scan_matches_gpt_maximum(name):
    e = EXPRESSIONS[name]
    assert gpt_box_search(e)[0] == gpt_maximum(e)[0]


def _name(s):
    return f"{s.kind.value}-{s.nX}{s.nY}{s.nA}{s.nB}"


GPT_ORACLE_SCENARIOS = [
    Scenario.bell(2, 2),
    Scenario.bell(3, 2),
    Scenario.bell(2, 3),
    Scenario.bell(2, 2, 3, 3),
    Scenario.bell(3, 2, 3, 2),
    Scenario.instrumental(2),
    Scenario.instrumental(3),
    Scenario.instrumental(2, 3, 2),
    Scenario.chained(3),
    Scenario.f_instrumental(2, 3, 2, 2, [[0, 2], [1, 1]]),
]


@pytest.mark.parametrize("s", GPT_ORACLE_SCENARIOS, ids=_name)
def test_gpt_maximum_matches_two_phase_oracle(s):
    rng = random.Random(13)
    lift = (lambda e: e) if s.kind is Kind.BELL else lift_to_bell
    for _ in range(3):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(s.dim))
        e = LinearExpression(s, coeffs, Fraction(rng.randint(-2, 2), 3))
        value, box = gpt_maximum(e)
        assert value == two_phase_gpt_maximum(e)[0]
        report = validate(box)
        assert report.nonnegative and report.normalized and report.no_signalling
        assert lift(e).evaluate(box) == value


NS_SCENARIOS = [
    Scenario.bell(2, 2),
    Scenario.bell(3, 2),
    Scenario.bell(2, 2, 3, 2),
    Scenario.bell(2, 3, 2, 3),
]


@pytest.mark.parametrize("s", NS_SCENARIOS, ids=_name)
def test_no_signalling_equalities_match_loops(s):
    expected = _reduce_equalities(no_signalling_equalities(s), s.dim)
    assert no_signalling_polytope(s).equalities == expected


@pytest.mark.parametrize("s", NS_SCENARIOS, ids=_name)
def test_signalling_residual_matches_loops(s):
    rng = random.Random(s.dim)
    for _ in range(5):
        exact = Correlation(s, tuple(Fraction(rng.randint(0, 5), 7) for _ in range(s.dim)))
        floats = Correlation(s, tuple(rng.random() for _ in range(s.dim)))
        for p in (exact, floats):
            assert validate(p).no_signalling is (signalling_residual(p) == 0)
    # A float table is no-signalling within validate's default 1e-9: move
    # `gap` of Alice's weight from a = 0 to a = 1 in context (x, y) = (0, 0).
    for gap, within in ((5e-10, True), (2e-9, False)):
        entries = [1.0 / (s.nA * s.nB)] * s.dim
        entries[s.index(0, 0, 0, 0)] -= gap
        entries[s.index(0, 0, 1, 0)] += gap
        p = Correlation(s, tuple(entries))
        assert signalling_residual(p) == pytest.approx(gap)
        report = validate(p)
        assert report.normalized and report.no_signalling is within


@pytest.mark.parametrize("s", NS_SCENARIOS, ids=_name)
def test_exact_validation_matches_fraction_loops(s):
    # validate checks exact tables in integers over one common denominator;
    # mixed denominators exercise that scaling.
    rng = random.Random(s.dim + 1)
    pool = classical_correlations(s)
    for _ in range(5):
        p = Correlation(s, tuple(
            Fraction(rng.randint(-1, 5), rng.randint(1, 12)) for _ in range(s.dim)
        ))
        rep = validate(p)
        assert rep.no_signalling is (signalling_residual(p) == 0)
        assert rep.nonnegative is all(e >= 0 for e in p.entries)
        assert rep.normalized is all(
            sum(p.entries[i] for i in block) == 1 for block in input_blocks(s)
        )
        weights = [Fraction(1, rng.randint(4, 9)) for _ in range(3)]
        q = mix_correlations(zip([*weights, 1 - sum(weights)], rng.sample(pool, 4)))
        assert report_ok(validate(q)) and signalling_residual(q) == 0
        assert max(e.denominator for e in q.entries) > 1


def test_square_free_matches_trial_division_oracle():
    rng = random.Random(13)
    primes = [7919, 10007, 10009]
    radicands = list(range(200)) + [p * q for p in primes for q in primes]
    for _ in range(500):
        radicands += [
            rng.randrange(10**7),
            rng.randrange(1, 10**4) ** 2 * rng.randrange(1, 10**4),
            rng.randrange(1, 300) ** 3 * rng.randrange(1, 10**5),
            rng.choice(primes) ** 2 * rng.randrange(1, 50),
        ]
    for n in radicands:
        assert _square_free(n) == square_free(n), n


@pytest.mark.parametrize(
    "s",
    [Scenario.bell(2, 3, 3, 2), Scenario.instrumental(3, 3, 2), Scenario.chained(3)],
    ids=_name,
)
def test_input_blocks_match_loops(s):
    assert s.input_blocks() == input_blocks(s)


def _random_rational_vector(rng, n, kind):
    def entry():
        num = rng.randint(-12, 12)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return num
        return Fraction(num, rng.randint(1, 9))

    return [entry() for _ in range(n)]


def test_integerize_matches_fraction_oracle():
    rng = random.Random(11)
    vectors = [[], [0], [0, 0, 0], [-4, -6], [Fraction(-2, 3), 0, Fraction(4, 9)], [7]]
    for kind in ("int", "fraction", "mixed"):
        vectors += [
            _random_rational_vector(rng, rng.randint(1, 8), kind) for _ in range(60)
        ]
    for vec in vectors:
        got = integerize(vec)
        assert got == fraction_integerize(vec)
        assert all(type(v) is int for v in got)


@pytest.mark.parametrize(
    "args",
    [(2,), (3,), (2, 3, 2), (2, 2, 3)],
    ids=lambda a: "instrumental-" + "".join(map(str, a)),
)
def test_fourier_motzkin_matches_vroute(args):
    s = Scenario.instrumental(*args)
    ns = no_signalling_polytope(s.parent_bell())
    fm = fourier_motzkin_project(ns, s.wired_indices())
    vroute = gpt_vroute(s)
    assert fm.inequalities == vroute.inequalities
    assert fm.equalities == vroute.equalities == normalization_equalities(s)


def _random_h_system(rng, kind):
    """Integer rows (coeffs, bound) and row-reduced equalities in 2-4
    variables, built around an integer point so that every kind but
    "infeasible" has one."""
    d = rng.randint(2, 4)
    point = [rng.randint(-2, 2) for _ in range(d)]

    def through_point(coeffs, slack):
        return tuple(coeffs), sum(c * v for c, v in zip(coeffs, point)) + slack

    def random_coeffs():
        # no row bounds the last variable of an "unbounded" system
        free = int(kind == "unbounded")
        return [rng.randint(-3, 3) for _ in range(d - free)] + [0] * free

    n_rows = rng.randint(d + 1, 2 * d + 3)
    rows = [through_point(random_coeffs(), rng.randint(0, 3)) for _ in range(n_rows)]
    eqs = []
    if kind in ("equalities", "constant"):
        eqs = [through_point(random_coeffs(), 0) for _ in range(rng.randint(1, d - 1))]
    if kind == "constant":
        # multiples of an equality: constant on the affine hull
        for _ in range(2):
            k = rng.choice([-2, -1, 1, 2])
            row = through_point([k * c for c in rng.choice(eqs)[0]], rng.randint(0, 2))
            rows.insert(rng.randrange(len(rows) + 1), row)
    if kind == "duplicates":
        for _ in range(3):
            (c1, b1), (c2, b2) = rng.choice(rows), rng.choice(rows)
            row = rng.choice([
                (c1, b1),
                (tuple(2 * c for c in c1), 2 * b1),
                (tuple(a + b for a, b in zip(c1, c2)), b1 + b2 + rng.randint(0, 1)),
            ])
            rows.insert(rng.randrange(len(rows) + 1), row)
    if kind == "infeasible":
        c, b = rows[0]
        rows.insert(rng.randrange(len(rows) + 1), (tuple(-v for v in c), -b - 1))
    return rows, _reduce_equalities(eqs, d)


@pytest.mark.parametrize(
    "kind", ["free", "equalities", "constant", "duplicates", "unbounded", "infeasible"]
)
def test_prune_redundant_matches_two_phase_oracle(kind):
    rng = random.Random(f"prune-{kind}")
    pruned = kept = 0
    for _ in range(20):
        rows, eqs = _random_h_system(rng, kind)
        got = _prune_redundant(rows, eqs)
        assert got == two_phase_prune(rows, eqs)
        if kind == "infeasible":
            assert got == rows
        pruned += len(rows) - len(got)
        kept += len(got)
    assert kept and (pruned or kind == "infeasible")


def _pruning_trace(monkeypatch, prune, module, solver, tableau, rows, eqs):
    """The rows `prune` keeps and, for each LP it solves through
    `module.<solver>`, in order: its objective and inequality rows, its
    result, and the basis labels after every pivot of `tableau._pivot`."""
    lps, bases = [], []
    pivot, solve = tableau._pivot, getattr(module, solver)

    def recorded_pivot(tab, basis, *args):
        pivot(tab, basis, *args)
        bases.append(tuple(basis))

    def recorded_solve(objective, **kwargs):
        res = solve(objective, **kwargs)
        ineqs = [(tuple(c), r) for c, r in kwargs.get("ineqs", ())]
        lps.append(((tuple(objective), ineqs), res, tuple(bases)))
        bases.clear()
        return res

    with monkeypatch.context() as m:
        m.setattr(tableau, "_pivot", recorded_pivot)
        m.setattr(module, solver, recorded_solve)
        return prune(rows, eqs), lps


def _gpt_pruning_input(monkeypatch, s):
    """The (rows, equalities) that the GPT projection of s hands to
    `_prune_redundant`."""
    seen = []
    prune = polytope._prune_redundant

    def recorded(rows, eqs):
        seen.append((list(rows), eqs))
        return prune(rows, eqs)

    with monkeypatch.context() as m:
        m.setattr(polytope, "_prune_redundant", recorded)
        fourier_motzkin_project(no_signalling_polytope(s.parent_bell()), s.wired_indices())
    (case,) = seen
    return case


def _outcome(lp):
    _, res, bases = lp
    return res.status, res.dual, bases


def _assert_same_pruning(monkeypatch, rows, eqs):
    # After the start LP and the interior-point LP, every LP still solved is
    # the oracle's LP for the same row, in the same order.  Integer local
    # coordinates scale each column and every right-hand side by positive
    # constants: the same kept rows, duals and pivots.  Rows that ray
    # shooting keeps skip their LP, and no row is dropped without one.
    kept, got = _pruning_trace(
        monkeypatch, _prune_redundant, polytope, "solve_lp", linprog, rows, eqs
    )
    want_kept, want = _pruning_trace(
        monkeypatch, fraction_prune, oracles, "fraction_solve_lp", oracles, rows, eqs
    )
    assert kept == want_kept
    assert _outcome(got[0]) == _outcome(want[0])
    if want[0][1].status is not LpStatus.OPTIMAL:
        assert len(got) == len(want) == 1
        return
    null = oracles.rref_null_space([c for c, _ in eqs], len(rows[0][0]))
    kappa = [next(Fraction(k) / v for k, v in zip(integerize(n), n) if v) for n in null]
    x0 = want[0][1].x
    den = integerize((*x0, 1))[-1]

    def scaled(a):
        return tuple(k * v for k, v in zip(kappa, a))

    def in_integers(lp):  # an oracle LP as `_prune_redundant` states it
        (objective, ineqs), _, _ = lp
        return scaled(objective), [(scaled(a), den * s) for a, s in ineqs]

    local = [(scaled([_dot(c, n) for n in null]), den * (b - _dot(c, x0))) for c, b in rows]
    cap = ((0,) * len(null) + (1,), max(s for _, s in local) + 1)
    assert got[1][0] == ((0,) * len(null) + (1,), [*(((*a, 1), s) for a, s in local), cap])
    oracle_lps = iter(want[1:])
    for lp in got[2:]:
        match = next((w for w in oracle_lps if in_integers(w) == lp[0]), None)
        assert match is not None and _outcome(lp) == _outcome(match)
    dropped = sum(res.value <= ineqs[-1][1] - den for (_, ineqs), res, _ in got[2:])
    assert dropped == len(rows) - len(kept)


@pytest.mark.parametrize(
    "args", [(2,), (3,), (2, 3, 3)], ids=lambda a: "instrumental-" + "".join(map(str, a))
)
def test_gpt_pruning_matches_fraction_oracle(monkeypatch, args):
    rows, eqs = _gpt_pruning_input(monkeypatch, Scenario.instrumental(*args))
    _assert_same_pruning(monkeypatch, rows, eqs)


@pytest.mark.parametrize(
    "rows, lp_objectives",
    [(CUT_BOX, [(10, 10)]), ([((1,), 1), ((-1,), -1)], [(1,), (-1,)])],
    ids=["another-row-met-first", "no-interior-point"],
)
def test_pruning_falls_back_to_row_lps(monkeypatch, rows, lp_objectives):
    # A row that ray shooting cannot keep goes to its LP: the cut of CUT_BOX,
    # and both rows of x <= 1, -x <= -1, which leave no point strictly inside
    # either.  Every row is still kept, as the two-phase oracle keeps it.
    kept, lps = _pruning_trace(
        monkeypatch, _prune_redundant, polytope, "solve_lp", linprog, rows, ()
    )
    assert kept == rows == two_phase_prune(rows, ())
    assert [objective for (objective, _), _, _ in lps[2:]] == lp_objectives
    _assert_same_pruning(monkeypatch, rows, ())


def test_pruning_shoots_at_the_rows_of_an_unbounded_system(monkeypatch):
    # Over x <= 1 and y <= 1, t is unbounded in the interior-point LP until
    # its cap t <= max_j s_j + 1 bounds it.  From the center found, both rows
    # are kept by shooting; only the implied x + y <= 3 goes to an LP.
    rows = [((1, 0), 1), ((0, 1), 1), ((1, 1), 3)]
    kept, lps = _pruning_trace(
        monkeypatch, _prune_redundant, polytope, "solve_lp", linprog, rows, ()
    )
    assert kept == rows[:2] == two_phase_prune(rows, ())
    assert lps[1][1].status is LpStatus.OPTIMAL and lps[1][1].value > 0
    assert [objective for (objective, _), _, _ in lps[2:]] == [(1, 1)]
    _assert_same_pruning(monkeypatch, rows, ())


@pytest.mark.parametrize(
    "kind", ["free", "equalities", "constant", "duplicates", "unbounded", "infeasible"]
)
def test_pruning_matches_fraction_oracle(monkeypatch, kind):
    rng = random.Random(f"prune-{kind}")
    for _ in range(20):
        _assert_same_pruning(monkeypatch, *_random_h_system(rng, kind))


def _random_separation_case(rng, flat):
    """Vertices of a random small polytope and a random point, with every
    coordinate in halves.  A flat polytope is the image of one of dimension
    m under an integer affine map into m + 1 or m + 2 dimensions; its point
    lies on that image, or off it when `flat == "off"`."""
    def coord(lo, hi):
        return Fraction(rng.randint(2 * lo, 2 * hi), 2)

    if not flat:
        d = rng.randint(2, 4)
        pts = [tuple(coord(-2, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 5))]
        return pts, tuple(coord(-4, 4) for _ in range(d))
    m = rng.randint(1, 2)
    d = m + rng.randint(1, 2)
    a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(d)]
    t = [rng.randint(-2, 2) for _ in range(d)]

    def embed(y):
        return tuple(sum(r * yi for r, yi in zip(row, y)) + ti for row, ti in zip(a, t))

    pts = [embed([coord(-2, 2) for _ in range(m)]) for _ in range(rng.randint(m + 1, m + 4))]
    q = embed([coord(-4, 4) for _ in range(m)])
    if flat == "off":
        q = tuple(x + rng.randint(-1, 1) for x in q)
    return pts, q


def _normalized_violation(sep, q, verts):
    centroid = [sum(col) / len(verts) for col in zip(*verts)]
    slack = sep.bound - sum(g * c for g, c in zip(sep.coeffs, centroid))
    return sep.violation(q) / slack


@pytest.mark.parametrize("flat", [None, "on", "off"])
def test_separating_facet_matches_two_phase_oracle(flat):
    # The polar LP may pick another facet than the two-phase LP when several
    # tie, but never one with a smaller normalized violation.  A point off
    # the affine hull gets the same oriented equality, byte for byte.
    rng = random.Random(f"separate-{flat}")
    by_lp = by_equality = 0
    for _ in range(40):
        pts, q = _random_separation_case(rng, flat)
        v = VPolytope.from_points(pts)
        cert = membership(q, v)
        if cert.inside:
            continue
        h = facet_enumeration(v)
        sep, oracle = cert.separator, two_phase_separating_facet(q, v.vertices)
        if any(sum(c * x for c, x in zip(coeffs, q)) != rhs for coeffs, rhs in h.equalities):
            assert repr(sep) == repr(oracle)
            by_equality += 1
        else:
            assert reduce_modulo(sep, h.equalities) in h.inequalities
            assert _normalized_violation(sep, q, v.vertices) == _normalized_violation(
                oracle, q, v.vertices
            )
            by_lp += 1
    if flat == "off":
        assert by_equality
    else:
        assert by_lp >= 10


def _random_cone(rng, r, zero_one):
    """Rows of a pointed cone in dimension r: small random integer rows, or
    the homogenized rows (1, v) of random 0/1 points, whose cone (the valid
    inequalities of their hull) is degenerate: many rays share each row."""
    while True:
        if zero_one:
            pts = rng.sample(range(2 ** (r - 1)), rng.randint(r, min(2 ** (r - 1), r + 5)))
            rows = [(1, *((pt >> j) & 1 for j in range(r - 1))) for pt in pts]
        else:
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(r))
                for _ in range(rng.randint(r, r + 5))
            ]
        if len(rref(rows)[1]) == r:
            return rows


@pytest.mark.parametrize("zero_one", [False, True], ids=["integer", "zero-one"])
@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_double_description_matches_brute_force(r, zero_one):
    found = 0
    for seed in range(10):
        rows = _random_cone(random.Random(1000 * r + seed), r, zero_one)
        rays = _dd_pointed(rows, 10**6)
        assert sorted(rays) == sorted(brute_force_extreme_rays(rows))
        found += len(rays)
    assert found >= 10


def test_double_description_skips_the_pair_itself_as_witness():
    # A cached witness against (p, m') may be the negative ray m of a later
    # pair (p, m); m is tight on all their common rows, so taking it as a
    # third ray drops the adjacent pair and loses the ray (-1, 1, -1).
    rows = [
        (-2, 2, 0), (-3, -1, 1), (-3, 1, 0), (-3, -3, -1),
        (2, 2, -1), (0, 0, 0), (2, 3, 1), (-2, 1, 3),
    ]
    want = {(-1, 1, 0), (-5, 4, -2), (-8, 11, -9), (-1, 1, -1)}
    assert brute_force_extreme_rays(rows) == want
    assert sorted(_dd_pointed(rows, 10**6)) == sorted(want)


# The witness screen's sizes: the default, none, a single ray, and more rays
# than any double description here holds.  Each test runs them all, so its
# ids stay those of its other parameters.
SCREENS = (polytope._SCREEN, 0, 1, 10**6)


@pytest.mark.parametrize("block", [None, 1], ids=["one-block", "one-ray-blocks"])
@pytest.mark.parametrize("zero_one", [False, True], ids=["integer", "zero-one"])
@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_array_double_description_matches_python_ints(monkeypatch, r, zero_one, block):
    # Same rays in the same order: the block prefilter only drops pairs the
    # pair-by-pair popcount drops, the witness screen only pairs that a third
    # ray rules out, and the new rays come out in (p, m) order, also when
    # each block of the prefilter holds a single positive ray.
    if block:
        monkeypatch.setattr(polytope, "_PAIR_BLOCK", block)
    for seed in range(10):
        rows = _random_cone(random.Random(1000 * r + seed), r, zero_one)
        want = python_dd_pointed(rows, 10**6)
        for screen in SCREENS:
            monkeypatch.setattr(polytope, "_SCREEN", screen)
            assert _dd_pointed(rows, 10**6) == want, screen


def _wide_cone(seed):
    """A pointed cone of 268 rows in R^4: the homogenized origin at 256
    scales, then 12 random points in [-3, 3]^3.  Rays through the origin
    share its 256 rows, more than a uint8 count holds."""
    rng = random.Random(seed)
    points = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(12)]
    return [(k, 0, 0, 0) for k in range(1, 257)] + [(1, *p) for p in points]


def test_double_description_counts_past_255_common_rows(monkeypatch):
    # Same rays in the same order, and the same row in the CapacityError,
    # when pairs share 256 or more tight rows.
    for seed in range(5):
        rows = _wide_cone(seed)
        want = python_dd_pointed(rows, 10**6)
        cap = len(want) // 2
        with pytest.raises(CapacityError) as tripped:
            python_dd_pointed(rows, cap)
        for screen in SCREENS:
            monkeypatch.setattr(polytope, "_SCREEN", screen)
            assert _dd_pointed(rows, 10**6) == want, screen
            with pytest.raises(CapacityError) as also:
                _dd_pointed(rows, cap)
            assert str(also.value) == str(tripped.value)


def test_double_description_screens_every_ray_while_they_are_few(monkeypatch):
    # Up to 4 * _SCREEN rays the screen holds every ray and no pair reaches
    # the pair-by-pair test; past that the pairs left do.  At _SCREEN = 2
    # both run within one double description.
    calls = []
    full_test = polytope._full_adjacency_test

    def counted(tight, pp, mm, n):
        calls.append(len(tight))
        return full_test(tight, pp, mm, n)

    monkeypatch.setattr(polytope, "_full_adjacency_test", counted)
    for seed in range(5):
        rows = _wide_cone(seed)
        want = python_dd_pointed(rows, 10**6)
        loops = {}
        for screen in (0, 2, 10**6):
            monkeypatch.setattr(polytope, "_SCREEN", screen)
            calls.clear()
            assert _dd_pointed(rows, 10**6) == want, screen
            assert all(held > 4 * screen for held in calls)
            loops[screen] = len(calls)
        assert loops[10**6] == 0 < loops[2] < loops[0], loops


def _recorded_ridge_dds(monkeypatch, s):
    """(rows, max_rays, rays) of every ridge DD that the adjacency
    decomposition of s's classical polytope runs."""
    calls = []
    run = polytope._dd_pointed

    def recorded(rows, max_rays):
        calls.append((rows, max_rays, run(rows, max_rays)))
        return calls[-1][2]

    monkeypatch.setattr(polytope, "_dd_pointed", recorded)
    adjacency_decomposition(classical_vpolytope(s), symmetry_group(s).generators)
    return calls


@pytest.mark.parametrize(
    "args", [(3,), (4,), (2, 3, 3), (2, 4, 4)], ids=lambda a: "x".join(map(str, a))
)
def test_ridge_double_descriptions_match_python_ints(monkeypatch, args):
    calls = _recorded_ridge_dds(monkeypatch, Scenario.instrumental(*args))
    assert calls
    for rows, max_rays, rays in calls:
        assert rays == python_dd_pointed(rows, max_rays)
        for screen in SCREENS:
            monkeypatch.setattr(polytope, "_SCREEN", screen)
            assert _dd_pointed(rows, max_rays) == rays, screen


@pytest.mark.parametrize(
    "argv",
    [
        ["--classical", "-x", "3"],
        ["--classical", "-x", "4"],
        ["--classical", "-x", "5"],
        ["--gpt", "-x", "2"],
        ["--gpt", "-x", "3"],
    ],
    ids=lambda a: "".join(a).replace("-", ""),
)
def test_one_pass_elimination_matches_sequential_on_orbit_images(monkeypatch, argv):
    # Every image of every orbit member under every generator, permuted as
    # coordinate i -> perm[i]: the one-pass map gives the row that zeroing
    # one lead at a time gives, and that row is in the orbit.
    images = []
    walk = polytope._orbit

    def checked(seed, generators, equalities):
        orbit = walk(seed, generators, equalities)
        eliminate = polytope._eliminate_leads(equalities)
        for q in orbit:
            for perm in generators:
                coeffs = [0] * len(perm)
                for i, c in enumerate(q.coeffs):
                    coeffs[perm[i]] = c
                row = (*coeffs, q.bound)
                image = eliminate(row)
                assert image == oracles.sequential_eliminate_leads(row, equalities)
                assert LinearInequality(image[:-1], image[-1]) in orbit
                images.append(image)
        return orbit

    monkeypatch.setattr(polytope, "_orbit", checked)
    assert main(["facets", *argv, "--format", "json", "--output", os.devnull]) == 0
    assert images


def test_one_pass_elimination_matches_sequential_on_hypothesis_systems():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.lists(st.tuples(*[st.integers(-4, 4)] * (d + 1)), max_size=d),
            st.tuples(*[st.integers(-9, 9)] * (d + 1)),
        )
    )

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(systems)
    def same_row(system):
        rows, row = system
        d = len(row) - 1
        try:
            eqs = _reduce_equalities([(r[:-1], r[-1]) for r in rows], d)
        except ValueError:  # an inconsistent system has no reduced form
            hypothesis.assume(False)
        # The map scales out the row's content, which the loop keeps when no
        # lead needs zeroing; on a primitive row they agree.
        eliminate = polytope._eliminate_leads(eqs)
        image = eliminate(row)
        assert image == eliminate(primitive(row))
        assert image == oracles.sequential_eliminate_leads(primitive(row), eqs)
        assert not any(image[next(j for j, c in enumerate(e) if c)] for e, _ in eqs)

    same_row()


def _spy_dtypes(monkeypatch):
    picked = []
    pick = polytope._exact_dtype

    def spy(bound):
        picked.append(pick(bound))
        return picked[-1]

    monkeypatch.setattr(polytope, "_exact_dtype", spy)
    return picked


@pytest.mark.parametrize("zero_one", [False, True], ids=["integer", "zero-one"])
def test_double_description_past_int64_runs_on_python_ints(monkeypatch, zero_one):
    # Rows scaled by 2**60 cut out the same cone, so the rays are the same;
    # every bound 2 r max|row| max|ray|^2 now passes 2**63.
    picked = _spy_dtypes(monkeypatch)
    for r in range(3, 7):
        for seed in range(3):
            rows = _random_cone(random.Random(1000 * r + seed), r, zero_one)
            scaled = [tuple(v << 60 for v in row) for row in rows]
            rays = _dd_pointed(scaled, 10**6)
            assert rays == python_dd_pointed(scaled, 10**6) == _dd_pointed(rows, 10**6)
    assert object in picked


def test_facets_of_scaled_vertices_run_on_python_ints(monkeypatch):
    # The -x 3 classical vertices scaled by 2**30: the same facets with the
    # bounds (and the normalization right-hand sides) scaled by 2**30.
    scale = 2**30
    v = classical_vpolytope(Scenario.instrumental(3))
    h = facet_enumeration(v)
    picked = _spy_dtypes(monkeypatch)
    big = facet_enumeration(
        VPolytope(v.dim, tuple(tuple(scale * x for x in p) for p in v.vertices))
    )
    assert object in picked
    eqs = _reduce_equalities([(c, scale * b) for c, b in h.equalities], v.dim)
    facets = {
        reduce_modulo(LinearInequality(q.coeffs, scale * q.bound), eqs)
        for q in h.inequalities
    }
    assert big == HPolytope(
        v.dim, tuple(sorted(facets, key=lambda q: (q.coeffs, q.bound))), eqs
    )


def test_facet_lists_are_invariant_under_relabelling():
    # Relabelling the coordinates of the vertices relabels the facets and the
    # equalities, up to the canonical form modulo the new equalities.
    rng = random.Random(19)
    cases = [
        classical_vpolytope(Scenario.instrumental(2)),
        classical_vpolytope(Scenario.bell(2, 2)),
    ]
    cases += [
        VPolytope.from_points(
            {tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(rng.randint(2, 12))}
        )
        for _ in range(6)
    ]
    for v in cases:
        h = facet_enumeration(v)
        for _ in range(3):
            perm = list(range(v.dim))
            rng.shuffle(perm)

            def moved(c):
                out = [0] * v.dim
                for i, x in enumerate(c):
                    out[perm[i]] = x
                return tuple(out)

            g = facet_enumeration(VPolytope.from_points(moved(p) for p in v.vertices))
            assert g.equalities == _reduce_equalities(
                [(moved(c), b) for c, b in h.equalities], v.dim
            )
            assert set(g.inequalities) == {
                reduce_modulo(LinearInequality(moved(q.coeffs), q.bound), g.equalities)
                for q in h.inequalities
            }


@pytest.mark.parametrize(
    "args",
    [(1,), (2,), (3,), (4,), (2, 3, 3), (2, 2, 3), (2, 3, 2)],
    ids=lambda a: "x".join(map(str, a)),
)
def test_adjacency_decomposition_matches_double_description(args):
    # One double description of the whole hull is the oracle for the
    # orbit-by-orbit search that `facets --classical` runs, and a partition
    # of its facets the oracle for the orbits the search walked.
    s = Scenario.instrumental(*args)
    v = classical_vpolytope(s)
    generators = symmetry_group(s).generators
    h, orbits = adjacency_decomposition(v, generators)
    assert h == facet_enumeration(v)
    assert sum(map(len, orbits)) == len(h.inequalities)
    assert frozenset().union(*orbits) == set(h.inequalities)
    assert set(orbits) == set(facet_orbits(h, generators))
    # facet_orbit_classify tags these orbits with seeds reduced modulo the
    # normalization equalities
    assert h.equalities == normalization_equalities(s)


@pytest.mark.parametrize(
    "s",
    [
        Scenario.bell(2, 2),
        Scenario.bell(2, 3, 3, 2),
        Scenario.instrumental(2),
        Scenario.instrumental(3, 3, 2),
        Scenario.instrumental(2, 4, 4),
        Scenario.chained(3),
        Scenario.chained(4),
        Scenario.bell(3, 2, 2, 3),
        Scenario.f_instrumental(2, 3, 2, 2, [[0, 2], [1, 1]]),
    ],
    ids=_name,
)
def test_classical_correlations_match_hashed_dedup(s):
    assert classical_correlations(s) == hashed_classical_correlations(s)


IDENTITY_CASES = [
    (["bonet"], {}),
    *((["tilted", "--alpha", a], {"alpha": a}) for a in ("1", "3/2", "3", "10")),
    *((["chained", "--n", str(n)], {"n": n}) for n in (2, 3, 4)),
]


def _identity_ids(case):
    return " ".join(case[0])


def _identity_run(capsys, flags):
    """Exit code and the maximum `identity` prints in its last line."""
    code = main(["identity", *flags, "--trials", "0"])
    return code, capsys.readouterr().out.splitlines()[-1].rsplit(": ", 1)[1]


@pytest.mark.parametrize("case", IDENTITY_CASES, ids=_identity_ids)
def test_identity_route_matches_full_box_oracle(capsys, case):
    flags, params = case
    residual = inequalities.identity_residual_expression(flags[0], **params)
    assert oracles.echelon_identity_holds(residual)
    assert inequalities.verify_identity(flags[0], **params)
    assert oracles.full_box_residual_max(flags[0], **params) == 0
    assert inequalities.identity_max_residual(flags[0], **params) == 0
    assert _identity_run(capsys, flags) == (0, "0")
    assert main(["identity", *flags, "--trials", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["max_abs_residual"] == "0"


# chained n = 4 is left out: its 81 residuals, each scanned over 512 boxes by
# the command and the oracle, took 12 s (it passed)
@pytest.mark.parametrize("case", IDENTITY_CASES[:-1], ids=_identity_ids)
def test_identity_route_matches_full_box_oracle_on_wrong_residuals(
    monkeypatch, capsys, case
):
    # +1 on one coordinate of the residual, for each coordinate in turn, then
    # on every p(11|xy) at once, which is nX*nY on the all-ones box.  The
    # proof and its echelon oracle both reject it, and the command's residual
    # scan reports the fault.
    flags, params = case
    right = inequalities.identity_residual_expression(flags[0], **params)
    bell = right.scenario
    ones = [bell.index(x, y, 1, 1) for x in range(bell.nX) for y in range(bell.nY)]
    for plus in [*([i] for i in range(bell.dim)), ones]:
        coeffs = list(right.coeffs)
        for i in plus:
            coeffs[i] += 1
        wrong = LinearExpression(bell, tuple(coeffs), right.constant)
        monkeypatch.setattr(inequalities, "identity_residual_expression",
                            lambda kind, **params: wrong)
        want = oracles.full_box_residual_max(flags[0], **params)
        assert want > 0
        assert not oracles.echelon_identity_holds(wrong)
        assert not inequalities.verify_identity(flags[0], **params)
        assert _identity_run(capsys, flags) == (3, io.fraction_to_str(want))


@pytest.mark.parametrize("case", IDENTITY_CASES[:-1], ids=_identity_ids)
def test_identity_wrong_residuals_of_either_sign_match_full_box_oracle(
    monkeypatch, capsys, case
):
    # -1 on one coordinate, then +2 on one and -3 on another: the worst box
    # is where the residual is most negative, which only the best response
    # to the negated residual finds
    flags, params = case
    right = inequalities.identity_residual_expression(flags[0], **params)
    bell = right.scenario
    for change in ({0: -1}, {1: 2, bell.dim - 1: -3}):
        coeffs = list(right.coeffs)
        for i, k in change.items():
            coeffs[i] += k
        wrong = LinearExpression(bell, tuple(coeffs), right.constant)
        monkeypatch.setattr(inequalities, "identity_residual_expression",
                            lambda kind, **params: wrong)
        want = oracles.full_box_residual_max(flags[0], **params)
        assert want == max(-min(change.values()), max(change.values()))
        assert inequalities.identity_max_residual(flags[0], **params) == want
        assert _identity_run(capsys, flags) == (3, io.fraction_to_str(want))


@pytest.mark.parametrize("case", IDENTITY_CASES, ids=_identity_ids)
def test_identity_proof_matches_echelon_oracle_off_the_hull(monkeypatch, capsys, case):
    # The residual plus k (row . p - rhs) for each no-signalling equality is
    # still zero on the no-signalling set, though not as a vector; one more
    # unit in its constant is not.  The proof and its oracle agree on both.
    flags, params = case
    right = inequalities.identity_residual_expression(flags[0], **params)
    bell = right.scenario
    for k, (row, rhs) in enumerate(no_signalling_polytope(bell).equalities, 1):
        for shift, holds in ((0, True), (1, False)):
            residual = LinearExpression(
                bell,
                tuple(c + k * a for c, a in zip(right.coeffs, row)),
                right.constant - k * rhs + shift,
            )
            monkeypatch.setattr(inequalities, "identity_residual_expression",
                                lambda kind, **params: residual)
            assert oracles.echelon_identity_holds(residual) is holds
            assert inequalities.verify_identity(flags[0], **params) is holds
    assert _identity_run(capsys, flags) == (3, "1")


def _random_expressions(s, count):
    # small numerators and many zeros, so that maxima are often tied
    rng = random.Random(s.dim)
    for _ in range(count):
        coeffs = tuple(
            Fraction(rng.choice([0, 0, rng.randint(-3, 3)]), rng.randint(1, 4))
            for _ in range(s.dim)
        )
        constant = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        yield LinearExpression(s, coeffs, constant)


BEST_RESPONSE_CASES = {
    "bonet": [catalog("bonet")],
    "tilted-3/2": [catalog("tilted", alpha=Fraction(3, 2))],
    "tilted-3": [catalog("tilted", alpha=3)],
    "chsh": [catalog("chsh")],
    "tilted_chsh-2": [catalog("tilted_chsh", alpha=2)],
    **{f"chained-{n}": [catalog("chained", n=n)] for n in range(3, 7)},
    **{f"chained_bell-{n}": [catalog("chained_bell", n=n)] for n in range(3, 7)},
    **{
        f"random-{_name(s)}": list(_random_expressions(s, 40))
        for s in [
            Scenario.bell(2, 2),
            Scenario.bell(3, 2, 3, 2),
            Scenario.instrumental(3),
            Scenario.instrumental(2, 3, 2),
            Scenario.chained(3),
            # no (a, x) sends Bob the wire value 2
            Scenario.f_instrumental(2, 3, 2, 2, [[0, 1], [1, 0]]),
        ]
    },
}


@pytest.mark.parametrize("case", BEST_RESPONSE_CASES)
def test_classical_maximum_matches_vertex_scan(case):
    # The scan over every deterministic table is the oracle for the best
    # response that `classical_maximum` computes.
    s = BEST_RESPONSE_CASES[case][0].scenario
    v = classical_vpolytope(s)
    for e in BEST_RESPONSE_CASES[case]:
        value, witness = classical_maximum(e)
        assert value == maximize_linear(e.coeffs, v, constant=e.constant)[0]
        assert e.evaluate(strategy_to_correlation(witness)) == value
        if s.kind is not Kind.BELL:
            reached = {s.wire(a, x) for x, a in enumerate(witness.alpha)}
            assert all(b == 0 for y, b in enumerate(witness.beta) if y not in reached)



# Random LPs for the pair tableau against the Fraction tableau: each family
# forces one feature of the standard form or one outcome.
LP_FAMILIES = (
    "free", "nonneg", "equalities", "negative-rhs",
    "degenerate", "redundant", "infeasible", "unbounded",
)
_LP_COEFFS = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _random_lp(rng, family):
    """(objective, ineqs, eqs, nonneg) of one LP of the family, maximized.

    Every family but "infeasible" is feasible at a random point x, and every
    family but "unbounded" bounds each variable from both sides.  Half the
    others maximize the negated objective, a minimum restated."""
    d = rng.randint(1, 5)
    nonneg = family in ("nonneg", "unbounded") or (
        family != "free" and rng.random() < 0.5
    )

    def row():
        return [rng.choice(_LP_COEFFS) for _ in range(d)]

    def at(coeffs):
        return sum(c * v for c, v in zip(coeffs, x))

    x = [Fraction(rng.randint(0 if nonneg else -2, 2), rng.randint(1, 3)) for _ in range(d)]
    slack = (0, 1, Fraction(1, 2))
    if family == "degenerate":  # every random row tight at the origin
        x, slack = [0] * d, (0,)
    rows = [row() for _ in range(rng.randint(1, 5))]
    if family == "unbounded":  # x_0 only loosens every row
        for r in rows:
            r[0] = -abs(r[0])
    ineqs = [(r, at(r) + rng.choice(slack)) for r in rows]
    if family != "unbounded":
        for i in range(d):
            unit = [int(i == j) for j in range(d)]
            ineqs += [(unit, 3), ([-u for u in unit], 3)]
    if family == "negative-rhs":
        x[0] = Fraction(rng.randint(1, 2))
        ineqs = [(r, at(r) + 1) for r, _ in ineqs]
        ineqs.append(([-1] + [0] * (d - 1), -1))
    eqs = []
    if family in ("equalities", "redundant"):
        eqs = [(r, at(r)) for r in (row() for _ in range(rng.randint(1, 3)))]
    if family == "redundant":
        k = rng.choice((2, -1, Fraction(1, 3)))
        eqs.append(([k * c for c in eqs[0][0]], k * eqs[0][1]))
        (r, b), (s, c) = eqs[0], eqs[-2]
        eqs.append(([u + v for u, v in zip(r, s)], b + c))
    if family == "infeasible":
        r = row()
        r[rng.randrange(d)] = 1
        b = rng.randint(-2, 2)
        ineqs += [(r, b), ([-c for c in r], -b - 1)]
        rng.shuffle(ineqs)
    if family == "unbounded":
        return [1] + row()[1:], ineqs, eqs, True
    objective = row()
    if rng.random() >= 0.5:
        objective = [-c for c in objective]
    return objective, ineqs, eqs, nonneg


def _traced(monkeypatch, module, solve, objective, kwargs):
    """`solve(objective, **kwargs)` and the basis labels after every pivot of
    `module._pivot`."""
    bases = []
    pivot = module._pivot

    def traced(tab, basis, *args):
        pivot(tab, basis, *args)
        bases.append(tuple(basis))

    with monkeypatch.context() as m:
        m.setattr(module, "_pivot", traced)
        return solve(objective, **kwargs), bases


def _integer_lp(objective, ineqs, eqs):
    """(c, r, objective, ineqs, eqs): the objective times c > 0 and every row
    times one r > 0, the lcms of their denominators, as `int`s."""
    c, (obj,) = over_common_denominator([objective])
    r, ints = over_common_denominator([(*coeffs, b) for coeffs, b in [*eqs, *ineqs]])
    rows = [(list(row[:-1]), row[-1]) for row in ints]
    return c, r, list(obj), rows[len(eqs):], rows[: len(eqs)]


def _assert_matches_oracle(monkeypatch, lp, got, bases, c, r, rational):
    """The oracle's full `Fraction` tableau solves the integer LP `lp` =
    (objective, kwargs) to `got` through the same bases.  On `rational`, the
    LP that `lp` scales by c > 0 (objective) and r > 0 (every row), it takes
    the same bases to the same status and x, the value over c, the duals
    times r / c and the same Farkas vector."""
    assert _traced(monkeypatch, oracles, fraction_solve_lp, *lp) == (got, bases)
    want, want_bases = _traced(monkeypatch, oracles, fraction_solve_lp, *rational)
    assert want_bases == bases
    assert (got.status, got.x, got.farkas) == (want.status, want.x, want.farkas)
    assert got.value == (None if want.value is None else c * want.value)
    assert got.dual == (None if want.dual is None else tuple(v * c / r for v in want.dual))


@pytest.mark.parametrize("family", LP_FAMILIES)
def test_pair_tableau_matches_fraction_oracle(monkeypatch, family):
    # The random rational LP goes to `solve_lp` with its objective and its
    # rows scaled to integers, one factor each.
    rng = random.Random(LP_FAMILIES.index(family))
    statuses = set()
    for _ in range(25):
        objective, ineqs, eqs, nonneg = _random_lp(rng, family)
        c, r, obj, int_ineqs, int_eqs = _integer_lp(objective, ineqs, eqs)
        lp = obj, dict(ineqs=int_ineqs, eqs=int_eqs, nonneg=nonneg)
        got, bases = _traced(monkeypatch, linprog, linprog.solve_lp, *lp)
        rational = objective, dict(ineqs=ineqs, eqs=eqs, nonneg=nonneg)
        _assert_matches_oracle(monkeypatch, lp, got, bases, c, r, rational)
        statuses.add(got.status)
    expected = {
        "infeasible": LpStatus.INFEASIBLE, "unbounded": LpStatus.UNBOUNDED
    }.get(family, LpStatus.OPTIMAL)
    assert statuses == {expected}


def _caller_lps(monkeypatch, run):
    """Each LP that `run()` hands `solve_lp` through `polytope` or
    `inequalities`, as ((objective, kwargs), result, basis labels after each
    pivot)."""
    lps = []
    solve = linprog.solve_lp

    def recorded(objective, **kwargs):
        res, bases = _traced(monkeypatch, linprog, solve, objective, kwargs)
        # a snapshot: `_prune_redundant` deletes rows from its list later
        rows = {k: list(kwargs.get(k, ())) for k in ("ineqs", "eqs")}
        lps.append(((objective, dict(kwargs, **rows)), res, bases))
        return res

    with monkeypatch.context() as m:
        for module in (polytope, inequalities):
            m.setattr(module, "solve_lp", recorded)
        run()
    return lps


def _signalling_table():
    """Alice always answers 0, so Bob always gets y = 0, yet Bob's answer
    follows x: no no-signalling box post-selects to it."""
    s = Scenario.instrumental(2)
    entries = [Fraction(0)] * s.dim
    entries[s.index(0, 0, 0)] = entries[s.index(1, 0, 1)] = Fraction(1)
    return Correlation(s, tuple(entries))


def _pr3():
    """The PR box with a dummy third input, wired: outside the classical set."""
    return postselect(dummy_input_extension(oracles.pr_box()), Scenario.instrumental(3))


def _project(n):
    s = Scenario.instrumental(n)
    return fourier_motzkin_project(no_signalling_polytope(s.parent_bell()), s.wired_indices())


CALLER_RUNS = {
    # membership (optimal)
    "classical-inside-x2": (
        lambda: extension_membership(postselect(oracles.pr_box(), Scenario.instrumental(2)), "classical"),
        {LpStatus.OPTIMAL},
    ),
    # membership (infeasible), then _separating_facet
    "classical-outside-x3": (
        lambda: extension_membership(_pr3(), "classical"), {LpStatus.INFEASIBLE, LpStatus.OPTIMAL}
    ),
    "nosignalling-inside-x3": (
        lambda: extension_membership(_pr3(), "nosignalling"), {LpStatus.OPTIMAL}
    ),
    # extension_membership (infeasible), then gpt_maximum of its functional
    "nosignalling-outside-x2": (
        lambda: extension_membership(_signalling_table(), "nosignalling"),
        {LpStatus.INFEASIBLE, LpStatus.OPTIMAL},
    ),
    "gpt-maximum-x3": (lambda: gpt_maximum(catalog("bonet")), {LpStatus.OPTIMAL}),
    # _prune_redundant
    "pruning-x2": (lambda: _project(2), {LpStatus.OPTIMAL}),
    "pruning-x3": (lambda: _project(3), {LpStatus.OPTIMAL}),
}


@pytest.mark.parametrize("case", CALLER_RUNS)
def test_caller_lps_match_fraction_oracle(monkeypatch, case):
    # Every caller hands `solve_lp` integer rows; the oracle's full tableau
    # solves them alike, and so it does the rational LP they scale (here by
    # 1/5 on the objective and 1/7 on every row).
    run, statuses = CALLER_RUNS[case]
    lps = _caller_lps(monkeypatch, run)
    assert {res.status for _, res, _ in lps} == statuses
    for (objective, kwargs), got, bases in lps:
        rows = [*kwargs["eqs"], *kwargs["ineqs"]]
        assert all(type(v) is int for v in (*objective, *(x for c, b in rows for x in (*c, b))))
        rational = [Fraction(a, 5) for a in objective], dict(kwargs, **{
            k: [([Fraction(a, 7) for a in c], Fraction(b, 7)) for c, b in kwargs[k]]
            for k in ("ineqs", "eqs")
        })
        _assert_matches_oracle(monkeypatch, (objective, kwargs), got, bases, 5, 7, rational)


def test_sparse_expression_arithmetic_matches_dense_on_hypothesis_expressions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scenarios = [
        Scenario.bell(2, 2), Scenario.bell(3, 2), Scenario.bell(2, 3, 3, 2),
        Scenario.instrumental(2), Scenario.instrumental(3), Scenario.instrumental(2, 3, 2),
        Scenario.chained(3),
    ]
    # mostly zero entries, as the catalog's are
    pool = [Fraction(a, d) for a in range(-5, 6) for d in (1, 2, 3, 4, 12)]
    entry = st.sampled_from([Fraction(0)] * len(pool) * 2 + pool)

    def expression(s):
        return st.builds(
            lambda coeffs, constant: LinearExpression(s, tuple(coeffs), constant),
            st.lists(entry, min_size=s.dim, max_size=s.dim), entry,
        )

    # terms may repeat a coordinate, which the sums must add up
    cases = st.sampled_from(scenarios).flatmap(
        lambda s: st.tuples(
            expression(s), expression(s), entry,
            st.lists(st.tuples(entry, st.integers(0, s.dim - 1)), max_size=8),
        )
    )

    def same(got, want):
        assert got == want
        assert all(type(c) is Fraction for c in got.coeffs)
        assert type(got.constant) is Fraction

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases)
    def matches(case):
        e, f, q, terms = case
        s = e.scenario
        coords = list(s.coords())
        dense = LinearExpression(s, (Fraction(0),) * s.dim)
        for _, i in terms:
            unit = [Fraction(0)] * s.dim
            unit[i] = Fraction(1)
            dense = oracles.dense_combination(dense, LinearExpression(s, tuple(unit)), 1)
        same(inequalities._sum_terms(s, [coords[i] for _, i in terms]), dense)
        if s.kind is Kind.BELL and (s.nA, s.nB) == (2, 2):
            dense = LinearExpression(s, (Fraction(0),) * s.dim)
            for w, i in terms:
                x, y = coords[i][:2]
                dense = oracles.dense_combination(
                    dense, oracles.dense_scale(oracles.dense_correlator(s, x, y), w), 1
                )
            got = inequalities._correlator_sum(s, [(w, *coords[i][:2]) for w, i in terms])
            same(got, dense)
        same(e + f, oracles.dense_combination(e, f, 1))
        same(e - f, oracles.dense_combination(e, f, -1))
        same(e * q, oracles.dense_scale(e, q))
        same(q * e, oracles.dense_scale(e, q))
        same(e * -1, oracles.dense_scale(e, -1))
        if e.scenario.kind is Kind.BELL:
            nonzero = [c for c in e.scenario.coords() if e.coeffs[e.scenario.index(*c)]]
            forms, width = inequalities._collins_gisin(e.scenario, nonzero)
            den, coeffs, constant = inequalities._in_collins_gisin(e, forms, width)
            want_forms, want_coeffs, want_constant = oracles.dense_in_collins_gisin(e)
            assert forms == [f for f, c in zip(want_forms, e.coeffs) if c]
            assert coeffs == [den * c for c in want_coeffs]
            assert constant == den * want_constant
            assert all(type(c) is int for c in coeffs) and type(constant) is int
        else:
            same(lift_to_bell(e), oracles.dense_lift(e))

    matches()


def _catalog_families():
    alphas = ("1", "3/2", "2", "3", "10", "100")
    yield "bonet", {}
    yield "chsh", {}
    for kind in ("tilted", "tilted_chsh"):
        yield from ((kind, {"alpha": Fraction(a)}) for a in alphas)
    for kind in ("chained", "chained_bell"):
        yield from ((kind, {"n": n}) for n in range(2, 9))


@pytest.mark.parametrize(
    "kind, params", list(_catalog_families()),
    ids=[" ".join([k, *map(str, p.values())]) for k, p in _catalog_families()],
)
def test_bound_table_routes_match_dense_oracles(kind, params):
    e = catalog(kind, **params)
    bell = e if e.scenario.kind is Kind.BELL else lift_to_bell(e)
    forms, width = inequalities._collins_gisin(bell.scenario, bell.scenario.coords())
    nonzero = [f for f, c in zip(forms, bell.coeffs) if c]
    den, coeffs, constant = inequalities._in_collins_gisin(bell, nonzero, width)
    want_forms, want_coeffs, want_constant = oracles.dense_in_collins_gisin(bell)
    assert (forms, coeffs, constant) == (
        want_forms, [den * c for c in want_coeffs], den * want_constant
    )
    value, box = gpt_maximum(e)
    want_value, want_box = oracles.dense_gpt_maximum(e)
    assert value == want_value
    assert box == want_box
    assert all(type(v) is Fraction for v in box.entries)
    if kind in ("bonet", "tilted", "chained"):
        residual = oracles.dense_identity_residual(kind, **params)
        assert inequalities.identity_residual_expression(kind, **params) == residual
        _, proof, shift = oracles.dense_in_collins_gisin(residual)
        assert inequalities.verify_identity(kind, **params) is (shift == 0 and not any(proof))
        assert inequalities.verify_identity(kind, **params)
    # the table's exact rows against the maxima of the expression itself, so
    # the lifting identity's closed-form shift is checked without it
    triple = inequalities.bounds(kind, **params)
    assert triple.classical == inequalities.ExactValue.of(classical_maximum(e)[0])
    assert triple.gpt == inequalities.ExactValue.of(value)


@pytest.mark.parametrize("kind, params", [
    ("bonet", {}), ("tilted", {"alpha": 3}), ("chained", {"n": 6}), ("chained", {"n": 40}),
])
def test_bounds_read_the_identity_shift_without_bell_expressions(monkeypatch, kind, params):
    # the Instrumental rows need only the closed-form shift, not the
    # identity's Bell side over Bell(n + 1, n)
    want = -oracles.dense_identity_residual(kind, **params).constant
    assert inequalities._identity_shift(kind, Fraction(params.get("alpha", 1)),
                                        params.get("n")) == want

    def unreachable(*args, **kwargs):
        raise AssertionError("bounds built a Bell-side identity expression")

    for name in ("identity_residual_expression", "_bell_correlators", "_correlator_entries",
                 "_lifted_terms", "_sum_terms", "_correlator_sum"):
        monkeypatch.setattr(inequalities, name, unreachable)
    triple = inequalities.bounds(kind, **params)
    assert triple.classical.rational - want == (
        2 * params.get("alpha", 1) if kind != "chained" else 2 * params["n"] - 2
    ) / Fraction(4)
