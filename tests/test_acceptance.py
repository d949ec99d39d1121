"""Acceptance gate: eleven end-to-end checks, one test (and one pass/fail
line under `pytest -v`) per criterion, at the stated tolerances."""

import math
import random
from fractions import Fraction

import pytest

from instrumental.inequalities import (
    catalog,
    classical_maximum,
    extension_membership,
    facet_orbit_classify,
    gpt_maximum,
    identity_check,
    lift_to_bell,
    pearl_expressions,
    symmetry_group,
    verify_identity,
)
from instrumental.polytope import (
    LinearInequality,
    classical_vpolytope,
    facet_enumeration,
    facet_orbits,
    fourier_motzkin_project,
    membership,
    no_signalling_polytope,
    reduce_modulo,
    vertex_enumeration,
)
from instrumental.quantum import born_table, chained_strategy, tilted_search
from instrumental.scenario import (
    Correlation,
    DeterministicStrategy,
    Scenario,
    append_dummy_input,
    dummy_input_extension,
    enumerate_deterministic_strategies,
    mix_correlations,
    postselect,
    random_mixture,
    strategy_to_correlation,
)

from oracles import (
    bonet_strategy,
    contains,
    gpt_box_search,
    h_polytopes_equal,
    pr_box,
    signalling_residual,
)

F = Fraction
INSTR2 = Scenario.instrumental(2)
INSTR3 = Scenario.instrumental(3)


def wired_projection(s):
    """FM projection of the no-signalling extension onto the wired coords."""
    return fourier_motzkin_project(
        no_signalling_polytope(s.parent_bell()), s.wired_indices()
    )


def canonical_positivity(s, equalities):
    out = set()
    for i in range(s.dim):
        coeffs = [F(0)] * s.dim
        coeffs[i] = F(-1)
        out.add(reduce_modulo(LinearInequality(tuple(coeffs), F(0)), equalities))
    return out


def canonical_pearl(s, equalities):
    return {
        reduce_modulo(e.as_inequality(F(1)), equalities)
        for e in pearl_expressions(s)
    }


def test_criterion_01_binary_characterization():
    hull = facet_enumeration(classical_vpolytope(INSTR2))
    projection = wired_projection(INSTR2)
    assert h_polytopes_equal(hull, projection)
    assert set(hull.inequalities) == set(projection.inequalities)
    pearl = canonical_pearl(INSTR2, hull.equalities)
    positivity = canonical_positivity(INSTR2, hull.equalities)
    assert len(pearl) == 4 and not pearl & positivity
    assert set(hull.inequalities) == pearl | positivity


def test_criterion_02_three_input_separation():
    group = symmetry_group(INSTR3)
    hull = facet_enumeration(classical_vpolytope(INSTR3))
    classical_orbits = sorted(
        (o.tag, len(o.members))
        for o in facet_orbit_classify(facet_orbits(hull, group.generators), group)
    )
    assert classical_orbits == [("bonet", 24), ("pearl", 12), ("positivity", 12)]
    projection = wired_projection(INSTR3)
    gpt_orbits = sorted(
        (o.tag, len(o.members))
        for o in facet_orbit_classify(facet_orbits(projection, group.generators), group)
    )
    assert gpt_orbits == [("pearl", 12), ("positivity", 12)]


@pytest.mark.parametrize("nout", [3, 4])
def test_criterion_03_larger_outcome_classification(nout):
    s = Scenario.instrumental(2, nout, nout)
    hull = facet_enumeration(classical_vpolytope(s))
    # several orbits may share a tag (choice functions with different numbers
    # of ones split at nB = 4), so tally facets per tag
    tally: dict[str, int] = {}
    group = symmetry_group(s)
    for o in facet_orbit_classify(facet_orbits(hull, group.generators), group):
        tally[o.tag] = tally.get(o.tag, 0) + len(o.members)
    expected_pearl = (2**nout - 2) * nout
    expected_positivity = 2 * nout * nout
    assert tally == {"positivity": expected_positivity, "pearl": expected_pearl}
    assert set(hull.inequalities) == canonical_pearl(
        s, hull.equalities
    ) | canonical_positivity(s, hull.equalities)


def test_criterion_04_bonet_quantum_value():
    value = catalog("bonet").evaluate(born_table(bonet_strategy(), INSTR3))
    assert abs(value - (3 + math.sqrt(2)) / 2) < 1e-9


def test_criterion_05_gpt_maximum():
    value, box = gpt_box_search(catalog("bonet"))
    assert value == F(5, 2)
    assert all(e.evaluate(box) <= 1 for e in pearl_expressions(INSTR3))


def test_criterion_06_lifting_identities():
    rng = random.Random(2024)
    bell32 = Scenario.bell(3, 2)
    pool32 = [
        Correlation(bell32, v)
        for v in vertex_enumeration(no_signalling_polytope(bell32)).vertices
    ]
    shared = [
        ("bonet", dict(alpha=None, n=None)),
        ("tilted", dict(alpha=F(1), n=None)),
        ("tilted", dict(alpha=F(2), n=None)),
        ("tilted", dict(alpha=F(5), n=None)),
        ("chained", dict(alpha=None, n=2)),
    ]
    for kind, params in shared:
        assert verify_identity(kind, **params)
    # Each residual is affine in the table: zero on every point of a pool is
    # zero on its hull.  A few seeded mixtures add tables that are not extreme.
    mixtures = [random_mixture(bell32, rng, pool=pool32) for _ in range(10)]
    for q in pool32 + mixtures:
        for kind, params in shared:
            assert identity_check(kind, q, **params) == 0
    for n in (3, 4):
        assert verify_identity("chained", n=n)
        bell = Scenario.bell(n + 1, n)
        pool = [
            strategy_to_correlation(d)
            for d in enumerate_deterministic_strategies(bell)
        ]
        mixtures = [random_mixture(bell, rng, pool=pool) for _ in range(10)]
        for q in pool + mixtures:
            assert identity_check("chained", q, n=n) == 0


def test_criterion_07_chsh_chain():
    bell = born_table(tilted_search(1).strategy, Scenario.bell(2, 2))
    quantum = catalog("bonet").evaluate(
        postselect(dummy_input_extension(bell), INSTR3)
    )
    assert abs(quantum - (3 + math.sqrt(2)) / 2) < 1e-9
    boxed = catalog("bonet").evaluate(
        postselect(dummy_input_extension(pr_box()), INSTR3)
    )
    assert boxed == F(5, 2)


def test_criterion_08_pr_postselection_classical_model():
    table = postselect(pr_box(), INSTR2)
    assert membership(table, classical_vpolytope(INSTR2)).inside
    assert extension_membership(table, "classical").inside
    # a = lambda + x mod 2, b = lambda * a, lambda fair
    model = mix_correlations(
        [
            (
                F(1, 2),
                strategy_to_correlation(
                    DeterministicStrategy(
                        INSTR2,
                        tuple((lam + x) % 2 for x in range(2)),
                        tuple(lam * a for a in range(2)),
                    )
                ),
            )
            for lam in (0, 1)
        ]
    )
    assert model.entries == table.entries


def test_criterion_09_tilted_bounds():
    for alpha in (F(1), F(3, 2), F(2), F(3), F(5), F(10)):
        a = float(alpha)
        result = tilted_search(alpha)
        assert abs(result.bell_value - 2 * math.sqrt(a * a + 1)) < 1e-6
        e = catalog("tilted", alpha=alpha)
        assert classical_maximum(e)[0] == 1 + alpha
        assert gpt_maximum(e)[0] == F(3, 2) + alpha
        induced = (2 + a + math.sqrt(a * a + 1)) / 2
        assert abs(result.instrumental_value - induced) < 1e-6


def test_criterion_10_chained_bounds():
    for n in range(2, 7):
        e = catalog("chained", n=n)
        assert classical_maximum(e)[0] == n
        assert gpt_maximum(e)[0] == F(2 * n + 1, 2)
        table = born_table(chained_strategy(n), Scenario.bell(n, n))
        wired = postselect(append_dummy_input(table, fixed_a=1), Scenario.chained(n))
        value = e.evaluate(wired)
        target = n * (0.5 + 0.5 * math.cos(math.pi / (2 * n))) + 0.5
        assert abs(value - target) < 1e-9


def test_criterion_11_property_suite():
    rng = random.Random(77)

    # all named strategies produce no-signalling Born tables
    born = [
        born_table(tilted_search(1).strategy, Scenario.bell(2, 2)),
        born_table(tilted_search(F(2)).strategy, Scenario.bell(2, 2)),
    ]
    born.append(
        born_table(bonet_strategy(), Scenario.bell(3, 2))
    )
    for n in (2, 3, 4):
        born.append(born_table(chained_strategy(n), Scenario.bell(n, n)))
    for t in born:
        assert signalling_residual(t) < 1e-12

    # postselect is affine, and evaluation commutes with lifting, exactly
    bell32 = Scenario.bell(3, 2)
    exprs = [catalog("bonet"), catalog("tilted", alpha=F(7, 3))]
    for _ in range(40):
        p = random_mixture(bell32, rng)
        q = random_mixture(bell32, rng)
        lam = F(rng.randint(0, 1000), 1000)
        mixed = mix_correlations([(lam, p), (1 - lam, q)])
        direct = postselect(mixed, INSTR3)
        split = mix_correlations(
            [(lam, postselect(p, INSTR3)), (1 - lam, postselect(q, INSTR3))]
        )
        assert direct.entries == split.entries
        for e in exprs:
            assert lift_to_bell(e).evaluate(mixed) == e.evaluate(direct)
    bell43 = Scenario.bell(4, 3)
    ch3 = catalog("chained", n=3)
    for _ in range(10):
        q = random_mixture(bell43, rng)
        assert lift_to_bell(ch3).evaluate(q) == ch3.evaluate(
            postselect(q, ch3.scenario)
        )

    # membership and the facet description agree point by point
    cases = []
    for s in (INSTR2, INSTR3):
        v = classical_vpolytope(s)
        cases.append((v, facet_enumeration(v)))
    h_ns = no_signalling_polytope(Scenario.bell(2, 2))
    cases.append((vertex_enumeration(h_ns), h_ns))
    for v, h in cases:
        for i in range(100):
            base = list(random_mixture_point(v.vertices, rng))
            if i % 2:
                j = rng.randrange(len(base))
                base[j] += F(rng.randint(-2, 2), rng.randint(7, 23))
            point = tuple(base)
            assert membership(point, v).inside == contains(h, point)


def random_mixture_point(vertices, rng, parts=3):
    d = rng.randint(1, 1000)
    cuts = sorted(rng.randint(0, d) for _ in range(parts - 1))
    weights = [F(hi - lo, d) for lo, hi in zip([0, *cuts], [*cuts, d])]
    picks = [rng.choice(vertices) for _ in range(parts)]
    dim = len(picks[0])
    return tuple(
        sum(w * p[i] for w, p in zip(weights, picks)) for i in range(dim)
    )
