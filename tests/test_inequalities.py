import random
from fractions import Fraction

import pytest

from instrumental import inequalities, linprog
from instrumental.inequalities import (
    BoundsTriple,
    ExactValue,
    LinearExpression,
    bounds,
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
    _echelon,
    classical_vpolytope,
    facet_enumeration,
    facet_orbits,
    no_signalling_polytope,
    normalization_equalities,
    reduce_modulo,
)
from instrumental.scenario import (
    Correlation,
    DeterministicStrategy,
    Scenario,
    classical_correlations,
    enumerate_deterministic_strategies,
    mix_correlations,
    postselect,
    random_mixture,
    strategy_to_correlation,
)
from oracles import (
    correlator_sum,
    dense_correlator,
    no_signalling_equalities,
    pr_box,
    relabel_correlation,
    relabel_expression,
    uniform_box,
)

F = Fraction

INSTR2 = Scenario.instrumental(2)
INSTR3 = Scenario.instrumental(3)
BELL32 = Scenario.bell(3, 2)

IDENT = (0, 1)
FLIP = (1, 0)


def random_no_signalling(bell, rng, k=4):
    """Rational mixture of deterministic Bell boxes (they span the
    no-signalling affine hull)."""
    dets = enumerate_deterministic_strategies(bell)
    picks = [strategy_to_correlation(rng.choice(dets)) for _ in range(k)]
    weights = [F(rng.randint(1, 9)) for _ in range(k)]
    total = sum(weights)
    return mix_correlations([(w / total, p) for w, p in zip(weights, picks)])


def test_catalog_bonet_terms():
    e = catalog("bonet")
    assert e.scenario == INSTR3
    assert e.constant == 0
    nonzero = {
        coords: c for coords, c in zip(INSTR3.coords(), e.coeffs) if c != 0
    }
    assert nonzero == {
        (0, 0, 0): 1,
        (0, 1, 1): 1,
        (1, 0, 0): 1,
        (1, 1, 0): 1,
        (2, 0, 1): 1,
    }
    assert catalog("tilted", alpha=1) == e


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        catalog("tilted", alpha=F(1, 2))
    with pytest.raises(ValueError):
        catalog("tilted")
    with pytest.raises(ValueError):
        catalog("chained", n=1)
    with pytest.raises(ValueError):
        catalog("bonet", alpha=2)
    with pytest.raises(ValueError):
        catalog("nonsense")
    with pytest.raises(ValueError, match="chained takes no weight alpha"):
        catalog("chained", n=3, alpha=5)
    with pytest.raises(ValueError, match="tilted takes no chain length n"):
        catalog("tilted", alpha=2, n=7)


def test_chsh_reaches_4_on_pr():
    assert catalog("chsh").evaluate(pr_box()) == 4


def test_correlator_convention():
    s = Scenario.bell(2, 2)
    d = strategy_to_correlation(
        enumerate_deterministic_strategies(s)[0]
    )  # all-zero outputs
    assert dense_correlator(s, 0, 0).evaluate(d) == 1
    assert dense_correlator(s, 1, 1).evaluate(d) == 1


def test_exact_value_normalization():
    assert ExactValue.root(8) == ExactValue.root(2, 2)
    assert ExactValue.root(F(9, 4)) == ExactValue.of(F(3, 2))
    assert ExactValue.cosine(4) == ExactValue.root(2, F(1, 2))
    assert ExactValue.cosine(6) == ExactValue.root(3, F(1, 2))
    assert ExactValue.cosine(3) == ExactValue.of(F(1, 2))
    assert float(ExactValue.root(2, 2)) == pytest.approx(2.8284271247461903)
    v = ExactValue.cosine(8, 2)
    assert float(v) == pytest.approx(1.8477590650225735)
    assert str(ExactValue.root(2, F(1, 2), F(3, 2))) == "3/2 + (1/2)*sqrt(2)"


def test_exact_cosine_with_zero_coefficient_is_rational():
    # cos(pi/5) has no fold, but a zero coefficient leaves only the rational
    assert ExactValue.cosine(5, 0, F(1, 3)) == ExactValue.of(F(1, 3))


def test_bell_expression_prints_its_terms():
    assert str(catalog("chsh")) == " ".join([
        "p(00|00) - p(01|00) - p(10|00) + p(11|00)",
        "+ p(00|01) - p(01|01) - p(10|01) + p(11|01)",
        "+ p(00|10) - p(01|10) - p(10|10) + p(11|10)",
        "- p(00|11) + p(01|11) + p(10|11) - p(11|11)",
    ])


def test_bounds_tables():
    b = bounds("bonet")
    assert b.classical == ExactValue.of(2)
    assert b.quantum == ExactValue.root(2, F(1, 2), F(3, 2))
    assert b.gpt == ExactValue.of(F(5, 2))
    assert bounds("tilted", alpha=1) == b
    t = bounds("tilted", alpha=2)
    assert t.classical == ExactValue.of(3)
    assert t.quantum == ExactValue.root(5, F(1, 2), 2)
    assert t.gpt == ExactValue.of(F(7, 2))
    c = bounds("chained", n=3)
    assert c.classical == ExactValue.of(3)
    assert c.quantum == ExactValue.root(3, F(3, 4), 2)
    assert c.gpt == ExactValue.of(F(7, 2))
    # the chained chain at n=2 carries the same quantum value as bonet
    assert bounds("chained", n=2).quantum == b.quantum
    assert bounds("chsh") == BoundsTriple(
        ExactValue.of(2), ExactValue.root(2, 2), ExactValue.of(4)
    )
    assert bounds("tilted_chsh", alpha=2).quantum == ExactValue.root(5, 2)
    cb = bounds("chained_bell", n=4)
    assert cb.classical == ExactValue.of(6)
    assert cb.quantum == ExactValue.cosine(8, 8)
    assert cb.gpt == ExactValue.of(8)
    # the Instrumental rows, derived from the Bell rows, equal the closed forms
    for alpha in (F(3, 2), F(3), F(10)):
        assert bounds("tilted", alpha=alpha) == BoundsTriple(
            ExactValue.of(1 + alpha),
            ExactValue.root(alpha * alpha + 1, F(1, 2), (2 + alpha) / 2),
            ExactValue.of(F(3, 2) + alpha),
        )
    for n in (2, 5, 8):
        assert bounds("chained", n=n) == BoundsTriple(
            ExactValue.of(n),
            ExactValue.cosine(2 * n, F(n, 2), F(n + 1, 2)),
            ExactValue.of(F(2 * n + 1, 2)),
        )


def test_bounds_ordering_enforced():
    with pytest.raises(ValueError):
        BoundsTriple(ExactValue.of(3), ExactValue.of(2), ExactValue.of(4))


def test_pearl_counts():
    assert len(pearl_expressions(INSTR2)) == 4
    assert len(pearl_expressions(INSTR3)) == 12
    assert len(pearl_expressions(Scenario.instrumental(2, 4, 4))) == 56
    with pytest.raises(ValueError):
        pearl_expressions(Scenario.chained(2))


def test_pearl_holds_on_deterministic_tables():
    exprs = pearl_expressions(INSTR3)
    for p in classical_correlations(INSTR3):
        assert all(e.evaluate(p) <= 1 for e in exprs)


def test_lift_commutes_with_postselection():
    rng = random.Random(11)
    e_list = [catalog("bonet"), catalog("tilted", alpha=F(5, 2))]
    coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(INSTR3.dim))
    e_list.append(LinearExpression(INSTR3, coeffs, F(1, 3)))
    for _ in range(20):
        q = random_no_signalling(BELL32, rng)
        p = postselect(q, INSTR3)
        for e in e_list:
            assert lift_to_bell(e).evaluate(q) == e.evaluate(p)
    # wired scenarios lift through their wiring table
    ch = catalog("chained", n=3)
    bell43 = Scenario.bell(4, 3)
    for _ in range(5):
        q = random_no_signalling(bell43, rng)
        assert lift_to_bell(ch).evaluate(q) == ch.evaluate(
            postselect(q, ch.scenario)
        )


@pytest.mark.parametrize(
    "shape",
    [(nX, nY, nA, nB) for nX in (1, 2, 3) for nY in (1, 2, 3) for nA in (2, 3) for nB in (2, 3)],
    ids=lambda shape: "bell-%d%d%d%d" % shape,
)
def test_collins_gisin_forms_parametrize_the_no_signalling_hull(shape):
    # Why `verify_identity` may decide an identity in Collins-Gisin
    # coordinates: the forms are an affine map that satisfies every
    # no-signalling equality (image inside the affine hull), is one-to-one
    # (full-rank linear part) and has as many coordinates as the hull has
    # dimensions, so it is onto the hull too.
    bell = Scenario.bell(*shape)
    forms, width = inequalities._collins_gisin(bell, bell.coords())
    equalities = no_signalling_polytope(bell).equalities
    for row, rhs in equalities:
        linear = [0] * width
        constant = 0
        for a, (form, const) in zip(row, forms):
            constant += a * const
            for j, m in form.items():
                linear[j] += a * m
        assert not any(linear) and constant == rhs
    columns = [[form.get(j, 0) for form, _ in forms] for j in range(width)]
    assert len(_echelon(columns)[1]) == width
    assert width == bell.dim - len(equalities)


def test_identity_proof_expands_only_the_nonzero_entries(monkeypatch):
    # The chained residual at n = 10 has a nonzero coefficient on few of its
    # 440 Bell entries; only those get a Collins-Gisin form.
    residual = inequalities.identity_residual_expression("chained", n=10)
    nonzero = sum(1 for c in residual.coeffs if c)
    built = []
    forms_of = inequalities._collins_gisin

    def counted(bell, coords):
        forms, width = forms_of(bell, coords)
        built.append(len(forms))
        return forms, width

    monkeypatch.setattr(inequalities, "_collins_gisin", counted)
    assert verify_identity("chained", n=10)
    assert built == [nonzero]
    assert nonzero < residual.scenario.dim == 440


def test_identities_hold_symbolically():
    assert verify_identity("bonet")
    for a in (1, F(3, 2), 2, 5):
        assert verify_identity("tilted", alpha=a)
    for n in (2, 3, 4):
        assert verify_identity("chained", n=n)


def test_identity_check_sampled():
    rng = random.Random(23)
    for _ in range(50):
        q = random_no_signalling(BELL32, rng)
        assert identity_check("bonet", q) == 0
        assert identity_check("tilted", q, alpha=3) == 0
    assert identity_check("chained", uniform_box(Scenario.bell(4, 3)), n=3) == 0


def test_identity_check_accepts_affine_points():
    # The identity holds on the whole no-signalling affine hull, so a point
    # with negative entries passes.
    dets = enumerate_deterministic_strategies(BELL32)
    p = mix_correlations([
        (2, strategy_to_correlation(dets[0])),
        (-1, strategy_to_correlation(dets[-1])),
    ])
    assert min(p.entries) < 0
    assert identity_check("bonet", p) == 0
    assert identity_check("tilted", p, alpha=F(5, 2)) == 0


def test_identity_check_rejects_bad_input():
    signalling = [F(0)] * BELL32.dim
    signalling[BELL32.index(0, 0, 0, 0)] = F(1)
    signalling[BELL32.index(0, 1, 1, 1)] = F(1)
    for x in range(1, 3):
        for y in range(2):
            signalling[BELL32.index(x, y, 0, 0)] = F(1)
    p = Correlation(BELL32, tuple(signalling))
    with pytest.raises(ValueError):
        identity_check("bonet", p)
    # consistent marginals, but every context sums to 2
    doubled = mix_correlations([(2, uniform_box(BELL32))])
    with pytest.raises(ValueError):
        identity_check("bonet", doubled)
    with pytest.raises(TypeError):
        identity_check("bonet", Correlation(BELL32, (1 / 24.0,) * 24))
    with pytest.raises(ValueError):
        verify_identity("chsh")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_deterministic_boxes_span_the_no_signalling_hull(n):
    # Why the identity command's scan over every deterministic box reports
    # any residual that is nonzero somewhere on the no-signalling set: these
    # points affinely span its whole affine hull.
    bell = Scenario.bell(n + 1, n)
    points = [(*p.entries, 1) for p in classical_correlations(bell)]
    _, point_pivots = _echelon(points)
    _, eq_pivots = _echelon([c for c, _ in no_signalling_equalities(bell)])
    assert len(point_pivots) - 1 == bell.dim - len(eq_pivots)
    assert len(eq_pivots) == len(no_signalling_polytope(bell).equalities)


def test_sampled_residual_is_the_mixture_of_pool_residuals(monkeypatch):
    # Why the identity command needs no sampled mixtures: the residual is
    # affine, so a mixture's residual is the same mixture of the pool
    # residuals and never exceeds the largest of them.  The residual is
    # deliberately wrong, nonzero on the pool, so the comparison is not
    # between zeros.  Any affine functional mixes the same way.
    rng = random.Random(5)
    wrong = LinearExpression(
        BELL32, tuple(F(rng.randint(-9, 9), 7) for _ in range(BELL32.dim)), F(1, 3)
    )
    monkeypatch.setattr(inequalities, "identity_residual_expression",
                        lambda kind, **params: wrong)
    pool = classical_correlations(BELL32)
    residuals = [identity_check("bonet", p) for p in pool]
    worst = max(abs(r) for r in residuals)
    assert worst > 0
    for seed in range(25):
        draw = random.Random(seed)
        picks = [draw.randrange(len(pool)) for _ in range(4)]
        raw = [draw.randint(1, 9) for _ in picks]
        weights = [F(w, sum(raw)) for w in raw]
        q = mix_correlations(zip(weights, (pool[i] for i in picks)))
        r = identity_check("bonet", q)
        assert r == sum(w * residuals[i] for w, i in zip(weights, picks))
        assert abs(r) <= worst
        q = random_mixture(BELL32, random.Random(seed), pool=pool)
        assert abs(identity_check("bonet", q)) <= worst


@pytest.mark.parametrize(
    "kind, params",
    [("chained_bell", dict(n=n)) for n in range(2, 11)]
    + [("tilted_chsh", dict(alpha=a)) for a in (F(1), F(3, 2), F(7))],
)
def test_correlator_catalog_matches_dense_sum(kind, params):
    e = catalog(kind, **params)
    assert e == correlator_sum(kind, **params)
    assert all(type(c) is Fraction for c in e.coeffs)


def test_classical_maxima():
    assert classical_maximum(catalog("bonet"))[0] == 2
    assert classical_maximum(catalog("tilted", alpha=3))[0] == 4
    assert classical_maximum(catalog("chained", n=2))[0] == 2
    assert classical_maximum(catalog("chained", n=3))[0] == 3
    assert classical_maximum(catalog("chsh"))[0] == 2
    assert classical_maximum(catalog("tilted_chsh", alpha=2))[0] == 4
    assert classical_maximum(catalog("chained_bell", n=3))[0] == 4
    # the witness is Alice's first maximizing response in lexicographic order
    first = DeterministicStrategy(Scenario.bell(2, 2), (0, 0), (0, 0))
    assert classical_maximum(catalog("chsh"))[1] == first


def test_gpt_maxima():
    val, box = gpt_maximum(catalog("bonet"))
    assert val == F(5, 2)
    assert box.scenario == BELL32
    assert gpt_maximum(catalog("tilted", alpha=2))[0] == F(7, 2)
    assert gpt_maximum(catalog("chained", n=3))[0] == F(7, 2)
    assert gpt_maximum(catalog("chsh"))[0] == 4
    assert gpt_maximum(catalog("chained_bell", n=3))[0] == 6
    # every pearl expression is tight at 1 over the projected set
    for e in pearl_expressions(INSTR2):
        assert gpt_maximum(e)[0] == 1


def test_gpt_maximum_runs_without_phase_one(monkeypatch):
    # In Collins-Gisin coordinates the LP has no equality rows, so it starts
    # from the slack basis: 48 pivots, against 355 over every Bell entry with
    # the no-signalling equalities.
    calls, pivots = [], []
    solve, pivot = inequalities.solve_lp, linprog._pivot

    def recorded_solve(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    def counted_pivot(*args):
        pivots.append(1)
        return pivot(*args)

    monkeypatch.setattr(inequalities, "solve_lp", recorded_solve)
    monkeypatch.setattr(linprog, "_pivot", counted_pivot)
    assert gpt_maximum(catalog("chained", n=10))[0] == F(21, 2)
    assert len(calls) == 1 and not calls[0].get("eqs")
    assert 0 < len(pivots) <= 80


def test_orbit_classification_instr2():
    h = facet_enumeration(classical_vpolytope(INSTR2))
    group = symmetry_group(INSTR2)
    orbits = facet_orbit_classify(facet_orbits(h, group.generators), group)
    assert sorted((o.tag, len(o.members)) for o in orbits) == [
        ("pearl", 4),
        ("positivity", 8),
    ]


def test_orbit_classification_instr3():
    h = facet_enumeration(classical_vpolytope(INSTR3))
    group = symmetry_group(INSTR3)
    orbits = facet_orbit_classify(facet_orbits(h, group.generators), group)
    assert sorted((o.tag, len(o.members)) for o in orbits) == [
        ("bonet", 24),
        ("pearl", 12),
        ("positivity", 12),
    ]
    eqs = normalization_equalities(INSTR3)
    bonet_orbit = next(o for o in orbits if o.tag == "bonet")
    assert reduce_modulo(catalog("bonet").as_inequality(2), eqs) in bonet_orbit.members
    for o in orbits:
        assert o.representative == min(
            o.members, key=lambda q: (q.coeffs, q.bound)
        )


def test_symmetry_group_needs_plain_wiring():
    with pytest.raises(ValueError):
        symmetry_group(Scenario.chained(2))


def test_extension_membership_classical():
    q = postselect(pr_box(), INSTR2)
    cert = extension_membership(q, "classical")
    assert cert.inside
    assert sum(cert.weights) == 1 and all(w >= 0 for w in cert.weights)
    det = next(iter(classical_correlations(INSTR3)))
    assert extension_membership(det, "classical").inside


def test_extension_membership_gpt_box():
    _, bellbox = gpt_maximum(catalog("bonet"))
    box = postselect(bellbox, INSTR3)
    assert catalog("bonet").evaluate(box) == F(5, 2)
    c1 = extension_membership(box, "classical")
    assert not c1.inside and c1.margin > 0
    c2 = extension_membership(box, "nosignalling")
    assert c2.inside and c2.extension is not None
    assert all(e.evaluate(box) <= 1 for e in pearl_expressions(INSTR3))


def test_extension_membership_rejects_unextendable():
    entries = [F(0)] * 8
    entries[INSTR2.index(0, 0, 0)] = F(1)
    entries[INSTR2.index(1, 0, 1)] = F(1)
    p = Correlation(INSTR2, tuple(entries))
    cert = extension_membership(p, "nosignalling")
    assert not cert.inside
    assert cert.margin > 0
    with pytest.raises(ValueError):
        extension_membership(p, "quantum")
    with pytest.raises(ValueError):
        extension_membership(pr_box(), "classical")


def test_chained2_is_bonet_after_relabelling():
    # a-flip wherever the wire value flips (x in {0, 2}), then swap x0, x1:
    # this maps scenario, polytope and expression onto the plain three-input
    # form at once.
    ch = catalog("chained", n=2)
    e = relabel_expression(ch, INSTR3, (1, 0, 2), [FLIP, IDENT, FLIP], [IDENT, IDENT])
    assert e.coeffs == catalog("bonet").coeffs
    src = Scenario.chained(2)
    mapped = {
        relabel_correlation(
            Correlation(src, v), INSTR3, (1, 0, 2), [FLIP, IDENT, FLIP], [IDENT, IDENT]
        ).entries
        for v in classical_vpolytope(src).vertices
    }
    assert mapped == set(classical_vpolytope(INSTR3).vertices)
