import math
from fractions import Fraction

import pytest

from instrumental.errors import CapacityError
from instrumental.inequalities import catalog, pearl_expressions
from instrumental.quantum import (
    Observable2,
    QuantumStrategy,
    born_table,
    chained_strategy,
    rationalize_correlation,
    tilted_search,
)
from instrumental.scenario import (
    Correlation,
    Scenario,
    append_dummy_input,
    dummy_input_extension,
    postselect,
    validate,
)

from oracles import (
    angle,
    bonet_strategy,
    density_matrix_born_table,
    gpt_box_search,
    pr_box,
    signalling_residual,
)

F = Fraction
INSTR3 = Scenario.instrumental(3)
CHSH = tilted_search(1).strategy


def test_observable_validation():
    for direction in [(1.0, 1.0), (math.nan, 1.0), (math.inf, 0.0)]:
        with pytest.raises(ValueError):
            Observable2(*direction)
    o = Observable2.from_angle(0.3)
    assert angle(o) == pytest.approx(0.3)


def test_strategy_validation():
    with pytest.raises(ValueError):
        QuantumStrategy((), ())


@pytest.mark.parametrize(
    "strategy, scenario",
    [
        pytest.param(CHSH, Scenario.bell(2, 2), id="chsh"),
        pytest.param(CHSH, Scenario.instrumental(2), id="chsh-wired"),
        pytest.param(bonet_strategy(), Scenario.bell(3, 2), id="bonet-bell"),
        pytest.param(bonet_strategy(), INSTR3, id="bonet"),
    ]
    + [
        pytest.param(chained_strategy(n), Scenario.bell(n, n), id=f"chained-{n}")
        for n in range(2, 11)
    ]
    + [
        pytest.param(tilted_search(alpha).strategy, Scenario.bell(2, 2), id=f"tilted-{alpha}")
        for alpha in (1, F(3, 2), 2, 3, 10, 100)
    ],
)
def test_born_table_matches_density_matrices(strategy, scenario):
    table = born_table(strategy, scenario)
    oracle = density_matrix_born_table(strategy, scenario)
    assert table.scenario == oracle.scenario
    assert all(abs(e - o) <= 1e-15 for e, o in zip(table.entries, oracle.entries, strict=True))


def test_born_table_is_no_signalling():
    t = born_table(CHSH, Scenario.bell(2, 2))
    assert not t.exact
    report = validate(t, atol=1e-12)
    assert report.nonnegative and report.normalized and report.no_signalling
    assert signalling_residual(t) < 1e-12


def test_born_table_shape_checks():
    s = CHSH
    with pytest.raises(ValueError):
        born_table(s, Scenario.bell(3, 2))
    with pytest.raises(ValueError):
        born_table(s, Scenario.bell(2, 2, 3, 2))
    wired = born_table(s, Scenario.instrumental(2))
    assert validate(wired, atol=1e-12).normalized


def test_chsh_value():
    t = born_table(CHSH, Scenario.bell(2, 2))
    assert catalog("chsh").evaluate(t) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_bonet_strategy_value():
    t = born_table(bonet_strategy(), INSTR3)
    expected = (3 + math.sqrt(2)) / 2
    assert abs(catalog("bonet").evaluate(t) - expected) < 1e-9


def test_dummy_extension_routes():
    bell = born_table(CHSH, Scenario.bell(2, 2))
    wired = postselect(dummy_input_extension(bell), INSTR3)
    assert abs(catalog("bonet").evaluate(wired) - (3 + math.sqrt(2)) / 2) < 1e-9
    boxed = postselect(dummy_input_extension(pr_box()), INSTR3)
    assert catalog("bonet").evaluate(boxed) == F(5, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chained_strategy_values(n):
    t = born_table(chained_strategy(n), Scenario.bell(n, n))
    chain = catalog("chained_bell", n=n).evaluate(t)
    assert abs(chain - 2 * n * math.cos(math.pi / (2 * n))) < 1e-9
    wired = postselect(append_dummy_input(t, fixed_a=1), Scenario.chained(n))
    value = catalog("chained", n=n).evaluate(wired)
    expected = n * (0.5 + 0.5 * math.cos(math.pi / (2 * n))) + 0.5
    assert abs(value - expected) < 1e-9


@pytest.mark.parametrize("alpha", [1, F(3, 2), 2, F(7, 3), 5, 10, 100])
def test_tilted_search(alpha):
    r = tilted_search(alpha)
    a = float(alpha)
    assert abs(r.bell_value - 2 * math.sqrt(a * a + 1)) < 1e-6
    induced = (2 + a + math.sqrt(a * a + 1)) / 2
    assert abs(r.instrumental_value - induced) < 1e-6
    assert len(r.strategy.alice) == 2 and len(r.strategy.bob) == 2
    assert r.iterations == 0


def test_tilted_search_at_weight_one_is_the_chsh_strategy():
    assert tilted_search(1).strategy == QuantumStrategy(
        (Observable2.from_angle(0.0), Observable2.from_angle(math.pi / 2)),
        (Observable2.from_angle(math.pi / 4), Observable2.from_angle(-math.pi / 4)),
    )


def test_tilted_search_guards():
    with pytest.raises(ValueError):
        tilted_search(F(1, 2))


def test_gpt_box_search_bonet():
    val, box = gpt_box_search(catalog("bonet"))
    assert val == F(5, 2)
    assert box.scenario == INSTR3
    assert set(box.entries) <= {F(0), F(1, 2)}
    assert all(e.evaluate(box) <= 1 for e in pearl_expressions(INSTR3))


def test_gpt_box_search_pearl_and_guards():
    e = pearl_expressions(Scenario.instrumental(2))[0]
    val, _ = gpt_box_search(e)
    assert val == 1
    with pytest.raises(CapacityError):
        gpt_box_search(catalog("chained", n=5))
    with pytest.raises(ValueError):
        gpt_box_search(catalog("chsh"))


def test_rationalize_correlation():
    exact = postselect(pr_box(), Scenario.instrumental(2))
    blurred = Correlation(exact.scenario, tuple(float(e) for e in exact.entries))
    snapped = rationalize_correlation(blurred)
    assert snapped.exact and snapped.entries == exact.entries
    assert rationalize_correlation(exact) is exact
    awkward = born_table(CHSH, Scenario.bell(2, 2))
    with pytest.raises(ValueError):
        rationalize_correlation(awkward, max_denominator=10)
    ok = rationalize_correlation(awkward)
    assert ok.exact
    assert max(abs(float(f) - e) for f, e in zip(ok.entries, awkward.entries)) < 1e-9


def test_rationalize_correlation_renormalizes_exactly():
    # The first two entries snap to themselves, the third to 1/2; the fourth
    # has no fraction over 10^6 close enough to make the context sum to one,
    # so each snapped context is divided by its total.
    a, b = 1 / 999983, 1 / 999979
    block = (a, b, 0.5, 0.5 - a - b)
    p = Correlation(Scenario.instrumental(2), block * 2)
    snapped = [Fraction(e).limit_denominator(10**6) for e in block]
    assert sum(snapped) != 1
    q = rationalize_correlation(p)
    assert sum(q.entries[:4]) == sum(q.entries[4:]) == 1
    assert q.entries[:4] == tuple(f / sum(snapped) for f in snapped)
    assert max(abs(f - Fraction(e)) for f, e in zip(q.entries, p.entries)) < 1e-9
