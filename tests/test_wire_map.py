"""The wire map: `Scenario.parent_bell` / `wired_indices` against
post-selection and lifting, and the behaviours that rest on it."""

import random
from fractions import Fraction

import pytest

from instrumental import io
from instrumental.cli import main
from instrumental.inequalities import (
    LinearExpression,
    extension_membership,
    gpt_maximum,
    lift_to_bell,
)
from instrumental.scenario import (
    Correlation,
    Scenario,
    enumerate_deterministic_strategies,
    mix_correlations,
    postselect,
    random_mixture,
    strategy_to_correlation,
    validate,
)

from oracles import postselected_strategy_columns, report_ok

F = Fraction
INSTR2 = Scenario.instrumental(2)

WIRED = [
    Scenario.instrumental(2),
    Scenario.instrumental(3),
    Scenario.chained(3),
    Scenario.f_instrumental(2, 3, 2, 2, [[0, 2], [1, 1]]),
]


def random_expression(s, rng):
    coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(s.dim))
    return LinearExpression(s, coeffs, F(rng.randint(-2, 2), 3))


def no_signalling_pool(bell, rng):
    """Deterministic boxes plus a few nonlocal no-signalling vertices."""
    dets = enumerate_deterministic_strategies(bell)
    pool = [strategy_to_correlation(d) for d in dets]
    pool += [gpt_maximum(random_expression(bell, rng))[1] for _ in range(2)]
    return pool


@pytest.mark.parametrize("s", WIRED, ids=lambda s: f"{s.kind.value}-{s.nX}-{s.nY}")
def test_wired_indices_match_postselect_and_lift(s):
    rng = random.Random(5)
    bell = s.parent_bell()
    assert bell == Scenario.bell(s.nX, s.nY, s.nA, s.nB)
    keep = s.wired_indices()
    assert len(keep) == len(set(keep)) == s.dim
    pool = no_signalling_pool(bell, rng)
    exprs = [random_expression(s, rng) for _ in range(3)]
    for _ in range(10):
        q = random_mixture(bell, rng, pool=pool)
        assert report_ok(validate(q))
        p = postselect(q, s)
        assert p.entries == tuple(q.entries[i] for i in keep)
        for e in exprs:
            assert lift_to_bell(e).evaluate(q) == e.evaluate(p)


def test_parent_bell_rejects_bell():
    with pytest.raises(ValueError):
        Scenario.bell(2, 2).parent_bell()
    with pytest.raises(ValueError):
        Scenario.bell(2, 2).wired_indices()


def test_classical_extension_weights_follow_bell_strategies():
    rng = random.Random(3)
    p = random_mixture(INSTR2, rng)
    strategies = enumerate_deterministic_strategies(Scenario.bell(2, 2))
    columns = [postselect(strategy_to_correlation(d), INSTR2) for d in strategies]
    # distinct Bell strategies share wired tables, and each keeps its weight
    assert len({c.entries for c in columns}) < len(columns) == 16
    cert = extension_membership(p, "classical")
    assert cert.inside and len(cert.weights) == 16
    assert mix_correlations(zip(cert.weights, columns)) == p


@pytest.mark.parametrize(
    "s", WIRED + [Scenario.instrumental(2, 3, 2)], ids=lambda s: f"{s.kind.value}-{s.dim}"
)
def test_wired_strategies_match_postselected_bell_strategies(s):
    # the classical extension columns: one per strategy, in the same order
    columns = [
        strategy_to_correlation(d).entries for d in enumerate_deterministic_strategies(s)
    ]
    assert columns == postselected_strategy_columns(s)


def test_postselect_accepts_bell_table_wider_than_the_wire(tmp_path):
    q = random_mixture(Scenario.bell(2, 3), random.Random(9))
    # the same box with Bob's unused third input dropped
    bell22 = Scenario.bell(2, 2)
    r = Correlation(bell22, tuple(q[coords] for coords in bell22.coords()))
    assert postselect(q, INSTR2) == postselect(r, INSTR2)
    path = tmp_path / "bell-2x3.json"
    io.save_correlation(q, path)
    assert main(["membership", str(path), "--theory", "classical"]) == 0
