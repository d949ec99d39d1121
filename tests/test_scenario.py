import random
from fractions import Fraction

import pytest

import instrumental.scenario as scenario
from instrumental.errors import CapacityError
from instrumental.scenario import (
    Correlation,
    DeterministicStrategy,
    Kind,
    Scenario,
    append_dummy_input,
    classical_correlations,
    dummy_input_extension,
    enumerate_deterministic_strategies,
    iter_deterministic_strategies,
    mix_correlations,
    postselect,
    strategy_to_correlation,
    validate,
)

from oracles import pr_box, report_ok, signalling_residual, uniform_box

F = Fraction
HALF = F(1, 2)

BELL22 = Scenario.bell(2, 2)
INSTR2 = Scenario.instrumental(2)
INSTR3 = Scenario.instrumental(3)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(Kind.INSTRUMENTAL, 2, 3, 2, 2)  # nY must equal nA
    with pytest.raises(ValueError):
        Scenario.bell(2, 2, 1, 2)  # outputs need >= 2 values
    with pytest.raises(ValueError):
        Scenario.f_instrumental(2, 2, 2, 2, [[0, 5], [0, 0]])  # wire value out of range
    with pytest.raises(ValueError):
        Scenario(Kind.BELL, 2, 2, 2, 2, wiring=((0, 0), (0, 0)))


@pytest.mark.parametrize("nA", [0, -1])
def test_instrumental_output_count_named_as_output(nA):
    # Bob's input count is nA too, but the input check must not report it.
    with pytest.raises(ValueError, match="output cardinalities must be >= 2"):
        Scenario.instrumental(2, nA)
    with pytest.raises(ValueError, match="input cardinalities must be >= 1"):
        Scenario.instrumental(0, nA)


def test_index_flattening_order():
    s = Scenario.bell(2, 3, 2, 2)
    # ((x*nY + y)*nA + a)*nB + b
    assert s.index(0, 0, 0, 0) == 0
    assert s.index(0, 0, 0, 1) == 1
    assert s.index(0, 1, 0, 0) == 4
    assert s.index(1, 0, 0, 0) == 12
    assert [s.index(*c) for c in s.coords()] == list(range(s.dim))
    si = Scenario.instrumental(3)
    assert si.index(1, 1, 0) == 6
    assert [si.index(*c) for c in si.coords()] == list(range(si.dim))


def test_correlation_takes_int_entries_and_flat_indices():
    p = Correlation(Scenario.instrumental(2), (1, 0, 0, 0, 0, 0, 1, 0))
    assert all(type(e) is Fraction for e in p.entries) and p.exact
    assert p[6] == p[1, 1, 0] == 1 and p[7] == 0


def test_chained_wiring_table():
    s = Scenario.chained(3)
    assert (s.nX, s.nY, s.nA, s.nB) == (4, 3, 2, 2)
    for a in range(2):
        for x in range(4):
            assert s.wire(a, x) == (x - a) % 3


def test_strategy_counts():
    assert len(enumerate_deterministic_strategies(INSTR3)) == 32
    assert len(enumerate_deterministic_strategies(BELL22)) == 16
    assert len(enumerate_deterministic_strategies(Scenario.bell(3, 2))) == 32
    with pytest.raises(CapacityError):
        enumerate_deterministic_strategies(INSTR3, limit=31)
    # the streaming form checks at the call, before its first strategy
    with pytest.raises(CapacityError):
        iter_deterministic_strategies(INSTR3, limit=31)


def test_strategy_to_correlation_bell():
    d = DeterministicStrategy(BELL22, (0, 1), (1, 0))
    c = strategy_to_correlation(d)
    for x in range(2):
        for y in range(2):
            assert c[(x, y, d.alpha[x], d.beta[y])] == 1
    assert sum(c.entries) == 4


def test_strategy_to_correlation_uses_the_wire():
    # Instrumental: b responds to a; chained: b responds to (x - a) mod n.
    d = DeterministicStrategy(INSTR2, (0, 1), (1, 0))
    c = strategy_to_correlation(d)
    assert c[(0, 0, 1)] == 1 and c[(1, 1, 0)] == 1
    s = Scenario.chained(2)
    d = DeterministicStrategy(s, (0, 0, 1), (0, 1))
    c = strategy_to_correlation(d)
    assert c[(0, 0, 0)] == 1   # wire = (0-0)%2 = 0, beta[0] = 0
    assert c[(1, 0, 1)] == 1   # wire = (1-0)%2 = 1, beta[1] = 1
    assert c[(2, 1, 1)] == 1   # wire = (2-1)%2 = 1, beta[1] = 1


def test_distinct_correlation_counts():
    # Brute-force dedup oracle: betas touching unreachable wire values collapse.
    def oracle(s):
        return len({strategy_to_correlation(d).entries
                    for d in enumerate_deterministic_strategies(s)})

    for s, frozen in [(INSTR2, 12), (INSTR3, 28), (Scenario.chained(2), 28)]:
        assert oracle(s) == len(classical_correlations(s)) == frozen


def test_classical_correlations_build_no_strategy(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("tables come from alpha and the reached wire values")

    monkeypatch.setattr(scenario, "DeterministicStrategy", unreachable)
    assert len(classical_correlations(Scenario.chained(2))) == 28
    assert len(classical_correlations(BELL22)) == 16
    # the strategy count is checked before any table is built
    with pytest.raises(CapacityError):
        classical_correlations(Scenario.instrumental(30))


def test_postselect_pr_box():
    q = postselect(pr_box(), INSTR2)
    for x in range(2):
        for a in range(2):
            for b in range(2):
                expected = HALF if b == (a * (1 + x)) % 2 else 0
                assert q[(x, a, b)] == expected


def test_postselect_product_box():
    q = postselect(uniform_box(BELL22), INSTR2)
    assert all(e == F(1, 4) for e in q.entries)


def test_postselect_rejects_signalling_input():
    entries = [F(0)] * BELL22.dim
    # Alice's marginal at x=0 depends on y: normalization of the slice breaks.
    entries[BELL22.index(0, 0, 0, 0)] = F(1)
    entries[BELL22.index(0, 1, 1, 0)] = F(1)
    entries[BELL22.index(1, 0, 0, 0)] = F(1)
    entries[BELL22.index(1, 1, 0, 0)] = F(1)
    p = Correlation(BELL22, tuple(entries))
    assert validate(p).no_signalling is False
    with pytest.raises(ValueError, match="signalling"):
        postselect(p, INSTR2)


def test_postselect_is_affine():
    rng = random.Random(7)
    dets = [strategy_to_correlation(d)
            for d in enumerate_deterministic_strategies(BELL22)]
    for _ in range(25):
        picks = rng.sample(dets, 3)
        weights = [F(rng.randint(1, 9)) for _ in picks]
        total = sum(weights)
        weights = [w / total for w in weights]
        mixed = mix_correlations(zip(weights, picks))
        lhs = postselect(mixed, INSTR2)
        rhs = mix_correlations(
            (w, postselect(c, INSTR2)) for w, c in zip(weights, picks)
        )
        assert lhs.entries == rhs.entries


def test_postselect_of_deterministic_bell_is_deterministic_instrumental():
    for d in enumerate_deterministic_strategies(BELL22):
        q = postselect(strategy_to_correlation(d), INSTR2)
        induced = DeterministicStrategy(INSTR2, d.alpha, d.beta)
        assert q.entries == strategy_to_correlation(induced).entries


def test_dummy_input_extension_of_pr():
    ext = dummy_input_extension(pr_box())
    assert ext.scenario.nX == 3
    assert report_ok(validate(ext))
    # Original blocks untouched; new block pins a = 0 with Bob's old marginal.
    assert ext.entries[: BELL22.dim] == pr_box().entries
    for y in range(2):
        for b in range(2):
            assert ext[(2, y, 0, b)] == HALF
            assert ext[(2, y, 1, b)] == 0


def test_dummy_input_extension_requires_two_inputs():
    with pytest.raises(ValueError):
        dummy_input_extension(uniform_box(Scenario.bell(3, 2)))


def test_append_dummy_input_preserves_no_signalling_iff():
    ext = append_dummy_input(pr_box(), fixed_a=1)
    assert validate(ext).no_signalling is True
    entries = list(pr_box().entries)
    i, j = BELL22.index(0, 0, 0, 0), BELL22.index(0, 0, 0, 1)
    entries[i], entries[j] = entries[i] + F(1, 4), entries[j] - F(1, 4)
    # still normalized per block but signalling across y
    signalling = Correlation(BELL22, tuple(entries))
    assert validate(signalling).no_signalling is False
    assert validate(append_dummy_input(signalling, 0)).no_signalling is False


def test_validate_flags_each_failure():
    bad = Correlation(INSTR2, tuple([F(-1, 4)] + [F(1, 4)] * 6 + [F(3, 4)]))
    rep = validate(bad)
    assert not rep.nonnegative and rep.first_violation[0] == "nonnegative"
    unnorm = Correlation(INSTR2, tuple([F(1, 8)] * 8))
    rep = validate(unnorm)
    assert rep.nonnegative and not rep.normalized
    assert rep.no_signalling is None  # meaningless without a free y
    assert report_ok(validate(postselect(pr_box(), INSTR2)))


def test_signalling_residual_exact_zero_on_pr():
    assert signalling_residual(pr_box()) == 0
    assert validate(pr_box()).no_signalling is True


def test_mix_requires_common_scenario():
    with pytest.raises(ValueError):
        mix_correlations(
            [(HALF, uniform_box(BELL22)), (HALF, uniform_box(INSTR2))]
        )
