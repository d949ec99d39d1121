import json
import math
import random
from fractions import Fraction

import pytest

from instrumental import io
from instrumental.inequalities import catalog
from instrumental.polytope import (
    HPolytope,
    LinearInequality,
    VPolytope,
    classical_vpolytope,
    facet_enumeration,
)
import numpy as np

from instrumental.quantum import (
    QuantumStrategy,
    TwoQubitState,
    bonet_strategy,
    born_table,
    chsh_strategy,
)
from instrumental.scenario import (
    Correlation,
    DeterministicStrategy,
    Scenario,
    postselect,
    pr_box,
)

F = Fraction


def test_fraction_strings():
    assert io.fraction_to_str(F(1, 2)) == "1/2"
    assert io.fraction_to_str(F(-3)) == "-3"
    assert io.fraction_from_str("7/3") == F(7, 3)
    assert io.fraction_from_str(4) == F(4)
    with pytest.raises(TypeError):
        io.fraction_from_str(0.5)
    with pytest.raises(ValueError, match="zero denominator"):
        io.fraction_from_str("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        io.read_poi("DIM = 2\nCONV_SECTION\n1/0 1\nEND\n")
    with pytest.raises(ValueError, match="zero denominator"):
        io.read_ieq("DIM = 2\nINEQUALITIES_SECTION\n( 1) x1 + x2 <= 1/0\nEND\n")


# Tokens of the two polytope text formats, and some that do not belong.
# They are joined by spaces and newlines only, so numbers stay small.
POLYTOPE_TOKENS = [
    "DIM", "=", "DIM =", "2", "3", "0", "1", "-1", "1/2", "1/0", "3/", "1e5",
    "CONV_SECTION", "INEQUALITIES_SECTION", "END", "x1", "x2", "x9", "+x1",
    "-2x2", "x", "<=", ">=", "==", "(", ")", "( 1)", "abc", "",
]


POLYTOPE_HEADERS = [
    "", "DIM = 2\n", "DIM = 2\nCONV_SECTION\n", "DIM = 2\nINEQUALITIES_SECTION\n",
]


def _random_polytope_texts(rng, count):
    for _ in range(count):
        words = [rng.choice(POLYTOPE_TOKENS) for _ in range(rng.randint(0, 24))]
        body = "".join(w + rng.choice([" ", " ", "\n"]) for w in words)
        yield rng.choice(POLYTOPE_HEADERS) + body


@pytest.mark.parametrize("reader", [io.read_poi, io.read_ieq], ids=["poi", "ieq"])
def test_malformed_polytope_text_raises_value_error(reader):
    texts = ["DIM\n", "DIM 2\nEND\n", "DIM = \n"]
    texts += list(_random_polytope_texts(random.Random(3), 3000))
    for text in texts:
        try:
            reader(text)
        except ValueError:
            pass


@pytest.mark.parametrize(
    "s",
    [
        Scenario.bell(3, 2),
        Scenario.instrumental(3),
        Scenario.chained(3),
        Scenario.bell(2, 2, 4, 4),
    ],
)
def test_scenario_round_trip(s):
    assert io.scenario_from_json(io.scenario_to_json(s)) == s


def test_correlation_round_trip_exact(tmp_path):
    p = postselect(pr_box(), Scenario.instrumental(2))
    d = io.correlation_to_json(p)
    assert d["entries"][0] == "1/2"
    assert io.correlation_from_json(d) == p
    path = tmp_path / "box.json"
    io.save_correlation(p, path)
    assert io.load_correlation(path) == p
    # the file is plain json
    assert json.loads(path.read_text())["scenario"]["kind"] == "instrumental"


def test_correlation_round_trip_float():
    t = born_table(chsh_strategy(), Scenario.bell(2, 2))
    d = io.correlation_to_json(t)
    assert isinstance(d["entries"][0], float)
    back = io.correlation_from_json(d)
    assert not back.exact and back.entries == t.entries


def test_deterministic_strategy_round_trip():
    d = DeterministicStrategy(Scenario.instrumental(3), (0, 1, 0), (1, 0))
    assert io.deterministic_strategy_from_json(io.deterministic_strategy_to_json(d)) == d


def test_expression_round_trip():
    e = catalog("tilted", alpha=F(5, 2))
    d = io.expression_to_json(e, label="tilted-5/2")
    assert d["label"] == "tilted-5/2"
    assert io.expression_from_json(d) == e
    del d["constant"]
    assert io.expression_from_json(d).constant == e.constant == 0


def test_quantum_strategy_round_trip():
    q = bonet_strategy()
    d = io.quantum_strategy_to_json(q)
    assert d["state"] == "phi_plus"
    back = io.quantum_strategy_from_json(d)
    assert back.alice == q.alice and back.bob == q.bob
    assert born_table(back, Scenario.instrumental(3)).entries == born_table(
        q, Scenario.instrumental(3)
    ).entries
    # a general state goes through the 16-entry form
    blurred = TwoQubitState(0.5 * q.state.matrix + 0.5 * np.eye(4) / 4)
    d2 = io.quantum_strategy_to_json(QuantumStrategy(blurred, q.alice, q.bob))
    assert len(d2["state"]) == 16
    mixed = io.quantum_strategy_from_json(d2)
    assert mixed.state.matrix[0, 0] == pytest.approx(0.375)


def test_polytope_json_round_trip():
    v = classical_vpolytope(Scenario.instrumental(2))
    assert io.vpolytope_from_json(io.vpolytope_to_json(v)) == v
    h = facet_enumeration(v)
    h2 = io.hpolytope_from_json(io.hpolytope_to_json(h))
    assert h2.inequalities == h.inequalities and h2.equalities == h.equalities


def test_poi_round_trip():
    v = VPolytope(3, ((F(0), F(0), F(1)), (F(1, 2), F(-1, 3), F(0))))
    text = io.write_poi(v)
    assert "DIM = 3" in text and "CONV_SECTION" in text and "1/2 -1/3 0" in text
    assert io.read_poi(text) == v
    # numbered rows from other tools parse too
    numbered = text.replace("1/2 -1/3 0", "( 2) 1/2 -1/3 0")
    assert io.read_poi(numbered) == v
    with pytest.raises(ValueError):
        io.read_poi("CONV_SECTION\n1 2\nEND\n")


def test_ieq_round_trip():
    h = HPolytope(
        3,
        (
            LinearInequality((F(1), F(1), F(0)), F(2)),
            LinearInequality((F(-1, 2), F(0), F(3)), F(0)),
        ),
        (((F(1), F(1), F(1)), F(1)),),
    )
    text = io.write_ieq(h)
    assert "( 1) +1x1 +1x2 +1x3 == 1" in text
    assert "( 2) +1x1 +1x2 <= 2" in text
    assert "( 3) -1/2x1 +3x3 <= 0" in text
    back = io.read_ieq(text)
    assert back.inequalities == h.inequalities and back.equalities == h.equalities


def test_ieq_parses_bare_and_ge_terms():
    h = io.read_ieq("DIM = 2\nINEQUALITIES_SECTION\n+x1 -x2 >= -3\nEND\n")
    assert h.inequalities == (LinearInequality((F(-1), F(1)), F(3)),)
    with pytest.raises(ValueError):
        io.read_ieq("DIM = 2\nINEQUALITIES_SECTION\n3 <= 4\nEND\n")
    with pytest.raises(ValueError):
        io.write_ieq(HPolytope(2, (LinearInequality((F(0), F(0)), F(1)),), ()))


def test_bounds_formats():
    rows = [
        ("classical", "2", 2.0),
        ("quantum", "3/2 + (1/2)*sqrt(2)", (3 + math.sqrt(2)) / 2),
        ("gpt", "5/2", 2.5),
    ]
    table = io.format_bounds_table(rows)
    assert table.splitlines()[0].split() == ["theory", "exact", "approx"]
    assert "2.207106781" in table
    csv_text = io.format_bounds_csv(rows)
    assert csv_text.splitlines()[0] == "theory,exact,approx"
    assert "3/2 + (1/2)*sqrt(2)" in csv_text
    assert "2.2071067811865475" in csv_text
