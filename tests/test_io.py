import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from instrumental import io
from instrumental.polytope import (
    HPolytope,
    LinearInequality,
    classical_vpolytope,
    facet_enumeration,
)
from instrumental.quantum import born_table, tilted_search
from instrumental.scenario import Scenario, postselect

from oracles import pr_box

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def test_fraction_strings():
    assert io.fraction_to_str(F(1, 2)) == "1/2"
    assert io.fraction_to_str(F(-3)) == "-3"
    assert io.fraction_from_str("7/3") == F(7, 3)
    assert io.fraction_from_str(4) == F(4)
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            io.fraction_from_str(bad)
    with pytest.raises(ValueError, match="zero denominator"):
        io.fraction_from_str("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        io.read_ieq("DIM = 2\nINEQUALITIES_SECTION\n( 1) x1 + x2 <= 1/0\nEND\n")


# Tokens of the inequality text format, and some that do not belong.
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


@pytest.mark.parametrize("reader", [io.read_ieq], ids=["ieq"])
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
    # a missing key or a document that is not an object names what is wrong
    no_nx = {**d, "scenario": {k: v for k, v in d["scenario"].items() if k != "nX"}}
    for bad, message in (
        ({"scenario": d["scenario"]}, "a correlation has no 'entries' key"),
        (no_nx, "a scenario has no 'nX' key"),
        ([], "a correlation must be a JSON object"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            io.correlation_from_json(bad)


def test_correlation_round_trip_float():
    t = born_table(tilted_search(1).strategy, Scenario.bell(2, 2))
    d = io.correlation_to_json(t)
    assert isinstance(d["entries"][0], float)
    back = io.correlation_from_json(d)
    assert not back.exact and back.entries == t.entries


def test_polytope_json_round_trip():
    h = facet_enumeration(classical_vpolytope(Scenario.instrumental(2)))
    h2 = io.hpolytope_from_json(io.hpolytope_to_json(h))
    assert h2.inequalities == h.inequalities and h2.equalities == h.equalities


def test_readers_reject_booleans_and_fractional_counts():
    good = {"dim": 2, "inequalities": [{"coeffs": ["1", "1"], "bound": "1"}],
            "equalities": []}
    assert io.hpolytope_from_json(good).dim == 2
    with pytest.raises(ValueError, match="expected an integer"):
        io.hpolytope_from_json({**good, "dim": 2.9})
    with pytest.raises(ValueError, match="expected an integer"):
        io.hpolytope_from_json({**good, "dim": True})
    bool_coeff = {**good, "inequalities": [{"coeffs": ["1", True], "bound": "1"}]}
    with pytest.raises(TypeError, match="True"):
        io.hpolytope_from_json(bool_coeff)
    # a string or object where an array belongs would be read item by item:
    # "11" as x1 + x2, {} and "" as no rows
    for bad, name in (
        ({**good, "inequalities": [{"coeffs": "11", "bound": "1"}]}, "coeffs"),
        ({**good, "equalities": {}}, "equalities"),
        ({**good, "inequalities": ""}, "inequalities"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a JSON array"):
            io.hpolytope_from_json(bad)
    # a row that is not an object, or a missing key, names what is wrong
    for bad, message in (
        ({**good, "inequalities": ["x"]}, "a row of inequalities must be a JSON object"),
        ({**good, "inequalities": [{"coeffs": ["1", "1"]}]},
         "a row of inequalities has no 'bound' key"),
        ({**good, "equalities": [5]}, "a row of equalities must be a JSON object"),
        ({"dim": 2, "inequalities": []}, "a facet list has no 'equalities' key"),
        ([], "a facet list must be a JSON object"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            io.hpolytope_from_json(bad)


def test_readers_reject_negative_dimension():
    with pytest.raises(ValueError, match="nonnegative"):
        io.read_ieq("DIM = -2\n")
    with pytest.raises(ValueError, match="nonnegative"):
        io.hpolytope_from_json({"dim": -1, "inequalities": [], "equalities": []})
    assert io.read_ieq("DIM = 0\n").dim == 0


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("facets_*_json.stdout")), ids=lambda p: p.stem
)
def test_facet_goldens_parse(path):
    # The readers accept what `facets` writes: every orbit member is listed.
    doc = json.loads(path.read_text())
    h = io.hpolytope_from_json(doc["polytope"])
    assert len(h.inequalities) == sum(o["size"] for o in doc["orbits"])


def test_porta_golden_parses_to_the_json_polytope():
    text = (GOLDEN / "facets_classical_x2_porta.stdout").read_text()
    doc = json.loads((GOLDEN / "facets_classical_x2_json.stdout").read_text())
    assert io.read_ieq(text) == io.hpolytope_from_json(doc["polytope"])


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
