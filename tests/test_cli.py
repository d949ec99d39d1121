import dataclasses
import gc
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from instrumental import cli, inequalities, io, linprog, polytope, scenario
from instrumental.cli import main
from instrumental.inequalities import catalog, gpt_maximum
from instrumental.quantum import born_table, tilted_search
from instrumental.scenario import Scenario, postselect
from oracles import gpt_box_search, pr_box, uniform_box


@pytest.fixture(scope="module")
def pr_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "pr.json"
    io.save_correlation(pr_box(), path)
    return str(path)


@pytest.fixture(scope="module")
def wired_pr_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "wired_pr.json"
    io.save_correlation(postselect(pr_box(), Scenario.instrumental(2)), path)
    return str(path)


@pytest.fixture(scope="module")
def box52_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "box52.json"
    io.save_correlation(gpt_box_search(catalog("bonet"))[1], path)
    return str(path)


def test_facets_classical_three_inputs(capsys):
    assert main(["facets", "--kind", "instrumental", "--classical", "-x", "3"]) == 0
    out = capsys.readouterr().out
    assert "facets: 48" in out
    assert "pearl: 12 facets" in out
    assert "bonet: 24 facets" in out
    assert "positivity: 12 facets" in out


def test_facets_gpt_two_inputs(capsys):
    assert main(["facets", "--kind", "instrumental", "--gpt", "-x", "2"]) == 0
    out = capsys.readouterr().out
    assert "facets: 12" in out
    assert "pearl: 4 facets" in out
    assert "positivity: 8 facets" in out
    assert "bonet" not in out


def test_facets_json_round_trips(capsys):
    assert main(["facets", "--classical", "-x", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {o["tag"]: o["size"] for o in doc["orbits"]} == {
        "pearl": 4,
        "positivity": 8,
    }
    h = io.hpolytope_from_json(doc["polytope"])
    assert len(h.inequalities) == 12


def test_facets_porta_formats(capsys):
    assert main(["facets", "--classical", "-x", "2", "--format", "porta"]) == 0
    direct = capsys.readouterr().out
    assert direct.startswith("DIM = 8")
    assert "INEQUALITIES_SECTION" in direct
    parsed = io.read_ieq(direct)
    assert len(parsed.inequalities) == 12 and len(parsed.equalities) == 2


@pytest.mark.parametrize("rays", [0, -1])
def test_facets_rejects_max_rays_below_one(capsys, rays):
    assert main(["facets", "--classical", "-x", "2", "--max-rays", str(rays)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-rays takes a count >= 1, got {rays}\n"


@pytest.mark.parametrize("flag", ["-a", "-b"])
def test_facets_zero_outputs_named_as_outputs(capsys, flag):
    assert main(["facets", "--gpt", "-x", "2", flag, "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output cardinalities must be >= 2\n"


def test_facets_capacity_exit(capsys):
    assert main(["facets", "--classical", "-x", "2", "--max-rays", "3"]) == 2
    assert "capacity" in capsys.readouterr().err


def test_facets_gpt_lp_cell_limit_exit(capsys, monkeypatch):
    # The pruning start LP is the projection's first; past the cell limit it
    # exits 2 and names itself, before its tableau is built.
    monkeypatch.setattr(linprog, "_CELL_LIMIT", 1)
    assert main(["facets", "--gpt", "-x", "2"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"capacity: FM pruning start LP: an LP of \d+ rows would store \d+"
        r" tableau cells, over the limit of 1\n",
        err,
    ), err


@pytest.mark.parametrize(
    "module, name, limit, err",
    [
        (linprog, "_CELL_LIMIT", 306, "FM pruning start LP: an LP of 18 rows would"
         " store 306 tableau cells, over the limit of 305"),
        (polytope, "_PRUNE_ROW_LIMIT", 16, "FM pruning: 16 rows, over the limit of 15"),
    ],
    ids=["start-lp-cells", "pruning-rows"],
)
def test_facets_gpt_pruning_limits(capsys, monkeypatch, module, name, limit, err):
    # At -x 2 the pruning pass takes 16 rows over 8 free coordinates, and its
    # start LP 2 equalities more.  Every inequality has rhs >= 0 and starts on
    # its slack, so the tableau stores 18 x (16 + 1) cells and no slack column.
    monkeypatch.setattr(module, name, limit - 1)
    assert main(["facets", "--gpt", "-x", "2"]) == 2
    assert capsys.readouterr().err == f"capacity: {err}\n"
    monkeypatch.setattr(module, name, limit)
    assert main(["facets", "--gpt", "-x", "2"]) == 0


# Smallest --max-rays `facets --classical` accepts.  It bounds each ridge
# double description of the orbit-by-orbit search, so it sits below the
# whole-hull trip points in test_echelon.py (58 and 340).  The message says
# how far the double description got (the row it was inserting) and in which
# ridge DD of the search.
@pytest.mark.parametrize("n, trip", [(3, 41), (4, 223)])
def test_facets_classical_trip_points(capsys, n, trip):
    argv = ["facets", "--classical", "-x", str(n), "--format", "json"]
    assert main(argv + ["--max-rays", str(trip)]) == 0
    assert main(argv + ["--max-rays", str(trip - 1)]) == 2
    row = {3: "19 of 21", 4: "41 of 45"}[n]
    assert capsys.readouterr().err == (
        f"capacity: double description exceeded {trip - 1} intermediate rays"
        f" at row {row}, in the ridge DD of representative 1 (1 found so far)\n"
    )


@pytest.mark.parametrize("side, orbits", [("--classical", 3), ("--gpt", 2)])
def test_facets_walks_each_orbit_once(monkeypatch, capsys, side, orbits):
    # The classical route classifies the orbits its adjacency decomposition
    # walked; the gpt route partitions the projection's facets once.
    seeds = []
    walk = polytope._orbit

    def counted(seed, generators, equalities):
        seeds.append(seed)
        return walk(seed, generators, equalities)

    # patched in every module that could bind it, so no walk goes uncounted
    for module in (polytope, inequalities, cli):
        monkeypatch.setattr(module, "_orbit", counted, raising=False)
    assert main(["facets", side, "-x", "3", "--format", "json"]) == 0
    assert len(seeds) == len(json.loads(capsys.readouterr().out)["orbits"]) == orbits


def test_zero_denominator_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    doc = io.correlation_to_json(postselect(pr_box(), Scenario.instrumental(2)))
    doc["entries"][0] = "1/0"
    path.write_text(json.dumps(doc))
    assert main(["membership", str(path), "--theory", "classical"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1/0" in err
    assert "Traceback" not in err


# Each mutation leaves the file malformed: a bad entry, a bad cardinality,
# a bad wiring entry, a missing key, or JSON cut short.
BAD_ENTRIES = [float("inf"), float("-inf"), float("nan"), True, False, None,
               [], {}, "abc", "1/0", "1/2/3", "", "Infinity"]
BAD_COUNTS = [2.5, True, False, None, "x", -1, 0, float("inf"), [2], {}]
BAD_WIRES = [0.5, True, -1, 7, None, "a"]


def _malformed_documents(rng):
    bases = [
        postselect(pr_box(), Scenario.instrumental(2)),
        uniform_box(Scenario.chained(2)),
        pr_box(),
        born_table(tilted_search(1).strategy, Scenario.bell(2, 2)),
    ]
    for _ in range(60):
        doc = io.correlation_to_json(rng.choice(bases))
        s = doc["scenario"]
        mutation = rng.choice(["entry", "count", "wire", "drop", "cut"])
        if mutation == "entry":
            doc["entries"][rng.randrange(len(doc["entries"]))] = rng.choice(BAD_ENTRIES)
        elif mutation == "count":
            s[rng.choice(["nX", "nY", "nA", "nB"])] = rng.choice(BAD_COUNTS)
        elif mutation == "wire" and "wiring" in s:
            row = rng.choice(s["wiring"])
            row[rng.randrange(len(row))] = rng.choice(BAD_WIRES)
        elif mutation == "drop" or mutation == "wire":
            target = rng.choice([doc, s])
            del target[rng.choice(sorted(target))]
        else:
            text = json.dumps(doc)
            yield text[: rng.randrange(len(text) - 1)]
            continue
        yield json.dumps(doc)


HAND_WRITTEN = [
    '{"scenario": {"kind": "instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2},'
    ' "entries": [1e400, 0, 0, 0, 1, 0, 0, 0]}',
    '{"scenario": {"kind": "instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2},'
    ' "entries": [true, 0, 0, 0, 1, 0, 0, 0]}',
    '{"scenario": {"kind": "instrumental", "nX": 2.5, "nY": 2, "nA": 2, "nB": 2},'
    ' "entries": ["1", "0", "0", "0", "1", "0", "0", "0"]}',
    '{"scenario": {"kind": "f_instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2,'
    ' "wiring": [[0, true], [1, 0]]},'
    ' "entries": ["1", "0", "0", "0", "1", "0", "0", "0"]}',
    "[]",
    "",
    # entries far outside [0, 1]: their context total overflows a float
    '{"scenario": {"kind": "instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2},'
    ' "entries": [1e308, 1e308, 0, 0, 0, 0, 0, 0]}',
    '{"scenario": {"kind": "instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2},'
    ' "entries": [-1e308, 1e308, 0, 0, 0, 0, 1, 0]}',
    # a string or object where an array belongs, and a string count
    '{"scenario": {"kind": "instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2},'
    ' "entries": "10000001"}',
    '{"scenario": {"kind": "f_instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2,'
    ' "wiring": ["01", "10"]},'
    ' "entries": ["1", "0", "0", "0", "1", "0", "0", "0"]}',
    '{"scenario": {"kind": "instrumental", "nX": 2, "nY": "2", "nA": 2, "nB": 2},'
    ' "entries": ["1", "0", "0", "0", "1", "0", "0", "0"]}',
    '{"scenario": {"kind": "instrumental", "nX": 2, "nY": 2, "nA": 2, "nB": 2},'
    ' "entries": {"a": 1}}',
]


@pytest.mark.parametrize("theory", ["classical", "nosignalling"])
def test_malformed_correlation_files_exit_1(capsys, tmp_path, theory):
    path = tmp_path / "table.json"
    texts = HAND_WRITTEN + list(_malformed_documents(random.Random(5)))
    for text in texts:
        path.write_text(text)
        assert main(["membership", str(path), "--theory", theory]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert captured.err.startswith("error:"), (text, captured.err)
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("scenario", ["[]", "5", '"instrumental"', "null"])
def test_scenario_that_is_not_an_object_exits_1(capsys, tmp_path, scenario):
    path = tmp_path / "table.json"
    path.write_text('{"scenario": %s, "entries": ["1", "0"]}' % scenario)
    assert main(["membership", str(path), "--theory", "classical"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a scenario must be a JSON object")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "kind, count", [("chained", 33554432), ("chained_bell", 16777216)]
)
def test_bounds_capacity_trip(capsys, monkeypatch, kind, count):
    def unreachable(e):
        raise AssertionError("the capacity check must trip before any LP")

    monkeypatch.setattr(cli, "gpt_maximum", unreachable)
    assert main(["bounds", kind, "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"capacity: {count} deterministic strategies exceed the limit of 10000000\n"
    )


@pytest.mark.parametrize("kind", ["chained", "chained_bell"])
@pytest.mark.parametrize("n", ["12", "2000"])
def test_bounds_capacity_trips_before_any_expression(capsys, monkeypatch, kind, n):
    def unreachable(*args, **kwargs):
        raise AssertionError("the capacity check must trip before any expression")

    for name in ("catalog", "bounds", "classical_maximum"):
        monkeypatch.setattr(cli, name, unreachable)
    start = time.perf_counter()
    assert main(["bounds", kind, n]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"capacity: \d+ deterministic strategies exceed the limit of 10000000\n",
        captured.err,
    )


@pytest.mark.parametrize("n, dim", [(1581, 10004568), (100000, 40000400000)])
def test_identity_capacity_trips_before_any_expression(capsys, monkeypatch, n, dim):
    # Bell(n + 1, n) has 4 (n + 1) n entries; n = 1580 is the last under 10**7.
    def unreachable(*args, **kwargs):
        raise AssertionError("the capacity check must trip before any expression")

    for name in ("verify_identity", "identity_max_residual"):
        monkeypatch.setattr(cli, name, unreachable)
    start = time.perf_counter()
    assert main(["identity", "chained", "--n", str(n), "--trials", "0"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"capacity: chained --n {n} lifts to a Bell scenario of dimension {dim},"
        " over the limit of 10000000\n"
    )


def test_membership_classical_capacity_trip(capsys, monkeypatch, tmp_path):
    def unreachable(s, limit=None):
        raise AssertionError("the capacity check must trip before any strategy")

    monkeypatch.setattr(inequalities, "enumerate_deterministic_strategies", unreachable)
    path = tmp_path / "wide.json"
    io.save_correlation(uniform_box(Scenario.instrumental(21)), path)
    assert main(["membership", str(path), "--theory", "classical"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "capacity: 8388608 deterministic strategies exceed the limit of 4096\n"
    )


def test_bounds_mismatch_exits_3(capsys, monkeypatch):
    def wrong(e):
        value, witness = gpt_maximum(e)
        return value + 1, witness

    monkeypatch.setattr(cli, "gpt_maximum", wrong)
    assert main(["bounds", "chsh"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "all three bounds verified" not in lines
    assert lines[-1] == "MISMATCH gpt: expected 4, no-signalling maximum 5"


def test_bounds_tampered_gpt_witness_exits_3(capsys, monkeypatch):
    solve = inequalities.solve_lp

    def tampered(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, x=tuple(0 * v for v in res.x))

    monkeypatch.setattr(inequalities, "solve_lp", tampered)
    assert main(["bounds", "chsh"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "certificate: the witness box does not attain the no-signalling maximum\n"
    )


def test_bounds_gpt_witness_with_negative_entries_exits_3(capsys, monkeypatch):
    # x moved along c_k e_j - c_j e_k keeps the objective c . x, so the box
    # still attains the value, but some of its entries turn negative
    solve = inequalities.solve_lp

    def tampered(objective, *args, **kwargs):
        res = solve(objective, *args, **kwargs)
        j, k = [i for i, c in enumerate(objective) if c][:2]
        x = list(res.x)
        x[j] += 10 * objective[k]
        x[k] -= 10 * objective[j]
        return dataclasses.replace(res, x=tuple(x))

    monkeypatch.setattr(inequalities, "solve_lp", tampered)
    assert main(["bounds", "chsh"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certificate: the witness box has a negative entry\n"


@pytest.mark.parametrize(
    "argv", [["bounds", "tilted", "1/0"], ["identity", "tilted", "--alpha", "1/0"]]
)
def test_zero_denominator_weight_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator in tilted weight '1/0'\n"


def test_bounds_radicand_past_trial_division_limit_exits_2(capsys):
    # 10^24 + 1 keeps a cofactor above 10^18 once trial division passes 10^6
    assert main(["bounds", "tilted_chsh", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity: square-free part of ")


def test_bounds_bonet(capsys):
    assert main(["bounds", "bonet"]) == 0
    out = capsys.readouterr().out
    assert "3/2 + (1/2)*sqrt(2)" in out
    assert "all three bounds verified" in out


def test_bounds_tilted_one_matches_bonet(capsys):
    assert main(["bounds", "bonet"]) == 0
    bonet = capsys.readouterr().out
    assert main(["bounds", "tilted", "1"]) == 0
    assert capsys.readouterr().out == bonet


def test_bounds_chained_json(capsys):
    assert main(["bounds", "chained", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {r["theory"]: r for r in doc["rows"]}
    assert rows["classical"]["exact"] == "2"
    assert rows["gpt"]["exact"] == "5/2"
    assert all(r["verified"] for r in rows.values())


def test_bounds_csv(capsys):
    assert main(["bounds", "chsh", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "theory,exact,approx"
    assert "(2)*sqrt(2)" in out


def test_bounds_usage_errors(capsys):
    assert main(["bounds", "tilted"]) == 1
    assert main(["bounds", "bonet", "7"]) == 1
    assert main(["bounds", "mystery"]) == 1
    capsys.readouterr()
    for kind in ("chained", "chained_bell"):
        assert main(["bounds", kind]) == 1
        assert capsys.readouterr() == ("", f"error: {kind} needs a chain length n\n")


def test_membership_wired_pr(capsys, wired_pr_file):
    assert main(["membership", wired_pr_file, "--theory", "classical"]) == 0
    out = capsys.readouterr().out
    assert "inside" in out and "note:" not in out


def test_membership_bell_parent_caveat(capsys, pr_file):
    assert main(["membership", pr_file, "--theory", "classical"]) == 0
    out = capsys.readouterr().out
    assert "inside" in out
    assert "--with-local-processing" in out


def test_membership_local_processing_flips_verdict(capsys, pr_file):
    assert main(
        ["membership", pr_file, "--theory", "classical", "--with-local-processing"]
    ) == 0
    out = capsys.readouterr().out
    assert "outside" in out
    assert "separating inequality" in out
    assert "margin 2" in out


@pytest.mark.parametrize("flag", [[], ["--with-local-processing"]], ids=["plain", "local"])
@pytest.mark.parametrize("nA, nB", [(3, 3), (2, 3)])
def test_membership_wires_bell_tables_of_any_outcome_counts(capsys, tmp_path, flag, nA, nB):
    # Bob's input is Alice's outcome, so Bell(2, nA; nA, nB) wires into
    # Instrumental(2, nA, nB), or into three inputs after the dummy one.
    path = tmp_path / "uniform.json"
    io.save_correlation(uniform_box(Scenario.bell(2, nA, nA, nB)), path)
    assert main(["membership", str(path), "--theory", "classical", *flag]) == 0
    assert capsys.readouterr().out.startswith("classical: inside\n")


def test_membership_box_nosignalling(capsys, box52_file):
    assert main(["membership", box52_file, "--theory", "nosignalling"]) == 0
    out = capsys.readouterr().out
    assert "inside" in out and "extension:" in out


def test_membership_json_separator_is_valid(capsys, box52_file):
    assert main(
        ["membership", box52_file, "--theory", "classical", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inside"] is False
    coeffs = [Fraction(c) for c in doc["separator"]["coeffs"]]
    bound = Fraction(doc["separator"]["bound"])
    box = io.load_correlation(box52_file)
    value = sum(c * e for c, e in zip(coeffs, box.entries))
    assert value - bound == Fraction(doc["margin"]) > 0


def test_membership_flag_needs_bell_input(capsys, wired_pr_file):
    assert main(
        ["membership", wired_pr_file, "--theory", "classical",
         "--with-local-processing"]
    ) == 1
    assert "Bell" in capsys.readouterr().err


def test_identity_commands(capsys):
    assert main(["identity", "bonet", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "symbolic reduction to zero: yes" in out
    assert out.rstrip().endswith("0")
    assert main(["identity", "chained", "--n", "2", "--trials", "10"]) == 0
    capsys.readouterr()
    assert main(
        ["identity", "tilted", "--alpha", "3/2", "--trials", "10",
         "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symbolic"] is True and doc["max_abs_residual"] == "0"


def test_identity_is_seed_deterministic(capsys):
    args = ["identity", "bonet", "--trials", "15", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("trials", [0, 5])
def test_identity_pool_check_catches_a_wrong_residual(monkeypatch, capsys, trials):
    # p(00|00) added to the bonet residual: 1 on every deterministic box with
    # a = b = 0 at x = y = 0, 0 on the others.  The proof rejects it, and the
    # residual scan that follows reports the fault.
    right = inequalities.identity_residual_expression("bonet")
    coeffs = list(right.coeffs)
    coeffs[right.scenario.index(0, 0, 0, 0)] += 1
    wrong = inequalities.LinearExpression(right.scenario, tuple(coeffs), right.constant)
    monkeypatch.setattr(inequalities, "identity_residual_expression",
                        lambda kind, **params: wrong)
    argv = ["identity", "bonet", "--trials", str(trials), "--format", "json"]
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["symbolic"] is False and doc["max_abs_residual"] == "1"
    assert main(argv[:-2]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "max |residual| over every deterministic box: 1"
    )


def test_identity_decides_a_correct_identity_without_boxes(monkeypatch, capsys):
    # the residual of chained n = 7 lives on Bell(8, 7), with 2^15 boxes; a
    # correct identity is decided in Collins-Gisin coordinates alone
    def unreachable(*args, **kwargs):
        raise AssertionError("a correct identity needs no box and no echelon")

    monkeypatch.setattr(inequalities, "identity_check", unreachable)
    monkeypatch.setattr(inequalities, "classical_maximum", unreachable)
    for module in (scenario, polytope, inequalities, cli):
        for name in ("classical_correlations", "no_signalling_polytope", "_echelon"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    assert main(["identity", "chained", "--n", "7", "--trials", "0"]) == 0
    assert capsys.readouterr().out.endswith(": 0\n")


@pytest.mark.parametrize(
    "flags", [["bonet"], ["tilted", "--alpha", "3"], ["chained", "--n", "3"]],
    ids=" ".join,
)
def test_identity_proves_a_correct_identity_once(monkeypatch, capsys, flags):
    # a proof that holds leaves nothing to scan, so nothing proves it again
    calls = []
    proof = inequalities.verify_identity

    def counted(kind, **params):
        calls.append(kind)
        return proof(kind, **params)

    monkeypatch.setattr(cli, "verify_identity", counted)
    monkeypatch.setattr(inequalities, "verify_identity", counted)
    assert main(["identity", *flags, "--trials", "0"]) == 0
    assert capsys.readouterr().out.endswith(": 0\n")
    assert calls == [flags[0]]


def _patch_wrong_bonet_residual(monkeypatch):
    """The bonet residual plus p(00|00): 1 at its worst deterministic box."""
    right = inequalities.identity_residual_expression("bonet")
    coeffs = list(right.coeffs)
    coeffs[right.scenario.index(0, 0, 0, 0)] += 1
    wrong = inequalities.LinearExpression(right.scenario, tuple(coeffs), right.constant)
    monkeypatch.setattr(inequalities, "identity_residual_expression",
                        lambda kind, **params: wrong)


def test_identity_proves_a_wrong_identity_once(monkeypatch, capsys):
    # the failed proof's verdict goes to the best-response scan, which does
    # not prove the identity again
    _patch_wrong_bonet_residual(monkeypatch)
    calls = []
    proof = inequalities.verify_identity

    def counted(kind, **params):
        calls.append(kind)
        return proof(kind, **params)

    monkeypatch.setattr(cli, "verify_identity", counted)
    monkeypatch.setattr(inequalities, "verify_identity", counted)
    assert main(["identity", "bonet", "--trials", "0"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "max |residual| over every deterministic box: 1"
    )
    assert calls == ["bonet"]


def test_identity_max_residual_proves_before_it_scans(monkeypatch):
    # a library caller without a verdict gets the proof first: a correct
    # identity is 0 with no scan, a wrong one is proved once, then scanned
    calls = []
    proof = inequalities.verify_identity
    scan = inequalities.classical_maximum

    def unreachable(*args, **kwargs):
        raise AssertionError("a proved identity needs no scan")

    monkeypatch.setattr(inequalities, "verify_identity",
                        lambda kind, **params: calls.append(kind) or proof(kind, **params))
    monkeypatch.setattr(inequalities, "classical_maximum", unreachable)
    assert inequalities.identity_max_residual("tilted", alpha=3) == 0
    _patch_wrong_bonet_residual(monkeypatch)
    monkeypatch.setattr(inequalities, "classical_maximum", scan)
    assert inequalities.identity_max_residual("bonet") == 1
    assert calls == ["tilted", "bonet"]


def test_identity_chained_10_is_decided_exactly(capsys):
    argv = ["identity", "chained", "--n", "10", "--trials", "0", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["max_abs_residual"] == "0"


def test_identity_wrong_residual_scan_keeps_the_strategy_limit(monkeypatch, capsys):
    # a wrong residual sends the scan through the best response over every
    # deterministic box, which must still trip the strategy-count limit first
    right = inequalities.identity_residual_expression("bonet")
    coeffs = list(right.coeffs)
    coeffs[0] += 1
    wrong = inequalities.LinearExpression(right.scenario, tuple(coeffs), right.constant)
    check = inequalities._check_strategy_count
    monkeypatch.setattr(inequalities, "identity_residual_expression",
                        lambda kind, **params: wrong)
    monkeypatch.setattr(inequalities, "_check_strategy_count",
                        lambda s: check(s, limit=31))
    assert main(["identity", "bonet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "capacity: 32 deterministic strategies exceed the limit of 31\n"


def test_identity_wrong_residual_at_chained_10_is_found_by_best_response(
    monkeypatch, capsys
):
    # Bell(11, 10) has 2^21 deterministic boxes; a residual that is one
    # coordinate (or every p(11|xy)) off the correct one reads 1 (or nX*nY)
    # at its worst box, found by best response without building a box
    right = inequalities.identity_residual_expression("chained", n=10)
    bell = right.scenario
    ones = [bell.index(x, y, 1, 1) for x in range(bell.nX) for y in range(bell.nY)]
    for plus, want in (([bell.index(3, 2, 0, 1)], "1"), (ones, str(len(ones)))):
        coeffs = list(right.coeffs)
        for i in plus:
            coeffs[i] += 1
        wrong = inequalities.LinearExpression(bell, tuple(coeffs), right.constant)
        monkeypatch.setattr(inequalities, "identity_residual_expression",
                            lambda kind, **params: wrong)
        start = time.perf_counter()
        code = main(["identity", "chained", "--n", "10", "--trials", "0"])
        elapsed = time.perf_counter() - start
        assert code == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"max |residual| over every deterministic box: {want}"
        )
        assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["facets", "--gpt", "-x", "2"],
        ["bounds", "chsh"],
        ["membership", "PR", "--theory", "nosignalling"],
        ["identity", "bonet"],
    ],
    ids=["facets", "bounds", "membership", "identity"],
)
def test_json_output_leaves_no_reference_cycles(capsys, pr_file, argv):
    # json's indenting encoder runs in pure Python and leaves cyclic garbage
    # on every call, so peak memory followed the collector's timing.  The
    # command prints the same bytes and leaves nothing for gc.collect().
    argv = [pr_file if a == "PR" else a for a in argv] + ["--format", "json"]
    main(argv)  # fill the caches a first call fills
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_main_reuses_one_parser(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("main built a new parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    assert main(["bounds", "chsh"]) == 0
    assert main(["bounds"]) == 1
    capsys.readouterr()


def test_identity_usage_errors(capsys):
    assert main(["identity", "tilted", "--trials", "5"]) == 1
    assert main(["identity", "bonet", "--alpha", "2"]) == 1
    assert main(["identity", "tilted", "--alpha", "2", "--n", "7"]) == 1
    assert main(["identity", "chained", "--n", "2", "--alpha", "3"]) == 1
    capsys.readouterr()
    assert main(["identity", "chained"]) == 1
    assert capsys.readouterr() == ("", "error: chained needs a chain length n\n")


def test_identity_rejects_negative_trials(capsys):
    assert main(["identity", "bonet", "--trials", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials takes a count >= 0, got -1\n"
    assert main(["identity", "bonet", "--trials", "0"]) == 0
    assert capsys.readouterr().out.endswith(
        "max |residual| over 0 sampled no-signalling points: 0\n"
    )


def test_output_file(tmp_path):
    target = tmp_path / "facets.txt"
    assert main(["facets", "--classical", "-x", "2", "--output", str(target)]) == 0
    assert "pearl: 4 facets" in target.read_text()


def test_usage_exit_codes(capsys, tmp_path):
    assert main([]) == 1
    assert main(["facets", "--classical"]) == 1  # missing -x
    assert main(["facets", "-x", "2"]) == 1  # missing side
    capsys.readouterr()
    # Bob's input is Alice's outcome, and Bell(2, 2; 3, 3) has no third input
    path = tmp_path / "uniform.json"
    io.save_correlation(uniform_box(Scenario.bell(2, 2, 3, 3)), path)
    assert main(["membership", str(path), "--theory", "classical"]) == 1
    assert capsys.readouterr() == (
        "", "error: wire values exceed the Bell scenario's nY\n"
    )


NUMPY_PROBE = """
import contextlib, io as stdio, json, sys
from instrumental import cli, io
from instrumental.quantum import born_table, tilted_search
from instrumental.scenario import Scenario
io.save_correlation(born_table(tilted_search(1).strategy, Scenario.bell(2, 2)), sys.argv[1])
# the PR box, written inline: a classical "outside" verdict
pr = ["1/2" if (a + b) % 2 == x * y else "0" for x in (0, 1) for y in (0, 1)
      for a in (0, 1) for b in (0, 1)]
with open(sys.argv[2], "w") as fh:
    json.dump({"scenario": {"kind": "bell", "nX": 2, "nY": 2, "nA": 2, "nB": 2},
               "entries": pr}, fh)
runs = [["bounds", "chsh"], ["bounds", "chained", "4"], ["identity", "bonet"],
        ["facets", "--gpt", "-x", "2"],
        ["membership", sys.argv[1], "--theory", "nosignalling", "--with-local-processing"],
        ["membership", sys.argv[2], "--theory", "classical", "--with-local-processing"],
        ["facets", "--classical", "-x", "3"]]
loaded = ["numpy" in sys.modules]
for argv in runs:
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.main(argv)
    loaded.append([code, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_the_double_description(tmp_path):
    # The DD in `facets --classical` is the package's only numpy user.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(tmp_path / "born.json"),
         str(tmp_path / "pr.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    loaded = json.loads(done.stdout)
    assert loaded == [False] + [[0, False]] * 6 + [[0, True]]
