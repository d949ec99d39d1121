"""CLI stdout and exit codes compared byte for byte against recorded output.

The files under ``tests/golden/`` hold what each command printed when it was
recorded.  A refactor that should not change any answer keeps them equal.
To re-record after an intended output change, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import tempfile
from pathlib import Path

import pytest

from instrumental import io
from instrumental.cli import main
from instrumental.quantum import born_table, tilted_search
from instrumental.scenario import Scenario, postselect

from oracles import pr_box

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; "{pr}", "{wired_pr}" and "{chsh}" stand for the table files
CASES = {
    "facets_classical_x2": ["facets", "--classical", "-x", "2"],
    "facets_classical_x2_json": ["facets", "--classical", "-x", "2", "--format", "json"],
    "facets_classical_x2_porta": ["facets", "--classical", "-x", "2", "--format", "porta"],
    "facets_classical_x3": ["facets", "--classical", "-x", "3"],
    "facets_classical_x3_json": ["facets", "--classical", "-x", "3", "--format", "json"],
    "facets_classical_x4_json": ["facets", "--classical", "-x", "4", "--format", "json"],
    "facets_classical_x5_json": ["facets", "--classical", "-x", "5", "--format", "json"],
    "facets_classical_x2_a3_b3_json": [
        "facets", "--classical", "-x", "2", "-a", "3", "-b", "3", "--format", "json",
    ],
    "facets_classical_x2_a4_b4_json": [
        "facets", "--classical", "-x", "2", "-a", "4", "-b", "4", "--format", "json",
    ],
    "facets_gpt_x2_json": ["facets", "--gpt", "-x", "2", "--format", "json"],
    "facets_gpt_x3_json": ["facets", "--gpt", "-x", "3", "--format", "json"],
    "facets_gpt_x4_json": ["facets", "--gpt", "-x", "4", "--format", "json"],
    "facets_gpt_x2_a3_json": ["facets", "--gpt", "-x", "2", "-a", "3", "--format", "json"],
    "facets_gpt_x2_b3_json": ["facets", "--gpt", "-x", "2", "-b", "3", "--format", "json"],
    "facets_gpt_x5_json": ["facets", "--gpt", "-x", "5", "--format", "json"],
    "facets_gpt_x2_a3_b3_json": [
        "facets", "--gpt", "-x", "2", "-a", "3", "-b", "3", "--format", "json",
    ],
    "facets_gpt_x3_b3_json": ["facets", "--gpt", "-x", "3", "-b", "3", "--format", "json"],
    "bounds_bonet": ["bounds", "bonet"],
    "bounds_bonet_json": ["bounds", "bonet", "--format", "json"],
    "bounds_chsh_json": ["bounds", "chsh", "--format", "json"],
    "bounds_tilted_3_2_json": ["bounds", "tilted", "3/2", "--format", "json"],
    "bounds_chained_4_csv": ["bounds", "chained", "4", "--format", "csv"],
    "bounds_tilted_chsh_2_json": ["bounds", "tilted_chsh", "2", "--format", "json"],
    "bounds_chained_bell_4": ["bounds", "chained_bell", "4"],
    "bounds_chained_6_json": ["bounds", "chained", "6", "--format", "json"],
    "bounds_tilted_100_json": ["bounds", "tilted", "100", "--format", "json"],
    "bounds_chained_bell_6_json": ["bounds", "chained_bell", "6", "--format", "json"],
    "identity_bonet_20": ["identity", "bonet", "--trials", "20"],
    "identity_chained_3_5": ["identity", "chained", "--n", "3", "--trials", "5"],
    "identity_chained_7_0": ["identity", "chained", "--n", "7", "--trials", "0"],
    "identity_chained_6_0_json": [
        "identity", "chained", "--n", "6", "--trials", "0", "--format", "json",
    ],
    "membership_wired_pr": ["membership", "{wired_pr}", "--theory", "classical"],
    "membership_wired_pr_local": [
        "membership", "{wired_pr}", "--theory", "classical", "--with-local-processing",
    ],
    "membership_bell_pr": ["membership", "{pr}", "--theory", "classical"],
    "membership_bell_pr_local": [
        "membership", "{pr}", "--theory", "classical", "--with-local-processing",
    ],
    "membership_bell_pr_json": [
        "membership", "{pr}", "--theory", "classical", "--format", "json",
    ],
    "membership_wired_pr_nosignalling_json": [
        "membership", "{wired_pr}", "--theory", "nosignalling", "--format", "json",
    ],
    "membership_bell_chsh_born": ["membership", "{chsh}", "--theory", "classical"],
}


def _tables(directory: Path) -> dict[str, str]:
    paths = {name: directory / f"{name}.json" for name in ("pr", "wired_pr", "chsh")}
    io.save_correlation(pr_box(), paths["pr"])
    io.save_correlation(postselect(pr_box(), Scenario.instrumental(2)), paths["wired_pr"])
    # a float Born table, which membership rationalizes before its exact test
    io.save_correlation(born_table(tilted_search(1).strategy, Scenario.bell(2, 2)), paths["chsh"])
    return {k: str(v) for k, v in paths.items()}


def _run(argv: list[str], tables: dict[str, str]) -> tuple[int, str]:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**tables) for a in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    return _tables(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tables):
    code, out = _run(CASES[name], tables)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        tables = _tables(Path(tmp))
        for name, argv in sorted(CASES.items()):
            codes[name], out = _run(argv, tables)
            (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
