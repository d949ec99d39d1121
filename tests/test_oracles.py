"""Test oracles against the routes the package uses."""

from fractions import Fraction

import pytest

from instrumental.inequalities import catalog, gpt_maximum, pearl_expressions
from instrumental.scenario import Scenario

from oracles import gpt_box_search

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
