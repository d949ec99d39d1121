"""The fraction-free echelon against the `Fraction` RREF oracle, and the
double-description behaviour that rests on it."""

import random
from fractions import Fraction

import pytest

from instrumental.errors import CapacityError
from instrumental.polytope import (
    HPolytope,
    LinearInequality,
    _echelon,
    _null_space,
    _reduce_equalities,
    classical_vpolytope,
    facet_enumeration,
    no_signalling_polytope,
    vertex_enumeration,
)
from instrumental.rationals import integerize
from instrumental.scenario import Scenario

from oracles import (
    affine_dimension,
    no_signalling_equalities,
    rref,
    rref_equalities,
    rref_null_space,
)

F = Fraction


def random_matrix(rng, nrows, ncols):
    """Small signed entries, a third of them zero, with zero rows, rational
    rows and rows that combine earlier ones mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.4 and len(rows) >= 2:
            r1, r2 = rng.sample(rows, 2)
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([c1 * a + c2 * b for a, b in zip(r1, r2)])
        elif kind < 0.55:
            rows.append([F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(ncols)])
        else:
            rows.append([rng.choice([0, 0, 0, 1, -1, 2, -3, 5]) for _ in range(ncols)])
    return rows


MATRICES = [
    random_matrix(random.Random(seed), seed % 9, 1 + seed % 7) for seed in range(120)
] + [
    [],
    [[0, 0, 0], [0, 0, 0]],
    [[-2, 4, -6]],
    [[1, 2], [2, 4], [3, 6], [-1, -2]],
    [[0, -3, 1, 0], [0, 6, -2, 0], [4, 0, 0, -8]],
]


def test_echelon_matches_rref():
    for m in MATRICES:
        rows, pivots = _echelon(m)
        expected_rows, expected_pivots = rref(m)
        assert pivots == expected_pivots
        assert rows == [integerize(r) for r in expected_rows]
        for row, pc in zip(rows, pivots):
            assert row[pc] > 0


def test_null_space_matches_rref():
    for m in MATRICES:
        ncols = len(m[0]) if m else 3
        got = _null_space(*_echelon(m), ncols)
        assert got == [integerize(v) for v in rref_null_space(m, ncols)]
        assert all(type(v) is int for vec in got for v in vec)


def test_reduce_equalities_matches_rref():
    inconsistent = 0
    for m in MATRICES:
        if not m or len(m[0]) < 2:
            continue
        eqs = [(tuple(r[:-1]), r[-1]) for r in m]
        dim = len(m[0]) - 1
        try:
            expected = rref_equalities(eqs, dim)
        except ValueError:
            inconsistent += 1
            with pytest.raises(ValueError, match="inconsistent"):
                _reduce_equalities(eqs, dim)
            continue
        assert _reduce_equalities(eqs, dim) == expected
    assert inconsistent > 5


def test_reduce_equalities_rejects_inconsistent_system():
    eqs = [((F(1), F(1)), F(2)), ((F(2), F(2)), F(5))]
    with pytest.raises(ValueError, match="inconsistent"):
        _reduce_equalities(eqs, 2)


@pytest.mark.parametrize(
    "s",
    [Scenario.bell(2, 2), Scenario.bell(3, 2), Scenario.bell(2, 3, 2, 3), Scenario.bell(4, 3)],
    ids=lambda s: f"bell-{s.nX}{s.nY}{s.nA}{s.nB}",
)
def test_no_signalling_reduction_matches_rref(s):
    eqs = no_signalling_equalities(s)
    reduced = _reduce_equalities(eqs, s.dim)
    assert reduced == rref_equalities(eqs, s.dim)
    assert affine_dimension(no_signalling_polytope(s)) == s.dim - len(reduced)


# Smallest max_rays each hull accepts; they depend on the starting cone and
# the insertion order of the double description.
@pytest.mark.parametrize("n, trip", [(3, 58), (4, 340)])
def test_double_description_trip_points(n, trip):
    v = classical_vpolytope(Scenario.instrumental(n))
    facet_enumeration(v, max_rays=trip)
    row = {3: "26 of 28", 4: "56 of 60"}[n]
    with pytest.raises(CapacityError, match=f"{trip - 1} intermediate rays at row {row}$"):
        facet_enumeration(v, max_rays=trip - 1)


def test_vertex_enumeration_rejects_a_line():
    # -1 <= x0 <= 1 with x1 free
    strip = HPolytope(
        2,
        (
            LinearInequality((F(1), F(0)), F(1)),
            LinearInequality((F(-1), F(0)), F(1)),
        ),
    )
    with pytest.raises(ValueError, match="not pointed"):
        vertex_enumeration(strip)
