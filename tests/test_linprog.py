import random
from fractions import Fraction

import pytest

import instrumental.linprog as linprog
from instrumental.errors import CapacityError
from instrumental.linprog import LpStatus, solve_lp

F = Fraction


def test_maximize_over_a_triangle():
    # max x + y on x, y >= 0, x + y <= 1
    res = solve_lp([1, 1], ineqs=[([1, 1], 1)], nonneg=True)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 1
    assert sum(res.x) == 1


def test_free_variables_need_the_split():
    # max x subject to x <= -3 has a negative optimum
    res = solve_lp([1], ineqs=[([1], -3)], nonneg=False)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == -3 and res.x == (-3,)


def test_exact_fractional_optimum():
    # max 2x + 3y s.t. 3x + 4y <= 12, x + 3y <= 6, x,y >= 0
    res = solve_lp(
        [2, 3], ineqs=[([3, 4], 12), ([1, 3], 6)], nonneg=True
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.x == (F(12, 5), F(6, 5))
    assert res.value == F(42, 5)


def test_optimum_carries_checked_duals():
    res = solve_lp([2, 3], ineqs=[([3, 4], 12), ([1, 3], 6)], nonneg=True)
    assert res.dual == (F(3, 5), F(1, 5))
    # min y as max -y: equality multipliers first, inequality ones >= 0
    res = solve_lp(
        [0, -1],
        eqs=[([1, 1], 1)],
        ineqs=[([-1, 0], 0), ([0, -1], 0)],
    )
    assert res.dual == (0, 0, 1)
    assert solve_lp([1], ineqs=[([1], -3)]).dual == (1,)


@pytest.mark.parametrize(
    "ineqs, eqs, phases",
    [
        ([([2, 0], 2), ([0, 2], 2), ([2, 2], 3)], [], 1),
        ([([1, 0], 1), ([0, 1], -1)], [], 2),
        ([([1, 0], 1)], [([0, 1], 1)], 2),
    ],
    ids=["slack-start", "negative-rhs", "equality"],
)
def test_slack_basis_start_skips_phase_one(monkeypatch, ineqs, eqs, phases):
    calls = []
    loop = linprog._pivot_loop
    monkeypatch.setattr(
        linprog, "_pivot_loop", lambda *a, **k: calls.append(1) or loop(*a, **k)
    )
    res = solve_lp([1, 1], ineqs=ineqs, eqs=eqs)
    assert res.status is LpStatus.OPTIMAL
    assert len(calls) == phases


def test_tableau_cell_limit_counts_the_slack_block(monkeypatch):
    # Two free variables split into four columns.  Three inequalities with
    # rhs >= 0 and one equality store 4 x (4 + 1) cells: each inequality
    # starts on its slack, whose column is never built.  The added row
    # -x <= -1 starts on its artificial, so its slack column is stored:
    # 5 x (4 + 1 + 1) cells.
    ineqs = [([1, 0], 1), ([0, 1], 1), ([1, 1], 3)]
    eqs = [([1, -1], 0)]
    for extra, cells in [([], 20), ([([-1, 0], -1)], 30)]:
        monkeypatch.setattr(linprog, "_CELL_LIMIT", cells - 1)
        with pytest.raises(
            CapacityError, match=f"{4 + len(extra)} rows would store {cells} tableau cells"
        ):
            solve_lp([1, 1], ineqs=ineqs + extra, eqs=eqs)
        monkeypatch.setattr(linprog, "_CELL_LIMIT", cells)
        assert solve_lp([1, 1], ineqs=ineqs + extra, eqs=eqs).value == 2


def test_equality_constraints():
    # min y as max -y
    res = solve_lp(
        [0, -1],
        eqs=[([1, 1], 1)],
        ineqs=[([-1, 0], 0), ([0, -1], 0)],
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 0 and res.x == (1, 0)


def test_unbounded_detection():
    res = solve_lp([1, 0], ineqs=[([0, 1], 1)], nonneg=True)
    assert res.status is LpStatus.UNBOUNDED
    assert res.x is None


def test_infeasible_returns_checked_farkas():
    # x >= 2 and x <= 1 cannot hold together
    res = solve_lp([0], ineqs=[([-1], -2), ([1], 1)], nonneg=True)
    assert res.status is LpStatus.INFEASIBLE
    y = res.farkas
    assert len(y) == 2 and all(v <= 0 for v in y)
    # y combines the rows into 0 <= negative
    assert y[0] * F(-2) + y[1] * F(1) > 0


def test_farkas_on_equality_system():
    # w1 + w2 = 1, w1 - w2 = 3, w >= 0 is infeasible (w2 = -1)
    res = solve_lp(
        [0, 0], eqs=[([1, 1], 1), ([1, -1], 3)], nonneg=True
    )
    assert res.status is LpStatus.INFEASIBLE
    y = res.farkas
    assert sum(yi * r for yi, r in zip(y, (1, 3))) > 0
    for col in ((1, 1), (1, -1)):
        assert sum(yi * a for yi, a in zip(y, col)) <= 0


def test_degenerate_problem_terminates():
    # Classic cycling-prone instance (Beale); Bland's rule must terminate.
    # Its minimum is stated as the maximum of the negated objective, and
    # the objective and the rows are each scaled by 100 to integers.
    res = solve_lp(
        [75, -15000, 2, -600],  # -100 (-3/4, 150, -1/50, 6)
        ineqs=[
            ([25, -6000, -4, 900], 0),  # 100 (1/4, -60, -1/25, 9)
            ([50, -9000, -2, 300], 0),  # 100 (1/2, -90, -1/50, 3)
            ([0, 0, 100, 0], 100),
        ],
        nonneg=True,
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 100 * F(1, 20)


def test_redundant_equalities_are_tolerated():
    res = solve_lp(
        [1, 1],
        eqs=[([1, 1], 1), ([2, 2], 2)],
        nonneg=True,
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 1


def test_random_lps_agree_with_vertex_scan():
    # Over a box with one extra cut, compare against brute force on vertices
    # of the arrangement via rational enumeration of active sets.
    rng = random.Random(11)
    for _ in range(20):
        c = [rng.randint(-5, 5) for _ in range(3)]
        cut = [rng.randint(-3, 3) for _ in range(3)]
        rhs = rng.randint(1, 6)
        ineqs = [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1), (cut, rhs)]
        res = solve_lp(c, ineqs=ineqs, nonneg=True)
        best = None
        for xv in range(2):
            for yv in range(2):
                for zv in range(2):
                    pt = (F(xv), F(yv), F(zv))
                    if sum(a * v for a, v in zip(cut, pt)) <= rhs:
                        val = sum(a * v for a, v in zip(c, pt))
                        best = val if best is None else max(best, val)
        # The LP optimum is at least the best box-vertex value and is exact.
        assert res.status is LpStatus.OPTIMAL
        if best is not None:
            assert res.value >= best


def test_zero_objective_reports_feasibility():
    res = solve_lp([0, 0], eqs=[([1, 1], 1)], nonneg=True)
    assert res.status is LpStatus.OPTIMAL and res.value == 0


def test_constraint_length_must_match_the_objective():
    with pytest.raises(ValueError, match="length"):
        solve_lp([1, 1], ineqs=[([1], 1)])
