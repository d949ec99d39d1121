"""Certificates are checked by raising `CertificateError`, never by
`assert`, so a tampered solver answer is caught even under ``python -O``."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

import instrumental.inequalities as inequalities
import instrumental.polytope as polytope
from instrumental import io
from instrumental.cli import main
from instrumental.errors import CertificateError
from instrumental.inequalities import extension_membership, symmetry_group
import instrumental.linprog as linprog
from instrumental.linprog import LpStatus, _check_dual, _check_farkas, solve_lp
from instrumental.polytope import classical_vpolytope, facet_enumeration, facet_orbits
from instrumental.scenario import Correlation, Scenario, postselect

from oracles import CUT_BOX, pr_box

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "instrumental"
INSTR2 = Scenario.instrumental(2)
INSTR3 = Scenario.instrumental(3)


def wired_pr():
    return postselect(pr_box(), INSTR2)


def signalling_table():
    """Alice always answers 0, so Bob always gets y = 0, yet Bob's answer
    follows x: no no-signalling box post-selects to it."""
    entries = [Fraction(0)] * INSTR2.dim
    entries[INSTR2.index(0, 0, 0)] = Fraction(1)
    entries[INSTR2.index(1, 0, 1)] = Fraction(1)
    return Correlation(INSTR2, tuple(entries))


def tamper(monkeypatch, module, status, **changes):
    def tampered(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        if res.status is status:
            res = dataclasses.replace(res, **{k: f(res) for k, f in changes.items()})
        return res

    monkeypatch.setattr(module, "solve_lp", tampered)


def shifted_weights(res):
    # still sums to one, but mixes to a different table
    return (res.x[0] + Fraction(1, 2), res.x[1] - Fraction(1, 2)) + res.x[2:]


def negated_farkas(res):
    return tuple(-y for y in res.farkas)


def test_tampered_membership_weights_raise(monkeypatch):
    assert extension_membership(wired_pr(), "classical").inside
    tamper(monkeypatch, polytope, LpStatus.OPTIMAL, x=shifted_weights)
    with pytest.raises(CertificateError):
        extension_membership(wired_pr(), "classical")


def test_tampered_farkas_vector_raises(monkeypatch):
    assert not extension_membership(signalling_table(), "nosignalling").inside
    tamper(monkeypatch, inequalities, LpStatus.INFEASIBLE, farkas=negated_farkas)
    with pytest.raises(CertificateError):
        extension_membership(signalling_table(), "nosignalling")
    tamper(monkeypatch, inequalities, LpStatus.INFEASIBLE, farkas=lambda res: None)
    with pytest.raises(CertificateError):
        extension_membership(signalling_table(), "nosignalling")


@pytest.mark.parametrize(
    "table, theory, module, status, change",
    [
        (wired_pr, "classical", polytope, LpStatus.OPTIMAL, {"x": shifted_weights}),
        (signalling_table, "nosignalling", inequalities, LpStatus.INFEASIBLE,
         {"farkas": negated_farkas}),
        (wired_pr, "nosignalling", inequalities, LpStatus.OPTIMAL,
         {"x": lambda res: (res.x[0] + 1, *res.x[1:])}),
    ],
    ids=["weights", "farkas", "extension"],
)
def test_failed_certificate_exits_3(
    monkeypatch, tmp_path, capsys, table, theory, module, status, change
):
    path = tmp_path / "table.json"
    io.save_correlation(table(), path)
    argv = ["membership", str(path), "--theory", theory]
    assert main(argv) == 0
    tamper(monkeypatch, module, status, **change)
    assert main(argv) == 3
    assert "certificate:" in capsys.readouterr().err


def test_bad_farkas_vector_raises():
    # x0 + x1 = 1 and x0 - x1 = 3 force x1 = -1, so no x >= 0 solves them.
    # y = (-1, 1) proves it: y . A = (0, -2) <= 0 and y . rhs = 2 > 0.
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    rhs = [Fraction(1), Fraction(3)]
    _check_farkas([Fraction(-1), Fraction(1)], rows, rhs)
    for y in ([1, 1], [0, 0], [1, -1]):
        with pytest.raises(CertificateError):
            _check_farkas([Fraction(v) for v in y], rows, rhs)


def test_bad_dual_raises():
    # max 2x + 3y s.t. 3x + 4y <= 12, x + 3y <= 6, x, y >= 0 has the optimum
    # 42/5, proved by the multipliers (3/5, 1/5).
    ineqs = [([3, 4], 12), ([1, 3], 6)]
    _check_dual([F(3, 5), F(1, 5)], [2, 3], ineqs, [], True, F(42, 5))
    for y in ([F(3, 5), F(1, 4)], [F(1), F(-1, 5)], [F(3, 5)]):
        with pytest.raises(CertificateError):
            _check_dual(y, [2, 3], ineqs, [], True, F(42, 5))
    # free variables need y . A equal to the objective, not just above it
    with pytest.raises(CertificateError):
        _check_dual([F(1), F(1)], [2, 3], ineqs, [], False, F(18))


# x0 + x1 = 1 (an equality) and x0 + x1 <= 0 cannot both hold.  y = (1/2,
# -1/2, 0) proves it, tight in every condition: the multiplier of x1 <= 5
# is 0, y . rhs is one unit (1/2) above 0 and y . A is 0.
FARKAS = ([[1, 1], [1, 1], [0, 1]], [1, 0, 5], [F(1, 2), F(-1, 2), 0])


@pytest.mark.parametrize("rows_as", [1, F(1, 3)], ids=["int-rows", "fraction-rows"])
@pytest.mark.parametrize("y_as", [1, 2], ids=["fraction-y", "int-y"])
@pytest.mark.parametrize(
    "entry, step, nonneg, message",
    [
        (2, 1, True, "wrong sign"),
        (0, -1, True, "does not witness"),
        (0, 1, True, "column inequality"),
        (1, -1, False, "column inequality"),  # y . A < 0 is enough only for x >= 0
    ],
    ids=["sign", "rhs", "columns", "free-columns"],
)
def test_farkas_check_fails_one_unit_off(rows_as, y_as, entry, step, nonneg, message):
    rows, rhs, y = FARKAS
    rows = [[a * rows_as for a in row] for row in rows]
    rhs = [b * rows_as for b in rhs]
    y = [v * y_as for v in y]
    _check_farkas(y, rows, rhs, 1, nonneg)
    y[entry] += step * F(y_as, 2)  # one unit of y
    if entry == 1:
        _check_farkas(y, rows, rhs, 1, True)
    with pytest.raises(CertificateError, match=message):
        _check_farkas(y, rows, rhs, 1, nonneg)


# max 2x + 3y s.t. 3x + 4y <= 12, x + 3y <= 6, x <= 10 over x, y >= 0 has
# the optimum 42/5, proved by y = (3/5, 1/5, 0), tight in every condition:
# the multiplier of x <= 10 is 0 and y . A equals the objective.  One unit
# of y is 1/5.
DUAL = ([2, 3], [([3, 4], 12), ([1, 3], 6), ([1, 0], 10)], [F(3, 5), F(1, 5), 0])


@pytest.mark.parametrize("rows_as", [1, F(1, 3)], ids=["int-rows", "fraction-rows"])
@pytest.mark.parametrize(
    "change, nonneg, message",
    [
        (("y", 2, -1), True, "wrong sign"),
        (("y", 0, 1), True, "do not attain"),
        (("objective", 1, 1), True, "infeasible"),
        (("objective", 1, -1), False, "infeasible"),  # free x needs y . A == objective
    ],
    ids=["sign", "attainment", "feasibility", "free-feasibility"],
)
def test_dual_check_fails_one_unit_off(rows_as, change, nonneg, message):
    objective, ineqs, y = DUAL
    ineqs = [([a * rows_as for a in c], b * rows_as) for c, b in ineqs]
    y = [F(v) / rows_as for v in y]  # rows times k take the multipliers over k
    objective = list(objective)
    _check_dual(y, objective, ineqs, [], nonneg, F(42, 5))
    which, entry, step = change
    target = y if which == "y" else objective
    target[entry] += step * F(1, 5)  # one unit
    with pytest.raises(CertificateError, match=message):
        _check_dual(y, objective, ineqs, [], nonneg, F(42, 5))


@pytest.mark.parametrize("eqs", [[], [([1, 1], 1)]], ids=["slack-start", "two-phase"])
def test_tampered_lp_dual_raises(monkeypatch, eqs):
    args = dict(ineqs=[([1, 0], 1), ([0, 1], 1)], eqs=eqs, nonneg=True)
    assert solve_lp([1, 2], **args).dual is not None
    simplex = linprog._simplex_standard

    def tampered(*a):
        status, x, y = simplex(*a)  # y as (numerator, denominator) pairs
        return status, x, [(3 * n + d, 3 * d) for n, d in y]  # y + 1/3

    monkeypatch.setattr(linprog, "_simplex_standard", tampered)
    with pytest.raises(CertificateError, match="dual"):
        solve_lp([1, 2], **args)


# x <= 1 and y <= 1 imply x + y <= 2; nothing implies x <= 1
SQUARE = [((1, 0), 1), ((0, 1), 1), ((1, 1), 2)]


def test_bad_pruning_certificates_raise():
    polytope._check_implied(SQUARE[2], SQUARE[:2], (), [F(1), F(1)])
    for y in ([F(1), F(1, 2)], [F(2), F(1)], [F(1)]):
        with pytest.raises(CertificateError):
            polytope._check_implied(SQUARE[2], SQUARE[:2], (), y)
    # x = (x + y) - y cancels, but a negative multiplier proves nothing
    with pytest.raises(CertificateError, match="nonnegative"):
        polytope._check_implied(SQUARE[0], SQUARE[:0:-1], (), [F(1), F(-1)])
    polytope._check_violated(SQUARE[0], SQUARE[1:], (), [2, 0], 1)
    polytope._check_violated(SQUARE[0], SQUARE[1:], (), [4, 0], 2)
    # moved back inside x <= 1, or out of y <= 1, or off an equality; the
    # last two pass every row test only because den <= 0 flips its sense
    for xs, den, eqs in (
        ([1, 0], 1, ()), ([3, 3], 2, ()), ([2, 0], 1, (((0, 1), 1),)),
        ([0, -2], -1, ()), ([1, -1], 0, ()),
    ):
        with pytest.raises(CertificateError):
            polytope._check_violated(SQUARE[0], SQUARE[1:], eqs, xs, den)


def test_pruning_check_runs_no_fourier_motzkin_substitution(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the pruning check shares no elimination with FM")

    monkeypatch.setattr(polytope, "_eliminate_leads", unreachable)
    polytope._check_implied(SQUARE[2], SQUARE[:2], (), [F(1), F(1)])
    with pytest.raises(CertificateError, match="not implied"):
        polytope._check_implied(SQUARE[2], SQUARE[:2], (), [F(1), F(1, 2)])
    # y <= 1 follows from x <= 1 only on the line x = y, whichever sign
    # the equality's lead has
    for eq in (((1, -1), 0), ((-1, 1), 0), ((-2, 2), 0)):
        polytope._check_implied(SQUARE[1], SQUARE[:1], (eq,), [F(1)])
    with pytest.raises(CertificateError, match="not implied"):
        polytope._check_implied(SQUARE[1], SQUARE[:1], (), [F(1)])
    # on -x = -1, x <= 2 holds and x <= 0 does not: a negative lead must not
    # flip the row's sense
    polytope._check_implied(((1, 0), 2), [], (((-1, 0), -1),), [])
    with pytest.raises(CertificateError, match="not implied"):
        polytope._check_implied(((1, 0), 0), [], (((-1, 0), -1),), [])


def shifted_dual(res):
    return (res.dual[0] + Fraction(1, 2),) + res.dual[1:]


def test_tampered_pruning_multiplier_exits_3(monkeypatch, capsys):
    argv = ["facets", "--gpt", "-x", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    tamper(monkeypatch, polytope, LpStatus.OPTIMAL, dual=shifted_dual)
    assert main(argv) == 3
    assert "a pruned row is not implied" in capsys.readouterr().err


def zero_pruning_points(monkeypatch):
    """Row LPs that return z = 0, which maps back to x0 and so meets every
    row.  A row LP is one whose last row, its cap, has the objective as
    coefficients; the feasibility LP that finds x0 and the interior-point LP
    are left alone."""
    def tampered(objective, **kwargs):
        res = solve_lp(objective, **kwargs)
        ineqs = kwargs.get("ineqs", ())
        if not ineqs or tuple(ineqs[-1][0]) != tuple(objective):
            return res
        return dataclasses.replace(res, x=(Fraction(0),) * len(res.x))

    monkeypatch.setattr(polytope, "solve_lp", tampered)


def center_shots(monkeypatch):
    """Ray shooting that hands back its starting point, strictly inside
    every row, in place of the point just past the row it keeps."""
    shoot = polytope._shoot

    def tampered(i, local, center, rays):
        return None if shoot(i, local, center, rays) is None else center

    monkeypatch.setattr(polytope, "_shoot", tampered)


def test_tampered_pruning_witness_exits_3(monkeypatch, capsys):
    # every kept row of this projection is kept by ray shooting
    argv = ["facets", "--gpt", "-x", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    center_shots(monkeypatch)
    assert main(argv) == 3
    assert "a kept row has no witness" in capsys.readouterr().err


def test_kept_row_witness_inside_its_row_raises(monkeypatch):
    # the cut of CUT_BOX is kept by its LP, not by ray shooting
    assert polytope._prune_redundant(CUT_BOX, ()) == CUT_BOX
    zero_pruning_points(monkeypatch)
    with pytest.raises(CertificateError, match="no witness"):
        polytope._prune_redundant(CUT_BOX, ())


def test_orbit_classification_rejects_open_facet_list():
    h = facet_enumeration(classical_vpolytope(INSTR2))
    generators = symmetry_group(INSTR2).generators
    assert facet_orbits(h, generators)
    with pytest.raises(ValueError, match="group-closed"):
        facet_orbits(dataclasses.replace(h, inequalities=h.inequalities[1:]), generators)


def _instrumental_hull(s):
    v = classical_vpolytope(s)
    return v, polytope.adjacency_decomposition(v, symmetry_group(s).generators)[0]


def test_tampered_facet_raises(monkeypatch):
    v, h = _instrumental_hull(INSTR3)
    facets = list(h.inequalities)
    polytope._check_facets(v.vertices, facets, facets[:1], h.equalities)
    tightened = polytope.LinearInequality(facets[5].coeffs, facets[5].bound - 1)
    with pytest.raises(CertificateError, match="cuts off"):
        polytope._check_facets(
            v.vertices, facets[:5] + [tightened] + facets[6:], facets[:1], h.equalities
        )

    # a search whose orbit step slips in a tightened copy of each seed
    orbit = polytope._orbit

    def tampered(seed, generators, equalities):
        out = orbit(seed, generators, equalities)
        return out | {polytope.LinearInequality(seed.coeffs, seed.bound - 1)}

    monkeypatch.setattr(polytope, "_orbit", tampered)
    with pytest.raises(CertificateError, match="cuts off"):
        _instrumental_hull(INSTR3)


def test_tampered_representative_raises():
    v, h = _instrumental_hull(INSTR3)
    facets = list(h.inequalities)
    # valid on every vertex, but tight only where both facets are
    merged = polytope.reduce_modulo(
        polytope.LinearInequality(
            tuple(a + b for a, b in zip(facets[0].coeffs, facets[-1].coeffs)),
            facets[0].bound + facets[-1].bound,
        ),
        h.equalities,
    )
    polytope._check_facets(v.vertices, facets + [merged], facets[:1], h.equalities)
    with pytest.raises(CertificateError, match="not a facet"):
        polytope._check_facets(
            v.vertices, facets + [merged], [facets[0], merged], h.equalities
        )
    with pytest.raises(CertificateError, match="not a facet"):
        polytope._check_facets(v.vertices, facets[1:], facets[:1], h.equalities)


def test_facet_check_takes_its_ranks_over_gf_p(monkeypatch):
    v, h = _instrumental_hull(INSTR3)
    facets = list(h.inequalities)

    def unreachable(*args, **kwargs):
        raise AssertionError("the facet check shares no echelon with the search")

    monkeypatch.setattr(polytope, "_echelon", unreachable)
    polytope._check_facets(v.vertices, facets, facets, h.equalities)
    (coeffs, rhs), *rest = h.equalities
    merged = polytope.LinearInequality(
        tuple(a + b for a, b in zip(facets[0].coeffs, facets[-1].coeffs)),
        facets[0].bound + facets[-1].bound,
    )
    # tight on every vertex: its tight set has the hull's full rank
    flat = polytope.LinearInequality(coeffs, rhs)
    for extra in (merged, flat):
        with pytest.raises(CertificateError, match="not a facet"):
            polytope._check_facets(v.vertices, facets + [extra], [extra], h.equalities)
    for equalities in (
        rest,  # one equality short: the hull has a larger rank
        [(coeffs, rhs), (coeffs, rhs), *rest],  # dependent equalities
        [(coeffs, rhs + 1), *rest],  # an equality off the vertices
    ):
        with pytest.raises(CertificateError):
            polytope._check_facets(v.vertices, facets, facets[:1], equalities)


def plus_positivity(separate):
    """`_separating_facet` returning its facet plus -x_i <= 0 at the first
    coordinate where the point is 0: the sum of two valid rows, violated by
    the same margin, but tight only where both are."""
    def tampered(q, verts):
        f, equalities = separate(q, verts)
        coeffs = list(f.coeffs)
        coeffs[q.index(0)] -= 1
        return polytope.LinearInequality(tuple(coeffs), f.bound), equalities

    return tampered


def loosened(separate):
    """`_separating_facet` returning its facet with the bound raised by
    less than the margin: still separating, but tight on no vertex."""
    def tampered(q, verts):
        f, equalities = separate(q, verts)
        loose = polytope.LinearInequality(f.coeffs, f.bound + f.violation(q) / 2)
        return loose, equalities

    return tampered


@pytest.mark.parametrize("change", [plus_positivity, loosened])
def test_non_facet_separator_raises(monkeypatch, change):
    square = polytope.VPolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    q = (F(2), F(0))
    cert = polytope.membership(q, square)
    assert cert.separator == polytope.LinearInequality((1, 0), 1)
    monkeypatch.setattr(
        polytope, "_separating_facet", change(polytope._separating_facet)
    )
    with pytest.raises(CertificateError, match="not a facet"):
        polytope.membership(q, square)


def test_non_facet_separator_exits_3(monkeypatch, tmp_path, capsys):
    path = tmp_path / "pr.json"
    io.save_correlation(pr_box(), path)
    argv = ["membership", str(path), "--theory", "classical", "--with-local-processing"]
    assert main(argv) == 0
    monkeypatch.setattr(
        polytope, "_separating_facet", plus_positivity(polytope._separating_facet)
    )
    assert main(argv) == 3
    assert "not a facet" in capsys.readouterr().err


SQUARE_2D = [(0, 0), (1, 0), (0, 1), (1, 1)]
# the same square on the plane z = 1 of R^3: one affine-hull equality
SQUARE_3D = [(x, y, 1) for x, y in SQUARE_2D]


@pytest.mark.parametrize("points", [SQUARE_2D, SQUARE_3D])
def test_separator_check_takes_its_ranks_over_gf_p(monkeypatch, points):
    square = polytope.VPolytope.from_points(points)
    q = tuple(F(v) for v in (2, *points[0][1:]))
    sep, equalities = polytope._separating_facet(q, square.vertices)
    bad, _ = plus_positivity(polytope._separating_facet)(q, square.vertices)
    assert len(equalities) == len(points[0]) - 2

    def unreachable(*args, **kwargs):
        raise AssertionError("the separator check shares no echelon with the search")

    monkeypatch.setattr(polytope, "_echelon", unreachable)
    polytope._check_separator(sep, sep.violation(q), square.vertices, equalities)
    with pytest.raises(CertificateError, match="not a facet"):
        polytope._check_separator(bad, bad.violation(q), square.vertices, equalities)


def short_of_one(equalities):
    return equalities[1:]


def doubled(equalities):
    return equalities[:1] + equalities


def shifted(equalities):
    (coeffs, rhs), *rest = equalities
    return [(coeffs, rhs + 1), *rest]


@pytest.mark.parametrize("change", [short_of_one, doubled, shifted])
def test_separator_with_wrong_equalities_raises(monkeypatch, change):
    square = polytope.VPolytope.from_points(SQUARE_3D)
    q = (F(2), F(0), F(1))
    assert not polytope.membership(q, square).inside
    separate = polytope._separating_facet

    def tampered(q, verts):
        sep, equalities = separate(q, verts)
        return sep, change(equalities)

    monkeypatch.setattr(polytope, "_separating_facet", tampered)
    with pytest.raises(CertificateError):
        polytope.membership(q, square)


# Each check of a certificate, and the routines that find what it checks:
# no check may reach a finder through any chain of calls.
CHECKS = [
    ("polytope", "_check_facets"), ("polytope", "_check_separator"),
    ("polytope", "_check_implied"), ("polytope", "_check_violated"),
    ("linprog", "_check_dual"), ("linprog", "_check_farkas"),
    ("polytope", "_check_generators"),
]
FINDERS = {
    "_echelon", "_rank", "_eliminate_leads", "_null_space", "_reduce_equalities",
    "_affine_hull", "_dd_pointed", "_full_adjacency_test", "solve_lp",
    "_simplex_standard", "_phase_two", "_pivot_loop", "_pivot",
    "_interior_rays", "_shoot", "_separating_facet",
}


def finder_chains(sources, roots=CHECKS, finders=FINDERS):
    """Every chain of uses from a root function to a finder, as
    "a → b → c" strings, in the modules that `sources` maps by name to their
    text.

    A name resolves to its own module's top-level definition, else to what
    a `from .module import name` in that module names; `module.name`
    resolves through a `from . import module`.  Every use counts, called or
    passed on, and a class counts with all of its methods.  Names that
    resolve to nothing here (builtins, numpy, attributes of values) end a
    chain.  A chain that a longer reported chain extends is left out."""
    defs, imported = {}, {}
    for mod, text in sources.items():
        tree = ast.parse(text)
        imported[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    imported[mod][alias.asname or alias.name] = target

    def uses(mod, name):
        for node in ast.walk(defs[mod, name]):
            if isinstance(node, ast.Name):
                key = (mod, node.id) if (mod, node.id) in defs else imported[mod].get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, inner = imported[mod].get(node.value.id, (None, "?"))
                key = (module, node.attr) if inner is None else None
            else:
                continue
            if key in defs and key != (mod, name):
                yield key

    chains = []
    for root in roots:
        path = {root: [root[1]]}
        frontier = [root]
        while frontier:
            node = frontier.pop(0)
            for key in uses(*node):
                if key not in path:
                    path[key] = path[node] + [key[1]]
                    frontier.append(key)
                    if key[1] in finders:
                        chains.append(" → ".join(path[key]))
    return sorted(c for c in chains if not any(o.startswith(c + " → ") for o in chains))


def test_no_check_reaches_a_finder():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert finder_chains(sources) == []


SYNTHETIC = {
    "polytope": """
from .linprog import helper
from . import linprog

def _check_facets(rows):
    return _reduced(rows)

def _check_separator(rows):
    return helper(rows)

def _check_implied(rows):
    return sorted(rows, key=_echelon)

def _check_violated(rows):
    return linprog._pivot(rows)

def _check_generators(rows):
    return set(rows)

def _reduced(rows):
    return rows

def _echelon(rows):
    return rows
""",
    "linprog": """
from .polytope import _echelon as elimination

def helper(rows):
    return elimination(rows)

def _check_dual(rows):
    return _reduced(rows)

def _check_farkas(rows):
    return len(rows)

def _reduced(rows):
    return _pivot(rows)

def _pivot(rows):
    return rows
""",
}


def test_finder_chains_on_a_synthetic_source():
    # `_reduced` is innocent in polytope and calls `_pivot` in linprog; a
    # finder is found through an aliased import, a module attribute, and a
    # function passed on without being called
    assert finder_chains(SYNTHETIC) == [
        "_check_dual → _reduced → _pivot",
        "_check_implied → _echelon",
        "_check_separator → helper → _echelon",
        "_check_violated → _pivot",
    ]


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (
            isinstance(node, ast.Raise)
            and node.exc is not None
            and "AssertionError" in ast.unparse(node.exc)
        )
    ]
    assert not found, f"soundness checks must raise, not assert: {found}"
