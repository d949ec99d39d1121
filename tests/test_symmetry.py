"""The relabelling generators and the orbit walk against their oracles: the
general relabelling map, the classical vertex set, and a walk through
inverse tables."""

import dataclasses
import os

import pytest

import instrumental.cli as cli
import instrumental.polytope as polytope
from instrumental.cli import main
from instrumental.errors import CertificateError
from instrumental.inequalities import symmetry_group
from instrumental.polytope import LinearInequality, _eliminate_leads, classical_vpolytope
from instrumental.scenario import Scenario

from oracles import _relabelling_map

SHAPES = [(x, a, b) for x in range(1, 5) for a in (2, 3) for b in (2, 3)]


def swapped(n, i):
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def transpositions(s):
    """Adjacent transpositions of inputs, of Alice's outputs at every input
    and of Bob's outputs at each wire value, in that order, each built
    through the general relabelling map."""
    xs = tuple(range(s.nX))
    a_ids = [tuple(range(s.nA))] * s.nX
    b_ids = [tuple(range(s.nB))] * s.nY
    gens = [_relabelling_map(s, s, swapped(s.nX, i), a_ids, b_ids) for i in range(s.nX - 1)]
    gens += [
        _relabelling_map(s, s, xs, [swapped(s.nA, i)] * s.nX, b_ids) for i in range(s.nA - 1)
    ]
    for y in range(s.nY):
        for i in range(s.nB - 1):
            b_perms = list(b_ids)
            b_perms[y] = swapped(s.nB, i)
            gens.append(_relabelling_map(s, s, xs, a_ids, b_perms))
    return tuple(gens)


def inverse_table_orbit(seed, generators, equalities):
    """The orbit walked through each generator's inverse table, coordinate i
    moving to perm[i]."""
    eliminate = _eliminate_leads(equalities)
    inverses = []
    for perm in generators:
        inverse = [0] * len(perm)
        for i, j in enumerate(perm):
            inverse[j] = i
        inverses.append((*inverse, len(perm)))
    start = (*seed.coeffs, seed.bound)
    orbit, frontier = {start}, [start]
    while frontier:
        cur = frontier.pop()
        for inverse in inverses:
            img = eliminate([cur[i] for i in inverse])
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return frozenset(LinearInequality(row[:-1], row[-1]) for row in orbit)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda a: "x".join(map(str, a)))
def test_generators_are_the_oracle_transpositions(shape):
    s = Scenario.instrumental(*shape)
    assert symmetry_group(s).generators == transpositions(s)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda a: "x".join(map(str, a)))
def test_generators_map_the_vertex_set_onto_itself(shape):
    s = Scenario.instrumental(*shape)
    vertices = set(classical_vpolytope(s).vertices)
    for perm in symmetry_group(s).generators:
        images = set()
        for v in vertices:
            w = [None] * len(v)
            for i, c in enumerate(v):
                w[perm[i]] = c
            images.add(tuple(w))
        assert images == vertices


@pytest.mark.parametrize(
    "argv",
    [["--classical", "-x", "4"], ["--gpt", "-x", "3"]],
    ids=lambda a: "".join(a).replace("-", ""),
)
def test_orbit_matches_an_inverse_table_walk(monkeypatch, argv):
    walked = []
    walk = polytope._orbit

    def checked(seed, generators, equalities):
        orbit = walk(seed, generators, equalities)
        assert orbit == inverse_table_orbit(seed, generators, equalities)
        walked.append(orbit)
        return orbit

    monkeypatch.setattr(polytope, "_orbit", checked)
    assert main(["facets", *argv, "--format", "json", "--output", os.devnull]) == 0
    assert walked


def test_check_generators_rejects_what_is_no_symmetry():
    s = Scenario.instrumental(2)
    hom = [(1, *v) for v in classical_vpolytope(s).vertices]
    generators = symmetry_group(s).generators
    polytope._check_generators(hom, generators)
    identity = tuple(range(s.dim))
    for perm in ((0, *identity[:-1]), identity[:-1], swapped(s.dim, 0)):
        with pytest.raises(CertificateError, match=f"generator {len(generators)} does not"):
            polytope._check_generators(hom, (*generators, perm))


def test_tampered_generator_exits_3(monkeypatch, capsys):
    # A swap of p(00|0) and p(01|0) alone changes Bob's answer at one input
    # and wire value but not the other: no relabelling, and the check names
    # it before the search.
    group = symmetry_group

    def tampered(s):
        g = group(s)
        swap = list(range(s.dim))
        swap[s.index(0, 0, 0)], swap[s.index(0, 0, 1)] = s.index(0, 0, 1), s.index(0, 0, 0)
        return dataclasses.replace(g, generators=(*g.generators, tuple(swap)))

    monkeypatch.setattr(cli, "symmetry_group", tampered)
    assert main(["facets", "--classical", "-x", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "certificate: generator 5 does not map the vertex set onto itself\n"
    )
