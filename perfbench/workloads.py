"""The four workloads: seeded operation lists and the check of every answer.

Each operation is one ``instrumental`` command line, run through
``instrumental.cli.main(argv)``; the program sees only the command line and
the input files written here.  Checks compare against ``reference.json``
(recorded from the program by ``record.py``) and re-check certificates with
``exact.py``.

Why these workloads:

- project: ``facets --gpt`` at two and three inputs.  Fourier-Motzkin
  projection with per-step LP pruning; the rational simplex takes nearly
  all of its time, so FM and simplex changes show here.
- hull: ``facets --classical`` over five scenarios.  The double-description
  hull, strategy enumeration and orbit classification, and no LP at all, so
  an LP change must show no change here.
- certify: ``membership`` on seeded tables under both theories.  Many small
  feasibility LPs and, on the outside path, separation and Farkas LPs: a
  simplex tuned for projection that slows certificates shows here.  Each
  stratum's count is fixed, so the share of expensive outside verdicts does
  not move with the seed.
- verify: ``bounds`` over the catalog and ``identity`` sampling.  The only
  workload that runs strategy enumeration at scale, the no-signalling
  equality reduction of large Bell scenarios, ``gpt_maximum``'s big LP,
  ``identity_check`` and the quantum see-saw.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import exact

WORKLOADS = ("project", "hull", "certify", "verify")

PROJECT = ["-x 2", "-x 3"]
HULL = ["-x 3", "-x 4", "-x 5", "-x 2 -a 3 -b 3", "-x 2 -a 4 -b 4"]
BOUNDS = [
    "bonet", "tilted 3/2", "tilted 3", "chsh", "tilted_chsh 2",
    "chained 3", "chained 4", "chained 5", "chained 6",
    "chained_bell 3", "chained_bell 4",
]
IDENTITY = ["bonet --trials 500", "tilted --alpha 3 --trials 500", "chained --n 3 --trials 100"]

# certify strata: (kind, inputs, classical inside, no-signalling inside) -> count.
# Every table runs under both theories, so there are twice as many operations.
CERTIFY = {
    ("classical_mix", 2, True, True): 10,
    ("classical_mix", 3, True, True): 10,
    ("ns_mix", 2, True, True): 10,
    ("ns_mix", 3, True, True): 6,
    ("ns_mix", 3, False, True): 6,
    ("pearl", 2, False, False): 6,
    ("pearl", 3, False, False): 6,
    ("born", 3, True, True): 3,
    ("born", 3, False, True): 3,
}

# reference facet sets that decide the expected certify verdicts
VERDICT_FACETS = {
    ("classical", 2): "facets --classical -x 2",
    ("classical", 3): "facets --classical -x 3",
    ("nosignalling", 2): "facets --gpt -x 2",
    ("nosignalling", 3): "facets --gpt -x 3",
}


@dataclass
class Op:
    """One command line and the check of its answer.

    ``check(rc, stdout)`` returns None for a correct answer, else the reason.
    """

    label: str
    argv: list[str]
    check: Callable[[int, str], str | None]


def load_reference(root):
    with open(os.path.join(root, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def build(workload, seed, workdir, reference):
    """The workload's operation list for this seed; writes its input files."""
    if workload == "project":
        return [facets_op(f"facets --gpt {a}", reference) for a in PROJECT]
    if workload == "hull":
        return [facets_op(f"facets --classical {a}", reference) for a in HULL]
    if workload == "certify":
        return certify_ops(random.Random(seed), workdir, reference)
    if workload == "verify":
        rng = random.Random(seed)
        ops = [bounds_op(f"bounds {a}", reference) for a in BOUNDS]
        ops += [identity_op(f"identity {a} --seed {rng.randrange(10**6)}") for a in IDENTITY]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _json_or_none(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


# -- facets ------------------------------------------------------------------


def _facets_scenario(command):
    args = command.split()
    nX = int(args[args.index("-x") + 1])
    nA = int(args[args.index("-a") + 1]) if "-a" in args else 2
    nB = int(args[args.index("-b") + 1]) if "-b" in args else 2
    return nX, nA, nB


def summarize_facets(command, doc):
    """What a facets answer must reproduce: counts, orbit tallies, and a
    representation-free fingerprint of the facet set.

    Raises ValueError when the answer is internally unsound: a facet cuts off
    a deterministic table, an equality fails on one, or an orbit
    representative is not among the facets.
    """
    supports = exact.wired_deterministic_supports(*_facets_scenario(command))
    ineqs = exact.parse_rows(doc["polytope"]["inequalities"])
    eqs = exact.parse_rows(doc["polytope"]["equalities"])
    digest, slacks = exact.facet_fingerprint(ineqs, supports)
    if any(min(s) < 0 for s in slacks):
        raise ValueError("a facet cuts off a deterministic table")
    if any(any(s) for s in exact.slack_vectors(eqs, supports)):
        raise ValueError("an equality fails on a deterministic table")
    reps = exact.parse_rows([o["representative"] for o in doc["orbits"]])
    if not set(exact.slack_vectors(reps, supports)) <= set(slacks):
        raise ValueError("an orbit representative is not a facet")
    return {
        "side": doc["side"],
        "facets": len(ineqs),
        "equalities": len(eqs),
        "orbits": sorted([o["tag"], o["size"]] for o in doc["orbits"]),
        "fingerprint": digest,
    }


def facets_op(command, reference):
    expected = reference["facets"][command]

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        doc = _json_or_none(stdout)
        if doc is None:
            return "output is not JSON"
        try:
            got = summarize_facets(command, doc)
        except (ValueError, KeyError, ZeroDivisionError) as exc:
            return f"unsound answer: {exc}"
        for key, want in expected.items():
            if got[key] != want:
                return f"{key}: got {got[key]}, expected {want}"
        return None

    return Op(command, command.split() + ["--format", "json"], check)


# -- bounds and identity -----------------------------------------------------


def summarize_bounds(doc):
    return {
        row["theory"]: {"exact": row["exact"], "verified": row["verified"], "computed": row["computed"]}
        for row in doc["rows"]
    }


def _strategy_value(computed):
    return float(computed.rsplit(" ", 1)[1])


def bounds_op(command, reference):
    expected = reference["bounds"][command]

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        doc = _json_or_none(stdout)
        if doc is None:
            return "output is not JSON"
        got = summarize_bounds(doc)
        if sorted(got) != sorted(expected):
            return f"theories {sorted(got)}"
        for theory, want in expected.items():
            row = got[theory]
            if not row["verified"] or row["exact"] != want["exact"]:
                return f"{theory}: {row}"
            if theory == "quantum":
                # a float from a strategy or a see-saw: compare loosely
                if abs(_strategy_value(row["computed"]) - _strategy_value(want["computed"])) > 1e-6:
                    return f"quantum strategy value {row['computed']}"
            elif row["computed"] != want["computed"]:
                return f"{theory}: {row['computed']}, expected {want['computed']}"
        return None

    return Op(command, command.split() + ["--format", "json"], check)


def identity_op(command):
    trials = int(command.split("--trials ")[1].split()[0])

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        doc = _json_or_none(stdout)
        if doc is None:
            return "output is not JSON"
        if doc.get("symbolic") is not True or doc.get("trials") != trials:
            return f"symbolic={doc.get('symbolic')} trials={doc.get('trials')}"
        if doc.get("max_abs_residual") != "0":
            return f"residual {doc.get('max_abs_residual')}"
        return None

    return Op(command.split(" --seed")[0], command.split() + ["--format", "json"], check)


# -- certify -----------------------------------------------------------------


def _weights(rng, k):
    raw = [rng.randint(1, 9) for _ in range(k)]
    return [Fraction(r, sum(raw)) for r in raw]


def _classical_mix(rng, nX):
    tables = exact.wired_deterministic_tables(nX)
    picks = [rng.choice(tables) for _ in range(rng.randint(2, 4))]
    return exact.mix(_weights(rng, len(picks)), picks)


def _ns_mix(rng, nX):
    """Post-selected mixture of no-signalling boxes, at least one of them a
    parity box (nonlocal unless f(x, y) splits as g(x) XOR h(y))."""
    boxes = [exact.parity_box(nX, 2, [[rng.randint(0, 1) for _ in range(2)] for _ in range(nX)])]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            f = [[rng.randint(0, 1) for _ in range(2)] for _ in range(nX)]
            boxes.append(exact.parity_box(nX, 2, f))
        else:
            alpha = [rng.randint(0, 1) for _ in range(nX)]
            boxes.append(exact.local_box(nX, 2, alpha, [rng.randint(0, 1) for _ in range(2)]))
    return exact.postselect(exact.mix(_weights(rng, len(boxes)), boxes), nX)


def _pearl(rng, nX):
    """A classical mixture pushed past the Pearl facet
    p(a,0|x0) + p(a,1|x1) <= 1 toward a table that scores 2 on it."""
    c = _classical_mix(rng, nX)
    a = rng.randint(0, 1)
    x0, x1 = rng.sample(range(nX), 2)
    v = [Fraction(0)] * len(c)
    for x in range(nX):
        b = 0 if x == x0 else 1 if x == x1 else rng.randint(0, 1)
        v[exact.inst_index(2, 2, x, a, b)] = Fraction(1)
    pc = c[exact.inst_index(2, 2, x0, a, 0)] + c[exact.inst_index(2, 2, x1, a, 1)]
    t_edge = (1 - pc) / (2 - pc)
    t = t_edge + (1 - t_edge) * Fraction(rng.randint(1, 3), 4)
    return [(1 - t) * ci + t * vi for ci, vi in zip(c, v)]


def _pythagorean_angles():
    """Planar directions (cos, sin) with rational coordinates, so that
    cos(theta_x - phi_y) is rational and the float Born table snaps back to
    exact rationals with small denominators."""
    out = {(Fraction(1), Fraction(0))}
    for p, q, r in [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]:
        for c, s in [(p, q), (q, p)]:
            for sc in (1, -1):
                for ss in (1, -1):
                    out.add((Fraction(sc * c, r), Fraction(ss * s, r)))
    for c, s in [(0, 1), (-1, 0), (0, -1)]:
        out.add((Fraction(c), Fraction(s)))
    return sorted(out)


ANGLES = _pythagorean_angles()


def _born(rng):
    """A two-input Bell table of the maximally entangled state with planar
    observables, p(ab|xy) = (1 + (-1)^(a+b) cos(theta_x - phi_y)) / 4, as
    floats; and the exact table wired after a fixed-outcome third input."""
    alice = [rng.choice(ANGLES) for _ in range(2)]
    bob = [rng.choice(ANGLES) for _ in range(2)]
    floats, box = [], []
    for (ca, sa), (cb, sb) in [(al, bo) for al in alice for bo in bob]:
        cos = ca * cb + sa * sb
        fcos = math.cos(math.atan2(sa, ca) - math.atan2(sb, cb))
        for a in range(2):
            for b in range(2):
                sign = 1 if a == b else -1
                box.append((1 + sign * cos) / 4)
                floats.append((1.0 + sign * fcos) / 4.0)
    # third input: Alice outputs 0, Bob keeps his x = 0 marginal
    extended = list(box)
    for y in range(2):
        marg = [sum(box[exact.bell_index(2, 2, 2, 0, y, a, b)] for a in range(2)) for b in range(2)]
        for a in range(2):
            extended += [marg[b] if a == 0 else Fraction(0) for b in range(2)]
    return floats, exact.postselect(extended, 3)


def _certify_tables(rng, reference):
    """Seeded tables, drawn stratum by stratum until each holds its count of
    CERTIFY, in shuffled order."""
    verdict_sets = {
        key: (
            exact.parse_rows(reference["facet_rows"][cmd]["inequalities"]),
            exact.parse_rows(reference["facet_rows"][cmd]["equalities"]),
        )
        for key, cmd in VERDICT_FACETS.items()
    }
    draw = {"classical_mix": _classical_mix, "ns_mix": _ns_mix, "pearl": _pearl}
    tables = []
    for (kind, nX, in_classical, in_ns), count in CERTIFY.items():
        while count:
            if kind == "born":
                floats, wired = _born(rng)
            else:
                floats, wired = None, draw[kind](rng, nX)
            if (
                exact.inside(wired, *verdict_sets["classical", nX]) == in_classical
                and exact.inside(wired, *verdict_sets["nosignalling", nX]) == in_ns
            ):
                tables.append(((kind, nX, in_classical, in_ns), floats, wired))
                count -= 1
    rng.shuffle(tables)
    return tables


def certify_ops(rng, workdir, reference):
    ops = []
    for i, ((kind, nX, in_classical, in_ns), floats, wired) in enumerate(_certify_tables(rng, reference)):
        path = os.path.join(workdir, f"table{i:03d}.json")
        if floats is None:
            scenario = {"kind": "instrumental", "nX": nX, "nY": 2, "nA": 2, "nB": 2}
            entries = [str(v) for v in wired]
            extra = []
        else:
            scenario = {"kind": "bell", "nX": 2, "nY": 2, "nA": 2, "nB": 2}
            entries = floats
            extra = ["--with-local-processing"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"scenario": scenario, "entries": entries}, fh)
        for theory, inside in (("classical", in_classical), ("nosignalling", in_ns)):
            argv = ["membership", path, "--theory", theory, *extra, "--format", "json"]
            ops.append(Op(f"membership {kind} x={nX} {theory}", argv, _membership_check(theory, inside, wired, nX)))
    return ops


def _membership_check(theory, inside, table, nX):
    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        doc = _json_or_none(stdout)
        if doc is None:
            return "output is not JSON"
        if doc.get("theory") != theory or doc.get("inside") is not inside:
            return f"verdict inside={doc.get('inside')}, expected {inside}"
        try:
            return check_certificate(doc, table, nX)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            return f"malformed certificate: {exc}"

    return check


def check_certificate(doc, table, nX):
    """Re-check a membership certificate in exact arithmetic, without an LP."""
    dets = exact.wired_deterministic_tables(nX)
    if doc["inside"] and doc["theory"] == "classical":
        w = [Fraction(v) for v in doc["weights"]]
        if len(w) != len(dets) or any(v < 0 for v in w) or sum(w) != 1:
            return "weights are not a probability vector over the strategies"
        if exact.mix(w, dets) != table:
            return "weights do not reproduce the table"
        return None
    if doc["inside"]:
        ext = [Fraction(v) for v in doc["extension"]]
        if len(ext) != nX * 2 * 4:
            return "extension has the wrong length"
        defect = exact.no_signalling_defect(ext, nX, 2)
        if defect:
            return f"extension is not no-signalling: {defect}"
        if exact.postselect(ext, nX) != table:
            return "extension does not match the table on the wired coordinates"
        return None
    coeffs = [Fraction(c) for c in doc["separator"]["coeffs"]]
    bound = Fraction(doc["separator"]["bound"])
    margin = Fraction(doc["margin"])
    if any(exact.dot(coeffs, d) > bound for d in dets):
        return "separator cuts off a deterministic table"
    if margin <= 0 or exact.dot(coeffs, table) - bound != margin:
        return "separator is not violated by the stated margin"
    return None
