"""Command-line front end: facet listings, bound tables, membership
certificates and identity residual checks.

Exit codes: 0 success, 1 usage or bad input, 2 capacity limit hit,
3 a verified quantity disagreed with its closed form or a certificate failed
its check.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import io
from .errors import CapacityError, CertificateError
from .inequalities import (
    CATALOG_KINDS,
    ExactValue,
    LinearExpression,
    bounds,
    catalog,
    check_catalog_params,
    classical_maximum,
    extension_membership,
    facet_orbit_classify,
    gpt_maximum,
    identity_max_residual,
    symmetry_group,
    verify_identity,
)
from .polytope import (
    adjacency_decomposition,
    classical_vpolytope,
    facet_orbits,
    fourier_motzkin_project,
    no_signalling_polytope,
)
from .quantum import (
    born_table,
    chained_strategy,
    rationalize_correlation,
    tilted_search,
)
from .scenario import (
    Kind,
    Scenario,
    _COUNT_LIMIT,
    _check_strategy_count,
    append_dummy_input,
    dummy_input_extension,
    postselect,
)

USAGE_ERROR = 1
CAPACITY_ERROR = 2
MISMATCH_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    capacity, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` for string-keyed documents, built from
    the encodings of the scalar leaves: strings through the function
    `json.dumps` uses for them, anything else through `json.dumps`.  json's
    own indenting encoder runs in pure Python and leaves reference cycles
    behind on every call; this leaves none."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            items = [
                f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                for k, v in value.items()
            ]
            open_, close = "{", "}"
        else:
            items = [_json_text(v, inner) for v in value]
            open_, close = "[", "]"
        return f"{open_}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{close}"
    return json.dumps(value)


def _expression_str(scenario, ineq) -> str:
    lhs = LinearExpression(scenario, ineq.coeffs)
    return f"{lhs} <= {io.fraction_to_str(ineq.bound)}"


# -- facets ----------------------------------------------------------------


def cmd_facets(args) -> int:
    if args.max_rays < 1:
        raise ValueError(f"--max-rays takes a count >= 1, got {args.max_rays}")
    s = Scenario.instrumental(args.x, args.a, args.b)
    group = symmetry_group(s)
    if args.classical:
        h, orbits = adjacency_decomposition(
            classical_vpolytope(s), group.generators, max_rays=args.max_rays
        )
        side = "classical"
    else:
        h = fourier_motzkin_project(
            no_signalling_polytope(s.parent_bell()),
            s.wired_indices(),
            max_rows=args.max_rays,
        )
        orbits = facet_orbits(h, group.generators)
        side = "gpt"
    orbits = facet_orbit_classify(orbits, group)

    if args.format == "porta":
        _emit(io.write_ieq(h), args)
    elif args.format == "json":
        doc = {
            "scenario": io.scenario_to_json(s),
            "side": side,
            "orbits": [
                {
                    "tag": o.tag,
                    "size": len(o.members),
                    "representative": io.row_to_json(
                        o.representative.coeffs, o.representative.bound
                    ),
                }
                for o in orbits
            ],
            "polytope": io.hpolytope_to_json(h),
        }
        _emit(_json_text(doc) + "\n", args)
    else:
        lines = [
            f"scenario: instrumental nX={s.nX} nA={s.nA} nB={s.nB} ({side} side)",
            f"facets: {len(h.inequalities)}, equalities: {len(h.equalities)}",
            "orbits under input/output relabelling:",
        ]
        for o in orbits:
            lines.append(
                f"  {o.tag}: {len(o.members)} facets, "
                f"e.g. {_expression_str(s, o.representative)}"
            )
        _emit("\n".join(lines) + "\n", args)
    return 0


# -- bounds ----------------------------------------------------------------


def _quantum_value(e, kind, alpha, n) -> tuple[float, float]:
    """The value the family's optimal strategy actually reaches on the
    catalog expression e, and its tolerance."""
    if kind in ("chained", "chained_bell"):
        t = born_table(chained_strategy(n), Scenario.bell(n, n))
        if kind == "chained":
            t = postselect(append_dummy_input(t, fixed_a=1), Scenario.chained(n))
        return e.evaluate(t), 1e-9
    r = tilted_search(alpha or 1)
    value = r.bell_value if kind in ("chsh", "tilted_chsh") else r.instrumental_value
    return value, 1e-9 if alpha in (None, 1) else 1e-6


def cmd_bounds(args) -> int:
    kind = args.kind
    # the one positional parameter is the chain length for chained kinds and
    # the weight otherwise, where the catalog check rejects it if unwanted
    chained = kind in ("chained", "chained_bell")
    alpha, n = check_catalog_params(
        kind, None if chained else args.param, args.param if chained else None
    )
    if chained:  # before Bell(n + 1, n) or any expression over it is built
        s = Scenario.chained(n) if kind == "chained" else Scenario.bell(n, n)
        _check_strategy_count(s)
    e = catalog(kind, alpha=alpha, n=n)
    triple = bounds(kind, alpha=alpha, n=n)

    cmax, _ = classical_maximum(e)
    qval, qtol = _quantum_value(e, kind, alpha, n)
    gmax, _ = gpt_maximum(e)
    # (theory, closed form, verified, how it was computed)
    checks = [
        ("classical", triple.classical, triple.classical == ExactValue.of(cmax),
         f"vertex maximum {io.fraction_to_str(cmax)}"),
        ("quantum", triple.quantum, abs(qval - float(triple.quantum)) <= qtol,
         f"strategy value {qval:.12f}"),
        ("gpt", triple.gpt, triple.gpt == ExactValue.of(gmax),
         f"no-signalling maximum {io.fraction_to_str(gmax)}"),
    ]

    rows = [(name, str(val), float(val)) for name, val, _, _ in checks]
    verified = all(ok for _, _, ok, _ in checks)
    if args.format == "csv":
        _emit(io.format_bounds_csv(rows), args)
    elif args.format == "json":
        doc = {
            "kind": kind,
            "alpha": None if alpha is None else io.fraction_to_str(alpha),
            "n": n,
            "rows": [
                {"theory": name, "exact": str(val), "approx": float(val),
                 "verified": ok, "computed": how}
                for name, val, ok, how in checks
            ],
        }
        _emit(_json_text(doc) + "\n", args)
    else:
        text = io.format_bounds_table(rows)
        if verified:
            text += "all three bounds verified\n"
        else:
            for name, val, ok, how in checks:
                if not ok:
                    text += f"MISMATCH {name}: expected {val}, {how}\n"
        _emit(text, args)
    return 0 if verified else MISMATCH_ERROR


# -- membership ------------------------------------------------------------

_CAVEAT = (
    "note: the wired table has a classical model, but that does not certify a "
    "classical source; a nonclassical parent can still show up after local "
    "pre-processing of an added input (rerun with --with-local-processing)."
)


def cmd_membership(args) -> int:
    p = io.load_correlation(args.table)
    from_bell = p.scenario.kind is Kind.BELL
    if not p.exact:
        p = rationalize_correlation(p)
    if from_bell:
        if args.with_local_processing:
            p = dummy_input_extension(p)
        p = postselect(p, Scenario.instrumental(p.scenario.nX, p.scenario.nA, p.scenario.nB))
    elif args.with_local_processing:
        raise ValueError("--with-local-processing applies to two-input Bell tables")

    cert = extension_membership(p, args.theory)
    caveat = (
        from_bell
        and cert.inside
        and args.theory == "classical"
        and not args.with_local_processing
    )
    if args.format == "json":
        doc = {
            "theory": args.theory,
            "inside": cert.inside,
            "scenario": io.scenario_to_json(p.scenario),
        }
        if cert.weights is not None:
            doc["weights"] = [io.fraction_to_str(w) for w in cert.weights]
        if cert.extension is not None:
            doc["extension"] = [io.fraction_to_str(v) for v in cert.extension]
        if cert.separator is not None:
            sep = cert.separator
            doc["separator"] = io.row_to_json(sep.coeffs, sep.bound)
            doc["margin"] = io.fraction_to_str(cert.margin)
        if caveat:
            doc["caveat"] = _CAVEAT
        _emit(_json_text(doc) + "\n", args)
    else:
        lines = [f"{args.theory}: {'inside' if cert.inside else 'outside'}"]
        if cert.inside and cert.weights is not None:
            support = sum(1 for w in cert.weights if w != 0)
            lines.append(
                f"  convex combination of {support} deterministic strategies"
            )
        if cert.inside and cert.extension is not None:
            lines.append("  extension: " + " ".join(
                io.fraction_to_str(v) for v in cert.extension
            ))
        if not cert.inside:
            lines.append(
                "  separating inequality: "
                + _expression_str(p.scenario, cert.separator)
            )
            lines.append(f"  violated by margin {io.fraction_to_str(cert.margin)}")
        if caveat:
            lines.append(_CAVEAT)
        _emit("\n".join(lines) + "\n", args)
    return 0


# -- identity --------------------------------------------------------------


def cmd_identity(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials takes a count >= 0, got {args.trials}")
    params = dict(alpha=args.alpha, n=args.n)
    if args.kind == "chained":  # before Bell(n + 1, n) or any expression over it is built
        _, n = check_catalog_params(args.kind, args.alpha, args.n)
        dim = Scenario.chained(n).parent_bell().dim
        if dim > _COUNT_LIMIT:
            raise CapacityError(
                f"chained --n {n} lifts to a Bell scenario of dimension {dim},"
                f" over the limit of {_COUNT_LIMIT}"
            )
    symbolic = verify_identity(args.kind, **params)
    # a proved identity vanishes on every box; only a failed proof is scanned
    worst = identity_max_residual(args.kind, proved=symbolic, **params)
    doc = {
        "kind": args.kind,
        "symbolic": symbolic,
        "trials": args.trials,
        "max_abs_residual": io.fraction_to_str(worst),
    }
    where = (f"{args.trials} sampled no-signalling points" if worst == 0
             else "every deterministic box")  # zero keeps the old wording
    if args.format == "json":
        _emit(_json_text(doc) + "\n", args)
    else:
        _emit(
            f"symbolic reduction to zero: {'yes' if symbolic else 'NO'}\n"
            f"max |residual| over {where}: {io.fraction_to_str(worst)}\n",
            args,
        )
    return 0 if symbolic and worst == 0 else MISMATCH_ERROR


# -- wiring ----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="instrumental")
    sub = parser.add_subparsers(dest="command", required=True)

    f = sub.add_parser("facets", help="enumerate and classify facets")
    f.add_argument("--kind", choices=["instrumental"], default="instrumental")
    side = f.add_mutually_exclusive_group(required=True)
    side.add_argument("--classical", action="store_true",
                      help="hull of the deterministic strategies")
    side.add_argument("--gpt", action="store_true",
                      help="projection of the no-signalling extension polytope")
    f.add_argument("-x", type=int, required=True, help="number of inputs")
    f.add_argument("-a", type=int, default=2, help="Alice outcomes")
    f.add_argument("-b", type=int, default=2, help="Bob outcomes")
    f.add_argument("--max-rays", type=int, default=10**6,
                   help="with --classical, the most rays each ridge double "
                        "description may hold; with --gpt, the most rows "
                        "Fourier-Motzkin may hold after any step")
    f.add_argument("--format", choices=["table", "json", "porta"], default="table")
    f.add_argument("--output")
    f.set_defaults(func=cmd_facets)

    b = sub.add_parser("bounds", help="three-theory bound table with verification")
    b.add_argument("kind", choices=CATALOG_KINDS)
    b.add_argument("param", nargs="?",
                   help="weight for tilted kinds, length for chained kinds")
    b.add_argument("--format", choices=["table", "json", "csv"], default="table")
    b.add_argument("--output")
    b.set_defaults(func=cmd_bounds)

    m = sub.add_parser("membership", help="certified membership test")
    m.add_argument("table", help="correlation JSON file")
    m.add_argument("--theory", choices=["classical", "nosignalling"],
                   required=True)
    m.add_argument("--with-local-processing", action="store_true",
                   help="extend a two-input Bell table with a fixed-outcome "
                        "input before wiring")
    m.add_argument("--format", choices=["table", "json"], default="table")
    m.add_argument("--output")
    m.set_defaults(func=cmd_membership)

    i = sub.add_parser("identity", help="check a lifting identity exactly")
    i.add_argument("kind", choices=["bonet", "tilted", "chained"])
    i.add_argument("--alpha", help="weight for the tilted family")
    i.add_argument("--n", type=int, help="length for the chained family")
    i.add_argument("--trials", type=int, default=500,
                   help="not used: the residual is decided exactly in "
                        "Collins-Gisin coordinates; the count is only echoed "
                        "in the output")
    i.add_argument("--seed", type=int, default=0,
                   help="not used: nothing is sampled; accepted so existing "
                        "command lines still parse")
    i.add_argument("--format", choices=["table", "json"], default="table")
    i.add_argument("--output")
    i.set_defaults(func=cmd_identity)

    return parser


_PARSER = _build_parser()  # once: each parser leaves reference cycles behind


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return CAPACITY_ERROR
    except CertificateError as exc:
        print(f"certificate: {exc}", file=sys.stderr)
        return MISMATCH_ERROR
    except (ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
