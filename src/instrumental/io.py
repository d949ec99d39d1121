"""The formats the command line reads and writes: correlation JSON, facet
lists as JSON or PORTA-style inequality text, and bound tables.

Rationals travel as "p/q" strings so that nothing is lost in transit; float
tables (Born probabilities) keep plain JSON numbers.  An inequality file lists
one constraint per line with 1-based variables x1..xd.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from io import StringIO
from typing import Any

from .polytope import HPolytope, LinearInequality
from .scenario import Correlation, Kind, Scenario

__all__ = [
    "fraction_to_str",
    "fraction_from_str",
    "scenario_to_json",
    "scenario_from_json",
    "correlation_to_json",
    "correlation_from_json",
    "load_correlation",
    "save_correlation",
    "hpolytope_to_json",
    "row_to_json",
    "hpolytope_from_json",
    "write_ieq",
    "read_ieq",
    "format_bounds_table",
    "format_bounds_csv",
]


def fraction_to_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fraction_from_str(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise TypeError(f"expected a rational string, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def scenario_to_json(s: Scenario) -> dict[str, Any]:
    d: dict[str, Any] = {
        "kind": s.kind.value,
        "nX": s.nX,
        "nY": s.nY,
        "nA": s.nA,
        "nB": s.nB,
    }
    if s.wiring is not None:
        d["wiring"] = [list(row) for row in s.wiring]
    return d


def _integer(v) -> int:
    """A JSON count, dimension or wiring entry: an int or an integral float."""
    if type(v) is not int and not (type(v) is float and v.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _array(v, name: str) -> list:
    """A JSON array; a string or object would be read item by item."""
    if not isinstance(v, list):
        raise ValueError(f"{name} must be a JSON array, got {v!r:.40}")
    return v


def _field(d, key: str, name: str):
    """d[key] of the JSON object d, which the errors call `name`."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {d!r:.40}")
    if key not in d:
        raise ValueError(f"{name} has no {key!r} key")
    return d[key]


def scenario_from_json(d: dict[str, Any]) -> Scenario:
    kind = Kind(_field(d, "kind", "a scenario"))
    counts = [_integer(_field(d, k, "a scenario")) for k in ("nX", "nY", "nA", "nB")]
    wiring = d.get("wiring")
    if wiring is not None:
        rows = _array(wiring, "wiring")
        wiring = tuple(tuple(_integer(y) for y in _array(r, "a wiring row")) for r in rows)
    return Scenario(kind, *counts, wiring)


def correlation_to_json(p: Correlation) -> dict[str, Any]:
    entries: list[Any]
    if p.exact:
        entries = [fraction_to_str(e) for e in p.entries]
    else:
        entries = list(p.entries)
    return {"scenario": scenario_to_json(p.scenario), "entries": entries}


def correlation_from_json(d: dict[str, Any]) -> Correlation:
    s = scenario_from_json(_field(d, "scenario", "a correlation"))
    raw = _array(_field(d, "entries", "a correlation"), "entries")
    if any(isinstance(e, bool) for e in raw):
        raise ValueError("correlation entries must be numbers, not booleans")
    if all(isinstance(e, (str, int)) for e in raw):
        entries = tuple(fraction_from_str(e) for e in raw)
    else:
        entries = tuple(float(e) for e in raw)
        if not all(math.isfinite(e) for e in entries):
            raise ValueError("correlation entries must be finite")
    return Correlation(s, entries)


def load_correlation(path) -> Correlation:
    with open(path, encoding="utf-8") as fh:
        return correlation_from_json(json.load(fh))


def save_correlation(p: Correlation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(correlation_to_json(p), fh, indent=2)
        fh.write("\n")


def row_to_json(coeffs, bound) -> dict[str, Any]:
    """One inequality or equality row: its coefficients and right-hand side."""
    return {
        "coeffs": [fraction_to_str(c) for c in coeffs],
        "bound": fraction_to_str(bound),
    }


def hpolytope_to_json(h: HPolytope) -> dict[str, Any]:
    return {
        "dim": h.dim,
        "inequalities": [row_to_json(q.coeffs, q.bound) for q in h.inequalities],
        "equalities": [row_to_json(c, rhs) for c, rhs in h.equalities],
    }


def hpolytope_from_json(d: dict[str, Any]) -> HPolytope:
    def rows(key):
        for e in _array(_field(d, key, "a facet list"), key):
            coeffs = _array(_field(e, "coeffs", f"a row of {key}"), "coeffs")
            bound = _field(e, "bound", f"a row of {key}")
            yield tuple(map(fraction_from_str, coeffs)), fraction_from_str(bound)

    return HPolytope(
        _integer(_field(d, "dim", "a facet list")),
        tuple(LinearInequality(*r) for r in rows("inequalities")),
        tuple(rows("equalities")),
    )


_ROW_PREFIX = re.compile(r"^\(\s*\d+\s*\)\s*")
_TERM = re.compile(r"([+-]?\s*(?:\d+(?:/\d+)?)?)\s*x(\d+)")


def _ieq_lhs(coeffs) -> str:
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        parts.append(f"{sign}{fraction_to_str(mag)}x{j + 1}")
    if not parts:
        raise ValueError("cannot write a constraint with an all-zero left side")
    return " ".join(parts)


def write_ieq(h: HPolytope) -> str:
    lines = [f"DIM = {h.dim}", "", "INEQUALITIES_SECTION"]
    row = 1
    for coeffs, rhs in h.equalities:
        lines.append(f"( {row}) {_ieq_lhs(coeffs)} == {fraction_to_str(rhs)}")
        row += 1
    for q in h.inequalities:
        lines.append(f"( {row}) {_ieq_lhs(q.coeffs)} <= {fraction_to_str(q.bound)}")
        row += 1
    lines.append("END")
    return "\n".join(lines) + "\n"


def _parse_ieq_row(line: str, dim: int):
    for rel in ("<=", ">=", "=="):
        if rel in line:
            lhs_text, rhs_text = line.split(rel)
            break
    else:
        raise ValueError(f"no relation in constraint line: {line!r}")
    rhs = fraction_from_str(rhs_text.strip())
    coeffs = [Fraction(0)] * dim
    matched = 0
    for m in _TERM.finditer(lhs_text):
        raw, var = m.group(1).replace(" ", ""), int(m.group(2))
        if not 1 <= var <= dim:
            raise ValueError(f"variable x{var} out of range for DIM = {dim}")
        if raw in ("", "+"):
            c = Fraction(1)
        elif raw == "-":
            c = Fraction(-1)
        else:
            c = fraction_from_str(raw)
        coeffs[var - 1] += c
        matched += 1
    if matched == 0:
        raise ValueError(f"no terms in constraint line: {line!r}")
    if rel == ">=":
        coeffs = [-c for c in coeffs]
        rhs = -rhs
    return tuple(coeffs), rhs, rel == "=="


def read_ieq(text: str) -> HPolytope:
    dim: int | None = None
    ineqs: list[LinearInequality] = []
    eqs: list[tuple[tuple[Fraction, ...], Fraction]] = []
    in_section = False
    for raw in text.splitlines():
        line = _ROW_PREFIX.sub("", raw.strip())
        if not line:
            continue
        if line.startswith("DIM"):
            dim = int(line.partition("=")[2])
        elif line == "INEQUALITIES_SECTION":
            in_section = True
        elif line == "END":
            in_section = False
        elif in_section:
            if dim is None:
                raise ValueError("constraints before DIM line")
            coeffs, rhs, is_eq = _parse_ieq_row(line, dim)
            if is_eq:
                eqs.append((coeffs, rhs))
            else:
                ineqs.append(LinearInequality(coeffs, rhs))
    if dim is None:
        raise ValueError("missing DIM line")
    return HPolytope(dim, tuple(ineqs), tuple(eqs))


def format_bounds_table(rows: list[tuple[str, str, float]]) -> str:
    """Three-column text table: theory, exact form, decimal value."""
    header = ("theory", "exact", "approx")
    body = [(t, e, f"{v:.9f}") for t, e, v in rows]
    widths = [
        max(len(r[i]) for r in [header, *body]) for i in range(3)
    ]
    lines = []
    for r in [header, *body]:
        lines.append("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def format_bounds_csv(rows: list[tuple[str, str, float]]) -> str:
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(["theory", "exact", "approx"])
    for t, e, v in rows:
        writer.writerow([t, e, repr(v)])
    return buf.getvalue()
