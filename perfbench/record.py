"""Record the reference answers the benchmark checks against.

Run in a checkout of the commit whose answers are the reference (the
commit that introduced this benchmark):

    python3 perfbench/record.py

It rewrites ``perfbench/reference.json`` with, for every facets command the
workloads run, the facet and equality counts, the orbit tallies and a
fingerprint of the facet set; the full facet rows of the small scenarios that
decide the expected membership verdicts; and every bounds table.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import program  # noqa: E402
import workloads  # noqa: E402


def _run(mods, caches, command):
    rc, stdout, _, _ = program.run(mods["cli"], caches, command.split() + ["--format", "json"])
    if rc != 0:
        raise SystemExit(f"{command}: exit {rc}")
    return json.loads(stdout)


def main():
    mods = program.load(os.path.dirname(HERE))
    caches = program.lazy_caches(mods)
    ref = {"facets": {}, "facet_rows": {}, "bounds": {}}
    commands = (
        [f"facets --gpt {a}" for a in workloads.PROJECT]
        + [f"facets --classical {a}" for a in workloads.HULL]
        + list(workloads.VERDICT_FACETS.values())
    )
    for command in dict.fromkeys(commands):
        doc = _run(mods, caches, command)
        ref["facets"][command] = workloads.summarize_facets(command, doc)
        if command in workloads.VERDICT_FACETS.values():
            ref["facet_rows"][command] = doc["polytope"]
        print(command, ref["facets"][command]["facets"], file=sys.stderr)
    for args in workloads.BOUNDS:
        command = f"bounds {args}"
        ref["bounds"][command] = workloads.summarize_bounds(_run(mods, caches, command))
        print(command, file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
