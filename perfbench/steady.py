"""Steadiness check: repeat every workload over several seeds and report the
spread of each end-to-end metric.

    python3 perfbench/steady.py --runs 10 --seconds 10 [--workloads certify,verify]
                                [--first-seed 1] [--json out.json]

Runs ``run.py --trace 0`` once per (seed, workload), cycling through the
workloads inside each repetition so that slow drift of the machine falls
on every workload alike.  For each metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median), next to the bound in
BENCHMARK.json; a spread under a third of its bound is marked "ok".  The
wall time in seconds, printed by run.py above its result, is summarized too,
to show what the reference units take out.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--workloads", default=None)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", default=None)
    args = p.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in [*bounds, "wall_s"]} for w in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect answers\n{out}")
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            values[w]["wall_s"].append(float(re.search(r"wall_s = (\S+) s", out).group(1)))
            print(f"{w} seed={seed} " + " ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in bounds), flush=True)

    print(f"\n{'workload':8} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for w in names:
        for m in values[w]:
            q1, med, q3 = statistics.quantiles(values[w][m], n=4)
            spread = (q3 - q1) / med
            if m in bounds:
                flag = "ok" if spread < bounds[m] / 3 else "WIDE"
                print(f"{w:8} {m:12} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} {bounds[m]:6.2f} {flag}")
            else:
                print(f"{w:8} {m:12} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f}  (not gated)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "first_seed": args.first_seed, "values": values}, fh, indent=1)


if __name__ == "__main__":
    main()
