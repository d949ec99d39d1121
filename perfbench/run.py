"""Benchmark of the ``instrumental`` command line, one workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 26 --trace 0

The package is imported from ``src/`` of the checkout that holds this
directory.  One process, one client, closed loop: the workload's seeded
operation list is run through ``instrumental.cli.main(argv)`` one command at
a time, with the program's memoization caches emptied before each command as
a fresh process would have them, and repeated in passes.  A new pass starts
only when a pass of median length still fits in ``--seconds``; there is
always at least one.  Every answer is checked (see workloads.py).

On a virtual machine shared with other tenants, CPU speed drifts by 20% or
more within seconds and between minutes.  So commands are also timed against
a reference: a fixed rational-arithmetic loop, independent of the program,
timed from a timer signal every 0.1 s while the passes run (about 2% of the
time), inside long commands too.  A command's time in reference units is its
seconds, less the sampling inside it, divided by the mean reference time
sampled from half a second before it starts to half a second after it ends.

With ``--trace 0`` the last line reports the end-to-end metrics:

- setup_s: a fresh interpreter importing the package and generating (and
  writing) the seeded inputs, timed from outside; median of several;
- wall_ref: time to run the whole operation list once, in reference units;
  median over passes;
- op_ref_p90: time per command in reference units, taking for each command
  of the list its median over the passes, then the 90th percentile;
- peak_rss_mb: peak resident memory of this process.

Above the result it prints failed_frac (failed / attempted answers), the
median per command (op_ref_p50), the same times in seconds (wall_s,
op_ms_p50, op_ms_p90) with the sample count, and the reference time.

With ``--trace 1`` passes alternate untraced and traced; the last line
reports the per-layer metrics of tracing.py from the traced passes, and the
tracing overhead: traced minus untraced time per pass, taken in reference
units and given as a share and in seconds of the untraced pass.  Spans are written to
``perfbench/out/<workload>-<seed>/spans.jsonl``.

Exit status 2, with no result line, when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import signal
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import program  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
REFERENCE_PERIOD_S = 0.1
REFERENCE_WINDOW_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_ref_p90": "ref",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed, tag=""):
    """Import the program and build the seeded operation list."""
    mods = program.load(os.path.dirname(HERE))
    workdir = os.path.join(HERE, "out", f"{workload}-{seed}{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workloads.build(workload, seed, workdir, workloads.load_reference(HERE))
    return mods, ops, workdir


def time_setup(args):
    """Median wall time of fresh interpreters doing setup() and exiting."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_seconds():
    """Time of a fixed computation in exact rational arithmetic, the kind of
    work the program spends its time on (about 2 ms on a 2 GHz virtual CPU)."""
    s = Fraction(0)
    start = time.perf_counter()
    for i in range(1, 200):
        s += Fraction(i % 97 + 1, i % 13 + 2) * Fraction(i % 7 + 1, 11)
        if s > 100:
            s -= 100
    return time.perf_counter() - start


class Speedometer:
    """Samples reference_seconds() from a timer signal while it is entered."""

    def __init__(self):
        self.samples = []  # (perf_counter at the start, reference seconds)

    def _sample(self, signum=None, frame=None):
        self.samples.append((time.perf_counter(), reference_seconds()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start, end):
        """(seconds, reference units) of the interval, less the sampling in it."""
        sampling = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - REFERENCE_WINDOW_S <= t < end + REFERENCE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda td: abs(td[0] - start))[1]]
        seconds = end - start - sampling
        return seconds, seconds / statistics.mean(near)


def run_pass(cli, caches, ops, speed, tracer=None):
    """Run every operation once.

    Returns (seconds, reference units, failures); the first two hold one
    entry per command.
    """
    intervals, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        rc, stdout, start, end = program.run(cli, caches, op.argv)
        intervals.append((start, end))
        reason = op.check(rc, stdout)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    measured = [speed.measure(start, end) for start, end in intervals]
    return [s for s, _ in measured], [u for _, u in measured], failures


def percentile(values, q):
    """The q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = _parse(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, tag=".setup")
            return 0
        mods, ops, workdir = setup(args.workload, args.seed)
        setup_s = time_setup(args) if args.trace == 0 else None
    except (program.ProgramMissing, ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    caches = program.lazy_caches(mods)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(mods)
    walls = {False: [], True: []}  # seconds per pass, untraced and traced
    wall_units = {False: [], True: []}  # reference units per pass
    failures = []
    seconds = [[] for _ in ops]  # per command, one entry per untraced pass
    units = [[] for _ in ops]
    attempted = 0
    start = time.perf_counter()
    speed = Speedometer()
    while True:
        # traced runs alternate untraced and traced passes, untraced first
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        try:
            with speed:
                s, u, fails = run_pass(mods["cli"], caches, ops, speed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(s))
        wall_units[traced].append(sum(u))
        attempted += len(ops)
        failures += fails
        if not traced:
            for i in range(len(ops)):
                seconds[i].append(s[i])
                units[i].append(u[i])
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        if elapsed + typical > args.seconds and (tracer is None or walls[True]):
            break

    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(
        f"{args.workload} seed={args.seed}: {len(ops)} operations, "
        f"{len(walls[False])} untraced and {len(walls[True])} traced passes, "
        f"{len(failures)} of {attempted} failed (failed_frac {len(failures) / attempted:.4f})"
    )
    print("  pass seconds: untraced " + " ".join(f"{w:.3f}" for w in walls[False])
          + "; traced " + " ".join(f"{w:.3f}" for w in walls[True]))
    wall_s = statistics.median(walls[False])
    if tracer is None:
        seconds = [statistics.median(v) for v in seconds]
        units = [statistics.median(v) for v in units]
        print(f"  wall_s = {wall_s:.6g} s, op_ms_p50 = {1000 * percentile(seconds, 50):.6g} ms, "
              f"op_ms_p90 = {1000 * percentile(seconds, 90):.6g} ms over {len(seconds)} commands; "
              f"op_ref_p50 = {percentile(units, 50):.6g} ref; "
              f"reference {1000 * statistics.median(d for _, d in speed.samples):.4g} ms "
              f"(median of {len(speed.samples)})")
        values = {
            "setup_s": setup_s,
            "wall_ref": statistics.median(wall_units[False]),
            "op_ref_p90": percentile(units, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        # overhead from reference units, so that drift of machine speed
        # between the traced and untraced passes cancels
        overhead = statistics.median(wall_units[True]) / statistics.median(wall_units[False]) - 1
        metrics = tracer.metrics(len(walls[True]), overhead * wall_s, overhead)
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
