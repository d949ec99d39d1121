"""Outside-in tracing: spans around calls into each layer's public functions.

The benchmark wraps the functions below in its own code and patches the
name in every package module that holds it, so calls from inside the
package are caught too.  Each span records (name, start, end, parent span,
operation id).  Self time is a span's duration minus its direct children's.

Functions called 10^4 or more times per run (``reduce_modulo``,
``fraction_to_str``, ``strategy_to_correlation``, ``validate``) are not
wrapped: their wrapper cost would distort the traced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# module -> functions given a span
WRAPPED = {
    "cli": ["main"],
    "io": ["load_correlation", "hpolytope_to_json"],
    "inequalities": [
        "facet_orbit_classify", "classical_maximum", "gpt_maximum",
        "extension_membership", "identity_check", "verify_identity",
    ],
    "polytope": [
        "fourier_motzkin_project", "facet_enumeration", "vertex_enumeration",
        "no_signalling_polytope", "membership", "maximize_linear", "classical_vpolytope",
    ],
    "linprog": ["solve_lp"],
    "scenario": [
        "classical_correlations", "enumerate_deterministic_strategies",
        "random_mixture", "postselect",
    ],
    "quantum": ["tilted_search", "born_table", "rationalize_correlation"],
}
LAYERS = tuple(WRAPPED)

# per-layer metrics reported by every traced run: name -> unit
METRICS = {
    "linprog.solve_lp.calls": "count",
    "linprog.solve_lp.busy_s": "s",
    "linprog.solve_lp.self_s": "s",
    "linprog.tableau_cells": "count",
    "linprog.infeasible_frac": "ratio",
    "polytope.fourier_motzkin_project.self_s": "s",
    "polytope.fm.lps": "count",
    "polytope.fm.lps_per_facet": "ratio",
    "polytope.facet_enumeration.self_s": "s",
    "polytope.facet_enumeration.vertices_in": "count",
    "polytope.facet_enumeration.facets_out": "count",
    "polytope.vertex_enumeration.self_s": "s",
    "polytope.no_signalling_polytope.self_s": "s",
    "polytope.membership.self_s": "s",
    "scenario.classical_correlations.self_s": "s",
    "scenario.enumerate_deterministic_strategies.self_s": "s",
    "scenario.enumerate_deterministic_strategies.strategies_out": "count",
    "scenario.random_mixture.self_s": "s",
    "scenario.random_mixture.calls": "count",
    "scenario.postselect.self_s": "s",
    "scenario.postselect.calls": "count",
    "inequalities.facet_orbit_classify.self_s": "s",
    "inequalities.classical_maximum.self_s": "s",
    "inequalities.gpt_maximum.self_s": "s",
    "inequalities.extension_membership.self_s": "s",
    "inequalities.extension_membership.outside_frac": "ratio",
    "inequalities.extension_membership.outside_frac.classical": "ratio",
    "inequalities.extension_membership.outside_frac.nosignalling": "ratio",
    "inequalities.identity_check.self_s": "s",
    "inequalities.identity_check.calls": "count",
    "inequalities.verify_identity.self_s": "s",
    "quantum.tilted_search.self_s": "s",
    "quantum.tilted_search.iterations": "count",
    "quantum.born_table.self_s": "s",
    "quantum.rationalize_correlation.self_s": "s",
    "io.load_correlation.self_s": "s",
    "io.hpolytope_to_json.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.op_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# metrics read from counters kept by the wrappers below
COUNTED = {
    "linprog.tableau_cells",
    "polytope.facet_enumeration.vertices_in",
    "polytope.facet_enumeration.facets_out",
    "scenario.enumerate_deterministic_strategies.strategies_out",
    "quantum.tilted_search.iterations",
}


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self._patches = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every package module attribute bound to a wrapped function."""
        for layer, names in WRAPPED.items():
            for fname in names:
                original = getattr(self.mods[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in self.mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- counters read from arguments and results -----------------------------

    def _after_linprog_solve_lp(self, args, kwargs, result):
        # rows x columns of the standard-form tableau solve_lp builds
        d = len(args[0])
        ineqs, eqs = kwargs.get("ineqs", ()), kwargs.get("eqs", ())
        width = (d if kwargs.get("nonneg", False) else 2 * d) + len(ineqs)
        self.counts["linprog.tableau_cells"] += (len(eqs) + len(ineqs)) * width
        if result.status.name == "INFEASIBLE":
            self.counts["linprog.infeasible"] += 1

    def _after_polytope_facet_enumeration(self, args, kwargs, result):
        self.counts["polytope.facet_enumeration.vertices_in"] += len(args[0].vertices)
        self.counts["polytope.facet_enumeration.facets_out"] += len(result.inequalities)

    def _after_polytope_fourier_motzkin_project(self, args, kwargs, result):
        self.counts["polytope.fm.facets_out"] += len(result.inequalities)

    def _after_scenario_enumerate_deterministic_strategies(self, args, kwargs, result):
        self.counts["scenario.enumerate_deterministic_strategies.strategies_out"] += len(result)

    def _after_inequalities_extension_membership(self, args, kwargs, result):
        theory = args[1] if len(args) > 1 else kwargs["theory"]
        self.counts[f"membership.{theory}"] += 1
        if not result.inside:
            self.counts[f"membership.{theory}.outside"] += 1

    def _after_quantum_tilted_search(self, args, kwargs, result):
        self.counts["quantum.tilted_search.iterations"] += result.iterations

    # -- results --------------------------------------------------------------

    def metrics(self, passes, overhead_s, overhead_frac):
        """Per-pass per-layer metrics from the recorded spans and counters,
        with the tracing overhead measured by the caller."""
        spans = self.spans
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _ in spans:
            d = end - start
            busy[name] += d
            self_s[name] += d
            calls[name] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= d
        fm_lps = sum(
            1 for span in spans if span[0] == "linprog.solve_lp" and self._under(span, "polytope.fourier_motzkin_project")
        )
        c = self.counts
        lp_calls = calls["linprog.solve_lp"]
        out = {}
        for name in METRICS:
            head, _, stat = name.rpartition(".")
            if stat == "self_s" and head in LAYERS:
                out[name] = sum(v for k, v in self_s.items() if k.startswith(head + ".")) / passes
            elif stat == "self_s":
                out[name] = self_s[head] / passes
            elif stat == "busy_s":
                out[name] = busy[head] / passes
            elif stat == "calls":
                out[name] = calls[head] / passes
            elif name in COUNTED:
                out[name] = c[name] / passes
        membership_calls = c["membership.classical"] + c["membership.nosignalling"]
        outside = c["membership.classical.outside"] + c["membership.nosignalling.outside"]
        out.update({
            "linprog.infeasible_frac": c["linprog.infeasible"] / lp_calls if lp_calls else 0.0,
            "polytope.fm.lps": fm_lps / passes,
            "polytope.fm.lps_per_facet": fm_lps / c["polytope.fm.facets_out"] if c["polytope.fm.facets_out"] else 0.0,
            "inequalities.extension_membership.outside_frac": outside / membership_calls if membership_calls else 0.0,
            "trace.op_s": busy["cli.main"] / passes,
            "trace.self_sum_s": sum(self_s.values()) / passes,
            "trace.overhead_s": overhead_s,
            "trace.overhead_frac": overhead_frac,
        })
        for theory in ("classical", "nosignalling"):
            n = c[f"membership.{theory}"]
            out[f"inequalities.extension_membership.outside_frac.{theory}"] = (
                c[f"membership.{theory}.outside"] / n if n else 0.0
            )
        return {name: {"value": out[name], "unit": unit} for name, unit in METRICS.items()}

    def _under(self, span, ancestor):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
