"""In-memory spans around the calls into certint's modules.

The tracer wraps each public function where its caller looks the name up:
``certint.cli.cub_sobol`` for the CLI's solver calls,
``certint.qmc_cubature.fwht_inplace`` for the cubature's transform, the
point methods on their classes, ``certint.exprlang.parse`` and
``eval_batch`` on their module, and the solvers and integrands the
benchmark hands out through its :class:`~workloads.Probe`.  Nothing inside
certint is edited; :meth:`Tracer.uninstall` puts every original back.

A span is ``[name, start_ns, end_ns, parent, solve, count]``.  A name's
self time is its spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time

import certint.cli
import certint.exprlang
import certint.qmc_cubature
import certint.qmc_points

_SOBOL = certint.qmc_points.SobolGenerator
_LATTICE = certint.qmc_points.LatticeGenerator

# Solver spans: the CLI's lookups and the probe's share names.
SOLVER_LAYER = {
    "funappx": "univariate", "funmin": "univariate", "integral": "univariate",
    "mean_mc": "montecarlo", "mean_mc_ber": "montecarlo", "cub_mc": "montecarlo",
    "cub_lattice": "qmc_cubature", "cub_sobol": "qmc_cubature",
}

# (span name, owner, attribute, count of work done by one call)
_LIBRARY_TARGETS = [
    ("qmc_points.sobol_init", _SOBOL, "__init__", None),
    ("qmc_points.sobol_points", _SOBOL, "points",
     lambda a, k: a[2] - a[1]),
    ("qmc_points.lattice_points", _LATTICE, "points_at_level",
     lambda a, k: len(a[2])),
    ("qmc_points.fwht", certint.qmc_cubature, "fwht_inplace",
     lambda a, k: len(a[0])),
    ("qmc_cubature.measure_map", certint.qmc_cubature, "measure_map", None),
    ("qmc_cubature.cone_check", certint.qmc_cubature, "cone_check", None),
    ("exprlang.parse", certint.exprlang, "parse", None),
    ("exprlang.eval_batch", certint.exprlang, "eval_batch",
     lambda a, k: len(a[1])),
] + [(f"{layer}.{name}", certint.cli, name, None)
     for name, layer in SOLVER_LAYER.items()]

# Spans each workload must see fire at least once in a traced pass.
REQUIRED = {
    "qmc_examples": ["qmc_cubature.cub_lattice", "qmc_cubature.cub_sobol",
                     "qmc_points.sobol_init", "qmc_points.sobol_points",
                     "qmc_points.lattice_points", "qmc_points.fwht",
                     "qmc_cubature.measure_map", "qmc_cubature.cone_check",
                     "integrand"],
    "mc_examples": ["montecarlo.mean_mc", "montecarlo.mean_mc_ber",
                    "montecarlo.cub_mc", "integrand"],
    "cli_mixed": ["cli.run", "exprlang.parse", "exprlang.eval_batch"] +
                 [f"{layer}.{name}" for name, layer in SOLVER_LAYER.items()] +
                 ["qmc_points.sobol_init", "qmc_points.sobol_points",
                  "qmc_points.lattice_points", "qmc_points.fwht",
                  "qmc_cubature.measure_map", "qmc_cubature.cone_check"],
}


class Tracer:
    """Spans of one traced pass; ``solve`` is the index of the solve in
    flight, set by the caller."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve = -1
        self._saved = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.solve,
                    count(args, kwargs) if count else 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self, probe) -> None:
        """Wrap certint's lookups and the probe's entry points."""
        targets = list(_LIBRARY_TARGETS)
        targets.append(("cli.run", probe, "cli_run", None))
        targets += [(f"{SOLVER_LAYER[n]}.{n}", probe, n, None)
                    for n in ("mean_mc", "mean_mc_ber", "cub_mc",
                              "cub_lattice", "cub_sobol")]
        for name, owner, attr, count in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        integrand = functools.partial(self.wrap, "integrand")
        self._saved.append((probe, "integrand", probe.integrand))
        probe.integrand = integrand

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def missing(self, workload: str) -> list:
        fired = {s[0] for s in self.spans}
        return [n for n in REQUIRED[workload] if n not in fired]

    def totals(self) -> dict:
        """name -> [seconds, self seconds, calls, count]."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out = {}
        for span, child in zip(self.spans, covered):
            t = out.setdefault(span[0], [0.0, 0.0, 0, 0])
            dur = span[2] - span[1]
            t[0] += dur * 1e-9
            t[1] += (dur - child) * 1e-9
            t[2] += 1
            t[3] += span[5]
        return out


def layer_metrics(totals: dict, outcomes: list) -> dict:
    """Per-layer metrics of one traced pass.

    ``outcomes`` holds ``(Outcome, |error|)`` for every solve of the pass;
    counts that the solvers report (levels, draws, evaluations) come from
    there, times and work counts at the layer boundaries from the spans.
    """
    def get(name, i):
        return totals.get(name, (0.0, 0.0, 0, 0))[i]

    def self_of(layer):
        return sum(t[1] for n, t in totals.items()
                   if n.startswith(layer + ".") and
                   n.split(".", 1)[1] in SOLVER_LAYER)

    def span_of(layer):
        return sum(t[0] for n, t in totals.items()
                   if n.startswith(layer + ".") and
                   n.split(".", 1)[1] in SOLVER_LAYER)

    by_layer = {"qmc": [], "mc": [], "univariate": []}
    for out, err in outcomes:
        by_layer[out.layer].append((out, err))
    qmc, mc, uni = by_layer["qmc"], by_layer["mc"], by_layer["univariate"]
    # bound over error needs a nonzero error to be defined
    ratios = [o.errest / e for o, e in qmc if e]
    draws = sum(o.n_evals for o, _ in mc)
    mc_span = span_of("montecarlo")
    uni_evals = sum(o.n_evals for o, _ in uni)
    uni_knots = sum(o.n_points for o, _ in uni)
    eval_s, eval_points = get("exprlang.eval_batch", 1), get("exprlang.eval_batch", 3)
    return {
        "qmc_points.sobol_points_s": get("qmc_points.sobol_points", 1),
        "qmc_points.sobol_points_n": get("qmc_points.sobol_points", 3),
        "qmc_points.lattice_points_s": get("qmc_points.lattice_points", 1),
        "qmc_points.lattice_points_n": get("qmc_points.lattice_points", 3),
        "qmc_points.fwht_s": get("qmc_points.fwht", 1),
        "qmc_points.fwht_len": get("qmc_points.fwht", 3),
        "qmc_points.sobol_init_s": get("qmc_points.sobol_init", 1),
        "qmc_cubature.self_s": self_of("qmc_cubature"),
        "qmc_cubature.measure_map_s": get("qmc_cubature.measure_map", 1),
        "qmc_cubature.cone_check_s": get("qmc_cubature.cone_check", 1),
        "qmc_cubature.levels": sum(o.levels for o, _ in qmc),
        "qmc_cubature.bound_over_err": statistics.median(ratios) if ratios else 0.0,
        "montecarlo.self_s": self_of("montecarlo"),
        "montecarlo.draws": draws,
        "montecarlo.draws_per_s": draws / mc_span if mc_span else 0.0,
        "montecarlo.iterations": sum(o.iterations for o, _ in mc),
        "univariate.self_s": self_of("univariate"),
        "univariate.evals": uni_evals,
        "univariate.evals_per_knot": uni_evals / uni_knots if uni_knots else 0.0,
        "exprlang.parse_s": get("exprlang.parse", 1),
        "exprlang.eval_s": eval_s,
        "exprlang.eval_points": eval_points,
        "exprlang.eval_ns_per_point": eval_s * 1e9 / eval_points if eval_points else 0.0,
        "integrand.s": get("integrand", 1),
        "integrand.evals": get("integrand", 2),
        "cli.self_s": get("cli.run", 1),
        "cli.json_bytes": sum(o.extra.get("json_bytes", 0) for o, _ in outcomes),
    }
