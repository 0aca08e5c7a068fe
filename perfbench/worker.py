"""One workload in one fresh process: closed loop, one client, one thread.

Started by ``run.py``; prints a single JSON object on stdout.  Passes over
the workload's solves are issued back to back.  A pass is timed as a whole
and per solve, then finished (reports read back, results checked against
their truths) outside the timed region.  With ``--trace 1`` untraced and
traced passes alternate, so the run also measures the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback


def _checked_import(src: str):
    import certint
    where = os.path.dirname(os.path.abspath(certint.__file__))
    if where != os.path.join(src, "certint"):
        raise SystemExit(f"certint imported from {where}, not from {src}")


class Raised:
    """Stands in for the result of a solve that raised."""

    def __init__(self, text: str):
        self.text = text


def issue(solve, probe):
    try:
        return solve.run(probe)
    except Exception:   # a raising solve fails; the run goes on
        return Raised(traceback.format_exc())


def run_pass(solves, probe, tracer=None):
    """Issue every solve once; returns (seconds, cpu seconds, latencies,
    raws)."""
    raws, lat = [], []
    clock = time.perf_counter
    t_pass, cpu = clock(), time.process_time()
    for i, solve in enumerate(solves):
        if tracer is not None:
            tracer.solve = i
        t0 = clock()
        raws.append(issue(solve, probe))
        lat.append(clock() - t0)
    return clock() - t_pass, time.process_time() - cpu, lat, raws


def finish_pass(solves, raws) -> dict:
    """Check every solve of a pass and fold its results into a digest."""
    digest = hashlib.sha256()
    outcomes, failures, rows, n_evals = [], [], [], 0
    for solve, raw in zip(solves, raws):
        if isinstance(raw, Raised):
            out, ok, err, detail = None, False, None, raw.text
        else:
            out, ok, err, detail = solve.finish(raw)
        fields = out.digest_fields() if out is not None else None
        digest.update(repr(fields).encode())
        rows.append([solve.name, fields])
        if out is not None:
            n_evals += out.n_evals
            outcomes.append((out, err))
        if not ok:
            failures.append({"solve": solve.name, "detail": detail})
    return {"digest": digest.hexdigest(), "outcomes": outcomes,
            "failures": failures, "rows": rows, "n_evals": n_evals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    _checked_import(args.src)
    import certint
    import spans as tracing
    import workloads

    # the same set-up that setup_s measures, done before any timing
    certint.SobolGenerator(3, rng=certint.RngStream(1))
    certint.LatticeGenerator(3, rng=certint.RngStream(1))

    os.makedirs(args.workdir, exist_ok=True)
    try:
        solves = workloads.build(args.workload, args.seed, args.smoke,
                                 args.workdir)
        probe = workloads.Probe()
        plain, traced = [], []
        t_begin = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            secs, cpu, lat, raws = run_pass(solves, probe)
            done = finish_pass(solves, raws)
            done.pop("outcomes")
            plain.append(dict(done, seconds=secs, cpu_seconds=cpu,
                              latencies=lat))
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install(probe)
                try:
                    secs, _, _, raws = run_pass(solves, probe, tracer)
                finally:
                    tracer.uninstall()
                done = finish_pass(solves, raws)
                totals = tracer.totals()
                layers = tracing.layer_metrics(totals, done.pop("outcomes"))
                traced.append(dict(
                    done, seconds=secs, layers=layers,
                    missing=tracer.missing(args.workload),
                    span_seconds=sum(t[1] for t in totals.values())))
            # one more round only if it fits the measuring time
            now = time.perf_counter()
            if now - t_begin + (now - t_round) > args.seconds:
                break
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    everything = plain + traced
    report = {
        "solves": len(solves),
        "pass_seconds": [p["seconds"] for p in plain],
        "pass_cpu_seconds": [p["cpu_seconds"] for p in plain],
        "latencies": [p["latencies"] for p in plain],
        "n_evals": [p["n_evals"] for p in everything],
        "digests": sorted({p["digest"] for p in everything}),
        "failures": [f for p in everything for f in p["failures"]],
        "attempted": len(solves) * len(everything),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # name and (estimate, n_evals, errest, exit_flags) of every solve
        "rows": plain[0]["rows"],
    }
    if args.trace:
        layers = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        traced_s = statistics.median(t["seconds"] for t in traced)
        layers["trace_overhead"] = traced_s / statistics.median(
            report["pass_seconds"]) - 1.0
        report.update(
            layers=layers,
            traced_pass_seconds=[t["seconds"] for t in traced],
            # share of a traced pass that the spans' self times account for
            span_coverage=statistics.median(
                t["span_seconds"] / t["seconds"] for t in traced),
            missing_spans=sorted({n for t in traced for n in t["missing"]}))
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
