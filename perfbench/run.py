"""certint benchmark: time and evaluations per certificate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke             # tiny runs, schema + spans
    python3 perfbench/run.py --verify-examples   # seed-1 rows vs examples

A run measures ``setup_s`` in fresh interpreters, then runs the workload in
a fresh worker process (``worker.py``) and prints every metric by name with
its unit, a ``record`` line (environment, result digest, tail percentile,
failures) and, as the last line, the result object.  The program under test
is ``src/certint`` of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("qmc_examples", "mc_examples", "cli_mixed")

# From a fresh interpreter to ready: import certint and build the first
# Sobol' and lattice generators, which load and checksum the bundled tables.
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import certint\n"
    "certint.SobolGenerator(3, rng=certint.RngStream(1))\n"
    "certint.LatticeGenerator(3, rng=certint.RngStream(1))\n"
    "print(repr(time.perf_counter() - t0))\n"
)
SETUP_REPEATS = 5

# A run is cut, and fails, after this long, so that it ends within 180 s.
RUN_TIMEOUT = 170.0

# The two examples workloads are a batch, as `certint examples` runs them:
# there one pass is one request, and the latencies of a run form one group.
# On cli_mixed a request is one solve and each pass is a group.  Latency
# percentiles are taken within a group and the median is taken over groups,
# so they do not depend on how many passes fit in a run.
BATCH_WORKLOADS = ("qmc_examples", "mc_examples")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(deadline: float) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                             env=child_env(), capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1.0),
                             check=True)
        times.append(float(out.stdout.strip()))
    return times


def run_worker(workload, seed, seconds, trace, smoke, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--src", SRC, "--workdir",
           os.path.join(OUT, f"work-{os.getpid()}")]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"worker for {workload} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are ten or fewer."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": importlib.metadata.version("numpy"),
           "scipy": importlib.metadata.version("scipy"),
           "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, index)
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = size
    except OSError:
        pass
    return env


def measure(workload, seed, seconds, trace, smoke=False) -> tuple:
    """One run; returns (result, record)."""
    deadline = time.monotonic() + RUN_TIMEOUT
    setup = measure_setup(deadline)
    rep = run_worker(workload, seed, seconds, trace, smoke, deadline)
    passes = rep["pass_seconds"]
    groups = [passes] if workload in BATCH_WORKLOADS else rep["latencies"]
    tails = [tail(g) for g in groups]
    failures = rep["failures"]
    problems = []
    if len(rep["digests"]) != 1:
        problems.append("passes of one run disagree on their results")
    if len(set(rep["n_evals"])) != 1:
        problems.append("passes of one run disagree on n_evals")
    if trace and rep["missing_spans"]:
        problems.append("spans that never fired: " +
                        ", ".join(rep["missing_spans"]))
    if trace:
        values = rep["layers"]
    else:
        values = {
            "solve_s": statistics.median(passes),
            "solve_p50_ms": 1e3 * statistics.median(
                statistics.median(g) for g in groups),
            "solve_tail_ms": 1e3 * statistics.median(t[0] for t in tails),
            "n_evals": rep["n_evals"][0],
            "peak_rss_mb": rep["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    units = declared_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": not failures and not problems,
              "attempted": rep["attempted"], "failed": len(failures),
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "environment": environment(),
        "result_digest": rep["digests"][0] if len(rep["digests"]) == 1
        else rep["digests"],
        "fail_share": len(failures) / rep["attempted"],
        "failures": failures, "problems": problems,
        "solves_per_pass": rep["solves"], "passes": len(passes),
        "pass_seconds": passes, "pass_cpu_seconds": rep["pass_cpu_seconds"],
        "setup_seconds": setup,
        "latency_unit": "pass" if workload in BATCH_WORKLOADS else "solve",
        "latency_groups": len(groups), "latency_samples": len(groups[0]),
        "tail_percentile": tails[0][1],
        "rows": rep["rows"],
    }
    if trace:
        record.update(traced_pass_seconds=rep["traced_pass_seconds"],
                      span_coverage=rep["span_coverage"])
    return result, record


def print_run(result, record) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {record['passes']} x "
          f"{record['solves_per_pass']} solves")
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_share':<30} {record['fail_share']:>16.6g} share "
          f"({result['failed']}/{result['attempted']})")
    if not record["trace"]:
        print(f"  tail is p{record['tail_percentile']:.1f} of "
              f"{record['latency_samples']} {record['latency_unit']} latencies, "
              f"median over {record['latency_groups']} group(s)")
    print(f"  result_digest {record['result_digest']}")
    for f in record["failures"]:
        print(f"  FAILED {f['solve']}: {f['detail']}")
    for p in record["problems"]:
        print(f"  PROBLEM {p}")


def save(record, result) -> None:
    os.makedirs(OUT, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    with open(os.path.join(OUT, name + ".json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics() -> tuple:
    spec = _declared()
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def declared_units() -> dict:
    spec = _declared()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: the output must
    carry exactly the declared metrics, all finite, and every required
    span must fire."""
    end_to_end, per_layer = declared_metrics()
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = measure(workload, 1, 0, trace, smoke=True)
            want = per_layer if trace else end_to_end
            got = result["metrics"]
            values = [v["value"] for v in got.values()]
            errors = list(record["problems"]) + \
                [f"{f['solve']}: {f['detail']}" for f in record["failures"]]
            if sorted(got) != sorted(want):
                errors.append(f"metrics {sorted(set(got) ^ set(want))} "
                              "differ from BENCHMARK.json")
            if not all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values):
                errors.append("a metric is not a finite number")
            print(f"{'ok  ' if not errors else 'FAIL'} {workload} trace {trace}: "
                  f"{record['solves_per_pass']} solves, {len(got)} metrics")
            for e in errors:
                print(f"     {e}")
            bad += bool(errors)
    return 1 if bad else 0


def verify_examples() -> int:
    """Seed-1 rows of qmc_examples and mc_examples against
    `certint examples --seed 1 --json`, bit for bit."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "examples-seed1.json")
    subprocess.run([sys.executable, "-m", "certint.cli", "examples", "--seed",
                    "1", "--json", path], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, check=True, timeout=600)
    with open(path) as fh:
        reference = {r["command"][len("examples/"):]: r for r in json.load(fh)}
    mismatches = 0
    for workload in BATCH_WORKLOADS:
        rep = run_worker(workload, 1, 0, 0, False, time.monotonic() + 600)
        for name, fields in rep["rows"]:
            ref = reference[name]
            want = (ref["estimate"], ref["diagnostics"]["n_evals"])
            got = tuple(fields[:2]) if fields else (None, None)
            same = got == want
            mismatches += not same
            print(f"{'same' if same else 'DIFF'}  {name:<35} estimate "
                  f"{got[0]!r} n_evals {got[1]}" +
                  ("" if same else f"  (examples: {want[0]!r}, {want[1]})"))
    print(f"{mismatches} mismatching rows")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--verify-examples", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "certint", "__init__.py")):
        print(f"error: no certint sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.verify_examples:
            return verify_examples()
        if args.workload is None:
            ap.error("--workload is required")
        result, record = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(record, result)
    print_run(result, record)
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k != "rows"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
