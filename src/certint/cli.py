"""Batch command-line front-end.

One subcommand per algorithm plus ``examples``, which re-runs the full
embedded table of worked examples and checks every estimate against its
closed-form (or high-precision oracle) truth within the documented
generalized tolerance.

Each subcommand declares only the flags it reads, so a flag it does not
declare is a parse error.  ``funappx``, ``funmin`` and ``integral`` work
at dimension 1 and draw no random numbers: they take neither ``--dim``
nor ``--seed``.  ``meanmcber`` draws from its built-in Bernoulli
generator: it takes ``--seed`` but neither ``--f`` nor ``--dim``.
``meanmc`` takes both; ``cubmc``, ``cublattice`` and ``cubsobol`` take
both, with ``--dim`` optional and checked against ``--box``.

The argument parser is built once per process, on the first :func:`run`,
and reused by every later call.

A run's report is a dict: ``command``, ``inputs`` (the parsed flags),
``estimate`` and ``diagnostics`` (the JSON view of the run's
:class:`SolverDiagnostics`), plus ``grid`` for ``funappx --grid N`` and
``pass``/``truth``/``truth_provenance`` per ``examples`` row.  ``--json
PATH`` writes it (a list of them for ``examples``) as strict JSON, with
NaN and infinities as ``null``; timing is kept out of the JSON so
fixed-seed reports are byte-identical across runs.  Exit
codes: 0 clean, 1 configuration/parse error, 2 a documented warning flag
was raised, 3 one or more example fixtures failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import exprlang
from .core import (Budget, RngStream, SolverDiagnostics, ToleranceSpec,
                   TolType, tolfun)
from .errors import CertintError, ConfigurationError
from .montecarlo import (Hyperbox, McParams, Measure, cub_mc, mean_mc,
                         mean_mc_ber, measure_map)
from .qmc_cubature import QmcParams, cub_lattice, cub_sobol
from .qmc_points import Periodizer
from .univariate import IntervalProblem, eval_approx, funappx, funmin, integral

__all__ = ["run", "run_doc_examples", "main"]


def _dump_json(payload, path: str) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline,
    with every NaN and infinity written as ``null``.

    json writes those as the bare tokens ``NaN`` and ``Infinity``, which
    RFC 8259 parsers such as JavaScript's ``JSON.parse`` reject; ``null``
    is what ``JSON.stringify`` writes.  With ``indent`` set, json encodes
    element by element in pure Python.  Here a flat list of finite
    numbers (a ``--grid`` holds thousands) goes through json's C encoder
    in one call and is re-joined with the same separators and
    indentation; strings and finite numbers are written as json writes
    them, and anything else is left to json itself.
    """
    parts = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    try:
        with open(path, "w") as fh:
            fh.write("".join(parts))
    except OSError as exc:
        raise ConfigurationError(f"cannot write --json {path}: "
                                 f"{exc.strerror or exc}") from exc


def _encode(obj, newline: str, parts: list) -> None:
    """Append the ``indent=2`` encoding of ``obj``, whose later lines
    start with ``newline`` (a newline and the current indentation)."""
    inner = newline + "  "
    kind = type(obj)
    if kind is str:
        parts.append(encode_basestring_ascii(obj))
    elif kind is int:
        parts.append(repr(obj))
    elif isinstance(obj, float):
        parts.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif kind is dict and obj and all(type(k) is str for k in obj):
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif kind in (list, tuple) and obj:
        if set(map(type, obj)) <= {float, int}:
            text = json.dumps(obj)
            # only a NaN or an infinity spells a letter
            if "N" not in text and "I" not in text:
                items = text[1:-1].split(", ")
                parts.append("[" + inner + ("," + inner).join(items)
                             + newline + "]")
                return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _encode(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        # True, False, None, empty containers, other types
        parts.append(json.dumps(obj, sort_keys=True, indent=2,
                                allow_nan=False).replace("\n", newline))


# ---------------------------------------------------------------------------
# Flag plumbing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="certint",
        description="Guaranteed automatic integration, approximation, "
                    "minimization, and (quasi-)Monte Carlo cubature.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, tol_default, *, expr=True, rel=False, seeded=True):
        if expr:
            p.add_argument("--f", required=True,
                           help="integrand expression, e.g. 'x^2'")
        p.add_argument("--abstol", type=float, default=tol_default)
        if rel:
            p.add_argument("--reltol", type=float, default=None)
            p.add_argument("--toltype", choices=[t.value for t in TolType],
                           default="max")
            p.add_argument("--theta", type=float, default=1.0)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", dest="json_path", default=None,
                       help="write the run report to this path")

    def interval(p):
        common(p, 1e-6, seeded=False)
        p.add_argument("--a", type=float, default=0.0)
        p.add_argument("--b", type=float, default=1.0)
        p.add_argument("--nlo", type=int, default=10)
        p.add_argument("--nhi", type=int, default=1000)
        p.add_argument("--nmax", type=int, default=10_000_000)
        p.add_argument("--maxiter", type=int, default=1000)

    def measure(p):
        p.add_argument("--measure", choices=["uniform", "normal"],
                       default="uniform")

    def boxed(p, tol_default):
        common(p, tol_default, rel=True)
        p.add_argument("--dim", type=int, default=None,
                       help="must equal the dimension of --box if given")
        p.add_argument("--box", required=True,
                       help="'l1,u1;l2,u2;...' (inf allowed with "
                            "--measure normal)")
        measure(p)

    p = sub.add_parser("funappx", help="piecewise-linear approximation")
    interval(p)
    p.add_argument("--grid", type=int, default=None,
                   help="dump the approximant on N >= 0 uniform points")

    p = sub.add_parser("funmin", help="guaranteed global minimum")
    interval(p)
    p.add_argument("--tolx", type=float, default=1e-3)

    interval(sub.add_parser("integral",
                            help="adaptive trapezoidal quadrature"))

    p = sub.add_parser("meanmc", help="guaranteed Monte Carlo mean of f(U)")
    common(p, 1e-2, rel=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.01)
    measure(p)
    p.add_argument("--nbudget", type=int, default=1_000_000_000)

    p = sub.add_parser("meanmcber", help="Bernoulli mean via Hoeffding")
    common(p, 1e-2, expr=False)
    p.add_argument("--p", type=float, required=True,
                   help="success probability of the built-in generator")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--nmax", type=int, default=1_000_000_000)

    p = sub.add_parser("cubmc", help="Monte Carlo cubature over a hyperbox")
    boxed(p, 1e-2)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--nbudget", type=int, default=1_000_000_000)

    for name, helptext in (("cublattice", "rank-1 lattice cubature"),
                           ("cubsobol", "Sobol' cubature")):
        p = sub.add_parser(name, help=helptext)
        boxed(p, 1e-4)
        p.add_argument("--mmin", type=int, default=10)
        p.add_argument("--mmax", type=int, default=24)
        if name == "cublattice":
            p.add_argument("--transform",
                           choices=[v.value for v in Periodizer],
                           default="baker")

    p = sub.add_parser("examples", help="run the embedded worked-example table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", dest="json_path", default=None)
    return top


def _parse_box(text: str, measure: str) -> Hyperbox:
    lows, highs = [], []
    for part in text.split(";"):
        try:
            lo, hi = (float(x) for x in part.split(","))
        except ValueError:      # not two numbers
            raise ConfigurationError(f"bad box component {part!r}") from None
        lows.append(lo)
        highs.append(hi)
    meas = Measure.NORMAL if measure == "normal" else Measure.UNIFORM
    box = Hyperbox(np.array(lows), np.array(highs), meas)
    if meas is Measure.UNIFORM and not (
            np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper))):
        raise ConfigurationError(
            "infinite bounds are accepted only with --measure normal")
    return box


def _box_arg(args, inputs: dict) -> Hyperbox:
    """The ``--box`` of a cubature subcommand.  Its dimension is the run's:
    an explicit ``--dim`` must agree with it, and ``inputs`` echoes it."""
    box = _parse_box(args.box, args.measure)
    if args.dim is not None and args.dim != box.dimension:
        raise ConfigurationError(
            f"--dim {args.dim} disagrees with the {box.dimension}-dimensional "
            f"--box")
    inputs["dim"] = box.dimension
    return box


def _tolspec(args, default_rel: float) -> ToleranceSpec:
    return ToleranceSpec(
        abstol=args.abstol,
        reltol=default_rel if args.reltol is None else args.reltol,
        toltype=TolType(args.toltype), theta=args.theta)


def _expr_fn(text: str, dim: int):
    tree = exprlang.parse(text, dim)
    return lambda pts: exprlang.eval_batch(tree, pts)


def _qmc_diagnostics(algorithm: str, res,
                     params: QmcParams) -> SolverDiagnostics:
    """The diagnostics record of one ``cub_lattice``/``cub_sobol`` run."""
    return SolverDiagnostics(
        algorithm=algorithm, n_evals=res.n, n_points=res.n,
        iterations=res.extra["m"] - params.mmin + 1, errest=res.bound_err,
        exit_flags=res.exitflag, elapsed_seconds=res.time, extra=res.extra)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _run_subcommand(args) -> dict:
    """Run one solver subcommand; returns its report."""
    cmd = args.command
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "json_path") and v is not None}
    report = {"command": cmd, "inputs": inputs, "estimate": None}

    if cmd in ("funappx", "funmin", "integral"):
        problem = IntervalProblem(
            f=_expr_fn(args.f, 1), a=args.a, b=args.b, abstol=args.abstol,
            nlo=args.nlo, nhi=args.nhi,
            budget=Budget(nmax=args.nmax, maxiter=args.maxiter),
        )
        if cmd == "funappx":
            if args.grid is not None and args.grid < 0:
                raise ConfigurationError("--grid must be >= 0")
            approx, diag = funappx(problem)
            if args.grid:
                xs = np.linspace(args.a, args.b, args.grid)
                report["grid"] = {"xs": xs.tolist(),
                                  "ys": eval_approx(approx, xs).tolist()}
        elif cmd == "funmin":
            result, diag = funmin(problem, tolx=args.tolx)
            report["estimate"] = result.fmin
        else:
            report["estimate"], diag = integral(problem)

    elif cmd == "meanmcber":
        if not (0.0 <= args.p <= 1.0):
            raise ConfigurationError("--p must be in [0,1]")
        pval = args.p

        def yrand(n, gen):
            return (gen.random(n) < pval).astype(float)

        report["estimate"], diag = mean_mc_ber(
            yrand, abstol=args.abstol, alpha=args.alpha, nmax=args.nmax,
            rng=RngStream(args.seed))

    elif cmd == "meanmc":
        f = _expr_fn(args.f, args.dim)
        params = McParams(tol=_tolspec(args, 1e-1), alpha=args.alpha,
                          nbudget=args.nbudget)
        normal = None
        if args.measure == "normal":
            normal = Hyperbox([-math.inf] * args.dim, [math.inf] * args.dim,
                              Measure.NORMAL)

        def yrand(n, gen):
            u = gen.random((n, args.dim))
            if normal is not None:
                u = measure_map(u, normal)[0]
            return f(u)

        report["estimate"], diag = mean_mc(yrand, params,
                                           RngStream(args.seed))

    elif cmd == "cubmc":
        box = _box_arg(args, inputs)
        f = _expr_fn(args.f, box.dimension)
        params = McParams(tol=_tolspec(args, 1e-1), alpha=args.alpha,
                          nbudget=args.nbudget)
        report["estimate"], diag = cub_mc(f, box, params,
                                          RngStream(args.seed))
        if diag.exit_flags >= 10:
            raise ConfigurationError(
                f"invalid hyperbox (exit code {diag.exit_flags})")

    else:   # cublattice, cubsobol
        box = _box_arg(args, inputs)
        f = _expr_fn(args.f, box.dimension)
        params = QmcParams(
            tol=_tolspec(args, 1e-2), mmin=args.mmin, mmax=args.mmax,
            transform=Periodizer(getattr(args, "transform", "baker")),
        )
        solver = cub_lattice if cmd == "cublattice" else cub_sobol
        res = solver(f, box, params, RngStream(args.seed))
        report["estimate"] = res.q
        diag = _qmc_diagnostics(cmd, res, params)

    report["diagnostics"] = diag.to_json_dict()
    return report


# ---------------------------------------------------------------------------
# Worked-example fixtures
# ---------------------------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)


def _fixtures() -> list:
    """The full embedded table of worked examples with oracle truths."""
    from scipy.special import erf, ndtr
    fx = []

    def add(name, run_fn, truth, tol, provenance, check=None):
        fx.append({"name": name, "run": run_fn, "truth": truth,
                   "tol": tol, "provenance": provenance, "check": check})

    # --- univariate approximation: certified sup error against x^2
    def approx_case(name, a, b, abstol, nlo, nhi, nmax):
        def run_fn(_seed):
            problem = IntervalProblem(f=lambda x: x**2, a=a, b=b,
                                      abstol=abstol, nlo=nlo, nhi=nhi,
                                      budget=Budget(nmax=nmax))
            approx, diag = funappx(problem)
            xs = np.linspace(a, b, 100_001)
            sup = float(np.max(np.abs(eval_approx(approx, xs) - xs**2)))
            return sup, diag
        add(name, run_fn, 0.0, abstol, "sup error of the interpolant vs x^2")

    approx_case("approx x^2 [0,1]", 0, 1, 1e-6, 10, 1000, 10**7)
    approx_case("approx x^2 [0,100]", 0, 100, 1e-7, 10, 1000, 10**8)
    approx_case("approx x^2 [-20,20]", -20, 20, 1e-7, 10, 100, 10**8)
    approx_case("approx x^2 [-10,50]", -10, 50, 1e-7, 10, 1000, 10**6)

    # --- global minimization of (x-0.3)^2 + 1 (true minimum 1 at 0.3)
    def funmin_case(name, a, b, abstol, tolx, nlo, nhi, nmax):
        def run_fn(_seed):
            problem = IntervalProblem(f=lambda x: (x - 0.3)**2 + 1, a=a, b=b,
                                      abstol=abstol, nlo=nlo, nhi=nhi,
                                      budget=Budget(nmax=nmax))
            result, diag = funmin(problem, tolx=tolx)
            return result.fmin, diag

        def check(estimate, diag):
            contains = any(lo <= 0.3 <= hi
                           for lo, hi in diag.extra["intervals"])
            met = (abs(estimate - 1.0) <= abstol
                   or diag.extra["volumeX"] <= tolx)
            return diag.exit_flags == 0 and contains and met

        add(name, run_fn, 1.0, abstol, "minimum of (x-0.3)^2+1", check)

    funmin_case("funmin [0,1]", 0, 1, 1e-6, 1e-3, 10, 1000, 10**7)
    funmin_case("funmin [-2,2] tight", -2, 2, 1e-7, 1e-4, 10, 10, 10**6)
    funmin_case("funmin [-13,8]", -13, 8, 1e-7, 1e-4, 10, 100, 10**6)
    funmin_case("funmin [-2,2] loose", -2, 2, 1e-4, 1e-2, 10, 100, 10**6)

    # --- trapezoidal quadrature
    def quad_case(name, f, a, b, abstol, nlo, nhi, truth, provenance):
        def run_fn(_seed):
            problem = IntervalProblem(f=f, a=a, b=b, abstol=abstol,
                                      nlo=nlo, nhi=nhi)
            return integral(problem)
        add(name, run_fn, truth, abstol, provenance)

    quad_case("integral x^2", lambda x: x**2, 0, 1, 1e-6, 10, 1000,
              1.0 / 3.0, "closed form 1/3")
    quad_case("integral exp(-x^2) [1,2]", lambda x: np.exp(-x**2), 1, 2,
              1e-5, 100, 10000, _SQRT_PI / 2 * (erf(2.0) - erf(1.0)),
              "error-function closed form")

    # --- guaranteed Monte Carlo mean
    def meanmc_case(name, make_y, spec, alpha, truth, provenance):
        def run_fn(seed_):
            params = McParams(tol=spec, alpha=alpha)
            return mean_mc(make_y, params, RngStream(seed_))
        add(name, run_fn, truth, tolfun(spec, abs(truth)), provenance)

    meanmc_case("meanmc U^2",
                lambda n, gen: gen.random(n)**2,
                ToleranceSpec(1e-3, 0.0), 0.05, 1.0 / 3.0, "E U^2 = 1/3")
    meanmc_case("meanmc exp(U)",
                lambda n, gen: np.exp(gen.random(n)),
                ToleranceSpec(1e-3, 0.0), 0.01, math.e - 1.0, "E e^U = e-1")
    meanmc_case("meanmc cos(U)",
                lambda n, gen: np.cos(gen.random(n)),
                ToleranceSpec(0.0, 1e-2), 0.05, math.sin(1.0),
                "E cos U = sin 1")

    # --- Bernoulli means, p = 1/9
    def ber_case(name, abstol, alpha):
        p = 1.0 / 9.0

        def run_fn(seed_):
            return mean_mc_ber(
                lambda n, gen: (gen.random(n) < p).astype(float),
                abstol=abstol, alpha=alpha, nmax=10**9, rng=RngStream(seed_))
        add(name, run_fn, p, abstol, "Bernoulli p = 1/9")

    ber_case("meanmcber abstol 1e-3", 1e-3, 0.01)
    ber_case("meanmcber abstol 1e-4", 1e-4, 0.01)
    ber_case("meanmcber abstol 1e-2", 1e-2, 0.05)

    # --- Monte Carlo cubature
    def cubmc_case(name, f, box, spec, alpha, truth, provenance):
        def run_fn(seed_):
            params = McParams(tol=spec, alpha=alpha)
            return cub_mc(f, box, params, RngStream(seed_))
        add(name, run_fn, truth, tolfun(spec, abs(truth)), provenance)

    cubmc_case("cubmc sin [1,2]",
               lambda x: np.sin(x[:, 0]),
               Hyperbox([1.0], [2.0], Measure.UNIFORM),
               ToleranceSpec(1e-3, 1e-2), 0.01,
               math.cos(1.0) - math.cos(2.0), "cos 1 - cos 2")
    cubmc_case("cubmc exp(-x1^2-x2^2) [0,1]^2",
               lambda x: np.exp(-x[:, 0]**2 - x[:, 1]**2),
               Hyperbox([0.0, 0.0], [1.0, 1.0], Measure.UNIFORM),
               ToleranceSpec(1e-3, 1e-13), 0.01,
               (_SQRT_PI / 2 * erf(1.0))**2, "squared erf closed form")
    cubmc_case("cubmc 8 prod + 0.555 [0,1]^3",
               lambda x: 8.0 * np.prod(x, axis=1) + 0.555,
               Hyperbox([0.0] * 3, [1.0] * 3, Measure.UNIFORM),
               ToleranceSpec(1e-3, 1e-3), 0.01, 1.555, "product integral")
    cubmc_case("cubmc exp(-|x|^2) normal",
               lambda x: np.exp(-x[:, 0]**2 - x[:, 1]**2),
               Hyperbox([-math.inf] * 2, [math.inf] * 2, Measure.NORMAL),
               ToleranceSpec(0.0, 1e-2), 0.01, 1.0 / 3.0,
               "E exp(-Z^2) = 1/sqrt(3) per coordinate")

    # --- QMC cubature
    def qmc_case(name, solver, f, box, spec, transform, truth, provenance,
                 mmax=24):
        def run_fn(seed_):
            params = QmcParams(tol=spec, mmax=mmax,
                               transform=Periodizer(transform))
            res = solver(f, box, params, RngStream(seed_))
            return res.q, _qmc_diagnostics(name.split()[0], res, params)
        add(name, run_fn, truth, tolfun(spec, abs(truth)), provenance)

    unit2 = Hyperbox([0.0, 0.0], [1.0, 1.0], Measure.UNIFORM)
    unit5 = Hyperbox([0.0] * 5, [1.0] * 5, Measure.UNIFORM)
    normal1 = Hyperbox([-math.inf], [math.inf], Measure.NORMAL)
    normal3 = Hyperbox([-math.inf] * 3, [math.inf] * 3, Measure.NORMAL)
    box12 = Hyperbox([-1.0, -1.0], [2.0, 2.0], Measure.UNIFORM)

    def f_prod(x):
        return np.prod(x, axis=1)

    def f_sq3(x):
        return x[:, 0]**2 * x[:, 1]**2 * x[:, 2]**2

    def f_gauss2(x):
        return np.exp(-x[:, 0]**2 - x[:, 1]**2)

    def f_call(x):
        return math.exp(-0.05**2 / 2) * np.maximum(
            100.0 * np.exp(0.05 * x[:, 0]) - 100.0, 0.0)

    def f_prod8(x):
        return 8.0 * np.prod(x, axis=1)

    def f_poisson(x):
        return 3.0 / (5.0 - 4.0 * np.cos(2.0 * np.pi * x[:, 0]))

    call_truth = 100.0 * (ndtr(0.05) - math.exp(-0.05**2 / 2) * 0.5)
    gauss12_truth = (_SQRT_PI / 2 * (erf(2.0) + erf(1.0)))**2

    qmc_case("cublattice prod [0,1]^2", cub_lattice, f_prod, unit2,
             ToleranceSpec(1e-5, 0.0), "c1sin", 0.25, "product integral")
    qmc_case("cublattice x^2 moments normal", cub_lattice, f_sq3, normal3,
             ToleranceSpec(1e-3, 1e-3), "c1sin", 1.0,
             "product of normal second moments")
    qmc_case("cublattice exp [-1,2]^2", cub_lattice, f_gauss2, box12,
             ToleranceSpec(1e-3, 1e-2), "c1", gauss12_truth,
             "error-function closed form")
    qmc_case("cublattice call option", cub_lattice, f_call, normal1,
             ToleranceSpec(1e-4, 1e-2), "c1sin", call_truth,
             "lognormal call expectation")
    qmc_case("cublattice 8 prod [0,1]^5", cub_lattice, f_prod8, unit5,
             ToleranceSpec(1e-5, 0.0), "baker", 0.25, "product integral")
    qmc_case("cublattice poisson kernel", cub_lattice, f_poisson,
             Hyperbox([0.0], [1.0], Measure.UNIFORM),
             ToleranceSpec(1e-5, 0.0), "id", 1.0,
             "classical cosine integral")

    qmc_case("cubsobol prod [0,1]^2", cub_sobol, f_prod, unit2,
             ToleranceSpec(1e-5, 0.0), "id", 0.25, "product integral")
    qmc_case("cubsobol x^2 moments normal", cub_sobol, f_sq3, normal3,
             ToleranceSpec(1e-3, 1e-3), "id", 1.0,
             "product of normal second moments")
    qmc_case("cubsobol exp [-1,2]^2", cub_sobol, f_gauss2, box12,
             ToleranceSpec(1e-3, 1e-2), "id", gauss12_truth,
             "error-function closed form")
    qmc_case("cubsobol call option", cub_sobol, f_call, normal1,
             ToleranceSpec(1e-4, 1e-2), "id", call_truth,
             "lognormal call expectation")
    qmc_case("cubsobol 8 prod [0,1]^5", cub_sobol, f_prod8, unit5,
             ToleranceSpec(1e-5, 0.0), "id", 0.25, "product integral")
    return fx


def run_doc_examples(seed: int = 1):
    """Execute every embedded worked example; returns (reports, n_failed),
    one report dict per example."""
    reports = []
    failed = 0
    for i, fx in enumerate(_fixtures()):
        estimate, diag = fx["run"](seed + i)
        if fx["check"] is not None:
            ok = fx["check"](estimate, diag)
        else:
            ok = (abs(estimate - fx["truth"]) <= fx["tol"]
                  and diag.exit_flags == 0)
        failed += 0 if ok else 1
        reports.append({
            "command": "examples/" + fx["name"],
            "inputs": {"seed": seed + i},
            "estimate": float(estimate),
            "diagnostics": diag.to_json_dict(),
            "pass": bool(ok),
            "truth": float(fx["truth"]),
            "truth_provenance": fx["provenance"],
        })
    return reports, failed


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(argv) -> int:
    """Parse ``argv`` (no program name) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        if args.command == "examples":
            reports, failed = run_doc_examples(args.seed)
            width = max(len(r["command"]) for r in reports)
            for r in reports:
                status = "PASS" if r["pass"] else "FAIL"
                print(f"{r['command']:<{width}}  {status}  "
                      f"estimate={r['estimate']:.10g}  "
                      f"truth={r['truth']:.10g}")
            print(f"{len(reports) - failed}/{len(reports)} examples passed")
            if args.json_path:
                _dump_json(reports, args.json_path)
            return 3 if failed else 0

        report = _run_subcommand(args)
        if report["estimate"] is not None:
            print(f"estimate = {report['estimate']:.12g}")
        diag = report["diagnostics"]
        print(f"n = {diag['n_points']}, errest = {diag['errest']:.6g}, "
              f"exit_flags = {diag['exit_flags']}")
        if args.json_path:
            _dump_json(report, args.json_path)
        return 2 if diag["exit_flags"] else 0
    except CertintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
