"""The benchmark's workloads: problem tables, seeded streams and truths.

Each workload is a list of :class:`Solve` objects.  ``Solve.run`` issues one
solve; ``Solve.finish`` turns what it returned into an :class:`Outcome` and
judges that against a closed-form truth.  Finishing happens after a pass,
outside the timed region.

* ``qmc_examples`` and ``mc_examples`` rebuild the QMC and Monte Carlo rows
  of ``certint examples --seed S`` from certint's public API: same
  problems, tolerances, transforms and per-row seeds (row ``i`` of the
  31-row examples table runs with seed ``S + i``), with native numpy
  integrands owned by the benchmark.
* ``cli_mixed`` is a seeded stream of small solves issued in process
  through ``certint.cli.run(argv)``, with ``--f`` strings drawn from
  families whose truths have closed forms, plus the ten univariate worked
  examples written as ``--f`` strings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erf, ndtr

import certint
from certint import (Hyperbox, McParams, Measure, Periodizer, QmcParams,
                     RngStream, ToleranceSpec, tolfun)
from certint import cli

# Row offsets of the Monte Carlo and QMC blocks in the examples table; the
# examples runner seeds row i with seed + i.
MC_FIRST_ROW = 10
QMC_FIRST_ROW = 20

_SQRT_PI = math.sqrt(math.pi)


@dataclass
class Outcome:
    """What one solve returned, in the fields every solver shares."""

    layer: str            # "qmc", "mc" or "univariate"
    estimate: float | None
    n_evals: int
    n_points: int
    iterations: int
    errest: float
    exit_flags: int
    levels: int = 0       # QMC only: m - mmin + 1
    extra: dict = field(default_factory=dict)

    def digest_fields(self) -> tuple:
        return (self.estimate, self.n_evals, self.errest, self.exit_flags)


class Solve:
    """One solve: ``run`` issues it (timed), ``finish`` turns what ``run``
    returned into ``(outcome, ok, |error|, detail)`` (untimed)."""

    def __init__(self, name: str, run: Callable, check: Callable):
        self.name = name
        self._run = run
        self._check = check     # Outcome -> (ok, |error| or None, detail)

    def run(self, probe: "Probe"):
        return self._run(probe)

    def finish(self, raw) -> tuple:
        return (raw,) + tuple(self._check(raw))


class Probe:
    """Hands solves the entry points they call.

    Solves look ``cli_run`` and the solvers up on the probe at call time,
    so a tracer can wrap them there; ``probe.integrand(f)`` returns the
    benchmark-owned callable itself, or a traced wrapper of it.
    """

    def __init__(self):
        self.cli_run = cli.run
        for name in ("mean_mc", "mean_mc_ber", "cub_mc", "cub_lattice",
                     "cub_sobol"):
            setattr(self, name, getattr(certint, name))

    def integrand(self, f):
        return f


def build(workload: str, seed: int, smoke: bool, workdir: str) -> list:
    """The solves of one pass of ``workload`` at ``seed``."""
    if workload == "qmc_examples":
        rows = qmc_rows(seed)
        return [r for r in rows if not smoke or r.name not in _QMC_HEAVY]
    if workload == "mc_examples":
        rows = mc_rows(seed)
        return [r for r in rows if not smoke or r.name not in _MC_HEAVY]
    if workload == "cli_mixed":
        return cli_stream(seed, workdir, repeats=1 if smoke else STREAM_REPEATS)
    raise ValueError(f"unknown workload {workload!r}")


# Rows the smoke mode leaves out because they take seconds, not milliseconds.
_QMC_HEAVY = {"cubsobol x^2 moments normal", "cublattice 8 prod [0,1]^5",
              "cubsobol 8 prod [0,1]^5"}
_MC_HEAVY = {"meanmcber abstol 1e-4", "cubmc 8 prod + 0.555 [0,1]^3",
             "meanmc exp(U)", "cubmc exp(-x1^2-x2^2) [0,1]^2",
             "cubmc exp(-|x|^2) normal"}


def _truth_check(truth: float, tol: float):
    def check(out: Outcome):
        err = abs(out.estimate - truth)
        ok = err <= tol and out.exit_flags == 0
        return ok, err, f"|error| {err:.3g} vs tol {tol:.3g}, flags {out.exit_flags}"
    return check


# ---------------------------------------------------------------------------
# qmc_examples
# ---------------------------------------------------------------------------

def _f_prod(x):
    return np.prod(x, axis=1)


def _f_sq3(x):
    return x[:, 0]**2 * x[:, 1]**2 * x[:, 2]**2


def _f_gauss2(x):
    return np.exp(-x[:, 0]**2 - x[:, 1]**2)


def _f_call(x):
    return math.exp(-0.05**2 / 2) * np.maximum(
        100.0 * np.exp(0.05 * x[:, 0]) - 100.0, 0.0)


def _f_prod8(x):
    return 8.0 * np.prod(x, axis=1)


def _f_poisson(x):
    return 3.0 / (5.0 - 4.0 * np.cos(2.0 * np.pi * x[:, 0]))


def _uniform(lo, hi):
    return Hyperbox(lo, hi, Measure.UNIFORM)


def _normal(d):
    return Hyperbox([-math.inf] * d, [math.inf] * d, Measure.NORMAL)


def qmc_rows(seed: int) -> list:
    """The 11 QMC worked examples (6 lattice, then 5 Sobol')."""
    unit2 = _uniform([0.0, 0.0], [1.0, 1.0])
    unit5 = _uniform([0.0] * 5, [1.0] * 5)
    box12 = _uniform([-1.0, -1.0], [2.0, 2.0])
    call_truth = 100.0 * (ndtr(0.05) - math.exp(-0.05**2 / 2) * 0.5)
    gauss12_truth = (_SQRT_PI / 2 * (erf(2.0) + erf(1.0)))**2
    # name, integrand, box, (abstol, reltol), transform, truth
    lattice = [
        ("prod [0,1]^2", _f_prod, unit2, (1e-5, 0.0), "c1sin", 0.25),
        ("x^2 moments normal", _f_sq3, _normal(3), (1e-3, 1e-3), "c1sin", 1.0),
        ("exp [-1,2]^2", _f_gauss2, box12, (1e-3, 1e-2), "c1", gauss12_truth),
        ("call option", _f_call, _normal(1), (1e-4, 1e-2), "c1sin", call_truth),
        ("8 prod [0,1]^5", _f_prod8, unit5, (1e-5, 0.0), "baker", 0.25),
        ("poisson kernel", _f_poisson, _uniform([0.0], [1.0]), (1e-5, 0.0),
         "id", 1.0),
    ]
    sobol = [
        ("prod [0,1]^2", _f_prod, unit2, (1e-5, 0.0), "id", 0.25),
        ("x^2 moments normal", _f_sq3, _normal(3), (1e-3, 1e-3), "id", 1.0),
        ("exp [-1,2]^2", _f_gauss2, box12, (1e-3, 1e-2), "id", gauss12_truth),
        ("call option", _f_call, _normal(1), (1e-4, 1e-2), "id", call_truth),
        ("8 prod [0,1]^5", _f_prod8, unit5, (1e-5, 0.0), "id", 0.25),
    ]
    table = [("cub_lattice", "cublattice", r) for r in lattice] + \
            [("cub_sobol", "cubsobol", r) for r in sobol]
    rows = []
    for i, (solver, label, (name, f, box, tol, transform, truth)) in \
            enumerate(table):
        spec = ToleranceSpec(*tol)
        params = QmcParams(tol=spec, mmax=24, transform=Periodizer(transform))
        rows.append(Solve(
            f"{label} {name}",
            _qmc_runner(solver, f, box, params, RngStream(seed + QMC_FIRST_ROW + i)),
            _truth_check(truth, tolfun(spec, abs(truth)))))
    return rows


def _qmc_runner(solver, f, box, params, rng):
    def run(probe: Probe) -> Outcome:
        res = getattr(probe, solver)(probe.integrand(f), box, params, rng)
        m = res.extra["m"]
        return Outcome("qmc", res.q, res.n, res.n, m, res.bound_err,
                       res.exitflag, levels=m - params.mmin + 1)
    return run


# ---------------------------------------------------------------------------
# mc_examples
# ---------------------------------------------------------------------------

_P_BER = 1.0 / 9.0


def _y_sq(n, gen):
    return gen.random(n)**2


def _y_exp(n, gen):
    return np.exp(gen.random(n))


def _y_cos(n, gen):
    return np.cos(gen.random(n))


def _y_ber(n, gen):
    return (gen.random(n) < _P_BER).astype(float)


def _f_sin1(x):
    return np.sin(x[:, 0])


def _f_8prod(x):
    return 8.0 * np.prod(x, axis=1) + 0.555


def mc_rows(seed: int) -> list:
    """The 10 Monte Carlo worked examples (3 mean_mc, 3 mean_mc_ber,
    4 cub_mc)."""
    rows = []

    def add(name, run, truth, tol):
        i = len(rows)
        rows.append(Solve(name, run(RngStream(seed + MC_FIRST_ROW + i)),
                          _truth_check(truth, tol)))

    for name, y, tol, alpha, truth in (
            ("meanmc U^2", _y_sq, (1e-3, 0.0), 0.05, 1.0 / 3.0),
            ("meanmc exp(U)", _y_exp, (1e-3, 0.0), 0.01, math.e - 1.0),
            ("meanmc cos(U)", _y_cos, (0.0, 1e-2), 0.05, math.sin(1.0))):
        spec = ToleranceSpec(*tol)
        add(name, _mean_runner(y, McParams(tol=spec, alpha=alpha)),
            truth, tolfun(spec, abs(truth)))

    for abstol, alpha in ((1e-3, 0.01), (1e-4, 0.01), (1e-2, 0.05)):
        add(f"meanmcber abstol {abstol:.0e}".replace("e-0", "e-"),
            _ber_runner(abstol, alpha), _P_BER, abstol)

    for name, f, box, tol, truth in (
            ("cubmc sin [1,2]", _f_sin1, _uniform([1.0], [2.0]),
             (1e-3, 1e-2), math.cos(1.0) - math.cos(2.0)),
            ("cubmc exp(-x1^2-x2^2) [0,1]^2", _f_gauss2,
             _uniform([0.0, 0.0], [1.0, 1.0]), (1e-3, 1e-13),
             (_SQRT_PI / 2 * erf(1.0))**2),
            ("cubmc 8 prod + 0.555 [0,1]^3", _f_8prod,
             _uniform([0.0] * 3, [1.0] * 3), (1e-3, 1e-3), 1.555),
            ("cubmc exp(-|x|^2) normal", _f_gauss2, _normal(2),
             (0.0, 1e-2), 1.0 / 3.0)):
        spec = ToleranceSpec(*tol)
        add(name, _cubmc_runner(f, box, McParams(tol=spec, alpha=0.01)),
            truth, tolfun(spec, abs(truth)))
    return rows


def _mc_outcome(estimate, diag) -> Outcome:
    return Outcome("mc", estimate, diag.n_evals, diag.n_points,
                   diag.iterations, diag.errest, diag.exit_flags)


def _mean_runner(y, params):
    def bind(rng):
        def run(probe: Probe) -> Outcome:
            return _mc_outcome(*probe.mean_mc(probe.integrand(y),
                                                      params, rng))
        return run
    return bind


def _ber_runner(abstol, alpha):
    def bind(rng):
        def run(probe: Probe) -> Outcome:
            return _mc_outcome(*probe.mean_mc_ber(
                probe.integrand(_y_ber), abstol=abstol, alpha=alpha,
                nmax=10**9, rng=rng))
        return run
    return bind


def _cubmc_runner(f, box, params):
    def bind(rng):
        def run(probe: Probe) -> Outcome:
            return _mc_outcome(*probe.cub_mc(probe.integrand(f), box, params,
                                             rng))
        return run
    return bind


# ---------------------------------------------------------------------------
# cli_mixed: integrand families with closed-form truths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """f(x) = Re prod_j g(x_j) for a per-coordinate factor g.

    ``kind`` is "mono" (x^k_j), "exp" (e^{c x}), "cos" (e^{i c x}, so the
    product's real part is cos(c * sum x)) or "prod" (x).
    """

    kind: str
    c: float = 0.0
    powers: tuple = ()

    def text(self, d: int) -> str:
        xs = [f"x{j + 1}" for j in range(d)]
        if self.kind == "mono":
            return "*".join(f"{x}^{k}" for x, k in zip(xs, self.powers))
        if self.kind == "prod":
            return "prod(x)"
        inner = "+".join(xs) if d > 1 else xs[0]
        arg = f"{self.c!r}*({inner})" if d > 1 else f"{self.c!r}*{inner}"
        return f"{self.kind}({arg})"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Values on a 1-d grid (dimension 1)."""
        if self.kind == "mono":
            return x ** self.powers[0]
        if self.kind == "prod":
            return x
        if self.kind == "exp":
            return np.exp(self.c * x)
        return np.cos(self.c * x)

    def _factor_uniform(self, j: int, lo: float, hi: float) -> complex:
        """Mean of the j-th factor over uniform [lo, hi]."""
        w = hi - lo
        if self.kind == "mono":
            k = self.powers[j]
            return (hi**(k + 1) - lo**(k + 1)) / ((k + 1) * w)
        if self.kind == "prod":
            return 0.5 * (hi + lo)
        z = self.c if self.kind == "exp" else 1j * self.c
        return (np.exp(z * hi) - np.exp(z * lo)) / (z * w)

    def _factor_normal(self, j: int) -> complex:
        """Mean of the j-th factor under the standard normal."""
        if self.kind == "mono":
            k = self.powers[j]
            return 0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2)))
        if self.kind == "prod":
            return 0.0
        sign = 1.0 if self.kind == "exp" else -1.0
        return math.exp(sign * self.c * self.c / 2.0)

    def mean(self, lows, highs, normal: bool) -> float:
        """E f(X), X uniform on the box or standard normal."""
        out = 1.0 + 0.0j
        for j, (lo, hi) in enumerate(zip(lows, highs)):
            out *= self._factor_normal(j) if normal else \
                self._factor_uniform(j, lo, hi)
        return float(np.real(out))

    def sd(self, lows, highs, normal: bool) -> float:
        """Standard deviation of f(X); f^2 is again in a family."""
        d = len(lows)
        if self.kind == "cos":   # cos^2 t = (1 + cos 2t) / 2
            second = 0.5 + 0.5 * Family("cos", c=2 * self.c).mean(
                lows, highs, normal)
        else:
            square = {"mono": Family("mono", powers=tuple(2 * k for k in
                                                          self.powers)),
                      "exp": Family("exp", c=2 * self.c),
                      "prod": Family("mono", powers=(2,) * d)}[self.kind]
            second = square.mean(lows, highs, normal)
        return math.sqrt(max(second - self.mean(lows, highs, normal)**2, 0.0))


def _family(rng, kind: str, d: int, normal: bool) -> Family:
    """A member of ``kind`` with seeded parameters."""
    if kind == "mono":
        low, top = (1, 2) if normal else (2, 4)
        return Family("mono", powers=tuple(int(k) for k in
                                           rng.integers(low, top + 1, size=d)))
    if kind == "exp":
        lo, hi = (0.2, 0.4) if normal else (1.0, 1.5)
        return Family("exp", c=_round(rng.uniform(lo, hi)))
    if kind == "cos":
        return Family("cos", c=_round(rng.uniform(1.5, 2.0)))
    return Family("prod")


def _round(x: float) -> float:
    """Four significant digits, so the --f text carries c exactly."""
    return float(f"{x:.4g}")


# ---------------------------------------------------------------------------
# cli_mixed: the stream
# ---------------------------------------------------------------------------

# The shapes each subcommand cycles through: (kind, dimension, normal).
# Only coefficients, box corners, interval ends and solver seeds are drawn,
# each from a narrow range, and tolerances are fixed relative to the
# integrand's spread, so the cost of a pass varies little from seed to seed.
#
# The QMC shapes use the exp family only: on monomials, prod(x) and cos,
# certint's cone check raises exit flag 2 on a few percent of draws although
# |error| is orders of magnitude below the tolerance (see README.md).
_UNIFORM_SHAPES = [("mono", 1, False), ("exp", 1, False), ("cos", 1, False)]
STREAM_SHAPES = {
    "funappx": _UNIFORM_SHAPES,
    "funmin": [("quad", 1, False), ("exp", 1, False), ("cos", 1, False)],
    "integral": _UNIFORM_SHAPES,
    "meanmc": [("mono", 1, False), ("exp", 2, False), ("cos", 2, False),
               ("prod", 2, False), ("mono", 1, True), ("exp", 2, True),
               ("cos", 1, True), ("prod", 2, True)],
    "meanmcber": [("ber", 1, False)],
    "cubmc": [("mono", 2, False), ("exp", 1, False), ("cos", 3, False),
              ("prod", 2, False), ("exp", 2, True), ("cos", 1, True)],
    "cublattice": [("exp", 1, False), ("exp", 2, False), ("exp", 3, False),
                   ("exp", 1, True), ("exp", 2, True)],
    "cubsobol": [("exp", 1, False), ("exp", 2, False), ("exp", 3, False)],
}
# Times each subcommand's shape list is repeated per pass; the ten
# univariate worked examples come on top.
STREAM_REPEATS = 6


class CliSolve(Solve):
    """A solve issued as ``certint.cli.run(argv)``; the report is read
    back from its ``--json`` file when the pass is checked."""

    def __init__(self, name, argv, judge, path):
        super().__init__(name, self._cli, judge)
        self.path = path
        self.argv = list(argv) + ["--json", path]

    def _cli(self, probe: Probe) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return probe.cli_run(self.argv)

    def finish(self, rc) -> tuple:
        if rc not in (0, 2):    # 2: a warning flag was raised
            return None, False, None, f"exit code {rc}"
        with open(self.path) as fh:
            report = json.load(fh)
        d = report["diagnostics"]
        layer = _CLI_LAYER[report["command"]]
        out = Outcome(layer, report["estimate"], d["n_evals"], d["n_points"],
                      d["iterations"], d["errest"], d["exit_flags"],
                      # the subcommands report iterations = m - mmin + 1
                      levels=d["iterations"] if layer == "qmc" else 0,
                      extra=dict(d["extra"], grid=report.get("grid"),
                                 json_bytes=os.path.getsize(self.path)))
        verdict = tuple(self._check(out))
        # the dumped grid is only needed for the check; keeping thousands
        # of floats per solve would slow the collector during later passes
        del out.extra["grid"]
        return (out,) + verdict


_CLI_LAYER = {"funappx": "univariate", "funmin": "univariate",
              "integral": "univariate", "meanmc": "mc", "meanmcber": "mc",
              "cubmc": "mc", "cublattice": "qmc", "cubsobol": "qmc"}


def _fmt(x: float) -> str:
    return repr(float(x))


class _Strata:
    """Latin-hypercube draws over the repeats of one shape.

    In repeat ``r`` the k-th ``uniform`` call falls in stratum
    ``perm_k[r]`` of ``repeats`` equal slices of its range, so the repeats
    of a shape spread over each range whatever the seed.
    """

    def __init__(self, rng: np.random.Generator, repeats: int):
        self._rng = rng
        self._repeats = repeats
        self._perms = []
        self.repeat = 0
        self._calls = 0

    def start(self, repeat: int) -> "_Strata":
        self.repeat, self._calls = repeat, 0
        return self

    def uniform(self, lo: float, hi: float) -> float:
        if self._calls == len(self._perms):
            self._perms.append(self._rng.permutation(self._repeats))
        stratum = self._perms[self._calls][self.repeat]
        self._calls += 1
        u = (stratum + self._rng.uniform()) / self._repeats
        return lo + (hi - lo) * u

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


def cli_stream(seed: int, workdir: str, repeats: int = STREAM_REPEATS) -> list:
    """A seeded, shuffled stream of small CLI solves."""
    rng = np.random.default_rng([seed, 0xC11])
    specs = list(_univariate_examples())
    for cmd, shapes in STREAM_SHAPES.items():
        for shape in shapes:
            strata = _Strata(rng, repeats)
            for r in range(repeats):
                specs.append(_DRAW[cmd](strata.start(r), *shape))
    order = rng.permutation(len(specs))
    solves = []
    for pos, k in enumerate(order):
        name, argv, judge = specs[k]
        path = os.path.join(workdir, f"solve{pos:04d}.json")
        solves.append(CliSolve(name, argv, judge, path))
    return solves


def _univariate_examples():
    """The ten univariate worked examples as --f solves."""
    for a, b, abstol, nlo, nhi, nmax in (
            (0, 1, 1e-6, 10, 1000, 10**7), (0, 100, 1e-7, 10, 1000, 10**8),
            (-20, 20, 1e-7, 10, 100, 10**8), (-10, 50, 1e-7, 10, 1000, 10**6)):
        yield _funappx_spec(f"approx x^2 [{a},{b}]", Family("mono", powers=(2,)),
                            a, b, abstol, nlo, nhi, nmax)
    for a, b, abstol, tolx, nlo, nhi, nmax, label in (
            (0, 1, 1e-6, 1e-3, 10, 1000, 10**7, "[0,1]"),
            (-2, 2, 1e-7, 1e-4, 10, 10, 10**6, "[-2,2] tight"),
            (-13, 8, 1e-7, 1e-4, 10, 100, 10**6, "[-13,8]"),
            (-2, 2, 1e-4, 1e-2, 10, 100, 10**6, "[-2,2] loose")):
        yield _funmin_spec(f"funmin {label}", "(x-0.3)^2+1", 1.0, [0.3],
                           a, b, abstol, tolx, nlo, nhi, nmax)
    yield _integral_spec("integral x^2", "x^2", 1.0 / 3.0, 0, 1, 1e-6, 10, 1000)
    yield _integral_spec("integral exp(-x^2) [1,2]", "exp(-x^2)",
                         _SQRT_PI / 2 * (erf(2.0) - erf(1.0)), 1, 2, 1e-5,
                         100, 10000)


# Points on which funappx's approximant is dumped and checked.
FUNAPPX_GRID = 4097


def _interval_argv(a, b, abstol, nlo, nhi, nmax):
    return ["--a", _fmt(a), "--b", _fmt(b), "--abstol", _fmt(abstol),
            "--nlo", str(nlo), "--nhi", str(nhi), "--nmax", str(nmax)]


def _funappx_spec(name, fam: Family, a, b, abstol, nlo=10, nhi=1000,
                  nmax=10**7):
    argv = ["funappx", "--f", fam.text(1), "--grid", str(FUNAPPX_GRID)] + \
        _interval_argv(a, b, abstol, nlo, nhi, nmax)

    def judge(out: Outcome):
        grid = out.extra["grid"]
        xs = np.asarray(grid["xs"])
        err = float(np.max(np.abs(np.asarray(grid["ys"]) - fam(xs))))
        ok = err <= abstol and out.exit_flags == 0
        return ok, err, f"sup error {err:.3g} vs tol {abstol:.3g}, " \
                        f"flags {out.exit_flags}"
    return name, argv, judge


def _funmin_spec(name, text, fmin, argmins, a, b, abstol, tolx, nlo=10,
                 nhi=1000, nmax=10**7):
    argv = ["funmin", "--f", text, "--tolx", _fmt(tolx)] + \
        _interval_argv(a, b, abstol, nlo, nhi, nmax)

    def judge(out: Outcome):
        # the examples rule: flag 0, every minimizer covered, and either
        # the value or the candidate set within tolerance
        intervals = out.extra["intervals"]
        covered = all(any(lo <= x <= hi for lo, hi in intervals)
                      for x in argmins)
        err = abs(out.estimate - fmin)
        met = err <= abstol or out.extra["volumeX"] <= tolx
        ok = out.exit_flags == 0 and covered and met
        return ok, err, f"|error| {err:.3g}, covered {covered}, " \
                        f"volumeX {out.extra['volumeX']:.3g}, flags {out.exit_flags}"
    return name, argv, judge


def _integral_spec(name, text, truth, a, b, abstol, nlo=10, nhi=1000):
    argv = ["integral", "--f", text] + \
        _interval_argv(a, b, abstol, nlo, nhi, 10**7)
    return name, argv, _truth_check(truth, abstol)


def _interval(rng):
    a = _round(rng.uniform(-1.1, -0.9))
    b = _round(rng.uniform(1.9, 2.1))
    return a, b


def _draw_funappx(rng, kind, d, normal):
    fam = _family(rng, kind, 1, False)
    a, b = _interval(rng)
    abstol = 1e-6
    return _funappx_spec(f"funappx {fam.text(1)} [{a},{b}]", fam, a, b, abstol)


def _draw_funmin(rng, kind, d, normal):
    abstol, tolx = 1e-6, 1e-3
    if kind == "quad":
        c = _round(rng.uniform(-1.0, 1.0))
        lift = _round(rng.uniform(0.0, 2.0))
        a = _round(c - rng.uniform(1.0, 1.4))
        b = _round(c + rng.uniform(1.0, 1.4))
        text, fmin, argmins = f"(x-({c!r}))^2+{lift!r}", lift, [c]
    elif kind == "exp":
        c = _round(rng.uniform(1.0, 1.5))
        a, b = _interval(rng)
        text, fmin, argmins = f"exp({c!r}*x)", math.exp(c * a), [a]
    else:
        c = _round(rng.uniform(1.5, 2.0))
        # one interior minimizer at pi / c
        a = _round(rng.uniform(0.2, 0.3) * math.pi / c)
        b = _round(rng.uniform(1.9, 2.1) * math.pi / c)
        text, fmin, argmins = f"cos({c!r}*x)", -1.0, [math.pi / c]
    return _funmin_spec(f"funmin {text} [{a},{b}]", text, fmin, argmins,
                        a, b, abstol, tolx)


def _draw_integral(rng, kind, d, normal):
    fam = _family(rng, kind, 1, False)
    a, b = _interval(rng)
    abstol = 1e-7
    truth = (b - a) * fam.mean([a], [b], normal=False)
    return _integral_spec(f"integral {fam.text(1)} [{a},{b}]", fam.text(1),
                          truth, a, b, abstol)


def _box(rng, d):
    lows = [_round(rng.uniform(-0.6, -0.4)) for _ in range(d)]
    highs = [_round(rng.uniform(0.9, 1.1)) for _ in range(d)]
    return lows, highs


def _box_text(lows, highs):
    return ";".join(f"{_fmt(lo)},{_fmt(hi)}" for lo, hi in zip(lows, highs))


def _tol_argv(abstol, reltol, seed):
    return ["--abstol", _fmt(abstol), "--reltol", _fmt(reltol),
            "--seed", str(seed)]


# Monte Carlo solves ask for an absolute tolerance of 3.5% of the
# integrand's standard deviation at this uncertainty, which keeps the
# Chebyshev-sized samples at about 2e5 draws.
MC_ALPHA = 0.05
MC_TOL_SHARE = 0.035
# QMC solves ask for 1e-3 of the integrand's standard deviation.
QMC_TOL_SHARE = 1e-3


def _draw_meanmc(rng, kind, d, normal):
    fam = _family(rng, kind, d, normal)
    lows, highs = [0.0] * d, [1.0] * d
    truth = fam.mean(lows, highs, normal)
    abstol = _round(MC_TOL_SHARE * fam.sd(lows, highs, normal))
    seed = int(rng.integers(1 << 30))
    measure = "normal" if normal else "uniform"
    argv = ["meanmc", "--f", fam.text(d), "--dim", str(d), "--alpha",
            _fmt(MC_ALPHA), "--measure", measure] + \
        _tol_argv(abstol, 0.0, seed)
    return f"meanmc {fam.text(d)} {measure}", argv, \
        _truth_check(truth, abstol)


def _draw_meanmcber(rng, kind, d, normal):
    p = _round(rng.uniform(0.05, 0.5))
    abstol = 6e-3
    seed = int(rng.integers(1 << 30))
    argv = ["meanmcber", "--p", _fmt(p), "--abstol", _fmt(abstol),
            "--alpha", "0.01", "--seed", str(seed)]
    return f"meanmcber p={p}", argv, _truth_check(p, abstol)


def _cub_spec(rng, cmd, kind, d, normal, reltol, tol_share, extra_argv=()):
    """A cubature solve; the absolute tolerance is ``tol_share`` times the
    standard deviation of the integrand over the box."""
    fam = _family(rng, kind, d, normal)
    if normal:
        lows, highs = [-math.inf] * d, [math.inf] * d
        box = ["--box=" + ";".join(["-inf,inf"] * d), "--measure", "normal"]
        volume = 1.0
    else:
        lows, highs = _box(rng, d)
        box = ["--box=" + _box_text(lows, highs)]
        volume = math.prod(hi - lo for lo, hi in zip(lows, highs))
    truth = volume * fam.mean(lows, highs, normal)
    abstol = _round(tol_share * volume * fam.sd(lows, highs, normal))
    seed = int(rng.integers(1 << 30))
    argv = [cmd, "--f", fam.text(d), "--dim", str(d)] + box + \
        list(extra_argv) + _tol_argv(abstol, reltol, seed)
    spec = ToleranceSpec(abstol, reltol)
    where = "normal" if normal else _box_text(lows, highs)
    return f"{cmd} {fam.text(d)} {where}", argv, \
        _truth_check(truth, tolfun(spec, abs(truth)))


def _draw_cubmc(rng, kind, d, normal):
    return _cub_spec(rng, "cubmc", kind, d, normal, 1e-2, MC_TOL_SHARE,
                     ["--alpha", _fmt(MC_ALPHA)])


def _draw_cublattice(rng, kind, d, normal):
    # the periodizers that keep the normal-measure shapes cheap
    choices = ("c1sin", "c1") if normal else ("c1sin", "c1", "baker")
    transform = choices[rng.integers(len(choices))]
    return _cub_spec(rng, "cublattice", kind, d, normal, 0.0, QMC_TOL_SHARE,
                     ["--transform", transform])


def _draw_cubsobol(rng, kind, d, normal):
    return _cub_spec(rng, "cubsobol", kind, d, normal, 0.0, QMC_TOL_SHARE)


_DRAW = {"funappx": _draw_funappx, "funmin": _draw_funmin,
         "integral": _draw_integral, "meanmc": _draw_meanmc,
         "meanmcber": _draw_meanmcber, "cubmc": _draw_cubmc,
         "cublattice": _draw_cublattice, "cubsobol": _draw_cubsobol}
