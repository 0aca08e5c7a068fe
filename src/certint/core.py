"""Shared domain types: tolerances, budgets, random streams, diagnostics,
and the contract every user callback is held to.

The generalized tolerance combines an absolute and a relative part either
by taking the larger of the two (``Max``) or by a theta-weighted linear
combination (``Comb``); every solver in the package phrases its stopping
rule through :func:`tolfun`.

Randomness flows from a single seedable source, :class:`RngStream`: a
(seed, stream index) pair names one reproducible uniform sequence, and
distinct indices give independent sequences.  Solvers that need normal
variates apply the inverse normal CDF to those uniforms, so one uniform
source drives all sampling deterministically.

Every solver asks its callback (an integrand ``f(points)``, a univariate
``f(xs)`` or a sampler ``yrand(n, generator)``) for n values at a time,
and every one checks the answer by the same two functions.
:func:`callback_values` flattens what the callback returned with
``reshape(-1)``, so a 1-d array of n values, an (n, 1) column and, for
n = 1, a scalar are all accepted, as n float64 values; any other count
raises :class:`EvaluationError` "<solver>: callback returned k values,
wanted n".  :func:`chunk_sum` then takes the ``np.sum`` of a chunk of those
values.  A NaN or an infinity makes that sum non-finite, so the values are
scanned only when it is, and a non-finite value raises
:class:`EvaluationError` "<solver>: callback returned NaN or Inf".  Finite
values whose sum overflows are not an error.  The quasi-Monte Carlo
cubatures sum each chunk after its factors (the Jacobian, the volume)
are applied, ``cub_mc`` after the volume, and the univariate solvers sum
the values of each call as one chunk.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EvaluationError


class TolType(enum.Enum):
    """How absolute and relative tolerances combine."""

    MAX = "max"
    COMB = "comb"


@dataclass(frozen=True)
class ToleranceSpec:
    """Absolute/relative error tolerance with its combination rule.

    ``abstol`` is in the units of the estimand, ``reltol`` is
    dimensionless in [0, 1], and ``theta`` weights the ``Comb`` rule
    (theta = 1 is pure absolute, theta = 0 pure relative).
    """

    abstol: float = 1e-2
    reltol: float = 1e-1
    toltype: TolType = TolType.MAX
    theta: float = 1.0

    def __post_init__(self):
        if not (self.abstol >= 0.0):
            raise ConfigurationError(f"abstol must be >= 0, got {self.abstol}")
        if not (0.0 <= self.reltol <= 1.0):
            raise ConfigurationError(f"reltol must be in [0,1], got {self.reltol}")
        if not (0.0 <= self.theta <= 1.0):
            raise ConfigurationError(f"theta must be in [0,1], got {self.theta}")
        if self.toltype not in (TolType.MAX, TolType.COMB):
            raise ConfigurationError(f"unknown toltype {self.toltype!r}")
        # a tolerance of 0 at every estimate could never be met
        if self.abstol == 0.0 and self.reltol == 0.0:
            raise ConfigurationError(
                f"with toltype '{self.toltype.value}', abstol and reltol "
                "cannot both be 0"
            )
        if self.toltype is TolType.COMB:
            if self.theta == 1.0 and self.abstol == 0.0:
                raise ConfigurationError(
                    "with toltype 'comb' and theta = 1, abstol cannot be 0"
                )
            if self.theta == 0.0 and self.reltol == 0.0:
                raise ConfigurationError(
                    "with toltype 'comb' and theta = 0, reltol cannot be 0"
                )


def tolfun(spec: ToleranceSpec, mu_abs: float) -> float:
    """Generalized error tolerance at estimand magnitude ``mu_abs``.

    Max rule: max(abstol, reltol * mu_abs).
    Comb rule: theta * abstol + (1 - theta) * reltol * mu_abs.
    """
    if mu_abs < 0.0 or not np.isfinite(mu_abs):
        raise ConfigurationError(f"mu_abs must be finite and >= 0, got {mu_abs}")
    if spec.toltype is TolType.MAX:
        return max(spec.abstol, spec.reltol * mu_abs)
    return spec.theta * spec.abstol + (1.0 - spec.theta) * spec.reltol * mu_abs


def fsum_partials(partials) -> float:
    """The correctly rounded sum of the per-chunk sums ``partials``.

    Every estimate is formed so: ``math.fsum`` over the :func:`chunk_sum`
    of each chunk of values, so its bits depend only on the chunk size and
    on numpy's sum of one contiguous chunk.  Where ``math.fsum`` raises, on an
    intermediate overflow or on inf meeting -inf, the plain sum gives the
    inf or nan that the sum overflows to.
    """
    try:
        return math.fsum(partials)
    except (OverflowError, ValueError):
        return sum(partials)


def callback_values(values, n: int, what: str) -> np.ndarray:
    """What a callback of solver ``what`` returned, as exactly ``n`` float64
    values (see the module docstring)."""
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.shape[0] != n:
        raise EvaluationError(
            f"{what}: callback returned {vals.shape[0]} values, wanted {n}")
    return vals


def chunk_sum(vals: np.ndarray, what: str) -> float:
    """``np.sum`` of one chunk of checked callback values, which are scanned
    for NaN or Inf only when that sum is not finite."""
    total = float(np.sum(vals))
    if not math.isfinite(total) and not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{what}: callback returned NaN or Inf")
    return total


@dataclass(frozen=True)
class Budget:
    """Point and iteration limits of the univariate solvers.

    ``funappx``, ``funmin`` and ``integral`` stop at ``nmax`` evaluations
    or ``maxiter`` rounds.  The Monte Carlo limits are ``McParams``'s
    ``nbudget`` and ``tbudget_seconds``.
    """

    nmax: int = 10_000_000
    maxiter: int = 1000

    def __post_init__(self):
        for name in ("nmax", "maxiter"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable uniform source.

    Identical (seed, stream_index) pairs of non-negative integers
    reproduce the same unbounded sequence of doubles in [0, 1); distinct
    indices give independent streams.  Instances are immutable; consumers
    create a stateful generator with :meth:`generator` and advance that.
    """

    seed: int = 0
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)}")

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass
class SolverDiagnostics:
    """Per-run output record mirroring each algorithm's result structure.

    ``exit_flags`` is a bitset whose meaning is algorithm-specific; it is 0
    on every path whose postcondition claims the guarantee.  ``extra``
    carries algorithm-specific fields (nstar list, tau, ninit, volumeX,
    kurtmax, hmu/tol history, ...).

    ``iterations`` counts, per algorithm:

    * ``cub_lattice``/``cub_sobol``: the levels evaluated, m - mmin + 1;
    * ``integral``: the grids evaluated (the initial one included);
    * ``funappx`` and ``funmin``: the rounds of subinterval splits;
    * ``mean_mc`` and ``cub_mc``: the mean-stage steps tau;
    * ``mean_mc_ber``: 1, its single fixed-size draw.
    """

    algorithm: str
    n_evals: int = 0
    n_points: int = 0
    iterations: int = 0
    errest: float = 0.0
    exit_flags: int = 0
    elapsed_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """JSON-ready view. Wall-clock time is excluded so that reports for
        a fixed seed are byte-identical across runs."""
        return {
            "algorithm": self.algorithm,
            "n_evals": int(self.n_evals),
            "n_points": int(self.n_points),
            "iterations": int(self.iterations),
            "errest": float(self.errest),
            "exit_flags": int(self.exit_flags),
            "extra": _jsonable(self.extra),
        }


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for json serialization."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
