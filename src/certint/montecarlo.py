"""Guaranteed Monte Carlo estimation.

:func:`mean_mc` implements the two-stage scheme: a first stage of
``n_sig`` draws produces a variance estimate, inflated by ``fudge`` into a
reliable upper bound on the true standard deviation (valid whenever the
modified kurtosis stays below the bound reported as ``kurtmax``); the
mean stage then sizes its batches from Chebyshev's inequality and a
Berry-Esseen-corrected normal bound, iterating until the certified
half-width meets the generalized tolerance at the current estimate.

The overall uncertainty ``alpha`` is split multiplicatively: the variance
stage consumes ``alpha_sigma = 1 - sqrt(1 - alpha)`` and the mean stage
the complement, which is then spread over iterations geometrically
(iteration t gets a ``2^-t`` share), so a union bound preserves the
``1 - alpha`` coverage.

:func:`mean_mc_ber` is the deterministic-cost Bernoulli special case via
Hoeffding's inequality, and :func:`cub_mc` reduces hyperbox cubature
(uniform or Gaussian measure) to a mean estimation problem.

Sampler callbacks take ``(n, generator)`` and must return ``n`` values;
all randomness flows from the :class:`~certint.core.RngStream` handed to
the solver, so fixed seeds reproduce runs bit for bit.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .core import Budget, RngStream, SolverDiagnostics, ToleranceSpec, tolfun
from .errors import ConfigurationError, EvaluationError

__all__ = [
    "CheckStatus",
    "McParams",
    "Hyperbox",
    "Measure",
    "hoeffding_n",
    "mean_mc_ber",
    "two_stage_n",
    "kurtosis_bound",
    "mean_mc",
    "cub_mc",
]

_BERRY_ESSEEN_C = 0.56
_MIN_SAMPLE = 30
_MAX_ITER = 1000
_CHUNK = 1 << 24


class CheckStatus(enum.IntEnum):
    """The solver that certified a run, as reported in ``extra["flag"]``."""

    CHECKED_BY_MEAN_MC = 1
    CHECKED_BY_CUB_MC = 2


class Measure(enum.Enum):
    UNIFORM = "uniform"
    NORMAL = "normal"


@dataclass(frozen=True)
class McParams:
    """Tolerances, uncertainty, and budgets for the Monte Carlo solvers."""

    tol: ToleranceSpec = field(default_factory=ToleranceSpec)
    alpha: float = 0.01
    fudge: float = 1.2
    n_sig: int = 10_000
    n1: int = 10_000
    budget: Budget = field(default_factory=Budget)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("alpha must be in (0,1)")
        if not (self.fudge > 1.0):
            raise ConfigurationError("fudge must be > 1")
        if self.n_sig < _MIN_SAMPLE or self.n1 < _MIN_SAMPLE:
            raise ConfigurationError("n_sig and n1 must be at least 30")


@dataclass(frozen=True)
class Hyperbox:
    """Axis-aligned region: ``lower``/``upper`` bound rows plus a measure.

    Construction performs no validation so that :func:`cub_mc` can report
    the documented exit codes; call :meth:`validate` to obtain them.
    """

    lower: np.ndarray
    upper: np.ndarray
    measure: Measure = Measure.UNIFORM

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, float)))

    @property
    def dimension(self) -> int:
        return int(self.lower.size)

    def validate(self) -> int:
        """0 if usable, else the documented exit code (10..14)."""
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1 \
                or self.lower.size == 0:
            return 11
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            return 10
        if np.any(self.lower >= self.upper):
            return 12
        if self.measure is Measure.UNIFORM:
            if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
                return 13
        else:
            if not (np.all(np.isneginf(self.lower)) and np.all(np.isposinf(self.upper))):
                return 14
        return 0

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


def hoeffding_n(abstol: float, alpha: float) -> int:
    """Deterministic sample size ceil(ln(2/alpha) / (2 abstol^2))."""
    if not (0.0 < abstol <= 1.0):
        raise ConfigurationError("abstol must be in (0,1]")
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError("alpha must be in (0,1)")
    return int(math.ceil(math.log(2.0 / alpha) / (2.0 * abstol * abstol)))


def kurtosis_bound(n_sig: int, alpha_sigma: float, fudge: float) -> float:
    """Largest modified kurtosis for which ``fudge**2 * var_hat`` upper
    bounds the true variance with probability ``1 - alpha_sigma``."""
    return (n_sig - 3.0) / (n_sig - 1.0) + (
        alpha_sigma * n_sig / (1.0 - alpha_sigma)
    ) * (1.0 - 1.0 / fudge**2) ** 2


def _berry_esseen_ok(n: float, tol_over_sig: float, alpha: float,
                     m3: float) -> bool:
    rn = math.sqrt(n)
    return ndtr(-rn * tol_over_sig) + _BERRY_ESSEEN_C * m3 / rn <= 0.5 * alpha


def _berry_esseen_n(sigtilde: float, tol: float, alpha: float,
                    kurtmax: float) -> float:
    """Smallest n certified by the Berry-Esseen-corrected normal bound,
    or inf if the correction term alone exceeds alpha/2 for any feasible n."""
    m3 = kurtmax ** 0.75
    tos = tol / sigtilde
    hi = float(_MIN_SAMPLE)
    if _berry_esseen_ok(hi, tos, alpha, m3):
        return hi
    while hi < 1e18:
        hi *= 4.0
        if _berry_esseen_ok(hi, tos, alpha, m3):
            lo = hi / 4.0
            while hi - lo > 1.0:
                mid = math.floor(0.5 * (lo + hi))
                if _berry_esseen_ok(mid, tos, alpha, m3):
                    hi = mid
                else:
                    lo = mid
            return hi
    return math.inf


def two_stage_n(var_hat: float, fudge: float, tolfun_val: float,
                alpha_mu: float, kurtmax: float) -> int:
    """Mean-stage sample size meeting ``tolfun_val`` at level ``alpha_mu``.

    The smaller of the Chebyshev count and the Berry-Esseen count (both
    are valid), floored at 30; a degenerate variance estimate clamps to
    the floor.
    """
    if tolfun_val <= 0 or not (0 < alpha_mu < 1):
        raise ConfigurationError("tolfun_val and alpha_mu must be positive")
    if var_hat <= 0.0:
        return _MIN_SAMPLE
    sigtilde2 = fudge * fudge * var_hat
    n_cheb = math.ceil(sigtilde2 / (alpha_mu * tolfun_val * tolfun_val))
    n_be = _berry_esseen_n(math.sqrt(sigtilde2), tolfun_val, alpha_mu, kurtmax)
    n = min(float(n_cheb), n_be)
    return max(_MIN_SAMPLE, int(n))


def _half_width(n: int, alpha: float, sigtilde: float, kurtmax: float) -> float:
    """Certified (1-alpha) half-width for a mean of n draws with
    sd <= sigtilde: best of the Chebyshev and Berry-Esseen forms."""
    if sigtilde == 0.0:
        return 0.0
    rn = math.sqrt(n)
    w_cheb = sigtilde / math.sqrt(alpha * n)
    margin = 0.5 * alpha - _BERRY_ESSEEN_C * kurtmax**0.75 / rn
    w_be = -ndtri(margin) * sigtilde / rn if margin > 0.0 else math.inf
    return min(w_cheb, w_be)


def _draw_mean(yrand, n: int, gen, what: str, binary: bool = False):
    """Mean of n draws, chunked; validates finiteness (and {0,1} values)."""
    total = 0.0
    sq = 0.0
    left = n
    while left > 0:
        take = min(left, _CHUNK)
        y = np.asarray(yrand(take, gen), dtype=float)
        if y.shape != (take,):
            raise EvaluationError(f"{what}: sampler returned shape {y.shape}, "
                                  f"wanted ({take},)")
        chunk_sum = float(np.sum(y))
        # a NaN or Inf draw makes the sum non-finite, so only then scan
        if not math.isfinite(chunk_sum) and not np.all(np.isfinite(y)):
            raise EvaluationError(f"{what}: sampler returned NaN or Inf")
        if binary and not np.all((y == 0.0) | (y == 1.0)):
            raise EvaluationError(f"{what}: Bernoulli sampler must return 0/1 values")
        total += chunk_sum
        sq += float(np.sum(y * y))
        left -= take
    mean = total / n
    var = max(0.0, (sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return mean, var


def mean_mc_ber(yrand, abstol: float = 1e-2, alpha: float = 0.01,
                nmax: int = 1_000_000_000,
                rng: RngStream | None = None):
    """Bernoulli mean to within ``abstol`` with confidence ``1 - alpha``.

    Draws exactly the Hoeffding sample count when it fits the budget;
    otherwise draws ``nmax`` and sets exit flag 1 ("not enough samples to
    estimate p with guarantee").  Returns ``(p_hat, diagnostics)``.
    """
    t_start = time.perf_counter()
    n_req = hoeffding_n(abstol, alpha)
    if nmax <= 0:
        raise ConfigurationError("nmax must be positive")
    gen = (rng or RngStream()).generator()
    exit_flags = 0
    n = n_req
    if n_req > nmax:
        exit_flags = 1
        n = int(nmax)
    p_hat, _ = _draw_mean(yrand, n, gen, "mean_mc_ber", binary=True)
    diag = SolverDiagnostics(
        algorithm="mean_mc_ber",
        n_evals=n,
        n_points=n,
        iterations=1,
        errest=abstol,
        exit_flags=exit_flags,
        elapsed_seconds=time.perf_counter() - t_start,
        extra={"n_required": n_req, "abstol": abstol, "alpha": alpha},
    )
    return p_hat, diag


def mean_mc(yrand, params: McParams, rng: RngStream):
    """Mean of a random variable to within the generalized tolerance.

    ``yrand(n, generator)`` must return n IID draws.  Returns
    ``(hmu, diagnostics)``: ``hmu`` is the sample mean of the last
    mean-stage step, and ``extra`` carries the iteration history (``tau``
    steps of sizes ``n`` with means ``hmu`` and half-widths ``tol``) plus
    ``var``, ``kurtmax``, ``nremain``, ``ntot`` and ``n_up``.  Exit flag 1
    means the sample or time budget ran out before the tolerance was
    certified.
    """
    t_start = time.perf_counter()
    gen = rng.generator()
    spec = params.tol

    _, var_hat = _draw_mean(yrand, params.n_sig, gen, "mean_mc")
    sigtilde = params.fudge * math.sqrt(var_hat)
    alpha_sigma = 1.0 - math.sqrt(1.0 - params.alpha)
    alpha_mu = 1.0 - math.sqrt(1.0 - params.alpha)
    kurtmax = kurtosis_bound(params.n_sig, alpha_sigma, params.fudge)

    ntot = params.n_sig
    n_hist, hmu_hist, tol_hist = [], [], []
    exit_flags = 0
    n_next = params.n1
    w_prev = math.inf
    hmu = 0.0
    width = math.inf
    n_up = None

    for t in range(1, _MAX_ITER + 1):
        alpha_t = alpha_mu * 0.5**t
        elapsed = time.perf_counter() - t_start
        nremain = params.budget.nbudget - ntot
        if elapsed > 0 and ntot > 0:
            rate = ntot / elapsed
            time_allow = (params.budget.tbudget_seconds - elapsed) * rate
            if time_allow < nremain:
                nremain = int(max(time_allow, 0))
        truncated = False
        n_t = n_next
        if n_t > nremain:
            n_t = int(nremain)
            truncated = True
            if n_t <= 0:
                exit_flags |= 1
                break
        hmu, _ = _draw_mean(yrand, n_t, gen, "mean_mc")
        ntot += n_t
        width = _half_width(n_t, alpha_t, sigtilde, kurtmax)
        n_hist.append(n_t)
        hmu_hist.append(hmu)
        tol_hist.append(width)
        tol_t = tolfun(spec, abs(hmu))
        if t == 1 and tol_t > 0:
            n_up = params.n_sig + params.n1 + two_stage_n(
                var_hat, params.fudge, tol_t, alpha_mu * 0.25, kurtmax)
        if truncated:
            exit_flags |= 1
            break
        if width <= tol_t:
            break
        if tol_t <= 0:
            # pure relative tolerance around a zero estimate: no finite
            # target yet, grow geometrically until the budget objects
            n_next = max(2 * n_t, _MIN_SAMPLE)
        else:
            alpha_next = alpha_t * 0.5
            n_next = two_stage_n(var_hat, params.fudge, tol_t, alpha_next, kurtmax)
            if math.isfinite(w_prev) and width < math.inf:
                n_next = max(n_next, two_stage_n(
                    var_hat, params.fudge, max(width, tol_t), alpha_next, kurtmax))
        w_prev = width
    else:
        exit_flags |= 1

    diag = SolverDiagnostics(
        algorithm="mean_mc",
        n_evals=ntot,
        n_points=ntot,
        iterations=len(n_hist),
        errest=width if math.isfinite(width) else float("inf"),
        exit_flags=exit_flags,
        elapsed_seconds=time.perf_counter() - t_start,
        extra={
            "tau": len(n_hist),
            "n": n_hist,
            "hmu": hmu_hist,
            "tol": tol_hist,
            "var": var_hat,
            "kurtmax": kurtmax,
            "nremain": max(params.budget.nbudget - ntot, 0),
            "ntot": ntot,
            "n_up": n_up,
            "flag": int(CheckStatus.CHECKED_BY_MEAN_MC),
        },
    )
    return hmu, diag


def cub_mc(f, box: Hyperbox, params: McParams, rng: RngStream):
    """Monte Carlo cubature of ``f`` over a hyperbox.

    Uniform measure: Q estimates volume * E[f(X)], X uniform in the box.
    Normal measure: Q estimates E[f(Z)], Z standard normal in R^d.
    Invalid boxes return ``(nan, diagnostics)`` with the documented exit
    code (10..14) instead of raising.
    """
    code = box.validate()
    if code != 0:
        diag = SolverDiagnostics(
            algorithm="cub_mc", n_evals=0, n_points=0, iterations=0,
            errest=float("inf"), exit_flags=code, elapsed_seconds=0.0,
            extra={"d": box.dimension, "measure": box.measure.value},
        )
        return float("nan"), diag

    d = box.dimension
    if box.measure is Measure.UNIFORM:
        width = box.upper - box.lower
        volume = box.volume()

        def yrand(n, gen):
            pts = box.lower + width * gen.random((n, d))
            return volume * _eval_integrand(f, pts, "cub_mc")
    else:
        volume = 1.0

        def yrand(n, gen):
            u = gen.random((n, d))
            np.clip(u, np.finfo(float).tiny, None, out=u)
            return _eval_integrand(f, ndtri(u), "cub_mc")

    q, diag = mean_mc(yrand, params, rng)
    diag.algorithm = "cub_mc"
    diag.extra.update({
        "d": d,
        "measure": box.measure.value,
        "volume": volume,
        "flag": int(CheckStatus.CHECKED_BY_CUB_MC),
    })
    return q, diag


def _eval_integrand(f, pts: np.ndarray, what: str) -> np.ndarray:
    vals = np.asarray(f(pts), dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise EvaluationError(f"{what}: integrand returned {vals.shape[0]} values "
                              f"for {pts.shape[0]} points")
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{what}: integrand returned NaN or Inf")
    return vals
