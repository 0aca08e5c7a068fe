"""Guaranteed Monte Carlo estimation.

:func:`mean_mc` implements the two-stage scheme of Hickernell, Jiang, Liu
& Owen (2013): a first stage of ``n_sig`` draws produces a variance
estimate, inflated by ``fudge`` into a reliable upper bound on the true
standard deviation (valid whenever the modified kurtosis stays below the
bound reported as ``kurtmax``); the mean stage then sizes its draws from
Chebyshev's inequality and a Berry-Esseen-corrected normal bound.

The overall uncertainty ``alpha`` is split multiplicatively: the variance
stage consumes ``alpha_sigma = 1 - sqrt(1 - alpha)`` and the mean stage
the complement ``alpha_mu``.  The mean stage is planned from the variance
stage, whose draws give both the variance and a first mean ``m0``:

* The floor ``tolfun(spec, 0)`` (``abstol`` under ``Max``, theta
  ``abstol`` under ``Comb``) is no larger than the tolerance at any
  estimate.  One step of ``n_floor = two_stage_n(var, fudge, floor,
  alpha_mu, kurtmax)`` draws that gets all of ``alpha_mu`` therefore
  certifies whatever it estimates.
* A relative step is sized for the tolerance at ``|m| - z``, where ``m``
  is the mean it plans from and ``z`` that mean's normal-approximation
  half-width at the step's uncertainty (``_plan_magnitude``), so that it
  also meets the tolerance at its own, likely smaller, estimate.  When
  ``z`` exceeds ``|m| / 2`` the mean is not resolved: the margin would
  cost over four times the draws, so the step is sized for ``|m|`` and
  the next step plans from its many more draws.  The first relative step
  (``n_rel``) plans from ``m0``; if its tolerance is 0 (a pure relative
  tolerance around a mean of exactly 0) it falls back to ``n1`` draws,
  and a later one doubles the step before it.

The margin only plans; the guarantee does not rest on it.  It is not
the certified half-width, which at ``n_sig = 10^4`` draws is about
``0.24 sigma`` (Chebyshev at ``alpha_mu / 2``), some 24 standard errors:
sized for ``|m|`` less that, a step would cost ``(|mu| / (|mu| - 0.24
sigma))^2`` times the draws, and none could be planned once ``|mu| <
0.24 sigma``.  The cost of a relative run still depends on the ratio
``|mu| / sigma``: the first step meets the tolerance when ``|mu|`` is
several standard errors of ``m0`` (``sigma / sqrt(n_sig)``), and a
lower ratio may take one more step.

The mean stage takes the floor step when ``n_floor <= n_rel``, which a
tolerance that does not depend on the estimate always does.  Otherwise
it iterates relative steps until the certified half-width meets the
tolerance at the current estimate, and step t gets a ``2^-t`` share of
``alpha_mu``.  Each step's size and uncertainty depend only on earlier
draws, and the mean stage spends at most ``alpha_mu`` either way, so a
union bound preserves the ``1 - alpha`` coverage.  A floor step that the
budget cut short has no uncertainty left for another and raises exit
flag 1.

The draws are reduced in chunks of ``_CHUNK``.  Every mean is
``math.fsum`` of the chunks' ``np.sum``, divided by the draw count, so
under a large offset the mean loses only what the chunk sums round away.
The variance stage also takes each chunk's sum of squared deviations from
its own mean and merges the chunks with the pairwise update of Chan, Golub
& LeVeque (1983), so a large offset does not cancel the variance.

:func:`mean_mc_ber` is the deterministic-cost Bernoulli special case via
Hoeffding's inequality, and :func:`cub_mc` reduces hyperbox cubature
(uniform or Gaussian measure) to a mean estimation problem through
:func:`measure_map`, the box map the quasi-Monte Carlo cubatures share.

Sampler callbacks take ``(n, generator)`` and are held to the callback
contract of :mod:`certint.core`; all randomness flows from the
:class:`~certint.core.RngStream` handed to the solver, so fixed seeds
reproduce runs bit for bit.

``scipy.special`` is imported inside the functions that call it, so
``import certint`` and every run that neither sizes a mean stage nor
maps to the normal measure leave scipy unloaded.
"""

from __future__ import annotations

import enum
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (RngStream, SolverDiagnostics, ToleranceSpec,
                   callback_values, chunk_sum, fsum_partials, tolfun)
from .errors import ConfigurationError, EvaluationError

__all__ = [
    "McParams",
    "Hyperbox",
    "Measure",
    "measure_map",
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
_CHUNK = 1 << 16


class Measure(enum.Enum):
    UNIFORM = "uniform"
    NORMAL = "normal"


@dataclass(frozen=True)
class McParams:
    """Tolerances, uncertainty, and budgets for the Monte Carlo solvers.

    ``n_sig`` is the size of the variance stage.  The mean stage sizes
    its steps from the variance stage; ``n1`` is only the fallback first
    step when that plans no positive tolerance (a pure relative tolerance
    around a mean of exactly 0).  ``nbudget`` caps the draws of a run,
    both stages included, so it is at least ``n_sig``, and
    ``tbudget_seconds`` its wall time, as GAIL's ``meanMC_g`` names them.
    """

    tol: ToleranceSpec = field(default_factory=ToleranceSpec)
    alpha: float = 0.01
    fudge: float = 1.2
    n_sig: int = 10_000
    n1: int = 10_000
    nbudget: int = 1_000_000_000
    tbudget_seconds: float = 100.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("alpha must be in (0,1)")
        if not (self.fudge > 1.0):
            raise ConfigurationError("fudge must be > 1")
        if self.n_sig < _MIN_SAMPLE or self.n1 < _MIN_SAMPLE:
            raise ConfigurationError("n_sig and n1 must be at least 30")
        if self.nbudget <= 0 or not (self.tbudget_seconds > 0):
            raise ConfigurationError(
                "nbudget and tbudget_seconds must be positive")
        if self.nbudget < self.n_sig:
            raise ConfigurationError(
                f"nbudget {self.nbudget} cannot pay for the variance stage "
                f"of n_sig = {self.n_sig} draws")


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


def measure_map(points: np.ndarray, box: Hyperbox):
    """Map unit-cube points into the hyperbox of the given measure.

    Uniform: affine map, scale = volume.  Normal: inverse normal CDF per
    coordinate (arguments clamped away from 0), scale = 1.  ``points`` is
    never written to.
    """
    pts = np.asarray(points, dtype=float)
    if box.measure is Measure.UNIFORM:
        width = box.upper - box.lower
        return box.lower + width * pts, box.volume()
    from scipy.special import ndtri
    # periodizers may round a coordinate to exactly 0.0 or 1.0; clamp to
    # the nearest representable interior values so the inverse CDF stays
    # finite
    clipped = np.clip(pts, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    return ndtri(clipped, out=clipped), 1.0


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


def two_stage_n(var_hat: float, fudge: float, tolfun_val: float,
                alpha_mu: float, kurtmax: float) -> int:
    """Mean-stage sample size meeting ``tolfun_val`` at level ``alpha_mu``.

    The least n >= 30 whose certified half-width, ``_half_width(n,
    alpha_mu, fudge * sqrt(var_hat), kurtmax)``, is at most
    ``tolfun_val``, found by doubling from 30 and then bisecting; a
    degenerate variance estimate clamps to 30.  The Chebyshev width falls
    below any positive tolerance, but perhaps only at a count too large
    for a float: then no budget can pay for it, and the result is
    ``math.inf``.
    """
    if not (tolfun_val > 0) or not (0 < alpha_mu < 1):
        raise ConfigurationError("tolfun_val and alpha_mu must be positive")
    if var_hat <= 0.0:
        return _MIN_SAMPLE
    sigtilde = fudge * math.sqrt(var_hat)
    if not math.isfinite(sigtilde):
        raise ConfigurationError("fudge * sqrt(var_hat) must be finite")

    def meets(n):
        return _half_width(n, alpha_mu, sigtilde, kurtmax) <= tolfun_val

    lo = hi = _MIN_SAMPLE
    while not meets(hi):
        if 2 * hi > sys.float_info.max:
            return math.inf
        lo, hi = hi, 2 * hi
    # hi meets the tolerance, and lo fails it unless both are the floor
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _half_width(n: int, alpha: float, sigtilde: float, kurtmax: float) -> float:
    """Certified (1-alpha) half-width for a mean of n draws with
    sd <= sigtilde: best of the Chebyshev and Berry-Esseen forms."""
    if sigtilde == 0.0:
        return 0.0
    from scipy.special import ndtri
    rn = math.sqrt(n)
    w_cheb = sigtilde / math.sqrt(alpha * n)
    margin = 0.5 * alpha - _BERRY_ESSEEN_C * kurtmax**0.75 / rn
    w_be = -ndtri(margin) * sigtilde / rn if margin > 0.0 else math.inf
    return min(w_cheb, w_be)


def _plan_magnitude(m: float, n: int, alpha: float, sigtilde: float) -> float:
    """The estimate magnitude a relative step planned from the mean ``m``
    of ``n`` draws is sized for.

    ``|m|`` less the normal-approximation half-width of ``m`` at level
    ``alpha``, or ``|m|`` itself when that half-width exceeds ``|m| / 2``
    (the mean is not resolved yet).  0 only for ``m == 0``.
    """
    from scipy.special import ndtri
    margin = -ndtri(0.5 * alpha) * sigtilde / math.sqrt(n)
    return abs(m) - margin if margin <= 0.5 * abs(m) else abs(m)


def _draw_mean(yrand, n: int, gen, what: str, variance: bool = False,
               binary: bool = False):
    """Mean of n draws and with ``variance`` their sample variance (else
    None).

    The draws come in chunks of ``_CHUNK``, and the mean is ``math.fsum``
    of the chunks' :func:`~certint.core.chunk_sum`, divided by n: correctly
    rounded from sums of at most ``_CHUNK`` draws each.  With ``binary``
    each chunk is checked for {0,1} values.  The variance centres each
    chunk on its own mean in a scratch buffer, never in the sampler's
    array, and merges the chunks' sums of squared deviations by the
    pairwise update of Chan, Golub & LeVeque (1983), so it does not cancel
    under a large offset.  Data that really is constant gives a zero variance whenever
    its chunk sums are exact (every deviation is then 0.0, as for 2.5 or
    1e8); otherwise its variance is at the rounding level of the chunk
    mean.
    """
    sums = []
    m2 = 0.0
    scratch = np.empty(min(n, _CHUNK)) if variance else None
    done = 0
    while done < n:
        take = min(n - done, _CHUNK)
        y = callback_values(yrand(take, gen), take, what)
        total = chunk_sum(y, what)
        if binary and not np.all((y == 0.0) | (y == 1.0)):
            raise EvaluationError(f"{what}: Bernoulli sampler must return 0/1 values")
        if variance:
            chunk_mean = total / take
            dev = np.subtract(y, chunk_mean, out=scratch[:take])
            chunk_m2 = float(np.dot(dev, dev))
            if done:
                delta = chunk_mean - fsum_partials(sums) / done
                chunk_m2 += delta * delta * (done * take / (done + take))
            m2 += chunk_m2
        sums.append(total)
        done += take
    var = (m2 / (n - 1) if n > 1 else 0.0) if variance else None
    return fsum_partials(sums) / n, var


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
    ``var``, ``kurtmax``, ``nremain``, ``ntot`` and ``n_up``.

    The mean stage is one floor step of ``n_floor`` draws at all of
    ``alpha_mu`` when that is no more than the first relative step
    ``n_rel``, and relative steps at ``alpha_mu * 2^-t`` otherwise (see
    the module docstring).  One planner sizes every relative step: step
    t+1 gets ``two_stage_n`` draws for ``tolfun(spec, _plan_magnitude(hmu_t,
    n_t, alpha_t / 2, sigtilde))`` at ``alpha_t / 2``, so that it meets
    the tolerance at its own estimate too, and ``n_rel`` is step 1 planned
    from the variance stage's mean ``m0`` of ``n_sig`` draws.  ``n_up`` is
    the planned total, ``n_sig`` plus the first planned step: an int up to
    2^53, a float above, and ``inf`` when no float holds it.  Exit flag 1
    means ``params.nbudget`` or ``params.tbudget_seconds`` ran out before
    the tolerance was certified.
    """
    t_start = time.perf_counter()
    gen = rng.generator()
    spec = params.tol
    fudge = params.fudge

    # the draw rate that sizes the time budget's steps counts only the
    # seconds spent drawing, not set-up such as a first import of scipy
    t_draw = time.perf_counter()
    m0, var_hat = _draw_mean(yrand, params.n_sig, gen, "mean_mc",
                             variance=True)
    drawing = time.perf_counter() - t_draw
    if not math.isfinite(var_hat):
        raise EvaluationError("mean_mc: the variance of the draws overflows")
    sigtilde = fudge * math.sqrt(var_hat)
    alpha_sigma = alpha_mu = 1.0 - math.sqrt(1.0 - params.alpha)
    kurtmax = kurtosis_bound(params.n_sig, alpha_sigma, fudge)

    def plan(m, n, alpha, fallback):
        """Draws for a relative step at ``alpha`` planned from the mean
        ``m`` of ``n`` draws, or ``fallback`` when the tolerance it plans
        for is 0."""
        tol = tolfun(spec, _plan_magnitude(m, n, alpha, sigtilde))
        if tol > 0:
            return two_stage_n(var_hat, fudge, tol, alpha, kurtmax)
        return fallback

    floor = tolfun(spec, 0.0)
    n_floor = (two_stage_n(var_hat, fudge, floor, alpha_mu, kurtmax)
               if floor > 0 else math.inf)
    n_rel = plan(m0, params.n_sig, alpha_mu * 0.5, params.n1)
    one_step = n_floor <= n_rel
    n_next = n_floor if one_step else n_rel
    n_up = params.n_sig + n_next

    ntot = params.n_sig
    n_hist, hmu_hist, tol_hist = [], [], []
    exit_flags = 0
    hmu = 0.0
    width = math.inf

    for t in range(1, _MAX_ITER + 1):
        alpha_t = alpha_mu if one_step else alpha_mu * 0.5**t
        elapsed = time.perf_counter() - t_start
        nremain = params.nbudget - ntot
        if drawing > 0:
            rate = ntot / drawing
            time_allow = (params.tbudget_seconds - elapsed) * rate
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
        t_draw = time.perf_counter()
        hmu, _ = _draw_mean(yrand, n_t, gen, "mean_mc")
        drawing += time.perf_counter() - t_draw
        ntot += n_t
        width = _half_width(n_t, alpha_t, sigtilde, kurtmax)
        n_hist.append(n_t)
        hmu_hist.append(hmu)
        tol_hist.append(width)
        if truncated:
            exit_flags |= 1
            break
        if width <= tolfun(spec, abs(hmu)):
            break
        if one_step:
            # the step had all of alpha_mu, so none is left for another
            exit_flags |= 1
            break
        # a pure relative tolerance around an estimate of exactly 0 has no
        # finite target yet: grow geometrically until the budget objects
        n_next = plan(hmu, n_t, alpha_t * 0.5, max(2 * n_t, _MIN_SAMPLE))
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
            "nremain": max(params.nbudget - ntot, 0),
            "ntot": ntot,
            # an exact int while a float holds it exactly, so that JSON
            # never carries a count of hundreds of digits
            "n_up": n_up if n_up <= 2**53 else float(n_up),
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
    volume = box.volume() if box.measure is Measure.UNIFORM else 1.0

    def yrand(n, gen):
        pts, scale = measure_map(gen.random((n, d)), box)
        return scale * callback_values(f(pts), n, "cub_mc")

    q, diag = mean_mc(yrand, params, rng)
    diag.algorithm = "cub_mc"
    diag.extra.update({
        "d": d,
        "measure": box.measure.value,
        "volume": volume,
    })
    return q, diag
