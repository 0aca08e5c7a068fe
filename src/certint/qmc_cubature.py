"""Adaptive guaranteed quasi-Monte Carlo cubature.

Both cubature routines run the same doubling loop: evaluate the
(transformed, measure-mapped) integrand on the first 2^m points of a
randomized low-discrepancy sequence, take the matching fast transform of
the values (FFT over the shifted rank-1 lattice, fast Walsh-Hadamard
transform over the digitally shifted Sobol' net), group the coefficient
magnitudes into dyadic wavenumber blocks, and certify

    bound_err = max over l in [max(1, m - 4), m] of fudge(l) * S(l),

where S(l) sums block l, the magnitudes at ranked positions
[2^(l-1), 2^l).  The loop doubles m until ``bound_err`` meets the
generalized tolerance at the current estimate, the budget ``mmax`` is hit
(exit flag 1), or the observed block sums contradict the decay the fudge
function encodes (exit flag 2: the integrand is outside the cone, so the
bound is not trusted).

The mapping from raw transform bins to wavenumber blocks is data-driven:
the DC coefficient stays at position 0, and all other coefficient
magnitudes are sorted globally, largest first, so a larger magnitude is
deemed a coarser wavenumber, mirroring the decay assumption.  Only the
block-sum bookkeeping depends on that ranking; the estimate itself is the
plain average of the sampled values.

Each doubling reuses the work of the previous level: the Sobol' refining
block is the natural index range [2^m, 2^(m+1)) and its Walsh
coefficients merge with the old ones by one butterfly; the lattice
refining block is the odd indices at level m+1, merged by one radix-2 FFT
step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .core import RngStream, ToleranceSpec, tolfun
from .errors import ConfigurationError, EvaluationError
from .montecarlo import Hyperbox, Measure
from .qmc_points import (
    LATTICE_MAX_DIM,
    LATTICE_MAX_M,
    SOBOL_MAX_BITS,
    SOBOL_MAX_DIM,
    LatticeGenerator,
    Periodizer,
    SobolGenerator,
    fwht_inplace,
    periodizer_map_weight,
)

__all__ = [
    "QmcParams",
    "QmcResult",
    "default_fudge",
    "coeff_error_bound",
    "cone_check",
    "measure_map",
    "cub_lattice",
    "cub_sobol",
]


def default_fudge(m) -> np.ndarray:
    """Default cone inflation factor 5 * 2^-m."""
    return 5.0 * 2.0 ** (-np.asarray(m, dtype=float))


@dataclass(frozen=True)
class QmcParams:
    """Tolerances and budget for the quasi-Monte Carlo cubatures."""

    tol: ToleranceSpec = field(
        default_factory=lambda: ToleranceSpec(abstol=1e-4, reltol=1e-2))
    mmin: int = 10
    mmax: int = 24
    fudge: Callable = default_fudge
    transform: Periodizer = Periodizer.BAKER

    def __post_init__(self):
        if not (1 <= self.mmin <= self.mmax):
            raise ConfigurationError("need 1 <= mmin <= mmax")


@dataclass
class QmcResult:
    """Outcome of one adaptive cubature run.

    ``exitflag`` bit 1 (value 1): budget 2^mmax reached before the
    tolerance; bit 2 (value 2): the coefficient decay contradicts the
    cone, so the bound is not guaranteed.
    """

    q: float
    d: int
    n: int
    bound_err: float
    exitflag: int
    time: float
    extra: dict = field(default_factory=dict)


def coeff_error_bound(coeffs: np.ndarray, m: int, fudge: Callable) -> float:
    """Error bound fudge(m) * S(m) from wavenumber-ordered coefficients,
    where S(m) sums the magnitudes of the top dyadic block
    kappa in [2^(m-1), 2^m)."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (1 << m,):
        raise ConfigurationError(f"need 2^{m} coefficients, got {coeffs.shape}")
    if m == 0:
        return 0.0
    top = float(np.sum(np.abs(coeffs[1 << (m - 1):])))
    return float(fudge(m)) * top


def cone_check(block_sums, fudge: Callable) -> bool:
    """True when the observed block sums contradict the assumed decay.

    The cone encodes that a fine block is at most fudge(gap) times any
    coarser block.  A violation is declared for a fine block that exceeds
    the bound implied by every coarser block simultaneously; a single
    consistent coarser block keeps the function inside the cone.
    """
    s = np.asarray(block_sums, dtype=float)
    mtop = s.size - 1
    for fine in range(1, mtop + 1):
        gaps = fine - np.arange(fine)
        limits = np.asarray(fudge(gaps), dtype=float) * s[:fine]
        if np.all(s[fine] > limits):
            return True
    return False


def measure_map(points: np.ndarray, box: Hyperbox):
    """Map unit-cube points into the hyperbox of the given measure.

    Uniform: affine map, scale = volume.  Normal: inverse normal CDF per
    coordinate (arguments clamped away from 0), scale = 1.
    """
    pts = np.asarray(points, dtype=float)
    if box.measure is Measure.UNIFORM:
        width = box.upper - box.lower
        return box.lower + width * pts, box.volume()
    # periodizers may round a coordinate to exactly 0.0 or 1.0; clamp to
    # the nearest representable interior values so the inverse CDF stays
    # finite
    clipped = np.clip(pts, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    return ndtri(clipped), 1.0


# ---------------------------------------------------------------------------
# Shared doubling engine
# ---------------------------------------------------------------------------

def _block_sums(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Dyadic block sums S(0), ..., S(m) of the ranked magnitudes.

    Position 0 holds the DC magnitude |c[0]| (the estimate itself); the
    other magnitudes are ranked largest first, so the dyadic position
    blocks [2^(l-1), 2^l) play the role of coarse-to-fine wavenumber
    shells.  For an integrand whose spectrum decays, this reproduces the
    shell structure regardless of how the generator scatters wavenumbers
    across raw transform bins.  Equal magnitudes are equal values, so
    sorting the values gives the same blocks as any stable ranking.  They
    are negated, sorted ascending and negated back in one contiguous
    array: a sum over a reversed view would round differently.
    """
    mags = np.abs(coeffs)
    tail = mags[1:]
    np.negative(tail, out=tail)
    tail.sort()
    np.negative(tail, out=tail)
    sums = np.empty(m + 1)
    sums[0] = mags[0]
    for level in range(1, m + 1):
        sums[level] = float(np.sum(mags[1 << (level - 1):1 << level]))
    return sums


# The top observed block alone can understate the invisible aliased mass,
# so the certificate also keeps the fudge-scaled sums of a few coarser
# blocks in play; the reported bound is their maximum.
_BOUND_LAG = 4


def _certified_bound(sums: np.ndarray, m: int, fudge: Callable) -> float:
    lo = max(1, m - _BOUND_LAG)
    levels = np.arange(lo, m + 1)
    return float(np.max(np.asarray(fudge(levels), dtype=float)
                        * sums[lo:m + 1]))


def _eval_unit(g, pts: np.ndarray, what: str) -> np.ndarray:
    vals = np.asarray(g(pts), dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise EvaluationError(
            f"{what}: integrand returned {vals.shape[0]} values for "
            f"{pts.shape[0]} points")
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{what}: integrand returned NaN or Inf")
    return vals


def _adaptive_cubature(unit_points, g, params: QmcParams, d: int,
                       use_fft: bool, what: str) -> QmcResult:
    """Doubling loop shared by the lattice and Sobol' cubatures.

    ``unit_points(m, indices)`` returns unit-cube points for natural
    indices at level m; ``g`` is the fully composed scalar integrand on
    the unit cube (scale, transform and measure map included).
    """
    t_start = time.perf_counter()
    mmin, mmax = params.mmin, params.mmax
    m = mmin
    yvals = _eval_unit(g, unit_points(m, np.arange(1 << m)), what)
    if use_fft:
        coeffs = np.fft.fft(yvals) / yvals.size
    else:
        coeffs = _walsh_coeffs(yvals)

    exitflag = 0
    history = []
    while True:
        sums = _block_sums(coeffs, m)
        bound = _certified_bound(sums, m, params.fudge)
        q = float(np.mean(yvals))
        history.append(bound)
        if cone_check(sums, params.fudge):
            exitflag |= 2
        if bound <= tolfun(params.tol, abs(q)):
            break
        if m >= mmax:
            exitflag |= 1
            break
        # extend to level m+1: evaluate the refining half, merge transforms
        new_idx = _refining_indices(m, use_fft)
        ynew = _eval_unit(g, unit_points(m + 1, new_idx), what)
        if use_fft:
            coeffs = _merge_fft(coeffs, ynew)
            yvals = _interleave(yvals, ynew)
        else:
            coeffs = _merge_fwht(coeffs, ynew)
            yvals = np.concatenate([yvals, ynew])
        m += 1

    return QmcResult(
        q=q, d=d, n=1 << m, bound_err=float(bound), exitflag=exitflag,
        time=time.perf_counter() - t_start,
        extra={"m": m, "bound_err_history": history,
               "block_sums": sums.tolist()},
    )


def _refining_indices(m: int, use_fft: bool) -> np.ndarray:
    if use_fft:
        return np.arange(1, 1 << (m + 1), 2)   # odd naturals at level m+1
    return np.arange(1 << m, 1 << (m + 1))     # next block of net indices


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    out = np.empty(old.size * 2, dtype=old.dtype)
    out[0::2] = old
    out[1::2] = new
    return out


def _walsh_coeffs(yvals: np.ndarray) -> np.ndarray:
    a = yvals.astype(float, copy=True)
    fwht_inplace(a)
    a /= yvals.size
    return a


def _merge_fft(coeffs: np.ndarray, ynew: np.ndarray) -> np.ndarray:
    """Coefficients at level m+1 from level-m coefficients and the FFT of
    the new (odd-index) values."""
    n = coeffs.size
    odd = np.fft.fft(ynew) / n
    tw = np.exp(-2j * np.pi * np.arange(n) / (2 * n))
    upper = coeffs - tw * odd
    lower = coeffs + tw * odd
    return 0.5 * np.concatenate([lower, upper])


def _merge_fwht(coeffs: np.ndarray, ynew: np.ndarray) -> np.ndarray:
    """Walsh coefficients at level m+1: 0.5 * (c + new, c - new), where
    ``new`` holds the coefficients of the refining block of values."""
    n = coeffs.size
    new = _walsh_coeffs(ynew)
    out = np.empty(2 * n)
    np.add(coeffs, new, out=out[:n])
    np.subtract(coeffs, new, out=out[n:])
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# Public cubatures
# ---------------------------------------------------------------------------

def _validate_box(box: Hyperbox, max_dim: int, what: str) -> None:
    code = box.validate()
    if code != 0:
        raise ConfigurationError(f"{what}: invalid hyperbox (code {code})")
    if box.dimension > max_dim:
        raise ConfigurationError(
            f"{what}: dimension {box.dimension} exceeds {max_dim}")


def cub_lattice(f, box: Hyperbox, params: QmcParams,
                rng: RngStream) -> QmcResult:
    """Rank-1 lattice cubature of ``f`` over the hyperbox.

    The integrand is composed with the periodizing transform of
    ``params.transform`` (on unit-cube coordinates, after the measure
    map), evaluated on a randomly shifted extensible lattice, and the
    FFT coefficient blocks drive the error bound.
    """
    _validate_box(box, LATTICE_MAX_DIM, "cub_lattice")
    if params.mmax > LATTICE_MAX_M:
        raise ConfigurationError(f"lattice mmax cannot exceed {LATTICE_MAX_M}")
    d = box.dimension
    gen = LatticeGenerator(d, rng=rng)
    variant = params.transform

    def g(u: np.ndarray) -> np.ndarray:
        mapped_u, weight = periodizer_map_weight(variant, u)
        pts, scale = measure_map(mapped_u, box)
        vals = np.asarray(f(pts), dtype=float).reshape(-1)
        return vals * np.prod(weight, axis=1) * scale

    res = _adaptive_cubature(
        lambda m, idx: gen.points_at_level(m, idx), g, params, d,
        use_fft=True, what="cub_lattice")
    res.extra.update({"transform": variant.value, "shift": gen.shift.tolist()})
    return res


def cub_sobol(f, box: Hyperbox, params: QmcParams,
              rng: RngStream) -> QmcResult:
    """Sobol' cubature of ``f`` over the hyperbox.

    Same doubling loop over a digitally shifted Sobol' net with fast
    Walsh-Hadamard coefficients; the Walsh basis needs no periodizer.
    """
    _validate_box(box, SOBOL_MAX_DIM, "cub_sobol")
    if params.mmax > SOBOL_MAX_BITS:
        raise ConfigurationError(f"Sobol' mmax cannot exceed {SOBOL_MAX_BITS}")
    d = box.dimension
    gen = SobolGenerator(d, rng=rng)

    def g(u: np.ndarray) -> np.ndarray:
        pts, scale = measure_map(u, box)
        vals = np.asarray(f(pts), dtype=float).reshape(-1)
        return vals * scale

    # Sobol' points do not depend on the level, and the engine always asks
    # for contiguous natural index ranges.
    res = _adaptive_cubature(
        lambda m, idx: gen.points(int(idx[0]), int(idx[-1]) + 1),
        g, params, d, use_fft=False, what="cub_sobol")
    res.extra.update({"digital_shift": gen.digital_shift.tolist()})
    return res
