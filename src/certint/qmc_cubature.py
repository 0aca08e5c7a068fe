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

Every block, the first one and each refining one, is evaluated in chunks
of ``_EVAL_CHUNK`` rows: the chunk's points, their measure map and the
integrand values exist only for that chunk, and the values go straight
into the level's buffer.  Each point and each value is computed exactly
as it would be in one piece, so the results do not depend on the chunk
size.  The (n, d) point arrays are never built: the level buffers take
O(n) memory whatever d is, and the points of one chunk O(2^15 d).

The Sobol' loop holds one real buffer of 2^m coefficients and a running
sum of the values, and no value array.  Each block is written straight
into the buffer (the first block into all of it, each refining block into
its upper half after the buffer has doubled in place), summed, and
transformed there.  The magnitudes the block sums rank go into the upper
half the next level will fill, or, at ``mmax``, over the coefficients
themselves, so the grown buffer of 2^(m+1) floats is a level's peak.  The
lattice loop holds the values (its estimate averages them in interleaved
natural order), the complex coefficients and the magnitudes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import RngStream, ToleranceSpec, tolfun
from .errors import ConfigurationError, EvaluationError
# the engine looks measure_map up by this module's name
from .montecarlo import Hyperbox, measure_map
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
    "cone_check",
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
    n: int
    bound_err: float
    exitflag: int
    time: float
    extra: dict = field(default_factory=dict)


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


# ---------------------------------------------------------------------------
# Shared doubling engine
# ---------------------------------------------------------------------------

def _block_sums(coeffs: np.ndarray, m: int, mags: np.ndarray) -> np.ndarray:
    """Dyadic block sums S(0), ..., S(m) of the ranked magnitudes.

    The magnitudes |coeffs| are written into ``mags`` and ranked there.
    ``mags`` is a real array of the same length: the Sobol' loop passes the
    upper half of its grown buffer, which the next level has not filled
    yet, or at ``mmax`` the coefficients themselves, since nothing reads
    them afterwards; the lattice loop passes a new array.

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
    np.abs(coeffs, out=mags)
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


# Rows per evaluation chunk, and elements per chunk of the Walsh merge.  A
# chunk of d coordinates takes 8 d 2^15 bytes per array: small enough for
# the points, the measure map and the integrand to work in cache, large
# enough that the per-call overhead of numpy stays negligible.
_EVAL_CHUNK = 1 << 15

# numpy sums a contiguous float64 array pairwise, and splits a power-of-two
# length above this block into its exact halves, so the sum of such a level
# is the sum of its old half plus the sum of its refining block, bit for
# bit.  A level of this many values or fewer is summed from its values.
_PAIRWISE_BLOCK = 128


def _eval_chunk(unit_points, to_box, f, m: int, indices: np.ndarray,
                what: str) -> np.ndarray:
    """Integrand values at one chunk of natural indices at level m.

    The unit-cube points live only until ``to_box`` has mapped them, so
    the integrand runs next to the mapped points alone.  The value count
    is checked before the values are multiplied by the mapping's factors
    (in the order given), so a scalar is never broadcast to a chunk.
    """
    pts, factors = to_box(unit_points(m, indices))
    vals = np.asarray(f(pts), dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise EvaluationError(
            f"{what}: integrand returned {vals.shape[0]} values for "
            f"{pts.shape[0]} points")
    for factor in factors:
        vals = vals * factor
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"{what}: integrand returned NaN or Inf")
    return vals


def _adaptive_cubature(unit_points, to_box, f, params: QmcParams,
                       use_fft: bool, what: str) -> QmcResult:
    """Doubling loop shared by the lattice and Sobol' cubatures.

    ``unit_points(m, indices)`` returns unit-cube points for natural
    indices at level m.  ``to_box(u)`` maps them to ``(pts, factors)``:
    the points ``f`` takes (transform and measure map applied) and the
    factors (Jacobian, volume) that turn ``f(pts)`` into the integrand on
    the unit cube.
    """

    def fill(level: int, start: int, step: int, out: np.ndarray) -> None:
        """Write the integrand at the natural indices start, start + step,
        ... of ``level`` into ``out``, one chunk at a time."""
        for lo in range(0, out.size, _EVAL_CHUNK):
            hi = min(lo + _EVAL_CHUNK, out.size)
            out[lo:hi] = _eval_chunk(
                unit_points, to_box, f, level,
                np.arange(start + step * lo, start + step * hi, step), what)

    t_start = time.perf_counter()
    mmin, mmax = params.mmin, params.mmax
    m = mmin
    n = 1 << m
    if use_fft:
        yvals = np.empty(n)
        fill(m, 0, 1, yvals)
        coeffs = np.fft.fft(yvals) / n
    else:
        # the values, summed and then transformed in place; ``yvals`` keeps
        # the values of a level whose sum is not the sum of its halves
        coeffs = np.empty(n)
        fill(m, 0, 1, coeffs)
        yvals = coeffs.copy() if n <= _PAIRWISE_BLOCK else None
        ysum = np.add.reduce(coeffs)
        fwht_inplace(coeffs)
        coeffs /= n

    exitflag = 0
    while True:
        if use_fft:
            sums = _block_sums(coeffs, m, np.empty(n))
            q = float(np.mean(yvals))
        else:
            if m < mmax:
                # Double the buffer in place (realloc, no copy of the old
                # half).  No view of ``coeffs`` lives across this call, so
                # the reference check, which a tracer's or debugger's own
                # references would trip, is not needed.
                coeffs.resize(2 * n, refcheck=False)
                sums = _block_sums(coeffs[:n], m, coeffs[n:])
            else:
                sums = _block_sums(coeffs, m, coeffs)
            q = float(ysum / n)
        bound = _certified_bound(sums, m, params.fudge)
        if cone_check(sums, params.fudge):
            exitflag |= 2
        if bound <= tolfun(params.tol, abs(q)):
            break
        if m >= mmax:
            exitflag |= 1
            break
        # extend to level m+1: evaluate the refining half, merge transforms
        if use_fft:
            # the odd natural indices at level m+1
            ynew = np.empty(n)
            fill(m + 1, 1, 2, ynew)
            coeffs = _merge_fft(coeffs, ynew)
            yvals = _interleave(yvals, ynew)
        else:
            # the next block of net indices, [2^m, 2^(m+1)), in the upper
            # half of the grown buffer
            fill(m + 1, n, 1, coeffs[n:])
            if 2 * n <= _PAIRWISE_BLOCK:
                yvals = np.concatenate((yvals, coeffs[n:]))
                ysum = np.add.reduce(yvals)
            else:
                ysum = ysum + np.add.reduce(coeffs[n:])
            _merge_fwht(coeffs)
        m += 1
        n *= 2

    return QmcResult(
        q=q, n=1 << m, bound_err=float(bound), exitflag=exitflag,
        time=time.perf_counter() - t_start,
        extra={"m": m, "block_sums": sums.tolist()},
    )


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    out = np.empty(old.size * 2, dtype=old.dtype)
    out[0::2] = old
    out[1::2] = new
    return out


def _merge_fft(coeffs: np.ndarray, ynew: np.ndarray) -> np.ndarray:
    """Coefficients at level m+1 from level-m coefficients and the FFT of
    the new (odd-index) values: 0.5 * (c + tw odd, c - tw odd)."""
    n = coeffs.size
    odd = np.fft.fft(ynew)
    odd /= n
    tw = np.exp(-2j * np.pi * np.arange(n) / (2 * n))
    np.multiply(tw, odd, out=odd)
    del tw
    out = np.empty(2 * n, dtype=complex)
    np.add(coeffs, odd, out=out[:n])
    np.subtract(coeffs, odd, out=out[n:])
    out *= 0.5
    return out


def _merge_fwht(buf: np.ndarray) -> None:
    """Walsh coefficients at level m+1, in place.

    ``buf`` holds the level-m coefficients c in its lower half and the
    refining block of values in its upper half.  The values are
    transformed where they are, to ``new``; the scaling, the butterfly
    0.5 * (c + new, c - new) and the halving then run one cache-sized
    chunk at a time, with one chunk of scratch for c - new.
    """
    n = buf.size // 2
    coeffs, upper = buf[:n], buf[n:]
    fwht_inplace(upper)
    scratch = np.empty(min(n, _EVAL_CHUNK))
    for lo in range(0, n, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, n)
        c, new, diff = coeffs[lo:hi], upper[lo:hi], scratch[:hi - lo]
        new /= n
        np.subtract(c, new, out=diff)
        c += new
        c *= 0.5
        np.multiply(diff, 0.5, out=new)


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
    gen = LatticeGenerator(box.dimension, rng=rng)
    variant = params.transform

    def to_box(u: np.ndarray):
        mapped_u, weight = periodizer_map_weight(variant, u)
        jacobian = np.prod(weight, axis=1)
        del weight      # free it before the measure map allocates
        pts, scale = measure_map(mapped_u, box)
        return pts, (jacobian, scale)

    res = _adaptive_cubature(
        lambda m, idx: gen.points_at_level(m, idx), to_box, f, params,
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
    gen = SobolGenerator(box.dimension, rng=rng)

    def to_box(u: np.ndarray):
        pts, scale = measure_map(u, box)
        return pts, (scale,)

    # Sobol' points do not depend on the level, and the engine always asks
    # for contiguous natural index ranges.
    res = _adaptive_cubature(
        lambda m, idx: gen.points(int(idx[0]), int(idx[-1]) + 1),
        to_box, f, params, use_fft=False, what="cub_sobol")
    res.extra.update({"digital_shift": gen.digital_shift.tolist()})
    return res
