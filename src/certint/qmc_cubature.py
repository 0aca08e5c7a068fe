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

One loop serves both cubatures; what differs is a small transform
backend with three operations: evaluate and transform the first block,
write the coefficient magnitudes where the block sums rank them, and
merge a refining block into the coefficients in place.  The Walsh backend
(Sobol') takes as its refining block the natural index range
[2^m, 2^(m+1)) and merges its Walsh coefficients with the old ones by one
butterfly; the Fourier backend (lattice) takes the odd indices at level
m+1 and merges their FFT by one radix-2 step with twiddles.

Every block, the first one and each refining one, is evaluated in chunks
of ``_EVAL_CHUNK`` rows: the chunk's points, their measure map and the
integrand values exist only for that chunk, and the values go straight
into the backend's buffer.  Each point and each value is computed exactly
as it would be in one piece, so the coefficients do not depend on the
chunk size.  The (n, d) point arrays are never built: the level buffers
take O(n) memory whatever d is, and the points of one chunk O(2^15 d).

The estimate is ``math.fsum`` of the ``np.sum`` of every chunk evaluated
so far, divided by n.  Its bits depend on ``_EVAL_CHUNK`` and on numpy's
sum of one contiguous chunk, not on how the levels double, so neither
backend keeps a copy of the values.

Both backends double their coefficient buffer in place in ``refine``.
The magnitudes go into a fresh real array, or at ``mmax`` over the Walsh
coefficients, which are spent by then, so that in units of one float64
array of the final level a run holds:

* Walsh, 1 at ``mmax`` and 2 on a tolerance stop: one real buffer of
  coefficients, and the magnitudes apart from it below ``mmax``.  Each
  refining block is written into the upper half of the grown buffer and
  transformed there.
* Fourier, 3: one complex buffer of coefficients (2) and the magnitudes
  (1).  Each refining block is written into the real parts of the upper
  half of the grown buffer and transformed there.

The merges run one chunk at a time with one chunk of scratch.

A run may put its own array work on a pool of threads, one per CPU the
process may run on (``os.sched_getaffinity``).  The pool is made for the
run, started by the first block that may use it and joined when the run
ends.  Its threads prepare the chunks' points (the generator, the
periodizer and the measure map) ahead of the integrand, run the rows and
column slabs of the Walsh transform, and sort the block sums' magnitudes,
as a partition at the median and a sort of each half.  The integrand,
the merge and the taking of the magnitudes stay on the calling thread,
which gets the chunks in ascending order.  Each value comes from the same
operations on the same operands, so the result is bit for bit that of a
serial run.  A block may use the pool only when its chunks in flight, the
one being evaluated and one per thread prepared ahead, each of 2^15 rows
of d + 1 floats, come to at most a quarter of its values: in the units
above, at most a quarter of a unit, and an eighth at a refining block.
The transform's scratch stays at 2^16 elements in all.  A process bound
to one CPU, or a run whose blocks are all too small, starts no thread.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (RngStream, ToleranceSpec, callback_values, chunk_sum,
                   fsum_partials, tolfun)
from .errors import ConfigurationError
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
    _SERIAL,
    _pool_size,
    _Pool,
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
    if mtop < 1:
        return False
    # row: fine level 1..mtop, column: coarse level 0..mtop-1; the gap
    # fine - coarse picks its factor, and pairs with coarse >= fine pass
    gap = np.arange(1, mtop + 1)[:, None] - np.arange(mtop)
    factors = np.asarray(fudge(np.arange(1, mtop + 1)), dtype=float)
    exceeds = s[1:, None] > factors[np.maximum(gap, 1) - 1] * s[:-1]
    return bool(np.any(np.all(exceeds | (gap < 1), axis=1)))


# ---------------------------------------------------------------------------
# Shared doubling engine
# ---------------------------------------------------------------------------

def _block_sums(coeffs: np.ndarray, m: int, mags: np.ndarray,
                pool: _Pool = _SERIAL) -> np.ndarray:
    """Dyadic block sums S(0), ..., S(m) of the ranked magnitudes.

    The magnitudes |coeffs| are written into ``mags`` and ranked there.
    ``mags`` is a real array of the same length that nothing reads
    afterwards: a fresh one, or at ``mmax`` the Walsh coefficients
    themselves.

    Position 0 holds the DC magnitude |c[0]| (the estimate itself); the
    other magnitudes are ranked largest first, so the dyadic position
    blocks [2^(l-1), 2^l) play the role of coarse-to-fine wavenumber
    shells.  For an integrand whose spectrum decays, this reproduces the
    shell structure regardless of how the generator scatters wavenumbers
    across raw transform bins.  Equal magnitudes are equal values, so
    sorting the values gives the same blocks as any stable ranking.  They
    are negated, sorted ascending and negated back in one contiguous
    array: a sum over a reversed view would round differently.

    A ``pool`` of several threads sorts by a partition at the boundary of
    the finest block, the median, then a sort of each part on its own
    thread: the same sorted array, so the same sums.
    """
    np.abs(coeffs, out=mags)
    np.negative(mags, out=mags)
    mags[0] = -mags[0]
    tail = mags[1:]
    if pool.size < 2:
        tail.sort()
    else:
        median = tail.size // 2
        tail.partition(median)
        pool.run(np.ndarray.sort, (tail[:median], tail[median:]))
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
# A block runs on the pool only when its chunks in flight, the one being
# evaluated and one per thread prepared ahead, at d + 1 floats a row (the
# points and a Jacobian), come to at most 1 / _POOL_SHARE of the values it
# fills.
_POOL_SHARE = 4


def _adaptive_cubature(points, f, params: QmcParams, backend, what: str,
                       dimension: int) -> QmcResult:
    """Doubling loop shared by the lattice and Sobol' cubatures.

    ``points(m, start, stop, step)`` builds the unit-cube points of the
    natural indices ``range(start, stop, step)`` at level m and maps them
    to ``(pts, factors)``: the points ``f`` takes (transform and measure
    map applied) and the factors (the Jacobian, if the transform has one,
    then the volume) that turn ``f(pts)`` into the integrand on the unit
    cube.  ``backend`` is :class:`_Fourier` or :class:`_Walsh`.

    The run's own array work, but never ``f``, may go to a pool of one
    thread per CPU the process may use, started by the first block that
    passes the memory rule of ``_POOL_SHARE`` and joined when the run
    ends.  Each value is computed by the same operations on the same
    operands either way, so the result is bit for bit the serial one.
    """

    partials = []
    pool = _Pool(_pool_size())

    def pool_for(size: int) -> _Pool:
        """The pool a block of ``size`` values runs on."""
        in_flight = (pool.size + 1) * min(size, _EVAL_CHUNK) * (dimension + 1)
        return pool if _POOL_SHARE * in_flight <= size else _SERIAL

    def fill(level: int, start: int, step: int, out: np.ndarray,
             block_pool: _Pool) -> None:
        """Write the integrand at the natural indices start, start + step,
        ... of ``level`` into ``out``, one chunk at a time, and append the
        sum of each chunk's values to ``partials``.

        The unit-cube points live only until ``points`` has mapped them, so
        the integrand runs next to the mapped points alone, and a chunk's
        arrays are freed before the next chunk's points are built, or, on a
        ``block_pool`` of several threads, once ``f`` has its values: then
        the pool's threads prepare the next chunks while ``f`` runs, here,
        on each chunk in ascending order.  The values are checked by the
        callback contract of :mod:`certint.core`: their count before they
        are multiplied by the mapping's factors (in the order given), so a
        scalar is never broadcast to a chunk, and their sum after; a scalar
        factor of 1.0 is skipped, since it changes no bit.
        """
        def prepare(lo: int) -> tuple:
            hi = min(lo + _EVAL_CHUNK, out.size)
            return (lo, hi) + points(level, start + step * lo,
                                     start + step * hi, step)

        chunks = block_pool.ahead(prepare, range(0, out.size, _EVAL_CHUNK),
                                  block_pool.size)
        with contextlib.closing(chunks):
            for lo, hi, pts, factors in chunks:
                vals = callback_values(f(pts), hi - lo, what)
                for factor in factors:
                    if not (np.ndim(factor) == 0 and factor == 1.0):
                        vals = vals * factor
                partials.append(chunk_sum(vals, what))
                out[lo:hi] = vals
                del pts, factors, vals

    t_start = time.perf_counter()
    m = params.mmin
    exitflag = 0
    try:
        block = pool_for(1 << m)
        levels = backend(fill, m, block)
        while True:
            q = fsum_partials(partials) / (1 << m)
            sums = levels.block_sums(m, m >= params.mmax, block)
            bound = _certified_bound(sums, m, params.fudge)
            if cone_check(sums, params.fudge):
                exitflag |= 2
            if bound <= tolfun(params.tol, abs(q)):
                break
            if m >= params.mmax:
                exitflag |= 1
                break
            block = pool_for(1 << m)
            levels.refine(fill, m, block)
            m += 1
    finally:
        pool.close()

    return QmcResult(
        q=q, n=1 << m, bound_err=float(bound), exitflag=exitflag,
        time=time.perf_counter() - t_start,
        extra={"m": m, "block_sums": sums.tolist()},
    )


# The backends double their buffer in place with ``ndarray.resize``
# (realloc, no copy of the old half, zeros in the new one).  No view of it
# lives across such a call, so the reference check, which a tracer's or
# debugger's own references would trip, is not needed.

class _Walsh:
    """Walsh coefficients of the Sobol' values in one real buffer."""

    def __init__(self, fill, m: int, pool: _Pool):
        n = 1 << m
        # the values, transformed in place
        self.buf = np.empty(n)
        fill(m, 0, 1, self.buf, pool)
        fwht_inplace(self.buf, pool)
        self.buf /= n

    def block_sums(self, m: int, last: bool,
                   pool: _Pool) -> np.ndarray:
        # at mmax the coefficients are spent once their magnitudes are taken
        return _block_sums(self.buf, m, self.buf if last else np.empty(1 << m),
                           pool)

    def refine(self, fill, m: int, pool: _Pool) -> None:
        # the next block of net indices, [2^m, 2^(m+1)), in the upper half
        # of the grown buffer
        n = 1 << m
        self.buf.resize(2 * n, refcheck=False)
        upper = self.buf[n:]
        fill(m + 1, n, 1, upper, pool)
        fwht_inplace(upper, pool)
        _merge(self.buf, False)


class _Fourier:
    """FFT coefficients of the lattice values in one complex buffer."""

    def __init__(self, fill, m: int, pool: _Pool):
        n = 1 << m
        # the values in the real parts, transformed in place
        self.buf = np.zeros(n, dtype=complex)
        fill(m, 0, 1, self.buf.real, pool)
        np.fft.fft(self.buf, out=self.buf)
        self.buf /= n

    def block_sums(self, m: int, last: bool,
                   pool: _Pool) -> np.ndarray:
        return _block_sums(self.buf, m, np.empty(1 << m), pool)

    def refine(self, fill, m: int, pool: _Pool) -> None:
        # the refining block, the odd natural indices at level m+1, in the
        # real parts of the upper half of the grown buffer
        n = 1 << m
        self.buf.resize(2 * n, refcheck=False)
        upper = self.buf[n:]
        fill(m + 1, 1, 2, upper.real, pool)
        np.fft.fft(upper, out=upper)
        _merge(self.buf, True)


def _merge(buf: np.ndarray, twiddled: bool) -> None:
    """Coefficients at level m+1, in place, by one radix-2 step.

    ``buf`` holds the level-m coefficients c in its lower half and the
    transform of the refining block in its upper half, ``new``.  The
    scaling by 1/n, for the Fourier merge the twiddles
    tw_k = exp(-2 pi i k / 2n), the butterfly 0.5 * (c + tw new, c - tw new)
    and the halving run one cache-sized chunk at a time, on the calling
    thread, each chunk with its own twiddles and all with one chunk of
    scratch for c - tw new.
    """
    n = buf.size // 2
    scratch = np.empty(min(n, _EVAL_CHUNK), dtype=buf.dtype)
    for lo in range(0, n, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, n)
        c, new, diff = buf[lo:hi], buf[n + lo:n + hi], scratch[:hi - lo]
        new /= n
        if twiddled:
            tw = np.exp(-2j * np.pi * np.arange(lo, hi) / (2 * n))
            np.multiply(tw, new, out=new)
        np.subtract(c, new, out=diff)
        c += new
        c *= 0.5
        np.multiply(diff, 0.5, out=new)


# ---------------------------------------------------------------------------
# Public cubatures
# ---------------------------------------------------------------------------

def _validate(box: Hyperbox, params: QmcParams, max_dim: int, max_m: int,
              what: str) -> None:
    code = box.validate()
    if code != 0:
        raise ConfigurationError(f"{what}: invalid hyperbox (code {code})")
    if box.dimension > max_dim:
        raise ConfigurationError(
            f"{what}: dimension {box.dimension} exceeds {max_dim}")
    if params.mmax > max_m:
        raise ConfigurationError(f"{what}: mmax cannot exceed {max_m}")


def cub_lattice(f, box: Hyperbox, params: QmcParams,
                rng: RngStream) -> QmcResult:
    """Rank-1 lattice cubature of ``f`` over the hyperbox.

    The integrand is composed with the periodizing transform of
    ``params.transform`` (on unit-cube coordinates, after the measure
    map), evaluated on a randomly shifted extensible lattice, and the
    FFT coefficient blocks drive the error bound.
    """
    _validate(box, params, LATTICE_MAX_DIM, LATTICE_MAX_M, "cub_lattice")
    gen = LatticeGenerator(box.dimension, rng=rng)

    def points(m: int, start: int, stop: int, step: int):
        u = gen.points_at_level(m, np.arange(start, stop, step))
        mapped_u, weight = periodizer_map_weight(params.transform, u)
        del u           # unless the map returned them, free the unit points
        # no Jacobian for the measure-preserving maps
        jacobian = () if weight is None else (np.prod(weight, axis=1),)
        del weight      # free it before the measure map allocates
        pts, scale = measure_map(mapped_u, box)
        return pts, jacobian + (scale,)

    res = _adaptive_cubature(points, f, params, _Fourier, "cub_lattice",
                             box.dimension)
    res.extra.update({"transform": params.transform.value,
                      "shift": gen.shift.tolist()})
    return res


def cub_sobol(f, box: Hyperbox, params: QmcParams,
              rng: RngStream) -> QmcResult:
    """Sobol' cubature of ``f`` over the hyperbox.

    Same doubling loop over a digitally shifted Sobol' net with fast
    Walsh-Hadamard coefficients; the Walsh basis needs no periodizer.
    """
    _validate(box, params, SOBOL_MAX_DIM, SOBOL_MAX_BITS, "cub_sobol")
    gen = SobolGenerator(box.dimension, rng=rng)

    def points(m: int, start: int, stop: int, step: int):
        # Sobol' points do not depend on the level, and the Walsh backend
        # asks only for contiguous natural index ranges (step 1)
        pts, scale = measure_map(gen.points(start, stop), box)
        return pts, (scale,)

    res = _adaptive_cubature(points, f, params, _Walsh, "cub_sobol",
                             box.dimension)
    res.extra.update({"digital_shift": gen.digital_shift.tolist()})
    return res
