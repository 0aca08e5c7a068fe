"""Deterministic low-discrepancy point generation and fast transforms.

Two point families back the adaptive cubature:

* :class:`SobolGenerator` -- the digital Sobol' sequence in base 2, built
  from a bundled direction-number table (Joe-Kuo style, dimensions up to
  1111, 53 output bits), optionally randomized by a per-dimension digital
  shift (XOR mask) that preserves the net structure.
* :class:`LatticeGenerator` -- an extensible rank-1 lattice from a bundled
  generating vector (odd integers, valid for up to 2^26 points and 250
  dimensions), optionally randomized by an additive mod-1 shift.

The doubling cubature loop asks for points in natural index order only:
``SobolGenerator.points(start, stop)`` for the index range [2^m, 2^(m+1))
and ``LatticeGenerator.points_at_level(m + 1, odd indices)``, so that
doubling the sample extends rather than regenerates it.  Sobol' points
are built by XOR doubling within aligned power-of-two runs, the
natural-order form of the Antonov-Saleev recurrence.  Both requests work
on any sub-range of indices, so the cubature can ask for a block one
chunk at a time and get the same points bit for bit.

The module also houses the periodizing variable transforms and thin
power-of-two FFT / fast Walsh-Hadamard transform entry points.

Importing the module reads no data file.  The first generator of each
kind reads its table and checks its checksum.  Every row of the Sobol'
file is then checked for its field count and the file for its coverage
of 1111 dimensions, but the direction integers are parsed, and run
through the recurrence, only for the dimensions the generator asks for.
A generator of a higher dimension than any before it reads the file
again and builds the cached table for its dimension.
"""

from __future__ import annotations

import collections
import contextvars
import enum
import hashlib
import itertools
import os
from typing import Callable

import numpy as np

from .core import RngStream
from .errors import ConfigurationError, DataFileError

__all__ = [
    "SobolGenerator",
    "LatticeGenerator",
    "Periodizer",
    "fwht_inplace",
    "fft",
    "periodize",
    "periodizer_map_weight",
]

SOBOL_MAX_DIM = 1111
SOBOL_MAX_BITS = 53
LATTICE_MAX_DIM = 250
LATTICE_MAX_M = 26

_DATA_ENV = "GAILRS_DATA_DIR"
_SOBOL_FILE = "sobol_direction_numbers.txt"
_LATTICE_FILE = "lattice_generating_vector.txt"
# Checksums of the bundled data files; regeneration scripts live in
# scripts/.  Overriding GAILRS_DATA_DIR skips the checksum pinning but the
# format validation still applies.
_PINNED_SHA256 = {
    _SOBOL_FILE:
        "2d9024247e666f1bbc7d162494d9568f56b58e13b574cfb82e9647eb61c7158f",
    _LATTICE_FILE:
        "48c29c0f75f7437df8da7b98386ca94dc96a320aa3f4f0c332c6333d07750bae",
}

_cache: dict = {}


def _data_path(name: str) -> str:
    override = os.environ.get(_DATA_ENV)
    if override:
        return os.path.join(override, name)
    return os.path.join(os.path.dirname(__file__), "data", name)


def _load_text(name: str) -> list:
    path = _data_path(name)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataFileError(f"cannot read data file {path}: {exc}") from exc
    if not os.environ.get(_DATA_ENV):
        digest = hashlib.sha256(raw).hexdigest()
        want = _PINNED_SHA256[name]
        if want != digest:
            raise DataFileError(
                f"checksum mismatch for {name}: got {digest}, expected {want}"
            )
    lines = raw.decode("ascii").splitlines()
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _sobol_table(dims: int = SOBOL_MAX_DIM) -> np.ndarray:
    """Direction integers, uint64, with at least the first ``dims`` rows
    of the (SOBOL_MAX_DIM, SOBOL_MAX_BITS) table; row d - 1 holds
    dimension d.

    Every row of the file is checked for its field count, and the file for
    its coverage, but only the first ``dims`` rows are parsed and built.
    The cached table holds the most rows asked for so far; a larger
    ``dims`` builds it again with that many rows.
    """
    if "sobol" in _cache and _cache["sobol"].shape[0] >= dims:
        return _cache["sobol"]
    rows = _load_text(_SOBOL_FILE)
    if rows and rows[0].lstrip().startswith("d"):
        rows = rows[1:]
    # v[d - 1, :s] holds m_1..m_s until the shift below; a degree of
    # SOBOL_MAX_BITS keeps a row out of the recurrence: dimension 1 (van
    # der Corput, m_k = 1 for all k) and any dimension the file lacks
    v = np.zeros((dims, SOBOL_MAX_BITS), dtype=np.uint64)
    v[0] = 1
    degree = np.full(dims, SOBOL_MAX_BITS)
    poly = np.zeros(dims, dtype=np.int64)
    seen = 1
    for ln in rows:
        parts = ln.split()
        d, s = int(parts[0]), int(parts[1])
        if d > SOBOL_MAX_DIM:
            break
        if len(parts) < 3 + s:
            raise DataFileError(f"direction-number row for d={d} is truncated")
        seen = max(seen, d)
        if d > dims:
            continue
        # the recurrence rewrites every column from s on
        m = [int(x) for x in parts[3:3 + min(s, SOBOL_MAX_BITS)]]
        v[d - 1, :len(m)] = m
        degree[d - 1], poly[d - 1] = s, int(parts[2])
    if seen < SOBOL_MAX_DIM:
        raise DataFileError(
            f"direction-number table covers only {seen} dimensions, "
            f"need {SOBOL_MAX_DIM}"
        )
    v <<= np.arange(SOBOL_MAX_BITS - 1, -1, -1, dtype=np.uint64)
    # v_k = v_(k-s) ^ (v_(k-s) >> s) ^ the XOR of v_(k-i) over the set
    # bits a_i, 0 < i < s, of the polynomial.  Column k needs only earlier
    # columns, so it is built for every dimension at once; taps[:, i - 1]
    # is all ones where a_i is set and 0 elsewhere.
    s = degree
    i = np.arange(1, s[s < SOBOL_MAX_BITS].max(initial=1))
    bit = (poly[:, None] >> np.maximum(s[:, None] - 1 - i, 0)) & 1
    taps = np.where((i < s[:, None]) & (bit == 1), ~np.uint64(0),
                    np.uint64(0))
    for k in range(1, SOBOL_MAX_BITS):
        r = np.flatnonzero(s <= k)
        prev = v[r, k - s[r]]
        terms = v[r[:, None], np.maximum(k - i, 0)] & taps[r]
        v[r, k] = (prev ^ (prev >> s[r].astype(np.uint64))
                   ^ np.bitwise_xor.reduce(terms, axis=1))
    _cache["sobol"] = v
    return v


def _lattice_vector() -> np.ndarray:
    if "lattice" in _cache:
        return _cache["lattice"]
    rows = _load_text(_LATTICE_FILE)
    if rows and rows[0].lstrip().startswith("dim"):
        rows = rows[1:]
    z = np.zeros(LATTICE_MAX_DIM, dtype=np.int64)
    count = 0
    for ln in rows:
        d_str, z_str = ln.split()
        d, zj = int(d_str), int(z_str)
        if d > LATTICE_MAX_DIM:
            break
        if zj % 2 == 0:
            raise DataFileError(f"generating vector entry {d} is even")
        z[d - 1] = zj
        count = max(count, d)
    if count < LATTICE_MAX_DIM:
        raise DataFileError(
            f"generating vector covers only {count} dimensions, "
            f"need {LATTICE_MAX_DIM}"
        )
    _cache["lattice"] = z
    return z


class SobolGenerator:
    """Randomized Sobol' sequence in up to 1111 dimensions.

    With an ``rng`` the generator matrices are scrambled by random unit
    lower-triangular bit matrices (linear matrix scrambling, Matousek
    style) and the output is digitally shifted; both preserve the digital
    net structure.  The plain digital shift alone leaves sparse-spectrum
    integrands (products of coordinates, say) with a systematic O(2^-m)
    alignment error that the coefficient-based bound cannot observe, so
    the scramble is required for the error certificates to hold.  Without
    an ``rng`` the raw net is produced.
    """

    def __init__(self, dimension: int, rng: RngStream | None = None):
        if not (1 <= dimension <= SOBOL_MAX_DIM):
            raise ConfigurationError(
                f"Sobol' dimension must be in [1, {SOBOL_MAX_DIM}], got {dimension}"
            )
        self.dimension = dimension
        self._v = _sobol_table(dimension)[:dimension]  # (d, 53) uint64
        if rng is None:
            self.digital_shift = np.zeros(dimension, dtype=np.uint64)
        else:
            gen = rng.generator()
            self._v = _matrix_scramble(self._v, gen)
            self.digital_shift = gen.integers(
                0, 1 << SOBOL_MAX_BITS, size=dimension, dtype=np.uint64
            )

    def points(self, start: int, stop: int) -> np.ndarray:
        """Points with natural digital indices [start, stop), shape (n, d).

        The range is split into maximal aligned power-of-two runs.  Inside
        a run of length 2^k that starts at ``pos`` (a multiple of 2^k),
        index ``pos + j`` has the bits of ``pos`` plus the disjoint bits of
        ``j``, so row 0 of the run is the digital shift XOR the direction
        columns of the bits of ``pos``, and rows [h, 2h) are rows [0, h)
        XOR direction column log2(h).  Filling a run this way costs one
        XOR per row and coordinate instead of one per row, coordinate and
        index bit.
        """
        if not (0 <= start <= stop < (1 << SOBOL_MAX_BITS) + 1):
            raise ConfigurationError("index range out of bounds")
        start, stop = int(start), int(stop)
        state = np.empty((stop - start, self.dimension), dtype=np.uint64)
        pos = start
        while pos < stop:
            size = pos & -pos if pos else 1 << SOBOL_MAX_BITS
            while pos + size > stop:
                size >>= 1
            run = state[pos - start:pos - start + size]
            run[0] = self.digital_shift
            for b in range(pos.bit_length()):
                if (pos >> b) & 1:
                    run[0] ^= self._v[:, b]
            h, b = 1, 0
            while h < size:
                np.bitwise_xor(run[:h], self._v[:, b], out=run[h:2 * h])
                h, b = 2 * h, b + 1
            pos += size
        pts = state.astype(np.float64)
        pts /= float(1 << SOBOL_MAX_BITS)
        return pts


def _matrix_scramble(v: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Left-multiply each dimension's generator matrix by a random unit
    lower-triangular bit matrix (rows act on output digits; digit p of the
    result mixes digits <= p of the input, so leading-digit structure and
    the net property survive)."""
    d = v.shape[0]
    bits = SOBOL_MAX_BITS
    rows = np.arange(bits, dtype=np.uint64)
    diag = np.uint64(1) << (np.uint64(bits - 1) - rows)
    # random bits strictly above the diagonal position of each row
    high = (~np.uint64(0) >> np.uint64(64 - bits)) & ~(
        (np.uint64(1) << (np.uint64(bits) - rows)) - np.uint64(1))
    rand = gen.integers(0, 1 << bits, size=(d, bits), dtype=np.uint64)
    masks = (rand & high[None, :]) | diag[None, :]          # (d, bits)
    par = np.bitwise_count(masks[:, :, None] & v[:, None, :]) & np.uint64(1)
    shifts = np.uint64(bits - 1) - rows                      # row p -> bit 52-p
    return (par.astype(np.uint64) << shifts[None, :, None]).sum(axis=1)


class LatticeGenerator:
    """Shifted extensible rank-1 lattice in up to 250 dimensions.

    The additive shift is uniform in [0,1)^d, drawn from ``rng``, or zero
    without one.
    """

    def __init__(self, dimension: int, rng: RngStream | None = None):
        if not (1 <= dimension <= LATTICE_MAX_DIM):
            raise ConfigurationError(
                f"lattice dimension must be in [1, {LATTICE_MAX_DIM}], got {dimension}"
            )
        self.dimension = dimension
        self.generating_vector = _lattice_vector()[:dimension].copy()
        if rng is not None:
            self.shift = rng.generator().random(dimension)
        else:
            self.shift = np.zeros(dimension)

    def points_at_level(self, m: int, indices: np.ndarray) -> np.ndarray:
        """frac(k z / 2^m + shift) for natural indices k, shape (n, d)."""
        if not (0 <= m <= LATTICE_MAX_M):
            raise ConfigurationError(f"need 0 <= m <= {LATTICE_MAX_M}")
        k = np.asarray(indices, dtype=np.int64)
        prod = k[:, None] * self.generating_vector[None, :]
        prod &= (1 << m) - 1
        pts = prod.astype(np.float64)
        del prod
        pts /= float(1 << m)
        pts += self.shift
        # both terms lie in [0, 1), so 0 <= pts < 2 and subtracting the
        # floor wraps exactly as mod 1 does
        pts -= np.floor(pts)
        return pts


# ---------------------------------------------------------------------------
# Worker threads
# ---------------------------------------------------------------------------

def _pool_size() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API on this platform
        return os.cpu_count() or 1


class _Pool:
    """Threads for the array work of one cubature run.

    ``size`` threads are started on the first :meth:`submit` and joined by
    :meth:`close`; a run that never submits starts none and imports no
    ``concurrent.futures``.  A pool of size 1 submits nothing: it runs
    every call of :meth:`run` and :meth:`ahead` on the calling thread.
    Each task runs in a copy of the submitting thread's context, so numpy's
    error state there applies to it too.
    """

    def __init__(self, size: int):
        self.size = size
        self._executor = None

    def submit(self, fn, *args):
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor
            self._executor = ThreadPoolExecutor(
                self.size, thread_name_prefix="certint")
        return self._executor.submit(contextvars.copy_context().run, fn,
                                     *args)

    def ahead(self, fn, items, depth: int):
        """``fn(item)`` for each item, in order, each call submitted
        ``depth`` items before its result is taken.  A generator: closing
        it, or an error from a call, which it raises, cancels the calls not
        yet started and waits for the others, so none is left running."""
        if self.size < 2:
            yield from map(fn, items)
            return
        items = iter(items)
        pending = collections.deque(
            self.submit(fn, item) for item in itertools.islice(items, depth))
        try:
            while pending:
                for item in itertools.islice(items, 1):
                    pending.append(self.submit(fn, item))
                yield pending.popleft().result()
        finally:
            for fut in pending:
                fut.cancel()
            for fut in pending:
                if not fut.cancelled():
                    fut.exception()     # waits; the error in flight wins

    def run(self, fn, tasks) -> list:
        """``fn(task)`` for every task, all submitted at once; the results
        in task order, or the first error in task order."""
        return list(self.ahead(fn, tasks, len(tasks)))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


# runs every task on the calling thread
_SERIAL = _Pool(1)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _check_pow2(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"length must be a power of two, got {n}")


# Stages whose blocks of 2h elements fit in this many elements run one chunk
# at a time, so that a chunk stays in cache across those stages.  The
# scratch buffers hold at most this many elements together whatever the
# length.
_FWHT_CHUNK = 1 << 16
# Stages with h below this run as h pairs of 1-d strided views; a 2-d view
# of rows of length h would pay one inner loop per row of h elements.
_FWHT_STRIDED = 16


def fwht_inplace(values: np.ndarray, pool: _Pool = _SERIAL) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform, mutating ``values``.

    Stage h (h = 1, 2, 4, ...) replaces each pair (l, r) that is h apart
    within a block of 2h by (l + r, l - r).  ``l - r`` goes to a scratch
    buffer, then ``l += r`` and the scratch is copied into ``r``.  The
    array is viewed as rows of one chunk of at most ``_FWHT_CHUNK``
    elements.  The stages within a chunk run one row at a time: the small
    stages h < 16 take the pairs as strided views, one per offset o < h,
    ``l = a[o::2h]`` and ``r = a[o+h::2h]``; the larger ones take them as
    the two halves of each block of 2h, a few blocks or a piece of one at a
    time, so that they fit the scratch.  The stages across chunks pair
    whole rows, and run on slabs of columns, each slab through all of
    them.  Every pair is computed by the same two operations whatever the
    blocking, so the result does not depend on it.  Applying the transform
    twice multiplies the input by its length.

    With a ``pool`` of s > 1 threads and at least two chunks, the rows and
    then the 2^ceil(log2 s) column slabs are split across its threads,
    each task with a scratch of ``_FWHT_CHUNK / 2^ceil(log2 s)`` elements,
    so the scratch arrays in use at once hold at most ``_FWHT_CHUNK``
    elements, as the one scratch of a serial run does.  The result is bit
    for bit the serial one.
    """
    a = np.asarray(values)
    if a.ndim != 1:
        raise ConfigurationError("fwht expects a 1-d array")
    n = a.shape[0]
    _check_pow2(n)
    if n < 2 * _FWHT_CHUNK:
        pool = _SERIAL
    slabs = 1 << (pool.size - 1).bit_length()
    pool.run(lambda i: _fwht_rows(a, slabs, pool.size, i), range(pool.size))
    pool.run(lambda i: _fwht_columns(a, slabs, i), range(slabs))
    return a


def _fwht_scratch(a: np.ndarray, slabs: int) -> tuple:
    """(chunk, scratch) of one task of the transform of ``a`` cut into
    ``slabs`` column slabs."""
    width = min(a.shape[0] // 2, _FWHT_CHUNK // slabs)
    return (min(a.shape[0], _FWHT_CHUNK, max(2 * width, 1)),
            np.empty(width, dtype=a.dtype))


def _fwht_rows(a: np.ndarray, slabs: int, tasks: int, task: int) -> None:
    """The stages within a chunk on rows task, task + tasks, ... of ``a``.

    numpy sets up iterator buffers of its buffer size (8192 elements by
    default) per operand for each ufunc call on the 2-d views of the stages
    h >= 16, though nothing is cast; 64 elements cut them to a few hundred
    bytes and were no slower at 2^16 to 2^23.  The buffer size is numpy
    state of the calling thread; leaving the errstate context restores it.
    """
    chunk, scratch = _fwht_scratch(a, slabs)
    rows = a.reshape(-1, chunk)
    with np.errstate():
        np.setbufsize(64)
        for r in range(task, rows.shape[0], tasks):
            _fwht_stages(rows[r], scratch)


def _fwht_columns(a: np.ndarray, slabs: int, task: int) -> None:
    """The stages across chunks on column slab ``task`` of ``slabs`` of
    the rows of ``a``: stage g pairs rows g apart within blocks of 2g
    rows, as many rows per operation as fit the scratch."""
    chunk, scratch = _fwht_scratch(a, slabs)
    width = chunk // slabs
    slab = a.reshape(-1, chunk)[:, task * width:(task + 1) * width]
    per = scratch.shape[0] // width
    g = 1
    with np.errstate():
        np.setbufsize(64)
        while g < slab.shape[0]:
            pairs = slab.reshape(-1, 2, g, width)
            for b in range(pairs.shape[0]):
                for j in range(0, g, per):
                    _butterfly(pairs[b, 0, j:j + per], pairs[b, 1, j:j + per],
                               scratch)
            g *= 2


def _butterfly(left: np.ndarray, right: np.ndarray,
               scratch: np.ndarray) -> None:
    """(left, right) <- (left + right, left - right), by way of scratch."""
    diff = scratch[:left.size].reshape(left.shape)
    np.subtract(left, right, out=diff)
    left += right
    right[...] = diff


def _fwht_stages(a: np.ndarray, scratch: np.ndarray) -> None:
    """All butterfly stages of the chunk ``a``."""
    n = a.shape[0]
    h = 1
    while h < min(n, _FWHT_STRIDED):
        for o in range(h):
            _butterfly(a[o::2 * h], a[o + h::2 * h], scratch)
        h *= 2
    while h < n:
        # pieces of w elements of each half, as many blocks as fit the scratch
        w = min(h, scratch.shape[0])
        blocks = scratch.shape[0] // w
        pairs = a.reshape(-1, 2, h // w, w)
        for r in range(0, pairs.shape[0], blocks):
            for k in range(h // w):
                _butterfly(pairs[r:r + blocks, 0, k],
                           pairs[r:r + blocks, 1, k], scratch)
        h *= 2


def fft(values: np.ndarray) -> np.ndarray:
    """Standard unnormalized DFT of a power-of-two-length sequence."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ConfigurationError("fft expects a 1-d array")
    _check_pow2(a.shape[0])
    return np.fft.fft(a)


class Periodizer(enum.Enum):
    """Per-coordinate variable transforms that preserve the integral."""

    ID = "id"
    BAKER = "baker"
    C0 = "c0"
    C1 = "c1"
    C1SIN = "c1sin"


def periodizer_map_weight(variant: Periodizer, u: np.ndarray):
    """Coordinate map phi(u) and weight phi'(u) for one transform.

    The identity and Baker's tent map preserve the measure, so their
    weight is ``None``: there is no Jacobian to multiply by.  The
    polynomial and Sidi maps carry their Jacobian as the weight so that
    the transformed integrand keeps the same integral over the unit cube.
    """
    if variant is Periodizer.ID:
        return u, None
    if variant is Periodizer.BAKER:
        # 1 - |2u - 1|, computed in one new array
        tent = np.multiply(u, 2.0)
        tent -= 1.0
        np.abs(tent, out=tent)
        np.subtract(1.0, tent, out=tent)
        return tent, None
    if variant is Periodizer.C0:
        return u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u)
    if variant is Periodizer.C1:
        return u**3 * (10.0 - 15.0 * u + 6.0 * u * u), \
            30.0 * (u * (1.0 - u)) ** 2
    if variant is Periodizer.C1SIN:
        two_pi = 2.0 * np.pi
        return u - np.sin(two_pi * u) / two_pi, 1.0 - np.cos(two_pi * u)
    raise ConfigurationError(f"unknown periodizer {variant!r}")


def periodize(f: Callable[[np.ndarray], np.ndarray],
              variant: Periodizer) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap an integrand on [0,1]^d so the wrapped version is periodic
    (to the smoothness the variant provides) with the same integral."""
    if variant is Periodizer.ID:
        return f

    def wrapped(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        mapped, weight = periodizer_map_weight(variant, u)
        vals = np.asarray(f(mapped), dtype=float).reshape(-1)
        if weight is not None:
            # one point's coordinates (1-d u) or one point per row
            vals = vals * np.prod(weight, axis=-1)
        return vals

    return wrapped
