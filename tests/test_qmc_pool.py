"""The QMC engine's array work on a per-run thread pool.

A run may hand its point preparation, fast Walsh transform and the sort
of its block sums to a pool of threads.  Every value must come out bit
for bit as in a serial run, the integrand must run on the caller's thread
once per chunk in ascending order, and no thread may outlive the run.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

import certint.qmc_cubature as qc
from certint import (
    EvaluationError,
    Hyperbox,
    LatticeGenerator,
    Measure,
    Periodizer,
    QmcParams,
    RngStream,
    SobolGenerator,
    ToleranceSpec,
    cub_lattice,
    cub_sobol,
    fwht_inplace,
    measure_map,
)
from certint.qmc_points import _Pool

# two chunks in the first block, then refining blocks of two and four
M = qc._EVAL_CHUNK.bit_length()
PARAMS = dict(tol=ToleranceSpec(1e-300, 0.0), mmin=M, mmax=M + 2)


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("certint")]


def _assert_no_pool_thread():
    for t in _pool_threads():
        t.join(timeout=10)
    assert not [t for t in _pool_threads() if t.is_alive()]


def _bits(res):
    return ([res.q.hex(), res.bound_err.hex(), res.n, res.exitflag]
            + [float(s).hex() for s in res.extra["block_sums"]])


@pytest.fixture
def pooled(monkeypatch):
    """Run every block on a pool of the given size."""
    def force(size):
        monkeypatch.setattr(qc, "_pool_size", lambda: size)
        monkeypatch.setattr(qc, "_POOL_SHARE", 0)
    return force


def _box(d, measure):
    if measure is Measure.NORMAL:
        return Hyperbox([-math.inf] * d, [math.inf] * d, measure)
    return Hyperbox([-1.0] * d, [2.0] * d, measure)


def _f(x):
    return np.exp(-0.25 * np.sum(x * x, axis=1)) + x[:, 0]


class TestBitIdentity:
    @pytest.mark.parametrize("solver", [cub_sobol, cub_lattice])
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("measure", [Measure.UNIFORM, Measure.NORMAL])
    @pytest.mark.parametrize("transform", [Periodizer.C1SIN, Periodizer.BAKER])
    def test_pool_sizes_match_serial(self, pooled, solver, d, measure,
                                     transform):
        params = QmcParams(transform=transform, **PARAMS)
        box = _box(d, measure)
        want = _bits(solver(_f, box, params, RngStream(d)))
        for size in (1, 2, 3):
            pooled(size)
            got = _bits(solver(_f, box, params, RngStream(d)))
            assert got == want, size
        _assert_no_pool_thread()

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("m", [17, 18, 20, 22])
    def test_fwht_matches_serial(self, size, m):
        v = np.random.default_rng(m).normal(size=2**m) * 10.0 ** \
            np.random.default_rng(m + 1).integers(-8, 8, size=2**m)
        want = fwht_inplace(v.copy())
        pool = _Pool(size)
        try:
            got = fwht_inplace(v, pool)
        finally:
            pool.close()
        assert got is v
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("m", [17, 20, 22])
    @pytest.mark.parametrize("kind", ["walsh", "fourier", "ties", "in place"])
    def test_block_sums_match_serial(self, size, m, kind):
        rng = np.random.default_rng(m)
        n = 2**m
        coeffs = rng.normal(size=n) * np.exp(-rng.random(n) * 30)
        if kind == "fourier":
            coeffs = coeffs + 1j * rng.normal(size=n)
        if kind == "ties":
            coeffs = np.round(coeffs * 4) / 4       # many equal magnitudes
        # at mmax the Walsh magnitudes go over the coefficients
        mags = (lambda c: c) if kind == "in place" else \
            (lambda c: np.empty(n))
        ref = coeffs.copy()
        want = qc._block_sums(ref, m, mags(ref))
        pool = _Pool(size)
        try:
            got = qc._block_sums(coeffs, m, mags(coeffs), pool)
        finally:
            pool.close()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_stress_more_threads_than_cpus(self, pooled):
        # many switches between threads, more threads than CPUs
        params = QmcParams(transform=Periodizer.C1SIN, **PARAMS)
        box = _box(3, Measure.NORMAL)
        want = {s.__name__: _bits(s(_f, box, params, RngStream(7)))
                for s in (cub_sobol, cub_lattice)}
        pooled(min(2 * qc._pool_size() + 1, 9))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5.0
            runs = 0
            while runs < 2 or (time.monotonic() < deadline and runs < 20):
                for solver in (cub_sobol, cub_lattice):
                    got = _bits(solver(_f, box, params, RngStream(7)))
                    assert got == want[solver.__name__]
                runs += 1
        finally:
            sys.setswitchinterval(interval)
        _assert_no_pool_thread()


class _Watched:
    """A future whose reads are counted."""

    def __init__(self, fut, log):
        self._fut = fut
        self.reads = 0
        log.append(self)

    def result(self):
        self.reads += 1
        return self._fut.result()

    def exception(self):
        self.reads += 1
        return self._fut.exception()

    def cancel(self):
        return self._fut.cancel()

    def cancelled(self):
        return self._fut.cancelled()


class TestIntegrandContract:
    def _watch(self, monkeypatch):
        log = []
        submit = _Pool.submit
        monkeypatch.setattr(_Pool, "submit", lambda self, fn, *args:
                            _Watched(submit(self, fn, *args), log))
        return log

    @pytest.mark.parametrize("solver", [cub_sobol, cub_lattice])
    def test_caller_thread_once_per_chunk_in_order(self, pooled, solver):
        params = QmcParams(transform=Periodizer.ID, **PARAMS)
        box = _box(2, Measure.UNIFORM)
        calls = []

        def f(x):
            calls.append((threading.get_ident(), x.copy()))
            return np.prod(x, axis=1)

        pooled(2)
        res = solver(f, box, params, RngStream(4))
        assert res.n == 2**(M + 2) and res.exitflag & 1
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        # 2 + 2 + 4 chunks, each of _EVAL_CHUNK rows, in the order of the
        # natural indices of each block
        assert [x.shape[0] for _, x in calls] == [qc._EVAL_CHUNK] * 8
        got = np.vstack([x for _, x in calls])
        if solver is cub_sobol:
            want = SobolGenerator(2, rng=RngStream(4)).points(0, res.n)
        else:
            gen = LatticeGenerator(2, rng=RngStream(4))
            want = np.vstack(
                [gen.points_at_level(M, np.arange(2**M))]
                + [gen.points_at_level(m + 1, np.arange(1, 2**(m + 1), 2))
                   for m in (M, M + 1)])
        want = measure_map(want, box)[0]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        _assert_no_pool_thread()

    @pytest.mark.parametrize("solver", [cub_sobol, cub_lattice])
    @pytest.mark.parametrize("bad_call", [1, 3, 6])
    @pytest.mark.parametrize("kind", ["raise", "nan"])
    def test_error_at_chunk_k(self, monkeypatch, pooled, solver, bad_call,
                              kind):
        params = QmcParams(transform=Periodizer.BAKER, **PARAMS)
        box = _box(3, Measure.NORMAL)
        error = EvaluationError("integrand failed")
        calls = []

        def f(x):
            calls.append(threading.get_ident())
            vals = np.prod(x, axis=1)
            if len(calls) == bad_call:
                if kind == "raise":
                    raise error
                vals[-1] = math.nan
            return vals

        log = self._watch(monkeypatch)
        pooled(2)
        with pytest.raises(EvaluationError) as info:
            solver(f, box, params, RngStream(2))
        if kind == "raise":
            assert info.value is error
        else:
            assert "NaN or Inf" in str(info.value)
        assert len(calls) == bad_call
        assert set(calls) == {threading.get_ident()}
        assert log, "no work went to the pool"
        assert all(w.cancelled() or w.reads for w in log)
        _assert_no_pool_thread()
