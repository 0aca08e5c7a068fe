"""Adaptive QMC cubature: bounds, cone detection, engine behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from certint import (
    ConfigurationError,
    EvaluationError,
    Hyperbox,
    LatticeGenerator,
    Measure,
    Periodizer,
    QmcParams,
    RngStream,
    SobolGenerator,
    ToleranceSpec,
    cone_check,
    cub_lattice,
    cub_sobol,
    default_fudge,
    fwht_inplace,
    measure_map,
    tolfun,
)
from certint.qmc_cubature import (
    _EVAL_CHUNK,
    _block_sums,
    _certified_bound,
    _merge,
)

UNIT2 = Hyperbox([0.0, 0.0], [1.0, 1.0])
UNIT5 = Hyperbox([0.0] * 5, [1.0] * 5)
NORMAL3 = Hyperbox([-math.inf] * 3, [math.inf] * 3, Measure.NORMAL)


def _argsort_block_sums_and_bound(coeffs, m, fudge):
    """Block sums and bound of the stable-argsort ordering, with the
    level-m term fudge(m) * sum |ranked[2^(m-1):]| in the max."""
    order = np.concatenate(
        ([0], 1 + np.argsort(-np.abs(coeffs[1:]), kind="stable")))
    ranked = np.abs(coeffs[order])
    sums = np.empty(m + 1)
    sums[0] = ranked[0]
    for level in range(1, m + 1):
        sums[level] = float(np.sum(ranked[1 << (level - 1):1 << level]))
    top = float(fudge(m)) * float(np.sum(np.abs(ranked[1 << (m - 1):])))
    bound = max(top, _certified_bound(sums, m, fudge))
    return sums, bound


class TestBlockSumsOracle:
    """Sorting magnitudes as values gives the argsort path bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 12, 15])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_argsort_path(self, m, kind):
        n = 1 << m
        rng = np.random.default_rng(m)
        coeffs = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, size=n)
        if kind == "complex":
            coeffs = coeffs + 1j * rng.normal(size=n)
        # exact ties of magnitude (also across signs) and exact zeros
        picks = rng.integers(0, n, size=(max(1, n // 4), 2))
        sign = rng.choice([-1.0, 1.0], size=picks.shape[0])
        coeffs[picks[:, 0]] = sign * coeffs[picks[:, 1]]
        coeffs[rng.integers(0, n, size=max(1, n // 8))] = 0.0
        want_sums, want_bound = _argsort_block_sums_and_bound(
            coeffs, m, default_fudge)
        if kind == "complex":
            # the lattice loop: magnitudes into a real array apart from the
            # coefficients
            places = [(coeffs, np.empty(n))]
        else:
            # the Sobol' loop: magnitudes into an array apart from the
            # coefficients, or at mmax over the coefficients themselves
            grown = np.concatenate([coeffs, np.empty(n)])
            own = coeffs.copy()
            places = [(grown[:n], grown[n:]), (own, own)]
        for src, mags in places:
            got_sums = _block_sums(src, m, mags)
            assert np.array_equal(got_sums.view(np.uint64),
                                  want_sums.view(np.uint64))
            got_bound = _certified_bound(got_sums, m, default_fudge)
            assert got_bound.hex() == want_bound.hex()

    def test_leaves_coefficients_untouched(self):
        coeffs = np.array([3.0, -1.0, 2.0, -2.0])
        _block_sums(coeffs, 2, np.empty(4))
        assert coeffs.tolist() == [3.0, -1.0, 2.0, -2.0]


def _f_call(x):
    return math.exp(-0.05**2 / 2) * np.maximum(
        100.0 * np.exp(0.05 * x[:, 0]) - 100.0, 0.0)


class TestGoldenValues:
    """(q, n, bound_err, exitflag) of six worked examples at the seeds
    that ``certint examples --seed 1`` gives them, and of one normal-measure
    run stopped by its budget, pinned bit for bit.  The two 8 prod cases and
    the budget run take more than one evaluation chunk per block."""

    CASES = {
        "cubsobol prod [0,1]^2": (
            cub_sobol, lambda x: np.prod(x, axis=1), UNIT2,
            ToleranceSpec(1e-5, 0.0), "id", 27, 24,
            ("0x1.ffffffffffffep-3", 4096, "0x1.e2fa3f11bf480p-19", 0)),
        "cubsobol call option": (
            cub_sobol, _f_call,
            Hyperbox([-math.inf], [math.inf], Measure.NORMAL),
            ToleranceSpec(1e-4, 1e-2), "id", 30, 24,
            ("0x1.073083de97a8ep+1", 8192, "0x1.72491a2b19f20p-7", 0)),
        "cubsobol 8 prod [0,1]^5": (
            cub_sobol, lambda x: 8.0 * np.prod(x, axis=1), UNIT5,
            ToleranceSpec(1e-5, 0.0), "id", 31, 24,
            ("0x1.0000001800f86p-2", 524288, "0x1.40c4edc309294p-18", 0)),
        "cubsobol x^2 moments normal, budget": (
            cub_sobol, lambda x: x[:, 0]**2 * x[:, 1]**2 * x[:, 2]**2,
            NORMAL3, ToleranceSpec(1e-12, 0.0), "id", 28, 18,
            ("0x1.ff976476316fdp-1", 262144, "0x1.3e3cfa208c68bp-6", 1)),
        "cublattice prod [0,1]^2": (
            cub_lattice, lambda x: np.prod(x, axis=1), UNIT2,
            ToleranceSpec(1e-5, 0.0), "c1sin", 21, 24,
            ("0x1.fffffffff3e81p-3", 16384, "0x1.4b5567dd2ea4ap-19", 0)),
        "cublattice 8 prod [0,1]^5": (
            cub_lattice, lambda x: 8.0 * np.prod(x, axis=1), UNIT5,
            ToleranceSpec(1e-5, 0.0), "baker", 25, 24,
            ("0x1.ffffff726cc43p-3", 1048576, "0x1.01c3e8d7f0275p-17", 0)),
        "cublattice poisson kernel": (
            cub_lattice,
            lambda x: 3.0 / (5.0 - 4.0 * np.cos(2.0 * np.pi * x[:, 0])),
            Hyperbox([0.0], [1.0], Measure.UNIFORM),
            ToleranceSpec(1e-5, 0.0), "id", 26, 24,
            ("0x1.ffffffffffffcp-1", 1024, "0x1.dffe20000304ap-19", 0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned(self, name):
        solver, f, box, spec, transform, seed, mmax, want = self.CASES[name]
        params = QmcParams(tol=spec, mmax=mmax,
                           transform=Periodizer(transform))
        res = solver(f, box, params, RngStream(seed))
        got = (res.q.hex(), res.n, res.bound_err.hex(), res.exitflag)
        assert got == want


class TestConeCheck:
    def test_all_zero(self):
        assert cone_check(np.zeros(11), default_fudge) is False

    def test_geometric_decay(self):
        # block sums of |y_k| = 2^-k over dyadic blocks
        m = 10
        sums = [1.0]
        for level in range(1, m + 1):
            lo, hi = 2**(level - 1), 2**level
            sums.append(sum(2.0**-k for k in range(lo, hi)))
        assert cone_check(np.array(sums), default_fudge) is False

    def test_mass_at_kappa_one(self):
        sums = np.zeros(6)
        sums[1] = 1.0
        assert cone_check(sums, default_fudge) is True

    def test_dominant_ac_flagged(self):
        # largest AC block far above the estimate: no decay to certify
        sums = np.zeros(8)
        sums[0] = 0.1
        sums[1] = 0.3
        assert cone_check(sums, default_fudge) is True


    @staticmethod
    def _loop_reference(block_sums, fudge):
        """The check as one comparison per fine level."""
        s = np.asarray(block_sums, dtype=float)
        for fine in range(1, s.size):
            gaps = fine - np.arange(fine)
            limits = np.asarray(fudge(gaps), dtype=float) * s[:fine]
            if np.all(s[fine] > limits):
                return True
        return False

    @pytest.mark.parametrize("fudge", [
        default_fudge,
        lambda m: 3.0 * 1.5 ** -np.asarray(m, dtype=float),
        lambda m: 0.5 + np.cos(np.asarray(m, dtype=float)) ** 2,
    ], ids=["default", "slow-decay", "non-monotone"])
    def test_matches_loop_over_fine_levels(self, fudge):
        rng = np.random.default_rng(7)
        flagged = 0
        for _ in range(3000):
            size = int(rng.integers(0, 26))
            # few distinct magnitudes spread over decades: zeros and ties
            pool = np.concatenate(([0.0], 10.0 ** rng.uniform(-6, 1, size=3)))
            sums = pool[rng.integers(0, pool.size, size=size)]
            if rng.random() < 0.5:
                sums = sums * 2.0 ** -np.arange(size)
            got = cone_check(sums, fudge)
            assert got is self._loop_reference(sums, fudge)
            flagged += got
        # both outcomes are exercised
        assert 300 < flagged < 2700


class TestMeasureMap:
    def test_unit_box_identity(self):
        pts = np.array([[0.2, 0.9], [0.5, 0.5]])
        mapped, scale = measure_map(pts, UNIT2)
        assert np.array_equal(mapped, pts)
        assert scale == 1.0

    def test_affine(self):
        box = Hyperbox([0.0, 0.0], [2.0, 3.0])
        mapped, scale = measure_map(np.array([[0.5, 0.5]]), box)
        assert mapped.tolist() == [[1.0, 1.5]]
        assert scale == 6.0

    def test_normal_median(self):
        box = Hyperbox([-math.inf], [math.inf], Measure.NORMAL)
        mapped, scale = measure_map(np.array([[0.5]]), box)
        assert mapped[0, 0] == 0.0
        assert scale == 1.0

    def test_normal_clamps_corners(self):
        box = Hyperbox([-math.inf], [math.inf], Measure.NORMAL)
        mapped, _ = measure_map(np.array([[0.0], [1.0]]), box)
        assert np.all(np.isfinite(mapped))

    def test_normal_leaves_input_untouched(self):
        box = Hyperbox([-math.inf] * 2, [math.inf] * 2, Measure.NORMAL)
        pts = np.array([[0.0, 0.25], [1.0, 0.5]])
        mapped, _ = measure_map(pts, box)
        assert pts.tolist() == [[0.0, 0.25], [1.0, 0.5]]
        assert not np.shares_memory(mapped, pts)


class TestEngine:
    def test_doubling_reuses_evaluations(self):
        calls = {"n": 0}

        def f(x):
            calls["n"] += x.shape[0]
            return np.prod(x, axis=1)

        params = QmcParams(tol=ToleranceSpec(1e-5, 0.0),
                           transform=Periodizer.C1SIN)
        res = cub_lattice(f, UNIT2, params, RngStream(1))
        assert calls["n"] == res.n

    def test_budget_exit(self):
        params = QmcParams(tol=ToleranceSpec(1e-14, 0.0), mmin=8, mmax=10,
                           transform=Periodizer.C1SIN)
        res = cub_lattice(lambda x: np.prod(x, axis=1), UNIT2, params,
                          RngStream(1))
        assert res.exitflag & 1
        assert res.n == 2**10

    def test_cone_violation_flagged(self):
        # zero integral with all spectral mass on one low frequency:
        # decay cannot be certified
        f = lambda x: np.cos(2 * np.pi * x[:, 0])
        params = QmcParams(tol=ToleranceSpec(1e-3, 0.0), mmin=8, mmax=9,
                           transform=Periodizer.ID)
        res = cub_lattice(f, Hyperbox([0.0], [1.0]), params, RngStream(2))
        assert res.exitflag & 2

    def test_dimension_limits(self):
        with pytest.raises(ConfigurationError):
            cub_lattice(lambda x: x[:, 0],
                        Hyperbox(np.zeros(251), np.ones(251)),
                        QmcParams(), RngStream(1))
        with pytest.raises(ConfigurationError):
            cub_sobol(lambda x: x[:, 0],
                      Hyperbox(np.zeros(1112), np.ones(1112)),
                      QmcParams(), RngStream(1))

    def test_invalid_box_rejected(self):
        with pytest.raises(ConfigurationError):
            cub_lattice(lambda x: x[:, 0], Hyperbox([0.0], [math.inf]),
                        QmcParams(), RngStream(1))
        with pytest.raises(ConfigurationError):
            cub_sobol(lambda x: x[:, 0], Hyperbox([0.0], [1.0], Measure.NORMAL),
                      QmcParams(), RngStream(1))

    def test_mmax_limits(self):
        with pytest.raises(ConfigurationError):
            cub_lattice(lambda x: x[:, 0], Hyperbox([0.0], [1.0]),
                        QmcParams(mmax=27), RngStream(1))
        with pytest.raises(ConfigurationError):
            cub_sobol(lambda x: x[:, 0], Hyperbox([0.0], [1.0]),
                      QmcParams(mmax=54), RngStream(1))

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            QmcParams(mmin=10, mmax=9)

    @pytest.mark.parametrize("solver", [cub_sobol, cub_lattice])
    def test_scalar_integrand_rejected(self, solver):
        # one value for a whole chunk must not be broadcast by the factors
        # (the lattice Jacobian) into a plausible answer
        with pytest.raises(EvaluationError):
            solver(lambda x: 0.5, UNIT2, QmcParams(mmin=4, mmax=6),
                   RngStream(1))


class _Recorder:
    """Integrand prod(x) that keeps a copy of every chunk it is given and
    puts a NaN into the values of call number ``nan_call``."""

    def __init__(self, nan_call=None):
        self.chunks = []
        self.nan_call = nan_call

    def __call__(self, x):
        self.chunks.append(x.copy())
        vals = np.prod(x, axis=1)
        if len(self.chunks) == self.nan_call:
            vals[-1] = np.nan
        return vals


class TestChunkedEvaluation:
    """Blocks larger than ``_EVAL_CHUNK`` rows are evaluated in chunks."""

    # two chunks in the first block, then a refining block of two chunks
    M = _EVAL_CHUNK.bit_length()
    BUDGET = QmcParams(tol=ToleranceSpec(1e-300, 0.0), mmin=M, mmax=M + 1,
                       transform=Periodizer.ID)

    def test_sobol_rows_are_the_points_in_order(self):
        f = _Recorder()
        res = cub_sobol(f, UNIT2, self.BUDGET, RngStream(4))
        assert res.n == 2**(self.M + 1) and res.exitflag & 1
        assert max(c.shape[0] for c in f.chunks) <= _EVAL_CHUNK
        assert len(f.chunks) == 4
        want = SobolGenerator(2, rng=RngStream(4)).points(0, res.n)
        got = np.vstack(f.chunks)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_lattice_rows_are_the_points_in_order(self):
        f = _Recorder()
        res = cub_lattice(f, UNIT2, self.BUDGET, RngStream(4))
        m = self.M
        assert res.n == 2**(m + 1) and res.exitflag & 1
        assert max(c.shape[0] for c in f.chunks) <= _EVAL_CHUNK
        assert len(f.chunks) == 4
        gen = LatticeGenerator(2, rng=RngStream(4))
        want = np.vstack([gen.points_at_level(m, np.arange(2**m)),
                          gen.points_at_level(m + 1,
                                              np.arange(1, 2**(m + 1), 2))])
        got = np.vstack(f.chunks)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("solver", [cub_sobol, cub_lattice])
    @pytest.mark.parametrize("nan_call", [2, 4])
    def test_nan_in_a_later_chunk_raises(self, solver, nan_call):
        # call 2 ends the first block, call 4 the refining block
        f = _Recorder(nan_call=nan_call)
        with pytest.raises(EvaluationError):
            solver(f, UNIT2, self.BUDGET, RngStream(4))
        assert len(f.chunks) == nan_call

    @staticmethod
    def _traced_peak(solver, box, params, f):
        """tracemalloc peak of one run that the budget stops at mmax."""
        solver(f, box, QmcParams(mmin=1, mmax=1), RngStream(1))
        tracemalloc.start()
        try:
            res = solver(f, box, params, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n == 2**params.mmax and res.exitflag & 1
        return peak

    def test_peak_memory_does_not_grow_with_dimension(self):
        # In units of one float64 array of the final 2^18 points: one
        # chunk of 8 coordinates takes 1, and a chunk's arrays peak at
        # about 2: Sobol' its integer state and its points; lattice its
        # points and their Baker image, which is built in one array, then
        # that image and its normal map, the points being freed first.
        # Next to them, while the last refining block is evaluated, the
        # Sobol' loop holds its grown buffer (1) and the lattice loop its
        # grown values (1) and the level's complex coefficients (1): 3.13
        # and 4.13 measured.  A Baker map with a temporary per operation,
        # or the points kept through the normal map, made 5.00.  Whole
        # (2^m, 8) arrays would add 8 units per array.
        unit = 8 * 2**18
        d = 8
        box = Hyperbox([-math.inf] * d, [math.inf] * d, Measure.NORMAL)
        params = QmcParams(tol=ToleranceSpec(1e-14, 0.0), mmin=10, mmax=18,
                           transform=Periodizer.BAKER)
        f = lambda x: np.prod(x * x, axis=1)
        for solver, limit in ((cub_sobol, 5), (cub_lattice, 4.25)):
            peak = self._traced_peak(solver, box, params, f)
            assert peak < limit * unit, (solver.__name__, peak / unit)

    def test_peak_memory_of_the_level_buffers(self):
        # d = 1, so the level buffers dominate.  In units of one float64
        # array of the final 2^20 points: the Sobol' loop holds one buffer
        # that doubles in place, with the magnitudes over it at mmax (1.06
        # measured with the chunk's arrays; a value array next to the
        # coefficients and their magnitudes would make 3); the lattice loop
        # holds one complex buffer (2), doubled in place, and the
        # magnitudes (1) (3.00 measured; new arrays for the magnitudes and
        # the merge next to a value array made 5.0).
        unit = 8 * 2**20
        box = Hyperbox([-math.inf], [math.inf], Measure.NORMAL)
        params = QmcParams(tol=ToleranceSpec(1e-14, 0.0), mmin=10, mmax=20)
        f = lambda x: x[:, 0] ** 2
        for solver, limit in ((cub_sobol, 2), (cub_lattice, 3.75)):
            peak = self._traced_peak(solver, box, params, f)
            assert peak < limit * unit, (solver.__name__, peak / unit)


def _walsh_coeffs_reference(yvals):
    """Level coefficients from a copy of the values."""
    a = yvals.copy()
    fwht_inplace(a)
    a /= yvals.size
    return a


def _merge_fwht_reference(coeffs, ynew):
    """Level m+1 coefficients in a new array, from the level-m ones and a
    transformed copy of the refining values."""
    n = coeffs.size
    new = ynew.copy()
    fwht_inplace(new)
    new /= n
    return 0.5 * np.concatenate([coeffs + new, coeffs - new])


def _estimate_reference(values):
    """The estimate from the values of each integrand call: ``math.fsum``
    of their ``np.sum``, over the number of values."""
    return math.fsum(float(np.sum(v)) for v in values) / \
        sum(v.size for v in values)


_M_CHUNK = _EVAL_CHUNK.bit_length() - 1


class TestRunningSum:
    """The Sobol' estimate is ``math.fsum`` of the sums of the integrand
    calls, and its block sums and bound are those of the one-piece merges,
    bit for bit, also where the levels cross ``_EVAL_CHUNK`` values."""

    @pytest.mark.parametrize("mmin,mmax", [
        (mmin, mmax) for mmin in (1, 6, 7, 8) for mmax in (10, 11, 12)] + [
        (_M_CHUNK - 1, _M_CHUNK + 1), (_M_CHUNK, _M_CHUNK + 2)])
    def test_matches_mean_and_reference(self, mmin, mmax):
        values = []

        def f(x):
            y = np.exp(4.0 * x[:, 0]) * np.sin(7.0 * x[:, 1]) + 1e3 * x[:, 1]
            values.append(y.copy())
            return y

        params = QmcParams(tol=ToleranceSpec(1e-300, 0.0), mmin=mmin,
                           mmax=mmax)
        res = cub_sobol(f, UNIT2, params, RngStream(mmin * mmax))
        assert res.n == 2**mmax and res.exitflag & 1
        # the unit box has volume 1.0, so the recorded values are the
        # integrand the cubature averages
        assert res.q.hex() == _estimate_reference(values).hex()
        y = np.concatenate(values)
        coeffs = _walsh_coeffs_reference(y[:2**mmin])
        for m in range(mmin, mmax):
            coeffs = _merge_fwht_reference(coeffs, y[2**m:2**(m + 1)])
        sums, bound = _argsort_block_sums_and_bound(coeffs, mmax,
                                                    default_fudge)
        assert [v.hex() for v in res.extra["block_sums"]] == \
            [float(v).hex() for v in sums]
        assert res.bound_err.hex() == bound.hex()


def _merge_fft_reference(coeffs, ynew):
    """Level m+1 lattice coefficients in a new array, from the level-m ones
    and the FFT of the refining (odd-index) values, with the twiddles of
    all of them in one array."""
    n = coeffs.size
    odd = np.fft.fft(ynew) / n
    tw = np.exp(-2j * np.pi * np.arange(n) / (2 * n))
    return 0.5 * np.concatenate([coeffs + tw * odd, coeffs - tw * odd])


class TestLatticeLevels:
    """The lattice estimate is ``math.fsum`` of the sums of the integrand
    calls, and its block sums and bound are those of the one-piece merges,
    bit for bit, also where the levels cross ``_EVAL_CHUNK`` values."""

    M = _M_CHUNK

    @pytest.mark.parametrize("mmin,mmax", [
        (1, 5), (1, M + 1), (M - 1, M + 1), (M, M + 2), (M + 1, M + 2)])
    def test_matches_mean_and_reference(self, mmin, mmax):
        values = []

        def f(x):
            y = np.exp(4.0 * x[:, 0]) * np.sin(7.0 * x[:, 1]) + 1e3 * x[:, 1]
            values.append(y.copy())
            return y

        params = QmcParams(tol=ToleranceSpec(1e-300, 0.0), mmin=mmin,
                           mmax=mmax, transform=Periodizer.ID)
        res = cub_lattice(f, UNIT2, params, RngStream(mmin + mmax))
        assert res.n == 2**mmax and res.exitflag & 1
        # with no periodizer on the unit box the Jacobian and the volume
        # are 1.0, so the recorded values are the integrand the cubature
        # averages: the first block, then the odd indices of each level
        assert res.q.hex() == _estimate_reference(values).hex()
        recorded = np.concatenate(values)
        coeffs = np.fft.fft(recorded[:2**mmin]) / 2**mmin
        for m in range(mmin, mmax):
            coeffs = _merge_fft_reference(coeffs, recorded[2**m:2**(m + 1)])
        sums, bound = _argsort_block_sums_and_bound(coeffs, mmax,
                                                    default_fudge)
        assert [v.hex() for v in res.extra["block_sums"]] == \
            [float(v).hex() for v in sums]
        assert res.bound_err.hex() == bound.hex()


class TestMergeOracle:
    """The merges equal their one-piece formulas bit for bit, also when
    they run over more than one chunk."""

    @pytest.mark.parametrize("n", [1, 8, 2**17])
    def test_fwht_merge(self, n):
        rng = np.random.default_rng(n)
        coeffs = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, size=n)
        ynew = rng.normal(size=n)
        new = ynew.copy()
        fwht_inplace(new)
        new /= n
        want = 0.5 * np.concatenate([coeffs + new, coeffs - new])
        got = np.concatenate([coeffs, ynew])
        fwht_inplace(got[n:])
        _merge(got, twiddled=False)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 8, 2**17])
    def test_fft_merge(self, n):
        rng = np.random.default_rng(n)
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        ynew = rng.normal(size=n)
        want = _merge_fft_reference(coeffs, ynew)
        # the lattice loop's buffer: the coefficients, then the refining
        # values as complex numbers, transformed in place
        got = np.concatenate([coeffs, ynew.astype(complex)])
        np.fft.fft(got[n:], out=got[n:])
        _merge(got, twiddled=True)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGuarantees:
    def test_poisson_kernel_bound_dominates(self):
        # known integral 1.  The spectrum decays like 2^-kappa, so at
        # 2^5 points the top blocks still hold genuine mass and the bound
        # must dominate outright; at 2^12 points both the bound and the
        # realized error are at the floating-point floor, so the check
        # allows the roundoff of a 4096-term mean.
        f = lambda x: 3.0 / (5.0 - 4.0 * np.cos(2 * np.pi * x[:, 0]))
        box = Hyperbox([0.0], [1.0])
        for seed in range(5):
            params = QmcParams(tol=ToleranceSpec(1e-12, 0.0), mmin=5,
                               mmax=5, transform=Periodizer.ID)
            res = cub_lattice(f, box, params, RngStream(seed))
            assert abs(res.q - 1.0) <= res.bound_err
        for seed in range(5):
            params = QmcParams(tol=ToleranceSpec(1e-12, 0.0), mmin=12,
                               mmax=12, transform=Periodizer.ID)
            res = cub_lattice(f, box, params, RngStream(seed))
            assert abs(res.q - 1.0) <= res.bound_err + \
                4 * np.finfo(float).eps

    def test_shift_invariance_lattice(self):
        f = lambda x: np.exp(-x[:, 0]**2 - x[:, 1]**2)
        truth = 0.557746285351034  # squared erf closed form on [0,1]^2
        params = QmcParams(tol=ToleranceSpec(1e-4, 0.0),
                           transform=Periodizer.C1SIN)
        for seed in range(20):
            res = cub_lattice(f, UNIT2, params, RngStream(seed))
            assert res.exitflag == 0
            assert abs(res.q - truth) <= res.bound_err

    def test_shift_invariance_sobol(self):
        f = lambda x: np.exp(-x[:, 0]**2 - x[:, 1]**2)
        truth = 0.557746285351034
        params = QmcParams(tol=ToleranceSpec(1e-4, 0.0))
        for seed in range(20):
            res = cub_sobol(f, UNIT2, params, RngStream(seed))
            assert res.exitflag == 0
            assert abs(res.q - truth) <= res.bound_err

    def test_lattice_sobol_agree(self):
        cases = [
            (lambda x: np.prod(x, axis=1), UNIT2,
             ToleranceSpec(1e-5, 0.0)),
            (lambda x: np.exp(-x[:, 0]**2 - x[:, 1]**2),
             Hyperbox([-1.0, -1.0], [2.0, 2.0]),
             ToleranceSpec(1e-3, 1e-2)),
        ]
        for f, box, spec in cases:
            la = cub_lattice(f, box, QmcParams(tol=spec,
                                               transform=Periodizer.C1SIN),
                             RngStream(5))
            so = cub_sobol(f, box, QmcParams(tol=spec), RngStream(5))
            assert abs(la.q - so.q) <= la.bound_err + so.bound_err

    def test_bound_meets_tolfun_at_exit(self):
        spec = ToleranceSpec(1e-4, 1e-2)
        res = cub_sobol(lambda x: np.exp(x[:, 0]),
                        Hyperbox([0.0], [1.0]), QmcParams(tol=spec),
                        RngStream(8))
        assert res.exitflag == 0
        assert res.bound_err <= tolfun(spec, abs(res.q))
