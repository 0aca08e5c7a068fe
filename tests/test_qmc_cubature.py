"""Adaptive QMC cubature: bounds, cone detection, engine behavior."""

import math

import numpy as np
import pytest

from certint import (
    ConfigurationError,
    Hyperbox,
    Measure,
    Periodizer,
    QmcParams,
    RngStream,
    ToleranceSpec,
    coeff_error_bound,
    cone_check,
    cub_lattice,
    cub_sobol,
    default_fudge,
    measure_map,
    tolfun,
)
from certint.qmc_cubature import _block_sums, _certified_bound

UNIT2 = Hyperbox([0.0, 0.0], [1.0, 1.0])


class TestCoeffErrorBound:
    def test_constant_integrand(self):
        coeffs = np.zeros(1024)
        coeffs[0] = 7.0
        assert coeff_error_bound(coeffs, 10, default_fudge) == 0.0

    def test_single_top_coefficient(self):
        coeffs = np.zeros(1024)
        coeffs[800] = 3.0
        want = 5.0 * 2.0**-10 * 3.0
        assert coeff_error_bound(coeffs, 10, default_fudge) == \
            pytest.approx(want)

    def test_length_checked(self):
        with pytest.raises(ConfigurationError):
            coeff_error_bound(np.zeros(1000), 10, default_fudge)

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

    def test_nonincreasing_on_geometric_decay(self):
        rng = np.random.default_rng(0)
        prev = None
        for m in range(6, 14):
            n = 1 << m
            coeffs = 2.0 ** (-np.arange(n) / 64.0) * (1 + 0.01 * rng.random(n))
            bound = coeff_error_bound(coeffs, m, default_fudge)
            if prev is not None:
                assert bound <= prev
            prev = bound


def _argsort_block_sums_and_bound(coeffs, m, fudge):
    """Block sums and bound of the stable-argsort ordering, with the
    level-m ``coeff_error_bound`` term in the max."""
    order = np.concatenate(
        ([0], 1 + np.argsort(-np.abs(coeffs[1:]), kind="stable")))
    ranked = np.abs(coeffs[order])
    sums = np.empty(m + 1)
    sums[0] = ranked[0]
    for level in range(1, m + 1):
        sums[level] = float(np.sum(ranked[1 << (level - 1):1 << level]))
    bound = max(coeff_error_bound(ranked, m, fudge),
                _certified_bound(sums, m, fudge))
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
        got_sums = _block_sums(coeffs, m)
        assert np.array_equal(got_sums.view(np.uint64),
                              want_sums.view(np.uint64))
        got_bound = _certified_bound(got_sums, m, default_fudge)
        assert got_bound.hex() == want_bound.hex()

    def test_leaves_coefficients_untouched(self):
        coeffs = np.array([3.0, -1.0, 2.0, -2.0])
        _block_sums(coeffs, 2)
        assert coeffs.tolist() == [3.0, -1.0, 2.0, -2.0]


def _f_call(x):
    return math.exp(-0.05**2 / 2) * np.maximum(
        100.0 * np.exp(0.05 * x[:, 0]) - 100.0, 0.0)


class TestGoldenValues:
    """(q, n, bound_err, exitflag) of four worked examples at the seeds
    that ``certint examples --seed 1`` gives them, pinned bit for bit."""

    CASES = {
        "cubsobol prod [0,1]^2": (
            cub_sobol, lambda x: np.prod(x, axis=1), UNIT2,
            ToleranceSpec(1e-5, 0.0), "id", 27,
            ("0x1.ffffffffffffep-3", 4096, "0x1.e2fa3f11bf480p-19", 0)),
        "cubsobol call option": (
            cub_sobol, _f_call,
            Hyperbox([-math.inf], [math.inf], Measure.NORMAL),
            ToleranceSpec(1e-4, 1e-2), "id", 30,
            ("0x1.073083de97a8ep+1", 8192, "0x1.72491a2b19f20p-7", 0)),
        "cublattice prod [0,1]^2": (
            cub_lattice, lambda x: np.prod(x, axis=1), UNIT2,
            ToleranceSpec(1e-5, 0.0), "c1sin", 21,
            ("0x1.fffffffff3e81p-3", 16384, "0x1.4b5567dd2ea4ap-19", 0)),
        "cublattice poisson kernel": (
            cub_lattice,
            lambda x: 3.0 / (5.0 - 4.0 * np.cos(2.0 * np.pi * x[:, 0])),
            Hyperbox([0.0], [1.0], Measure.UNIFORM),
            ToleranceSpec(1e-5, 0.0), "id", 26,
            ("0x1.ffffffffffffcp-1", 1024, "0x1.dffe20000304ap-19", 0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned(self, name):
        solver, f, box, spec, transform, seed, want = self.CASES[name]
        params = QmcParams(tol=spec, mmax=24, transform=Periodizer(transform))
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


class TestGuarantees:
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
