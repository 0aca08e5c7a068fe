"""Guaranteed Monte Carlo: Hoeffding sizing, two-stage mean, cubature."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from certint import montecarlo
from certint import (
    Budget,
    ConfigurationError,
    EvaluationError,
    Hyperbox,
    McParams,
    Measure,
    RngStream,
    ToleranceSpec,
    TolType,
    cub_mc,
    hoeffding_n,
    kurtosis_bound,
    mean_mc,
    mean_mc_ber,
    tolfun,
    two_stage_n,
)


class TestHoeffding:
    def test_constructed_log_value(self):
        # alpha chosen so ln(2/alpha) = 2 exactly
        assert hoeffding_n(0.1, 2.0 / math.e**2) == 100

    def test_documented_default(self):
        assert hoeffding_n(1e-2, 0.01) == 26492

    def test_loose(self):
        assert hoeffding_n(1.0, 0.5) == 1

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 60
        for abstol in (1e-3, 3e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1.0):
            for alpha in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5):
                want = int(mpmath.ceil(mpmath.log(2 / mpmath.mpf(alpha))
                                       / (2 * mpmath.mpf(abstol)**2)))
                assert hoeffding_n(abstol, alpha) == want

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            hoeffding_n(0.0, 0.01)
        with pytest.raises(ConfigurationError):
            hoeffding_n(0.1, 1.5)


class TestTwoStageN:
    def test_degenerate_variance(self):
        assert two_stage_n(0.0, 1.2, 1e-2, 0.005, 20.0) == 30

    def test_chebyshev_ceiling(self):
        # uniform variance 1/12; huge kurtosis bound disables Berry-Esseen
        n = two_stage_n(1 / 12, 1.2, 1e-2, 0.005, 1e12)
        assert n <= 240_000
        assert n == 240_000  # Chebyshev branch exactly

    def test_doubling_tolfun_quarters_n(self):
        n1 = two_stage_n(1 / 12, 1.2, 1e-2, 0.005, 1e12)
        n2 = two_stage_n(1 / 12, 1.2, 2e-2, 0.005, 1e12)
        assert n1 >= 4 * n2

    def test_berry_esseen_can_beat_chebyshev(self):
        n_be = two_stage_n(1 / 12, 1.2, 1e-3, 0.005, 25.0)
        n_cheb = math.ceil(1.44 / 12 / (0.005 * 1e-6))
        assert n_be < n_cheb

    def test_monotone_in_variance(self):
        lo = two_stage_n(0.05, 1.2, 1e-2, 0.01, 25.0)
        hi = two_stage_n(0.10, 1.2, 1e-2, 0.01, 25.0)
        assert hi >= lo

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-8.0, 4.0), st.floats(1.01, 3.0), st.floats(-5.0, 0.0),
           st.floats(1.0, 10.0), st.floats(-4.0, -0.3), st.floats(0.0, 5.0))
    def test_count_certifies_its_tolerance(self, log_var, fudge, log_tol,
                                           grow, log_alpha, log_kurt):
        """The floor step relies on both: a looser tolerance never needs
        more draws, and the count's half-width meets the tolerance.  No
        smaller count above the floor meets it."""
        var, tol = 10.0**log_var, 10.0**log_tol
        alpha, kurtmax = 10.0**log_alpha, 10.0**log_kurt
        sigtilde = fudge * math.sqrt(var)
        n = two_stage_n(var, fudge, tol, alpha, kurtmax)
        assert two_stage_n(var, fudge, grow * tol, alpha, kurtmax) <= n
        assert montecarlo._half_width(n, alpha, sigtilde, kurtmax) <= tol
        assert n == 30 or montecarlo._half_width(n - 1, alpha, sigtilde,
                                                 kurtmax) > tol

    def test_count_beyond_every_float_is_inf(self):
        # the doubling search stops before a count that no float holds
        assert two_stage_n(1e300, 1.2, 1e-10, 0.005, 2.0) == math.inf

    def test_rejects_bad_inputs(self):
        for tol, alpha in ((0.0, 0.01), (math.nan, 0.01), (1e-2, 0.0),
                           (1e-2, 1.0)):
            with pytest.raises(ConfigurationError):
                two_stage_n(1.0, 1.2, tol, alpha, 25.0)
        for var in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                two_stage_n(var, 1.2, 1e-2, 0.01, 25.0)


def test_kurtosis_bound_monotone_in_fudge():
    vals = [kurtosis_bound(10_000, 0.025, f) for f in (1.1, 1.2, 1.5, 2.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def _bernoulli(p):
    return lambda n, gen: (gen.random(n) < p).astype(float)


class TestMeanMcBer:
    def test_constant_one(self):
        p_hat, diag = mean_mc_ber(lambda n, gen: np.ones(n), abstol=0.05,
                                  alpha=0.05, rng=RngStream(1))
        assert p_hat == 1.0
        assert diag.exit_flags == 0

    def test_paper_configuration(self):
        p_hat, diag = mean_mc_ber(_bernoulli(1 / 9), abstol=1e-2, alpha=0.05,
                                  rng=RngStream(3))
        assert abs(p_hat - 1 / 9) <= 1e-2
        assert diag.n_evals == hoeffding_n(1e-2, 0.05)

    def test_budget_exit(self):
        p_hat, diag = mean_mc_ber(_bernoulli(0.5), abstol=1e-4, alpha=0.01,
                                  nmax=10_000, rng=RngStream(4))
        assert diag.exit_flags == 1
        assert diag.n_evals == 10_000
        assert 0.4 < p_hat < 0.6

    def test_rejects_nonbinary(self):
        with pytest.raises(EvaluationError):
            mean_mc_ber(lambda n, gen: gen.random(n), abstol=0.1,
                        rng=RngStream(5))


class TestDrawMean:
    """The non-finite scan runs only on a chunk whose sum is not finite."""

    @staticmethod
    def _sampler(bad):
        calls = []

        def yrand(n, gen):
            calls.append(n)
            y = gen.random(n)
            if len(calls) == 3:
                y[n // 2:n // 2 + len(bad)] = bad
            return y
        return yrand

    @pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf],
                                     [math.inf, -math.inf]])
    def test_bad_draw_in_later_chunk(self, monkeypatch, bad):
        monkeypatch.setattr(montecarlo, "_CHUNK", 8)
        gen = RngStream(1).generator()
        with pytest.raises(EvaluationError, match="NaN or Inf"):
            with np.errstate(invalid="ignore"):
                montecarlo._draw_mean(self._sampler(bad), 40, gen, "test")

    def test_overflowing_sum_of_finite_draws(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 8)
        gen = RngStream(1).generator()
        with np.errstate(over="ignore"):
            mean, _ = montecarlo._draw_mean(
                lambda n, g: np.full(n, 1e308), 4, gen, "test")
        assert mean == math.inf


    @pytest.mark.parametrize("signs, want", [((1, 1, 1), math.inf),
                                             ((1, -1), math.nan)])
    def test_total_of_chunk_sums_that_overflows(self, monkeypatch, signs,
                                                want):
        # each chunk's sum is finite, or an inf of finite draws, but their
        # total overflows or meets inf and -inf: math.fsum raises there
        monkeypatch.setattr(montecarlo, "_CHUNK", 8)
        value = 1e308 if len(signs) == 2 else 1e307
        draws = iter(signs)
        with np.errstate(over="ignore"):
            mean, _ = montecarlo._draw_mean(
                lambda n, g: np.full(n, next(draws) * value), 8 * len(signs),
                RngStream(1).generator(), "test")
        assert mean == want or (math.isnan(want) and math.isnan(mean))

    def test_mean_survives_a_large_offset(self):
        # 1e8 + 1e-6 u - 1e8 is exact, so the deviations' mean is the
        # oracle; a running float total of the chunk sums ends 31 spacings
        # off it
        devs = []

        def yrand(n, gen):
            y = 1e8 + 1e-6 * gen.random(n)
            devs.append(float(np.sum(y - 1e8)))
            return y

        n = 1500 * montecarlo._CHUNK
        mean, _ = montecarlo._draw_mean(yrand, n, RngStream(1).generator(),
                                        "test")
        want = 1e8 + math.fsum(devs) / n
        assert abs(mean - want) <= 2 * np.spacing(1e8)

    def test_variance_survives_a_large_offset(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        draws = 1e8 + RngStream(2).generator().random(10_000)
        _, var = montecarlo._draw_mean(
            lambda n, g: 1e8 + g.random(n), 10_000, RngStream(2).generator(),
            "test", variance=True)
        # 1e8 + u - 1e8 is exact, so the two-pass variance is the oracle;
        # the merge differences chunk means that are only resolved to
        # ulp(1e8) = 1.5e-8, which bounds the agreement
        assert var == pytest.approx(np.var(draws - 1e8, ddof=1), rel=1e-8)

    def test_chunk_merge_matches_one_chunk(self, monkeypatch):
        y = lambda n, g: np.exp(3.0 * g.random(n))
        _, whole = montecarlo._draw_mean(y, 5_000, RngStream(4).generator(),
                                         "test", variance=True)
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        _, merged = montecarlo._draw_mean(y, 5_000, RngStream(4).generator(),
                                          "test", variance=True)
        assert merged == pytest.approx(whole, rel=1e-13)

    @pytest.mark.parametrize("c", [2.5, 1e8, -7.0])
    def test_constant_data_has_zero_variance(self, monkeypatch, c):
        monkeypatch.setattr(montecarlo, "_CHUNK", 300)
        mean, var = montecarlo._draw_mean(lambda n, g: np.full(n, c), 1_000,
                                          RngStream(1).generator(), "test",
                                          variance=True)
        assert (mean, var) == (c, 0.0)

    def test_sampler_array_is_not_written(self):
        kept = []

        def yrand(n, gen):
            y = gen.random(n)
            kept.append((y, y.copy()))
            return y
        montecarlo._draw_mean(yrand, 100, RngStream(1).generator(), "test",
                              variance=True)
        assert all(np.array_equal(y, copy) for y, copy in kept)

    def test_variance_only_on_request(self):
        _, var = montecarlo._draw_mean(lambda n, g: g.random(n), 100,
                                       RngStream(1).generator(), "test")
        assert var is None


def _alpha_mu(alpha):
    return 1.0 - math.sqrt(1.0 - alpha)


# Tolerances that do not depend on the estimate, with their value.
_FIXED_SPECS = [
    (ToleranceSpec(1e-3, 0.0), 1e-3),
    (ToleranceSpec(1e-3, 0.5, TolType.COMB, theta=1.0), 1e-3),
    (ToleranceSpec(2e-3, 0.0, TolType.COMB, theta=0.5), 1e-3),
]


class TestFixedToleranceStep:
    """A fixed tolerance, or one whose floor is cheapest, is met in one
    step that gets all of alpha_mu."""

    @pytest.mark.parametrize("spec, tol", _FIXED_SPECS)
    def test_one_step_of_two_stage_n(self, spec, tol):
        params = McParams(tol=spec, alpha=0.05)
        tmu, diag = mean_mc(lambda n, g: g.random(n)**2, params, RngStream(5))
        x = diag.extra
        want = two_stage_n(x["var"], params.fudge, tol, _alpha_mu(0.05),
                           x["kurtmax"])
        assert x["tau"] == 1
        assert x["n"] == [want]
        assert x["n_up"] == x["ntot"] == params.n_sig + want
        assert diag.exit_flags == 0
        assert diag.errest <= tol
        assert abs(tmu - 1 / 3) <= tol

    @pytest.mark.parametrize("spec, tol", _FIXED_SPECS)
    def test_binding_budget_flags_the_single_step(self, spec, tol):
        nbudget = 50_000
        params = McParams(tol=spec, alpha=0.05, nbudget=nbudget)
        _, diag = mean_mc(lambda n, g: g.random(n)**2, params, RngStream(5))
        x = diag.extra
        assert diag.exit_flags == 1
        assert x["tau"] == 1
        assert x["n"] == [nbudget - params.n_sig]
        assert x["ntot"] == nbudget
        assert x["n_up"] > nbudget
        assert diag.errest > tol

    def test_abstol_dominant_spec_takes_the_floor_step(self):
        # reltol * |mu| = 3.3e-4 is far below abstol, so one step sized
        # for abstol at all of alpha_mu beats a relative step at half
        params = McParams(tol=ToleranceSpec(1e-2, 1e-3), alpha=0.05)
        tmu, diag = mean_mc(lambda n, g: g.random(n)**2, params, RngStream(5))
        x = diag.extra
        n_floor = two_stage_n(x["var"], params.fudge, 1e-2, _alpha_mu(0.05),
                              x["kurtmax"])
        assert x["n"] == [n_floor]
        assert x["n_up"] == x["ntot"] == params.n_sig + n_floor
        assert diag.exit_flags == 0
        assert abs(tmu - 1 / 3) <= 1e-2

    def test_zero_tolerance_rejected(self):
        # a tolerance of 0 at every estimate could never be met
        for theta in (0.0, 0.25, 0.5, 1.0):
            with pytest.raises(ConfigurationError, match="cannot both be 0"):
                ToleranceSpec(0.0, 0.0, TolType.COMB, theta=theta)


class TestRelativeToleranceSteps:
    """A tolerance that grows with the estimate plans its first step from
    the variance stage's mean, less a margin."""

    @pytest.mark.parametrize("abstol, floor_wins",
                             [(1e-3, True), (1e-4, False)],
                             ids=["floor_wins", "relative_wins"])
    def test_first_step_is_planned_from_the_variance_stage(self, abstol,
                                                           floor_wins):
        spec = ToleranceSpec(abstol, 1e-2)
        params = McParams(tol=spec, alpha=0.05)
        y = lambda n, g: g.random(n)**2
        tmu, diag = mean_mc(y, params, RngStream(5))
        x = diag.extra
        # replay the variance stage: the seed's first n_sig draws
        m0, var = montecarlo._draw_mean(y, params.n_sig,
                                        RngStream(5).generator(), "replay",
                                        variance=True)
        assert var == x["var"]
        alpha_mu = _alpha_mu(0.05)
        z0 = (-ndtri(alpha_mu * 0.25) * params.fudge * math.sqrt(var)
              / math.sqrt(params.n_sig))
        assert z0 <= abs(m0) / 2
        n_rel = two_stage_n(var, params.fudge, tolfun(spec, abs(m0) - z0),
                            alpha_mu * 0.5, x["kurtmax"])
        n_floor = two_stage_n(var, params.fudge, abstol, alpha_mu,
                              x["kurtmax"])
        # at 1e-3 Berry-Esseen makes the floor step at all of alpha_mu
        # cheaper than the relative step at half of it
        assert (n_floor <= n_rel) == floor_wins
        assert x["n"] == [min(n_floor, n_rel)]
        assert x["n_up"] == params.n_sig + min(n_floor, n_rel)
        assert diag.exit_flags == 0
        assert abs(tmu - 1 / 3) <= 1e-2 / 3

    def test_zero_mean_falls_back_to_n1_and_flags_the_budget(self):
        # a pure relative tolerance around a mean of exactly 0 has no
        # finite target: n1 draws, then doubling, until the budget cuts a
        # step; +-1 in turn sums to exactly 0 over every even count
        params = McParams(tol=ToleranceSpec(0.0, 1e-2), nbudget=100_000)
        tmu, diag = mean_mc(lambda n, g: 1.0 - 2.0 * (np.arange(n) % 2),
                            params, RngStream(1))
        x = diag.extra
        assert x["n"] == [params.n1, 2 * params.n1, 4 * params.n1,
                          100_000 - params.n_sig - 7 * params.n1]
        assert x["hmu"] == [0.0] * 4
        assert x["n_up"] == params.n_sig + params.n1
        assert x["ntot"] == 100_000
        assert diag.exit_flags == 1

    def test_zero_mean_never_certifies(self):
        # a random zero mean plans for the tolerance at a tiny estimate,
        # which the budget cuts; the run must not claim a certificate
        params = McParams(tol=ToleranceSpec(0.0, 1e-2), nbudget=100_000)
        for seed in range(1, 6):
            tmu, diag = mean_mc(lambda n, g: 2.0 * g.random(n) - 1.0, params,
                                RngStream(seed))
            assert diag.extra["ntot"] == 100_000
            assert diag.exit_flags == 1, seed

    def test_low_ratio_mean_is_certified(self):
        # y = U - 0.45: |mu| / sigma = 0.17, so mu is about 17 standard
        # errors of the variance stage's mean but under its certified
        # half-width (0.24 sigma), so no step can be planned from that
        spec = ToleranceSpec(0.0, 5e-2)
        params = McParams(tol=spec, nbudget=10_000_000)
        for seed in range(1, 21):
            tmu, diag = mean_mc(lambda n, g: g.random(n) - 0.45, params,
                                RngStream(seed))
            assert diag.exit_flags == 0, seed
            assert diag.extra["tau"] == 1, seed
            assert abs(tmu - 0.05) <= tolfun(spec, 0.05), seed

    @pytest.mark.parametrize("y, mu, spec", [
        (lambda n, g: g.random(n)**2, 1 / 3, ToleranceSpec(1e-3, 1e-2)),
        (lambda n, g: g.random(n)**2, 1 / 3, ToleranceSpec(1e-2, 1e-2)),
        (lambda n, g: g.random(n)**2, 1 / 3,
         ToleranceSpec(1e-3, 1e-2, TolType.COMB, theta=0.5)),
        (lambda n, g: np.cos(g.random(n)), math.sin(1.0),
         ToleranceSpec(0.0, 1e-2)),
        (lambda n, g: 1e4 + g.random(n), 1e4 + 0.5,
         ToleranceSpec(1e-4, 1e-6)),
        (lambda n, g: g.random(n) - 0.45, 0.05, ToleranceSpec(1e-6, 1e-2)),
    ], ids=["u2-max-1e-3-1e-2", "u2-max-1e-2-1e-2", "u2-comb-theta-0.5",
            "cos-pure-relative", "offset-1e4", "low-ratio-max-1e-6-1e-2"])
    def test_coverage_over_seeds(self, y, mu, spec):
        params = McParams(tol=spec)
        for seed in range(1, 21):
            tmu, diag = mean_mc(y, params, RngStream(seed))
            assert diag.exit_flags == 0, seed
            assert abs(tmu - mu) <= tolfun(spec, abs(mu)), seed


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
def test_no_silent_miss_under_an_offset(offset):
    """y = offset + U: the variance must not cancel into a zero that
    certifies a 30-draw mean."""
    y = lambda n, g: offset + g.random(n)
    for abstol in (1e-2, 1e-4):
        params = McParams(tol=ToleranceSpec(abstol, 0.0))
        for seed in range(1, 21):
            tmu, diag = mean_mc(y, params, RngStream(seed))
            assert diag.extra["var"] > 0.0
            assert diag.exit_flags == 0
            assert abs(tmu - (offset + 0.5)) <= abstol, (abstol, seed)


class TestMeanMc:
    def test_u_squared(self):
        params = McParams(tol=ToleranceSpec(1e-3, 0.0), alpha=0.05)
        tmu, diag = mean_mc(lambda n, g: g.random(n)**2, params, RngStream(1))
        assert abs(tmu - 1 / 3) <= 1e-3
        assert diag.exit_flags == 0

    def test_exp_uniform(self):
        params = McParams(tol=ToleranceSpec(1e-3, 0.0))
        tmu, diag = mean_mc(lambda n, g: np.exp(g.random(n)), params,
                            RngStream(2))
        assert abs(tmu - (math.e - 1)) <= 1e-3

    def test_pure_relative(self):
        params = McParams(tol=ToleranceSpec(0.0, 1e-2), alpha=0.05)
        tmu, diag = mean_mc(lambda n, g: np.cos(g.random(n)), params,
                            RngStream(3))
        assert abs(tmu - math.sin(1.0)) <= 1e-2 * math.sin(1.0)

    def test_trace_invariants(self):
        params = McParams(tol=ToleranceSpec(1e-3, 0.0), alpha=0.05)
        tmu, diag = mean_mc(lambda n, g: g.random(n)**2, params, RngStream(9))
        x = diag.extra
        assert x["ntot"] == params.n_sig + sum(x["n"])
        tols = x["tol"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(tols, tols[1:]))
        assert x["ntot"] <= params.nbudget
        assert diag.errest <= 1e-3  # exit 0 implies final width under tolfun

    def test_seed_reproducibility(self):
        params = McParams(tol=ToleranceSpec(1e-3, 0.0), alpha=0.05)
        y = lambda n, g: g.random(n)**2
        t1, d1 = mean_mc(y, params, RngStream(77))
        t2, d2 = mean_mc(y, params, RngStream(77))
        assert t1 == t2
        assert d1.extra["hmu"] == d2.extra["hmu"]
        assert d1.extra["n"] == d2.extra["n"]

    def test_constant_variable(self):
        params = McParams(tol=ToleranceSpec(1e-6, 0.0))
        tmu, diag = mean_mc(lambda n, g: np.full(n, 2.5), params, RngStream(1))
        assert tmu == 2.5
        assert diag.iterations == 1

    def test_overflowing_variance_is_an_error(self):
        params = McParams(tol=ToleranceSpec(1e-3, 0.0))
        with pytest.raises(EvaluationError, match="overflows"):
            with np.errstate(over="ignore"):
                mean_mc(lambda n, g: 1e200 * g.random(n), params, RngStream(1))

    def test_budget_exhaustion(self):
        params = McParams(tol=ToleranceSpec(1e-6, 0.0), nbudget=50_000)
        tmu, diag = mean_mc(lambda n, g: g.random(n), params, RngStream(6))
        assert diag.exit_flags & 1
        assert diag.extra["ntot"] <= 50_000

    def test_time_budget_counts_only_drawing(self, monkeypatch):
        # a slow first planning call, as a cold import of scipy.special
        # makes it, must not shrink the steps that the time budget allows
        params = McParams(tol=ToleranceSpec(1e-3, 0.0))
        y = lambda n, g: g.random(n)**2
        want, want_diag = mean_mc(y, params, RngStream(5))
        plan = montecarlo.two_stage_n
        calls = []

        def slow_first_call(*args):
            if not calls:
                time.sleep(0.5)
            calls.append(args)
            return plan(*args)

        monkeypatch.setattr(montecarlo, "two_stage_n", slow_first_call)
        got, diag = mean_mc(y, McParams(tol=params.tol, tbudget_seconds=3.0),
                            RngStream(5))
        assert calls
        assert diag.exit_flags == 0
        assert got.hex() == want.hex()
        assert diag.n_evals == want_diag.n_evals

    def test_budgets_belong_to_their_solvers(self):
        # the draw and time limits are McParams fields; Budget holds only
        # the univariate solvers' nmax and maxiter
        with pytest.raises(TypeError):
            Budget(nbudget=5)
        with pytest.raises(TypeError):
            Budget(tbudget_seconds=1.0)
        with pytest.raises(TypeError):
            McParams(budget=Budget())
        for bad in ({"nbudget": 0}, {"tbudget_seconds": 0.0},
                    {"tbudget_seconds": math.nan}):
            with pytest.raises(ConfigurationError):
                McParams(**bad)

    def test_budget_covers_the_variance_stage(self):
        # the cap counts both stages, so it must pay for the first
        with pytest.raises(ConfigurationError, match="variance stage"):
            McParams(nbudget=9_999)
        with pytest.raises(ConfigurationError, match="variance stage"):
            McParams(n_sig=100, nbudget=99)
        assert McParams(n_sig=100, nbudget=100).nbudget == 100


class TestHyperbox:
    def test_codes(self):
        assert Hyperbox([0.0], [1.0]).validate() == 0
        assert Hyperbox([np.nan], [1.0]).validate() == 10
        assert Hyperbox([0.0, 1.0], [1.0, 2.0, 3.0]).validate() == 11
        assert Hyperbox([0.0], [0.0]).validate() == 12
        assert Hyperbox([0.0], [np.inf]).validate() == 13
        assert Hyperbox([0.0], [1.0], Measure.NORMAL).validate() == 14
        assert Hyperbox([-np.inf], [np.inf], Measure.NORMAL).validate() == 0

    def test_volume(self):
        assert Hyperbox([0.0, 0.0], [2.0, 3.0]).volume() == 6.0


class TestCubMc:
    def test_unit_integrand_gives_volume(self):
        box = Hyperbox([0.0, 1.0], [0.5, 4.0])
        params = McParams(tol=ToleranceSpec(1e-2, 0.0))
        q, diag = cub_mc(lambda x: np.ones(x.shape[0]), box, params,
                         RngStream(1))
        assert q == pytest.approx(box.volume(), abs=1e-12)

    def test_sin_interval(self):
        truth = math.cos(1.0) - math.cos(2.0)
        params = McParams(tol=ToleranceSpec(1e-3, 1e-2))
        q, diag = cub_mc(lambda x: np.sin(x[:, 0]), Hyperbox([1.0], [2.0]),
                         params, RngStream(2))
        assert abs(q - truth) <= max(1e-3, 1e-2 * truth)

    def test_normal_measure(self):
        params = McParams(tol=ToleranceSpec(0.0, 1e-2))
        box = Hyperbox([-math.inf] * 2, [math.inf] * 2, Measure.NORMAL)
        q, _ = cub_mc(lambda x: np.exp(-x[:, 0]**2 - x[:, 1]**2), box,
                      params, RngStream(3))
        assert abs(q - 1 / 3) <= 1e-2 / 3

    def test_invalid_box_returns_code(self):
        for box, code in [
            (Hyperbox([0.0], [np.inf]), 13),
            (Hyperbox([1.0], [1.0]), 12),
            (Hyperbox([0.0], [1.0], Measure.NORMAL), 14),
            (Hyperbox([np.nan], [1.0]), 10),
        ]:
            q, diag = cub_mc(lambda x: x[:, 0], box, McParams(), RngStream(1))
            assert math.isnan(q)
            assert diag.exit_flags == code
