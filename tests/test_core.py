"""Tolerance combination, random streams, and diagnostics invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certint import (
    ConfigurationError,
    RngStream,
    SolverDiagnostics,
    ToleranceSpec,
    TolType,
    tolfun,
)


class TestTolfun:
    def test_max_rule_absolute_floor(self):
        spec = ToleranceSpec(1e-2, 1e-1, TolType.MAX)
        assert tolfun(spec, 0.0) == 1e-2

    def test_comb_theta_one_is_pure_absolute(self):
        spec = ToleranceSpec(1e-3, 0.5, TolType.COMB, theta=1.0)
        assert tolfun(spec, 7.0) == 1e-3

    def test_max_rule_relative_wins(self):
        spec = ToleranceSpec(1e-2, 1e-1, TolType.MAX)
        assert tolfun(spec, 0.5) == pytest.approx(5e-2)

    @given(
        abstol=st.floats(0, 10),
        reltol=st.floats(0, 1),
        theta=st.floats(0, 1),
        mu1=st.floats(0, 1e6),
        mu2=st.floats(0, 1e6),
        toltype=st.sampled_from([TolType.MAX, TolType.COMB]),
    )
    @settings(max_examples=300)
    def test_monotone_in_mu(self, abstol, reltol, theta, mu1, mu2, toltype):
        try:
            spec = ToleranceSpec(abstol, reltol, toltype, theta)
        except ConfigurationError:
            return
        lo, hi = sorted((mu1, mu2))
        assert tolfun(spec, lo) <= tolfun(spec, hi)

    @given(
        abstol=st.floats(1e-12, 10),
        reltol=st.floats(1e-12, 1),
        theta=st.floats(0, 1),
        mu=st.floats(0, 1e6),
    )
    @settings(max_examples=300)
    def test_bracketing(self, abstol, reltol, theta, mu):
        mx = ToleranceSpec(abstol, reltol, TolType.MAX)
        assert tolfun(mx, mu) >= min(abstol, reltol * mu)
        comb = ToleranceSpec(abstol, reltol, TolType.COMB, theta)
        pure_abs = abstol
        pure_rel = reltol * mu
        lo, hi = sorted((pure_abs, pure_rel))
        val = tolfun(comb, mu)
        assert lo - 1e-15 <= val <= hi + 1e-12 * max(1.0, hi)

    def test_monotone_in_tolerances(self):
        mu = 3.0
        for toltype in (TolType.MAX, TolType.COMB):
            a = tolfun(ToleranceSpec(1e-3, 1e-2, toltype, 0.5), mu)
            b = tolfun(ToleranceSpec(2e-3, 1e-2, toltype, 0.5), mu)
            c = tolfun(ToleranceSpec(1e-3, 2e-2, toltype, 0.5), mu)
            assert b >= a and c >= a

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ToleranceSpec(0.0, 0.0, TolType.MAX)
        with pytest.raises(ConfigurationError):
            ToleranceSpec(0.0, 0.5, TolType.COMB, theta=1.0)
        with pytest.raises(ConfigurationError):
            ToleranceSpec(1e-2, 0.0, TolType.COMB, theta=0.0)
        with pytest.raises(ConfigurationError):
            ToleranceSpec(-1.0, 0.5)
        with pytest.raises(ConfigurationError):
            ToleranceSpec(1e-2, 1.5)


class TestStreams:
    def test_deterministic(self):
        a = RngStream(42, 0).generator().random(100)
        b = RngStream(42, 0).generator().random(100)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))

    def test_streams_uncorrelated(self):
        n = 100_000
        a = RngStream(42, 0).generator().random(n)
        b = RngStream(42, 1).generator().random(n)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.02

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (-5, -5)])
    def test_negative_seed_or_index_rejected(self, pair):
        # numpy would reject them only later, in generator()
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            RngStream(*pair)
        RngStream(0, 0).generator()


class TestDiagnostics:
    def test_json_dict_excludes_time(self):
        d = SolverDiagnostics(algorithm="x", n_evals=3, n_points=3,
                              elapsed_seconds=1.5,
                              extra={"a": np.float64(1.0)})
        out = d.to_json_dict()
        assert "elapsed_seconds" not in out
        assert out["extra"]["a"] == 1.0 and isinstance(out["extra"]["a"], float)
