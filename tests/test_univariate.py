"""Univariate solvers: approximation, minimization, quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from certint import (
    Budget,
    ConfigurationError,
    EvaluationError,
    IntervalProblem,
    PiecewiseLinearApprox,
    eval_approx,
    funappx,
    funmin,
    integral,
    ninit_rule,
)
from certint.core import fsum_partials
from certint.univariate import (
    _CURVATURE_INFLATION,
    _SUM_CHUNK,
    _call_f,
    _merge_cells,
    _refinement,
    _split_rows,
    _trapezoid_errest,
)
from test_acceptance import _cone_family


class TestNinitRule:
    @pytest.mark.parametrize("nlo,nhi,a,b,expected", [
        (10, 1000, 0, 1, 100),
        (10, 1000, 0, 100, 956),
        (10, 100, -20, 20, 95),
        (10, 1000, -10, 50, 928),
        (10, 10, -2, 2, 10),
        (10, 100, -13, 8, 91),
        (10, 100, -2, 2, 64),
    ])
    def test_documented_values(self, nlo, nhi, a, b, expected):
        assert ninit_rule(nlo, nhi, a, b) == expected

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ninit_rule(2, 1000, 0, 1)
        with pytest.raises(ConfigurationError):
            ninit_rule(10, 1000, 1, 1)


class TestFunappx:
    def test_square_default(self):
        approx, diag = funappx(IntervalProblem(f=lambda x: x**2))
        xs = np.linspace(0, 1, 100_001)
        sup = np.max(np.abs(approx(xs) - xs**2))
        assert diag.exit_flags == 0
        assert sup <= diag.errest <= 1e-6
        assert diag.extra["ninit"] == 100

    def test_constant_exact_first_pass(self):
        approx, diag = funappx(IntervalProblem(f=lambda x: np.full_like(x, 4.5),
                                               a=-3, b=2))
        assert diag.errest == 0.0
        assert diag.iterations == 0
        assert np.all(approx.values == 4.5)

    def test_sin_dense_grid(self):
        approx, diag = funappx(IntervalProblem(f=lambda x: np.sin(10 * x),
                                               abstol=1e-5))
        xs = np.linspace(0, 1, 100_001)
        sup = np.max(np.abs(approx(xs) - np.sin(10 * xs)))
        assert diag.exit_flags == 0
        assert sup <= diag.errest <= 1e-5

    def test_knots_and_counts(self):
        approx, diag = funappx(IntervalProblem(f=lambda x: np.exp(x),
                                               abstol=1e-4))
        assert diag.n_points == approx.knots.size
        assert diag.n_points <= 10_000_000
        assert approx.knots[0] == 0.0 and approx.knots[-1] == 1.0
        assert np.all(np.diff(approx.knots) > 0)
        # every subinterval's nstar is recorded
        assert len(diag.extra["nstar"]) == diag.extra["n_subintervals"]

    def test_budget_exit(self):
        p = IntervalProblem(f=lambda x: np.sin(40 * x), a=0, b=4, abstol=1e-9,
                            budget=Budget(nmax=500))
        approx, diag = funappx(p)
        assert diag.exit_flags & 1
        assert diag.n_points <= 500
        assert diag.n_evals == diag.n_points == approx.knots.size

    def test_maxiter_exit(self):
        p = IntervalProblem(f=lambda x: np.sin(40 * x), a=0, b=4, abstol=1e-9,
                            budget=Budget(maxiter=1))
        _, diag = funappx(p)
        assert diag.exit_flags & 2
        assert diag.iterations == 1

    def test_nan_aborts(self):
        def bad(x):
            y = np.asarray(x, dtype=float).copy()
            y[y > 0.5] = np.nan
            return y
        with pytest.raises(EvaluationError):
            funappx(IntervalProblem(f=bad))

    def test_abstol_monotonicity(self):
        f = lambda x: np.sin(6 * x) + x**2
        _, loose = funappx(IntervalProblem(f=f, abstol=2e-5))
        _, tight = funappx(IntervalProblem(f=f, abstol=1e-5))
        assert loose.n_points <= tight.n_points

    def test_cone_suite_small(self):
        # a slice of the acceptance family: quadratics and sinusoids
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 100_001)
        for _ in range(25):
            if rng.random() < 0.5:
                a0, a1, a2 = rng.normal(size=3) * [1, 2, 3]
                f = lambda x, a0=a0, a1=a1, a2=a2: a0 + a1 * x + a2 * x**2
            else:
                omega = rng.uniform(1, 20)
                f = lambda x, w=omega: np.sin(w * x)
            approx, diag = funappx(IntervalProblem(f=f, abstol=1e-6))
            assert diag.exit_flags == 0
            sup = np.max(np.abs(approx(grid) - f(grid)))
            assert sup <= diag.errest <= 1e-6


    def test_each_abscissa_evaluated_once(self):
        seen = []

        def f(x):
            seen.append(np.array(x))
            return np.sin(6 * x) + x**2

        approx, diag = funappx(IntervalProblem(f=f, a=-1, b=2, abstol=1e-7))
        assert diag.iterations >= 3
        assert len(seen) == diag.iterations + 1
        for xs in seen:
            assert np.all(np.diff(xs) > 0)
        every = np.concatenate(seen)
        assert np.unique(every).size == every.size
        assert diag.n_evals == diag.n_points == approx.knots.size == every.size
        assert np.array_equal(np.sort(every), approx.knots)

    @pytest.mark.parametrize("nmax", [120, 500, 1000, 1089])
    def test_budget_cut_matches_reference(self, nmax):
        # budgets that bind in the middle of a round, on its last point
        # (nmax 1000, ninit 10) and before the first split (nmax 120,
        # ninit 64)
        for ninit_cap in (10, 100):
            p = IntervalProblem(f=lambda x: np.sin(40 * x), a=0, b=4,
                                abstol=1e-9, nhi=ninit_cap,
                                budget=Budget(nmax=nmax))
            _assert_same_run(p)

    @pytest.mark.parametrize("maxiter", [1, 3, 5])
    def test_maxiter_matches_reference(self, maxiter):
        p = IntervalProblem(f=lambda x: np.sin(40 * x), a=0, b=4, abstol=1e-9,
                            budget=Budget(maxiter=maxiter))
        _assert_same_run(p)

    @pytest.mark.parametrize("abstol", [1e-4, 1e-6, 1e-8])
    def test_cone_family_matches_reference(self, abstol):
        for f in _cone_family(200, np.random.default_rng(20150314)):
            _assert_same_run(IntervalProblem(f=f, abstol=abstol))


def _reference_funappx(p: IntervalProblem):
    """The per-subinterval funappx the array version replaced: each split
    regrids both halves with ``ninit`` fresh points and calls ``f`` once
    per half.  Returns (iterations, nstar, n_subintervals, exit_flags,
    errest)."""
    ninit = ninit_rule(p.nlo, p.nhi, p.a, p.b)

    def sub(t0, t1, nstar):
        xs = np.linspace(t0, t1, ninit)
        ys = _call_f(p.f, xs, "funappx")
        length = t1 - t0
        h = length / (ninit - 1)
        second = ys[:-2] - 2.0 * ys[1:-1] + ys[2:]
        big_f = np.max(np.abs(second)) / (h * h)
        v = np.max(np.abs(np.diff(ys) / h - (ys[-1] - ys[0]) / length))
        violated = big_f * length > 2.0 * nstar * (v + 0.5 * h * big_f)
        if violated:
            for _ in range(64):
                nstar *= 2
                if big_f * length <= 2.0 * nstar * (v + 0.5 * h * big_f):
                    break
        cone_cap = 2.0 * nstar * (v + 0.5 * h * big_f) / length
        f_hat = min(_CURVATURE_INFLATION * big_f, max(cone_cap, big_f))
        return [t0, t1, nstar, f_hat * h * h / 8.0, violated]

    subs = [sub(p.a, p.b, ninit - 2)]
    npoints, exit_flags, iters = ninit, 0, 0
    pending = lambda s: s[3] > p.abstol or s[4]
    while any(pending(s) for s in subs):
        if iters >= p.budget.maxiter:
            exit_flags |= 2
            break
        iters += 1
        new_subs = []
        for s in subs:
            if not exit_flags & 1 and pending(s):
                if npoints + (ninit - 1) > p.budget.nmax:
                    exit_flags |= 1
                    new_subs.append(s)
                    continue
                mid = 0.5 * (s[0] + s[1])
                new_subs += [sub(s[0], mid, s[2]), sub(mid, s[1], s[2])]
                npoints += ninit - 1
            else:
                new_subs.append(s)
        subs = new_subs
        if exit_flags & 1:
            break
    return (iters, [s[2] for s in subs], len(subs), exit_flags,
            max(s[3] for s in subs))


def _assert_same_run(p: IntervalProblem):
    iters, nstar, nsub, flags, errest = _reference_funappx(p)
    approx, diag = funappx(p)
    assert diag.iterations == iters
    assert diag.extra["nstar"] == nstar
    assert diag.extra["n_subintervals"] == nsub
    assert diag.exit_flags == flags
    assert diag.errest == pytest.approx(errest, rel=1e-6, abs=1e-300)
    assert diag.n_evals == diag.n_points == approx.knots.size


def _doubled_windows(xs, mids):
    """The halves of each row of ``xs`` as the windows of n points at
    offsets 0 and n - 1 of the row's doubled grid, which interleaves the
    row with its ``mids``."""
    k, n = xs.shape
    wide = np.empty((k, 2 * n - 1))
    wide[:, 0::2], wide[:, 1::2] = xs, mids
    return sliding_window_view(wide, n, axis=1)[:, ::n - 1].reshape(-1, n)


class TestSplitRows:
    @pytest.mark.parametrize("n", [3, 4, 5, 10, 11])
    def test_halves_equal_doubled_grid_windows(self, n):
        rng = np.random.default_rng(n)
        k = 7
        xs = np.sort(rng.uniform(-3.0, 5.0, size=(k, n)), axis=1)
        ys = rng.standard_normal((k, n))
        nstar = rng.integers(1, 9, size=k).astype(float)
        extra = rng.random(k)
        f = lambda x: np.cos(3.0 * x)
        # budgets for every row, for three of them, and for none
        for room, nmax in ((k, 10**6), (3, 100 + 3 * (n - 1) + n - 2),
                           (0, 100 + n - 2)):
            rows = [xs, ys, nstar, extra]
            halves, rest, npoints = _split_rows(f, rows, 100, nmax, "split")
            assert rows == []
            assert npoints == 100 + room * (n - 1)
            mids = 0.5 * (xs[:room, :-1] + xs[:room, 1:])
            want = (_doubled_windows(xs[:room], mids),
                    _doubled_windows(ys[:room], f(mids)),
                    np.repeat(nstar[:room], 2))
            for got, ref in zip(halves, want):
                assert got.shape == ref.shape
                assert np.array_equal(got.view(np.uint64),
                                      ref.view(np.uint64))
            for got, ref in zip(rest, (xs, ys, nstar, extra)):
                assert np.array_equal(got, ref[room:])


class TestPeakMemory:
    """tracemalloc peaks of one run, in units of one float64 array of the
    run's final point count."""

    @staticmethod
    def _traced_peak(solver, p):
        solver(p)
        tracemalloc.start()
        try:
            _, diag = solver(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * diag.n_points)

    def test_funappx(self):
        # 244,481 points.  In the last split the values' halves are built
        # next to the parent values, the new midpoint values and the
        # abscissae's halves; the cone check needs the grid and one
        # scratch array; the assembly frees each block once it is copied.
        # 3.11 measured; copies of the round's arrays, a doubled grid per
        # split and a diff per cone check made 8.15.
        p = IntervalProblem(f=lambda x: x**2, a=0, b=100, abstol=1e-7)
        assert self._traced_peak(funappx, p) < 4.0

    def test_integral(self):
        # 97,889 points in two grids, the second a refinement by k = 15.
        # The bound on the final grid holds the values, one scratch array,
        # a mask of it (1/8) and the abscissae of the coarse grid (1/k):
        # 2.13 measured.  A refinement by k holds at most the old grid
        # (2/k), the new points' values (1 - 1/k) and the new values (1).
        # Building the final grid's abscissae after each refinement made
        # 3.13, keeping the old abscissae through a doubling 3.50, and
        # separate slope, deviation and curvature arrays kept through it
        # 6.50
        p = IntervalProblem(f=lambda x: x**4, a=-0.9823, b=2.083,
                            abstol=1e-7)
        assert self._traced_peak(integral, p) < 2.5

    def test_funmin(self):
        # 53,875 points: 1.13 measured; copies of the candidate rows in
        # every round made 1.96
        p = IntervalProblem(f=lambda x: np.sin(5 * x), a=0, b=10,
                            abstol=1e-9)
        assert self._traced_peak(funmin, p) < 1.5


class TestEvalApprox:
    def test_midpoint(self):
        a = PiecewiseLinearApprox(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert eval_approx(a, 0.5) == 1.0

    def test_knot_bit_exact(self):
        knots = np.array([0.0, 0.3, 1.0])
        values = np.array([0.1, 0.7000000001, -0.2])
        a = PiecewiseLinearApprox(knots, values)
        out = eval_approx(a, knots)
        assert np.array_equal(out, values)

    def test_linear_extrapolation(self):
        a = PiecewiseLinearApprox(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert eval_approx(a, 1.5) == pytest.approx(3.0)
        assert eval_approx(a, -0.5) == pytest.approx(-1.0)

    def test_invalid_knots(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearApprox(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


class TestFunmin:
    def test_quadratic_default(self):
        r, diag = funmin(IntervalProblem(f=lambda x: (x - 0.3)**2 + 1))
        assert diag.exit_flags == 0
        assert abs(r.fmin - 1.0) <= 1e-6 or r.volumeX <= 1e-3
        assert any(lo <= 0.3 <= hi for lo, hi in r.intervals)
        assert r.fmin >= 1.0  # never undershoots the true minimum
        assert r.fmin - 1.0 <= r.errest

    def test_constant(self):
        r, diag = funmin(IntervalProblem(f=lambda x: np.full_like(x, 5.0)))
        assert r.fmin == 5.0
        assert r.intervals == [[0.0, 1.0]]
        assert r.volumeX == pytest.approx(1.0)

    def test_two_minimizers(self):
        r, diag = funmin(IntervalProblem(f=lambda x: np.cos(4 * np.pi * x)))
        assert diag.exit_flags == 0
        assert abs(r.fmin - (-1.0)) <= 1e-6
        hits = [any(lo <= t <= hi for lo, hi in r.intervals)
                for t in (0.25, 0.75)]
        assert all(hits)
        assert r.volumeX <= 1e-3 * len(r.intervals) + 1e-12 \
            or abs(r.fmin + 1.0) <= 1e-6

    def test_volume_is_total_length(self):
        r, _ = funmin(IntervalProblem(f=lambda x: np.cos(4 * np.pi * x)))
        total = sum(hi - lo for lo, hi in r.intervals)
        assert r.volumeX == pytest.approx(total)

    def test_budget_exit(self):
        p = IntervalProblem(f=lambda x: (x - 0.3)**2 + 1, abstol=1e-14,
                            budget=Budget(nmax=1000))
        r, diag = funmin(p, tolx=1e-14)
        assert diag.exit_flags == 1
        assert diag.n_evals == diag.n_points <= 1000
        assert any(lo <= 0.3 <= hi for lo, hi in r.intervals)

    def test_maxiter_exit(self):
        def problem(maxiter):
            return IntervalProblem(f=lambda x: np.sin(6 * x) + x**2, a=-1,
                                   b=2, abstol=1e-9,
                                   budget=Budget(maxiter=maxiter))
        best, free = funmin(problem(1000), tolx=1e-9)
        assert free.exit_flags == 0 and free.iterations > 3
        for maxiter in (1, 3):
            r, diag = funmin(problem(maxiter), tolx=1e-9)
            assert diag.exit_flags == 2
            assert diag.iterations == maxiter
            assert diag.n_points < free.n_points
            # the cut run sampled a prefix of the free run's abscissae
            assert r.fmin >= best.fmin
        # a run that finishes in its last allowed round raises no flag
        _, exact = funmin(problem(free.iterations), tolx=1e-9)
        assert exact.exit_flags == 0 and exact.n_points == free.n_points

    def test_tolx_rejected(self):
        with pytest.raises(ConfigurationError):
            funmin(IntervalProblem(f=lambda x: x), tolx=0.0)

    def test_unimodal_cone_members(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            center = rng.uniform(0.1, 0.9)
            scale = rng.uniform(0.5, 4.0)
            offset = rng.normal()
            f = lambda x, c=center, s=scale, o=offset: s * (x - c)**2 + o
            r, diag = funmin(IntervalProblem(f=f))
            assert diag.exit_flags == 0
            assert any(lo <= center <= hi for lo, hi in r.intervals)
            assert r.fmin - offset <= r.errest

    def test_abstol_monotonicity(self):
        f = lambda x: np.sin(7 * x) + 0.5 * x
        _, loose = funmin(IntervalProblem(f=f, abstol=2e-6), tolx=1e-9)
        _, tight = funmin(IntervalProblem(f=f, abstol=1e-6), tolx=1e-9)
        assert loose.n_points <= tight.n_points

    def test_guarantee_sweep(self):
        # on flag 0 the least value on a dense grid, plus every sampled
        # abscissa, lies in [fmin - errest, fmin], and its abscissa lies in
        # a reported interval
        rng = np.random.default_rng(20170101)
        for case in range(60):
            kind = case % 3
            a = rng.uniform(-3.0, 1.0)
            b = a + rng.uniform(0.5, 4.0)
            if kind == 0:
                a2, c, a0 = rng.uniform(0.2, 5.0), rng.uniform(a, b), rng.normal()
                f = lambda x, a2=a2, c=c, a0=a0: a2 * (x - c)**2 + a0
            elif kind == 1:
                w, phase = rng.uniform(1.0, 12.0), rng.uniform(0, 2 * np.pi)
                f = lambda x, w=w, ph=phase: np.sin(w * x + ph)
            else:
                c = rng.choice([-1, 1]) * rng.uniform(0.3, 2.0)
                f = lambda x, c=c: np.exp(c * x)
            abstol = 10 ** rng.uniform(-8, -5)
            seen = []

            def g(x, f=f):
                seen.append(x.copy())
                return f(x)

            r, diag = funmin(IntervalProblem(f=g, a=a, b=b, abstol=abstol),
                             tolx=1e-6)
            assert diag.exit_flags == 0
            grid = np.concatenate([np.linspace(a, b, 200_001)] + seen)
            vals = f(grid)
            at = int(np.argmin(vals))
            assert r.fmin - r.errest <= vals[at] <= r.fmin
            assert any(lo <= grid[at] <= hi for lo, hi in r.intervals)

    def test_shallow_basin_dropped(self):
        # minima near 0.25 and 0.75 differ by about 0.05: only the deeper
        # one may stay a candidate
        f = lambda x: np.cos(4 * np.pi * x) + 0.1 * x
        r, diag = funmin(IntervalProblem(f=f, abstol=1e-8), tolx=1e-9)
        grid = np.linspace(0, 1, 1_000_001)
        best = grid[np.argmin(f(grid))]
        assert diag.exit_flags == 0
        assert any(lo <= best <= hi for lo, hi in r.intervals)
        assert all(hi < 0.5 for lo, hi in r.intervals)
        assert r.volumeX < 0.01
        assert diag.errest <= 1e-8

    def test_each_abscissa_evaluated_once(self):
        seen = []
        g = lambda x: np.sin(6 * x) + x**2

        def f(x):
            seen.append(np.array(x))
            return g(x)

        r, diag = funmin(IntervalProblem(f=f, a=-1, b=2, abstol=1e-9),
                         tolx=1e-9)
        assert diag.iterations >= 3
        assert len(seen) == diag.iterations + 1
        for xs in seen:
            assert np.all(np.diff(xs) > 0)
        every = np.concatenate(seen)
        assert np.unique(every).size == every.size
        assert diag.n_evals == diag.n_points == every.size
        assert r.fmin == np.min(g(every))
        assert len(diag.extra["nstar"]) == diag.extra["n_subintervals"]
        assert "tau" not in diag.extra


def _merge_cells_loop(xs, mask):
    """Reference: walk the mask cell by cell."""
    intervals = []
    i = 0
    m = mask.size
    while i < m:
        if mask[i]:
            j = i
            while j + 1 < m and mask[j + 1]:
                j += 1
            intervals.append([float(xs[i]), float(xs[j + 1])])
            i = j + 1
        i += 1
    return intervals


class TestMergeCells:
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 64])
    def test_equals_loop(self, m):
        rng = np.random.default_rng(m)
        xs = np.sort(rng.uniform(-3.0, 5.0, m + 1))
        masks = [np.ones(m, bool), np.zeros(m, bool)]
        masks += [rng.random(m) < share for share in (0.1, 0.5, 0.9)
                  for _ in range(20)]
        edges = np.zeros(m, bool)
        edges[0] = edges[-1] = True
        masks.append(edges)
        for mask in masks:
            got = _merge_cells(xs, mask)
            assert got == _merge_cells_loop(xs, mask)
            assert all(type(v) is float for iv in got for v in iv)


class TestIntegral:
    def test_square(self):
        q, diag = integral(IntervalProblem(f=lambda x: x**2))
        assert diag.exit_flags == 0
        assert abs(q - 1 / 3) <= 1e-6
        assert diag.errest <= 1e-6
        # one subinterval, reported as funappx reports each of its own
        assert diag.extra["nstar"] == [diag.extra["ninit"] - 2]
        assert diag.extra["n_subintervals"] == 1
        assert "tau" not in diag.extra

    def test_linear_exact(self):
        q, diag = integral(IntervalProblem(f=lambda x: 2 * x + 1, a=0, b=2))
        assert diag.errest == 0.0
        assert q == pytest.approx(2.0 + 4.0, abs=1e-12)
        assert diag.iterations == 1

    def test_gaussian_piece(self):
        truth = math.sqrt(math.pi) / 2 * (erf(2.0) - erf(1.0))
        q, diag = integral(IntervalProblem(
            f=lambda x: np.exp(-x**2), a=1, b=2, abstol=1e-5,
            nlo=100, nhi=10000))
        assert abs(q - truth) <= 1e-5
        assert diag.extra["ninit"] == 1000

    def test_cost_bound_quadratics(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a2 = rng.uniform(0.2, 5.0)
            a, b = sorted(rng.uniform(-3, 3, size=2))
            if b - a < 0.5:
                b = a + 0.5
            abstol = 10 ** rng.uniform(-7, -4)
            q, diag = integral(IntervalProblem(
                f=lambda x, a2=a2: a2 * x**2, a=a, b=b, abstol=abstol))
            nstar, = diag.extra["nstar"]
            var_fprime = 2 * a2 * (b - a)  # integral of |f''|
            bound = math.sqrt(nstar * (b - a)**2 * var_fprime /
                              (2 * abstol)) + 2 * nstar + 4
            assert diag.exit_flags == 0
            assert diag.n_evals <= bound
            truth = a2 * (b**3 - a**3) / 3
            assert abs(q - truth) <= diag.errest <= abstol

    def test_abstol_monotonicity(self):
        f = lambda x: np.exp(x) * np.sin(3 * x)
        _, loose = integral(IntervalProblem(f=f, abstol=2e-6))
        _, tight = integral(IntervalProblem(f=f, abstol=1e-6))
        assert loose.n_points <= tight.n_points

    def test_budget_and_maxiter_exits(self):
        p = IntervalProblem(f=lambda x: np.sin(50 * x), a=0, b=6, abstol=1e-12,
                            budget=Budget(nmax=300))
        _, diag = integral(p)
        assert diag.exit_flags & 1
        p = IntervalProblem(f=lambda x: np.sin(50 * x), a=0, b=6, abstol=1e-12,
                            budget=Budget(maxiter=2))
        _, diag = integral(p)
        assert diag.exit_flags & 2

    # the integrand families of the benchmark's integral solves, with
    # their antiderivatives
    FAMILIES = [
        ("x^2", lambda x: x**2, lambda x: x**3 / 3),
        ("x^3", lambda x: x**3, lambda x: x**4 / 4),
        ("x^4", lambda x: x**4, lambda x: x**5 / 5),
        ("exp(1.0x)", lambda x: np.exp(x), np.exp),
        ("exp(1.25x)", lambda x: np.exp(1.25 * x),
         lambda x: np.exp(1.25 * x) / 1.25),
        ("exp(1.5x)", lambda x: np.exp(1.5 * x),
         lambda x: np.exp(1.5 * x) / 1.5),
        ("cos(1.5x)", lambda x: np.cos(1.5 * x),
         lambda x: np.sin(1.5 * x) / 1.5),
        ("cos(1.75x)", lambda x: np.cos(1.75 * x),
         lambda x: np.sin(1.75 * x) / 1.75),
        ("cos(2x)", lambda x: np.cos(2 * x), lambda x: np.sin(2 * x) / 2),
    ]

    @pytest.mark.parametrize("name, f, big_f", FAMILIES,
                             ids=[fam[0] for fam in FAMILIES])
    @pytest.mark.parametrize("a, b", [(-1.0, 2.0), (-1.1, 1.9), (-0.9, 2.1)])
    def test_families_in_few_grids(self, name, f, big_f, a, b):
        # a refinement sized from the first grid's bound meets abstol on
        # the next grid or the one after
        q, diag = integral(IntervalProblem(f=f, a=a, b=b, abstol=1e-7))
        assert diag.exit_flags == 0
        assert abs(q - (big_f(b) - big_f(a))) <= diag.errest <= 1e-7
        assert diag.iterations <= 3

    def test_refinement_is_least_k(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            v_hat, w_hat = 10 ** rng.uniform(-3, 3, size=2)
            if rng.random() < 0.2:
                v_hat = 0.0
            if rng.random() < 0.2:
                w_hat = 0.0
            length = rng.uniform(0.5, 5)
            cells = int(rng.integers(2, 1000))
            tau = int(rng.integers(1, 8 * cells)) / (2 * length)
            abstol = 10 ** rng.uniform(-12, -3)
            kmax = int(rng.integers(2, 10**5))
            k = _refinement(v_hat, w_hat, tau, length, cells, abstol, kmax)

            def meets(k):
                h = length / (cells * k)
                return _trapezoid_errest(v_hat, w_hat, tau, h) <= abstol

            assert 2 <= k <= kmax
            assert k == kmax or meets(k)
            assert k == 2 or not meets(k - 1)

    def test_budget_caps_the_jump(self):
        # the least grid that meets abstol has 2,064,113 points
        f = lambda x: np.exp(1.3 * x)
        for nmax in (5000, 10**6, 2_064_112):
            for maxiter, flags in ((1000, 1), (2, 3)):
                p = IntervalProblem(f=f, a=-1, b=2, abstol=1e-10,
                                    budget=Budget(nmax=nmax, maxiter=maxiter))
                _, diag = integral(p)
                cells = diag.extra["ninit"] - 1
                # one capped jump spends up to the budget; when it is also
                # the last round allowed, both limits bind
                assert diag.iterations == 2
                assert diag.n_evals == (nmax - 1) // cells * cells + 1
                assert diag.n_evals <= nmax
                assert diag.exit_flags == flags
                assert 1e-10 < diag.errest < math.inf

    def test_infinite_first_bound_jumps_to_a_finite_one(self):
        # slopes within the rounding floor of the secant but curvature
        # above it: v_hat is 0, nstar doubles until 1 - tau h / 2 <= 0,
        # and the first grid's bound is infinite
        eps = np.finfo(float).eps
        f = lambda x: 1.0 + 3 * eps * np.cos(10 * math.pi * x)
        for maxiter in (1, 2):
            p = IntervalProblem(f=f, a=0.0, b=1.0, abstol=1e-10, nlo=11,
                                nhi=11, budget=Budget(maxiter=maxiter))
            q, diag = integral(p)
            assert diag.extra["tauchange"]
            if maxiter == 1:
                assert diag.errest == math.inf
                assert diag.exit_flags == 2
            else:
                assert diag.exit_flags == 0
                assert diag.errest <= 1e-10
                assert abs(q - 1.0) <= 1e-10

    @pytest.mark.parametrize("abstol", [1e-4, 1e-7, 1e-10])
    def test_one_call_per_round_reusing_values(self, abstol):
        calls = []

        def f(x):
            # impure on purpose: a value computed again would differ
            y = np.exp(1.3 * x) + len(calls) * 1e-3
            calls.append((x.copy(), y))
            return y

        q, diag = integral(IntervalProblem(f=f, a=-1, b=2, abstol=abstol))
        assert len(calls) == diag.iterations
        assert sum(x.size for x, _ in calls) == diag.n_evals
        xs, ys = calls[0]
        assert np.array_equal(xs, np.linspace(-1, 2, xs.size))
        for new_x, new_y in calls[1:]:
            assert np.all(np.diff(new_x) > 0)
            k = new_x.size // (xs.size - 1) + 1
            assert new_x.size == (xs.size - 1) * (k - 1)
            step = (xs[1:] - xs[:-1]) / k
            expect = xs[:-1, None] + np.arange(1, k) * step[:, None]
            assert np.array_equal(new_x, expect.ravel())
            grid = np.empty((2, (xs.size - 1) * k + 1))
            for out, old, new in zip(grid, (xs, ys), (new_x, new_y)):
                cells = out[:-1].reshape(-1, k)
                cells[:, 0], cells[:, 1:] = old[:-1], new.reshape(-1, k - 1)
                out[-1] = old[-1]
            xs, ys = grid
        assert diag.n_points == xs.size
        # q is the trapezoidal sum of exactly the values f returned
        h = 3.0 / (xs.size - 1)
        total = fsum_partials([float(np.sum(ys[lo:lo + _SUM_CHUNK]))
                               for lo in range(0, ys.size, _SUM_CHUNK)])
        assert q == h * (total - 0.5 * (ys[0] + ys[-1]))

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            IntervalProblem(f=lambda x: x, a=1.0, b=1.0)
        with pytest.raises(ConfigurationError):
            IntervalProblem(f=lambda x: x, a=0.0, b=np.inf)
