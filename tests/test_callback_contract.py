"""The callback contract of ``certint.core``, held by all eight solvers
alike: the value count, the NaN/Inf scan and the accepted shapes."""

import math

import numpy as np
import pytest

from certint import (
    EvaluationError,
    Hyperbox,
    IntervalProblem,
    McParams,
    QmcParams,
    RngStream,
    ToleranceSpec,
    cub_lattice,
    cub_mc,
    cub_sobol,
    funappx,
    funmin,
    integral,
    mean_mc,
    mean_mc_ber,
)

INTERVAL = {"a": 0.0, "b": 2.0, "abstol": 1e-6}
BOX = Hyperbox([0.0, 0.0], [1.0, 1.0])
MC = McParams(tol=ToleranceSpec(2e-3, 0.0))
# the tolerance is out of reach, so every level up to mmax is evaluated
QMC = QmcParams(tol=ToleranceSpec(1e-9, 0.0), mmin=4, mmax=7)


def _wave(x):
    return np.sin(3.0 * x) + 0.5 * x


def _square(n, gen):
    return gen.random(n) ** 2


def _coin(n, gen):
    return (gen.random(n) < 0.3).astype(float)


def _bump(x):
    return np.exp(x[:, 0] - x[:, 1] ** 2)


def _funappx(f):
    approx, diag = funappx(IntervalProblem(f=f, **INTERVAL))
    return [v.hex() for v in approx.values.tolist()], diag.n_evals


def _funmin(f):
    result, diag = funmin(IntervalProblem(f=f, **INTERVAL))
    return result.fmin.hex(), diag.n_evals


def _integral(f):
    q, diag = integral(IntervalProblem(f=f, **INTERVAL))
    return q.hex(), diag.n_evals


def _mean_mc(y):
    hmu, diag = mean_mc(y, MC, RngStream(3))
    return hmu.hex(), diag.n_evals


def _mean_mc_ber(y):
    # 105,966 draws, taken in two chunks
    p_hat, diag = mean_mc_ber(y, abstol=5e-3, rng=RngStream(3))
    return p_hat.hex(), diag.n_evals


def _cub_mc(f):
    q, diag = cub_mc(f, BOX, MC, RngStream(3))
    return q.hex(), diag.n_evals


def _cub_lattice(f):
    res = cub_lattice(f, BOX, QMC, RngStream(3))
    return res.q.hex(), res.n


def _cub_sobol(f):
    res = cub_sobol(f, BOX, QMC, RngStream(3))
    return res.q.hex(), res.n


SOLVERS = [pytest.param(name, run, base, id=name) for name, run, base in (
    ("funappx", _funappx, _wave),
    ("funmin", _funmin, _wave),
    ("integral", _integral, _wave),
    ("mean_mc", _mean_mc, _square),
    ("mean_mc_ber", _mean_mc_ber, _coin),
    ("cub_mc", _cub_mc, _bump),
    ("cub_lattice", _cub_lattice, _bump),
    ("cub_sobol", _cub_sobol, _bump),
)]


class _Callback:
    """``base``, whose values at call number ``call`` lose their last entry
    (``"short"``) or have it set to NaN (``"nan"``), or whose values all
    come as an (n, 1) column (``"column"``)."""

    def __init__(self, base, how, call=1):
        self.base, self.how, self.call = base, how, call
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        vals = np.array(self.base(*args), dtype=float)
        if self.how == "column":
            return vals[:, None]
        if self.calls == self.call:
            if self.how == "short":
                return vals[:-1]
            vals[-1] = math.nan
        return vals


@pytest.mark.parametrize("name, run, base", SOLVERS)
def test_wrong_count_names_the_solver(name, run, base):
    with pytest.raises(EvaluationError, match=f"^{name}: callback returned "
                                              r"\d+ values, wanted \d+$"):
        run(_Callback(base, "short"))


@pytest.mark.parametrize("name, run, base", SOLVERS)
def test_nan_in_a_later_chunk(name, run, base):
    f = _Callback(base, "nan", call=2)
    with pytest.raises(EvaluationError, match="callback returned NaN or Inf"):
        run(f)
    assert f.calls == 2


@pytest.mark.parametrize("name, run, base", SOLVERS)
def test_column_gives_the_same_bits(name, run, base):
    assert run(_Callback(base, "column")) == run(base)
