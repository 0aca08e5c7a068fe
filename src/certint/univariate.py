"""Guaranteed univariate algorithms on a finite interval [a, b].

Three adaptive solvers share the same data-driven machinery:

* :func:`funappx` -- locally adaptive piecewise-linear approximation.
  Each subinterval carries its own uniform grid of ``ninit`` points and
  its own cone constant; a subinterval is certified once its estimated
  sup-norm interpolation error falls below ``abstol``, and is otherwise
  split at its midpoint.  A split adds the midpoints of the parent's
  cells, so each half is half of the parent's knots plus new points, and
  every abscissa is evaluated once.  The subintervals of one round are
  (k, ``ninit``) arrays, checked and split together.
* :func:`funmin` -- global minimum value plus the subset of [a, b]
  certified to contain every global minimizer, on the same subinterval
  rows.  A row whose cells all lie, by its cone bound, at least
  ``abstol`` above the best sampled value cannot hold a minimizer and is
  dropped; only the rest are split, until every remaining row's bound is
  within ``abstol`` or their total candidate length is within ``tolx``.
* :func:`integral` -- adaptive trapezoidal quadrature on nested uniform
  grids.  A grid whose error bound misses ``abstol`` is refined by the
  least factor k >= 2 at which the same bound, from the same data,
  meets it at spacing h / k.

Each solver holds only what its next step reads.  A split writes the two
halves of each row straight from the parent's knots and cell midpoints,
and each parent is freed once its halves are written; rows that are all
pending or all finished pass on uncopied; one scratch array serves each
check's differences; :func:`funappx` frees each finished block once it
is copied into the knots or the values; and :func:`integral` writes
each refined grid in place, freeing each old array once it is copied.
In units of one float64 array of the run's final point count, the
traced peak is about 3.1 for :func:`funappx` (x^2 on [0, 100] at
``abstol`` 1e-7), 2.1 for :func:`integral` (the bound on its final grid:
the values, one scratch array and the coarser grid's abscissae; x^4 on
[-0.9823, 2.083] at 1e-7) and 1.1 for :func:`funmin` (sin 5x on [0, 10]
at 1e-9).

All three compute their error estimates from centered second differences
and the deviation of local slopes from the secant slope; when the sampled
data contradict the assumed cone inequality, the cone constant (``nstar``)
is doubled before any new points are spent.  The estimates are upper
bounds for every function inside the cone, which is what the guarantee
tests exercise.  This is the local adaption of Choi, Ding, Hickernell &
Tong (2017), "Local adaption for approximation and minimization of
univariate functions".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (Budget, SolverDiagnostics, callback_values, chunk_sum,
                   fsum_partials)
from .errors import ConfigurationError

__all__ = [
    "IntervalProblem",
    "PiecewiseLinearApprox",
    "MinimizerResult",
    "ninit_rule",
    "funappx",
    "eval_approx",
    "funmin",
    "integral",
]

_MAX_CONE_DOUBLINGS = 64

# integral sums its grid in slices of this many values
_SUM_CHUNK = 1 << 15


@dataclass(frozen=True)
class IntervalProblem:
    """A univariate problem: batched callback ``f`` on [a, b] with budgets.

    ``f`` must accept a 1-d ndarray of abscissae and return one value for
    each, as the callback contract of :mod:`certint.core` reads them; it
    is assumed pure.  The solvers call it once per round, with all of that
    round's new abscissae in ascending order: the new midpoints for
    :func:`funappx` and :func:`funmin`, the points that refine the grid
    for :func:`integral`.
    """

    f: Callable[[np.ndarray], np.ndarray]
    a: float = 0.0
    b: float = 1.0
    abstol: float = 1e-6
    nlo: int = 10
    nhi: int = 1000
    budget: Budget = field(default_factory=Budget)

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ConfigurationError(
                f"interval must be finite with a < b, got [{self.a}, {self.b}]"
            )
        if not (self.abstol > 0):
            raise ConfigurationError("abstol must be positive")
        if not (3 <= self.nlo <= self.nhi):
            raise ConfigurationError("need 3 <= nlo <= nhi")


@dataclass(frozen=True)
class PiecewiseLinearApprox:
    """Linear interpolant through (knots, values), extended linearly outside."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.shape != v.shape or k.size < 2:
            raise ConfigurationError("knots/values must be equal-length 1-d, size >= 2")
        if not np.all(k[1:] > k[:-1]):
            raise ConfigurationError("knots must be strictly increasing")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def __call__(self, xs) -> np.ndarray:
        return eval_approx(self, xs)


@dataclass(frozen=True)
class MinimizerResult:
    """Certified minimum value and the region containing all minimizers."""

    fmin: float
    volumeX: float
    intervals: list
    errest: float


def ninit_rule(nlo: int, nhi: int, a: float, b: float) -> int:
    """Initial point count interpolating between nlo and nhi by length.

    ceil(nhi * (nlo/nhi)^(1/(1+(b-a)))), clamped to [nlo, nhi] and >= 3.
    """
    if not (3 <= nlo <= nhi):
        raise ConfigurationError("need 3 <= nlo <= nhi")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ConfigurationError("need finite a < b")
    raw = math.ceil(nhi * (nlo / nhi) ** (1.0 / (1.0 + (b - a))))
    return max(3, min(max(raw, nlo), nhi))


def _call_f(f, xs: np.ndarray, what: str) -> np.ndarray:
    """``f`` at the 1-d abscissae ``xs``, checked as one chunk by the
    callback contract of :mod:`certint.core`."""
    ys = callback_values(f(xs), xs.size, what)
    chunk_sum(ys, what)
    return ys


# ---------------------------------------------------------------------------
# funappx: locally adaptive piecewise-linear approximation
# ---------------------------------------------------------------------------

# The centered second difference smooths true curvature by O((w h)^2) for
# oscillation scale w; this inflation keeps errest an upper bound once the
# grid resolves f'', which is the regime in which the solver stops.
_CURVATURE_INFLATION = 1.1


def _cone_rows(xs, ys, nstar):
    """Cone check and curvature bounds of each row of a (..., n) grid.

    Each row is a uniform grid on [row[0], row[-1]] with its own cone
    constant in ``nstar``.  Returns ``(nstar, violated, big_f, f_cone, h)``:
    ``nstar`` doubled, row by row, until the row's data satisfy the cone
    inequality; ``violated`` marks the rows that had to double; ``big_f``
    is the largest centered second difference over h^2; ``f_cone`` =
    max(cone cap, ``big_f``) bounds ||f''|| on the row for every function
    in the cone; ``h`` is the row spacing.  One scratch array of the
    grid's size holds the second differences, then the steps.
    """
    length = xs[..., -1] - xs[..., 0]
    h = length / (xs.shape[-1] - 1)
    work = np.empty(ys.shape[:-1] + (ys.shape[-1] - 1,))
    second = np.multiply(ys[..., 1:-1], 2.0, out=work[..., :-1])
    np.subtract(ys[..., :-2], second, out=second)
    second += ys[..., 2:]
    big_f = np.max(np.abs(second, out=second), axis=-1) / (h * h)
    # max |slope - secant| sits at the steepest or the flattest step;
    # rounding is monotone, so this equals the elementwise maximum
    steps = np.subtract(ys[..., 1:], ys[..., :-1], out=work)
    secant = (ys[..., -1] - ys[..., 0]) / length
    v = np.maximum(np.abs(np.max(steps, axis=-1) / h - secant),
                   np.abs(secant - np.min(steps, axis=-1) / h))
    # data version of the cone inequality ||f''|| <= (2 nstar / len) v,
    # with the slope deviation corrected for what sampling can hide
    lhs = big_f * length
    slack = v + 0.5 * h * big_f
    violated = lhs > 2.0 * nstar * slack
    nstar = nstar.copy()
    short = violated
    for _ in range(_MAX_CONE_DOUBLINGS):
        if not short.any():
            break
        nstar[short] *= 2
        short = short & ~(lhs <= 2.0 * nstar * slack)
    cone_cap = 2.0 * nstar * slack / length
    return nstar, violated, big_f, np.maximum(cone_cap, big_f), h


def _midpoints(xs):
    """The cell midpoints of each row of a (..., n) grid."""
    mids = xs[..., :-1] + xs[..., 1:]
    mids *= 0.5
    return mids


def _halves(knots, mids):
    """The two halves of each row of a (k, n) grid, as (2k, n) rows.

    Row i's doubled grid interleaves its knots and its cell ``mids``; its
    halves are that grid's n points from offset 0 and from offset n - 1,
    written here straight from the knots and the midpoints.
    """
    k, n = knots.shape
    out = np.empty((k, 2, n))
    out[:, 0, 0::2] = knots[:, :(n + 1) // 2]
    out[:, 0, 1::2] = mids[:, :n // 2]
    out[:, 1, (n + 1) % 2::2] = knots[:, n // 2:]
    out[:, 1, n % 2::2] = mids[:, (n - 1) // 2:]
    return out.reshape(2 * k, n)


def _split_rows(f, rows, npoints, nmax, what):
    """Split the leftmost rows that the point budget ``nmax`` pays for.

    ``rows`` is a list of per-row arrays ordered by left end: the (k, n)
    abscissae and values of uniform grids, their cone constants, then
    whatever else the caller keeps per row.  The list is emptied, so that
    when it holds the only references, each parent grid is freed as soon
    as its halves are written.  A split row becomes two rows of n points,
    its knots plus its cell midpoints, which inherit its cone constant;
    ``f`` gets every new midpoint in one call, in ascending order, so no
    abscissa is evaluated twice.  Returns ``(halves, rest, npoints)``: the
    (xs, ys, nstar) of the halves, left to right; every array of ``rows``
    cut to the rows the budget left unsplit; and the new point count.
    ``f`` is not called when no row fits.
    """
    k, n = rows[0].shape
    room = min(max((nmax - npoints) // (n - 1), 0), k)
    # an empty view would keep its parent alive
    rest = tuple(a[room:] if room < k else np.empty((0,) + a.shape[1:])
                 for a in rows)
    xs, ys, nstar = (a[:room] for a in rows[:3])
    rows.clear()
    if not room:
        return (xs, ys, nstar), rest, npoints
    npoints += room * (n - 1)
    mids = _midpoints(xs)
    ymid = _call_f(f, mids.ravel(), what).reshape(mids.shape)
    xs = _halves(xs, mids)
    del mids
    ys = _halves(ys, ymid)
    return (xs, ys, np.repeat(nstar, 2)), rest, npoints


def _take(arrays, mask):
    """The rows of each array where ``mask`` holds; the arrays themselves,
    uncopied, when it holds everywhere."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def _join(first, second):
    """Row-wise concatenation of two tuples of per-row arrays; either one,
    uncopied, when the other has no rows."""
    if not first[0].shape[0]:
        return second
    if not second[0].shape[0]:
        return first
    return tuple(np.concatenate(pair) for pair in zip(first, second))


def _place(blocks, rank, npoints, last):
    """One array of ``npoints``: the rows of ``blocks`` less their last
    point, at their ``rank`` by left end, then ``last``.  ``blocks`` is a
    list, emptied as it is read, so that each block is freed once it is
    copied."""
    out = np.empty(npoints)
    out[-1] = last
    rows = out[:-1].reshape(rank.size, -1)
    start = 0
    while blocks:
        block = blocks.pop(0)
        rows[rank[start:start + block.shape[0]]] = block[:, :-1]
        start += block.shape[0]
    return out


def funappx(p: IntervalProblem):
    """Locally adaptive linear-spline approximation of ``p.f`` on [a, b].

    Every subinterval is a uniform grid of ``ninit`` points with its own
    cone constant ``nstar``.  A round splits each pending subinterval
    (errest above ``abstol``, or ``nstar`` just doubled) into two halves
    of ``ninit`` points: the parent's knots plus its cell midpoints.
    ``p.f`` is called once per round, with all of that round's new
    midpoints in ascending order, so no abscissa is evaluated twice and
    ``n_evals == n_points``.  When the point budget cannot pay for every
    pending split, only the leftmost ones that fit are made.

    Returns ``(approx, diagnostics)``.  Exit flag bit 1 (value 1) marks an
    exhausted point budget, bit 2 (value 2) an exhausted iteration budget;
    in both cases the approximant is still returned and ``errest`` reports
    the bound actually achieved.
    """
    t_start = time.perf_counter()
    ninit = ninit_rule(p.nlo, p.nhi, p.a, p.b)
    nstar0 = ninit - 2
    xs = np.linspace(p.a, p.b, ninit)[None, :]
    ys = _call_f(p.f, xs[0], "funappx")[None, :]
    b_end = xs[0, -1], ys[0, -1]     # every split keeps the last knot
    # a float64 nstar stays exact: it starts as an integer and only doubles
    rows = (xs, ys, np.array([float(nstar0)]))
    final = []      # (xs, ys, nstar, errest) blocks of finished subintervals
    npoints = ninit
    exit_flags = 0
    iters = 0
    cut = False     # the point budget stopped the last round's splits

    while True:
        nstar, violated, big_f, f_cone, h = _cone_rows(*rows)
        # absent a violation big_f <= f_cone, so the cone can shave at most
        # the inflation and never undercuts the data bound
        errest = np.minimum(_CURVATURE_INFLATION * big_f, f_cone) * h * h / 8.0
        pending = (violated | (errest > p.abstol)) & (not cut)
        if pending.any() and iters >= p.budget.maxiter:
            exit_flags |= 2
            pending[...] = False
        rows = rows[:2] + (nstar, errest)
        if not pending.all():
            final.append(_take(rows, ~pending))
        if not pending.any():
            break
        iters += 1
        todo = list(_take(rows, pending))
        rows = None     # the split frees each parent once it is halved
        rows, rest, npoints = _split_rows(p.f, todo, npoints, p.budget.nmax,
                                          "funappx")
        if rest[0].shape[0]:
            exit_flags |= 1
            cut = True
            final.append(rest)
            if not rows[0].shape[0]:
                break
    del rows

    # the blocks interleave in x: put every row at its rank by left end
    x0 = np.concatenate([block[0][:, 0] for block in final])
    rank = np.empty(x0.size, dtype=np.intp)
    rank[np.argsort(x0)] = np.arange(x0.size)
    nstar = np.empty(x0.size)
    nstar[rank] = np.concatenate([block[2] for block in final])
    errest = float(np.concatenate([block[3] for block in final]).max())
    xs_blocks = [block[0] for block in final]
    ys_blocks = [block[1] for block in final]
    del final
    knots = _place(xs_blocks, rank, npoints, b_end[0])
    values = _place(ys_blocks, rank, npoints, b_end[1])
    diag = SolverDiagnostics(
        algorithm="funappx",
        n_evals=npoints,
        n_points=npoints,
        iterations=iters,
        errest=errest,
        exit_flags=exit_flags,
        elapsed_seconds=time.perf_counter() - t_start,
        extra={
            "ninit": ninit,
            "nstar": [int(c) for c in nstar.tolist()],
            "tauchange": bool(np.any(nstar != nstar0)),
            "n_subintervals": x0.size,
            "abstol": p.abstol,
        },
    )
    return PiecewiseLinearApprox(knots, values), diag


def eval_approx(approx: PiecewiseLinearApprox, xs) -> np.ndarray:
    """Evaluate the interpolant; knots reproduce stored values bit-exactly
    and points outside [a, b] extrapolate along the end segments."""
    x = np.asarray(xs, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    k, v = approx.knots, approx.values
    idx = np.clip(np.searchsorted(k, x, side="right") - 1, 0, k.size - 2)
    slope = (v[idx + 1] - v[idx]) / (k[idx + 1] - k[idx])
    out = v[idx] + (x - k[idx]) * slope
    # exact hits on knots bypass the arithmetic above
    pos = np.searchsorted(k, x)
    hit = (pos < k.size) & (k[np.minimum(pos, k.size - 1)] == x)
    out[hit] = v[pos[hit]]
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# funmin: guaranteed global minimization
# ---------------------------------------------------------------------------

def funmin(p: IntervalProblem, tolx: float = 1e-3):
    """Global minimum of ``p.f`` on [a, b] with a certified error bound.

    Runs on ``funappx``'s subinterval rows: each row is a uniform grid of
    ``ninit`` points with its own cone constant ``nstar``.  A row's dip
    is its cone bound max(cone cap, data curvature) h^2 / 8, which bounds
    how far ``p.f`` can fall below the lower end of a cell for every
    function in the cone.  ``upper`` is the least value sampled so far; a
    cell is a candidate when min(y_i, y_i+1) - dip < upper + abstol.  A
    row with no candidate cell cannot hold a minimizer and is dropped for
    good, since ``upper`` only falls; a candidate row is pending when its
    cone was violated or its dip exceeds ``abstol``.

    The run stops with flag 0 when no row is pending, or when the total
    length of the candidate cells (``volumeX``) is at most ``tolx``.
    Otherwise each round splits the pending rows as ``funappx`` does, with
    one call of ``p.f`` for all new midpoints, so ``n_evals == n_points``
    and ``iterations`` counts the rounds.  When the point budget cannot pay
    for every split, only the leftmost ones that fit are made and the run
    stops with exit flag 1.  A run that still has pending rows after
    ``p.budget.maxiter`` rounds stops with exit flag 2.

    Returns ``(MinimizerResult, diagnostics)``: ``fmin`` is ``upper``,
    ``errest`` the largest dip over the candidate rows, and ``intervals``
    the merged candidate cells, checked against the final ``upper``.
    """
    if not (tolx > 0):
        raise ConfigurationError("tolx must be positive")
    t_start = time.perf_counter()
    ninit = ninit_rule(p.nlo, p.nhi, p.a, p.b)
    xs = np.linspace(p.a, p.b, ninit)[None, :]
    fresh = (xs, _call_f(p.f, xs[0], "funmin")[None, :],
             np.array([float(ninit - 2)]))
    # the candidate rows left unsplit, as (xs, ys, nstar, dip); a row's dip
    # is settled once it is checked, because only pending rows change, by
    # splitting
    held = (np.empty((0, ninit)), np.empty((0, ninit)), np.empty(0),
            np.empty(0))
    upper = np.inf
    npoints = ninit
    exit_flags = 0
    iters = 0
    tauchange = False
    cut = False     # the point budget stopped the last round's splits

    while True:
        nstar, violated, _, f_cone, h = _cone_rows(*fresh)
        dip = f_cone * h * h / 8.0
        tauchange |= bool(violated.any())
        upper = min(upper, float(fresh[1].min()))
        pending = np.concatenate((np.zeros(held[0].shape[0], dtype=bool),
                                  violated | (dip > p.abstol)))
        rows = _join(held, fresh[:2] + (nstar, dip))
        held = fresh = None
        gap = np.minimum(rows[1][:, :-1], rows[1][:, 1:])
        gap -= rows[3][:, None]
        cells = gap < upper + p.abstol
        del gap
        live = cells.any(axis=1)
        rows = _take(rows, live)
        cells, pending = _take((cells, pending), live)
        widths = (rows[0][:, -1] - rows[0][:, 0]) / (ninit - 1)
        volume_x = float(widths @ cells.sum(axis=1))
        if cut or volume_x <= tolx or not pending.any():
            break
        if iters >= p.budget.maxiter:
            exit_flags |= 2
            break
        iters += 1
        if npoints + ninit - 1 > p.budget.nmax:
            exit_flags |= 1     # the budget pays for no split
            break
        held = _take(rows, ~pending)
        todo = list(_take(rows, pending))
        rows = cells = None     # the split frees each parent once it is halved
        fresh, rest, npoints = _split_rows(p.f, todo, npoints, p.budget.nmax,
                                           "funmin")
        if rest[0].shape[0]:
            exit_flags |= 1
            cut = True
            held = _join(held, rest)

    order = np.argsort(rows[0][:, 0])
    xs, cells = rows[0][order], cells[order]
    # a zero-length junction cell joins touching candidate cells of
    # neighbouring rows into one interval
    joined = cells[:-1, -1] & cells[1:, 0] & (xs[:-1, -1] == xs[1:, 0])
    mask = np.concatenate((cells, np.append(joined, False)[:, None]),
                          axis=1).ravel()[:-1]
    intervals = _merge_cells(xs.ravel(), mask)
    errest = float(rows[3].max())
    result = MinimizerResult(
        fmin=upper,
        volumeX=volume_x,
        intervals=intervals,
        errest=errest,
    )
    diag = SolverDiagnostics(
        algorithm="funmin",
        n_evals=npoints,
        n_points=npoints,
        iterations=iters,
        errest=errest,
        exit_flags=exit_flags,
        elapsed_seconds=time.perf_counter() - t_start,
        extra={
            "ninit": ninit,
            "nstar": [int(c) for c in rows[2][order].tolist()],
            "tauchange": tauchange,
            "n_subintervals": int(order.size),
            "volumeX": volume_x,
            "intervals": [list(iv) for iv in intervals],
            "abstol": p.abstol,
            "tolx": tolx,
        },
    )
    return result, diag


def _merge_cells(xs: np.ndarray, mask: np.ndarray) -> list:
    """Merge adjacent flagged cells [x_i, x_i+1] into disjoint intervals."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    starts = xs[np.flatnonzero(edges == 1)].tolist()
    ends = xs[np.flatnonzero(edges == -1)].tolist()
    return [[lo, hi] for lo, hi in zip(starts, ends)]


# ---------------------------------------------------------------------------
# integral: adaptive trapezoidal quadrature
# ---------------------------------------------------------------------------

def _trapezoid_errest(v_hat, w_hat, tau_tilde, h):
    """The cone bound max(tau v_hat / (1 - tau h / 2), w_hat) h^2 / 12 on
    the trapezoidal error at spacing h; infinite where 1 - tau h / 2 is
    not positive."""
    denom = 1.0 - 0.5 * tau_tilde * h
    v_bound = tau_tilde * v_hat / denom if denom > 0 else np.inf
    return max(v_bound, w_hat) * h * h / 12.0


def _refinement(v_hat, w_hat, tau_tilde, length, cells, abstol, kmax):
    """The least k >= 2 whose grid of ``cells * k`` cells meets ``abstol``
    by :func:`_trapezoid_errest` on this grid's data, capped at ``kmax``.

    The largest spacing that meets it is the positive root of
    tau v_hat h^2 = 12 abstol (1 - tau h / 2), or sqrt(12 abstol / w_hat)
    if that is smaller; k starts at the ceiling of the ratio of the
    spacings and is stepped to the least k the rounded bound accepts.
    """
    def meets(k):
        h = length / (cells * k)
        return _trapezoid_errest(v_hat, w_hat, tau_tilde, h) <= abstol

    a_tau = 6.0 * abstol * tau_tilde
    h_star = 24.0 * abstol / (
        a_tau + math.hypot(a_tau, math.sqrt(48.0 * tau_tilde * v_hat * abstol)))
    if w_hat > 0:
        h_star = min(h_star, math.sqrt(12.0 * abstol / w_hat))
    ratio = length / cells / h_star
    k = max(2, math.ceil(ratio)) if ratio < kmax else kmax
    while k < kmax and not meets(k):
        k += 1
    while k > 2 and meets(k - 1):
        k -= 1
    return k


def _subdivide(xs, k, out):
    """Write x_i + j (x_i+1 - x_i) / k for j = 1, ..., k - 1 into row i
    of the (n - 1, k - 1) array ``out``."""
    step = out[:, 0]
    np.subtract(xs[1:], xs[:-1], out=step)
    step /= k
    np.multiply(step[:, None], np.arange(2.0, k), out=out[:, 1:])
    out += xs[:-1, None]


def _nested(coarse, k, fine=None):
    """The grid of (n - 1) k + 1 points that holds the n points of
    ``coarse`` at every k-th position and, between them, the (n - 1) (k -
    1) points of ``fine``, or the abscissae of :func:`_subdivide` when
    ``fine`` is None."""
    out = np.empty((coarse.size - 1) * k + 1)
    cells = out[:-1].reshape(-1, k)
    cells[:, 0] = coarse[:-1]
    out[-1] = coarse[-1]
    if fine is None:
        _subdivide(coarse, k, cells[:, 1:])
    else:
        cells[:, 1:] = fine.reshape(-1, k - 1)
    return out


def integral(p: IntervalProblem):
    """Adaptive trapezoidal integration of ``p.f`` over [a, b].

    Each round bounds the error of the trapezoidal rule on its uniform
    grid of n points by the cone bound max(tau v_hat / (1 - tau h / 2),
    w_hat) h^2 / 12, with tau = nstar / (2 (b - a)).  ``nstar`` doubles
    (and ``tauchange`` is set) whenever the sampled data contradict the
    cone inequality, before any further points are spent.  A round whose
    bound misses ``abstol`` refines the grid by the least integer k >= 2
    at which the same bound, from the same v_hat, w_hat and tau at
    spacing h / k, meets it: the next grid has (n - 1) k + 1 points, the
    old ones at every k-th position with their values reused, and ``p.f``
    gets the new abscissae x_i + j (x_i+1 - x_i) / k in one call, in
    ascending order.  k is capped at (nmax - 1) // (n - 1), so a capped
    round spends up to the point budget.

    Returns ``(q, diagnostics)``; ``iterations`` counts the grids.  Exit
    flag bit 1 (value 1) marks a point budget that cannot pay for a
    refinement by 2, bit 2 (value 2) the iteration cap; when both bind
    in the same round, both bits are set (value 3).  The grid is one
    subinterval, so ``extra.nstar`` is a one-entry list, as ``funappx``
    reports one entry per subinterval.  The sum of the values in ``q`` is
    ``math.fsum`` of the :func:`~certint.core.chunk_sum` of each slice of
    ``_SUM_CHUNK`` values.
    """
    t_start = time.perf_counter()
    ninit = ninit_rule(p.nlo, p.nhi, p.a, p.b)
    nstar = ninit - 2
    tauchange = False
    length = p.b - p.a

    # the abscissae of the grid refined by ``k_xs``: the bound reads only
    # the values and h, so the grid's own abscissae are built only when
    # another refinement needs them
    xs = np.linspace(p.a, p.b, ninit)
    k_xs = 1
    ys = _call_f(p.f, xs, "integral")
    exit_flags = 0
    iters = 1

    while True:
        n = ys.size
        h = length / (n - 1)
        secant = (ys[-1] - ys[0]) / length
        # slope data below the rounding floor is measurement noise, not
        # curvature; snapping it keeps exactly-integrable cases at errest 0
        y_max = max(float(np.max(ys)), -float(np.min(ys)))
        noise = 8.0 * np.finfo(float).eps * y_max / h
        # one scratch array holds the slopes, then their differences (the
        # curvature), then the slopes again, less the secant (the deviation)
        work = np.subtract(ys[1:], ys[:-1])
        work /= h
        curv = np.subtract(work[1:], work[:-1], out=work[:-1])
        np.abs(curv, out=curv)
        curv[curv <= noise] = 0.0
        w_hat = float(np.sum(curv))
        dev = np.subtract(ys[1:], ys[:-1], out=work)
        dev /= h
        dev -= secant
        np.abs(dev, out=dev)
        dev[dev <= noise] = 0.0
        v_hat = h * float(np.sum(dev))
        del work, curv, dev
        for _ in range(_MAX_CONE_DOUBLINGS):
            if w_hat <= (nstar / (2.0 * length)) * (v_hat + 0.5 * h * w_hat):
                break
            nstar *= 2
            tauchange = True

        tau_tilde = nstar / (2.0 * length)
        errest = _trapezoid_errest(v_hat, w_hat, tau_tilde, h)
        total = fsum_partials([chunk_sum(ys[lo:lo + _SUM_CHUNK], "integral")
                               for lo in range(0, n, _SUM_CHUNK)])
        q = h * (total - 0.5 * (ys[0] + ys[-1]))

        if errest <= p.abstol:
            break
        kmax = (p.budget.nmax - 1) // (n - 1)
        if kmax < 2:
            exit_flags |= 1
        if iters >= p.budget.maxiter:
            exit_flags |= 2
        if exit_flags:
            break
        iters += 1
        k = _refinement(v_hat, w_hat, tau_tilde, length, n - 1, p.abstol,
                        kmax)
        # the grid's abscissae, the new abscissae, their values, then the
        # nested values, each old array freed once it is copied; the new
        # abscissae are computed again, from xs and k, when they are needed
        if k_xs > 1:
            xs = _nested(xs, k_xs)
        fresh = np.empty((n - 1, k - 1))
        _subdivide(xs, k, fresh)
        fresh = _call_f(p.f, fresh.ravel(), "integral")
        ys = _nested(ys, k, fresh)
        del fresh
        k_xs = k

    diag = SolverDiagnostics(
        algorithm="integral",
        n_evals=ys.size,
        n_points=ys.size,
        iterations=iters,
        errest=float(errest) if np.isfinite(errest) else float("inf"),
        exit_flags=exit_flags,
        elapsed_seconds=time.perf_counter() - t_start,
        extra={
            "ninit": ninit,
            "nstar": [nstar],
            "tauchange": tauchange,
            "n_subintervals": 1,
            "abstol": p.abstol,
        },
    )
    return float(q), diag
