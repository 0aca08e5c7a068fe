"""The library surface the benchmark in ``perfbench/`` relies on.

The benchmark is read, never edited: its tracer must still find every
name it wraps, and its cheapest QMC and Monte Carlo rows must still run
and pass against their truths through the return shapes they read.  One
``cli_mixed`` funappx solve must pass through the ``--json`` report the
benchmark reads back.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return (importlib.import_module("spans"),
            importlib.import_module("workloads"))


def test_tracer_wraps_every_name(perfbench):
    spans, workloads = perfbench
    probe = workloads.Probe()
    tracer = spans.Tracer()
    tracer.install(probe)
    tracer.uninstall()


@pytest.mark.parametrize("rows, name", [
    ("qmc_rows", "cublattice prod [0,1]^2"),
    ("mc_rows", "meanmcber abstol 1e-2"),
])
def test_cheapest_rows_pass(perfbench, rows, name):
    _, workloads = perfbench
    solve, = [s for s in getattr(workloads, rows)(1) if s.name == name]
    _, ok, _, detail = solve.finish(solve.run(workloads.Probe()))
    assert ok, detail


def test_cli_funappx_grid_solve_passes(perfbench, tmp_path):
    # a cli_mixed solve: its --json report, grid included, is read back
    # and judged by the benchmark's own check
    _, workloads = perfbench
    solve = next(s for s in workloads.cli_stream(1, str(tmp_path), repeats=1)
                 if s.name.startswith("funappx "))
    assert "--grid" in solve.argv
    out, ok, _, detail = solve.finish(solve.run(workloads.Probe()))
    assert ok, detail
    assert out.layer == "univariate"
    assert out.n_evals == out.n_points
