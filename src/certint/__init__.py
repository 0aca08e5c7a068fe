"""certint: guaranteed automatic integration, approximation, and cubature.

Univariate adaptive algorithms with cone-condition guarantees (piecewise
linear approximation, global minimization, trapezoidal quadrature),
two-stage guaranteed Monte Carlo mean estimation (general and Bernoulli),
Monte Carlo hyperbox cubature, and adaptive quasi-Monte Carlo cubature on
shifted rank-1 lattices and digitally shifted Sobol' sequences with
coefficient-decay error bounds.

``import certint`` loads no submodule.  Each name of ``__all__`` and each
submodule (``certint.montecarlo``, ...) is imported on first access
(PEP 562) and then kept in this module's namespace, so a caller pays only
for the solvers it touches: ``certint.SobolGenerator`` loads
``qmc_points`` with ``core`` and ``errors``, and nothing else.
"""

import importlib

__version__ = "1.0.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Budget", "RngStream", "SolverDiagnostics",
                     "ToleranceSpec", "TolType", "tolfun"), "core"),
    **dict.fromkeys(("CertintError", "ConfigurationError", "DataFileError",
                     "EvaluationError"), "errors"),
    **dict.fromkeys(("eval_batch", "parse", "render"), "exprlang"),
    **dict.fromkeys(("Hyperbox", "McParams", "Measure", "cub_mc",
                     "hoeffding_n", "kurtosis_bound", "mean_mc",
                     "mean_mc_ber", "measure_map", "two_stage_n"),
                    "montecarlo"),
    **dict.fromkeys(("QmcParams", "QmcResult", "cone_check", "cub_lattice",
                     "cub_sobol", "default_fudge"), "qmc_cubature"),
    **dict.fromkeys(("LatticeGenerator", "Periodizer", "SobolGenerator",
                     "fft", "fwht_inplace", "periodize"), "qmc_points"),
    **dict.fromkeys(("IntervalProblem", "MinimizerResult",
                     "PiecewiseLinearApprox", "eval_approx", "funappx",
                     "funmin", "integral", "ninit_rule"), "univariate"),
}
_SUBMODULES = ("cli", "core", "errors", "exprlang", "montecarlo",
               "qmc_cubature", "qmc_points", "univariate")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
