"""certint: guaranteed automatic integration, approximation, and cubature.

Univariate adaptive algorithms with cone-condition guarantees (piecewise
linear approximation, global minimization, trapezoidal quadrature),
two-stage guaranteed Monte Carlo mean estimation (general and Bernoulli),
Monte Carlo hyperbox cubature, and adaptive quasi-Monte Carlo cubature on
shifted rank-1 lattices and digitally shifted Sobol' sequences with
coefficient-decay error bounds.
"""

from .core import (
    Budget,
    RngStream,
    SolverDiagnostics,
    ToleranceSpec,
    TolType,
    tolfun,
)
from .errors import (
    CertintError,
    ConfigurationError,
    DataFileError,
    EvaluationError,
)
from .exprlang import eval_batch, parse, render
from .montecarlo import (
    CheckStatus,
    Hyperbox,
    McParams,
    Measure,
    cub_mc,
    hoeffding_n,
    kurtosis_bound,
    mean_mc,
    mean_mc_ber,
    measure_map,
    two_stage_n,
)
from .qmc_cubature import (
    QmcParams,
    QmcResult,
    cone_check,
    cub_lattice,
    cub_sobol,
    default_fudge,
)
from .qmc_points import (
    LatticeGenerator,
    Periodizer,
    SobolGenerator,
    fft,
    fwht_inplace,
    periodize,
)
from .univariate import (
    IntervalProblem,
    MinimizerResult,
    PiecewiseLinearApprox,
    eval_approx,
    funappx,
    funmin,
    integral,
    ninit_rule,
)

__version__ = "1.0.0"

__all__ = [
    "Budget", "RngStream", "SolverDiagnostics", "ToleranceSpec", "TolType",
    "tolfun",
    "CertintError", "ConfigurationError", "DataFileError", "EvaluationError",
    "eval_batch", "parse", "render",
    "CheckStatus", "Hyperbox", "McParams", "Measure",
    "cub_mc", "hoeffding_n", "kurtosis_bound", "mean_mc", "mean_mc_ber",
    "two_stage_n",
    "QmcParams", "QmcResult", "cone_check",
    "cub_lattice", "cub_sobol", "default_fudge", "measure_map",
    "LatticeGenerator", "Periodizer", "SobolGenerator", "fft",
    "fwht_inplace", "periodize",
    "IntervalProblem", "MinimizerResult",
    "PiecewiseLinearApprox", "eval_approx", "funappx", "funmin", "integral",
    "ninit_rule",
]
