"""A cold start loads only what it uses.

``import certint`` loads no submodule; a public name or a submodule is
imported on first access.  ``import certint`` and the runs that never need
``scipy.special`` (the univariate solvers, the Bernoulli mean and
uniform-measure QMC cubature) must leave scipy out of ``sys.modules``, so
a cold start does not pay for it; orjson is loaded by the first ``--json``
report, not before.  The runs that do need it must still
return the same bits.  A cubature too small for the QMC thread pool loads
no ``concurrent.futures`` and starts no thread.
"""

import importlib
import json
import subprocess
import sys

import pytest

import certint

# Runs in a fresh interpreter: tests in this process have loaded scipy.
_CODE = r"""
import contextlib, io, json, math, os, sys, tempfile

import numpy as np

import certint
import certint.cli as cli

certint.SobolGenerator(3, rng=certint.RngStream(1))
certint.LatticeGenerator(3, rng=certint.RngStream(1))
runs = (
    ["funappx", "--f", "exp(1.25*x)", "--a", "-1", "--b", "2"],
    ["funmin", "--f", "(x-0.3)^2+1", "--abstol", "1e-6", "--tolx", "1e-3"],
    ["integral", "--f", "x^2", "--abstol", "1e-6"],
    ["meanmcber", "--p", "0.3", "--abstol", "1e-2", "--seed", "1"],
    ["cubsobol", "--f", "prod(x)", "--box", "0,1;0,1", "--abstol", "1e-4",
     "--reltol", "0", "--seed", "1"],
    ["cublattice", "--f", "prod(x)", "--box", "0,1;0,1", "--abstol", "1e-4",
     "--reltol", "0", "--seed", "1"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in runs]
out = {"codes": codes, "scipy_loaded": "scipy" in sys.modules,
       "orjson_loaded": ["orjson" in sys.modules]}

out["normcdf"] = [v.hex() for v in certint.eval_batch(
    certint.parse("normcdf(x1)", 1), np.array([-1.5, 0.0, 0.3]))]
box = certint.Hyperbox([-math.inf] * 2, [math.inf] * 2,
                       certint.Measure.NORMAL)
res = certint.cub_sobol(lambda x: np.exp(-x[:, 0]**2 - x[:, 1]**2), box,
                        certint.QmcParams(tol=certint.ToleranceSpec(1e-3, 0.0)),
                        certint.RngStream(1))
out["cub_sobol_normal"] = [res.q.hex(), res.n, res.exitflag]
path = os.path.join(tempfile.mkdtemp(), "meanmc.json")
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.run(["meanmc", "--f", "x^2", "--abstol", "2e-3", "--reltol",
                  "0", "--seed", "3", "--json", path])
with open(path) as fh:
    report = json.load(fh)
os.remove(path)
out["meanmc"] = [rc, report["estimate"].hex(),
                 report["diagnostics"]["n_evals"]]
out["orjson_loaded"].append("orjson" in sys.modules)
print(json.dumps(out))
"""


def test_scipy_loaded_only_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _CODE], check=True,
                          capture_output=True, text=True)
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * 6
    assert out["scipy_loaded"] is False
    # orjson writes a report's number lists, so only a report loads it
    assert out["orjson_loaded"] == [False, True]
    # the values these runs returned when scipy was imported at module scope
    assert out["normcdf"] == ["0x1.11a46d89647efp-4", "0x1.0000000000000p-1",
                              "0x1.3c5ee2cc40b78p-1"]
    assert out["cub_sobol_normal"] == ["0x1.55556880013d5p-2", 8192, 0]
    assert out["meanmc"] == [0, "0x1.559507e381d7fp-2", 691215]


# The set-up that the benchmark's setup_s times, in a fresh interpreter.
_GENERATORS = r"""
import json, sys
import certint
certint.SobolGenerator(3, rng=certint.RngStream(1))
certint.LatticeGenerator(3, rng=certint.RngStream(1))
print(json.dumps({
    "certint": sorted(m for m in sys.modules
                      if m == "certint" or m.startswith("certint.")),
    "scipy_loaded": "scipy" in sys.modules,
    "sobol_rows": certint.qmc_points._cache["sobol"].shape[0],
}))
"""


def test_generators_load_only_their_modules():
    proc = subprocess.run([sys.executable, "-c", _GENERATORS], check=True,
                          capture_output=True, text=True)
    out = json.loads(proc.stdout)
    assert out["certint"] == ["certint", "certint.core", "certint.errors",
                              "certint.qmc_points"]
    assert out["scipy_loaded"] is False
    assert out["sobol_rows"] == 3


def test_exports_are_their_submodules_objects():
    for name in certint.__all__:
        module = importlib.import_module(
            f"certint.{certint._EXPORTS[name]}")
        assert getattr(certint, name) is getattr(module, name), name
    namespace = {}
    exec("from certint import *", namespace)
    for name in certint.__all__:
        assert namespace[name] is getattr(certint, name), name
    assert set(certint.__all__) <= set(dir(certint))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        certint.no_such_name
    assert not hasattr(certint, "_sobol_table")


# Submodules and names resolve on first access in a fresh interpreter.
_FIRST_ACCESS = r"""
import json, sys
import certint
before = sorted(m for m in sys.modules if m.startswith("certint."))
mc = certint.montecarlo
fn = certint.funappx
print(json.dumps({
    "before": before,
    "montecarlo": mc is sys.modules["certint.montecarlo"],
    "funappx": fn is sys.modules["certint.univariate"].funappx,
    "cached": "funappx" in vars(certint),
}))
"""


def test_names_resolve_on_first_access():
    proc = subprocess.run([sys.executable, "-c", _FIRST_ACCESS], check=True,
                          capture_output=True, text=True)
    out = json.loads(proc.stdout)
    assert out == {"before": [], "montecarlo": True, "funappx": True,
                   "cached": True}


# A cold start, the set-up and a cubature of the size the mixed CLI stream
# runs (131,072 points at d = 3): no thread pool, no thread.  The measure
# is uniform, since scipy itself imports concurrent.futures.
_NO_THREADS = r"""
import contextlib, io, json, sys, threading
before = threading.active_count()
import certint
import certint.cli as cli
certint.SobolGenerator(3, rng=certint.RngStream(1))
certint.LatticeGenerator(3, rng=certint.RngStream(1))
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.run(["cubsobol", "--f", "exp(-x1^2-x2^2-x3^2)", "--dim", "3",
                  "--box", "0,1;0,1;0,1", "--abstol", "1e-5", "--reltol",
                  "0", "--seed", "1"])
print(json.dumps({
    "rc": rc, "n": "n = 131072," in out.getvalue(),
    "futures_loaded": "concurrent.futures" in sys.modules,
    "threads": [before, threading.active_count()],
}))
"""


def test_small_cubature_starts_no_thread():
    proc = subprocess.run([sys.executable, "-c", _NO_THREADS], check=True,
                          capture_output=True, text=True)
    out = json.loads(proc.stdout)
    assert out == {"rc": 0, "n": True, "futures_loaded": False,
                   "threads": [1, 1]}
