"""Command-line front end: flags, exit codes, JSON reports."""

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from certint import (McParams, QmcParams, RngStream, ToleranceSpec,
                     eval_batch, mean_mc, parse)
from certint.cli import _dump_json, _fixtures, run


class TestSubcommands:
    def test_integral(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = run(["integral", "--f", "x^2", "--a", "0", "--b", "1",
                  "--abstol", "1e-6", "--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert abs(report["estimate"] - 1 / 3) <= 1e-6
        assert report["diagnostics"]["exit_flags"] == 0
        assert report["command"] == "integral"

    def test_funmin(self, capsys):
        rc = run(["funmin", "--f", "(x-0.3)^2+1", "--abstol", "1e-6",
                  "--tolx", "1e-3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "estimate = 1" in out

    def test_funappx_grid_dump(self, tmp_path):
        path = tmp_path / "r.json"
        rc = run(["funappx", "--f", "x^2", "--grid", "5",
                  "--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert len(report["grid"]["xs"]) == 5
        assert report["grid"]["ys"][-1] == pytest.approx(1.0, abs=1e-6)

    def test_meanmcber(self, tmp_path):
        path = tmp_path / "r.json"
        rc = run(["meanmcber", "--p", "0.111111", "--abstol", "1e-2",
                  "--alpha", "0.05", "--seed", "1", "--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert abs(report["estimate"] - 1 / 9) <= 1e-2

    def test_cubsobol(self, tmp_path):
        path = tmp_path / "r.json"
        rc = run(["cubsobol", "--f", "prod(x)", "--dim", "2",
                  "--box", "0,1;0,1", "--abstol", "1e-5", "--reltol", "0",
                  "--seed", "7", "--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert abs(report["estimate"] - 0.25) <= 1e-5

    def test_cubmc_normal_box(self):
        # leading dash in the value needs the --flag=value spelling
        rc = run(["cubmc", "--f", "exp(-x1^2-x2^2)",
                  "--box=-inf,inf;-inf,inf", "--measure", "normal",
                  "--abstol", "0", "--reltol", "1e-2", "--seed", "3"])
        assert rc == 0

    def test_meanmc_expression(self):
        rc = run(["meanmc", "--f", "x^2", "--abstol", "1e-3",
                  "--reltol", "0", "--alpha", "0.05", "--seed", "2"])
        assert rc == 0


class TestMeanmcNormalSampler:
    """``meanmc --measure normal`` maps its draws through ``measure_map``.
    ``gen.random`` stays below 1, so the upper clip there never binds and
    the draws keep the bits of the old inline map: a lower clip at the
    smallest normal float, then ``ndtri``."""

    @pytest.mark.parametrize("dim,expr", [(1, "x1^2"),
                                          (2, "exp(-x1^2-x2^2)")])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_bits_as_the_inline_map(self, tmp_path, dim, expr, seed):
        path = tmp_path / "r.json"
        rc = run(["meanmc", "--f", expr, "--dim", str(dim), "--measure",
                  "normal", "--abstol", "1e-2", "--reltol", "0", "--seed",
                  str(seed), "--json", str(path)])
        assert rc == 0
        tree = parse(expr, dim)

        def yrand(n, gen):
            u = gen.random((n, dim))
            np.clip(u, np.finfo(float).tiny, None, out=u)
            return eval_batch(tree, ndtri(u))

        tmu, diag = mean_mc(yrand, McParams(tol=ToleranceSpec(1e-2, 0.0)),
                            RngStream(seed))
        report = json.loads(path.read_text())
        assert report["estimate"].hex() == tmu.hex()
        assert report["diagnostics"]["n_evals"] == diag.n_evals


class TestFunminMaxiter:
    def test_maxiter_raises_flag_2(self, tmp_path):
        path = tmp_path / "r.json"
        rc = run(["funmin", "--f", "sin(6*x)+x^2", "--a", "-1", "--b", "2",
                  "--abstol", "1e-9", "--tolx", "1e-9", "--maxiter", "1",
                  "--json", str(path)])
        assert rc == 2
        diag = json.loads(path.read_text())["diagnostics"]
        assert diag["exit_flags"] == 2
        assert diag["iterations"] == 1


class TestErrors:
    def test_unknown_flag(self):
        assert run(["integral", "--nope", "1"]) == 1

    def test_missing_expression(self):
        assert run(["integral", "--abstol", "1e-6"]) == 1

    def test_parse_error(self):
        assert run(["integral", "--f", "x +* 2"]) == 1

    def test_invalid_box(self):
        assert run(["cubmc", "--f", "x1", "--box", "0,inf"]) == 1

    def test_infinite_box_needs_normal(self):
        assert run(["cublattice", "--f", "x1", "--box=-inf,inf"]) == 1

    @pytest.mark.parametrize("box", ["a,1", "0,1;0,b", "0,1,2", "0"])
    def test_malformed_box(self, capsys, box):
        assert run(["cubmc", "--f", "x", "--box", box]) == 1
        assert "bad box component" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["meanmc", "--f", "x"],
        ["meanmcber", "--p", "0.5"],
        ["cubmc", "--f", "x", "--box", "0,1"],
        ["cublattice", "--f", "x", "--box", "0,1"],
        ["cubsobol", "--f", "x", "--box", "0,1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed(self, capsys, argv):
        assert run(argv + ["--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["meanmc", "--f", "x"],
                                      ["cubmc", "--f", "x", "--box", "0,1"]],
                             ids=lambda argv: argv[0])
    def test_budget_below_the_variance_stage(self, capsys, argv):
        assert run(argv + ["--nbudget", "10"]) == 1
        assert "variance stage" in capsys.readouterr().err

    def test_unwritable_json_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        assert run(["integral", "--f", "x", "--json", str(path)]) == 1
        assert "cannot write --json" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("expr", ["(" * 300 + "x" + ")" * 300,
                                      "-" * 1000 + "x",
                                      "+".join(["x"] * 1000)],
                             ids=["nested_parentheses", "minus_chain",
                                  "long_sum"])
    def test_deep_expression(self, capsys, expr):
        # too deep for Python's recursion limit: a parse error or an
        # evaluation error, not a traceback
        assert run(["integral", "--f=" + expr]) == 1
        assert "nested too deeply" in capsys.readouterr().err

    def test_negative_grid(self, capsys, tmp_path):
        assert run(["funappx", "--f", "x", "--grid", "-1"]) == 1
        assert "--grid" in capsys.readouterr().err
        path = tmp_path / "r.json"
        assert run(["funappx", "--f", "x", "--grid", "0",
                    "--json", str(path)]) == 0
        assert "grid" not in json.loads(path.read_text())

    def test_warning_exit_code(self):
        # tolerance unreachable inside a tiny budget: documented warning flag
        rc = run(["integral", "--f", "sin(50*x)", "--a", "0", "--b", "6",
                  "--abstol", "1e-14", "--nmax", "300"])
        assert rc == 2


    @pytest.mark.parametrize("abstol", ["1e-4", "1e-10"])
    @pytest.mark.parametrize("argv", [["meanmc", "--f", "1e150*x"],
                                      ["cubmc", "--f", "1e150*x1",
                                       "--box", "0,1"]])
    def test_hopeless_tolerance_flags_the_budget(self, tmp_path, argv,
                                                 abstol):
        # no budget pays for the planned draws, and at 1e-10 no float
        # holds their count
        path = tmp_path / "r.json"
        rc = run(argv + ["--abstol", abstol, "--reltol", "0", "--nbudget",
                         "100000", "--json", str(path)])
        assert rc == 2
        diag = json.loads(path.read_text())["diagnostics"]
        assert diag["exit_flags"] == 1 and diag["n_evals"] == 100_000
        n_up = diag["extra"]["n_up"]
        if abstol == "1e-10":
            assert n_up is None     # infinite, written as null
        else:
            assert type(n_up) is float and n_up > 2**53

    @pytest.mark.parametrize("argv", [["meanmc", "--f", "1e150*x"],
                                      ["cubmc", "--f", "1e150*x1",
                                       "--box", "0,1"]])
    def test_hopeless_report_is_strict_json(self, tmp_path, argv):
        # its n_up is infinite: json's default writes the bare token
        # Infinity, which RFC 8259 parsers reject
        path = tmp_path / "r.json"
        rc = run(argv + ["--abstol", "1e-10", "--reltol", "0", "--nbudget",
                         "100000", "--json", str(path)])
        assert rc == 2
        report = _strict_loads(path.read_text())
        assert report["diagnostics"]["extra"]["n_up"] is None


class TestJson:
    def test_roundtrip_byte_identical(self, tmp_path):
        path = tmp_path / "r.json"
        run(["integral", "--f", "x^2", "--json", str(path)])
        text = path.read_text()
        again = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert again == text

    def test_seeded_subcommand_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["cublattice", "--f", "prod(x)", "--dim", "2",
                "--box", "0,1;0,1", "--abstol", "1e-5", "--reltol", "0",
                "--transform", "c1sin", "--seed", "11"]
        run(args + ["--json", str(p1)])
        run(args + ["--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


def _nulled(obj):
    """``obj`` with every NaN and infinity replaced by None, as a strict
    JSON writer writes them."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _nulled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_nulled(item) for item in obj)
    return obj


def _strict_loads(text):
    """``json.loads`` that rejects the NaN and Infinity tokens, which RFC
    8259 does not allow."""
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")
    return json.loads(text, parse_constant=reject)


class TestDumpJson:
    """``_dump_json`` writes exactly what ``json.dumps(indent=2)`` writes,
    with NaN and infinities written as null."""

    @pytest.mark.parametrize("payload", [
        {"xs": [], "ys": [], "empty": {}, "nested": [[]]},
        [[1.5, 2], [[0.1, -3]], [], [{"b": [1.0], "a": None}]],
        {"v": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 7]},
        {"mixed": [1.0, True, None, "a, b", 2], "n": {"z": 1, "y": 2.5}},
        {"keys": {2: [1.0], 1: "x"}, "tuple": (0.5, 3)},
        {"big": [10**400, -1], "text": ["\u00e9 \"q\"\n", "\t"], "one": 10**400},
        [], {}, 0.1, "text", None,
    ])
    def test_matches_indented_dumps(self, tmp_path, payload):
        path = tmp_path / "out.json"
        _dump_json(payload, str(path))
        want = json.dumps(_nulled(payload), sort_keys=True, indent=2) + "\n"
        assert path.read_text() == want
        _strict_loads(path.read_text())

    @pytest.mark.parametrize("payload", [
        float("nan"), [float("inf")], {"a": -float("inf")},
        [[1.0, float("nan")], {"x": [None, float("inf"), True]}],
    ])
    def test_non_finite_is_null(self, tmp_path, payload):
        path = tmp_path / "out.json"
        _dump_json(payload, str(path))
        assert "NaN" not in path.read_text()
        assert "Infinity" not in path.read_text()
        assert _strict_loads(path.read_text()) == json.loads(
            json.dumps(_nulled(payload)))

    def test_grid_report(self, tmp_path):
        path = tmp_path / "grid.json"
        assert run(["funappx", "--f", "sin(3*x)", "--a", "-1", "--b", "2",
                    "--grid", "257", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert len(report["grid"]["xs"]) == 257
        want = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert path.read_text() == want


class TestQmcIterations:
    """Both entry points count the QMC levels evaluated, m - mmin + 1."""

    # the examples rows that take seconds rather than milliseconds
    HEAVY = {"cubsobol x^2 moments normal", "cublattice 8 prod [0,1]^5",
             "cubsobol 8 prod [0,1]^5"}

    @pytest.mark.parametrize("cmd", ["cubsobol", "cublattice"])
    def test_subcommand(self, tmp_path, cmd):
        path = tmp_path / "r.json"
        run([cmd, "--f", "prod(x)", "--dim", "2", "--box", "0,1;0,1",
             "--abstol", "1e-5", "--reltol", "0", "--mmin", "8",
             "--seed", "7", "--json", str(path)])
        diag = json.loads(path.read_text())["diagnostics"]
        assert diag["iterations"] == diag["extra"]["m"] - 8 + 1

    def test_examples_rows(self):
        # row i of the examples table runs with seed 1 + i
        mmin = QmcParams().mmin
        rows = [(i, fx) for i, fx in enumerate(_fixtures())
                if fx["name"].split()[0] in ("cublattice", "cubsobol")]
        assert len(rows) == 11
        for i, fx in rows:
            if fx["name"] in self.HEAVY:
                continue
            _, diag = fx["run"](1 + i)
            out = diag.to_json_dict()
            assert out["iterations"] == out["extra"]["m"] - mmin + 1, fx["name"]


class TestDeclaredFlags:
    """A subcommand declares only the flags it reads, and its report's
    ``inputs`` echoes exactly those (``--json`` aside)."""

    @pytest.mark.parametrize("argv", [
        ["integral", "--f", "x^2", "--seed", "1"],
        ["funappx", "--f", "x^2", "--dim", "2"],
        ["meanmcber", "--p", "0.3", "--f", "x"],
    ])
    def test_undeclared_flag_rejected(self, tmp_path, argv):
        path = tmp_path / "r.json"
        assert run(argv + ["--json", str(path)]) == 1
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["funmin"], ["meanmc"], ["cubmc", "--box", "0,1"],
        ["cublattice", "--box", "0,1"], ["cubsobol", "--box", "0,1"],
    ])
    def test_expression_required(self, argv):
        assert run(argv) == 1

    INTERVAL = {"f", "abstol", "a", "b", "nlo", "nhi", "nmax", "maxiter"}
    SEEDED = {"abstol", "reltol", "toltype", "theta", "seed"}
    BOXED = SEEDED | {"f", "dim", "box", "measure"}
    CASES = {
        "funappx": (["--f", "x^2", "--grid", "3"], INTERVAL | {"grid"}),
        "funmin": (["--f", "x^2"], INTERVAL | {"tolx"}),
        "integral": (["--f", "x^2"], INTERVAL),
        "meanmc": (["--f", "x^2", "--reltol", "0"],
                   SEEDED | {"f", "dim", "alpha", "measure", "nbudget"}),
        "meanmcber": (["--p", "0.3"],
                      {"abstol", "seed", "p", "alpha", "nmax"}),
        "cubmc": (["--f", "x1", "--box", "0,1", "--reltol", "0"],
                  BOXED | {"alpha", "nbudget"}),
        "cublattice": (["--f", "x1", "--box", "0,1", "--reltol", "0"],
                       BOXED | {"mmin", "mmax", "transform"}),
        "cubsobol": (["--f", "x1", "--box", "0,1", "--reltol", "0"],
                     BOXED | {"mmin", "mmax"}),
    }

    @pytest.mark.parametrize("cmd", sorted(CASES))
    def test_inputs_are_the_declared_flags(self, tmp_path, cmd):
        argv, declared = self.CASES[cmd]
        path = tmp_path / "r.json"
        assert run([cmd] + argv + ["--json", str(path)]) == 0
        assert set(json.loads(path.read_text())["inputs"]) == declared


class TestBoxDimension:
    """The cubature subcommands take their dimension from --box."""

    ARGS = {"cubmc": ["--abstol", "2e-2", "--reltol", "0"],
            "cublattice": ["--abstol", "1e-4", "--reltol", "0"],
            "cubsobol": ["--abstol", "1e-4", "--reltol", "0"]}

    @pytest.mark.parametrize("cmd", sorted(ARGS))
    def test_dim_echoes_the_box(self, tmp_path, cmd):
        path = tmp_path / "r.json"
        rc = run([cmd, "--f", "x1*x2", "--box", "0,1;0,1", "--seed", "5",
                  "--json", str(path)] + self.ARGS[cmd])
        assert rc == 0
        assert json.loads(path.read_text())["inputs"]["dim"] == 2

    @pytest.mark.parametrize("cmd", sorted(ARGS))
    def test_matching_dim_accepted(self, tmp_path, cmd):
        path = tmp_path / "r.json"
        rc = run([cmd, "--f", "x1*x2", "--dim", "2", "--box", "0,1;0,1",
                  "--seed", "5", "--json", str(path)] + self.ARGS[cmd])
        assert rc == 0
        assert json.loads(path.read_text())["inputs"]["dim"] == 2

    @pytest.mark.parametrize("cmd", sorted(ARGS))
    def test_disagreeing_dim_rejected(self, tmp_path, capsys, cmd):
        path = tmp_path / "r.json"
        rc = run([cmd, "--f", "x1*x2", "--dim", "3", "--box", "0,1;0,1",
                  "--json", str(path)] + self.ARGS[cmd])
        assert rc == 1
        assert "--dim 3" in capsys.readouterr().err
        assert not path.exists()


class TestParserReuse:
    """One parser serves every run() of a process."""

    def test_not_built_at_import(self):
        code = ("import certint.cli as c; "
                "print(c._build_parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "0"

    def test_error_then_valid_run(self):
        assert run(["integral", "--nope", "1"]) == 1
        assert run(["integral", "--f", "x^2"]) == 0

    def test_defaults_do_not_leak(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["cubsobol", "--f", "prod(x)", "--box", "0,1;0,1",
                "--abstol", "1e-3", "--reltol", "0", "--seed", "3"]
        assert run(args + ["--mmax", "12", "--json", str(p1)]) in (0, 2)
        assert run(args + ["--json", str(p2)]) == 0
        assert json.loads(p1.read_text())["inputs"]["mmax"] == 12
        assert json.loads(p2.read_text())["inputs"]["mmax"] == 24

    def test_repeated_run_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["funappx", "--f", "exp(1.25*x)", "--a", "-1", "--b", "2",
                "--grid", "33"]
        assert run(args + ["--json", str(p1)]) == 0
        assert run(args + ["--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        grid = json.loads(p1.read_text())["grid"]
        assert len(grid["xs"]) == len(grid["ys"]) == 33
