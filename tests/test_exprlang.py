"""Expression language: grammar, evaluation, canonical rendering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certint import ConfigurationError, eval_batch, parse, render
from certint.exprlang import (_FUNCS_1, _FUNCS_2, Binary, Call, Num,
                              ParseError, Unary, Var)


class TestParse:
    def test_square(self):
        tree = parse("x^2", dim=1)
        assert tree == Binary("^", Var(1), Num(2.0))
        assert eval_batch(tree, np.array([3.0]))[0] == 9.0

    def test_two_dim_gaussian(self):
        tree = parse("exp(-x1^2-x2^2)", dim=2)
        assert eval_batch(tree, np.array([[0.0, 0.0]]))[0] == 1.0

    def test_poisson_kernel_at_zero(self):
        tree = parse("3/(5-4*cos(2*3.141592653589793*x))", dim=1)
        assert eval_batch(tree, np.array([0.0]))[0] == pytest.approx(3.0)

    def test_precedence(self):
        assert eval_batch(parse("2+3*4", 1), np.zeros(1))[0] == 14.0
        assert eval_batch(parse("2^3^2", 1), np.zeros(1))[0] == 512.0

    def test_unary_minus_binds_after_power(self):
        assert eval_batch(parse("-2^2", 1), np.zeros(1))[0] == -4.0
        assert eval_batch(parse("2^-1", 1), np.zeros(1))[0] == 0.5

    def test_matlab_aliases(self):
        tree = parse("x.^2 .* 3 ./ 2", dim=1)
        assert eval_batch(tree, np.array([2.0]))[0] == pytest.approx(6.0)

    def test_constants(self):
        assert eval_batch(parse("cos(pi)", 1), np.zeros(1))[0] == \
            pytest.approx(-1.0)
        assert eval_batch(parse("log(e)", 1), np.zeros(1))[0] == \
            pytest.approx(1.0)

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as ei:
            parse("x +* 2", 1)
        assert "position" in str(ei.value)
        with pytest.raises(ParseError):
            parse("foo(x)", 1)
        with pytest.raises(ParseError):
            parse("x3", dim=2)
        with pytest.raises(ParseError):
            parse("max(x)", 1)  # arity
        with pytest.raises(ParseError):
            parse("(x", 1)


class TestEval:
    def test_literal_broadcast(self):
        out = eval_batch(parse("7", 1), np.zeros((5, 1)))
        assert out.tolist() == [7.0] * 5

    def test_prod(self):
        out = eval_batch(parse("prod(x)", 2), np.array([[0.5, 0.5]]))
        assert out[0] == 0.25

    def test_option_payoff_at_the_money(self):
        tree = parse("max(100*exp(0.05*x1)-100,0)", dim=1)
        assert eval_batch(tree, np.array([[0.0]]))[0] == 0.0

    def test_normcdf(self):
        out = eval_batch(parse("normcdf(0)", 1), np.zeros(1))
        assert out[0] == pytest.approx(0.5)

    def test_negative_base_fractional_power_nan(self):
        out = eval_batch(parse("(-2)^0.5", 1), np.zeros(1))
        assert math.isnan(out[0])

    def test_negative_base_integer_power(self):
        assert eval_batch(parse("(-2)^3", 1), np.zeros(1))[0] == -8.0
        assert eval_batch(parse("(-2)^2", 1), np.zeros(1))[0] == 4.0

    def test_dimension_mismatch(self):
        tree = parse("x2", dim=2)
        with pytest.raises(ConfigurationError):
            eval_batch(tree, np.zeros((3, 1)))


def _reference_eval(e, pts):
    """The evaluator before literal operands became scalars: every literal
    is a filled array and ``^`` applies the integer and odd rules
    element-wise."""
    if isinstance(e, Num):
        return np.full(pts.shape[0], e.value)
    if isinstance(e, Var):
        return pts[:, e.index - 1]
    if isinstance(e, Unary):
        return -_reference_eval(e.operand, pts)
    if isinstance(e, Binary):
        left = _reference_eval(e.left, pts)
        right = _reference_eval(e.right, pts)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return left / right
        base, expo = np.broadcast_arrays(left, right)
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.power(np.abs(base), expo)
        integral = expo == np.round(expo)
        odd = integral & (np.mod(np.round(expo), 2.0) == 1.0)
        negative = np.where(integral, np.where(odd, -mag, mag), np.nan)
        return np.where(base >= 0, mag, negative)
    if e.name == "prod":
        return np.prod(pts, axis=1)
    if e.name in _FUNCS_2:
        return _FUNCS_2[e.name](_reference_eval(e.args[0], pts),
                                _reference_eval(e.args[1], pts))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _FUNCS_1[e.name](_reference_eval(e.args[0], pts))


def _same_bits(tree, pts):
    """eval_batch equals the reference bit for bit, NaN signs included."""
    with np.errstate(all="ignore"):
        got = eval_batch(tree, pts)
        want = np.broadcast_to(_reference_eval(tree, pts),
                               (pts.shape[0],)).astype(float)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


# negative, zero and positive bases, the IEEE special values, and enough
# random ones that numpy's scalar-exponent shortcuts (a square for 2.0,
# sqrt for 0.5) would change some last bits
_BASES = np.concatenate([
    [-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.7, -np.inf, np.inf,
     np.nan, -np.nan, 1e-300, -1e300],
    np.random.default_rng(9).uniform(-2.0, 2.0, 4096)])


class TestLiteralOperands:
    """Literal operands take a cheaper path with the same bits."""

    @pytest.mark.parametrize("expo", ["0", "1", "2", "3", "0.5", "-1", "-2",
                                      "-0.5", "1e999", "-1e999", "-0",
                                      "1e300", "pi"])
    def test_literal_exponent(self, expo):
        tree = parse(f"x^{expo}", 1)
        assert _same_bits(tree, _BASES[:, None])

    def test_nan_literal_exponent(self):
        tree = Binary("^", Var(1), Num(math.nan))
        assert _same_bits(tree, _BASES[:, None])

    def test_infinite_exponent_values(self):
        out = eval_batch(parse("x^1e999", 1), np.array([-1.0, 2.0, 0.5]))
        assert out.tolist() == [1.0, math.inf, 0.0]

    @pytest.mark.parametrize("text", ["1/0", "0/0", "2^3", "1/0+x", "x/0",
                                      "0/x", "-1/x", "x-1", "2-x", "3*x",
                                      "x*-2", "(-2)^x", "x^(1/2)",
                                      "x^(0/0)", "sin(2*3)+x", "-x^-2",
                                      "x1^3*x2^2", "exp(1.25*(x1+x2))"])
    def test_expressions(self, text):
        pts = np.stack([_BASES, _BASES[::-1]], axis=1)
        assert _same_bits(parse(text, 2), pts)


def _leaf():
    return st.one_of(
        st.floats(-5, 5).map(lambda v: Num(round(v, 3))),
        st.integers(-3, 3).map(lambda k: Num(float(k))),
        st.sampled_from([Var(1), Var(2)]),
    )


def _exprs(depth):
    if depth == 0:
        return _leaf()
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf(),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])),
        sub.map(lambda e: Unary("-", e)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), sub).map(
            lambda t: Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["max", "min"]), sub, sub).map(
            lambda t: Call(t[0], (t[1], t[2]))),
    )


class TestProperties:
    @given(_exprs(4))
    @settings(max_examples=200, deadline=None)
    def test_parse_render_parse_idempotent(self, tree):
        # once a tree has passed through the parser, render/reparse is a
        # fixed point (hand-built trees may normalize, e.g. -3.0 literals)
        first = parse(render(tree), dim=2)
        second = parse(render(first), dim=2)
        assert second == first

    @given(_exprs(4), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_scalar(self, tree, seed):
        pts = np.random.default_rng(seed).uniform(-2, 2, size=(6, 2))
        with np.errstate(all="ignore"):
            batch = eval_batch(tree, pts)
            rows = np.array([eval_batch(tree, pts[i:i + 1])[0]
                             for i in range(6)])
        assert np.array_equal(batch, rows, equal_nan=True)

    @given(_exprs(4), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bits(self, tree, seed):
        pts = np.random.default_rng(seed).uniform(-2, 2, size=(6, 2))
        pts[0] = (0.0, -0.0)
        assert _same_bits(tree, pts)
