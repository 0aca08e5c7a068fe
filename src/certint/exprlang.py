"""A small, total expression language for CLI-defined integrands.

Grammar (precedence climbing, loosest first)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right associative
    atom    := NUMBER | 'pi' | 'e' | variable | call | '(' expr ')'
    call    := NAME '(' expr (',' expr)* ')'

Variables are ``x`` (one-dimensional shorthand for ``x1``) or ``x1`` ..
``xd``.  MATLAB-style ``.^  .*  ./`` spellings are accepted as aliases so
worked examples paste verbatim.  Functions: sin, cos, exp, log, sqrt,
abs, normcdf, two-argument max/min, and prod (product of all
coordinates).  ``^`` with a non-integer exponent on a negative base
yields NaN (real-valued semantics).

Parsing reports position-annotated errors; evaluation is pure and
vectorized over an (n, d) point block.  An expression nested past
Python's recursion limit is a ``ParseError``, or an ``EvaluationError``
when only its evaluation goes that deep (a long chain of ``+``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError

__all__ = ["Expr", "ParseError", "parse", "eval_batch", "render"]


class ParseError(ConfigurationError):
    """Syntax, arity, or dimension error with a position annotation."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based coordinate


@dataclass(frozen=True)
class Unary:
    op: str  # '-'
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple["Expr", ...]


Expr = Union[Num, Var, Unary, Binary, Call]


def _normcdf(x):
    """The standard normal CDF, ``scipy.special.ndtr``, imported on the
    first call so that parsing and scipy-free expressions never load
    scipy."""
    from scipy.special import ndtr
    return ndtr(x)


_FUNCS_1 = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "normcdf": _normcdf,
}
_FUNCS_2 = {"max": np.maximum, "min": np.minimum}
_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Tokenizer:
    _TWO_CHAR = {".^": "^", ".*": "*", "./": "/"}

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        text = self.text
        n = len(text)
        pos = 0
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if text[pos:pos + 2] in self._TWO_CHAR:
                self.tokens.append((self._TWO_CHAR[text[pos:pos + 2]], pos))
                pos += 2
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, pos))
                pos += 1
                continue
            if ch.isdigit() or ch == ".":
                start = pos
                while pos < n and (text[pos].isdigit() or text[pos] == "."):
                    pos += 1
                if pos < n and text[pos] in "eE":
                    peek = pos + 1
                    if peek < n and text[peek] in "+-":
                        peek += 1
                    if peek < n and text[peek].isdigit():
                        pos = peek
                        while pos < n and text[pos].isdigit():
                            pos += 1
                try:
                    value = float(text[start:pos])
                except ValueError:
                    raise ParseError(f"bad number {text[start:pos]!r}", start)
                self.tokens.append((("num", value), start))
                continue
            if ch.isalpha() or ch == "_":
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                self.tokens.append((("name", text[start:pos]), start))
                continue
            raise ParseError(f"unexpected character {ch!r}", pos)
        self.tokens.append(("end", n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str, dim: int):
        self.toks = _Tokenizer(text)
        self.dim = dim

    def parse(self) -> Expr:
        e = self.expr()
        tok, pos = self.toks.peek()
        if tok != "end":
            raise ParseError(f"unexpected token {_show(tok)}", pos)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            tok, _ = self.toks.peek()
            if tok in ("+", "-"):
                self.toks.next()
                left = Binary(tok, left, self.term())
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            tok, _ = self.toks.peek()
            if tok in ("*", "/"):
                self.toks.next()
                left = Binary(tok, left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        tok, _ = self.toks.peek()
        if tok == "-":
            self.toks.next()
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok, _ = self.toks.peek()
        if tok == "^":
            self.toks.next()
            return Binary("^", base, self.unary())  # right associative
        return base

    def atom(self) -> Expr:
        tok, pos = self.toks.next()
        if isinstance(tok, tuple) and tok[0] == "num":
            return Num(tok[1])
        if tok == "(":
            e = self.expr()
            closer, cpos = self.toks.next()
            if closer != ")":
                raise ParseError("expected ')'", cpos)
            return e
        if isinstance(tok, tuple) and tok[0] == "name":
            return self._name(tok[1], pos)
        raise ParseError(f"expected a value, got {_show(tok)}", pos)

    def _name(self, name: str, pos: int) -> Expr:
        nxt, _ = self.toks.peek()
        if nxt == "(":
            self.toks.next()
            args = [self.expr()]
            while True:
                tok, tpos = self.toks.next()
                if tok == ")":
                    break
                if tok != ",":
                    raise ParseError("expected ',' or ')'", tpos)
                args.append(self.expr())
            return self._call(name, tuple(args), pos)
        if name in _CONSTANTS:
            return Num(_CONSTANTS[name])
        if name == "x":
            return Var(1)
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
            if not (1 <= index <= self.dim):
                raise ParseError(
                    f"variable {name} out of range for dimension {self.dim}", pos)
            return Var(index)
        raise ParseError(f"unknown identifier {name!r}", pos)

    def _call(self, name: str, args: tuple, pos: int) -> Expr:
        if name in _FUNCS_1:
            if len(args) != 1:
                raise ParseError(f"{name} takes 1 argument, got {len(args)}", pos)
            return Call(name, args)
        if name in _FUNCS_2:
            if len(args) != 2:
                raise ParseError(f"{name} takes 2 arguments, got {len(args)}", pos)
            return Call(name, args)
        if name == "prod":
            if len(args) != 1 or args[0] != Var(1):
                raise ParseError("prod takes the bare coordinate vector: prod(x)", pos)
            return Call("prod", ())
        raise ParseError(f"unknown function {name!r}", pos)


def _show(tok) -> str:
    if isinstance(tok, tuple):
        return repr(tok[1])
    return repr(tok)


def parse(text: str, dim: int = 1) -> Expr:
    """Parse ``text`` into an expression tree over ``dim`` coordinates."""
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
    parser = _Parser(text, dim)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.toks.peek()[1]) from None


def eval_batch(e: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate row-wise over an (n, d) block (a 1-d array means d = 1)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ConfigurationError("points must be an (n, d) array")
    try:
        out = _eval(e, pts)
    except RecursionError:
        raise EvaluationError("expression nested too deeply to evaluate") \
            from None
    return np.broadcast_to(out, (pts.shape[0],)).astype(float, copy=True)


def _eval(e: Expr, pts: np.ndarray):
    """Every subtree but a literal operand evaluates to a full-length array.

    A literal operand of ``+ - * /`` next to a non-literal one is used as an
    ``np.float64`` scalar: those operations are correctly rounded, so the
    result equals the one on a filled array bit for bit.  A literal exponent
    of ``^`` decides the integer and odd rules once, but ``np.power`` still
    gets a full-length exponent array, because a scalar exponent takes
    numpy's shortcuts (a square for 2.0, ``sqrt`` for 0.5) and can change
    the last bits.  When both operands are literals, both are filled arrays.
    """
    if isinstance(e, Num):
        return np.full(pts.shape[0], e.value)
    if isinstance(e, Var):
        if e.index > pts.shape[1]:
            raise ConfigurationError(
                f"expression uses x{e.index} but points have dimension {pts.shape[1]}")
        return pts[:, e.index - 1]
    if isinstance(e, Unary):
        return -_eval(e.operand, pts)
    if isinstance(e, Binary):
        lconst, rconst = _literal(e.left), _literal(e.right)
        if lconst is not None and rconst is not None:
            lconst = rconst = None
        if e.op == "^":
            base = _eval(e.left, pts)
            if rconst is not None:
                return _pow_literal(base, rconst)
            return _signed_pow(base, _eval(e.right, pts))
        left = _eval(e.left, pts) if lconst is None else np.float64(lconst)
        right = _eval(e.right, pts) if rconst is None else np.float64(rconst)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        with np.errstate(divide="ignore", invalid="ignore"):
            return left / right
    if isinstance(e, Call):
        if e.name == "prod":
            return np.prod(pts, axis=1)
        if e.name in _FUNCS_2:
            return _FUNCS_2[e.name](_eval(e.args[0], pts), _eval(e.args[1], pts))
        with np.errstate(divide="ignore", invalid="ignore"):
            return _FUNCS_1[e.name](_eval(e.args[0], pts))
    raise ConfigurationError(f"not an expression node: {e!r}")


def _literal(e: Expr):
    """The value of a number or a negated number, else None."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Unary):
        value = _literal(e.operand)
        return None if value is None else -value
    return None


def _pow_literal(base: np.ndarray, p: float) -> np.ndarray:
    """``_signed_pow(base, np.full(base.shape, p))``, with the integer and
    odd tests made once on the literal ``p`` (an infinite ``p`` counts as
    an even integer, a NaN as a fraction, as they do there)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.power(np.abs(base), np.full(base.shape, p))
    if not (math.isinf(p) or p.is_integer()):
        return np.where(base >= 0, mag, np.nan)
    if math.isfinite(p) and p % 2.0 == 1.0:
        return np.where(base >= 0, mag, -mag)
    return mag


def _signed_pow(base, expo):
    """Real power: integer exponents work on negative bases, fractional
    exponents on negative bases give NaN."""
    base, expo = np.broadcast_arrays(np.asarray(base, dtype=float),
                                     np.asarray(expo, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.power(np.abs(base), expo)
    integral = expo == np.round(expo)
    odd = integral & (np.mod(np.round(expo), 2.0) == 1.0)
    negative = np.where(integral, np.where(odd, -mag, mag), np.nan)
    return np.where(base >= 0, mag, negative)


def render(e: Expr) -> str:
    """Canonical text form; reparsing it yields a structurally equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Unary):
        return f"(-{render(e.operand)})"
    if isinstance(e, Binary):
        return f"({render(e.left)} {e.op} {render(e.right)})"
    if isinstance(e, Call):
        if e.name == "prod":
            return "prod(x)"
        return f"{e.name}({', '.join(render(a) for a in e.args)})"
    raise ConfigurationError(f"not an expression node: {e!r}")
