"""Small arithmetic expression language for model coefficients.

Variables: x[j] (state coordinate), m1[j] (mean of the empirical measure),
m2 (second moment). Numbers: finite doubles. Operators + - * / ^ and unary
minus, bound as the table `_PREC` says. Unary functions: exp log tanh sin cos
abs sqrt. An expression nests at most MAX_DEPTH levels deep.

Evaluation is numpy-vectorized: x, m1, m2 may be arrays broadcasting against
each other with the coordinate index on the last axis of x and m1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("abs", "cos", "exp", "log", "sin", "sqrt", "tanh")


class ExpressionSyntaxError(ValueError):
    def __init__(self, message: str, position: int, expected=()):
        self.message, self.position, self.expected = message, position, tuple(expected)
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"syntax error at offset {position}: {message}{hint}")

    def __reduce__(self):  # unpickled (from a worker process) by the constructor
        return type(self), (self.message, self.position, self.expected)


class EvaluationError(ValueError):
    """A value that is not finite under strict evaluation, or a missing x."""


class Expr:
    def __str__(self):
        return _print(self, 0)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    kind: str  # "x" | "m1" | "m2"
    index: int  # unused for m2


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()\[\]]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            bad = pos + len(src[pos:]) - len(src[pos:].lstrip())
            raise ExpressionSyntaxError(f"unrecognized character {src[bad]!r}", bad)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end(0)
    tokens.append(("end", "", len(src)))
    return tokens


# Binding power of each operator, read by the parser and the printer alike. ^ is
# right-associative, + - * / are left-associative, and unary minus ("neg") binds
# between * and ^: -2^2 is -(2^2) and -2*3 is (-2)*3.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

# Deepest nesting the parser enters and tallest tree it returns (a sum counts by
# height): the parser, printer and evaluator recurse once per level.
MAX_DEPTH = 200


def _within_depth(levels: int, pos: int) -> int:
    """levels, refused as a syntax error at offset `pos` past MAX_DEPTH."""
    if levels > MAX_DEPTH:
        raise ExpressionSyntaxError(f"nested deeper than {MAX_DEPTH} levels", pos)
    return levels


class _Parser:
    def __init__(self, src: str):
        if not src or not src.strip():
            raise ExpressionSyntaxError("empty expression", 0)
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, val, pos = self.peek()
        if kind == "op" and val == text:
            return self.advance()
        raise ExpressionSyntaxError(f"got {val!r}" if val else "unexpected end", pos, (text,))

    def parse(self) -> Expr:
        e, _ = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self, min_prec: int = 1) -> tuple:
        """Precedence climbing: an operand, then every operator binding at least
        `min_prec`, each with a right operand that binds tighter (as tight for ^).
        Returns the tree and its height."""
        kind, val, pos = self.peek()
        self.depth = _within_depth(self.depth + 1, pos)
        if (kind, val) == ("op", "-"):
            self.advance()
            arg, height = self.expr(_PREC["neg"])
            node, height = Neg(arg), _within_depth(height + 1, pos)
        else:
            node, height = self.atom()
        while True:
            kind, val, pos = self.peek()
            prec = _PREC.get(val, 0) if kind == "op" else 0
            if prec < min_prec:
                self.depth -= 1
                return node, height
            self.advance()
            right, h = self.expr(prec if val == "^" else prec + 1)
            node, height = BinOp(val, node, right), _within_depth(1 + max(height, h), pos)

    def atom(self) -> tuple:
        kind, val, pos = self.advance()
        if kind == "num":
            value = float(val)
            if not np.isfinite(value):
                raise ExpressionSyntaxError(f"number {val} is not a finite double", pos)
            return Num(value), 1
        if kind == "name":
            if val in FUNCTIONS:
                self.expect("(")
                arg, height = self.expr()
                self.expect(")")
                return Call(val, arg), _within_depth(height + 1, pos)
            if val == "m2":
                return Var("m2", 0), 1
            if val in ("x", "m1"):
                self.expect("[")
                ik, iv, ip = self.advance()
                if ik != "num" or "." in iv or "e" in iv or "E" in iv:
                    raise ExpressionSyntaxError("index must be an integer", ip, ("integer",))
                self.expect("]")
                return Var(val, int(iv)), 1
            raise ExpressionSyntaxError(
                f"unknown identifier {val!r}", pos, ("x[i]", "m1[i]", "m2") + FUNCTIONS
            )
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExpressionSyntaxError(f"got {val!r}" if val else "unexpected end of input", pos,
                                    ("number", "identifier", "("))


def parse_coefficient(src: str) -> Expr:
    """Parse an expression source string into a tree; errors carry byte offsets."""
    return _Parser(src).parse()


def _print(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        v = e.value
        s = repr(v) if v != int(v) or abs(v) >= 1e16 else str(int(v))
        return f"({s})" if v < 0 and parent_prec > 0 else s
    if isinstance(e, Var):
        return "m2" if e.kind == "m2" else f"{e.kind}[{e.index}]"
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, 0)})"
    if isinstance(e, Neg):
        s = f"-{_print(e.arg, _PREC['neg'])}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        # parenthesize against reassociation: the recursive operand (right for
        # left-assoc ops, left for ^) must bind strictly tighter when reparsed
        ls = _print(e.left, p + 1 if e.op == "^" else p)
        rs = _print(e.right, p if e.op == "^" else p + 1)
        s = f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}"
        return f"({s})" if p < parent_prec else s
    raise TypeError(f"not an expression node: {e!r}")


def print_coefficient(e: Expr) -> str:
    return _print(e, 0)


# BinOp and Call implementations: numpy ufuncs, so every operator follows IEEE
# rules on arrays and Python-float constants alike (1/0 is inf, log(-1) is nan).
_APPLY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide,
          "^": np.power, **{f: getattr(np, f) for f in FUNCTIONS}}


def _eval(e: Expr, x, m1, m2):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.kind == "m2":
            return m2
        if e.kind == "x" and x is None:
            raise EvaluationError("x[...] is not available in this context")
        return np.asarray(x if e.kind == "x" else m1)[..., e.index]
    if isinstance(e, Neg):
        return -_eval(e.arg, x, m1, m2)
    if isinstance(e, BinOp):
        return _APPLY[e.op](_eval(e.left, x, m1, m2), _eval(e.right, x, m1, m2))
    if isinstance(e, Call):
        return _APPLY[e.func](_eval(e.arg, x, m1, m2))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, x=None, m1=None, m2=None, strict: bool = True):
    """Evaluate on numpy inputs under IEEE rules; a coefficient value is valid
    if and only if it is finite.

    strict=True raises EvaluationError, naming the expression, when any value
    is not finite. strict=False returns the same values unchecked, so a caller
    that checks its own results reports the fault in its own terms: the path
    integrator reports it as a blow-up (FloatingPointError).
    """
    with np.errstate(all="ignore"):
        out = _eval(e, x, m1, m2)
    if strict and not np.isfinite(out).all():
        raise EvaluationError(f"{print_coefficient(e)} has a value that is not finite")
    return out


def variables(e: Expr):
    """The Var nodes of the tree, left to right."""
    if isinstance(e, Var):
        yield e
    elif isinstance(e, BinOp):
        yield from variables(e.left)
        yield from variables(e.right)
    elif isinstance(e, (Neg, Call)):
        yield from variables(e.arg)
