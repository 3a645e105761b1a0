"""Small arithmetic expression language for model coefficients.

Variables: x[j] (state coordinate), m1[j] (mean of the empirical measure),
m2 (second moment). Operators + - * / ^ with the usual precedence, ^ binding
tightest and right-associative. Unary functions: exp log tanh sin cos abs sqrt.

Evaluation is numpy-vectorized: x, m1, m2 may be arrays broadcasting against
each other with the coordinate index on the last axis of x and m1.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("abs", "cos", "exp", "log", "sin", "sqrt", "tanh")


class ExpressionSyntaxError(ValueError):
    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"syntax error at offset {position}: {message}{hint}")


class EvaluationError(ValueError):
    """Domain failure during evaluation (division by zero, log of <= 0, ...)."""


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
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
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
        if m.group("num") is not None:
            tokens.append(("num", src[m.start("num"):m.end(0)], m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.end(0) - len(m.group("name"))))
        else:
            tokens.append(("op", m.group("op"), m.end(0) - 1))
        pos = m.end(0)
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        if not src or not src.strip():
            raise ExpressionSyntaxError("empty expression", 0)
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

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
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.unary())  # right-assoc, exponent may be signed
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if val in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(val, arg)
            if val == "m2":
                return Var("m2", 0)
            if val in ("x", "m1"):
                self.expect("[")
                ik, iv, ip = self.advance()
                if ik != "num" or "." in iv or "e" in iv or "E" in iv:
                    raise ExpressionSyntaxError("index must be an integer", ip, ("integer",))
                self.expect("]")
                return Var(val, int(iv))
            raise ExpressionSyntaxError(
                f"unknown identifier {val!r}", pos, ("x[i]", "m1[i]", "m2") + FUNCTIONS
            )
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExpressionSyntaxError(
            f"got {val!r}" if val else "unexpected end of input",
            pos,
            ("number", "identifier", "("),
        )


def parse_coefficient(src: str) -> Expr:
    """Parse an expression source string into a tree; errors carry byte offsets."""
    return _Parser(src).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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
        inner = _print(e.arg, _PREC["neg"])
        s = f"-{inner}"
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


# BinOp and Call implementations; operator functions keep constants Python floats.
_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "^": np.power, **{f: getattr(np, f) for f in FUNCTIONS}}

# Strict-mode domain rules: (tests the result, else the last operand before the
# call, so a constant 1/0 raises EvaluationError; violation test; message).
_DOMAIN = {
    "/": (False, lambda v: v == 0, "division by zero"),
    "log": (False, lambda v: v <= 0, "log of non-positive value"),
    "sqrt": (False, lambda v: v < 0, "sqrt of negative value"),
    "^": (True, lambda v: ~np.isfinite(v), "power produced a non-finite value"),
}


def _eval(e: Expr, x, m1, m2, strict: bool):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.kind == "m2":
            return m2
        if e.kind == "x" and x is None:
            raise EvaluationError("x[...] is not available in this context")
        return np.asarray(x if e.kind == "x" else m1)[..., e.index]
    if isinstance(e, Neg):
        return -_eval(e.arg, x, m1, m2, strict)
    if isinstance(e, BinOp):
        key, args = e.op, (_eval(e.left, x, m1, m2, strict), _eval(e.right, x, m1, m2, strict))
    elif isinstance(e, Call):
        key, args = e.func, (_eval(e.arg, x, m1, m2, strict),)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    rule = _DOMAIN.get(key) if strict else None
    if rule is None:
        return _APPLY[key](*args)
    on_result, violated, message = rule
    if not on_result and np.any(violated(np.asarray(args[-1]))):
        raise EvaluationError(message)
    out = _APPLY[key](*args)
    if on_result and np.any(violated(np.asarray(out))):
        raise EvaluationError(message)
    return out


def evaluate(e: Expr, x=None, m1=None, m2=None, strict: bool = True):
    """Evaluate on numpy inputs; raises EvaluationError on domain failures.

    strict=False suppresses domain checks and lets non-finite values flow, so
    a caller that checks its own results reports the fault in its own terms:
    the path integrator reports a coefficient overflow as a blow-up
    (FloatingPointError), not as an EvaluationError.
    """
    with np.errstate(all="ignore"):
        out = _eval(e, x, m1, m2, strict)
    if strict and np.any(~np.isfinite(np.asarray(out, dtype=np.float64))):
        raise EvaluationError("expression produced a non-finite value on finite inputs")
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


def free_variables(e: Expr) -> set:
    """Names referenced by the tree ('x', 'm1', 'm2')."""
    return {v.kind for v in variables(e)}
