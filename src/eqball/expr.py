"""Tiny arithmetic expression language for candidate weight functions.

Grammar (see the CLI help for the authoritative summary):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | primary
    primary := NUMBER | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'
    ident   := 'x' | 'x1'..'xn' | 'norm' | 'dot' | 'sqrt' | 'abs'

`x` denotes the evaluation point (usable only inside norm/dot), `xk` its
k-th coordinate (1-based).  norm(x) and dot(x, x) produce scalars; sqrt and
abs apply to scalars; binary operators act on scalars only.
"""
from __future__ import annotations

import math
import re

import numpy as np

from .errors import ExpressionError

# A token and the whitespace after it.
_TOKEN = re.compile(r"(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/,]))\s*")
_SPACE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"unexpected character at position {pos}: {text[pos]!r}")
        number, ident, punct = m.groups()
        if number is not None:
            tokens.append(("num", number))
        elif ident is not None:
            tokens.append(("ident", ident))
        else:
            tokens.append(("punct", punct))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        k, v = self.tokens[self.pos]
        if kind is not None and k != kind:
            raise ExpressionError(f"expected {kind}, got {v!r}")
        if value is not None and v != value:
            raise ExpressionError(f"expected {value!r}, got {v!r}")
        self.pos += 1
        return v

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("punct", "+") or self.peek() == ("punct", "-"):
            op = self.take("punct")
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("punct", "*") or self.peek() == ("punct", "/"):
            op = self.take("punct")
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("punct", "-"):
            self.take("punct")
            return ("neg", self.unary())
        return self.primary()

    def primary(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return ("const", float(value))
        if kind == "ident":
            self.take()
            if self.peek() == ("punct", "("):
                self.take("punct", "(")
                args = [self.expr()]
                while self.peek() == ("punct", ","):
                    self.take("punct", ",")
                    args.append(self.expr())
                self.take("punct", ")")
                return ("call", value, args)
            return ("var", value)
        if (kind, value) == ("punct", "("):
            self.take("punct", "(")
            node = self.expr()
            self.take("punct", ")")
            return node
        raise ExpressionError(f"unexpected token {value!r}")


_FUNCTIONS = {"norm", "dot", "sqrt", "abs"}


def _compile(node, n: int):
    """Type-check the tree and compile it in one walk; returns the kind,
    'scalar' or 'vector', and a closure evaluating the node on one point.

    A function's name is checked before its arguments, and a left operand
    before the right one; each child compiles once.
    """
    tag = node[0]
    if tag == "const":
        value = node[1]
        return "scalar", lambda point: value
    if tag == "var":
        name = node[1]
        if name == "x":
            return "vector", lambda point: point
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            k = int(m.group(1)) - 1
            if not 0 <= k < n:
                raise ExpressionError(f"coordinate {name} out of range for n={n}")
            return "scalar", lambda point: float(point[k])
        raise ExpressionError(f"unknown identifier {name!r}")
    if tag == "neg":
        kind, arg = _compile(node[1], n)
        if kind != "scalar":
            raise ExpressionError("negation applies to scalars only")
        return "scalar", lambda point: -arg(point)
    if tag in ("+", "-", "*", "/"):
        operands = []
        for child in node[1:]:
            kind, f = _compile(child, n)
            if kind != "scalar":
                raise ExpressionError(f"operator {tag!r} applies to scalars only")
            operands.append(f)
        a, b = operands
        if tag == "+":
            return "scalar", lambda point: a(point) + b(point)
        if tag == "-":
            return "scalar", lambda point: a(point) - b(point)
        if tag == "*":
            return "scalar", lambda point: a(point) * b(point)

        def divide(point):
            num = a(point)
            den = b(point)
            if den == 0:
                raise ExpressionError("division by zero during evaluation")
            return num / den

        return "scalar", divide
    if tag == "call":
        name = node[1]
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}")
        compiled = [_compile(a, n) for a in node[2]]
        kinds = [kind for kind, _ in compiled]
        args = [f for _, f in compiled]
        if name == "norm":
            if kinds != ["vector"]:
                raise ExpressionError("norm takes one vector argument")
            (arg,) = args
            return "scalar", lambda point: float(np.linalg.norm(arg(point)))
        if name == "dot":
            if kinds != ["vector", "vector"]:
                raise ExpressionError("dot takes two vector arguments")
            a, b = args
            return "scalar", lambda point: float(np.dot(a(point), b(point)))
        if kinds != ["scalar"]:
            raise ExpressionError(f"{name} takes one scalar argument")
        (arg,) = args
        if name == "sqrt":
            def root(point):
                value = arg(point)
                if value < 0:
                    raise ExpressionError("sqrt of a negative value")
                return math.sqrt(value)

            return "scalar", root
        return "scalar", lambda point: abs(arg(point))
    raise ExpressionError(f"malformed expression node {tag!r}")


def compile_weight_expression(text: str, n: int):
    """Parse an expression and return a point -> float evaluator.

    The tree is checked and compiled once into nested closures, one per node.
    """
    kind, root = _compile(_Parser(_tokenize(text)).parse(), n)
    if kind != "scalar":
        raise ExpressionError("expression must evaluate to a scalar")

    def evaluator(point) -> float:
        return float(root(np.asarray(point, dtype=float)))

    return evaluator
