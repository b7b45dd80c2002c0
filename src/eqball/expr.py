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

A compiled expression evaluates a whole (m, n) stack of points in one array
pass: `compile_weight_expression(text, n).rows(P)` returns the m values,
each bit-equal to evaluating its row alone, and the evaluator itself is the
one-row case.  On a stack, a division by zero or a negative sqrt argument
at any row raises the error of the first such node in evaluation order.
`weights.falsify` evaluates each batch of sets with one `rows` call; a plain
Python callable, which has no `rows`, is still called one point at a time.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import ExpressionError
from .geometry import row_dot

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
    'scalar' or 'vector', and a closure evaluating the node on an (m, n)
    stack of points: a vector node gives the stack, a scalar node one value
    per row (a constant gives its one float, which broadcasts).

    A function's name is checked before its arguments, and a left operand
    before the right one; each child compiles once.  Every operation rounds
    as its one-point form does: + - * / sqrt abs are elementwise IEEE
    operations, and dot and norm take each row's own BLAS dot (row_dot).
    """
    tag = node[0]
    if tag == "const":
        value = node[1]
        return "scalar", lambda stack: value
    if tag == "var":
        name = node[1]
        if name == "x":
            return "vector", lambda stack: stack
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            k = int(m.group(1)) - 1
            if not 0 <= k < n:
                raise ExpressionError(f"coordinate {name} out of range for n={n}")
            return "scalar", lambda stack: stack[:, k]
        raise ExpressionError(f"unknown identifier {name!r}")
    if tag == "neg":
        kind, arg = _compile(node[1], n)
        if kind != "scalar":
            raise ExpressionError("negation applies to scalars only")
        return "scalar", lambda stack: -arg(stack)
    if tag in ("+", "-", "*", "/"):
        operands = []
        for child in node[1:]:
            kind, f = _compile(child, n)
            if kind != "scalar":
                raise ExpressionError(f"operator {tag!r} applies to scalars only")
            operands.append(f)
        a, b = operands
        if tag == "+":
            return "scalar", lambda stack: a(stack) + b(stack)
        if tag == "-":
            return "scalar", lambda stack: a(stack) - b(stack)
        if tag == "*":
            return "scalar", lambda stack: a(stack) * b(stack)

        def divide(stack):
            num = a(stack)
            den = b(stack)
            if np.any(den == 0):
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

            def norm(stack):
                v = arg(stack)
                return np.sqrt(row_dot(v, v))  # np.linalg.norm of one vector

            return "scalar", norm
        if name == "dot":
            if kinds != ["vector", "vector"]:
                raise ExpressionError("dot takes two vector arguments")
            a, b = args
            return "scalar", lambda stack: row_dot(a(stack), b(stack))
        if kinds != ["scalar"]:
            raise ExpressionError(f"{name} takes one scalar argument")
        (arg,) = args
        if name == "sqrt":
            def root(stack):
                value = arg(stack)
                if np.any(value < 0):
                    raise ExpressionError("sqrt of a negative value")
                return np.sqrt(value)

            return "scalar", root
        return "scalar", lambda stack: np.abs(arg(stack))
    raise ExpressionError(f"malformed expression node {tag!r}")


def compile_weight_expression(text: str, n: int):
    """Parse an expression and return a point -> float evaluator.

    The tree is checked and compiled once into nested closures, one per node,
    that evaluate a whole stack of points at a time.  `evaluator.rows(P)`
    maps an (m, n) stack to its m values as a float array, bit-equal to
    evaluating each row alone; `evaluator(p)` is its one-row case.
    """
    kind, root = _compile(_Parser(_tokenize(text)).parse(), n)
    if kind != "scalar":
        raise ExpressionError("expression must evaluate to a scalar")

    def rows(points) -> np.ndarray:
        stack = np.asarray(points, dtype=float)
        # Python float arithmetic overflows to inf and nan without a word.
        with np.errstate(all="ignore"):
            return np.broadcast_to(root(stack), stack.shape[:1]).astype(float)

    def evaluator(point) -> float:
        return float(rows(np.asarray(point, dtype=float)[None])[0])

    evaluator.rows = rows
    return evaluator
