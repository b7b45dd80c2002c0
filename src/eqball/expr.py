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

import operator
import re

import numpy as np

from .errors import ExpressionError
from .geometry import row_dot

# A token and the whitespace after it.
_TOKEN = re.compile(r"(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/,]))\s*")
_SPACE = re.compile(r"\s*")
_COORDINATE = re.compile(r"x(\d+)")


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


# The operators of each chain level: expr (0) and term (1).
_CHAINS = ((("punct", "+"), ("punct", "-")), (("punct", "*"), ("punct", "/")))


def _divide(num, den):
    if np.any(den == 0):
        raise ExpressionError("division by zero during evaluation")
    return num / den


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _norm(v):
    return np.sqrt(row_dot(v, v))  # np.linalg.norm of one vector


def _sqrt(v):
    if np.any(v < 0):
        raise ExpressionError("sqrt of a negative value")
    return np.sqrt(v)


# Each function's argument kinds, the message when the arguments differ, and
# its operation on the argument values.
_FUNCTIONS = {
    "norm": (["vector"], "norm takes one vector argument", _norm),
    "dot": (["vector", "vector"], "dot takes two vector arguments", row_dot),
    "sqrt": (["scalar"], "sqrt takes one scalar argument", _sqrt),
    "abs": (["scalar"], "abs takes one scalar argument", np.abs),
}
_TOO_DEEP = "expression is nested too deeply"


class _Compiler:
    """Recursive descent that type-checks and compiles as it reads.

    Each production returns its kind, 'scalar' or 'vector', and a closure
    evaluating it on an (m, n) stack of points: a vector gives the stack, a
    scalar one value per row (a constant gives its one float, which
    broadcasts).  A syntax error raises at once; a failed type check is kept
    as `fault`, and only the first one is raised, once the whole text has
    parsed.  A function's name is checked before its arguments, and a left
    operand before the right one.  Every operation rounds as its one-point
    form does: + - * / sqrt abs are elementwise IEEE operations, and dot and
    norm take each row's own BLAS dot (row_dot).
    """

    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.fault = None

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

    def check(self, ok: bool, message: str) -> None:
        if not ok and self.fault is None:
            self.fault = ExpressionError(message)

    def compile(self):
        kind, root = self.chain(0)
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at {self.peek()[1]!r}")
        if self.fault is not None:
            raise self.fault
        if kind != "scalar":
            raise ExpressionError("expression must evaluate to a scalar")
        return root

    def chain(self, level: int):
        """`a op b op c ...` at one level, folded left to right in one closure."""
        kind, first = self.chain(1) if level == 0 else self.unary()
        rest = []
        while self.peek() in _CHAINS[level]:
            op = self.take()
            # The first pass checks the left operand; later, `kind` is the last
            # right operand, checked already.
            message = f"operator {op!r} applies to scalars only"
            self.check(kind == "scalar", message)
            kind, f = self.chain(1) if level == 0 else self.unary()
            self.check(kind == "scalar", message)
            rest.append((_OPERATORS[op], f))
        if not rest:
            return kind, first

        def fold(stack):
            value = first(stack)
            for op, f in rest:
                value = op(value, f(stack))
            return value

        return "scalar", fold

    def unary(self):
        if self.peek() != ("punct", "-"):
            return self.primary()
        self.take()
        kind, arg = self.unary()
        self.check(kind == "scalar", "negation applies to scalars only")
        return "scalar", lambda stack: -arg(stack)

    def primary(self):
        kind, value = self.peek()
        self.pos += 1
        if kind == "num":
            number = float(value)
            return "scalar", lambda stack: number
        if (kind, value) == ("punct", "("):
            result = self.chain(0)
            self.take("punct", ")")
            return result
        if kind != "ident":
            raise ExpressionError(f"unexpected token {value!r}")
        if self.peek() != ("punct", "("):
            if value == "x":
                return "vector", lambda stack: stack
            m = _COORDINATE.fullmatch(value)
            self.check(m is not None, f"unknown identifier {value!r}")
            k = int(m.group(1)) - 1 if m else 0
            self.check(0 <= k < self.n, f"coordinate {value} out of range for n={self.n}")
            return "scalar", lambda stack: stack[:, k]
        self.take()
        self.check(value in _FUNCTIONS, f"unknown function {value!r}")
        args = [self.chain(0)]
        while self.peek() == ("punct", ","):
            self.take()
            args.append(self.chain(0))
        self.take("punct", ")")
        kinds, message, fn = _FUNCTIONS.get(value, ([], "", None))
        self.check([k for k, _ in args] == kinds, message)
        if self.fault is not None:
            return "scalar", None  # never evaluated: compile raises the fault
        if len(args) == 1:
            arg = args[0][1]
            return "scalar", lambda stack: fn(arg(stack))
        (_, a), (_, b) = args
        return "scalar", lambda stack: fn(a(stack), b(stack))

def compile_weight_expression(text: str, n: int):
    """Compile an expression into a point -> float evaluator.

    The text is checked and compiled in one pass into closures that evaluate
    a whole stack of points at a time.  `evaluator.rows(P)` maps an (m, n)
    stack to its m values as a float array, bit-equal to evaluating each row
    alone; `evaluator(p)` is its one-row case.  Nesting too deep for Python's
    recursion limit, when compiling or evaluating, is an ExpressionError.
    """
    try:
        root = _Compiler(text, n).compile()
    except RecursionError:
        raise ExpressionError(_TOO_DEEP) from None

    def rows(points) -> np.ndarray:
        stack = np.asarray(points, dtype=float)
        # Python float arithmetic overflows to inf and nan without a word.
        with np.errstate(all="ignore"):
            try:
                value = root(stack)
            except RecursionError:
                raise ExpressionError(_TOO_DEEP) from None
            return np.broadcast_to(value, stack.shape[:1]).astype(float)

    def evaluator(point) -> float:
        return float(rows(np.asarray(point, dtype=float)[None])[0])

    evaluator.rows = rows
    return evaluator
