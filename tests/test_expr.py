import inspect
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqball.errors import ExpressionError
from eqball.expr import compile_weight_expression


def test_constant():
    f = compile_weight_expression("1.5", 3)
    assert f(np.zeros(3)) == 1.5


def test_coordinates_and_arithmetic():
    f = compile_weight_expression("x1 + 2*x2 - x3/4", 3)
    assert f(np.array([1.0, 2.0, 4.0])) == pytest.approx(1 + 4 - 1)


def test_norm_and_dot():
    f = compile_weight_expression("dot(x, x)", 2)
    assert f(np.array([3.0, 4.0])) == pytest.approx(25.0)
    g = compile_weight_expression("norm(x)", 2)
    assert g(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_sqrt_abs_unary_minus():
    f = compile_weight_expression("sqrt(abs(-x1))", 1)
    assert f(np.array([-9.0])) == pytest.approx(3.0)


def test_precedence_and_parens():
    f = compile_weight_expression("2 + 3 * 4", 1)
    assert f(np.zeros(1)) == 14.0
    g = compile_weight_expression("(2 + 3) * 4", 1)
    assert g(np.zeros(1)) == 20.0


def test_quadratic_form_expansion():
    # <T x, x> for T = [[2, 1], [1, -1]] written with expanded products
    f = compile_weight_expression("2*x1*x1 + 2*x1*x2 - x2*x2", 2)
    t = np.array([[2.0, 1.0], [1.0, -1.0]])
    p = np.array([0.3, -0.7])
    assert f(p) == pytest.approx(float(p @ t @ p))


# Every grammar construct next to the numpy/math formula it stands for,
# written in the evaluation order of the tree, so values agree bit for bit.
CONSTRUCTS = [
    ("2.5", lambda p: 2.5),
    (".5 + 3.", lambda p: 0.5 + 3.0),
    ("x2", lambda p: float(p[1])),
    ("x1 ", lambda p: float(p[0])),
    ("x1\n", lambda p: float(p[0])),
    (" \t( x2 ) ", lambda p: float(p[1])),
    ("-x3", lambda p: -float(p[2])),
    ("- -x1", lambda p: -(-float(p[0]))),
    ("x1 + x2 - x3", lambda p: (float(p[0]) + float(p[1])) - float(p[2])),
    ("x1 * x2 / x3", lambda p: (float(p[0]) * float(p[1])) / float(p[2])),
    ("x1 - x2 * x3 + 1", lambda p: (float(p[0]) - float(p[1]) * float(p[2])) + 1.0),
    ("(x1 - x2) * (x3 + 1)", lambda p: (float(p[0]) - float(p[1])) * (float(p[2]) + 1.0)),
    ("norm(x)", lambda p: float(np.linalg.norm(p))),
    ("dot(x, x)", lambda p: float(np.dot(p, p))),
    ("sqrt(abs(x1))", lambda p: math.sqrt(abs(float(p[0])))),
    ("abs(x2 - 1)", lambda p: abs(float(p[1]) - 1.0)),
    ("2*x1*x1 + dot(x,x) - 0.5",
     lambda p: ((2.0 * float(p[0])) * float(p[0]) + float(np.dot(p, p))) - 0.5),
    ("sqrt(dot(x,x)) / norm(x) - -abs(x3)",
     lambda p: math.sqrt(float(np.dot(p, p))) / float(np.linalg.norm(p)) - (-abs(float(p[2])))),
]


@pytest.mark.parametrize("text, formula", CONSTRUCTS)
def test_evaluator_matches_direct_formula(text, formula):
    f = compile_weight_expression(text, 3)
    rng = np.random.default_rng(21)
    for p in rng.uniform(-1.0, 1.0, size=(50, 3)):
        value = f(p)
        assert type(value) is float
        assert value == formula(p)
    assert f([0.25, -0.5, 0.75]) == formula(np.array([0.25, -0.5, 0.75]))


PARSE_ERRORS = [
    ("x0", "coordinate x0 out of range for n=2"),
    ("x3", "coordinate x3 out of range for n=2"),
    ("y + 1", "unknown identifier 'y'"),
    ("norm(x1)", "norm takes one vector argument"),
    ("dot(x)", "dot takes two vector arguments"),
    ("1 +", "unexpected token ''"),
    ("(1", "expected punct, got ''"),
    ("sqrt(x)", "sqrt takes one scalar argument"),
    ("x * 2", "operator '*' applies to scalars only"),
    ("norm()", "unexpected token ')'"),
    ("1 @ 2", "unexpected character at position 2: '@'"),
    ("-x", "negation applies to scalars only"),
    ("x", "expression must evaluate to a scalar"),
    # Two faults in one tree: the check that fires first is part of the contract.
    ("x + x3", "operator '+' applies to scalars only"),
    ("foo(x3)", "unknown function 'foo'"),
    ("dot(x, x3)", "coordinate x3 out of range for n=2"),
    # A syntax fault anywhere wins over a type fault read before it.
    ("x3 +", "unexpected token ''"),
    ("norm(x1) )", "trailing input at ')'"),
    ("foo(x", "expected punct, got ''"),
    ("x * 2 @", "unexpected character at position 6: '@'"),
]


def test_parse_errors():
    for bad, message in PARSE_ERRORS:
        with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
            compile_weight_expression(bad, 2)


def test_eval_errors():
    f = compile_weight_expression("1/x1", 1)
    with pytest.raises(ExpressionError, match="^division by zero during evaluation$"):
        f(np.zeros(1))
    g = compile_weight_expression("sqrt(x1)", 1)
    with pytest.raises(ExpressionError, match="^sqrt of a negative value$"):
        g(np.array([-1.0]))
    assert f(np.array([4.0])) == 0.25 and g(np.array([0.0])) == 0.0


def _signed_zero_stack(seed):
    """Random points of [-1, 1]^3 with about a quarter of the coordinates +0.0
    or -0.0, and the all-(+0.0) and all-(-0.0) points."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(80, 3))
    points[rng.random(points.shape) < 0.15] = 0.0
    points[rng.random(points.shape) < 0.15] = -0.0
    points[0], points[1] = 0.0, -0.0
    return points


@pytest.mark.parametrize("text", [text for text, _ in CONSTRUCTS])
def test_rows_kernel_equals_the_per_point_evaluator(text):
    """evaluator.rows on a stack gives each point's own value, bit for bit;
    a stack holding a point that fails raises that point's error."""
    f = compile_weight_expression(text, 3)
    points = _signed_zero_stack(3)
    good, values, failing = [], [], []
    for p in points:
        try:
            values.append(f(p))
            good.append(p)
        except ExpressionError as exc:
            failing.append(str(exc))
    batch = f.rows(np.array(good))
    assert batch.dtype == np.float64 and batch.shape == (len(good),)
    assert batch.tobytes() == np.array(values).tobytes()
    if failing:
        with pytest.raises(ExpressionError, match=f"^{re.escape(failing[0])}$"):
            f.rows(points)


@pytest.mark.parametrize("text, bad, message", [
    ("1/x1", 0.0, "division by zero during evaluation"),
    ("1/x1", -0.0, "division by zero during evaluation"),
    ("sqrt(x1)", -1.0, "sqrt of a negative value"),
])
def test_eval_errors_on_a_batch_match_one_point(text, bad, message):
    f = compile_weight_expression(text, 1)
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        f(np.array([bad]))
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        f.rows(np.array([[4.0], [bad], [1.0]]))
    assert f.rows(np.array([[4.0], [1.0]])).tolist() == [f(np.array([4.0])), f(np.array([1.0]))]


TOO_DEEP = "^expression is nested too deeply$"


@pytest.mark.parametrize("text", ["(" * 5000 + "x1" + ")" * 5000, "-" * 5000 + "x1",
                                  "sqrt(" * 5000 + "x1" + ")" * 5000],
                         ids=["parens", "minus", "sqrt"])
def test_deep_nesting_is_an_expression_error(text):
    with pytest.raises(ExpressionError, match=TOO_DEEP):
        compile_weight_expression(text, 2)


def test_evaluation_too_deep_for_the_stack_is_an_expression_error():
    f = compile_weight_expression("-" * 200 + "x1", 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(ExpressionError, match=TOO_DEEP):
            f.rows(np.zeros((1, 2)))
    finally:
        sys.setrecursionlimit(limit)


def test_a_long_chain_folds_left_to_right():
    f = compile_weight_expression("x1+" * 4999 + "1", 2)
    value = 0.1
    for _ in range(4998):
        value += 0.1
    assert f([0.1, 0.0]) == value + 1.0


def _left_fold(step, count, start):
    value = start
    for _ in range(count):
        value = step(value)
    return value


# Somewhat shallower than the deepest nests that compile under pytest at
# Python's default recursion limit (236 parens or sqrt calls, 945 minus
# signs), so that each level costs no more stack than it did.
@pytest.mark.parametrize("text, value", [
    ("(" * 200 + "x1" + ")" * 200, 0.25),
    ("sqrt(" * 200 + "x1" + ")" * 200, _left_fold(math.sqrt, 200, 0.25)),
    ("-" * 801 + "x1", -0.25),
    ("x1+" * 899 + "1", _left_fold(lambda v: v + 0.25, 898, 0.25) + 1.0),
], ids=["parens", "sqrt", "minus", "chain"])
def test_deep_nests_still_compile(text, value):
    assert compile_weight_expression(text, 2)([0.25, 0.5]) == value


# Every token of the grammar, names it rejects, and stray characters.
TOKENS = ["x", "x0", "x1", "x2", "x3", "y", "norm", "dot", "sqrt", "abs", "foo",
          "(", ")", ",", "+", "-", "*", "/", "0", "1", "2.5", ".5", "7.", " "]
COORDINATES = st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(-1.0, 1.0)
STACKS = st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=6).map(np.array)


def _scalar_texts():
    leaves = st.sampled_from(["x1", "x2", "0", "1", "2.5", ".5", "norm(x)", "dot(x, x)"])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        inner.map("sqrt({})".format),
        inner.map("abs({})".format),
    ), max_leaves=10)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(st.lists(st.sampled_from(TOKENS) | st.characters(), max_size=12).map("".join), STACKS)
def test_any_text_compiles_or_is_an_expression_error(text, stack):
    try:
        compile_weight_expression(text, 2).rows(stack)
    except ExpressionError:
        pass


@settings(derandomize=True, deadline=None, database=None)
@given(_scalar_texts(), STACKS)
def test_rows_equals_the_per_point_evaluation(text, stack):
    """rows gives each point's own value bit for bit.  A stack holding a
    failing point raises the error of the first failing node in evaluation
    order, which is the error of a failing point; when every failing point
    fails alike, it is the first failing point's error."""
    f = compile_weight_expression(text, 2)
    values, errors = [], []
    for p in stack:
        try:
            values.append(f(p))
        except ExpressionError as exc:
            errors.append(str(exc))
    if not errors:
        assert f.rows(stack).tobytes() == np.array(values).tobytes()
        return
    with pytest.raises(ExpressionError) as raised:
        f.rows(stack)
    assert str(raised.value) in errors
