import math
import re

import numpy as np
import pytest

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
