import math

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


def test_parse_errors():
    for bad in ("x0", "x3", "y + 1", "norm(x1)", "dot(x)", "1 +", "(1", "sqrt(x)",
                "x * 2", "norm()", "1 @ 2"):
        with pytest.raises(ExpressionError):
            compile_weight_expression(bad, 2)


def test_eval_errors():
    f = compile_weight_expression("1/x1", 1)
    with pytest.raises(ExpressionError, match="^division by zero during evaluation$"):
        f(np.zeros(1))
    g = compile_weight_expression("sqrt(x1)", 1)
    with pytest.raises(ExpressionError, match="^sqrt of a negative value$"):
        g(np.array([-1.0]))
    assert f(np.array([4.0])) == 0.25 and g(np.array([0.0])) == 0.0
