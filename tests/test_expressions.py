"""Parser/evaluator unit tests for the closed-form expression grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import parse_expression
from fraclab.errors import ExpressionError


def ev(src, **env):
    return parse_expression(src).evaluate(env)


def test_literals_and_precedence():
    assert ev("2 + 3*4^2") == 50.0
    assert ev("(2 + 3)*4") == 20.0
    assert ev("2*x + 1", x=3.0) == 7.0
    assert ev("-x^2", x=2.0) == -4.0  # unary minus binds looser than ^
    assert ev("10/4") == 2.5
    assert ev("0.5*x - 1.25", x=4.5) == 1.0


def test_integer_exponents_only():
    assert ev("x^3", x=2.0) == 8.0
    assert ev("x^0", x=7.0) == 1.0
    with pytest.raises(ExpressionError):
        parse_expression("x^0.5")
    with pytest.raises(ExpressionError):
        parse_expression("x^(1/2)")


@pytest.mark.parametrize("src", ["x +", "2 ** 3", "x~y", "", "(x", "x + z"])
def test_malformed_sources_raise(src):
    with pytest.raises(ExpressionError):
        parse_expression(src)


def test_vectorized_evaluation():
    e = parse_expression("x^2 + 2*x*y - 1/(y+3)")
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 1.0, 1.0])
    out = e.evaluate({"x": x, "y": y})
    np.testing.assert_allclose(out, x**2 + 2 * x * y - 0.25)


def test_variables_reported():
    assert sorted(parse_expression("x*y + x").variables()) == ["x", "y"]
    assert parse_expression("3.5").variables() == set()


def test_diff_polynomial():
    d = parse_expression("x^3 - 2*x*y").diff("x")
    assert d.evaluate({"x": 2.0, "y": 5.0}) == pytest.approx(12.0 - 10.0)
    # derivative with respect to an absent variable is zero
    dz = parse_expression("x^2").diff("y")
    assert dz.evaluate({"x": 3.0}) == 0.0


def test_diff_quotient_rule():
    d = parse_expression("1/(x+2)").diff("x")
    assert d.evaluate({"x": 1.0}) == pytest.approx(-1.0 / 9.0, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.integers(min_value=-5, max_value=5), min_size=1, max_size=4
    ),
    x0=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_diff_matches_finite_differences(coeffs, x0):
    src = " + ".join(f"{c}*x^{k}" for k, c in enumerate(coeffs))
    e = parse_expression(src)
    d = e.diff("x")
    h = 1e-6
    fd = (e.evaluate({"x": x0 + h}) - e.evaluate({"x": x0 - h})) / (2 * h)
    assert d.evaluate({"x": x0}) == pytest.approx(fd, abs=1e-4)
