"""Parser/evaluator unit tests for the closed-form expression grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import parse_expression
from fraclab.errors import ExpressionError
from fraclab.expressions import Add, Const, DivNode, Mul, Neg, Pow, Sub, Var


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


MALFORMED = [
    "x +", "2 ** 3", "x~y", "", "(x", "x + z",
    # Python would read these: a comment, NFKC-normalized names, other literals
    "x # c", "𝑥 + 1", "ｘ^2", "0x10", "1_0", "1j",
    "x^2.0", "2^3^2", "x<y", "x;y", "'a'", "x if y else 1",
    "2if x else 1",  # Python warns of the literal before rejecting it
]


@pytest.mark.parametrize("src", MALFORMED)
def test_malformed_sources_raise(src, recwarn):
    with pytest.raises(ExpressionError):
        parse_expression(src)
    assert not recwarn.list


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


_LEAVES = st.one_of(
    st.sampled_from(["x", "y"]).map(Var),
    # non-negative: str(Const(-1.0)) reads back as Neg(Const(1.0))
    st.floats(min_value=0.0, allow_infinity=False).map(Const),
)


def _extend(children):
    binop = st.sampled_from([Add, Sub, Mul, DivNode])
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), binop, children, children),
        st.builds(Pow, children, st.integers(min_value=-5, max_value=5)),
        st.builds(Neg, children),
    )


@settings(max_examples=200, deadline=None)
@given(e=st.recursive(_LEAVES, _extend, max_leaves=12))
def test_str_parses_back_to_the_same_tree(e):
    assert parse_expression(str(e)) == e


# ---------------------------------------------------------------------------
# integer powers k >= 3 are square-and-multiply products, not np.power
# ---------------------------------------------------------------------------

_SPECIAL = [-2.0, -1.5, -1.0, -0.5, 0.0, -0.0, 0.5, 1.0, 3.0, np.inf, -np.inf, np.nan]


def _pow(base, k):
    return Pow(Var("x"), k).evaluate({"x": base})


def _agree(got, want, k):
    """Equal where np.power is exact or not finite; otherwise within the
    (k - 1) half-ulps of the products plus two of numpy's own rounding."""
    got, want = np.asarray(got), np.asarray(want)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):  # inf - inf where both are inf
        close = np.abs(got - want) <= (k + 3) * 2.0**-53 * np.abs(want)
    return bool(np.all(same | (np.isfinite(want) & close)))


@pytest.mark.parametrize("k", [3, 4, 5, 7, 2000])
def test_power_products_match_np_power(k):
    rng = np.random.default_rng(k)
    # results stay normal: 0.8^2000 is about 1e-194, 1.4^2000 about 1e292
    mag = rng.uniform(0.8, 1.4, 4096) if k == 2000 else rng.uniform(0.0, 5.0, 4096)
    x = np.concatenate([mag * rng.choice([-1.0, 1.0], mag.size), _SPECIAL])
    before = x.copy()
    with np.errstate(over="ignore"):  # 3^2000 overflows on both sides
        want, got = np.power(x, k), _pow(x, k)
    assert np.array_equal(x, before, equal_nan=True)  # the last product is in place
    assert got.dtype == np.float64 and got.shape == x.shape
    assert _agree(got, want, k)
    # zeros keep the sign np.power gives them: (-0)^3 = -0, (-0)^4 = +0
    zeros = want == 0.0
    assert np.array_equal(np.signbit(got[zeros]), np.signbit(want[zeros]))


@pytest.mark.parametrize("k", [3, 4, 5, 7, 2000])
@pytest.mark.parametrize("base", _SPECIAL + [-0.9999, 1.0001])
def test_power_products_on_python_floats_and_0d_arrays(k, base):
    for x in (base, np.array(base)):
        with np.errstate(over="ignore"):  # 3^2000 overflows on both sides
            want, got = np.power(base, k), _pow(x, k)
        assert np.ndim(got) == 0
        assert _agree(got, want, k)


def test_power_products_are_exact_where_the_power_is():
    assert _pow(-2.0, 3) == -8.0
    assert _pow(np.array([-2.0, 3.0, -1.0]), 5).tolist() == [-32.0, 243.0, -1.0]
    assert _pow(-1.0, 2000) == 1.0
    assert ev("2^10") == 1024.0
    assert ev("x^7", x=-0.5) == -0.0078125


@pytest.mark.parametrize("k", [3, 4, 7, 2000])
def test_power_products_overflow_to_the_inf_of_np_power(k):
    big = np.array([1e120, -1e120, 1e300, -1e300])
    with np.errstate(over="ignore"):
        want = np.power(big, k)
        got = _pow(big, k)
    assert np.array_equal(got, want)
    # a Python float overflows to inf as numpy does; Python's own ** raised
    with np.errstate(over="ignore"):
        assert _pow(-1e300, k) == np.power(-1e300, k)
    assert ev("2^2000") == np.inf


def test_small_and_negative_powers_stay_np_power():
    x = np.linspace(-3.0, 3.0, 101)
    x = x[x != 0.0]
    for k in (0, 1, 2, -1, -3):
        assert np.array_equal(_pow(x, k), x**k)
