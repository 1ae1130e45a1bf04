"""Vector fields, deformation kernel, and condition-certificate tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclab as fl
from fraclab.errors import (
    ArgumentError,
    CoincidentPointsError,
    DimensionMismatchError,
    RangeError,
)

BOX2 = [(-1.5, 1.5), (-1.5, 1.5)]
BOX1 = [(-2.0, 2.0)]


# ---------------------------------------------------------------------------
# normalizing constant
# ---------------------------------------------------------------------------

def test_frac_constant_half_values():
    assert fl.frac_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert fl.frac_constant(2, 0.5) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14
    )


def test_frac_constant_gamma_formula():
    for N, s in [(1, 0.3), (2, 0.7), (3, 0.25)]:
        expected = (
            math.pi ** (-N / 2.0)
            * s
            * 4.0**s
            * math.gamma(N / 2.0 + s)
            / math.gamma(1.0 - s)
        )
        assert fl.frac_constant(N, s) == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def test_kernel_identity_s_half_vanishes():
    X = fl.identity_field(1, box=BOX1)
    assert fl.eval_kernel_KX(X, 0.5, 1, [0.3], [-0.4]) == pytest.approx(
        0.0, abs=1e-14
    )


def test_kernel_constant_field_vanishes():
    X = fl.constant_field([0.7, -0.2], BOX2)
    for x, y in [([0.0, 0.0], [1.0, 0.5]), ([0.2, -0.3], [-0.9, 1.1])]:
        assert fl.eval_kernel_KX(X, 0.3, 2, x, y) == pytest.approx(0.0, abs=1e-14)


def test_kernel_identity_2d_unit_separation():
    X = fl.identity_field(2, box=BOX2)
    v = fl.eval_kernel_KX(X, 0.5, 2, [1.0, 0.0], [0.0, 0.0])
    assert v == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)


def test_kernel_rotation_generator_vanishes():
    Y = fl.rotation_field(BOX2)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = rng.uniform(-1.2, 1.2, size=(2, 2))
        if np.hypot(*(x - y)) < 1e-6:
            continue
        assert fl.eval_kernel_KX(Y, 0.4, 2, x, y) == pytest.approx(0.0, abs=1e-13)


def test_kernel_coincident_points():
    X = fl.identity_field(1, box=BOX1)
    with pytest.raises(CoincidentPointsError):
        fl.eval_kernel_KX(X, 0.5, 1, [0.3], [0.3])


def test_kernel_linearity_in_field():
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    Z = fl.make_field(["2*x - 1"], box=BOX1)
    both = fl.make_field(["(x + 0.25*x^2) + (2*x - 1)"], box=BOX1)  # X + Z
    rng = np.random.default_rng(5)
    for _ in range(30):
        x, y = rng.uniform(-1.5, 1.5, size=2)
        if abs(x - y) < 1e-6:
            continue
        kx = fl.eval_kernel_KX(X, 0.3, 1, [x], [y])
        kz = fl.eval_kernel_KX(Z, 0.3, 1, [x], [y])
        ks = fl.eval_kernel_KX(both, 0.3, 1, [x], [y])
        assert ks == pytest.approx(kx + kz, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_kernel_scaling_in_field(alpha):
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    aX = fl.make_field([f"({alpha!r}) * (x + 0.25*x^2)"], box=BOX1)
    k1 = fl.eval_kernel_KX(X, 0.6, 1, [0.7], [-0.2])
    k2 = fl.eval_kernel_KX(aX, 0.6, 1, [0.7], [-0.2])
    assert k2 == pytest.approx(alpha * k1, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# field metadata invariants
# ---------------------------------------------------------------------------

def test_divergence_matches_finite_differences():
    X = fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(20):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        fd = (
            X.at((x + h, y))[0] - X.at((x - h, y))[0]
            + X.at((x, y + h))[1] - X.at((x, y - h))[1]
        ) / (2 * h)
        assert X.div_at((x, y)) == pytest.approx(fd, rel=1e-6)


def test_lipschitz_bound_dominates_samples():
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(2000):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        if abs(x - y) < 1e-9:
            continue
        worst = max(worst, abs(X.at1(x) - X.at1(y)) / abs(x - y))
    assert X.lip >= worst - 1e-12


def test_nonpolynomial_divergence_flagged():
    X = fl.make_field(["x/(y+3)", "y"], box=BOX2)
    assert X.div_method == "symbolic"
    Y = fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2)
    assert Y.div_method == "symbolic"
    Z = fl.make_field(["x/(1 + x^2)"], box=BOX1)
    assert Z.div_method == "symbolic"
    x = np.linspace(-1.0, 1.0, 2001)
    exact = (1.0 - x**2) / (1.0 + x**2) ** 2
    assert np.max(np.abs(Z.div1(x) - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_make_field_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        fl.make_field(["x + y"], box=BOX1)


NOT_FINITE = [
    # Python's float ** raised OverflowError; as a product 2^2000 is inf
    (["x + 2^2000"], None, "field component 'x + 2^2000' is not finite"),
    # inf - inf made every quotient nan, and max(0.0, nan) kept lip = 0.0
    (["x^700"], None, "field component 'x^700' is not finite"),
    # finite values, but their differences overflowed the norm: lip = inf
    (["x^400"], None, "field 'x^400' has no finite Lipschitz bound"),
    (["x^400", "y"], None, "field 'x^400', 'y' has no finite Lipschitz bound"),
    (["x", "1/0"], None, "field component '1/0' is not finite"),
    (["x"], "2^2000", "field divergence '2^2000' is not finite"),
]


@pytest.mark.parametrize("components, div, message", NOT_FINITE)
def test_make_field_refuses_a_field_not_finite_on_its_box(components, div, message):
    # RuntimeWarnings are errors in this suite: the sampling raises none
    box = [(-3.0, 3.0), (-1.0, 1.0)][: len(components)]
    with pytest.raises(ArgumentError) as err:
        fl.make_field(components, box=box, div=div)
    assert str(err.value) == f"{message} on its box {[list(b) for b in box]}"


POLES = [
    # finite at every sample, lip about 2.0e8: the pole at 1 fell between them
    (["x/(x-1)"], None, "field component 'x/(x-1)' has a pole", "(x - 1.0)"),
    (["x^-1"], None, "field component 'x^-1' has a pole", "x"),
    (["x", "y/(x - 0.5)"], None, "field component 'y/(x - 0.5)' has a pole", "(x - 0.5)"),
    # a pole of the divergence alone
    (["x", "y"], "2 + 1/(y - 0.25)", "field divergence '2 + 1/(y - 0.25)' has a pole", "(y - 0.25)"),
    # a denominator that is 0 at a grid point, without changing sign
    (["x/(x^2)"], None, "field component 'x/(x^2)' has a pole", "(x^2)"),
    # poles of even order: the denominator keeps its sign and misses 0 on
    # the grid, but the base of its power, or a factor of its product,
    # changes sign
    (["x/(x - 0.01)^2"], None, "field component 'x/(x - 0.01)^2' has a pole", "(x - 0.01)"),
    (["x/((x - 0.01)*(x - 0.01))"], None, "field component 'x/((x - 0.01)*(x - 0.01))' has a pole", "(x - 0.01)"),
    (["1/(x - 0.01)^4"], None, "field component '1/(x - 0.01)^4' has a pole", "(x - 0.01)"),
]


@pytest.mark.parametrize("components, div, message, denominator", POLES)
def test_make_field_refuses_a_pole_on_its_box(components, div, message, denominator):
    box = [(-3.0, 3.0), (-1.0, 1.0)][: len(components)]
    with pytest.raises(ArgumentError) as err:
        fl.make_field(components, box=box, div=div)
    assert str(err.value) == (
        f"{message} on its box {[list(b) for b in box]}: "
        f"its denominator {denominator} is 0 or changes sign"
    )


@pytest.mark.parametrize(
    "component, box",
    [
        ("x/(1 + x^2)", [(-3.0, 3.0)]),
        ("x/(0.01 + x^2)", [(-3.0, 3.0)]),
        ("x/(1 + x^2)^2", [(-3.0, 3.0)]),
        ("x^-2", [(1.0, 4.0)]),
    ],
)
def test_make_field_keeps_denominators_of_one_sign(component, box):
    assert math.isfinite(fl.make_field([component], box=box).lip)


def test_make_field_keeps_a_large_finite_field():
    # 3^300 is about 1e143: every sample, quotient and norm stays finite
    X = fl.make_field(["x^300"], box=[(-3.0, 3.0)])
    assert math.isfinite(X.lip) and X.lip > 1e140


# ---------------------------------------------------------------------------
# condition certificates
# ---------------------------------------------------------------------------

def test_c_condition_identity():
    cert = fl.check_c_condition(fl.identity_field(2, box=BOX2))
    assert cert.verdict == "pass"
    assert cert.constants[0] == pytest.approx(1.0, abs=1e-9)


def test_c_condition_example_rotation_plus_dilation():
    X = fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2)
    cert = fl.check_c_condition(X)
    assert cert.verdict == "pass"
    assert cert.constants[0] == pytest.approx(5.0, abs=1e-9)
    assert cert.kind == "c-condition"
    assert cert.samples >= 100


def test_c_condition_anisotropic_fails():
    X = fl.make_field(["0.5*x", "y"], box=BOX2)
    cert = fl.check_c_condition(X)
    assert cert.verdict == "fail"


def test_c_condition_implies_kernel_reduction():
    # when the certificate passes with constant c the kernel collapses to
    # (c_{N,s} c / 2)(N - 2s)|x - y|^{-N-2s}
    X = fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2)
    cert = fl.check_c_condition(X)
    c = cert.constants[0]
    s, N = 0.3, 2
    cns = fl.frac_constant(N, s)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x, y = rng.uniform(-1.2, 1.2, size=(2, 2))
        r = float(np.hypot(*(x - y)))
        if r < 1e-3:
            continue
        expected = 0.5 * cns * c * (N - 2 * s) * r ** (-N - 2 * s)
        assert fl.eval_kernel_KX(X, s, N, x, y) == pytest.approx(
            expected, rel=1e-9
        )


def test_c1_c2_example_anisotropic():
    X = fl.make_field(["0.5*x", "y"], box=BOX2)
    cert = fl.check_c1_c2(X)
    assert cert.kind == "c1c2-condition"
    c1, c2 = cert.constants
    assert c1 == pytest.approx(1.5, abs=1e-6)
    assert c2 == pytest.approx(1.0, abs=1e-6)


def test_c1_c2_identity_and_constant():
    c1, c2 = fl.check_c1_c2(fl.identity_field(2, box=BOX2)).constants
    assert (c1, c2) == pytest.approx((2.0, 1.0), abs=1e-6)
    c1, c2 = fl.check_c1_c2(fl.constant_field([0.3, -1.0], BOX2)).constants
    assert (c1, c2) == pytest.approx((0.0, 0.0), abs=1e-9)


def test_c1_c2_two_sided_divergence_inequality():
    for X in (
        fl.identity_field(2, box=BOX2),
        fl.make_field(["0.5*x", "y"], box=BOX2),
        fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2),
    ):
        c1, c2 = fl.check_c1_c2(X).constants
        assert c1 <= X.dim * c2 + 1e-9


def test_certificates_deterministic_in_seed():
    X = fl.make_field(["0.5*x", "y"], box=BOX2)
    a = fl.check_c1_c2(X, seed=99)
    b = fl.check_c1_c2(X, seed=99)
    assert a.constants == b.constants
    assert a.seed == 99


# ---------------------------------------------------------------------------
# nonexistence threshold
# ---------------------------------------------------------------------------

def test_threshold_corollary_case_critical_exponent():
    # c1 = N c2 collapses the formula to the critical exponent 2N/(N-2s)
    for N, s in [(1, 0.25), (2, 0.5), (3, 0.7)]:
        got = fl.nonexistence_threshold(float(N), 1.0, N, s)
        assert got == pytest.approx(2.0 * N / (N - 2.0 * s), rel=1e-14)


def test_threshold_example_value():
    assert fl.nonexistence_threshold(1.5, 1.0, 2, 0.25) == pytest.approx(
        8.0, rel=1e-14
    )


def test_threshold_range_error_at_boundary():
    with pytest.raises(RangeError):
        fl.nonexistence_threshold(1.5, 1.0, 2, 0.5)
    with pytest.raises(RangeError):
        fl.nonexistence_threshold(1.5, 1.0, 2, 0.75)


def test_admissible_s_interval():
    assert fl.admissible_s_interval(1.5, 1.0, 2) == pytest.approx((0.0, 0.5))
    assert fl.admissible_s_interval(2.0, 1.0, 2) == pytest.approx((0.0, 1.0))


# ---------------------------------------------------------------------------
# boundary flux
# ---------------------------------------------------------------------------

def _circle_samples():
    dom = fl.make_implicit_domain("x^2 + y^2 - 1", [-1.5, 1.5, -1.5, 1.5])
    return fl.sample_boundary_2d(dom, 24)


def test_min_flux_identity_on_circle():
    v = fl.min_flux(fl.identity_field(2, box=BOX2), _circle_samples())
    assert v == pytest.approx(1.0, abs=1e-6)


def test_min_flux_negated_identity():
    X = fl.make_field(["-x", "-y"], box=BOX2)
    assert fl.min_flux(X, _circle_samples()) == pytest.approx(-1.0, abs=1e-6)


def test_min_flux_example_field_nonnegative():
    dom = fl.make_implicit_domain(
        "x^2 + 10*(y^3 + x)^2 - 1", [-1.2, 1.2, -1.2, 1.2]
    )
    X = fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2)
    assert fl.min_flux(X, fl.sample_boundary_2d(dom, 32)) >= -1e-6


def test_min_flux_dimension_mismatch():
    X = fl.identity_field(1, box=BOX1)
    with pytest.raises(DimensionMismatchError):
        fl.min_flux(X, _circle_samples())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_field_json_round_trip():
    X = fl.make_field(["5*x - 4*y", "5*y + 4*x"], box=BOX2)
    obj = {"dim": 2, "components": ["5*x - 4*y", "5*y + 4*x"], "box": [-1.5, 1.5, -1.5, 1.5]}
    Y = fl.field_from_json(obj)
    assert Y.dim == X.dim
    assert list(Y.components) == list(X.components)
    pt = (0.37, -0.81)
    np.testing.assert_allclose(Y.at(pt), X.at(pt), rtol=1e-15)
    assert Y.div_at(pt) == pytest.approx(X.div_at(pt), rel=1e-12)
