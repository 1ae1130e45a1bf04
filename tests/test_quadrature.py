"""Unit tests for the Gauss rules, power integrals, and adaptive panels."""

import numpy as np
import pytest

from fraclab import (
    adaptive_panels,
    gauss_jacobi_01,
    gauss_legendre,
    gauss_legendre_01,
    power_integral,
)
from fraclab.errors import QuadratureError


@pytest.mark.parametrize("order", [4, 10])
def test_gauss_legendre_polynomial_exactness(order):
    x, w = gauss_legendre(order)
    assert x.shape == w.shape == (order,)
    # exact through degree 2*order - 1 on [-1, 1]
    for k in range(2 * order):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert np.dot(x**k, w) == pytest.approx(exact, abs=1e-13)


def test_gauss_legendre_01_shifted():
    t, w = gauss_legendre_01(8)
    assert np.all((t > 0) & (t < 1))
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)
    assert np.dot(t**5, w) == pytest.approx(1.0 / 6.0, rel=1e-13)


@pytest.mark.parametrize("expo", [-0.5, 0.5, -0.2])
def test_gauss_jacobi_01_weighted_moments(expo):
    # rule integrates t^expo * t^k over (0, 1): value 1/(k + expo + 1)
    t, w = gauss_jacobi_01(16, expo)
    for k in range(9):
        assert np.dot(t**k, w) == pytest.approx(
            1.0 / (k + expo + 1.0), rel=1e-12
        )


def test_power_integral_generic_and_log():
    assert power_integral(1.0, 2.0, 3.0) == pytest.approx(15.0 / 4.0, rel=1e-14)
    assert power_integral(0.5, 2.0, -1.0) == pytest.approx(
        np.log(4.0), rel=1e-13
    )
    # near the log exponent the epsilon -> 0 limit must stay stable
    assert power_integral(0.5, 2.0, -1.0 + 1e-13) == pytest.approx(
        np.log(4.0), rel=1e-10
    )
    assert power_integral(0.0, 2.0, 0.5) == pytest.approx(
        2.0**1.5 / 1.5, rel=1e-14
    )


def test_power_integral_vectorized():
    lo = np.array([0.0, 1.0])
    hi = np.array([1.0, 3.0])
    m = np.array([1.0, -2.0])
    out = power_integral(lo, hi, m)
    np.testing.assert_allclose(out, [0.5, 2.0 / 3.0], rtol=1e-14)


def test_power_integral_divergent_from_zero():
    with pytest.raises(QuadratureError):
        power_integral(0.0, 1.0, -1.0)


def test_adaptive_panels_smooth():
    val, err = adaptive_panels(np.cos, [(0.0, np.pi / 2)], 1e-12)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert err < 1e-12


def test_adaptive_panels_splits_kink():
    # |x| has a kink at 0; a single panel straddling it must be refined
    val, err = adaptive_panels(np.abs, [(-1.0, 2.0)], 1e-12)
    assert val == pytest.approx(2.5, abs=1e-11)


def test_adaptive_panels_error_estimate_honest():
    f = lambda x: np.sqrt(np.abs(x))
    val, err = adaptive_panels(f, [(0.0, 1.0)], 1e-8)
    assert abs(val - 2.0 / 3.0) <= max(err, 1e-8)


def test_adaptive_panels_depth_cap():
    # non-integrable singularity: bisection can never meet the budget
    with pytest.raises(QuadratureError):
        adaptive_panels(lambda x: 1.0 / np.abs(x), [(0.0, 1.0)], 1e-6)


def test_adaptive_panels_refuses_a_non_finite_integrand_at_once():
    # no bisection meets a NaN estimate: the panels doubled up to the cap,
    # nine integrand calls before it raised
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.full_like(x, np.nan)

    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_panels(f, [(0.0, 1.0)], 1e-6, max_panels=1000)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# grouped adaptive panels
# ---------------------------------------------------------------------------

def _grouped(funcs):
    """Integrand of a grouped call: row g of the nodes belongs to funcs[g]."""

    def f(rows):
        g, y = rows[:, 0].astype(int), rows[:, 1:]
        out = np.empty_like(y)
        for k, fn in enumerate(funcs):
            out[g == k] = fn(y[g == k])
        return out

    return f


def test_adaptive_panels_groups_match_separate_calls():
    # a smooth, a kinked and a singular integrand in one pass; each group's
    # value and error are the floats of its own call
    funcs = [np.cos, np.abs, lambda x: np.sqrt(np.abs(x))]
    panels = [[(0.0, np.pi / 2)], [(-1.0, 2.0)], [(0.0, 0.5), (0.5, 1.0)]]
    tols = [1e-12, 1e-12, 1e-8]
    alone = [adaptive_panels(f, p, t) for f, p, t in zip(funcs, panels, tols)]
    groups = np.repeat(np.arange(3), [len(p) for p in panels])
    value, err = adaptive_panels(
        _grouped(funcs), [ab for p in panels for ab in p], tols, groups=groups
    )
    assert value.tolist() == [v for v, _ in alone]
    assert err.tolist() == [e for _, e in alone]


def test_adaptive_panels_depth_cap_applies_to_each_group():
    # group 0 converges on the first pass; group 1 is not integrable
    f = _grouped([np.cos, lambda x: 1.0 / np.abs(x)])
    with pytest.raises(QuadratureError, match="max depth"):
        adaptive_panels(f, [(0.0, 1.0), (0.0, 1.0)], 1e-6, groups=[0, 1])


def test_adaptive_panels_panel_cap_applies_to_the_whole_call():
    # the smallest cap one integral of |x| fits in; forty copies in one pass
    # need forty times the panels together, and the cap counts them together,
    # although each group alone would fit
    cap = next(
        m for m in range(1, 500)
        if _fits(lambda: adaptive_panels(np.abs, [(-1.0, 2.0)], 1e-12, max_panels=m))
    )
    with pytest.raises(QuadratureError, match="panel cap"):
        adaptive_panels(np.abs, [(-1.0, 2.0)], 1e-12, max_panels=cap - 1)
    batch = (_grouped([np.abs] * 40), [(-1.0, 2.0)] * 40, 1e-12)
    with pytest.raises(QuadratureError, match="panel cap"):
        adaptive_panels(*batch, max_panels=40 * cap - 1, groups=np.arange(40))
    value, _ = adaptive_panels(*batch, max_panels=40 * cap, groups=np.arange(40))
    assert value == pytest.approx(np.full(40, 2.5), abs=1e-11)


def _fits(call) -> bool:
    try:
        call()
    except QuadratureError:
        return False
    return True
