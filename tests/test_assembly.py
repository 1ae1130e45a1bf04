"""Mass/stiffness/deformation assembly and pointwise-operator tests.

The stiffness oracle values come from three independent routes: the
closed-form single-hat energy (helpers.hat_energy_exact), scipy dblquad
entries frozen in helpers.DBLQUAD_STIFFNESS, and the analytic scaling law.
"""

import math

import numpy as np
import pytest

import fraclab as fl
from fraclab import assembly
from fraclab.assembly import _pair_tables
from fraclab.errors import (
    ArgumentError,
    QuadratureError,
    ToleranceError,
)
from helpers import (
    DBLQUAD_STIFFNESS,
    gaussian_frac_ref,
    hat_energy_exact,
    torsion_frac_value,
)


def uniform_mesh(lo, hi, n):
    return fl.make_mesh(fl.make_domain([(lo, hi)]), n, beta=1.0)


# ---------------------------------------------------------------------------
# mass matrix
# ---------------------------------------------------------------------------

def test_mass_uniform_closed_form():
    h = 0.25
    M = fl.assemble_mass(uniform_mesh(-1.0, 1.0, 8))
    assert np.allclose(np.diag(M), 2.0 * h / 3.0, rtol=1e-14)
    assert np.allclose(np.diag(M, 1), h / 6.0, rtol=1e-14)
    assert np.allclose(M, M.T)


def test_mass_single_interior_node():
    M = fl.assemble_mass(uniform_mesh(0.0, 1.0, 2))
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_mass_block_diagonal_two_intervals():
    d = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
    M = fl.assemble_mass(fl.make_mesh(d, 4, beta=1.0))
    assert M.shape == (6, 6)
    assert np.allclose(M[:3, 3:], 0.0)
    assert np.allclose(M[3:, :3], 0.0)


# ---------------------------------------------------------------------------
# Gagliardo stiffness
# ---------------------------------------------------------------------------

def test_stiffness_single_hat_log_value():
    # unit hat of halfwidth 1/2 at s = 1/2: energy is exactly 4 ln 2 / pi
    A = fl.assemble_gagliardo(uniform_mesh(0.0, 1.0, 2), 0.5)
    assert A[0, 0] == pytest.approx(4.0 * math.log(2.0) / math.pi, rel=1e-10)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("w", [0.5, 1.3])
def test_stiffness_single_hat_gamma_formula(s, w):
    A = fl.assemble_gagliardo(uniform_mesh(-w, w, 2), s)
    assert A[0, 0] == pytest.approx(hat_energy_exact(w, s), rel=1e-10)


@pytest.mark.parametrize("s", [0.3, 0.6])
def test_stiffness_against_dblquad_oracle(s):
    A = fl.assemble_gagliardo(uniform_mesh(-1.0, 1.0, 8), s)
    for (so, i, j), ref in DBLQUAD_STIFFNESS.items():
        if so == s:
            assert A[i, j] == pytest.approx(ref, rel=1e-6)


def test_stiffness_scaling_law():
    s, r = 0.3, 2.5
    A1 = fl.assemble_gagliardo(fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8), s)
    Ar = fl.assemble_gagliardo(
        fl.make_mesh(fl.make_domain([(-r, r)]), 8), s
    )
    np.testing.assert_allclose(Ar, r ** (1.0 - 2.0 * s) * A1, rtol=1e-10)


def test_stiffness_symmetric_positive_definite():
    F = fl.assemble_forms(fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 16), 0.5)
    A, M = F.stiffness, F.mass
    assert np.linalg.norm(A - A.T) <= 1e-12 * np.linalg.norm(A)
    assert np.min(np.linalg.eigvalsh(A)) > 0
    assert np.min(np.linalg.eigvalsh(M)) > 0


def test_stiffness_exterior_tail_matters():
    mesh = uniform_mesh(0.0, 1.0, 2)
    full = fl.assemble_gagliardo(mesh, 0.5)[0, 0]
    inner = fl.assemble_gagliardo(mesh, 0.5, include_exterior=False)[0, 0]
    assert abs(full - inner) > 0.01 * abs(full)


def test_stiffness_tiny_gap_refuses_loudly():
    d = fl.make_domain([(-1.0, -1e-9), (1e-9, 1.0)])
    with pytest.raises(QuadratureError):
        fl.assemble_gagliardo(fl.make_mesh(d, 8, beta=1.0), 0.5)


def test_near_pair_table_stays_linear_in_elements():
    # far pairs are assembled as dense blocks, so the cached table lists
    # only the near sub-pairs: O(E), not one row per separated pair
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 1024, 2.0)
    near = _pair_tables(mesh)[1]
    assert near["k"].size < 32 * mesh.elem_h.size


def test_forms_meta_records_rule_and_pair_counts():
    mesh = fl.make_mesh(fl.make_domain([(-2.0, -1.0), (1.0, 2.0)]), 64, 2.0)
    meta = fl.assemble_forms(mesh, 0.5).meta
    assert (meta["gl_near"], meta["gl_far"]) == (8, 4)
    assert (meta["far_gap_ratio"], meta["subdivision_cap"]) == (16, 16)
    pairs = meta["pairs"]
    E = mesh.elem_h.size
    assert pairs["identical"] == E
    assert pairs["touching"] == E - 2  # one fewer per interval
    assert pairs["near"] > 0 and pairs["far"] > 0
    assert pairs["near_subpairs"] >= pairs["near"]
    total = pairs["identical"] + pairs["touching"] + pairs["near"] + pairs["far"]
    assert total == E * (E + 1) // 2


# ---------------------------------------------------------------------------
# separated pairs against an all-pairs reference
# ---------------------------------------------------------------------------

def _all_pairs_separated(mesh, kernels, chunk=8192):
    """Separated part of each kernel's matrix by a plain 8x8 Gauss-Legendre
    rule on every separated pair, both elements halved until the gap is at
    least their size; each unordered pair counted for both orders."""
    E, K = mesh.elem_h.size, mesh.n_interior
    x0, h, iv, dof = mesh.elem_x0, mesh.elem_h, mesh.elem_interval, mesh.elem_dof
    k, l = np.triu_indices(E, 1)
    keep = ~((l == k + 1) & (iv[k] == iv[l]))
    k, l = k[keep], l[keep]
    gap = x0[l] - mesh.elem_x1[k]
    m1 = np.ceil(h[k] / gap).astype(int)
    m2 = np.ceil(h[l] / gap).astype(int)
    t, w = np.polynomial.legendre.leggauss(8)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    out = [np.zeros((K, K)) for _ in kernels]
    for p, q in set(zip(m1, m2)):
        sel = np.flatnonzero((m1 == p) & (m2 == q))
        for lo in range(0, sel.size, chunk):
            kk, ll = k[sel[lo : lo + chunk]], l[sel[lo : lo + chunk]]
            rows = np.concatenate([dof[kk], dof[ll]], axis=1)[:, :, None]
            cols = rows.transpose(0, 2, 1)
            ok = (rows >= 0) & (cols >= 0)
            for i1 in range(p):
                for i2 in range(q):
                    hx, hy = h[kk, None] / p, h[ll, None] / q
                    xs = x0[kk, None] + (i1 + t) * hx
                    ys = x0[ll, None] + (i2 + t) * hy
                    # hats of each element's two dofs: (P, 2, 8)
                    ux = (xs - x0[kk, None]) / h[kk, None]
                    uy = (ys - x0[ll, None]) / h[ll, None]
                    vx = np.stack([1.0 - ux, ux], axis=1)
                    vy = np.stack([1.0 - uy, uy], axis=1)
                    wxy = (hx * w)[:, :, None] * (hy * w)[:, None, :]
                    for A, kernel in zip(out, kernels):
                        kv = kernel(xs[:, :, None], ys[:, None, :]) * wxy
                        # (v(x) - v(y)) (u(x) - u(y)) k(x, y) summed over x, y
                        xx = (vx * kv.sum(axis=2)[:, None, :]) @ vx.transpose(0, 2, 1)
                        yy = (vy * kv.sum(axis=1)[:, None, :]) @ vy.transpose(0, 2, 1)
                        xy = vx @ kv @ vy.transpose(0, 2, 1)
                        local = np.concatenate(
                            [
                                np.concatenate([xx, -xy], axis=2),
                                np.concatenate([-xy.transpose(0, 2, 1), yy], axis=2),
                            ],
                            axis=1,
                        )
                        r, c = np.broadcast_arrays(rows, cols)
                        np.add.at(A, (r[ok], c[ok]), 2.0 * local[ok])
    return out


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("intervals", [[(-1.0, 1.0)], [(-2.0, -1.0), (1.0, 2.0)]])
def test_separated_pairs_match_all_pairs_reference(intervals, beta, s, monkeypatch):
    mesh = fl.make_mesh(fl.make_domain(intervals), 256, beta)
    c = fl.frac_constant(1, s)
    expo = -1.0 - 2.0 * s
    # (expression, X, X') of each field; the package differentiates every
    # expression symbolically, the rational one by the quotient rule
    fields = {
        "quadratic": ("x + 0.25*x^2", lambda x: x + 0.25 * x**2, lambda x: 1.0 + 0.5 * x),
        "cubic": ("x + 0.25*x^3", lambda x: x + 0.25 * x**3, lambda x: 1.0 + 0.75 * x**2),
        # its kernel's smooth factor is no polynomial, so no rule is exact for it
        "rational": (
            "x/(1 + x^2)",
            lambda x: x / (1.0 + x**2),
            lambda x: (1.0 - x**2) / (1.0 + x**2) ** 2,
        ),
    }

    def gagliardo(x, y):
        return 0.5 * c * np.abs(x - y) ** expo

    def deformation(X, dX):
        def kernel(x, y):
            dq = (X(x) - X(y)) / (x - y)
            return 0.5 * c * (dX(x) + dX(y) - (1.0 + 2.0 * s) * dq) * np.abs(x - y) ** expo
        return kernel

    refs = _all_pairs_separated(
        mesh, [gagliardo] + [deformation(X, dX) for _, X, dX in fields.values()]
    )
    X = [fl.make_field([e], box=BOX1) for e, _, _ in fields.values()]

    def assembled():
        return [fl.assemble_gagliardo(mesh, s)] + [
            fl.assemble_deformation(mesh, Xf, s).matrix for Xf in X
        ]

    got = assembled()
    # the identical, touching and exterior parts, with no separated pairs
    monkeypatch.setattr(
        assembly, "_separated", lambda mesh, *args: np.zeros((mesh.n_interior,) * 2)
    )
    rest = assembled()
    A_ref = rest[0] + refs[0]
    for name, B, R, ref in zip(["gagliardo", *fields], got, rest, refs):
        full = R + ref
        scale = np.linalg.norm(full)
        if name != "gagliardo" and s == 0.5:
            # at s = 1/2 the kernel's factor X'(x) + X'(y) - 2 (X(x) - X(y)) / (x - y)
            # is the trapezoid-rule error of X' over [y, x], O((x - y)^2): 0 for
            # quadratic X, (x - y)^2 / 4 for cubic X; so rounding is set by the
            # cancelled terms, which are of the size of the Gagliardo kernel
            scale = np.linalg.norm(A_ref)
            if name == "quadratic":
                assert np.linalg.norm(full) <= 1e-12 * scale
        assert np.linalg.norm(B - full) <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# deformation matrix
# ---------------------------------------------------------------------------

BOX1 = [(-3.0, 3.0)]


def test_deformation_constant_field_zero():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    A = fl.assemble_gagliardo(mesh, 0.4)
    B = fl.assemble_deformation(mesh, fl.constant_field([0.7], BOX1), 0.4).matrix
    assert np.max(np.abs(B)) <= 1e-12 * np.linalg.norm(A)


def test_deformation_identity_s_half_zero():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    A = fl.assemble_gagliardo(mesh, 0.5)
    B = fl.assemble_deformation(mesh, fl.identity_field(1, box=BOX1), 0.5).matrix
    assert np.max(np.abs(B)) <= 1e-12 * np.linalg.norm(A)


def test_deformation_identity_reduces_to_scaled_stiffness():
    s = 0.25
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    A = fl.assemble_gagliardo(mesh, s)
    B = fl.assemble_deformation(mesh, fl.identity_field(1, box=BOX1), s).matrix
    np.testing.assert_allclose(B, (1.0 - 2.0 * s) * A, rtol=1e-8)


def test_deformation_linearity():
    s = 0.3
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    X = fl.identity_field(1, box=BOX1)
    Z = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    BX = fl.assemble_deformation(mesh, X, s).matrix
    BZ = fl.assemble_deformation(mesh, Z, s).matrix
    BS = fl.assemble_deformation(mesh, fl.add_fields(X, Z), s).matrix
    scale = np.linalg.norm(BX) + np.linalg.norm(BZ)
    assert np.max(np.abs(BS - BX - BZ)) <= 1e-10 * scale


def test_deformation_symmetric():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    B = fl.assemble_deformation(mesh, X, 0.3).matrix
    assert np.linalg.norm(B - B.T) <= 1e-12 * np.linalg.norm(B)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_deformation_rational_field_derived_div_matches_given(s):
    # the quotient rule gives X' of x/(1 + x^2) to rounding, so the matrix
    # agrees with the one built from the closed-form X'
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 256, 2.0)
    derived = fl.make_field(["x/(1 + x^2)"], box=BOX1)
    given = fl.make_field(["x/(1 + x^2)"], box=BOX1, div="(1 - x^2)/(1 + x^2)^2")
    assert derived.div_method == "symbolic"
    B = fl.assemble_deformation(mesh, derived, s).matrix
    B_given = fl.assemble_deformation(mesh, given, s).matrix
    scale = np.linalg.norm(fl.assemble_gagliardo(mesh, s))
    assert np.linalg.norm(B - B_given) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# pointwise fractional Laplacian
# ---------------------------------------------------------------------------

def test_pointwise_constant_function():
    # the second difference vanishes identically, so the value reduces to
    # the exact tail term c R^{-2s}/s
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    s, R = 0.5, 1e4
    out = fl.frac_laplacian_pointwise(one, s, 0.3, R=R, tail_sup=1.0)
    exact = fl.frac_constant(1, s) * R ** (-2.0 * s) / s
    assert out.value == pytest.approx(exact, abs=1e-12)


def test_pointwise_huge_cutoff_rejected():
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    with pytest.raises(ArgumentError):
        fl.frac_laplacian_pointwise(one, 0.5, 0.0, R=1e8, tail_sup=1.0)


def test_pointwise_needs_radius_or_domain():
    with pytest.raises(ArgumentError):
        fl.frac_laplacian_pointwise(np.cos, 0.5, 0.0)


def test_pointwise_cosine_fourier_symbol():
    out = fl.frac_laplacian_pointwise(np.cos, 0.5, 0.0, R=4000.0, tail_sup=1.0)
    assert abs(out.value - 1.0) <= 1e-6
    assert abs(out.value - 1.0) <= out.error


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_pointwise_torsion_closed_form(s):
    def phi(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) < 1.0, np.maximum(1.0 - y * y, 0.0) ** s, 0.0)

    out = fl.frac_laplacian_pointwise(phi, s, 0.0, R=50.0, tail_sup=0.0)
    assert out.value == pytest.approx(torsion_frac_value(s), rel=1e-9)
    if s == 0.5:
        assert out.value == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("x", [0.0, 0.7])
def test_pointwise_gaussian_reference(s, x):
    g = lambda y: np.exp(-np.asarray(y, dtype=float) ** 2)
    tail = float(np.exp(-((14.0 - abs(x)) ** 2)))
    out = fl.frac_laplacian_pointwise(g, s, x, R=14.0, tail_sup=tail)
    ref = gaussian_frac_ref(s, x)
    assert out.value == pytest.approx(ref, rel=1e-9)
    assert abs(out.value - ref) <= max(out.error, 1e-12)


def test_pointwise_tolerance_error():
    with pytest.raises(ToleranceError):
        fl.frac_laplacian_pointwise(np.cos, 0.5, 0.0, R=10.0, tail_sup=1.0, tol=1e-12)


def test_pointwise_default_tail_sampling():
    # sampling the tail of a compactly supported function finds zero, so the
    # explicit tail_sup=0 run must agree
    bump = fl.polynomial_bump(center=0.0, halfwidth=0.5)
    a = fl.frac_laplacian_pointwise(bump, 0.4, 0.1, R=20.0)
    b = fl.frac_laplacian_pointwise(bump, 0.4, 0.1, R=20.0, tail_sup=0.0)
    assert a.value == pytest.approx(b.value, rel=1e-14)


# ---------------------------------------------------------------------------
# density integrals
# ---------------------------------------------------------------------------

def test_integrate_density_parabola_exact():
    # nodal data 1 - x is linear, so its P1 interpolant is exact; weighting
    # with 1 + x integrates (1 - x^2) exactly by the order-8 Gauss rule
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 16, beta=2.0)
    nodal = 1.0 - np.concatenate(mesh.nodes)
    out = fl.integrate_density(mesh, nodal, weight=lambda x: 1.0 + x)
    assert out == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_integrate_density_interior_vector_clamped():
    mesh = fl.make_mesh(fl.make_domain([(0.0, 1.0)]), 256, beta=2.0)
    out = fl.integrate_density(mesh, np.ones_like(mesh.interior_x))
    assert 0.98 < out < 1.0  # ramps at the graded endpoints lose O(h)
    finer = fl.integrate_density(
        fl.make_mesh(fl.make_domain([(0.0, 1.0)]), 512, beta=2.0),
        np.ones(511),
    )
    assert 1.0 - finer < 1.0 - out


def test_integrate_density_transform_matches_mass_form():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 32, beta=2.0)
    F = fl.assemble_forms(mesh, 0.5)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.interior_x.size)
    quad = fl.integrate_density(mesh, u, transform=lambda t: t * t)
    assert quad == pytest.approx(float(u @ (F.mass @ u)), rel=1e-12)


def test_integrate_density_per_interval_tuple():
    d = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
    mesh = fl.make_mesh(d, 8, beta=1.0)
    ones = np.ones(9)  # full per-interval nodal arrays, endpoints included
    zeros = np.zeros(9)
    both = fl.integrate_density(mesh, (ones, ones))
    first = fl.integrate_density(mesh, (ones, zeros))
    assert both == pytest.approx(2.0 * first, rel=1e-12)
    assert both == pytest.approx(2.0, rel=1e-12)
