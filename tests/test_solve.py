"""Eigensolver, even restriction, and semilinear fixed-point tests."""

import json

import numpy as np
import pytest
import scipy.linalg

import fraclab as fl
from fraclab.errors import (
    ArgumentError,
    AsymmetricMeshError,
    ConvergenceError,
    NotPositiveDefiniteError,
    SupercriticalError,
)


def interval_forms(n, s, beta=2.0, lo=-1.0, hi=1.0):
    mesh = fl.make_mesh(fl.make_domain([(lo, hi)]), n, beta=beta)
    return mesh, fl.assemble_forms(mesh, s)


def interval_context(n, s):
    return fl.solve_context(fl.make_domain([(-1.0, 1.0)]), s, n, 2.0, False)


# ---------------------------------------------------------------------------
# dense generalized eigensolver
# ---------------------------------------------------------------------------

def test_geig_analytic_2x2():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    pairs = fl.solve_geig(A, np.eye(2), 2)
    assert [p.value for p in pairs] == pytest.approx([1.0, 3.0], rel=1e-14)
    v1 = pairs[0].vector / np.linalg.norm(pairs[0].vector)
    v2 = pairs[1].vector / np.linalg.norm(pairs[1].vector)
    assert abs(abs(np.dot(v1, [1, -1] / np.sqrt(2))) - 1.0) < 1e-12
    assert abs(abs(np.dot(v2, [1, 1] / np.sqrt(2))) - 1.0) < 1e-12
    assert [p.k for p in pairs] == [1, 2]


def test_geig_equal_matrices():
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    pairs = fl.solve_geig(M.copy(), M, 2)
    assert [p.value for p in pairs] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_geig_diagonal():
    pairs = fl.solve_geig(np.diag([3.0, 2.0]), np.eye(2), 2)
    assert [p.value for p in pairs] == pytest.approx([2.0, 3.0])


def test_geig_not_positive_definite_mass():
    with pytest.raises(NotPositiveDefiniteError):
        fl.solve_geig(np.eye(2), np.diag([1.0, -1.0]), 1)


def test_geig_factors_the_mass_matrix_once(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(M) or cholesky(M))
    fl.solve_geig(np.diag([3.0, 2.0]), np.eye(2), 2)
    assert calls == []


def test_geig_failure_with_definite_mass_is_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        fl.solve_geig(np.eye(2), np.eye(2), 1)


def test_geig_k_max_out_of_range():
    with pytest.raises(ArgumentError):
        fl.solve_geig(np.eye(2), np.eye(2), 3)


def test_geig_assembled_problem_invariants():
    _, F = interval_forms(64, 0.5)
    pairs = fl.solve_geig(F.stiffness, F.mass, 6)
    A, M = F.stiffness, F.mass
    vals = [p.value for p in pairs]
    assert vals == sorted(vals)
    assert all(v > 0 for v in vals)
    for p in pairs:
        r = np.linalg.norm(A @ p.vector - p.value * (M @ p.vector))
        assert r <= 1e-8 * np.linalg.norm(A @ p.vector)
        assert p.residual <= 1e-8
    # M-orthonormality
    V = np.column_stack([p.vector for p in pairs])
    G = V.T @ M @ V
    assert np.max(np.abs(G - np.eye(6))) <= 1e-8
    # ground state has a fixed sign: max is positive
    assert np.max(pairs[0].vector) > 0
    assert np.min(pairs[0].vector) > -1e-10 * np.max(pairs[0].vector)


def test_geig_galerkin_monotonicity():
    _, Fc = interval_forms(64, 0.5)
    _, Ff = interval_forms(128, 0.5)
    coarse = [p.value for p in fl.solve_geig(Fc.stiffness, Fc.mass, 5)]
    fine = [p.value for p in fl.solve_geig(Ff.stiffness, Ff.mass, 5)]
    for vc, vf in zip(coarse, fine):
        assert vc >= vf - 1e-10


def test_dilation_law_exact_on_affine_meshes():
    # the graded mesh scales affinely with the interval, so the discrete
    # eigenvalues obey lambda(R) = R^{-2s} lambda(1) to machine precision
    s = 0.4
    _, F1 = interval_forms(32, s)
    _, FR = interval_forms(32, s, lo=-2.0, hi=2.0)
    l1 = [p.value for p in fl.solve_geig(F1.stiffness, F1.mass, 3)]
    lR = [p.value for p in fl.solve_geig(FR.stiffness, FR.mass, 3)]
    for a, b in zip(l1, lR):
        assert b * 2.0 ** (2 * s) == pytest.approx(a, rel=1e-10)


# Kwasnicki, "Eigenvalues of the fractional Laplace operator in the interval",
# J. Funct. Anal. 262 (2012) 2379-2402, gives lambda_1 of (-Delta)^{1/2} on
# (-1, 1) and the asymptotics lambda_k = (k pi/2 - (2 - 2s) pi/8)^{2s} + O(1/k).
KWASNICKI_LAMBDA1_HALF = 1.1577738836977


def test_lambda1_converges_to_kwasnicki():
    err = {
        n: abs(interval_context(n, 0.5).values[0] - KWASNICKI_LAMBDA1_HALF)
        / KWASNICKI_LAMBDA1_HALF
        for n in (256, 512)
    }
    assert err[512] <= 2e-6
    # the error falls about fourfold per mesh doubling
    assert err[256] >= 3.0 * err[512]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_eigenvalues_match_kwasnicki_asymptotics(s):
    values = interval_context(512, s).values
    k = np.arange(4, 13)
    asym = (k * np.pi / 2.0 - (2.0 - 2.0 * s) * np.pi / 8.0) ** (2.0 * s)
    # the O(1/k) remainder is largest at k = 4, s = 1/4 (3.9e-4)
    assert np.max(np.abs(values[k - 1] - asym) / asym) <= 1e-3


# ---------------------------------------------------------------------------
# even-subspace restriction
# ---------------------------------------------------------------------------

def test_restrict_even_dimension_count():
    mesh, F = interval_forms(8, 0.5)
    Ae, Me, lift = fl.restrict_even(mesh, F.stiffness, F.mass)
    assert mesh.interior_x.size == 7  # 2m + 1 with m = 3
    assert Ae.shape == Me.shape == (4, 4)
    assert lift.shape == (7, 4)


def test_restrict_even_subspectrum():
    mesh, F = interval_forms(64, 0.5)
    full = [p.value for p in fl.solve_geig(F.stiffness, F.mass, 8)]
    Ae, Me, _ = fl.restrict_even(mesh, F.stiffness, F.mass)
    even = [p.value for p in fl.solve_geig(Ae, Me, 4)]
    for ev in even:
        assert min(abs(ev - fv) / ev for fv in full) < 1e-10
    # ground state is even: first even eigenvalue equals first full one
    assert even[0] == pytest.approx(full[0], rel=1e-12)
    # even modes interleave: they are the 1st, 3rd, 5th, ... full modes
    np.testing.assert_allclose(even, full[::2], rtol=1e-10)


def test_restrict_even_lift_reconstructs_even_vectors():
    mesh, F = interval_forms(32, 0.5)
    Ae, Me, lift = fl.restrict_even(mesh, F.stiffness, F.mass)
    pairs = fl.solve_geig(Ae, Me, 2)
    for p in pairs:
        u = lift @ p.vector
        assert np.max(np.abs(u - u[::-1])) <= 1e-12 * np.max(np.abs(u))


def test_restrict_even_requires_symmetric_mesh():
    mesh = fl.make_mesh(fl.make_domain([(0.0, 1.0)]), 8)
    F = fl.assemble_forms(mesh, 0.5)
    with pytest.raises(AsymmetricMeshError):
        fl.restrict_even(mesh, F.stiffness, F.mass)


# ---------------------------------------------------------------------------
# semilinear fixed point
# ---------------------------------------------------------------------------

def test_semilinear_nehari_identity():
    ctx = interval_context(128, 0.75)
    mesh, F = ctx.mesh, ctx.forms
    sol = fl.solve_semilinear(ctx, 4.0, tol=1e-10)
    energy = float(sol.u @ (F.stiffness @ sol.u))
    power = fl.integrate_density(
        mesh, sol.u, transform=lambda t: np.maximum(t, 0.0) ** 4.0
    )
    assert energy == pytest.approx(power, rel=1e-8)
    assert sol.nehari_gap <= 1e-8
    assert sol.p == 4.0


def test_semilinear_even_and_nonnegative():
    ctx = interval_context(128, 0.75)
    sol = fl.solve_semilinear(ctx, 4.0, tol=1e-10)
    assert np.max(np.abs(sol.u - sol.u[::-1])) < 10 * 1e-10
    assert np.min(sol.u) >= -1e-12
    assert np.max(sol.u) > 0


def test_semilinear_converges_within_budget():
    ctx = interval_context(256, 0.75)
    sol = fl.solve_semilinear(ctx, 4.0)
    assert sol.iterations <= 200


def test_semilinear_supercritical_rejected():
    ctx = interval_context(32, 0.3)
    # N = 1, s = 0.3: critical exponent 2/(1-2s) = 5
    with pytest.raises(SupercriticalError):
        fl.solve_semilinear(ctx, 6.0)


def test_semilinear_p_must_exceed_two():
    ctx = interval_context(32, 0.75)
    with pytest.raises(ArgumentError):
        fl.solve_semilinear(ctx, 2.0)


def test_semilinear_iteration_cap():
    ctx = interval_context(32, 0.75)
    with pytest.raises(ConvergenceError):
        fl.solve_semilinear(ctx, 4.0, tol=1e-14, max_iter=2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_pairs_to_json_shape():
    dom = fl.make_domain([(-1.0, 1.0)])
    mesh = fl.make_mesh(dom, 16)
    F = fl.assemble_forms(mesh, 0.5)
    pairs = fl.solve_geig(F.stiffness, F.mass, 3)
    obj = json.loads(fl.pairs_to_json(dom, 0.5, mesh, pairs))
    assert obj["s"] == 0.5
    assert obj["domain"] == [[-1.0, 1.0]]
    assert obj["lambda"] == sorted(obj["lambda"])
    assert len(obj["lambda"]) == len(obj["nodal"]) == 3
    # nodal values nest per interval and include the clamped endpoints
    ground = obj["nodal"][0][0]
    assert len(ground) == 17
    assert ground[0] == 0.0 and ground[-1] == 0.0


def test_pairs_to_nodal_rows():
    dom = fl.make_domain([(-1.0, 1.0)])
    mesh = fl.make_mesh(dom, 8)
    F = fl.assemble_forms(mesh, 0.5)
    pairs = fl.solve_geig(F.stiffness, F.mass, 2)
    rows = fl.pairs_to_nodal_rows(mesh, pairs)
    assert len(rows) == 2 * 9  # one row per node per mode
    ks = sorted({r[0] for r in rows})
    assert ks == [1, 2]
    first = [r for r in rows if r[0] == 1]
    assert first[0][1] == -1.0 and first[0][2] == 0.0
