"""Eigensolver, mirror halves, and semilinear fixed-point tests."""

import numpy as np
import pytest
import scipy.linalg

import fraclab as fl
from fraclab import solve
from fraclab.solve import _K_KEEP, _SHIFT_INVERT_DIM
from fraclab.errors import (
    ArgumentError,
    AsymmetricMeshError,
    ConvergenceError,
    NotPositiveDefiniteError,
    SupercriticalError,
)
from helpers import cho_factor_shapes


def interval_forms(n, s, beta=2.0, lo=-1.0, hi=1.0):
    mesh = fl.make_mesh(fl.make_domain([(lo, hi)]), n, beta=beta)
    return mesh, fl.assemble_gagliardo(mesh, s), fl.assemble_mass(mesh)


def interval_context(n, s):
    return fl.solve_context(fl.make_domain([(-1.0, 1.0)]), s, n, 2.0, False)


def even_half(T):
    """P' T P on the even mirror basis P of T's dimension."""
    P = solve._mirror_basis(T.shape[0], 1.0)
    return P.T @ T @ P


def inverted_values(A, M, m):
    """The m smallest eigenvalues of A u = lambda M u, M sparse, to relative
    accuracy: 1/mu for the m largest eigenvalues mu of L^-1 M L^-T, with
    A = L L^T.  A dense reduction of (A, M) errs by about eps * lambda_max
    instead, which at n = 1024 is 1e-12 to 1e-9 of lambda_1."""
    L = np.linalg.cholesky(A)
    C = scipy.linalg.solve_triangular(
        L, scipy.linalg.solve_triangular(L, M.toarray(), lower=True).T, lower=True
    )
    return 1.0 / np.linalg.eigvalsh(0.5 * (C + C.T))[::-1][:m]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_geig_rejects_a_non_finite_stiffness(bad):
    A = np.eye(3)
    A[1, 1] = bad
    with pytest.raises(ArgumentError, match="^A has non-finite entries$"):
        fl.solve_geig(A, np.eye(3), 1)


def test_geig_k_max_out_of_range():
    with pytest.raises(ArgumentError):
        fl.solve_geig(np.eye(2), np.eye(2), 3)


def symmetric_pencil(dim):
    """A = diag(1..dim) plus small dense noise, made symmetric in place, and
    the P1 mass stencil as M."""
    A = np.diag(np.arange(1.0, dim + 1.0))
    A += 1e-3 * np.random.default_rng(dim).standard_normal((dim, dim))
    A += A.T
    A *= 0.5
    M = (4.0 * np.eye(dim) + np.eye(dim, k=1) + np.eye(dim, k=-1)) / 6.0
    return A, M


# far from the diagonal, both ways round, and inside the last partial panel
# of 256 rows (rows 256.. at dim 300, 768.. at dim 1023)
@pytest.mark.parametrize("dim", [300, 1023])
@pytest.mark.parametrize("name", ["A", "M"])
@pytest.mark.parametrize("where", ["lower corner", "upper corner", "last panel"])
def test_geig_rejects_one_asymmetric_entry(dim, name, where):
    A, M = symmetric_pencil(dim)
    last = 256 * (dim // 256)
    i, j = {
        "lower corner": (dim - 1, 0),
        "upper corner": (0, dim - 1),
        "last panel": (dim - 1, last),
    }[where]
    T = A if name == "A" else M
    T[i, j] += 1e-8 * np.abs(T).max()
    with pytest.raises(ArgumentError, match=f"^{name} is not symmetric$"):
        fl.solve_geig(A, M, 1)


@pytest.mark.parametrize("dim", [300, 1023])
def test_geig_accepts_a_pencil_symmetrized_in_place(dim):
    A, M = symmetric_pencil(dim)
    pairs = fl.solve_geig(A, M, 1)
    assert pairs[0].residual < 1e-10


def test_geig_assembled_problem_invariants():
    _, A, M = interval_forms(64, 0.5)
    pairs = fl.solve_geig(A, M, 6)
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
    _, Ac, Mc = interval_forms(64, 0.5)
    _, Af, Mf = interval_forms(128, 0.5)
    coarse = [p.value for p in fl.solve_geig(Ac, Mc, 5)]
    fine = [p.value for p in fl.solve_geig(Af, Mf, 5)]
    for vc, vf in zip(coarse, fine):
        assert vc >= vf - 1e-10


# the two-interval domain has near-degenerate even/odd pairs (relative gaps
# down to 1.4e-6 among the first 24 at n = 1024), which inverse iteration
# must still separate
@pytest.mark.parametrize(
    "intervals, n, even_only",
    [
        ([(-1.0, 1.0)], 1024, False),
        ([(-1.0, 1.0)], 1024, True),
        ([(-2.0, -1.0), (1.0, 2.0)], 1024, False),
        ([(-1.0, 1.0)], 8, False),
        ([(-1.0, 1.0)], 8, True),
    ],
)
def test_context_values_are_the_leading_values_of_a_full_solve(intervals, n, even_only):
    ctx = fl.solve_context(fl.make_domain(intervals), 0.5, n, 2.0, even_only)
    A, M = ctx.stiffness, ctx.mass
    if even_only:
        A, M = even_half(A), even_half(M)
    assert ctx.values.size == min(A.shape[0], 2 * _K_KEEP)
    expected = inverted_values(A, M, ctx.values.size)
    np.testing.assert_allclose(ctx.values, expected, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# shift-invert Lanczos (dimensions from _SHIFT_INVERT_DIM on)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stiff_forms():
    # s = 0.7 at n = 1024: lambda_max / lambda_1 is about 6.7e7, so the dense
    # reduction's absolute error eps * lambda_max costs lambda_1 digits
    _, A, M = interval_forms(1024, 0.7)
    assert A.shape[0] >= _SHIFT_INVERT_DIM
    return A, M


def test_shift_invert_values_match_the_inverted_dense_route(stiff_forms):
    A, M = stiff_forms
    expected = inverted_values(A, M, 12)
    values = np.array([p.value for p in fl.solve_geig(A, M, 12)])
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)


def test_shift_invert_pairs_are_accurate_and_m_orthonormal(stiff_forms):
    A, M = stiff_forms
    pairs = fl.solve_geig(A, M, 12)
    assert max(p.residual for p in pairs) <= 1e-12
    V = np.column_stack([p.vector for p in pairs])
    assert np.max(np.abs(V.T @ M @ V - np.eye(12))) <= 1e-12
    assert np.all(np.diff(pairs.values) >= 0)
    assert pairs.values.size == 2 * _K_KEEP


def test_shift_invert_reruns_are_bit_identical(stiff_forms):
    A, M = stiff_forms
    first, second = fl.solve_geig(A, M, 12), fl.solve_geig(A, M, 12)
    assert np.array_equal(first.values, second.values)
    for a, b in zip(first, second):
        assert np.array_equal(a.vector, b.vector)
        assert a.residual == b.residual


@pytest.mark.parametrize("n, halved", [(2048, True), (512, False)])
def test_cho_apply_matches_cho_solve(n, halved):
    # the even half at n = 2048 (K = 1024) and the whole form at n = 512
    # (K = 511): the factors of the benchmark's and the smaller solves
    _, A, _ = interval_forms(n, 0.5)
    if halved:
        A = even_half(A)
    L, lower = scipy.linalg.cho_factor(A, lower=True)
    # dtrsv reads L in place only if it is F-contiguous; f2py would copy
    # any other layout on every call
    assert lower and L.flags.f_contiguous
    for b in np.random.default_rng(n).standard_normal((3, A.shape[0])):
        kept = b.copy()
        x = solve._cho_apply(L, b)
        assert np.array_equal(b, kept)  # ARPACK's work vector is not written
        expected = scipy.linalg.cho_solve((L, lower), b)
        assert np.linalg.norm(x - expected) <= 1e-13 * np.linalg.norm(expected)


def test_repeated_solves_do_not_go_through_cho_solve(monkeypatch):
    # both mirror halves, an asymmetric pencil solved whole on the Lanczos
    # path, and the semilinear iteration apply their factor by _cho_apply
    def refused(*args, **kwargs):
        raise AssertionError("scipy.linalg.cho_solve called")

    monkeypatch.setattr(scipy.linalg, "cho_solve", refused)
    fl.solve_context.cache_clear()
    try:
        ctx = interval_context(1024, 0.5)
        assert ctx.stiffness.shape[0] >= _SHIFT_INVERT_DIM
        assert fl.solve_semilinear(ctx, 3.0).iterations > 1
        skew = fl.solve_context(fl.make_domain([(-0.3, 0.7)]), 0.5, 1024, 2.0, False)
        assert skew.stiffness.shape[0] >= _SHIFT_INVERT_DIM
    finally:
        fl.solve_context.cache_clear()


def test_shift_invert_serves_a_wider_mass_band():
    # a pentadiagonal M: the sparse M and its definiteness check follow the
    # band of M, not a tridiagonal assumption
    dim = _SHIFT_INVERT_DIM
    A = np.diag(np.linspace(1.0, 50.0, dim)) + np.diag(np.full(dim - 1, 0.3), 1)
    A = A + np.triu(A, 1).T
    M = 3.0 * np.eye(dim) + np.diag(np.full(dim - 2, 0.5), 2)
    M = M + np.triu(M, 1).T
    pairs = fl.solve_geig(A, M, 4)
    expected = scipy.linalg.eigh(A, M, eigvals_only=True)[: pairs.values.size]
    np.testing.assert_allclose(pairs.values, expected, rtol=1e-11, atol=0)


def test_shift_invert_not_positive_definite_stiffness():
    dim = _SHIFT_INVERT_DIM
    A = np.diag(np.linspace(-1.0, 1.0, dim))
    with pytest.raises(NotPositiveDefiniteError, match="A is not"):
        fl.solve_geig(A, np.eye(dim), 1)


def test_shift_invert_not_positive_definite_mass(monkeypatch):
    # the banded check runs first, without a dense factor of M
    monkeypatch.setattr(np.linalg, "cholesky", None)
    dim = _SHIFT_INVERT_DIM
    M = np.eye(dim)
    M[5, 5] = -1.0
    with pytest.raises(NotPositiveDefiniteError, match="M is not"):
        fl.solve_geig(np.diag(np.linspace(1.0, 2.0, dim)), M, 1)


def test_dilation_law_exact_on_affine_meshes():
    # the graded mesh scales affinely with the interval, so the discrete
    # eigenvalues obey lambda(R) = R^{-2s} lambda(1) to machine precision
    s = 0.4
    _, A1, M1 = interval_forms(32, s)
    _, AR, MR = interval_forms(32, s, lo=-2.0, hi=2.0)
    l1 = [p.value for p in fl.solve_geig(A1, M1, 3)]
    lR = [p.value for p in fl.solve_geig(AR, MR, 3)]
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
# even-subspace restriction (the even mirror basis)
# ---------------------------------------------------------------------------

def test_restrict_even_dimension_count():
    mesh, A, M = interval_forms(8, 0.5)
    P = solve._mirror_basis(A.shape[0], 1.0)
    assert mesh.interior_x.size == 7  # 2m + 1 with m = 3
    assert even_half(A).shape == even_half(M).shape == (4, 4)
    assert P.shape == (7, 4)


def test_restrict_even_subspectrum():
    mesh, A, M = interval_forms(64, 0.5)
    full = [p.value for p in fl.solve_geig(A, M, 8)]
    even = [p.value for p in fl.solve_geig(even_half(A), even_half(M), 4)]
    for ev in even:
        assert min(abs(ev - fv) / ev for fv in full) < 1e-10
    # ground state is even: first even eigenvalue equals first full one
    assert even[0] == pytest.approx(full[0], rel=1e-12)
    # even modes interleave: they are the 1st, 3rd, 5th, ... full modes
    np.testing.assert_allclose(even, full[::2], rtol=1e-10)


def test_restrict_even_lift_reconstructs_even_vectors():
    mesh, A, M = interval_forms(32, 0.5)
    P = solve._mirror_basis(A.shape[0], 1.0)
    pairs = fl.solve_geig(even_half(A), even_half(M), 2)
    for p in pairs:
        u = P @ p.vector
        assert np.max(np.abs(u - u[::-1])) <= 1e-12 * np.max(np.abs(u))


# 15 and 16 interior nodes on (-1, 1), the first with a centre node that is
# its own mirror; 16 on two intervals
@pytest.mark.parametrize(
    "intervals, n", [([(-1.0, 1.0)], 16), ([(-1.0, 1.0)], 17), ([(-2.0, -1.0), (1.0, 2.0)], 9)]
)
def test_restrict_even_is_the_projection_bit_for_bit(intervals, n):
    mesh = fl.make_mesh(fl.make_domain(intervals), n, beta=2.0)
    A, M = fl.assemble_gagliardo(mesh, 0.5), fl.assemble_mass(mesh)
    P = solve._mirror_basis(A.shape[0], 1.0).toarray()
    assert np.array_equal(even_half(A), P.T @ A @ P)
    assert np.array_equal(even_half(M).toarray(), P.T @ M.toarray() @ P)


def test_restrict_even_requires_symmetric_mesh():
    with pytest.raises(AsymmetricMeshError):
        fl.solve_context(fl.make_domain([(0.0, 1.0)]), 0.5, 8, 2.0, True)


# ---------------------------------------------------------------------------
# mirror halves (symmetric meshes of full dimension _SHIFT_INVERT_DIM or more)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize(
    "intervals, n",
    [([(-1.0, 1.0)], 1024), ([(-1.0, 1.0)], 2048), ([(-2.0, -1.0), (1.0, 2.0)], 512)],
)
def test_split_context_matches_the_whole_solve(monkeypatch, intervals, n, s):
    shapes = cho_factor_shapes(monkeypatch)
    ctx = fl.solve_context(fl.make_domain(intervals), s, n, 2.0, False)
    A, M = ctx.stiffness, ctx.mass
    K = A.shape[0]
    assert K >= _SHIFT_INVERT_DIM
    # one factor per half, none of dimension K: the even half holds the
    # centre node when K is odd, and no half is solved twice
    assert shapes == [((K + 1) // 2,) * 2, (K // 2,) * 2]
    whole = fl.solve_geig(A, M, _K_KEEP)
    assert ctx.values.size == 2 * _K_KEEP
    np.testing.assert_allclose(ctx.values, whole.values, rtol=1e-12, atol=0)
    V = np.column_stack([p.vector for p in ctx.pairs])
    assert np.max(np.abs(V.T @ M @ V - np.eye(_K_KEEP))) <= 1e-12
    assert np.array_equal(np.abs(V), np.abs(V[::-1]))  # exactly even or odd
    # against the mirror-averaged pencil, which the halves solve exactly, the
    # residuals are those of a Lanczos solve: about 1e-12 at s = 0.7, as for
    # the whole pencil
    J_A = A[::-1, ::-1]
    MV = (M @ V) * ctx.values[:_K_KEEP]
    avg = 0.5 * (A + J_A) @ V
    r_avg = np.linalg.norm(avg - MV, axis=0)
    whole_res = max(p.residual for p in whole)
    assert np.all(r_avg <= max(1e-12, 2.0 * whole_res) * np.linalg.norm(avg, axis=0))
    # against A itself they add A's mirror asymmetry: A v - lambda M v is
    # (A - JAJ) v / 2 plus the residual against the average
    AV = A @ V
    r_A = np.linalg.norm(AV - MV, axis=0)
    asym = 0.5 * np.linalg.norm((A - J_A) @ V, axis=0)
    assert np.all(r_A <= (asym + r_avg) * (1.0 + 1e-6))
    assert [p.residual for p in ctx.pairs] == pytest.approx(
        r_A / np.linalg.norm(AV, axis=0), rel=1e-6
    )


def test_split_signs_follow_orientation():
    ctx = fl.solve_context(fl.make_domain([(-1.0, 1.0)]), 0.5, 1024, 2.0, False)
    for p in ctx.pairs:
        assert solve._orientation(p.vector) > 0
    # even and odd modes alternate on an interval, the ground state even
    even = [np.array_equal(p.vector, p.vector[::-1]) for p in ctx.pairs]
    assert even == [k % 2 == 0 for k in range(_K_KEEP)]


def test_an_asymmetric_context_is_the_whole_solve(monkeypatch):
    # (-0.3, 0.7) at n = 1024 is past _SHIFT_INVERT_DIM but not mirror-symmetric
    shapes = cho_factor_shapes(monkeypatch)
    ctx = fl.solve_context(fl.make_domain([(-0.3, 0.7)]), 0.5, 1024, 2.0, False)
    K = ctx.stiffness.shape[0]
    assert K >= _SHIFT_INVERT_DIM and shapes == [(K, K)]
    whole = fl.solve_geig(ctx.stiffness, ctx.mass, _K_KEEP)
    assert np.array_equal(ctx.values, whole.values)
    for a, b in zip(ctx.pairs, whole):
        assert np.array_equal(a.vector, b.vector)
        assert (a.k, a.value, a.residual) == (b.k, b.value, b.residual)


def test_even_only_context_solves_the_even_half_on_the_full_path(monkeypatch):
    # the path follows the full dimension: the even half of 512 dofs goes to
    # shift-invert Lanczos, and no odd half is solved
    shapes = cho_factor_shapes(monkeypatch)
    ctx = fl.solve_context(fl.make_domain([(-1.0, 1.0)]), 0.7, 1024, 2.0, True)
    assert shapes == [(512, 512)]
    expected = inverted_values(even_half(ctx.stiffness), even_half(ctx.mass), ctx.values.size)
    np.testing.assert_allclose(ctx.values, expected, rtol=1e-13, atol=0)
    for p in ctx.pairs:
        assert np.array_equal(p.vector, p.vector[::-1])


def fake_half(spectra, calls):
    """A ``half(sign, count)`` for ``_merge_halves`` whose half ``sign`` has
    the eigenvalues ``spectra[sign]``; each vector is its value times a
    column of ones, so the merge's order can be read from the vectors."""

    def half(sign, count):
        calls.append((sign, count))
        vals = np.asarray(spectra[sign][:count], dtype=float)
        return vals, np.ones((3, 1)) * vals

    return half


def test_merge_interleaved_halves_asks_each_once():
    calls = []
    spectra = {1.0: np.arange(1.0, 60.0, 2.0), -1.0: np.arange(2.0, 60.0, 2.0)}
    vals, vecs = solve._merge_halves(fake_half(spectra, calls), (1.0, -1.0))
    assert calls == [(1.0, _K_KEEP + 1), (-1.0, _K_KEEP + 1)]
    assert vals.tolist() == list(range(1, 2 * _K_KEEP + 1))
    assert np.array_equal(vecs[0], vals)


def test_merge_solves_a_crowded_half_again():
    # the even half holds the 24 smallest values: its 13th lies below the
    # merged 24th, so it is asked again for 24
    calls = []
    spectra = {1.0: np.arange(1.0, 40.0), -1.0: np.arange(100.0, 140.0)}
    vals, vecs = solve._merge_halves(fake_half(spectra, calls), (1.0, -1.0))
    assert calls == [(1.0, _K_KEEP + 1), (-1.0, _K_KEEP + 1), (1.0, 2 * _K_KEEP)]
    assert vals.tolist() == list(range(1, 2 * _K_KEEP + 1))
    assert np.array_equal(vecs[0], vals)


def test_merge_keeps_a_half_whose_largest_value_ties_the_limit():
    # merged, 1..13 and 0.5, 1.5, .., 10.5, 13, 50 have 13 as their 24th
    # value: no value of the even half beyond its 13th can come before it
    calls = []
    odd = np.concatenate([np.arange(0.5, 11.0), [13.0, 50.0, 60.0]])
    spectra = {1.0: np.arange(1.0, 40.0), -1.0: odd}
    vals, _ = solve._merge_halves(fake_half(spectra, calls), (1.0, -1.0))
    assert calls == [(1.0, _K_KEEP + 1), (-1.0, _K_KEEP + 1)]
    assert vals[-2:].tolist() == [12.0, 13.0]


def test_merge_takes_all_values_of_halves_smaller_than_the_request():
    # K = 15: halves of 8 and 7 values hold fewer than 24 together, and a
    # half that gave fewer values than asked is not asked again
    calls = []
    spectra = {1.0: np.arange(1.0, 16.0, 2.0), -1.0: np.arange(2.0, 15.0, 2.0)}
    vals, vecs = solve._merge_halves(fake_half(spectra, calls), (1.0, -1.0))
    assert calls == [(1.0, _K_KEEP + 1), (-1.0, _K_KEEP + 1)]
    assert vals.tolist() == list(range(1, 16))
    assert np.array_equal(vecs[0], vals)


@pytest.mark.parametrize("intervals", [[(-1.0, 1.0)], [(-2.0, -1.0), (1.0, 2.0)]])
@pytest.mark.parametrize("n", [8, 16, 1024])
def test_halves_values_only_are_the_leading_values(intervals, n):
    # the odd half alone, as a Hadamard check with even_only solves it: small
    # pencils have fewer than 24 odd values; at n = 1024 the half goes to
    # shift-invert Lanczos
    mesh = fl.make_mesh(fl.make_domain(intervals), n, beta=2.0)
    A, M = fl.assemble_gagliardo(mesh, 0.5), fl.assemble_mass(mesh)
    P = solve._mirror_basis(A.shape[0], -1.0)
    Ao, Mo = P.T @ A @ P, P.T @ M @ P
    vals = solve._solve_halves(A, M, (-1.0,), eigvals_only=True)
    assert vals.size == min(Ao.shape[0], 2 * _K_KEEP)
    np.testing.assert_allclose(vals, inverted_values(Ao, Mo, vals.size), rtol=1e-12, atol=0)
    with_vectors = solve._solve_halves(A, M, (-1.0,)).values
    np.testing.assert_allclose(vals, with_vectors, rtol=1e-13, atol=0)


# K = 7, 8 and 1023, 1024: with and without a centre node, small and past
# _SHIFT_INVERT_DIM
@pytest.mark.parametrize("K", [7, 8, 1023, 1024])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_mirror_basis_folds_and_lifts_exactly(K, sign):
    P = solve._mirror_basis(K, sign)
    dense = P.toarray()
    assert P.shape == (K, K // 2 + (K % 2 if sign > 0 else 0))
    T = np.random.default_rng(K).standard_normal((K, K))
    assert np.array_equal(P.T @ T @ P, dense.T @ T @ dense)
    M = fl.assemble_mass(fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), K + 1, 2.0))
    assert np.array_equal((P.T @ M @ P).toarray(), dense.T @ M.toarray() @ dense)
    U = P @ np.random.default_rng(K + 1).standard_normal((P.shape[1], 3))
    assert np.array_equal(U[::-1], sign * U)  # exactly even or odd


def test_context_mass_is_tridiagonal_and_sparse():
    ctx = interval_context(2048, 0.5)
    K = ctx.stiffness.shape[0]
    assert not isinstance(ctx.mass, np.ndarray)
    assert ctx.mass.shape == (K, K) and ctx.mass.nnz == 3 * K - 2


# ---------------------------------------------------------------------------
# semilinear fixed point
# ---------------------------------------------------------------------------

def test_semilinear_nehari_identity():
    ctx = interval_context(128, 0.75)
    mesh = ctx.mesh
    sol = fl.solve_semilinear(ctx, 4.0, tol=1e-10)
    energy = float(sol.u @ (ctx.stiffness @ sol.u))
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
