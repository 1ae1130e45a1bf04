"""Generalized symmetric eigensolver, even and odd mirror halves, the solve
context (the most recent one kept), and a subcritical semilinear fixed-point solver.

The eigenproblem is A u = lambda M u on the interior P1 basis (Dirichlet),
with A dense and M the sparse tridiagonal mass matrix.  In one dimension the
"radial" subspace is the span of even functions.  On a mesh symmetric under
x -> -x the pencil is block diagonal in the basis of symmetrized hat
functions, the columns of the sparse mirror basis P (``_mirror_basis``), so
the even spectrum is exactly a sub-spectrum of the full discrete problem.
Each half is the pencil (P' A P, P' M P), and P @ v lifts its vectors.
``solve_context`` solves pencils of full dimension ``_SHIFT_INVERT_DIM`` or
more as an even and an odd half, both by shift-invert Lanczos: the path
follows the full dimension, not the half's.  The halves' vectors are exactly
even or odd, so their residuals against the assembled A stop at A's own
mirror asymmetry (about 1e-10 of its largest entry at n = 2048).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsv

from .assembly import assemble_gagliardo, assemble_mass, integrate_density
from .domain import Domain1D, Mesh1D, make_mesh
from .errors import (
    ArgumentError,
    AsymmetricMeshError,
    ConvergenceError,
    NotPositiveDefiniteError,
    SupercriticalError,
)

__all__ = [
    "EigenPair",
    "SemilinearSolution",
    "solve_geig",
    "solve_context",
    "solve_semilinear",
]

_SYM_TOL = 1e-10
# rows per panel of the dense symmetry check
_SYM_PANEL = 256
# pencils of at least this dimension are solved by shift-invert Lanczos on a
# Cholesky factor of A, smaller ones by the dense LAPACK reduction.  For 24
# eigenpairs of the form on (-1, 1) at s = 1/2 (24 runs in one process, one
# BLAS thread), Lanczos took 10-49 ms at 255 dofs against 6-10 ms dense,
# 19-31 against 26-36 ms at 511, 38-53 against 70-91 ms at 767 and 62-100
# against 163-198 ms at 1023.  The bound stays above 511: the gain there is
# small, and the switch would move those eigenvalues by up to the dense
# path's absolute error (7.4e-10 relative at s = 0.7)
_SHIFT_INVERT_DIM = 768
# eigenvectors kept per cached context; twice as many eigenvalues are solved,
# enough to find the k-th even mode (k <= _K_KEEP) in the full spectrum
_K_KEEP = 12
# entries within this relative distance of an eigenvector's largest magnitude
# tie for it (the mirror entries of a mode antisymmetric on a symmetric mesh
# differ by rounding only)
_SIGN_TIE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One discrete eigenpair; k is 1-based in ascending order."""

    k: int
    value: float
    vector: np.ndarray = field(repr=False)  # interior nodal values, v'Mv = 1
    residual: float = 0.0  # ||Av - lambda Mv|| / ||Av||


@dataclass(frozen=True, eq=False)
class SemilinearSolution:
    """Nonnegative fixed point of the Nehari-rescaled inverse iteration."""

    p: float
    u: np.ndarray = field(repr=False)
    residual: float = 0.0  # ||Au - Mf(u)|| / ||Au||
    iterations: int = 0
    nehari_gap: float = 0.0  # |u'Au - int u_+^p| / u'Au


class _Pairs(list):
    """solve_geig's eigenpairs; ``values`` holds the leading eigenvalues of
    the same solve (see ``solve_geig``)."""

    values: np.ndarray


def _check_sym(name: str, T) -> None:
    """Raise unless the dense or sparse T is finite and matches its
    transpose to _SYM_TOL of its largest entry.

    A dense T is compared in panels of ``_SYM_PANEL`` rows right of the
    diagonal against the matching columns below it, so no K x K temporary
    is made.
    """
    scale = max(T.max(), -T.min())
    if not np.isfinite(scale):
        raise ArgumentError(f"{name} has non-finite entries")
    if isinstance(T, np.ndarray):
        asym = 0.0
        for i in range(0, T.shape[0], _SYM_PANEL):
            j = i + _SYM_PANEL
            asym = max(asym, np.max(np.abs(T[i:j, i:] - T[i:, i:j].T)))
    else:
        asym = abs(T - T.T).max()
    if asym > _SYM_TOL * (scale or 1.0):
        raise ArgumentError(f"{name} is not symmetric")


def _orientation(v: np.ndarray) -> float:
    """The number whose sign fixes the sign of eigenvector ``v``.

    It is the entry of largest magnitude.  When entries of both signs tie for
    that magnitude, as the mirror entries of a mode antisymmetric about the
    middle of the mesh do, rounding alone would pick one; the first moment
    sum_i (i - c) v_i about the middle index c decides instead.
    """
    a = np.abs(v)
    top = v[a >= (1.0 - _SIGN_TIE_TOL) * a.max()]
    if top.min() < 0.0 < top.max():
        return float(np.dot(np.arange(v.size) - 0.5 * (v.size - 1), v))
    return float(top[0])


def _eigh(A: np.ndarray, M, m: int, eigvals_only: bool, dim: int | None = None):
    """The first m eigenvalues (and vectors) of A u = lambda M u, ascending,
    for a dense A and a sparse M.

    The path follows ``dim``, the dimension of the full pencil when (A, M) is
    one of its mirror halves (A's own dimension by default).  From
    ``_SHIFT_INVERT_DIM`` on it is ``_eigh_shift_invert``.  Below it, and
    for any m >= A's dimension - 1, which leaves ARPACK no room for its
    Lanczos basis, it is the dense path: ``subset_by_index`` selects
    LAPACK ``?sygvx``, which reduces the whole pencil to tridiagonal form and
    then finds only the m wanted eigenvalues by bisection and their vectors
    by inverse iteration on a dense copy of M.  Its error is absolute, about
    eps * lambda_max.
    """
    if (dim or A.shape[0]) >= _SHIFT_INVERT_DIM and m < A.shape[0] - 1:
        return _eigh_shift_invert(A, M, m, eigvals_only)
    M = M.toarray()
    try:
        return scipy.linalg.eigh(
            A, M, eigvals_only=eigvals_only, subset_by_index=[0, m - 1]
        )
    except scipy.linalg.LinAlgError as exc:
        # only a failed solve pays for telling the two causes apart
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("M is not positive definite") from exc
        raise ConvergenceError(f"eigensolver failed to converge: {exc}") from exc


def _cho_apply(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for A = L L', with L the lower factor that
    ``scipy.linalg.cho_factor(A, lower=True)`` returns (its upper triangle
    is not read).

    Two level-2 triangular solves, BLAS ``dtrsv``: LAPACK ``?potrs`` goes
    through the level-3 ``trsm`` even for one right-hand side, which took
    2.2-3.4 times as long on the same factor at 511 to 2047 dofs.  L must
    be F-contiguous, as ``cho_factor`` returns it, or every call copies it.
    """
    return dtrsv(L, dtrsv(L, b, lower=1), lower=1, trans=1, overwrite_x=1)


def _eigh_shift_invert(A: np.ndarray, M, m: int, eigvals_only: bool):
    """``_eigh`` by the shift-invert spectral transformation at sigma = 0
    (Ericsson & Ruhe 1980): ARPACK's Lanczos process (Lehoucq, Sorensen &
    Yang 1998) finds the m largest eigenvalues 1/lambda of A^-1 M in the
    M-inner product, applying A^-1 through one Cholesky factor of A
    (``_cho_apply``).

    The small eigenvalues come out accurate to relative precision.  The start
    vector is fixed, so reruns are bit-identical; it is not even, so modes odd
    on a symmetric mesh enter the Krylov space of an unsplit pencil from the
    first step.  The sparse M goes to ARPACK as it is, and its definiteness
    is checked by a banded Cholesky factor of its lower band (tridiagonal for
    assembled forms).
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    dim = A.shape[0]
    coo = M.tocoo()
    # the diagonals M[i + k, i] of M's lower triangle, k = 0..bandwidth
    ab = np.zeros((int(np.max(coo.row - coo.col, initial=0)) + 1, dim))
    for k in range(ab.shape[0]):
        ab[k, : dim - k] = M.diagonal(-k)
    try:
        scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("M is not positive definite") from exc
    try:
        L, _ = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("A is not positive definite") from exc
    a_inv = LinearOperator((dim, dim), matvec=lambda b: _cho_apply(L, b), dtype=float)
    try:
        out = eigsh(
            A, k=m, M=M, sigma=0.0, OPinv=a_inv, tol=0,
            v0=np.random.default_rng(0).standard_normal(dim),
            return_eigenvectors=not eigvals_only,
        )
    except ArpackError as exc:
        raise ConvergenceError(f"eigensolver failed to converge: {exc}") from exc
    if eigvals_only:
        return np.sort(out)
    vals, vecs = out
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def solve_geig(A: np.ndarray, M, k_max: int) -> list[EigenPair]:
    """First k_max eigenpairs of A u = lambda M u, M-orthonormal, ascending.

    A is dense; M is dense or sparse, and is held as a CSR array.

    Only the leading eigenpairs are solved for (see ``_eigh``): by the dense
    LAPACK reduction below dimension ``_SHIFT_INVERT_DIM``, by shift-invert
    Lanczos from it on.  Vectors are sign-fixed by ``_orientation``.  The
    returned list also carries ``values``, the first max(k_max, 2*_K_KEEP)
    eigenvalues of the same solve (all of them if the dimension is smaller),
    ascending.
    """
    from scipy.sparse import csr_array

    A = np.asarray(A, dtype=float)
    M = csr_array(M, dtype=float)
    if A.shape != M.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError("A and M must be square matrices of equal shape")
    dim = A.shape[0]
    if not (1 <= k_max <= dim):
        raise ArgumentError(f"k_max must be in [1, {dim}], got {k_max}")
    _check_sym("A", A)
    _check_sym("M", M)
    vals, vecs = _eigh(A, M, min(dim, max(k_max, 2 * _K_KEEP)), eigvals_only=False)
    return _pairs(A, M, vals, vecs, k_max)


def _pairs(A: np.ndarray, M, vals, vecs, k_max: int) -> _Pairs:
    """The first k_max of the solved pairs (vals, vecs) of A u = lambda M u,
    vectors sign-fixed by ``_orientation`` and residuals taken against A and
    M; ``values`` is all of vals."""
    V = vecs[:, :k_max].copy(order="F")  # each vector contiguous
    V *= np.where([_orientation(v) < 0 for v in V.T], -1.0, 1.0)
    AV = A @ V
    res = np.linalg.norm(AV - (M @ V) * vals[:k_max], axis=0) / np.linalg.norm(AV, axis=0)
    pairs = _Pairs(
        EigenPair(k=k + 1, value=float(vals[k]), vector=V[:, k], residual=float(res[k]))
        for k in range(k_max)
    )
    pairs.values = vals
    return pairs


# ---------------------------------------------------------------------------
# mirror halves
# ---------------------------------------------------------------------------

def _mirror_symmetric(mesh: Mesh1D) -> bool:
    """Whether the interior nodes are symmetric under x -> -x."""
    x = mesh.interior_x
    scale = max(1.0, float(np.max(np.abs(x))))
    return bool(np.max(np.abs(x + x[::-1])) <= 1e-12 * scale)


def _mirror_basis(K: int, sign: float):
    """The sparse K x n basis P of the even (sign = 1) or odd (sign = -1)
    half of K interior dofs on a mesh symmetric in x -> -x.

    Column i < K // 2 is e_i + sign * e_mirror(i); the even half of odd K
    also holds the centre hat alone, which is its own mirror.  A form T of
    the half is P' T P, and P @ v lifts its vectors to full nodal values.
    Each entry of either product sums two terms, so the sparse products
    match the dense ones bit for bit.
    """
    from scipy.sparse import coo_array

    rows = np.arange(K)
    cols = np.minimum(rows, rows[::-1])
    n = K // 2 + (K % 2 if sign > 0 else 0)
    keep = cols < n  # drops the centre row of the odd half of odd K
    data = np.where(rows < (K + 1) // 2, 1.0, sign)
    return coo_array((data[keep], (rows[keep], cols[keep])), shape=(K, n)).tocsr()


def _merge_halves(half, signs: tuple[float, ...]):
    """The first 2*_K_KEEP values of a pencil (all of them if it is smaller)
    and their vectors, ascending, from its mirror halves ``signs``.

    ``half(sign, count)`` returns the first ``count`` values of one half
    (all of them if it is smaller) and their full nodal vectors.  A single
    half is asked for 2*_K_KEEP values and returned as it is, so it may give
    None in place of the vectors.  Two halves are asked for _K_KEEP + 1 each:
    on an interval the even and odd values interleave, so that is mostly
    enough.  A half that gave all _K_KEEP + 1 values, the largest below the
    merged 2*_K_KEEP-th (the largest merged value, if the halves hold fewer),
    may hold more below it, and is asked again for 2*_K_KEEP.  Ties keep the
    order of ``signs``.
    """
    want = 2 * _K_KEEP
    if len(signs) == 1:
        return half(signs[0], want)
    solved = [half(sign, _K_KEEP + 1) for sign in signs]
    limit = np.sort(np.concatenate([v for v, _ in solved]))[:want][-1]
    solved = [
        half(sign, want) if v.size > _K_KEEP and v[-1] < limit else (v, u)
        for sign, (v, u) in zip(signs, solved)
    ]
    vals = np.concatenate([v for v, _ in solved])
    order = np.argsort(vals, kind="stable")[:want]
    return vals[order], np.concatenate([u for _, u in solved], axis=1)[:, order]


def _solve_halves(A: np.ndarray, M, signs: tuple[float, ...], eigvals_only: bool = False):
    """Leading eigenpairs of (A, M) on a mirror-symmetric mesh, solved on
    the halves ``signs`` (1 even, -1 odd) and lifted to full nodal vectors.

    Each half folds both forms through its ``_mirror_basis`` P, is solved on
    the path of the full dimension (see ``_eigh``) and is freed before the
    next is folded, so no factor of the full dimension is made.  Residuals
    are taken against the full A and M.  With ``eigvals_only``, for a single
    half, it solves for values alone, and they are returned as an array.
    """
    K = A.shape[0]

    def half(sign: float, count: int):
        P = _mirror_basis(K, sign)
        Ah = P.T @ A @ P
        _check_sym("A", Ah)
        out = _eigh(Ah, P.T @ M @ P, min(count, Ah.shape[0]), eigvals_only, dim=K)
        return (out, None) if eigvals_only else (out[0], P @ out[1])

    vals, vecs = _merge_halves(half, signs)
    if eigvals_only:
        return vals
    return _pairs(A, M, vals, vecs, min(_K_KEEP, vals.size))


@dataclass(frozen=True, eq=False)
class SolveContext:
    mesh: Mesh1D
    s: float
    even_only: bool  # pairs and values are those of the even half alone
    stiffness: np.ndarray = field(repr=False)
    mass: object = field(repr=False)  # sparse tridiagonal CSR array
    pairs: tuple[EigenPair, ...]
    # first 2*_K_KEEP eigenvalues (all of them if the dimension is smaller)
    values: np.ndarray = field(repr=False)


@lru_cache(maxsize=1)
def solve_context(
    domain: Domain1D,
    s: float,
    n: int,
    beta: float = 2.0,
    even_only: bool = False,
) -> SolveContext:
    """Mesh + assembled forms + leading eigenpairs; the most recent one is kept.

    On a mesh symmetric under x -> -x, A and M are block diagonal in the
    even/odd basis.  There a pencil of full dimension ``_SHIFT_INVERT_DIM``
    or more is solved as an even and an odd half (``_solve_halves``), and
    ``even_only`` solves the even half alone at any dimension; any other
    pencil is solved whole by ``solve_geig``.  The halves fold and lift
    through one sparse mirror basis, and their vectors are exactly even or
    odd, so their residuals against A stop at A's own mirror asymmetry (about
    1e-10 of its largest entry at n = 2048, from the exterior tail on the
    boundary elements) rather than at rounding.
    """
    mesh = make_mesh(domain, n, beta)
    symmetric = _mirror_symmetric(mesh)
    if even_only and not symmetric:
        raise AsymmetricMeshError("mesh is not symmetric under x -> -x")
    A, M = assemble_gagliardo(mesh, s), assemble_mass(mesh)
    if even_only:
        pairs = _solve_halves(A, M, (1.0,))
    elif symmetric and A.shape[0] >= _SHIFT_INVERT_DIM:
        pairs = _solve_halves(A, M, (1.0, -1.0))
    else:
        pairs = solve_geig(A, M, min(_K_KEEP, A.shape[0]))
    return SolveContext(
        mesh=mesh, s=s, even_only=even_only, stiffness=A, mass=M, pairs=tuple(pairs),
        values=pairs.values,
    )


def _leading_values(
    domain: Domain1D, s: float, n: int, beta: float, m: int
) -> np.ndarray:
    """The first m eigenvalues of the full problem, without vectors.

    Unlike ``solve_context`` nothing is cached: a Hadamard check reads one
    value from each perturbed domain and never comes back to it.
    """
    mesh = make_mesh(domain, n, beta)
    return _eigh(assemble_gagliardo(mesh, s), assemble_mass(mesh), m, eigvals_only=True)


def solve_semilinear(
    ctx: SolveContext,
    p: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SemilinearSolution:
    """Positive solution of A u = M u_+^{p-1} via Nehari-rescaled iteration.

    Each step solves A z = M f(u) and rescales t z so that
    t^2 z'Az = t^p int z_+^p; iteration stops when the nodal sup-change
    drops below tol.  Started from the ground-state eigenvector ctx.pairs[0].

    The reported ``residual`` is |Au - M u_+^{p-1}| / |Au| at the fixed
    point.  The Nehari rescale normalizes against the exact piecewise
    integral of the interpolant's p-th power, while M f(u) applies the mass
    matrix to nodal powers, so the residual measures the consistency of the
    two quadratures: it decays with mesh refinement (O(h^2)-ish), not with
    further iterations.  ``nehari_gap`` tracks the rescaling fixed point
    itself and sits at rounding level once converged.
    """
    if p <= 2.0:
        raise ArgumentError(f"need p > 2, got {p}")
    s = ctx.s
    if s < 0.5 and p >= 2.0 / (1.0 - 2.0 * s):
        raise SupercriticalError(
            f"p = {p} is supercritical for s = {s} (critical exponent "
            f"{2.0 / (1.0 - 2.0 * s):g}); no positive solution exists"
        )
    A, M, mesh = ctx.stiffness, ctx.mass, ctx.mesh

    def nehari(z: np.ndarray, e: float) -> np.ndarray:
        """Rescale z, of energy e = z'Az, onto the Nehari manifold."""
        g = integrate_density(mesh, z, transform=lambda w: np.maximum(w, 0.0) ** p)
        if g <= 0.0:
            raise ConvergenceError("iterate lost positivity (zero nonlinear term)")
        return (e / g) ** (1.0 / (p - 2.0)) * z

    v = ctx.pairs[0].vector
    u = nehari(v, float(v @ (A @ v)))
    L, _ = scipy.linalg.cho_factor(A, lower=True)
    for it in range(1, max_iter + 1):
        mf = M @ np.maximum(u, 0.0) ** (p - 1.0)
        z = _cho_apply(L, mf)
        unew = nehari(z, float(z @ mf))  # z'Az = z'Mf, since Az = Mf
        change = float(np.max(np.abs(unew - u)))
        u = unew
        if change < tol:
            au = A @ u
            res = float(
                np.linalg.norm(au - M @ np.maximum(u, 0.0) ** (p - 1.0))
                / np.linalg.norm(au)
            )
            e = float(u @ au)
            g = integrate_density(
                mesh, u, transform=lambda w: np.maximum(w, 0.0) ** p
            )
            return SemilinearSolution(
                p=p, u=u, residual=res, iterations=it, nehari_gap=abs(e - g) / e
            )
    raise ConvergenceError(f"semilinear iteration did not converge in {max_iter} steps")
