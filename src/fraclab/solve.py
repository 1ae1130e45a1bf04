"""Generalized symmetric eigensolver, even-subspace restriction, the cached
solve context, and a subcritical semilinear fixed-point solver.

The eigenproblem is A u = lambda M u on the interior P1 basis (Dirichlet).
In one dimension the "radial" subspace is the span of even functions; the
restriction is done at matrix level with symmetrized hat functions so the
even spectrum is exactly a sub-spectrum of the full discrete problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .assembly import AssembledForms, assemble_forms, integrate_density
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
    "restrict_even",
    "solve_context",
    "solve_semilinear",
    "pairs_to_json",
    "pairs_to_nodal_rows",
]

_SYM_TOL = 1e-10
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


def _check_sym(name: str, T: np.ndarray) -> None:
    scale = np.max(np.abs(T)) or 1.0
    if np.max(np.abs(T - T.T)) > _SYM_TOL * scale:
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


def _eigh(A: np.ndarray, M: np.ndarray, m: int, eigvals_only: bool):
    """The first m eigenvalues (and vectors) of A u = lambda M u.

    ``subset_by_index`` selects LAPACK ``?sygvx``: after the Cholesky
    reduction and tridiagonalization, bisection finds only the m wanted
    eigenvalues and inverse iteration only their vectors.
    """
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


def solve_geig(A: np.ndarray, M: np.ndarray, k_max: int) -> list[EigenPair]:
    """First k_max eigenpairs of A u = lambda M u, M-orthonormal, ascending.

    The reduction is the classical dense path (Cholesky factor of M,
    tridiagonalization, bisection and inverse iteration) as provided by
    LAPACK through scipy; only the leading eigenpairs are solved for.
    Vectors are sign-fixed by ``_orientation``.  The returned list also
    carries ``values``, the first max(k_max, 2*_K_KEEP) eigenvalues of the
    same solve (all of them if the dimension is smaller), ascending.
    """
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    if A.shape != M.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError("A and M must be square matrices of equal shape")
    dim = A.shape[0]
    if not (1 <= k_max <= dim):
        raise ArgumentError(f"k_max must be in [1, {dim}], got {k_max}")
    _check_sym("A", A)
    _check_sym("M", M)
    vals, vecs = _eigh(A, M, min(dim, max(k_max, 2 * _K_KEEP)), eigvals_only=False)
    pairs = _Pairs()
    pairs.values = vals
    for k in range(k_max):
        v = vecs[:, k].copy()
        if _orientation(v) < 0:
            v = -v
        av = A @ v
        res = float(np.linalg.norm(av - vals[k] * (M @ v)) / np.linalg.norm(av))
        pairs.append(EigenPair(k=k + 1, value=float(vals[k]), vector=v, residual=res))
    return pairs


def restrict_even(mesh: Mesh1D, A: np.ndarray, M: np.ndarray):
    """Project (A, M) onto the even subspace of a mesh symmetric in x -> -x.

    Returns (A_even, M_even, P) where the columns of P are the symmetrized
    basis vectors e_i + e_{mirror(i)} (the center hat alone if present);
    full interior nodal values are recovered as P @ v_even.
    """
    x = mesh.interior_x
    K = x.size
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x + x[::-1])) > 1e-12 * scale:
        raise AsymmetricMeshError("mesh is not symmetric under x -> -x")
    n_even = (K + 1) // 2
    P = np.zeros((K, n_even))
    for i in range(n_even):
        j = K - 1 - i
        P[i, i] = 1.0
        if j != i:
            P[j, i] = 1.0
    return P.T @ A @ P, P.T @ M @ P, P


@dataclass(frozen=True, eq=False)
class SolveContext:
    mesh: Mesh1D
    forms: AssembledForms
    pairs: tuple[EigenPair, ...]
    # first 2*_K_KEEP eigenvalues (all of them if the dimension is smaller)
    values: np.ndarray = field(repr=False)
    even_only: bool = False


@lru_cache(maxsize=1)
def _forms(mesh: Mesh1D, s: float) -> AssembledForms:
    """assemble_forms for the last (mesh, s): an even and a full context of
    one mesh, as a Hadamard check with ``even_only`` builds, share it."""
    return assemble_forms(mesh, s)


@lru_cache(maxsize=24)
def solve_context(
    domain: Domain1D,
    s: float,
    n: int,
    beta: float = 2.0,
    even_only: bool = False,
) -> SolveContext:
    """Mesh + assembled forms + leading eigenpairs, memoized."""
    mesh = make_mesh(domain, n, beta)
    forms = _forms(mesh, s)
    A, M = forms.stiffness, forms.mass
    if even_only:
        Ae, Me, P = restrict_even(mesh, A, M)
        raw = solve_geig(Ae, Me, min(_K_KEEP, Ae.shape[0]))
        pairs = tuple(
            EigenPair(k=p.k, value=p.value, vector=P @ p.vector, residual=p.residual)
            for p in raw
        )
    else:
        raw = solve_geig(A, M, min(_K_KEEP, A.shape[0]))
        pairs = tuple(raw)
    return SolveContext(
        mesh=mesh, forms=forms, pairs=pairs, values=raw.values, even_only=even_only
    )


def _leading_values(
    domain: Domain1D, s: float, n: int, beta: float, m: int
) -> np.ndarray:
    """The first m eigenvalues of the full problem, without vectors.

    Unlike ``solve_context`` nothing is cached: a Hadamard check reads one
    value from each perturbed domain and never comes back to it.
    """
    forms = assemble_forms(make_mesh(domain, n, beta), s)
    return _eigh(forms.stiffness, forms.mass, m, eigvals_only=True)


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
    s = ctx.forms.s
    if s < 0.5 and p >= 2.0 / (1.0 - 2.0 * s):
        raise SupercriticalError(
            f"p = {p} is supercritical for s = {s} (critical exponent "
            f"{2.0 / (1.0 - 2.0 * s):g}); no positive solution exists"
        )
    A, M, mesh = ctx.forms.stiffness, ctx.forms.mass, ctx.mesh

    def nehari(z: np.ndarray) -> np.ndarray:
        e = float(z @ (A @ z))
        g = integrate_density(mesh, z, transform=lambda w: np.maximum(w, 0.0) ** p)
        if g <= 0.0:
            raise ConvergenceError("iterate lost positivity (zero nonlinear term)")
        return (e / g) ** (1.0 / (p - 2.0)) * z

    u = nehari(ctx.pairs[0].vector)
    chol = scipy.linalg.cho_factor(A)
    for it in range(1, max_iter + 1):
        f = np.maximum(u, 0.0) ** (p - 1.0)
        z = scipy.linalg.cho_solve(chol, M @ f)
        unew = nehari(z)
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def pairs_to_json(domain, s: float, mesh: Mesh1D, pairs) -> str:
    """JSON document with eigenvalues and per-interval nodal values."""
    doc = {
        "s": s,
        "domain": [list(iv) for iv in domain.intervals],
        "lambda": [p.value for p in pairs],
        "nodal": [
            [list(map(float, seg)) for seg in mesh.interior_to_full(p.vector)]
            for p in pairs
        ],
    }
    return json.dumps(doc, indent=2)


def _nodal_rows(mesh: Mesh1D, u: np.ndarray) -> list[tuple[float, float]]:
    """Rows (x, u(x)) at every node of every interval, endpoints included."""
    return [
        (float(x), float(v))
        for seg_nodes, seg_vals in zip(mesh.nodes, mesh.interior_to_full(u))
        for x, v in zip(seg_nodes, seg_vals)
    ]


def pairs_to_nodal_rows(mesh: Mesh1D, pairs):
    """Rows (k, x, u_k(x)) covering every node of every mode."""
    return [(p.k, x, v) for p in pairs for x, v in _nodal_rows(mesh, p.vector)]
