"""Boundary-trace extraction and identity verification reports.

Everything here compares two independently computed sides of an integral
identity and reports the relative residual together with a mesh-refinement
history.  The boundary trace psi = lim u/delta^s is the fractional
replacement of the normal derivative; it is estimated by least squares
against the model u = psi * delta^s * (1 + c1*delta) on a window of nodes
near the boundary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .assembly import (
    assemble_deformation,
    frac_laplacian_pointwise,
    integrate_density,
)
from .domain import (
    BoundaryPoint1D,
    Domain1D,
    Mesh1D,
    boundary_points,
    make_domain,
    make_mesh,
    perturb_endpoint,
)
from .errors import ArgumentError, SupportError, WindowError
from .fields import VectorField, identity_field
from .quadrature import adaptive_panels, gauss_legendre_01
from .solve import (
    EigenPair,
    SemilinearSolution,
    SolveContext,
    _K_KEEP,
    _leading_values,
    _solve_halves,
    solve_context,
    solve_semilinear,
)

__all__ = [
    "TraceEstimate",
    "PohozaevReport",
    "HadamardReport",
    "SpectrumReport",
    "Bump",
    "polynomial_bump",
    "extract_trace",
    "pohozaev_check",
    "ros_oton_serra_check",
    "ibp_check",
    "l2_identity_check",
    "lemma21_check",
    "hadamard_check",
    "spectrum_report",
    "IDENTITIES",
    "verify_steps",
]

_RESID_FLOOR = 1e-30
# default trace window: skip the node nearest the boundary, use the next
# _TRACE_COUNT nodes, capped at a fixed fraction of the interval length
_TRACE_SKIP = 1
_TRACE_COUNT = 11
_TRACE_FRAC_CAP = 0.25
# relative gap below which neighbouring eigenvalues count as one cluster
_CLUSTER_TOL = 1e-4


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEstimate:
    """Least-squares estimate of psi = lim u/delta^s at one boundary point."""

    bp: BoundaryPoint1D
    psi: float
    window: tuple[float, float]
    residual: float  # relative l2 misfit of the two-parameter model
    nodes_used: int


@dataclass(frozen=True)
class PohozaevReport:
    identity: str  # generalized | ros-oton-serra | ibp | l2-radial | lemma21
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    n: int
    s: float
    history: tuple[tuple[int, float], ...] = ()
    flag: str = "OK"  # OK | WARN | FAIL (refinement-monotonicity flag)


@dataclass(frozen=True)
class HadamardReport:
    k: int
    bp: BoundaryPoint1D
    fd_slope: float
    formula: float
    rel_error: float
    h: float
    n: int
    s: float


@dataclass(frozen=True)
class SpectrumReport:
    s: float
    n: int
    even_only: bool
    values: tuple[float, ...]
    gaps: tuple[float, ...]  # (lam_{k+1}-lam_k)/lam_k
    cluster_sizes: tuple[int, ...]
    cluster_tol: float
    components: int
    note: str


def _history_flag(history) -> str:
    """OK/WARN/FAIL from residual increases along the refinement history."""
    rises = sum(
        1 for (_, r0), (_, r1) in zip(history, history[1:]) if r1 > r0
    )
    return "OK" if rises == 0 else ("WARN" if rises == 1 else "FAIL")


def _report(identity, lhs, rhs, rel, n, s) -> PohozaevReport:
    """Report of one refinement step; its history is that step alone."""
    return PohozaevReport(
        identity=identity,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs(lhs - rhs),
        rel_residual=rel,
        n=n,
        s=s,
        history=((n, rel),),
    )


def _rel(lhs: float, rhs: float, scale: Optional[float] = None) -> float:
    den = max(abs(lhs), abs(rhs), scale or 0.0, _RESID_FLOOR)
    return abs(lhs - rhs) / den


# ---------------------------------------------------------------------------
# trace extraction
# ---------------------------------------------------------------------------

def extract_trace(
    mesh: Mesh1D,
    u,
    s: float,
    bp: BoundaryPoint1D,
    window: Optional[tuple[float, float]] = None,
) -> TraceEstimate:
    """Fit u(x_j) = psi * d_j^s * (1 + c1 d_j) near bp, d_j = |x_j - bp.x|.

    ``u`` holds the values at the interior dofs.  ``window`` restricts to
    distances d in [d_min, d_max]; the default uses the 2nd..12th nodes from
    the boundary (the nearest node carries the largest discretization
    error), capped at a quarter of the interval.
    """
    vals = mesh.interior_to_full(u)[bp.interval_index]
    nd = mesh.nodes[bp.interval_index]
    d = np.abs(nd - bp.x)
    order = np.argsort(d)
    if abs(vals[order[0]]) > 1e-12 * (1.0 + np.max(np.abs(vals))):
        raise ArgumentError("u does not vanish at the boundary point")
    if window is None:
        a, b = mesh.domain.intervals[bp.interval_index]
        cap = _TRACE_FRAC_CAP * (b - a)
        idx = order[1 + _TRACE_SKIP : 1 + _TRACE_SKIP + _TRACE_COUNT]
        idx = idx[d[idx] <= cap]
    else:
        d_min, d_max = window
        idx = order[(d[order] >= d_min) & (d[order] <= d_max) & (d[order] > 0)]
    if idx.size < 4:
        raise WindowError(
            f"trace window holds {idx.size} nodes at x = {bp.x:g}; need >= 4"
        )
    dj = d[idx]
    y = vals[idx]
    D = np.stack([dj**s, dj ** (1.0 + s)], axis=1)
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    misfit = float(np.linalg.norm(D @ coef - y))
    rel = misfit / max(float(np.linalg.norm(y)), _RESID_FLOOR)
    return TraceEstimate(
        bp=bp,
        psi=float(coef[0]),
        window=(float(dj.min()), float(dj.max())),
        residual=rel,
        nodes_used=int(idx.size),
    )


def _traces(ctx: SolveContext, u):
    mesh = ctx.mesh
    return [extract_trace(mesh, u, ctx.s, bp) for bp in boundary_points(mesh.domain)]


# ---------------------------------------------------------------------------
# nonlinearity bookkeeping
# ---------------------------------------------------------------------------

def _nonlinearity(solution):
    """(u, F, uf) for the two supported nonlinearities.

    F(t) is the antiderivative of the right-hand side f; uf(t) = t f(t).
    Eigenpairs use f = lambda*t; semilinear solutions f = t_+^{p-1}.
    """
    if isinstance(solution, EigenPair):
        lam = solution.value
        return (
            solution.vector,
            lambda t: 0.5 * lam * t**2,
            lambda t: lam * t**2,
        )
    if isinstance(solution, SemilinearSolution):
        p = solution.p
        return (
            solution.u,
            lambda t: np.maximum(t, 0.0) ** p / p,
            lambda t: np.maximum(t, 0.0) ** p,
        )
    raise ArgumentError(f"unsupported solution type {type(solution).__name__}")


def _gamma2(s: float) -> float:
    return math.gamma(1.0 + s) ** 2


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def pohozaev_check(ctx: SolveContext, solution, X: VectorField) -> PohozaevReport:
    """Deformation identity: Gamma(1+s)^2 sum psi^2 X.nu = 2 int F div X - u'Bu,
    for a solution on the mesh of ``ctx`` at its s."""
    mesh, s = ctx.mesh, ctx.s
    u, F, _ = _nonlinearity(solution)
    tr = _traces(ctx, u)
    lhs = _gamma2(s) * sum(
        t.psi**2 * float(X.at1(t.bp.x)) * t.bp.normal for t in tr
    )
    B = assemble_deformation(mesh, X, s)
    rhs = 2.0 * integrate_density(mesh, u, weight=X.div1, transform=F) - float(
        u @ (B @ u)
    )
    rel = _rel(lhs, rhs)
    return _report("generalized", lhs, rhs, rel, mesh.n_per_interval[0], s)


def ros_oton_serra_check(ctx: SolveContext, solution) -> PohozaevReport:
    """X = id specialization with the deformation term eliminated analytically:

    Gamma(1+s)^2 sum psi^2 (x.nu) = 2N int F(u) - (N-2s) int u f(u),  N = 1.

    The right side involves no deformation assembly, so this is a second,
    independent route to the same boundary quantity.
    """
    mesh, s = ctx.mesh, ctx.s
    u, F, uf = _nonlinearity(solution)
    tr = _traces(ctx, u)
    lhs = _gamma2(s) * sum(t.psi**2 * t.bp.x * t.bp.normal for t in tr)
    rhs = 2.0 * integrate_density(mesh, u, transform=F) - (
        1.0 - 2.0 * s
    ) * integrate_density(mesh, u, transform=uf)
    rel = _rel(lhs, rhs)
    return _report("ros-oton-serra", lhs, rhs, rel, mesh.n_per_interval[0], s)


def _int_grad_dot_X_times(mesh: Mesh1D, u, X: VectorField, v) -> tuple[float, float]:
    """int (u_h' * X) v_h dx by per-element order-8 Gauss-Legendre.

    Returns (signed value, unsigned magnitude int |u_h' X v_h|); the latter
    is the natural scale of the term when symmetry cancels the signed value.
    """
    ul, ur = mesh.element_ends(u).T
    vl, vr = mesh.element_ends(v).T
    slope = (ur - ul) / mesh.elem_h
    tg, wg = gauss_legendre_01(8)
    xq = mesh.elem_x0[:, None] + mesh.elem_h[:, None] * tg[None, :]
    vq = vl[:, None] + (vr - vl)[:, None] * tg[None, :]
    prod = slope[:, None] * X.at1(xq) * vq
    val = float(np.sum((prod @ wg) * mesh.elem_h))
    mag = float(np.sum((np.abs(prod) @ wg) * mesh.elem_h))
    return val, mag


def ibp_check(
    ctx: SolveContext, pair_u: EigenPair, pair_v: EigenPair, X: VectorField
) -> PohozaevReport:
    """Two-function integration-by-parts identity for eigenpairs (u,lam), (v,mu):

    mu int (u' X) v + lam int (v' X) u + Gamma(1+s)^2 sum psi_u psi_v X.nu
        + u'Bv = 0.

    Reported as lhs = first three terms, rhs = -u'Bv; the relative residual
    is the sum normalized by the largest term magnitude.  When a symmetric
    configuration makes every signed term vanish, the unsigned integrand
    magnitudes serve as the scale instead (otherwise the residual would be
    noise divided by noise).
    """
    mesh, s = ctx.mesh, ctx.s
    u, v = pair_u.vector, pair_v.vector
    tr_u = _traces(ctx, u)
    tr_v = _traces(ctx, v)
    g1, m1 = _int_grad_dot_X_times(mesh, u, X, v)
    g2, m2 = _int_grad_dot_X_times(mesh, v, X, u)
    t1 = pair_v.value * g1
    t2 = pair_u.value * g2
    t3 = _gamma2(s) * sum(
        a.psi * b.psi * float(X.at1(a.bp.x)) * a.bp.normal
        for a, b in zip(tr_u, tr_v)
    )
    m3 = _gamma2(s) * sum(
        abs(a.psi * b.psi * float(X.at1(a.bp.x)))
        for a, b in zip(tr_u, tr_v)
    )
    B = assemble_deformation(mesh, X, s)
    t4 = float(u @ (B @ v))
    lhs = t1 + t2 + t3
    rhs = -t4
    scale = max(
        abs(t1),
        abs(t2),
        abs(t3),
        abs(t4),
        abs(pair_v.value) * m1,
        abs(pair_u.value) * m2,
        m3,
        _RESID_FLOOR,
    )
    rel = abs(lhs - rhs) / scale
    return _report("ibp", lhs, rhs, rel, mesh.n_per_interval[0], s)


def l2_identity_check(ctx: SolveContext, pair: EigenPair) -> PohozaevReport:
    """L2-mass from boundary data: int u^2 = Gamma(1+s)^2/(2 s lam) sum psi^2 (x.nu).

    The boundary sum runs over all endpoints with the 1D counting measure;
    on multi-interval domains the x.nu weights make outer endpoints count
    positively and inner ones negatively.
    """
    mesh, s = ctx.mesh, ctx.s
    u = pair.vector
    tr = _traces(ctx, u)
    lhs = integrate_density(mesh, u, transform=lambda t: t**2)
    rhs = (
        _gamma2(s)
        / (2.0 * s * pair.value)
        * sum(t.psi**2 * t.bp.x * t.bp.normal for t in tr)
    )
    rel = _rel(lhs, rhs)
    return _report("l2-radial", lhs, rhs, rel, mesh.n_per_interval[0], s)


# ---------------------------------------------------------------------------
# compactly supported cross-check (form vs pointwise operator)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bump:
    """C^2 function with compact support, with derivative, for cross-checks."""

    f: Callable
    deriv: Callable
    support: tuple[float, float]

    def __call__(self, x):
        return self.f(x)


def polynomial_bump(center: float = 0.0, halfwidth: float = 0.5, power: int = 3) -> Bump:
    """(1 - z^2)_+^power with z = (x-center)/halfwidth; C^{power-1} at the edge.

    ``f`` and ``deriv`` take the power only where |z| < 1 and write zeros
    elsewhere: numpy's ``pow`` is slow on the zero bases outside the support.
    The values are those of ``np.where(|z| < 1, max(1 - z^2, 0)^power, 0)``.
    """
    if power < 2:
        raise ArgumentError("power >= 2 needed for a C^1 bump")
    if not float(power).is_integer():
        raise ArgumentError(f"bump power must be an integer, got {power}")
    c, w, q = float(center), float(halfwidth), int(power)
    if not w > 0.0:
        raise ArgumentError(f"bump halfwidth must be positive, got {halfwidth}")

    def f(x):
        z = (np.asarray(x, dtype=float) - c) / w
        inside = np.abs(z) < 1.0
        out = np.zeros_like(z)
        out[inside] = np.maximum(1.0 - z[inside] ** 2, 0.0) ** q
        return out

    def deriv(x):
        z = (np.asarray(x, dtype=float) - c) / w
        inside = np.abs(z) < 1.0
        out = np.zeros_like(z)
        zi = z[inside]
        out[inside] = -2.0 * q * zi / w * np.maximum(1.0 - zi**2, 0.0) ** (q - 1)
        return out

    return Bump(f=f, deriv=deriv, support=(c - w, c + w))


_SUPPORT_MARGIN = 0.1


def _interp_resolution(quad_tol: float) -> int:
    """Interpolant resolution tied to the requested tolerance (power of two)."""
    n = 2 ** int(round(math.log2(0.05 / math.sqrt(quad_tol))))
    return int(min(max(n, 64), 2048))


def lemma21_check(
    bump: Bump,
    X: VectorField,
    s: float,
    quad_tol: float = 1e-8,
    *,
    domain: Domain1D,
) -> PohozaevReport:
    """Deformation energy vs pointwise operator for a compactly supported U:

    E_X(U, U) = -2 int U'(x) X(x) ((-Delta)^s U)(x) dx.

    The left side runs the assembly engine on a fine uniform P1 interpolant
    of U over its support; the right side pairs the exact derivative with
    the adaptive principal-value evaluation.  Both routes are independent
    of the identity checks above.
    """
    lo, hi = bump.support
    inside = [
        (a, b) for a, b in domain.intervals if a <= lo and hi <= b
    ]
    if not inside or (lo - inside[0][0]) < _SUPPORT_MARGIN or (
        inside[0][1] - hi
    ) < _SUPPORT_MARGIN:
        raise SupportError(
            f"bump support [{lo:g}, {hi:g}] must sit inside one interval "
            f"with margin >= {_SUPPORT_MARGIN}"
        )
    n_f = _interp_resolution(quad_tol)
    mesh_f = make_mesh(make_domain([(lo, hi)]), n_f, beta=1.0)
    u_f = bump(mesh_f.interior_x)
    B = assemble_deformation(mesh_f, X, s)
    lhs = float(u_f @ (B @ u_f))

    R = 10.0 * domain.diameter

    def integrand(xs):
        lap = frac_laplacian_pointwise(bump, s, xs, R=R, tail_sup=0.0).value
        return bump.deriv(xs) * X.at1(xs) * lap

    # the outer rule refines with quad_tol so the residual tracks the
    # requested tolerance instead of saturating at a fixed-rule floor
    panels = list(zip(np.linspace(lo, hi, 9)[:-1], np.linspace(lo, hi, 9)[1:]))
    rhs_acc, _ = adaptive_panels(integrand, panels, quad_tol)
    rhs = -2.0 * rhs_acc

    # coarse fixed rule (12 panels x GL8) for the normalization scale only
    tg, wg = gauss_legendre_01(8)
    edges = np.linspace(lo, hi, 13)
    widths = edges[1:] - edges[:-1]
    xq = edges[:-1, None] + widths[:, None] * tg[None, :]
    mag_acc = float(widths @ (np.abs(integrand(xq)) @ wg))
    rel = _rel(lhs, rhs, scale=2.0 * mag_acc)
    return _report("lemma21", lhs, rhs, rel, n_f, s)


def _mode(ctx: SolveContext, k: int) -> EigenPair:
    """The k-th eigenpair (1-based) of a context; readers ask for _K_KEEP at
    most, as the context's last pair is there as mode _K_KEEP's neighbour."""
    top = min(_K_KEEP, len(ctx.pairs))
    if not 1 <= k <= top:
        raise ArgumentError(f"mode k = {k} is outside the {top} solved modes")
    return ctx.pairs[k - 1]


# ---------------------------------------------------------------------------
# Hadamard derivative and spectrum report
# ---------------------------------------------------------------------------

def hadamard_check(
    ctx: SolveContext, k: int, bp: BoundaryPoint1D, h: Optional[float] = None
) -> HadamardReport:
    """Eigenvalue derivative under moving one endpoint, two independent ways.

    The finite-difference slope re-meshes and re-solves on the domain of
    ``ctx`` with bp shifted by +-h along its outward normal, at the same n
    and beta; the closed-form value is -Gamma(1+s)^2 psi_k(bp)^2 for the
    M-normalized k-th eigenfunction of ``ctx`` (the denominator int u^2 is
    1 by normalization), the k-th even one for an ``even_only`` context.
    h must be positive and finite, and a mode with a neighbour within the
    finite-difference move is refused (the formula needs a simple eigenvalue).
    """
    domain, s, beta = ctx.mesh.domain, ctx.s, ctx.mesh.beta
    n = ctx.mesh.n_per_interval[0]
    if h is None:
        h = 1e-3 * domain.diameter
    if not (h > 0.0 and math.isfinite(h)):
        raise ArgumentError(f"the finite-difference step h must be positive and finite, got {h}")
    pair = _mode(ctx, k)
    psi = extract_trace(ctx.mesh, pair.vector, s, bp).psi
    formula = -_gamma2(s) * psi**2
    # Moving one endpoint breaks the x -> -x symmetry, so the perturbed
    # solves always use the full problem.  The even restriction is a
    # sub-spectrum of the same discrete problem, so the k-th even value
    # sits in the full spectrum after the odd values below it.  The even
    # context already holds the even values; the odd half of its forms is
    # solved for values only, so that no factor of the full forms is made.
    # Its first _K_KEEP + 1 values hold every odd value below the mode and
    # the next above it, unless all of them lie below and the half has more.
    full, idx = ctx.values, k - 1
    if ctx.even_only:
        odd = _solve_halves(ctx.stiffness, ctx.mass, (-1.0,), eigvals_only=True)
        below = int(np.count_nonzero(odd < pair.value))
        if below == odd.size < ctx.stiffness.shape[0] // 2:
            raise ArgumentError(f"even mode k = {k} not found in the full spectrum")
        idx += below
        full = np.sort(np.concatenate([full, odd]), kind="stable")
    lam_plus, lam_minus = (
        float(_leading_values(perturb_endpoint(domain, bp, dx), s, n, beta, idx + 1)[idx])
        for dx in (+h, -h)
    )
    # a neighbour closer than the perturbation's move can swap places with
    # the mode, and the difference quotient then follows the wrong branch
    for j in (idx - 1, idx + 1):
        if 0 <= j < full.size and abs(full[j] - pair.value) <= abs(lam_plus - lam_minus):
            raise ArgumentError(
                f"eigenvalue {pair.value:.12g} has a neighbour {full[j]:.12g} within "
                f"the finite-difference move {abs(lam_plus - lam_minus):.3g}; the "
                "Hadamard formula needs a simple eigenvalue"
            )
    fd = (lam_plus - lam_minus) / (2.0 * h)
    rel = abs(fd - formula) / max(abs(formula), _RESID_FLOOR)
    return HadamardReport(
        k=k, bp=bp, fd_slope=fd, formula=formula, rel_error=rel, h=h, n=n, s=s
    )


def spectrum_report(ctx: SolveContext, k_max: int) -> SpectrumReport:
    """The first k_max <= _K_KEEP eigenvalues of ``ctx`` (its even ones for
    an ``even_only`` context), with relative gaps and clusters under
    ``_CLUSTER_TOL``."""
    top = min(_K_KEEP, len(ctx.pairs))
    if not 1 <= k_max <= top:
        raise ArgumentError(
            f"k_max = {k_max} is outside 1..{top}, the solved modes "
            f"(the subspace dimension, at most {_K_KEEP})"
        )
    vals = np.asarray(ctx.values[:k_max], dtype=float)
    gaps = tuple((vals[1:] - vals[:-1]) / vals[:-1])
    sizes = []
    run = 1
    for g in gaps:
        if g < _CLUSTER_TOL:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    if ctx.even_only:
        note = "even-restricted (radial) spectrum; simplicity heuristics apply"
    else:
        note = (
            "full spectrum; simplicity heuristics apply to the even-restricted "
            "subsequence only"
        )
    return SpectrumReport(
        s=ctx.s,
        n=ctx.mesh.n_per_interval[0],
        even_only=ctx.even_only,
        values=tuple(map(float, vals)),
        gaps=gaps,
        cluster_sizes=tuple(sizes),
        cluster_tol=_CLUSTER_TOL,
        components=len(ctx.mesh.domain.intervals),
        note=note,
    )


# ---------------------------------------------------------------------------
# refinement driver
# ---------------------------------------------------------------------------

# the identities `fraclab verify` accepts, in the order it lists them
IDENTITIES = ("pohozaev", "ros-oton-serra", "ibp", "l2-radial", "lemma21", "hadamard")


def verify_steps(
    identity: str,
    domain: Domain1D,
    s: float,
    ns: Sequence[int],
    *,
    beta: float = 2.0,
    k: int = 1,
    k2: int = 2,
    X: Optional[VectorField] = None,
    p: Optional[float] = None,
    bump: Optional[Bump] = None,
    quad_tols: Sequence[float] = (1e-6, 1e-8),
    bp_side: str = "right",
    h: Optional[float] = None,
    even_only: bool = False,
    semilinear_tol: float = 1e-12,
):
    """Yield the report of each refinement step of one identity check.

    pohozaev, ros-oton-serra, ibp and l2-radial run once per n of ``ns``,
    ascending, on the context ``solve_context`` gives for it; lemma21 runs
    once per tolerance of ``quad_tols``, largest first.  Each of their
    reports carries the (n, rel_residual) history of the steps so far and
    its flag.  hadamard yields one HadamardReport at ``max(ns)`` (the
    finite-difference step is its own refinement axis).  With ``p`` set,
    pohozaev and ros-oton-serra check the semilinear solution instead of the
    k-th eigenpair.
    ``fraclab verify`` runs every check through this generator.
    """
    if identity not in IDENTITIES:
        raise ArgumentError(
            f"unknown identity '{identity}'; expected one of {', '.join(IDENTITIES)}"
        )
    if not (quad_tols if identity == "lemma21" else ns):
        raise ArgumentError(f"'{identity}' needs a non-empty refinement list")
    bps = [b for b in boundary_points(domain) if b.side == bp_side]
    if not bps:
        raise ArgumentError(f"no boundary point has side '{bp_side}'")
    if X is None:
        lo, hi = domain.hull
        X = identity_field(1, box=[(lo - 1.0, hi + 1.0)])
    if identity == "hadamard":
        ctx = solve_context(domain, s, max(ns), beta, even_only)
        yield hadamard_check(ctx, k, bps[-1], h)
        return

    def step(n: int) -> PohozaevReport:
        ctx = solve_context(domain, s, n, beta, even_only)
        sol = _mode(ctx, k)
        if p is not None and identity in ("pohozaev", "ros-oton-serra"):
            sol = solve_semilinear(ctx, p, tol=semilinear_tol)
        if identity == "pohozaev":
            return pohozaev_check(ctx, sol, X)
        if identity == "ros-oton-serra":
            return ros_oton_serra_check(ctx, sol)
        if identity == "ibp":
            return ibp_check(ctx, sol, _mode(ctx, k2), X)
        return l2_identity_check(ctx, sol)

    if identity == "lemma21":
        bump = bump if bump is not None else polynomial_bump()
        reports = (
            lemma21_check(bump, X, s, tol, domain=domain)
            for tol in sorted(quad_tols, reverse=True)
        )
    else:
        reports = map(step, sorted(ns))
    history: tuple = ()
    for rep in reports:
        history += rep.history
        yield replace(rep, history=history, flag=_history_flag(history))
