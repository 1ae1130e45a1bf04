"""Full-plane assembly of the fractional bilinear forms on P1 meshes.

The Gagliardo form E(v, w) and the deformation form E_X(v, w) are double
integrals over R x R.  Test functions vanish outside the mesh hull, so
the assembly splits into interactions between mesh elements (singular
along the diagonal) and closed-form exterior tail weights.  Element-pair
classes:

* identical  -- exact closed form (Gagliardo) / Gauss-Jacobi x GL in the
  difference variable (deformation);
* touching   -- Duffy split of the corner singularity; exact power
  integrals (Gagliardo) / Jacobi(2-2s) x GL (deformation);
* near       -- separated, gap < 16 max(h_k, h_l): 8x8 Gauss-Legendre
  after halving elements until the gap is at least the element size
  (cap -> QuadratureError);
* far        -- gap >= 16 max(h_k, h_l): dense order-4 point-kernel blocks
  over the upper triangle, contracted with the hat values by matmul.

One geometry pass per mesh (``_pair_tables``) classifies the pairs and
lists only the near sub-pairs; both forms share it and the kernel pass.

Also provides the pointwise principal-value fractional Laplacian used as
an independent cross-check, and weighted density integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .domain import Mesh1D
from .errors import ArgumentError, DimensionMismatchError, QuadratureError, ToleranceError
from .fields import VectorField, frac_constant
from .quadrature import (
    adaptive_panels,
    gauss_jacobi_01,
    gauss_legendre_01,
    power_integral,
)

__all__ = [
    "AssembledForms",
    "DeformationMatrix",
    "FracLapValue",
    "assemble_mass",
    "assemble_gagliardo",
    "assemble_forms",
    "assemble_deformation",
    "frac_laplacian_pointwise",
    "integrate_density",
]

_GL_SEP = 8  # near separated-pair tensor order
_GL_FAR = 4  # per-element order for far pairs
_FAR_RATIO = 16  # far pair: gap >= _FAR_RATIO * max(h_k, h_l)
_GL_TOUCH = 16  # tau direction on Duffy triangles
_GL_INNER = 8  # inner direction for identical deformation pairs
_GL_EXTERIOR = 16  # smooth exterior terms
_JACOBI_ORDER = 12  # singular directions
_SUBDIV_CAP = 16  # per-element halvings for separated pairs
_CHUNK = 16384  # near sub-pairs per chunk
_FAR_BYTES = 1 << 23  # point-kernel block per far row chunk


# ---------------------------------------------------------------------------
# mesh-derived tables
# ---------------------------------------------------------------------------

class _PairTables(NamedTuple):
    """Per-mesh geometry shared by every kernel and every s."""

    touching: np.ndarray  # left element k of each touching pair (k, k+1)
    near: dict  # subdivided near sub-pairs: kx0, kx1, ly0, ly1, k, l
    far_x: np.ndarray  # (E, _GL_FAR) far-rule points of each element
    counts: dict  # unordered element pairs by class


def _far_chunks(mesh):
    """Row chunks (k0, k1, far) of the upper triangle of element pairs.

    ``far[i, j]`` says whether (k0 + i, k0 + j) is a far pair; chunks are
    sized so one point-kernel block of rows k0:k1 by columns k0:E stays
    within _FAR_BYTES.
    """
    E = mesh.elem_h.size
    h = mesh.elem_h
    rows = max(1, _FAR_BYTES // (8 * _GL_FAR**2 * E))
    for k0 in range(0, E, rows):
        k1 = min(k0 + rows, E)
        gap = mesh.elem_x0[None, k0:] - mesh.elem_x1[k0:k1, None]
        far = gap >= _FAR_RATIO * np.maximum(h[k0:k1, None], h[None, k0:])
        yield k0, k1, far


@lru_cache(maxsize=32)
def _pair_tables(mesh: Mesh1D) -> _PairTables:
    """Classify all unordered element pairs; expand near subdivisions."""
    E = mesh.elem_h.size
    iv = mesh.elem_interval

    # touching: consecutive elements of the same interval
    k = np.arange(E - 1)
    touching = k[iv[k] == iv[k + 1]]

    # separated: every remaining unordered pair (k < l); near unless far
    near_k, near_l, n_far = [], [], 0
    for k0, k1, far in _far_chunks(mesh):
        kk = np.arange(k0, k1)[:, None]
        ll = np.arange(k0, E)[None, :]
        separated = (ll > kk) & ~((ll == kk + 1) & (iv[kk] == iv[ll]))
        ki, li = np.nonzero(separated & ~far)
        near_k.append(ki + k0)
        near_l.append(li + k0)
        n_far += int(np.count_nonzero(far))
    ku = np.concatenate(near_k)
    lu = np.concatenate(near_l)
    gap = mesh.elem_x0[lu] - mesh.elem_x1[ku]
    if np.any(gap <= 0):
        raise QuadratureError("element ordering broke; separated pair with gap <= 0")
    m1 = np.ceil(mesh.elem_h[ku] / gap).astype(int)
    m2 = np.ceil(mesh.elem_h[lu] / gap).astype(int)
    if np.any(m1 > _SUBDIV_CAP) or np.any(m2 > _SUBDIV_CAP):
        raise QuadratureError(
            f"separated-pair subdivision exceeds cap {_SUBDIV_CAP}; mesh too distorted"
        )
    counts = m1 * m2
    total = int(np.sum(counts))
    parent = np.repeat(np.arange(ku.size), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    r = np.arange(total) - np.repeat(offsets, counts)
    i1 = r // m2[parent]
    i2 = r % m2[parent]
    h1s = mesh.elem_h[ku][parent] / m1[parent]
    h2s = mesh.elem_h[lu][parent] / m2[parent]
    sx0 = mesh.elem_x0[ku][parent] + i1 * h1s
    sy0 = mesh.elem_x0[lu][parent] + i2 * h2s
    near = {
        "kx0": sx0,
        "kx1": sx0 + h1s,
        "ly0": sy0,
        "ly1": sy0 + h2s,
        "k": ku[parent],
        "l": lu[parent],
    }
    tf, _ = gauss_legendre_01(_GL_FAR)
    far_x = mesh.elem_x0[:, None] + mesh.elem_h[:, None] * tf[None, :]
    pair_counts = {
        "identical": E,
        "touching": int(touching.size),
        "near": int(ku.size),
        "near_subpairs": total,
        "far": n_far,
    }
    return _PairTables(touching, near, far_x, pair_counts)


def _element_hats(mesh, elems, pts):
    """P1 hat values of the two element dofs at points inside the element.

    ``pts`` has shape (P, G) with pts[p] inside element elems[p]; returns
    (P, 2, G): slot 0 the left-node hat, slot 1 the right-node hat.
    """
    x0 = mesh.elem_x0[elems][:, None]
    x1 = mesh.elem_x1[elems][:, None]
    h = mesh.elem_h[elems][:, None]
    return np.stack([(x1 - pts) / h, (pts - x0) / h], axis=1)


# ---------------------------------------------------------------------------
# mass matrix
# ---------------------------------------------------------------------------

def assemble_mass(mesh: Mesh1D) -> np.ndarray:
    """Exact P1 mass matrix on interior dofs (tridiagonal per interval)."""
    h = mesh.elem_h
    return _scatter(_sym_blocks(h / 3.0, h / 6.0), mesh.elem_dof, mesh.n_interior)


# ---------------------------------------------------------------------------
# local blocks and scatter
# ---------------------------------------------------------------------------

def _sym_blocks(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """(E, 2, 2) element blocks [[diag, off], [off, diag]]."""
    rows = (np.stack([diag, off], axis=1), np.stack([off, diag], axis=1))
    return np.stack(rows, axis=1)


def _scatter(local: np.ndarray, dofs: np.ndarray, K: int) -> np.ndarray:
    """Accumulate (P, D, D) local blocks into a K x K matrix (dof -1 dropped)."""
    P, D, _ = local.shape
    rows = np.broadcast_to(dofs[:, :, None], (P, D, D))
    cols = np.broadcast_to(dofs[:, None, :], (P, D, D))
    valid = (rows >= 0) & (cols >= 0)
    lin = np.where(valid, rows * K + cols, 0).ravel()
    w = np.where(valid, local, 0.0).ravel()
    return np.bincount(lin, weights=w, minlength=K * K).reshape(K, K)


# ---------------------------------------------------------------------------
# interaction (S x S) parts
# ---------------------------------------------------------------------------

def _identical_gagliardo(mesh, s, coeff) -> np.ndarray:
    K = mesh.n_interior
    h = mesh.elem_h
    w = 2.0 * h ** (3.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    base = coeff * w / h**2  # slope product magnitude 1/h^2
    return _scatter(_sym_blocks(base, -base), mesh.elem_dof, K)


def _touch_geometry(mesh, touching):
    """Shared-corner data for touching pairs (left element k, right k+1)."""
    h1 = mesh.elem_h[touching]
    h2 = mesh.elem_h[touching + 1]
    q = mesh.elem_x1[touching]
    # joint dofs: left element's left node, shared node, right element's right node
    dofs = np.stack(
        [
            mesh.elem_dof[touching, 0],
            mesh.elem_dof[touching, 1],
            mesh.elem_dof[touching + 1, 1],
        ],
        axis=1,
    )
    # Delta psi_d = ca_d * a + cb_d * b with a = q - x, b = y - q
    ca = np.stack([1.0 / h1, -1.0 / h1, np.zeros_like(h1)], axis=1)
    cb = np.stack([np.zeros_like(h2), 1.0 / h2, -1.0 / h2], axis=1)
    return h1, h2, q, dofs, ca, cb


def _touching_gagliardo(mesh, s, coeff, touching) -> np.ndarray:
    """Exact corner integrals via the Duffy split and power integrals."""
    K = mesh.n_interior
    if touching.size == 0:
        return np.zeros((K, K))
    h1, h2, q, dofs, ca, cb = _touch_geometry(mesh, touching)

    def p_tau(b: int, A, B):
        # int_0^1 tau^b (A + B tau)^(-1-2s) dtau by binomial expansion
        out = 0.0
        for k in range(b + 1):
            out = out + (
                math.comb(b, k)
                * (-A) ** (b - k)
                * power_integral(A, A + B, k - 1.0 - 2.0 * s)
            )
        return out / B ** (b + 1)

    pref = 1.0 / (3.0 - 2.0 * s)
    Ivals = {}
    for alpha, beta in ((2, 0), (1, 1), (0, 2)):
        Ivals[(alpha, beta)] = (
            pref
            * h1 ** (alpha + 1.0)
            * h2 ** (beta + 1.0)
            * (p_tau(beta, h1, h2) + p_tau(alpha, h2, h1))
        )
    # local_ab = coeff * sum over (alpha,beta) of coefficient * I(alpha,beta)
    caa = ca[:, :, None] * ca[:, None, :]
    cbb = cb[:, :, None] * cb[:, None, :]
    cab = ca[:, :, None] * cb[:, None, :] + cb[:, :, None] * ca[:, None, :]
    local = coeff * (
        caa * Ivals[(2, 0)][:, None, None]
        + cab * Ivals[(1, 1)][:, None, None]
        + cbb * Ivals[(0, 2)][:, None, None]
    )
    # each unordered pair appears once; (e,f) and (f,e) contribute equally
    return _scatter(2.0 * local, dofs, K)


def _identical_deformation(mesh, s, rfun) -> np.ndarray:
    """2 int_0^h u^{1-2s} [ g_a g_b int R(y+u, y) dy ] du per element."""
    K = mesh.n_interior
    h = mesh.elem_h
    tj, wj = gauss_jacobi_01(_JACOBI_ORDER, 1.0 - 2.0 * s)
    tg, wg = gauss_legendre_01(_GL_INNER)
    u = h[:, None] * tj[None, :]  # (E, J)
    span = h[:, None] - u  # length of the y-range
    y = mesh.elem_x0[:, None, None] + span[:, :, None] * tg[None, None, :]
    rv = rfun(y + u[:, :, None], y)  # (E, J, G)
    inner = span * (rv @ wg)  # (E, J)
    vals = 2.0 * h ** (2.0 - 2.0 * s) * (inner @ wj)  # (E,)
    base = vals / h**2
    return _scatter(_sym_blocks(base, -base), mesh.elem_dof, K)


def _touching_deformation(mesh, s, rfun, touching) -> np.ndarray:
    """Duffy triangles with Jacobi(2-2s) in the radial direction."""
    K = mesh.n_interior
    if touching.size == 0:
        return np.zeros((K, K))
    h1, h2, q, dofs, ca, cb = _touch_geometry(mesh, touching)
    xj, wjac = gauss_jacobi_01(_JACOBI_ORDER, 2.0 - 2.0 * s)
    tg, wg = gauss_legendre_01(_GL_TOUCH)

    # Duffy split of the corner square along x + y distance from the corner;
    # each triangle gives int xi^{2-2s} P_a(tau) P_b(tau) (.)^{-1-2s} h1 h2 R,
    # triangle 1 with (a, b) = (h1 xi, h2 xi tau), triangle 2 with
    # (h1 xi tau, h2 xi)
    one = np.ones_like(tg)
    total = 0.0
    for ta, tb in ((one, tg), (tg, one)):
        a = h1[:, None, None] * xj[None, :, None] * ta[None, None, :]
        b = h2[:, None, None] * xj[None, :, None] * tb[None, None, :]
        r = rfun(q[:, None, None] - a, q[:, None, None] + b)
        rs = np.einsum("i,tij->tj", wjac, r)  # (T, G)
        ha = h1[:, None] * ta[None, :]
        hb = h2[:, None] * tb[None, :]
        p = ca[:, :, None] * ha[:, None, :] + cb[:, :, None] * hb[:, None, :]
        w = (h1 * h2)[:, None] * (ha + hb) ** (-1.0 - 2.0 * s) * rs * wg[None, :]
        total = total + np.einsum("tj,taj,tbj->tab", w, p, p)
    return _scatter(2.0 * total, dofs, K)


def _separated(mesh, tables, points, kernel) -> np.ndarray:
    """Separated pairs: near sub-pairs by 8x8 GL, far pairs as dense blocks.

    ``points(x)`` returns the data the kernel reads at points x (x first);
    ``kernel(p, q)`` evaluates it on two broadcastable point sets.  The
    result is the separated part of the matrix, each unordered pair counted
    for both orders.
    """
    return _near(mesh, tables.near, points, kernel) + _far(mesh, tables, points, kernel)


def _near(mesh, near, points, kernel) -> np.ndarray:
    """Chunked 8x8 tensor GL over the subdivided near sub-pairs."""
    K = mesh.n_interior
    A = np.zeros((K, K))
    tg, wg = gauss_legendre_01(_GL_SEP)
    n = near["kx0"].size
    for lo in range(0, n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, n))
        kx0 = near["kx0"][sl]
        kx1 = near["kx1"][sl]
        ly0 = near["ly0"][sl]
        ly1 = near["ly1"][sl]
        ke = near["k"][sl]
        le = near["l"][sl]
        hx = (kx1 - kx0)[:, None]
        hy = (ly1 - ly0)[:, None]
        xs = kx0[:, None] + hx * tg[None, :]
        ys = ly0[:, None] + hy * tg[None, :]
        kv = kernel(points(xs[:, :, None]), points(ys[:, None, :]))
        kv *= (hx * wg[None, :])[:, :, None] * (hy * wg[None, :])[:, None, :]
        vx = _element_hats(mesh, ke, xs)  # (P, 2, G)
        vy = _element_hats(mesh, le, ys)
        row_w = kv.sum(axis=2)  # (P, G)
        col_w = kv.sum(axis=1)
        sxx = np.einsum("pai,pbi,pi->pab", vx, vx, row_w)
        syy = np.einsum("paj,pbj,pj->pab", vy, vy, col_w)
        cross = np.einsum("pai,pij,pbj->pab", vx, kv, vy)
        local = np.block(
            [[sxx, -cross], [-cross.transpose(0, 2, 1), syy]]
        )  # (P, 4, 4)
        dofs = np.concatenate([mesh.elem_dof[ke], mesh.elem_dof[le]], axis=1)
        # unordered pair counted once; double for (e,f)+(f,e)
        A += _scatter(2.0 * local, dofs, K)
    return A


def _far(mesh, tables, points, kernel) -> np.ndarray:
    """Far pairs from dense point-kernel blocks over the upper triangle.

    With W the kernel times the order-_GL_FAR weights between the points of
    far element pairs, the far part is 2 (Phi' diag(W 1) Phi - Phi' W Phi)
    for the hat values Phi.  Each row chunk holds the points of elements
    k0:k1 (element-major) against those of k0:E (point-major), and both
    terms are contracted per element with the reference hats (1 - t, t).
    """
    K = mesh.n_interior
    E = mesh.elem_h.size
    G = _GL_FAR
    h = mesh.elem_h
    tf, wf = gauss_legendre_01(G)
    hat = np.stack([1.0 - tf, tf], axis=1)  # (G, 2)
    wh = wf[:, None] * hat
    pts = points(tables.far_x)  # once per quadrature point, each (E, G)
    rsum = np.zeros((E, G))  # sum over far partners of h_l w_j k(x_i, y_j)
    # the slot-a dofs other than -1 are 0, 1, ..., K - 1 in element order,
    # so those of a run of elements fill a run of rows
    live = mesh.elem_dof >= 0
    before = np.cumsum(live, axis=0) - live
    cross = np.zeros((K, K))
    for k0, k1, far in _far_chunks(mesh):
        if not far.any():
            continue
        c, m = k1 - k0, E - k0
        with np.errstate(divide="ignore", invalid="ignore"):
            kv = kernel(
                tuple(p[k0:k1].reshape(-1, 1) for p in pts),
                tuple(p[k0:].T.reshape(1, -1) for p in pts),
            )  # (c G, G m): rows (k, i), columns (j, l)
        own = np.arange(c)[:, None]
        # a point against itself: not finite, and never in a far pair
        kv[own * G + np.arange(G), np.arange(G) * m + own] = 0.0
        wl = np.where(far, h[None, k0:], 0.0)
        wk = np.where(far, h[k0:k1, None], 0.0)
        col = (wh.T @ kv.reshape(c * G, G, m)).reshape(c, G * 2, m)
        row = (wf @ kv.reshape(c, G, G * m)).reshape(c, G, m)
        rsum[k0:k1] += (col @ wl[:, :, None]).reshape(c, G, 2).sum(axis=2)
        rsum[k0:] += np.einsum("kjl,kl->lj", row, wk)
        z = (wh.T @ col.reshape(c, G, 2 * m)).reshape(c, 2, 2, m)
        z *= (wk * h[None, k0:])[:, None, None, :]
        for a in (0, 1):
            vr = live[k0:k1, a]
            rows = slice(before[k0, a], before[k0, a] + vr.sum())
            for b in (0, 1):
                vq = live[k0:, b]
                cols = slice(before[k0, b], before[k0, b] + vq.sum())
                cross[rows, cols] += z[:, a, b][np.ix_(vr, vq)]
    cross += cross.T  # both orders of every far pair
    cross *= -2.0
    diag = h[:, None, None] * np.einsum("ei,ia,ib->eab", rsum * wf, hat, hat)
    cross += _scatter(2.0 * diag, mesh.elem_dof, K)
    return cross


def _distance_power(x, y, expo) -> np.ndarray:
    """|x - y|^expo, computed in place in one temporary."""
    d = x - y
    np.abs(d, out=d)
    return np.power(d, expo, out=d)


# ---------------------------------------------------------------------------
# exterior tails
# ---------------------------------------------------------------------------

def _anchors(mesh):
    """Finite endpoints of the complement components with orientation sigma.

    The complement of the domain decomposes into tails and gaps; the
    antiderivative evaluation at a component endpoint r carries sigma = +1
    (upper end) or -1 (lower end).  Left interval endpoints are upper ends
    of complement components and right endpoints are lower ends.
    """
    out = []
    for a, b in mesh.domain.intervals:
        out.append((a, +1.0))
        out.append((b, -1.0))
    return out


def _gagliardo_exterior(mesh, s, coeff) -> np.ndarray:
    """Exact 2 * int psi_a psi_b(x) rho(x) dx, rho(x) = int_{S^c} |x-y|^{-1-2s} dy."""
    K = mesh.n_interior
    A = np.zeros((K, K))
    x0 = mesh.elem_x0
    x1 = mesh.elem_x1
    h = mesh.elem_h
    # hat coefficients psi_d(x) = A_d + B_d x per element slot
    Acoef = np.stack([x1 / h, -x0 / h], axis=1)  # (E, 2)
    Bcoef = np.stack([-1.0 / h, 1.0 / h], axis=1)
    for r, sigma in _anchors(mesh):
        right = r >= x1  # anchor right of the element (or its right node)
        tlo = np.where(right, r - x1, x0 - r)
        thi = np.where(right, r - x0, x1 - r)
        own = np.isclose(tlo, 0.0, atol=0.0)  # exact node coincidence
        tlo = np.where(own, 0.0, tlo)
        P = Acoef + Bcoef * r  # psi_d at the anchor
        sgn = np.where(right, -1.0, 1.0)  # middle-term orientation
        # kappa: anchor term of rho = sigma * G(r, x),
        # G = -sign(r - x) |r - x|^{-2s} / (2s)
        kappa = sigma * np.where(right, -1.0, 1.0) / (2.0 * s)
        i0 = power_integral(np.where(own, thi, tlo), thi, -2.0 * s)
        i0 = np.where(own, 0.0, i0)  # P vanishes there; avoid 0 * inf
        i1 = power_integral(np.where(own, 1.0, tlo), thi, 1.0 - 2.0 * s)
        i1 = np.where(own, 0.0, i1)
        i2 = power_integral(tlo, thi, 2.0 - 2.0 * s)
        pp = P[:, :, None] * P[:, None, :]
        pb = P[:, :, None] * Bcoef[:, None, :] + Bcoef[:, :, None] * P[:, None, :]
        bb = Bcoef[:, :, None] * Bcoef[:, None, :]
        integral = (
            pp * i0[:, None, None]
            + sgn[:, None, None] * pb * i1[:, None, None]
            + bb * i2[:, None, None]
        )
        local = 2.0 * coeff * kappa[:, None, None] * integral
        A += _scatter(local, mesh.elem_dof, K)
    return A


def _deformation_exterior(mesh, X, s, c) -> np.ndarray:
    """2 * int psi_a psi_b(x) rho_X(x) dx with closed-form rho_X tails.

    For each complement-component endpoint r (orientation sigma):
      term = (c/2) [ div X(x) sigma G(r, x) + sigma (X(r) - X(x)) |r-x|^{-1-2s} ]
    with G(r, x) = -sign(r - x) |r - x|^{-2s} / (2s).  The element's own
    boundary node is singular and handled with a Jacobi(2-2s) rule after
    factoring psi_a psi_b = t^2 / h^2.
    """
    K = mesh.n_interior
    B = np.zeros((K, K))
    allanch = _anchors(mesh)
    anchor_x = np.array([r for r, _ in allanch])
    anchor_sig = np.array([sg for _, sg in allanch])
    anchor_X = X.at1(anchor_x)

    tg, wg = gauss_legendre_01(_GL_EXTERIOR)
    tjac, wjac = gauss_jacobi_01(_JACOBI_ORDER, 2.0 - 2.0 * s)

    x0 = mesh.elem_x0
    x1 = mesh.elem_x1
    h = mesh.elem_h
    E = h.size
    xs = x0[:, None] + h[:, None] * tg[None, :]  # (E, G)
    div_xs = X.div1(xs)
    X_xs = X.at1(xs)

    own_left = mesh.elem_dof[:, 0] == -1  # left node is a domain boundary point
    own_right = mesh.elem_dof[:, 1] == -1

    rho = np.zeros_like(xs)
    for r, sg, Xr in zip(anchor_x, anchor_sig, anchor_X):
        skip = (own_left & (x0 == r)) | (own_right & (x1 == r))
        d = r - xs
        ad = np.abs(d)
        g = -np.sign(d) * ad ** (-2.0 * s) / (2.0 * s)
        term = 0.5 * c * (div_xs * sg * g + sg * (Xr - X_xs) * ad ** (-1.0 - 2.0 * s))
        rho += np.where(skip[:, None], 0.0, term)
    vx = _element_hats(mesh, np.arange(E), xs)  # (E, 2, G)
    local = np.einsum("eag,ebg,eg->eab", vx, vx, rho * (h[:, None] * wg[None, :]))
    B += _scatter(2.0 * local, mesh.elem_dof, K)

    # singular own-anchor pieces on boundary elements
    for side, own in (("left", own_left), ("right", own_right)):
        idx = np.nonzero(own)[0]
        if idx.size == 0:
            continue
        hb = h[idx]
        if side == "left":
            r = x0[idx]
            xq = r[:, None] + hb[:, None] * tjac[None, :]  # t = x - r
            dq = (X.at1(xq) - X.at1(r)[:, None]) / (xq - r[:, None])
            live = mesh.elem_dof[idx, 1]
        else:
            r = x1[idx]
            xq = r[:, None] - hb[:, None] * tjac[None, :]  # t = r - x
            dq = (X.at1(r)[:, None] - X.at1(xq)) / (r[:, None] - xq)
            live = mesh.elem_dof[idx, 0]
        fac = 0.5 * c * (X.div1(xq) / (2.0 * s) - dq)
        vals = hb ** (3.0 - 2.0 * s) * (fac @ wjac) / hb**2
        B[live, live] += 2.0 * vals
    return B


# ---------------------------------------------------------------------------
# public assembly entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AssembledForms:
    """Mass and Gagliardo stiffness for one (mesh, s)."""

    mesh: Mesh1D
    s: float
    mass: np.ndarray = field(repr=False)
    stiffness: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True, eq=False)
class DeformationMatrix:
    """Matrix of E_X(phi_i, phi_j) for one (mesh, X, s)."""

    mesh: Mesh1D
    s: float
    X: VectorField
    matrix: np.ndarray = field(repr=False)


def _check_s(s: float) -> None:
    if not (0.0 < s < 1.0):
        raise ArgumentError(f"s must lie in (0, 1), got {s}")


def assemble_gagliardo(mesh: Mesh1D, s: float, include_exterior: bool = True) -> np.ndarray:
    """Stiffness A_ij = E(phi_i, phi_j) over the full plane.

    ``include_exterior=False`` drops the complement interactions (only for
    diagnostics; the true form requires them).
    """
    _check_s(s)
    c = frac_constant(1, s)
    coeff = 0.5 * c
    tables = _pair_tables(mesh)
    A = _identical_gagliardo(mesh, s, coeff)
    A += _touching_gagliardo(mesh, s, coeff, tables.touching)
    expo = -1.0 - 2.0 * s

    def kernel(p, q):
        return _distance_power(p[0], q[0], expo)

    A += coeff * _separated(mesh, tables, lambda x: (x,), kernel)
    if include_exterior:
        A += _gagliardo_exterior(mesh, s, coeff)
    return 0.5 * (A + A.T)


def assemble_forms(mesh: Mesh1D, s: float) -> AssembledForms:
    """Mass plus Gagliardo stiffness with quadrature metadata."""
    A = assemble_gagliardo(mesh, s)
    M = assemble_mass(mesh)
    meta = {
        "gl_near": _GL_SEP,
        "gl_far": _GL_FAR,
        "far_gap_ratio": _FAR_RATIO,
        "subdivision_cap": _SUBDIV_CAP,
        "gl_touch": _GL_TOUCH,
        "jacobi_order": _JACOBI_ORDER,
        "exterior": "closed-form",
        "pairs": dict(_pair_tables(mesh).counts),
    }
    return AssembledForms(mesh=mesh, s=s, mass=M, stiffness=A, meta=meta)


def assemble_deformation(mesh: Mesh1D, X: VectorField, s: float) -> DeformationMatrix:
    """Deformation matrix B_ij = E_X(phi_i, phi_j) (no extra 1/2)."""
    _check_s(s)
    if X.dim != 1:
        raise DimensionMismatchError("deformation assembly needs a 1D field")
    lo, hi = mesh.domain.hull
    if not (X.box[0][0] <= lo and X.box[0][1] >= hi):
        raise ArgumentError("field box must cover the mesh hull")
    if not np.isfinite(X.lip):
        raise ArgumentError("field needs a finite Lipschitz bound on its box")
    c = frac_constant(1, s)
    expo = -1.0 - 2.0 * s

    def points(x):
        return x, X.at1(x), X.div1(x)

    def smooth(p, q):
        # R(x,y) = |x-y|^{1+2s} K_X(x,y) without the factor c/2
        (x, fx, dx), (y, fy, dy) = p, q
        dq = fx - fy
        dq /= x - y
        dq *= 1.0 + 2.0 * s
        r = dx + dy
        r -= dq
        return r

    def rfun(x, y):
        return 0.5 * c * smooth(points(x), points(y))

    def kernel(p, q):
        d = _distance_power(p[0], q[0], expo)
        d *= smooth(p, q)
        return d

    tables = _pair_tables(mesh)
    B = _identical_deformation(mesh, s, rfun)
    B += _touching_deformation(mesh, s, rfun, tables.touching)
    B += 0.5 * c * _separated(mesh, tables, points, kernel)
    B += _deformation_exterior(mesh, X, s, c)
    B = 0.5 * (B + B.T)
    return DeformationMatrix(mesh=mesh, s=s, X=X, matrix=B)


# ---------------------------------------------------------------------------
# pointwise fractional Laplacian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FracLapValue:
    value: float
    error: float


def frac_laplacian_pointwise(
    phi: Callable,
    s: float,
    x: float,
    R: Optional[float] = None,
    *,
    domain=None,
    tol: Optional[float] = None,
    tail_sup: Optional[float] = None,
) -> FracLapValue:
    """(-Delta)^s phi(x) by the symmetric principal-value integral.

    ``phi`` must evaluate vectorized on numpy arrays.  The integral is cut
    at radius R (default 10x the domain diameter when ``domain`` is given);
    beyond R the 2 phi(x) term integrates exactly and the dropped part is
    bounded by 2 sup_{|y|>R} |phi| c_{1,s} / (2s R^{2s}), included in the
    error estimate (``tail_sup`` overrides the sampled bound, e.g. 0 for
    compactly supported phi).

    Raises ToleranceError when ``tol`` is given and the estimate exceeds it.
    """
    _check_s(s)
    if R is None:
        if domain is None:
            raise ArgumentError("need R or a domain to size the cutoff")
        R = 10.0 * domain.diameter
    if R <= 0:
        raise ArgumentError("R must be positive")
    c = frac_constant(1, s)
    phi_x = float(phi(np.asarray([x]))[0])

    def second_diff(y):
        return 2.0 * phi_x - phi(x + y) - phi(x - y)

    # near part: int_0^{y1} (psi / y^2) y^{1-2s} dy with a Jacobi rule
    y1 = min(0.5, 0.25 * R)
    est = []
    for order in (16, 24):
        tj, wj = gauss_jacobi_01(order, 1.0 - 2.0 * s)
        yv = y1 * tj
        est.append(y1 ** (2.0 - 2.0 * s) * float(np.dot(second_diff(yv) / yv**2, wj)))
    near = est[1]
    near_err = abs(est[1] - est[0])

    # far part: adaptive panels, geometric growth capped at width 4 so a
    # unit-frequency oscillation stays resolved; that makes the panel count
    # linear in R, so refuse cutoffs that would not fit in memory
    if R > 1e6:
        raise ArgumentError(
            "cutoff R too large for the oscillation-safe panel layout; "
            "reduce R and pass tail_sup for the remainder"
        )
    edges = [y1]
    while edges[-1] < R:
        step = min(max(edges[-1], y1), 4.0)
        edges.append(min(edges[-1] + step, R))
    panels = list(zip(edges[:-1], edges[1:]))
    quad_tol = (0.25 * tol / c) if tol is not None else 1e-10 * (1.0 + abs(phi_x))

    def integrand(y):
        return second_diff(y) * y ** (-1.0 - 2.0 * s)

    far, far_err = adaptive_panels(integrand, panels, quad_tol)

    # exact constant tail plus remainder bound
    tail_term = c * phi_x * R ** (-2.0 * s) / s
    if tail_sup is None:
        ys = R * np.geomspace(1.0, 8.0, 64)
        tail_sup = float(max(np.max(np.abs(phi(x + ys))), np.max(np.abs(phi(x - ys)))))
    tail_err = c * tail_sup * R ** (-2.0 * s) / s

    value = c * (near + far) + tail_term
    # embedded estimates can under-report slightly; widen before comparing
    error = 2.0 * c * (near_err + far_err) + tail_err
    if tol is not None and error > tol:
        raise ToleranceError(
            f"estimated error {error:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return FracLapValue(value=value, error=error)


# ---------------------------------------------------------------------------
# density integrals
# ---------------------------------------------------------------------------

def _full_nodal(mesh: Mesh1D, nodal) -> tuple[np.ndarray, ...]:
    """Normalize nodal data to per-interval arrays including endpoints."""
    if isinstance(nodal, (tuple, list)) and all(
        isinstance(v, np.ndarray) for v in nodal
    ):
        vals = tuple(np.asarray(v, float) for v in nodal)
        if tuple(v.size for v in vals) != tuple(len(nd) for nd in mesh.nodes):
            raise ArgumentError("per-interval nodal arrays do not match the mesh")
        return vals
    arr = np.asarray(nodal, dtype=float)
    if arr.ndim != 1:
        raise ArgumentError("nodal data must be 1D")
    if arr.size == mesh.n_interior:
        return mesh.interior_to_full(arr)
    total = sum(len(nd) for nd in mesh.nodes)
    if arr.size == total:
        out = []
        pos = 0
        for nd in mesh.nodes:
            out.append(arr[pos : pos + len(nd)])
            pos += len(nd)
        return tuple(out)
    raise ArgumentError(
        f"nodal size {arr.size} matches neither interior ({mesh.n_interior}) "
        f"nor full ({total}) node count"
    )


def integrate_density(
    mesh: Mesh1D,
    nodal,
    weight: Optional[Callable] = None,
    transform: Optional[Callable] = None,
) -> float:
    """int transform(u_h(x)) * weight(x) dx with per-element order-8 GL.

    ``nodal`` may be interior dof values, full per-interval nodal arrays,
    or a flat full nodal vector.  ``transform`` maps interpolant values
    pointwise (default identity); ``weight`` is a function of x (default 1).
    """
    vals = _full_nodal(mesh, nodal)
    ul = np.concatenate([v[:-1] for v in vals])
    ur = np.concatenate([v[1:] for v in vals])
    tg, wg = gauss_legendre_01(8)
    uq = ul[:, None] + (ur - ul)[:, None] * tg[None, :]
    if transform is not None:
        uq = transform(uq)
    if weight is not None:
        xq = mesh.elem_x0[:, None] + mesh.elem_h[:, None] * tg[None, :]
        uq = uq * weight(xq)
    return float(np.sum(mesh.elem_h * (uq @ wg)))
