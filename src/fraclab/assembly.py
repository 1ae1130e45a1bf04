"""Full-plane assembly of the fractional bilinear forms on P1 meshes.

The Gagliardo form E(v, w) and the deformation form E_X(v, w) are double
integrals over R x R.  Test functions vanish outside the mesh hull, so
the assembly splits into interactions between mesh elements (singular
along the diagonal) and exterior tail weights.  The deformation kernel is
the Gagliardo kernel |x - y|^{-1-2s} times a smooth factor R, and the
Gagliardo form is the case of a constant R, so both forms share every
element-pair rule.  Element-pair classes:

* identical  -- Gauss-Jacobi(1-2s) x GL in the difference variable;
* touching   -- Duffy split of the corner singularity: Jacobi(2-2s)
  radially, GL in the angular variable after an exponential map that
  keeps it smooth at any size ratio of the two elements;
* near       -- separated, gap < 16 max(h_k, h_l): elements are halved
  until the gap is at least the element size (cap -> QuadratureError),
  and each sub-pair takes tensor Gauss-Legendre graded by its gap in
  sub-element sizes (Sauter & Schwab 2011, ch. 5): 8 points a direction
  below 4, 6 on [4, 8), 5 from 8.  The hats are affine on a sub-element,
  so the rule is contracted against the monomials 1, t, t^2 in two matmuls;
* far        -- gap >= 16 max(h_k, h_l): order-4 Gauss points per element.
  A cluster tree halves contiguous element ranges down to 32 elements;
  a pair of clusters at distance d with both diameters <= d and
  d >= 16 max h holds only far pairs, and there the kernel is interpolated
  at 24 Chebyshev nodes per cluster (Fong & Darve 2009), so the block is
  D_I C D_J' with C the kernel between the nodes.  The interpolant is
  checked against the kernel at 5 x 5 probe points per block; a block it
  misses by more than 1e-13 of the kernel's size (a field that varies on
  a shorter scale than the clusters) is dense point-kernel blocks, as are
  the remaining leaf pairs, with the far pairs masked in.

One cached geometry pass per mesh (``_pair_tables``) builds all that only
the mesh determines, for both forms at every s: the cluster tree and its
blocks, the pair classes, the near sub-pairs grouped by order, the far-rule
points and hats, where each run of elements' dofs starts, and the Chebyshev
data of the clusters (``_clusters``).  One driver (``_assemble``) builds
both forms from R on those tables: E is R = 1, E_X passes its field's R.
Every part of a form adds into one K x K matrix, each write symmetric (a
local block adds its symmetric part, a far block itself and its transpose),
so the matrix is symmetric bit for bit as it is built.  The forms differ
only in R and in their exterior tails: a closed form for E, Gauss rules for
E_X.  The assemblers return that matrix.

Mirror halves: on a mesh symmetric under x -> -x with an even number E of
elements, element E - 1 - k is the image of element k, and the tables hold
one mirror half of the pairs: the pair (k, l), k <= l, weighs 1 for
k + l < E - 1 and 1/2 for k + l = E - 1, and is skipped beyond; an
admissible cluster pair weighs 1, or 1/2 when it is its own image, in a
cluster tree and partition closed under the mirror (``_partition``).  For
X~(x) = -X(-x), R_X(-x, -y) = R_X~(x, y), so the images of the pairs add
J S_X~ J to their sum S_X, J the reversal of the dof order: E_X runs the
pairs again with X~ into the reversed view of its matrix, so a pair that
is its own image weighs 1/2 in each pass.  For E, X~ = X, so S becomes
S + J S J, which is mirror-symmetric bit for bit.  The exterior tail then
covers every element.

Also provides the pointwise principal-value fractional Laplacian used as
an independent cross-check, and weighted density integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .domain import Mesh1D
from .errors import (
    ArgumentError, DegenerateError, DimensionMismatchError, QuadratureError, ToleranceError
)
from .fields import VectorField, frac_constant
from .quadrature import (
    _row_dot,
    adaptive_panels,
    gauss_jacobi_01,
    gauss_legendre_01,
    power_integral,
)

__all__ = [
    "FracLapValue",
    "assemble_mass",
    "assemble_gagliardo",
    "assemble_deformation",
    "frac_laplacian_pointwise",
    "integrate_density",
]

# near sub-pair tensor order by r = gap / max(hx, hy): rows (end, order),
# each for r below its end and at or above the previous row's
_NEAR_ORDER = ((4.0, 8), (8.0, 6), (np.inf, 5))
# Z of ``_near``: index of each entry's moment in the flattened [t_j^b, t_i^a]
# table, and its sign, for b = (1, t_i, -1, -t_j)
_NEAR_MOMENT = np.array([[0, 1, 0, 3], [1, 2, 1, 4], [0, 1, 0, 3], [3, 4, 3, 6]])
_NEAR_SIGN = np.array([[1, 1, -1, -1], [1, 1, -1, -1], [-1, -1, 1, 1], [-1, -1, 1, 1]])
_GL_FAR = 4  # per-element order for far pairs
_FAR_RATIO = 16  # far pair: gap >= _FAR_RATIO * max(h_k, h_l)
_LEAF = 32  # elements per leaf cluster, at most
_ETA = 1.0  # admissible cluster pair: max diameter <= _ETA * distance
_CHEB = 24  # Chebyshev nodes per cluster of an admissible pair
_CHEB_TOL = 1e-13  # interpolation error allowed at the probes, relative to the kernel
# probes of the interpolation error: extrema of T_p for p = _CHEB (a multiple
# of 4), where the error peaks
_PROBE = np.cos(np.arange(5) * np.pi / 4)
_GL_TOUCH = 16  # tau direction on Duffy triangles
_GL_INNER = 8  # inner direction for identical pairs
_GL_EXTERIOR = 16  # smooth exterior terms
_JACOBI_ORDER = 12  # singular directions
_SUBDIV_CAP = 16  # per-element halvings for separated pairs
_CHUNK = 1 << 20  # near kernel values per chunk
_PANEL = 128  # rows of a panel of the in-place mirror completion


# ---------------------------------------------------------------------------
# mesh-derived tables
# ---------------------------------------------------------------------------

class _Clusters(NamedTuple):
    """Chebyshev interpolation on the clusters of the admissible pairs.

    With S_I(x) the cardinal functions of cluster I's Chebyshev nodes (the
    polynomials of degree _CHEB - 1 that are 1 at one node and 0 at the
    others), k(x, y) ~ S_I(x) C S_J(y)' for C the kernel between the nodes
    of I and of J.  S_I(x)_m = 1/p + (2/p) sum_{k>=1} T_k(t) T_k(t_m) at
    the nodes t_m of [-1, 1] (Fong & Darve 2009), t the point x mapped
    from the hull of I; S is never stored, only its sums below.
    """

    nodes: np.ndarray  # (C, _CHEB) Chebyshev nodes on the hull of each cluster
    Tn: np.ndarray  # (_CHEB, _CHEB) T_k(t_m)
    probes: np.ndarray  # (C, _PROBE.size) the points _PROBE on the hull of each cluster
    Sp: np.ndarray  # (_PROBE.size, _CHEB) S at the points _PROBE
    moments: np.ndarray  # (C, _CHEB) sum over each cluster's far points of h w S
    D: dict  # cluster -> (its dof slice, (dofs, _CHEB) sum of h w hat S into them)
    elems: np.ndarray  # elements of the clusters in admissible pairs, cluster-major
    owner: np.ndarray  # cluster of each of those rows
    t: np.ndarray  # (elems.size, _GL_FAR) their far points mapped to [-1, 1]


def _chebyshev_series(t):
    """T_0(t), T_1(t), ... up to T_{_CHEB-1}(t), by the three-term recurrence."""
    prev, cur = np.ones_like(t), t
    yield prev
    yield cur
    for _ in range(2, _CHEB):
        prev, cur = cur, 2.0 * t * cur - prev
        yield cur


class _PairTables(NamedTuple):
    """Per-mesh geometry shared by both forms and every s: the element pairs
    an assembly integrates, each with its weight; every pair with weight 1,
    or one mirror half (``mirrored``)."""

    touching: np.ndarray  # left element k of each touching pair (k, k+1)
    near: dict  # tensor order -> its near sub-pairs: kx0, kx1, ly0, ly1, k, l, w
    far_x: np.ndarray  # (E, _GL_FAR) far-rule points of each element
    wh: np.ndarray  # (_GL_FAR, 2) far-rule weights times the reference hats (1 - t, t)
    before: np.ndarray  # (E, 2) first slot-a dof of the elements from k on
    counts: dict  # unordered element pairs integrated, by class
    leaves: list  # dense leaf blocks (k0, k1, l0, l1, far mask, pair weights), k0 <= l0
    blocks: np.ndarray  # (B, 2) admissible pairs (I, J) of clusters, I left of J
    spans: np.ndarray  # (C, 2) element range [e0, e1) of each cluster
    clusters: Optional[_Clusters]  # None without admissible pairs
    identical: np.ndarray  # elements k of the identical pairs (k, k), each of weight 1
    touching_w: np.ndarray  # the touching pairs' weights
    block_w: np.ndarray  # (B,) the admissible pairs' weights
    mirrored: bool  # one mirror half: the pairs' images enter through J, the dof reversal


def _partition(mesh, mirror=False):
    """Cluster tree of contiguous element ranges and its block partition.

    Clusters halve element ranges down to at most _LEAF elements.  A pair
    of disjoint clusters I < J is admissible when every element pair in it
    is far, dist(I, J) >= _FAR_RATIO max h over I and J, and the clusters
    are small against their distance, max(diam I, diam J) <= _ETA dist;
    otherwise the larger cluster is split.  Pairs of leaves that are not
    admissible, and each leaf with itself, are dense blocks.  Returns the
    cluster spans (C, 2), the dense leaf pairs, the admissible pairs and
    their weights.

    ``mirror`` (a mirror-symmetric mesh of an even number E of elements)
    makes both closed under the image k -> E - 1 - k of elements.  Splits
    right of the centre round up, so the image [E - e1, E - e0) of every
    cluster is a cluster.  Each split is decided on the pair of an image
    pair that lies left of the centre, and the other pair is left out: it
    is that pair's mirror image, and so is all it would split into.  A
    pair that is its own image splits both clusters, into an image pair
    and two pairs that are their own images.  So the pairs returned are one
    mirror half: all their element pairs (k, l) have k + l < E - 1, except
    in the pairs that are their own images.  Admissible pairs weigh 1, or
    1/2 when they are their own images; without ``mirror`` every pair is
    returned with weight 1.
    """
    x0, x1, h = mesh.elem_x0, mesh.elem_x1, mesh.elem_h
    E = h.size
    spans, kids = [], []

    def build(e0, e1):
        c = len(spans)
        spans.append((e0, e1))
        kids.append(None)
        if e1 - e0 > _LEAF:
            mid = (e0 + e1 + (mirror and e0 + e1 > E)) // 2
            kids[c] = (build(e0, mid), build(mid, e1))
        return c

    build(0, E)
    lo = [x0[e0] for e0, _ in spans]
    hi = [x1[e1 - 1] for _, e1 in spans]
    hmax = [float(np.max(h[e0:e1])) for e0, e1 in spans]
    dense, admissible, weight = [], [], []

    def far_apart(i, j):
        dist = lo[j] - hi[i]
        diam = max(hi[i] - lo[i], hi[j] - lo[j])
        return dist >= _FAR_RATIO * max(hmax[i], hmax[j]) and diam <= _ETA * dist

    def split(i, j):
        if i == j:
            if kids[i] is None:
                dense.append((i, i))
            else:
                a, b = kids[i]
                split(a, a)
                split(a, b)
                split(b, b)
            return
        if far_apart(i, j):
            admissible.append((i, j))
            weight.append(1.0)
        elif kids[i] is None and kids[j] is None:
            dense.append((i, j))
        elif kids[j] is None or (kids[i] is not None and hi[i] - lo[i] >= hi[j] - lo[j]):
            for a in kids[i]:
                split(a, j)
        else:
            for b in kids[j]:
                split(i, b)

    def split_own_image(i, j):
        # (i, j) is its own image: i left of the centre, j its image
        if far_apart(i, j):
            admissible.append((i, j))
            weight.append(0.5)
        elif kids[i] is None:
            dense.append((i, j))
        else:
            (a, b), (mb, ma) = kids[i], kids[j]
            split(a, mb)  # (b, ma) is its image
            split_own_image(a, ma)
            split_own_image(b, mb)

    if not mirror:
        split(0, 0)
    elif kids[0] is None:
        dense.append((0, 0))
    else:
        a, b = kids[0]
        split(a, a)  # (b, b) is its image
        split_own_image(a, b)
    blocks = np.array(admissible, dtype=int).reshape(-1, 2)
    return np.array(spans), dense, blocks, np.array(weight)


def _clusters(mesh, spans, blocks, far_x, wh, before) -> _Clusters:
    """Chebyshev nodes, moments and dof bases of the clusters in admissible pairs."""
    p = _CHEB
    lo = mesh.elem_x0[spans[:, 0]]
    hi = mesh.elem_x1[spans[:, 1] - 1]
    theta = (np.arange(p) + 0.5) * np.pi / p
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * np.cos(theta)[None, :]
    probes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _PROBE[None, :]
    Tn = np.cos(np.arange(p)[:, None] * theta[None, :])
    Sp = (2.0 / p) * (np.stack(list(_chebyshev_series(_PROBE)), axis=1) @ Tn) - 1.0 / p
    used = np.unique(blocks)
    sizes = spans[used, 1] - spans[used, 0]
    elems = np.concatenate([np.arange(e0, e1) for e0, e1 in spans[used]])
    owner = np.repeat(used, sizes)
    t = (2.0 * far_x[elems] - (lo + hi)[owner, None]) / (hi - lo)[owner, None]
    # h w hat(t_i) T_k summed over each element's points, then S from T
    slots = np.stack([Tk @ wh for Tk in _chebyshev_series(t)], axis=2)  # (rows, 2, p)
    slots = (2.0 / p) * (slots @ Tn) - (1.0 / p) * slots[:, :, :1]
    slots *= mesh.elem_h[elems, None, None]
    moments = np.zeros_like(nodes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    moments[used] = np.add.reduceat(slots.sum(axis=1), starts)
    D = {}
    for c, r0, n in zip(used, starts, sizes):
        dofs = mesh.elem_dof[elems[r0 : r0 + n]]
        rows = slice(before[spans[c, 0], 0], dofs.max() + 1)
        Dc = np.zeros((rows.stop - rows.start, p))
        for a in (0, 1):
            live = dofs[:, a] >= 0
            Dc[dofs[live, a] - rows.start] += slots[r0 : r0 + n][live, a]
        D[int(c)] = (rows, Dc)
    return _Clusters(nodes, Tn, probes, Sp, moments, D, elems, owner, t)


def _near_subpairs(mesh, ku, lu, w) -> dict:
    """The near pairs (ku, lu), ku < lu, of weights w as sub-pairs grouped
    by tensor order.

    Both elements are halved until the gap is at least their size, and each
    sub-pair takes its order from ``_NEAR_ORDER``.  Returns order -> kx0, kx1,
    ly0, ly1 (the sub-elements), k, l (their elements) and w (their weight).
    """
    x0, x1, h = mesh.elem_x0, mesh.elem_x1, mesh.elem_h
    gap = x0[lu] - x1[ku]
    if np.any(gap <= 0):
        raise QuadratureError("element ordering broke; separated pair with gap <= 0")
    r1, r2 = h[ku] / gap, h[lu] / gap
    # ceil(r) > _SUBDIV_CAP just when r > _SUBDIV_CAP; compared before the
    # cast, so a huge ratio never reaches the integers
    if np.any(r1 > _SUBDIV_CAP) or np.any(r2 > _SUBDIV_CAP):
        raise QuadratureError(
            f"separated-pair subdivision exceeds cap {_SUBDIV_CAP}; mesh too distorted"
        )
    m1 = np.ceil(r1).astype(int)
    m2 = np.ceil(r2).astype(int)
    counts = m1 * m2
    total = int(np.sum(counts))
    parent = np.repeat(np.arange(ku.size), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    r = np.arange(total) - np.repeat(offsets, counts)
    i1 = r // m2[parent]
    i2 = r % m2[parent]
    h1s = h[ku][parent] / m1[parent]
    h2s = h[lu][parent] / m2[parent]
    sx0 = x0[ku][parent] + i1 * h1s
    sy0 = x0[lu][parent] + i2 * h2s
    sub = {
        "kx0": sx0,
        "kx1": sx0 + h1s,
        "ly0": sy0,
        "ly1": sy0 + h2s,
        "k": ku[parent],
        "l": lu[parent],
        "w": w[parent],
    }
    # each sub-pair's tensor order, from its gap in sub-element sizes
    ratio = (sub["ly0"] - sub["kx1"]) / np.maximum(h1s, h2s)
    band = np.searchsorted([end for end, _ in _NEAR_ORDER], ratio, side="right")
    near = {}
    for row, (_, order) in enumerate(_NEAR_ORDER):
        take = np.flatnonzero(band == row)
        if take.size:
            near[order] = {key: v[take] for key, v in sub.items()}
    return near


@lru_cache(maxsize=32)
def _pair_tables(mesh: Mesh1D) -> _PairTables:
    """The element pairs both forms integrate: one mirror half when the
    mesh is mirror-symmetric with an even number of elements, every pair
    with weight 1 otherwise.

    An odd number has a middle element that is its own image, and no tree
    of halved element ranges is closed under the mirror there.
    """
    return _tables(mesh, not mesh.elem_h.size % 2 and mesh.mirror_symmetric)


def _tables(mesh: Mesh1D, mirror: bool) -> _PairTables:
    """Classify the unordered element pairs through the cluster tree.

    Admissible cluster pairs hold only far pairs, so the near pairs are the
    separated pairs of the dense leaf blocks that are not far; they are
    expanded into sub-pairs by ``_near_subpairs``.  With ``mirror`` the
    element pair (k, l), k <= l, weighs 1 for k + l < E - 1, 1/2 for
    k + l = E - 1 (its own image) and 0 beyond, where it is left out: the
    mirror image (E - 1 - l, E - 1 - k) of such a pair gives its block.
    Admissible pairs take their weights from ``_partition``.
    """
    E = mesh.elem_h.size
    x0, x1, h, iv = mesh.elem_x0, mesh.elem_x1, mesh.elem_h, mesh.elem_interval

    def weight(ksum):
        if not mirror:
            return np.ones(np.shape(ksum))
        return np.where(ksum < E - 1, 1.0, np.where(ksum == E - 1, 0.5, 0.0))

    # touching: consecutive elements of the same interval
    k = np.arange(E - 1)
    touching = k[iv[k] == iv[k + 1]]
    # a mirror half keeps the pairs (k, k) with 2k < E - 1, each of weight 1:
    # 2k = E - 1 never holds for an even E
    identical = np.arange(E // 2 if mirror else E)
    touching_w = weight(2 * touching + 1)
    touching, touching_w = touching[touching_w > 0], touching_w[touching_w > 0]

    spans, dense, blocks, block_w = _partition(mesh, mirror)
    leaves, near_k, near_l, near_w = [], [], [], []
    sizes = spans[:, 1] - spans[:, 0]
    n_far = int(np.sum(sizes[blocks[:, 0]] * sizes[blocks[:, 1]]))
    for i, j in dense:
        (k0, k1), (l0, l1) = spans[i], spans[j]
        kk = np.arange(k0, k1)[:, None]
        ll = np.arange(l0, l1)[None, :]
        w = weight(kk + ll)
        gap = x0[None, l0:l1] - x1[k0:k1, None]
        far = (gap >= _FAR_RATIO * np.maximum(h[k0:k1, None], h[None, l0:l1])) & (w > 0)
        separated = (ll > kk) & ~((ll == kk + 1) & (iv[kk] == iv[ll])) & (w > 0)
        ki, li = np.nonzero(separated & ~far)
        near_k.append(ki + k0)
        near_l.append(li + l0)
        near_w.append(w[ki, li])
        n_far += int(np.count_nonzero(far))
        # only the leaves that are their own images mix weights
        leaves.append((k0, k1, l0, l1, far, 1.0 if np.all(w == 1.0) else w))
    ku = np.concatenate(near_k)
    lu = np.concatenate(near_l)
    near = _near_subpairs(mesh, ku, lu, np.concatenate(near_w))
    tf, wf = gauss_legendre_01(_GL_FAR)
    far_x = x0[:, None] + h[:, None] * tf[None, :]
    wh = wf[:, None] * np.stack([1.0 - tf, tf], axis=1)
    # the slot-a dofs other than -1 are 0, 1, ..., K - 1 in element order,
    # so those of a run of elements fill a run of rows
    live = mesh.elem_dof >= 0
    before = np.cumsum(live, axis=0) - live
    clusters = _clusters(mesh, spans, blocks, far_x, wh, before) if blocks.size else None
    pair_counts = {
        "identical": int(identical.size),
        "touching": int(touching.size),
        "near": int(ku.size),
        "near_subpairs": sum(g["k"].size for g in near.values()),
        "near_by_order": {order: int(g["k"].size) for order, g in near.items()},
        "far": n_far,
    }
    return _PairTables(
        touching, near, far_x, wh, before, pair_counts, leaves, blocks, spans, clusters,
        identical, touching_w, block_w, mirror,
    )


# ---------------------------------------------------------------------------
# mass matrix
# ---------------------------------------------------------------------------

def assemble_mass(mesh: Mesh1D):
    """Exact P1 mass matrix on interior dofs, a tridiagonal ``scipy.sparse``
    CSR array (``.toarray()`` gives a dense copy)."""
    from scipy.sparse import coo_array  # `import fraclab.cli` loads no scipy.sparse

    h = mesh.elem_h
    K = mesh.n_interior
    rows, cols, valid = _block_index(mesh.elem_dof)
    local = _sym_blocks(h / 3.0, h / 6.0)[valid]
    return coo_array((local, (rows[valid], cols[valid])), shape=(K, K)).tocsr()


# ---------------------------------------------------------------------------
# local blocks and scatter
# ---------------------------------------------------------------------------

def _sym_blocks(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """(E, 2, 2) element blocks [[diag, off], [off, diag]]."""
    rows = (np.stack([diag, off], axis=1), np.stack([off, diag], axis=1))
    return np.stack(rows, axis=1)


def _block_index(dofs: np.ndarray):
    """The (P, D, D) row and column dofs of the local blocks of the (P, D)
    element ``dofs``, and the mask of the entries without a dof -1."""
    P, D = dofs.shape
    rows = np.broadcast_to(dofs[:, :, None], (P, D, D))
    cols = np.broadcast_to(dofs[:, None, :], (P, D, D))
    return rows, cols, (rows >= 0) & (cols >= 0)


def _scatter_add(out: np.ndarray, local: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Add the symmetric parts (L + L') / 2 of the (P, D, D) local blocks L
    into the C-contiguous K x K ``out`` (dof -1 dropped), in block order;
    returns ``out``.  A symmetric block adds its own bits."""
    rows, cols, valid = _block_index(dofs)
    sym = local + local.transpose(0, 2, 1)
    sym *= 0.5
    np.add.at(out.reshape(-1), rows[valid] * out.shape[1] + cols[valid], sym[valid])
    return out


def _add_both(out: np.ndarray, rows: slice, cols: slice, block: np.ndarray) -> None:
    """Add ``block`` at out[rows, cols] and its transpose at out[cols, rows]."""
    out[rows, cols] += block
    out[cols, rows] += block.T


# ---------------------------------------------------------------------------
# interaction (S x S) parts
# ---------------------------------------------------------------------------

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


def _identical(out, mesh, s, rfun, elems) -> None:
    """Add 2 int_0^h u^{1-2s} [ g_a g_b int R(y+u, y) dy ] du for the
    elements ``elems``."""
    h = mesh.elem_h[elems]
    tj, wj = gauss_jacobi_01(_JACOBI_ORDER, 1.0 - 2.0 * s)
    tg, wg = gauss_legendre_01(_GL_INNER)
    u = h[:, None] * tj[None, :]  # (E, J)
    span = h[:, None] - u  # length of the y-range
    y = mesh.elem_x0[elems][:, None, None] + span[:, :, None] * tg[None, None, :]
    rv = rfun(y + u[:, :, None], y)  # (E, J, G)
    inner = span * (rv @ wg)  # (E, J)
    # g_a g_b = -+1/h^2, taken as h^(-2s) in place of h^(2-2s) / h^2,
    # which overflows for huge h
    base = 2.0 * h ** (-2.0 * s) * (inner @ wj)  # (E,)
    _scatter_add(out, _sym_blocks(base, -base), mesh.elem_dof[elems])


def _touching(out, mesh, s, rfun, touching, weight) -> None:
    """Add the Duffy triangles: Jacobi(2-2s) radially, GL in an exponential
    map of tau, for the pairs ``touching``, times their ``weight``."""
    if touching.size == 0:
        return
    h1, h2, q, dofs, ca, cb = _touch_geometry(mesh, touching)
    xj, wjac = gauss_jacobi_01(_JACOBI_ORDER, 2.0 - 2.0 * s)
    tg, wg = gauss_legendre_01(_GL_TOUCH)

    # Duffy split of the corner square along x + y distance from the corner;
    # each triangle gives int xi^{2-2s} P_a(tau) P_b(tau) (.)^{-1-2s} h1 h2 R,
    # triangle 1 with (a, b) = (h1 xi, h2 xi tau), triangle 2 with
    # (h1 xi tau, h2 xi).  There (.) = h (1 + r tau), singular at
    # tau = -1/r, which nears [0, 1] as the size ratio r grows on graded
    # meshes; tau = ((1 + r)^t - 1) / r makes it (1 + r)^t, smooth in t.
    total = 0.0
    for ratio, first in ((h2 / h1, True), (h1 / h2, False)):
        lr = np.log1p(ratio)[:, None]
        tau = np.expm1(lr * tg[None, :]) / ratio[:, None]  # (T, G)
        wt = lr * np.exp(lr * tg[None, :]) / ratio[:, None] * wg[None, :]
        one = np.ones_like(tau)
        ta, tb = (one, tau) if first else (tau, one)
        a = h1[:, None, None] * xj[None, :, None] * ta[:, None, :]
        b = h2[:, None, None] * xj[None, :, None] * tb[:, None, :]
        r = rfun(q[:, None, None] - a, q[:, None, None] + b)
        rs = np.einsum("i,tij->tj", wjac, r)  # (T, G)
        ha = h1[:, None] * ta
        hb = h2[:, None] * tb
        p = ca[:, :, None] * ha[:, None, :] + cb[:, :, None] * hb[:, None, :]
        w = (h1 * h2)[:, None] * (ha + hb) ** (-1.0 - 2.0 * s) * rs * wt
        total = total + np.einsum("tj,taj,tbj->tab", w, p, p)
    _scatter_add(out, (2.0 * weight)[:, None, None] * total, dofs)


def _near(out, mesh, near, points, kernel) -> None:
    """Add tensor GL over the subdivided near sub-pairs, one order at a time.

    On a sub-pair the parent elements' hats are affine in the local
    coordinates: (1, t) times C on the x side, times D on the y side.  The
    4 x 4 block is then Q Z Q' for Q = diag(C, D) and Z the moments
    sum k w_i w_j b b' of b = (1, t_i, -1, -t_j).  All of Z comes from the
    3 x 3 moments sum k w_i w_j t_i^a t_j^b, that is two matmuls of the
    kernel values against W = diag(w) [1, t, t^2].
    """
    x0, x1, h = mesh.elem_x0, mesh.elem_x1, mesh.elem_h
    for G, sub in near.items():
        tg, wg = gauss_legendre_01(G)
        W = wg[:, None] * tg[:, None] ** np.arange(3)  # (G, 3)
        n = sub["k"].size
        step = max(1, _CHUNK // (G * G))
        for lo in range(0, n, step):
            sl = slice(lo, min(lo + step, n))
            kx0, ly0, ke, le, w = (sub[key][sl] for key in ("kx0", "ly0", "k", "l", "w"))
            hx = sub["kx1"][sl] - kx0
            hy = sub["ly1"][sl] - ly0
            P = ke.size
            xs = kx0[:, None] + hx[:, None] * tg
            ys = ly0[:, None] + hy[:, None] * tg
            kv = kernel(points(xs[:, :, None]), points(ys[:, None, :]))  # (P, G, G)
            m = (kv.reshape(P * G, G) @ W).reshape(P, G, 3)  # [p, i, b]: t_j^b
            m = (m.transpose(0, 2, 1).reshape(P * 3, G) @ W).reshape(P, 9)  # [p, 3b + a]: t_i^a
            m *= (2.0 * hx * hy * w)[:, None]  # unordered pair counted once: (e,f)+(f,e)
            Z = m[:, _NEAR_MOMENT] * _NEAR_SIGN
            Q = np.zeros((P, 4, 4))
            for i, (e, a, ha) in zip((0, 2), ((ke, kx0, hx), (le, ly0, hy))):
                # the element's left and right hats at a + ha t
                Q[:, i, i] = (x1[e] - a) / h[e]
                Q[:, i + 1, i] = (a - x0[e]) / h[e]
                Q[:, i + 1, i + 1] = ha / h[e]
                Q[:, i, i + 1] = -Q[:, i + 1, i + 1]
            local = Q @ Z @ Q.transpose(0, 2, 1)
            dofs = np.concatenate([mesh.elem_dof[ke], mesh.elem_dof[le]], axis=1)
            _scatter_add(out, local, dofs)


def _interpolate(cl, blocks, points, kernel, scale):
    """The kernel C between the Chebyshev nodes of each admissible pair
    (B, _CHEB, _CHEB), and whether S_I C S_J' meets the kernel at the probes
    of I and J to _CHEB_TOL times the largest ``scale`` there (B,)."""
    I, J = blocks[:, 0], blocks[:, 1]
    nodes = points(cl.nodes)
    C = kernel(tuple(v[I][:, :, None] for v in nodes), tuple(v[J][:, None, :] for v in nodes))
    probes = points(cl.probes)
    at = (tuple(v[I][:, :, None] for v in probes), tuple(v[J][:, None, :] for v in probes))
    miss = kernel(*at)
    size = np.abs(miss) if scale is None else scale(*at)
    miss -= cl.Sp @ C @ cl.Sp.T
    return C, np.max(np.abs(miss), axis=(1, 2)) <= _CHEB_TOL * np.max(size, axis=(1, 2))


def _far(out, mesh, tables, points, kernel, scale=None) -> None:
    """Add the far pairs of ``tables`` into ``out``, by their cluster tree.

    With W the kernel times the order-_GL_FAR weights between the points of
    far element pairs, the far part is 2 (Phi' diag(W 1) Phi - Phi' W Phi)
    for the hat values Phi.  W is a dense point-kernel block on each leaf
    block (far pairs masked in), and D_I C D_J' on each admissible cluster
    pair, C the kernel between the Chebyshev nodes of I and J.  A pair
    whose interpolant misses the kernel at the probes (``_interpolate``; a
    field that varies on a scale shorter than the clusters) is dense blocks
    of at most _LEAF elements a side instead.  Each pair or block enters
    times its weight in ``tables``.  The second term of a far pair k < l
    adds its block and the block's transpose (``_add_both``), so every
    write leaves ``out`` as symmetric as it was.
    """
    E = mesh.elem_h.size
    G = _GL_FAR
    h = mesh.elem_h
    tf, wf = gauss_legendre_01(G)
    hat = np.stack([1.0 - tf, tf], axis=1)  # (G, 2)
    wh, before = tables.wh, tables.before
    live = mesh.elem_dof >= 0
    rsum = np.zeros((E, G))  # sum over far partners of h_l w_j k(x_i, y_j)

    pts = points(tables.far_x)  # once per quadrature point, each (E, G)

    def dense(k0, k1, l0, l1, far, w):
        # rows hold the points of elements k0:k1 (element-major), columns
        # those of l0:l1 (point-major); both terms are contracted per
        # element with the reference hats (1 - t, t)
        c, m = k1 - k0, l1 - l0
        with np.errstate(divide="ignore", invalid="ignore"):
            kv = kernel(
                tuple(p[k0:k1].reshape(-1, 1) for p in pts),
                tuple(p[l0:l1].T.reshape(1, -1) for p in pts),
            )  # (c G, G m): rows (k, i), columns (j, l)
        if k0 == l0:
            # a point against itself: not finite, and never in a far pair
            own = np.arange(c)[:, None]
            kv[own * G + np.arange(G), np.arange(G) * m + own] = 0.0
        wl = np.where(far, w * h[None, l0:l1], 0.0)
        wk = np.where(far, w * h[k0:k1, None], 0.0)
        col = (wh.T @ kv.reshape(c * G, G, m)).reshape(c, G * 2, m)
        row = (wf @ kv.reshape(c, G, G * m)).reshape(c, G, m)
        rsum[k0:k1] += (col @ wl[:, :, None]).reshape(c, G, 2).sum(axis=2)
        rsum[l0:l1] += np.einsum("kjl,kl->lj", row, wk)
        z = (wh.T @ col.reshape(c, G, 2 * m)).reshape(c, 2, 2, m)
        z *= (-2.0 * wk * h[None, l0:l1])[:, None, None, :]
        for a in (0, 1):
            vr = live[k0:k1, a]
            za = z[:, a] if vr.all() else z[vr, a]
            rows = slice(before[k0, a], before[k0, a] + za.shape[0])
            for b in (0, 1):
                vq = live[l0:l1, b]
                zab = za[:, b] if vq.all() else za[:, b][:, vq]
                _add_both(out, rows, slice(before[l0, b], before[l0, b] + zab.shape[1]), zab)

    for k0, k1, l0, l1, far, w in tables.leaves:
        if far.any():
            dense(k0, k1, l0, l1, far, w)

    # admissible blocks: k(x, y) ~ S_I(x) C S_J(y)'
    blocks, cl, block_w = tables.blocks, tables.clusters, tables.block_w
    if blocks.size:
        C, ok = _interpolate(cl, blocks, points, kernel, scale)
        for (i, j), w in zip(blocks[~ok], block_w[~ok]):
            (k0, k1), (l0, l1) = tables.spans[i], tables.spans[j]
            for a in range(k0, k1, _LEAF):
                for b in range(l0, l1, _LEAF):
                    a1, b1 = min(a + _LEAF, k1), min(b + _LEAF, l1)
                    dense(a, a1, b, b1, np.ones((a1 - a, b1 - b), dtype=bool), w)
        blocks, C = blocks[ok], C[ok]
        C *= block_w[ok, None, None]
        I, J = blocks[:, 0], blocks[:, 1]
        u = np.zeros_like(cl.moments)  # rsum at each cluster's nodes
        np.add.at(u, I, np.einsum("bmn,bn->bm", C, cl.moments[J]))
        np.add.at(u, J, np.einsum("bmn,bm->bn", C, cl.moments[I]))
        # u . S(x) = sum_k a_k T_k(t) - sum_m u_m / p at each cluster's far points
        a = (2.0 / _CHEB) * (u @ cl.Tn.T)[cl.owner]
        pot = np.full(cl.t.shape, -1.0 / _CHEB) * u.sum(axis=1)[cl.owner, None]
        for k, Tk in enumerate(_chebyshev_series(cl.t)):
            pot += a[:, k, None] * Tk
        np.add.at(rsum, cl.elems, pot)
        C *= -2.0
        for (i, j), Cb in zip(blocks, C):
            (rows, Di), (cols, Dj) = cl.D[i], cl.D[j]
            _add_both(out, rows, cols, (Di @ Cb) @ Dj.T)

    diag = h[:, None, None] * np.einsum("ei,ia,ib->eab", rsum * wf, hat, hat)
    _scatter_add(out, 2.0 * diag, mesh.elem_dof)


def _mirror_complete(out: np.ndarray) -> None:
    """out += J out J in place, J the reversal of the dof order, in row
    panels with no K x K temporary.  Entry (i, j) and its image
    (K-1-i, K-1-j) take the same two terms, so the sum is J-symmetric bit
    for bit."""
    K = out.shape[0]
    half = K // 2
    for a in range(0, half, _PANEL):
        b = min(a + _PANEL, half)
        top = out[a:b]
        top += out[K - b : K - a][::-1, ::-1]
        out[K - b : K - a] = top[::-1, ::-1]
    if K % 2:  # the middle row is its own image
        mid = out[half]
        mid += mid[::-1].copy()


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


def _gagliardo_exterior(out, mesh, s, coeff) -> None:
    """Add the exact 2 * int psi_a psi_b(x) rho(x) dx, rho(x) = int_{S^c} |x-y|^{-1-2s} dy.

    Its moment of order 2 - 2s overflows first on the hulls (-1e104, 1e104)
    at s = 0.01, (-1e110, 1e110) at s = 0.1 and (-1e124, 1e124) at s = 1/4
    (n = 8, beta = 1); such a hull raises DegenerateError.
    """
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
        with np.errstate(over="ignore", invalid="ignore"):
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
        if not np.all(np.isfinite(local)):
            raise DegenerateError(
                f"domain hull {mesh.domain.hull} is too wide for the Gagliardo form "
                f"at s = {s:g}: its exterior tail overflows"
            )
        _scatter_add(out, local, mesh.elem_dof)


def _exterior(out, mesh, s, c, a, b) -> None:
    """Add 2 int psi_i psi_j(x) rho(x) dx, rho = sum over the anchors r of

      rho_r(x) = -(c/2) sigma sign(r - x) |r - x|^{-2s} (a(x)/(2s) - q(x)),

    q = (b(r) - b(x)) / (r - x): the kernel integrated over the complement,
    for E_X with (a, b) = (X', X), for E with (1, 0).  An element away from
    r takes _GL_EXTERIOR points in t with |r - x| = g (1 + h/g)^t, g its
    distance to r, which keeps |r - x|^{-2s} smooth at any h/g; distances
    and hat values come from the map, so neither cancels, and q takes r - x
    from the rounded x, so a linear b gives its slope exactly.  The element
    ending at r takes a Jacobi(2-2s) rule after factoring psi psi = t^2/h^2.
    """
    x0, x1, h = mesh.elem_x0, mesh.elem_x1, mesh.elem_h
    tg, wg = gauss_legendre_01(_GL_EXTERIOR)
    tj, wj = gauss_jacobi_01(_JACOBI_ORDER, 2.0 - 2.0 * s)
    anchors = _anchors(mesh)
    b_r = b(np.array([r for r, _ in anchors]))
    local = np.zeros((h.size, 2, 2))
    for (r, sigma), br in zip(anchors, b_r):
        left = r <= x0  # r left of the element, whose near end is then x0
        sgn = np.where(left, -1.0, 1.0)  # sign(r - x)
        g = np.where(left, x0 - r, r - x1)
        e = np.flatnonzero(g > 0.0)
        lg = np.log1p(h[e] / g[e])[:, None]
        d = g[e, None] * np.exp(lg * tg)  # |r - x|
        u = g[e, None] * np.expm1(lg * tg)  # x's distance from the near end
        x = np.where(left[e, None], x0[e, None] + u, x1[e, None] - u)
        q = (br - b(x)) / (r - x)
        rho = (-0.5 * c * sigma) * sgn[e, None] * d ** (-2.0 * s) * (a(x) / (2.0 * s) - q)
        hats = np.stack([h[e, None] - u, u], axis=1) / h[e, None, None]  # near end first
        flip = ~left[e]
        hats[flip] = hats[flip, ::-1]
        local[e] += np.einsum("eag,ebg,eg->eab", hats, hats, rho * (wg * d * lg))
        # the element ending at r: its one live hat is t/h, t = |x - r|
        for k in np.flatnonzero(g == 0.0):
            t = h[k] * tj
            x = r - sgn[k] * t
            q = (br - b(x)) / (r - x)
            f = (-0.5 * c * sigma * sgn[k]) * (a(x) / (2.0 * s) - q)
            live = 1 if left[k] else 0
            local[k, live, live] += h[k] ** (1.0 - 2.0 * s) * (f @ wj)
    _scatter_add(out, 2.0 * local, mesh.elem_dof)


# ---------------------------------------------------------------------------
# public assembly entry points
# ---------------------------------------------------------------------------

def _assemble(mesh, s, points, smooth, scale, tail, image=None) -> np.ndarray:
    """The matrix of the form with kernel (c/2) R(x, y) |x - y|^{-1-2s}.

    ``points(x)`` returns the data R reads at points x (x first), and
    ``smooth(p, q)`` evaluates R on two broadcastable point sets.
    ``scale(p, q)`` is the size of R's terms, which sets the rounding
    scale of the far pass's interpolation check (None: |R|).
    ``tail(out, c)`` adds the form's exterior tail.  ``image(x)`` returns
    the data of X~(x) = -X(-x), or is None for a mirror-invariant R.  The
    pairs come from ``_pair_tables``; on a mirror half their images are
    added as the module docstring says, before the tail.  Every part adds
    symmetric blocks, so the matrix is symmetric bit for bit as it is built.
    """
    c = frac_constant(1, s)
    coeff = 0.5 * c
    expo = -1.0 - 2.0 * s
    tables = _pair_tables(mesh)

    def kernel(p, q):
        d = _distance_power(p[0], q[0], expo)
        d *= smooth(p, q)
        d *= coeff
        return d

    def size(p, q):
        return coeff * scale(p, q) * _distance_power(p[0], q[0], expo)

    def pairs(out, points):
        def rfun(x, y):
            # a full array even for a constant R: einsum sums a stride-0
            # operand in another order
            r = coeff * smooth(points(x), points(y))
            return np.ascontiguousarray(np.broadcast_to(r, np.broadcast(x, y).shape))

        _far(out, mesh, tables, points, kernel, None if scale is None else size)
        _near(out, mesh, tables.near, points, kernel)
        _identical(out, mesh, s, rfun, tables.identical)
        _touching(out, mesh, s, rfun, tables.touching, tables.touching_w)

    out = np.zeros((mesh.n_interior,) * 2)
    pairs(out, points)
    if tables.mirrored and image is None:
        _mirror_complete(out)
    elif tables.mirrored:
        pairs(out[::-1, ::-1], image)
    tail(out, c)
    return out


def assemble_gagliardo(mesh: Mesh1D, s: float) -> np.ndarray:
    """Stiffness A_ij = E(phi_i, phi_j) over the full plane."""

    def tail(out, c):
        _gagliardo_exterior(out, mesh, s, 0.5 * c)

    return _assemble(mesh, s, lambda x: (x,), lambda p, q: 1.0, None, tail)


def assemble_deformation(mesh: Mesh1D, X: VectorField, s: float) -> np.ndarray:
    """Deformation matrix B_ij = E_X(phi_i, phi_j) (no extra 1/2)."""
    frac_constant(1, s)  # ArgumentError for s outside (0, 1), before the field
    if X.dim != 1:
        raise DimensionMismatchError("deformation assembly needs a 1D field")
    lo, hi = mesh.domain.hull
    if not (X.box[0][0] <= lo and X.box[0][1] >= hi):
        raise ArgumentError("field box must cover the mesh hull")
    if not np.isfinite(X.lip):
        raise ArgumentError("field needs a finite Lipschitz bound on its box")

    def points(x):
        return x, X.at1(x), X.div1(x)

    def image(x):
        # X~(x) = -X(-x), X~'(x) = X'(-x)
        return x, -X.at1(-x), X.div1(-x)

    def smooth(p, q):
        # R(x, y) = X'(x) + X'(y) - (1 + 2s) (X(x) - X(y)) / (x - y)
        (x, fx, dx), (y, fy, dy) = p, q
        dq = fx - fy
        dq /= x - y
        dq *= 1.0 + 2.0 * s
        r = dx + dy
        r -= dq
        return r

    def scale(p, q):
        # every term of R in size: R cancels to rounding where X is nearly
        # quadratic at s near 1/2, or flat near a point
        (x, fx, dx), (y, fy, dy) = p, q
        return np.abs(dx) + np.abs(dy) + (1.0 + 2.0 * s) * (np.abs(fx) + np.abs(fy)) / np.abs(x - y)

    def tail(out, c):
        _exterior(out, mesh, s, c, X.div1, X.at1)

    return _assemble(mesh, s, points, smooth, scale, tail, image)


# ---------------------------------------------------------------------------
# pointwise fractional Laplacian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FracLapValue:
    """Operator values and error estimates: floats for a scalar x, else arrays."""

    value: float | np.ndarray
    error: float | np.ndarray


_PV_BYTES = 1 << 23  # initial far-panel rows of the points evaluated together
_PV_ROW_BYTES = 8 * 31  # one far-panel row: group index and 30 nodes


def frac_laplacian_pointwise(
    phi: Callable,
    s: float,
    x,
    R,
    *,
    tol: Optional[float] = None,
    tail_sup=None,
) -> FracLapValue:
    """(-Delta)^s phi(x) by the symmetric principal-value integral.

    ``phi`` must evaluate vectorized on numpy arrays.  ``x`` is a point or
    an array of points; ``R`` and ``tail_sup`` broadcast against it.  The
    integral is cut at radius R; beyond R the 2 phi(x) term integrates
    exactly and the dropped part is estimated by
    2 sup_{|y|>R} |phi| c_{1,s} / (2s R^{2s}), included in the error
    estimate (``tail_sup`` overrides the sampled sup, e.g. 0 for compactly
    supported phi).

    Every point gets its own Jacobi near part, its own far panels and its
    own tolerance; the far panels of all points are refined in one grouped
    adaptive pass, in batches of at most _PV_BYTES of nodes.  A point's
    value and error do not depend on the other points of the call.

    Raises ToleranceError when ``tol`` is given and the estimate of a point
    exceeds it (the first such point, in order).
    """
    c = frac_constant(1, s)
    x_arr, R_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(R, dtype=float))
    if np.any(R_arr <= 0):
        raise ArgumentError("R must be positive")
    # the far panels grow geometrically, capped at width 4 so a
    # unit-frequency oscillation stays resolved; that makes the panel count
    # linear in R, so refuse cutoffs that would not fit in memory
    if np.any(R_arr > 1e6):
        raise ArgumentError(
            "cutoff R too large for the oscillation-safe panel layout; "
            "reduce R and pass tail_sup for the remainder"
        )
    xs, Rs = x_arr.ravel(), R_arr.ravel()
    sup = None
    if tail_sup is not None:
        sup = np.broadcast_to(np.asarray(tail_sup, dtype=float), x_arr.shape).ravel()
    # unscaled far edges 1/2, 1, 2, 4, 8, 12, ...; a cutoff R >= 2 keeps
    # those below R, a smaller one keeps R/4, R/2 (the layout scaled by R/2)
    ratio = np.where(Rs >= 2.0, Rs, 2.0)
    top = float(np.max(ratio, initial=2.0))
    edges = np.concatenate([[0.5, 1.0, 2.0], np.arange(4.0, top + 8.0, 4.0)])
    n_far = np.searchsorted(edges, ratio, side="left")
    per_batch = max(1, _PV_BYTES // (_PV_ROW_BYTES * int(np.max(n_far, initial=1))))
    value = np.empty(xs.size)
    error = np.empty(xs.size)
    for lo in range(0, xs.size, per_batch):
        part = slice(lo, lo + per_batch)
        value[part], error[part] = _pv_batch(
            phi, s, c, xs[part], Rs[part], n_far[part], edges, tol,
            None if sup is None else sup[part],
        )
        if tol is not None and np.any(error[part] > tol):
            bad = float(error[part][np.argmax(error[part] > tol)])
            raise ToleranceError(
                f"estimated error {bad:.3e} exceeds requested tolerance {tol:.3e}"
            )
    if x_arr.ndim == 0:
        return FracLapValue(value=float(value[0]), error=float(error[0]))
    return FracLapValue(value=value.reshape(x_arr.shape), error=error.reshape(x_arr.shape))


def _pv_batch(phi, s, c, x, R, n_far, edges, tol, tail_sup):
    """Values and error estimates of the principal-value integral at points x."""
    phi_x = np.asarray(phi(x), dtype=float)

    def second_diff(xc, px, y):
        return 2.0 * px - phi(xc + y) - phi(xc - y)

    # near part: int_0^{y1} (psi / y^2) y^{1-2s} dy with a Jacobi rule
    y1 = np.minimum(0.5, 0.25 * R)
    est = []
    for order in (16, 24):
        tj, wj = gauss_jacobi_01(order, 1.0 - 2.0 * s)
        yv = y1[:, None] * tj[None, :]
        psi = second_diff(x[:, None], phi_x[:, None], yv) / yv**2
        est.append(y1 ** (2.0 - 2.0 * s) * _row_dot(psi, wj))
    near = est[1]
    near_err = np.abs(est[1] - est[0])

    # far part: the panels of point i are 2 y1 * edges[k] for k < n_far[i],
    # closed by R[i]; one grouped adaptive pass refines all of them
    group = np.repeat(np.arange(x.size), n_far)
    k = np.arange(group.size) - np.repeat(np.cumsum(n_far) - n_far, n_far)
    scale = 2.0 * y1[group]
    a = scale * edges[k]
    b = np.where(k + 1 < n_far[group], scale * edges[k + 1], R[group])
    quad_tol = (0.25 * tol / c) if tol is not None else 1e-10 * (1.0 + np.abs(phi_x))

    def integrand(rows):
        g = rows[:, 0].astype(np.intp)
        y = rows[:, 1:]
        return second_diff(x[g, None], phi_x[g, None], y) * y ** (-1.0 - 2.0 * s)

    far, far_err = adaptive_panels(integrand, np.stack([a, b], axis=1), quad_tol, groups=group)

    # exact constant tail plus remainder estimate
    tail_term = c * phi_x * R ** (-2.0 * s) / s
    if tail_sup is None:
        ys = R[:, None] * np.geomspace(1.0, 8.0, 64)[None, :]
        tail_sup = np.maximum(
            np.max(np.abs(phi(x[:, None] + ys)), axis=1),
            np.max(np.abs(phi(x[:, None] - ys)), axis=1),
        )
    tail_err = c * tail_sup * R ** (-2.0 * s) / s

    value = c * (near + far) + tail_term
    # embedded estimates can under-report slightly; widen before comparing
    error = 2.0 * c * (near_err + far_err) + tail_err
    return value, error


# ---------------------------------------------------------------------------
# density integrals
# ---------------------------------------------------------------------------

def integrate_density(
    mesh: Mesh1D,
    nodal,
    weight: Optional[Callable] = None,
    transform: Optional[Callable] = None,
) -> float:
    """int transform(u_h(x)) * weight(x) dx with per-element order-8 GL.

    ``nodal`` holds the values at the interior dofs (u_h is zero at the
    boundary nodes).  ``transform`` maps interpolant values pointwise
    (default identity); ``weight`` is a function of x (default 1).
    """
    ul, ur = mesh.element_ends(nodal).T
    tg, wg = gauss_legendre_01(8)
    uq = ul[:, None] + (ur - ul)[:, None] * tg[None, :]
    if transform is not None:
        uq = transform(uq)
    if weight is not None:
        xq = mesh.elem_x0[:, None] + mesh.elem_h[:, None] * tg[None, :]
        uq = uq * weight(xq)
    return float(np.sum(mesh.elem_h * (uq @ wg)))
