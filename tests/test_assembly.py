"""Mass/stiffness/deformation assembly and pointwise-operator tests.

The stiffness oracle values come from three independent routes: the
closed-form single-hat energy (helpers.hat_energy_exact), scipy dblquad
entries frozen in helpers.DBLQUAD_STIFFNESS, and the analytic scaling law.
The identical- and touching-pair rules shared by both forms are checked
against closed-form integrals of the Gagliardo kernel, and the
cluster-tree far pass against the dense all-pairs far pass it replaced.
``assembly._tables(mesh, False)``, every element pair with weight 1, is the
all-pairs reference of the mirror halves that ``_pair_tables`` gives
mirror-symmetric meshes.
"""

import math

import numpy as np
import pytest

import fraclab as fl
from fraclab import assembly
from fraclab.assembly import _pair_tables, _scatter_add, _sym_blocks, _tables, _touch_geometry
from fraclab.errors import (
    ArgumentError,
    DegenerateError,
    QuadratureError,
    ToleranceError,
)
from fraclab.quadrature import gauss_legendre_01, power_integral
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
    M = fl.assemble_mass(uniform_mesh(-1.0, 1.0, 8)).toarray()
    assert np.allclose(np.diag(M), 2.0 * h / 3.0, rtol=1e-14)
    assert np.allclose(np.diag(M, 1), h / 6.0, rtol=1e-14)
    assert np.allclose(M, M.T)


def test_mass_single_interior_node():
    M = fl.assemble_mass(uniform_mesh(0.0, 1.0, 2)).toarray()
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_mass_block_diagonal_two_intervals():
    d = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
    M = fl.assemble_mass(fl.make_mesh(d, 4, beta=1.0)).toarray()
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
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 16)
    A, M = fl.assemble_gagliardo(mesh, 0.5), fl.assemble_mass(mesh)
    assert np.linalg.norm(A - A.T) <= 1e-12 * np.linalg.norm(A)
    assert np.min(np.linalg.eigvalsh(A)) > 0
    assert np.min(np.linalg.eigvalsh(M.toarray())) > 0


def test_stiffness_exterior_tail_matters():
    mesh = uniform_mesh(0.0, 1.0, 2)
    full = fl.assemble_gagliardo(mesh, 0.5)[0, 0]
    tail = np.zeros((1, 1))
    assembly._gagliardo_exterior(tail, mesh, 0.5, 0.5 * fl.frac_constant(1, 0.5))
    tail = tail[0, 0]
    assert abs(tail) > 0.01 * abs(full)


def test_stiffness_tiny_gap_refuses_loudly():
    d = fl.make_domain([(-1.0, -1e-9), (1e-9, 1.0)])
    with pytest.raises(QuadratureError):
        fl.assemble_gagliardo(fl.make_mesh(d, 8, beta=1.0), 0.5)


def test_near_pair_table_stays_linear_in_elements():
    # far pairs are assembled as dense blocks, so the cached table lists
    # only the near sub-pairs: O(E), not one row per separated pair
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 1024, 2.0)
    near = _pair_tables(mesh).near
    assert sum(sub["k"].size for sub in near.values()) < 32 * mesh.elem_h.size


def test_pair_tables_count_every_pair_once():
    mesh = fl.make_mesh(fl.make_domain([(-2.0, -1.0), (1.0, 2.0)]), 64, 2.0)
    pairs = _tables(mesh, False).counts
    E = mesh.elem_h.size
    assert pairs["identical"] == E
    assert pairs["touching"] == E - 2  # one fewer per interval
    assert pairs["near"] > 0 and pairs["far"] > 0
    assert pairs["near_subpairs"] >= pairs["near"]
    total = pairs["identical"] + pairs["touching"] + pairs["near"] + pairs["far"]
    assert total == E * (E + 1) // 2


@pytest.mark.parametrize(
    "intervals, n, beta",
    [([(-1.0, 1.0)], 1024, 2.0), ([(-2.0, -1.0), (1.0, 2.0)], 64, 3.0), ([(0.0, 1.0)], 64, 1.0)],
)
def test_near_subpairs_by_order_follow_their_gap_bands(intervals, n, beta):
    # gap / max(hx, hy) below 4 takes 8 points a direction, [4, 8) 6, from 8 on 5
    bands = {8: (0.0, 4.0), 6: (4.0, 8.0), 5: (8.0, np.inf)}
    tables = _pair_tables(fl.make_mesh(fl.make_domain(intervals), n, beta))
    by_order = tables.counts["near_by_order"]
    assert sum(by_order.values()) == tables.counts["near_subpairs"]
    assert by_order.keys() == tables.near.keys() <= bands.keys()
    for order, sub in tables.near.items():
        assert sub["k"].size == by_order[order] > 0
        gap = sub["ly0"] - sub["kx1"]
        ratio = gap / np.maximum(sub["kx1"] - sub["kx0"], sub["ly1"] - sub["ly0"])
        lo, hi = bands[order]
        assert np.all((ratio >= lo) & (ratio < hi)), order


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
            fl.assemble_deformation(mesh, Xf, s) for Xf in X
        ]

    got = assembled()
    # the identical, touching and exterior parts, with no separated pairs
    monkeypatch.setattr(assembly, "_far", lambda *args: None)
    monkeypatch.setattr(assembly, "_near", lambda *args: None)
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
# far pairs against the dense all-pairs far pass
# ---------------------------------------------------------------------------

_GL_FAR = 4
_FAR_RATIO = 16
_FAR_BYTES = 1 << 23


def _scatter(local, dofs, K):
    return _scatter_add(np.zeros((K, K)), local, dofs)


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


FAR_DOMAINS = {
    1: [(-1.0, 1.0)],
    2: [(-2.0, -1.0), (1.0, 2.0)],
    3: [(-1.0, -0.4), (-0.2, 0.2), (0.4, 1.0)],
    "3 wide": [(-3.0, -2.0), (-0.5, 0.5), (1.0, 2.5)],
}


def _deformation_kernel(s, at, div):
    """(points, kernel, scale) of E_X for X = ``at`` with derivative ``div``."""
    expo = -1.0 - 2.0 * s

    def kernel(p, q):
        (x, fx, dx), (y, fy, dy) = p, q
        r = dx + dy - (1.0 + 2.0 * s) * (fx - fy) / (x - y)
        return r * np.abs(x - y) ** expo

    def scale(p, q):
        (x, fx, dx), (y, fy, dy) = p, q
        r = np.abs(dx) + np.abs(dy) + (1.0 + 2.0 * s) * (np.abs(fx) + np.abs(fy)) / np.abs(x - y)
        return r * np.abs(x - y) ** expo

    return (lambda x: (x, at(x), div(x))), kernel, scale


def _far_kernels(s):
    """(points, kernel, scale) of the Gagliardo kernel and of three
    deformation kernels: two fields smooth on the clusters, and tanh(20 x),
    which varies on a shorter scale than most of them."""
    expo = -1.0 - 2.0 * s
    out = [(lambda x: (x,), lambda p, q: np.abs(p[0] - q[0]) ** expo, None)]
    for e in ("x + 0.25*x^2", "x/(1 + x^2)"):
        X = fl.make_field([e], box=BOX1)
        out.append(_deformation_kernel(s, X.at1, X.div1))
    out.append(_deformation_kernel(s, lambda x: np.tanh(20.0 * x), lambda x: 20.0 / np.cosh(20.0 * x) ** 2))
    return out


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("domain", list(FAR_DOMAINS))
def test_far_pass_matches_dense_far_pass(domain, beta):
    # the cluster-tree pass interpolates the kernel on admissible cluster
    # pairs; it must match the dense order-4 pass it replaced entry by entry,
    # relative to the Gagliardo entry (the deformation kernels are that
    # kernel times a factor of size about 1, which can change sign); for
    # tanh(20 x) it does so through its dense fallback
    intervals = FAR_DOMAINS[domain]
    mesh = fl.make_mesh(fl.make_domain(intervals), 160 // len(intervals), beta)
    tables = _tables(mesh, False)
    assert tables.blocks.size > 0 and len(tables.leaves) > 1
    for s in (0.01, 0.25, 0.5, 0.75, 0.99):
        scale = None
        for points, kernel, size in _far_kernels(s):
            ref = _far(mesh, tables, points, kernel)
            got = np.zeros_like(ref)
            assembly._far(got, mesh, tables, points, kernel, size)
            if scale is None:
                scale = np.abs(ref)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale), (s, kernel)


@pytest.mark.parametrize("domain", list(FAR_DOMAINS))
def test_interpolation_check_keeps_smooth_kernels_and_refuses_steep_ones(domain):
    # the probes pass every block of the Gagliardo kernel and of fields
    # smooth on the clusters, also where R cancels to rounding (a quadratic
    # field at s = 1/2), and fail blocks near the transition of tanh(20 x)
    # at 0, which only domain 2 leaves out
    intervals = FAR_DOMAINS[domain]
    mesh = fl.make_mesh(fl.make_domain(intervals), 512 // len(intervals), 2.0)
    tables = _tables(mesh, False)
    cl = tables.clusters
    for s in (0.25, 0.5, 0.75):
        *smooth, steep = _far_kernels(s)
        for points, kernel, scale in smooth:
            _, ok = assembly._interpolate(cl, tables.blocks, points, kernel, scale)
            assert ok.all(), (s, kernel)
        _, ok = assembly._interpolate(cl, tables.blocks, *steep)
        assert ok.all() == (domain == 2)


def _dense_pair_counts(mesh):
    """Pair counts by class from all E^2 element pairs."""
    E = mesh.elem_h.size
    iv = mesh.elem_interval
    near, far = 0, 0
    for k0, k1, far_mask in _far_chunks(mesh):
        kk = np.arange(k0, k1)[:, None]
        ll = np.arange(k0, E)[None, :]
        separated = (ll > kk) & ~((ll == kk + 1) & (iv[kk] == iv[ll]))
        near += int(np.count_nonzero(separated & ~far_mask))
        far += int(np.count_nonzero(far_mask))
    return near, far


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("intervals", [1, 2, 3])
def test_pair_counts_match_the_dense_classification(intervals, beta):
    compared = 0
    for n in (2, 8, 64, 300):
        mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[intervals]), n, beta)
        try:
            counts = _tables(mesh, False).counts
        except QuadratureError:
            # the coarse strongly graded meshes exceed the subdivision cap
            if beta == 6.0 and n < 300:
                continue
            raise
        assert (counts["near"], counts["far"]) == _dense_pair_counts(mesh), n
        compared += 1
    assert compared >= (2 if beta == 6.0 else 4)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_assemblies_are_bit_identical_and_share_the_pair_tables():
    mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[2]), 200, 2.0)
    X = fl.make_field(["x/(1 + x^2)"], box=BOX1)
    assert _pair_tables(mesh).blocks.size > 0
    misses = _pair_tables.cache_info().misses
    for s in (0.3, 0.7):
        A = [fl.assemble_gagliardo(mesh, s) for _ in range(2)]
        B = [fl.assemble_deformation(mesh, X, s) for _ in range(2)]
        assert np.array_equal(A[0], A[1]) and np.array_equal(B[0], B[1])
        assert np.array_equal(A[0], A[0].T) and np.array_equal(B[0], B[0].T)
    assert _pair_tables.cache_info().misses == misses


def test_cluster_tables_are_built_once_per_mesh(monkeypatch):
    # the Chebyshev data of the clusters depends on the mesh alone; it was
    # rebuilt for every form and every s
    calls = []

    def counted(*args, _original=assembly._clusters):
        calls.append(args[0])
        return _original(*args)

    monkeypatch.setattr(assembly, "_clusters", counted)
    mesh = fl.make_mesh(fl.make_domain([(-0.875, 1.0)]), 128, 2.0)  # no other test's mesh
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    for s in (0.3, 0.7):
        fl.assemble_gagliardo(mesh, s)
        fl.assemble_deformation(mesh, X, s)
    assert _pair_tables(mesh).blocks.size > 0
    assert calls == [mesh]


def test_mass_matrix_scatter_is_the_bincount_sum():
    mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[3]), 50, 2.0)
    K, h, dofs = mesh.n_interior, mesh.elem_h, mesh.elem_dof
    local = _sym_blocks(h / 3.0, h / 6.0)
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    ok = (rows >= 0) & (cols >= 0)
    ref = np.bincount(
        (rows * K + cols)[ok], weights=local[ok], minlength=K * K
    ).reshape(K, K)
    assert np.array_equal(fl.assemble_mass(mesh).toarray(), ref)


# ---------------------------------------------------------------------------
# identical and touching pairs against closed forms
# ---------------------------------------------------------------------------

def _identical_gagliardo(mesh, s, coeff) -> np.ndarray:
    K = mesh.n_interior
    h = mesh.elem_h
    w = 2.0 * h ** (3.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    base = coeff * w / h**2  # slope product magnitude 1/h^2
    return _scatter_add(np.zeros((K, K)), _sym_blocks(base, -base), mesh.elem_dof)


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
    return _scatter_add(np.zeros((K, K)), 2.0 * local, dofs)


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("intervals", [[(-1.0, 1.0)], [(-2.0, -1.0), (1.0, 2.0)]])
def test_singular_pair_rules_match_closed_forms(intervals, beta, s):
    # with a constant smooth factor the shared rules integrate the Gagliardo
    # kernel; at beta = 3 adjacent elements differ in size by up to 11x
    coeff = 0.5 * fl.frac_constant(1, s)

    def rfun(x, y):
        return np.full(np.broadcast(x, y).shape, coeff)

    for n in (8, 64):
        mesh = fl.make_mesh(fl.make_domain(intervals), n, beta)
        tables = _tables(mesh, False)
        touching = tables.touching
        identical, touch = np.zeros((2, mesh.n_interior, mesh.n_interior))
        assembly._identical(identical, mesh, s, rfun, tables.identical)
        assembly._touching(touch, mesh, s, rfun, touching, tables.touching_w)
        pairs = [
            (identical, _identical_gagliardo(mesh, s, coeff)),
            (touch, _touching_gagliardo(mesh, s, coeff, touching)),
        ]
        for got, exact in pairs:
            assert np.linalg.norm(got - exact) <= 1e-13 * np.linalg.norm(exact), n


@pytest.mark.parametrize("n", [8, 64])
def test_touching_rule_is_converged_on_graded_meshes(n, monkeypatch):
    s = 0.9
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), n, 3.0)
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    A = fl.assemble_gagliardo(mesh, s)
    B = fl.assemble_deformation(mesh, X, s)
    monkeypatch.setattr(assembly, "_GL_TOUCH", 64)
    B64 = fl.assemble_deformation(mesh, X, s)
    scale = max(np.linalg.norm(B), np.linalg.norm(A))
    assert np.linalg.norm(B64 - B) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# deformation matrix
# ---------------------------------------------------------------------------

BOX1 = [(-3.0, 3.0)]


def test_deformation_constant_field_zero():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    A = fl.assemble_gagliardo(mesh, 0.4)
    B = fl.assemble_deformation(mesh, fl.constant_field([0.7], BOX1), 0.4)
    assert np.max(np.abs(B)) <= 1e-12 * np.linalg.norm(A)


def test_deformation_identity_s_half_zero():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    A = fl.assemble_gagliardo(mesh, 0.5)
    B = fl.assemble_deformation(mesh, fl.identity_field(1, box=BOX1), 0.5)
    assert np.max(np.abs(B)) <= 1e-12 * np.linalg.norm(A)


def test_deformation_identity_reduces_to_scaled_stiffness():
    s = 0.25
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    A = fl.assemble_gagliardo(mesh, s)
    B = fl.assemble_deformation(mesh, fl.identity_field(1, box=BOX1), s)
    np.testing.assert_allclose(B, (1.0 - 2.0 * s) * A, rtol=1e-8)


def test_deformation_linearity():
    s = 0.3
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    X = fl.identity_field(1, box=BOX1)
    Z = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    BX = fl.assemble_deformation(mesh, X, s)
    BZ = fl.assemble_deformation(mesh, Z, s)
    XZ = fl.make_field(["(x) + (x + 0.25*x^2)"], box=BOX1)  # X + Z
    BS = fl.assemble_deformation(mesh, XZ, s)
    scale = np.linalg.norm(BX) + np.linalg.norm(BZ)
    assert np.max(np.abs(BS - BX - BZ)) <= 1e-10 * scale


def test_deformation_symmetric():
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 8)
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    B = fl.assemble_deformation(mesh, X, 0.3)
    assert np.linalg.norm(B - B.T) <= 1e-12 * np.linalg.norm(B)


def _identity_tail_exact(mesh, s, i):
    """E_X(phi_i, phi_i) over S x S^c and S^c x S for X = id, which is
    (1 - 2s) times that of E: 2 (1 - 2s) int phi_i^2 rho_E with
    rho_E(x) = (c/2) int_{S^c} |x - y|^{-1-2s} dy, by 34-digit quadrature."""
    mp = pytest.importorskip("mpmath")

    def rho(dx):
        # dx[j] = x - ends[j]: the two tails give |x - e|^{-2s} / 2s at the
        # outer ends e, each gap (a, b) gives | |x - a|^{-2s} - |x - b|^{-2s} | / 2s
        p = [abs(d) ** (-2 * s) for d in dx]
        gaps = sum(abs(p[j] - p[j + 1]) for j in range(1, len(p) - 1, 2))
        return mp.mpf(fl.frac_constant(1, s)) / 2 * (p[0] + p[-1] + gaps) / (2 * s)

    with mp.workdps(34):
        ends = [mp.mpf(e) for iv in mesh.domain.intervals for e in iv]
        total = mp.mpf(0)
        for k, slots in enumerate(mesh.elem_dof):
            if i in slots:
                h = mp.mpf(mesh.elem_x1[k]) - mp.mpf(mesh.elem_x0[k])
                # u runs from the node where phi_i vanishes, so a boundary
                # node is the exact point u = 0 and never a rounded x
                end, step = (mesh.elem_x1[k], -1) if slots[0] == i else (mesh.elem_x0[k], 1)
                off = [mp.mpf(end) - e for e in ends]
                total += mp.quad(lambda u: (u / h) ** 2 * rho([o + step * u for o in off]), [0, h])
        return float(2 * (1 - 2 * s) * total)


@pytest.mark.parametrize("s", [0.1, 0.9])
@pytest.mark.parametrize("beta", [3.0, 6.0])
@pytest.mark.parametrize("intervals", [[(-1.0, 1.0)], [(-2.0, -1.0), (1.0, 2.0)]])
def test_deformation_exterior_tail_matches_mpmath(intervals, beta, s):
    # next to a boundary element the anchor's singularity |r - x|^{-2s}
    # lies one tiny element outside the second element's rule
    mesh = fl.make_mesh(fl.make_domain(intervals), 8, beta)
    X = fl.identity_field(1, box=BOX1)
    tail = np.zeros((mesh.n_interior,) * 2)
    assembly._exterior(tail, mesh, s, fl.frac_constant(1, s), X.div1, X.at1)
    for i in sorted({0, 1, 2, mesh.n_interior // 2}):
        exact = _identity_tail_exact(mesh, s, i)
        assert abs(tail[i, i] - exact) <= 1e-13 * abs(exact), i


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_deformation_rational_field_derived_div_matches_given(s):
    # the quotient rule gives X' of x/(1 + x^2) to rounding, so the matrix
    # agrees with the one built from the closed-form X'
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 256, 2.0)
    derived = fl.make_field(["x/(1 + x^2)"], box=BOX1)
    given = fl.make_field(["x/(1 + x^2)"], box=BOX1, div="(1 - x^2)/(1 + x^2)^2")
    assert derived.div_method == "symbolic"
    B = fl.assemble_deformation(mesh, derived, s)
    B_given = fl.assemble_deformation(mesh, given, s)
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


@pytest.mark.parametrize("s, worst", [(0.25, 1.2e-6), (0.5, 6.5e-6), (0.75, 5.1e-5)])
def test_pointwise_bump_matches_dyda_closed_form(s, worst):
    # Dyda (2012, Fract. Calc. Appl. Anal. 15): for |z| < 1,
    # (-Delta)^s (1 - z^2)_+^p = 4^s G(p+1) G(s+1/2) / (G(p+1-s) G(1/2))
    #                            * 2F1(s + 1/2, s - p; 1/2; z^2),
    # scaled by halfwidth^{-2s}.  ``worst`` is the largest error of the
    # per-point evaluation this batched one replaced; the estimate is not a
    # bound here (the near window crosses the support edge), so only the
    # value is checked, at twice that
    from scipy.special import gamma, hyp2f1

    c, w, p = 0.2, 0.5, 3
    z = np.linspace(-0.95, 0.95, 39)
    exact = (
        4.0**s * gamma(p + 1) * gamma(s + 0.5) / (gamma(p + 1 - s) * gamma(0.5))
        * hyp2f1(s + 0.5, s - p, 0.5, z**2) * w ** (-2.0 * s)
    )
    got = fl.frac_laplacian_pointwise(
        fl.polynomial_bump(c, w, p), s, c + w * z, R=20.0, tail_sup=0.0
    ).value
    assert np.max(np.abs(got - exact)) <= 2.0 * worst


def _far_passes(monkeypatch):
    """Count the integrand calls of the operator's adaptive passes."""
    passes = []
    real = assembly.adaptive_panels

    def counting(f, *args, **kwargs):
        def g(rows):
            passes[-1] += 1
            return f(rows)

        passes.append(0)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(assembly, "adaptive_panels", counting)
    return passes


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_pointwise_points_do_not_depend_on_their_batch(monkeypatch, s):
    # inside, near the edges of and outside the support of the bump; the
    # points near an edge need deeper far refinement than the others
    bump = fl.polynomial_bump(0.2, 0.5, 3)
    xs = np.array([0.2, -0.29, 0.05, 0.69, 0.35, 0.71, 1.5, -0.6])
    R = np.array([20.0, 20.0, 1.5, 20.0, 6.0, 20.0, 20.0, 3.0])
    passes = _far_passes(monkeypatch)
    alone = [
        fl.frac_laplacian_pointwise(bump, s, x, R=r, tail_sup=0.0)
        for x, r in zip(xs, R)
    ]
    assert len(set(passes)) > 1
    batch = fl.frac_laplacian_pointwise(bump, s, xs, R=R, tail_sup=0.0)
    monkeypatch.setattr(assembly, "_PV_BYTES", 1)  # one point per batch
    single = fl.frac_laplacian_pointwise(bump, s, xs, R=R, tail_sup=0.0)
    for out in (batch, single):
        assert out.value.tolist() == [a.value for a in alone]
        assert out.error.tolist() == [a.error for a in alone]


def test_pointwise_scalar_and_array_forms():
    bump = fl.polynomial_bump(0.2, 0.5, 3)
    xs = np.array([[0.0, 0.1], [0.3, 0.9]])
    out = fl.frac_laplacian_pointwise(bump, 0.5, xs, R=np.array([20.0, 1.5]))
    assert out.value.shape == out.error.shape == (2, 2)
    one = fl.frac_laplacian_pointwise(bump, 0.5, 0.9, R=1.5)
    assert type(one.value) is float and type(one.error) is float
    assert (one.value, one.error) == (out.value[1, 1], out.error[1, 1])


def test_pointwise_tolerance_error_names_the_first_failing_point():
    # at tol 3e-5, x = 0 and 0.25 pass alone, 0.3 and 0.6 fail; the batch
    # reports 0.3, the first failing point, not 0.6, the largest error
    bump = fl.polynomial_bump()
    kw = dict(R=16.0, tol=3e-5, tail_sup=0.0)
    for x in (0.0, 0.25):
        fl.frac_laplacian_pointwise(bump, 0.5, x, **kw)
    messages = []
    for x in (0.3, 0.6, [0.0, 0.25, 0.3, 0.6]):
        with pytest.raises(ToleranceError) as exc:
            fl.frac_laplacian_pointwise(bump, 0.5, x, **kw)
        messages.append(str(exc.value))
    assert messages[2] == messages[0] != messages[1]


# ---------------------------------------------------------------------------
# density integrals
# ---------------------------------------------------------------------------

def test_integrate_density_parabola_exact():
    # u = 1 at every interior dof: u_h is 1 between the first and last
    # interior node and ramps to 0 on the boundary elements, so weighting
    # with 1 + x gives parabolas, which the order-8 Gauss rule integrates
    # exactly
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 1.0)]), 16, beta=2.0)
    a, b, c, d = mesh.nodes[0][[0, 1, -2, -1]]
    exact = (
        (b - a) * ((1.0 + a) / 2.0 + (b - a) / 3.0)  # rising ramp
        + (c - b) * (1.0 + (b + c) / 2.0)
        + (d - c) * ((1.0 + c) / 2.0 + (d - c) / 6.0)  # falling ramp
    )
    out = fl.integrate_density(mesh, np.ones(mesh.n_interior), weight=lambda x: 1.0 + x)
    assert out == pytest.approx(exact, rel=1e-12)


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
    M = fl.assemble_mass(mesh)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.interior_x.size)
    quad = fl.integrate_density(mesh, u, transform=lambda t: t * t)
    assert quad == pytest.approx(float(u @ (M @ u)), rel=1e-12)


def test_integrate_density_sums_over_intervals():
    d = fl.make_domain([(-2.0, -1.0), (1.0, 2.0)])
    mesh = fl.make_mesh(d, 8, beta=1.0)
    ones = np.ones(14)  # 7 interior dofs per interval, interval by interval
    first = np.where(np.arange(14) < 7, 1.0, 0.0)
    both = fl.integrate_density(mesh, ones)
    assert both == pytest.approx(2.0 * fl.integrate_density(mesh, first), rel=1e-12)
    # 1 on 6 elements of 1/8 and a ramp on the two boundary ones
    assert both == pytest.approx(2.0 * 7.0 / 8.0, rel=1e-12)


def test_integrate_density_refuses_every_other_nodal_form():
    # per-interval arrays with their end values, a flat vector of every
    # node, a column: nodal data has one form, the interior-dof vector
    mesh = fl.make_mesh(fl.make_domain([(-2.0, -1.0), (1.0, 2.0)]), 8, beta=1.0)
    for nodal in ((np.ones(9), np.ones(9)), np.ones(18), np.ones((14, 1))):
        with pytest.raises(ArgumentError, match="the 14 interior dof values"):
            fl.integrate_density(mesh, nodal)


@pytest.mark.parametrize("interval", [(0.0, 1e-90), (1e150, 2e150), (-1e100, 1e100)])
def test_extreme_but_finite_scales_assemble_a_finite_stiffness(interval):
    # the smallest element of (0, 1e-90) is 2.4e-97 at n = 2048; the suite
    # turns the overflow warnings of a form out of range into errors
    mesh = fl.make_mesh(fl.make_domain([interval]), 2048, beta=2.0)
    assert np.all(np.isfinite(fl.assemble_gagliardo(mesh, 0.99)))


# the first hulls (-10^e, 10^e) on which the closed-form exterior tail's
# moment of order 2 - 2s overflows, at n = 8, beta = 1; one decade less
# assembles a finite A without a warning (the suite turns them into errors)
@pytest.mark.parametrize("s, e", [(0.01, 104), (0.1, 110), (0.25, 124)])
def test_a_hull_whose_exterior_tail_overflows_is_refused(s, e):
    below = fl.make_mesh(fl.make_domain([(-(10.0 ** (e - 1)), 10.0 ** (e - 1))]), 8, beta=1.0)
    assert np.all(np.isfinite(fl.assemble_gagliardo(below, s)))
    mesh = fl.make_mesh(fl.make_domain([(-(10.0**e), 10.0**e)]), 8, beta=1.0)
    with pytest.raises(DegenerateError, match=rf"hull \(-1e\+{e}, 1e\+{e}\) is too wide"):
        fl.assemble_gagliardo(mesh, s)


@pytest.mark.parametrize("s", [0.5, 0.99])
def test_near_subdivision_cap_refuses_before_the_integer_cast(s):
    # h / gap = 1.25e89 does not fit an integer; the suite turns numpy's
    # cast warning into an error, so the cap must refuse it first
    mesh = fl.make_mesh(fl.make_domain([(-1.0, 0.0), (1e-90, 1.0)]), 8, beta=2.0)
    with pytest.raises(QuadratureError, match="subdivision exceeds cap"):
        fl.assemble_gagliardo(mesh, s)


def test_identical_pairs_stay_finite_on_huge_elements():
    # h^(2-2s) (inner @ wj) alone is about h^(3-2s), past the float range
    # for h = 1.25e149 at s = 0.3; the entries themselves are about h^(1-2s)
    mesh = fl.make_mesh(fl.make_domain([(1e150, 2e150)]), 8, beta=2.0)
    coeff = 0.5 * fl.frac_constant(1, 0.3)

    def rfun(x, y):
        return np.full(np.broadcast(x, y).shape, coeff)

    out = np.zeros((mesh.n_interior,) * 2)
    tables = _pair_tables(mesh)
    assembly._identical(out, mesh, 0.3, rfun, tables.identical)
    assert np.all(np.isfinite(out)) and np.max(np.abs(out)) > 0.0


# ---------------------------------------------------------------------------
# one mirror half of the element pairs
# ---------------------------------------------------------------------------

def _all_pairs(assemble, monkeypatch):
    """``assemble`` run on every element pair, each with weight 1."""
    with monkeypatch.context() as m:
        m.setattr(assembly, "_pair_tables", lambda mesh: _tables(mesh, False))
        return assemble()


@pytest.mark.parametrize("n", [64, 70, 100, 256, 300, 2048])
@pytest.mark.parametrize("intervals", [1, 2])
def test_mirror_partition_is_closed_under_the_mirror(intervals, n):
    # every cluster's image is a cluster; the pairs returned are their own
    # images (admissible ones weigh 1/2) or have images that are not
    # returned (weight 1), and with those images they cover every element
    # pair k <= l once
    mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[intervals]), n, 2.0)
    E = mesh.elem_h.size
    spans, dense, blocks, weights = assembly._partition(mesh, mirror=True)
    index = {(e0, e1): c for c, (e0, e1) in enumerate(spans.tolist())}
    image = np.array([index[(E - e1, E - e0)] for e0, e1 in spans.tolist()])
    own = image[blocks[:, 1]] == blocks[:, 0]
    assert np.array_equal(weights, np.where(own, 0.5, 1.0))
    pairs = [tuple(p) for p in blocks.tolist()] + [tuple(p) for p in dense]
    images = {(int(image[j]), int(image[i])) for i, j in pairs} - set(pairs)
    assert len(images) == len(pairs) - np.count_nonzero([image[j] == i for i, j in pairs])
    pairs += sorted(images)
    r = np.array([(*spans[i], *spans[j]) for i, j in pairs])  # k0, k1, l0, l1
    m = r[:, 1] - r[:, 0]
    diagonal = (r[:, 0] == r[:, 2]) & (r[:, 1] == r[:, 3])
    assert np.all(diagonal | (r[:, 1] <= r[:, 2]))
    cover = np.where(diagonal, m * (m + 1) // 2, m * (r[:, 3] - r[:, 2]))
    assert cover.sum() == E * (E + 1) // 2
    overlap = (
        (r[:, None, 0] < r[None, :, 1]) & (r[None, :, 0] < r[:, None, 1])
        & (r[:, None, 2] < r[None, :, 3]) & (r[None, :, 2] < r[:, None, 3])
    )
    assert np.count_nonzero(overlap) == len(pairs)


def _pair_weights(tables, E):
    """(E, E) weight of each element pair (k, l), k <= l, summed over every
    class and block of ``tables``."""
    W = np.zeros((E, E))
    W[tables.identical, tables.identical] += 1.0
    W[tables.touching, tables.touching + 1] += tables.touching_w
    sub = {key: np.concatenate([g[key] for g in tables.near.values()]) for key in ("k", "l", "w")}
    flat, first, inverse = np.unique(sub["k"] * E + sub["l"], return_index=True, return_inverse=True)
    assert np.array_equal(sub["w"], sub["w"][first][inverse.ravel()])  # one weight a pair
    W.flat[flat] += sub["w"][first]
    for k0, k1, l0, l1, far, w in tables.leaves:
        W[k0:k1, l0:l1] += far * w
    for (i, j), w in zip(tables.blocks, tables.block_w):
        (k0, k1), (l0, l1) = tables.spans[i], tables.spans[j]
        W[k0:k1, l0:l1] += w
    return W


@pytest.mark.parametrize("n", [8, 64, 70, 256, 300])
@pytest.mark.parametrize("intervals", [1, 2])
def test_mirror_tables_weigh_each_pair_and_its_image_to_one(intervals, n):
    # the whole tables weigh every pair k <= l 1; the mirror tables weigh a
    # pair and its image (E - 1 - l, E - 1 - k) 1 together, so a pair that
    # is its own image 1/2
    mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[intervals]), n, 2.0)
    E = mesh.elem_h.size
    upper = np.triu(np.ones((E, E), dtype=bool))
    whole = _pair_weights(_tables(mesh, False), E)
    assert np.all(whole[upper] == 1.0) and np.all(whole[~upper] == 0.0)
    tables = _pair_tables(mesh)
    assert tables.mirrored and not _tables(mesh, False).mirrored
    W = _pair_weights(tables, E)
    assert np.all(W[~upper] == 0.0)
    assert np.all((W + W[::-1, ::-1].T)[upper] == 1.0)


@pytest.mark.parametrize("n", [64, 70, 129, 256, 300])
@pytest.mark.parametrize("intervals", [1, 2])
def test_mirror_assembly_matches_the_whole_assembly(intervals, n, monkeypatch):
    # graded nodes mirror to rounding, uniform nodes of a power-of-two mesh
    # exactly; an odd number of elements (one interval, n = 129) has no
    # mirror tables and takes the whole assembly
    for beta in (2.0, 1.0):
        if beta == 1.0 and n & (n - 1):
            continue
        mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[intervals]), n, beta)
        assert _pair_tables(mesh).mirrored == (mesh.elem_h.size % 2 == 0)
        for s in (0.1, 0.5, 0.9):
            A = fl.assemble_gagliardo(mesh, s)
            ref = _all_pairs(lambda: fl.assemble_gagliardo(mesh, s), monkeypatch)
            gate = 5e-11 if beta == 2.0 else 1e-14
            assert np.max(np.abs(A - ref)) <= gate * np.max(np.abs(ref)), (beta, s)
            assert np.array_equal(A, A.T)


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("intervals", [1, 2])
def test_mirror_interaction_part_is_bitwise_mirror_symmetric(intervals, n):
    # S + J S J gives an entry and its image the same two terms, and the
    # symmetrization the same two entries; only the exterior tail, which
    # covers every element, may break the mirror
    mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[intervals]), n, 2.0)
    assert _pair_tables(mesh).mirrored
    for s in (0.3, 0.5):
        S = assembly._assemble(mesh, s, lambda x: (x,), lambda p, q: 1.0, None, lambda out, c: None)
        assert np.array_equal(S, S[::-1, ::-1]) and np.array_equal(S, S.T)


def test_both_forms_share_one_set_of_mirror_tables(monkeypatch):
    mesh = fl.make_mesh(fl.make_domain([(-1.125, 1.125)]), 64, 2.0)  # no other test's mesh
    X = fl.make_field(["x + 0.25*x^2"], box=BOX1)
    calls = []

    def counted(mesh, mirror, _original=assembly._tables):
        calls.append(mirror)
        return _original(mesh, mirror)

    monkeypatch.setattr(assembly, "_tables", counted)
    for s in (0.3, 0.7):
        fl.assemble_gagliardo(mesh, s)
        fl.assemble_deformation(mesh, X, s)
    assert calls == [True]
    # asymmetric meshes, tiny ones too, and odd numbers of elements
    for intervals, n in (
        ([(-1.0, 0.75)], 64), ([(0.0, 1e-13), (2e-13, 5e-13)], 64), ([(-1.0, 1.0)], 65)
    ):
        assert not _pair_tables(fl.make_mesh(fl.make_domain(intervals), n, 2.0)).mirrored


@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("intervals", [1, 2])
@pytest.mark.parametrize("a", [0.0, 0.25])
def test_mirror_half_deformation_is_as_close_to_a_stable_reference(a, intervals, beta, n, s, monkeypatch):
    # for X = x + a x^2 + x^3/4, R = X'(x) + X'(y) - (1 + 2s) (X(x) - X(y)) / (x - y)
    # is the polynomial below, free of the difference quotient, whose
    # rounding on the smallest elements of a graded mesh dominates both
    # errors; the half, with X~ on the reflected pairs (X~ = X for a = 0),
    # may miss that reference by little more than every pair with X does
    mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[intervals]), n, beta)
    assert _pair_tables(mesh).mirrored
    X = fl.make_field([f"x + {a}*x^2 + 0.25*x^3"], box=BOX1)

    def stable(p, q):
        x, y = p[0], q[0]
        dX = 2.0 + 2.0 * a * (x + y) + 0.75 * (x * x + y * y)
        return dX - (1.0 + 2.0 * s) * (1.0 + a * (x + y) + 0.25 * (x * x + x * y + y * y))

    def tail(out, c):
        assembly._exterior(out, mesh, s, c, X.div1, X.at1)

    ref = _all_pairs(lambda: assembly._assemble(mesh, s, lambda x: (x,), stable, None, tail), monkeypatch)
    whole = _all_pairs(lambda: fl.assemble_deformation(mesh, X, s), monkeypatch)
    half = fl.assemble_deformation(mesh, X, s)
    gap = np.max(np.abs(whole - ref))
    assert np.max(np.abs(half - ref)) <= max(4.0 * gap, 1e-11 * np.max(np.abs(ref)))


def test_scatter_through_the_reversed_view_lands_in_the_matrix():
    # the reflected pass of E_X adds into out[::-1, ::-1], and _scatter_add
    # flattens it by reshape(-1); a copy there would drop every entry.  Each
    # block adds its symmetric part
    out = np.zeros((5, 5))
    local = np.arange(1.0, 9.0).reshape(2, 2, 2)
    _scatter_add(out[::-1, ::-1], local, np.array([[0, 1], [3, -1]]))
    ref = np.zeros((5, 5))
    ref[4, 4], ref[4, 3], ref[3, 4], ref[3, 3], ref[1, 1] = 1.0, 2.5, 2.5, 4.0, 5.0
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("intervals", [1, 2])
def test_far_pass_through_the_reversed_view_lands_in_the_matrix(intervals):
    # the reflected pass of E_X runs _far on out[::-1, ::-1]: its block
    # writes and their transposes go through the view, and each lands where
    # the same pass on a matrix of its own puts it, reversed
    mesh = fl.make_mesh(fl.make_domain(FAR_DOMAINS[intervals]), 256, 2.0)
    tables = _pair_tables(mesh)
    assert tables.blocks.size > 0
    for points, kernel, scale in _far_kernels(0.3)[:3]:
        ref = np.zeros((mesh.n_interior,) * 2)
        assembly._far(ref, mesh, tables, points, kernel, scale)
        out = np.zeros_like(ref)
        assembly._far(out[::-1, ::-1], mesh, tables, points, kernel, scale)
        assert np.any(ref) and np.array_equal(out, ref[::-1, ::-1])
        assert np.array_equal(ref, ref.T)


@pytest.mark.parametrize("K", [1, 2, 255, 256, 257, 2047])
def test_mirror_completion_adds_the_reversed_matrix(K):
    # at odd K the middle row is its own image and adds its own reversal
    x = np.random.default_rng(K).standard_normal((K, K))
    ref = x + x[::-1, ::-1]
    assembly._mirror_complete(x)
    assert np.array_equal(x, ref) and np.array_equal(x, x[::-1, ::-1])
