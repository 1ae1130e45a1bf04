"""1D multi-interval domains, graded meshes, and implicit 2D domains.

A :class:`Domain1D` is a finite union of disjoint open intervals.  Meshes
are per-interval node sets produced by the symmetric grading map
``sigma(t) = t^beta / (t^beta + (1-t)^beta)``, which clusters nodes at the
interval endpoints where fractional eigenfunctions behave like dist^s.
2D domains enter only through sampled level-set boundaries used by the
field certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateError,
    DomainCollisionError,
    NoBoundaryError,
    OverlapError,
    SingularGradientError,
)
from .expressions import Expr, finite_values, parse_expression

__all__ = [
    "Domain1D",
    "BoundaryPoint1D",
    "Mesh1D",
    "ImplicitDomain2D",
    "make_domain",
    "boundary_points",
    "make_mesh",
    "make_implicit_domain",
    "sample_boundary_2d",
    "perturb_endpoint",
    "domain_from_json",
]


@dataclass(frozen=True)
class Domain1D:
    """Finite union of disjoint open intervals, sorted by left endpoint."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def hull(self) -> tuple[float, float]:
        return (self.intervals[0][0], self.intervals[-1][1])

    @property
    def diameter(self) -> float:
        lo, hi = self.hull
        return hi - lo


@dataclass(frozen=True)
class BoundaryPoint1D:
    """Domain boundary point with outward unit normal (-1 left end, +1 right end)."""

    x: float
    normal: int
    side: str  # "left" | "right" end of its interval
    interval_index: int


def make_domain(intervals: Sequence[Sequence[float]]) -> Domain1D:
    """Validate and sort intervals into a :class:`Domain1D`.

    Raises ArgumentError when an entry is not a pair of numbers or has an
    infinite endpoint, DegenerateError for an empty/inverted interval (or a
    NaN endpoint) and OverlapError when two intervals touch or overlap.
    """
    if not intervals:
        raise DegenerateError("domain needs at least one interval")
    try:
        ivs = sorted((float(a), float(b)) for a, b in intervals)
    except (TypeError, ValueError):
        raise ArgumentError(
            f"intervals must be pairs of numbers, got {intervals!r}"
        ) from None
    for a, b in ivs:
        if not (b > a):
            raise DegenerateError(f"interval ({a}, {b}) has non-positive length")
        if math.isinf(a) or math.isinf(b):
            raise ArgumentError(f"interval ({a}, {b}) has an infinite endpoint")
    for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
        if a1 <= b0:
            raise OverlapError(f"intervals ({a0}, {b0}) and ({a1}, {b1}) touch or overlap")
    return Domain1D(tuple(ivs))


def boundary_points(domain: Domain1D) -> tuple[BoundaryPoint1D, ...]:
    """All 2*I boundary points with outward normals, left to right."""
    pts = []
    for i, (a, b) in enumerate(domain.intervals):
        pts.append(BoundaryPoint1D(x=a, normal=-1, side="left", interval_index=i))
        pts.append(BoundaryPoint1D(x=b, normal=+1, side="right", interval_index=i))
    return tuple(pts)


def _grading(n: int, beta: float) -> np.ndarray:
    """sigma(j/n) for j = 0..n with sigma(t) = t^b / (t^b + (1-t)^b).

    The second half is 1 minus the first, but the nodes a + (b - a) sigma
    of a symmetric interval mirror only to rounding (1.1e-16 at n = 1024,
    beta = 2, on (-1, 1)).
    """
    t = np.arange(n + 1) / n
    with np.errstate(invalid="ignore"):
        num = t**beta
        den = num + (1.0 - t) ** beta
        sig = num / den
    half = (n + 1) // 2
    idx = np.arange(half)
    sig[n - idx] = 1.0 - sig[idx]
    if n % 2 == 0:
        sig[n // 2] = 0.5
    sig[0] = 0.0
    sig[n] = 1.0
    return sig


# Element sizes for which the assembled forms stay finite: they take
# |x - y|^(-1-2s), s < 1, at Gauss points at least h_min / 8 apart, and
# products of two element sizes (times 4).  For s <= 1/2 the identical and
# exterior terms form higher powers, which elements above ~1e102 overflow.
_H_MIN = 8.0 * np.finfo(float).max ** (-1.0 / 3.0)
_H_MAX = 0.5 * np.finfo(float).max ** 0.5


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Per-interval node arrays plus flat element/dof tables.

    Hash/eq are by identity so meshes can key caches of derived tables.

    Interior nodes carry the P1 hat basis (Dirichlet: boundary hats are
    dropped).  All arrays are read-only after construction.

    Attributes
    ----------
    nodes : tuple of ndarray
        Node coordinates per interval, endpoints included.
    elem_x0, elem_x1, elem_h : ndarray
        Element endpoints and sizes, all intervals concatenated
        left-to-right.
    elem_interval : ndarray
        Interval index of each element.
    elem_dof : ndarray, shape (E, 2)
        Global interior-dof index of the element's left/right node, -1 for
        boundary nodes.
    interior_x : ndarray
        Coordinates of the interior nodes (= dof ordering).
    """

    domain: Domain1D
    beta: float
    nodes: tuple[np.ndarray, ...]
    elem_x0: np.ndarray = field(repr=False)
    elem_x1: np.ndarray = field(repr=False)
    elem_h: np.ndarray = field(repr=False)
    elem_interval: np.ndarray = field(repr=False)
    elem_dof: np.ndarray = field(repr=False)
    interior_x: np.ndarray = field(repr=False)

    @property
    def n_interior(self) -> int:
        return self.interior_x.size

    @property
    def n_per_interval(self) -> tuple[int, ...]:
        return tuple(len(nd) - 1 for nd in self.nodes)

    @property
    def mirror_symmetric(self) -> bool:
        """Whether the nodes, boundary nodes included, are symmetric under
        x -> -x to 1e-12 of the largest |x|.  Element k is then the image of
        element E - 1 - k, and interior dof i that of dof K - 1 - i.  The
        tolerance scales with the mesh alone, so a mesh of tiny intervals
        is held to its own size."""
        x = np.concatenate(self.nodes)
        return bool(np.max(np.abs(x + x[::-1])) <= 1e-12 * np.max(np.abs(x)))

    def element_ends(self, u) -> np.ndarray:
        """The values of the P1 function with interior-dof values ``u`` (zero
        at the boundary nodes) at the left and right end of every element,
        shape (E, 2).  A vector of the ``n_interior`` values is the one form
        nodal data takes; any other shape is an ArgumentError."""
        arr = np.asarray(u, dtype=float)
        if arr.shape != (self.n_interior,):
            raise ArgumentError(
                f"nodal data must be a vector of the {self.n_interior} interior "
                f"dof values, got shape {arr.shape}"
            )
        return np.append(arr, 0.0)[self.elem_dof]

    def interior_to_full(self, u) -> tuple[np.ndarray, ...]:
        """Embed an interior-dof vector as per-interval nodal arrays with zero ends."""
        left = self.element_ends(u)[:, 0].reshape(len(self.nodes), -1)
        return tuple(np.append(row, 0.0) for row in left)


def make_mesh(domain: Domain1D, n_per_interval: int, beta: float = 2.0) -> Mesh1D:
    """Graded mesh with ``n_per_interval`` elements on every interval.

    Requires n_per_interval >= 2 (at least one interior node per interval)
    and beta >= 1; beta = 1 is the uniform mesh.  Raises DegenerateError
    when the grading rounds an element to zero length, and when an element
    is too small or too large for the assembled forms to stay finite.

    Memoized on (domain, n, beta) by value: equal arguments return the
    same read-only mesh, so tables cached per mesh (element-pair classes)
    are shared by every ``s``.
    """
    n = int(n_per_interval)
    if n < 2:
        raise ArgumentError(f"n_per_interval must be >= 2, got {n_per_interval}")
    if not (beta >= 1.0):
        raise ArgumentError(f"beta must be >= 1, got {beta}")
    return _make_mesh(domain, n, float(beta))


@lru_cache(maxsize=32)
def _make_mesh(domain: Domain1D, n: int, beta: float) -> Mesh1D:
    sig = _grading(n, beta)
    nodes = []
    for a, b in domain.intervals:
        nd = a + (b - a) * sig
        nd[0] = a
        nd[-1] = b
        nd.flags.writeable = False
        nodes.append(nd)

    # element j of interval i: its interior nodes are dofs i (n - 1) + j - 1
    # (left, for j > 0) and i (n - 1) + j (right, for j < n - 1)
    j = np.tile(np.arange(n), len(nodes))
    elem_interval = np.repeat(np.arange(len(nodes)), n)
    dof = elem_interval * (n - 1) + j
    elem_dof = np.column_stack([np.where(j > 0, dof - 1, -1), np.where(j < n - 1, dof, -1)])
    elem_x0 = np.concatenate([nd[:-1] for nd in nodes])
    elem_x1 = np.concatenate([nd[1:] for nd in nodes])
    elem_h = elem_x1 - elem_x0
    bad = int(np.count_nonzero(~(elem_h > 0)))  # NaN sizes count too
    if bad:
        raise DegenerateError(
            f"grading beta = {beta} with {n} elements per interval rounds "
            f"{bad} element(s) to zero length or NaN"
        )
    h_min, h_max = float(elem_h.min()), float(elem_h.max())
    if h_min < _H_MIN or h_max > _H_MAX:
        raise DegenerateError(
            f"element sizes {h_min:.3g} to {h_max:.3g} leave [{_H_MIN:.3g}, "
            f"{_H_MAX:.3g}], the range in which the assembled forms stay finite"
        )
    interior_x = np.concatenate([nd[1:-1] for nd in nodes])
    for a in (elem_x0, elem_x1, elem_h, elem_interval, elem_dof, interior_x):
        a.flags.writeable = False
    return Mesh1D(
        domain=domain,
        beta=beta,
        nodes=tuple(nodes),
        elem_x0=elem_x0,
        elem_x1=elem_x1,
        elem_h=elem_h,
        elem_interval=elem_interval,
        elem_dof=elem_dof,
        interior_x=interior_x,
    )


def perturb_endpoint(domain: Domain1D, bp: BoundaryPoint1D, eps: float) -> Domain1D:
    """Move one boundary point by ``eps`` along its outward normal.

    eps > 0 enlarges the domain.  Raises DomainCollisionError when the
    moved endpoint would degenerate its interval or hit a neighbour.
    """
    ivs = [list(iv) for iv in domain.intervals]
    i = bp.interval_index
    if bp.side == "left":
        ivs[i][0] = bp.x - eps * 1.0
    else:
        ivs[i][1] = bp.x + eps * 1.0
    try:
        return make_domain(ivs)
    except (OverlapError, DegenerateError) as exc:
        raise DomainCollisionError(str(exc)) from exc


@dataclass(frozen=True)
class ImplicitDomain2D:
    """2D domain {g < 0} inside a bounding box, given by a closed-form g."""

    source: str
    g: Expr
    bbox: tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)

    def evaluate(self, x, y):
        return self.g.evaluate({"x": np.asarray(x, float), "y": np.asarray(y, float)})


_G_GRID = 33  # points per axis of the bbox at which g must be finite


def make_implicit_domain(g: str, bbox: Sequence[float]) -> ImplicitDomain2D:
    """The domain {g < 0} in ``bbox``; ArgumentError unless g is finite on a grid of it."""
    try:
        xmin, xmax, ymin, ymax = map(float, bbox)
    except (TypeError, ValueError):
        raise ArgumentError("bbox must be (xmin, xmax, ymin, ymax)") from None
    if not (xmax > xmin and ymax > ymin):
        raise ArgumentError("bbox must have positive extent")
    expr = parse_expression(g)
    X, Y = np.meshgrid(np.linspace(xmin, xmax, _G_GRID), np.linspace(ymin, ymax, _G_GRID))
    where = f"on its bbox {[xmin, xmax, ymin, ymax]}"
    finite_values(expr, {"x": X, "y": Y}, X.shape, f"level set g {g!r}", where)
    return ImplicitDomain2D(source=g, g=expr, bbox=(xmin, xmax, ymin, ymax))


def _bisect_roots(f, lo, hi, flo, steps=60):
    """Vectorized bisection on bracketing intervals; returns midpoints."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        flo_new = np.where(left, flo, fm)
        lo = np.where(left, lo, mid)
        flo = flo_new
    return 0.5 * (lo + hi)


def sample_boundary_2d(dom: ImplicitDomain2D, m: int, grad_tol: float = 1e-8):
    """Sample points on {g = 0} with outward unit normals.

    Scans the m x m grid over the bounding box for sign changes along both
    grid-line directions and bisects each bracket for 60 steps.  Normals
    are grad g / |grad g| from the symbolic gradient of g (g < 0 inside, so
    the gradient points outward).  The grid is densified (up to 3 doublings)
    if it yields fewer than m points.

    Returns a list of ((x, y), (nx, ny)) float tuples.
    Raises NoBoundaryError when no sign change is found and
    SingularGradientError when |grad g| < grad_tol at a sampled point.
    """
    if m < 2:
        raise ArgumentError("m must be >= 2")
    xmin, xmax, ymin, ymax = dom.bbox

    pts_x: list[np.ndarray] = []
    pts_y: list[np.ndarray] = []
    grid = int(m)
    for _attempt in range(4):
        pts_x.clear()
        pts_y.clear()
        xs = np.linspace(xmin, xmax, grid)
        ys = np.linspace(ymin, ymax, grid)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        G = dom.evaluate(X, Y)

        # horizontal sweeps: roots in x between consecutive grid columns
        br = G[:, :-1] * G[:, 1:] < 0.0
        if np.any(br):
            ii, jj = np.nonzero(br)
            yfix = ys[ii]
            root = _bisect_roots(
                lambda t, yf=yfix: dom.evaluate(t, yf), X[ii, jj], X[ii, jj + 1], G[ii, jj]
            )
            pts_x.append(root)
            pts_y.append(yfix)
        # vertical sweeps: roots in y between consecutive grid rows
        br = G[:-1, :] * G[1:, :] < 0.0
        if np.any(br):
            ii, jj = np.nonzero(br)
            xfix = xs[jj]
            root = _bisect_roots(
                lambda t, xf=xfix: dom.evaluate(xf, t), Y[ii, jj], Y[ii + 1, jj], G[ii, jj]
            )
            pts_x.append(xfix)
            pts_y.append(root)
        count = sum(a.size for a in pts_x)
        if count >= m:
            break
        grid *= 2
    if not pts_x:
        raise NoBoundaryError("no sign change of g on the sampling grid")

    px = np.concatenate(pts_x)
    py = np.concatenate(pts_y)
    env = {"x": px, "y": py}
    grad = [dom.g.diff(v).evaluate(env) for v in ("x", "y")]
    # a constant partial derivative evaluates to a scalar; broadcast it to the points
    gx, gy, _ = np.broadcast_arrays(*grad, px)
    norm = np.hypot(gx, gy)
    if np.any(norm < grad_tol):
        k = int(np.argmin(norm))
        raise SingularGradientError(
            f"|grad g| = {norm[k]:.3e} < {grad_tol} at ({px[k]:.6f}, {py[k]:.6f})"
        )
    return [
        ((float(x), float(y)), (float(nx / nn), float(ny / nn)))
        for x, y, nx, ny, nn in zip(px, py, gx, gy, norm)
    ]


def domain_from_json(obj: dict):
    """A domain from its JSON form: {"intervals": [[a, b], ...]} or
    {"implicit2d": {"g": ..., "bbox": [...]}}."""
    if not isinstance(obj, dict):
        raise ArgumentError("domain JSON must be an object")
    if "intervals" in obj:
        return make_domain(obj["intervals"])
    if "implicit2d" in obj:
        spec = obj["implicit2d"]
        if not isinstance(spec, dict) or not {"g", "bbox"} <= set(spec):
            raise ArgumentError("'implicit2d' must be an object with keys g, bbox")
        return make_implicit_domain(spec["g"], spec["bbox"])
    raise ArgumentError("domain JSON needs 'intervals' or 'implicit2d'")
