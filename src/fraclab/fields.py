"""Deformation fields, the kernel K_X, and sampled condition certificates.

Fields are closed-form expressions in x (1D) or x, y (2D) whose
divergence is differentiated symbolically, unless the caller gives it.
Certificates record the RNG seed and sample count that produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    CoincidentPointsError,
    DimensionMismatchError,
    ExpressionError,
    RangeError,
)
from .expressions import Add, Expr, parse_expression

__all__ = [
    "DEFAULT_SEED",
    "VectorField",
    "ConditionCertificate",
    "frac_constant",
    "make_field",
    "identity_field",
    "constant_field",
    "rotation_field",
    "eval_kernel_KX",
    "check_c_condition",
    "check_c1_c2",
    "min_flux",
    "nonexistence_threshold",
    "admissible_s_interval",
    "field_from_json",
]

DEFAULT_SEED = 20250801
_VARS = ("x", "y")
_CERT_TOL = 1e-9


@lru_cache(maxsize=128)
def frac_constant(N: int, s: float) -> float:
    """Normalization c_{N,s} = pi^{-N/2} s 4^s Gamma(N/2+s) / Gamma(1-s)."""
    if not (0.0 < s < 1.0):
        raise ArgumentError(f"s must lie in (0, 1), got {s}")
    if N < 1:
        raise ArgumentError(f"N must be a positive integer, got {N}")
    log_c = (
        -0.5 * N * math.log(math.pi)
        + math.log(s)
        + s * math.log(4.0)
        + math.lgamma(0.5 * N + s)
        - math.lgamma(1.0 - s)
    )
    return math.exp(log_c)


def _normalize_box(box, dim: int) -> tuple[tuple[float, float], ...]:
    try:
        flat = np.asarray(box, dtype=float).ravel()
    except (TypeError, ValueError):
        flat = np.empty(0)
    if flat.size != 2 * dim:
        raise ArgumentError(f"box needs {2 * dim} numbers for dim {dim}")
    pairs = tuple((float(flat[2 * i]), float(flat[2 * i + 1])) for i in range(dim))
    for lo, hi in pairs:
        if not hi > lo:
            raise ArgumentError("box must have positive extent")
    return pairs


@dataclass(frozen=True)
class VectorField:
    """Closed-form vector field with certified Lipschitz bound on a box.

    ``lip`` is a sampled bound (max difference quotient over >= 10^4 pairs,
    inflated 25%); ``div_method`` records whether the divergence was
    differentiated symbolically or given by the caller.
    """

    dim: int
    components: tuple[Expr, ...]
    source: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    div: Expr
    div_source: str
    lip: float
    div_method: str  # "symbolic" | "given"

    # -- evaluation -----------------------------------------------------
    def _env(self, pts: np.ndarray) -> dict:
        return {v: pts[..., i] for i, v in enumerate(_VARS[: self.dim])}

    def at(self, pts) -> np.ndarray:
        """Evaluate at points of shape (..., dim); returns the same shape."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"points have dim {pts.shape[-1]}, field has dim {self.dim}"
            )
        env = self._env(pts)
        shape = pts.shape[:-1]
        comps = [_eval_shaped(c, env, shape) for c in self.components]
        return np.stack(comps, axis=-1)

    def at1(self, x) -> np.ndarray:
        """1D convenience: X(x) with x any array shape."""
        if self.dim != 1:
            raise DimensionMismatchError("at1 requires a 1D field")
        x = np.asarray(x, dtype=float)
        return _eval_shaped(self.components[0], {"x": x}, x.shape)

    def div_at(self, pts) -> np.ndarray:
        """div X at points of shape (..., dim)."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"points have dim {pts.shape[-1]}, field has dim {self.dim}"
            )
        return _eval_shaped(self.div, self._env(pts), pts.shape[:-1])

    def div1(self, x) -> np.ndarray:
        """1D convenience: X'(x)."""
        if self.dim != 1:
            raise DimensionMismatchError("div1 requires a 1D field")
        x = np.asarray(x, dtype=float)
        return self.div_at(x[..., None])


def _eval_shaped(expr: Expr, env: dict, shape) -> np.ndarray:
    """Evaluate an expression and broadcast constants to the point shape."""
    val = np.asarray(expr.evaluate(env), dtype=float)
    if val.shape != tuple(shape):
        val = np.broadcast_to(val, shape).copy()
    return val


def _estimate_lip(components, dim, box) -> float:
    rng = np.random.default_rng(DEFAULT_SEED)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])

    def values(pts):
        env = {v: pts[..., k] for k, v in enumerate(_VARS[:dim])}
        return np.stack(
            [_eval_shaped(c, env, pts[..., 0].shape) for c in components], axis=-1
        )

    p = lo + (hi - lo) * rng.random((10_000, dim))
    pts_sets = [(p, lo + (hi - lo) * rng.random((10_000, dim)))]
    # small coordinate steps catch directional sups that random pairs miss
    for i in range(dim):
        shifted = p.copy()
        shifted[:, i] = np.minimum(shifted[:, i] + 1e-4 * (hi[i] - lo[i]), hi[i])
        pts_sets.append((p, shifted))
    sup = 0.0
    for a, b in pts_sets:
        d = np.linalg.norm(a - b, axis=-1)
        keep = d > 1e-12
        if np.any(keep):
            quot = np.linalg.norm(values(a) - values(b), axis=-1)[keep] / d[keep]
            sup = max(sup, float(np.max(quot)))
    return 1.25 * sup


def make_field(
    components: Sequence[str],
    box,
    div: Optional[str] = None,
) -> VectorField:
    """Build a field from component expressions.

    1D fields use variable x; 2D fields use x, y.  ``div`` overrides the
    derived divergence (method recorded as "given").
    """
    sources = tuple(str(c) for c in components)
    try:
        return _make_field(sources, box, div)
    except RecursionError:
        # parse_expression guards the depth of parsing only; a tree it
        # returns can still be too deep to print, differentiate or evaluate
        raise ExpressionError(
            f"field expression nested too deeply ({max(map(len, sources))} characters)"
        ) from None


def _make_field(sources: tuple[str, ...], box, div: Optional[str]) -> VectorField:
    dim = len(sources)
    if dim not in (1, 2):
        raise DimensionMismatchError(f"supported dims are 1 and 2, got {dim}")
    exprs = tuple(parse_expression(sc) for sc in sources)
    allowed = frozenset(_VARS[:dim])
    for sc, e in zip(sources, exprs):
        extra = e.variables() - allowed
        if extra:
            raise DimensionMismatchError(
                f"component {sc!r} uses {sorted(extra)} but the field is {dim}D"
            )
    nbox = _normalize_box(box, dim)
    if div is not None:
        div_expr = parse_expression(div)
        div_src = div
        method = "given"
    else:
        div_expr = exprs[0].diff(_VARS[0])
        for i in range(1, dim):
            div_expr = Add(div_expr, exprs[i].diff(_VARS[i]))
        div_src = str(div_expr)
        method = "symbolic"
    lip = _estimate_lip(exprs, dim, nbox)
    return VectorField(
        dim=dim,
        components=exprs,
        source=sources,
        box=nbox,
        div=div_expr,
        div_source=div_src,
        lip=lip,
        div_method=method,
    )


def identity_field(dim: int, box) -> VectorField:
    return make_field(_VARS[:dim], box)


def constant_field(values: Sequence[float], box) -> VectorField:
    return make_field([repr(float(v)) for v in values], box)


def rotation_field(box) -> VectorField:
    """The 2D rotation generator Y(x) = (-x2, x1); K_Y vanishes identically."""
    return make_field(["-y", "x"], box)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def eval_kernel_KX(X: VectorField, s: float, N: int, x, y):
    """Deformation kernel K_X(x, y) for the bilinear form E_X.

    K_X = (c_{N,s}/2) [ (div X(x) + div X(y))
                        - (N+2s) (X(x)-X(y)).(x-y)/|x-y|^2 ] |x-y|^{-N-2s}

    Accepts single points or batches of shape (m, N); 1D points may be
    plain scalars/arrays.  Raises CoincidentPointsError when
    |x-y| < 1e-14 * max(1, |x|, |y|).
    """
    if N != X.dim:
        raise DimensionMismatchError(f"N = {N} but field dim = {X.dim}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar_in = xa.ndim == 0 or (xa.ndim == 1 and N > 1 and xa.shape == (N,))
    if N == 1:
        xa = xa.reshape(-1, 1)
        ya = ya.reshape(-1, 1)
    else:
        xa = xa.reshape(-1, N)
        ya = ya.reshape(-1, N)
    d = xa - ya
    r2 = np.sum(d * d, axis=-1)
    scale = np.maximum(
        1.0, np.maximum(np.linalg.norm(xa, axis=-1), np.linalg.norm(ya, axis=-1))
    )
    if np.any(np.sqrt(r2) < 1e-14 * scale):
        raise CoincidentPointsError("kernel evaluated at coincident points")
    c = frac_constant(N, s)
    quad = np.sum((X.at(xa) - X.at(ya)) * d, axis=-1) / r2
    bracket = X.div_at(xa) + X.div_at(ya) - (N + 2 * s) * quad
    out = 0.5 * c * bracket * r2 ** (-0.5 * (N + 2 * s))
    if scalar_in:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCertificate:
    """Sampled-verification record for a field condition."""

    kind: str  # "c-condition" | "c1c2-condition"
    constants: tuple[float, ...]
    min_flux: Optional[float]
    samples: int
    seed: int
    verdict: str  # "pass" | "fail"
    div_method: str


def _sample_pairs(box, dim, m, rng):
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    p = lo + (hi - lo) * rng.random((m, dim))
    q = lo + (hi - lo) * rng.random((m, dim))
    # drop near-coincident pairs (measure zero, but keep quotients finite)
    d = np.linalg.norm(p - q, axis=-1)
    keep = d > 1e-10 * np.max(hi - lo)
    p, q = p[keep], q[keep]
    # deterministic extras: global + local coordinate-direction pairs so
    # axis-aligned sups are attained exactly
    extras_p, extras_q = [], []
    mid = 0.5 * (lo + hi)
    span = hi - lo
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        extras_p.append(mid - 0.25 * span * e)
        extras_q.append(mid + 0.25 * span * e)
    base = p[: min(100, len(p))]
    step = 1e-3 * np.min(span)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        extras_p.extend(base)
        extras_q.extend(np.minimum(base + step * e, hi))
    p = np.vstack([p] + [np.atleast_2d(v) for v in extras_p])
    q = np.vstack([q] + [np.atleast_2d(v) for v in extras_q])
    d = np.linalg.norm(p - q, axis=-1)
    keep = d > 0
    return p[keep], q[keep]


def check_c_condition(
    X: VectorField, box=None, m: int = 10_000, seed: int = DEFAULT_SEED
) -> ConditionCertificate:
    """Verify (X(x)-X(y)).(x-y) = c |x-y|^2 on sampled pairs.

    c is estimated from the first sampled pair, then checked on all pairs
    with tolerance 1e-9 (1 + |c| |x-y|^2); a pass additionally requires
    div X = c N at the sampled points.
    """
    box = X.box if box is None else _normalize_box(box, X.dim)
    rng = np.random.default_rng(seed)
    p, q = _sample_pairs(box, X.dim, m, rng)
    d = p - q
    r2 = np.sum(d * d, axis=-1)
    prod = np.sum((X.at(p) - X.at(q)) * d, axis=-1)
    c_est = float(prod[0] / r2[0])
    ok_pairs = np.all(np.abs(prod - c_est * r2) <= _CERT_TOL * (1.0 + abs(c_est) * r2))
    div_vals = X.div_at(p)
    ok_div = np.all(
        np.abs(div_vals - c_est * X.dim) <= _CERT_TOL * (1.0 + abs(c_est) * X.dim)
    )
    verdict = "pass" if bool(ok_pairs and ok_div) else "fail"
    return ConditionCertificate(
        kind="c-condition",
        constants=(c_est,),
        min_flux=None,
        samples=int(len(p)),
        seed=seed,
        verdict=verdict,
        div_method=X.div_method,
    )


def check_c1_c2(
    X: VectorField, box=None, m: int = 10_000, seed: int = DEFAULT_SEED
) -> ConditionCertificate:
    """Estimate (c1, c2): c1 = min sampled div X, c2 = max sampled quadratic quotient.

    The quotient is (X(x)-X(y)).(x-y)/|x-y|^2.  Every smooth field satisfies
    c1 <= N c2 in the limit; the certificate fails if the sampled constants
    violate that consistency beyond tolerance.
    """
    box = X.box if box is None else _normalize_box(box, X.dim)
    rng = np.random.default_rng(seed)
    p, q = _sample_pairs(box, X.dim, m, rng)
    d = p - q
    r2 = np.sum(d * d, axis=-1)
    quot = np.sum((X.at(p) - X.at(q)) * d, axis=-1) / r2
    c2 = float(np.max(quot))
    c1 = float(np.min(X.div_at(p)))
    ok = c1 <= X.dim * c2 + _CERT_TOL * (1.0 + abs(c1) + abs(c2))
    return ConditionCertificate(
        kind="c1c2-condition",
        constants=(c1, c2),
        min_flux=None,
        samples=int(len(p)),
        seed=seed,
        verdict="pass" if ok else "fail",
        div_method=X.div_method,
    )


def min_flux(X: VectorField, boundary) -> float:
    """min over the sampled boundary of X(p) . nu(p)."""
    vals = []
    for point, normal in boundary:
        pt = np.asarray(point, dtype=float)
        nu = np.asarray(normal, dtype=float)
        if pt.size != X.dim or nu.size != X.dim:
            raise DimensionMismatchError(
                f"boundary point dim {pt.size} != field dim {X.dim}"
            )
        vals.append(float(np.dot(X.at(pt.reshape(1, -1))[0], nu)))
    if not vals:
        raise ArgumentError("empty boundary sample")
    return min(vals)


# ---------------------------------------------------------------------------
# nonexistence threshold
# ---------------------------------------------------------------------------

def _check_c1_c2_range(c1: Fraction, c2: Fraction, N: int) -> None:
    if c2 <= 0:
        raise RangeError(f"c2 must be positive, got {float(c2)}")
    if not (Fraction(N) * c2 / 2 < c1 <= Fraction(N) * c2):
        raise RangeError(
            f"c1 must lie in (N c2 / 2, N c2] = ({float(N * c2 / 2)}, {float(N * c2)}], "
            f"got {float(c1)}"
        )


def nonexistence_threshold(c1: float, c2: float, N: int, s: float) -> float:
    """Critical exponent p* = 2N / (2 c1/c2 - (N + 2s)), exact in rationals.

    Requires s < c1/c2 - N/2 (RangeError otherwise); for c1 = N c2 this is
    the standard 2N/(N-2s).
    """
    c1F, c2F = Fraction(c1), Fraction(c2)
    _check_c1_c2_range(c1F, c2F, N)
    sF = Fraction(s)
    if not (0 < sF < 1):
        raise RangeError(f"s must lie in (0, 1), got {s}")
    if sF >= c1F / c2F - Fraction(N, 2):
        raise RangeError(
            f"s = {s} >= c1/c2 - N/2 = {float(c1F / c2F - Fraction(N, 2))}: "
            "no supercritical range"
        )
    p = 2 * N / (2 * c1F / c2F - (N + 2 * sF))
    return float(p)


def admissible_s_interval(c1: float, c2: float, N: int) -> tuple[float, float]:
    """Open interval of s for which the threshold exists (capped at 1)."""
    c1F, c2F = Fraction(c1), Fraction(c2)
    _check_c1_c2_range(c1F, c2F, N)
    upper = min(Fraction(1), c1F / c2F - Fraction(N, 2))
    if upper <= 0:
        raise RangeError("empty admissible s-interval")
    return (0.0, float(upper))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def field_from_json(obj: dict) -> VectorField:
    if not isinstance(obj, dict) or "components" not in obj:
        raise ArgumentError("field JSON needs 'components'")
    comps = obj["components"]
    if not isinstance(comps, list):
        raise ArgumentError("field 'components' must be a list of expressions")
    dim = obj.get("dim", len(comps))
    if isinstance(dim, bool) or not isinstance(dim, (int, float)):
        raise ArgumentError(f"field 'dim' must be an integer, got {dim!r}")
    if dim != len(comps):
        raise DimensionMismatchError(
            f"dim = {dim} but {len(comps)} components given"
        )
    box = obj.get("box")
    if box is None:
        raise ArgumentError("field JSON needs 'box'")
    return make_field(comps, box, div=obj.get("div"))
