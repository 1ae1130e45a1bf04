"""Gauss rules, stable power integrals, and adaptive panel quadrature."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .errors import QuadratureError

__all__ = [
    "gauss_legendre",
    "gauss_legendre_01",
    "gauss_jacobi_01",
    "power_integral",
    "adaptive_panels",
]


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=64)
def gauss_legendre_01(order: int):
    """Gauss-Legendre nodes/weights on [0, 1], cached."""
    x, w = leggauss(order)
    t = 0.5 * (x + 1.0)
    v = 0.5 * w
    t.flags.writeable = False
    v.flags.writeable = False
    return t, v

@lru_cache(maxsize=64)
def gauss_jacobi_01(order: int, expo: float):
    """Nodes/weights for int_0^1 t^expo f(t) dt with expo > -1, cached.

    The weights absorb the t^expo factor; only the smooth part f is
    evaluated at the returned nodes.
    """
    if expo <= -1.0:
        raise QuadratureError(f"Jacobi weight exponent {expo} <= -1 is not integrable")
    x, w = roots_jacobi(order, 0.0, expo)
    t = 0.5 * (x + 1.0)
    v = w * 0.5 ** (expo + 1.0)
    t.flags.writeable = False
    v.flags.writeable = False
    return t, v


def power_integral(lo, hi, m):
    """Stable  int_lo^hi w^m dw  for real m (including m near -1).

    ``lo`` may be 0 only when m > -1.  Vectorized over numpy arrays; all
    inputs must satisfy 0 <= lo < hi elementwise.
    """
    lo, hi, m = np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), np.asarray(m, dtype=float)
    )
    eps = m + 1.0
    zero_lo = lo == 0.0
    if np.any(zero_lo & (eps <= 0.0)):
        raise QuadratureError("power_integral from 0 needs exponent > -1")
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_lo = np.where(zero_lo, 1.0, lo)
        ratio = np.log1p((hi - safe_lo) / safe_lo)  # log(hi/lo)
        safe_eps = np.where(eps == 0.0, 1.0, eps)
        # expm1(eps*log(hi/lo))/eps with the eps -> 0 (log) limit
        frac = np.where(eps != 0.0, np.expm1(eps * ratio) / safe_eps, ratio)
        general = safe_lo**eps * frac
        pos_eps = np.where(eps > 0.0, eps, 1.0)
        from_zero = hi**pos_eps / pos_eps
    out = np.where(zero_lo, from_zero, general)
    if out.ndim == 0:
        return float(out)
    return out


def _row_dot(rows, w):
    """Dot product of each row of ``rows`` with ``w``.

    Every row is its own vector-vector product, so its rounding does not
    depend on the other rows; a matrix-vector product rounds a row
    differently with its position in the matrix.
    """
    return (rows[..., None, :] @ w[:, None])[..., 0, 0]


_MAX_DEPTH = 48  # bisection levels adaptive_panels allows a panel


def adaptive_panels(f, panels, tol, max_panels=2_000_000, *, groups=None):
    """Adaptively integrate ``f`` over the given panels with embedded GL error.

    ``f`` must accept an ndarray and evaluate elementwise.  ``panels`` is a
    sequence (or (P, 2) array) of (a, b) with a < b.  Bisects panels whose
    embedded (GL10 vs GL20) error estimate exceeds their share of ``tol``
    until the estimate is met; raises QuadratureError on a non-finite
    estimate, which no bisection meets, or past ``_MAX_DEPTH`` levels or
    ``max_panels`` panels.

    Returns (value, error_estimate).

    ``groups`` (one index 0..G-1 per panel) integrates G independent
    integrals in one pass.  Group g shares ``tol[g]`` (``tol`` broadcasts)
    among its own panels by length.  The depth cap applies to each group,
    and ``max_panels`` to all panels of the call together, so a batch holds
    no more panels than one integral may.  ``f`` then receives a (P, 1 + m)
    array, one row per panel: column 0 holds the panel's group index and the
    other m columns its nodes; it returns the (P, m) values at the nodes.
    Returns arrays of value and error per group.  A group's results do not
    depend on the other groups of the batch: its panels keep their order,
    and each panel's rule is applied by ``_row_dot``.
    """
    ab = np.asarray(panels, dtype=float).reshape(-1, 2)
    a, b = ab[:, 0], ab[:, 1]
    if groups is None:
        g = np.zeros(a.size, dtype=np.intp)
        n_groups = 1
    else:
        g = np.asarray(groups, dtype=np.intp).ravel()
        n_groups = int(g.max()) + 1 if g.size else 0
    total_len = np.bincount(g, weights=b - a, minlength=n_groups)
    tol_g = np.broadcast_to(np.asarray(tol, dtype=float), (n_groups,))
    x10, w10 = gauss_legendre(10)
    x20, w20 = gauss_legendre(20)
    x30 = np.concatenate([x20, x10])

    value = np.zeros(n_groups)
    err = np.zeros(n_groups)
    n_seen = a.size
    depth = 0
    while a.size:
        if depth > _MAX_DEPTH:
            raise QuadratureError("adaptive quadrature: max depth exceeded")
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * x30[None, :]
        if groups is not None:
            nodes = np.concatenate([g[:, None].astype(float), nodes], axis=1)
        fx = f(nodes)
        i20 = half * _row_dot(fx[:, :20], w20)
        i10 = half * _row_dot(fx[:, 20:], w10)
        e = np.abs(i20 - i10)
        if not np.all(np.isfinite(e)):
            raise QuadratureError("adaptive quadrature: the integrand is not finite")
        budget = tol_g[g] * (b - a) / total_len[g]
        done = (e <= budget) | (half <= 1e-15 * np.maximum(np.abs(a), 1.0))
        value += np.bincount(g[done], weights=i20[done], minlength=n_groups)
        err += np.bincount(g[done], weights=e[done], minlength=n_groups)
        keep = ~done
        if not np.any(keep):
            break
        a_k, b_k, m_k, g_k = a[keep], b[keep], mid[keep], g[keep]
        a = np.concatenate([a_k, m_k])
        b = np.concatenate([m_k, b_k])
        g = np.concatenate([g_k, g_k])
        n_seen += a.size
        if n_seen > max_panels:
            raise QuadratureError("adaptive quadrature: panel cap exceeded")
        depth += 1
    if groups is None:
        return float(value[0]), float(err[0])
    return value, err
