"""Independent oracles and frozen reference values shared by the tests.

Everything in this module is computed *without* the package's own
quadrature/assembly code paths: closed forms, scipy reference quadrature,
or values frozen from one-off high-resolution runs (with the generating
recipe recorded next to each constant).  ``cho_factor_shapes`` records the
Cholesky factors a solve makes.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg


def hat_energy_exact(w: float, s: float) -> float:
    """Gagliardo energy E(phi, phi) of a single unit hat of halfwidth w.

    For phi(x) = (1 - |x|/w)_+ on the line,

        E = c_{1,s}/2 * Iint (phi(x)-phi(y))^2 |x-y|^{-1-2s} dx dy
          = w^{1-2s} * (2^{3-2s} - 4) / (cos(pi s) Gamma(4-2s)),

    obtained by expanding the square, reducing to the 1D convolution
    moments of the hat, and using the reflection formula for the Gamma
    factors in c_{1,s}.  The s -> 1/2 limit of the s-dependent factor is
    4 ln 2 / pi (both numerator and cosine vanish linearly).
    """
    if abs(s - 0.5) < 1e-12:
        return w ** (1.0 - 2.0 * s) * (4.0 * math.log(2.0) / math.pi)
    return (
        w ** (1.0 - 2.0 * s)
        * (2.0 ** (3.0 - 2.0 * s) - 4.0)
        / (math.cos(math.pi * s) * math.gamma(4.0 - 2.0 * s))
    )


def gaussian_frac_ref(s: float, x: float) -> float:
    """(-Delta)^s exp(-x^2) at x via the Fourier-symbol integral.

    exp(-x^2) has transform sqrt(pi) exp(-xi^2/4) (angular-frequency
    convention), so the operator value is
    (1/sqrt(pi)) * int_0^inf xi^{2s} exp(-xi^2/4) cos(xi x) dxi.
    Evaluated with scipy's QUADPACK, independent of the package.
    """

    def f(xi):
        return xi ** (2.0 * s) * np.exp(-xi * xi / 4.0) * np.cos(xi * x)

    v, _ = scipy.integrate.quad(f, 0.0, 60.0, epsabs=1e-14, epsrel=1e-13, limit=400)
    return v / math.sqrt(math.pi)


def torsion_frac_value(s: float) -> float:
    """(-Delta)^s (1-x^2)_+^s at x = 0: closed form 2^{2s} G(1+s) G(1/2+s) / G(1/2)."""
    return (
        2.0 ** (2.0 * s)
        * math.gamma(1.0 + s)
        * math.gamma(0.5 + s)
        / math.gamma(0.5)
    )


# Kwasnicki, "Eigenvalues of the fractional Laplace operator in the interval",
# J. Funct. Anal. 262 (2012) 2379-2402, gives lambda_1 of (-Delta)^{1/2} on
# (-1, 1) and the asymptotics lambda_k = (k pi/2 - (2 - 2s) pi/8)^{2s} + O(1/k).
KWASNICKI_LAMBDA1_HALF = 1.1577738836977

# Frozen from scipy.integrate.dblquad run offline (see the recipe below):
# stiffness entries A[i, j] for the uniform n = 8 P1 mesh on (-1, 1),
# computed as
#   0.5*c_{1,s} * [ dblquad of (phi_i(x)-phi_i(y))(phi_j(x)-phi_j(y))
#                   |x-y|^{-1-2s} over (supp_i u supp_j)^2, split at y = x ]
#   + c_{1,s} * quad of phi_i phi_j rho  with
#   rho(x) = ((x+1)^{-2s} + (1-x)^{-2s}) / (2s)   (exterior tail),
# with epsabs = 1e-12.  Pairs: (0, 2) touching supports, (1, 4) separated.
DBLQUAD_STIFFNESS = {
    (0.3, 0, 2): -0.055824097262,
    (0.3, 1, 4): -0.024842972864,
    (0.6, 0, 2): -0.153137982796,
    (0.6, 1, 4): -0.045587154409,
}


def cho_factor_shapes(monkeypatch):
    """The shapes of every Cholesky factor made from here on."""
    shapes = []
    cho_factor = scipy.linalg.cho_factor

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    return shapes
