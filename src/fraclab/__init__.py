"""fraclab: numerical verification of nonlocal Pohozaev-type identities.

The package assembles the fractional Gagliardo form and its deformation
along a Lipschitz vector field with P1 finite elements on graded 1D meshes,
solves the resulting eigenvalue and semilinear problems, and checks the
boundary-trace identities that relate interior energies to fractional
normal derivatives.  A small expression language drives vector fields and
implicit 2D geometries for the star-shapedness certificates.

Layers (each importable on its own):

- :mod:`fraclab.domain` — intervals, graded meshes, implicit 2D boundaries
- :mod:`fraclab.fields` — vector fields, deformation kernel, certificates
- :mod:`fraclab.assembly` — mass/stiffness/deformation matrices, pointwise
  principal-value operator values
- :mod:`fraclab.solve` — generalized eigensolver, even and odd mirror
  halves, semilinear ground states
- :mod:`fraclab.analysis` — boundary-trace extraction and identity checks
- :mod:`fraclab.cli` — the ``fraclab`` command
"""

from . import analysis, assembly, domain, errors, expressions, fields, quadrature, solve
from .errors import *  # noqa: F401,F403
from .expressions import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .domain import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .assembly import *  # noqa: F401,F403
from .solve import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += expressions.__all__
__all__ += quadrature.__all__
__all__ += domain.__all__
__all__ += fields.__all__
__all__ += assembly.__all__
__all__ += solve.__all__
__all__ += analysis.__all__
