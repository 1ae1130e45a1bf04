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
- :mod:`fraclab.solve` — generalized eigensolver, even restriction,
  semilinear ground states
- :mod:`fraclab.analysis` — boundary-trace extraction and identity checks
- :mod:`fraclab.cli` — the ``fraclab`` command
"""

from .errors import (
    ArgumentError,
    AsymmetricMeshError,
    CoincidentPointsError,
    ConfigError,
    ConvergenceError,
    DegenerateError,
    DimensionMismatchError,
    DomainCollisionError,
    ExpressionError,
    FracLabError,
    NoBoundaryError,
    NotPositiveDefiniteError,
    OverlapError,
    QuadratureError,
    RangeError,
    SingularGradientError,
    SupercriticalError,
    SupportError,
    ToleranceError,
    WindowError,
)
from .expressions import Expr, parse_expression
from .quadrature import (
    adaptive_panels,
    gauss_jacobi_01,
    gauss_legendre,
    gauss_legendre_01,
    power_integral,
)
from .domain import (
    BoundaryPoint1D,
    Domain1D,
    ImplicitDomain2D,
    Mesh1D,
    boundary_points,
    dist_to_complement,
    domain_from_json,
    domain_to_json,
    make_domain,
    make_implicit_domain,
    make_mesh,
    perturb_endpoint,
    sample_boundary_2d,
)
from .fields import (
    DEFAULT_SEED,
    ConditionCertificate,
    VectorField,
    add_fields,
    admissible_s_interval,
    check_c1_c2,
    check_c_condition,
    constant_field,
    eval_kernel_KX,
    field_from_json,
    field_to_json,
    frac_constant,
    identity_field,
    make_field,
    min_flux,
    nonexistence_threshold,
    rotation_field,
    scale_field,
)
from .assembly import (
    AssembledForms,
    DeformationMatrix,
    FracLapValue,
    assemble_deformation,
    assemble_forms,
    assemble_gagliardo,
    assemble_mass,
    frac_laplacian_pointwise,
    integrate_density,
)
from .solve import (
    EigenPair,
    SemilinearSolution,
    pairs_to_json,
    pairs_to_nodal_rows,
    restrict_even,
    solve_geig,
    solve_semilinear,
)
from .analysis import (
    Bump,
    HadamardReport,
    PohozaevReport,
    SpectrumReport,
    TraceEstimate,
    extract_trace,
    hadamard_check,
    ibp_check,
    l2_identity_check,
    lemma21_check,
    pohozaev_check,
    polynomial_bump,
    report_to_dict,
    ros_oton_serra_check,
    run_verify,
    solve_context,
    spectrum_report,
    verify_steps,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FracLabError",
    "ArgumentError",
    "AsymmetricMeshError",
    "CoincidentPointsError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateError",
    "DimensionMismatchError",
    "DomainCollisionError",
    "ExpressionError",
    "NoBoundaryError",
    "NotPositiveDefiniteError",
    "OverlapError",
    "QuadratureError",
    "RangeError",
    "SingularGradientError",
    "SupercriticalError",
    "SupportError",
    "ToleranceError",
    "WindowError",
    # expressions & quadrature
    "Expr",
    "parse_expression",
    "adaptive_panels",
    "gauss_jacobi_01",
    "gauss_legendre",
    "gauss_legendre_01",
    "power_integral",
    # domain
    "BoundaryPoint1D",
    "Domain1D",
    "ImplicitDomain2D",
    "Mesh1D",
    "boundary_points",
    "dist_to_complement",
    "domain_from_json",
    "domain_to_json",
    "make_domain",
    "make_implicit_domain",
    "make_mesh",
    "perturb_endpoint",
    "sample_boundary_2d",
    # fields
    "DEFAULT_SEED",
    "ConditionCertificate",
    "VectorField",
    "add_fields",
    "admissible_s_interval",
    "check_c1_c2",
    "check_c_condition",
    "constant_field",
    "eval_kernel_KX",
    "field_from_json",
    "field_to_json",
    "frac_constant",
    "identity_field",
    "make_field",
    "min_flux",
    "nonexistence_threshold",
    "rotation_field",
    "scale_field",
    # assembly
    "AssembledForms",
    "DeformationMatrix",
    "FracLapValue",
    "assemble_deformation",
    "assemble_forms",
    "assemble_gagliardo",
    "assemble_mass",
    "frac_laplacian_pointwise",
    "integrate_density",
    # solve
    "EigenPair",
    "SemilinearSolution",
    "pairs_to_json",
    "pairs_to_nodal_rows",
    "restrict_even",
    "solve_geig",
    "solve_semilinear",
    # analysis
    "Bump",
    "HadamardReport",
    "PohozaevReport",
    "SpectrumReport",
    "TraceEstimate",
    "extract_trace",
    "hadamard_check",
    "ibp_check",
    "l2_identity_check",
    "lemma21_check",
    "pohozaev_check",
    "polynomial_bump",
    "report_to_dict",
    "ros_oton_serra_check",
    "run_verify",
    "solve_context",
    "spectrum_report",
    "verify_steps",
]
