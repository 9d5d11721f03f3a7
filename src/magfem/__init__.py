"""2D nonlinear magnetostatics by convex energy minimization.

Finite elements for the vector-potential form of magnetostatics with
general (nonlinear, anisotropic, magnetized) material laws, a globally
convergent damped Newton solver, and a benchmark harness for
mesh-refinement convergence studies.
"""

from .mesh import (
    Mesh,
    MeshError,
    MeshParseError,
    generate_unit_square,
    parse_mesh,
    refine_uniform,
    serialize_mesh,
    with_region_tags,
)
from .quadrature import (
    QuadratureRule,
    UnsupportedDegreeError,
    discrete_inner_product,
    rule_for_degree,
)
from .femspace import (
    BoundaryCompatibilityError,
    CoefficientVector,
    FESpace,
    build_space,
    interpolate,
    zero_coefficients,
)
from .materials import (
    NU0,
    BrauerLaw,
    BrauerParams,
    LinearLaw,
    MaterialLaw,
    brauer_build,
    brauer_reference,
    certify_bounds,
    radial_samples,
)
from .geometry import (
    DomainMap,
    OrientationError,
    affine_map,
    identity_map,
    quarter_annulus_map,
)
from .assembly import (
    Problem,
    ProblemConfigError,
    assemble_energy,
    assemble_hessian,
    assemble_residual,
    assemble_unit_stiffness,
    curl_norm,
    fields_at_quadrature,
)
from .solver import (
    CGConfig,
    CGInfo,
    LineSearchError,
    NewtonConfig,
    NewtonReport,
    SolverError,
    TailDiagnostic,
    newton_solve,
    quadratic_tail_diagnostic,
    run_newton_with_history,
    solve_cg,
    zarantonello_contraction,
    zarantonello_solve,
)
from .harness import (
    Benchmark,
    StudyError,
    StudyRow,
    builtin_benchmarks,
    compute_eoc,
    manufactured_benchmark,
    run_study,
    write_study_csv,
)

__version__ = "0.1.0"
