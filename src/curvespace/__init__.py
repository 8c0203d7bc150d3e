"""Sobolev-metric geometry of immersed curves.

Numerical toolkit for paths in spaces of immersed curves under the
reparametrization-invariant first-order Sobolev metric: geometric
quantities of discrete curves on constant-curvature surfaces, path speed
and horizontality diagnostics, variation-formula verification, reduced
geodesic solvers for concentric circles and coaxial helices, and
energy-minimizing paths of elastic curves.
"""

from .discrete_curves import (
    DiscreteCurve,
    TangentField,
    build_curve,
    cov_d_T,
    curve_from_dict,
    curve_to_dict,
    d_theta,
    length,
)
from .elastica import (
    ElasticaParams,
    ElasticaPathSpec,
    FrenetFrame,
    OptimizeOptions,
    circle_locus_residual,
    elastica_path_energy,
    optimize_elastica_path,
    reconstruct_curve,
    solve_curvature_profile,
)
from .errors import (
    CapabilityError,
    CurveSpaceError,
    DomainError,
    ImmersionError,
    InputFormatError,
    NormalityError,
    NumericFailure,
    OptimizationFailure,
    PreconditionError,
)
from .sobolev_metric import (
    CurvePath,
    PathDiagnostics,
    diagnose_path,
    horizontality_defect,
    make_path,
    normal_rows,
    path_energy,
    path_from_curves,
    path_from_dict,
    path_length,
    path_speed,
    path_to_dict,
    rho_kappa_defect,
    sobolev_inner,
)
from .space_forms import (
    Model,
    PolarFrame,
    SpaceForm,
    euclidean3d,
    exp_polar,
    hyperbolic,
    jacobi_residual,
    omega_profile,
    plane,
    polar_frame,
    space_from_dict,
    space_to_dict,
    sphere,
    standard_frame,
    surface_of_curvature,
)
from .special_geodesics import (
    ConcentricCircles,
    Helices,
    RadiusTrajectory,
    circle_profile_f,
    helix_profile_f,
    pendulum_residual,
    solve_concentric_geodesic,
    solve_helix_geodesic,
)
from .variations import (
    VariationReport,
    curvature_conservation_residual,
    fd_variation,
    parallel_geodesic_alpha,
    predicted_kappa_variation,
    predicted_omega_variation,
    shortening_flow_field,
    variation_report,
)

__version__ = "0.1.0"
