"""monolift: Gaussian-kernel lifting of monotone maps to the upper half space.

A map f of R^n is lifted to F on R^{n+1} by averaging f(x + t y) against
the standard Gaussian in y, with the extra coordinate given by the
correlation E[<f(x + t y), y>].  The package evaluates the lift and its
Jacobian, certifies delta-monotonicity and quasisymmetry numerically,
estimates doubling constants of ||Df|| densities, and compares the lift
against the hyperbolic geometry of the half space.
"""

__version__ = "0.1.0"

from .ballrules import BallRule, ball_integral, ball_rule, sphere_points
from .certify import (
    ClaimReport,
    CompositionReport,
    DeltaCertificate,
    EtaProfile,
    PairConfig,
    TripleConfig,
    claim_check,
    claim_constant,
    composition_monotonicity_demo,
    matrix_delta,
    matrix_delta_many,
    matrix_gamma,
    quasisymmetry_profile,
    sample_pairs,
    trivial_extension_witness,
    two_point_delta,
)
from .core import (
    KINDS,
    MapSpec,
    batch_map,
    compose_maps,
    convex_gradient_quartic_map,
    evaluate_map,
    evaluate_map_jacobian,
    identity_map,
    linear_map,
    map_spec_from_dict,
    parse_map_spec,
    planar_rotation_map,
    power_radial_map,
    rotation_matrix,
    translation_map,
)
from .differential import (
    extension_jacobian,
    extension_jacobians,
    finite_difference_jacobian,
    spectral_norms,
    unit_ball_norm_average,
)
from .errors import MonoliftError
from .extension import (
    ExtensionField,
    ExtensionTable,
    extend_grid,
    extend_point,
    extend_points,
    full_space_map,
    gaussian_extension,
    lattice_points,
    trivial_lift_map,
)
from .hyperbolic import (
    BilipschitzReport,
    HyperbolicReport,
    bilipschitz_sample,
    hyperbolic_distances,
    sample_height_pairs,
    vertical_comparison,
)
from .measure import (
    DoublingReport,
    MomentRatio,
    doubling_report,
    gaussian_moment_ratio,
    jacobian_norm_density,
    lebesgue_density,
)
from .quadrature import (
    QuadratureScheme,
    build_scheme,
    default_scheme,
    gaussian_expectation,
)
