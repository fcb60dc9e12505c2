"""blueskylab: a numerical laboratory for the return maps of a saddle
periodic orbit whose unstable manifold is homoclinic.

The package instantiates the model family in explicit coordinates,
certifies the degree-trichotomy conditions, and computes the attractor
born when the homoclinic connection splits: a single long-period stable
orbit (degree 0), an invariant torus or Klein bottle (degree +-1), or a
uniformly hyperbolic Smale-Williams solenoid (degree >= 2 in modulus).
"""

from .analysis import (
    AnnulusDiagnostic,
    AttractorLabel,
    BranchAmbiguity,
    ClassificationRecord,
    ConeCertificate,
    FixedPointResult,
    InvariantCurve,
    ItineraryReport,
    LyapunovSpectrum,
    NoConvergence,
    NotACircleMap,
    NotExpandingInTheta,
    Orientation,
    annulus_diagnostic,
    branch_boundaries,
    certify_jacobian_field,
    circle_degree,
    classify_attractor,
    classify_attractors,
    cone_certify,
    find_fixed_point,
    find_fixed_points,
    graph_transform_curve,
    itinerary_semiconjugacy,
    lyapunov_spectrum,
)
from .conditions import (
    CaseMismatch,
    CaseTag,
    ConditionReport,
    Inconclusive,
    case_for_degree,
    certified_angular_expansion,
    check_case,
    criterion_function,
    criterion_lipschitz,
)
from .experiments import (
    GLOBAL_TRANSIT_TIME,
    InsufficientData,
    ScalingFit,
    SweepRecord,
    ThresholdStudy,
    fit_period_scaling,
    geometric_mu_grid,
    mu_sweep,
    sweep_csv_text,
    threshold_study,
    write_sweep_csv,
)
from .fourier import FourierSeries
from .model import (
    DomainError,
    EscapedTube,
    InvalidModel,
    ModelConfig,
    NoTrappingRadius,
    TorusPoint,
    Undecided,
    ValidatedModel,
    load_config,
    load_model,
    parse_config,
    require_mu,
    validate_config,
)

__version__ = "0.1.0"
