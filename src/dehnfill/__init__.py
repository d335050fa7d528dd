"""Exact slope calculus, degeneracy loci, guaranteed filling intervals and
train-track verification for boundary tori of fibered 3-manifolds."""

from .arcs import (
    AdmissibleArcSystem,
    push_off,
    refined_matching,
    validate_system,
)
from .census import census_entries, census_verify, rp3_family_rows
from .filling import (
    analyze_multislope,
    check_fried,
    excluded_window,
    guaranteed_interval,
    zung_sign_check,
)
from .ladders import (
    LadderTrack,
    check_two_line_property,
    enumerate_carried_paths,
    kernel_backend,
    orient_ladder,
    random_ladder,
    separation_check,
    verify_ladders,
)
from .tracks import (
    EndpointConfig,
    TorusTrainTrack,
    build_boundary_track,
    carried_slopes,
    integral_carried_classes,
    weight_cone,
)
from .monodromy import (
    BoundaryOrbit,
    DegeneracyLocus,
    MonodromyBoundaryAction,
    boundary_orbits,
    canonical_locus,
    classify_coorientation,
    locus_distance,
    orbit_decomposition,
)
from .slopes import (
    INFINITY,
    LONGITUDE,
    BasisChange,
    ProjectiveSlope,
    SlopeInterval,
    apply_basis_change,
    canonical_meridian,
    distance,
    div_slope,
    format_slope,
    parse_slope,
    slope,
)

__version__ = "0.1.0"
