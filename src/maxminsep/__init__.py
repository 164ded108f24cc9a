"""Exact max-min convex separation on the unit cube.

The functions here run each algorithm on exact fractions.Fraction
coordinates; the CLI runs the same kernels on int ranks of a per-instance
Scale (see maxminsep.core).  Every positive answer carries a certificate
and every negative answer carries a witness.
"""
from .core import (
    ONE,
    ZERO,
    Point,
    as_scalar,
    greatest_meet_coefficient,
    join,
    scale_meet,
    segment_contains,
)
from .convex import (
    Box,
    GeneratedConvexSet,
    bounding_box,
    box_hull_witness,
    box_intersects_hull,
    greatest_below,
    hull_contains,
    hull_intersection_witness,
    principal_coefficients,
)
from .errors import (
    BoundaryError,
    DimensionError,
    ExhaustionError,
    InternalError,
    IntersectionError,
    MaxMinError,
    ParseError,
    ResourceLimitError,
)
from .semispaces import (
    HemispaceDescriptor,
    SemispaceDescriptor,
    hemispace_avoids_box,
    hemispace_contains,
    semispace_avoids_box,
    semispace_contains,
    semispace_family,
    set_in_semispace,
    sorted_profile,
)
from .separation import (
    HEMISPACE,
    NOT_SEPARABLE,
    SEMISPACE,
    SeparationCertificate,
    TraceEntry,
    box_profile,
    check_sep_cond,
    lower_partition,
    separate_box,
)
from .planar import (
    PlanarBoxCertificate,
    PlanarExtremes,
    RegionLabel,
    planar_extremes,
    region_classify,
    separate_box_semispace,
    separate_two_sets,
)
from .oracle import Grid

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "ZERO",
    "Point",
    "as_scalar",
    "greatest_meet_coefficient",
    "join",
    "scale_meet",
    "segment_contains",
    "Box",
    "GeneratedConvexSet",
    "bounding_box",
    "box_hull_witness",
    "box_intersects_hull",
    "greatest_below",
    "hull_contains",
    "hull_intersection_witness",
    "principal_coefficients",
    "BoundaryError",
    "DimensionError",
    "ExhaustionError",
    "InternalError",
    "IntersectionError",
    "MaxMinError",
    "ParseError",
    "ResourceLimitError",
    "HemispaceDescriptor",
    "SemispaceDescriptor",
    "hemispace_avoids_box",
    "hemispace_contains",
    "semispace_avoids_box",
    "semispace_contains",
    "semispace_family",
    "set_in_semispace",
    "sorted_profile",
    "HEMISPACE",
    "NOT_SEPARABLE",
    "SEMISPACE",
    "SeparationCertificate",
    "TraceEntry",
    "box_profile",
    "check_sep_cond",
    "lower_partition",
    "separate_box",
    "PlanarBoxCertificate",
    "PlanarExtremes",
    "RegionLabel",
    "planar_extremes",
    "region_classify",
    "separate_box_semispace",
    "separate_two_sets",
    "Grid",
    "__version__",
]
