"""Exact max-min convex separation on the unit cube.

The functions here run each algorithm on exact fractions.Fraction
coordinates; the CLI runs the same kernels on int ranks of a per-instance
Scale (see maxminsep.core).  Every positive answer carries a certificate
and every negative answer carries a witness.

Importing the package loads none of its modules: each exported name is
read from its defining module on first use (PEP 562), so `python -m
maxminsep` loads only what its subcommand runs.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": "ONE ZERO Point as_scalar greatest_meet_coefficient join scale_meet segment_contains",
    "convex": "Box GeneratedConvexSet bounding_box box_hull_witness box_intersects_hull greatest_below"
    " hull_contains hull_intersection_witness principal_coefficients",
    "errors": "BoundaryError DimensionError ExhaustionError InternalError IntersectionError MaxMinError"
    " ParseError ResourceLimitError",
    "semispaces": "HemispaceDescriptor SemispaceDescriptor hemispace_avoids_box hemispace_contains"
    " semispace_avoids_box semispace_contains semispace_family set_in_semispace sorted_profile",
    "separation": "HEMISPACE NOT_SEPARABLE SEMISPACE SeparationCertificate TraceEntry box_profile"
    " check_sep_cond lower_partition separate_box",
    "planar": "PlanarBoxCertificate PlanarExtremes RegionLabel planar_extremes region_classify"
    " separate_box_semispace separate_two_sets",
    "oracle": "Grid",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """Load an exported name from its defining module, once."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
