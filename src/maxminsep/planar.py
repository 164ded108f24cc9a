"""Two-set separation in the unit square.

Two disjoint generated sets in dimension 2 can always be separated by an
axis-parallel box around one of them; if both sit strictly inside the
square, the box can be complemented by a semispace around the other set.
The box is the bounding box of one set, validated exactly against the
other hull.  The separations run on tuples of any ordered scalars with a
given top (see core); their public functions at the end run them on the
exact coordinates with top 1.  The four-region split takes Fraction points.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .core import EXACT, ONE, Point, RankBox, Ranks, Scale
from .convex import (
    Box,
    GeneratedConvexSet,
    bounding_box,
    bounds,
    box_hull_point,
    hulls_common_point,
    in_hull,
)
from .errors import (
    BoundaryError,
    DimensionError,
    ExhaustionError,
    InternalError,
    IntersectionError,
)
from .semispaces import SemispaceDescriptor, decode_descriptor
from .separation import SEMISPACE, separate


class RegionLabel(Enum):
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class PlanarExtremes:
    """Extremal data of a planar generated set.

    a is the generator with least x (ties: least y, then input order), b the
    one with least y (ties: least x, then input order), c the join of all
    generators, which always lies in the hull.  B0 is the bounding box.
    """

    a: Point
    b: Point
    c: Point
    B0: Box


@dataclass(frozen=True)
class PlanarBoxCertificate:
    """Which set got boxed (1 or 2) and the separating box."""

    boxed_set: int
    box: Box | RankBox


def _require_planar(*sets: tuple[Ranks, ...]) -> None:
    for gens in sets:
        if len(gens[0]) != 2:
            raise DimensionError(f"planar separation needs dimension 2, got {len(gens[0])}")


def box_one_set(scale: Scale, gens1: tuple[Ranks, ...], gens2: tuple[Ranks, ...]) -> PlanarBoxCertificate:
    """Box one of two disjoint planar sets away from the other, on the
    scalars of `scale` (a Scale's ranks, or exact values under EXACT).

    Returns the first of the two sets' bounding boxes, in that order, that
    misses the other set's hull.  No other box can win: a box around a set
    contains its bounding box, so it meets the other hull whenever the
    bounding box does.  Each box holds every common point of the hulls, so
    the descent that names the greatest one runs only when both fail.
    """
    _require_planar(gens1, gens2)
    top = scale.top
    for which, inner, other in ((1, gens1, gens2), (2, gens2, gens1)):
        box = bounds(inner)
        if box_hull_point(box, other, top) is None:
            return PlanarBoxCertificate(boxed_set=which, box=box)
    shared = hulls_common_point(gens1, gens2, top)
    if shared is not None:
        point = scale.decode(shared)
        raise IntersectionError(f"the hulls share the point {point}", witness=point)
    raise ExhaustionError("no candidate box separates the two sets")


def box_and_semispace(
    scale: Scale, gens1: tuple[Ranks, ...], gens2: tuple[Ranks, ...]
) -> tuple[PlanarBoxCertificate, SemispaceDescriptor]:
    """Box one set and wrap the other in a semispace missing the box, on the
    scalars of `scale` (a Scale's ranks, or exact values under EXACT).

    Both sets must avoid the square boundary: every generator coordinate
    strictly inside (0, 1).  box_one_set returns the boxed set's bounding
    box, whose upper bounds then stay below 1, so the box-side condition
    holds and semispace separation of the other set succeeds.
    """
    _require_planar(gens1, gens2)
    for gens in (gens1, gens2):
        for v in gens:
            if any(c == 0 or c == scale.top for c in v):
                raise BoundaryError(f"generator {scale.decode(v)} touches the square boundary")
    cert = box_one_set(scale, gens1, gens2)
    other = gens2 if cert.boxed_set == 1 else gens1
    inner = separate(scale, cert.box, other, with_fallback=False)
    if inner.outcome != SEMISPACE or not isinstance(inner.separator, SemispaceDescriptor):
        raise InternalError("semispace stage failed although the box stays below 1")
    return cert, inner.separator


def planar_extremes(C: GeneratedConvexSet) -> PlanarExtremes:
    """Extremal generators and bounding box of a planar set."""
    gens = C.generators
    _require_planar(gens)
    # min is stable, so full ties fall back to input order by themselves
    a = min(gens, key=lambda p: (p[0], p[1]))
    b = min(gens, key=lambda p: (p[1], p[0]))
    B0 = bounding_box(C)
    return PlanarExtremes(a=a, b=b, c=B0.upper, B0=B0)


def region_classify(E: PlanarExtremes, p: Point) -> RegionLabel:
    """Classify a point of the square against the four-region split of B0.

    The three corner regions T1, T2, T3 are pairwise disjoint by their
    defining inequalities; what is left of B0 is the hull of {a, b, c},
    which is certified on the spot.
    """
    if p.dim != 2:
        raise DimensionError(f"expected a planar point, got dimension {p.dim}")
    if not E.B0.contains_point(p):
        return RegionLabel.OUTSIDE
    x, y = p
    if x < E.b[0] and y < E.a[1]:
        return RegionLabel.T1
    if y > E.a[1] and x < E.c[0] and y > x:
        return RegionLabel.T2
    if x > E.b[0] and y < E.c[1] and y < x:
        return RegionLabel.T3
    if not in_hull((E.a, E.b, E.c), p.coords, ONE):
        raise InternalError(f"residual region point {p} escapes the hull of a, b, c")
    return RegionLabel.T0


def _exact(cert: PlanarBoxCertificate) -> PlanarBoxCertificate:
    """The certificate with its box of exact values made a Box."""
    return replace(cert, box=Box(*map(Point, cert.box)))


def separate_two_sets(C1: GeneratedConvexSet, C2: GeneratedConvexSet) -> PlanarBoxCertificate:
    """Box one of two disjoint planar sets away from the other; see
    box_one_set."""
    return _exact(box_one_set(EXACT, C1.coords, C2.coords))


def separate_box_semispace(
    C1: GeneratedConvexSet, C2: GeneratedConvexSet
) -> tuple[PlanarBoxCertificate, SemispaceDescriptor]:
    """Box one set and wrap the other in a semispace missing the box; see
    box_and_semispace."""
    cert, S = box_and_semispace(EXACT, C1.coords, C2.coords)
    return _exact(cert), decode_descriptor(EXACT, S)
