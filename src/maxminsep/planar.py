"""Two-set separation in the unit square.

Two disjoint generated sets in dimension 2 can always be separated by an
axis-parallel box around one of them; if both sit strictly inside the
square, the box can be complemented by a semispace around the other set.
The box comes from a fixed candidate list derived from the bounding boxes
of the two sets; each candidate is validated exactly before being
returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import ONE, ZERO, Point, join
from .convex import (
    Box,
    GeneratedConvexSet,
    bounding_box,
    box_intersects_hull,
    hull_contains,
    hull_intersection_witness,
)
from .errors import (
    BoundaryError,
    DimensionError,
    ExhaustionError,
    InternalError,
    IntersectionError,
)
from .semispaces import SemispaceDescriptor
from .separation import SEMISPACE, separate_box


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
    box: Box


def _require_planar(*sets: GeneratedConvexSet) -> None:
    for C in sets:
        if C.dim != 2:
            raise DimensionError(f"planar separation needs dimension 2, got {C.dim}")


def planar_extremes(C: GeneratedConvexSet) -> PlanarExtremes:
    """Extremal generators and bounding box of a planar set."""
    _require_planar(C)
    gens = C.generators
    # min is stable, so full ties fall back to input order by themselves
    a = min(gens, key=lambda p: (p[0], p[1]))
    b = min(gens, key=lambda p: (p[1], p[0]))
    return PlanarExtremes(a=a, b=b, c=join(*gens), B0=bounding_box(C))


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
    x, y = p[0], p[1]
    if x < E.b[0] and y < E.a[1]:
        return RegionLabel.T1
    if y > E.a[1] and x < E.c[0] and y > x:
        return RegionLabel.T2
    if x > E.b[0] and y < E.c[1] and y < x:
        return RegionLabel.T3
    triangle = GeneratedConvexSet((E.a, E.b, E.c))
    if not hull_contains(triangle, p):
        raise InternalError(f"residual region point {p} escapes the hull of a, b, c")
    return RegionLabel.T0


def separate_two_sets(C1: GeneratedConvexSet, C2: GeneratedConvexSet) -> PlanarBoxCertificate:
    """Box one of two disjoint planar sets away from the other.

    Tries, in order: the bounding box of C1, of C2, then for each set the
    four corner boxes spanned by its bounding-box extremes and the square
    corners.  A candidate wins when it contains its set's bounding box and
    misses the other hull; the first winner is returned.
    """
    _require_planar(C1, C2)
    shared = hull_intersection_witness(C1, C2)
    if shared is not None:
        raise IntersectionError(f"the hulls share the point {shared}", witness=shared)
    bb = {1: bounding_box(C1), 2: bounding_box(C2)}
    candidates: list[tuple[int, Box]] = [(1, bb[1]), (2, bb[2])]
    for which in (2, 1):
        minx, miny = bb[which].lower
        maxx, maxy = bb[which].upper
        candidates.extend(
            (which, box)
            for box in (
                Box(Point.of(ZERO, ZERO), Point.of(maxx, maxy)),
                Box(Point.of(ZERO, miny), Point.of(maxx, ONE)),
                Box(Point.of(minx, ZERO), Point.of(ONE, maxy)),
                Box(Point.of(minx, miny), Point.of(ONE, ONE)),
            )
        )
    for which, box in candidates:
        inner = bb[which]
        other = C2 if which == 1 else C1
        if box.lower <= inner.lower and inner.upper <= box.upper and not box_intersects_hull(box, other):
            return PlanarBoxCertificate(boxed_set=which, box=box)
    raise ExhaustionError("no candidate box separates the two sets")


def separate_box_semispace(
    C1: GeneratedConvexSet, C2: GeneratedConvexSet
) -> tuple[PlanarBoxCertificate, SemispaceDescriptor]:
    """Box one set and wrap the other in a semispace missing the box.

    Both sets must avoid the square boundary: every generator coordinate
    strictly inside (0, 1).  The separating box is shrunk to the boxed
    set's bounding box (a subset of a valid separator still separates);
    its upper bounds then stay below 1, so the box-side condition holds
    and semispace separation of the other set succeeds.
    """
    _require_planar(C1, C2)
    for C in (C1, C2):
        for v in C.generators:
            if any(c == ZERO or c == ONE for c in v):
                raise BoundaryError(f"generator {v} touches the square boundary")
    cert = separate_two_sets(C1, C2)
    boxed, other = (C1, C2) if cert.boxed_set == 1 else (C2, C1)
    tight = bounding_box(boxed)
    if box_intersects_hull(tight, other):
        raise InternalError("shrunk box meets the other hull despite a valid separator")
    inner = separate_box(tight, other, with_fallback=False)
    if inner.outcome != SEMISPACE or not isinstance(inner.separator, SemispaceDescriptor):
        raise InternalError("semispace stage failed although the box stays below 1")
    return PlanarBoxCertificate(boxed_set=cert.boxed_set, box=tight), inner.separator
