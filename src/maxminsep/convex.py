"""Finitely generated max-min convex sets and axis-parallel boxes.

A generated set is the max-min convex hull of its generators: all points
⊕_j (λ_j ∧ v_j) with max_j λ_j = 1.  Membership and related queries reduce
to residuation: per generator there is a greatest feasible coefficient, and
the set of feasible coefficient vectors is closed under componentwise max,
so checking the principal (greatest) solution decides the query exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import ONE, Point, check_same_dim, greatest_meet_coefficient, join, scale_meet
from .errors import InternalError


@dataclass(frozen=True)
class GeneratedConvexSet:
    """Max-min convex hull of a non-empty tuple of generators."""

    generators: tuple[Point, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("a generated set needs at least one generator")
        check_same_dim(*gens)
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return self.generators[0].dim


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [lower, upper], possibly degenerate to a point."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        check_same_dim(self.lower, self.upper)
        if not self.lower <= self.upper:
            raise ValueError(f"box lower bound {self.lower} exceeds upper bound {self.upper}")

    @property
    def dim(self) -> int:
        return self.lower.dim

    def contains_point(self, p: Point) -> bool:
        return self.lower <= p and p <= self.upper


def principal_coefficients(C: GeneratedConvexSet, cap: Point) -> tuple[Fraction, ...]:
    """Greatest λ_j with (λ_j ∧ v_j) ≤ cap, one per generator."""
    return tuple(greatest_meet_coefficient(v, cap) for v in C.generators)


def greatest_below(C: GeneratedConvexSet, cap: Point) -> Point | None:
    """Greatest hull point ≤ cap, or None if no hull point fits under cap.

    A hull point needs some coefficient equal to 1, which forces that
    generator below cap; so if no principal coefficient reaches 1 the
    search is empty.  Otherwise the principal combination dominates every
    hull point below cap and is itself one.
    """
    check_same_dim(C.generators[0], cap)
    lam = principal_coefficients(C, cap)
    if max(lam) != ONE:
        return None
    return join(*(scale_meet(l, v) for l, v in zip(lam, C.generators)))


def hull_contains(C: GeneratedConvexSet, y: Point) -> bool:
    """Exact hull membership: y is a hull point iff it is the greatest hull
    point below itself."""
    return greatest_below(C, y) == y


def box_hull_witness(B: Box, C: GeneratedConvexSet) -> Point | None:
    """A common point of box and hull, or None if they are disjoint.

    If the intersection is non-empty it contains the greatest hull point
    under B.upper, so checking that single point is complete.
    """
    check_same_dim(B.lower, C.generators[0])
    g = greatest_below(C, B.upper)
    if g is not None and B.lower <= g:
        return g
    return None


def box_intersects_hull(B: Box, C: GeneratedConvexSet) -> bool:
    return box_hull_witness(B, C) is not None


def bounding_box(C: GeneratedConvexSet) -> Box:
    """Smallest box containing the hull.

    The hull lies between the componentwise min and the join of the
    generators, and both bounds are attained by hull points.
    """
    lower = Point(tuple(min(v[i] for v in C.generators) for i in range(C.dim)))
    return Box(lower, join(*C.generators))


def hull_intersection_witness(C1: GeneratedConvexSet, C2: GeneratedConvexSet) -> Point | None:
    """A common point of two hulls, or None when they are disjoint.

    Cheap pass first: cross-membership of generators.  Then alternate
    greatest_below against a shrinking cap.  The intersection of two hulls
    is closed under join, so when non-empty it has a greatest point; that
    point stays below the cap at every step, and each step either gives up
    (no hull point under the cap, hence no common point) or lands on a
    point whose coordinates come from the finite set of generator and cap
    values, so the descent reaches a fixed point lying in both hulls.
    """
    check_same_dim(C1.generators[0], C2.generators[0])
    for g in C1.generators:
        if hull_contains(C2, g):
            return g
    for g in C2.generators:
        if hull_contains(C1, g):
            return g
    n = C1.dim
    values = {c for v in C1.generators for c in v} | {c for v in C2.generators for c in v}
    cap = Point.constant(n, 1)
    for _ in range(n * (len(values) + 2) + 2):
        g1 = greatest_below(C1, cap)
        if g1 is None:
            return None
        g2 = greatest_below(C2, g1)
        if g2 is None:
            return None
        if g2 == cap:
            return cap
        cap = g2
    raise InternalError("hull intersection descent failed to terminate")
