"""Finitely generated max-min convex sets and axis-parallel boxes.

A generated set is the max-min convex hull of its generators: all points
⊕_j (λ_j ∧ v_j) with max_j λ_j = 1.  Membership and related queries reduce
to residuation: per generator there is a greatest feasible coefficient, and
the set of feasible coefficient vectors is closed under componentwise max,
so checking the principal (greatest) solution decides the query exactly.

The kernels run on tuples of any ordered scalars with a given top (see
core); the public functions at the end run them on the exact coordinates
with top 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ONE,
    Point,
    RankBox,
    Ranks,
    check_same_dim,
    join_ranks,
    leq,
    meet_ranks,
    residual,
)
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
    def coords(self) -> tuple[tuple[Fraction, ...], ...]:
        """The generators' coordinate tuples, as the kernels take them."""
        return tuple(v.coords for v in self.generators)


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


def principal(gens: tuple[Ranks, ...], cap: Ranks, top: int) -> list[int]:
    """Greatest λ_j with (λ_j ∧ v_j) ≤ cap, one per generator."""
    return [residual(v, cap, top) for v in gens]


def greatest_under(gens: tuple[Ranks, ...], cap: Ranks, top: int) -> Ranks | None:
    """Greatest hull point ≤ cap, or None if no hull point fits under cap.

    A hull point needs some coefficient equal to 1, which forces that
    generator below cap; so if no principal coefficient reaches 1 the
    search is empty.  Otherwise the principal combination dominates every
    hull point below cap and is itself one.
    """
    lams = principal(gens, cap, top)
    if top not in lams:
        return None
    return join_ranks([meet_ranks(lam, v) for lam, v in zip(lams, gens)])


def in_hull(gens: tuple[Ranks, ...], y: Ranks, top: int) -> bool:
    """Exact hull membership: y is a hull point iff it is the greatest hull
    point below itself."""
    return greatest_under(gens, y, top) == y


def box_hull_point(box: RankBox, gens: tuple[Ranks, ...], top: int) -> Ranks | None:
    """A common point of box and hull, or None if they are disjoint.

    If the intersection is non-empty it contains the greatest hull point
    under the upper corner, so checking that single point is complete.
    """
    g = greatest_under(gens, box.upper, top)
    if g is not None and leq(box.lower, g):
        return g
    return None


def bounds(gens: tuple[Ranks, ...]) -> RankBox:
    """Smallest box containing the hull.

    The hull lies between the componentwise min and the join of the
    generators, and both bounds are attained by hull points.
    """
    columns = list(zip(*gens))
    return RankBox(tuple(map(min, columns)), tuple(map(max, columns)))


def hulls_common_point(gens1: tuple[Ranks, ...], gens2: tuple[Ranks, ...], top: int) -> Ranks | None:
    """The greatest common point of two hulls, or None when they are disjoint.

    Alternate greatest_under against a shrinking cap.  The intersection of
    two hulls is closed under join, so when non-empty it has a greatest
    point; that point stays below the cap at every step, and each step
    either gives up (no hull point under the cap, hence no common point) or
    lands on a point whose coordinates come from the finite set of
    generator and cap values, so the descent reaches a fixed point lying in
    both hulls and above the greatest common point: that point itself.
    """
    n = len(gens1[0])
    values = {c for v in gens1 for c in v} | {c for v in gens2 for c in v}
    cap = (top,) * n
    for _ in range(n * (len(values) + 2) + 2):
        g1 = greatest_under(gens1, cap, top)
        if g1 is None:
            return None
        g2 = greatest_under(gens2, g1, top)
        if g2 is None:
            return None
        if g2 == cap:
            return cap
        cap = g2
    raise InternalError("hull intersection descent failed to terminate")


def principal_coefficients(C: GeneratedConvexSet, cap: Point) -> tuple[Fraction, ...]:
    """Greatest λ_j with (λ_j ∧ v_j) ≤ cap, one per generator."""
    check_same_dim(C.generators[0], cap)
    return tuple(principal(C.generators, cap, ONE))


def greatest_below(C: GeneratedConvexSet, cap: Point) -> Point | None:
    """Greatest hull point ≤ cap, or None; see greatest_under."""
    check_same_dim(C.generators[0], cap)
    g = greatest_under(C.generators, cap, ONE)
    return None if g is None else Point(g)


def hull_contains(C: GeneratedConvexSet, y: Point) -> bool:
    """Exact hull membership; see in_hull."""
    check_same_dim(C.generators[0], y)
    return in_hull(C.generators, y.coords, ONE)


def box_hull_witness(B: Box, C: GeneratedConvexSet) -> Point | None:
    """A common point of box and hull, or None; see box_hull_point."""
    check_same_dim(B.lower, C.generators[0])
    g = box_hull_point(B, C.generators, ONE)
    return None if g is None else Point(g)


def box_intersects_hull(B: Box, C: GeneratedConvexSet) -> bool:
    return box_hull_witness(B, C) is not None


def bounding_box(C: GeneratedConvexSet) -> Box:
    """Smallest box containing the hull; see bounds."""
    return Box(*map(Point, bounds(C.generators)))


def hull_intersection_witness(C1: GeneratedConvexSet, C2: GeneratedConvexSet) -> Point | None:
    """The greatest common point of two hulls, or None; see hulls_common_point."""
    check_same_dim(C1.generators[0], C2.generators[0])
    g = hulls_common_point(C1.coords, C2.coords, ONE)
    return None if g is None else Point(g)
