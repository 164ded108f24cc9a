"""Semispaces of the unit cube under max-min convexity.

A semispace at x0 is a maximal max-min convex set avoiding x0.  At every
point they form a finite family: the upper type and at most one semispace
per coordinate i, listed in the order that sorts x0 descending:

  upper type:    {x : x_k > x0_k for some k}
  coordinate i:  {x : x_i < x0_i, or x_m > x0_m for some m with x0_m < x0_i}

The second form is a single predicate covering both displayed shapes of the
family (equal blocks and strictly decreasing stretches of the sorted
coordinates): the clause set {m : x0_m < x0_i} is exactly "every position
after the block of i" in sorted order.  A descriptor holds what the wire
format holds, x0 and the coordinate i (None for the upper type).  Which
members actually belong to the family depends on the coordinates of x0
that sit on the cube boundary; see semispace_family.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import ONE, ZERO, Point, check_same_dim, descending_order
from .convex import Box, GeneratedConvexSet


@dataclass(frozen=True)
class SortedProfile:
    """One point sorted into descending coordinate order.

    perm maps 1-based sorted positions to 0-based original coordinates
    (ties keep original order, see core.descending_order).  beta is the
    1-based sorted position of the first zero coordinate (None if x0 has no
    zero); has_one says whether some coordinate equals 1.
    """

    perm: tuple[int, ...]
    beta: int | None
    has_one: bool


def sorted_profile(x0: Point) -> SortedProfile:
    """Sort x0 descending and locate its first zero and any one."""
    perm = descending_order(x0)
    values = [x0[o] for o in perm]
    beta = next((p for p, v in enumerate(values, start=1) if v == ZERO), None)
    return SortedProfile(perm=perm, beta=beta, has_one=values[0] == ONE)


@dataclass(frozen=True)
class SemispaceDescriptor:
    """One semispace: defining point and the 0-based coordinate its first
    clause tests, None for the upper type.

    The membership predicate is well-defined for any x0 and coordinate;
    whether the descriptor is a genuine family member is decided by
    semispace_family.  The defining point never satisfies the predicate.
    """

    x0: Point
    coordinate: int | None

    def __post_init__(self) -> None:
        if self.coordinate is not None and not 0 <= self.coordinate < self.x0.dim:
            raise ValueError(f"semispace coordinate {self.coordinate} outside 0..{self.x0.dim - 1}")

    def canonical_form(self):
        """Hashable identity of the point set the descriptor denotes."""
        if self.coordinate is None:
            return ("S0", self.x0.coords)
        tau = self.x0[self.coordinate]
        clauses = frozenset(
            (m, self.x0[m]) for m in range(self.x0.dim) if self.x0[m] < tau
        )
        return ("Si", self.coordinate, tau, clauses)


@dataclass(frozen=True)
class HemispaceDescriptor:
    """Union of upper half-spaces over a coordinate subset M:
    {x : x_i > x0_i for some i in M}."""

    x0: Point
    M: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", frozenset(self.M))
        for i in self.M:
            if not 0 <= i < self.x0.dim:
                raise ValueError(f"coordinate {i} outside the point dimension")


def semispace_contains(S: SemispaceDescriptor, x: Point) -> bool:
    """Evaluate the membership predicate exactly."""
    check_same_dim(S.x0, x)
    x0, o = S.x0, S.coordinate
    if o is None:
        return any(x[i] > x0[i] for i in range(x0.dim))
    tau = x0[o]
    if x[o] < tau:
        return True
    return any(x0[m] < tau and x[m] > x0[m] for m in range(x0.dim))


def hemispace_contains(H: HemispaceDescriptor, x: Point) -> bool:
    check_same_dim(H.x0, x)
    return any(x[i] > H.x0[i] for i in H.M)


def semispace_family(x0: Point) -> list[SemispaceDescriptor]:
    """All semispaces at x0, upper type first, then the coordinates in
    descending sorted order.

    Finite x0 gets all n+1.  A coordinate equal to 1 makes the upper type
    non-maximal (it sinks into the semispace at that coordinate), so it is
    dropped.  Sorted positions at and after the first zero coordinate beta
    denote empty sets and are dropped too.
    """
    profile = sorted_profile(x0)
    last = x0.dim if profile.beta is None else profile.beta - 1
    family = [SemispaceDescriptor(x0, None)] if not profile.has_one else []
    family += [SemispaceDescriptor(x0, o) for o in profile.perm[:last]]
    return family


def semispace_avoids_box(S: SemispaceDescriptor, B: Box) -> bool:
    """Exact emptiness of S ∩ B in closed form.

    Upper type: every box point is ≤ upper, so avoidance is upper ≤ x0.
    Index type: the box must sit at or above the threshold coordinate
    (lower ≥ x0 there) and below x0 on every coordinate the second clause
    watches (upper ≤ x0 on {m : x0_m < threshold}).
    """
    check_same_dim(S.x0, B.lower)
    x0, o = S.x0, S.coordinate
    if o is None:
        return B.upper <= x0
    tau = x0[o]
    if B.lower[o] < tau:
        return False
    return all(B.upper[m] <= x0[m] for m in range(x0.dim) if x0[m] < tau)


def hemispace_avoids_box(H: HemispaceDescriptor, B: Box) -> bool:
    """Exact emptiness of H ∩ B: the box must stay below x0 on M."""
    check_same_dim(H.x0, B.lower)
    return all(B.upper[i] <= H.x0[i] for i in H.M)


def set_in_semispace(
    C: GeneratedConvexSet, S: SemispaceDescriptor | HemispaceDescriptor
) -> Point | None:
    """Containment oracle: None if every generator lies in S, else the first
    failing generator.  Semispaces are max-min convex, so generator
    containment is equivalent to hull containment."""
    member = hemispace_contains if isinstance(S, HemispaceDescriptor) else semispace_contains
    for v in C.generators:
        if not member(S, v):
            return v
    return None
