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

Each semispace and hemispace is a union of open half-spaces, at most one
{x : x_o < tau} and some {x : x_m > a}; that clause form is written once, in
clauses, and membership, misses_box, canonical_form and svg read it.

Descriptors are plain containers: the kernels here take descriptors whose
x0 is a tuple of ordered scalars (ranks in the CLI, see core) and only
index and compare it, so the public functions pass their Fraction points
and descriptors in as they are; semispace_family takes Fraction points.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from .core import ONE, Point, RankBox, Ranks, Scale, check_same_dim, descending_order

if TYPE_CHECKING:  # annotations only
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


@dataclass(frozen=True)
class SemispaceDescriptor:
    """One semispace: defining point and the 0-based coordinate its first
    clause tests, None for the upper type.

    The membership predicate is well-defined for any x0 and coordinate;
    whether the descriptor is a genuine family member is decided by
    semispace_family.  The defining point never satisfies the predicate.
    """

    x0: Point | Ranks
    coordinate: int | None

    def __post_init__(self) -> None:
        if self.coordinate is not None and not 0 <= self.coordinate < len(self.x0):
            raise ValueError(f"semispace coordinate {self.coordinate} outside 0..{len(self.x0) - 1}")

    def canonical_form(self):
        """Hashable identity of the point set the descriptor denotes."""
        below, above = clauses(self)
        if below is None:
            return ("S0", tuple(self.x0))
        return ("Si", *below, frozenset(above))


@dataclass(frozen=True)
class HemispaceDescriptor:
    """Union of upper half-spaces over a coordinate subset M:
    {x : x_i > x0_i for some i in M}."""

    x0: Point | Ranks
    M: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", frozenset(self.M))
        for i in self.M:
            if not 0 <= i < len(self.x0):
                raise ValueError(f"coordinate {i} outside the point dimension")


Descriptor = SemispaceDescriptor | HemispaceDescriptor


def decode_descriptor(s: Scale, S: Descriptor) -> Descriptor:
    return replace(S, x0=s.decode(S.x0))


def clauses(S: Descriptor) -> tuple[tuple[int, object] | None, list[tuple[int, object]]]:
    """The open half-spaces whose union is S: (o, tau) for {x : x_o < tau},
    None when S has no such clause, and the list of (m, a), one for each
    {x : x_m > a}, in coordinate order."""
    x0 = S.x0
    if isinstance(S, HemispaceDescriptor):
        return None, [(i, x0[i]) for i in sorted(S.M)]
    o = S.coordinate
    if o is None:
        return None, list(enumerate(x0))
    tau = x0[o]
    return (o, tau), [(m, a) for m, a in enumerate(x0) if a < tau]


def membership(S: Descriptor) -> Callable[[Ranks], bool]:
    """The membership predicate of a rank descriptor."""
    below, above = clauses(S)
    o, tau = below or (0, 0)  # x_0 < 0 holds nowhere in the cube
    return lambda x: x[o] < tau or any(x[m] > a for m, a in above)


def misses_box(S: Descriptor, box: Box | RankBox) -> bool:
    """Exact emptiness of S ∩ box in closed form: the box misses each
    half-space of S (see clauses).  It misses {x : x_o < tau} when
    lower_o ≥ tau, and {x : x_m > a} when upper_m ≤ a."""
    below, above = clauses(S)
    return (below is None or box.lower[below[0]] >= below[1]) and all(box.upper[m] <= a for m, a in above)


def first_outside(gens: tuple[Ranks, ...], S: Descriptor) -> Ranks | None:
    """Containment oracle: None if every generator lies in S, else
    the first failing generator.  Semispaces are max-min convex, so
    generator containment is equivalent to hull containment."""
    member = membership(S)
    for v in gens:
        if not member(v):
            return v
    return None


def sorted_profile(x0: Point) -> SortedProfile:
    """Sort x0 descending and locate its first zero and any one."""
    perm = descending_order(x0)
    values = [x0[o] for o in perm]
    beta = next((p for p, v in enumerate(values, start=1) if v == 0), None)
    return SortedProfile(perm=perm, beta=beta, has_one=values[0] == ONE)


def semispace_family(x0: Point) -> list[SemispaceDescriptor]:
    """All semispaces at x0, upper type first, then the coordinates in
    descending sorted order.

    Finite x0 gets all n+1.  A coordinate equal to 1 makes the upper type
    non-maximal (it sinks into the semispace at that coordinate), so it is
    dropped.  Sorted positions at and after the first zero coordinate beta
    denote empty sets and are dropped too.
    """
    profile = sorted_profile(x0)
    last = len(x0) if profile.beta is None else profile.beta - 1
    upper = [] if profile.has_one else [None]
    return [SemispaceDescriptor(x0, o) for o in upper + list(profile.perm[:last])]


def semispace_contains(S: SemispaceDescriptor, x: Point) -> bool:
    """Evaluate the membership predicate exactly."""
    check_same_dim(S.x0, x)
    return membership(S)(x)


def hemispace_contains(H: HemispaceDescriptor, x: Point) -> bool:
    check_same_dim(H.x0, x)
    return membership(H)(x)


def semispace_avoids_box(S: SemispaceDescriptor, B: Box) -> bool:
    """Exact emptiness of S ∩ B; see misses_box."""
    check_same_dim(S.x0, B.lower)
    return misses_box(S, B)


def hemispace_avoids_box(H: HemispaceDescriptor, B: Box) -> bool:
    """Exact emptiness of H ∩ B: the box must stay below x0 on M."""
    check_same_dim(H.x0, B.lower)
    return misses_box(H, B)


def set_in_semispace(C: GeneratedConvexSet, S: Descriptor) -> Point | None:
    """Containment oracle: None if every generator lies in S, else the first
    failing generator; see first_outside."""
    return first_outside(C.generators, S)
