"""Brute-force referees on finite grids.

Everything here is deliberately independent of the residuation shortcuts
in the rest of the library: hulls are segment closures computed to a
fixpoint, convexity is checked pair by pair, and separators are found by
exhaustive enumeration.  Internally the grid is handled as integer index
tuples; conversion happens only at the boundary, so the referee stays
exact and reasonably fast.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import Point, check_same_dim
from .convex import Box, GeneratedConvexSet
from .errors import ResourceLimitError
from .semispaces import (
    SemispaceDescriptor,
    semispace_avoids_box,
    semispace_family,
    set_in_semispace,
)


MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class Grid:
    """The uniform grid {0, 1/d, ..., 1}^n; contains 0 and 1 and is closed
    under min and max.  Enumerations refuse to run past MAX_GRID_POINTS."""

    denominator: int
    dimension: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("grid denominator must be a positive integer")
        if self.dimension < 1:
            raise ValueError("grid dimension must be a positive integer")

    @property
    def size(self) -> int:
        return (self.denominator + 1) ** self.dimension

    def values(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(k, d) for k in range(d + 1))

    def guard(self) -> None:
        if self.size > MAX_GRID_POINTS:
            raise ResourceLimitError(
                f"grid holds {self.size} points, above the {MAX_GRID_POINTS} bound"
            )

    def points(self) -> Iterator[Point]:
        """All grid points in lexicographic coordinate order."""
        self.guard()
        for coords in itertools.product(self.values(), repeat=self.dimension):
            yield Point(coords)

    def index_of(self, p: Point) -> tuple[int, ...]:
        """Integer indices of an on-grid point; ValueError off the grid."""
        if p.dim != self.dimension:
            raise ValueError(f"point dimension {p.dim} does not match grid {self.dimension}")
        idx = []
        for c in p:
            k = c * self.denominator
            if k.denominator != 1:
                raise ValueError(f"{p} is not on the 1/{self.denominator} grid")
            idx.append(int(k))
        return tuple(idx)

    def point_at(self, idx: tuple[int, ...]) -> Point:
        d = self.denominator
        return Point(tuple(Fraction(k, d) for k in idx))

    def contains(self, p: Point) -> bool:
        try:
            self.index_of(p)
        except ValueError:
            return False
        return True


def _segment_indices(a: tuple[int, ...], b: tuple[int, ...], d: int) -> Iterator[tuple[int, ...]]:
    # grid points of the segment [a, b]: one endpoint coefficient pinned at
    # d (= scalar 1), the other swept over 0..d
    for beta in range(d + 1):
        yield tuple(max(ai, min(beta, bi)) for ai, bi in zip(a, b))
        yield tuple(max(bi, min(beta, ai)) for ai, bi in zip(a, b))


def grid_hull(points: Iterable[Point], grid: Grid) -> frozenset[Point]:
    """Segment closure of on-grid points, computed to a fixpoint.

    Worklist over pairs: each popped point is combined with everything
    already collected (including itself); new points join the worklist.
    Terminates because the grid is finite; stops early once the closure
    saturates the whole grid.
    """
    grid.guard()
    pts = list(points)
    if not pts:
        return frozenset()
    d = grid.denominator
    closure: set[tuple[int, ...]] = {grid.index_of(p) for p in pts}
    queue = list(closure)
    full = grid.size
    while queue and len(closure) < full:
        a = queue.pop()
        for b in list(closure):
            for combo in _segment_indices(a, b, d):
                if combo not in closure:
                    closure.add(combo)
                    queue.append(combo)
    return frozenset(grid.point_at(idx) for idx in closure)


def brute_is_convex(points: Iterable[Point], grid: Grid) -> bool:
    """Check closure of an on-grid point set under grid segments."""
    pts = list(points)
    if len(pts) <= 1:
        return True
    check_same_dim(*pts)
    d = grid.denominator
    idx = {grid.index_of(p) for p in pts}
    for a in idx:
        for b in idx:
            for combo in _segment_indices(a, b, d):
                if combo not in idx:
                    return False
    return True


def brute_separation_search(
    B: Box, C: GeneratedConvexSet, grid: Grid
) -> SemispaceDescriptor | None:
    """First semispace at a grid point that contains C and misses B.

    Box corners and generators must lie on the grid (ValueError
    otherwise).  Enumerates grid points lexicographically and each point's
    family in order; completely independent of the constructive pipeline.
    Returns None when no grid candidate separates (in particular whenever
    box and hull intersect).
    """
    check_same_dim(B.lower, C.generators[0])
    for corner in (B.lower, B.upper):
        if not grid.contains(corner):
            raise ValueError(f"box corner {corner} is not on the 1/{grid.denominator} grid")
    for v in C.generators:
        if not grid.contains(v):
            raise ValueError(f"generator {v} is not on the 1/{grid.denominator} grid")
    return first_grid_separator(B, C, grid)


def first_grid_separator(
    B: Box, C: GeneratedConvexSet, grid: Grid
) -> SemispaceDescriptor | None:
    """First semispace at a grid point, in grid order and family order, that
    contains C and misses B; None when there is none.  B and C may lie off
    the grid."""
    for x0 in grid.points():
        for S in semispace_family(x0):
            if set_in_semispace(C, S) is None and semispace_avoids_box(S, B):
                return S
    return None
