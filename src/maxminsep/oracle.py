"""Referees: brute-force sweeps on finite grids, and an exact separability decision.

The grid {0, 1/d, ..., 1}^n is the referee's universe: `verify` checks a
certificate by sweeping the grid points where a counterexample could sit.
Whether any semispace separates a box from a generated set needs no grid:
exact_separator decides it from n+1 extreme candidates.

Sweeps run on ranks, not on scalars.  RankGrid is the library's Scale
(see core) of the instance's and the certificate's scalars with the grid
values k/d added: it numbers them all 0..K, and a point becomes the tuple
of its coordinates' ranks.  Max-min membership only compares coordinates
(hulls take mins and maxes of input values), so this order-preserving
relabel is exact and the inner loops compare small ints.  Only a point
that is returned gets decoded.

Each sweep enumerates a region, not the whole grid: box-side sweeps the grid
points inside the box, hull-side sweeps those inside the bounding box of the
generators (which holds the hull), intersected with the box when both
apply.  Within a region the order stays lexicographic, so a sweep returns
the same first offending point a sweep over the whole grid would.

The membership tests here are written out on ranks and share no code with
the library they referee: hull membership checks the principal solution
coordinate by coordinate, semispaces and hemispaces evaluate their defining
predicates.  grid_hull and brute_is_convex take segment closures on grid
index tuples, independent of both.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .core import Point, RankBox, Ranks, Scale, check_same_dim
from .convex import Box, GeneratedConvexSet
from .errors import ResourceLimitError
from .semispaces import HemispaceDescriptor, SemispaceDescriptor


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


class RankGrid(Scale):
    """A grid and the Scale of the grid values and the coordinates of the
    given points; axis holds the ranks of the grid values."""

    __slots__ = ("grid", "axis")

    def __init__(self, grid: Grid, points: Iterable[Point]) -> None:
        grid_values = grid.values()
        coords = (c for p in points for c in p)
        super().__init__((c.numerator, c.denominator) for c in (*grid_values, *coords))
        self.grid = grid
        self.axis = self.encode(grid_values)

    def box(self, B: Box) -> RankBox:
        return RankBox(self.encode(B.lower), self.encode(B.upper))

    def span(self, C: GeneratedConvexSet) -> RankBox:
        """Bounding box of the generators; it holds the hull."""
        columns = list(zip(*(self.encode(v) for v in C.generators)))
        return RankBox(tuple(map(min, columns)), tuple(map(max, columns)))

    def hull(self, C: GeneratedConvexSet) -> Callable[[Ranks], bool]:
        """Membership in the hull of C.

        y is a hull point iff y = max_j min(lam_j, v_j) with some lam_j at
        the top, and the greatest lam_j with min(lam_j, v_j) <= y is the
        least y_k over the coordinates where v_j exceeds y (the top when
        there is none).  Those principal coefficients always give a point
        <= y, so y is in the hull iff some generator lies below y and every
        coordinate y_i is reached by some generator."""
        gens = [self.encode(v) for v in C.generators]
        top = len(self.pairs)

        def member(y: Ranks) -> bool:
            lams = [min([yk for vk, yk in zip(v, y) if vk > yk], default=top) for v in gens]
            return top in lams and all(
                any(lam >= yi and v[i] >= yi for lam, v in zip(lams, gens))
                for i, yi in enumerate(y)
            )

        return member

    def semispace(self, S: SemispaceDescriptor | HemispaceDescriptor) -> Callable[[Ranks], bool]:
        """Membership in a semispace or a hemispace."""
        x0 = self.encode(S.x0)
        if isinstance(S, HemispaceDescriptor):
            M = sorted(S.M)
            return lambda y: any(y[i] > x0[i] for i in M)
        return _semispace_member(x0, S.coordinate)

    def first(self, offending: Callable[[Ranks], bool], *regions: RankBox) -> Point | None:
        """First grid point, in lexicographic order, that lies in every
        region and is offending; decoded, None when there is none."""
        self.grid.guard()
        axes = []
        for i in range(self.grid.dimension):
            lo = max(r[0][i] for r in regions)
            hi = min(r[1][i] for r in regions)
            axes.append([g for g in self.axis if lo <= g <= hi])
        for y in itertools.product(*axes):
            if offending(y):
                return self.decode(y)
        return None


def _semispace_member(x0: Ranks, o: int | None) -> Callable[[Ranks], bool]:
    """The semispace predicate at x0: some y_k > x0_k for the upper type;
    y_o < x0_o or y_m > x0_m at some m with x0_m < x0_o for coordinate o."""
    if o is None:
        return lambda y: any(a > b for a, b in zip(y, x0))
    tau = x0[o]
    watched = [m for m, a in enumerate(x0) if a < tau]
    return lambda y: y[o] < tau or any(y[m] > x0[m] for m in watched)


def exact_separator(
    lower: Ranks, upper: Ranks, gens: tuple[Ranks, ...], top: int
) -> tuple[Ranks, int | None] | None:
    """A semispace (x0, coordinate) that contains every generator and misses
    the box [lower, upper], on scalars whose 1 is `top` (the ranks of one
    Scale, or exact values with top 1);
    None when no semispace at all does.  Exact: no grid is involved.

    Each type of semispace has one extreme member that misses the box and
    holds every generator any other member of that type holds:
    - upper type, a family member only when no upper bound is 1: it misses
      the box iff upper <= x0, and lowering x0 to upper only grows it;
    - coordinate i, non-empty only when x0_i > 0: it misses the box iff
      x0_i <= lower_i and upper_m <= x0_m on its clause set
      {m : x0_m < x0_i}, which therefore lies in {m : upper_m < lower_i}.
      Raising x0_i to tau = lower_i > 0 and taking x0 = min(upper, tau)
      widens the first clause to its limit, the clause set to that whole
      set and each clause to y_m > upper_m, so this x0 is the extreme one.
    The n+1 candidates are tried upper type first, then coordinates in
    index order, each with the predicate of _semispace_member.
    """

    def separates(x0: Ranks, o: int | None) -> bool:
        member = _semispace_member(x0, o)
        return all(member(v) for v in gens)

    if top not in upper and separates(upper, None):
        return upper, None
    for i, tau in enumerate(lower):
        if tau > 0:
            x0 = tuple(min(u, tau) for u in upper)
            if separates(x0, i):
                return x0, i
    return None
