"""Referees: brute-force sweeps on finite grids, and an exact separability decision.

The grid {0, 1/d, ..., 1}^n is the referee's universe: `verify` checks a
certificate by sweeping the grid points where a counterexample could sit.
Whether any semispace separates a box from a generated set needs no grid:
exact_separator decides it from n+1 extreme candidates.

Every check runs on ranks, not on scalars: a Scale (see core) numbers the
scalars of the instance and the certificate 0..K, and a point becomes the
tuple of its coordinates' ranks.  Max-min membership only compares
coordinates (hulls take mins and maxes of input values), so this
order-preserving relabel is exact and the inner loops compare small ints.
Only a sweep needs the grid: RankGrid adds the grid values k/d to the
Scale, and only after the grid passes its guard.  A sweep returns the
ranks of the point it finds.

Each sweep enumerates a region, not the whole grid: box-side sweeps the grid
points inside the box, hull-side sweeps those inside the bounding box of the
generators (which holds the hull), intersected with the box when both
apply, or with the separator's complement when the sweep looks for a hull
point outside it: that complement is a box too (outside).  Within a region
the order stays lexicographic, so a sweep returns the same first offending
point a sweep over the whole grid would.

The membership tests here are written out on ranks and share no code with
the library they referee: hull membership checks the principal solution
coordinate by coordinate, and a semispace or hemispace is the complement of
the closed box outside returns.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator

from .core import Point, RankBox, Ranks, Scale
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
        size = self.size
        if size > MAX_GRID_POINTS:
            try:
                count = str(size)
            except ValueError:  # more digits than sys.get_int_max_str_digits() converts
                count = f"({self.denominator}+1)^{self.dimension}"
            raise ResourceLimitError(f"grid holds {count} points, above the {MAX_GRID_POINTS} bound")

    def points(self) -> Iterator[Point]:
        """All grid points in lexicographic coordinate order."""
        self.guard()
        for coords in itertools.product(self.values(), repeat=self.dimension):
            yield Point(coords)


class RankGrid(Scale):
    """The Scale of the given pairs and the grid values, numbered only once
    the grid passes its guard; axis holds the ranks of the grid values."""

    __slots__ = ("axis",)

    def __init__(self, grid: Grid, pairs: Iterable[tuple[int, int]]) -> None:
        grid.guard()
        d = grid.denominator
        grid_pairs = [(k // g, d // g) for k in range(d + 1) for g in (gcd(k, d),)]
        super().__init__((*grid_pairs, *pairs))
        self.axis = tuple(map(self.rank.__getitem__, grid_pairs))

    def first(self, offending: Callable[[Ranks], bool], *regions: RankBox) -> Ranks | None:
        """First grid point, in lexicographic order, that lies in every
        region and is offending; None when there is none."""
        axes = []
        for i in range(len(regions[0][0])):
            lo = max(r[0][i] for r in regions)
            hi = min(r[1][i] for r in regions)
            axes.append([g for g in self.axis if lo <= g <= hi])
        for y in itertools.product(*axes):
            if offending(y):
                return y
        return None


def span(gens: Iterable[Ranks]) -> RankBox:
    """Bounding box of the generators; it holds the hull."""
    columns = list(zip(*gens))
    return RankBox(tuple(map(min, columns)), tuple(map(max, columns)))


def hull(gens: tuple[Ranks, ...], top: int) -> Callable[[Ranks], bool]:
    """Membership in the hull of the generators, on ranks whose 1 is `top`.

    y is a hull point iff y = max_j min(lam_j, v_j) with some lam_j at
    the top, and the greatest lam_j with min(lam_j, v_j) <= y is the
    least y_k over the coordinates where v_j exceeds y (the top when
    there is none).  Those principal coefficients always give a point
    <= y, so y is in the hull iff some generator lies below y and every
    coordinate y_i is reached by some generator."""

    def member(y: Ranks) -> bool:
        lams = [min([yk for vk, yk in zip(v, y) if vk > yk], default=top) for v in gens]
        return top in lams and all(
            any(lam >= yi and v[i] >= yi for lam, v in zip(lams, gens))
            for i, yi in enumerate(y)
        )

    return member


def outside(S: SemispaceDescriptor | HemispaceDescriptor, top: int) -> RankBox:
    """The closed box of the cube's points outside a semispace or a hemispace
    with rank x0, on ranks whose 1 is `top`: the referee's one definition of
    S, read by semispace, exact_separator and verify's hull sweep.  Each
    family (see the semispaces module) is a union of open half-spaces: the
    upper type of y_k > x0_k for every k, coordinate o of y_o < tau = x0_o
    and of y_m > x0_m wherever x0_m < tau, the hemispace of y_m > x0_m for
    m in M.  The points in none of them form the box y_o >= tau, y_m <= x0_m
    (0 and top on every other face)."""
    x0 = S.x0
    if isinstance(S, HemispaceDescriptor):
        return RankBox((0,) * len(x0), tuple(a if i in S.M else top for i, a in enumerate(x0)))
    o = S.coordinate
    if o is None:
        return RankBox((0,) * len(x0), x0)
    tau = x0[o]
    lower = tuple(tau if i == o else 0 for i in range(len(x0)))
    return RankBox(lower, tuple(a if a < tau else top for a in x0))


def semispace(S: SemispaceDescriptor | HemispaceDescriptor, top: int) -> Callable[[Ranks], bool]:
    """Membership in a semispace or a hemispace S: y is not in outside(S, top)."""
    lower, upper = outside(S, top)
    return lambda y: not all(a <= c <= b for a, c, b in zip(lower, y, upper))


def _misses(in_S: Callable[[Ranks], bool], box: RankBox) -> bool:
    """Whether S misses the box: S is the complement of the box
    outside(S, top), which holds the box iff it holds both its corners."""
    return not (in_S(box.lower) or in_S(box.upper))


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
    index order, each tested with semispace, the complement of outside.
    """

    def separates(x0: Ranks, o: int | None) -> bool:
        return all(map(semispace(SemispaceDescriptor(x0, o), top), gens))

    if top not in upper and separates(upper, None):
        return upper, None
    for i, tau in enumerate(lower):
        if tau > 0:
            x0 = tuple(min(u, tau) for u in upper)
            if separates(x0, i):
                return x0, i
    return None
