"""Shared test fixtures: compact constructors, random instance generators,
and brute-force references that bypass the library code paths."""
from __future__ import annotations

import itertools
import pkgutil
import random
from fractions import Fraction
from importlib import import_module
from math import gcd
from typing import Iterable, Iterator

import maxminsep
from maxminsep import (
    Box,
    GeneratedConvexSet,
    Grid,
    IntersectionError,
    Point,
    SemispaceDescriptor,
    as_scalar,
    box_hull_witness,
    hull_contains,
    segment_contains,
    semispace_contains,
)
from maxminsep.core import Ranks, Scale, check_same_dim
from maxminsep.oracle import RankGrid, semispace


def package_modules() -> list:
    """The package and every module of it but __main__, imported."""
    names = [m.name for m in pkgutil.iter_modules(maxminsep.__path__) if m.name != "__main__"]
    return [maxminsep, *(import_module(f"maxminsep.{name}") for name in names)]


def pt(spec: str) -> Point:
    return Point.parse(spec)


def box(lower: str, upper: str) -> Box:
    return Box(pt(lower), pt(upper))


def gset(*specs: str) -> GeneratedConvexSet:
    return GeneratedConvexSet(tuple(pt(s) for s in specs))


def pairs_of(*points: Point) -> Iterator[tuple[int, int]]:
    """The (numerator, denominator) pairs of the points' coordinates."""
    return ((c.numerator, c.denominator) for p in points for c in p)


def scale_of(*points: Point) -> Scale:
    """The Scale of the points' coordinates, built from their pairs as the
    JSON reader builds one."""
    return Scale(pairs_of(*points))


def grid_scale(d: int) -> Scale:
    """The Scale of the grid values k/d, on which k/d has rank k."""
    return Scale((k // gcd(k, d), d // gcd(k, d)) for k in range(d + 1))


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_scalar(r: random.Random, d: int) -> Fraction:
    return Fraction(r.randrange(d + 1), d)


def rand_point(r: random.Random, n: int, d: int) -> Point:
    return Point(tuple(rand_scalar(r, d) for _ in range(n)))


def rand_interior_point(r: random.Random, n: int, d: int) -> Point:
    return Point(tuple(Fraction(r.randrange(1, d), d) for _ in range(n)))


def rand_box(r: random.Random, n: int, d: int) -> Box:
    pairs = [sorted((rand_scalar(r, d), rand_scalar(r, d))) for _ in range(n)]
    return Box(Point(tuple(p[0] for p in pairs)), Point(tuple(p[1] for p in pairs)))


def rand_gset(r: random.Random, n: int, d: int, max_gens: int = 4) -> GeneratedConvexSet:
    k = r.randrange(1, max_gens + 1)
    return GeneratedConvexSet(tuple(rand_point(r, n, d) for _ in range(k)))


def rand_interior_gset(r: random.Random, n: int, d: int, max_gens: int = 4) -> GeneratedConvexSet:
    k = r.randrange(1, max_gens + 1)
    return GeneratedConvexSet(tuple(rand_interior_point(r, n, d) for _ in range(k)))


def combo(alpha: Fraction, x: Point, beta: Fraction, y: Point) -> Point:
    """Direct max-min combination, written without the library helpers."""
    return Point(tuple(max(min(alpha, a), min(beta, b)) for a, b in zip(x, y)))


def brute_segment(x: Point, y: Point, grid: Grid) -> frozenset[Point]:
    """All combinations with one coefficient pinned to 1 and the other swept
    over the grid.  Exhaustive whenever x and y lie on the grid: the
    coordinates of a combination only change at grid breakpoints."""
    one = Fraction(1)
    points = set()
    for a in grid.values():
        points.add(combo(a, x, one, y))
        points.add(combo(one, x, a, y))
    return frozenset(points)


def expected_family_size(x0: Point) -> int:
    """Case count for the semispace family, derived from scratch: one
    semispace per usable sorted position, plus the upper one when no
    coordinate sits at 1, minus the positions cut off by coordinates at 0."""
    values = sorted(x0, reverse=True)
    n = len(values)
    has_one = values[0] == 1
    zeros = [p for p, v in enumerate(values, start=1) if v == 0]
    last = (zeros[0] - 1) if zeros else n
    size = last
    if not has_one:
        size += 1
    return size


def maximality_witness_exists(S, z: Point, grid: Grid) -> bool:
    """True when some grid point of S forms a segment with z through x0:
    adjoining z would force x0 into the set, so S admits no convex,
    x0-avoiding extension by z."""
    x0 = S.x0
    return any(
        semispace_contains(S, w) and segment_contains(z, w, x0)
        for w in grid.points()
    )


def hull_grid_points(C: GeneratedConvexSet, grid: Grid) -> list[Point]:
    return [p for p in grid.points() if hull_contains(C, p)]


def disjoint_pair(r: random.Random, n: int, d: int, max_gens: int = 4):
    """Rejection-sample a box and a generated set with disjoint hulls."""
    from maxminsep import box_intersects_hull

    while True:
        B = rand_box(r, n, d)
        C = rand_gset(r, n, d, max_gens)
        if not box_intersects_hull(B, C):
            return B, C


def scalar(text: str) -> Fraction:
    return as_scalar(text)


def _misses_box(x0: Ranks, o: int | None, lower: Ranks, upper: Ranks) -> bool:
    """Whether the semispace (x0, o) misses the box [lower, upper].  The
    semispace is a union of the open half-spaces its predicate names, and a
    box misses a union iff it misses each part."""
    if o is None:
        return all(u <= a for u, a in zip(upper, x0))
    tau = x0[o]
    return lower[o] >= tau and all(u <= a for u, a in zip(upper, x0) if a < tau)


def first_grid_separator(B: Box, C: GeneratedConvexSet, grid: Grid) -> SemispaceDescriptor | None:
    """First semispace at a grid point, in grid order and family order, that
    contains C and misses B; None when there is none.  B and C may lie off
    the grid, and then an off-grid separator goes unseen.

    The family at x0 is the upper type (absent when some coordinate is 1)
    followed by the coordinates sorted descending, ties by index, up to the
    first zero coordinate.
    """
    rg = RankGrid(grid, pairs_of(B.lower, B.upper, *C.generators))
    lower, upper = rg.encode(B.lower), rg.encode(B.upper)
    gens = [rg.encode(v) for v in C.generators]
    zero, one = rg.axis[0], rg.axis[-1]
    n = grid.dimension
    for x0 in itertools.product(rg.axis, repeat=n):
        family = [o for o in sorted(range(n), key=lambda i: (-x0[i], i)) if x0[o] != zero]
        if one not in x0:
            family.insert(0, None)
        for o in family:
            if _misses_box(x0, o, lower, upper):
                if all(map(semispace(SemispaceDescriptor(x0, o), rg.top), gens)):
                    return SemispaceDescriptor(rg.decode(x0), o)
    return None


def brute_separation_search(B: Box, C: GeneratedConvexSet, grid: Grid) -> SemispaceDescriptor | None:
    """first_grid_separator on an instance that lies on the grid, where it
    is exhaustive; ValueError for a box corner or generator off the grid."""
    check_same_dim(B.lower, C.generators[0])
    for corner in (B.lower, B.upper):
        if not grid_contains(grid, corner):
            raise ValueError(f"box corner {corner} is not on the 1/{grid.denominator} grid")
    for v in C.generators:
        if not grid_contains(grid, v):
            raise ValueError(f"generator {v} is not on the 1/{grid.denominator} grid")
    return first_grid_separator(B, C, grid)


def assert_nonseparable(B: Box, C: GeneratedConvexSet, grid_step: Fraction) -> bool:
    """Grid form of the not-separable referee: True when no semispace at a
    point of the 1/d grid separates.  Box and set need not lie on the grid.
    IntersectionError when box and hull meet, ValueError unless the step is
    1/d."""
    check_same_dim(B.lower, C.generators[0])
    shared = box_hull_witness(B, C)
    if shared is not None:
        raise IntersectionError(f"box and hull share the point {shared}", witness=shared)
    step = Fraction(grid_step)
    if step <= 0 or step > 1 or step.numerator != 1:
        raise ValueError(f"grid step must be 1/d for an integer d, got {step}")
    return first_grid_separator(B, C, Grid(step.denominator, B.dim)) is None


def restart_scan_partition(lower, upper) -> list[tuple[int, frozenset[int], object]]:
    """Reference lower partition, as (threshold, members, level) per stage:
    with lower bounds sorted descending, ties by index, each stage restarts
    a right-to-left scan for the smallest threshold s whose lower bound fits
    under every unplaced upper bound from s on, then places the unplaced
    positions ≥ s whose upper bound is below the lower bound at s - 1 (all
    of them once s = 1), at the least of their upper bounds."""
    n = len(lower)
    perm = sorted(range(n), key=lambda o: (-lower[o], o))
    lows = [lower[o] for o in perm]
    ups = [upper[o] for o in perm]
    remaining = set(range(1, n + 1))
    stages = []
    while remaining:
        s, min_up = 1, None
        for p in range(n, 0, -1):
            if p in remaining:
                min_up = ups[p - 1] if min_up is None else min(min_up, ups[p - 1])
            if min_up is not None and lows[p - 1] > min_up:
                s = p + 1
                break
        members = frozenset(p for p in remaining if s == 1 or (p >= s and ups[p - 1] < lows[s - 2]))
        assert members, f"empty stage at threshold {s}"
        stages.append((s, members, min(ups[p - 1] for p in members)))
        remaining -= members
    return stages


def _unsort(perm, values) -> tuple:
    """The point whose coordinate perm[q] is values[q]: undo a sort."""
    coords = [0] * len(perm)
    for o, v in zip(perm, values):
        coords[o] = v
    return tuple(coords)


def prefix_max_profile(lower, upper) -> tuple[tuple[int, ...], int, int, tuple]:
    """Reference upper profile, as (upper_perm, t, l, u): with upper bounds
    sorted descending, ties by index, t is the last position whose upper
    bound is ≥ the prefix maximum of the lower bounds there, l the first
    position up to t holding that maximum, and u levels positions ≤ t at it
    and keeps the upper bounds after t."""
    n = len(lower)
    perm = tuple(sorted(range(n), key=lambda o: (-upper[o], o)))
    ups = [upper[o] for o in perm]
    lows = [lower[o] for o in perm]
    prefix_max = list(itertools.accumulate(lows, max))
    t = next(p for p in range(n, 0, -1) if ups[p - 1] >= prefix_max[p - 1])
    peak = prefix_max[t - 1]
    l = next(p for p in range(1, t + 1) if lows[p - 1] == peak)
    return perm, t, l, _unsort(perm, [peak] * t + ups[t:])


def sorted_band_candidate(lower, upper, s: int, p: int) -> tuple:
    """Reference x0 of the band-round candidate at lower-sorted position p
    in the stage of threshold s, built on the sorted positions: ups[q] where
    it is below lows[s - 1] (the earlier stages), else lows[q - 1] before p
    and lows[p - 1] from p on."""
    n = len(lower)
    perm = sorted(range(n), key=lambda o: (-lower[o], o))
    lows = [lower[o] for o in perm]
    ups = [upper[o] for o in perm]
    bound = lows[s - 1]
    u_sorted = [
        ups[q - 1] if ups[q - 1] < bound else (lows[q - 1] if q < p else lows[p - 1])
        for q in range(1, n + 1)
    ]
    return _unsort(perm, u_sorted)


def counting_format_scalar(p: int, q: int) -> str:
    """Reference scalar string of the reduced p/q: count the factors 2 and
    5 of q; if nothing else remains, p/q has max(twos, fives) decimals."""
    if q == 1:
        return str(p)
    rest = q
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{p}/{q}"
    k = max(twos, fives)
    scaled = p * 10**k // q
    return f"{scaled // 10**k}.{scaled % 10**k:0{k}d}"


# Segment closures on grid index tuples: test oracles for hulls and
# convexity, independent of the library's residuation.

def index_of(grid: Grid, p: Point) -> tuple[int, ...]:
    """Integer indices of an on-grid point; ValueError off the grid."""
    if p.dim != grid.dimension:
        raise ValueError(f"point dimension {p.dim} does not match grid {grid.dimension}")
    idx = []
    for c in p:
        k = c * grid.denominator
        if k.denominator != 1:
            raise ValueError(f"{p} is not on the 1/{grid.denominator} grid")
        idx.append(int(k))
    return tuple(idx)


def point_at(grid: Grid, idx: tuple[int, ...]) -> Point:
    d = grid.denominator
    return Point(tuple(Fraction(k, d) for k in idx))


def grid_contains(grid: Grid, p: Point) -> bool:
    try:
        index_of(grid, p)
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

    Worklist over pairs: each popped point is combined with itself and
    with every point popped before it, so each unordered pair of closure
    points is combined once; new points join the worklist.  Terminates
    because the grid is finite; stops early once the closure saturates the
    whole grid.
    """
    grid.guard()
    pts = list(points)
    if not pts:
        return frozenset()
    d = grid.denominator
    closure: set[tuple[int, ...]] = {index_of(grid, p) for p in pts}
    queue = list(closure)
    popped: list[tuple[int, ...]] = []
    full = grid.size
    while queue and len(closure) < full:
        a = queue.pop()
        popped.append(a)
        for b in popped:
            for combo in _segment_indices(a, b, d):
                if combo not in closure:
                    closure.add(combo)
                    queue.append(combo)
    return frozenset(point_at(grid, idx) for idx in closure)


def brute_is_convex(points: Iterable[Point], grid: Grid) -> bool:
    """Check closure of an on-grid point set under grid segments."""
    pts = list(points)
    if len(pts) <= 1:
        return True
    check_same_dim(*pts)
    d = grid.denominator
    idx = {index_of(grid, p) for p in pts}
    # the segment [a, b] is the segment [b, a], so each unordered pair is enough
    for a, b in itertools.combinations_with_replacement(idx, 2):
        for combo in _segment_indices(a, b, d):
            if combo not in idx:
                return False
    return True
