"""Exact max-min algebra on the unit cube.

Scalars are rationals in [0, 1] with join = max and meet = min.  Points are
fixed-dimension vectors of scalars.  Every operation of the library is a
composition of min, max and comparisons, so its results reuse input values
and commute with every strictly increasing map of [0, 1] that fixes 0 and 1.

So each algorithm the CLI runs has one implementation, a kernel (residual,
join_ranks, meet_ranks and leq here, and their counterparts in the other
modules), which runs on any totally ordered scalars with bottom 0 and a
given top.  The public functions run the kernels on the exact Fraction
coordinates with top 1 and wrap the result in a Point; segment_contains,
which no CLI path runs, is a plain Fraction function.  The CLI runs the
kernels on ranks: a Scale numbers the distinct scalars of one instance,
plus 0 and 1, as 0..K in increasing order, so 0 becomes rank 0, 1 becomes
rank K (`top`) and a point a tuple of ints.  Relabelling by the Scale is
an order-preserving map, so answers computed on ranks decode to the exact
answers on the scalars.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple

from .errors import DimensionError, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


# Fraction() builds the whole number a string spells out, so "1e-20000"
# costs a 66k-bit denominator and a larger exponent stalls the parse; the
# size of a scalar string is bounded before Fraction sees it.
MAX_SCALAR_DIGITS = 300
MAX_SCALAR_EXPONENT = 300
_EXPONENT = re.compile(r"[eE]([+-]?\d[\d_]*)")


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact scalar in [0, 1].

    Floats are rejected: their binary expansions silently differ from the
    decimals they print as.  A string of more than MAX_SCALAR_DIGITS digits
    or an exponent past ±MAX_SCALAR_EXPONENT is a ParseError.
    """
    if isinstance(value, float):
        raise TypeError("floats are inexact; pass str, int or Fraction")
    if isinstance(value, str):
        if len(value) > MAX_SCALAR_DIGITS:
            digits = sum(ch.isdigit() for ch in value)
            if digits > MAX_SCALAR_DIGITS:
                raise ParseError(f"scalar string has {digits} digits, above the {MAX_SCALAR_DIGITS} bound")
        if "e" in value or "E" in value:
            for exponent in _EXPONENT.findall(value):
                if abs(int(exponent.replace("_", ""))) > MAX_SCALAR_EXPONENT:
                    raise ParseError(f"scalar exponent {exponent} outside ±{MAX_SCALAR_EXPONENT}")
    v = value if type(value) is Fraction else Fraction(value)
    # on the normalised numerator and the positive denominator: Fraction
    # comparisons cost far more than int ones
    if not 0 <= v.numerator <= v.denominator:
        raise ValueError(f"scalar {v} outside [0, 1]")
    return v


@dataclass(frozen=True)
class Point:
    """A point of the unit cube, coordinates exact and validated."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(as_scalar(c) for c in self.coords)
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def of(cls, *coords) -> "Point":
        return cls(tuple(coords))

    @classmethod
    def parse(cls, text: str) -> "Point":
        """Parse a comma-separated coordinate list like '0.6,0.3' or '3/5,1'."""
        return cls(tuple(part.strip() for part in text.split(",")))

    @classmethod
    def constant(cls, dim: int, value) -> "Point":
        return cls((as_scalar(value),) * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __le__(self, other: "Point") -> bool:
        check_same_dim(self, other)
        return all(a <= b for a, b in zip(self, other))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


Ranks = tuple[int, ...]


class RankBox(NamedTuple):
    """A box on ranks or other ordered scalars: lower and upper corner."""

    lower: Ranks
    upper: Ranks


class Scale:
    """Order-preserving numbering of finitely many scalars, 0 and 1 included.

    pairs[r] is the normalised (numerator, denominator) of the scalar of
    rank r, rank the rank of a pair and top the rank of 1; decode turns
    ranks back into a Point of Fractions.  One Scale belongs to one
    instance: it is built from the pairs of that instance's scalars and
    travels with it.

    Fraction comparison runs in Python and costs far more than int
    comparison, so the pairs are sorted by float and the order is then
    confirmed exactly on ints (an exact sort runs only if floats tied or
    misordered two values).
    """

    __slots__ = ("pairs", "rank", "top")

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        order = sorted({(0, 1), (1, 1), *pairs}, key=lambda nd: nd[0] / nd[1])
        if any(p * s >= r * q for (p, q), (r, s) in zip(order, order[1:])):
            order = sorted(order, key=lambda nd: Fraction(*nd))
        self.pairs = tuple(order)
        self.rank = {nd: r for r, nd in enumerate(order)}
        self.top = len(order) - 1

    def encode(self, p: Iterable[Fraction]) -> Ranks:
        rank = self.rank
        return tuple(rank[c.numerator, c.denominator] for c in p)

    def decode(self, ranks: Ranks) -> Point:
        pairs = self.pairs
        return Point(tuple(Fraction(*pairs[r]) for r in ranks))


# Stands in for a Scale where a kernel runs on the exact scalars: the top
# is 1, and a result point decodes by becoming a Point.
EXACT = SimpleNamespace(top=ONE, decode=Point)


def descending_order(values) -> tuple[int, ...]:
    """Indices that sort values descending, ties in ascending index order.

    This one tie-break fixes every sorted position the library reports, so
    certificate bytes depend on it.
    """
    return tuple(sorted(range(len(values)), key=lambda i: (-values[i], i)))


def check_same_dim(*objects) -> int:
    """Return the common dimension of the arguments or raise DimensionError."""
    dims = {o.dim for o in objects}
    if len(dims) != 1:
        raise DimensionError(f"mixed dimensions: {sorted(dims)}")
    return dims.pop()


def join_ranks(points: Iterable[Ranks]) -> Ranks:
    """Componentwise max of one or more rank points."""
    return tuple(map(max, zip(*points)))


def meet_ranks(a: int, x: Ranks) -> Ranks:
    """Meet a rank into every coordinate: (a ∧ x)_i = min(a, x_i)."""
    return tuple(c if c < a else a for c in x)


def leq(x: Ranks, y: Ranks) -> bool:
    """Componentwise x ≤ y (tuple <= is lexicographic, not this)."""
    return all(a <= b for a, b in zip(x, y))


def residual(y: Ranks, cap: Ranks, top: int) -> int:
    """Greatest b with (b ∧ y) ≤ cap.

    The feasible b form a down-set, so the residuated value
    min{cap_i : y_i > cap_i} (top when no coordinate of y exceeds cap)
    is the exact maximum.
    """
    best = top
    for yi, ci in zip(y, cap):
        if yi > ci and ci < best:
            best = ci
    return best


def join(first: Point, *rest: Point) -> Point:
    """Componentwise max."""
    check_same_dim(first, *rest)
    return Point(join_ranks((first, *rest)))


def scale_meet(a: Fraction, x: Point) -> Point:
    """Meet a scalar into every coordinate: (a ∧ x)_i = min(a, x_i)."""
    return Point(meet_ranks(as_scalar(a), x))


def greatest_meet_coefficient(y: Point, cap: Point) -> Fraction:
    """Greatest b with (b ∧ y) ≤ cap; see residual."""
    check_same_dim(y, cap)
    return residual(y, cap, ONE)


def segment_contains(x: Point, y: Point, z: Point) -> bool:
    """Decide z ∈ [x, y], the max-min segment.

    Segment points are (a ∧ x) ⊕ (b ∧ y) with max(a, b) = 1.  Fixing a = 1,
    the map b ↦ x ⊕ (b ∧ y) is monotone, so it hits z iff it does at the
    greatest b with (b ∧ y) ≤ z.  Same with the roles swapped; z is on the
    segment iff either branch lands exactly on z.
    """
    check_same_dim(x, y, z)
    x, y, z = x.coords, y.coords, z.coords

    def branch(p: tuple, q: tuple) -> bool:
        return join_ranks((p, meet_ranks(residual(q, z, ONE), q))) == z

    return branch(x, y) or branch(y, x)
