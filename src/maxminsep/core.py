"""Exact max-min algebra on the unit cube.

Scalars are rationals in [0, 1] with join = max and meet = min.  Points are
fixed-dimension vectors of scalars.  Every operation below is a composition
of min/max/comparisons, so results reuse input coordinate values and stay
exact; no tolerances appear anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DimensionError

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact scalar in [0, 1].

    Floats are rejected: their binary expansions silently differ from the
    decimals they print as.
    """
    if isinstance(value, float):
        raise TypeError("floats are inexact; pass str, int or Fraction")
    v = Fraction(value)
    if v < ZERO or v > ONE:
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

    def __ge__(self, other: "Point") -> bool:
        return other.__le__(self)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


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


def join(first: Point, *rest: Point) -> Point:
    """Componentwise max."""
    check_same_dim(first, *rest)
    coords = list(first.coords)
    for p in rest:
        coords = [max(a, b) for a, b in zip(coords, p)]
    return Point(tuple(coords))


def scale_meet(a: Fraction, x: Point) -> Point:
    """Meet a scalar into every coordinate: (a ∧ x)_i = min(a, x_i)."""
    a = as_scalar(a)
    return Point(tuple(min(a, xi) for xi in x))


def greatest_meet_coefficient(y: Point, cap: Point) -> Fraction:
    """Greatest b with (b ∧ y) ≤ cap.

    The feasible b form a down-set, so the residuated value
    min{cap_i : y_i > cap_i} (1 when no coordinate of y exceeds cap)
    is the exact maximum.
    """
    check_same_dim(y, cap)
    best = ONE
    for yi, ci in zip(y, cap):
        if yi > ci and ci < best:
            best = ci
    return best


def segment_contains(x: Point, y: Point, z: Point) -> bool:
    """Decide z ∈ [x, y], the max-min segment.

    Segment points are (a ∧ x) ⊕ (b ∧ y) with max(a, b) = 1.  Fixing a = 1,
    the map b ↦ x ⊕ (b ∧ y) is monotone, so it hits z iff it does at the
    greatest b with (b ∧ y) ≤ z.  Same with the roles swapped; z is on the
    segment iff either branch lands exactly on z.
    """
    check_same_dim(x, y, z)

    def branch(p: Point, q: Point) -> bool:
        b = greatest_meet_coefficient(q, z)
        return join(p, scale_meet(b, q)) == z

    return branch(x, y) or branch(y, x)
