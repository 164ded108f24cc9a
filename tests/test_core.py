"""Scalars, points, and the segment membership primitive."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxminsep
from maxminsep import (
    ONE,
    ZERO,
    DimensionError,
    Grid,
    ParseError,
    Point,
    as_scalar,
    greatest_meet_coefficient,
    join,
    scale_meet,
    segment_contains,
)
from maxminsep.core import Scale
from helpers import brute_segment, combo, pt

scalars = st.fractions(min_value=0, max_value=1)
grid8 = st.integers(min_value=0, max_value=8).map(lambda k: Fraction(k, 8))


def grid_points(n: int, denom: int = 8):
    coord = st.integers(min_value=0, max_value=denom).map(lambda k: Fraction(k, denom))
    return st.tuples(*[coord] * n).map(Point)


class TestAsScalar:
    def test_accepts_exact_inputs(self):
        assert as_scalar("0.4") == Fraction(2, 5)
        assert as_scalar("2/5") == Fraction(2, 5)
        assert as_scalar(1) == ONE
        assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_scalar(0.4)

    @pytest.mark.parametrize("bad", ["-0.1", "7/5", 2, -1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            as_scalar(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1e-999999", "scalar exponent -999999 outside ±300"),
            ("0." + "3" * 400, "scalar string has 401 digits, above the 300 bound"),
        ],
        ids=["exponent", "digits"],
    )
    def test_rejects_oversized_strings_like_the_json_reader(self, bad, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            as_scalar(bad)
        with pytest.raises(ParseError, match=f"^{message}$"):
            Point.of(bad, "0.5")

    def test_point_parse_refuses_a_huge_exponent_at_once(self):
        # unbounded, Fraction("1e-99999999") builds a hundred-million-digit
        # denominator; the child imports the same package as this test
        src = str(Path(maxminsep.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "from maxminsep import ParseError, Point\n"
            "try:\n    Point.parse('1e-99999999,0.5')\n"
            "except ParseError as exc:\n    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert (proc.returncode, proc.stdout) == (0, "scalar exponent -99999999 outside ±300\n")


class TestScale:
    def test_orders_exactly_where_floats_tie(self):
        # the three values share one float; the exact order must win, and
        # the order does not depend on the order the pairs come in
        tiny = [Fraction(1, 10**20), Fraction(1, 10**20 + 1), Fraction(1, 10**20 - 1)]
        s = Scale(_pairs(tiny + tiny[::-1]))
        assert s.pairs == tuple(_pairs([ZERO, *sorted(tiny), ONE]))
        assert [s.rank[nd] for nd in _pairs(tiny)] == [2, 1, 3]
        assert s.top == 4
        values = [*tiny, Fraction(7, 20), Fraction(1, 3), Fraction(1, 2)]
        s, t = Scale(_pairs(values)), Scale(_pairs(values[::-1]))
        assert (t.pairs, t.rank, t.top) == (s.pairs, s.rank, s.top)
        assert s.pairs == tuple(_pairs([ZERO, *sorted(values), ONE]))

    def test_equal_values_share_a_rank(self):
        s = Scale(_pairs([Fraction(1, 2), as_scalar("0.50"), as_scalar("2/4"), ONE]))
        assert s.pairs == tuple(_pairs([ZERO, Fraction(1, 2), ONE]))
        assert s.encode(pt("0.5,1,0")) == (1, 2, 0)
        assert s.decode((1, 2, 0)) == pt("0.5,1,0")


def _pairs(values):
    return [(v.numerator, v.denominator) for v in values]


class TestPoint:
    def test_parse_and_access(self):
        p = pt("0.6,0.3")
        assert p.dim == 2
        assert p[0] == Fraction(3, 5)
        assert list(p) == [Fraction(3, 5), Fraction(3, 10)]

    def test_constant(self):
        assert Point.constant(3, "0.5") == pt("0.5,0.5,0.5")

    def test_componentwise_order_is_partial(self):
        assert pt("0.1,0.2") <= pt("0.3,0.2")
        assert not pt("0.1,0.5") <= pt("0.3,0.2")
        assert not pt("0.3,0.2") <= pt("0.1,0.5")

    def test_greater_or_equal_is_the_reflected_order(self):
        assert pt("1/2,1/2") >= pt("2/5,1/2")
        assert not pt("2/5,1/2") >= pt("1/2,1/2")
        assert not pt("0.1,0.5") >= pt("0.3,0.2")
        assert not pt("0.3,0.2") >= pt("0.1,0.5")
        with pytest.raises(TypeError, match="'>=' not supported between instances of 'Point' and 'tuple'"):
            pt("1/2,1/2") >= (Fraction(1, 2), Fraction(1, 2))

    def test_needs_a_coordinate(self):
        with pytest.raises(ValueError, match="^a point needs at least one coordinate$"):
            Point(())

    def test_rejects_float_coordinates(self):
        with pytest.raises(TypeError):
            Point.of(0.25, "0.5")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            join(pt("0.1,0.2"), pt("0.1,0.2,0.3"))


class TestLatticeOps:
    @given(grid_points(3), grid_points(3))
    def test_join_is_commutative_and_idempotent(self, x, y):
        assert join(x, y) == join(y, x)
        assert join(x, x) == x

    @given(grid_points(3), st.fractions(min_value=0, max_value=1))
    def test_scale_meet_bounds(self, x, a):
        y = scale_meet(a, x)
        assert y <= x
        assert all(c <= a for c in y)

    @given(grid_points(2), grid_points(2), grid_points(2))
    def test_join_is_associative(self, x, y, z):
        assert join(join(x, y), z) == join(x, join(y, z))


class TestResiduation:
    @given(grid_points(3), grid_points(3))
    def test_coefficient_is_feasible(self, y, cap):
        b = greatest_meet_coefficient(y, cap)
        assert scale_meet(b, y) <= cap

    @given(grid_points(3), grid_points(3), grid8)
    def test_coefficient_is_greatest(self, y, cap, a):
        b = greatest_meet_coefficient(y, cap)
        if scale_meet(a, y) <= cap:
            assert a <= b


class TestSegment:
    def test_endpoints_are_members(self):
        x, y = pt("0.2,0.7"), pt("0.5,0.1")
        assert segment_contains(x, y, x)
        assert segment_contains(x, y, y)

    def test_worked_interior_point(self):
        # 0.4 ∧ (0.5, 0.1) joined with (0.2, 0.7) pinned at 1
        x, y = pt("0.2,0.7"), pt("0.5,0.1")
        assert segment_contains(x, y, pt("0.4,0.7"))
        assert not segment_contains(x, y, pt("0.4,0.4"))

    @given(grid_points(2), grid_points(2))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_enumeration(self, x, y):
        grid = Grid(8, 2)
        members = brute_segment(x, y, grid)
        for z in grid.points():
            assert segment_contains(x, y, z) == (z in members)

    @given(grid_points(2), grid_points(2))
    def test_symmetric_in_endpoints(self, x, y):
        grid = Grid(4, 2)
        for z in grid.points():
            assert segment_contains(x, y, z) == segment_contains(y, x, z)

    @given(grid_points(3), grid_points(3), scalars)
    def test_every_combination_is_detected(self, x, y, a):
        assert segment_contains(x, y, combo(a, x, ONE, y))
        assert segment_contains(x, y, combo(ONE, x, a, y))

    def test_join_lies_on_segment(self):
        x, y = pt("0.3,0.8,0.1"), pt("0.6,0.2,0.9")
        assert segment_contains(x, y, join(x, y))
