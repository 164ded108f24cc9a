"""Semispace families: structure, membership, maximality, avoidance."""
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminsep import (
    Box,
    Grid,
    HemispaceDescriptor,
    Point,
    SemispaceDescriptor,
    hemispace_avoids_box,
    hemispace_contains,
    semispace_avoids_box,
    semispace_contains,
    semispace_family,
    set_in_semispace,
    sorted_profile,
)
from helpers import box, brute_is_convex, expected_family_size, gset, maximality_witness_exists, pt

coord6 = st.integers(min_value=0, max_value=6).map(lambda k: Fraction(k, 6))
coord4 = st.integers(min_value=0, max_value=4).map(lambda k: Fraction(k, 4))


def points(n: int, coord=coord6):
    return st.tuples(*[coord] * n).map(Point)


class TestSortedProfile:
    def test_worked_example(self):
        x0 = pt("0.3,0.7,0.7,0")
        profile = sorted_profile(x0)
        assert profile.perm == (1, 2, 0, 3)
        assert [x0[o] for o in profile.perm] == [
            Fraction(7, 10), Fraction(7, 10), Fraction(3, 10), Fraction(0),
        ]
        assert profile.beta == 4
        assert not profile.has_one
        # the blocks of equal sorted values {1, 2}, {0}, {3}: members of one
        # block share their clause set, which watches every later block;
        # the block at zero denotes the empty set and is dropped
        seven, three, zero = Fraction(7, 10), Fraction(3, 10), Fraction(0)
        assert [S.canonical_form() for S in semispace_family(x0)] == [
            ("S0", x0.coords),
            ("Si", 1, seven, frozenset({(0, three), (3, zero)})),
            ("Si", 2, seven, frozenset({(0, three), (3, zero)})),
            ("Si", 0, three, frozenset({(3, zero)})),
        ]

    @given(points(4))
    def test_sorted_descending_and_stable(self, x0):
        profile = sorted_profile(x0)
        values = [x0[o] for o in profile.perm]
        assert all(values[i] >= values[i + 1] for i in range(3))
        assert sorted(profile.perm) == [0, 1, 2, 3]
        # stability: equal values keep ascending original coordinates
        for i in range(3):
            if values[i] == values[i + 1]:
                assert profile.perm[i] < profile.perm[i + 1]

    @given(points(4))
    def test_zero_and_one_markers(self, x0):
        profile = sorted_profile(x0)
        values = [x0[o] for o in profile.perm]
        zeros = [p for p, v in enumerate(values, start=1) if v == 0]
        assert profile.beta == (zeros[0] if zeros else None)
        assert profile.has_one == (values[0] == 1)


class TestDescriptor:
    def test_original_index_and_threshold(self):
        x0 = pt("0.3,0.7")
        S = SemispaceDescriptor(x0, 1)
        # coordinate 1 holds the largest value: sorted position 1
        assert semispace_family(x0)[1] == S
        assert S.coordinate == 1
        assert S.x0[S.coordinate] == Fraction(7, 10)

    def test_upper_type_has_no_coordinate(self):
        x0 = pt("0.3,0.7")
        S = SemispaceDescriptor(x0, None)
        assert S.coordinate is None
        assert semispace_family(x0)[0] == S

    def test_index_out_of_range(self):
        for coordinate in (-1, 2):
            with pytest.raises(ValueError):
                SemispaceDescriptor(pt("0.3,0.7"), coordinate)

    def test_defining_point_is_never_a_member(self):
        x0 = pt("0.6,0.3")
        for S in semispace_family(x0):
            assert not semispace_contains(S, x0)


class TestFamily:
    @pytest.mark.parametrize(
        "spec, size",
        [("0.6,0.3", 3), ("0.5,0.5", 3), ("1,0.5", 2), ("0.5,0", 2), ("1,0", 1), ("0,0", 1)],
    )
    def test_case_sizes(self, spec, size):
        x0 = pt(spec)
        assert len(semispace_family(x0)) == size
        assert expected_family_size(x0) == size

    @given(points(3, coord4))
    def test_size_matches_case_analysis(self, x0):
        assert len(semispace_family(x0)) == expected_family_size(x0)

    @given(points(3))
    def test_members_avoid_the_point_and_are_distinct(self, x0):
        family = semispace_family(x0)
        assert all(not semispace_contains(S, x0) for S in family)
        forms = {S.canonical_form() for S in family}
        assert len(forms) == len(family)

    @given(points(2, coord4))
    @settings(max_examples=60, deadline=None)
    def test_union_covers_everything_but_the_point(self, x0):
        grid = Grid(4, 2)
        family = semispace_family(x0)
        for z in grid.points():
            covered = any(semispace_contains(S, z) for S in family)
            assert covered == (z != x0)

    @given(points(2, coord4))
    @settings(max_examples=30, deadline=None)
    def test_members_are_brute_convex(self, x0):
        grid = Grid(4, 2)
        pts = list(grid.points())
        for S in semispace_family(x0):
            members = [p for p in pts if semispace_contains(S, p)]
            assert brute_is_convex(members, grid)

    @pytest.mark.parametrize("spec", ["0.5,0.25", "0.5,0.5", "1,0.5", "0.25,0"])
    def test_members_are_maximal_on_grid(self, spec):
        # adjoining any outside grid point lets a segment reach x0
        x0 = pt(spec)
        grid = Grid(4, 2)
        for S in semispace_family(x0):
            for z in grid.points():
                if z == x0 or semispace_contains(S, z):
                    continue
                assert maximality_witness_exists(S, z, grid)

    def test_relabeling_coordinates_relabels_the_family(self):
        base = pt("0.7,0.2,0.5")
        base_forms = {S.canonical_form() for S in semispace_family(base)}
        for perm in permutations(range(3)):
            image = Point(tuple(base[perm[i]] for i in range(3)))
            got = set()
            for S in semispace_family(image):
                if S.coordinate is None:
                    got.add(("S0", base.coords))
                else:
                    o = perm[S.coordinate]
                    clauses = frozenset((perm[m], v) for m, v in S.canonical_form()[3])
                    got.add(("Si", o, S.x0[S.coordinate], clauses))
            assert got == base_forms


class TestAvoidance:
    def test_worked_examples(self):
        B = box("0.6,0.1", "0.9,0.3")
        assert semispace_avoids_box(SemispaceDescriptor(pt("0.9,0.3"), None), B)
        S2 = SemispaceDescriptor(pt("0.5,0.5"), 1)
        assert not semispace_avoids_box(S2, B)

    @given(points(2, coord4), points(2, coord4), points(2, coord4))
    @settings(max_examples=80, deadline=None)
    def test_matches_grid_enumeration(self, x0, p, q):
        lower = Point(tuple(min(a, b) for a, b in zip(p, q)))
        upper = Point(tuple(max(a, b) for a, b in zip(p, q)))
        B = Box(lower, upper)
        grid = Grid(4, 2)
        box_points = [z for z in grid.points() if B.contains_point(z)]
        for S in semispace_family(x0):
            brute_avoids = not any(semispace_contains(S, z) for z in box_points)
            assert semispace_avoids_box(S, B) == brute_avoids


class TestHemispace:
    def test_membership(self):
        H = HemispaceDescriptor(pt("1,0.5"), frozenset({1}))
        assert hemispace_contains(H, pt("0.4,0.8"))
        assert not hemispace_contains(H, pt("0.4,0.5"))

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            HemispaceDescriptor(pt("0.5,0.5"), frozenset({2}))

    def test_set_and_complement_are_brute_convex(self):
        grid = Grid(4, 2)
        H = HemispaceDescriptor(pt("0.5,0.75"), frozenset({0, 1}))
        inside = [p for p in grid.points() if hemispace_contains(H, p)]
        outside = [p for p in grid.points() if not hemispace_contains(H, p)]
        assert brute_is_convex(inside, grid)
        assert brute_is_convex(outside, grid)

    def test_avoids_box_closed_form(self):
        H = HemispaceDescriptor(pt("1,0.5"), frozenset({1}))
        assert hemispace_avoids_box(H, box("0.2,0.2", "1,0.5"))
        assert not hemispace_avoids_box(H, box("0.2,0.2", "1,0.6"))


class TestSetInSemispace:
    def test_reports_first_failing_generator(self):
        C = gset("0.2,0.5", "0.7,0.1", "0.1,0.9")
        S = SemispaceDescriptor(pt("0.5,0.5"), 0)
        # predicate: x_1 < 0.5, no second clause at a tied finite point
        assert set_in_semispace(C, S) == pt("0.7,0.1")

    def test_none_when_all_generators_fit(self):
        C = gset("0.2,0.5", "0.1,0.9")
        S = SemispaceDescriptor(pt("0.5,0.5"), 0)
        assert set_in_semispace(C, S) is None
