"""Planar two-set separation and the four-region split of a bounding box."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxminsep import (
    BoundaryError,
    Box,
    DimensionError,
    GeneratedConvexSet,
    Grid,
    IntersectionError,
    Point,
    RegionLabel,
    bounding_box,
    box_intersects_hull,
    hull_contains,
    hull_intersection_witness,
    planar_extremes,
    region_classify,
    segment_contains,
    semispace_avoids_box,
    separate_box_semispace,
    separate_two_sets,
    set_in_semispace,
)
from maxminsep import planar
from helpers import box, brute_is_convex, gset, pt, rand_interior_gset, rand_gset, rng



def planar_sets(denominators=(4, 6, 10)):
    """Generated sets of 1 to 4 planar points on a 1/d grid."""
    return st.sampled_from(denominators).flatmap(
        lambda d: st.lists(
            st.tuples(st.integers(0, d), st.integers(0, d)).map(
                lambda ks: Point((Fraction(ks[0], d), Fraction(ks[1], d)))
            ),
            min_size=1,
            max_size=4,
        ).map(lambda gens: GeneratedConvexSet(tuple(gens)))
    )

class TestPlanarExtremes:
    def test_worked_example(self):
        E = planar_extremes(gset("0.2,0.6", "0.4,0.2", "0.7,0.5"))
        assert E.a == pt("0.2,0.6")
        assert E.b == pt("0.4,0.2")
        assert E.c == pt("0.7,0.6")
        assert E.B0 == box("0.2,0.2", "0.7,0.6")

    def test_ties_resolve_to_smaller_other_coordinate(self):
        E = planar_extremes(gset("0.3,0.8", "0.3,0.4", "0.9,0.4"))
        assert E.a == pt("0.3,0.4")
        assert E.b == pt("0.3,0.4")

    def test_corner_is_in_the_hull(self):
        r = rng(3)
        for _ in range(40):
            C = rand_gset(r, 2, 8)
            E = planar_extremes(C)
            assert hull_contains(C, E.c)
            assert E.a in C.generators and E.b in C.generators

    def test_rejects_other_dimensions(self):
        with pytest.raises(DimensionError):
            planar_extremes(gset("0.1,0.2,0.3"))


class TestRegionClassify:
    def test_worked_examples(self):
        E = planar_extremes(gset("0.2,0.6", "0.4,0.2", "0.7,0.5"))
        assert region_classify(E, pt("0.3,0.3")) is RegionLabel.T1
        assert region_classify(E, pt("0.6,0.3")) is RegionLabel.T3
        assert region_classify(E, pt("0.5,0.5")) is RegionLabel.T0
        assert region_classify(E, pt("0.9,0.9")) is RegionLabel.OUTSIDE

    def test_rejects_other_dimensions(self):
        E = planar_extremes(gset("0.2,0.6", "0.4,0.2", "0.7,0.5"))
        with pytest.raises(DimensionError, match="^expected a planar point, got dimension 3$"):
            region_classify(E, pt("0.3,0.3,0.3"))

    def test_upper_left_region(self):
        # a sits low enough that points above it and above the diagonal
        # fall into the upper-left region
        E = planar_extremes(gset("0.3,0.4", "0.5,0.2", "0.8,0.8"))
        assert region_classify(E, pt("0.35,0.7")) is RegionLabel.T2

    def test_every_bounding_box_point_gets_one_label(self):
        r = rng(14)
        grid = Grid(8, 2)
        for _ in range(25):
            C = rand_gset(r, 2, 8)
            E = planar_extremes(C)
            for p in grid.points():
                label = region_classify(E, p)
                assert (label is RegionLabel.OUTSIDE) == (not E.B0.contains_point(p))

    def test_inner_region_stays_in_the_hull(self):
        r = rng(15)
        grid = Grid(8, 2)
        for _ in range(25):
            C = rand_gset(r, 2, 8)
            E = planar_extremes(C)
            for p in grid.points():
                if region_classify(E, p) is RegionLabel.T0:
                    assert hull_contains(C, p)

    def test_hull_and_lower_left_regions_are_brute_convex(self):
        r = rng(16)
        grid = Grid(6, 2)
        for _ in range(10):
            C = rand_gset(r, 2, 6)
            E = planar_extremes(C)
            buckets: dict[RegionLabel, list[Point]] = {}
            for p in grid.points():
                buckets.setdefault(region_classify(E, p), []).append(p)
            for label in (RegionLabel.T0, RegionLabel.T1):
                assert brute_is_convex(buckets.get(label, []), grid)

    def test_strict_diagonal_regions_need_not_be_convex(self):
        # the segment between two points strictly above the diagonal passes
        # through the corner (max of the x's, min of the y's), which can sit
        # on the diagonal itself; the strict regions exclude that corner
        E = planar_extremes(gset("0.3,0.3", "0.7,0.7"))
        p, q = pt("0.3,0.5"), pt("0.5,0.6")
        assert region_classify(E, p) is RegionLabel.T2
        assert region_classify(E, q) is RegionLabel.T2
        corner = pt("0.5,0.5")
        assert segment_contains(p, q, corner)
        assert region_classify(E, corner) is RegionLabel.T0

    def test_closed_diagonal_regions_are_brute_convex(self):
        # relaxing the strict inequalities to weak ones restores convexity:
        # weak diagonal dominance survives max-min combinations termwise
        r = rng(17)
        grid = Grid(6, 2)
        for _ in range(10):
            C = rand_gset(r, 2, 6)
            E = planar_extremes(C)
            upper = [
                p
                for p in grid.points()
                if E.B0.contains_point(p)
                and p[1] >= E.a[1]
                and p[0] <= E.c[0]
                and p[1] >= p[0]
            ]
            lower = [
                p
                for p in grid.points()
                if E.B0.contains_point(p)
                and p[0] >= E.b[0]
                and p[1] <= E.c[1]
                and p[1] <= p[0]
            ]
            assert brute_is_convex(upper, grid)
            assert brute_is_convex(lower, grid)


class TestSeparateTwoSets:
    def test_bounding_box_of_first_set_wins(self):
        cert = separate_two_sets(
            gset("0.55,0.65", "0.85,0.95"), gset("0.2,0.3", "0.4,0.2")
        )
        assert cert.boxed_set == 1
        assert cert.box == box("0.55,0.65", "0.85,0.95")

    def test_second_set_gets_boxed_inside_the_first(self):
        # the diagonal hull of C1 spans the square, so its bounding box
        # swallows C2 and the point box around C2 must win instead
        cert = separate_two_sets(gset("0.2,0.2", "0.8,0.8"), gset("0.3,0.6"))
        assert cert.boxed_set == 2
        assert cert.box == box("0.3,0.6", "0.3,0.6")

    def test_certificate_is_valid(self):
        r = rng(21)
        produced = 0
        while produced < 60:
            C1 = rand_gset(r, 2, 8)
            C2 = rand_gset(r, 2, 8)
            if hull_intersection_witness(C1, C2) is not None:
                continue
            produced += 1
            cert = separate_two_sets(C1, C2)
            boxed, other = (C1, C2) if cert.boxed_set == 1 else (C2, C1)
            bb = bounding_box(boxed)
            assert cert.box.lower <= bb.lower and bb.upper <= cert.box.upper
            assert not box_intersects_hull(cert.box, other)

    @given(planar_sets(), planar_sets())
    @settings(max_examples=200, deadline=None)
    def test_box_is_a_bounding_box_and_the_first_set_goes_first(self, C1, C2):
        assume(hull_intersection_witness(C1, C2) is None)
        cert = separate_two_sets(C1, C2)
        assert cert.box == bounding_box(C1 if cert.boxed_set == 1 else C2)
        if not box_intersects_hull(bounding_box(C1), C2):
            assert cert.boxed_set == 1

    def test_intersecting_hulls_are_rejected(self):
        with pytest.raises(IntersectionError) as err:
            separate_two_sets(gset("0.2,0.2", "0.8,0.8"), gset("0.5,0.1", "0.5,0.9"))
        w = err.value.witness
        assert w == pt("0.5,0.5")

    @given(planar_sets(), planar_sets())
    @settings(max_examples=200, deadline=None)
    def test_intersecting_hulls_name_the_descent_point(self, C1, C2):
        w = hull_intersection_witness(C1, C2)
        assume(w is not None)
        with pytest.raises(IntersectionError) as err:
            separate_two_sets(C1, C2)
        assert err.value.witness == w

    def test_disjoint_hulls_skip_the_descent(self, monkeypatch):
        # a bounding box that misses the other hull already proves the
        # hulls disjoint, so the intersection descent never runs
        calls = []
        monkeypatch.setattr(planar, "hulls_common_point", lambda *args: calls.append(args))
        r = rng(23)
        produced = 0
        while produced < 60:
            C1, C2 = rand_gset(r, 2, 8), rand_gset(r, 2, 8)
            if hull_intersection_witness(C1, C2) is None:
                produced += 1
                separate_two_sets(C1, C2)
        assert calls == []

    def test_rejects_other_dimensions(self):
        with pytest.raises(DimensionError):
            separate_two_sets(gset("0.1,0.2,0.3"), gset("0.5,0.6,0.7"))


class TestSeparateBoxSemispace:
    def test_worked_example(self):
        C1 = gset("0.55,0.65", "0.85,0.95")
        C2 = gset("0.2,0.3", "0.4,0.2")
        cert, S = separate_box_semispace(C1, C2)
        assert cert.boxed_set == 1
        assert cert.box == box("0.55,0.65", "0.85,0.95")
        assert S.x0 == pt("0.55,0.65")
        assert S.coordinate == 0

    def test_three_conditions_hold(self):
        r = rng(22)
        produced = 0
        while produced < 40:
            C1 = rand_interior_gset(r, 2, 8)
            C2 = rand_interior_gset(r, 2, 8)
            if hull_intersection_witness(C1, C2) is not None:
                continue
            produced += 1
            cert, S = separate_box_semispace(C1, C2)
            boxed, other = (C1, C2) if cert.boxed_set == 1 else (C2, C1)
            bb = bounding_box(boxed)
            assert cert.box.lower <= bb.lower and bb.upper <= cert.box.upper
            assert set_in_semispace(other, S) is None
            assert semispace_avoids_box(S, cert.box)

    def test_boundary_generators_are_rejected(self):
        with pytest.raises(BoundaryError):
            separate_box_semispace(gset("0.2,1"), gset("0.5,0.5"))
        with pytest.raises(BoundaryError):
            separate_box_semispace(gset("0.2,0.4"), gset("0,0.5"))


class TestThreeDimensionalFixture:
    A, B_ = Fraction(1, 4), Fraction(3, 4)

    def seg1(self):
        return GeneratedConvexSet((Point.constant(3, self.A), Point.constant(3, self.B_)))

    def seg2(self):
        a, b = self.A, self.B_
        return GeneratedConvexSet((Point.of(b, a, a), Point.of(a, b, a)))

    def test_bounding_boxes_nest(self):
        bb1 = bounding_box(self.seg1())
        bb2 = bounding_box(self.seg2())
        assert bb1 == Box(Point.constant(3, self.A), Point.constant(3, self.B_))
        assert bb2 == Box(
            Point.of(self.A, self.A, self.A), Point.of(self.B_, self.B_, self.A)
        )
        assert bb1.lower <= bb2.lower and bb2.upper <= bb1.upper

    def test_hulls_are_disjoint(self):
        assert hull_intersection_witness(self.seg1(), self.seg2()) is None

    def test_no_small_grid_box_separates(self):
        # every box with corners on the 1/4 grid either fails to contain
        # one set or meets the hull of the other, in both role assignments
        C1, C2 = self.seg1(), self.seg2()
        grid = Grid(4, 3)
        values = grid.values()
        from itertools import product

        def contains_set(D: Box, C: GeneratedConvexSet) -> bool:
            return all(D.contains_point(v) for v in C.generators)

        for lo in product(values, repeat=3):
            for hi in product(values, repeat=3):
                if any(a > b for a, b in zip(lo, hi)):
                    continue
                D = Box(Point(lo), Point(hi))
                if contains_set(D, C1) and not box_intersects_hull(D, C2):
                    pytest.fail(f"box {D} separates the diagonal segment")
                if contains_set(D, C2) and not box_intersects_hull(D, C1):
                    pytest.fail(f"box {D} separates the bent segment")
