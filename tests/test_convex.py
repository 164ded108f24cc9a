"""Generated sets, hull membership, and the greatest-point machinery."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxminsep import (
    Box,
    GeneratedConvexSet,
    Grid,
    Point,
    bounding_box,
    box_hull_witness,
    box_intersects_hull,
    greatest_below,
    hull_contains,
    hull_intersection_witness,
    principal_coefficients,
    scale_meet,
)
from helpers import box, grid_hull, gset, pt, rand_box, rand_gset, rng


def grid_points(n: int, denom: int = 6):
    coord = st.integers(min_value=0, max_value=denom).map(lambda k: Fraction(k, denom))
    return st.tuples(*[coord] * n).map(Point)


def small_gsets(n: int, denom: int = 6, max_gens: int = 3):
    return st.lists(grid_points(n, denom), min_size=1, max_size=max_gens).map(
        lambda gs: GeneratedConvexSet(tuple(gs))
    )


class TestContainers:
    def test_generated_set_rejects_empty(self):
        with pytest.raises(ValueError):
            GeneratedConvexSet(())

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            box("0.5,0.2", "0.4,0.8")

    def test_box_membership(self):
        B = box("0.2,0.3", "0.6,0.9")
        assert B.contains_point(pt("0.2,0.9"))
        assert not B.contains_point(pt("0.1,0.5"))

    def test_bounding_box_is_minimal(self):
        C = gset("0.2,0.7", "0.5,0.1")
        bb = bounding_box(C)
        assert bb == box("0.2,0.1", "0.5,0.7")


class TestPrincipalCoefficients:
    def test_worked_example(self):
        C = gset("0.2,0.7", "0.5,0.1")
        lam = principal_coefficients(C, pt("0.4,0.7"))
        assert lam == (Fraction(1), Fraction(2, 5))

    @given(small_gsets(2), grid_points(2))
    def test_each_coefficient_is_feasible_and_greatest(self, C, y):
        lam = principal_coefficients(C, y)
        for lam_j, v in zip(lam, C.generators):
            assert scale_meet(lam_j, v) <= y
            for k in range(7):
                a = Fraction(k, 6)
                if scale_meet(a, v) <= y:
                    assert a <= lam_j


class TestHullMembership:
    def test_generators_are_members(self):
        C = gset("0.2,0.7,0.4", "0.5,0.1,0.9")
        for v in C.generators:
            assert hull_contains(C, v)

    def test_worked_example(self):
        C = gset("0.2,0.7", "0.5,0.1")
        assert hull_contains(C, pt("0.4,0.7"))
        assert not hull_contains(C, pt("0.4,0.4"))

    @given(small_gsets(2), grid_points(2))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_grid_closure(self, C, y):
        grid = Grid(6, 2)
        closure = grid_hull(C.generators, grid)
        assert hull_contains(C, y) == (y in closure)


class TestGreatestBelow:
    def test_worked_example(self):
        C = gset("0.2,0.7", "0.5,0.1")
        g = greatest_below(C, pt("0.45,0.9"))
        assert g == pt("0.45,0.7")

    def test_none_when_no_generator_fits(self):
        # every hull point dominates a generator, so a cap below all
        # generators admits no hull point at all
        C = gset("0.2,0.7", "0.5,0.1")
        assert greatest_below(C, pt("0.45,0.65")) is None

    def test_none_when_no_hull_point_fits(self):
        C = gset("0.6,0.7")
        assert greatest_below(C, pt("0.3,0.3")) is None

    @given(small_gsets(2), grid_points(2))
    @settings(max_examples=50, deadline=None)
    def test_dominates_every_fitting_hull_point(self, C, cap):
        grid = Grid(6, 2)
        fitting = [p for p in grid_hull(C.generators, grid) if p <= cap]
        g = greatest_below(C, cap)
        if g is None:
            assert not fitting
        else:
            assert hull_contains(C, g)
            assert g <= cap
            for p in fitting:
                assert p <= g


class TestBoxIntersection:
    def test_witness_example(self):
        C = gset("0.2,0.7", "0.5,0.1")
        B = box("0.3,0.5", "0.5,0.8")
        w = box_hull_witness(B, C)
        assert w is not None
        assert hull_contains(C, w) and B.contains_point(w)

    @given(small_gsets(2), grid_points(2), grid_points(2))
    @settings(max_examples=50, deadline=None)
    def test_complete_against_grid(self, C, p, q):
        lower = Point(tuple(min(a, b) for a, b in zip(p, q)))
        upper = Point(tuple(max(a, b) for a, b in zip(p, q)))
        B = Box(lower, upper)
        grid = Grid(6, 2)
        brute_hit = any(B.contains_point(x) for x in grid_hull(C.generators, grid))
        assert box_intersects_hull(B, C) == brute_hit


class TestHullIntersectionWitness:
    def test_disjoint_hulls(self):
        C1 = gset("0.55,0.65", "0.85,0.95")
        C2 = gset("0.2,0.3", "0.4,0.2")
        assert hull_intersection_witness(C1, C2) is None

    def test_witness_in_both_hulls(self):
        C1 = gset("0.2,0.2", "0.8,0.8")
        C2 = gset("0.5,0.1", "0.5,0.9")
        w = hull_intersection_witness(C1, C2)
        assert w is not None
        assert hull_contains(C1, w) and hull_contains(C2, w)

    @given(small_gsets(2, 4, 2), small_gsets(2, 4, 2))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_grid_intersection(self, C1, C2):
        grid = Grid(4, 2)
        h1 = grid_hull(C1.generators, grid)
        h2 = grid_hull(C2.generators, grid)
        w = hull_intersection_witness(C1, C2)
        if w is None:
            assert not (h1 & h2)
        else:
            assert hull_contains(C1, w) and hull_contains(C2, w)


class TestRandomizedAgreement:
    def test_hull_grid_agreement_sample(self):
        r = rng(20260814)
        grid = Grid(4, 3)
        for _ in range(10):
            C = rand_gset(r, 3, 4, max_gens=3)
            closure = grid_hull(C.generators, grid)
            for y in grid.points():
                assert hull_contains(C, y) == (y in closure)

    def test_box_witness_agreement_sample(self):
        r = rng(7)
        for _ in range(30):
            B = rand_box(r, 2, 6)
            C = rand_gset(r, 2, 6)
            w = box_hull_witness(B, C)
            assert (w is not None) == box_intersects_hull(B, C)
            if w is not None:
                assert B.contains_point(w) and hull_contains(C, w)
