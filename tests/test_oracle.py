"""The grid referee: exhaustive, exact, and deliberately naive."""
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxminsep import (
    Box,
    GeneratedConvexSet,
    Grid,
    HemispaceDescriptor,
    NOT_SEPARABLE,
    Point,
    ResourceLimitError,
    SEMISPACE,
    SemispaceDescriptor,
    box_intersects_hull,
    hemispace_contains,
    hull_contains,
    semispace_avoids_box,
    semispace_contains,
    semispace_family,
    separate_box,
    set_in_semispace,
)
from maxminsep.core import RankBox, leq
from maxminsep.oracle import RankGrid, _misses, exact_separator, hull, outside, semispace, span
from maxminsep.semispaces import membership, misses_box
from maxminsep.serialize import box_to_dict, descriptor_to_dict, set_to_list
from maxminsep.verify import check_certificate
from helpers import (
    _misses_box,
    box,
    brute_is_convex,
    brute_segment,
    brute_separation_search,
    combo,
    first_grid_separator,
    grid_contains,
    grid_hull,
    gset,
    index_of,
    pairs_of,
    point_at,
    pt,
    scale_of,
)


class TestGrid:
    def test_size_and_enumeration(self):
        grid = Grid(2, 2)
        pts = list(grid.points())
        assert grid.size == 9 and len(pts) == 9
        assert pts[0] == pt("0,0") and pts[-1] == pt("1,1")

    def test_lexicographic_order(self):
        grid = Grid(1, 2)
        assert [tuple(p) for p in grid.points()] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    def test_index_round_trip(self):
        grid = Grid(3, 2)
        for idx in product(range(4), repeat=2):
            assert index_of(grid, point_at(grid, idx)) == idx

    def test_contains(self):
        grid = Grid(4, 2)
        assert grid_contains(grid, pt("0.25,1"))
        assert not grid_contains(grid, pt("0.2,1"))

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="^grid dimension must be a positive integer$"):
            Grid(4, 0)

    def test_guard_rejects_huge_grids(self):
        with pytest.raises(ResourceLimitError):
            Grid(100, 5).guard()


class TestGridHull:
    def test_contains_inputs_and_is_convex(self):
        grid = Grid(4, 2)
        points = (pt("0.25,1"), pt("1,0.25"))
        closure = grid_hull(points, grid)
        assert set(points) <= closure
        assert brute_is_convex(closure, grid)

    def test_l_shaped_example(self):
        grid = Grid(4, 2)
        closure = grid_hull((pt("0.25,0.75"), pt("0.75,0.25")), grid)
        assert closure == {
            pt("0.25,0.75"), pt("0.5,0.75"), pt("0.75,0.75"),
            pt("0.75,0.5"), pt("0.75,0.25"),
        }

    def test_equals_direct_combination_closure(self):
        # reference: iterate binary combinations to a fixpoint using raw
        # min/max arithmetic, no library calls
        grid = Grid(3, 2)
        seeds = (pt("0,1"), pt("1,0"), pt("1/3,1/3"))
        reference = set(seeds)
        changed = True
        while changed:
            changed = False
            for x, y in product(tuple(reference), repeat=2):
                for k in range(4):
                    a = Fraction(k, 3)
                    for z in (combo(a, x, Fraction(1), y), combo(Fraction(1), x, a, y)):
                        if z not in reference:
                            reference.add(z)
                            changed = True
        assert grid_hull(seeds, grid) == reference

    def test_respects_segment_reference(self):
        grid = Grid(6, 2)
        x, y = pt("1/3,5/6"), pt("2/3,1/6")
        assert grid_hull((x, y), grid) == set(brute_segment(x, y, grid))


class TestBruteConvex:
    def test_segment_is_convex(self):
        grid = Grid(6, 2)
        assert brute_is_convex(brute_segment(pt("1/6,1"), pt("1,0.5"), grid), grid)

    def test_two_corners_are_not_convex(self):
        grid = Grid(2, 2)
        assert not brute_is_convex({pt("0,1"), pt("1,0")}, grid)


class TestBruteSeparationSearch:
    def test_finds_known_separator(self):
        B = box("0.6,0.1", "0.9,0.3")
        C = gset("0.2,0.5", "0.4,0.9")
        grid = Grid(10, 2)
        S = brute_separation_search(B, C, grid)
        assert S is not None
        assert set_in_semispace(C, S) is None
        assert semispace_avoids_box(S, B)

    def test_reports_nonseparable_instance(self):
        B = box("0,0.3", "1,0.5")
        C = gset("0.4,0.8")
        grid = Grid(10, 2)
        assert brute_separation_search(B, C, grid) is None

    def test_requires_on_grid_instance(self):
        grid = Grid(4, 2)
        with pytest.raises(ValueError):
            brute_separation_search(box("0.1,0.1", "0.3,0.3"), gset("0.5,0.75"), grid)


def _reference_first(grid, offending):
    """First grid point, lexicographically, at which offending holds."""
    return next((p for p in grid.points() if offending(p)), None)


def _reference_separator(B, C, grid):
    for x0 in grid.points():
        for S in semispace_family(x0):
            if set_in_semispace(C, S) is None and semispace_avoids_box(S, B):
                return S
    return None


def _random_instance(r, n, den):
    """Box and set on the 1/den grid, the box degenerate on some axes."""
    pairs = []
    for _ in range(n):
        a, b = sorted(Fraction(r.randrange(den + 1), den) for _ in range(2))
        pairs.append((a, a) if r.random() < 0.25 else (a, b))
    B = Box(Point(tuple(p[0] for p in pairs)), Point(tuple(p[1] for p in pairs)))
    gens = tuple(
        Point(tuple(Fraction(r.randrange(den + 1), den) for _ in range(n)))
        for _ in range(r.randrange(1, 4))
    )
    return B, GeneratedConvexSet(gens)


def _first(rg: RankGrid, offending, *regions):
    """The point of rg.first, decoded."""
    y = rg.first(offending, *regions)
    return None if y is None else rg.decode(y)


# (instance denominator, grid denominator): on the grid, off it (1/6 against
# 1/4), and a grid coarser than the instance
DIFFERENTIAL_CASES = [(n, den, d) for n in (1, 2, 3) for den, d in ((4, 4), (6, 4), (12, 3))]


class TestRankGridDifferential:
    """Every rank-encoded sweep against the Fraction reference."""

    @pytest.mark.parametrize("n, den, d", DIFFERENTIAL_CASES)
    def test_sweeps_match_the_fraction_reference(self, n, den, d):
        r = random.Random(f"{n}/{den}/{d}")
        grid = Grid(d, n)
        for _ in range(15):
            B, C = _random_instance(r, n, den)
            _, other = _random_instance(r, n, den)
            x0 = Point(tuple(Fraction(r.randrange(den + 1), den) for _ in range(n)))
            H = HemispaceDescriptor(x0, frozenset(i for i in range(n) if r.random() < 0.6))
            rg = RankGrid(grid, pairs_of(B.lower, B.upper, x0, *C.generators, *other.generators))
            rank_box = RankBox(rg.encode(B.lower), rg.encode(B.upper))
            gens = tuple(map(rg.encode, C.generators))
            other_gens = tuple(map(rg.encode, other.generators))
            in_hull = hull(gens, rg.top)
            assert [in_hull(rg.encode(p)) for p in grid.points()] == [
                hull_contains(C, p) for p in grid.points()
            ]
            assert all(map(in_hull, gens))
            assert _first(rg, hull(other_gens, rg.top), span(other_gens), rank_box) == _reference_first(
                grid, lambda p: B.contains_point(p) and hull_contains(other, p)
            )
            for S in [*semispace_family(x0), H]:
                member = semispace_contains if isinstance(S, SemispaceDescriptor) else hemispace_contains
                rank_S = replace(S, x0=rg.encode(S.x0))
                in_S = semispace(rank_S, rg.top)
                expected = _reference_first(grid, lambda p: hull_contains(C, p) and not member(S, p))
                offending = lambda y: not in_S(y) and in_hull(y)
                assert _first(rg, offending, span(gens)) == expected
                # verify's hull sweep: every point of the region lies outside S
                assert _first(rg, in_hull, span(gens), outside(rank_S, rg.top)) == expected
                assert _first(rg, in_S, rank_box) == _reference_first(
                    grid, lambda p: B.contains_point(p) and member(S, p)
                )

    @pytest.mark.parametrize("n, den, d", DIFFERENTIAL_CASES)
    def test_first_grid_separator_matches_the_fraction_reference(self, n, den, d):
        r = random.Random(f"separator {n}/{den}/{d}")
        grid = Grid(d, n)
        found = 0
        for _ in range(15):
            B, C = _random_instance(r, n, den)
            expected = _reference_separator(B, C, grid)
            assert first_grid_separator(B, C, grid) == expected
            found += expected is not None
        assert found > 0

    def test_box_corners_at_the_cube_corners(self):
        grid = Grid(4, 2)
        B = box("0,0", "1,1")
        C = gset("1/6,5/6")
        rg = RankGrid(grid, pairs_of(B.lower, B.upper, *C.generators))
        rank_box = RankBox(rg.encode(B.lower), rg.encode(B.upper))
        gens = tuple(map(rg.encode, C.generators))
        assert _first(rg, lambda y: True, rank_box) == pt("0,0")
        assert _first(rg, hull(gens, rg.top), span(gens), rank_box) is None
        assert first_grid_separator(B, C, grid) is None

    def test_guard_runs_before_any_enumeration(self, monkeypatch):
        from maxminsep import oracle

        monkeypatch.setattr(oracle, "gcd", lambda *args: pytest.fail("a grid value was numbered"))
        grid = Grid(10, 7)
        corner = Point.constant(7, "0.5")
        with pytest.raises(ResourceLimitError):
            RankGrid(grid, pairs_of(corner))
        with pytest.raises(ResourceLimitError):
            first_grid_separator(Box(corner, corner), GeneratedConvexSet((corner,)), grid)


class TestOutside:
    """outside(S, top), the referee's definition of S, is the complement of
    the library's union of half-spaces (semispaces.membership), on every
    rank point of the cube: x0 coordinates at 0 (a coordinate semispace that
    is empty) and at the top included."""

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_is_exactly_the_complement(self, n):
        top = 4
        cube = list(product(range(top + 1), repeat=n))
        subsets = [frozenset(M) for k in range(n + 1) for M in combinations(range(n), k)]
        for x0 in cube:
            for S in [
                *(SemispaceDescriptor(x0, o) for o in (None, *range(n))),
                *(HemispaceDescriptor(x0, M) for M in subsets),
            ]:
                in_S = membership(S)
                lower, upper = outside(S, top)
                assert [not in_S(y) for y in cube] == [leq(lower, y) and leq(y, upper) for y in cube], S


def _certificate_doc(B, C, S, outcome):
    """A box certificate document claiming S separates B from C."""
    instance = {"dimension": B.dim, "box": box_to_dict(B), "sets": {"C": set_to_list(C)}}
    return {"kind": "box", "instance": instance, "outcome": outcome, "separator": descriptor_to_dict(S)}


def _hull_sweep(report):
    return next(c for c in report["checks"] if c["check"] == "grid hull points inside separator")


class TestHullSweep:
    """The hull-side check of a semispace or hemispace certificate, run by
    verify on a grid that may not hold the instance's scalars."""

    @pytest.mark.parametrize("kind", ("semispace", "hemispace"))
    def test_failing_sweep_names_the_reference_point(self, kind):
        r = random.Random(f"hull sweep {kind}")
        failures = 0
        for k in range(120):
            n, (den, d) = 2 + k % 3, ((4, 4), (6, 4), (12, 3))[k // 3 % 3]
            B, C = _random_instance(r, n, den)
            x0 = Point(tuple(Fraction(r.randrange(den + 1), den) for _ in range(n)))
            if kind == "semispace":
                S, member = r.choice(semispace_family(x0)), semispace_contains
            else:
                S, member = HemispaceDescriptor(x0, {i for i in range(n) if r.random() < 0.6}), hemispace_contains
            check = _hull_sweep(check_certificate(_certificate_doc(B, C, S, kind), d))
            expected = _reference_first(Grid(d, n), lambda p: hull_contains(C, p) and not member(S, p))
            assert check["ok"] == (expected is None)
            if expected is not None:
                assert Point(tuple(map(Fraction, check["point"]))) == expected
                failures += 1
        assert failures >= 10

    def test_sweeps_only_the_hull_points_outside_the_separator(self, monkeypatch):
        # a valid certificate, so the hull sweep runs through its whole region
        B, C = box("0.6,0.1,0.5", "0.9,0.3,0.8"), gset("0.2,0.2,0.5", "0.9,0.6,0.3")
        S = SemispaceDescriptor(pt("0.5,0.3,0.8"), 0)
        swept = []
        sweep = RankGrid.first

        def counting(self, offending, *regions):
            def counted(y):
                swept[-1] += 1
                return offending(y)

            swept.append(0)
            return sweep(self, counted, *regions)

        monkeypatch.setattr(RankGrid, "first", counting)
        assert check_certificate(_certificate_doc(B, C, S, "semispace"), 10)["valid"]
        span_C = Box(Point(tuple(map(min, *C.generators))), Point(tuple(map(max, *C.generators))))
        spanned = [p for p in Grid(10, 3).points() if span_C.contains_point(p)]
        region = [p for p in spanned if not semispace_contains(S, p)]
        # verify sweeps the hull side first, then the box
        assert 0 < swept[0] == len(region) < len(spanned)


@st.composite
def instances(draw, dims=(1, 2, 3, 4), dens=(4, 5, 6, 10)):
    """(box, set, denominator) with every scalar on the 1/den grid."""
    n = draw(st.sampled_from(dims))
    den = draw(st.sampled_from(dens))
    coord = st.integers(0, den).map(lambda k: Fraction(k, den))
    point = st.tuples(*[coord] * n).map(Point)
    p, q = draw(point), draw(point)
    B = Box(Point(tuple(map(min, p, q))), Point(tuple(map(max, p, q))))
    C = GeneratedConvexSet(tuple(draw(st.lists(point, min_size=1, max_size=4))))
    return B, C, den


@st.composite
def rank_descriptors(draw, top=6, max_n=4):
    """(descriptor, box) on ranks 0..top: an upper-type or coordinate
    semispace, or a hemispace, and any box of the same dimension."""
    n = draw(st.integers(1, max_n))
    point = st.tuples(*[st.integers(0, top)] * n)
    x0, p, q = draw(point), draw(point), draw(point)
    S = draw(st.one_of(
        st.sampled_from([None, *range(n)]).map(lambda o: SemispaceDescriptor(x0, o)),
        st.sets(st.integers(0, n - 1)).map(lambda M: HemispaceDescriptor(x0, M)),
    ))
    return S, RankBox(tuple(map(min, p, q)), tuple(map(max, p, q)))


class TestSemispace:
    """oracle.semispace, the complement of outside, against the library's
    union of half-spaces at random rank points."""

    @given(rank_descriptors(max_n=6), st.lists(st.integers(0, 6), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_library_membership(self, case, coords):
        S, _ = case
        y = tuple(coords[: len(S.x0)])
        assert semispace(S, 6)(y) == membership(S)(y)


class TestTwoCornerRule:
    """verify decides box emptiness of a separator from the box's two
    corners and the referee's own predicate, not with the library's
    closed form."""

    @given(rank_descriptors())
    @settings(max_examples=300, deadline=None)
    def test_matches_misses_box(self, case):
        S, rank_box = case
        in_S = semispace(S, 6)
        assert _misses(in_S, rank_box) == misses_box(S, rank_box)


def _decide(B, C):
    s = scale_of(B.lower, B.upper, *C.generators)
    lower, upper = s.encode(B.lower), s.encode(B.upper)
    gens = tuple(map(s.encode, C.generators))
    return exact_separator(lower, upper, gens, s.top), lower, upper, gens, s


class TestExactSeparator:
    """The exact decision against the pipeline, the grid search and the
    semispace definitions."""

    @given(instances())
    @settings(max_examples=200, deadline=None)
    def test_separable_iff_the_pipeline_finds_a_semispace(self, inst):
        B, C, _ = inst
        assume(not box_intersects_hull(B, C))
        found = _decide(B, C)[0]
        outcome = separate_box(B, C, with_fallback=False).outcome
        assert outcome == (SEMISPACE if found is not None else NOT_SEPARABLE)

    @given(instances(dims=(1, 2, 3), dens=(4, 5, 6)))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_grid_search_on_the_grid(self, inst):
        B, C, den = inst
        found = _decide(B, C)[0]
        assert (found is None) == (brute_separation_search(B, C, Grid(den, B.dim)) is None)

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_separator_holds_the_set_and_misses_the_box(self, inst):
        B, C, _ = inst
        found, lower, upper, gens, s = _decide(B, C)
        assume(found is not None)
        x0, o = found
        assert all(map(semispace(SemispaceDescriptor(x0, o), s.top), gens))
        assert _misses_box(x0, o, lower, upper)
        S = SemispaceDescriptor(s.decode(x0), o)
        assert S in semispace_family(S.x0)
        assert set_in_semispace(C, S) is None and semispace_avoids_box(S, B)

    def test_coordinates_are_tried_in_index_order(self):
        # an upper bound at 1 rules the upper type out; both coordinate
        # candidates separate, at different points, and the first one wins
        B, C = box("0.5,0.3", "1,1"), gset("0.2,0.2")
        found, _, _, _, s = _decide(B, C)
        assert (s.decode(found[0]), found[1]) == (pt("0.5,0.5"), 0)

    def test_off_grid_separator_is_found(self):
        # no semispace at a point of the 1/10 grid separates, the upper-type
        # one at the box's upper corner (0.95, 0.5, 0.5) does
        B, C = box("0.05,0.4,0.2", "0.95,0.5,0.5"), gset("0.2,0.6,0.6", "0.7,0.8,0.6")
        found, _, _, _, s = _decide(B, C)
        assert found is not None and (s.decode(found[0]), found[1]) == (pt("0.95,0.5,0.5"), None)
        assert first_grid_separator(B, C, Grid(10, 3)) is None
