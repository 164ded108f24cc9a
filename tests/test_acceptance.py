"""Acceptance suite: eight headline checks, one printed line per criterion.

Each test re-derives its expected facts with the brute-force grid oracles
or with exact rational arithmetic, measures wall-clock time against a
fixed budget, prints a single "criterion k: PASS/FAIL" line, and asserts.
Run with -s to see the lines for passing criteria too.
"""
import time
from fractions import Fraction
from itertools import product

from maxminsep import (
    Box,
    GeneratedConvexSet,
    Grid,
    Point,
    RegionLabel,
    SEMISPACE,
    NOT_SEPARABLE,
    HEMISPACE,
    bounding_box,
    box_intersects_hull,
    check_sep_cond,
    hull_contains,
    hull_intersection_witness,
    planar_extremes,
    region_classify,
    semispace_avoids_box,
    semispace_contains,
    semispace_family,
    separate_box,
    separate_box_semispace,
    separate_two_sets,
    set_in_semispace,
)
from helpers import (
    assert_nonseparable,
    box,
    brute_is_convex,
    brute_segment,
    expected_family_size,
    grid_hull,
    gset,
    maximality_witness_exists,
    pt,
    rand_gset,
    rand_interior_gset,
    rand_box,
    rand_point,
    rng,
)


def _finish(num: int, ok: bool, t0: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - t0
    in_time = elapsed < budget
    status = "PASS" if ok and in_time else "FAIL"
    line = f"criterion {num}: {status} ({elapsed:.1f}s of {budget:.0f}s) {detail}"
    print(line)
    assert ok and in_time, line


def test_criterion_1_hull_membership_matches_grid_oracle():
    """Exact membership agrees with the grid segment closure everywhere."""
    t0 = time.monotonic()
    r = rng(101)
    grids = {2: Grid(8, 2), 3: Grid(8, 3)}
    disagreements = 0
    for _ in range(200):
        n = r.choice((2, 3))
        grid = grids[n]
        C = rand_gset(r, n, 8, max_gens=4)
        closure = grid_hull(C.generators, grid)
        disagreements += sum(
            1 for p in grid.points() if hull_contains(C, p) != (p in closure)
        )
    _finish(
        1,
        disagreements == 0,
        t0,
        60.0,
        f"200 instances, n in {{2,3}}, d=8: {disagreements} disagreements",
    )


def test_criterion_2_semispace_families_are_correct_everywhere():
    """Size, convexity, avoidance and maximality at every planar grid point."""
    t0 = time.monotonic()
    grid = Grid(6, 2)
    problems: list[str] = []
    for x0 in grid.points():
        family = semispace_family(x0)
        if len(family) != expected_family_size(x0):
            problems.append(f"size at {x0}")
            continue
        for S in family:
            members = [p for p in grid.points() if semispace_contains(S, p)]
            if semispace_contains(S, x0):
                problems.append(f"{S} contains its own point")
            if not brute_is_convex(members, grid):
                problems.append(f"{S} not grid convex")
            covered = set(members) | {x0}
            for z in grid.points():
                if z in covered:
                    continue
                if not maximality_witness_exists(S, z, grid):
                    problems.append(f"{S} not maximal at {z}")
                    break
    _finish(
        2,
        not problems,
        t0,
        120.0,
        f"all {grid.size} points at d=6 checked"
        + (f"; first problem: {problems[0]}" if problems else ""),
    )


def test_criterion_3_semispace_separation_within_call_budget():
    """Disjoint pairs satisfying the side condition always separate quickly."""
    t0 = time.monotonic()
    r = rng(102)
    accepted = 0
    failures: list[str] = []
    while accepted < 300:
        n = r.randint(1, 4)
        B = rand_box(r, n, 8)
        C = rand_gset(r, n, 8)
        if box_intersects_hull(B, C) or check_sep_cond(B, C) is not None:
            continue
        accepted += 1
        cert = separate_box(B, C, with_fallback=False)
        S = cert.separator
        valid = (
            cert.outcome == SEMISPACE
            and cert.oracle_calls <= n + 1
            and set_in_semispace(C, S) is None
            and semispace_avoids_box(S, B)
        )
        if not valid:
            failures.append(f"n={n} B={B} C={C.generators}")
            break
    _finish(
        3,
        not failures,
        t0,
        60.0,
        "300 pairs, n<=4: all semispace-separated within n+1 oracle calls"
        if not failures
        else f"failed on {failures[0]}",
    )


def test_criterion_4_blocked_instance_and_hemispace_fallback():
    """Full-width box under a one-point hull: provably no semispace works."""
    t0 = time.monotonic()
    B = box("0,0.3", "1,0.5")
    C = gset("0.4,0.8")
    bare = separate_box(B, C, with_fallback=False)
    ok = bare.outcome == NOT_SEPARABLE and bare.witness == pt("0.4,0.8")
    ok = ok and assert_nonseparable(B, C, Fraction(1, 10))
    fallback = separate_box(B, C, with_fallback=True)
    ok = ok and fallback.outcome == HEMISPACE
    ok = ok and set_in_semispace(C, fallback.separator) is None
    _finish(
        4,
        ok,
        t0,
        5.0,
        "negative certificate, grid d=10 sweep, then hemispace fallback",
    )


def test_criterion_5_point_boxes_are_separated_by_family_members():
    """Any generated set avoiding a point lands inside one of its semispaces."""
    t0 = time.monotonic()
    r = rng(103)
    grid = Grid(6, 2)
    misses = 0
    for _ in range(50):
        x0 = rand_point(r, 2, 6)
        while True:
            C = rand_gset(r, 2, 6)
            if not hull_contains(C, x0):
                break
        B = Box(x0, x0)
        found = any(
            set_in_semispace(C, S) is None and semispace_avoids_box(S, B)
            for S in semispace_family(x0)
        )
        misses += not found
    _finish(5, misses == 0, t0, 30.0, f"50 point boxes at d=6: {misses} misses")


def test_criterion_6_planar_pairs_box_then_box_plus_semispace():
    """Boxes separate disjoint planar hulls; interior pairs add a semispace."""
    t0 = time.monotonic()
    r = rng(104)
    grid = Grid(8, 2)
    bad_boxes = 0
    for _ in range(500):
        while True:
            C1 = rand_gset(r, 2, 8)
            C2 = rand_gset(r, 2, 8)
            if hull_intersection_witness(C1, C2) is None:
                break
        cert = separate_two_sets(C1, C2)
        boxed, other = (C1, C2) if cert.boxed_set == 1 else (C2, C1)
        bb = bounding_box(boxed)
        if not (
            cert.box.lower <= bb.lower
            and bb.upper <= cert.box.upper
            and not box_intersects_hull(cert.box, other)
        ):
            bad_boxes += 1
    bad_conditions = 0
    produced = 0
    while produced < 100:
        C1 = rand_interior_gset(r, 2, 8)
        C2 = rand_interior_gset(r, 2, 8)
        if hull_intersection_witness(C1, C2) is not None:
            continue
        produced += 1
        cert, S = separate_box_semispace(C1, C2)
        boxed, other = (C1, C2) if cert.boxed_set == 1 else (C2, C1)
        boxed_inside = all(
            cert.box.contains_point(p) for p in grid.points() if hull_contains(boxed, p)
        )
        other_inside = all(
            semispace_contains(S, p) for p in grid.points() if hull_contains(other, p)
        )
        box_outside = not any(
            semispace_contains(S, p) for p in grid.points() if cert.box.contains_point(p)
        )
        exact = set_in_semispace(other, S) is None and semispace_avoids_box(S, cert.box)
        if not (boxed_inside and other_inside and box_outside and exact):
            bad_conditions += 1
    _finish(
        6,
        bad_boxes == 0 and bad_conditions == 0,
        t0,
        120.0,
        f"500 box pairs ({bad_boxes} bad), 100 interior pairs on d=8 "
        f"({bad_conditions} bad)",
    )


def test_criterion_7_three_dimensional_segments_defeat_boxes():
    """Nested bounding boxes and an exhaustive grid search with no separator."""
    t0 = time.monotonic()
    a, b = Fraction(1, 4), Fraction(3, 4)
    C1 = GeneratedConvexSet((Point.constant(3, a), Point.constant(3, b)))
    C2 = GeneratedConvexSet((Point.of(b, a, a), Point.of(a, b, a)))
    ok = bounding_box(C1) == Box(Point.constant(3, a), Point.constant(3, b))
    ok = ok and bounding_box(C2) == Box(Point.of(a, a, a), Point.of(b, b, a))
    ok = ok and hull_intersection_witness(C1, C2) is None
    values = Grid(8, 3).values()
    checked = 0
    separators = 0
    for inner, other in ((C1, C2), (C2, C1)):
        lo_inner = bounding_box(inner).lower
        hi_inner = bounding_box(inner).upper
        lows = [tuple(v for v in values if v <= lo_inner[i]) for i in range(3)]
        highs = [tuple(v for v in values if v >= hi_inner[i]) for i in range(3)]
        for lo in product(*lows):
            for hi in product(*highs):
                D = Box(Point.of(*lo), Point.of(*hi))
                checked += 1
                if not box_intersects_hull(D, other):
                    separators += 1
    _finish(
        7,
        ok and separators == 0,
        t0,
        60.0,
        f"{checked} candidate boxes with d=8 corners, {separators} separators",
    )


def test_criterion_8_region_partition_and_convexity():
    """Every bounding-box grid point falls in exactly one region; regions
    are then checked for closure under grid segments."""
    t0 = time.monotonic()
    r = rng(105)
    grid = Grid(6, 2)
    sets = [rand_gset(r, 2, 6) for _ in range(50)]
    partition_bad = 0
    convexity_failure = ""
    for C in sets:
        E = planar_extremes(C)
        triangle = GeneratedConvexSet((E.a, E.b, E.c))
        buckets: dict[RegionLabel, list[Point]] = {label: [] for label in RegionLabel}
        for p in grid.points():
            if not E.B0.contains_point(p):
                if region_classify(E, p) is not RegionLabel.OUTSIDE:
                    partition_bad += 1
                continue
            # re-derive the four region predicates independently of the
            # classifier and demand exactly one to hold
            raw = [
                hull_contains(triangle, p),
                p[0] < E.b[0] and p[1] < E.a[1],
                p[1] > E.a[1] and p[0] < E.c[0] and p[1] > p[0],
                p[0] > E.b[0] and p[1] < E.c[1] and p[1] < p[0],
            ]
            label = region_classify(E, p)
            expected = (RegionLabel.T0, RegionLabel.T1, RegionLabel.T2, RegionLabel.T3)
            if sum(raw) != 1 or label is not expected[raw.index(True)]:
                partition_bad += 1
                continue
            buckets[label].append(p)
        if convexity_failure:
            continue
        for label in (RegionLabel.T0, RegionLabel.T1, RegionLabel.T2, RegionLabel.T3):
            members = buckets[label]
            if brute_is_convex(members, grid):
                continue
            for p, q in product(members, repeat=2):
                escape = next(
                    (
                        z
                        for z in brute_segment(p, q, grid)
                        if region_classify(E, z) is not label
                    ),
                    None,
                )
                if escape is not None:
                    convexity_failure = (
                        f"{label.name} of hull{[tuple(map(str, g)) for g in C.generators]}"
                        f" holds {tuple(map(str, p))} and {tuple(map(str, q))} but their"
                        f" segment point {tuple(map(str, escape))} is labeled"
                        f" {region_classify(E, escape).name}"
                    )
                    break
            if convexity_failure:
                break
    detail = f"50 sets at d=6: partition violations {partition_bad}"
    if convexity_failure:
        detail += (
            "; strict diagonal regions are not segment-closed: "
            + convexity_failure
            + " (the corner of a segment between points strictly above the"
            " diagonal can land on the diagonal, which the strict region"
            " excludes; the weakened regions with >= in place of > are"
            " segment-closed, see test_planar.py)"
        )
    _finish(8, partition_bad == 0 and not convexity_failure, t0, 60.0, detail)
