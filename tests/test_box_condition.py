"""The box condition this repo derives, tested in both directions.

Let U be the upper bounds of a box [lower, upper] that are below 1.  The
condition holds when every upper bound is below 1, when none is, or when the
largest lower bound exceeds max U.  Where it holds, the semispace stages of
the pipeline separate the box from every generated set disjoint from it.
Where it fails, let k be the first coordinate whose upper bound is max U:
the point lower with x_k raised to 1 lies outside the box, and no semispace
holds it and misses the box.  PAPER.md holds only the abstract, so this is
the condition read off oracle.exact_separator's candidates, not a statement
quoted from the paper.

Everything runs on grid ranks: the scalar k/d is rank k, and 1 is rank d.
"""
from itertools import combinations, product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxminsep.convex import box_hull_point
from maxminsep.core import RankBox
from maxminsep.oracle import exact_separator
from maxminsep.separation import NOT_SEPARABLE, SEMISPACE, separate
from helpers import grid_scale


def condition_holds(lower, upper, top):
    below = [u for u in upper if u < top]
    return len(below) == len(upper) or not below or max(lower) > max(below)


def blocking_point(lower, upper, top):
    """lower with x_k raised to 1, k the first coordinate whose upper bound
    is the largest one below 1."""
    k = upper.index(max(u for u in upper if u < top))
    return lower[:k] + (top,) + lower[k + 1:]


def grid_boxes(n, d):
    intervals = [(a, b) for a in range(d + 1) for b in range(a, d + 1)]
    for sides in product(intervals, repeat=n):
        yield RankBox(*zip(*sides))


def check_box(scale, box, sets):
    """Separated pairs when the condition holds, else 0 after checking
    the blocking point; sets is an iterable of generator tuples."""
    top = scale.top
    if not condition_holds(box.lower, box.upper, top):
        x = blocking_point(box.lower, box.upper, top)
        assert not all(a <= c <= b for a, c, b in zip(box.lower, x, box.upper))
        assert exact_separator(box.lower, box.upper, (x,), top) is None
        assert separate(scale, box, (x,), with_fallback=False).outcome == NOT_SEPARABLE
        return 0
    separated = 0
    for gens in sets:
        if box_hull_point(box, gens, top) is None:
            assert separate(scale, box, gens, with_fallback=False).outcome == SEMISPACE, (box, gens)
            separated += 1
    return separated


def exhaust(n, d, max_gens):
    scale = grid_scale(d)
    points = list(product(range(d + 1), repeat=n))
    sets = [gens for size in range(1, max_gens + 1) for gens in combinations(points, size)]
    boxes = list(grid_boxes(n, d))
    separated = [check_box(scale, box, sets) for box in boxes]
    failing = sum(not condition_holds(b.lower, b.upper, d) for b in boxes)
    return sum(separated), failing


def test_exhaustive_in_the_plane_on_quarters():
    # every box, and every set of one or two grid generators disjoint from it
    assert exhaust(2, 4, 2) == (32_720, 60)


def test_exhaustive_in_three_dimensions_on_thirds():
    assert exhaust(3, 3, 1) == (34_814, 402)


@st.composite
def boxes_and_sets(draw, top=6):
    n = draw(st.integers(2, 6))
    point = st.tuples(*[st.integers(0, top)] * n)
    p, q = draw(point), draw(point)
    box = RankBox(tuple(map(min, p, q)), tuple(map(max, p, q)))
    return box, tuple(draw(st.lists(point, min_size=1, max_size=4)))


@given(boxes_and_sets())
@settings(max_examples=100, deadline=None)
def test_condition_decides_separability_on_sixths(case):
    box, gens = case
    assume(box_hull_point(box, gens, 6) is None)
    check_box(grid_scale(6), box, [gens])
