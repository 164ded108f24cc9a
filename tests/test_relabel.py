"""Relabel invariance: the exactness claim the rank kernel rests on.

Every algorithm only takes mins, maxes and comparisons of input values, so
a strictly increasing map of [0, 1] that fixes 0 and 1 carries the answer
on an instance to the answer on the relabelled instance: same outcome,
same trace stages, and every point of the certificate mapped.
"""
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxminsep import (
    Box,
    GeneratedConvexSet,
    Point,
    SeparationCertificate,
    box_intersects_hull,
    hull_intersection_witness,
    separate_box,
    separate_two_sets,
)

D = 8
index = st.integers(min_value=0, max_value=D)
identity = [Fraction(k, D) for k in range(D + 1)]


@st.composite
def increasing_maps(draw):
    """Images of 0, 1/D, ..., 1 under a random strictly increasing map of
    [0, 1] fixing 0 and 1."""
    cuts = draw(st.lists(st.integers(1, 999), min_size=D - 1, max_size=D - 1, unique=True))
    return [Fraction(0), *(Fraction(c, 1000) for c in sorted(cuts)), Fraction(1)]


@st.composite
def grid_boxes(draw, n):
    pairs = [sorted(draw(st.tuples(index, index))) for _ in range(n)]
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def grid_sets(n):
    return st.lists(st.tuples(*[index] * n), min_size=1, max_size=4)


def at(images, idx) -> Point:
    return Point(tuple(images[k] for k in idx))


def image(images, p: Point) -> Point:
    """Map a point of the 1/D grid through the relabelling."""
    return Point(tuple(images[int(c * D)] for c in p))


def image_certificate(images, cert: SeparationCertificate) -> SeparationCertificate:
    def point(p):
        return None if p is None else image(images, p)

    def descriptor(S):
        return None if S is None else replace(S, x0=image(images, S.x0))

    return replace(
        cert,
        separator=descriptor(cert.separator),
        witness=point(cert.witness),
        trace=tuple(replace(e, candidate=descriptor(e.candidate), witness=point(e.witness)) for e in cert.trace),
    )


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), increasing_maps(), st.booleans())
def test_separate_box_commutes_with_relabelling(data, n, images, fallback):
    lower, upper = data.draw(grid_boxes(n))
    gens = data.draw(grid_sets(n))
    B = Box(at(identity, lower), at(identity, upper))
    C = GeneratedConvexSet(tuple(at(identity, v) for v in gens))
    assume(not box_intersects_hull(B, C))
    cert = separate_box(B, C, with_fallback=fallback)
    mapped = separate_box(
        Box(at(images, lower), at(images, upper)),
        GeneratedConvexSet(tuple(at(images, v) for v in gens)),
        with_fallback=fallback,
    )
    assert mapped == image_certificate(images, cert)
    assert [e.stage for e in mapped.trace] == [e.stage for e in cert.trace]


@settings(max_examples=150, deadline=None)
@given(grid_sets(2), grid_sets(2), increasing_maps())
def test_separate_two_sets_commutes_with_relabelling(gens1, gens2, images):
    C1 = GeneratedConvexSet(tuple(at(identity, v) for v in gens1))
    C2 = GeneratedConvexSet(tuple(at(identity, v) for v in gens2))
    assume(hull_intersection_witness(C1, C2) is None)
    cert = separate_two_sets(C1, C2)
    mapped = separate_two_sets(
        GeneratedConvexSet(tuple(at(images, v) for v in gens1)),
        GeneratedConvexSet(tuple(at(images, v) for v in gens2)),
    )
    assert mapped.boxed_set == cert.boxed_set
    assert mapped.box == Box(image(images, cert.box.lower), image(images, cert.box.upper))
