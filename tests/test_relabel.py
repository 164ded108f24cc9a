"""Relabel invariance: the exactness claim the kernels rest on.

Every algorithm only takes mins, maxes and comparisons of input values, so
a strictly increasing map of [0, 1] that fixes 0 and 1 carries the answer
on an instance to the answer on the relabelled instance: same outcome,
same trace stages, and every point of the certificate mapped.  The public
functions run the kernels on exact values and the CLI runs them on the
ranks of a Scale, which is such a map; so the two must agree.
"""
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxminsep import (
    Box,
    GeneratedConvexSet,
    MaxMinError,
    Point,
    SeparationCertificate,
    box_intersects_hull,
    box_profile,
    hull_intersection_witness,
    lower_partition,
    separate_box,
    separate_box_semispace,
    separate_two_sets,
)
from maxminsep.convex import hulls_common_point
from maxminsep.core import RankBox
from maxminsep.planar import PlanarBoxCertificate, box_and_semispace, box_one_set
from maxminsep.semispaces import decode_descriptor
from maxminsep.separation import decode_certificate, separate, upper_profile
from helpers import scale_of

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


scalars = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), st.fractions(0, 1, max_denominator=12))
# off the square boundary, as separate_box_semispace requires
interior = st.fractions(Fraction(1, 12), Fraction(11, 12), max_denominator=12)


def points(n, coords=scalars):
    return st.tuples(*[coords] * n).map(Point)


@st.composite
def boxes(draw, n):
    p, q = draw(points(n)), draw(points(n))
    return Box(Point(tuple(map(min, p, q))), Point(tuple(map(max, p, q))))


def gsets(n, coords=scalars):
    return st.lists(points(n, coords), min_size=1, max_size=4).map(lambda gens: GeneratedConvexSet(tuple(gens)))


def answer(f, *args, **kwargs):
    """What f returns, or the type and text of the library error it raises."""
    try:
        return f(*args, **kwargs)
    except MaxMinError as exc:
        return type(exc), str(exc)


def separate_on_ranks(s, box: RankBox, gens, fallback: bool) -> SeparationCertificate:
    return decode_certificate(s, separate(s, box, gens, with_fallback=fallback))


def planar_on_ranks(cert: PlanarBoxCertificate, s) -> PlanarBoxCertificate:
    return replace(cert, box=Box(s.decode(cert.box.lower), s.decode(cert.box.upper)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.booleans())
def test_box_functions_match_their_kernels_on_ranks(data, n, pinned):
    B, C = data.draw(boxes(n)), data.draw(gsets(n))
    if pinned:
        # an upper bound at 1, where the hemispace fallback matters
        k = data.draw(st.integers(0, n - 1))
        B = Box(B.lower, Point(B.upper.coords[:k] + (Fraction(1),) + B.upper.coords[k + 1 :]))
    s = scale_of(B.lower, B.upper, *C.generators)
    ranked = RankBox(s.encode(B.lower), s.encode(B.upper))
    gens = tuple(map(s.encode, C.generators))
    for fallback in (True, False):
        assert answer(separate_box, B, C, with_fallback=fallback) == answer(separate_on_ranks, s, ranked, gens, fallback)
    profile = upper_profile(ranked)
    assert box_profile(B) == replace(profile, u=s.decode(profile.u))
    stages = tuple((t, Fraction(*s.pairs[level])) for t, level in lower_partition(ranked))
    assert lower_partition(B) == stages


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([scalars, interior]))
def test_two_set_functions_match_their_kernels_on_ranks(data, coords):
    C1, C2 = data.draw(gsets(2, coords)), data.draw(gsets(2, coords))
    s = scale_of(*C1.generators, *C2.generators)
    gens1, gens2 = tuple(map(s.encode, C1.generators)), tuple(map(s.encode, C2.generators))
    shared = hulls_common_point(gens1, gens2, s.top)
    assert hull_intersection_witness(C1, C2) == (None if shared is None else s.decode(shared))

    def box_on_ranks():
        return planar_on_ranks(box_one_set(s, gens1, gens2), s)

    def box_and_semispace_on_ranks():
        cert, S = box_and_semispace(s, gens1, gens2)
        return planar_on_ranks(cert, s), decode_descriptor(s, S)

    assert answer(separate_two_sets, C1, C2) == answer(box_on_ranks)
    assert answer(separate_box_semispace, C1, C2) == answer(box_and_semispace_on_ranks)
