"""The separation pipeline: profiles, partitions, certificates, referees."""
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from maxminsep import (
    HEMISPACE,
    NOT_SEPARABLE,
    SEMISPACE,
    Box,
    DimensionError,
    GeneratedConvexSet,
    Grid,
    HemispaceDescriptor,
    InternalError,
    IntersectionError,
    Point,
    SemispaceDescriptor,
    box_intersects_hull,
    box_profile,
    check_sep_cond,
    hull_contains,
    lower_partition,
    semispace_avoids_box,
    semispace_family,
    separate_box,
    set_in_semispace,
)
from maxminsep import separation
from maxminsep.convex import box_hull_point
from maxminsep.core import RankBox
from maxminsep.cli import main
from helpers import (
    assert_nonseparable,
    box,
    brute_separation_search,
    grid_scale,
    gset,
    pt,
    prefix_max_profile,
    restart_scan_partition,
    sorted_band_candidate,
)

coord6 = st.integers(min_value=0, max_value=6).map(lambda k: Fraction(k, 6))
coord4 = st.integers(min_value=0, max_value=4).map(lambda k: Fraction(k, 4))


def points(n, coord=coord6):
    return st.tuples(*[coord] * n).map(Point)


def boxes(n, coord=coord6):
    def build(p, q):
        lower = Point(tuple(min(a, b) for a, b in zip(p, q)))
        upper = Point(tuple(max(a, b) for a, b in zip(p, q)))
        return Box(lower, upper)

    return st.builds(build, points(n, coord), points(n, coord))


def gsets(n, coord=coord6, max_gens=3):
    return st.lists(points(n, coord), min_size=1, max_size=max_gens).map(
        lambda gs: GeneratedConvexSet(tuple(gs))
    )


class TestBoxProfile:
    def test_worked_example(self):
        profile = box_profile(box("0.2,0.6,0.1", "0.9,0.7,0.3"))
        assert profile.coordinate == 1
        assert profile.u == pt("0.6,0.6,0.3")

    def test_point_box_is_its_own_level(self):
        for spec in ("0.6,0.3", "0.5,0.5"):
            profile = box_profile(box(spec, spec))
            assert profile.coordinate == 0
            assert profile.u == pt(spec)

    def test_level_ties_go_to_the_larger_upper_bound(self):
        # both coordinates carry the largest lower bound; the upper bounds
        # sorted descending put coordinate 1 first
        assert box_profile(box("0.5,0.5", "0.6,0.9")).coordinate == 1

    def test_matches_the_prefix_max_scan_on_small_rank_boxes(self):
        # every rank box with n <= 4 and ranks 0..4: 15 (lower, upper) pairs
        # per coordinate
        pairs = [(a, b) for b in range(5) for a in range(b + 1)]
        checked = 0
        for n in range(1, 5):
            for coords in itertools.product(pairs, repeat=n):
                lower, upper = (tuple(c) for c in zip(*coords))
                profile = separation.upper_profile(RankBox(lower, upper))
                perm, t, l, u = prefix_max_profile(lower, upper)
                assert profile.u == u, (lower, upper)
                assert profile.coordinate == perm[l - 1], (lower, upper)
                assert set(perm[:t]) == {i for i in range(n) if upper[i] >= max(lower)}, (lower, upper)
                checked += 1
        assert checked == 54_240

    @given(boxes(4))
    def test_matches_the_prefix_max_scan(self, B):
        profile = box_profile(B)
        perm, _, l, u = prefix_max_profile(B.lower, B.upper)
        assert (profile.coordinate, profile.u) == (perm[l - 1], Point(u))
        assert isinstance(profile.u, Point)


def lower_sorted(lower, upper):
    """The lower-sorted order, ties by index, with the bounds in it."""
    perm = sorted(range(len(lower)), key=lambda o: (-lower[o], o))
    return perm, [lower[o] for o in perm], [upper[o] for o in perm]


def small_rank_boxes():
    """Every rank box with n <= 4 and ranks 0..3: 10 (lower, upper) pairs
    per coordinate, 11,110 boxes."""
    pairs = [(a, b) for b in range(4) for a in range(b + 1)]
    for n in range(1, 5):
        for coords in itertools.product(pairs, repeat=n):
            yield tuple(tuple(c) for c in zip(*coords))


class TestLowerPartition:
    def test_worked_example(self):
        part = lower_partition(box("0.7,0.5,0.5,0.2", "1,0.6,0.9,0.4"))
        assert part == ((4, Fraction(2, 5)), (2, Fraction(3, 5)), (1, Fraction(9, 10)))

    def test_matches_the_restart_scan_on_small_rank_boxes(self):
        checked = 0
        for lower, upper in small_rank_boxes():
            expected = tuple((s, level) for s, _, level in restart_scan_partition(lower, upper))
            assert lower_partition(RankBox(lower, upper)) == expected, (lower, upper)
            checked += 1
        assert checked == 11_110

    @given(boxes(4))
    def test_stages_partition_the_positions(self, B):
        reference = restart_scan_partition(B.lower, B.upper)
        assert sorted(p for _, members, _ in reference for p in members) == [1, 2, 3, 4]
        part = lower_partition(B)
        assert part == tuple((s, level) for s, _, level in reference)
        thresholds = [s for s, _ in part]
        assert thresholds[-1] == 1
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    @given(boxes(4))
    def test_level_property(self, B):
        # each stage level fits between lower and upper bound of every
        # position still unassigned when the stage forms; the members come
        # from the restart-scan reference
        _, lows, ups = lower_sorted(B.lower, B.upper)
        remaining = set(range(1, 5))
        reference = restart_scan_partition(B.lower, B.upper)
        for (s, level), (_, members, _) in zip(lower_partition(B), reference, strict=True):
            for p in remaining:
                if p >= s:
                    assert lows[p - 1] <= level <= ups[p - 1]
            remaining -= members


class TestBand:
    def test_matches_the_restart_scan_on_small_rank_boxes(self):
        # a round whose rightmost failing position is f reads the stage of
        # the largest threshold <= f
        checked = 0
        for lower, upper in small_rank_boxes():
            _, lows, _ = lower_sorted(lower, upper)
            reference = restart_scan_partition(lower, upper)
            for f in range(1, len(lower) + 1):
                s, _, level = next(stage for stage in reference if stage[0] <= f)
                assert separation.band(lows, upper, f) == (s, level), (lower, upper, f)
            checked += 1
        assert checked == 11_110

    def test_separate_never_calls_lower_partition(self, monkeypatch):
        calls = []

        def counting(box):
            calls.append(box)
            return lower_partition(box)

        monkeypatch.setattr(separation, "lower_partition", counting)
        # an instance that runs three band rounds (tests/test_sweep_bound.py)
        box = RankBox((8, 7, 7, 5), (8, 7, 10, 6))
        gens = ((5, 9, 10, 2), (7, 11, 10, 9), (1, 0, 10, 11), (1, 1, 6, 3))
        cert = separation.separate(grid_scale(12), box, gens)
        assert {e.iteration for e in cert.trace if e.stage == 3} == {1, 2, 3}
        assert calls == []


class TestSeparateBoxExamples:
    def test_upper_semispace_in_one_call(self):
        cert = separate_box(box("0.6,0.1", "0.9,0.3"), gset("0.2,0.5", "0.4,0.9"))
        assert cert.outcome == SEMISPACE
        assert cert.separator.coordinate is None
        assert cert.separator.x0 == pt("0.9,0.3")
        assert cert.oracle_calls == 1

    def test_levelled_semispace_when_an_upper_bound_is_one(self):
        cert = separate_box(box("0.2,0.2", "1,0.5"), gset("0.1,0.8"))
        assert cert.outcome == SEMISPACE
        assert cert.separator.x0 == pt("0.2,0.2")
        assert cert.separator.coordinate == 0
        assert cert.oracle_calls == 1
        assert cert.trace[0].stage == 2

    def test_band_round_finds_the_separator(self):
        cert = separate_box(box("0.5,0.3", "0.8,1"), gset("0.6,0.1"))
        assert cert.outcome == SEMISPACE
        assert cert.separator.x0 == pt("0.5,0.3")
        assert cert.separator.coordinate == 1
        assert cert.oracle_calls == 2
        assert [e.stage for e in cert.trace] == [2, 3]

    def test_not_separable_witness(self):
        cert = separate_box(box("0,0.3", "1,0.5"), gset("0.4,0.8"), with_fallback=False)
        assert cert.outcome == NOT_SEPARABLE
        assert cert.separator is None
        assert cert.witness == pt("0.4,0.8")
        assert cert.oracle_calls == 1

    def test_hemispace_fallback(self):
        cert = separate_box(box("0,0.3", "1,0.5"), gset("0.4,0.8"))
        assert cert.outcome == HEMISPACE
        assert cert.separator == HemispaceDescriptor(pt("1,0.5"), frozenset({1}))
        assert cert.oracle_calls == 2
        assert cert.separated

    def test_intersecting_inputs_are_rejected(self):
        B = box("0.3,0.5", "0.5,0.8")
        C = gset("0.2,0.7", "0.5,0.1")
        with pytest.raises(IntersectionError) as err:
            separate_box(B, C)
        w = err.value.witness
        assert B.contains_point(w) and hull_contains(C, w)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            separate_box(box("0.1,0.1", "0.2,0.2"), gset("0.5,0.5,0.5"))

    def test_pipeline_fault_names_stage_and_trace_length(self, monkeypatch, tmp_path, capsys):
        # a containment oracle that rejects every candidate with the same
        # generator leaves the witness where it is, so the band rounds run
        # into the n+1 sweep budget
        monkeypatch.setattr(separation, "first_outside", lambda gens, S: gens[0])
        expected = "separation exceeded the n+1 oracle budget (stage 3, 4 sweeps traced)"
        with pytest.raises(InternalError) as err:
            separate_box(box("0.2,0.2,0.2", "0.8,0.5,0.6"), gset("0.1,0.8,0.9"))
        assert str(err.value) == expected
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "dimension": 3,
            "box": {"lower": ["0.2", "0.2", "0.2"], "upper": ["0.8", "0.5", "0.6"]},
            "sets": {"C": [["0.1", "0.8", "0.9"]]},
        }), encoding="utf-8")
        assert main(["separate-box", "-i", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("lower, upper", [((1,), (0,)), ((0, 1, 2), (0, 1, 0))])
    def test_partition_rejects_a_lower_bound_above_its_upper_bound(self, lower, upper):
        # the closed form counts lower bounds above each upper bound, which
        # places a position at its stage only when lows[q] <= ups[q]
        with pytest.raises(InternalError) as err:
            separation.lower_partition(RankBox(lower, upper))
        assert str(err.value) == "lower partition needs every lower bound at most its upper bound"


class TestSeparateBoxProperties:
    @given(boxes(3), gsets(3))
    @settings(max_examples=120, deadline=None)
    def test_call_budget_and_certificate_soundness(self, B, C):
        assume(not box_intersects_hull(B, C))
        cert = separate_box(B, C)
        assert cert.oracle_calls <= 4
        assert cert.outcome in (SEMISPACE, HEMISPACE, NOT_SEPARABLE)
        if cert.outcome == SEMISPACE:
            assert set_in_semispace(C, cert.separator) is None
            assert semispace_avoids_box(cert.separator, B)
        elif cert.outcome == HEMISPACE:
            assert set_in_semispace(C, cert.separator) is None
        else:
            assert cert.witness is not None

    @given(boxes(2, coord4), gsets(2, coord4))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_search(self, B, C):
        assume(not box_intersects_hull(B, C))
        cert = separate_box(B, C, with_fallback=False)
        brute = brute_separation_search(B, C, Grid(4, 2))
        if cert.outcome == SEMISPACE:
            assert brute is not None
        else:
            assert brute is None
            assert assert_nonseparable(B, C, Fraction(1, 4))

    def test_witness_shape(self):
        # bias generation toward instances where no semispace works: one
        # upper bound pinned at 1 keeps the upper-type candidate out of play
        import random

        r = random.Random(11)
        checked = 0
        for _ in range(400):
            n, d = 3, 6
            lo_k = [r.randrange(0, 4) for _ in range(n)]
            hi_k = [r.randrange(k, d + 1) for k in lo_k]
            hi_k[r.randrange(n)] = d
            B = Box(
                Point(tuple(Fraction(k, d) for k in lo_k)),
                Point(tuple(Fraction(k, d) for k in hi_k)),
            )
            C = GeneratedConvexSet(tuple(
                Point(tuple(Fraction(r.randrange(0, d + 1), d) for _ in range(n)))
                for _ in range(r.randrange(1, 4))
            ))
            if box_intersects_hull(B, C):
                continue
            cert = separate_box(B, C, with_fallback=False)
            if cert.outcome != NOT_SEPARABLE:
                continue
            checked += 1
            y = cert.witness
            assert hull_contains(C, y)
            assert B.lower <= y
            perm, t, _, _ = prefix_max_profile(B.lower, B.upper)
            exceed = [i for i in range(n) if y[i] > B.upper[i]]
            assert exceed
            assert set(exceed) <= set(perm[:t])
        assert checked >= 20

    @given(boxes(3), gsets(3))
    @settings(max_examples=80, deadline=None)
    def test_trace_is_orderly(self, B, C):
        assume(not box_intersects_hull(B, C))
        cert = separate_box(B, C)
        stages = [e.stage for e in cert.trace]
        assert stages == sorted(stages)
        assert stages[0] in (1, 2)
        band_rounds = [e.iteration for e in cert.trace if e.stage == 3]
        assert band_rounds == sorted(band_rounds)
        # the worst failing position strictly improves between rounds
        per_round: dict[int, list[int]] = {}
        for e in cert.trace:
            if e.stage == 3:
                per_round.setdefault(e.iteration, []).append(e.position)
        maxima = [max(ps) for _, ps in sorted(per_round.items())]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))


class TestPointCorollary:
    """The point case of the box condition: a point x outside hull(C) is a
    box [x, x] whose largest lower bound is its largest upper bound, and the
    semispace stages answer it with one of the semispaces at x."""

    @staticmethod
    def answer(x, C):
        cert = separate_box(Box(x, x), C, with_fallback=False)
        assert cert.outcome == SEMISPACE
        assert cert.separator in semispace_family(x), (x, C)
        assert cert.oracle_calls <= x.dim + 1
        return cert.trace[-1].stage

    def test_exhaustive_in_the_plane_on_quarters(self):
        # every grid point outside the hull of one or two grid generators;
        # the last stages split 3,100 / 2,330 / 1,474 over stages 1 / 2 / 3
        grid = [Point((Fraction(i, 4), Fraction(j, 4))) for i in range(5) for j in range(5)]
        sets = [GeneratedConvexSet(gens) for size in (1, 2) for gens in itertools.combinations(grid, size)]
        last_stages = Counter(self.answer(x, C) for C in sets for x in grid if not hull_contains(C, x))
        assert sum(last_stages.values()) == 6_904
        assert set(last_stages) == {1, 2, 3}

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(points(n), gsets(n))))
    @settings(max_examples=150, deadline=None)
    def test_random_points_on_sixths(self, case):
        x, C = case
        assume(not hull_contains(C, x))
        self.answer(x, C)


@st.composite
def rank_instances(draw):
    """(d, box, generators) on the ranks of the grid k/d: n = 2..7 and 1 to
    5 generators."""
    n = draw(st.integers(2, 7))
    d = draw(st.sampled_from((3, 4, 6, 8, 12)))
    point = st.tuples(*[st.integers(0, d)] * n)
    p, q = draw(point), draw(point)
    box = RankBox(tuple(map(min, p, q)), tuple(map(max, p, q)))
    return d, box, tuple(draw(st.lists(point, min_size=1, max_size=5)))


class TestBandRounds:
    """The two facts the band rounds of separate rely on."""

    @given(rank_instances())
    @settings(max_examples=200, deadline=None)
    def test_thresholds_fall_strictly_to_one(self, case):
        _, box, _ = case
        thresholds = [s for s, _ in separation.lower_partition(box)]
        assert thresholds[-1] == 1
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    # an instance that runs three band rounds (tests/test_sweep_bound.py)
    @example((12, RankBox((8, 7, 7, 5), (8, 7, 10, 6)), ((5, 9, 10, 2), (7, 11, 10, 9), (1, 0, 10, 11), (1, 1, 6, 3))), False)
    @given(rank_instances(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_each_round_stays_in_one_band_and_the_bands_move_left(self, case, fallback):
        d, box, gens = case
        assume(box_hull_point(box, gens, d) is None)
        cert = separation.separate(grid_scale(d), box, gens, with_fallback=fallback)
        rounds: dict[int, list[int]] = {}
        for e in cert.trace:
            if e.stage == 3:
                rounds.setdefault(e.iteration, []).append(e.position)
        target(float(len(rounds)))
        thresholds = [s for s, _ in separation.lower_partition(box)]
        ends = [len(box.lower) + 1, *thresholds]  # ends[k] closes the band of stage k
        ks = []
        for _, positions in sorted(rounds.items()):
            k = next(k for k, s in enumerate(thresholds) if s <= max(positions))
            assert all(thresholds[k] <= p < ends[k] for p in positions)
            ks.append(k)
        assert all(a < b for a, b in zip(ks, ks[1:]))

    @example((12, RankBox((8, 7, 7, 5), (8, 7, 10, 6)), ((5, 9, 10, 2), (7, 11, 10, 9), (1, 0, 10, 11), (1, 1, 6, 3))))
    @given(rank_instances())
    @settings(max_examples=300, deadline=None)
    def test_candidates_match_the_sorted_construction(self, case):
        d, box, gens = case
        assume(box_hull_point(box, gens, d) is None)
        cert = separation.separate(grid_scale(d), box, gens, with_fallback=False)
        part = separation.lower_partition(box)
        perm, _, _ = lower_sorted(box.lower, box.upper)
        thresholds: dict[int, int] = {}
        band_entries = [e for e in cert.trace if e.stage == 3]
        target(float(len(band_entries)))
        for e in band_entries:
            # a round tries its failing positions right to left, so its
            # first entry sits at the rightmost one, which picks the stage
            s = thresholds.setdefault(e.iteration, next(s for s, _ in part if s <= e.position))
            assert e.candidate.x0 == sorted_band_candidate(box.lower, box.upper, s, e.position)
            assert e.candidate.coordinate == perm[e.position - 1]


class TestCheckSepCond:
    def test_holds_on_separable_instance(self):
        assert check_sep_cond(box("0.6,0.1", "0.9,0.3"), gset("0.2,0.5", "0.4,0.9")) is None

    def test_violation_witness(self):
        w = check_sep_cond(box("0,0.3", "1,0.5"), gset("0.4,0.8"))
        assert w == pt("0.4,0.8")

    @given(boxes(2, coord4), gsets(2, coord4))
    @settings(max_examples=60, deadline=None)
    def test_matches_pipeline_outcome(self, B, C):
        assume(not box_intersects_hull(B, C))
        w = check_sep_cond(B, C)
        cert = separate_box(B, C, with_fallback=False)
        assert (w is None) == (cert.outcome == SEMISPACE)


class TestExactReferee:
    """separation.assert_nonseparable: the exact referee verify runs."""

    def test_names_the_separator_the_witness_misses(self):
        S = separation.assert_nonseparable(box("0.2,0.2", "0.8,0.5"), gset("0.9,0.9"))
        assert S == SemispaceDescriptor(pt("0.8,0.5"), None)

    def test_blocked_instance_has_no_separator(self):
        assert separation.assert_nonseparable(box("0,0.3", "1,0.5"), gset("0.4,0.8")) is None

    def test_rejects_intersecting_inputs(self):
        with pytest.raises(IntersectionError, match=r"^box and hull share the point \(1/2, 1/2\)$"):
            separation.assert_nonseparable(box("0,0", "0.5,0.5"), gset("0.5,0.5"))


class TestAssertNonseparable:
    def test_confirms_witnessed_instance(self):
        assert assert_nonseparable(box("0,0.3", "1,0.5"), gset("0.4,0.8"), Fraction(1, 10))

    def test_refutes_separable_instance(self):
        assert not assert_nonseparable(
            box("0.6,0.1", "0.9,0.3"), gset("0.2,0.5", "0.4,0.9"), Fraction(1, 10)
        )

    @pytest.mark.parametrize("step", [Fraction(2, 5), Fraction(0), Fraction(3, 2)])
    def test_rejects_bad_steps(self, step):
        with pytest.raises(ValueError):
            assert_nonseparable(box("0,0", "0.5,0.5"), gset("0.7,0.7"), step)

    def test_rejects_intersecting_inputs(self):
        with pytest.raises(IntersectionError):
            assert_nonseparable(box("0,0", "0.5,0.5"), gset("0.5,0.5"), Fraction(1, 5))
