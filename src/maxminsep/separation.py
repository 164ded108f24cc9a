"""Certified separation of a box from a finitely generated max-min convex set.

separate_box produces, for disjoint inputs, either a semispace containing
the generated set and missing the box, a hemispace doing the same when the
semispace candidates fail, or a not-separable outcome with a witness: a
hull point that is ≥ the box lower bound everywhere and beats the box upper
bound only on sorted positions up to the box profile threshold t.

The witness alone does not rule out every semispace.  For the box
[0.2,0.8]×[0.2,0.5] and C = {(0.9,0.9)} the generator is such a point, yet
the upper-type semispace at (0.8,0.5) separates.  The not-separable
outcome means that every candidate of the pipeline failed;
assert_nonseparable confirms it exactly with the referee's own decision
(oracle.exact_separator), which shares no code with the pipeline.

The pipeline spends at most n+1 containment sweeps over the generators
(oracle_calls in the certificate).  Every returned separator is re-checked
defensively: containment of the set and emptiness against the box.  A
broken invariant raises InternalError naming the stage and the number of
sweeps traced so far.

separate, upper_profile and lower_partition are the algorithms, on tuples of
any ordered scalars with a given top (see core); separate_box and box_profile
run them on the exact coordinates with top 1.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate

from .core import (
    EXACT,
    ONE,
    Point,
    RankBox,
    Ranks,
    Scale,
    check_same_dim,
    descending_order,
    join_ranks,
    meet_ranks,
)
from .convex import Box, GeneratedConvexSet, box_hull_point, box_hull_witness
from .errors import InternalError, IntersectionError
from .oracle import exact_separator
from .semispaces import (
    Descriptor,
    HemispaceDescriptor,
    SemispaceDescriptor,
    decode_descriptor,
    first_outside,
    misses_box,
)

SEMISPACE = "semispace"
HEMISPACE = "hemispace"
NOT_SEPARABLE = "not-separable"


@dataclass(frozen=True)
class BoxProfile:
    """Upper-bound ordering data of a box.

    upper_perm sorts the upper bounds descending (1-based positions to
    0-based coordinates, ties stable).  t is the greatest position whose
    upper bound dominates every lower bound at positions ≤ t; it exists
    because position 1 qualifies.  l is the smallest position ≤ t carrying
    the largest lower bound among positions ≤ t, and u is the point that
    levels positions ≤ t at that bound and keeps the upper bounds after t;
    its maximum coordinate is exactly lower_l.
    """

    upper_perm: tuple[int, ...]
    t: int
    l: int
    u: Point | Ranks


@dataclass(frozen=True)
class PartitionStage:
    """One stage of the lower-bound partition: threshold position s,
    member positions (1-based, in lower-sorted order) and level a."""

    s: int
    members: frozenset[int]
    level: Fraction | int


@dataclass(frozen=True)
class PartitionProfile:
    lower_perm: tuple[int, ...]
    stages: tuple[PartitionStage, ...]


@dataclass(frozen=True)
class TraceEntry:
    """One candidate tried by the pipeline, with the generator that
    escaped it (None when the candidate worked)."""

    stage: int
    candidate: Descriptor
    witness: Point | Ranks | None
    iteration: int | None = None
    position: int | None = None


@dataclass(frozen=True)
class SeparationCertificate:
    outcome: str
    separator: Descriptor | None
    witness: Point | Ranks | None
    trace: tuple[TraceEntry, ...]

    @property
    def oracle_calls(self) -> int:
        """The containment sweeps spent: one per trace entry."""
        return len(self.trace)

    @property
    def separated(self) -> bool:
        return self.outcome in (SEMISPACE, HEMISPACE)


def _unsort(perm: tuple[int, ...], values) -> Ranks:
    """The point whose coordinate perm[q] is values[q]: undo a sort."""
    coords = [0] * len(perm)
    for o, v in zip(perm, values):
        coords[o] = v
    return tuple(coords)


def upper_profile(box: Box | RankBox) -> BoxProfile:
    """Sort upper bounds descending and locate the threshold t and level u."""
    n = len(box.lower)
    perm = descending_order(box.upper)
    ups = [box.upper[o] for o in perm]
    lows = [box.lower[o] for o in perm]
    prefix_max = list(accumulate(lows, max))
    t = next(p for p in range(n, 0, -1) if ups[p - 1] >= prefix_max[p - 1])
    peak = prefix_max[t - 1]
    l = next(p for p in range(1, t + 1) if lows[p - 1] == peak)
    return BoxProfile(upper_perm=perm, t=t, l=l, u=_unsort(perm, [peak] * t + ups[t:]))


def lower_partition(box: Box | RankBox) -> PartitionProfile:
    """Partition the lower-sorted positions into stages of one level each.

    With lower bounds sorted descending, position q joins the stage of
    threshold s = 1 + c, c the number of lower bounds above ups[q]; stages
    are listed by threshold, descending, down to 1.  A stage's level is the
    least upper bound among its members, and it lies inside [lower, upper]
    of every position ≥ s of its own or a later stage.

    This is the partition of the right-to-left scan that takes, stage by
    stage, the smallest s whose lower bound fits under every unplaced upper
    bound from s on, and places the unplaced positions ≥ s whose upper
    bound is below lows[s - 1] (all of them once s = 1).  The lower bounds
    above ups[q] are exactly positions 1..c, all before q, because the
    lower bounds descend and lows[q] ≤ ups[q].  The scan leaves q unplaced
    until it reaches the threshold s whose position s - 1 holds the last
    lower bound above ups[q], so s - 1 = c.  Position 1 always lands at s = 1.
    """
    perm = descending_order(box.lower)
    if any(l > u for l, u in zip(box.lower, box.upper)):
        raise InternalError("lower partition needs every lower bound at most its upper bound")
    ascending = sorted(box.lower)
    members: dict[int, list[int]] = {}
    for q, o in enumerate(perm, start=1):
        members.setdefault(len(perm) + 1 - bisect_right(ascending, box.upper[o]), []).append(q)
    return PartitionProfile(perm, tuple(
        PartitionStage(s, frozenset(qs), min(box.upper[perm[q - 1]] for q in qs))
        for s, qs in sorted(members.items(), reverse=True)
    ))


def separate(
    scale: Scale, box: RankBox, gens: tuple[Ranks, ...], *, with_fallback: bool = True
) -> SeparationCertificate:
    """Separate a box from a disjoint generated set, with certificate, on
    the scalars of `scale` (a Scale's ranks, or exact values under EXACT).

    Candidates are tried in a fixed order: the upper-type semispace at
    the upper corner when no upper bound reaches 1; otherwise the semispace
    levelled at the dominant lower bound of the box profile; then, round by
    round, per failing lower-sorted position of one band (largest first)
    the semispace whose clause set is the union of the earlier partition
    stages.  A round's band is [s_k, s_(k-1)) of the first stage k whose
    threshold s_k is ≤ the rightmost failing position; the thresholds of
    lower_partition fall strictly to 1, so the bands tile positions 1..n
    right to left.  Every failed sweep returns a generator, and the join of
    the stage-level meets of those generators with the running witness
    pushes the witness above the box lower bounds on the whole band, so the
    failing band moves strictly left each round and the total number of
    sweeps stays ≤ n+1 (hemispace fallback included: positions where the
    witness beats the upper bound are never tried).  Raises
    IntersectionError when box and hull share a point.
    """
    top = scale.top
    lower, upper = box
    shared = box_hull_point(box, gens, top)
    if shared is not None:
        point = scale.decode(shared)
        raise IntersectionError(f"box and hull share the point {point}", witness=point)
    n = len(lower)
    trace: list[TraceEntry] = []

    def fault(message, stage):
        return InternalError(f"{message} (stage {stage}, {len(trace)} sweeps traced)")

    def sweep(S, stage, iteration=None, position=None):
        if len(trace) >= n + 1:
            raise fault("separation exceeded the n+1 oracle budget", stage)
        w = first_outside(gens, S)
        trace.append(TraceEntry(stage, S, w, iteration, position))
        if w is None and not misses_box(S, box):
            raise fault("pipeline candidate contains the set but meets the box", stage)
        return w

    def done(outcome, separator=None, witness=None):
        return SeparationCertificate(outcome, separator, witness, tuple(trace))

    profile = upper_profile(box)
    if all(v < top for v in upper):
        S = SemispaceDescriptor(upper, None)
        y = sweep(S, stage=1)
    else:
        S = SemispaceDescriptor(profile.u, profile.upper_perm[profile.l - 1])
        y = sweep(S, stage=2)
    if y is None:
        return done(SEMISPACE, S)

    part = lower_partition(box)
    perm = part.lower_perm
    lows = [lower[o] for o in perm]
    ups = [upper[o] for o in perm]

    # at most one round per partition stage, plus the round that sees no
    # failing position left
    for iteration in range(1, n + 2):
        failing = [p for p in range(1, n + 1) if y[perm[p - 1]] < lows[p - 1]]
        if not failing:
            break
        stage = next(st for st in part.stages if st.s <= failing[-1])
        bound = lows[stage.s - 1]  # the earlier stages hold the positions whose ups are below it
        witnesses = []
        for p in [q for q in reversed(failing) if q >= stage.s]:
            u_sorted = [
                ups[q - 1] if ups[q - 1] < bound else (lows[q - 1] if q < p else lows[p - 1])
                for q in range(1, n + 1)
            ]
            S = SemispaceDescriptor(_unsort(perm, u_sorted), perm[p - 1])
            w = sweep(S, stage=3, iteration=iteration, position=p)
            if w is None:
                return done(SEMISPACE, S)
            witnesses.append(w)
        y = join_ranks([y, *(meet_ranks(stage.level, w) for w in witnesses)])
    else:
        raise fault("separation loop exceeded the dimension bound", 3)

    exceed = [i for i in range(n) if y[i] > upper[i]]
    if not exceed:
        raise fault("final witness lies inside the box; inputs were not disjoint", 3)
    pos_of = {o: p for p, o in enumerate(profile.upper_perm, start=1)}
    if any(pos_of[i] > profile.t for i in exceed):
        raise fault("final witness escapes the box beyond the profile threshold", 3)

    if with_fallback:
        H = HemispaceDescriptor(upper, frozenset(i for i in range(n) if upper[i] < top))
        w = sweep(H, stage=4)
        if w is None:
            return done(HEMISPACE, H)
    return done(NOT_SEPARABLE, witness=y)


def decode_certificate(scale: Scale, cert: SeparationCertificate) -> SeparationCertificate:
    """The certificate with every rank point decoded through `scale`."""

    def point(p):
        return None if p is None else scale.decode(p)

    return SeparationCertificate(
        cert.outcome,
        None if cert.separator is None else decode_descriptor(scale, cert.separator),
        point(cert.witness),
        tuple(
            replace(e, candidate=decode_descriptor(scale, e.candidate), witness=point(e.witness))
            for e in cert.trace
        ),
    )


def box_profile(B: Box) -> BoxProfile:
    """Sort upper bounds descending and locate the threshold t and level u;
    see upper_profile."""
    profile = upper_profile(B)
    return replace(profile, u=Point(profile.u))


def separate_box(
    B: Box, C: GeneratedConvexSet, *, with_fallback: bool = True
) -> SeparationCertificate:
    """Separate a box from a disjoint generated set, with certificate; see
    separate."""
    check_same_dim(B.lower, C.generators[0])
    cert = separate(EXACT, RankBox(B.lower.coords, B.upper.coords), C.coords, with_fallback=with_fallback)
    return decode_certificate(EXACT, cert)


def check_sep_cond(B: Box, C: GeneratedConvexSet) -> Point | None:
    """Decide whether a semispace separates B from C.

    Returns None when one does, else the witness of the pipeline's
    not-separable outcome (see the module docstring for what that witness
    shows).  The answer is exact: the pipeline's semispace stages find a
    separator whenever one exists, which tests/test_oracle.py checks
    against the referee's exact decision, oracle.exact_separator.
    """
    cert = separate_box(B, C, with_fallback=False)
    if cert.outcome == NOT_SEPARABLE:
        return cert.witness
    return None


def assert_nonseparable(B: Box, C: GeneratedConvexSet) -> SemispaceDescriptor | None:
    """Referee of the NOT_SEPARABLE outcome: None when no semispace
    separates B from C, else the first separator of oracle.exact_separator.

    Exact whatever grid the instance lies on.  Raises IntersectionError
    when box and hull share a point.
    """
    shared = box_hull_witness(B, C)
    if shared is not None:
        raise IntersectionError(f"box and hull share the point {shared}", witness=shared)
    found = exact_separator(B.lower.coords, B.upper.coords, C.coords, ONE)
    return None if found is None else SemispaceDescriptor(Point(found[0]), found[1])
