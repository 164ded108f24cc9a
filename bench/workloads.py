"""Seeded inputs for the three benchmark workloads.

A workload is one round of requests: the timed loop repeats the round
whole, so every run attempts the same mix and the same known-fault
requests.  Each request is a maxminsep command line plus the files it
reads, and carries what the independent checker needs to judge the
answer.  Disjointness of every generated pair is decided by the checker's
own integer code; the program only ever sees the generated files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

import checker as ck

LADDER_DEN = 100
# requests per round on each rung: the median falls inside the n4 band and
# the 90th percentile inside the n16 band, both narrow, rather than on the
# edge between two rungs or in the wide planar band
LADDER_RUNGS = {2: 96, 4: 96, 8: 32, 16: 60, 32: 8, 64: 4}
LADDER_PLANAR = 8  # pairs per round, each sent with and without --with-semispace

STAGED_DEN = 100
STAGED_DIMS = range(3, 17)
STAGED_PER_KIND = 8  # per dimension and kind (hug, planted, tall) per round

# (dimension, grid denominator, certificate kinds), each cell made
# VERIFY_COPIES times per round; one verify request takes roughly 0.02-0.2 s
# at these sizes
VERIFY_CELLS = (
    (2, 24, ("semispace", "semispace", "hemispace", "not-separable", "two-set", "two-set+")),
    (3, 7, ("semispace", "semispace", "hemispace", "not-separable")),
    (4, 4, ("semispace", "semispace", "hemispace", "not-separable")),
)
VERIFY_COPIES = 6
VERIFY_PAIR_GENERATORS = (8, 8)
# (dimension, position in the cell) of the certificates that also go out tampered
VERIFY_TAMPERED = ((2, 0), (2, 4), (3, 2), (4, 0), (4, 3))

# Known fault: the JSON boundary coerces these instead of raising ParseError.
HOSTILE = (
    ("hostile-fallback-string", {
        "dimension": 2,
        "box": {"lower": ["0", "0.3"], "upper": ["1", "0.5"]},
        "sets": {"C": [["0.4", "0.8"]]},
        "options": {"fallback": "false"},
    }),
    ("hostile-dimension-bool", {
        "dimension": True,
        "box": {"lower": ["0.2"], "upper": ["0.5"]},
        "sets": {"C": [["0.8"]]},
    }),
)


@dataclass
class Request:
    """One operation: `args` are CLI arguments after the subcommand, with
    the placeholder {input} standing for the request's input file."""

    label: str
    command: str
    args: list[str]
    document: dict
    kind: str  # box, pair, verify or hostile
    inst: object = None
    fallback: bool = True
    planted: bool = False
    with_semispace: bool = False
    grid: int = 0
    expect_valid: bool = True
    known_fault: bool = False


# ---------------------------------------------------------------- generators

def _random_box(r: random.Random, n: int, den: int):
    pairs = [sorted((r.randrange(den + 1), r.randrange(den + 1))) for _ in range(n)]
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def _random_point(r: random.Random, n: int, lo: int, hi: int):
    return tuple(r.randrange(lo, hi + 1) for _ in range(n))


def disjoint_box_instance(r: random.Random, n: int, m: int, den: int) -> ck.BoxInstance:
    """Uniform random box and m uniform generators, redrawn until disjoint."""
    while True:
        lower, upper = _random_box(r, n, den)
        gens = tuple(_random_point(r, n, 0, den) for _ in range(m))
        if not ck.box_meets_hull(lower, upper, gens, den):
            return ck.BoxInstance(den, lower, upper, gens)


def hug_instance(r: random.Random, n: int, den: int) -> ck.BoxInstance:
    """A box sitting just above a generator h on some coordinates, with a
    cluster of generators around h and some upper bounds at 1, so the
    levelled semispace fails and stage-3 band rounds run."""
    spread = max(1, den * 15 // 100)
    while True:
        h = _random_point(r, n, den // 5, den - den // 5)
        gens = [h] + [
            tuple(max(0, min(den, x + r.randint(-spread, spread))) for x in h) for _ in range(n - 1)
        ]
        lower = list(h)
        upper = [min(den, x + r.randrange(den // 5)) for x in h]
        for j in r.sample(range(n), r.randint(1, max(1, n // 2))):
            lower[j] = min(den, h[j] + r.randint(1, max(1, den // 10)))
            upper[j] = max(upper[j], lower[j])
        for j in r.sample(range(n), r.randint(1, max(1, n // 4))):
            upper[j] = den
        r.shuffle(gens)
        inst = ck.BoxInstance(den, tuple(lower), tuple(upper), tuple(gens))
        if not ck.box_meets_hull(inst.lower, inst.upper, inst.gens, den):
            return inst


def planted_instance(r: random.Random, n: int, den: int) -> ck.BoxInstance:
    """Plant a generator p that dominates the lower bounds and exceeds the
    upper bounds only on coordinates E at upper-sorted positions <= t; no
    semispace can then separate.  Coordinates T sit below the level L of the
    highest lower bound and fill the positions after t."""
    while True:
        L = r.randint(max(1, den // 5), 3 * den // 5)
        idx = list(range(n))
        r.shuffle(idx)
        ne, nt = r.randint(1, max(1, n // 4)), r.randint(0, n // 4)
        E, T, rest = idx[:ne], idx[ne:ne + nt], idx[ne + nt:]
        if not rest:
            continue
        lower, upper, p = [0] * n, [0] * n, [0] * n
        for i in T:
            upper[i] = r.randrange(L)
            lower[i] = r.randint(0, upper[i])
            p[i] = r.randint(lower[i], upper[i])
        for i in E:
            p[i] = r.randint(L + 1, den)
            upper[i] = r.randrange(L, p[i])
            lower[i] = r.randint(0, L)
        for k, i in enumerate(rest):
            upper[i] = den if k == 0 else r.randint(L, den)
            lower[i] = L if k == len(rest) - 1 else r.randint(0, L)
            p[i] = r.randint(lower[i], upper[i])
        gens = [tuple(p)] + [_random_point(r, n, 0, den) for _ in range(n - 1)]
        r.shuffle(gens)
        inst = ck.BoxInstance(den, tuple(lower), tuple(upper), tuple(gens))
        if not ck.box_meets_hull(inst.lower, inst.upper, inst.gens, den):
            if ck.semispace_separable(inst):
                raise AssertionError("planted witness failed to block semispace separation")
            return inst


def tall_instance(r: random.Random, n: int, den: int) -> ck.BoxInstance:
    """Random box with about a quarter of its upper bounds at 1."""
    while True:
        lower, upper = _random_box(r, n, den)
        upper = list(upper)
        for j in r.sample(range(n), r.randint(1, max(1, n // 4))):
            upper[j] = den
        gens = tuple(_random_point(r, n, 0, den) for _ in range(n))
        if not ck.box_meets_hull(lower, upper, gens, den):
            return ck.BoxInstance(den, lower, tuple(upper), gens)


def disjoint_pair(r: random.Random, den: int, interior: bool, gens=(4, 32)) -> ck.PairInstance:
    """Two planar sets whose coordinate ranges are split by a cut on one
    axis, so their bounding boxes and hence their hulls are disjoint."""
    lo, hi = (1, den - 1) if interior else (0, den)
    axis = r.randrange(2)
    cut = r.randint(lo + 2 + (hi - lo) // 5, hi - 2 - (hi - lo) // 5)

    def side(a: int, b: int):
        pts = []
        for _ in range(r.randint(*gens)):
            q = [r.randint(lo, hi), r.randint(lo, hi)]
            q[axis] = r.randint(a, b)
            pts.append(tuple(q))
        return tuple(pts)

    first, second = side(lo, cut - 1), side(cut + 1, hi)
    if r.random() < 0.5:
        first, second = second, first
    if ck.hulls_meet(first, second, den):
        raise AssertionError("split planar pair intersects")
    return ck.PairInstance(den, first, second)


# ------------------------------------------------------------------ requests

def _box_request(label, inst, fallback=True, planted=False, grid=10) -> Request:
    args = ["-i", "{input}"] + ([] if fallback else ["--no-fallback"])
    return Request(label, "separate-box", args, ck.box_instance_dict(inst, grid=grid), "box",
                   inst=inst, fallback=fallback, planted=planted, grid=grid)


def _pair_request(label, inst, with_semispace, grid=10) -> Request:
    args = ["-i", "{input}"] + (["--with-semispace"] if with_semispace else [])
    return Request(label, "separate-2d", args, ck.pair_instance_dict(inst, grid), "pair",
                   inst=inst, with_semispace=with_semispace, grid=grid)


def separate_ladder(seed: int) -> list[Request]:
    r = random.Random(f"separate-ladder/{seed}")
    reqs = []
    for n, count in LADDER_RUNGS.items():
        for _ in range(count):
            reqs.append(_box_request(f"n{n}", disjoint_box_instance(r, n, 2 * n, LADDER_DEN)))
    for _ in range(LADDER_PLANAR):
        reqs.append(_pair_request("planar", disjoint_pair(r, LADDER_DEN, interior=True), True))
        reqs.append(_pair_request("planar", disjoint_pair(r, LADDER_DEN, interior=False), False))
    return reqs


def separate_staged(seed: int) -> list[Request]:
    r = random.Random(f"separate-staged/{seed}")
    reqs = []
    for n in STAGED_DIMS:
        for k in range(STAGED_PER_KIND):
            reqs.append(_box_request("hug", hug_instance(r, n, STAGED_DEN)))
            reqs.append(_box_request("planted", planted_instance(r, n, STAGED_DEN),
                                     fallback=k % 2 == 0, planted=True))
            reqs.append(_box_request("tall", tall_instance(r, n, STAGED_DEN)))
    return reqs + [Request(label, "separate-box", ["-i", "{input}"], doc, "hostile", known_fault=True)
                   for label, doc in HOSTILE]


def verify_sources(seed: int) -> list[tuple[int, int, Request]]:
    """(dimension, position in cell, request) whose certificates the verify
    requests check; the certificates themselves are made by the program at
    set-up."""
    r = random.Random(f"verify-grid/{seed}")
    out = []
    for n, den, kinds in VERIFY_CELLS * VERIFY_COPIES:
        for pos, kind in enumerate(kinds):
            label = f"verify-n{n}-{kind}"
            if kind.startswith("two-set"):
                pair = disjoint_pair(r, den, interior=True, gens=VERIFY_PAIR_GENERATORS)
                req = _pair_request(label, pair, kind.endswith("+"), grid=den)
            elif kind == "semispace":
                while True:
                    inst = disjoint_box_instance(r, n, 2 * n, den)
                    if ck.expected_box_outcome(inst, True) == ck.SEMISPACE:
                        break
                req = _box_request(label, inst, grid=den)
            elif kind == "hemispace":
                while True:
                    inst = planted_instance(r, n, den)
                    if ck.expected_box_outcome(inst, True) == ck.HEMISPACE:
                        break
                req = _box_request(label, inst, planted=True, grid=den)
            else:
                req = _box_request(label, planted_instance(r, n, den), fallback=False, planted=True, grid=den)
            out.append((n, pos, req))
    return out


def tamper(doc: dict) -> dict:
    """A copy whose claim is broken: the separator moves to the box's lower
    corner, the witness to that corner, or the planar box grows to the cube."""
    bad = json.loads(json.dumps(doc))
    if bad["kind"] == "two-set":
        dim = len(bad["box"]["lower"])
        bad["box"] = {"lower": ["0"] * dim, "upper": ["1"] * dim}
    elif bad["outcome"] == ck.NOT_SEPARABLE:
        bad["witness"] = list(bad["instance"]["box"]["lower"])
    else:
        bad["separator"]["x0"] = list(bad["instance"]["box"]["lower"])
    return bad


def build(workload: str, seed: int) -> list[Request]:
    """The round of a workload that needs no program output to build: the
    ladder followed by the staged requests."""
    if workload == "separate":
        return separate_ladder(seed) + separate_staged(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("separate", "verify-grid")
