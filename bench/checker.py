"""Independent checker for maxminsep answers, certificates and verify reports.

Nothing here imports maxminsep.  Every instance lives on a grid 1/den, and
every scalar is handled as its integer numerator over den, so "1" is den.
The checks are derived from the definitions of the paper, not from the
program's code:

* hull membership: y lies in the max-min hull of v_1..v_m iff the principal
  combination max_j min(lam_j, v_j) with lam_j = min{y_i : v_ji > y_i}
  (den when no coordinate exceeds) reconstructs y and some lam_j is den;
* the semispace S0 at x0 is {x : x_i > x0_i for some i}; the semispace Si at
  x0 (threshold tau = x0_i) is {x : x_i < tau, or x_m > x0_m for some m with
  x0_m < tau}; the hemispace over M is {x : x_i > x0_i for some i in M};
* a semispace contains a hull iff it contains its generators, and it misses
  a box iff the box lies in its complement; so the largest candidate of
  each type around the box decides whether any semispace separates.

All results of the max-min algebra reuse input coordinates, 0 and 1, so a
scalar off the instance grid is itself a defect.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SEMISPACE = "semispace"
HEMISPACE = "hemispace"
NOT_SEPARABLE = "not-separable"


class CheckError(ValueError):
    """A document does not have the shape or the values a check needs."""


@dataclass(frozen=True)
class BoxInstance:
    den: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class PairInstance:
    den: int
    first: tuple[tuple[int, ...], ...]
    second: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------- wire format

def scalar_text(k: int, den: int) -> str:
    """Exact wire string of k/den as a reduced fraction or an integer."""
    f = Fraction(k, den)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def point_text(p, den: int) -> list[str]:
    return [scalar_text(k, den) for k in p]


def parse_scalar(text, den: int) -> int:
    if not isinstance(text, str):
        raise CheckError(f"scalar {text!r} is not a string")
    try:
        v = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"scalar {text!r} does not parse") from None
    k = v * den
    if k.denominator != 1 or not 0 <= k <= den:
        raise CheckError(f"scalar {text!r} is off the 1/{den} grid of the unit interval")
    return int(k)


def parse_point(data, den: int, dim: int) -> tuple[int, ...]:
    if not isinstance(data, list) or len(data) != dim:
        raise CheckError(f"point {data!r} is not a list of {dim} scalars")
    return tuple(parse_scalar(c, den) for c in data)


def box_instance_dict(inst: BoxInstance, grid: int = 10) -> dict:
    return {
        "dimension": inst.dim,
        "box": {"lower": point_text(inst.lower, inst.den), "upper": point_text(inst.upper, inst.den)},
        "sets": {"C": [point_text(v, inst.den) for v in inst.gens]},
        "options": {"grid": grid, "fallback": True},
    }


def pair_instance_dict(inst: PairInstance, grid: int = 10) -> dict:
    return {
        "dimension": 2,
        "sets": {
            "C1": [point_text(v, inst.den) for v in inst.first],
            "C2": [point_text(v, inst.den) for v in inst.second],
        },
        "options": {"grid": grid, "fallback": True},
    }


# ------------------------------------------------------------- max-min algebra

def greatest_below(gens, cap, top: int):
    """Greatest hull point <= cap, or None when no hull point fits under cap."""
    lam = []
    for v in gens:
        b = top
        for vi, ci in zip(v, cap):
            if vi > ci and ci < b:
                b = ci
        lam.append(b)
    if max(lam) != top:
        return None
    return tuple(max(min(l, v[i]) for l, v in zip(lam, gens)) for i in range(len(cap)))


def hull_contains(gens, y, top: int) -> bool:
    return greatest_below(gens, y, top) == tuple(y)


def leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def box_meets_hull(lower, upper, gens, top: int) -> bool:
    """The greatest hull point under the upper corner decides it."""
    g = greatest_below(gens, upper, top)
    return g is not None and leq(lower, g)


def hulls_meet(first, second, top: int) -> bool:
    """Alternate greatest points under a falling cap; the intersection of two
    hulls is closed under max, so it is empty iff the descent runs dry."""
    cap = (top,) * len(first[0])
    while True:
        g1 = greatest_below(first, cap, top)
        if g1 is None:
            return False
        g2 = greatest_below(second, g1, top)
        if g2 is None:
            return False
        if g2 == cap:
            return True
        cap = g2


def bounding_box(gens):
    n = len(gens[0])
    return (tuple(min(v[i] for v in gens) for i in range(n)),
            tuple(max(v[i] for v in gens) for i in range(n)))


def upper_positions(upper) -> dict[int, int]:
    """1-based position of each coordinate with upper bounds sorted descending
    (ties keep coordinate order)."""
    order = sorted(range(len(upper)), key=lambda i: (-upper[i], i))
    return {o: p for p, o in enumerate(order, start=1)}


def profile_threshold(lower, upper) -> int:
    """Greatest upper-sorted position whose upper bound is >= every lower bound
    at positions up to it."""
    order = sorted(range(len(upper)), key=lambda i: (-upper[i], i))
    t, running = 1, -1
    for p, o in enumerate(order, start=1):
        running = max(running, lower[o])
        if upper[o] >= running:
            t = p
    return t


def semispace_contains(x0, i: int, x) -> bool:
    """i = 0 for S0, else the 0-based threshold coordinate of Si."""
    if i == 0:
        return any(a > b for a, b in zip(x, x0))
    o = i - 1
    tau = x0[o]
    return x[o] < tau or any(x0[m] < tau and x[m] > x0[m] for m in range(len(x0)))


def semispace_misses_box(x0, i: int, lower, upper) -> bool:
    if i == 0:
        return leq(upper, x0)
    o = i - 1
    tau = x0[o]
    return lower[o] >= tau and all(upper[m] <= x0[m] for m in range(len(x0)) if x0[m] < tau)


def semispace_is_family_member(x0, i: int, top: int) -> bool:
    """S0 is maximal only when no coordinate is 1; Si is empty when x0_i is 0."""
    return max(x0) < top if i == 0 else x0[i - 1] > 0


def hemispace_contains(x0, M, x) -> bool:
    return any(x[i] > x0[i] for i in M)


def hemispace_misses_box(x0, M, upper) -> bool:
    return all(upper[i] <= x0[i] for i in M)


def is_nonseparable_witness(inst: BoxInstance, y) -> bool:
    if not hull_contains(inst.gens, y, inst.den) or not leq(inst.lower, y):
        return False
    escape = [i for i in range(inst.dim) if y[i] > inst.upper[i]]
    t = profile_threshold(inst.lower, inst.upper)
    pos = upper_positions(inst.upper)
    return bool(escape) and all(pos[i] <= t for i in escape)


def semispace_separable(inst: BoxInstance) -> bool:
    """Whether some semispace of a family contains every generator and
    misses the box.  Enough to try the largest candidate of each type:
    S0 at the upper corner (a family member only when no upper bound is 1),
    and for each coordinate o the Si whose complement is smallest around
    the box, {x : x_o >= lower_o, x_m <= upper_m where upper_m < lower_o}
    (a family member only when lower_o > 0)."""
    gens, lower, upper = inst.gens, inst.lower, inst.upper
    if max(upper) < inst.den and not any(leq(v, upper) for v in gens):
        return True
    for o in range(inst.dim):
        if lower[o] == 0:
            continue
        watched = [m for m in range(inst.dim) if upper[m] < lower[o]]
        if not any(v[o] >= lower[o] and all(v[m] <= upper[m] for m in watched) for v in gens):
            return True
    return False


def expected_box_outcome(inst: BoxInstance, fallback: bool) -> str:
    if semispace_separable(inst):
        return SEMISPACE
    # the largest hemispace missing the box watches every coordinate whose
    # upper bound is below 1
    M = [i for i in range(inst.dim) if inst.upper[i] < inst.den]
    if fallback and all(hemispace_contains(inst.upper, M, v) for v in inst.gens):
        return HEMISPACE
    return NOT_SEPARABLE


# ------------------------------------------------------------------ documents

def _descriptor(data, den: int, dim: int):
    """(x0, i, M) with i = 0 for S0 and M None unless a hemispace."""
    if not isinstance(data, dict):
        raise CheckError(f"descriptor {data!r} is not an object")
    x0 = parse_point(data.get("x0"), den, dim)
    kind = data.get("type")
    if kind == "S0" and "M" in data:
        M = data["M"]
        if not isinstance(M, list) or not all(isinstance(k, int) and 1 <= k <= dim for k in M):
            raise CheckError(f"hemispace index list {M!r} is not 1-based in 1..{dim}")
        return x0, 0, [k - 1 for k in M]
    if kind == "S0":
        return x0, 0, None
    if kind == "Si":
        i = data.get("i")
        if not isinstance(i, int) or not 1 <= i <= dim:
            raise CheckError(f"semispace index {i!r} outside 1..{dim}")
        return x0, i, None
    raise CheckError(f"unknown descriptor type {kind!r}")


def _contains(desc, x) -> bool:
    x0, i, M = desc
    return hemispace_contains(x0, M, x) if M is not None else semispace_contains(x0, i, x)


def certificate_box_instance(doc, den: int) -> BoxInstance:
    """The box instance a box certificate carries, on the 1/den grid."""
    inst = doc.get("instance") if isinstance(doc, dict) else None
    if not isinstance(inst, dict) or not isinstance(inst.get("dimension"), int):
        raise CheckError("certificate carries no instance with an integer dimension")
    n = inst["dimension"]
    box = inst.get("box")
    if not isinstance(box, dict):
        raise CheckError("certificate instance carries no box")
    lower, upper = parse_point(box.get("lower"), den, n), parse_point(box.get("upper"), den, n)
    sets = inst.get("sets")
    if not isinstance(sets, dict) or not sets:
        raise CheckError("certificate instance has no generated set")
    gens = next(iter(sets.values()))
    if not isinstance(gens, list) or not gens:
        raise CheckError("generated set is empty")
    return BoxInstance(den, lower, upper, tuple(parse_point(v, den, n) for v in gens))


def certificate_pair_instance(doc, den: int) -> PairInstance:
    inst = doc.get("instance") if isinstance(doc, dict) else None
    if not isinstance(inst, dict) or inst.get("dimension") != 2:
        raise CheckError("two-set certificate carries no planar instance")
    sets = inst.get("sets")
    if not isinstance(sets, dict) or len(sets) < 2:
        raise CheckError("two-set certificate instance needs two sets")
    first, second = list(sets.values())[:2]
    return PairInstance(
        den,
        tuple(parse_point(v, den, 2) for v in first),
        tuple(parse_point(v, den, 2) for v in second),
    )


def box_certificate_problems(doc, den: int) -> list[str]:
    """What is false in the claim a box certificate makes about its own
    instance; empty when the certificate is valid."""
    try:
        inst = certificate_box_instance(doc, den)
        outcome = doc.get("outcome")
        if outcome in (SEMISPACE, HEMISPACE):
            desc = _descriptor(doc.get("separator"), den, inst.dim)
            x0, i, M = desc
            if (M is not None) != (outcome == HEMISPACE):
                return [f"{outcome} outcome carries the wrong descriptor type"]
            problems = []
            if not all(_contains(desc, v) for v in inst.gens):
                problems.append("a generator lies outside the separator")
            misses = (hemispace_misses_box(x0, M, inst.upper) if M is not None
                      else semispace_misses_box(x0, i, inst.lower, inst.upper))
            if not misses:
                problems.append("the separator meets the box")
            return problems
        if outcome == NOT_SEPARABLE:
            y = parse_point(doc.get("witness"), den, inst.dim)
            problems = []
            if not is_nonseparable_witness(inst, y):
                problems.append("the witness is no hull point above the lower bounds escaping only up to t")
            if semispace_separable(inst):
                problems.append("a semispace separates the instance")
            return problems
        return [f"unknown outcome {outcome!r}"]
    except CheckError as exc:
        return [str(exc)]


def two_set_certificate_problems(doc, den: int) -> list[str]:
    """What is false in the claim a two-set certificate makes."""
    try:
        inst = certificate_pair_instance(doc, den)
        boxed = doc.get("boxed_set")
        if boxed not in (1, 2):
            return [f"boxed_set {boxed!r} is not 1 or 2"]
        box = doc.get("box")
        if not isinstance(box, dict):
            return ["two-set certificate carries no box"]
        lower = parse_point(box.get("lower"), den, 2)
        upper = parse_point(box.get("upper"), den, 2)
        inner, other = (inst.first, inst.second) if boxed == 1 else (inst.second, inst.first)
        problems = []
        bl, bu = bounding_box(inner)
        if not (leq(lower, bl) and leq(bu, upper)):
            problems.append("the box does not contain its set")
        if box_meets_hull(lower, upper, other, den):
            problems.append("the box meets the other hull")
        if doc.get("semispace") is not None:
            x0, i, M = _descriptor(doc["semispace"], den, 2)
            if M is not None:
                problems.append("two-set certificates carry plain semispaces")
            else:
                if not all(semispace_contains(x0, i, v) for v in other):
                    problems.append("the other set leaves the semispace")
                if not semispace_misses_box(x0, i, lower, upper):
                    problems.append("the semispace meets the box")
        return problems
    except CheckError as exc:
        return [str(exc)]


def certificate_problems(doc, den: int) -> list[str]:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "box":
        return box_certificate_problems(doc, den)
    if kind == "two-set":
        return two_set_certificate_problems(doc, den)
    return [f"unknown certificate kind {kind!r}"]


def _same_box_instance(doc, inst: BoxInstance) -> bool:
    try:
        return certificate_box_instance(doc, inst.den) == inst
    except CheckError:
        return False


def box_answer_problems(doc, inst: BoxInstance, fallback: bool, planted: bool = False) -> list[str]:
    """Full check of a separate-box answer to the request inst."""
    if not isinstance(doc, dict) or doc.get("kind") != "box":
        return ["answer is not a box certificate"]
    if not _same_box_instance(doc, inst):
        return ["the certificate does not echo the request instance"]
    problems = box_certificate_problems(doc, inst.den)
    outcome = doc.get("outcome")
    want = expected_box_outcome(inst, fallback)
    if outcome != want:
        problems.append(f"outcome {outcome!r}, expected {want!r}")
    if planted and outcome == SEMISPACE:
        problems.append("a planted non-separable instance came back separated by a semispace")
    calls, trace = doc.get("oracle_calls"), doc.get("trace")
    if not isinstance(calls, int) or not isinstance(trace, list):
        return problems + ["oracle_calls or trace missing"]
    if not 1 <= calls <= inst.dim + 1:
        problems.append(f"{calls} oracle calls exceed the budget n+1 = {inst.dim + 1}")
    if calls != len(trace):
        problems.append(f"oracle_calls {calls} differs from the trace length {len(trace)}")
    try:
        for k, entry in enumerate(trace):
            desc = _descriptor(entry.get("candidate") if isinstance(entry, dict) else None, inst.den, inst.dim)
            w = entry.get("witness")
            if w is None:
                if not all(_contains(desc, v) for v in inst.gens):
                    problems.append(f"trace entry {k} claims a sweep passed that fails")
                elif k != len(trace) - 1 or outcome == NOT_SEPARABLE:
                    problems.append(f"trace entry {k} passed but the pipeline went on")
            else:
                w = parse_point(w, inst.den, inst.dim)
                if w not in inst.gens or _contains(desc, w):
                    problems.append(f"trace entry {k} names a witness that is no escaping generator")
        if outcome in (SEMISPACE, HEMISPACE) and trace and trace[-1].get("candidate") != doc.get("separator"):
            problems.append("the separator is not the last candidate swept")
        sep = doc.get("separator")
        if outcome == SEMISPACE and isinstance(sep, dict):
            x0, i, _ = _descriptor(sep, inst.den, inst.dim)
            if not semispace_is_family_member(x0, i, inst.den):
                problems.append("the separator is no semispace of the family at its point")
    except CheckError as exc:
        problems.append(str(exc))
    return problems


def two_set_answer_problems(doc, inst: PairInstance, with_semispace: bool) -> list[str]:
    if not isinstance(doc, dict) or doc.get("kind") != "two-set":
        return ["answer is not a two-set certificate"]
    try:
        if certificate_pair_instance(doc, inst.den) != inst:
            return ["the certificate does not echo the request instance"]
    except CheckError as exc:
        return [str(exc)]
    problems = two_set_certificate_problems(doc, inst.den)
    if (doc.get("semispace") is not None) != with_semispace:
        problems.append("semispace present without --with-semispace or missing with it")
    sep = doc.get("semispace")
    if with_semispace and isinstance(sep, dict):
        try:
            x0, i, M = _descriptor(sep, inst.den, 2)
            if M is None and not semispace_is_family_member(x0, i, inst.den):
                problems.append("the semispace is no member of the family at its point")
        except CheckError as exc:
            problems.append(str(exc))
    return problems


def verify_report_problems(doc, grid: int, expect_valid: bool) -> list[str]:
    if not isinstance(doc, dict) or set(doc) != {"valid", "grid", "checks"}:
        return ["verify report does not have exactly valid, grid and checks"]
    checks = doc["checks"]
    problems = []
    if doc["grid"] != grid:
        problems.append(f"verify used grid {doc['grid']!r}, expected {grid}")
    if not isinstance(checks, list) or not checks or not all(
        isinstance(c, dict) and isinstance(c.get("ok"), bool) for c in checks
    ):
        return problems + ["verify report has no well-formed checks"]
    if doc["valid"] != all(c["ok"] for c in checks):
        problems.append("valid disagrees with the individual checks")
    if doc["valid"] is not expect_valid:
        problems.append(f"verify says valid={doc['valid']!r}, the checker says {expect_valid}")
    return problems
