"""The checks of `maxminsep verify`: a certificate re-checked on ranks.

verify reads the certificate's instance (serialize.read_instance) and its
separator, witness or box into one ScalarTable.  serialize.on_ranks then
numbers those scalars together with the values of the referee's grid (see
oracle.RankGrid), or on their own Scale for a not-separable claim, and gives
the instance on ranks, as the separation subcommands get theirs.  Every
check runs on the ranks.
Only the verify subcommand loads this module.
"""
from __future__ import annotations

from dataclasses import replace

from . import serialize
from .convex import box_hull_point
from .core import RankBox, Ranks, Scale, leq
from .errors import IntersectionError, ParseError
from .oracle import Grid, RankGrid, _misses, exact_separator, hull, outside, semispace, span
from .semispaces import HemispaceDescriptor
from .separation import HEMISPACE, NOT_SEPARABLE, SEMISPACE, upper_profile


def _check(checks: list, name: str, ok: bool) -> None:
    checks.append({"check": name, "ok": bool(ok)})


def _sweep(checks: list, name: str, point: Ranks | None, scale: Scale) -> None:
    """Record a check that names its offending point, ranks of `scale`, when it fails."""
    _check(checks, name, point is None)
    if point is not None:
        checks[-1]["point"] = [serialize.format_scalar(*scale.pairs[r]) for r in point]


def _field(data: dict, key: str):
    if key not in data:
        raise ParseError(f"certificate lacks its {key!r} field")
    return data[key]


def _box_certificate(data: dict, inst: serialize.Instance, table, grid: Grid, checks: list) -> None:
    if inst.box is None:
        raise ParseError("certificate instance lacks a box")
    serialize.single_set(inst)  # refused before the outcome is read
    outcome = data.get("outcome")
    if outcome in (SEMISPACE, HEMISPACE):
        S = serialize.read_descriptor(_field(data, "separator"), table)
        serialize.at_dimension(inst.dimension, S.x0)
        hemispace = isinstance(S, HemispaceDescriptor)
        if hemispace != (outcome == HEMISPACE):
            carried = HEMISPACE if hemispace else SEMISPACE
            raise ParseError(f"{outcome} outcome carries a {carried} descriptor")
    elif outcome == NOT_SEPARABLE:
        witness = table.point(_field(data, "witness"))
        serialize.at_dimension(inst.dimension, witness)
    else:
        raise ParseError(f"unknown certificate outcome {outcome!r}")
    on_grid = outcome != NOT_SEPARABLE
    inst = serialize.on_ranks(inst, table, RankGrid(grid, table.parsed.values()) if on_grid else None)
    scale, box, gens = inst.scale, inst.box, serialize.single_set(inst)
    in_hull = hull(gens, scale.top)
    if outcome == NOT_SEPARABLE:
        w = table.encode(witness)
        profile = upper_profile(box)
        pos_of = {o: p for p, o in enumerate(profile.upper_perm, start=1)}
        _check(checks, "witness in hull", in_hull(w))
        _check(checks, "witness dominates box lower bounds", leq(box.lower, w))
        exceed = [i for i, (a, u) in enumerate(zip(w, box.upper)) if a > u]
        _check(
            checks,
            "witness escapes inside the profile threshold",
            bool(exceed) and all(pos_of[i] <= profile.t for i in exceed),
        )
        shared = box_hull_point(box, gens, scale.top)
        if shared is not None:
            point = scale.decode(shared)
            raise IntersectionError(f"box and hull share the point {point}", witness=point)
        found = exact_separator(box.lower, box.upper, gens, scale.top)
        x0 = None if found is None else found[0]
        trace = data.get("trace")
        if x0 is None and isinstance(trace, list) and any(isinstance(e, dict) and e.get("stage") == 4 for e in trace):
            # the fallback ran: its extreme hemispace, which misses the box, must fail too
            M = frozenset(i for i, u in enumerate(box.upper) if u < scale.top)
            if all(map(semispace(HemispaceDescriptor(box.upper, M)), gens)):
                x0 = box.upper
        _sweep(checks, "no grid semispace separates", x0, scale)
        return
    S = replace(S, x0=table.encode(S.x0))
    in_S = semispace(S)
    _check(checks, "set inside separator", all(map(in_S, gens)))
    _check(checks, "separator misses box", _misses(in_S, box))
    _sweep(
        checks,
        "grid hull points inside separator",
        scale.first(lambda y: not in_S(y) and in_hull(y), span(gens), outside(S, scale.top)),
        scale,
    )
    if not hemispace:
        _sweep(checks, "no grid box point inside separator", scale.first(in_S, box), scale)


def _two_set_certificate(data: dict, inst: serialize.Instance, table, grid: Grid, checks: list) -> None:
    serialize.two_sets(inst)  # refused before boxed_set is read
    boxed = serialize.json_int(data.get("boxed_set"), "boxed_set")
    if boxed not in (1, 2):
        raise ParseError("two-set certificate needs boxed_set 1 or 2")
    corners = serialize.read_box(_field(data, "box"), table)
    serialize.at_dimension(inst.dimension, corners[0])
    S = None
    if data.get("semispace") is not None:
        S = serialize.read_descriptor(data["semispace"], table)
        serialize.at_dimension(inst.dimension, S.x0)
        if isinstance(S, HemispaceDescriptor):
            raise ParseError("two-set certificates carry plain semispaces")
    inst = serialize.on_ranks(inst, table, RankGrid(grid, table.parsed.values()))
    rg, box = inst.scale, RankBox(*map(table.encode, corners))
    C1, C2 = serialize.two_sets(inst)
    inner, other = (C1, C2) if boxed == 1 else (C2, C1)
    bb = span(inner)
    _check(checks, "box contains its set", leq(box.lower, bb.lower) and leq(bb.upper, box.upper))
    _check(checks, "box misses the other hull", box_hull_point(box, other, rg.top) is None)
    _sweep(
        checks,
        "no grid point of the other hull in the box",
        rg.first(hull(other, rg.top), span(other), box),
        rg,
    )
    if S is not None:
        in_S = semispace(replace(S, x0=table.encode(S.x0)))
        _check(checks, "other set inside semispace", all(map(in_S, other)))
        _check(checks, "semispace misses the box", _misses(in_S, box))
        _sweep(checks, "no grid box point inside semispace", rg.first(in_S, box), rg)


def check_certificate(data: dict, grid_denominator: int | None) -> dict:
    """The report on a certificate, on the grid of the given denominator
    (the instance's option when None)."""
    if "instance" not in data:
        raise ParseError("certificate files carry their instance")
    table = serialize.ScalarTable()
    inst = serialize.read_instance(data["instance"], table)
    d = inst.grid if grid_denominator is None else grid_denominator
    grid = Grid(d, inst.dimension)
    checks: list[dict] = []
    kind = data.get("kind")
    if kind == "box":
        _box_certificate(data, inst, table, grid, checks)
    elif kind == "two-set":
        _two_set_certificate(data, inst, table, grid, checks)
    else:
        raise ParseError(f"unknown certificate kind {kind!r}")
    return {"valid": all(c["ok"] for c in checks), "grid": d, "checks": checks}
