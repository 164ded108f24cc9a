"""Command line interface.

Subcommands: separate-box, separate-2d, family, check-cond, verify, plot.
Exit codes: 0 when separated or valid, 2 for a clean negative (not
separable, condition violated), 1 on any error.  All JSON output is
byte-deterministic.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache

from .core import Point, RankBox, leq
from .convex import box_hull_point
from .errors import DimensionError, IntersectionError, MaxMinError, ParseError
from .oracle import Grid, RankGrid, _misses, exact_separator, hull, semispace, span
from .semispaces import HemispaceDescriptor, semispace_family
from .separation import HEMISPACE, NOT_SEPARABLE, SEMISPACE, separate, upper_profile
from .planar import box_and_semispace, box_one_set
from . import serialize
from .svg import render_scene


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> serialize.RankInstance:
    return serialize.read_rank_instance(_read(path))


def _load_certificate(path: str) -> dict:
    data = serialize.loads(_read(path))
    if not isinstance(data, dict):
        raise ParseError("a certificate must be a JSON object")
    return data


def _emit(document: dict, out_path: str | None) -> None:
    text = serialize.dumps(document)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _single_set(inst):
    if not inst.sets:
        raise ParseError("the instance defines no generated set")
    return inst.set_list()[0]


def _two_sets(inst):
    if len(inst.sets) < 2:
        raise ParseError("two generated sets are required, in document order")
    first, second = inst.set_list()[:2]
    return first, second


def _cmd_separate_box(args) -> int:
    inst = _load_instance(args.instance)
    if inst.box is None:
        raise ParseError("separate-box needs a box in the instance")
    gens = _single_set(inst)
    fallback = inst.options.fallback and not args.no_fallback
    cert = separate(inst.scale, inst.box, gens, with_fallback=fallback)
    _emit(serialize.certificate_to_dict(cert, inst), args.output)
    return 0 if cert.separated else 2


def _cmd_separate_2d(args) -> int:
    inst = _load_instance(args.instance)
    gens1, gens2 = _two_sets(inst)
    if args.with_semispace:
        cert, S = box_and_semispace(inst.scale, gens1, gens2)
    else:
        cert, S = box_one_set(inst.scale, gens1, gens2), None
    _emit(serialize.planar_certificate_to_dict(cert, inst, S), args.output)
    return 0


def _cmd_family(args) -> int:
    x0 = serialize.point_from_list(args.point.split(","))
    family = semispace_family(x0)
    document = {
        "x0": serialize.point_to_list(x0),
        "family": [serialize.descriptor_to_dict(S) for S in family],
    }
    _emit(document, None)
    return 0


def _cmd_check_cond(args) -> int:
    inst = _load_instance(args.instance)
    if inst.box is None:
        raise ParseError("check-cond needs a box in the instance")
    cert = separate(inst.scale, inst.box, _single_set(inst), with_fallback=False)
    witness = cert.witness if cert.outcome == NOT_SEPARABLE else None
    pairs = inst.scale.pairs
    document = {
        "holds": witness is None,
        "witness": [serialize.format_scalar(*pairs[r]) for r in witness] if witness is not None else None,
    }
    _emit(document, None)
    return 0 if witness is None else 2


def _check(checks: list, name: str, ok: bool) -> None:
    checks.append({"check": name, "ok": bool(ok)})


def _sweep(checks: list, name: str, point: Point | None) -> None:
    """Record a check that names its offending point when it fails."""
    _check(checks, name, point is None)
    if point is not None:
        checks[-1]["point"] = serialize.point_to_list(point)


def _field(data: dict, key: str):
    if key not in data:
        raise ParseError(f"certificate lacks its {key!r} field")
    return data[key]


def _at_dimension(n: int, p: tuple) -> None:
    """Refuse a certificate point whose dimension is not the instance's."""
    if len(p) != n:
        raise DimensionError(f"mixed dimensions: {sorted({len(p), n})}")


def _verify_box_certificate(data: dict, inst: serialize.Instance, table, grid: Grid, checks: list) -> None:
    if inst.box is None:
        raise ParseError("certificate instance lacks a box")
    C = _single_set(inst)
    outcome = data.get("outcome")
    if outcome in (SEMISPACE, HEMISPACE):
        S = serialize.read_descriptor(_field(data, "separator"), table)
        _at_dimension(inst.dimension, S.x0)
        hemispace = isinstance(S, HemispaceDescriptor)
        if hemispace != (outcome == HEMISPACE):
            carried = HEMISPACE if hemispace else SEMISPACE
            raise ParseError(f"{outcome} outcome carries a {carried} descriptor")
    elif outcome == NOT_SEPARABLE:
        witness = table.point(_field(data, "witness"))
        _at_dimension(inst.dimension, witness)
    else:
        raise ParseError(f"unknown certificate outcome {outcome!r}")
    scale = table.bind(None if outcome == NOT_SEPARABLE else RankGrid(grid, table.parsed.values()))
    box = RankBox(*map(table.encode, inst.box))
    gens = tuple(map(table.encode, C))
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
        _sweep(checks, "no grid semispace separates", None if x0 is None else scale.decode(x0))
        return
    in_S = semispace(replace(S, x0=table.encode(S.x0)))
    _check(checks, "set inside separator", all(map(in_S, gens)))
    _check(checks, "separator misses box", _misses(in_S, box))
    _sweep(
        checks,
        "grid hull points inside separator",
        scale.first(lambda y: not in_S(y) and in_hull(y), span(gens)),
    )
    if not hemispace:
        _sweep(checks, "no grid box point inside separator", scale.first(in_S, box))


def _verify_two_set_certificate(data: dict, inst: serialize.Instance, table, grid: Grid, checks: list) -> None:
    C1, C2 = _two_sets(inst)
    boxed = serialize.json_int(data.get("boxed_set"), "boxed_set")
    if boxed not in (1, 2):
        raise ParseError("two-set certificate needs boxed_set 1 or 2")
    corners = serialize.read_box(_field(data, "box"), table)
    _at_dimension(inst.dimension, corners[0])
    S = None
    if data.get("semispace") is not None:
        S = serialize.read_descriptor(data["semispace"], table)
        _at_dimension(inst.dimension, S.x0)
        if isinstance(S, HemispaceDescriptor):
            raise ParseError("two-set certificates carry plain semispaces")
    rg = table.bind(RankGrid(grid, table.parsed.values()))
    box = RankBox(*map(table.encode, corners))
    inner, other = (tuple(map(table.encode, gens)) for gens in ((C1, C2) if boxed == 1 else (C2, C1)))
    bb = span(inner)
    _check(checks, "box contains its set", leq(box.lower, bb.lower) and leq(bb.upper, box.upper))
    _check(checks, "box misses the other hull", box_hull_point(box, other, rg.top) is None)
    _sweep(
        checks,
        "no grid point of the other hull in the box",
        rg.first(hull(other, rg.top), span(other), box),
    )
    if S is not None:
        in_S = semispace(replace(S, x0=table.encode(S.x0)))
        _check(checks, "other set inside semispace", all(map(in_S, other)))
        _check(checks, "semispace misses the box", _misses(in_S, box))
        _sweep(checks, "no grid box point inside semispace", rg.first(in_S, box))


def _cmd_verify(args) -> int:
    """Read a certificate into one ScalarTable and check it on its ranks."""
    data = _load_certificate(args.certificate)
    if "instance" not in data:
        raise ParseError("certificate files carry their instance")
    table = serialize.ScalarTable()
    inst = serialize.read_instance(data["instance"], table)
    d = args.grid if args.grid else inst.options.grid
    grid = Grid(d, inst.dimension)
    checks: list[dict] = []
    kind = data.get("kind")
    if kind == "box":
        _verify_box_certificate(data, inst, table, grid, checks)
    elif kind == "two-set":
        _verify_two_set_certificate(data, inst, table, grid, checks)
    else:
        raise ParseError(f"unknown certificate kind {kind!r}")
    valid = all(c["ok"] for c in checks)
    _emit({"valid": valid, "grid": d, "checks": checks}, None)
    return 0 if valid else 1


def _cmd_plot(args) -> int:
    inst = serialize.parse_instance(_read(args.instance))
    if inst.dimension != 2:
        raise ParseError("plot renders planar instances only")
    separator = None
    cert_box = None
    if args.certificate:
        data = _load_certificate(args.certificate)
        for key in ("separator", "semispace"):
            if data.get(key) is not None:
                separator = serialize.descriptor_from_dict(data[key])
                _at_dimension(2, separator.x0.coords)
        if data.get("box") is not None:
            cert_box = serialize.box_from_dict(data["box"])
            _at_dimension(2, cert_box.lower.coords)
    scene = render_scene(
        inst.box,
        inst.sets,
        separator=separator,
        certificate_box=cert_box,
        grid_denominator=args.grid if args.grid else inst.options.grid,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(scene)
    sys.stdout.write(f"wrote {args.output}\n")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="maxminsep",
        description="Exact max-min convex separation on the unit cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate-box", help="separate a box from a generated set")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--no-fallback", action="store_true", help="skip the hemispace stage")
    p.set_defaults(handler=_cmd_separate_box)

    p = sub.add_parser("separate-2d", help="separate two planar generated sets")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output")
    p.add_argument(
        "--with-semispace",
        action="store_true",
        help="also wrap the unboxed set in a semispace (interior sets only)",
    )
    p.set_defaults(handler=_cmd_separate_2d)

    p = sub.add_parser("family", help="list the semispaces at a point")
    p.add_argument("-p", "--point", required=True, help='coordinates like "0.6,0.3"')
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("check-cond", help="decide exactly whether a semispace separates the box and the set")
    p.add_argument("-i", "--instance", required=True)
    p.set_defaults(handler=_cmd_check_cond)

    p = sub.add_parser(
        "verify", help="re-check a certificate: grid sweeps, and an exact check of a not-separable claim"
    )
    p.add_argument("-i", "--certificate", required=True)
    p.add_argument("--grid", type=int, default=0, help="grid denominator (default: instance option)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plot", help="render a planar instance to SVG")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-c", "--certificate")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--grid", type=int, default=0, help="hull sampling denominator")
    p.set_defaults(handler=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MaxMinError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
