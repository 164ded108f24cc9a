"""Command line interface.

Subcommands: separate-box, separate-2d, family, check-cond, verify, plot.
Exit codes: 0 when separated or valid, 2 for a clean negative (not
separable, condition violated), 1 on any error.  All JSON output is
byte-deterministic.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache

from .core import Point
from .convex import box_intersects_hull, bounding_box
from .errors import DimensionError, MaxMinError, ParseError
from .oracle import Grid, RankGrid
from .semispaces import (
    HemispaceDescriptor,
    hemispace_avoids_box,
    semispace_avoids_box,
    semispace_family,
    set_in_semispace,
)
from .separation import (
    HEMISPACE,
    NOT_SEPARABLE,
    SEMISPACE,
    assert_nonseparable,
    box_profile,
    separate,
)
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


def _at_dimension(n: int, p: Point) -> None:
    """Refuse a certificate point whose dimension is not the instance's."""
    if p.dim != n:
        raise DimensionError(f"mixed dimensions: {sorted({p.dim, n})}")


def _rank_grid(grid: Grid, inst: serialize.Instance, *points: Point) -> RankGrid:
    """Rank encoding of the grid, the instance and the certificate points."""
    corners = (inst.box.lower, inst.box.upper) if inst.box is not None else ()
    gens = [v for C in inst.sets.values() for v in C.generators]
    return RankGrid(grid, (*corners, *gens, *points))


def _verify_box_certificate(data: dict, inst: serialize.Instance, grid: Grid, checks: list) -> None:
    if inst.box is None:
        raise ParseError("certificate instance lacks a box")
    B = inst.box
    C = _single_set(inst)
    outcome = data.get("outcome")
    if outcome in (SEMISPACE, HEMISPACE):
        S = serialize.descriptor_from_dict(_field(data, "separator"))
        _at_dimension(inst.dimension, S.x0)
        hemispace = isinstance(S, HemispaceDescriptor)
        if hemispace != (outcome == HEMISPACE):
            carried = HEMISPACE if hemispace else SEMISPACE
            raise ParseError(f"{outcome} outcome carries a {carried} descriptor")
        avoids_box = hemispace_avoids_box if hemispace else semispace_avoids_box
        rg = _rank_grid(grid, inst, S.x0)
        in_hull, in_S = rg.hull(C), rg.semispace(S)
        _check(checks, "set inside separator", set_in_semispace(C, S) is None)
        _check(checks, "separator misses box", avoids_box(S, B))
        _sweep(
            checks,
            "grid hull points inside separator",
            rg.first(lambda y: not in_S(y) and in_hull(y), rg.span(C)),
        )
        if not hemispace:
            _sweep(checks, "no grid box point inside separator", rg.first(in_S, rg.box(B)))
    elif outcome == NOT_SEPARABLE:
        witness = serialize.point_from_list(_field(data, "witness"))
        _at_dimension(inst.dimension, witness)
        rg = _rank_grid(grid, inst, witness)
        profile = box_profile(B)
        pos_of = {o: p for p, o in enumerate(profile.upper_perm, start=1)}
        _check(checks, "witness in hull", rg.hull(C)(rg.encode(witness)))
        _check(checks, "witness dominates box lower bounds", B.lower <= witness)
        exceed = [i for i in range(B.dim) if witness[i] > B.upper[i]]
        _check(
            checks,
            "witness escapes inside the profile threshold",
            bool(exceed) and all(pos_of[i] <= profile.t for i in exceed),
        )
        S = assert_nonseparable(B, C)
        _sweep(checks, "no grid semispace separates", None if S is None else S.x0)
    else:
        raise ParseError(f"unknown certificate outcome {outcome!r}")


def _verify_two_set_certificate(data: dict, inst: serialize.Instance, grid: Grid, checks: list) -> None:
    C1, C2 = _two_sets(inst)
    boxed = serialize.json_int(data.get("boxed_set"), "boxed_set")
    if boxed not in (1, 2):
        raise ParseError("two-set certificate needs boxed_set 1 or 2")
    box = serialize.box_from_dict(_field(data, "box"))
    _at_dimension(inst.dimension, box.lower)
    S = None
    if data.get("semispace") is not None:
        S = serialize.descriptor_from_dict(data["semispace"])
        _at_dimension(inst.dimension, S.x0)
        if isinstance(S, HemispaceDescriptor):
            raise ParseError("two-set certificates carry plain semispaces")
    inner, other = (C1, C2) if boxed == 1 else (C2, C1)
    rg = _rank_grid(grid, inst, box.lower, box.upper, *([S.x0] if S else []))
    bb = bounding_box(inner)
    _check(checks, "box contains its set", box.lower <= bb.lower and bb.upper <= box.upper)
    _check(checks, "box misses the other hull", not box_intersects_hull(box, other))
    _sweep(
        checks,
        "no grid point of the other hull in the box",
        rg.first(rg.hull(other), rg.span(other), rg.box(box)),
    )
    if S is not None:
        _check(checks, "other set inside semispace", set_in_semispace(other, S) is None)
        _check(checks, "semispace misses the box", semispace_avoids_box(S, box))
        _sweep(checks, "no grid box point inside semispace", rg.first(rg.semispace(S), rg.box(box)))


def _cmd_verify(args) -> int:
    data = _load_certificate(args.certificate)
    if "instance" not in data:
        raise ParseError("certificate files carry their instance")
    inst = serialize.instance_from_dict(data["instance"])
    d = args.grid if args.grid else inst.options.grid
    grid = Grid(d, inst.dimension)
    checks: list[dict] = []
    kind = data.get("kind")
    if kind == "box":
        _verify_box_certificate(data, inst, grid, checks)
    elif kind == "two-set":
        _verify_two_set_certificate(data, inst, grid, checks)
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
                _at_dimension(2, separator.x0)
        if data.get("box") is not None:
            cert_box = serialize.box_from_dict(data["box"])
            _at_dimension(2, cert_box.lower)
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
