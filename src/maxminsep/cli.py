"""Command line interface.

Subcommands: separate-box, separate-2d, family, check-cond, verify, plot.
Exit codes: 0 when separated or valid, 2 for a clean negative (not
separable, condition violated), 1 on any error.  All JSON output is
byte-deterministic.

Each handler imports only the modules it runs, so a launch loads just
what its subcommand needs: `family` loads no hull, separation, grid or
drawing code, and only `verify` loads the certificate checks of
maxminsep.verify.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import MaxMinError, ParseError
from .semispaces import semispace_family
from . import serialize


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> serialize.Instance:
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


def _cmd_separate_box(args) -> int:
    from .separation import separate

    inst = _load_instance(args.instance)
    if inst.box is None:
        raise ParseError("separate-box needs a box in the instance")
    gens = serialize.single_set(inst)
    fallback = inst.options.fallback and not args.no_fallback
    cert = separate(inst.scale, inst.box, gens, with_fallback=fallback)
    _emit(serialize.certificate_to_dict(cert, inst), args.output)
    return 0 if cert.separated else 2


def _cmd_separate_2d(args) -> int:
    from .planar import box_and_semispace, box_one_set

    inst = _load_instance(args.instance)
    gens1, gens2 = serialize.two_sets(inst)
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
    from .separation import NOT_SEPARABLE, separate

    inst = _load_instance(args.instance)
    if inst.box is None:
        raise ParseError("check-cond needs a box in the instance")
    cert = separate(inst.scale, inst.box, serialize.single_set(inst), with_fallback=False)
    witness = cert.witness if cert.outcome == NOT_SEPARABLE else None
    document = {
        "holds": witness is None,
        "witness": serialize.formatter(inst)(witness) if witness is not None else None,
    }
    _emit(document, None)
    return 0 if witness is None else 2


def _cmd_verify(args) -> int:
    from .verify import check_certificate

    report = check_certificate(_load_certificate(args.certificate), args.grid)
    _emit(report, None)
    return 0 if report["valid"] else 1


def _cmd_plot(args) -> int:
    from .svg import render_scene

    instance = serialize.loads(_read(args.instance))
    certificate = _load_certificate(args.certificate) if args.certificate else None
    scene = render_scene(instance, certificate, args.grid)
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
    p.add_argument("--grid", type=int, help="grid denominator (default: instance option)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plot", help="render a planar instance to SVG")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-c", "--certificate")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--grid", type=int, help="hull sampling denominator (default: instance option)")
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
