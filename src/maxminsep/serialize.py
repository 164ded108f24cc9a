"""JSON round-trips for instances, descriptors and certificates.

Scalars travel as exact strings, either plain decimals ("0.35") or
fractions ("7/20"); both parse, and formatting is canonical (decimal
whenever the reduced denominator divides a power of ten, fraction
otherwise), so identical inputs always serialize to identical bytes.
Coordinate indices are 1-based on the wire.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Point, as_scalar
from .convex import Box, GeneratedConvexSet
from .errors import ParseError
from .semispaces import HemispaceDescriptor, SemispaceDescriptor
from .separation import SeparationCertificate, TraceEntry
from .planar import PlanarBoxCertificate


# Fraction() builds the whole number a string spells out, so "1e-20000"
# costs a 66k-bit denominator and a larger exponent stalls the parse; the
# size of a scalar string is bounded before Fraction sees it.
MAX_SCALAR_DIGITS = 300
MAX_SCALAR_EXPONENT = 300
_EXPONENT = re.compile(r"[eE]([+-]?\d[\d_]*)")


def parse_scalar(text: str) -> Fraction:
    """Exact scalar in [0, 1] from a decimal or fraction string."""
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    if len(text) > MAX_SCALAR_DIGITS:
        digits = sum(ch.isdigit() for ch in text)
        if digits > MAX_SCALAR_DIGITS:
            raise ParseError(f"scalar string has {digits} digits, above the {MAX_SCALAR_DIGITS} bound")
    if "e" in text or "E" in text:
        for exponent in _EXPONENT.findall(text):
            if abs(int(exponent.replace("_", ""))) > MAX_SCALAR_EXPONENT:
                raise ParseError(f"scalar exponent {exponent} outside ±{MAX_SCALAR_EXPONENT}")
    try:
        return as_scalar(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}") from None


def json_int(value, what: str) -> int:
    """A JSON integer; booleans, floats and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


def format_scalar(v: Fraction) -> str:
    """Canonical exact string: decimal when the denominator allows it."""
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    rest = v.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{v.numerator}/{v.denominator}"
    k = max(twos, fives)
    scaled = v.numerator * 10**k // v.denominator
    return f"{scaled // 10**k}.{scaled % 10**k:0{k}d}"


def point_to_list(p: Point) -> list[str]:
    return [format_scalar(c) for c in p]


def point_from_list(data) -> Point:
    if not isinstance(data, list) or not data:
        raise ParseError(f"point must be a non-empty list of scalars, got {data!r}")
    return Point(tuple(parse_scalar(c) for c in data))


def box_to_dict(B: Box) -> dict:
    return {"lower": point_to_list(B.lower), "upper": point_to_list(B.upper)}


def box_from_dict(data) -> Box:
    if not isinstance(data, dict) or set(data) != {"lower", "upper"}:
        raise ParseError(f"box must be an object with lower and upper, got {data!r}")
    try:
        return Box(point_from_list(data["lower"]), point_from_list(data["upper"]))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def set_to_list(C: GeneratedConvexSet) -> list[list[str]]:
    return [point_to_list(v) for v in C.generators]


def set_from_list(data) -> GeneratedConvexSet:
    if not isinstance(data, list) or not data:
        raise ParseError("a generator list must hold at least one point")
    return GeneratedConvexSet(tuple(point_from_list(p) for p in data))


def descriptor_to_dict(S: SemispaceDescriptor | HemispaceDescriptor) -> dict:
    if isinstance(S, HemispaceDescriptor):
        return {
            "type": "S0",
            "x0": point_to_list(S.x0),
            "M": sorted(i + 1 for i in S.M),
        }
    if S.coordinate is None:
        return {"type": "S0", "x0": point_to_list(S.x0)}
    return {"type": "Si", "x0": point_to_list(S.x0), "i": S.coordinate + 1}


def descriptor_from_dict(data) -> SemispaceDescriptor | HemispaceDescriptor:
    if not isinstance(data, dict) or "type" not in data or "x0" not in data:
        raise ParseError(f"descriptor must carry type and x0, got {data!r}")
    x0 = point_from_list(data["x0"])
    kind = data["type"]
    if kind == "S0" and "M" in data:
        members = data["M"]
        if not isinstance(members, list):
            raise ParseError("M must be a list of 1-based coordinate indices")
        try:
            return HemispaceDescriptor(x0, frozenset(json_int(i, "M entry") - 1 for i in members))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if kind == "S0":
        return SemispaceDescriptor(x0, None)
    if kind == "Si":
        original = json_int(data.get("i"), "the 1-based field i of an Si descriptor") - 1
        if not 0 <= original < x0.dim:
            raise ParseError(f"coordinate index {data['i']} outside 1..{x0.dim}")
        return SemispaceDescriptor(x0, original)
    raise ParseError(f"unknown descriptor type {kind!r}")


@dataclass(frozen=True)
class Options:
    """Instance-level knobs: referee grid denominator and fallback toggle."""

    grid: int = 10
    fallback: bool = True


@dataclass(frozen=True)
class Instance:
    """One problem instance: a cube dimension, an optional box, named
    generated sets in document order, and options."""

    dimension: int
    box: Box | None
    sets: dict[str, GeneratedConvexSet] = field(default_factory=dict)
    options: Options = Options()

    def set_list(self) -> list[GeneratedConvexSet]:
        return list(self.sets.values())


def instance_from_dict(data) -> Instance:
    if not isinstance(data, dict):
        raise ParseError("instance must be a JSON object")
    unknown = set(data) - {"dimension", "box", "sets", "options"}
    if unknown:
        raise ParseError(f"unknown instance fields: {sorted(unknown)}")
    n = json_int(data.get("dimension"), "the instance dimension")
    if n < 1:
        raise ParseError("dimension must be positive")
    box = box_from_dict(data["box"]) if data.get("box") is not None else None
    if box is not None and box.dim != n:
        raise ParseError(f"box dimension {box.dim} does not match instance dimension {n}")
    raw_sets = data.get("sets")
    if raw_sets is None:
        raw_sets = {}
    elif not isinstance(raw_sets, dict):
        raise ParseError("sets must be an object mapping names to generator lists")
    sets: dict[str, GeneratedConvexSet] = {}
    for name, gens in raw_sets.items():
        C = set_from_list(gens)
        if C.dim != n:
            raise ParseError(f"set {name!r} has dimension {C.dim}, expected {n}")
        sets[name] = C
    raw = data.get("options") or {}
    if not isinstance(raw, dict):
        raise ParseError("options must be an object")
    unknown = set(raw) - {"grid", "fallback"}
    if unknown:
        raise ParseError(f"unknown options: {sorted(unknown)}")
    grid = json_int(raw.get("grid", 10), "options.grid")
    if grid < 1:
        raise ParseError("options.grid must be a positive integer")
    fallback = raw.get("fallback", True)
    if not isinstance(fallback, bool):
        raise ParseError(f"options.fallback must be a JSON boolean, got {fallback!r}")
    return Instance(dimension=n, box=box, sets=sets, options=Options(grid, fallback))


def instance_to_dict(inst: Instance) -> dict:
    return {
        "dimension": inst.dimension,
        "box": box_to_dict(inst.box) if inst.box is not None else None,
        "sets": {name: set_to_list(C) for name, C in inst.sets.items()},
        "options": {"grid": inst.options.grid, "fallback": inst.options.fallback},
    }


def parse_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return instance_from_dict(data)


def _trace_entry_to_dict(entry: TraceEntry) -> dict:
    return {
        "stage": entry.stage,
        "iteration": entry.iteration,
        "position": entry.position,
        "candidate": descriptor_to_dict(entry.candidate),
        "witness": point_to_list(entry.witness) if entry.witness is not None else None,
    }


def certificate_to_dict(cert: SeparationCertificate, inst: Instance) -> dict:
    return {
        "kind": "box",
        "instance": instance_to_dict(inst),
        "outcome": cert.outcome,
        "separator": descriptor_to_dict(cert.separator) if cert.separator else None,
        "witness": point_to_list(cert.witness) if cert.witness is not None else None,
        "oracle_calls": cert.oracle_calls,
        "trace": [_trace_entry_to_dict(e) for e in cert.trace],
    }


def planar_certificate_to_dict(
    cert: PlanarBoxCertificate,
    inst: Instance,
    semispace: SemispaceDescriptor | None = None,
) -> dict:
    return {
        "kind": "two-set",
        "instance": instance_to_dict(inst),
        "boxed_set": cert.boxed_set,
        "box": box_to_dict(cert.box),
        "semispace": descriptor_to_dict(semispace) if semispace is not None else None,
    }


def dumps(document: dict) -> str:
    """Byte-deterministic JSON: sorted keys, two-space indent, newline end."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
