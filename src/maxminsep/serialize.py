"""JSON round-trips for instances, descriptors and certificates.

Scalars travel as exact strings, either plain decimals ("0.35") or
fractions ("7/20"); both parse, and formatting is canonical (decimal
whenever the reduced denominator divides a power of ten, fraction
otherwise), so identical inputs always serialize to identical bytes.
Coordinate indices are 1-based on the wire.

Reading a document goes through a ScalarTable: every point is validated
as a list of strings, and each distinct string is read once into its
normalised (numerator, denominator) int pair by scalar_pair, with every
check of parse_scalar.  read_instance gives one Instance record whose
points are those strings; on_ranks numbers the pairs on a Scale and gives
the same record on ranks: instance_from_dict on the document's own
scalars, verify and plot on a RankGrid.  Only the box, set, descriptor and
point readers decode to Fraction.  Emitting a certificate formats each
rank once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Callable

from .core import MAX_SCALAR_DIGITS, Point, RankBox, Ranks, Scale, as_scalar
from .errors import DimensionError, ParseError
from .semispaces import Descriptor, HemispaceDescriptor, SemispaceDescriptor, decode_descriptor

if TYPE_CHECKING:  # for annotations; the Fraction readers import convex when called
    from .convex import Box, GeneratedConvexSet
    from .planar import PlanarBoxCertificate
    from .separation import SeparationCertificate, TraceEntry


def parse_scalar(text: str) -> Fraction:
    """Exact scalar in [0, 1] from a decimal or fraction string, within the
    size bounds of core.as_scalar."""
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    try:
        return as_scalar(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}") from None


def json_int(value, what: str) -> int:
    """A JSON integer; booleans, floats and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


def scalar_pair(text: str) -> tuple[int, int]:
    """Normalised (numerator, denominator) of a scalar string.  Plain ASCII
    digits, digits/digits and digits.digits in range are read straight into
    ints; any other string goes through parse_scalar and its errors."""
    if isinstance(text, str) and text.isascii() and len(text) <= MAX_SCALAR_DIGITS:
        num, slash, den = text.partition("/")
        if slash:
            plain = num.isdigit() and den.isdigit()
        else:
            whole, dot, decimals = text.partition(".")
            plain = whole.isdigit() and (decimals.isdigit() or not dot)
            num, den = whole + decimals, "1" + "0" * len(decimals)
        p, q = (int(num), int(den)) if plain else (1, 0)
        if 0 < q and p <= q:
            g = gcd(p, q)
            return p // g, q // g
    v = parse_scalar(text)
    return v.numerator, v.denominator


def format_scalar(p: int, q: int) -> str:
    """Canonical exact string of the normalised fraction p/q: decimal when
    the denominator divides a power of ten."""
    if q == 1:
        return str(p)
    rest = q
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{p}/{q}"
    k = max(twos, fives)
    scaled = p * 10**k // q
    return f"{scaled // 10**k}.{scaled % 10**k:0{k}d}"


class ScalarTable:
    """The scalar strings of one document, each distinct string read once.

    Only JSON strings are looked up, so a number or a list in place of a
    scalar reaches scalar_pair and is refused there.  on_ranks numbers the
    (numerator, denominator) pairs into code; encode then maps a point's
    strings to ranks.
    """

    def __init__(self) -> None:
        self.parsed: dict[str, tuple[int, int]] = {}
        self.code: dict[str, int] = {}

    def point(self, data) -> tuple[str, ...]:
        """Validate a point given as a list of scalar strings."""
        if not isinstance(data, list) or not data:
            raise ParseError(f"point must be a non-empty list of scalars, got {data!r}")
        parsed = self.parsed
        for text in data:
            if not (isinstance(text, str) and text in parsed):
                parsed[text] = scalar_pair(text)
        return tuple(data)

    def encode(self, strings: tuple[str, ...]) -> Ranks:
        return tuple(map(self.code.__getitem__, strings))

    def decode(self, strings: tuple[str, ...]) -> Point:
        parsed = self.parsed
        return Point(tuple(Fraction(*parsed[text]) for text in strings))


def point_to_list(p: Point) -> list[str]:
    return [format_scalar(c.numerator, c.denominator) for c in p]


def point_from_list(data) -> Point:
    table = ScalarTable()
    return table.decode(table.point(data))


def read_box(data, table: ScalarTable) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if not isinstance(data, dict) or set(data) != {"lower", "upper"}:
        raise ParseError(f"box must be an object with lower and upper, got {data!r}")
    lower, upper = table.point(data["lower"]), table.point(data["upper"])
    if len(lower) != len(upper):
        raise DimensionError(f"mixed dimensions: {sorted({len(lower), len(upper)})}")
    parsed = table.parsed
    if any(p * s > r * q for (p, q), (r, s) in ((parsed[a], parsed[b]) for a, b in zip(lower, upper))):
        raise ParseError(f"box lower bound {table.decode(lower)} exceeds upper bound {table.decode(upper)}")
    return lower, upper


def box_to_dict(B: Box | RankBox, fmt: Callable = point_to_list) -> dict:
    return {"lower": fmt(B.lower), "upper": fmt(B.upper)}


def box_from_dict(data) -> Box:
    from .convex import Box

    table = ScalarTable()
    lower, upper = read_box(data, table)
    return Box(table.decode(lower), table.decode(upper))


def _read_set(data, table: ScalarTable) -> tuple[tuple[str, ...], ...]:
    if not isinstance(data, list) or not data:
        raise ParseError("a generator list must hold at least one point")
    gens = tuple(table.point(p) for p in data)
    dims = {len(v) for v in gens}
    if len(dims) != 1:
        raise DimensionError(f"mixed dimensions: {sorted(dims)}")
    return gens


def set_to_list(C: GeneratedConvexSet) -> list[list[str]]:
    return [point_to_list(v) for v in C.generators]


def set_from_list(data) -> GeneratedConvexSet:
    from .convex import GeneratedConvexSet

    table = ScalarTable()
    return GeneratedConvexSet(tuple(map(table.decode, _read_set(data, table))))


def descriptor_to_dict(S: Descriptor, fmt: Callable = point_to_list) -> dict:
    if isinstance(S, HemispaceDescriptor):
        return {
            "type": "S0",
            "x0": fmt(S.x0),
            "M": sorted(i + 1 for i in S.M),
        }
    if S.coordinate is None:
        return {"type": "S0", "x0": fmt(S.x0)}
    return {"type": "Si", "x0": fmt(S.x0), "i": S.coordinate + 1}


def read_descriptor(data, table: ScalarTable) -> Descriptor:
    """Validate a descriptor document, which carries only the keys of its
    type (M for a hemispace S0, i for Si); its x0 stays a tuple of strings."""
    if not isinstance(data, dict) or "type" not in data or "x0" not in data:
        raise ParseError(f"descriptor must carry type and x0, got {data!r}")
    x0 = table.point(data["x0"])
    kind = data["type"]
    if kind == "S0" and "M" in data:
        members = data["M"]
        if not isinstance(members, list):
            raise ParseError("M must be a list of 1-based coordinate indices")
        M = set()
        for entry in members:
            i = json_int(entry, "M entry")
            if not 1 <= i <= len(x0):
                raise ParseError(f"M entry {i} outside 1..{len(x0)}")
            M.add(i - 1)
        S = HemispaceDescriptor(x0, frozenset(M))
    elif kind == "S0":
        S = SemispaceDescriptor(x0, None)
    elif kind == "Si":
        original = json_int(data.get("i"), "the 1-based field i of an Si descriptor") - 1
        if not 0 <= original < len(x0):
            raise ParseError(f"coordinate index {data['i']} outside 1..{len(x0)}")
        S = SemispaceDescriptor(x0, original)
    else:
        raise ParseError(f"unknown descriptor type {kind!r}")
    unknown = set(data) - {"type", "x0", "M" if kind == "S0" else "i"}
    if unknown:
        raise ParseError(f"unknown {kind} descriptor fields: {sorted(unknown)}")
    return S


def descriptor_from_dict(data) -> Descriptor:
    table = ScalarTable()
    return decode_descriptor(table, read_descriptor(data, table))


@dataclass(frozen=True)
class Instance:
    """One problem instance: a cube dimension, an optional box, named
    generated sets in document order, and the options (the referee's grid
    denominator, the hemispace fallback), whose defaults are the wire's.  A
    point is a tuple of scalar strings (read_instance) or a tuple of ranks
    of `scale` (on_ranks); scale is None unless on ranks."""

    dimension: int
    box: tuple | None
    sets: dict[str, tuple] = field(default_factory=dict)
    grid: int = 10
    fallback: bool = True
    scale: Scale | None = None


def single_set(inst: Instance):
    """The instance's first generated set; a point is strings or ranks."""
    if not inst.sets:
        raise ParseError("the instance defines no generated set")
    return next(iter(inst.sets.values()))


def two_sets(inst: Instance):
    """The instance's first two generated sets, in document order, points as in single_set."""
    if len(inst.sets) < 2:
        raise ParseError("two generated sets are required, in document order")
    return tuple(inst.sets.values())[:2]


def at_dimension(n: int, p: tuple) -> None:
    """Refuse a certificate point whose dimension is not the instance's."""
    if len(p) != n:
        raise DimensionError(f"mixed dimensions: {sorted({len(p), n})}")


def read_instance(data, table: ScalarTable) -> Instance:
    """Validate an instance document and parse its scalars into `table`.
    The result holds every point as its tuple of scalar strings, a box as
    the pair of its corners."""
    if not isinstance(data, dict):
        raise ParseError("instance must be a JSON object")
    unknown = set(data) - {"dimension", "box", "sets", "options"}
    if unknown:
        raise ParseError(f"unknown instance fields: {sorted(unknown)}")
    n = json_int(data.get("dimension"), "the instance dimension")
    if n < 1:
        raise ParseError("dimension must be positive")
    box = read_box(data["box"], table) if data.get("box") is not None else None
    if box is not None and len(box[0]) != n:
        raise ParseError(f"box dimension {len(box[0])} does not match instance dimension {n}")
    raw_sets = data.get("sets")
    if raw_sets is None:
        raw_sets = {}
    elif not isinstance(raw_sets, dict):
        raise ParseError("sets must be an object mapping names to generator lists")
    sets = {}
    for name, gens in raw_sets.items():
        gens = _read_set(gens, table)
        if len(gens[0]) != n:
            raise ParseError(f"set {name!r} has dimension {len(gens[0])}, expected {n}")
        sets[name] = gens
    raw = data["options"] if data.get("options") is not None else {}
    if not isinstance(raw, dict):
        raise ParseError("options must be an object")
    unknown = set(raw) - {"grid", "fallback"}
    if unknown:
        raise ParseError(f"unknown options: {sorted(unknown)}")
    grid = json_int(raw.get("grid", Instance.grid), "options.grid")
    if grid < 1:
        raise ParseError("options.grid must be a positive integer")
    fallback = raw.get("fallback", Instance.fallback)
    if not isinstance(fallback, bool):
        raise ParseError(f"options.fallback must be a JSON boolean, got {fallback!r}")
    return Instance(n, box, sets, grid, fallback)


def on_ranks(inst: Instance, table: ScalarTable, scale: Scale | None = None) -> Instance:
    """The instance read into `table`, on ranks: the table's pairs are
    numbered on `scale` (a Scale of their own when None), and the box and
    the sets are encoded."""
    scale = scale or Scale(pairs=table.parsed.values())
    rank = scale.rank
    table.code = {text: rank[nd] for text, nd in table.parsed.items()}
    code = table.encode
    box = None if inst.box is None else RankBox(code(inst.box[0]), code(inst.box[1]))
    sets = {name: tuple(map(code, gens)) for name, gens in inst.sets.items()}
    return replace(inst, box=box, sets=sets, scale=scale)


def instance_from_dict(data) -> Instance:
    """The instance document on ranks, on a Scale of its own scalars."""
    table = ScalarTable()
    return on_ranks(read_instance(data, table), table)


def formatter(inst: Instance) -> Callable:
    """Point formatting for an instance on ranks, through a table of the
    canonical strings of its ranks."""
    name = [format_scalar(p, q) for p, q in inst.scale.pairs].__getitem__
    return lambda p: list(map(name, p))


def instance_to_dict(inst: Instance, fmt: Callable | None = None) -> dict:
    """The document of an instance on ranks."""
    fmt = fmt or formatter(inst)
    return {
        "dimension": inst.dimension,
        "box": box_to_dict(inst.box, fmt) if inst.box is not None else None,
        "sets": {name: [fmt(v) for v in gens] for name, gens in inst.sets.items()},
        "options": {"grid": inst.grid, "fallback": inst.fallback},
    }


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    document = dict(pairs)
    if len(document) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return document


def loads(text: str):
    """Parse JSON; an object that repeats a key is refused, not resolved to
    the key's last value, and so is nesting deeper than the recursion limit."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # also an integer of more digits than int() converts
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def parse_instance(text: str) -> Instance:
    """The instance document text on ranks; see instance_from_dict."""
    return instance_from_dict(loads(text))


def _trace_entry_to_dict(entry: TraceEntry, fmt: Callable) -> dict:
    return {
        "stage": entry.stage,
        "iteration": entry.iteration,
        "position": entry.position,
        "candidate": descriptor_to_dict(entry.candidate, fmt),
        "witness": fmt(entry.witness) if entry.witness is not None else None,
    }


def certificate_to_dict(cert: SeparationCertificate, inst: Instance) -> dict:
    """A box certificate of an instance on ranks, whose own points are
    ranks of the instance's Scale."""
    fmt = formatter(inst)
    return {
        "kind": "box",
        "instance": instance_to_dict(inst, fmt),
        "outcome": cert.outcome,
        "separator": descriptor_to_dict(cert.separator, fmt) if cert.separator else None,
        "witness": fmt(cert.witness) if cert.witness is not None else None,
        "oracle_calls": cert.oracle_calls,
        "trace": [_trace_entry_to_dict(e, fmt) for e in cert.trace],
    }


def planar_certificate_to_dict(
    cert: PlanarBoxCertificate,
    inst: Instance,
    semispace: SemispaceDescriptor | None = None,
) -> dict:
    """A two-set certificate of an instance on ranks, whose own points are
    ranks of the instance's Scale."""
    fmt = formatter(inst)
    return {
        "kind": "two-set",
        "instance": instance_to_dict(inst, fmt),
        "boxed_set": cert.boxed_set,
        "box": box_to_dict(cert.box, fmt),
        "semispace": descriptor_to_dict(semispace, fmt) if semispace is not None else None,
    }


def dumps(document: dict) -> str:
    """Byte-deterministic JSON: json.dumps(document, indent=2, sort_keys=True)
    and a newline, without the standard library's pure-Python encoder."""
    return _json(document, "\n") + "\n"


_escape = json.encoder.encode_basestring_ascii  # C code
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(value, newline: str) -> str:
    """The JSON of a dict with string keys, a list, a string, an int, a
    boolean or None; nested lines start with `newline`."""
    if isinstance(value, str):
        return _escape(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_escape(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        try:  # most lists are points: strings only
            items = list(map(_escape, value))
        except TypeError:
            items = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    return int.__repr__(value)  # any other type is a TypeError here
