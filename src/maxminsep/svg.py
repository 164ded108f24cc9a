"""Static SVG scenes of planar instances.

render_scene reads an instance and a certificate document with the readers
verify uses and numbers their scalars on a RankGrid (serialize.on_ranks):
the drawing compares ranks, and a rank becomes a float only when written.
The y axis is flipped so the origin sits at the bottom-left.
"""
from __future__ import annotations

import itertools

from . import serialize
from .convex import in_hull
from .errors import ParseError
from .oracle import Grid, RankGrid
from .semispaces import Descriptor, HemispaceDescriptor

_SET_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fx(v: float) -> str:
    return f"{v:.4f}"


def _fy(v: float) -> str:
    return f"{1.0 - v:.4f}"


def _rect(x0, y0, x1, y1, style: str) -> str:
    # corners in cube coordinates; emitted with the y axis flipped
    w, h = x1 - x0, y1 - y0
    if w <= 0 or h <= 0:
        return ""
    return (
        f'<rect x="{_fx(x0)}" y="{_fy(y1)}" width="{w:.4f}" height="{h:.4f}" {style}/>'
    )


def _halfplane_strips(S: Descriptor, x0: tuple, top: int) -> list[tuple]:
    """Axis-parallel strips on ranks whose union is S with rank point x0."""
    strips = []
    if isinstance(S, HemispaceDescriptor):
        watched = sorted(S.M)
    elif S.coordinate is None:
        watched = range(len(x0))
    else:
        o = S.coordinate
        tau = x0[o]
        strips.append((0, 0, tau, top) if o == 0 else (0, 0, top, tau))
        watched = [m for m in range(len(x0)) if x0[m] < tau]
    for m in watched:
        theta = x0[m]
        strips.append((theta, 0, top, top) if m == 0 else (0, theta, top, top))
    return strips


def render_scene(instance: dict, certificate: dict | None = None, grid: int | None = None) -> str:
    """The SVG of a planar instance document, with the separator or semispace
    and the box of a certificate document when one is given; hulls are sampled
    on the grid of denominator `grid` (the instance's option when None)."""
    table = serialize.ScalarTable()
    inst = serialize.read_instance(instance, table)
    if inst.dimension != 2:
        raise ParseError("plot renders planar instances only")
    certificate = certificate or {}
    separator = corners = None
    for key in ("separator", "semispace"):
        if certificate.get(key) is not None:
            separator = serialize.read_descriptor(certificate[key], table)
            serialize.at_dimension(2, separator.x0)
    if certificate.get("box") is not None:
        corners = serialize.read_box(certificate["box"], table)
        serialize.at_dimension(2, corners[0])
    sampled = Grid(inst.options.grid if grid is None else grid, 2)
    # numbered, and guarded, only when a hull is sampled: a scene without sets draws at any grid
    inst = serialize.on_ranks(inst, table, RankGrid(sampled, table.parsed.values()) if inst.sets else None)
    scale, top = inst.scale, inst.scale.top
    coord = [p / q for p, q in scale.pairs]  # for a normalised pair, the float of Fraction(p, q)

    def rect(ranks: tuple, style: str) -> str:
        return _rect(*map(coord.__getitem__, ranks), style)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        'viewBox="-0.08 -0.08 1.16 1.16">',
        '<rect x="0" y="0" width="1" height="1" fill="#ffffff" stroke="#444444" '
        'stroke-width="0.004"/>',
    ]
    if separator is not None:
        for strip in _halfplane_strips(separator, table.encode(separator.x0), top):
            parts.append(rect(strip, 'fill="#ffd54f" fill-opacity="0.45"'))
    if inst.box is not None:
        lower, upper = inst.box
        parts.append(
            rect(
                (*lower, *upper),
                'fill="#9e9e9e" fill-opacity="0.35" stroke="#212121" stroke-width="0.006"',
            )
            or f'<circle cx="{_fx(coord[lower[0]])}" cy="{_fy(coord[lower[1]])}" r="0.01" '
            'fill="none" stroke="#212121" stroke-width="0.006"/>'
        )
    if corners is not None:
        lower, upper = map(table.encode, corners)
        parts.append(
            rect(
                (*lower, *upper),
                'fill="none" stroke="#e65100" stroke-width="0.008" stroke-dasharray="0.02,0.012"',
            )
        )
    for k, gens in enumerate(inst.sets.values()):
        color = _SET_COLORS[k % len(_SET_COLORS)]
        for p in itertools.product(scale.axis, repeat=2):
            if in_hull(gens, p, top):
                parts.append(
                    f'<rect x="{coord[p[0]] - 0.006:.4f}" y="{1.0 - coord[p[1]] - 0.006:.4f}" '
                    f'width="0.012" height="0.012" fill="{color}" fill-opacity="0.6"/>'
                )
        for x, y in gens:
            parts.append(
                f'<circle cx="{_fx(coord[x])}" cy="{_fy(coord[y])}" r="0.014" fill="{color}" '
                'stroke="#000000" stroke-width="0.003"/>'
            )
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"
