"""Static SVG scenes of planar instances.

render_scene reads an instance and a certificate document with the readers
verify uses and numbers their scalars on a RankGrid (serialize.on_ranks):
the drawing compares ranks, and a rank becomes a float only when written.
The y axis is flipped so the origin sits at the bottom-left.
"""
from __future__ import annotations

import itertools
from dataclasses import replace

from . import serialize
from .convex import in_hull
from .errors import ParseError
from .oracle import Grid, RankGrid
from .semispaces import Descriptor, clauses

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


def _halfplane_strips(S: Descriptor, top: int) -> list[tuple]:
    """Axis-parallel strips on ranks, one for each half-space of the rank
    descriptor S (see semispaces.clauses); their union is S."""
    below, above = clauses(S)
    strips = [(a, 0, top, top) if m == 0 else (0, a, top, top) for m, a in above]
    if below is not None:
        o, tau = below
        strips.insert(0, (0, 0, tau, top) if o == 0 else (0, 0, top, tau))
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
    sampled = Grid(inst.grid if grid is None else grid, 2)
    # numbered, and guarded, only when a hull is sampled: a scene without sets draws at any grid
    inst = serialize.on_ranks(inst, table, RankGrid(sampled, table.parsed.values()) if inst.sets else None)
    scale, top = inst.scale, inst.scale.top
    coord = [p / q for p, q in scale.pairs]  # for a normalised pair, the float of Fraction(p, q)

    def rect(ranks: tuple, style: str) -> str:
        return _rect(*map(coord.__getitem__, ranks), style)

    def box(ends, fill: str, stroke: str) -> str:
        """The box between two rank corners: a rect, a line when it is a
        segment, a circle when it is a point."""
        (a, b), (c, d) = ends
        x0, y0, x1, y1 = (coord[r] for r in (a, b, c, d))
        if a < c and b < d:
            return _rect(x0, y0, x1, y1, f"{fill} {stroke}")
        if (a, b) == (c, d):
            return f'<circle cx="{_fx(x0)}" cy="{_fy(y0)}" r="0.01" fill="none" {stroke}/>'
        return f'<line x1="{_fx(x0)}" y1="{_fy(y0)}" x2="{_fx(x1)}" y2="{_fy(y1)}" {stroke}/>'

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        'viewBox="-0.08 -0.08 1.16 1.16">',
        '<rect x="0" y="0" width="1" height="1" fill="#ffffff" stroke="#444444" '
        'stroke-width="0.004"/>',
    ]
    if separator is not None:
        for strip in _halfplane_strips(replace(separator, x0=table.encode(separator.x0)), top):
            parts.append(rect(strip, 'fill="#ffd54f" fill-opacity="0.45"'))
    if inst.box is not None:
        parts.append(box(inst.box, 'fill="#9e9e9e" fill-opacity="0.35"', 'stroke="#212121" stroke-width="0.006"'))
    if corners is not None:
        dashed = 'stroke="#e65100" stroke-width="0.008" stroke-dasharray="0.02,0.012"'
        parts.append(box(map(table.encode, corners), 'fill="none"', dashed))
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
