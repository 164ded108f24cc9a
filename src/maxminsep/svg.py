"""Static SVG scenes of planar instances.

Renders the unit square with boxes, generators, grid-sampled hulls and the
separator region of a certificate.  Exactness does not matter here, so
coordinates become floats right before writing; the y axis is flipped so
the origin sits at the bottom-left.
"""
from __future__ import annotations

from fractions import Fraction

from .convex import Box, GeneratedConvexSet, hull_contains
from .errors import DimensionError
from .oracle import Grid
from .semispaces import HemispaceDescriptor, SemispaceDescriptor

_SET_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fx(v: Fraction) -> str:
    return f"{float(v):.4f}"


def _fy(v: Fraction) -> str:
    return f"{1.0 - float(v):.4f}"


def _rect(x0, y0, x1, y1, style: str) -> str:
    # corners in cube coordinates; emitted with the y axis flipped
    w = float(x1) - float(x0)
    h = float(y1) - float(y0)
    if w <= 0 or h <= 0:
        return ""
    return (
        f'<rect x="{_fx(x0)}" y="{_fy(y1)}" width="{w:.4f}" height="{h:.4f}" {style}/>'
    )


def _halfplane_strips(S: SemispaceDescriptor | HemispaceDescriptor) -> list[tuple]:
    """Axis-parallel strips whose union is the (hemi)semispace."""
    strips = []
    if isinstance(S, HemispaceDescriptor):
        watched = sorted(S.M)
    elif S.coordinate is None:
        watched = range(S.x0.dim)
    else:
        o = S.coordinate
        tau = S.x0[o]
        strips.append((0, 0, tau, 1) if o == 0 else (0, 0, 1, tau))
        watched = [m for m in range(S.x0.dim) if S.x0[m] < tau]
    for m in watched:
        theta = S.x0[m]
        strips.append((theta, 0, 1, 1) if m == 0 else (0, theta, 1, 1))
    return strips


def render_scene(
    box: Box | None,
    sets: dict[str, GeneratedConvexSet],
    separator: SemispaceDescriptor | HemispaceDescriptor | None = None,
    certificate_box: Box | None = None,
    grid_denominator: int = 12,
) -> str:
    """Compose the SVG document for a planar scene."""
    for C in sets.values():
        if C.dim != 2:
            raise DimensionError("scenes are planar; all sets must have dimension 2")
    if box is not None and box.dim != 2:
        raise DimensionError("scenes are planar; the box must have dimension 2")
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        'viewBox="-0.08 -0.08 1.16 1.16">',
        '<rect x="0" y="0" width="1" height="1" fill="#ffffff" stroke="#444444" '
        'stroke-width="0.004"/>',
    ]
    if separator is not None:
        for strip in _halfplane_strips(separator):
            parts.append(_rect(*strip, 'fill="#ffd54f" fill-opacity="0.45"'))
    if box is not None:
        parts.append(
            _rect(
                box.lower[0], box.lower[1], box.upper[0], box.upper[1],
                'fill="#9e9e9e" fill-opacity="0.35" stroke="#212121" stroke-width="0.006"',
            )
            or f'<circle cx="{_fx(box.lower[0])}" cy="{_fy(box.lower[1])}" r="0.01" '
            'fill="none" stroke="#212121" stroke-width="0.006"/>'
        )
    if certificate_box is not None:
        parts.append(
            _rect(
                certificate_box.lower[0], certificate_box.lower[1],
                certificate_box.upper[0], certificate_box.upper[1],
                'fill="none" stroke="#e65100" stroke-width="0.008" stroke-dasharray="0.02,0.012"',
            )
        )
    grid = Grid(grid_denominator, 2)
    for k, (name, C) in enumerate(sets.items()):
        color = _SET_COLORS[k % len(_SET_COLORS)]
        for p in grid.points():
            if hull_contains(C, p):
                parts.append(
                    f'<rect x="{float(p[0]) - 0.006:.4f}" y="{1.0 - float(p[1]) - 0.006:.4f}" '
                    f'width="0.012" height="0.012" fill="{color}" fill-opacity="0.6"/>'
                )
        for v in C.generators:
            parts.append(
                f'<circle cx="{_fx(v[0])}" cy="{_fy(v[1])}" r="0.014" fill="{color}" '
                'stroke="#000000" stroke-width="0.003"/>'
            )
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"
