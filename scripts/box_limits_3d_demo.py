#!/usr/bin/env python3
"""Why boxes stop working in three dimensions.

Two disjoint max-min segments are built from a pair of levels a < b: the
main diagonal of [a,b]^3 and a bent segment pinned to the bottom face.
Their bounding boxes nest, so no bounding box separates them, and an
exhaustive search over boxes with grid corners confirms that nothing
containing either segment misses the hull of the other.  The search is
restricted to boxes that actually contain a segment, which the corner
bounds characterise exactly.
"""
from __future__ import annotations

import argparse
import json
from itertools import product
from pathlib import Path

from maxminsep import (
    Box,
    GeneratedConvexSet,
    Grid,
    Point,
    bounding_box,
    box_intersects_hull,
    hull_intersection_witness,
)
from maxminsep import serialize
from maxminsep.core import as_scalar


def exhaustive_search(inner: GeneratedConvexSet, other: GeneratedConvexSet, d: int) -> tuple[int, int]:
    """Count candidate boxes with corners on the 1/d grid and separators."""
    values = Grid(d, 3).values()
    bb = bounding_box(inner)
    lows = [tuple(v for v in values if v <= bb.lower[i]) for i in range(3)]
    highs = [tuple(v for v in values if v >= bb.upper[i]) for i in range(3)]
    checked = separators = 0
    for lo in product(*lows):
        for hi in product(*highs):
            checked += 1
            if not box_intersects_hull(Box(Point(lo), Point(hi)), other):
                separators += 1
    return checked, separators


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="artifacts", type=Path)
    parser.add_argument("--low", default="1/4", help="level a")
    parser.add_argument("--high", default="3/4", help="level b")
    parser.add_argument("--denominators", default="4,8", help="grids for the search")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    a, b = as_scalar(args.low), as_scalar(args.high)
    if not a < b:
        parser.error("need low < high")
    diagonal = GeneratedConvexSet((Point.constant(3, a), Point.constant(3, b)))
    bent = GeneratedConvexSet((Point.of(b, a, a), Point.of(a, b, a)))

    witness = hull_intersection_witness(diagonal, bent)
    print(f"levels a={a} b={b}")
    print(f"hulls disjoint: {witness is None}")
    bb1, bb2 = bounding_box(diagonal), bounding_box(bent)

    def corners(B: Box) -> str:
        data = serialize.box_to_dict(B)
        return f"{data['lower']}..{data['upper']}"

    print(f"bounding boxes: diagonal={corners(bb1)} bent={corners(bb2)} "
          f"nested={bb1.lower <= bb2.lower and bb2.upper <= bb1.upper}")

    report = {
        "levels": {
            "a": serialize.format_scalar(a.numerator, a.denominator),
            "b": serialize.format_scalar(b.numerator, b.denominator),
        },
        "diagonal": serialize.set_to_list(diagonal),
        "bent": serialize.set_to_list(bent),
        "disjoint": witness is None,
        "searches": [],
    }
    for d in (int(part) for part in args.denominators.split(",")):
        total_checked = total_separators = 0
        for inner, other in ((diagonal, bent), (bent, diagonal)):
            checked, separators = exhaustive_search(inner, other, d)
            total_checked += checked
            total_separators += separators
        print(f"d={d}: {total_checked} candidate boxes, {total_separators} separators")
        report["searches"].append(
            {"denominator": d, "boxes": total_checked, "separators": total_separators}
        )
    path = args.outdir / "box_limits_3d.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
