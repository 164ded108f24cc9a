#!/usr/bin/env python3
"""Two-set separation in the plane.

Sweeps seeded random disjoint pairs, separates each with a box, and
reports which set ends up boxed.  Pairs whose generators stay strictly
inside the unit square are separated again with a box plus a semispace
wrapped around the unboxed hull.  One worked pair is rendered to SVG
alongside its certificate.
"""
from __future__ import annotations

import argparse
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from maxminsep import (
    bounding_box,
    box_intersects_hull,
    hull_intersection_witness,
    semispace_avoids_box,
    separate_box_semispace,
    separate_two_sets,
    set_in_semispace,
)
from maxminsep import serialize
from maxminsep.convex import GeneratedConvexSet
from maxminsep.core import Point, as_scalar
from maxminsep.planar import box_and_semispace
from maxminsep.svg import render_scene


@dataclass(frozen=True)
class SweepConfig:
    seed: int = 19
    pairs: int = 300
    denominator: int = 8


def _rand_set(r: random.Random, d: int, interior: bool) -> GeneratedConvexSet:
    values = range(1, d) if interior else range(d + 1)
    return GeneratedConvexSet(
        tuple(
            Point((as_scalar(f"{r.choice(values)}/{d}"), as_scalar(f"{r.choice(values)}/{d}")))
            for _ in range(r.randint(1, 4))
        )
    )


def worked_pair(outdir: Path) -> None:
    inst = serialize.instance_from_dict({
        "dimension": 2,
        "sets": {"C1": [["0.55", "0.65"], ["0.85", "0.95"]], "C2": [["0.2", "0.3"], ["0.4", "0.2"]]},
    })
    cert, S = box_and_semispace(inst.scale, *serialize.two_sets(inst))
    path = outdir / "planar_pair.json"
    doc = serialize.planar_certificate_to_dict(cert, inst, S)
    path.write_text(serialize.dumps(doc))
    scene = outdir / "planar_pair.svg"
    scene.write_text(render_scene(doc["instance"], doc, grid=12))
    corners = doc["box"]
    print(f"worked pair: boxed_set={cert.boxed_set} box={corners['lower']}..{corners['upper']} "
          f"-> {path}, {scene}")


def sweep(cfg: SweepConfig) -> None:
    r = random.Random(cfg.seed)
    boxed: Counter[int] = Counter()
    produced = validated = 0
    while produced < cfg.pairs:
        C1 = _rand_set(r, cfg.denominator, interior=False)
        C2 = _rand_set(r, cfg.denominator, interior=False)
        if hull_intersection_witness(C1, C2) is not None:
            continue
        produced += 1
        cert = separate_two_sets(C1, C2)
        boxed[cert.boxed_set] += 1
        inner, other = (C1, C2) if cert.boxed_set == 1 else (C2, C1)
        bb = bounding_box(inner)
        validated += (
            cert.box.lower <= bb.lower
            and bb.upper <= cert.box.upper
            and not box_intersects_hull(cert.box, other)
        )
    print(f"box sweep: {cfg.pairs} disjoint pairs, seed={cfg.seed}, "
          f"validated={validated}, boxed first={boxed[1]}, boxed second={boxed[2]}")

    produced = validated = 0
    while produced < cfg.pairs // 3:
        C1 = _rand_set(r, cfg.denominator, interior=True)
        C2 = _rand_set(r, cfg.denominator, interior=True)
        if hull_intersection_witness(C1, C2) is not None:
            continue
        produced += 1
        cert, S = separate_box_semispace(C1, C2)
        other = C2 if cert.boxed_set == 1 else C1
        validated += (
            set_in_semispace(other, S) is None and semispace_avoids_box(S, cert.box)
        )
    print(f"box+semispace sweep: {produced} interior pairs, validated={validated}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="artifacts", type=Path)
    parser.add_argument("--seed", default=19, type=int)
    parser.add_argument("--pairs", default=300, type=int)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    worked_pair(args.outdir)
    sweep(SweepConfig(seed=args.seed, pairs=args.pairs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
