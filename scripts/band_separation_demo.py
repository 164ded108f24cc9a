#!/usr/bin/env python3
"""Box-versus-set separation showcase.

Runs the staged pipeline on two fixed instances (one separable by a
semispace, one that needs the hemispace fallback), verifies both
certificates against the grid referee, then sweeps seeded random
instances and tallies outcomes and oracle-call counts per dimension.
Certificates and a rendered scene land in the artifacts directory.
"""
from __future__ import annotations

import argparse
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from maxminsep import (
    HEMISPACE,
    SEMISPACE,
    box_intersects_hull,
    hemispace_avoids_box,
    semispace_avoids_box,
    separate_box,
    set_in_semispace,
)
from maxminsep import serialize
from maxminsep.convex import Box, GeneratedConvexSet
from maxminsep.core import Point, as_scalar
from maxminsep.separation import decode_certificate, separate
from maxminsep.svg import render_scene


@dataclass(frozen=True)
class SweepConfig:
    seed: int = 7
    rounds: int = 400
    denominator: int = 8
    dimensions: tuple[int, ...] = (2, 3, 4)


def _rand_point(r: random.Random, n: int, d: int) -> Point:
    return Point(tuple(as_scalar(f"{r.randrange(d + 1)}/{d}") for _ in range(n)))


def showcase(outdir: Path) -> None:
    fixtures = [
        ("band_semispace", {"lower": ["0.2", "0.2"], "upper": ["0.8", "0.5"]}, [["0.1", "0.8"]]),
        ("band_hemispace", {"lower": ["0", "0.3"], "upper": ["1", "0.5"]}, [["0.4", "0.8"]]),
    ]
    for name, box, gens in fixtures:
        inst = serialize.instance_from_dict(
            {"dimension": 2, "box": box, "sets": {"C": gens}, "options": {"grid": 10}}
        )
        cert = separate(inst.scale, inst.box, serialize.single_set(inst))
        path = outdir / f"{name}.json"
        doc = serialize.certificate_to_dict(cert, inst)
        path.write_text(serialize.dumps(doc))
        B, C = serialize.box_from_dict(box), serialize.set_from_list(gens)
        S = decode_certificate(inst.scale, cert).separator
        avoids_box = semispace_avoids_box if cert.outcome == SEMISPACE else hemispace_avoids_box
        ok = set_in_semispace(C, S) is None and avoids_box(S, B)
        print(f"{name}: outcome={cert.outcome} oracle_calls={cert.oracle_calls} "
              f"verified={ok} -> {path}")
        scene = outdir / f"{name}.svg"
        scene.write_text(render_scene(doc["instance"], doc, grid=12))
        print(f"{name}: scene -> {scene}")


def sweep(cfg: SweepConfig) -> None:
    r = random.Random(cfg.seed)
    outcomes: Counter[str] = Counter()
    worst_calls: dict[int, int] = {}
    produced = 0
    while produced < cfg.rounds:
        n = r.choice(cfg.dimensions)
        lo = [r.randrange(cfg.denominator + 1) for _ in range(n)]
        hi = [r.randrange(a, cfg.denominator + 1) for a in lo]
        B = Box(
            Point(tuple(as_scalar(f"{a}/{cfg.denominator}") for a in lo)),
            Point(tuple(as_scalar(f"{a}/{cfg.denominator}") for a in hi)),
        )
        C = GeneratedConvexSet(
            tuple(_rand_point(r, n, cfg.denominator) for _ in range(r.randint(1, 4)))
        )
        if box_intersects_hull(B, C):
            continue
        produced += 1
        cert = separate_box(B, C)
        outcomes[cert.outcome] += 1
        worst_calls[n] = max(worst_calls.get(n, 0), cert.oracle_calls)
    print(f"sweep: {cfg.rounds} disjoint instances, seed={cfg.seed}")
    for outcome in (SEMISPACE, HEMISPACE):
        print(f"  {outcome}: {outcomes[outcome]}")
    for n in sorted(worst_calls):
        print(f"  n={n}: worst oracle_calls={worst_calls[n]} (budget {n + 1})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="artifacts", type=Path)
    parser.add_argument("--seed", default=7, type=int)
    parser.add_argument("--rounds", default=400, type=int)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    showcase(args.outdir)
    sweep(SweepConfig(seed=args.seed, rounds=args.rounds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
