"""Golden corpus: the certificate bytes of a seeded set of CLI runs.

About forty separate-box instances at n = 2..8 on the 1/20 grid, each run
with and without --no-fallback, and a few planar pairs run with and
without --with-semispace.  The SHA-256 of the exit codes and outputs,
concatenated in order, must not move: a refactor that changes one byte of
one certificate fails here.
"""
import hashlib
import json
import random
from fractions import Fraction

from maxminsep.cli import main
from maxminsep.convex import box_hull_point, hulls_common_point
from maxminsep.serialize import instance_from_dict

DIGEST = "503318ca526fbd1895b63a7c0577bb9f8ef44f1ada9c5430510a8f01bb82e275"

DEN = 20


def _scalar(r: random.Random, lo: int = 0, hi: int = DEN) -> str:
    return str(Fraction(r.randint(lo, hi), DEN))


def _box_instances(r: random.Random):
    """Disjoint box/set instances: half with free boxes, half with one upper
    bound pinned at 1 so that the hemispace and not-separable outcomes occur."""
    out = []
    while len(out) < 40:
        n = 2 + len(out) % 7
        pinned = len(out) % 2 == 1
        lows = [r.randint(0, DEN // 2) for _ in range(n)]
        ups = [r.randint(k, DEN) for k in lows]
        if pinned:
            ups[r.randrange(n)] = DEN
        gens = [[_scalar(r) for _ in range(n)] for _ in range(r.randint(1, 4))]
        doc = {
            "dimension": n,
            "box": {
                "lower": [str(Fraction(k, DEN)) for k in lows],
                "upper": [str(Fraction(k, DEN)) for k in ups],
            },
            "sets": {"C": gens},
        }
        inst = instance_from_dict(doc)
        if box_hull_point(inst.box, inst.sets["C"], inst.scale.top) is None:
            out.append(doc)
    return out


def _pair_instances(r: random.Random):
    out = []
    while len(out) < 6:
        sets = {
            name: [[_scalar(r, 1, DEN - 1) for _ in range(2)] for _ in range(r.randint(1, 3))]
            for name in ("C1", "C2")
        }
        doc = {"dimension": 2, "sets": sets}
        inst = instance_from_dict(doc)
        if hulls_common_point(*inst.sets.values(), inst.scale.top) is None:
            out.append(doc)
    return out


def test_certificate_bytes_are_unchanged(tmp_path, capsys):
    r = random.Random(20240)
    runs = []
    for doc in _box_instances(r):
        runs += [("separate-box", doc, []), ("separate-box", doc, ["--no-fallback"])]
    for doc in _pair_instances(r):
        runs += [("separate-2d", doc, []), ("separate-2d", doc, ["--with-semispace"])]
    path = tmp_path / "instance.json"
    digest = hashlib.sha256()
    outcomes = set()
    for command, doc, extra in runs:
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, "-i", str(path), *extra])
        out = capsys.readouterr().out
        assert code in (0, 2), (command, doc, extra)
        if command == "separate-box":
            outcomes.add((json.loads(out)["outcome"], bool(extra)))
        digest.update(f"{code}\n{out}".encode())
    # with the fallback on, a disjoint instance that no semispace separates
    # has always been separated by the hemispace in random probes
    assert outcomes == {
        ("semispace", False), ("hemispace", False),
        ("semispace", True), ("not-separable", True),
    }
    assert digest.hexdigest() == DIGEST
