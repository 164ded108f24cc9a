"""Golden corpus of verify reports.

Thirty seeded separate-box instances at n = 2..4, half with scalars on the
1/10 grid and half on the 1/20 grid, all with grid option 10.  Each is
separated with and without --no-fallback, and each certificate and a
tampered copy of it (separator or witness moved to the box's lower corner)
is verified at the instance grid and at --grid 4 and 7.  The SHA-256 of
the exit codes and reports, concatenated in order, must not move: a change
to the referee that alters one byte of one report fails here.  None of
those reports fails the hull sweep, so a second corpus moves each
separator's x0 onto a generator, which makes that sweep fail.
"""
import hashlib
import json
import random
from fractions import Fraction

from maxminsep.cli import main
from maxminsep.convex import box_hull_point
from maxminsep.serialize import instance_from_dict

DIGEST = "ca0120711de42796dad601d4f0ad8a1d11f694f0fd69e8aa7ff6342388311a23"


def _box_instances(r: random.Random):
    """Disjoint box/set instances; every other one has an upper bound
    pinned at 1, so that the hemispace and not-separable outcomes occur."""
    out = []
    while len(out) < 30:
        n = 2 + len(out) % 3
        den = 10 if len(out) % 4 < 2 else 20
        pinned = len(out) % 2 == 1
        lows = [r.randint(0, den // 2) for _ in range(n)]
        ups = [r.randint(k, den) for k in lows]
        if pinned:
            ups[r.randrange(n)] = den
        doc = {
            "dimension": n,
            "box": {
                "lower": [str(Fraction(k, den)) for k in lows],
                "upper": [str(Fraction(k, den)) for k in ups],
            },
            "sets": {"C": [[str(Fraction(r.randint(0, den), den)) for _ in range(n)]
                           for _ in range(r.randint(1, 4))]},
            "options": {"grid": 10},
        }
        inst = instance_from_dict(doc)
        if box_hull_point(inst.box, inst.sets["C"], inst.scale.top) is None:
            out.append(doc)
    return out


def _tampered(cert: dict) -> dict:
    bad = json.loads(json.dumps(cert))
    corner = list(bad["instance"]["box"]["lower"])
    if bad["outcome"] == "not-separable":
        bad["witness"] = corner
    else:
        bad["separator"]["x0"] = corner
    return bad


def test_verify_reports_are_unchanged(tmp_path, capsys):
    r = random.Random(20260)
    instance, certificate = tmp_path / "instance.json", tmp_path / "cert.json"
    digest = hashlib.sha256()
    outcomes, verdicts = set(), set()
    for doc in _box_instances(r):
        instance.write_text(json.dumps(doc), encoding="utf-8")
        for extra in ([], ["--no-fallback"]):
            code = main(["separate-box", "-i", str(instance), *extra])
            cert = json.loads(capsys.readouterr().out)
            assert code in (0, 2), (doc, extra)
            outcomes.add(cert["outcome"])
            for variant in (cert, _tampered(cert)):
                certificate.write_text(json.dumps(variant), encoding="utf-8")
                for grid in ([], ["--grid", "4"], ["--grid", "7"]):
                    code = main(["verify", "-i", str(certificate), *grid])
                    out = capsys.readouterr().out
                    verdicts.add((variant is cert, code))
                    digest.update(f"{code}\n{out}".encode())
    assert outcomes == {"semispace", "hemispace", "not-separable"}
    # every genuine certificate is valid at every grid; some tampered ones
    # are caught
    assert verdicts == {(True, 0), (False, 0), (False, 1)}
    assert digest.hexdigest() == DIGEST


HULL_SWEEP_DIGEST = "e75fab5f960fd627cb6d079cd29e7abb8b3508b10e55fb5d849164a0b0af88f6"


def test_failing_hull_sweeps_are_unchanged(tmp_path, capsys):
    """The semispace and hemispace certificates of the corpus above, each
    copied once per generator with the separator's x0 moved onto that
    generator, verified at the instance grid and at --grid 4 and 7.  A
    separator never holds its own x0, so that generator is a hull point
    outside it, and the hull sweep fails when the grid holds such a point
    (121 of the 363 reports); the digest pins the point each one names."""
    r = random.Random(20260)
    instance, certificate = tmp_path / "instance.json", tmp_path / "cert.json"
    digest = hashlib.sha256()
    failing = 0
    for doc in _box_instances(r):
        instance.write_text(json.dumps(doc), encoding="utf-8")
        for extra in ([], ["--no-fallback"]):
            main(["separate-box", "-i", str(instance), *extra])
            cert = json.loads(capsys.readouterr().out)
            if cert["outcome"] == "not-separable":
                continue
            for generator in doc["sets"]["C"]:
                moved = json.loads(json.dumps(cert))
                moved["separator"]["x0"] = generator
                certificate.write_text(json.dumps(moved), encoding="utf-8")
                for grid in ([], ["--grid", "4"], ["--grid", "7"]):
                    code = main(["verify", "-i", str(certificate), *grid])
                    out = capsys.readouterr().out
                    checks = json.loads(out)["checks"]
                    failing += not next(c["ok"] for c in checks if c["check"] == "grid hull points inside separator")
                    digest.update(f"{code}\n{out}".encode())
    assert failing >= 100
    assert digest.hexdigest() == HULL_SWEEP_DIGEST
