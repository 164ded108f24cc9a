"""Golden certificate bytes across scalar spellings.

Every spelling of 1/2 below is read to the same value, so `separate-box`
must print the same certificate for each, with the value in its canonical
form.  The SHA-256 constants were recorded from the program before scalar
strings were read without Fraction; a change that moves a certificate
byte fails here.
"""
import hashlib
import json

import pytest

from maxminsep.cli import main

SPELLINGS = ["0.5", "1/2", "0.50", " 1/2 ", "5e-1", "0.5_0", "٥/١٠"]


def semispace_instance(h):
    return {
        "dimension": 3,
        "box": {"lower": ["0.2", "0.1", "0.2"], "upper": [h, "0.6", h]},
        "sets": {"C": [[h, "0.9", "0.1"], ["0.7", h, "0.95"], ["3/4", "0.8", h]]},
        "options": {"grid": 10, "fallback": True},
    }


def blocked_instance(h):
    # no semispace separates: the hemispace fallback does, or, without it,
    # a not-separable witness
    return {
        "dimension": 3,
        "box": {"lower": ["0", "0.3", "0.1"], "upper": ["1", h, "0.7"]},
        "sets": {"C": [["0.4", "0.8", h], [h, "0.9", "0.2"], ["0.2", "3/5", "0.8"]]},
    }


CASES = {
    "semispace": (semispace_instance, [], 0, "c4cc4bd98b46572f0513a93d3de741d0cf4cf876ffe67b57275b25979d6c7b8b"),
    "hemispace": (blocked_instance, [], 0, "c22ac00b268974765967c8963a90695fd69aa719160ed2a45aaca7e810c8536d"),
    "not-separable": (
        blocked_instance,
        ["--no-fallback"],
        2,
        "9ce181c2eb7bbfd9aedc484cce2723576652f3292ba927c1531ac01cd85b998b",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("spelling", SPELLINGS)
def test_every_spelling_gives_the_pinned_certificate(tmp_path, capsys, case, spelling):
    instance, flags, want_code, want_digest = CASES[case]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance(spelling)), encoding="utf-8")
    code = main(["separate-box", "-i", str(path), *flags])
    out = capsys.readouterr().out
    assert code == want_code
    assert json.loads(out)["outcome"] == case
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest
