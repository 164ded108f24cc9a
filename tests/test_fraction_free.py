"""No Fraction between a plain document and its answer or report.

The rank path reads plain ASCII scalar strings straight to int pairs,
numbers them on a Scale and formats each rank from its pair, so the
separation subcommands, check-cond and verify build no fractions.Fraction
on such a document, a failing verify check included.  Every module is
imported before the count starts, so only the requests are counted.
"""
import fractions
import json

import pytest

from maxminsep.cli import main

from helpers import package_modules
from test_cli import BLOCKED, SEPARABLE, TWO_SETS, write_instance


@pytest.fixture
def built(monkeypatch):
    """A one-element list that counts the Fractions built from now on."""
    package_modules()
    count = [0]
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    return count


def separate(tmp_path, capsys, instance, argv):
    """Run a separation subcommand; the path of the certificate it wrote."""
    cert = tmp_path / "cert.json"
    assert main([argv[0], "-i", write_instance(tmp_path, instance), "-o", str(cert), *argv[1:]]) in (0, 2)
    capsys.readouterr()
    return cert


@pytest.mark.parametrize(
    "instance, argv",
    [
        (SEPARABLE, ["separate-box"]),
        (BLOCKED, ["separate-box"]),
        (BLOCKED, ["separate-box", "--no-fallback"]),
        (TWO_SETS, ["separate-2d"]),
        (TWO_SETS, ["separate-2d", "--with-semispace"]),
    ],
    ids=["semispace", "hemispace", "not-separable", "box", "box-and-semispace"],
)
def test_answer_and_its_report(tmp_path, capsys, built, instance, argv):
    cert = separate(tmp_path, capsys, instance, argv)
    assert main(["verify", "-i", str(cert)]) == 0
    capsys.readouterr()
    assert built == [0]


@pytest.mark.parametrize("instance, code", [(SEPARABLE, 0), (BLOCKED, 2)], ids=["holds", "violated"])
def test_check_cond(tmp_path, capsys, built, instance, code):
    assert main(["check-cond", "-i", write_instance(tmp_path, instance)]) == code
    capsys.readouterr()
    assert built == [0]


def test_failed_check_names_its_point(tmp_path, capsys, built):
    # the separator moved to the box's lower corner holds every box point
    cert = separate(tmp_path, capsys, SEPARABLE, ["separate-box"])
    data = json.loads(cert.read_text(encoding="utf-8"))
    data["separator"]["x0"] = data["instance"]["box"]["lower"]
    cert.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", "-i", str(cert)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][-1]["point"] == ["1/3", "1/3"]
    assert built == [0]
