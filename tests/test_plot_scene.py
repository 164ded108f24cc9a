"""SVG scenes of `maxminsep plot`, read back with xml.etree.

Where test_plot_golden.py pins the bytes, these tests read each scene back
into cube coordinates: the hull squares sit exactly at the grid points that
hull_contains accepts, the instance box and the certificate box are each
drawn once and where they are, a degenerate box is drawn as a line (a
segment) or a circle (a point), and the strips of a separator cover exactly
the points of its semispace.
"""
import itertools
import json
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction

import pytest

from maxminsep import Grid
from maxminsep.cli import main
from maxminsep.oracle import semispace
from maxminsep.serialize import descriptor_from_dict

from helpers import gset, hull_grid_points
from test_cli import BLOCKED, SEPARABLE, TWO_SETS, write_instance

SVG = "{http://www.w3.org/2000/svg}"
DASHED = "stroke-dasharray"
INSTANCE_BOX_STROKE = "#212121"
STRIP_FILL = "#ffd54f"

# the first set is a single point, so the box around it is a point box
POINT_BOXED = {
    "dimension": 2,
    "sets": {"C1": [["0.3", "0.7"]], "C2": [["0.6", "0.2"], ["0.8", "0.4"]]},
}
SEGMENT_BOX = {
    "dimension": 2,
    "box": {"lower": ["0.2", "0.3"], "upper": ["0.8", "0.3"]},
    "sets": {"C": [["0.5", "0.8"]]},
    "options": {"grid": 5},
}


def draw(tmp_path, capsys, instance, command=None, grid=()):
    """The root element of the scene of `instance`, with the certificate that
    `command` writes for it when a command is given, and that certificate."""
    inst = write_instance(tmp_path, instance)
    argv, certificate = ["plot", "-i", inst, *grid, "-o", str(tmp_path / "scene.svg")], None
    if command is not None:
        cert_path = tmp_path / "cert.json"
        assert main([*command, "-i", inst, "-o", str(cert_path)]) == 0
        certificate = json.loads(cert_path.read_text(encoding="utf-8"))
        argv[3:3] = ["-c", str(cert_path)]
    assert main(argv) == 0
    capsys.readouterr()
    return ET.parse(tmp_path / "scene.svg").getroot(), certificate


def shapes(root, **attributes):
    """The drawn elements other than the root, with the given attribute values."""
    return [e for e in root.iter() if e is not root and all(e.get(k) == v for k, v in attributes.items())]


def corners(e) -> tuple[tuple[float, float], tuple[float, float]]:
    """The lower and upper cube corners of a box shape."""
    tag = e.tag.removeprefix(SVG)
    get = lambda key: float(e.get(key))
    if tag == "rect":
        x, y, w, h = get("x"), get("y"), get("width"), get("height")
        return (x, 1 - y - h), (x + w, 1 - y)
    if tag == "line":
        return (get("x1"), 1 - get("y1")), (get("x2"), 1 - get("y2"))
    assert tag == "circle", tag
    centre = (get("cx"), 1 - get("cy"))
    return centre, centre


def box_corners(document) -> tuple[tuple[float, float], tuple[float, float]]:
    return tuple(tuple(float(Fraction(c)) for c in document[k]) for k in ("lower", "upper"))


def assert_at(shape, document) -> None:
    got, want = corners(shape), box_corners(document)
    assert [c for p in got for c in p] == pytest.approx([c for p in want for c in p], abs=1e-4)


@pytest.mark.parametrize(
    "instance, command, grid",
    [
        (SEPARABLE, ["separate-box"], ()),
        (BLOCKED, ["separate-box"], ("--grid", "12")),
        (TWO_SETS, ["separate-2d", "--with-semispace"], ()),
        (TWO_SETS, ["separate-2d"], ("--grid", "24")),
        (POINT_BOXED, ["separate-2d"], ()),
        (SEGMENT_BOX, None, ()),
    ],
    ids=["separable", "blocked-grid-12", "two-sets-semispace", "two-sets-grid-24", "point-boxed", "segment-box"],
)
def test_scene_reads_back_to_its_documents(tmp_path, capsys, instance, command, grid):
    root, certificate = draw(tmp_path, capsys, instance, command, grid)
    d = int(grid[1]) if grid else instance.get("options", {}).get("grid", 10)
    # a set's color is the fill of its generator discs, in document order
    colors = list(dict.fromkeys(e.get("fill") for e in shapes(root, r="0.014")))
    assert len(colors) == len(instance["sets"])
    for color, gens in zip(colors, instance["sets"].values()):
        drawn = set()
        for square in shapes(root, width="0.012", fill=color):
            x, y = float(square.get("x")) + 0.006, 1 - float(square.get("y")) - 0.006
            p = (Fraction(round(x * d), d), Fraction(round(y * d), d))
            assert (x, y) == pytest.approx(tuple(map(float, p)), abs=1e-4)
            drawn.add(p)
        expected = hull_grid_points(gset(*(",".join(v) for v in gens)), Grid(d, 2))
        assert drawn == {tuple(p) for p in expected}
    instance_box = shapes(root, stroke=INSTANCE_BOX_STROKE)
    assert len(instance_box) == (instance.get("box") is not None)
    for shape in instance_box:
        assert_at(shape, instance["box"])
    dashed = [e for e in root.iter() if e.get(DASHED)]
    if certificate is not None and certificate.get("box") is not None:
        assert len(dashed) == 1
        assert_at(dashed[0], certificate["box"])
    else:
        assert dashed == []


def test_point_box_of_a_certificate_is_a_circle(tmp_path, capsys):
    root, certificate = draw(tmp_path, capsys, POINT_BOXED, ["separate-2d"])
    assert certificate["box"] == {"lower": ["0.3", "0.7"], "upper": ["0.3", "0.7"]}
    (circle,) = [e for e in root.iter() if e.get(DASHED)]
    assert circle.tag == SVG + "circle"
    assert (circle.get("cx"), circle.get("cy"), circle.get("fill")) == ("0.3000", "0.3000", "none")


def test_segment_box_of_an_instance_is_a_line(tmp_path, capsys):
    root, _ = draw(tmp_path, capsys, SEGMENT_BOX)
    (line,) = shapes(root, stroke=INSTANCE_BOX_STROKE)
    assert line.tag == SVG + "line"
    assert [line.get(k) for k in ("x1", "y1", "x2", "y2")] == ["0.2000", "0.7000", "0.8000", "0.7000"]


@pytest.mark.parametrize(
    "instance, command, kind",
    [
        (SEPARABLE, ["separate-box"], ("S0", False)),
        (BLOCKED, ["separate-box"], ("S0", True)),
        (TWO_SETS, ["separate-2d", "--with-semispace"], ("Si", False)),
    ],
    ids=["upper-type", "hemispace", "coordinate"],
)
def test_separator_strips_cover_exactly_its_semispace(tmp_path, capsys, instance, command, kind):
    root, certificate = draw(tmp_path, capsys, instance, command)
    document = certificate.get("separator") or certificate["semispace"]
    assert (document["type"], "M" in document) == kind
    S = descriptor_from_dict(document)
    member = semispace(replace(S, x0=tuple(map(float, S.x0))), 1.0)
    strips = [corners(e) for e in shapes(root, fill=STRIP_FILL)]
    # the strip edges sit on multiples of 1/40, so no midpoint is on one
    midpoints = [(k + 0.5) / 40 for k in range(40)]
    for p in itertools.product(midpoints, repeat=2):
        drawn = any(lo[0] < p[0] < hi[0] and lo[1] < p[1] < hi[1] for lo, hi in strips)
        assert drawn == member(p), p
