"""Golden bytes of the SVG scenes that `maxminsep plot` writes.

Each fixture of test_cli.py is drawn without a certificate and with the
certificate its separation subcommand writes, at the instance's grid and at
--grid 24.  The SHA-256 of every scene's name and bytes, in order, must not
move when the drawing or the readers behind it change.
"""
import hashlib

from maxminsep.cli import main

from test_cli import BLOCKED, SEPARABLE, TWO_SETS, write_instance

DIGEST = "744c4ff52b70fec2395aefbd56b8557f9c59406bf11e5b76720cb023dcc93a53"

CASES = (
    ("separable", SEPARABLE, ["separate-box"]),
    ("blocked", BLOCKED, ["separate-box"]),
    ("two-sets", TWO_SETS, ["separate-2d", "--with-semispace"]),
)


def test_plot_scenes_are_unchanged(tmp_path, capsys):
    digest = hashlib.sha256()
    for name, data, command in CASES:
        inst = write_instance(tmp_path, data, f"{name}.json")
        cert = str(tmp_path / f"{name}-cert.json")
        assert main([*command, "-i", inst, "-o", cert]) == 0
        for overlay in ([], ["-c", cert]):
            for grid in ([], ["--grid", "24"]):
                scene = tmp_path / "scene.svg"
                assert main(["plot", "-i", inst, *overlay, *grid, "-o", str(scene)]) == 0
                digest.update(f"{name} {' '.join(overlay[:1] + grid)}\n".encode())
                digest.update(scene.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == DIGEST
