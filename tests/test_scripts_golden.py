"""Golden run of the demo scripts: their reports and the files they write.

Each scripts/*_demo.py runs in a fresh interpreter with its own --outdir.
The SHA-256 of every script's stdout (with the out-dir path replaced by a
placeholder) and of the name and bytes of every file it writes, in order,
must not move.  The scripts are the main callers of the Fraction API
outside the tests.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

DIGEST = "12dde69b6f3d98623a848f8bdbee69655a9bb867bf8a1a8c5648325955954fbc"

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("band_separation_demo.py", "box_limits_3d_demo.py", "planar_pairs_demo.py")


def test_demo_scripts_are_unchanged(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    digest = hashlib.sha256()
    for script in SCRIPTS:
        outdir = tmp_path / script.removesuffix(".py")
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(outdir)],
            capture_output=True, text=True, env=env, check=True,
        )
        digest.update(f"{script}\n{done.stdout.replace(str(outdir), '<outdir>')}".encode())
        for path in sorted(outdir.iterdir()):
            digest.update(f"{path.name}\n".encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == DIGEST
