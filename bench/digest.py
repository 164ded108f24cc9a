"""Print the SHA-256 of the certificate bytes of one round of each workload.

    python3 bench/digest.py --seed 1

For separate the bytes are the answers of the
round's requests in order (known-fault requests left out); for verify-grid
they are the certificates the program makes at set-up.  The digest is a
reference that makes drift in certificate bytes visible, not a gate.
"""
from __future__ import annotations

import argparse
import os
import shutil

import run
import workloads as wl


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cli = run.load_program()
    run.WORK.mkdir(exist_ok=True)
    for name in wl.WORKLOADS:
        workdir = run.WORK / f"digest-{name}-{args.seed}-{os.getpid()}"
        workdir.mkdir()
        try:
            work = run.Workload(name, args.seed, cli, workdir)
            work.run(0, warmup=0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name} seed {args.seed}: sha256 {work.digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
