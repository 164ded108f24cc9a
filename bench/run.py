"""maxminsep benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload separate --seed 1 --seconds 45 --trace 0

Every operation is one in-process call of maxminsep.cli.main on an input
file generated before timing; the next starts when the last has returned.
The loop repeats whole rounds of the workload until --seconds have passed;
every round holds more than 100 requests.  Every answer is judged by the
independent checker in checker.py.  With --trace 0 the last stdout line
reports the end-to-end metrics; with --trace 1 it reports the per-layer
metrics of a traced loop, after an untraced loop of the same length that
gives the tracing overhead.  The program is imported from src/ of the
checkout that holds this file.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checker as ck
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 9
SETUP_COMMAND = ("family", "-p", "0.6,0.3")
LADDER_LABELS = ("n2", "n4", "n8", "n16", "n32", "n64", "planar")


def load_program():
    """Import maxminsep from src/ of this checkout, or fail."""
    if not (SRC / "maxminsep" / "cli.py").is_file():
        raise SystemExit(f"error: no maxminsep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import maxminsep.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "maxminsep":
        raise SystemExit(f"error: imported maxminsep from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]):
    """One operation: (seconds, exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return elapsed, rc, out.getvalue(), err.getvalue()


def answer_problems(req: wl.Request, rc, out: str, err: str) -> list[str]:
    if not isinstance(rc, int):
        return [f"exception escaped: {rc}"]
    if req.kind == "hostile":
        if rc != 1 or out or not err.startswith("error:"):
            return [f"hostile input answered with exit code {rc} instead of a parse error"]
        return []
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return [f"exit code {rc} with no JSON answer: {err.strip()[:200]}"]
    if req.kind == "box":
        want = ck.expected_box_outcome(req.inst, req.fallback)
        want_rc = 2 if want == ck.NOT_SEPARABLE else 0
        problems = ck.box_answer_problems(doc, req.inst, req.fallback, req.planted)
    elif req.kind == "pair":
        want_rc = 0
        problems = ck.two_set_answer_problems(doc, req.inst, req.with_semispace)
    else:
        want_rc = 0 if req.expect_valid else 1
        problems = ck.verify_report_problems(doc, req.grid, req.expect_valid)
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    return problems


class Workload:
    """The requests of one round, their command lines and their verdicts."""

    def __init__(self, name: str, seed: int, cli, workdir: Path) -> None:
        self.name = name
        self.cli = cli
        self.workdir = workdir
        self.setup_problems: list[str] = []
        self.verdicts: dict[tuple[int, int, str, str], list[str]] = {}
        # SHA-256 of the certificate bytes: set-up certificates for verify-grid,
        # the first round's answers otherwise
        self.digest = hashlib.sha256()
        if name == "verify-grid":
            self.requests = self._verify_requests(seed)
        else:
            self.requests = wl.build(name, seed)
        self.digest_pending = name != "verify-grid"
        self.argv = [self._argv(f"req{i:04d}", req) for i, req in enumerate(self.requests)]

    def _write(self, stem: str, document: dict) -> str:
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(document, indent=2), encoding="utf-8")
        return str(path)

    def _argv(self, stem: str, req: wl.Request) -> list[str]:
        path = self._write(stem, req.document)
        return [req.command] + [path if a == "{input}" else a for a in req.args]

    def _verify_requests(self, seed: int) -> list[wl.Request]:
        """Certificates come from the program; the checker sets what verify
        must say about each, and about a tampered copy of some."""
        plain, tampered = [], []
        for k, (n, pos, src) in enumerate(wl.verify_sources(seed)):
            _, rc, out, err = call(self.cli, self._argv(f"src{k:03d}", src))
            problems = answer_problems(src, rc, out, err)
            if problems:
                self.setup_problems.append(f"{src.label}: {'; '.join(problems)}")
                continue
            self.digest.update(out.encode())
            doc = json.loads(out)
            variants = [(doc, plain)]
            if (n, pos) in wl.VERIFY_TAMPERED:
                variants.append((wl.tamper(doc), tampered))
            for cert, bucket in variants:
                label = src.label + ("-tampered" if bucket is tampered else "")
                bucket.append(wl.Request(
                    label, "verify", ["-i", "{input}"], cert, "verify", grid=src.grid,
                    expect_valid=not ck.certificate_problems(cert, src.grid)))
        return plain + tampered

    def run(self, seconds: float, tracer=None, between_rounds=None, warmup: int = 1):
        """Whole rounds until `seconds` have passed, calling
        `between_rounds` (untimed) after each.  The first `warmup` rounds
        are checked and counted but not timed: they fill the interpreter's
        and the program's lazy caches.  Returns (rounds, latencies by
        request, failed count, problems)."""
        latencies: list[list[float]] = [[] for _ in self.requests]
        failed = 0
        problems: list[str] = []
        rounds = 0
        start = perf_counter()
        while True:
            for i, req in enumerate(self.requests):
                if tracer is not None:
                    tracer.request = rounds * len(self.requests) + i
                elapsed, rc, out, err = call(self.cli, self.argv[i])
                if rounds >= warmup:
                    latencies[i].append(elapsed)
                if self.digest_pending and not req.known_fault:
                    self.digest.update(out.encode())
                key = (i, rc if isinstance(rc, int) else -1, hashlib.sha1(out.encode()).hexdigest(),
                       hashlib.sha1(err.encode()).hexdigest())
                verdict = self.verdicts.get(key)
                if verdict is None:
                    verdict = self.verdicts[key] = answer_problems(req, rc, out, err)
                if verdict:
                    failed += 1
                    if not req.known_fault:
                        problems.append(f"{req.label} (request {i}): {'; '.join(verdict)}")
            rounds += 1
            self.digest_pending = False
            if between_rounds is not None:
                t0 = perf_counter()
                between_rounds()
                start += perf_counter() - t0
            if rounds > warmup and perf_counter() - start >= seconds:
                break
        return rounds, latencies, failed, problems


class SetupTimer:
    """Wall time of a fresh interpreter running one trivial command.  The
    run launches it between its rounds, at most SETUP_LAUNCHES times and
    spread evenly over the run, so the launches sample the whole run rather
    than one moment of it; the result is their median."""

    ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    ARGV = [sys.executable, "-m", "maxminsep", *SETUP_COMMAND]
    EXPECTED = {
        "x0": ["0.6", "0.3"],
        "family": [
            {"type": "S0", "x0": ["0.6", "0.3"]},
            {"type": "Si", "x0": ["0.6", "0.3"], "i": 1},
            {"type": "Si", "x0": ["0.6", "0.3"], "i": 2},
        ],
    }

    def __init__(self, seconds: float) -> None:
        self.times: list[float] = []
        self.problems: list[str] = []
        self.launch()  # also writes the bytecode caches, so it is not timed
        self.times.clear()
        self.interval = seconds / SETUP_LAUNCHES
        self.next_due = perf_counter()

    def between_rounds(self) -> None:
        if perf_counter() >= self.next_due:
            self.launch()
            self.next_due = perf_counter() + self.interval

    def launch(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(self.ARGV, cwd=ROOT, env=self.ENV, capture_output=True, text=True, timeout=60)
        self.times.append(perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout) == self.EXPECTED
        except json.JSONDecodeError:
            ok = False
        if not ok:
            self.problems.append(f"setup command failed: exit {proc.returncode}: {proc.stderr.strip()[:200]}")

    def median(self) -> float:
        while len(self.times) < SETUP_LAUNCHES:
            self.launch()
        return statistics.median(self.times)


def latency_metrics(latencies: list[list[float]]) -> dict[str, float]:
    """Throughput and latency quantiles of a typical round: each request
    counts with its median time over the run's rounds, so a burst of
    machine noise that slows a few rounds moves no metric."""
    typical = sorted(statistics.median(ts) for ts in latencies)
    return {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p90_ms": statistics.quantiles(typical, n=10)[8] * 1e3,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(work: Workload, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup = SetupTimer(seconds)
    rounds, latencies, failed, run_problems = work.run(seconds, between_rounds=setup.between_rounds)
    setup_s = setup.median()
    lat = latency_metrics(latencies)
    ops = rounds * len(work.requests)
    print(f"{work.name}: {rounds} rounds of {len(work.requests)} requests, {ops} operations, {failed} failed")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(lat["ops_per_s"], "ops/s"),
        "op_p50_ms": metric(lat["op_p50_ms"], "ms"),
        "op_p90_ms": metric(lat["op_p90_ms"], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, ops, failed, setup.problems + run_problems


def per_layer(work: Workload, seconds: float, seed: int) -> tuple[dict, int, int, list[str]]:
    from spans import Tracer

    half = seconds / 2
    rounds0, lat0, failed0, problems0 = work.run(half)
    tracer = Tracer()
    tracer.install()
    try:
        rounds1, lat1, failed1, problems1 = work.run(half, tracer)
    finally:
        tracer.uninstall()
    untraced = latency_metrics(lat0)["ops_per_s"]
    traced = latency_metrics(lat1)["ops_per_s"]
    spans_path = WORK / f"spans-{work.name}-seed{seed}.tsv"
    tracer.write(spans_path)
    print(f"{work.name}: {len(tracer.span_start)} spans written to {spans_path.relative_to(ROOT)}")

    per = 1.0 / rounds1
    s = tracer.summary()
    count = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0) * per

    def busy(name):
        return s.get(name, {}).get("busy", 0.0) * per

    def children(name, parent):
        ids = tracer.name_ids
        if name not in ids or parent not in ids:
            return 0
        nid, pid = ids[name], ids[parent]
        return sum(1 for i in range(len(tracer.span_name))
                   if tracer.span_name[i] == nid and tracer.span_parent[i] >= 0
                   and tracer.span_name[tracer.span_parent[i]] == pid) * per

    m = {
        "cli.main.calls": metric(calls("cli.main"), "count/round"),
        "cli.main.self_s": metric(s.get("cli.main", {}).get("self", 0.0) * per, "s/round"),
    }
    by_label: dict[str, list[float]] = {}
    for req, ts in zip(work.requests, lat0):
        by_label.setdefault(req.label, []).append(statistics.median(ts))
    for label in LADDER_LABELS:
        ts = by_label.get(label)
        m[f"cli.rung.{label}.p50_ms"] = metric(statistics.median(ts) * 1e3 if ts else 0.0, "ms")
    sweeps = count.get("separation.sweeps", 0)
    m.update({
        "serialize.parse.busy_s": metric(tracer.group_busy("serialize.parse") * per, "s/round"),
        "serialize.emit.busy_s": metric(tracer.group_busy("serialize.emit") * per, "s/round"),
        "serialize.bytes_out": metric(count.get("serialize.bytes_out", 0) * per, "bytes/round"),
        "separation.separate_box.calls": metric(calls("separation.separate_box"), "count/round"),
        "separation.separate_box.self_s": metric(
            s.get("separation.separate_box", {}).get("self", 0.0) * per, "s/round"),
        "separation.box_profile.busy_s": metric(busy("separation.box_profile"), "s/round"),
        "separation.lower_partition.busy_s": metric(busy("separation.lower_partition"), "s/round"),
        "separation.assert_nonseparable.busy_s": metric(busy("separation.assert_nonseparable"), "s/round"),
        "separation.sweeps": metric(sweeps * per, "count/round"),
    })
    for stage in (1, 2, 3, 4):
        m[f"separation.sweeps.stage{stage}"] = metric(
            count.get(f"separation.sweeps.stage{stage}", 0) * per, "count/round")
    for outcome in ("semispace", "hemispace", "not_separable"):
        m[f"separation.outcome.{outcome}"] = metric(
            count.get(f"separation.outcome.{outcome}", 0) * per, "count/round")
    grid_points = count.get("oracle.grid_points", 0)
    m.update({
        "separation.sweep_yield": metric(
            count.get("separation.separating_sweeps", 0) / sweeps if sweeps else 0.0, "ratio"),
        "semispaces.set_in_semispace.calls": metric(calls("semispaces.set_in_semispace"), "count/round"),
        "semispaces.set_in_semispace.busy_s": metric(busy("semispaces.set_in_semispace"), "s/round"),
        "semispaces.member_evals": metric(count.get("semispaces.member_evals", 0) * per, "count/round"),
        "semispaces.sorted_profile.calls": metric(
            count.get("semispaces.sorted_profile.calls", 0) * per, "count/round"),
        "semispaces.semispace_family.calls": metric(
            count.get("semispaces.semispace_family.calls", 0) * per, "count/round"),
        "convex.box_hull_witness.busy_s": metric(busy("convex.box_hull_witness"), "s/round"),
        "convex.hull_contains.calls": metric(calls("convex.hull_contains"), "count/round"),
        "convex.hull_contains.busy_s": metric(busy("convex.hull_contains"), "s/round"),
        "convex.greatest_below.calls": metric(calls("convex.greatest_below"), "count/round"),
        "convex.hull_intersection_witness.busy_s": metric(busy("convex.hull_intersection_witness"), "s/round"),
        "convex.hull_intersection_witness.descent_steps": metric(
            children("convex.greatest_below", "convex.hull_intersection_witness"), "count/round"),
        "core.greatest_meet_coefficient.calls": metric(
            count.get("core.greatest_meet_coefficient.calls", 0) * per, "count/round"),
        "core.point.constructions": metric(count.get("core.point.constructions", 0) * per, "count/round"),
        "core.join.calls": metric(count.get("core.join.calls", 0) * per, "count/round"),
        "planar.separate_two_sets.busy_s": metric(busy("planar.separate_two_sets"), "s/round"),
        "planar.separate_box_semispace.busy_s": metric(busy("planar.separate_box_semispace"), "s/round"),
        "planar.candidate_boxes_tried": metric(count.get("planar.candidate_boxes_tried", 0) * per, "count/round"),
        "oracle.grid_points": metric(grid_points * per, "count/round"),
        "oracle.grid.busy_s": metric(count.get("oracle.grid.busy_s", 0.0) * per, "s/round"),
        "oracle.useful_point_ratio": metric(
            count.get("oracle.useful_points", 0) / grid_points if grid_points else 0.0, "ratio"),
        "trace.untraced_ops_per_s": metric(untraced, "ops/s"),
        "trace.traced_ops_per_s": metric(traced, "ops/s"),
        "trace.overhead_ratio": metric(untraced / traced, "ratio"),
    })
    ops = (rounds0 + rounds1) * len(work.requests)
    print(f"{work.name}: traced {rounds1} rounds, overhead {untraced / traced:.2f}x "
          f"({untraced:.1f} untraced against {traced:.1f} traced ops/s)")
    return m, ops, failed0 + failed1, problems0 + problems1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        work = Workload(args.workload, args.seed, cli, workdir)
        run = per_layer(work, args.seconds, args.seed) if args.trace else end_to_end(work, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, problems = run
    problems = work.setup_problems + problems
    for line in dict.fromkeys(problems):
        print(f"FAILED {line}", file=sys.stderr)
    print(f"certificate digest {args.workload} seed {args.seed}: sha256 {work.digest.hexdigest()}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
