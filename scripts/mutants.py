#!/usr/bin/env python3
"""Hand-made mutants of maxminsep, each of which named tests must kill.

    python3 scripts/mutants.py             # every mutant
    python3 scripts/mutants.py gcd range   # the mutants whose names contain a word

For each mutant the script copies src/ to a temporary directory, replaces
the mutant's old text, which must occur exactly once in its file, with the
new text, and runs the mutant's tests with pytest against the copy (the
pythonpath setting of pyproject.toml is overridden to the copy's src/, and
hypothesis runs on a fixed seed, so a verdict repeats).  A mutant is killed
when its tests fail; first, all the named tests must pass on an unchanged
copy.  The exit status is 1 when they do not, when a mutant survives, when its old text does not occur exactly once (the code moved:
update the list), or when pytest imported maxminsep from anywhere but the
copy.  Standard library only; pytest runs in a child process.  The tier-1
suite does not run this script.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/maxminsep/
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]


MUTANTS = (
    # the scalar reader and writer
    Mutant(
        "reader-no-gcd", "serialize.py",
        "            g = gcd(p, q)\n", "            g = 1\n",
        "plain scalar strings are not reduced, so 0.50 and 1/2 get different pairs",
        ("tests/test_serialize.py::TestScalarPair",),
    ),
    Mutant(
        "reader-no-range-check", "serialize.py",
        "        if 0 < q and p <= q:\n", "        if 0 < q:\n",
        "plain scalar strings above 1 are accepted",
        (
            "tests/test_serialize.py::TestScalarPair::test_listed_spellings",
            "tests/test_cli.py::TestScalarDedupe::test_rejected_scalars_stay_parse_errors",
        ),
    ),
    Mutant(
        "reader-no-length-bound", "serialize.py",
        "text.isascii() and len(text) <= MAX_SCALAR_DIGITS:", "text.isascii():",
        "plain scalar strings past the digit bound are read",
        (
            "tests/test_serialize.py::TestScalarPair::test_listed_spellings",
            "tests/test_cli.py::TestScalarDedupe::test_rejected_scalars_stay_parse_errors",
        ),
    ),
    Mutant(
        "reader-no-ascii-check", "serialize.py",
        "isinstance(text, str) and text.isascii() and len", "isinstance(text, str) and len",
        "non-ASCII digits take the plain path",
        ("tests/test_serialize.py::TestScalarPair",),
    ),
    Mutant(
        "writer-unsorted-keys", "serialize.py",
        "for key in sorted(value)]", "for key in value]",
        "object keys keep their insertion order",
        ("tests/test_serialize.py::TestDumps",),
    ),
    Mutant(
        "writer-non-ascii-escaper", "serialize.py",
        "_escape = json.encoder.encode_basestring_ascii", "_escape = json.encoder.encode_basestring",
        "non-ASCII set names are written unescaped",
        (
            "tests/test_serialize.py::TestDumps",
            "tests/test_cli.py::TestSeparateTwoSets::test_set_names_are_escaped",
        ),
    ),
    Mutant(
        "writer-empty-list-as-object", "serialize.py",
        'if items else "[]"', 'if items else "{}"',
        "an empty list is written as {}",
        ("tests/test_serialize.py::TestDumps",),
    ),
    Mutant(
        "certificate-reader-no-dict-check", "cli.py",
        "    if not isinstance(data, dict):\n        raise ParseError(\"a certificate must",
        "    if False:\n        raise ParseError(\"a certificate must",
        "a certificate that is not a JSON object reaches the readers",
        (
            "tests/test_cli.py::TestPlot::test_certificate_that_is_not_an_object",
            "tests/test_cli.py::TestVerify::test_certificate_that_is_not_an_object",
        ),
    ),
    # the Fraction wrappers around the kernels: a worked example first, then
    # the differential test against the kernels on ranks
    Mutant(
        "exact-top-below-one", "core.py",
        "EXACT = SimpleNamespace(top=ONE, decode=Point)",
        "EXACT = SimpleNamespace(top=Fraction(99, 100), decode=Point)",
        "the wrappers run the kernels with a wrong top",
        (
            "tests/test_planar.py::TestSeparateBoxSemispace::test_boundary_generators_are_rejected",
            "tests/test_relabel.py::test_box_functions_match_their_kernels_on_ranks",
        ),
    ),
    Mutant(
        "two-sets-swapped", "planar.py",
        "box_one_set(EXACT, C1.coords, C2.coords)", "box_one_set(EXACT, C2.coords, C1.coords)",
        "separate_two_sets hands the kernel its sets in the wrong order",
        (
            "tests/test_planar.py::TestSeparateTwoSets::test_bounding_box_of_first_set_wins",
            "tests/test_relabel.py::test_two_set_functions_match_their_kernels_on_ranks",
        ),
    ),
    Mutant(
        "fallback-forced-on", "separation.py",
        "C.coords, with_fallback=with_fallback)", "C.coords, with_fallback=True)",
        "separate_box ignores with_fallback=False",
        (
            "tests/test_separation.py::TestSeparateBoxExamples::test_not_separable_witness",
            "tests/test_relabel.py::test_box_functions_match_their_kernels_on_ranks",
        ),
    ),
    Mutant(
        "box-profile-wrong-t", "separation.py",
        "    return replace(profile, u=Point(profile.u))",
        "    return replace(profile, u=Point(profile.u), t=1)",
        "box_profile reports threshold 1",
        (
            "tests/test_separation.py::TestBoxProfile::test_worked_example",
            "tests/test_relabel.py::test_box_functions_match_their_kernels_on_ranks",
        ),
    ),
    Mutant(
        "box-semispace-drops-a-generator", "planar.py",
        "box_and_semispace(EXACT, C1.coords, C2.coords)",
        "box_and_semispace(EXACT, C1.coords, C2.coords[1:] or C2.coords)",
        "separate_box_semispace forgets the first generator of the second set",
        (
            "tests/test_planar.py::TestSeparateBoxSemispace::test_three_conditions_hold",
            "tests/test_relabel.py::test_two_set_functions_match_their_kernels_on_ranks",
        ),
    ),
    # the library code the referee must not trust
    Mutant(
        "misses-box-skips-coordinate-1", "semispaces.py",
        "        return all(u <= a for u, a in zip(upper, x0))",
        "        return all(u <= a for u, a in list(zip(upper, x0))[1:])",
        "the upper type is said to miss a box that crosses it on coordinate 1",
        ("tests/test_oracle.py::TestTwoCornerRule",),
    ),
    Mutant(
        "stage-4-sweep-fails", "separation.py",
        "        w = sweep(H, stage=4)\n", "        w = sweep(H, stage=4) or gens[0]\n",
        "the hemispace fallback never holds the set",
        ("tests/test_cli.py::TestSeparateBox::test_fallback_reaches_hemispace",),
    ),
    # one instance record and the descriptor reader
    Mutant(
        "on-ranks-corners-swapped", "serialize.py",
        "RankBox(code(inst.box[0]), code(inst.box[1]))", "RankBox(code(inst.box[1]), code(inst.box[0]))",
        "the rank instance's box has its corners swapped",
        ("tests/test_cli.py::TestSeparateBox", "tests/test_cli.py::TestVerify"),
    ),
    Mutant(
        "descriptor-keys-unchecked", "serialize.py",
        "    if unknown:\n        raise ParseError(f\"unknown {kind} descriptor fields",
        "    if False:\n        raise ParseError(f\"unknown {kind} descriptor fields",
        "a descriptor key of another type is dropped silently",
        (
            "tests/test_serialize.py::TestDescriptors::test_malformed_descriptors",
            "tests/test_cli.py::TestVerify::test_descriptor_key_of_another_type_is_refused",
            "tests/test_cli.py::TestPlot::test_descriptor_key_of_another_type_is_refused",
        ),
    ),
    # the library code the referee still shares: each is killed by worked
    # examples and differential tests, not only by byte-golden ones
    Mutant(
        "membership-threshold-inclusive", "semispaces.py",
        "    return lambda x: x[o] < tau or any(", "    return lambda x: x[o] <= tau or any(",
        "a coordinate semispace holds its own defining point",
        (
            "tests/test_semispaces.py::TestDescriptor::test_defining_point_is_never_a_member",
            "tests/test_cli.py::TestVerify::test_false_negative_refuted_by_the_recorded_hemispace_stage",
        ),
    ),
    Mutant(
        "upper-profile-strict-threshold", "separation.py",
        "if ups[p - 1] >= prefix_max[p - 1])", "if ups[p - 1] > prefix_max[p - 1])",
        "the box profile threshold skips a position whose upper bound ties the lower bounds before it",
        ("tests/test_separation.py::TestBoxProfile::test_point_box_threshold_is_leading_block",),
    ),
    Mutant(
        "greatest-under-skips-first-generator", "convex.py",
        "    if top not in lams:\n", "    if top not in lams[1:]:\n",
        "a hull point that only the first generator's full coefficient reaches is missed",
        (
            "tests/test_convex.py::TestHullMembership::test_worked_example",
            "tests/test_convex.py::TestGreatestBelow::test_worked_example",
        ),
    ),
    # the scene drawing and the JSON boundary
    Mutant(
        "scene-hull-test-negated", "svg.py",
        "            if in_hull(gens, p, top):", "            if not in_hull(gens, p, top):",
        "plot samples the grid points outside each hull",
        ("tests/test_plot_golden.py",),
    ),
    Mutant(
        "scene-certificate-box-corners-swapped", "svg.py",
        "        lower, upper = map(table.encode, corners)", "        upper, lower = map(table.encode, corners)",
        "plot draws no certificate box",
        ("tests/test_plot_golden.py",),
    ),
    Mutant(
        "loads-recursion-uncaught", "serialize.py",
        "    except RecursionError:\n        raise ParseError(\"invalid JSON: nested too deeply\") from None\n", "",
        "a document nested past the recursion limit escapes as a RecursionError",
        (
            "tests/test_serialize.py::TestInstances::test_hostile_json_is_a_parse_error",
            "tests/test_cli.py::TestHostileJson",
        ),
    ),
)

# pytest imports this plugin before it applies pythonpath, so the check runs
# at session start, once sys.path holds the copy
PROBE = '''
import os
import pytest

def pytest_sessionstart(session):
    import maxminsep
    if not os.path.abspath(maxminsep.__file__).startswith({src!r} + os.sep):
        pytest.exit("maxminsep imported from " + maxminsep.__file__, returncode=4)
'''


def apply(mutant: Mutant, src: Path) -> None:
    path = src / "maxminsep" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant | None, tests: tuple[str, ...]) -> str:
    """killed, survived, or a line that says why the mutant was not run;
    without a mutant, the tests run on an unchanged copy."""
    with tempfile.TemporaryDirectory(prefix="maxminsep-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            if mutant is not None:
                apply(mutant, src)
        except LookupError as exc:
            return f"not applied: {exc}"
        (Path(tmp) / "mutant_probe.py").write_text(PROBE.format(src=str(src)), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p", "mutant_probe",
                "--hypothesis-seed=0", "-o", f"pythonpath={src}", *tests,
            ],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    last = (done.stdout + done.stderr).strip().splitlines()[-1:] or ["no output"]
    return f"not run: pytest exit {done.returncode}: {last[0]}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    if not chosen:
        print(f"no mutant name contains any of {argv}")
        return 1
    start = time.perf_counter()
    # a test that fails on the unchanged code would kill every mutant
    baseline = run(None, tuple(dict.fromkeys(test for m in chosen for test in m.tests)))
    if baseline != "survived":
        print(f"the named tests do not pass on an unchanged copy: {baseline}")
        return 1
    bad = 0
    for mutant in chosen:
        t = time.perf_counter()
        verdict = run(mutant, mutant.tests)
        bad += verdict != "killed"
        print(f"{verdict:<9} {mutant.name} ({time.perf_counter() - t:.1f} s): {mutant.reason}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
