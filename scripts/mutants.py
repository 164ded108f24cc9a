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
        "scalar-no-exponent-bound", "core.py",
        'if abs(int(exponent.replace("_", ""))) > MAX_SCALAR_EXPONENT:', "if False:",
        "a scalar string with a huge exponent reaches Fraction, which stalls building its denominator",
        (
            "tests/test_core.py::TestAsScalar::test_rejects_oversized_strings_like_the_json_reader",
            "tests/test_core.py::TestAsScalar::test_point_parse_refuses_a_huge_exponent_at_once",
        ),
    ),
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
        "format-keeps-trailing-zeros", "serialize.py",
        '    return f"0.{p * 10**k // q:0{k}d}".rstrip("0")', '    return f"0.{p * 10**k // q:0{k}d}"',
        "a decimal scalar is written with all q.bit_length() places, 1/2 as 0.50",
        (
            "tests/test_serialize.py::TestScalarStrings::test_matches_the_counting_formatter_on_small_denominators",
            "tests/test_serialize.py::TestScalarStrings::test_canonical_format",
        ),
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
        "    return replace(profile, u=Point(profile.u), coordinate=0)",
        "box_profile names coordinate 0 whatever carries the largest lower bound",
        (
            "tests/test_separation.py::TestBoxProfile::test_worked_example",
            "tests/test_relabel.py::test_box_functions_match_their_kernels_on_ranks",
        ),
    ),
    Mutant(
        "box-one-set-skips-the-descent", "planar.py",
        "    shared = hulls_common_point(gens1, gens2, top)\n", "    shared = None\n",
        "two planar sets whose hulls meet raise ExhaustionError, not IntersectionError with a common point",
        (
            "tests/test_planar.py::TestSeparateTwoSets::test_intersecting_hulls_are_rejected",
            "tests/test_planar.py::TestSeparateTwoSets::test_intersecting_hulls_name_the_descent_point",
        ),
    ),
    Mutant(
        "descent-caps-at-the-first-hull", "convex.py",
        "        cap = g2\n", "        cap = g1\n",
        "the descent caps at its point of the first hull, so it stalls there and runs out its bound",
        (
            "tests/test_convex.py::TestHullIntersectionWitness::test_agrees_with_grid_intersection",
            "tests/test_cli.py::TestSeparateTwoSets::test_intersecting_hulls_name_the_greatest_common_point",
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
        "all(box.upper[m] <= a for m, a in above)", "all(box.upper[m] <= a for m, a in above[1:])",
        "a box that crosses the first upper clause, coordinate 1 of the upper type, is said to miss it",
        ("tests/test_oracle.py::TestTwoCornerRule",),
    ),
    Mutant(
        "clauses-watch-the-threshold-block", "semispaces.py",
        "for m, a in enumerate(x0) if a < tau]", "for m, a in enumerate(x0) if a <= tau]",
        "a coordinate semispace also holds the points above x0 on its threshold block",
        ("tests/test_semispaces.py",),
    ),
    Mutant(
        "stage-4-sweep-fails", "separation.py",
        "        w = sweep(H, stage=4)\n", "        w = sweep(H, stage=4) or gens[0]\n",
        "the hemispace fallback never holds the set",
        ("tests/test_cli.py::TestSeparateBox::test_fallback_reaches_hemispace",),
    ),
    # the lower partition in closed form, and the band rounds of separate:
    # the stage a round reads, the earlier stages' positions, and the
    # round's positions
    Mutant(
        "partition-counts-equal-bounds", "separation.py",
        "l > level", "l >= level",
        "a stage's threshold also counts the lower bounds equal to its level",
        (
            "tests/test_separation.py::TestLowerPartition::test_matches_the_restart_scan_on_small_rank_boxes",
            "tests/test_separation.py::TestBand::test_matches_the_restart_scan_on_small_rank_boxes",
            "tests/test_separation.py::TestLowerPartition::test_level_property",
        ),
    ),
    Mutant(
        "band-lookup-strict", "separation.py",
        "u >= lows[f - 1]", "u > lows[f - 1]",
        "a round skips the upper bounds equal to the lower bound at its rightmost failing position",
        (
            "tests/test_separation.py::TestBand::test_matches_the_restart_scan_on_small_rank_boxes",
            "tests/test_separation.py::TestBandRounds",
            "tests/test_oracle.py::TestExactSeparator::test_separable_iff_the_pipeline_finds_a_semispace",
        ),
    ),
    Mutant(
        "band-prior-holds-the-threshold-bound", "separation.py",
        "u if u < level else", "u if u <= level else",
        "a round's candidates also watch the coordinates of its own stage whose upper bound is its level",
        (
            "tests/test_separation.py::TestSeparateBoxProperties::test_agrees_with_brute_search",
            "tests/test_separation.py::TestBandRounds::test_candidates_match_the_sorted_construction",
        ),
    ),
    Mutant(
        "band-filter-skips-threshold", "separation.py",
        "if q >= s]", "if q > s]",
        "a round never tries the failing position at its stage's threshold",
        (
            "tests/test_separation.py::TestSeparateBoxProperties::test_trace_is_orderly",
            "tests/test_sweep_bound.py::test_semispace_spends_n_plus_1_sweeps",
        ),
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
    # the point a failed verify check names, formatted from its ranks
    Mutant(
        "sweep-formats-neighbour-rank", "verify.py",
        "format_scalar(*scale.pairs[r])", "format_scalar(*scale.pairs[r - 1])",
        "a failed check names the scalar one rank below each coordinate of its point",
        (
            "tests/test_cli.py::TestVerify::test_failed_sweep_names_its_first_point",
            "tests/test_cli.py::TestVerify::test_widened_two_set_box_names_its_failing_points",
        ),
    ),
    Mutant(
        "grid-first-returns-last", "oracle.py",
        "        for y in itertools.product(*axes):\n            if offending(y):\n                return y\n        return None\n",
        "        found = [y for y in itertools.product(*axes) if offending(y)]\n        return found[-1] if found else None\n",
        "a sweep names the last offending grid point instead of the first",
        (
            "tests/test_oracle.py::TestRankGridDifferential::test_sweeps_match_the_fraction_reference",
            "tests/test_cli.py::TestVerify::test_widened_two_set_box_names_its_failing_points",
        ),
    ),
    # the complement of a separator, the referee's one definition of a
    # semispace or hemispace, which also bounds the hull-side sweep
    Mutant(
        "semispace-complement-open-below", "oracle.py",
        "a <= c <= b for a, c, b", "a < c <= b for a, c, b",
        "the referee's semispace also holds the points on the lower faces of its complement box",
        (
            "tests/test_oracle.py::TestTwoCornerRule",
            "tests/test_oracle.py::TestExactSeparator",
            "tests/test_cli.py::TestVerify::test_hemispace_certificate_is_valid",
        ),
    ),
    Mutant(
        "outside-caps-the-block-at-tau", "oracle.py",
        "tuple(a if a < tau else top for a in x0)", "tuple(a if a <= tau else top for a in x0)",
        "the complement of a coordinate semispace stops at tau on its threshold block",
        (
            "tests/test_oracle.py::TestOutside",
            "tests/test_oracle.py::TestHullSweep::test_failing_sweep_names_the_reference_point",
        ),
    ),
    Mutant(
        "outside-hemispace-caps-every-coordinate", "oracle.py",
        "tuple(a if i in S.M else top for i, a in enumerate(x0))", "tuple(x0)",
        "the complement of a hemispace stops at x0 outside M too",
        (
            "tests/test_oracle.py::TestOutside",
            "tests/test_oracle.py::TestHullSweep::test_failing_sweep_names_the_reference_point",
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
        "upper-profile-orders-by-lower", "separation.py",
        "descending_order(box.upper)", "descending_order(box.lower)",
        "of the coordinates carrying the largest lower bound, the profile takes the first by index, not by upper bound",
        (
            "tests/test_separation.py::TestBoxProfile::test_level_ties_go_to_the_larger_upper_bound",
            "tests/test_separation.py::TestBoxProfile::test_matches_the_prefix_max_scan_on_small_rank_boxes",
        ),
    ),
    Mutant(
        "verify-threshold-strict", "verify.py",
        ">= max(box.lower)", "> max(box.lower)",
        "verify refuses a witness that escapes where the upper bound equals the largest lower bound",
        ("tests/test_cli.py::TestVerify::test_witness_may_escape_where_the_upper_bound_is_the_level",),
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
        ("tests/test_plot_scene.py::test_scene_reads_back_to_its_documents",),
    ),
    Mutant(
        "scene-certificate-box-corners-swapped", "svg.py",
        "box(map(table.encode, corners),", "box(map(table.encode, corners[::-1]),",
        "plot draws the certificate box from its upper corner to its lower one",
        ("tests/test_plot_scene.py::test_scene_reads_back_to_its_documents",),
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
    Mutant(
        "options-falsy-read-as-absent", "serialize.py",
        'raw = data["options"] if data.get("options") is not None else {}', 'raw = data.get("options") or {}',
        "an options field of [], 0, false or \"\" is read as no options",
        ("tests/test_cli.py::TestInstanceBoundary::test_falsy_options_that_are_not_an_object",),
    ),
    Mutant(
        "hemispace-entry-unchecked", "serialize.py",
        "            if not 1 <= i <= len(x0):\n", "            if False:\n",
        "an M entry outside 1..n reaches the library, which names it 0-based",
        (
            "tests/test_serialize.py::TestDescriptors::test_hemispace_entry_outside_the_dimension_names_its_wire_index",
            "tests/test_cli.py::TestVerify::test_malformed_certificate_is_an_error",
        ),
    ),
    # the plain Fraction functions that no CLI path runs
    Mutant(
        "segment-one-branch", "core.py",
        "    return branch(x, y) or branch(y, x)", "    return branch(x, y)",
        "segment_contains only tries the branch with coefficient 1 on x",
        ("tests/test_core.py::TestSegment",),
    ),
    Mutant(
        "family-keeps-upper-type-at-one", "semispaces.py",
        "    upper = [] if profile.has_one else [None]", "    upper = [None]",
        "semispace_family keeps the upper type when a coordinate is 1",
        ("tests/test_semispaces.py::TestFamily::test_case_sizes", "tests/test_cli.py::TestFamily"),
    ),
    Mutant(
        "region-t2-holds-the-diagonal", "planar.py",
        "and x < E.c[0] and y > x:", "and x < E.c[0] and y >= x:",
        "region_classify puts diagonal points above a into T2",
        ("tests/test_planar.py::TestRegionClassify",),
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
