"""Tests of the benchmark's independent checker and input generators.

Run from the repository root with
    python3 -m unittest discover -s bench -p "test_*.py"
The worked examples are the band and planar-pair certificates that
scripts/band_separation_demo.py and scripts/planar_pairs_demo.py write.
"""
from __future__ import annotations

import copy
import random
import unittest

import checker as ck
import workloads as wl

BAND_SEMISPACE = {
    "instance": {
        "box": {"lower": ["0.2", "0.2"], "upper": ["0.8", "0.5"]},
        "dimension": 2,
        "options": {"fallback": True, "grid": 10},
        "sets": {"C": [["0.1", "0.8"]]},
    },
    "kind": "box",
    "oracle_calls": 1,
    "outcome": "semispace",
    "separator": {"type": "S0", "x0": ["0.8", "0.5"]},
    "trace": [{"candidate": {"type": "S0", "x0": ["0.8", "0.5"]}, "iteration": None,
               "position": None, "stage": 1, "witness": None}],
    "witness": None,
}

BAND_HEMISPACE = {
    "instance": {
        "box": {"lower": ["0", "0.3"], "upper": ["1", "0.5"]},
        "dimension": 2,
        "options": {"fallback": True, "grid": 10},
        "sets": {"C": [["0.4", "0.8"]]},
    },
    "kind": "box",
    "oracle_calls": 2,
    "outcome": "hemispace",
    "separator": {"M": [2], "type": "S0", "x0": ["1", "0.5"]},
    "trace": [
        {"candidate": {"i": 2, "type": "Si", "x0": ["0.3", "0.3"]}, "iteration": None,
         "position": None, "stage": 2, "witness": ["0.4", "0.8"]},
        {"candidate": {"M": [2], "type": "S0", "x0": ["1", "0.5"]}, "iteration": None,
         "position": None, "stage": 4, "witness": None},
    ],
    "witness": None,
}

PLANAR_PAIR = {
    "box": {"lower": ["0.55", "0.65"], "upper": ["0.85", "0.95"]},
    "boxed_set": 1,
    "instance": {
        "box": None,
        "dimension": 2,
        "options": {"fallback": True, "grid": 10},
        "sets": {"C1": [["0.55", "0.65"], ["0.85", "0.95"]], "C2": [["0.2", "0.3"], ["0.4", "0.2"]]},
    },
    "kind": "two-set",
    "semispace": {"i": 1, "type": "Si", "x0": ["0.55", "0.65"]},
}


def band_not_separable():
    """The hemispace band answered under --no-fallback."""
    doc = copy.deepcopy(BAND_HEMISPACE)
    doc.update(outcome="not-separable", separator=None, witness=["0.4", "0.8"], oracle_calls=1,
               trace=doc["trace"][:1])
    return doc


def instance_of(doc, den=10):
    return ck.certificate_box_instance(doc, den)


class WorkedExamples(unittest.TestCase):
    def test_band_semispace_is_valid(self):
        self.assertEqual(ck.certificate_problems(BAND_SEMISPACE, 10), [])
        self.assertEqual(ck.box_answer_problems(BAND_SEMISPACE, instance_of(BAND_SEMISPACE), True), [])

    def test_band_hemispace_is_valid(self):
        inst = instance_of(BAND_HEMISPACE)
        self.assertEqual(ck.expected_box_outcome(inst, True), ck.HEMISPACE)
        self.assertEqual(ck.box_answer_problems(BAND_HEMISPACE, inst, True), [])

    def test_band_without_fallback_is_not_separable(self):
        doc = band_not_separable()
        inst = instance_of(doc)
        self.assertFalse(ck.semispace_separable(inst))
        self.assertEqual(ck.profile_threshold(inst.lower, inst.upper), 2)
        self.assertEqual(ck.box_answer_problems(doc, inst, False, planted=True), [])

    def test_planar_pair_is_valid(self):
        inst = ck.certificate_pair_instance(PLANAR_PAIR, 20)
        self.assertFalse(ck.hulls_meet(inst.first, inst.second, 20))
        self.assertEqual(ck.two_set_answer_problems(PLANAR_PAIR, inst, True), [])


class BrokenCertificates(unittest.TestCase):
    def assertBroken(self, doc, den=10):
        self.assertNotEqual(ck.certificate_problems(doc, den), [])

    def test_separator_meeting_the_box(self):
        doc = copy.deepcopy(BAND_SEMISPACE)
        doc["separator"]["x0"] = ["0.7", "0.5"]
        self.assertBroken(doc)

    def test_separator_missing_a_generator(self):
        doc = copy.deepcopy(BAND_HEMISPACE)
        doc["separator"]["x0"] = ["1", "0.9"]
        self.assertBroken(doc)

    def test_tampered_copies_are_invalid(self):
        for doc in (BAND_SEMISPACE, BAND_HEMISPACE, band_not_separable()):
            self.assertBroken(wl.tamper(doc))
        self.assertBroken(wl.tamper(PLANAR_PAIR), 20)

    def test_witness_outside_the_hull(self):
        doc = band_not_separable()
        doc["witness"] = ["0.3", "0.8"]
        self.assertBroken(doc)

    def test_witness_for_a_separable_instance(self):
        # (0.9, 0.9) lies in the hull, dominates the lower bounds and escapes
        # only at positions up to t, yet S0 at the upper corner separates
        doc = copy.deepcopy(BAND_SEMISPACE)
        doc["instance"]["sets"]["C"] = [["0.9", "0.9"]]
        doc.update(outcome="not-separable", separator=None, witness=["0.9", "0.9"])
        self.assertEqual(ck.certificate_problems(doc, 10), ["a semispace separates the instance"])

    def test_off_grid_scalar(self):
        doc = copy.deepcopy(BAND_SEMISPACE)
        doc["separator"]["x0"] = ["0.85", "0.5"]
        self.assertBroken(doc)

    def test_two_set_box_meeting_the_other_hull(self):
        doc = copy.deepcopy(PLANAR_PAIR)
        doc["box"]["lower"] = ["0.3", "0.2"]
        self.assertBroken(doc, 20)

    def test_two_set_semispace_missing_the_other_set(self):
        doc = copy.deepcopy(PLANAR_PAIR)
        doc["semispace"]["x0"] = ["0.3", "0.65"]
        self.assertBroken(doc, 20)


class BrokenAnswers(unittest.TestCase):
    def test_wrong_outcome(self):
        doc = copy.deepcopy(band_not_separable())
        problems = ck.box_answer_problems(doc, instance_of(doc), True)
        self.assertIn("outcome 'not-separable', expected 'hemispace'", problems)

    def test_oracle_calls_must_match_the_trace(self):
        doc = copy.deepcopy(BAND_HEMISPACE)
        doc["oracle_calls"] = 4
        problems = ck.box_answer_problems(doc, instance_of(doc), True)
        self.assertTrue(any("exceed the budget" in p for p in problems))
        self.assertTrue(any("differs from the trace length" in p for p in problems))

    def test_semispace_that_is_no_family_member(self):
        doc = copy.deepcopy(BAND_SEMISPACE)
        for sep in (doc["separator"], doc["trace"][0]["candidate"]):
            sep["x0"] = ["1", "0.5"]
        problems = ck.box_answer_problems(doc, instance_of(doc), True)
        self.assertIn("the separator is no semispace of the family at its point", problems)

    def test_trace_witness_that_is_no_generator(self):
        doc = copy.deepcopy(BAND_HEMISPACE)
        doc["trace"][0]["witness"] = ["0.4", "0.7"]
        self.assertTrue(ck.box_answer_problems(doc, instance_of(doc), True))

    def test_echo_of_another_instance(self):
        inst = instance_of(BAND_SEMISPACE)
        other = ck.BoxInstance(10, inst.lower, inst.upper, ((1, 9),))
        self.assertEqual(ck.box_answer_problems(BAND_SEMISPACE, other, True),
                         ["the certificate does not echo the request instance"])

    def test_verify_report(self):
        good = {"valid": True, "grid": 10, "checks": [{"check": "a", "ok": True}]}
        self.assertEqual(ck.verify_report_problems(good, 10, True), [])
        self.assertTrue(ck.verify_report_problems(good, 10, False))
        self.assertTrue(ck.verify_report_problems(dict(good, valid=False), 10, False))


class Generators(unittest.TestCase):
    def test_generated_pairs_are_disjoint(self):
        r = random.Random(0)
        for n in (2, 5, 9):
            inst = wl.disjoint_box_instance(r, n, 2 * n, 100)
            self.assertFalse(ck.box_meets_hull(inst.lower, inst.upper, inst.gens, 100))
        for interior in (True, False):
            pair = wl.disjoint_pair(r, 100, interior)
            self.assertFalse(ck.hulls_meet(pair.first, pair.second, 100))

    def test_planted_instances_have_their_witness(self):
        r = random.Random(1)
        for n in (2, 3, 8, 16):
            for den in (4, 100):
                inst = wl.planted_instance(r, n, den)
                self.assertTrue(any(ck.is_nonseparable_witness(inst, v) for v in inst.gens))
                self.assertFalse(ck.semispace_separable(inst))

    def test_rounds_repeat_for_a_seed(self):
        first = [r.document for r in wl.build("separate", 7)]
        self.assertEqual(first, [r.document for r in wl.build("separate", 7)])
        self.assertNotEqual(first, [r.document for r in wl.build("separate", 8)])


if __name__ == "__main__":
    unittest.main()
