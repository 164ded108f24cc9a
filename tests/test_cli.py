"""End-to-end command line behaviour: exit codes, JSON output, SVG output."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import maxminsep
from maxminsep import ParseError
from maxminsep.cli import build_parser, main
from maxminsep.serialize import parse_instance

SEPARABLE = {
    "dimension": 2,
    "box": {"lower": ["0.2", "0.2"], "upper": ["0.8", "0.5"]},
    "sets": {"C": [["0.1", "0.8"]]},
    "options": {"grid": 6, "fallback": True},
}

# hull sits straight above a full-width box: no semispace works, the
# hemispace fallback does
BLOCKED = {
    "dimension": 2,
    "box": {"lower": ["0", "0.3"], "upper": ["1", "0.5"]},
    "sets": {"C": [["0.4", "0.8"]]},
    "options": {"grid": 10, "fallback": True},
}

# the generator dominates the box lower bounds and escapes the upper bounds
# only inside the box profile threshold, yet the upper-type semispace at the
# upper corner of the box separates
ESCAPING = dict(SEPARABLE, sets={"C": [["0.9", "0.9"]]}, options={"grid": 10})

# off the 1/10 grid: the only separators sit at points off it, such as the
# box's upper corner (0.95, 0.5, 0.5)
OFF_GRID = {
    "dimension": 3,
    "box": {"lower": ["0.05", "0.4", "0.2"], "upper": ["0.95", "0.5", "0.5"]},
    "sets": {"C": [["0.2", "0.6", "0.6"], ["0.7", "0.8", "0.6"]]},
    "options": {"grid": 10},
}

TWO_SETS = {
    "dimension": 2,
    "box": None,
    "sets": {
        "C1": [["0.55", "0.65"], ["0.85", "0.95"]],
        "C2": [["0.2", "0.3"], ["0.4", "0.2"]],
    },
    "options": {"grid": 8, "fallback": True},
}

# hand-made certificates that verify reads up to their checks
BOX_CERT = {
    "kind": "box",
    "instance": SEPARABLE,
    "outcome": "semispace",
    "separator": {"type": "S0", "x0": ["0.8", "0.5"]},
}
TWO_SET_CERT = {
    "kind": "two-set",
    "instance": TWO_SETS,
    "boxed_set": 1,
    "box": {"lower": ["0.55", "0.65"], "upper": ["0.85", "0.95"]},
    "semispace": None,
}


def write_instance(tmp_path, data, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeparateBox:
    def test_separable_instance(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SEPARABLE)
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, ["separate-box", "-i", inst, "-o", str(out_path)])
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "box"
        assert data["outcome"] == "semispace"
        assert out_path.read_text(encoding="utf-8") == out

    def test_fallback_reaches_hemispace(self, tmp_path, capsys):
        inst = write_instance(tmp_path, BLOCKED)
        code, out, _ = run(capsys, ["separate-box", "-i", inst])
        assert code == 0
        data = json.loads(out)
        assert data["outcome"] == "hemispace"
        assert data["separator"]["M"] == [2]

    def test_no_fallback_is_a_clean_negative(self, tmp_path, capsys):
        inst = write_instance(tmp_path, BLOCKED)
        code, out, _ = run(capsys, ["separate-box", "-i", inst, "--no-fallback"])
        assert code == 2
        data = json.loads(out)
        assert data["outcome"] == "not-separable"
        assert data["witness"] == ["0.4", "0.8"]

    @pytest.mark.parametrize("command", ["separate-box", "verify"])
    def test_sets_given_as_a_list_are_rejected(self, tmp_path, capsys, command):
        bad = dict(SEPARABLE, sets=[["0.1", "0.8"]])
        document = {"kind": "box", "instance": bad} if command == "verify" else bad
        code, out, err = run(capsys, [command, "-i", write_instance(tmp_path, document)])
        assert code == 1
        assert out == ""
        assert err == "error: sets must be an object mapping names to generator lists\n"

    def test_instance_without_box_fails(self, tmp_path, capsys):
        inst = write_instance(tmp_path, {"dimension": 2, "sets": {"C": [["0.5", "0.5"]]}})
        code, _, err = run(capsys, ["separate-box", "-i", inst])
        assert code == 1
        assert "error:" in err

    def test_intersecting_instance_fails(self, tmp_path, capsys):
        bad = dict(SEPARABLE, sets={"C": [["0.5", "0.3"]]})
        inst = write_instance(tmp_path, bad)
        code, _, err = run(capsys, ["separate-box", "-i", inst])
        assert code == 1
        assert "error:" in err

    def test_coerced_json_types_are_rejected(self, tmp_path, capsys):
        for bad in (
            dict(BLOCKED, options={"fallback": "false"}),
            {"dimension": True, "box": {"lower": ["0.2"], "upper": ["0.5"]}, "sets": {"C": [["0.8"]]}},
        ):
            inst = write_instance(tmp_path, bad)
            code, out, err = run(capsys, ["separate-box", "-i", inst])
            assert code == 1
            assert out == ""
            assert err.startswith("error:")

    def test_float_coordinates_are_rejected(self, tmp_path, capsys):
        bad = dict(SEPARABLE, sets={"C": [[0.1, 0.8]]})
        inst = write_instance(tmp_path, bad)
        code, _, err = run(capsys, ["separate-box", "-i", inst])
        assert code == 1
        assert "error:" in err


class TestInstanceBoundary:
    """Instance documents the subcommands refuse before any work: exit 1,
    one error line, nothing on stdout."""

    @pytest.mark.parametrize("options", [[], 0, False, ""], ids=["list", "zero", "false", "empty-string"])
    def test_falsy_options_that_are_not_an_object(self, tmp_path, capsys, options):
        inst = write_instance(tmp_path, dict(SEPARABLE, options=options))
        assert run(capsys, ["separate-box", "-i", inst]) == (1, "", "error: options must be an object\n")

    def test_null_options_mean_the_defaults(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["separate-box", "-i", write_instance(tmp_path, dict(SEPARABLE, options=None))])
        assert code == 0
        assert json.loads(out)["instance"]["options"] == {"fallback": True, "grid": 10}

    @pytest.mark.parametrize("command", ["separate-box", "check-cond"])
    def test_instance_without_a_set(self, tmp_path, capsys, command):
        inst = write_instance(tmp_path, dict(SEPARABLE, sets={}))
        assert run(capsys, [command, "-i", inst]) == (1, "", "error: the instance defines no generated set\n")

    def test_two_set_separation_of_one_set(self, tmp_path, capsys):
        inst = write_instance(tmp_path, dict(TWO_SETS, sets={"C1": TWO_SETS["sets"]["C1"]}))
        assert run(capsys, ["separate-2d", "-i", inst]) == (
            1, "", "error: two generated sets are required, in document order\n"
        )

    def test_instance_that_is_not_an_object(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [])
        assert run(capsys, ["separate-box", "-i", inst]) == (1, "", "error: instance must be a JSON object\n")

    @pytest.mark.parametrize(
        "instance",
        [
            dict(SEPARABLE, box={"lower": ["0.2"], "upper": ["0.8", "0.5"]}),
            dict(SEPARABLE, sets={"C": [["0.1"], ["0.1", "0.8"]]}),
        ],
        ids=["box", "set"],
    )
    def test_mixed_dimensions(self, tmp_path, capsys, instance):
        inst = write_instance(tmp_path, instance)
        assert run(capsys, ["separate-box", "-i", inst]) == (1, "", "error: mixed dimensions: [1, 2]\n")

    def test_check_cond_without_a_box(self, tmp_path, capsys):
        inst = write_instance(tmp_path, dict(SEPARABLE, box=None))
        assert run(capsys, ["check-cond", "-i", inst]) == (1, "", "error: check-cond needs a box in the instance\n")


class TestScalarDedupe:
    """Each distinct scalar string of an instance is parsed once and values
    share a rank; every check of the scalar parser still applies."""

    def test_equal_values_share_a_rank_and_print_canonically(self, tmp_path, capsys):
        doc = {
            "dimension": 2,
            "box": {"lower": ["0.1", "0.1"], "upper": ["0.5", "1/2"]},
            "sets": {"C": [["0.50", "0.9"], ["1/2", "0.95"]]},
        }
        path = write_instance(tmp_path, doc)
        inst = parse_instance(Path(path).read_text(encoding="utf-8"))
        assert inst.box.upper[0] == inst.box.upper[1] == inst.sets["C"][0][0] == inst.sets["C"][1][0]
        assert [Fraction(*nd) for nd in inst.scale.pairs] == list(map(Fraction, ("0", "0.1", "0.5", "0.9", "0.95", "1")))
        code, out, _ = run(capsys, ["separate-box", "-i", path])
        assert code == 0
        data = json.loads(out)
        assert data["instance"]["box"]["upper"] == ["0.5", "0.5"]
        assert [v[0] for v in data["instance"]["sets"]["C"]] == ["0.5", "0.5"]
        assert data["separator"] == {"type": "S0", "x0": ["0.5", "0.5"]}

    @pytest.mark.parametrize(
        "gens",
        [
            [["0." + "1" * 300, "0.9"]] * 40,
            [["0.5", "0.9"], [0.5, "0.9"]],
            [["1", "0.9"], [1, "0.9"]],
            [["0.5", "0.9"], [True, "0.9"]],
            [["0.5", "0.9"], [["0.5"], "0.9"]],
            [["1.5", "0.9"]] * 3,
            [["0.5", "0.9"], ["3/2", "0.9"]],
            [["-0.1", "0.9"], ["-0.1", "0.9"]],
        ],
        ids=["301-digits", "float", "int", "bool", "list", "above-1", "fraction-above-1", "negative"],
    )
    def test_rejected_scalars_stay_parse_errors(self, tmp_path, capsys, gens):
        code, out, err = run(capsys, ["separate-box", "-i", write_instance(tmp_path, dict(SEPARABLE, sets={"C": gens}))])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        with pytest.raises(ParseError):
            parse_instance(json.dumps(dict(SEPARABLE, sets={"C": gens})))


class TestSeparateTwoSets:
    def test_box_certificate(self, tmp_path, capsys):
        inst = write_instance(tmp_path, TWO_SETS)
        code, out, _ = run(capsys, ["separate-2d", "-i", inst])
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "two-set"
        assert data["boxed_set"] == 1
        assert data["semispace"] is None

    def test_with_semispace(self, tmp_path, capsys):
        inst = write_instance(tmp_path, TWO_SETS)
        code, out, _ = run(capsys, ["separate-2d", "-i", inst, "--with-semispace"])
        assert code == 0
        data = json.loads(out)
        assert data["semispace"] is not None

    def test_set_names_are_escaped(self, tmp_path, capsys):
        # set names are the user's and come back in the certificate's keys
        sets = dict(zip(['C"1', "Ω"], TWO_SETS["sets"].values()))
        code, out, _ = run(capsys, ["separate-2d", "-i", write_instance(tmp_path, dict(TWO_SETS, sets=sets))])
        assert code == 0
        data = json.loads(out)
        assert list(data["instance"]["sets"]) == ['C"1', "Ω"]
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert '"C\\"1": [' in out and '"\\u03a9": [' in out

    def test_boundary_generators_fail_with_semispace(self, tmp_path, capsys):
        bad = dict(TWO_SETS, sets={"C1": [["0", "0.5"]], "C2": [["0.8", "0.2"]]})
        inst = write_instance(tmp_path, bad)
        code, _, err = run(capsys, ["separate-2d", "-i", inst, "--with-semispace"])
        assert code == 1
        assert "error:" in err

    def test_intersecting_hulls_name_the_greatest_common_point(self, tmp_path, capsys):
        # (0.2, 0.2) generates both hulls, but the hulls also share every
        # diagonal point up to (0.4, 0.4), which is the point named
        sets = {"C1": [["0.2", "0.2"], ["0.8", "0.8"]], "C2": [["0.2", "0.2"], ["0.6", "0.4"]]}
        inst = write_instance(tmp_path, dict(TWO_SETS, sets=sets))
        assert run(capsys, ["separate-2d", "-i", inst]) == (1, "", "error: the hulls share the point (2/5, 2/5)\n")


class TestFamily:
    def test_interior_point_gets_dimension_plus_one(self, capsys):
        code, out, _ = run(capsys, ["family", "-p", "0.6,0.3"])
        assert code == 0
        data = json.loads(out)
        assert data["x0"] == ["0.6", "0.3"]
        assert len(data["family"]) == 3
        assert data["family"][0]["type"] == "S0"

    def test_point_with_a_one_drops_s0(self, capsys):
        code, out, _ = run(capsys, ["family", "-p", "1,0.5"])
        assert code == 0
        data = json.loads(out)
        assert len(data["family"]) == 2
        assert all(entry["type"] == "Si" for entry in data["family"])

    def test_bad_coordinate(self, capsys):
        code, _, err = run(capsys, ["family", "-p", "0.5,1.5"])
        assert code == 1
        assert "error:" in err


class TestCheckCond:
    def test_condition_holds(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SEPARABLE)
        code, out, _ = run(capsys, ["check-cond", "-i", inst])
        assert code == 0
        assert json.loads(out) == {"holds": True, "witness": None}

    def test_condition_violated(self, tmp_path, capsys):
        inst = write_instance(tmp_path, BLOCKED)
        code, out, _ = run(capsys, ["check-cond", "-i", inst])
        assert code == 2
        data = json.loads(out)
        assert data["holds"] is False
        assert data["witness"] == ["0.4", "0.8"]

    def test_dominating_generator_does_not_block(self, tmp_path, capsys):
        inst = write_instance(tmp_path, ESCAPING)
        code, out, _ = run(capsys, ["separate-box", "-i", inst])
        assert code == 0
        data = json.loads(out)
        assert data["outcome"] == "semispace"
        assert data["separator"] == {"type": "S0", "x0": ["0.8", "0.5"]}
        code, out, _ = run(capsys, ["check-cond", "-i", inst])
        assert code == 0
        assert json.loads(out) == {"holds": True, "witness": None}


class TestVerify:
    def emit_certificate(self, tmp_path, capsys, instance, extra=()):
        inst = write_instance(tmp_path, instance)
        cert_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, ["separate-box", "-i", inst, "-o", str(cert_path), *extra]
        )
        return code, cert_path

    def test_semispace_certificate_is_valid(self, tmp_path, capsys):
        _, cert_path = self.emit_certificate(tmp_path, capsys, SEPARABLE)
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["grid"] == 6
        assert all(c["ok"] for c in data["checks"])

    def test_hemispace_certificate_is_valid(self, tmp_path, capsys):
        _, cert_path = self.emit_certificate(tmp_path, capsys, BLOCKED)
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path), "--grid", "8"])
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["grid"] == 8

    def test_negative_certificate_is_valid(self, tmp_path, capsys):
        code, cert_path = self.emit_certificate(
            tmp_path, capsys, BLOCKED, extra=["--no-fallback"]
        )
        assert code == 2
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path), "--grid", "10"])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_tampered_certificate_is_invalid(self, tmp_path, capsys):
        _, cert_path = self.emit_certificate(tmp_path, capsys, SEPARABLE)
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        data["separator"]["x0"] = ["0.9", "0.9"]
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert any(not c["ok"] for c in report["checks"])

    def test_false_negative_certificate_is_invalid(self, tmp_path, capsys):
        # the witness passes its three checks; only the grid search sees
        # that a semispace separates
        _, cert_path = self.emit_certificate(tmp_path, capsys, ESCAPING)
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        data.update(outcome="not-separable", separator=None, witness=["0.9", "0.9"])
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        failed = [c["check"] for c in report["checks"] if not c["ok"]]
        assert failed == ["no grid semispace separates"]

    @pytest.mark.parametrize("grid", [[], ["--grid", "20"]])
    def test_false_negative_off_the_grid_is_invalid(self, tmp_path, capsys, grid):
        code, cert_path = self.emit_certificate(tmp_path, capsys, OFF_GRID, extra=["--no-fallback"])
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        assert code == 0
        assert data["outcome"] == "semispace"
        assert data["separator"] == {"type": "S0", "x0": ["0.95", "0.5", "0.5"]}
        data.update(outcome="not-separable", separator=None, witness=["0.2", "0.6", "0.6"])
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path), *grid])
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [
            {"check": "no grid semispace separates", "ok": False, "point": ["0.95", "0.5", "0.5"]}
        ]

    def test_boxed_set_must_be_an_integer(self, tmp_path, capsys):
        inst = write_instance(tmp_path, TWO_SETS)
        cert_path = tmp_path / "cert.json"
        run(capsys, ["separate-2d", "-i", inst, "-o", str(cert_path)])
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        data["boxed_set"] = True
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_two_set_certificate_verifies(self, tmp_path, capsys):
        inst = write_instance(tmp_path, TWO_SETS)
        cert_path = tmp_path / "cert.json"
        run(capsys, ["separate-2d", "-i", inst, "--with-semispace", "-o", str(cert_path)])
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_certificate_without_instance(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"kind": "box", "outcome": "semispace"}))
        code, _, err = run(capsys, ["verify", "-i", str(path)])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("text", ["[1, 2]", '"cert"', "null", "{"])
    def test_certificate_that_is_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "cert.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["verify", "-i", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        args = build_parser().parse_args(["verify", "-i", str(path)])
        with pytest.raises(ParseError):
            args.handler(args)

    @pytest.mark.parametrize(
        "instance, command, key, value, dims",
        [
            (SEPARABLE, ["separate-box"], "separator", {"type": "Si", "x0": ["0.5", "0.5", "0.5"], "i": 3}, [2, 3]),
            (SEPARABLE, ["separate-box"], "separator", {"type": "S0", "x0": ["0.9"]}, [1, 2]),
            (BLOCKED, ["separate-box"], "separator", {"type": "S0", "x0": ["0.5", "0.5", "0.5"], "M": [3]}, [2, 3]),
            (BLOCKED, ["separate-box", "--no-fallback"], "witness", ["0.4", "0.8", "0.1"], [2, 3]),
            (TWO_SETS, ["separate-2d", "--with-semispace"], "semispace",
             {"type": "Si", "x0": ["0.5", "0.5", "0.5"], "i": 3}, [2, 3]),
            (TWO_SETS, ["separate-2d"], "box", {"lower": ["0.1"], "upper": ["0.3"]}, [1, 2]),
            (TWO_SETS, ["separate-2d"], "box", {"lower": ["0.1"] * 3, "upper": ["0.3"] * 3}, [2, 3]),
        ],
    )
    def test_certificate_point_of_the_wrong_dimension(self, tmp_path, capsys, instance, command, key, value, dims):
        inst = write_instance(tmp_path, instance)
        cert_path = tmp_path / "cert.json"
        run(capsys, [*command, "-i", inst, "-o", str(cert_path)])
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        data[key] = value
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        assert run(capsys, ["verify", "-i", str(cert_path)]) == (1, "", f"error: mixed dimensions: {dims}\n")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["verify", "-i", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "instance, command, key",
        [
            (SEPARABLE, ["separate-box"], "separator"),
            (BLOCKED, ["separate-box"], "separator"),
            (BLOCKED, ["separate-box", "--no-fallback"], "witness"),
            (TWO_SETS, ["separate-2d"], "box"),
        ],
    )
    def test_certificate_without_its_answer(self, tmp_path, capsys, instance, command, key):
        inst = write_instance(tmp_path, instance)
        cert_path = tmp_path / "cert.json"
        run(capsys, [*command, "-i", inst, "-o", str(cert_path)])
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        del data[key]
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 1
        assert out == ""
        assert err == f"error: certificate lacks its {key!r} field\n"

    def test_passing_checks_name_no_point(self, tmp_path, capsys):
        _, cert_path = self.emit_certificate(tmp_path, capsys, SEPARABLE)
        _, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert all(set(c) == {"check", "ok"} for c in json.loads(out)["checks"])

    def test_failed_sweep_names_its_first_point(self, tmp_path, capsys):
        # the upper-type semispace at the lower box corner holds every box
        # point; the first grid point of the box, (1/3, 1/3), is reported
        _, cert_path = self.emit_certificate(tmp_path, capsys, SEPARABLE)
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        data["separator"]["x0"] = ["0.2", "0.2"]
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"check": "set inside separator", "ok": True},
            {"check": "separator misses box", "ok": False},
            {"check": "grid hull points inside separator", "ok": True},
            {"check": "no grid box point inside separator", "ok": False, "point": ["1/3", "1/3"]},
        ]

    def test_failed_hull_sweep_names_a_hull_point(self, tmp_path, capsys):
        _, cert_path = self.emit_certificate(tmp_path, capsys, ESCAPING)
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        data["separator"]["x0"] = ["0.9", "0.9"]
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 1
        failed = {c["check"]: c.get("point") for c in json.loads(out)["checks"] if not c["ok"]}
        assert failed == {
            "set inside separator": None,
            "grid hull points inside separator": ["0.9", "0.9"],
        }

    def test_false_negative_names_the_separator_point(self, tmp_path, capsys):
        _, cert_path = self.emit_certificate(tmp_path, capsys, ESCAPING)
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        data.update(outcome="not-separable", separator=None, witness=["0.9", "0.9"])
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        _, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        last = json.loads(out)["checks"][-1]
        assert last["check"] == "no grid semispace separates"
        assert last["point"] == ["0.8", "0.5"]

    def test_widened_two_set_box_names_its_failing_points(self, tmp_path, capsys):
        # the box of C1 widened to lower corner (0.15, 0.25) holds C2's hull,
        # whose first grid point in the box is the generator (0.2, 0.3), and
        # meets the semispace y_1 < 0.55 first at that corner
        inst = write_instance(tmp_path, TWO_SETS)
        cert_path = tmp_path / "cert.json"
        run(capsys, ["separate-2d", "-i", inst, "--with-semispace", "-o", str(cert_path)])
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        assert data["box"] == {"lower": ["0.55", "0.65"], "upper": ["0.85", "0.95"]}
        assert data["semispace"] == {"type": "Si", "x0": ["0.55", "0.65"], "i": 1}
        data["box"]["lower"] = ["0.15", "0.25"]
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path), "--grid", "20"])
        assert code == 1
        failed = {c["check"]: c.get("point") for c in json.loads(out)["checks"] if not c["ok"]}
        assert failed == {
            "box misses the other hull": None,
            "no grid point of the other hull in the box": ["0.2", "0.3"],
            "semispace misses the box": None,
            "no grid box point inside semispace": ["0.15", "0.25"],
        }

    def test_seven_dimensions_hit_the_grid_guard_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        from types import SimpleNamespace
        from maxminsep import oracle

        instance = {
            "dimension": 7,
            "box": {"lower": ["0.2"] * 7, "upper": ["0.5"] * 7},
            "sets": {"C": [["0.1"] * 6 + ["0.8"]]},
            "options": {"grid": 10},
        }
        inst = write_instance(tmp_path, instance)
        cert_path = tmp_path / "cert.json"
        assert run(capsys, ["separate-box", "-i", inst, "-o", str(cert_path)])[0] == 0

        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("the grid was enumerated")

        monkeypatch.setattr(oracle, "itertools", SimpleNamespace(product=enumerate_nothing))
        code, out, err = run(capsys, ["verify", "-i", str(cert_path), "--grid", "10"])
        assert code == 1
        assert out == ""
        assert err == "error: grid holds 19487171 points, above the 2000000 bound\n"


    def test_seven_dimensions_not_separable_verifies_without_the_grid(self, tmp_path, capsys, monkeypatch):
        from types import SimpleNamespace
        from maxminsep import oracle

        instance = {
            "dimension": 7,
            "box": {"lower": ["0"] + ["0.3"] * 6, "upper": ["1"] + ["0.5"] * 6},
            "sets": {"C": [["0.4"] + ["0.8"] * 6]},
            "options": {"grid": 10},
        }
        inst = write_instance(tmp_path, instance)
        cert_path = tmp_path / "cert.json"
        assert run(capsys, ["separate-box", "-i", inst, "-o", str(cert_path), "--no-fallback"])[0] == 2

        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("the grid was enumerated")

        monkeypatch.setattr(oracle, "itertools", SimpleNamespace(product=enumerate_nothing))
        code, out, err = run(capsys, ["verify", "-i", str(cert_path), "--grid", "10"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["valid"] is True
        assert [c["check"] for c in report["checks"]] == [
            "witness in hull",
            "witness dominates box lower bounds",
            "witness escapes inside the profile threshold",
            "no grid semispace separates",
        ]

    def test_false_negative_refuted_by_the_recorded_hemispace_stage(self, tmp_path, capsys, monkeypatch):
        # a library whose hemispace sweep always fails answers not-separable
        # after stages 2 and 4, although the hemispace at (1/2, 1) with
        # M = {1} holds every generator and misses the box
        from maxminsep import HemispaceDescriptor, separation

        real = separation.first_outside
        instance = {
            "dimension": 2,
            "box": {"lower": ["2/5", "2/5"], "upper": ["1/2", "1"]},
            "sets": {"C": [["9/10", "1/10"], ["9/10", "0"], ["7/10", "2/5"]]},
            "options": {"grid": 10, "fallback": True},
        }
        with monkeypatch.context() as patched:
            patched.setattr(
                separation, "first_outside",
                lambda gens, S: gens[0] if isinstance(S, HemispaceDescriptor) else real(gens, S),
            )
            code, cert_path = self.emit_certificate(tmp_path, capsys, instance)
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        assert (code, data["outcome"]) == (2, "not-separable")
        assert [e["stage"] for e in data["trace"]] == [2, 4]
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [{"check": "no grid semispace separates", "ok": False, "point": ["0.5", "1"]}]

    def test_witness_may_escape_where_the_upper_bound_is_the_level(self, tmp_path, capsys):
        # the witness (0.5, 1) escapes at coordinate 2, whose upper bound
        # 0.75 equals the largest lower bound
        instance = {
            "dimension": 2,
            "box": {"lower": ["0.5", "0.75"], "upper": ["1", "0.75"]},
            "sets": {"C": [["0.5", "1"]]},
        }
        code, cert_path = self.emit_certificate(tmp_path, capsys, instance, extra=["--no-fallback"])
        assert code == 2
        assert json.loads(cert_path.read_text(encoding="utf-8"))["witness"] == ["0.5", "1"]
        code, out, _ = run(capsys, ["verify", "-i", str(cert_path)])
        assert code == 0
        assert all(c["ok"] for c in json.loads(out)["checks"])

    def with_trace(self, tmp_path, capsys, edit):
        """The --no-fallback certificate of BLOCKED, its trace edited in place."""
        _, cert_path = self.emit_certificate(tmp_path, capsys, BLOCKED, extra=["--no-fallback"])
        data = json.loads(cert_path.read_text(encoding="utf-8"))
        edit(data)
        cert_path.write_text(json.dumps(data), encoding="utf-8")
        return run(capsys, ["verify", "-i", str(cert_path)])

    def test_an_added_stage_4_entry_asks_for_the_fallback_hemispace(self, tmp_path, capsys):
        code, out, _ = self.with_trace(tmp_path, capsys, lambda data: data["trace"].append({"stage": 4}))
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [{"check": "no grid semispace separates", "ok": False, "point": ["1", "0.5"]}]

    @pytest.mark.parametrize("stage", [4.0, "4", True, None])
    def test_trace_stage_must_be_a_json_integer(self, tmp_path, capsys, stage):
        edit = lambda data: data["trace"].append({"stage": stage})
        expected = f"error: trace stage must be a JSON integer, got {stage!r}\n"
        assert self.with_trace(tmp_path, capsys, edit) == (1, "", expected)

    @pytest.mark.parametrize("trace", [{"stage": 4}, "4", [4], [{"stage": 2}, [{"stage": 4}]]])
    def test_trace_must_be_a_list_of_objects(self, tmp_path, capsys, trace):
        edit = lambda data: data.update(trace=trace)
        expected = "error: certificate trace must be a list of objects\n"
        assert self.with_trace(tmp_path, capsys, edit) == (1, "", expected)

    @pytest.mark.parametrize("edit", [lambda data: data.update(trace=None), lambda data: data.pop("trace")])
    def test_null_or_missing_trace_records_no_stage(self, tmp_path, capsys, edit):
        code, out, _ = self.with_trace(tmp_path, capsys, edit)
        assert code == 0 and json.loads(out)["valid"] is True

    @pytest.mark.parametrize("instance, extra", [(BLOCKED, ["--no-fallback"]), (SEPARABLE, [])])
    def test_grid_is_validated_on_both_paths(self, tmp_path, capsys, instance, extra):
        _, cert_path = self.emit_certificate(tmp_path, capsys, instance, extra=extra)
        assert run(capsys, ["verify", "-i", str(cert_path), "--grid", "-3"]) == (
            1, "", "error: grid denominator must be a positive integer\n"
        )

    @pytest.mark.parametrize("instance, extra", [(BLOCKED, ["--no-fallback"]), (SEPARABLE, [])])
    def test_grid_zero_is_refused_not_read_as_the_instance_grid(self, tmp_path, capsys, instance, extra):
        _, cert_path = self.emit_certificate(tmp_path, capsys, instance, extra=extra)
        assert run(capsys, ["verify", "-i", str(cert_path), "--grid", "0"]) == (
            1, "", "error: grid denominator must be a positive integer\n"
        )

    def test_grid_too_large_to_print_is_refused_by_its_size(self, tmp_path, capsys):
        # (10**11 + 1) ** 400 and (10**2200 + 1) ** 2 have more digits than
        # Python turns into a string
        n = 400
        instance = {
            "dimension": n,
            "box": {"lower": ["0.2"] * n, "upper": ["0.5"] * n},
            "sets": {"C": [["0.1"] * (n - 1) + ["0.8"]]},
            "options": {"grid": 10**11},
        }
        code, cert_path = self.emit_certificate(tmp_path, capsys, instance)
        assert code == 0
        assert run(capsys, ["verify", "-i", str(cert_path)]) == (
            1, "", "error: grid holds (100000000000+1)^400 points, above the 2000000 bound\n"
        )
        cert_path = tmp_path / "two-set.json"
        assert run(capsys, ["separate-2d", "-i", write_instance(tmp_path, TWO_SETS), "-o", str(cert_path)])[0] == 0
        assert run(capsys, ["verify", "-i", str(cert_path), "--grid", str(10**2200)]) == (
            1, "", f"error: grid holds ({10**2200}+1)^2 points, above the 2000000 bound\n"
        )

    def test_huge_certificate_grid_is_refused_before_it_is_numbered(self, tmp_path, capsys, monkeypatch):
        from maxminsep import oracle

        _, cert_path = self.emit_certificate(tmp_path, capsys, dict(SEPARABLE, options={"grid": 10**11}))
        monkeypatch.setattr(oracle, "gcd", lambda *args: pytest.fail("a grid value was numbered"))
        assert run(capsys, ["verify", "-i", str(cert_path)]) == (
            1, "", f"error: grid holds {(10**11 + 1) ** 2} points, above the 2000000 bound\n"
        )

    def test_huge_certificate_grid_is_not_numbered_for_a_not_separable_claim(self, tmp_path, capsys, monkeypatch):
        from maxminsep import oracle

        instance = dict(BLOCKED, options={"grid": 10**11, "fallback": True})
        _, cert_path = self.emit_certificate(tmp_path, capsys, instance, extra=["--no-fallback"])
        _, expected, _ = run(capsys, ["verify", "-i", str(cert_path), "--grid", "10"])
        monkeypatch.setattr(oracle, "gcd", lambda *args: pytest.fail("a grid value was numbered"))
        code, out, err = run(capsys, ["verify", "-i", str(cert_path)])
        assert (code, err) == (0, "")
        assert json.loads(out) == dict(json.loads(expected), grid=10**11)

    @pytest.mark.parametrize(
        "certificate, error",
        [
            (dict(BOX_CERT, separator={"type": "S0", "x0": ["0.8", "0.5"], "M": [1]}),
             "semispace outcome carries a hemispace descriptor"),
            (dict(BOX_CERT, outcome="hemispace"), "hemispace outcome carries a semispace descriptor"),
            (dict(BOX_CERT, outcome="maybe"), "unknown certificate outcome 'maybe'"),
            (dict(BOX_CERT, kind="triangle"), "unknown certificate kind 'triangle'"),
            (dict(BOX_CERT, instance=TWO_SETS), "certificate instance lacks a box"),
            (dict(TWO_SET_CERT, boxed_set=3), "two-set certificate needs boxed_set 1 or 2"),
            (dict(TWO_SET_CERT, semispace={"type": "S0", "x0": ["0.5", "0.5"], "M": [1, 2]}),
             "two-set certificates carry plain semispaces"),
            ({"kind": "box", "outcome": "not-separable", "witness": ["0.5", "0.5"], "instance": {
                "dimension": 2,
                "box": {"lower": ["0.2", "0.2"], "upper": ["0.6", "0.6"]},
                "sets": {"C": [["0.5", "0.5"], ["0.9", "0.1"]]},
            }}, "box and hull share the point (3/5, 1/2)"),
            # a hemispace entry is named by its 1-based wire index
            (dict(BOX_CERT, outcome="hemispace", separator={"type": "S0", "x0": ["0.8", "0.5"], "M": [0]}),
             "M entry 0 outside 1..2"),
            (dict(BOX_CERT, outcome="hemispace", separator={"type": "S0", "x0": ["0.8", "0.5"], "M": [2, 3]}),
             "M entry 3 outside 1..2"),
        ],
    )
    def test_malformed_certificate_is_an_error(self, tmp_path, capsys, certificate, error):
        path = write_instance(tmp_path, certificate, "cert.json")
        assert run(capsys, ["verify", "-i", path]) == (1, "", f"error: {error}\n")

    def test_descriptor_key_of_another_type_is_refused(self, tmp_path, capsys):
        # an S0 separator read as the upper type would drop its i
        certificate = dict(BOX_CERT, separator={"type": "S0", "x0": ["0.8", "0.5"], "i": 2})
        path = write_instance(tmp_path, certificate, "cert.json")
        assert run(capsys, ["verify", "-i", path]) == (1, "", "error: unknown S0 descriptor fields: ['i']\n")

    def test_referee_does_not_trust_misses_box(self, tmp_path, capsys, monkeypatch):
        # a library whose misses_box skips coordinate 1 for the upper type
        # would pass this separator: the box point (0.15, 0.1) lies in it,
        # but the only grid point of the box, (0.1, 0.1), does not
        from maxminsep import SemispaceDescriptor, semispaces

        real = semispaces.misses_box

        def skips_coordinate_1(S, box):
            if isinstance(S, SemispaceDescriptor) and S.coordinate is None:
                return all(u <= a for i, (u, a) in enumerate(zip(box.upper, S.x0)) if i != 0)
            return real(S, box)

        monkeypatch.setattr(semispaces, "misses_box", skips_coordinate_1)
        certificate = {
            "kind": "box",
            "outcome": "semispace",
            "separator": {"type": "S0", "x0": ["0.12", "0.5"]},
            "instance": {
                "dimension": 2,
                "box": {"lower": ["0.05", "0.05"], "upper": ["0.15", "0.15"]},
                "sets": {"C": [["0.9", "0.9"]]},
            },
        }
        code, out, _ = run(capsys, ["verify", "-i", write_instance(tmp_path, certificate, "cert.json")])
        assert code == 1
        assert {c["check"]: c["ok"] for c in json.loads(out)["checks"]} == {
            "set inside separator": True,
            "separator misses box": False,
            "grid hull points inside separator": True,
            "no grid box point inside separator": True,
        }


class TestPlot:
    def test_writes_svg(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SEPARABLE)
        out_path = tmp_path / "scene.svg"
        code, out, _ = run(capsys, ["plot", "-i", inst, "-o", str(out_path)])
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert str(out_path) in out

    def test_certificate_overlay(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SEPARABLE)
        cert_path = tmp_path / "cert.json"
        run(capsys, ["separate-box", "-i", inst, "-o", str(cert_path)])
        out_path = tmp_path / "scene.svg"
        code, _, _ = run(
            capsys, ["plot", "-i", inst, "-c", str(cert_path), "-o", str(out_path)]
        )
        assert code == 0
        assert "<svg" in out_path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("text", ["[1, 2]", '"cert"', "null", "{"])
    def test_certificate_that_is_not_an_object(self, tmp_path, capsys, text):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(text, encoding="utf-8")
        argv = ["plot", "-i", write_instance(tmp_path, SEPARABLE), "-c", str(cert_path), "-o", str(tmp_path / "x.svg")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        args = build_parser().parse_args(argv)
        with pytest.raises(ParseError):
            args.handler(args)

    @pytest.mark.parametrize(
        "key, value, dims",
        [
            ("box", {"lower": ["0.1"], "upper": ["0.3"]}, [1, 2]),
            ("box", {"lower": ["0.1"] * 3, "upper": ["0.3"] * 3}, [2, 3]),
            ("separator", {"type": "S0", "x0": ["0.5", "0.5", "0.5"]}, [2, 3]),
            ("semispace", {"type": "Si", "x0": ["0.5", "0.5", "0.5"], "i": 3}, [2, 3]),
        ],
    )
    def test_certificate_point_of_the_wrong_dimension(self, tmp_path, capsys, key, value, dims):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({key: value}), encoding="utf-8")
        out_path = tmp_path / "x.svg"
        argv = ["plot", "-i", write_instance(tmp_path, SEPARABLE), "-c", str(cert_path), "-o", str(out_path)]
        assert run(capsys, argv) == (1, "", f"error: mixed dimensions: {dims}\n")
        assert not out_path.exists()

    def test_descriptor_key_of_another_type_is_refused(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        separator = {"type": "Si", "x0": ["0.8", "0.5"], "i": 1, "M": [1], "extra": 1}
        cert_path.write_text(json.dumps({"separator": separator}), encoding="utf-8")
        out_path = tmp_path / "x.svg"
        argv = ["plot", "-i", write_instance(tmp_path, SEPARABLE), "-c", str(cert_path), "-o", str(out_path)]
        assert run(capsys, argv) == (1, "", "error: unknown Si descriptor fields: ['M', 'extra']\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_must_be_positive(self, tmp_path, capsys, grid):
        out_path = tmp_path / "x.svg"
        argv = ["plot", "-i", write_instance(tmp_path, SEPARABLE), "-o", str(out_path), "--grid", grid]
        assert run(capsys, argv) == (1, "", "error: grid denominator must be a positive integer\n")
        assert not out_path.exists()

    def test_certificate_file_is_read_before_the_instance_is_checked(self, tmp_path, capsys):
        # both documents are loaded before either is read, so a missing
        # certificate is reported before the instance's bad dimension
        inst = write_instance(tmp_path, dict(SEPARABLE, dimension=0))
        missing = tmp_path / "missing.json"
        argv = ["plot", "-i", inst, "-c", str(missing), "-o", str(tmp_path / "x.svg")]
        assert run(capsys, argv) == (1, "", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
        assert run(capsys, argv[:3] + argv[5:]) == (1, "", "error: dimension must be positive\n")

    def test_rejects_non_planar_instances(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path,
            {"dimension": 3, "sets": {"C": [["0.2", "0.5", "0.4"]]}},
        )
        code, _, err = run(capsys, ["plot", "-i", inst, "-o", str(tmp_path / "x.svg")])
        assert code == 1
        assert "error:" in err


class TestHostileJson:
    """Nesting past the recursion limit and integers past int()'s digit
    limit are refused as invalid JSON, exit 1, by every reading subcommand."""

    DEEP = "[" * 100_000
    LONG = json.dumps(SEPARABLE).replace('"grid": 6', '"grid": ' + "9" * 5000)
    LONG_ERROR = (
        "error: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit\n"
    )

    @pytest.mark.parametrize("command", ["separate-box", "verify", "plot"])
    @pytest.mark.parametrize("kind", ["deep", "long"])
    def test_refused_with_one_error_line(self, tmp_path, capsys, command, kind):
        path = tmp_path / "doc.json"
        path.write_text(self.DEEP if kind == "deep" else self.LONG, encoding="utf-8")
        argv = [command, "-i", str(path)] + (["-o", str(tmp_path / "x.svg")] if command == "plot" else [])
        error = "error: invalid JSON: nested too deeply\n" if kind == "deep" else self.LONG_ERROR
        assert run(capsys, argv) == (1, "", error)

    def test_deep_certificate_of_plot(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(self.DEEP, encoding="utf-8")
        argv = ["plot", "-i", write_instance(tmp_path, SEPARABLE), "-c", str(cert_path), "-o", str(tmp_path / "x.svg")]
        assert run(capsys, argv) == (1, "", "error: invalid JSON: nested too deeply\n")


class TestRepeatedKeys:
    """A JSON object that repeats a key is refused, not read as the key's
    last value."""

    def test_set_given_twice(self, tmp_path, capsys):
        # the first "C" lies inside the box; read as the second alone, the
        # instance answered semispace
        path = tmp_path / "instance.json"
        path.write_text(
            '{"dimension": 2, "box": {"lower": ["0.2", "0.2"], "upper": ["0.8", "0.5"]}, '
            '"sets": {"C": [["0.3", "0.3"]], "C": [["0.1", "0.8"]]}}',
            encoding="utf-8",
        )
        error = (1, "", "error: repeated key 'C' in a JSON object\n")
        assert run(capsys, ["separate-box", "-i", str(path)]) == error
        assert run(capsys, ["plot", "-i", str(path), "-o", str(tmp_path / "x.svg")]) == error

    def test_dimension_given_twice(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(SEPARABLE).replace('"dimension": 2', '"dimension": 3, "dimension": 2'), encoding="utf-8")
        assert run(capsys, ["separate-box", "-i", str(path)]) == (
            1, "", "error: repeated key 'dimension' in a JSON object\n"
        )

    def test_certificate_outcome_given_twice(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SEPARABLE)
        cert_path = tmp_path / "cert.json"
        run(capsys, ["separate-box", "-i", inst, "-o", str(cert_path)])
        text = cert_path.read_text(encoding="utf-8")
        assert text.count('"outcome": "semispace"') == 1
        cert_path.write_text(text.replace('"outcome": "semispace"', '"outcome": "not-separable", "outcome": "semispace"'))
        error = (1, "", "error: repeated key 'outcome' in a JSON object\n")
        assert run(capsys, ["verify", "-i", str(cert_path)]) == error
        assert run(capsys, ["plot", "-i", inst, "-c", str(cert_path), "-o", str(tmp_path / "x.svg")]) == error


def test_module_entry_point(tmp_path):
    # the child imports the same package as this test, installed or not
    src = str(Path(maxminsep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "maxminsep", "family", "-p", "0.5,0.5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["x0"] == ["0.5", "0.5"]
