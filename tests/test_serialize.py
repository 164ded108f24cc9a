"""Wire format: canonical scalar strings, JSON round-trips, strict parsing."""
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from maxminsep import (
    Box,
    HemispaceDescriptor,
    ParseError,
    SemispaceDescriptor,
    separate_box,
    separate_two_sets,
)
from maxminsep.serialize import (
    Instance,
    Options,
    box_from_dict,
    box_to_dict,
    certificate_to_dict,
    descriptor_from_dict,
    descriptor_to_dict,
    dumps,
    format_scalar,
    instance_from_dict,
    instance_to_dict,
    loads,
    parse_instance,
    parse_scalar,
    planar_certificate_to_dict,
    point_from_list,
    point_to_list,
    scalar_pair,
    set_from_list,
    set_to_list,
)
from helpers import box, gset, pt

scalars = st.fractions(min_value=0, max_value=1, max_denominator=60)


class TestScalarStrings:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(0), "0"),
            (Fraction(1), "1"),
            (Fraction(1, 2), "0.5"),
            (Fraction(2, 5), "0.4"),
            (Fraction(7, 20), "0.35"),
            (Fraction(3, 8), "0.375"),
            (Fraction(1, 16), "0.0625"),
            (Fraction(9, 10), "0.9"),
            (Fraction(1, 1000), "0.001"),
            (Fraction(1, 3), "1/3"),
            (Fraction(5, 6), "5/6"),
            (Fraction(7, 12), "7/12"),
        ],
    )
    def test_canonical_format(self, value, text):
        assert format_scalar(value.numerator, value.denominator) == text

    def test_decimal_and_fraction_spellings_agree(self):
        assert parse_scalar("0.35") == parse_scalar("7/20") == Fraction(7, 20)

    @given(scalars)
    def test_round_trip(self, v):
        assert parse_scalar(format_scalar(v.numerator, v.denominator)) == v

    @pytest.mark.parametrize("bad", [0.5, 1, None, ["0.5"]])
    def test_rejects_non_strings(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    @pytest.mark.parametrize("bad", ["", "abc", "1.5", "-0.1", "3/0", "1/0", "1e_"])
    def test_rejects_bad_text(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    @pytest.mark.parametrize(
        "bad",
        ["1e-5000", "1E-5000", "0.5e+5000", "1e-50_00", "0." + "3" * 5000, "1/" + "3" * 5000],
    )
    def test_rejects_oversized_scalar_strings(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    def test_accepts_scalar_strings_within_the_bound(self):
        assert parse_scalar("1e-300") == Fraction(1, 10**300)
        assert parse_scalar("0." + "0" * 298 + "1") == Fraction(1, 10**299)


# decimal digit sets that Fraction reads through int(): ASCII, Arabic-Indic,
# Devanagari and fullwidth
DIGIT_SETS = ["0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９"]


@st.composite
def scalar_spellings(draw):
    """Strings around Fraction's grammar.  Half are plain ASCII spellings
    (digits, digits/digits, digits.digits, leading zeros allowed); the
    rest add signs, surrounding whitespace, _, exponents, .5 and 5.,
    non-ASCII digits, the digit and exponent bounds, or junk."""
    plain = draw(st.booleans())

    def number(high):
        text = "0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, high)))
        if not plain and len(text) > 1 and draw(st.booleans()):
            k = draw(st.integers(1, len(text) - 1))
            text = text[:k] + "_" + text[k:]
        return text

    form = draw(st.sampled_from(["int", "ratio", "decimal", "lead-dot", "trail-dot", "edge", "junk"]))
    if form == "int":
        body = number(2)
    elif form == "ratio":
        body = f"{number(1200)}/{number(1000)}"
    elif form == "decimal":
        body = f"{number(1)}.{number(10**6)}"
    elif form == "lead-dot":
        body = "." + number(10**4)
    elif form == "trail-dot":
        body = number(2) + "."
    elif form == "edge":
        k = draw(st.integers(297, 301))
        body = draw(st.sampled_from([
            "0." + "0" * (k - 2) + "1",
            "1/" + "1" + "0" * (k - 2),
            "0" * (k - 1) + "1",
            f"1e-{k}",
            f"5E-{k}",
            f"0.{'5' * 3}e+{k}",
            f"1e-{k // 100}_{k % 100:02d}",
        ]))
    else:
        body = draw(st.text("0123456789./eE+-_ a", max_size=8))
    if plain:
        return body
    if form in ("int", "decimal", "lead-dot", "trail-dot") and draw(st.booleans()):
        body += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + number(400)
    body = draw(st.sampled_from(["", "+", "-"])) + body
    digit_set = draw(st.sampled_from(DIGIT_SETS))
    body = body.translate(str.maketrans("0123456789", digit_set))
    pad = st.sampled_from(["", " ", "\t", "\n ", "\u00a0"])
    return draw(pad) + body + draw(pad)


class TestScalarPair:
    """scalar_pair reads plain spellings without Fraction; it must accept
    exactly what parse_scalar (Fraction(str) behind the size and range
    checks) accepts, with the same value and the same error text."""

    @staticmethod
    def check(text):
        try:
            want = parse_scalar(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                scalar_pair(text)
            assert str(got.value) == str(exc)
            return
        pair = scalar_pair(text)
        assert pair == (want.numerator, want.denominator)
        assert Fraction(*pair) == Fraction(text)

    @given(scalar_spellings())
    def test_agrees_with_fraction(self, text):
        self.check(text)

    @pytest.mark.parametrize(
        "text",
        ["0.5", "1/2", "0.50", " 1/2 ", "5e-1", "0.5_0", "٥/١٠", "-0", ".5", "5.", "00.500", "1", "0/7",
         "1/0", "0/0", "3/2", "1.5", "", "1_/2", "0x1", "1/2/3", "¹/2", "0.²", "0." + "0" * 298 + "1", "0." + "0" * 299 + "1"],
    )
    def test_listed_spellings(self, text):
        self.check(text)

    @pytest.mark.parametrize("bad", [0.5, 1, True, None])
    def test_non_strings_keep_their_error(self, bad):
        with pytest.raises(ParseError, match="scalar must be a string"):
            scalar_pair(bad)


class TestPointsAndBoxes:
    def test_point_round_trip(self):
        p = pt("0.3,2/3,1")
        assert point_from_list(point_to_list(p)) == p
        assert point_to_list(p) == ["0.3", "2/3", "1"]

    @pytest.mark.parametrize("bad", [[], "0.3", {"x": "0.3"}])
    def test_point_shape_errors(self, bad):
        with pytest.raises(ParseError):
            point_from_list(bad)

    def test_box_round_trip(self):
        B = box("0.2,0.3", "0.9,0.5")
        data = box_to_dict(B)
        assert data == {"lower": ["0.2", "0.3"], "upper": ["0.9", "0.5"]}
        assert box_from_dict(data) == B

    def test_box_requires_both_corners(self):
        with pytest.raises(ParseError):
            box_from_dict({"lower": ["0.2"]})

    def test_box_rejects_crossed_corners(self):
        with pytest.raises(ParseError):
            box_from_dict({"lower": ["0.8"], "upper": ["0.2"]})

    def test_set_round_trip(self):
        C = gset("0.2,0.7", "0.5,0.1")
        assert set_from_list(set_to_list(C)) == C

    def test_set_must_have_generators(self):
        with pytest.raises(ParseError):
            set_from_list([])


class TestDescriptors:
    def test_s0_round_trip(self):
        S = SemispaceDescriptor(pt("0.3,0.7"), None)
        data = descriptor_to_dict(S)
        assert data == {"type": "S0", "x0": ["0.3", "0.7"]}
        assert descriptor_from_dict(data) == S

    def test_si_uses_one_based_coordinates(self):
        S = SemispaceDescriptor(pt("0.3,0.7"), 1)
        data = descriptor_to_dict(S)
        assert data == {"type": "Si", "x0": ["0.3", "0.7"], "i": 2}
        assert descriptor_from_dict(data) == S

    def test_hemispace_round_trip(self):
        H = HemispaceDescriptor(pt("0.9,0.5,0.3"), frozenset({1, 2}))
        data = descriptor_to_dict(H)
        assert data["M"] == [2, 3]
        back = descriptor_from_dict(data)
        assert isinstance(back, HemispaceDescriptor)
        assert back == H

    @pytest.mark.parametrize(
        "bad",
        [
            {"type": "S9", "x0": ["0.5"]},
            {"type": "Si", "x0": ["0.5"]},
            {"type": "Si", "x0": ["0.5"], "i": 2},
            {"type": "Si", "x0": ["0.5"], "i": 0},
            {"type": "S0", "x0": ["0.5"], "M": "1"},
            {"x0": ["0.5"]},
            {"type": "Si", "x0": ["0.5"], "i": True},
            {"type": "Si", "x0": ["0.5"], "i": 1.5},
            {"type": "Si", "x0": ["0.5"], "i": "1"},
            {"type": "S0", "x0": ["0.5"], "M": [True]},
            {"type": "S0", "x0": ["0.5"], "M": [1.0]},
            {"type": "S0", "x0": ["0.5"], "M": ["1"]},
            {"type": "Si", "x0": ["0.5"], "i": 1, "M": [1]},
            {"type": "Si", "x0": ["0.5"], "i": 1, "extra": 1},
            {"type": "S0", "x0": ["0.5"], "i": 1},
        ],
    )
    def test_malformed_descriptors(self, bad):
        with pytest.raises(ParseError):
            descriptor_from_dict(bad)


class TestInstances:
    def test_full_instance(self):
        text = json.dumps(
            {
                "dimension": 2,
                "box": {"lower": ["0.2", "0.3"], "upper": ["0.9", "0.5"]},
                "sets": {"C": [["0.4", "0.8"], ["0.1", "0.2"]]},
                "options": {"grid": 8, "fallback": False},
            }
        )
        inst = parse_instance(text)
        assert inst.dimension == 2
        assert inst.box == box("0.2,0.3", "0.9,0.5")
        assert inst.sets["C"] == gset("0.4,0.8", "0.1,0.2")
        assert inst.options == Options(grid=8, fallback=False)

    def test_defaults(self):
        inst = instance_from_dict({"dimension": 3, "box": None, "sets": {}})
        assert inst.box is None
        assert inst.options == Options(grid=10, fallback=True)

    def test_set_list_preserves_document_order(self):
        inst = instance_from_dict(
            {
                "dimension": 1,
                "sets": {"B": [["0.2"]], "A": [["0.7"]]},
            }
        )
        assert inst.set_list() == [gset("0.2"), gset("0.7")]

    def test_round_trip(self):
        inst = Instance(
            dimension=2,
            box=box("0,0.3", "1,0.5"),
            sets={"C": gset("0.4,0.8")},
            options=Options(grid=10, fallback=True),
        )
        assert instance_from_dict(instance_to_dict(inst)) == inst

    @pytest.mark.parametrize(
        "bad",
        [
            {"dimension": 2, "extra": 1},
            {"dimension": 0},
            {"dimension": "two"},
            {"dimension": 2, "box": {"lower": ["0.1"], "upper": ["0.9"]}},
            {"dimension": 2, "sets": {"C": [["0.5"]]}},
            {"dimension": 2, "options": {"grid": 0}},
            {"dimension": 2, "options": {"depth": 3}},
            {"dimension": 2, "options": "fast"},
            {"dimension": True},
            {"dimension": 2.5},
            {"dimension": "2"},
            {},
            {"dimension": 2, "options": {"grid": True}},
            {"dimension": 2, "options": {"grid": "x"}},
            {"dimension": 2, "options": {"grid": 2.5}},
            {"dimension": 2, "options": {"grid": None}},
            {"dimension": 2, "options": {"fallback": "false"}},
            {"dimension": 2, "options": {"fallback": 0}},
            {"dimension": 2, "options": {"fallback": None}},
            {"dimension": 2, "sets": [["0.5", "0.5"]]},
            {"dimension": 2, "sets": []},
            {"dimension": 2, "sets": "C"},
        ],
    )
    def test_strict_rejection(self, bad):
        with pytest.raises(ParseError):
            instance_from_dict(bad)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_instance("{not json")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"dimension": 1, "dimension": 1}', "dimension"),
            ('{"dimension": 1, "sets": {"C": [["0.3"]], "D": [["0.4"]], "C": [["0.3"]]}}', "C"),
            ('{"dimension": 1, "box": {"lower": ["0"], "upper": ["1"], "lower": ["0"]}}', "lower"),
        ],
    )
    def test_repeated_key(self, text, key):
        # refused even where both values agree, at any depth
        with pytest.raises(ParseError, match=f"repeated key '{key}'"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000, "invalid JSON: nested too deeply"),
            ('{"grid": ' + "9" * 5000 + "}", "invalid JSON: Exceeds the limit (4300 digits) for integer string"),
        ],
        ids=["deep-nesting", "oversized-integer"],
    )
    def test_hostile_json_is_a_parse_error(self, text, message):
        # a RecursionError and int()'s ValueError before
        with pytest.raises(ParseError) as info:
            loads(text)
        assert str(info.value).startswith(message)


class TestCertificates:
    def test_box_certificate_embeds_instance(self):
        B = box("0.2,0.2", "0.8,0.5")
        C = gset("0.1,0.8")
        inst = Instance(dimension=2, box=B, sets={"C": C})
        cert = separate_box(B, C)
        data = certificate_to_dict(cert, inst)
        assert data["kind"] == "box"
        assert data["instance"] == instance_to_dict(inst)
        assert data["outcome"] == "semispace"
        assert data["oracle_calls"] == cert.oracle_calls
        assert descriptor_from_dict(data["separator"]) == cert.separator
        assert len(data["trace"]) == cert.oracle_calls
        for entry in data["trace"]:
            assert set(entry) == {"stage", "iteration", "position", "candidate", "witness"}

    def test_two_set_certificate_embeds_instance(self):
        C1 = gset("0.55,0.65", "0.85,0.95")
        C2 = gset("0.2,0.3", "0.4,0.2")
        inst = Instance(dimension=2, box=None, sets={"C1": C1, "C2": C2})
        cert = separate_two_sets(C1, C2)
        data = planar_certificate_to_dict(cert, inst)
        assert data["kind"] == "two-set"
        assert data["boxed_set"] == cert.boxed_set
        assert box_from_dict(data["box"]) == cert.box
        assert data["semispace"] is None


# keys that need escaping: set names are chosen by the user and echoed
# into certificates
json_keys = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "Ω", 'C"1', "😀", ""])
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | json_keys,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=30,
)


class TestDumps:
    @given(st.dictionaries(json_keys, json_documents, max_size=5))
    @example({})
    @example({"a": [], "b": {}, "c": [[], {}]})
    @example({'C"1': ["0.5"], "Ω": [True, None, -3], "\\": {"\x00": "\u2028"}})
    def test_matches_the_standard_library(self, document):
        assert dumps(document) == json.dumps(document, indent=2, sort_keys=True) + "\n"

    def test_key_order_is_irrelevant(self):
        a = dumps({"b": 1, "a": [2, 3]})
        b = dumps({"a": [2, 3], "b": 1})
        assert a == b

    def test_trailing_newline_and_indent(self):
        text = dumps({"a": 1})
        assert text.endswith("\n")
        assert text == '{\n  "a": 1\n}\n'

    def test_serialized_certificates_are_byte_deterministic(self):
        B = box("0.2,0.2", "0.8,0.5")
        C = gset("0.1,0.8")
        inst = Instance(dimension=2, box=B, sets={"C": C})
        one = dumps(certificate_to_dict(separate_box(B, C), inst))
        two = dumps(certificate_to_dict(separate_box(B, C), inst))
        assert one == two
