import json
from pathlib import Path

import pytest

from convdef import SpecFileError
from convdef.specfile import parse_path, parse_text, render_report, serialize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALL_FIXTURES = [
    "trivial.json",
    "poly_t2_dual.json",
    "poly2_t2.json",
    "dual_numbers.json",
    "mat2.json",
    "obstructed.json",
    "invert.json",
]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixtures_parse_and_validate(name):
    sf, failures = parse_path(str(FIXTURES / name))
    assert failures == []
    assert sf.field is not None


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_on_fixtures(name):
    sf, _ = parse_path(str(FIXTURES / name))
    text = serialize(sf)
    sf2, _ = parse_text(text)
    assert sf2 == sf
    # serialization is deterministic
    assert serialize(sf2) == text


def test_empty_file_is_syntax_error_at_1_1():
    with pytest.raises(SpecFileError) as err:
        parse_text("")
    assert err.value.kind == "syntax"
    assert (err.value.line, err.value.col) == (1, 1)


def test_unknown_basis_name_is_reference_error():
    doc = {
        "schema": "convdef-spec v1",
        "field": "Q",
        "coalgebras": {
            "C": {
                "basis": ["1"],
                "delta": [["1", "1", "nope", "1"]],
                "counit": {"1": "1"},
            }
        },
    }
    with pytest.raises(SpecFileError) as err:
        parse_text(json.dumps(doc))
    assert err.value.kind == "reference"
    assert "nope" in str(err.value)


def test_unknown_block_reference():
    doc = {
        "schema": "convdef-spec v1",
        "field": "Q",
        "comodules": {"X": {"base": "missing", "basis": ["x"], "coaction": []}},
    }
    with pytest.raises(SpecFileError) as err:
        parse_text(json.dumps(doc))
    assert err.value.kind == "reference"


def test_dimension_error_on_bad_matrix():
    doc = {
        "schema": "convdef-spec v1",
        "field": "Q",
        "coalgebras": {
            "K": {"basis": ["1"], "delta": [["1", "1", "1", "1"]], "counit": {"1": "1"}}
        },
        "algebras": {"A": {"over": "K", "dim": 2, "mult": {"1": [["1", "0"], ["0", "0"]]}}},
    }
    with pytest.raises(SpecFileError) as err:
        parse_text(json.dumps(doc))
    assert err.value.kind == "dimension"


def test_float_literal_rejected():
    doc = {
        "schema": "convdef-spec v1",
        "field": "Q",
        "coalgebras": {
            "K": {"basis": ["1"], "delta": [["1", "1", "1", 0.5]], "counit": {"1": "1"}}
        },
    }
    with pytest.raises(SpecFileError) as err:
        parse_text(json.dumps(doc))
    assert err.value.kind == "syntax"


def test_axiom_violation_is_distinct_kind():
    doc = {
        "schema": "convdef-spec v1",
        "field": "Q",
        "coalgebras": {
            # counit axiom fails: eps = 0
            "K": {"basis": ["1"], "delta": [["1", "1", "1", "1"]], "counit": {}}
        },
    }
    with pytest.raises(SpecFileError) as err:
        parse_text(json.dumps(doc))
    assert err.value.kind == "axiom"
    # lenient mode reports instead of raising
    sf, failures = parse_text(json.dumps(doc), strict=False)
    assert failures and "counit" in failures[0]


def test_bad_field_tag():
    with pytest.raises(SpecFileError) as err:
        parse_text(json.dumps({"schema": "convdef-spec v1", "field": "R"}))
    assert err.value.kind == "syntax"


def test_prime_field_literals():
    doc = {
        "schema": "convdef-spec v1",
        "field": "Fp 5",
        "coalgebras": {
            "K": {"basis": ["1"], "delta": [["1", "1", "1", "1"]], "counit": {"1": "1"}}
        },
        "algebras": {"A": {"over": "K", "dim": 1, "mult": {"1": [["1/2"]]}}},
    }
    sf, failures = parse_text(json.dumps(doc))
    # 1/2 = 3 in F5
    assert sf.algebras["A"].m.components[0].rows()[0][0] == 3


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(SpecFileError) as err:
        parse_path(str(tmp_path / "nope.json"))
    assert err.value.kind == "io"


def test_render_report_deterministic():
    payload = {"b": 1, "a": {"y": "2", "x": "3"}}
    assert render_report(payload) == render_report(dict(reversed(list(payload.items()))))
    assert render_report(payload).startswith("{")
