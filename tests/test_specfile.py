import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from convdef import MultiMap, SpecFileError
from convdef.cli import main
from convdef.fields import QQ, PrimeField
from convdef.specfile import REPORT_SCHEMA, _fmt_map, parse_cochain_file, parse_path, parse_text, render_report, serialize

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


def test_repeated_key_is_syntax_error(tmp_path):
    """A key given twice in one object is refused, not read last-wins: a spec's second "task", a nested repeat,
    and a cochain file's second "1"."""
    text = (FIXTURES / "poly_t2_dual.json").read_text()
    repeats = {
        "task": text.replace("{", '{"task": {"command": "obstruct"}, ', 1),
        "1": text.replace('"counit": {"1": "1"}', '"counit": {"1": "1", "1": "0"}', 1),
    }
    for key, doc in repeats.items():
        assert doc != text
        with pytest.raises(SpecFileError) as err:
            parse_text(doc)
        assert err.value.kind == "syntax"
        assert str(err.value) == f"syntax error: key {key!r} is given twice in one object"
    one = json.dumps(json.loads((FIXTURES / "xsq_t_cochain.json").read_text())["1"])
    path = tmp_path / "cochains.json"
    path.write_text(f'{{"1": {one}, "1": {one}}}')
    with pytest.raises(SpecFileError, match="key '1' is given twice in one object") as err:
        parse_cochain_file(str(path), QQ, 2)
    assert err.value.kind == "syntax"


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(SpecFileError) as err:
        parse_path(str(tmp_path / "nope.json"))
    assert err.value.kind == "io"


# one block of each kind, each using the shapes it reads: a basis, a triples table, per-name maps
SHAPES = {
    "schema": "convdef-spec v1",
    "field": "Q",
    "coalgebras": {"C": {"basis": ["1", "t"],
                         "delta": [["1", "1", "1", "1"], ["t", "1", "t", "1"], ["t", "t", "1", "1"]],
                         "counit": {"1": "1"}, "degrees": {"1": 0, "t": 1}}},
    "comodules": {"X": {"base": "C", "basis": ["x"], "coaction": [["x", "x", "1", "1"]]}},
    "cocycles": {"w": {"comodule": "X", "omega": [["x", "t", "t", "1"]]}},
    "algebras": {"A": {"over": "C", "dim": 1, "mult": {"1": [["1"]]}, "unit": {"1": ["1"]}}},
    "morphisms": {"f": {"over": "C", "a_dim": 1, "components": {"1": [["1"]]}}},
}
BASES = [("coalgebras", "basis"), ("comodules", "basis")]
TRIPLES = [("coalgebras", "delta"), ("comodules", "coaction"), ("cocycles", "omega")]
PER_NAME = [("coalgebras", "counit"), ("coalgebras", "degrees"), ("algebras", "mult"), ("algebras", "unit"),
            ("morphisms", "components")]


def _unknown_in_column(col):
    return lambda entries: [entries[0][:col] + ["nope"] + entries[0][col + 1:], *entries[1:]]


SHAPE_CASES = (
    [pytest.param(sec, key, lambda basis: basis + basis[:1], "reference", id=f"{sec}.{key}-duplicate")
     for sec, key in BASES]
    + [pytest.param(sec, key, _unknown_in_column(col), "reference", id=f"{sec}.{key}-unknown-in-column-{col}")
       for sec, key in TRIPLES for col in range(3)]
    + [pytest.param(sec, key, lambda values: [values], "dimension", id=f"{sec}.{key}-not-an-object")
       for sec, key in PER_NAME]
    + [pytest.param(sec, key, lambda values: {**values, "nope": values["1"]}, "reference",
                    id=f"{sec}.{key}-unknown-key") for sec, key in PER_NAME]
)


@pytest.mark.parametrize("section, key, broken, kind", SHAPE_CASES)
def test_each_shape_fails_alike_in_every_block(tmp_path, capsys, section, key, broken, kind):
    """One defect in a basis, a triples table or a per-name map is the same error kind whichever block has it."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SHAPES))
    assert main(["validate", str(path)]) == 0
    doc = copy.deepcopy(SHAPES)
    ((name, block),) = doc[section].items()
    block[key] = broken(block[key])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"input error: {kind} error: {section[:-1]} {name!r}: ")


# strings with non-ASCII, quote, backslash and control characters, and the exact scalars reports hold
_texts = st.text(alphabet=st.sampled_from(["a", "Z", "0", "/", "-", " ", '"', "\\", "\n", "\t", "\x00", "\x1f",
                                           "\x7f", "\u00e9", "\u2028", "\U0001d11e"]), max_size=5)
_leaves = _texts | st.sampled_from(["0", "1", "-1", "1/2", "-3/4"]) | st.integers(-10**30, 10**30) | st.booleans() \
    | st.none()
_trees = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.lists(_texts, max_size=3), max_size=3)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(_texts, _trees, max_size=5))
@example({"a": [[]], "b": [{}], "c": [["a"], []], "d": [1, "x", [], {}, ["y"]], "e": {"f": {}, "g": []}})
@example({"m": [["1", "0"], ["0", "1/2"]], "t": ("\u00e9", '"\\'), "z": [[["0"]], [[]]], "s": ["a", 1]})
def test_render_report_is_json_dumps_sorted_indent_2(payload):
    """The direct writer gives json's own bytes on every JSON tree, empty containers and mixed lists included."""
    expected = json.dumps({"schema_version": REPORT_SCHEMA, **payload}, sort_keys=True, indent=2) + "\n"
    assert render_report(payload) == expected


@given(
    st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]),
    st.integers(1, 3),
    st.sampled_from([(2, 1), (0, 1), (1, 1), (1, 0)]),
    st.data(),
)
def test_fmt_map_formats_the_dense_matrix(field, a_dim, arities, data):
    """Formatting the nonzero entries over a zero grid equals formatting every cell, the zero map included."""
    src, tgt = arities
    cells = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4) if field is QQ else st.integers(0, field.p - 1)
    rows = data.draw(st.lists(st.lists(st.just(0) | cells, min_size=a_dim**src, max_size=a_dim**src),
                              min_size=a_dim**tgt, max_size=a_dim**tgt))
    m = MultiMap.from_rows(field, a_dim, src, tgt, rows)
    assert _fmt_map(m) == [[field.fmt(x) for x in row] for row in m.rows()]
    assert _fmt_map(MultiMap.zero(field, a_dim, src, tgt)) == [["0"] * a_dim**src for _ in range(a_dim**tgt)]
