"""Fuzzing the input boundary: no input may escape the exit-code contract.

Every generated spec either parses or raises a domain error, and `main`
always returns 0, 1 or 2.  Generated integers stay within |n| <= 3 and
containers hold at most 4 items: a degree or a dimension is an exponent
of the dense cochain size, so a larger value could ask for a matrix with
millions of entries, and no size budget exists to refuse it.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from convdef.cli import main
from convdef.errors import ConvDefError
from convdef.specfile import parse_path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (fixture, command, arguments after the spec path); small instances, each op well under a second
CASES = [
    ("trivial.json", ["validate"], []),
    ("dual_numbers.json", ["cohomology"], []),
    ("poly_t2_dual.json", ["deform"], []),
    ("poly_t2_dual.json", ["series"], ["--algebra", "A0", "--coalgebra", "D", "--max-degree", "2"]),
    ("poly_t2_dual.json", ["unit-gauge"], ["--algebra", "At", "--base-algebra", "A0"]),
    ("invert.json", ["invert"], []),
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["0", "1", "-1", "1/2", "x", "t", "1", "K", "D", "A", "A0", "w", "f"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    """Every position in a JSON document: object keys and list indices, top level first."""
    out = [prefix] if prefix else []
    if isinstance(value, dict):
        for k, v in value.items():
            out.extend(_paths(v, prefix + (k,)))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out.extend(_paths(v, prefix + (i,)))
    return out


def _replace(doc, path, new):
    if len(path) == 1:
        doc[path[0]] = new
    else:
        _replace(doc[path[0]], path[1:], new)


def _run(argv: list[str]) -> int:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return main(argv)


@st.composite
def spliced_fixture(draw):
    """Fixture bytes with a short run of arbitrary bytes written over them."""
    raw = (FIXTURES / draw(st.sampled_from(CASES))[0]).read_bytes()
    at = draw(st.integers(0, len(raw)))
    patch = draw(st.binary(min_size=1, max_size=8))
    return raw[:at] + patch + raw[at + len(patch):]


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=64) | spliced_fixture())
def test_parse_path_raises_only_domain_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "spec.json")
        path.write_bytes(raw)
        try:
            parse_path(str(path))
        except ConvDefError:
            pass
        assert _run(["validate", str(path)]) in (0, 1, 2)


@st.composite
def mutated_case(draw):
    fixture, command, extra = draw(st.sampled_from(CASES))
    doc = json.loads((FIXTURES / fixture).read_text())
    path = draw(st.sampled_from(_paths(doc)))
    _replace(doc, path, draw(json_values))
    return command, extra, doc


@settings(max_examples=120, deadline=None)
@given(mutated_case())
def test_main_exit_code_contract(case):
    command, extra, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps(doc))
        out = Path(tmp, "out.json")
        assert _run(command + [str(spec), "--out", str(out)] + extra) in (0, 1, 2)
