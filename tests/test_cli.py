import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from convdef import Coalgebra, cli, cohomology, deformation, divided_power_t, pullback, specfile
from convdef.linalg import Matrix
from convdef.cli import build_parser, main
from convdef.fields import QQ

from helpers import full_space, matrix_inverse, oracle_invert_on_bottom, sparse_of, transport_coalgebra

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_cohomology_mat2(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["cohomology", fx("mat2.json"), "--degree", "2", "--out", str(out)])
    assert code == 0
    assert "dim H^2 = 0" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["schema_version"] == "convdef-report v1"
    assert report["dim_h"] == 0


def test_cohomology_dual_numbers(capsys):
    code = main(["cohomology", fx("dual_numbers.json")])
    assert code == 0
    assert "dim H^2 = 1" in capsys.readouterr().out


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["deform", fx("poly_t2_dual.json"), "--out", str(a)]) == 0
    assert main(["deform", fx("poly_t2_dual.json"), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"
SERIES_ARGS = ["--algebra", "A0", "--coalgebra", "D", "--max-degree", "2"]


# (name, argv, exit code) per recorded report, paths relative to the repo root; CI replays the same table
# through the installed console script
GOLDEN_COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name, argv, code", GOLDEN_COMMANDS)
def test_reports_match_golden(tmp_path, capsys, monkeypatch, name, argv, code):
    """The README commands write the recorded reports, byte for byte (tests/golden/<name>.json)."""
    monkeypatch.chdir(FIXTURES.parent)
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_what_its_comments_say(capsys):
    """The python block under README's "Library example" heading runs and prints True, then 1."""
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n1\n"


def test_unit_gauge_skips_zero_steps(tmp_path, monkeypatch):
    """An already unital multiplication takes no normalization step: no inversion, the same report."""
    calls = []
    invert = deformation._unipotent_inverse
    monkeypatch.setattr(deformation, "_unipotent_inverse", lambda *a: calls.append(a) or invert(*a))
    out = tmp_path / "r.json"
    argv = ["unit-gauge", fx("poly_t2_dual.json"), "--algebra", "At", "--base-algebra", "A0", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 0
    assert out.read_bytes() == (GOLDEN / "unit_gauge.json").read_bytes()
    assert main(["unit-gauge", fx("unit_gauge_broken.json")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("fixture, blocks", [("poly_t2_dual.json", 3), ("unit_gauge_t4.json", 2)])
def test_unit_gauge_runs_one_associator_per_algebra_block(monkeypatch, fixture, blocks):
    """unit-gauge reuses the associativity verdict of the parse-time check on the algebra it normalizes."""
    calls = []
    associator = cohomology._associator
    monkeypatch.setattr(cohomology, "_associator", lambda m: calls.append(m) or associator(m))
    assert main(["unit-gauge", fx(fixture), "--algebra", "At", "--base-algebra", "A0"]) == 0
    assert len(calls) == blocks


def test_series_all_materializes_only_expanded_or_returned_branches(tmp_path, monkeypatch):
    """series --strategy all builds the 16 returned branches and the one degree-1 branch degree 2 expands:
    17 deformations (`mc_solve` checks its base solution without building one), and the same report."""
    calls, results, make, series = [], [], deformation.make_deformation, cli.series_deform
    monkeypatch.setattr(deformation, "make_deformation", lambda *a, **k: calls.append(a) or make(*a, **k))
    monkeypatch.setattr(cli, "series_deform", lambda *a, **k: results.append(series(*a, **k)) or results[-1])
    out = tmp_path / "r.json"
    argv = ["series", fx("poly_t2_f3.json"), *SERIES_ARGS, "--strategy", "all", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 17
    assert [len(r.branches) for r in results] == [16]
    assert out.read_bytes() == (GOLDEN / "series_all_f3.json").read_bytes()


def test_deform_obstructed_exits_2_and_names_class(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["deform", fx("obstructed.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "obstruction" in err
    report = json.loads(out.read_text())
    assert report["obstruction_vanishes"] is False
    # the canonical class representative is part of the machine report
    rep = report["class_representative"]
    assert any(any(any(x != "0" for x in row) for row in mat) for mat in rep)


def test_series_two_degree_reports(capsys, tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "series",
            fx("poly_t2_dual.json"),
            "--algebra",
            "A0",
            "--coalgebra",
            "D",
            "--max-degree",
            "2",
            "--strategy",
            "file:" + fx("xsq_t_cochain.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert [s["degree"] for s in report["steps"]] == [1, 2]
    assert report["stopped_at"] is None
    # the recovered degree-1 coefficient is the supplied one
    assert report["final_multiplication"]["t"] == [["0", "0", "0", "1"], ["0", "0", "0", "0"]]


def test_classify_and_obstruct(capsys, tmp_path):
    assert main(["classify", fx("poly_t2_dual.json")]) == 0
    assert "NONZERO" not in capsys.readouterr().out
    assert main(["obstruct", fx("poly2_t2.json")]) == 0
    assert "class vanishes" in capsys.readouterr().out
    # an obstructed instance has no deformation to classify, and the summary says why (still exit 0)
    out = tmp_path / "r.json"
    assert main(["classify", fx("obstructed.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "dim H^2 = 6; 0 representative(s) materialized; obstruction class is NONZERO in H^3, no deformation exists\n"
    )
    report = json.loads(out.read_text())
    assert report["obstruction_vanishes"] is False and report["representatives"] == []


def test_unit_gauge_command(capsys):
    code = main(["unit-gauge", fx("poly_t2_dual.json"), "--algebra", "At", "--base-algebra", "A0"])
    assert code == 0
    assert "unit normalized" in capsys.readouterr().out


def test_invert_command(tmp_path):
    out = tmp_path / "r.json"
    assert main(["invert", fx("invert.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["inverse"]["t"] == [["-1", "-2"], ["-3", "-4"]]


def test_invert_singular_exits_2(capsys):
    """f zero at the group-like 1 is refused by Takeuchi's criterion, in its words."""
    assert main(["invert", fx("invert_singular.json")]) == 2
    assert capsys.readouterr().err == "no: restriction to the bottom filtration layer is not invertible\n"


def test_validate_ok_and_failing(tmp_path, capsys):
    assert main(["validate", fx("trivial.json")]) == 0
    doc = json.loads((FIXTURES / "trivial.json").read_text())
    doc["coalgebras"]["K"]["counit"] = {}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "coalgebra K: FAILED (cocommutative: yes)\nalgebra A: ok\n"
    assert captured.err == (
        "no: validation failed: coalgebra 'K': left counit axiom; coalgebra 'K': right counit axiom\n"
    )


def test_validate_runs_each_check_once(monkeypatch, capsys):
    """validate renders the checks made at parse: one per block, 3 algebras and 3 coalgebras here."""
    calls = {"assoc": 0, "coalgebra": 0}
    assoc, validate = specfile.is_associative, Coalgebra.validate

    def count(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(specfile, "is_associative", count("assoc", assoc))
    monkeypatch.setattr(Coalgebra, "validate", count("coalgebra", validate))
    assert main(["validate", fx("poly_t2_dual.json")]) == 0
    assert calls == {"assoc": 3, "coalgebra": 3}


def test_input_errors_exit_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 1
    assert main(["cohomology", fx("mat2.json"), "--degree", "2", "--algebra", "nope"]) == 1
    # negative degrees are refused before any cochain is built
    assert main(["cohomology", fx("dual_numbers.json"), "--degree", "-1"]) == 1
    assert main(["cohomology", fx("dual_numbers.json"), "--degree=-3"]) == 1
    assert main(["series", fx("poly_t2_dual.json"), "--algebra", "A0", "--coalgebra", "D",
                 "--max-degree", "-1"]) == 1
    # argparse usage errors are input errors, not the "mathematical no" code 2
    assert main(["cohomology", fx("dual_numbers.json"), "--degree", "abc"]) == 1
    assert main(["cohomology"]) == 1
    assert main(["no-such-command", fx("trivial.json")]) == 1
    assert main([]) == 1
    # a map whose dense components would be huge is refused at parse, before any is allocated
    k = {"basis": ["1"], "delta": [["1", "1", "1", "1"]], "counit": {"1": "1"}}
    for section, block in (
        ("algebras", {"A": {"over": "K", "dim": 3000}}),
        ("morphisms", {"f": {"over": "K", "a_dim": 2, "source_arity": 26}}),
    ):
        huge = tmp_path / f"huge_{section}.json"
        huge.write_text(json.dumps({"field": "Q", "coalgebras": {"K": k}, section: block}))
        assert main(["validate", str(huge)]) == 1
        assert "entries per component, more than 1048576" in capsys.readouterr().err
    # a section or a block inside it that is not an object
    doc = json.loads((FIXTURES / "poly_t2_dual.json").read_text())
    for section in ("coalgebras", "comodules", "cocycles", "algebras"):
        for bad in ([doc[section]], "x", {"blk": []}, {"blk": 3}):
            path = tmp_path / "bad_section.json"
            path.write_text(json.dumps(dict(doc, **{section: bad})))
            assert main(["validate", str(path)]) == 1, (section, bad)
    inv = json.loads((FIXTURES / "invert.json").read_text())
    for bad in ([inv["morphisms"]], {"f": None}):
        path = tmp_path / "bad_morphisms.json"
        path.write_text(json.dumps(dict(inv, morphisms=bad)))
        assert main(["invert", str(path)]) == 1
    # a spec file that is not UTF-8
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"schema": "convdef-spec v1", "field": "Q\xff\xfe"}\n')
    assert main(["validate", str(latin)]) == 1
    assert "UTF-8" in capsys.readouterr().err
    # a prime field tag too large to be used is refused before any primality test
    huge = tmp_path / "huge_prime.json"
    huge.write_text(json.dumps({"schema": "convdef-spec v1", "field": "Fp 1000000000000000000000000000057"}))
    assert main(["validate", str(huge)]) == 1
    # a rational scalar whose decimal exponent would expand past 4300 digits
    for literal in ("1e1000000000", "1e-4301"):
        big = json.loads((FIXTURES / "invert.json").read_text())
        big["morphisms"]["f"]["components"]["t"][0][0] = literal
        path = tmp_path / "big_exponent.json"
        path.write_text(json.dumps(big))
        assert main(["invert", str(path)]) == 1
        assert "exponent" in capsys.readouterr().err
    # an answer too large to print: the inverse holds -10^4300, which has 4301 digits
    big = json.loads((FIXTURES / "invert.json").read_text())
    big["morphisms"]["f"]["components"]["t"][0][0] = "1e4300"
    path = tmp_path / "big_answer.json"
    path.write_text(json.dumps(big))
    out = tmp_path / "big_answer_report.json"
    assert main(["invert", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "4301-digit" in captured.err
    assert captured.out == ""  # no success line for an answer that could not be reported
    assert not out.exists()
    # a JSON integer past Python's int-string limit, in a spec and in a cochain file
    spec = json.loads((FIXTURES / "trivial.json").read_text())
    spec["algebras"]["A"]["dim"] = "DIM"
    path = tmp_path / "huge_int.json"
    path.write_text(json.dumps(spec).replace('"DIM"', "9" * 4400))
    assert main(["validate", str(path)]) == 1
    assert "integer literal" in capsys.readouterr().err
    cochains = json.loads((FIXTURES / "xsq_t_cochain.json").read_text())
    cochains["1"][0][0][0] = "ENTRY"
    path = tmp_path / "huge_int_cochains.json"
    path.write_text(json.dumps(cochains).replace('"ENTRY"', "7" * 4400))
    assert main(["series", fx("poly_t2_dual.json"), *SERIES_ARGS, "--strategy", "file:" + str(path)]) == 1
    assert "cochain file: integer literal" in capsys.readouterr().err


# `main(argv)` under a 2 GiB address-space cap, timed around the call and printed last on stdout: a refusal that
# regresses into building the refused d^n fails with a MemoryError or the timeout instead of exhausting the machine
_CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from convdef.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def capped_main(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stderr, seconds in `main`) of `main(argv)` run in a child process under the cap, for at most 30 s.

    A child that dies inside `main` prints no time, and its seconds are infinite.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True, text=True, env=env,
                          timeout=30)
    return done.returncode, done.stderr, float(done.stdout.split()[-1]) if done.stdout.strip() else float("inf")


@pytest.mark.parametrize("degree", ["9", "12345678901234567890"])
def test_oversized_degree_exits_1_at_once(degree):
    """A d^n of M_2 past 2^20 rows is refused before it is built: exit 1 in well under a second, with no traceback."""
    code, err, seconds = capped_main(["cohomology", fx("mat2.json"), "--degree", degree])
    assert code == 1 and seconds < 1
    assert err.startswith(f"input error: d^{degree} would be ") and err.endswith(" past the bound of 1048576 rows\n")
    assert "Traceback" not in err


_K = {"basis": ["1"], "delta": [["1", "1", "1", "1"]], "counit": {"1": "1"}}
_T1 = {"basis": ["1", "t"], "delta": [["1", "1", "1", "1"], ["t", "1", "t", "1"], ["t", "t", "1", "1"]],
       "counit": {"1": "1"}, "degrees": {"1": 0, "t": 1}}


@pytest.mark.parametrize(
    "argv, a_dim, shape",
    [
        (["deform"], 32, "2097152 x 65536"),  # d^2 of an x = 2 comodule: 2 * 32^4 x 2 * 32^3
        (["obstruct"], 32, "2097152 x 65536"),
        (["classify"], 32, "2097152 x 65536"),
        # the degree-1 layer of k[t]_{<=1} has x = 1, so a = 32 would give exactly 2^20 rows, which the bound admits
        (["series", "--max-degree", "1", "--coalgebra", "D"], 33, "1185921 x 35937"),
    ],
)
def test_oversized_d2_is_refused_by_every_command(tmp_path, argv, a_dim, shape):
    """A zero algebra whose d^2 is past 2^20 rows is refused before d^2 is built: exit 1 at once, no traceback."""
    spec = {
        "field": "Q",
        "coalgebras": {"K": _K, "D": _T1},
        "comodules": {"X": {"base": "K", "basis": ["x", "y"],
                            "coaction": [["x", "x", "1", "1"], ["y", "y", "1", "1"]]}},
        "cocycles": {"w": {"comodule": "X", "omega": []}},
        "algebras": {"A": {"over": "K", "dim": a_dim}},
    }
    path = tmp_path / "zero_algebra.json"
    path.write_text(json.dumps(spec))
    code, err, seconds = capped_main([argv[0], str(path), *argv[1:]])
    assert code == 1 and seconds < 1
    assert err == f"input error: d^2 would be {shape}, past the bound of 1048576 rows\n"


@pytest.mark.parametrize("command", ["validate", "cohomology", "obstruct", "deform", "classify", "series", "unit-gauge",
                                     "invert"])
def test_duplicate_comodule_basis_exits_1(tmp_path, capsys, command):
    """A comodule basis that repeats a name is a reference error for every command, as a coalgebra's is."""
    spec = json.loads((FIXTURES / "poly_t2_dual.json").read_text())
    spec["comodules"]["X"]["basis"] = ["x", "x"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == "input error: reference error: comodule 'X': duplicate basis names\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_one_parser_serves_every_call(tmp_path, capsys):
    """The parser is built once per process, and no flag of one call leaks into the next."""
    assert build_parser() is build_parser()
    assert main(["cohomology", fx("mat2.json"), "--degree", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: convdef cohomology") and "invalid int value: 'abc'" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: convdef")
    assert main(["deform", fx("poly_t2_dual.json"), "--cocycle", "nope"]) == 1
    assert "unknown cocycle 'nope'" in capsys.readouterr().err
    out = tmp_path / "r.json"
    for argv in (["deform", fx("poly_t2_dual.json"), "--cocycle", "w"], ["deform", fx("poly_t2_dual.json")]):
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "deform.json").read_bytes()
        assert capsys.readouterr().out == (
            "Maurer-Cartan solvable: solution set = base + Z^2, dim Z^2 = 4\nequivalence classes: dim H^2 = 1\n"
        )
    assert main(["cohomology", fx("mat2.json"), "--degree", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "dim Z^1 = 3\ndim B^1 = 3\ndim H^1 = 0\n"
    assert json.loads(out.read_text())["degree"] == 1
    # without --degree the fixture's task block gives degree 2, not the 1 of the call before
    assert main(["cohomology", fx("mat2.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "dim Z^2 = 13\ndim B^2 = 13\ndim H^2 = 0\n"
    assert out.read_bytes() == (GOLDEN / "cohomology.json").read_bytes()


def _series_with_cochain_file(tmp_path, doc) -> int:
    path = tmp_path / "cochains.json"
    path.write_text(json.dumps(doc))
    return main(["series", fx("poly_t2_dual.json"), "--algebra", "A0", "--coalgebra", "D",
                 "--max-degree", "2", "--strategy", "file:" + str(path)])


def test_cochain_file_list_document_exits_1(tmp_path, capsys):
    doc = json.loads((FIXTURES / "xsq_t_cochain.json").read_text())
    assert _series_with_cochain_file(tmp_path, [doc]) == 1


def test_cochain_file_non_integer_degree_exits_1(tmp_path, capsys):
    doc = json.loads((FIXTURES / "xsq_t_cochain.json").read_text())
    assert _series_with_cochain_file(tmp_path, {"one": doc["1"]}) == 1
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"5": []}, {"-1": []}, {"0": "one"}, {"5": "one"}], ids=["5 empty", "-1", "0", "5"])
def test_cochain_file_degree_outside_the_coalgebra_exits_1(tmp_path, capsys, doc):
    """A cochain-file degree outside 1..2, the positive degrees of k[t]_{<=2}, is refused by name, not run or
    mistaken for a matrix count; "one" stands for the one matrix a degree-0 or degree-1 layer takes."""
    one = json.loads((FIXTURES / "xsq_t_cochain.json").read_text())["1"]
    doc = {key: one if mats == "one" else mats for key, mats in doc.items()}
    assert _series_with_cochain_file(tmp_path, doc) == 1
    captured = capsys.readouterr()
    degree = next(iter(doc))
    assert f"cochain file: degree {degree} is outside 1..2" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("order", [("1", "01"), ("01", "1")])
def test_cochain_file_naming_a_degree_twice_exits_1(tmp_path, capsys, order):
    """Keys "1" and "01" both name degree 1: neither silently wins, in either order."""
    one = json.loads((FIXTURES / "xsq_t_cochain.json").read_text())["1"]
    zeros = [[["0"] * 4] * 2]
    doc = {key: mats for key, mats in zip(order, (one, zeros))}
    assert _series_with_cochain_file(tmp_path, doc) == 1
    captured = capsys.readouterr()
    assert "cochain file: degree 1 is given twice" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_repeated_json_key_exits_1(tmp_path, capsys):
    """A spec with a second "task" key and a cochain file naming "1" twice are input errors, not read last-wins."""
    spec = tmp_path / "spec.json"
    spec.write_text((FIXTURES / "poly_t2_dual.json").read_text().replace("{", '{"task": {"command": "obstruct"}, ', 1))
    one = json.dumps(json.loads((FIXTURES / "xsq_t_cochain.json").read_text())["1"])
    cochains = tmp_path / "cochains.json"
    cochains.write_text(f'{{"1": {one}, "1": {one}}}')
    runs = [(["deform", str(spec)], "task"),
            (["series", fx("poly_t2_dual.json"), "--algebra", "A0", "--coalgebra", "D", "--max-degree", "2",
              "--strategy", f"file:{cochains}"], "1")]
    for argv, key in runs:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"input error: syntax error: key {key!r} is given twice in one object\n"
        assert captured.out == ""


@pytest.mark.parametrize("max_degree", ["0", "1"])
def test_series_refuses_an_unknown_strategy_before_any_degree(tmp_path, capsys, max_degree):
    """An unknown strategy is an input error even when no degree is solved, and writes no report."""
    out = tmp_path / "r.json"
    argv = ["series", fx("poly_t2_dual.json"), "--algebra", "A0", "--coalgebra", "D", "--max-degree", max_degree]
    assert main(argv + ["--strategy", "bogus", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "unknown strategy 'bogus'" in captured.err and captured.out == ""
    assert not out.exists()


def test_series_deforms_the_algebra_at_the_grouplike(tmp_path, capsys):
    """A base coalgebra k e with Delta(e) = e/2 (x) e and eps(e) = 2 has the group-like g = e/2, and A0 given at e
    as 2 * (dual numbers) is the dual numbers at g: the report equals the one of poly_t2_dual.json."""
    doc = json.loads((FIXTURES / "poly_t2_dual.json").read_text())
    doc["coalgebras"]["K"].update(delta=[["1", "1", "1", "1/2"]], counit={"1": "2"})
    doc["algebras"]["A0"].update(mult={"1": [["2", "0", "0", "0"], ["0", "2", "2", "0"]]}, unit={"1": ["2", "0"]})
    spec = tmp_path / "scaled.json"
    spec.write_text(json.dumps(doc))
    assert main(["validate", str(spec)]) == 0
    scaled, plain = tmp_path / "scaled_report.json", tmp_path / "plain_report.json"
    assert main(["series", str(spec)] + SERIES_ARGS + ["--out", str(scaled)]) == 0
    assert main(["series", fx("poly_t2_dual.json")] + SERIES_ARGS + ["--out", str(plain)]) == 0
    assert scaled.read_bytes() == plain.read_bytes()


def _invert_with_filtration_exits_1(tmp_path, capsys, value: str) -> None:
    """`invert ... --filtration value` is a usage error, with no traceback and no report."""
    out = tmp_path / "r.json"
    assert main(["invert", fx("invert.json"), "--filtration", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: convdef") and "unrecognized arguments: --filtration" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def _layers_file(tmp_path, doc) -> str:
    path = tmp_path / "layers.json"
    path.write_text(json.dumps(doc))
    return "file:" + str(path)


_EYE = [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_filtration_option_exits_1(tmp_path, capsys):
    """`invert` takes no --filtration: the old default value is a usage error."""
    _invert_with_filtration_exits_1(tmp_path, capsys, "grading")


def test_filtration_layers_file_exits_1(tmp_path, capsys):
    # the grading filtration of k[t]_{<=3}, the layers file the option once read
    _invert_with_filtration_exits_1(tmp_path, capsys, _layers_file(tmp_path, {"layers": [_EYE[: n + 1] for n in range(4)]}))


def test_filtration_list_document_exits_1(tmp_path, capsys):
    _invert_with_filtration_exits_1(tmp_path, capsys, _layers_file(tmp_path, [[["1", "0", "0", "0"]]]))


def test_filtration_of_non_filtration_layers_exits_1(tmp_path, capsys):
    # layers that are not a coalgebra filtration are refused as usage, before any file is read
    one, t, t2 = _EYE[0], _EYE[1], _EYE[2]
    for layers in ([[t], [one, t], [one, t, t2], _EYE], [[one], [one, t, t2], _EYE], [[one], [one, t], [one, t2], _EYE]):
        _invert_with_filtration_exits_1(tmp_path, capsys, _layers_file(tmp_path, {"layers": layers}))


@pytest.mark.parametrize(
    "fixture, argv, key, value",
    [
        ("poly_t2_f3.json", ["series", *SERIES_ARGS], "stratgy", "all"),  # a misspelt default
        ("invert.json", ["invert"], "filtration", "grading"),  # the retired `invert --filtration` default
    ],
)
def test_unknown_task_key_exits_1(tmp_path, capsys, fixture, argv, key, value):
    """A task key the commands do not read is a syntax error naming it: no traceback, no summary, no report."""
    spec = json.loads((FIXTURES / fixture).read_text())
    path, out = tmp_path / "spec.json", tmp_path / "r.json"
    path.write_text(json.dumps(spec))
    assert main([argv[0], str(path), *argv[1:]]) == 0  # the same spec without the key runs
    capsys.readouterr()
    spec["task"][key] = value
    path.write_text(json.dumps(spec))
    assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"input error: syntax error: unknown task key {key!r}\n"
    assert captured.out == "" and not out.exists()


def test_unit_float_scalar_exits_1(tmp_path, capsys):
    spec = json.loads((FIXTURES / "poly_t2_dual.json").read_text())
    spec["algebras"]["A0"]["unit"]["1"] = [1.0, "0"]
    path = tmp_path / "float_unit.json"
    path.write_text(json.dumps(spec))
    assert main(["validate", str(path)]) == 1
    assert "non-exact scalar literal 1.0 in algebra 'A0'.unit[1]" in capsys.readouterr().err


def test_invert_reads_no_filtration(tmp_path, monkeypatch):
    """`invert` builds no filtration, and writes the recorded reports byte for byte."""
    calls = []
    grading = Coalgebra.grading_filtration
    monkeypatch.setattr(Coalgebra, "grading_filtration", lambda c: calls.append("grading") or grading(c))
    for name in ("invert", "invert_ungraded"):
        out = tmp_path / "r.json"
        assert main(["invert", fx(f"{name}.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert calls == []


def _with_literal(tmp_path, field: str, literal) -> str:
    """invert.json over `field` with `literal` at three entries of f(t)."""
    spec = json.loads((FIXTURES / "invert.json").read_text())
    spec["field"] = field
    spec["morphisms"]["f"]["components"]["t"] = [[literal, literal], ["0", literal]]
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_repeated_literals_keep_their_values_and_messages(tmp_path, capsys):
    """Each document parses its literals anew: a repeated bad literal fails with its message, and "1/2" follows the field."""
    bad = [
        ("Q", "1/0", "bad scalar '1/0' in morphism 'f'[t]: bad rational literal '1/0'"),
        ("Q", "1e4301", "bad scalar '1e4301' in morphism 'f'[t]: exponent 4301 of rational literal exceeds 4300"),
        ("Fp 3", "1e4300", "bad scalar '1e4300' in morphism 'f'[t]: bad F_3 literal '1e4300'"),
        ("Q", 0.5, "non-exact scalar literal 0.5 in morphism 'f'[t]"),
        ("Fp 2", "1/2", "bad scalar '1/2' in morphism 'f'[t]: inverse of zero in F_2"),
    ]
    for _ in range(2):
        for field, literal, message in bad:
            assert main(["validate", _with_literal(tmp_path, field, literal)]) == 1
            assert message in capsys.readouterr().err
        for field, half in (("Q", Fraction(1, 2)), ("Fp 3", 2)):
            path = _with_literal(tmp_path, field, "1/2")
            assert main(["validate", path]) == 0
            sf, _failures = specfile.parse_path(path)
            assert sf.morphisms["f"].components[1].entries == {(0, 0): half, (0, 1): half, (1, 1): half}
    capsys.readouterr()
    # an answer too large to print: "1e4300" parses over Q, and the inverse holds -10^4300
    assert main(["invert", _with_literal(tmp_path, "Q", "1e4300")]) == 1
    assert "digit printing limit" in capsys.readouterr().err


def test_invert_ungraded_fixture_gives_the_oracle_inverse(tmp_path):
    """invert_ungraded.json is invert.json moved along p: no grading, and Delta constants other than 1.

    `invert` inverts it like any coalgebra, and its report holds the oracle's inverse.
    """
    p = Matrix.from_rows(QQ, [[1, 0, 2, 0], [1, 1, 0, -1], [0, 3, 1, 0], [2, 0, 1, 1]])
    moved, _layers = transport_coalgebra(divided_power_t(3, QQ), p)
    sf, _failures = specfile.parse_path(fx("invert_ungraded.json"))
    f = sf.morphisms["f"]
    assert f.coalgebra == moved and moved.grading is None
    assert any(mu != 1 for triples in moved.delta for _j, _k, mu in triples)  # k[t]_{<=3} has only 1s
    original = specfile.parse_path(fx("invert.json"))[0].morphisms["f"]
    assert f == pullback(original, sparse_of(matrix_inverse(p)), moved)  # f' = f o p^-1
    out = tmp_path / "r.json"
    assert main(["invert", fx("invert_ungraded.json"), "--out", str(out)]) == 0
    inverse = oracle_invert_on_bottom(f, full_space(QQ, moved.dim))
    assert json.loads(out.read_text())["inverse"] == specfile.morphism_to_obj(inverse)
