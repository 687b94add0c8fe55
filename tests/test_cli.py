import json
from pathlib import Path

import pytest

from convdef import Coalgebra, deformation, divided_power_t, specfile
from convdef.linalg import Matrix
from convdef.cli import build_parser, main
from convdef.fields import QQ

from helpers import matrix_inverse, transport_coalgebra

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("cohomology", ["cohomology", fx("mat2.json"), "--degree", "2"], 0),
        ("deform", ["deform", fx("poly_t2_dual.json")], 0),
        ("series", ["series", fx("poly_t2_dual.json"), *SERIES_ARGS, "--strategy", "file:" + fx("xsq_t_cochain.json")], 0),
        ("unit_gauge", ["unit-gauge", fx("poly_t2_dual.json"), "--algebra", "At", "--base-algebra", "A0"], 0),
        ("invert", ["invert", fx("invert.json")], 0),
        ("obstructed", ["deform", fx("obstructed.json")], 2),
        ("unit_gauge_broken", ["unit-gauge", fx("unit_gauge_broken.json"), "--algebra", "At", "--base-algebra", "A0"], 0),
        ("validate", ["validate", fx("poly_t2_dual.json")], 0),
        ("classify", ["classify", fx("poly_t2_dual.json")], 0),
        ("classify_f3", ["classify", fx("poly2_t2_f3.json")], 0),
        ("invert_frac", ["invert", fx("invert_frac.json")], 0),
        ("cohomology_dense", ["cohomology", fx("trunc3_dense.json"), "--degree", "2"], 0),
    ],
)
def test_reports_match_golden(tmp_path, capsys, name, argv, code):
    """The README commands write the recorded reports, byte for byte (tests/golden/<name>.json)."""
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_unit_gauge_skips_zero_steps(tmp_path, monkeypatch):
    """An already unital multiplication takes no normalization step: no inversion, the same report."""
    calls = []
    invert = deformation.takeuchi_invert
    monkeypatch.setattr(deformation, "takeuchi_invert", lambda *a: calls.append(a) or invert(*a))
    out = tmp_path / "r.json"
    argv = ["unit-gauge", fx("poly_t2_dual.json"), "--algebra", "At", "--base-algebra", "A0", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 0
    assert out.read_bytes() == (GOLDEN / "unit_gauge.json").read_bytes()
    assert main(["unit-gauge", fx("unit_gauge_broken.json")]) == 0
    assert len(calls) == 2


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


def test_invert_singular_exits_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "invert.json").read_text())
    doc["morphisms"]["f"]["components"]["1"] = [["0", "0"], ["0", "0"]]
    del doc["morphisms"]["f"]["components"]["t"]
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    assert main(["invert", str(bad)]) == 2


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


def _invert_with_layers_file(tmp_path, doc) -> int:
    path = tmp_path / "layers.json"
    path.write_text(json.dumps(doc))
    return main(["invert", fx("invert.json"), "--filtration", "file:" + str(path)])


def test_layers_file_list_document_exits_1(tmp_path, capsys):
    assert _invert_with_layers_file(tmp_path, [[["1", "0", "0", "0"]]]) == 1


def test_layers_file_float_scalar_exits_1(tmp_path, capsys):
    layers = [[[1.0, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    assert _invert_with_layers_file(tmp_path, {"layers": layers}) == 1
    assert "non-exact scalar" in capsys.readouterr().err


def test_layers_file_is_read(tmp_path, capsys):
    # the grading filtration of k[t]_{<=3}, spelled out in a layers file
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    layers = [eye[: n + 1] for n in range(4)]
    assert _invert_with_layers_file(tmp_path, {"layers": layers}) == 0


def test_layers_that_are_not_a_coalgebra_filtration_exit_1(tmp_path, capsys):
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    one, t, t2 = eye[0], eye[1], eye[2]
    for layers in (
        [[t], [one, t], [one, t, t2], eye],  # L_0 = span(t): Delta(t) leaves L_0 (x) L_0
        [[one], [one, t, t2], eye],  # t^2 in layer 1: t (x) t is not in L_0 (x) L_1 + L_1 (x) L_0
        [[one], [one, t], [one, t2], eye],  # not nested
    ):
        assert _invert_with_layers_file(tmp_path, {"layers": layers}) == 1
        captured = capsys.readouterr()
        assert "do not form a coalgebra filtration" in captured.err
        assert captured.out == ""


def test_transported_layers_file_gives_the_unique_inverse(tmp_path):
    # invert.json moved along p: the layers p(C_{<=n}) have RREF rows that are not
    # unit vectors, and the one-layer filtration {C} must give the same inverse
    p = Matrix.from_rows(QQ, [[1, 0, 2, 0], [1, 1, 0, -1], [0, 3, 1, 0], [2, 0, 1, 1]])
    moved, layers = transport_coalgebra(divided_power_t(3, QQ), p)
    assert any(sum(x != 0 for x in row) > 1 for layer in layers for row in layer.dense_rows())
    p_inv = matrix_inverse(p)
    f = [[[1, 0], [0, 1]], [[1, 2], [3, 4]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    components = {  # f' = f o p^-1
        name: [[str(sum(p_inv.data[j][i] * f[j][r][s] for j in range(4))) for s in range(2)] for r in range(2)]
        for i, name in enumerate(moved.names)
    }
    spec = {
        "schema": "convdef-spec v1",
        "field": "Q",
        "coalgebras": {
            "D": {
                "basis": list(moved.names),
                "counit": {name: str(e) for name, e in zip(moved.names, moved.counit)},
                "delta": [
                    [moved.names[i], moved.names[j], moved.names[k], str(mu)]
                    for i, triples in enumerate(moved.delta)
                    for j, k, mu in triples
                ],
            }
        },
        "morphisms": {
            "f": {"over": "D", "a_dim": 2, "source_arity": 1, "target_arity": 1, "components": components}
        },
    }
    spec_path = tmp_path / "moved.json"
    spec_path.write_text(json.dumps(spec))
    reports = []
    for label, rows in (
        ("adapted", [layer.dense_rows() for layer in layers]),
        ("one", [[[1 if i == j else 0 for j in range(4)] for i in range(4)]]),
    ):
        layers_path = tmp_path / f"{label}_layers.json"
        layers_path.write_text(json.dumps({"layers": [[[str(x) for x in row] for row in layer] for layer in rows]}))
        out = tmp_path / f"{label}_report.json"
        assert main(["invert", str(spec_path), "--filtration", "file:" + str(layers_path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
