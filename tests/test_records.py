"""The library's records are plain slot classes that behave as the frozen dataclasses they were declared as.

Each record is held against that declaration, rebuilt here with `dataclasses.make_dataclass`: construction by
keyword and by position, ==, hash and repr, on an instance the library computes from a fixture.
"""

import copy
import dataclasses
from pathlib import Path

import pytest

from convdef import (
    AlgebraMC,
    ClassifyResult,
    CoalgebraReport,
    Cocycle2,
    Cochain,
    CohomologyResult,
    Comodule,
    ComplexSpec,
    ConvMorphism,
    Deformation,
    DeformationReport,
    Extension,
    GroupLikeSet,
    MultiMap,
    ProductDecomposition,
    Rank1Reduction,
    SeriesBranch,
    SeriesResult,
    SeriesStep,
    ShapeError,
    SparseMatrix,
    SpecMismatch,
    UnitGaugeResult,
    build_extension,
    classify,
    decompose_completely_reducible,
    find_grouplikes,
    graded_extension,
    hochschild_spec,
    is_associative,
    product_decompose,
    rank1_reduce,
    series_deform,
    unit_gauge,
)
from convdef.linalg import _Record
from convdef.specfile import SpecFile, parse_path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _f(name: str, **kw):
    return (name, object, dataclasses.field(**kw))


REPORT_FIELDS = ("zeta", "obstruction_vanishes", "nu0", "base_solution", "z2_basis", "b2_basis", "h2_reps",
                 "dim_z2", "dim_b2", "dim_h2", "coset_count", "zeta_class_rep")
SPEC_TABLES = ("coalgebras", "comodules", "cocycles", "algebras", "morphisms", "task", "checks")
# every record class with its former dataclass fields; all were frozen but SpecFile.  Comodule and Cocycle2 were
# plain classes, equal and hashed by the same fields; their constructors normalize the triples of NORMALIZED
NORMALIZED = ("coaction", "omega")
DECLARED = {
    CoalgebraReport: ["coassociative", "counit_left", "counit_right", "cocommutative",
                      _f("grading_compatible", default=None)],
    GroupLikeSet: ["elements"],
    SparseMatrix: ["field", "rows", "cols", "columns"],
    ConvMorphism: ["coalgebra", "components"],
    Comodule: ["base", "dim", "coaction"],
    Cocycle2: ["comodule", "omega"],
    Extension: ["base", "cocycle", "ctilde"],
    Cochain: ["degree", "maps"],
    CohomologyResult: ["degree", "dim_z", "dim_b", "dim_h", "representatives", "z_space", "b_space"],
    Rank1Reduction: ["m0", "chi", "chi_is_counit", "act_matrix", "hochschild"],
    ProductDecomposition: ["lines", "per_line", "totals"],
    AlgebraMC: ["m", _f("unit", default=None)],
    Deformation: ["base", "extension", "mtilde"],
    DeformationReport: [*REPORT_FIELDS, _f("spec", repr=False, compare=False)],
    ClassifyResult: ["report", "representatives"],
    SeriesStep: ["degree", "report", "chosen"],
    SeriesBranch: ["steps", "final", "stopped_at"],
    SeriesResult: ["branches"],
    UnitGaugeResult: ["gauge", "m_f", "u_lambda", "u_tilde"],
    SpecFile: ["field", *(_f(name, default_factory=dict) for name in SPEC_TABLES)],
}


def _oracle(cls):
    return dataclasses.make_dataclass(cls.__name__, DECLARED[cls], frozen=cls is not SpecFile)


@pytest.fixture(scope="module")
def instances() -> dict:
    """One instance of each record class, computed by the library."""
    sf = parse_path(str(FIXTURES / "poly_t2_dual.json"))[0]
    alg, d = sf.algebras["A"], sf.coalgebras["D"]
    ext = build_extension(sf.cocycles["w"])
    spec = ComplexSpec(alg.m, ext.comodule)
    grouplikes = find_grouplikes(ext.base)
    hs = hochschild_spec(sf.algebras["A0"].m.components[0])  # rank one
    lines = decompose_completely_reducible(hs.comodule, find_grouplikes(hs.m.coalgebra))
    classified = classify(alg, ext)
    series = series_deform(sf.algebras["A0"].m.components[0], d, 2)
    return {
        CoalgebraReport: d.validate(),
        GroupLikeSet: grouplikes,
        SparseMatrix: spec.differential_matrix(2),
        ConvMorphism: alg.m,
        Comodule: ext.comodule,
        Cocycle2: ext.cocycle,
        Extension: ext,
        Cochain: classified.report.zeta,
        CohomologyResult: spec.cohomology(2),
        Rank1Reduction: rank1_reduce(hs),
        ProductDecomposition: product_decompose(hs, lines),
        AlgebraMC: sf.algebras["A0"],
        Deformation: classified.representatives[0],
        DeformationReport: classified.report,
        ClassifyResult: classified,
        SeriesStep: series.primary.steps[0],
        SeriesBranch: series.primary,
        SeriesResult: series,
        UnitGaugeResult: unit_gauge(sf.algebras["At"].m, sf.algebras["A0"].unit),
        SpecFile: sf,
    }


def test_every_record_is_declared():
    assert set(_Record.__subclasses__()) == set(DECLARED)
    assert [cls for cls in DECLARED if "__dict__" in cls.__slots__] == [ConvMorphism, Comodule, Cocycle2]


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("cls", list(DECLARED), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass(cls, instances):
    obj, oracle = instances[cls], _oracle(cls)
    assert type(obj) is cls
    names = [f.name for f in dataclasses.fields(oracle)]
    assert [name for name in cls.__slots__ if name != "__dict__"] == names
    values = [getattr(obj, name) for name in names]
    by_keyword, by_position, ref = cls(**dict(zip(names, values))), cls(*values), oracle(*values)
    for made in (by_keyword, by_position):
        for name, value in zip(names, values):
            assert getattr(made, name) is value or name in NORMALIZED and getattr(made, name) == value, name
        assert made == obj and not made != obj
    assert repr(obj) == repr(ref)
    assert _hash_or_error(obj) == _hash_or_error(ref)
    assert (cls.__hash__ is None) == (cls is SpecFile) == (oracle.__hash__ is None)
    # a foreign class, the dataclass of the same name included, is left to its own __eq__
    for foreign in (ref, object(), None):
        assert obj.__eq__(foreign) is NotImplemented and obj != foreign
    # one field changed: unequal exactly where the dataclass compares it, and shown where it shows it
    for name in names:
        other, ref_other = copy.copy(obj), dataclasses.replace(ref, **{name: object()})
        setattr(other, name, getattr(ref_other, name))
        assert (other == obj) == (ref_other == ref), name
        assert (repr(other) == repr(obj)) == (repr(ref_other) == repr(ref)), name


def test_default_fields(instances):
    report = CoalgebraReport(True, True, True, False)
    assert report.grading_compatible is None and report.ok
    alg = instances[AlgebraMC]
    assert AlgebraMC(alg.m).unit is None
    field = instances[SpecFile].field
    first, second = SpecFile(field), SpecFile(field=field)
    assert all(getattr(first, name) == {} for name in SPEC_TABLES)
    assert all(getattr(first, name) is not getattr(second, name) for name in SPEC_TABLES)


def test_deformation_reports_differing_only_in_spec_are_equal(instances):
    report = instances[DeformationReport]
    other = copy.copy(report)
    other.spec = ComplexSpec(report.spec.m, report.spec.comodule)
    assert other.spec is not report.spec
    assert other == report and hash(other) == hash(report) and repr(other) == repr(report)
    assert "spec" not in repr(report)


def test_conv_morphism_cache_stays_out_of_eq_and_hash(instances):
    m = instances[ConvMorphism]
    fresh, twin = ConvMorphism(m.coalgebra, m.components), ConvMorphism(m.coalgebra, m.components)
    before = hash(fresh)
    assert fresh.__dict__ == {}
    fresh.integral_form
    assert is_associative(fresh)
    assert set(fresh.__dict__) == {"integral_form", "associative"} and twin.__dict__ == {}
    assert fresh == twin and hash(fresh) == hash(twin) == before and repr(fresh) == repr(twin)


def test_axiom_verdicts_are_kept_out_of_eq_and_hash(instances):
    """A comodule and a cocycle each check their axioms once; the kept verdict is no part of the value."""
    for cls in (Comodule, Cocycle2):
        obj = instances[cls]
        fresh, twin = (cls(*(getattr(obj, name) for name in cls._fields)) for _ in range(2))
        before = hash(fresh)
        assert fresh.__dict__ == {} and fresh.validate() is fresh.validate() and fresh.validate() == []
        assert set(fresh.__dict__) == {"_failures"} and twin.__dict__ == {}
        assert fresh == twin and hash(fresh) == hash(twin) == before and repr(fresh) == repr(twin)


def test_spec_file_is_mutable_and_equal_by_value():
    first, second = (parse_path(str(FIXTURES / "poly_t2_dual.json"))[0] for _ in range(2))
    assert first is not second and first == second
    with pytest.raises(TypeError):
        hash(first)
    second.task["algebra"] = "A0"
    assert first != second
    second.task = dict(first.task)
    assert first == second


def _invalid_records(sf):
    a0, at = sf.algebras["A0"], sf.algebras["At"]
    m, u = a0.m, a0.unit
    ext = graded_extension(sf.coalgebras["D"], 2)
    return [
        (lambda: ConvMorphism(at.m.coalgebra, m.components), ShapeError,
         "one component per coalgebra basis element required"),
        (lambda: ConvMorphism(sf.algebras["A"].m.coalgebra, (m.components[0], MultiMap.zero(sf.field, 3, 2, 1))),
         ShapeError, "shape mismatch between multimaps"),
        (lambda: Cochain(2, (MultiMap.zero(sf.field, 2, 3, 1),)), ShapeError, r"cochain maps must be A\^\(x\)2 -> A"),
        (lambda: AlgebraMC(u), ShapeError, r"multiplication must be a map C -> Hom\(A\(x\)A, A\)"),
        (lambda: AlgebraMC(m, at.m), ShapeError, "unit must live over the same coalgebra"),
        (lambda: AlgebraMC(m, m), ShapeError, r"unit must be a map C -> Hom\(k, A\)"),
        (lambda: Deformation(a0, ext, m), ShapeError, "deformation multiplication must live over Ctilde"),
        (lambda: Deformation(at, ext, at.m), SpecMismatch, "base algebra and extension base coalgebra differ"),
    ]


def test_every_construction_check_keeps_its_error():
    sf = parse_path(str(FIXTURES / "poly_t2_dual.json"))[0]
    for build, error, message in _invalid_records(sf):
        with pytest.raises(error, match=message):
            build()
