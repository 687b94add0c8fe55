"""A materialized deformation is checked by its Maurer-Cartan residual d^2(nu) = -zeta.

The gate: over Ctilde = C (+) X the associator of m (+) nu is affine in nu,
with an empty C-block and the X-block zeta + d^2(nu).  `make_deformation`
relies on it instead of computing that associator, so it is held equal to
`is_associative`, the full associator, on random cochains that do and do
not solve the equation.  The H^2 and Z^2 enumerations are held equal to
the `itertools.product` comprehension they replace.

`classify` and `series --strategy all` certify each enumerated family once,
by d^2 of its generators, instead of each member by its residual.  Every
member they return is held to the per-member residual and to
`is_associative`, and a family with a generator off Z^2 is refused.
`mc_solve` checks its base solution by the same residual, without
materializing a deformation, and builds no Fraction for the check.
"""

import itertools
import random

import pytest

from convdef import (
    AlgebraMC,
    Cochain,
    ConvMorphism,
    DeformationReport,
    MultiMap,
    ShapeError,
    SpecMismatch,
    Subspace,
    build_extension,
    classify,
    divided_power_t,
    epsilon_embed,
    graded_extension,
    is_associative,
    make_deformation,
    mc_solve,
    obstruction_zeta,
    polynomial_multi,
    series_deform,
)
from convdef import deformation
from convdef.cohomology import _associator
from convdef.deformation import Deformation, _affine_span, complex_of
from convdef.extension import Cocycle2
from convdef.fields import QQ
from convdef.specfile import parse_path, parse_text

from helpers import (
    F2,
    F3,
    F5,
    FIXTURES,
    direct_sum_comodule,
    dual_numbers,
    random_mixed_mult,
    fraction_constructions,
    random_nilpotent_comodule,
    truncated_poly,
    z2_basis,
)

FIELDS = pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])


def _with_summand(ext, y):
    """The extension by X (+) Y with omega zero on Y."""
    x = direct_sum_comodule(ext.comodule, y)
    return build_extension(Cocycle2(x, list(ext.cocycle.omega) + [[] for _ in range(y.dim)]))


def _cubic_layer_two(field, rng):
    """Layer 2 of k[x]/(x^3) along k[t]_{<=2}, over its layer-1 deformation by a random Z^2 element."""
    d = divided_power_t(2, field)
    start = AlgebraMC(m=epsilon_embed(truncated_poly(field, 3), d.sub_on_indices(d.degree_indices(0))))
    ext1 = graded_extension(d, 1)
    report = mc_solve(start, ext1)
    nu = report.base_solution
    for z in z2_basis(report):
        nu = nu + z.scale(field.random_element(rng))
    return AlgebraMC(m=make_deformation(start, ext1, nu).mtilde), graded_extension(d, 2)


def _instances(field, rng):
    """(algebra, extension, label): k[t]_{<=3} layers, a polynomial_multi(2, 2) layer, a direct-sum comodule, x^3."""
    out = []
    for n in (1, 2, 3):
        ext = graded_extension(divided_power_t(3, field), n)
        out.append((AlgebraMC(m=random_mixed_mult(ext.base, rng)), ext, f"t<=3 layer {n}"))
    ext = graded_extension(polynomial_multi(2, 2, field), 2)
    out.append((AlgebraMC(m=random_mixed_mult(ext.base, rng)), ext, "poly2 layer 2"))
    ext = graded_extension(divided_power_t(3, field), 2)
    summed = _with_summand(ext, random_nilpotent_comodule(ext.base, 2, rng))
    out.append((AlgebraMC(m=random_mixed_mult(summed.base, rng)), summed, "direct sum"))
    alg, ext = _cubic_layer_two(field, rng)
    out.append((alg, ext, "x^3 layer 2"))
    return out


def _random_cochain(spec, rng):
    f = spec.field
    return Cochain.from_flat(f, spec.a_dim, spec.x_dim, 2, [f.random_element(rng) for _ in range(spec.cochain_dim(2))])


def _candidates(report, spec, rng):
    """Random cochains, and when the equation is solvable random solutions base + z and those plus a bump."""
    f = spec.field
    out = [_random_cochain(spec, rng) for _ in range(3)]
    if report.obstruction_vanishes:
        for _ in range(3):
            nu = report.base_solution
            for z in z2_basis(report):
                nu = nu + z.scale(f.random_element(rng))
            out += [nu, nu + _random_cochain(spec, rng)]
    return out


@FIELDS
def test_associator_of_m_plus_nu_is_zeta_plus_d2_nu(field):
    """The C-block of the associator of m (+) nu is empty and its X-block is zeta + d^2(nu), for any nu."""
    rng = random.Random(83)
    nonzero_zeta = set()
    for alg, ext, label in _instances(field, rng):
        dc, spec = ext.base.dim, complex_of(alg, ext)
        zeta = obstruction_zeta(alg, ext)
        if not zeta.is_zero():
            nonzero_zeta.add(label)
        for nu in _candidates(mc_solve(alg, ext), spec, rng):
            form = _associator(ConvMorphism(ext.ctilde, tuple(alg.m.components) + nu.maps))
            assert not any(form[1][:dc]), label
            # canonical integral forms are equal exactly when the values are
            c_block = (MultiMap.zero(field, alg.a_dim, 3, 1),) * dc
            want = ConvMorphism(ext.ctilde, c_block + (zeta + spec.differential(nu)).maps)
            assert form == want.integral_form, label
    # zeta != 0 where the sign of zeta is decided, and on the x^3 layer it is so over every field
    assert "x^3 layer 2" in nonzero_zeta and len(nonzero_zeta) >= 2, nonzero_zeta


@FIELDS
def test_make_deformation_agrees_with_is_associative(field):
    """make_deformation accepts exactly the cochains whose m (+) nu `is_associative` and refuses the rest."""
    rng = random.Random(89)
    outcomes = set()
    for alg, ext, label in _instances(field, rng):
        report = mc_solve(alg, ext)
        if label == "x^3 layer 2":
            assert report.obstruction_vanishes and not report.zeta.is_zero()
        for nu in _candidates(report, complex_of(alg, ext), rng):
            mtilde = ConvMorphism(ext.ctilde, tuple(alg.m.components) + nu.maps)
            expect = is_associative(mtilde)
            outcomes.add(expect)
            if expect:
                assert make_deformation(alg, ext, nu).mtilde == mtilde, label
            else:
                with pytest.raises(ShapeError, match="deformed multiplication is not associative"):
                    make_deformation(alg, ext, nu)
            # the check a hand-built deformation runs on its own base
            d = Deformation(base=alg, extension=ext, mtilde=mtilde)
            if expect:
                d.require_valid()
            else:
                with pytest.raises(ShapeError, match="deformed multiplication is not associative"):
                    d.require_valid()
    assert outcomes == {True, False}


@FIELDS
def test_require_valid_refuses_a_c_block_off_the_base(field, monkeypatch):
    """`require_valid` checks the fiber condition; `make_deformation`, whose C-block is base.m by construction, does not."""
    rng = random.Random(101)
    refused = 0
    for alg, ext, label in _instances(field, rng):
        report = mc_solve(alg, ext)
        if not report.obstruction_vanishes:
            continue
        good = make_deformation(alg, ext, report.base_solution)
        good.require_valid()
        bump = MultiMap(field, alg.a_dim, 2, 1, {(rng.randrange(alg.a_dim), rng.randrange(alg.a_dim**2)): field.one})
        comps = list(good.mtilde.components)
        k = rng.randrange(ext.base.dim)
        comps[k] = comps[k] + bump
        bad = Deformation(base=alg, extension=ext, mtilde=ConvMorphism(ext.ctilde, tuple(comps)))
        with pytest.raises(SpecMismatch, match="does not restrict to the base algebra"):
            bad.require_valid()
        refused += 1
    assert refused >= 3
    monkeypatch.setattr(Deformation, "fiber_condition_holds", lambda self: pytest.fail("fiber check in make_deformation"))
    for alg, ext, _label in _instances(field, rng):
        report = mc_solve(alg, ext)
        if report.obstruction_vanishes:
            make_deformation(alg, ext, report.base_solution)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_affine_span_is_the_product_comprehension(p, k):
    """base + sum c_i v_i in `itertools.product` order, for c in F_p^k."""
    field = {2: F2, 3: F3, 5: F5}[p]
    rng = random.Random(97 + 10 * p + k)
    spec = complex_of(*_cubic_layer_two(field, rng)[:2])
    base, vectors = _random_cochain(spec, rng), [_random_cochain(spec, rng) for _ in range(k)]
    expect = [
        sum((v.scale(c) for c, v in zip(coeffs, vectors)), base)
        for coeffs in itertools.product(range(p), repeat=k)
    ]
    assert list(_affine_span(base, vectors, p)) == expect


def test_classify_checks_no_associator_after_mc_solve(monkeypatch):
    """classify over F_3 (27 representatives) verifies each by its residual: no is_associative call."""
    sf, _failures = parse_path(str(FIXTURES / "poly2_t2_f3.json"))
    alg, ext = sf.algebras["A"], build_extension(sf.cocycles["w"])
    calls, solved = [], []
    solve, check = deformation.mc_solve, deformation.is_associative
    monkeypatch.setattr(deformation, "mc_solve", lambda *a: solved.append(1) or solve(*a))
    monkeypatch.setattr(deformation, "is_associative", lambda m: calls.append(len(solved)) or check(m))
    result = classify(alg, ext)
    assert len(result.representatives) == 27 and solved == [1]
    assert calls == []


def test_series_all_builds_branches_lazily(monkeypatch):
    """`series --strategy all` adds no cochains for the branches past its budget."""
    adds = []
    add = Cochain.__add__
    monkeypatch.setattr(Cochain, "__add__", lambda a, b: adds.append(1) or add(a, b))
    res = series_deform(dual_numbers(F3), divided_power_t(1, F3), 1, strategy="all", branch_budget=2)
    assert len(res.branches) == 2
    # the second leaf of the prefix tree is one addition away from the base solution
    assert len(adds) == 1


def _fixture(name, field=None):
    """A spec fixture, parsed; `field` replaces the field it is written over."""
    text = (FIXTURES / name).read_text()
    if field is not None:
        text = text.replace('"field": "Q"', f'"field": "{field}"')
    return parse_text(text)[0]


def _classify_cases():
    """(label, algebra, extension): poly2_t2_f3 has 27 cosets; over Q classify takes [base] + [base + h]."""
    out = []
    for label, name, field in [("poly2 F3", "poly2_t2_f3.json", None), ("t2 Q", "poly_t2_dual.json", None),
                               ("t2 F2", "poly_t2_dual.json", "F2"), ("t2 F3", "poly_t2_f3.json", None)]:
        sf = _fixture(name, field)
        out.append((label, sf.algebras["A"], build_extension(sf.cocycles["w"])))
    return out


def _series_cases():
    """(label, m0, D) for `series --strategy all` over F_2 and F_3."""
    out = []
    for label, sf in [("poly_t2 F2", _fixture("poly_t2_dual.json", "F2")), ("poly_t2 F3", _fixture("poly_t2_f3.json"))]:
        out.append((label, sf.algebras["A0"].m.components[0], sf.coalgebras["D"]))
    for field in (F2, F3):
        out.append((f"x^3 t<=2 {field.char}", truncated_poly(field, 3), divided_power_t(2, field)))
        out.append((f"x^2 poly(2,2) {field.char}", dual_numbers(field), polynomial_multi(2, 2, field)))
    return out


def _holds_per_member(alg, ext, nu, label):
    """The per-member checks the family certificate replaces: the residual and the full associator."""
    spec, zeta = complex_of(alg, ext), obstruction_zeta(alg, ext)
    assert spec.differential(nu) == -zeta, label
    mtilde = ConvMorphism(ext.ctilde, tuple(alg.m.components) + nu.maps)
    assert is_associative(mtilde), label
    return mtilde


@pytest.mark.parametrize("label, alg, ext", [pytest.param(*case, id=case[0]) for case in _classify_cases()])
def test_classify_members_pass_the_per_member_check(label, alg, ext):
    """Every `classify` representative solves d^2(nu) = -zeta and is associative, checked one by one."""
    result = classify(alg, ext)
    report = result.report
    assert report.dim_h2 >= 1, label
    count = report.coset_count if alg.field.char else 1 + report.dim_h2
    assert len(result.representatives) == count, label
    assert label != "poly2 F3" or count == 27
    for d in result.representatives:
        assert _holds_per_member(alg, ext, d.m_x, label) == d.mtilde


@pytest.mark.parametrize("label, m0, d", [pytest.param(*case, id=case[0]) for case in _series_cases()])
def test_series_all_steps_pass_the_per_member_check(label, m0, d):
    """Every step of every `series --strategy all` branch passes the residual and `is_associative`, replayed from m0."""
    start = AlgebraMC(m=epsilon_embed(m0, d.sub_on_indices(d.degree_indices(0))))
    result = series_deform(m0, d, d.max_degree(), strategy="all")
    assert len(result.branches) > 1, label
    for branch in result.branches:
        alg = start
        for step in branch.steps:
            if step.chosen is None:
                continue
            alg = AlgebraMC(m=_holds_per_member(alg, graded_extension(d, step.degree), step.chosen, label))
        assert alg.m == branch.final.m, label


def _off_z2(report):
    """A unit cochain e_j with d^2(e_j) != 0."""
    spec = report.spec
    j = next(j for j, col in enumerate(spec.differential_matrix(2).columns) if col)
    return Cochain.from_entries(spec.field, spec.a_dim, spec.x_dim, 2, {j: spec.field.one})


def _with_bad_generator(monkeypatch, key):
    """`mc_solve` as seen from the deformation module, with a cochain off Z^2 appended to report.<key>."""
    solve = deformation.mc_solve

    def bad(*args):
        report = solve(*args)
        fields = {name: getattr(report, name) for name in report.__slots__}  # every field, `spec` too
        fields[key] += (_off_z2(report),)
        return DeformationReport(**fields)

    monkeypatch.setattr(deformation, "mc_solve", bad)


@pytest.mark.parametrize("label", ["poly2 F3", "t2 Q"])
def test_classify_refuses_a_representative_off_z2(label, monkeypatch):
    """An H^2 representative with d^2 != 0 is caught by the family certificate, before any member is returned."""
    _label, alg, ext = next(case for case in _classify_cases() if case[0] == label)
    _with_bad_generator(monkeypatch, "h2_reps")
    with pytest.raises(ShapeError, match="deformed multiplication is not associative"):
        classify(alg, ext)


def test_series_all_refuses_a_z2_generator_off_z2(monkeypatch):
    """A Z^2 generator with d^2 != 0 is caught by the family certificate of `series --strategy all`.

    The generators are the rows of the report's cached `spec.cocycles(2)`; after `mc_solve`, that read returns
    the span of Z^2 and a cochain off Z^2, so some RREF row it enumerates is off Z^2.
    """
    sf = _fixture("poly_t2_f3.json")
    solve = deformation.mc_solve

    def bad(*args):
        report = solve(*args)
        spec, z2 = report.spec, report.spec.cocycles(2)
        wider = Subspace(spec.field, z2.ambient, [*z2.rows.values(), _off_z2(report).flat_entries()])
        monkeypatch.setattr(spec, "cocycles", lambda n: wider)
        return report

    monkeypatch.setattr(deformation, "mc_solve", bad)
    with pytest.raises(ShapeError, match="deformed multiplication is not associative"):
        series_deform(sf.algebras["A0"].m.components[0], sf.coalgebras["D"], 2, strategy="all")


def test_families_check_one_residual_per_mc_solve(monkeypatch):
    """`classify` and `series --strategy all` run the residual once per `mc_solve`, on its base solution, and d^2
    once per enumerated family, on all its generators together: no member is checked on its own."""
    checks, solves = [], []  # (number of cochains, whether against zeta) per `_require_mc`
    require, solve = deformation._require_mc, deformation.mc_solve

    def spy(spec, nus, zeta=None):
        checks.append((len(nus), zeta is not None))
        return require(spec, nus, zeta)

    monkeypatch.setattr(deformation, "_require_mc", spy)
    monkeypatch.setattr(deformation, "mc_solve", lambda *a: solves.append(1) or solve(*a))
    _label, alg, ext = _classify_cases()[0]
    assert len(classify(alg, ext).representatives) == 27 and len(solves) == 1
    assert checks == [(1, True), (3, False)]  # the base, then the three H^2 representatives
    checks.clear()
    solves.clear()
    sf = _fixture("poly_t2_f3.json")
    result = series_deform(sf.algebras["A0"].m.components[0], sf.coalgebras["D"], 2, strategy="all")
    # the first degree-1 branch fills the budget of 16 at degree 2, so two solves and two families in all
    assert len(result.branches) == 16 and len(solves) == 2
    assert [against for _n, against in checks] == [True, False, True, False]
    assert [n for n, against in checks if against] == [1, 1]


def test_mc_solve_checks_its_base_without_a_deformation(monkeypatch):
    """`mc_solve` checks its base solution by the residual alone: no `make_deformation`, no Deformation."""
    calls = []
    monkeypatch.setattr(deformation, "make_deformation", lambda *a, **k: calls.append(a) or pytest.fail("built"))
    for _label, alg, ext in _classify_cases():
        assert mc_solve(alg, ext).obstruction_vanishes
    assert calls == []


def test_solves_refuses_a_cochain_off_the_complex():
    """The residual refuses, as `differential` does, a cochain of another comodule, algebra or field, and a batch
    that mixes degrees."""
    _label, alg, ext = _classify_cases()[1]
    spec, report = complex_of(alg, ext), mc_solve(alg, ext)
    nu = report.base_solution
    others = [Cochain(2, nu.maps * 2), Cochain.zero(QQ, nu.a_dim + 1, nu.x_dim, 2),
              Cochain.zero(F3, nu.a_dim, nu.x_dim, 2)]
    batches = [([other], None) for other in others] + [([nu, other], report.zeta) for other in others]
    for nus, zeta in batches + [([nu, report.zeta], None)]:
        with pytest.raises(ShapeError, match="cochain does not match the complex"):
            spec.solves(nus, zeta)
    assert spec.solves([nu], report.zeta) and spec.solves([report.zeta])
    assert not spec.solves([nu, nu + _off_z2(report)], report.zeta) and not spec.solves([_off_z2(report)])


def test_mc_solve_builds_fractions_only_for_its_answer():
    """On fixtures/deform_frac.json `mc_solve` builds at most 130 Fractions (453 when it built Z^2 and B^2 cochain
    bases and checked its base through Fraction cochains); the residual builds none."""
    sf = _fixture("deform_frac.json")
    alg, ext = sf.algebras["A"], build_extension(sf.cocycles["w"])
    with fraction_constructions() as count:
        report = mc_solve(alg, ext)
    assert report.obstruction_vanishes and count[0] <= 130
    spec, generators = report.spec, z2_basis(report)
    with fraction_constructions() as count:
        assert spec.solves([report.base_solution], report.zeta) and spec.solves(generators)
    assert count == [0]
