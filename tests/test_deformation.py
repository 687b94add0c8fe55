import itertools
import random

import pytest

from convdef import (
    AlgebraMC,
    Cochain,
    ComplexSpec,
    ConvDefError,
    ConvMorphism,
    MultiMap,
    NotInvertible,
    NotUnital,
    ShapeError,
    SpecMismatch,
    Subspace,
    UnsupportedSearch,
    build_extension,
    classify,
    conv_compose,
    conv_tensor,
    divided_power_t,
    epsilon_embed,
    gauge_transport,
    graded_extension,
    hochschild_spec,
    identity_conv,
    is_associative,
    is_unit_of,
    make_deformation,
    mc_solve,
    obstruction_zeta,
    polynomial_multi,
    series_deform,
    takeuchi_invert,
    trivial_k,
    unit_gauge,
)
from convdef.linalg import Matrix
from convdef import convolution, deformation
from convdef.convolution import _lincomb
from convdef.deformation import _gauge_from_cochain
from convdef.fields import QQ
from convdef.specfile import parse_path

from helpers import (
    dense_image,
    F2,
    F3,
    F5,
    FIXTURES,
    dense_compose,
    dense_differential_matrix,
    dense_tensor,
    equiv_check,
    fixture_specfiles,
    from_dense,
    dual_numbers,
    mat2_mult,
    mult_from_table,
    oracle_differential,
    oracle_is_associative,
    oracle_obstruction_zeta,
    oracle_unit_gauge,
    random_gauge_transported_mult,
    reduce_dense,
    square_zero_3,
    truncated_poly,
    truncated_poly_3,
    unit_column,
    xsq_deformation_algebra,
)


def m1_gamma(field):
    return mult_from_table(field, [[(0, 0), (0, 0)], [(0, 0), (1, 0)]])


def test_check_associative_embedded_matrix_algebra():
    c = divided_power_t(1, QQ)
    m = epsilon_embed(mat2_mult(QQ), c)
    assert is_associative(m)


def test_check_associative_xsq_family_and_perturbation():
    alg = xsq_deformation_algebra(QQ)
    assert is_associative(alg.m)
    comps = list(alg.m.components)
    bad = Matrix.from_rows(QQ, [[0, 1, 0, 0], [0, 0, 0, 0]])
    comps[1] = from_dense(bad, 2, 2, 1)
    assert not is_associative(ConvMorphism(alg.coalgebra, tuple(comps)))


def test_obstruction_zero_for_trivial_extension():
    d = divided_power_t(1, QQ)
    ext = graded_extension(d, 1)
    alg = AlgebraMC(m=epsilon_embed(dual_numbers(QQ), ext.base))
    zeta = obstruction_zeta(alg, ext)
    assert zeta.is_zero()
    # m o lambda is a deformation
    mlam = ConvMorphism(ext.ctilde, tuple(alg.m.evaluate(col) for col in ext.lam.columns))
    assert is_associative(mlam)
    d0 = make_deformation(alg, ext, Cochain(2, (MultiMap.zero(QQ, 2, 2, 1),)))
    assert d0.mtilde == mlam


def test_obstruction_is_associator_of_degree_one_term():
    # D = k[t], n = 2: zeta(t^2) = m1 o (A (x) m1) - m1 o (m1 (x) A)
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    zeta = obstruction_zeta(alg, ext)
    m1 = alg.m.components[1]
    ident = MultiMap.identity(QQ, 2, 1)
    expect = dense_compose(m1, dense_tensor(ident, m1)) - dense_compose(m1, dense_tensor(m1, ident))
    assert zeta.maps[0] == expect


def test_obstruction_vanishes_when_omega_hits_zero_components():
    # constant family: m vanishes on positive degrees where omega is supported
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = AlgebraMC(m=epsilon_embed(dual_numbers(QQ), ext.base))
    assert obstruction_zeta(alg, ext).is_zero()


def _first_order_cases(field, rng):
    """(label, alg, ext): m0 + sum nu_i t_i over D_{<2}, nu_i random Hochschild 2-cocycles of m0, along D_{<=2}."""
    out = []
    for mname, m0 in (("k[x]/(x^3)", truncated_poly(field, 3)), ("M_2", mat2_mult(field))):
        a = m0.a_dim
        z2 = hochschild_spec(m0).cohomology(2).z_space.dense_rows()
        for dname, d in (("k[t]<=3", divided_power_t(3, field)), ("poly(2,2)", polynomial_multi(2, 2, field))):
            ext = graded_extension(d, 2)
            for _trial in range(2):
                comps = []
                for g in ext.base.grading:
                    coeffs = [field.random_element(rng) for _ in z2]
                    flat = [sum((field.mul(c, row[i]) for c, row in zip(coeffs, z2)), field.zero) for i in range(a**3)]
                    nu = Cochain.from_flat(field, a, 1, 2, flat).maps[0]
                    comps.append(m0 if g == 0 else nu)
                out.append((f"{mname} along {dname}", AlgebraMC(m=ConvMorphism(ext.base, tuple(comps))), ext))
    return out


@pytest.mark.parametrize("field", [QQ, F3, F5], ids=["Q", "F3", "F5"])
def test_obstruction_zeta_matches_dense_oracle(field):
    """zeta off the sparse associator of m (+) 0 equals the dense omega sum: fixtures and first-order deformations."""
    rng = random.Random(53)
    cases = [
        (f"{name}:{aname}/{wname}", alg, build_extension(w))
        for name, sf in fixture_specfiles(field)
        for wname, w in sf.cocycles.items()
        for aname, alg in sf.algebras.items()
        if alg.coalgebra == w.comodule.base
    ]
    assert len(cases) >= 3
    cases += _first_order_cases(field, rng)
    nonzero = 0
    for label, alg, ext in cases:
        zeta = obstruction_zeta(alg, ext)
        assert zeta == oracle_obstruction_zeta(alg, ext), label
        nonzero += not zeta.is_zero()
    assert nonzero >= 8


def test_obstruction_zeta_refuses_non_associative_m():
    ext = graded_extension(divided_power_t(2, QQ), 2)
    comps = list(xsq_deformation_algebra(QQ).m.components)
    comps[1] = from_dense(Matrix.from_rows(QQ, [[0, 1, 0, 0], [0, 0, 0, 0]]), 2, 2, 1)
    with pytest.raises(ShapeError, match="not associative"):
        obstruction_zeta(AlgebraMC(m=ConvMorphism(ext.base, tuple(comps))), ext)
    with pytest.raises(ShapeError, match="not associative"):
        mc_solve(AlgebraMC(m=ConvMorphism(ext.base, tuple(comps))), ext)


def _readme_deform_instance():
    sf, _failures = parse_path(str(FIXTURES / "poly_t2_dual.json"))
    return sf.algebras["A"], build_extension(sf.cocycles["w"])


def test_mc_solve_checks_zeta_without_assembling_d3(monkeypatch):
    """`deform fixtures/poly_t2_dual.json`: only d^1 and d^2 are assembled; d^3 and d^2 are applied to entries.

    d^3 to zeta (d(zeta) = 0), then d^2 to the base solution (its residual d^2(nu) = -zeta).
    """
    assembled, applied = [], []
    matrix, differential = ComplexSpec.differential_matrix, ComplexSpec.differential
    monkeypatch.setattr(ComplexSpec, "differential_matrix", lambda self, n: assembled.append(n) or matrix(self, n))
    monkeypatch.setattr(ComplexSpec, "differential", lambda self, nu: applied.append(nu.degree) or differential(self, nu))
    assert mc_solve(*_readme_deform_instance()).obstruction_vanishes
    assert set(assembled) == {1, 2}
    assert applied == [3, 2]


def test_each_check_of_zeta_builds_one_complex(monkeypatch):
    """d(zeta) = 0 is checked in the complex the caller built: one per `mc_solve`, `make_deformation` and
    `Deformation.require_valid`, and one when `obstruction_zeta` is called alone."""
    built = []
    complex_of = deformation.complex_of
    monkeypatch.setattr(deformation, "complex_of", lambda alg, ext: built.append(1) or complex_of(alg, ext))
    alg, ext = _readme_deform_instance()
    report = mc_solve(alg, ext)  # its own re-verification reuses the report's complex
    assert len(built) == 1
    d = make_deformation(alg, ext, report.base_solution)
    assert len(built) == 2
    d.require_valid()
    assert len(built) == 3
    assert obstruction_zeta(alg, ext) == report.zeta
    assert len(built) == 4


def test_obstruction_zeta_refuses_a_non_cocycle(monkeypatch):
    """A zeta that fails d(zeta) = 0 is refused: the X-block of the associator plus one entry that is no cocycle."""
    alg, ext = _readme_deform_instance()
    spec = ComplexSpec(alg.m, ext.comodule)
    bump = {(0, 0): QQ.one}
    assert not oracle_differential(spec, Cochain(3, (MultiMap(QQ, 2, 3, 1, bump),))).is_zero()
    associator = deformation._associator

    def perturbed(m):
        den, assoc = associator(m)  # the canonical integral form: the values are assoc / den
        return den, assoc[:-1] + [_lincomb(QQ, ((1, assoc[-1]), (den, {key: 1 for key in bump})))]

    monkeypatch.setattr(deformation, "_associator", perturbed)
    with pytest.raises(ConvDefError, match="obstruction is not a 3-cocycle"):
        obstruction_zeta(alg, ext)


def test_mc_solutions_form_affine_space_over_z2():
    d = divided_power_t(1, QQ)
    ext = graded_extension(d, 1)
    alg = AlgebraMC(m=epsilon_embed(dual_numbers(QQ), ext.base))
    report = mc_solve(alg, ext)
    assert report.obstruction_vanishes
    assert report.base_solution.is_zero()
    # every Z^2 shift is again a deformation (re-verified associative)
    for z in report.z2_basis:
        make_deformation(alg, ext, z)


def test_mc_exhaustive_f2():
    # [DERIVED]: brute force over all 2^8 candidate cochains
    d = divided_power_t(2, F2)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(F2)
    report = mc_solve(alg, ext)
    sols = set()
    for bits in itertools.product(range(2), repeat=8):
        nu = Cochain.from_flat(F2, 2, 1, 2, bits)
        mt = ConvMorphism(ext.ctilde, tuple(alg.m.components) + tuple(nu.maps))
        if is_associative(mt):
            sols.add(bits)
    predicted = set()
    for coeffs in itertools.product(range(2), repeat=report.dim_z2):
        nu = report.base_solution
        for c, z in zip(coeffs, report.z2_basis):
            nu = nu + z.scale(c)
        predicted.add(nu.flatten())
    assert sols == predicted
    assert len(sols) == 2**report.dim_z2


def test_mc_solvability_equals_b3_membership():
    # solvable iff zeta lies in B^3 decided through the cohomology route
    from convdef import image

    cases = []
    d = divided_power_t(2, QQ)
    cases.append((xsq_deformation_algebra(QQ), graded_extension(d, 2)))
    nu_rows = [[0] * 9 for _ in range(3)]
    nu_rows[2][7] = 1
    nu = MultiMap.from_rows(QQ, 3, 2, 1, nu_rows)
    obstructed = AlgebraMC(
        m=ConvMorphism(graded_extension(d, 2).base, (square_zero_3(QQ), nu))
    )
    cases.append((obstructed, graded_extension(d, 2)))
    seen = set()
    for alg, ext in cases:
        report = mc_solve(alg, ext)
        spec = ComplexSpec(alg.m, ext.comodule)
        b3 = dense_image(dense_differential_matrix(spec, 2))
        member = b3.contains_vector(report.zeta.flatten())
        assert report.obstruction_vanishes == member
        seen.add(member)
    assert seen == {True, False}


def test_equiv_check_identity():
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    nu = mc_solve(alg, ext).base_solution
    d1 = make_deformation(alg, ext, nu)
    gauge = equiv_check(d1, d1)
    assert gauge is not None
    dc = ext.base.dim
    for comp in gauge.components[dc:]:
        assert comp.is_zero()


def test_equiv_construct_then_recover():
    rng = random.Random(17)
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    base = make_deformation(alg, ext, mc_solve(alg, ext).base_solution)
    for _ in range(5):
        fx = MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
        gauge = _gauge_from_cochain(ext, Cochain(1, (fx,)))
        moved = gauge_transport(base, gauge)
        back = equiv_check(base, moved)
        assert back is not None
        assert gauge_transport(base, back).mtilde == moved.mtilde


def test_equiv_distinguishes_cosets():
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    report = mc_solve(alg, ext)
    assert report.dim_h2 >= 1
    d1 = make_deformation(alg, ext, report.base_solution)
    shifted = report.base_solution + report.h2_reps[0]
    d2 = make_deformation(alg, ext, shifted)
    assert equiv_check(d1, d2) is None
    # and they reduce to different canonical coset representatives
    b2 = Subspace.span(QQ, len(shifted.flatten()), [b.flatten() for b in report.b2_basis])
    assert reduce_dense(b2, d1.m_x.flatten()) != reduce_dense(b2, d2.m_x.flatten())


def test_equiv_requires_same_extension():
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    d1 = make_deformation(alg, ext, mc_solve(alg, ext).base_solution)
    dd = divided_power_t(1, QQ)
    ext1 = graded_extension(dd, 1)
    alg1 = AlgebraMC(m=epsilon_embed(dual_numbers(QQ), ext1.base))
    d2 = make_deformation(alg1, ext1, mc_solve(alg1, ext1).base_solution)
    with pytest.raises(SpecMismatch):
        equiv_check(d1, d2)


def test_gauge_transport_identity_and_inverse_round_trip():
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    base = make_deformation(alg, ext, mc_solve(alg, ext).base_solution)
    e = identity_conv(ext.ctilde, 2, 1)
    assert gauge_transport(base, e).mtilde == base.mtilde
    fx = MultiMap.from_rows(QQ, 2, 1, 1, [[0, 1], [2, 3]])
    gauge = _gauge_from_cochain(ext, Cochain(1, (fx,)))
    moved = gauge_transport(base, gauge)
    inv = takeuchi_invert(gauge)
    assert gauge_transport(moved, inv).mtilde == base.mtilde


def test_gauge_transport_refuses_mismatched_shapes():
    """A gauge of unequal arities is refused by the inversion, and one on another A or of arity 2 by the shape check."""
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    base = make_deformation(alg, ext, mc_solve(alg, ext).base_solution)
    ct = ext.ctilde
    with pytest.raises(ShapeError, match="gauge must live over Ctilde"):
        gauge_transport(base, identity_conv(ext.base, 2, 1))
    with pytest.raises(NotInvertible, match="only square-arity"):
        gauge_transport(base, ConvMorphism(ct, (MultiMap.zero(QQ, 2, 1, 2),) * ct.dim))
    for gauge in (identity_conv(ct, 3, 1), identity_conv(ct, 2, 2)):
        with pytest.raises(ShapeError, match="arity mismatch in convolution composition"):
            gauge_transport(base, gauge)


def test_gauge_transport_classical_action():
    # over k[t]_{<=1}: transport by Id + f1 t sends m1 to m1 + d^1(f1)
    rng = random.Random(23)
    d = divided_power_t(1, QQ)
    ext = graded_extension(d, 1)
    alg = AlgebraMC(m=epsilon_embed(dual_numbers(QQ), ext.base))
    spec = ComplexSpec(alg.m, ext.comodule)
    nu = Cochain(2, (m1_gamma(QQ),))
    assert spec.differential(nu).is_zero()
    base = make_deformation(alg, ext, nu)
    f1 = MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
    fx = Cochain(1, (f1,))
    moved = gauge_transport(base, _gauge_from_cochain(ext, fx))
    assert moved.m_x == nu + spec.differential(fx)


def test_series_infinitesimal_always_solvable():
    rng = random.Random(29)
    from helpers import random_algebra

    for field in (QQ, F5):
        d = divided_power_t(1, field)
        m0 = random_algebra(field, 2, rng)
        res = series_deform(m0, d, 1)
        assert res.primary.stopped_at is None
        step = res.primary.steps[0]
        assert step.report.zeta.is_zero()


def test_series_recovers_xsq_deformation():
    m0 = dual_numbers(QQ)
    d = divided_power_t(2, QQ)
    user = {1: Cochain(2, (m1_gamma(QQ),))}
    res = series_deform(m0, d, 2, strategy="user", user_cochains=user)
    branch = res.primary
    assert branch.stopped_at is None
    final = branch.final
    assert final.m.components[1] == m1_gamma(QQ)
    assert final.m.components[2].is_zero()
    # coefficientwise associativity up to degree 2 is associativity over D_{<=2}
    assert is_associative(final.m)


def test_series_rigid_algebra_every_class_trivial():
    # A = M2: H^2 vanishes at every step, so each step's classes collapse
    m0 = mat2_mult(QQ)
    d = divided_power_t(2, QQ)
    res = series_deform(m0, d, 2)
    for step in res.primary.steps:
        assert step.report.obstruction_vanishes
        assert step.report.dim_h2 == 0


def test_series_stops_at_obstruction():
    m0 = square_zero_3(QQ)
    nu_rows = [[0] * 9 for _ in range(3)]
    nu_rows[2][7] = 1  # nu(y (x) x) = y: a cocycle with non-exact square
    nu = MultiMap.from_rows(QQ, 3, 2, 1, nu_rows)
    d = divided_power_t(2, QQ)
    res = series_deform(m0, d, 2, strategy="user", user_cochains={1: Cochain(2, (nu,))})
    branch = res.primary
    assert branch.stopped_at == 2
    last = branch.steps[-1].report
    assert not last.obstruction_vanishes
    assert not last.zeta_class_rep.is_zero()


def test_series_all_strategy_enumerates_over_finite_field():
    m0 = dual_numbers(F2)
    d = divided_power_t(1, F2)
    res = series_deform(m0, d, 1, strategy="all", branch_budget=100)
    # one branch per Z^2 element
    step0 = res.branches[0].steps[0]
    assert len(res.branches) == 2**step0.report.dim_z2
    for b in res.branches:
        assert is_associative(b.final.m)


def test_series_branch_budget_keeps_a_prefix():
    for field in (F2, F3):
        for top in (2, 3):
            d = divided_power_t(top, field)
            full = series_deform(dual_numbers(field), d, top, strategy="all", branch_budget=9).branches
            assert len(full) == 9
            for budget in (0, 1, 2, 5, 8):
                res = series_deform(dual_numbers(field), d, top, strategy="all", branch_budget=budget)
                assert res.branches == full[:budget]


def test_series_all_strategy_needs_finite_field():
    with pytest.raises(UnsupportedSearch):
        series_deform(dual_numbers(QQ), divided_power_t(1, QQ), 1, strategy="all")


def test_classify_matches_coset_count_over_f2():
    d = divided_power_t(2, F2)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(F2)
    result = classify(alg, ext)
    assert result.report.coset_count == 2**result.report.dim_h2
    assert len(result.representatives) == result.report.coset_count
    # representatives are pairwise inequivalent
    for i, d1 in enumerate(result.representatives):
        for d2 in result.representatives[i + 1 :]:
            assert equiv_check(d1, d2) is None


def test_unit_gauge_already_unital_gives_identity():
    alg = xsq_deformation_algebra(QQ)
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    deform = make_deformation(alg, ext, mc_solve(alg, ext).base_solution)
    mt = deform.mtilde
    c0 = mt.coalgebra.sub_on_indices([0])
    u = ConvMorphism(c0, (unit_column(QQ, 2),))
    out = unit_gauge(mt, u)
    assert out.gauge == identity_conv(mt.coalgebra, 2, 1)
    assert is_unit_of(out.m_f, out.u_lambda)


def test_unit_gauge_break_repair_round_trip():
    rng = random.Random(31)
    alg = xsq_deformation_algebra(QQ)
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    mt = make_deformation(alg, ext, mc_solve(alg, ext).base_solution).mtilde
    ct = mt.coalgebra
    c0 = ct.sub_on_indices([0])
    u = ConvMorphism(c0, (unit_column(QQ, 2),))
    for _ in range(3):
        comps = [MultiMap.identity(QQ, 2, 1)]
        for _k in range(1, ct.dim):
            comps.append(MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)]))
        h = ConvMorphism(ct, tuple(comps))
        hinv = takeuchi_invert(h)
        broken = conv_compose(conv_compose(hinv, mt), conv_tensor(h, h))
        out = unit_gauge(broken, u)
        assert is_unit_of(out.m_f, out.u_lambda)
        assert is_unit_of(broken, out.u_tilde)


def test_unit_gauge_matches_oracle():
    """The carried-forward transport equals the per-degree recomputation, component for component.

    Each multiplication is a unital one embedded along the counit, broken by
    a random gauge that is the identity in degree 0 (the c10 construction).
    """
    rng = random.Random(47)
    cases = 0
    for field in (QQ, F3, F5):
        coalgebras = [divided_power_t(n, field) for n in range(6)] + [polynomial_multi(2, 3, field)]
        for ct in coalgebras:
            for m0 in (dual_numbers(field), truncated_poly_3(field)):
                u = ConvMorphism(ct.sub_on_indices([0]), (unit_column(field, m0.a_dim),))
                broken = random_gauge_transported_mult(ct, m0, rng)
                got, want = unit_gauge(broken, u), oracle_unit_gauge(broken, u)
                assert (got.gauge, got.m_f, got.u_tilde) == (want.gauge, want.m_f, want.u_tilde)
                cases += 1
    assert cases == 42


def test_unit_gauge_rejects_non_unit():
    alg = xsq_deformation_algebra(QQ)
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    mt = make_deformation(alg, ext, mc_solve(alg, ext).base_solution).mtilde
    c0 = mt.coalgebra.sub_on_indices([0])
    bad = ConvMorphism(c0, (unit_column(QQ, 2, index=1),))
    with pytest.raises(NotUnital):
        unit_gauge(mt, bad)


def test_unit_gauge_runs_no_elimination(monkeypatch):
    """Each step is inverted by its terminating power series: no Subspace (every elimination), no takeuchi_invert."""
    rng = random.Random(59)
    cases = []
    for field in (QQ, F3, F5):
        for ct in (divided_power_t(4, field), polynomial_multi(2, 3, field)):
            u = ConvMorphism(ct.sub_on_indices([0]), (unit_column(field, 2),))
            cases.append((random_gauge_transported_mult(ct, dual_numbers(field), rng), u))
    calls = []
    init, invert = Subspace.__init__, deformation.takeuchi_invert
    series = deformation._unipotent_inverse
    monkeypatch.setattr(Subspace, "__init__", lambda self, *a: calls.append("Subspace") or init(self, *a))
    monkeypatch.setattr(deformation, "takeuchi_invert", lambda *a: calls.append("invert") or invert(*a))
    monkeypatch.setattr(deformation, "_unipotent_inverse", lambda *a: calls.append("series") or series(*a))
    for broken, u in cases:
        out = unit_gauge(broken, u)
        assert is_unit_of(out.m_f, out.u_lambda) and is_unit_of(broken, out.u_tilde)
    assert set(calls) == {"series"}


def test_unit_gauge_builds_only_the_morphisms_it_returns(monkeypatch):
    """The steps are carried as integral forms: `_from_form` builds m_f, the gauge and u_tilde once each, and nothing else.

    A multiplication that is already unital takes no step and is returned itself as m_f.
    """
    rng = random.Random(67)
    cases = []
    for field in (QQ, F3):
        ct = divided_power_t(4, field)
        u = ConvMorphism(ct.sub_on_indices([0]), (unit_column(field, 2),))
        cases += [(random_gauge_transported_mult(ct, dual_numbers(field), rng), u, False)]
        cases += [(epsilon_embed(dual_numbers(field), ct), u, True)]
    built, steps = [], []
    from_form, series = convolution._from_form, deformation._unipotent_inverse
    for module in (convolution, deformation):
        monkeypatch.setattr(module, "_from_form", lambda *a: built.append(from_form(*a)) or built[-1])
    monkeypatch.setattr(deformation, "_unipotent_inverse", lambda *a: steps.append(a) or series(*a))
    for mt, u, unital in cases:
        del built[:], steps[:]
        out = unit_gauge(mt, u)
        assert (out.m_f is mt) == unital and (steps == []) == unital and (unital or len(steps) >= 2)
        returned = [out.gauge, out.u_tilde] + ([] if unital else [out.m_f])
        assert sorted(map(id, built)) == sorted(map(id, returned))


def test_unit_gauge_refuses_a_non_associative_multiplication():
    """Called directly, with no verdict cached on mtilde, unit_gauge runs the associator and refuses."""
    ct = divided_power_t(2, QQ)
    m1 = MultiMap.from_rows(QQ, 2, 2, 1, [[0, 1, 0, 0], [0, 0, 0, 0]])
    mt = ConvMorphism(ct, (dual_numbers(QQ), m1, MultiMap.zero(QQ, 2, 2, 1)))
    assert not oracle_is_associative(mt)
    u = ConvMorphism(ct.sub_on_indices([0]), (unit_column(QQ, 2),))
    with pytest.raises(ShapeError, match="not associative"):
        unit_gauge(mt, u)


def test_algebra_unit_validation():
    k = trivial_k(QQ)
    m = epsilon_embed(dual_numbers(QQ), k)
    u = ConvMorphism(k, (unit_column(QQ, 2),))
    AlgebraMC(m=m, unit=u).require_valid()
    bad = ConvMorphism(k, (unit_column(QQ, 2, index=1),))
    with pytest.raises(NotUnital):
        AlgebraMC(m=m, unit=bad).require_valid()
