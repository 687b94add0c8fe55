"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything asserts exact equality; randomized instances use fixed seeds.
"""

import itertools
import random
from pathlib import Path

from convdef import (
    AlgebraMC,
    Cochain,
    ComplexSpec,
    ConvMorphism,
    MultiMap,
    build_extension,
    classify,
    congruent_mod,
    conv_compose,
    conv_tensor,
    divided_power_t,
    epsilon_embed,
    find_grouplikes,
    gauge_transport,
    graded_extension,
    grouplike_coalgebra,
    grouplike_comodule,
    identity_conv,
    is_associative,
    is_unit_of,
    make_deformation,
    mc_solve,
    obstruction_zeta,
    polynomial_multi,
    series_deform,
    split_extension,
    takeuchi_invert,
    trivial_k,
    unit_gauge,
)
from convdef.deformation import _gauge_from_cochain
from convdef.fields import QQ
from convdef.specfile import parse_path, parse_text, serialize

import oracle_hochschild as oracle
from helpers import (
    CATALOG_2,
    F2,
    F5,
    dense_compose,
    dense_differential_matrix,
    dense_tensor,
    dual_numbers,
    from_dense,
    mat2_mult,
    mult_from_table,
    oracle_coface,
    oracle_differential,
    oracle_kernel,
    random_algebra,
    random_gauge_transported_mult,
    random_grouplike_comodule,
    random_invertible,
    random_nilpotent_comodule,
    reduce_dense,
    square_zero_3,
    table_from_mult,
    unit_column,
    xsq_deformation_algebra,
    z2_basis,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _ok(num: int, message: str) -> None:
    print(f"[criterion {num:2d}] PASS: {message}")


def m1_gamma(field):
    return mult_from_table(field, [[(0, 0), (0, 0)], [(0, 0), (1, 0)]])


def rand_cochain(spec, n, rng):
    f = spec.field
    return Cochain.from_flat(
        f, spec.a_dim, spec.x_dim, n, [f.random_element(rng) for _ in range(spec.cochain_dim(n))]
    )


def _random_spec(kind: int, rng) -> ComplexSpec:
    """A random valid (algebra, comodule) pair over one of the three base coalgebras."""
    if kind == 0:  # C = k
        field = rng.choice((QQ, F5))
        a_dim = 3 if rng.random() < 0.3 else 2
        c = trivial_k(field)
        m = epsilon_embed(random_algebra(field, a_dim, rng), c)
        x = grouplike_comodule(c, rng.randint(1, 2), (field.one,))
        return ComplexSpec(m, x)
    if kind == 1:  # C = k[t]_{<=2}
        field = rng.choice((QQ, F5))
        a_dim = 3 if rng.random() < 0.2 else 2
        c = divided_power_t(2, field)
        m = random_gauge_transported_mult(c, random_algebra(field, a_dim, rng), rng)
        x = random_nilpotent_comodule(c, rng.randint(1, 2), rng)
        return ComplexSpec(m, x)
    # C = group-algebra coalgebra of dimension 2 over F5
    c = grouplike_coalgebra(2, F5)
    m = ConvMorphism(c, (random_algebra(F5, 2, rng), random_algebra(F5, 2, rng)))
    x = random_grouplike_comodule(c, rng.randint(1, 2), rng)
    return ComplexSpec(m, x)


def test_c01_cosimplicial_identities():
    rng = random.Random(101)
    count = 0
    for trial in range(102):
        spec = _random_spec(trial % 3, rng)
        n = trial % 3
        nu = rand_cochain(spec, n, rng)
        for j in range(1, n + 3):
            for i in range(j):
                lhs = oracle_coface(spec, j, n + 1, oracle_coface(spec, i, n, nu))
                rhs = oracle_coface(spec, i, n + 1, oracle_coface(spec, j - 1, n, nu))
                assert lhs == rhs
        assert oracle_differential(spec, oracle_differential(spec, nu)).is_zero()
        count += 1
    assert count >= 100
    _ok(1, f"cosimplicial identities and d o d = 0 exact on {count} random specs")


def _random_graded_instance(trial: int, rng):
    field = rng.choice((QQ, F5))
    shape = trial % 4
    if shape == 0:
        d, n = divided_power_t(2, field), 2
    elif shape == 1:
        d, n = divided_power_t(3, field), 3
    elif shape == 2:
        d, n = polynomial_multi(2, 2, field), 2
    else:
        d, n = divided_power_t(3, field), 2
    ext = graded_extension(d, n)
    a_dim = 2
    style = rng.randrange(3)
    if style == 0:
        m = epsilon_embed(random_algebra(field, a_dim, rng), ext.base)
    elif style == 1:
        m = random_gauge_transported_mult(ext.base, random_algebra(field, a_dim, rng), rng)
    else:
        # constant family plus a random Hochschild 2-cocycle in the t slot
        m0 = random_algebra(field, a_dim, rng)
        from convdef import hochschild_spec

        hs = hochschild_spec(m0)
        z2 = oracle_kernel(dense_differential_matrix(hs, 2))
        comps = [MultiMap.zero(field, a_dim, 2, 1)] * ext.base.dim
        comps[0] = m0
        if z2 and ext.base.grading.count(1) > 0:
            pick = z2[rng.randrange(len(z2))]
            slot = ext.base.grading.index(1)
            comps[slot] = Cochain.from_flat(field, a_dim, 1, 2, pick).maps[0]
        m = ConvMorphism(ext.base, tuple(comps))
        if not is_associative(m):
            m = epsilon_embed(m0, ext.base)
    return AlgebraMC(m=m), ext


def test_c02_obstruction_theorem():
    rng = random.Random(202)
    checked = 0
    for trial in range(50):
        alg, ext = _random_graded_instance(trial, rng)
        zeta = obstruction_zeta(alg, ext)  # raises unless d^3(zeta) = 0
        spec = ComplexSpec(alg.m, ext.comodule)
        assert spec.differential(zeta).is_zero()
        checked += 1
    assert checked >= 50

    # engineered instances: solvability must agree with zeta in B^3 computed
    # by the independent bar-complex oracle
    agreements = 0
    instances = []
    # (a) obstructed: square-zero dim 3 with the nu(y,x) = y cocycle
    for field in (QQ, F2):
        m0 = square_zero_3(field)
        nu_rows = [[0] * 9 for _ in range(3)]
        nu_rows[2][7] = 1
        nu = MultiMap.from_rows(field, 3, 2, 1, nu_rows)
        d = divided_power_t(2, field)
        ext = graded_extension(d, 2)
        alg = AlgebraMC(m=ConvMorphism(ext.base, (m0, nu)))
        instances.append((alg, ext, m0))
    # (b) solvable: the x^2 = t family
    d = divided_power_t(2, QQ)
    instances.append((xsq_deformation_algebra(QQ), graded_extension(d, 2), dual_numbers(QQ)))
    # (c) solvable with nonzero zeta: group-like base, mixed multiplications
    gg = grouplike_coalgebra(2, QQ)
    x = grouplike_comodule(gg, 1, (1, 0))
    from convdef import Cocycle2

    w = Cocycle2(x, [[(0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 1, 1)]])
    ext_g = build_extension(w)
    m_kk = mult_from_table(QQ, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]])
    alg_g = AlgebraMC(m=ConvMorphism(gg, (dual_numbers(QQ), m_kk)))
    instances.append((alg_g, ext_g, dual_numbers(QQ)))
    saw_obstructed = saw_solvable = False
    for alg, ext, line_mult in instances:
        report = mc_solve(alg, ext)
        # oracle membership: the coaction lands on a single group-like, so the
        # complex is Hom(X, Hochschild complex of the line multiplication)
        table = table_from_mult(line_mult)
        field = alg.field
        d2_oracle = oracle.boundary_matrix(field, line_mult.a_dim, table, 2)
        member = all(
            oracle.solve_in_image(field, d2_oracle, [x for row in mp.rows() for x in row])
            for mp in report.zeta.maps
        )
        assert report.obstruction_vanishes == member
        saw_obstructed |= not member
        saw_solvable |= member
        agreements += 1
    assert saw_obstructed and saw_solvable
    _ok(2, f"d^3(zeta) = 0 on {checked} random graded extensions; "
           f"solvability == oracle B^3 membership on {agreements}/{agreements} engineered instances")


def test_c03_trivial_extension():
    d = divided_power_t(1, QQ)
    ext = graded_extension(d, 1)
    for mk in CATALOG_2:
        alg = AlgebraMC(m=epsilon_embed(mk(QQ), ext.base))
        zeta = obstruction_zeta(alg, ext)
        assert zeta.is_zero()
        # m o lambda validates as a deformation
        mlam = ConvMorphism(
            ext.ctilde, tuple(alg.m.evaluate(col) for col in ext.lam.columns)
        )
        deform = make_deformation(alg, ext, Cochain.zero(QQ, 2, 1, 2))
        assert deform.mtilde == mlam
    _ok(3, "zeta = 0 identically for D = k[t], n = 1 and m o lambda is a deformation")


def test_c04_gerstenhaber_recovery():
    m0 = dual_numbers(QQ)
    m1 = m1_gamma(QQ)
    d = divided_power_t(2, QQ)
    user = {1: Cochain(2, (m1,))}
    res = series_deform(m0, d, 2, strategy="user", user_cochains=user)
    branch = res.primary
    assert branch.stopped_at is None
    comps = branch.final.m.components
    assert comps[0] == m0 and comps[1] == m1 and comps[2].is_zero()
    # coefficient equations of the associativity condition for n = 0, 1, 2
    ident = MultiMap.identity(QQ, 2, 1)
    seq = [comps[0], comps[1], comps[2]]
    for n in range(3):
        lhs = MultiMap.zero(QQ, 2, 3, 1)
        rhs = MultiMap.zero(QQ, 2, 3, 1)
        for i in range(n + 1):
            lhs = lhs + dense_compose(seq[i], dense_tensor(seq[n - i], ident))
            rhs = rhs + dense_compose(seq[i], dense_tensor(ident, seq[n - i]))
        assert lhs == rhs
    # the degree-2 obstruction equals the associator of m1
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    zeta = obstruction_zeta(alg, ext)
    associator = dense_compose(m1, dense_tensor(ident, m1)) - dense_compose(m1, dense_tensor(m1, ident))
    assert zeta.maps[0] == associator
    _ok(4, "series recovers the x^2 = t deformation; (AC) holds for n <= 2 and "
           "zeta(t^2) is the associator of m1")


def test_c05_cohomology_oracle():
    from convdef import hochschild_dims

    assert hochschild_dims(dual_numbers(QQ), [2])[2] == 1
    assert hochschild_dims(mat2_mult(QQ), [2])[2] == 0
    assert oracle.hh_dim(QQ, 2, table_from_mult(dual_numbers(QQ)), 2) == 1
    assert oracle.hh_dim(QQ, 4, table_from_mult(mat2_mult(QQ)), 2) == 0
    rng = random.Random(505)
    agree = 0
    for trial in range(20):
        a_dim = 2 if trial % 2 == 0 else 3
        m0 = random_algebra(F5, a_dim, rng)
        main = hochschild_dims(m0, [2])[2]
        ora = oracle.hh_dim(F5, a_dim, table_from_mult(m0), 2)
        assert main == ora
        agree += 1
    _ok(5, f"HH^2 oracle values match (dual numbers: 1, M2: 0) and on {agree} random F5 algebras")


def test_c06_rank_one_theorem():
    from convdef import rank1_reduce

    rng = random.Random(606)
    checked = 0
    cases = []
    for field in (QQ, F5):
        for mk in CATALOG_2:
            m0 = mk(field)
            if m0.is_zero():
                continue  # rank 0 is excluded by the theorem
            cases.append((field, m0))
    for field, m0 in cases:
        for base_kind in range(2):
            if checked >= 12:
                break
            if base_kind == 0:
                c = divided_power_t(1, field)
                x = random_nilpotent_comodule(c, rng.randint(1, 3), rng)
            else:
                c = grouplike_coalgebra(2, field)
                x = random_grouplike_comodule(c, rng.randint(1, 3), rng)
            spec = ComplexSpec(epsilon_embed(m0, c), x)
            red = rank1_reduce(spec, degrees=(2,))
            assert red.chi_is_counit
            hh2 = red.hochschild.cohomology(2).dim_h
            assert spec.cohomology(2).dim_h == x.dim * hh2
            checked += 1
    assert checked >= 10
    _ok(6, f"dim H^2_X = dim X * dim HH^2 on {checked} rank-1 instances with chi = eps")


def test_c07_completely_reducible():
    from convdef import decompose_completely_reducible, product_decompose

    rng = random.Random(707)
    checked = 0
    while checked < 10:
        field = rng.choice((QQ, F5))
        k = rng.randint(2, 3)
        cg = grouplike_coalgebra(k, field)
        m = ConvMorphism(cg, tuple(random_algebra(field, 2, rng) for _ in range(k)))
        x = random_grouplike_comodule(cg, rng.randint(1, 3), rng)
        spec = ComplexSpec(m, x)
        lines = decompose_completely_reducible(x, find_grouplikes(cg))
        assert lines is not None
        dec = product_decompose(spec, lines, degrees=(1, 2, 3))
        # cross-check each degree against the oracle on every line
        for n in (1, 2, 3):
            total_oracle = 0
            for _vec, g in lines:
                m_i = spec.m.evaluate(dict(enumerate(g)))
                total_oracle += oracle.hh_dim(field, 2, table_from_mult(m_i), n)
            assert spec.cohomology(n).dim_h == total_oracle == dec.totals[n]
        checked += 1
    _ok(7, f"dim H^n_X = sum of line HH^n for n in {{1,2,3}} on {checked} "
           "pointed cosemisimple instances")


def test_c08_takeuchi_inversion():
    rng = random.Random(808)
    checked = 0
    for trial in range(50):
        field = QQ if trial % 2 == 0 else F5
        c = divided_power_t(3, field)
        comps = [from_dense(random_invertible(field, 2, rng), 2, 1, 1)]
        for _ in range(3):
            comps.append(
                MultiMap.from_rows(field, 2, 1, 1, [[field.random_element(rng) for _ in range(2)] for _ in range(2)])
            )
        f = ConvMorphism(c, tuple(comps))
        g = takeuchi_invert(f)
        e = identity_conv(c, 2, 1)
        assert conv_compose(f, g) == e
        assert conv_compose(g, f) == e
        checked += 1
    assert checked >= 50
    # (Id + f)^{-1} == Id - f mod n+1 whenever f == 0 mod n
    c = divided_power_t(3, QQ)
    filt = c.grading_filtration()
    e = identity_conv(c, 2, 1)
    congruences = 0
    for n in (0, 1, 2):
        for _ in range(5):
            comps = [MultiMap.zero(QQ, 2, 1, 1)] * (n + 1)
            while len(comps) < 4:
                comps.append(
                    MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
                )
            f = ConvMorphism(c, tuple(comps))
            g = takeuchi_invert(e + f)
            assert congruent_mod(g, e - f, n + 1, filt)
            congruences += 1
    _ok(8, f"two-sided inverse identities exact on {checked} random morphisms; "
           f"(Id+f)^(-1) == Id-f mod n+1 on {congruences} instances")


def test_c09_equivalence_classification_f2():
    instances = [
        xsq_deformation_algebra(F2),
        AlgebraMC(m=epsilon_embed(dual_numbers(F2), divided_power_t(1, F2))),
    ]
    d = divided_power_t(2, F2)
    ext = graded_extension(d, 2)
    total_checked = 0
    for alg in instances:
        report = mc_solve(alg, ext)
        assert report.obstruction_vanishes
        sols = set()
        for bits in itertools.product(range(2), repeat=8):
            nu = Cochain.from_flat(F2, 2, 1, 2, bits)
            mt = ConvMorphism(ext.ctilde, tuple(alg.m.components) + tuple(nu.maps))
            if is_associative(mt):
                sols.add(bits)
        predicted = set()
        for coeffs in itertools.product(range(2), repeat=report.dim_z2):
            nu = report.base_solution
            for cbit, z in zip(coeffs, z2_basis(report)):
                nu = nu + z.scale(cbit)
            predicted.add(nu.flatten())
        assert sols == predicted
        b2 = report.spec.coboundaries(2)
        cosets = {reduce_dense(b2, s) for s in sols}
        assert len(cosets) == 2**report.dim_h2 == report.coset_count
        # classify materializes exactly one representative per coset
        result = classify(alg, ext)
        assert len(result.representatives) == len(cosets)
        rep_cosets = {reduce_dense(b2, r.m_x.flatten()) for r in result.representatives}
        assert rep_cosets == cosets
        total_checked += 1
    _ok(9, f"exhaustive F2 solution sets equal base + Z^2 with 2^dim H^2 cosets "
           f"on {total_checked} instances")


def test_c10_unit_theorem():
    rng = random.Random(1010)
    d3 = divided_power_t(3, QQ)
    # the x^2 - t deformation extended to degree 3 (m_3 = 0 solves degree 3)
    user = {1: Cochain(2, (m1_gamma(QQ),))}
    res = series_deform(dual_numbers(QQ), d3, 3, strategy="user", user_cochains=user)
    assert res.primary.stopped_at is None
    base_mults = [res.primary.final.m, epsilon_embed(dual_numbers(QQ), d3)]
    u0 = unit_column(QQ, 2)
    repaired = 0
    ct = d3
    c0 = ct.sub_on_indices([0])
    u = ConvMorphism(c0, (u0,))
    for mt in base_mults:
        out = unit_gauge(mt, u)
        assert is_unit_of(out.m_f, out.u_lambda)
        assert is_unit_of(mt, out.u_tilde)
        repaired += 1
    for _ in range(10):
        mt = base_mults[0] if rng.random() < 0.5 else base_mults[1]
        comps = [MultiMap.identity(QQ, 2, 1)]
        for _k in range(1, ct.dim):
            comps.append(
                MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
            )
        h = ConvMorphism(ct, tuple(comps))
        hinv = takeuchi_invert(h)
        broken = conv_compose(conv_compose(hinv, mt), conv_tensor(h, h))
        out = unit_gauge(broken, u)
        # both unit axioms exactly, at every degree <= 3 at once
        assert is_unit_of(out.m_f, out.u_lambda)
        assert is_unit_of(broken, out.u_tilde)
        repaired += 1
    _ok(10, f"unit normalization exact on the x^2 - t fixture and {repaired - 2} "
            "gauge-perturbed unital fixtures")


def test_c11_round_trips():
    rng = random.Random(1111)
    # build o split on extension data
    split_checked = 0
    for d, n in (
        (divided_power_t(2, QQ), 2),
        (divided_power_t(3, F5), 3),
        (polynomial_multi(2, 2, QQ), 2),
        (polynomial_multi(2, 2, F5), 1),
    ):
        ext = graded_extension(d, n)
        rec = split_extension(ext.ctilde, ext.iota, ext.lam, base=ext.base)
        assert rec.comodule.coaction == ext.comodule.coaction
        assert rec.omega == ext.cocycle.omega
        rebuilt = build_extension(rec)
        assert rebuilt.ctilde.delta == ext.ctilde.delta
        assert rebuilt.ctilde.counit == ext.ctilde.counit
        split_checked += 1
    # parse o serialize identity on all fixtures
    # the side file (a series cochain document) is not a spec
    fixture_names = sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "xsq_t_cochain.json")
    parsed = 0
    for name in fixture_names:
        sf, _ = parse_path(str(FIXTURES / name))
        text = serialize(sf)
        sf2, _ = parse_text(text)
        assert sf2 == sf
        assert serialize(sf2) == text
        parsed += 1
    # gauge transport by f then f^{-1}
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    alg = xsq_deformation_algebra(QQ)
    base = make_deformation(alg, ext, mc_solve(alg, ext).base_solution)
    gauges = 0
    for _ in range(5):
        fx = MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
        gauge = _gauge_from_cochain(ext, Cochain(1, (fx,)))
        moved = gauge_transport(base, gauge)
        inv = takeuchi_invert(gauge)
        assert gauge_transport(moved, inv).mtilde == base.mtilde
        gauges += 1
    _ok(11, f"round-trips exact: {split_checked} split/build, {parsed} parse/serialize, "
            f"{gauges} gauge transports")
