import random

import pytest

from convdef import (
    Coalgebra,
    Cocycle2,
    CocycleViolation,
    Comodule,
    EmptyLayer,
    NotAnExtension,
    RetractNotNormalized,
    ShapeError,
    UnsupportedCoaction,
    build_extension,
    decompose_completely_reducible,
    divided_power_t,
    find_grouplikes,
    graded_extension,
    grouplike_coalgebra,
    grouplike_comodule,
    polynomial_multi,
    split_extension,
    trivial_k,
)
from convdef.linalg import Matrix
from convdef.fields import QQ

from helpers import (
    F2,
    F3,
    F5,
    assemble_ctilde,
    direct_sum,
    fixture_specfiles,
    oracle_cocycle_failures,
    oracle_comodule_failures,
    sparse_of,
)


def test_build_trivial_cocycle_gives_divided_power_1():
    k = trivial_k(QQ)
    x = grouplike_comodule(k, 1, (1,))
    ext = build_extension(Cocycle2(x, [[] for _ in range(x.dim)]))
    expect = divided_power_t(1, QQ)
    assert ext.ctilde.delta == expect.delta
    assert ext.ctilde.counit == expect.counit


def _fresh(w: Cocycle2) -> Cocycle2:
    """The same cocycle as a new value, so its comodule and it check their identities instead of reading kept ones."""
    com = w.comodule
    return Cocycle2(Comodule(com.base, com.dim, com.coaction), w.omega)


def _primitive_coalgebra(field):
    """1 in degree 0, x and y in degree 1 and z in degree 2, every element of positive degree primitive."""
    delta = [[(0, 0, 1)]] + [[(0, i, 1), (i, 0, 1)] for i in (1, 2, 3)]
    return Coalgebra(field, ["1", "x", "y", "z"], delta, [1, 0, 0, 0], grading=[0, 1, 1, 2])


def test_graded_extension_divided_power():
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    assert ext.base.names == ("1", "t")
    assert ext.comodule.coaction == (((0, 0, QQ.one),),)
    assert ext.cocycle.omega == (((1, 1, QQ.one),),)
    assert ext.ctilde == d
    # in general Ctilde is D_{<=n} in the basis D_{<n} first, the degree-n layer second, names and grading included.
    # The layer's parts are read off D and not checked themselves, so as an oracle `build_extension` checks fresh
    # copies of its comodule and cocycle and assembles D_{<=n} from them, and the verdicts kept as proved agree with
    # the dense oracles.
    cases = 0
    for field in (QQ, F2, F3):
        for c in (
            divided_power_t(4, field),
            polynomial_multi(2, 2, field),
            polynomial_multi(2, 3, field),
            direct_sum([divided_power_t(3, field), divided_power_t(1, field)]),
            _primitive_coalgebra(field),
        ):
            for n in range(1, c.max_degree() + 1):
                ext = graded_extension(c, n)
                low = [i for i, g in enumerate(c.grading) if g < n]
                truncated = c.sub_on_indices(low + list(c.degree_indices(n)))
                assert ext.ctilde == truncated
                assert (ext.ctilde.names, ext.ctilde.grading) == (truncated.names, truncated.grading)
                assert ext.ctilde.names[: ext.base.dim] == ext.base.names
                fresh = _fresh(ext.cocycle)
                built = build_extension(fresh).ctilde
                assert (built.delta, built.counit) == (truncated.delta, truncated.counit)
                assert ext.comodule.validate() == fresh.comodule.validate() == []
                assert oracle_comodule_failures(fresh.comodule) == []
                assert ext.cocycle.validate() == fresh.validate() == oracle_cocycle_failures(fresh) == []
                cases += 1
    assert cases == 42


def test_graded_extension_layer_one_is_trivial():
    d = divided_power_t(1, QQ)
    ext = graded_extension(d, 1)
    assert all(not om for om in ext.cocycle.omega)


def test_graded_extension_two_variables():
    p = polynomial_multi(2, 2, QQ)
    ext = graded_extension(p, 2)
    names = ext.base.names
    i_t1, i_t2 = names.index("t1"), names.index("t2")
    omega = {tuple(sorted(p.names[i] for i in range(p.dim) if p.grading[i] == 2))}
    by_x = {}
    x_idx = [i for i in range(p.dim) if p.grading[i] == 2]
    for s, orig in enumerate(x_idx):
        by_x[p.names[orig]] = set((j, k) for j, k, _ in ext.cocycle.omega[s])
    assert by_x["t1^2"] == {(i_t1, i_t1)}
    assert by_x["t2^2"] == {(i_t2, i_t2)}
    assert by_x["t1*t2"] == {(i_t1, i_t2), (i_t2, i_t1)}


def test_graded_extension_refuses_a_coalgebra_broken_above_the_layer():
    """D is checked whole, not layer by layer: k[t]_{<=3} with Delta(t^3) = 2 1(x)t^3 + t(x)t^2 + t^2(x)t + 2 t^3(x)1
    is broken at t^3 only (coassociativity and the counit axioms fail there) and its layer-1 parts pass, yet layer 1
    is refused."""
    d = divided_power_t(3, QQ)
    delta = [list(triples) for triples in d.delta[:3]] + [[(0, 3, 2), (1, 2, 1), (2, 1, 1), (3, 0, 2)]]
    bad = Coalgebra(QQ, d.names, delta, d.counit, grading=d.grading)
    assert bad.is_cocommutative and "left counit axiom" in bad.validate().failures()
    base = bad.sub_on_indices([0])
    build_extension(Cocycle2(Comodule(base, 1, [[(0, 0, 1)]]), [[]]))
    with pytest.raises(ShapeError, match="invalid coalgebra"):
        graded_extension(bad, 1)


def test_graded_extension_empty_layer():
    d = divided_power_t(1, QQ)
    with pytest.raises(EmptyLayer):
        graded_extension(d, 2)


def test_build_rejects_broken_cocycle():
    # omega(t^2) = t (x) 1 breaks symmetry and normalization
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    bad = Cocycle2(ext.comodule, [[(1, 0, 1)]])
    with pytest.raises(CocycleViolation):
        build_extension(bad)


def test_cocycle_identity_failure_detected():
    # symmetric and normalized but not a 2-cocycle: omega(x) = t^2 (x) t^2
    # (hand expansion leaves -t (x) t (x) t^2 + t^2 (x) t (x) t uncancelled)
    d = divided_power_t(2, QQ)
    x = grouplike_comodule(d, 1, (1, 0, 0))
    w = Cocycle2(x, [[(2, 2, 1)]])
    failures = w.validate()
    assert failures == ["2-cocycle identity"]


def test_split_round_trip_divided_power():
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    rec = split_extension(ext.ctilde, ext.iota, ext.lam, base=ext.base)
    assert rec.comodule.coaction == ext.cocycle.comodule.coaction
    assert rec.omega == ext.cocycle.omega
    rebuilt = build_extension(rec)
    assert rebuilt.ctilde.delta == ext.ctilde.delta
    assert rebuilt.ctilde.counit == ext.ctilde.counit


def test_split_round_trip_two_variables():
    p = polynomial_multi(2, 2, F3)
    ext = graded_extension(p, 2)
    rec = split_extension(ext.ctilde, ext.iota, ext.lam, base=ext.base)
    assert rec.comodule.coaction == ext.cocycle.comodule.coaction
    assert rec.omega == ext.cocycle.omega


def test_split_trivial_extension_gives_zero_cocycle():
    # lambda is a coalgebra map for D^0 inside D_{<=1}
    d = divided_power_t(1, QQ)
    ext = graded_extension(d, 1)
    rec = split_extension(ext.ctilde, ext.iota, ext.lam, base=ext.base)
    assert all(not om for om in rec.omega)


def test_split_rejects_unnormalized_retract():
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    # lambda(t^2) = 1 keeps lambda o iota = id but breaks eps_C o lambda = eps
    lam_bad = sparse_of(Matrix.from_rows(QQ, [[1, 0, 1], [0, 1, 0]]))
    with pytest.raises(RetractNotNormalized):
        split_extension(ext.ctilde, ext.iota, lam_bad, base=ext.base)
    # not even a retract of iota
    lam_worse = sparse_of(Matrix.from_rows(QQ, [[1, 1, 0], [0, 1, 0]]))
    with pytest.raises(RetractNotNormalized):
        split_extension(ext.ctilde, ext.iota, lam_worse, base=ext.base)


def test_split_with_alternative_normalized_retract():
    # lambda(t^2) = a t is still a normalized retract; splitting stays consistent
    d = divided_power_t(2, QQ)
    ext = graded_extension(d, 2)
    lam_alt = sparse_of(Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 3]]))
    rec = split_extension(ext.ctilde, ext.iota, lam_alt, base=ext.base)
    assert rec.validate() == [] and rec.comodule.validate() == []
    rebuilt = build_extension(rec)
    assert rebuilt.ctilde.validate().ok


def test_split_rejects_non_extension():
    # k inside k[t]_{<=2} is not an extension: Delta(t^2) has the middle term t (x) t
    d = divided_power_t(2, QQ)
    iota = sparse_of(Matrix.from_rows(QQ, [[1], [0], [0]]))
    lam = sparse_of(Matrix.from_rows(QQ, [[1, 0, 0]]))
    with pytest.raises(NotAnExtension):
        split_extension(d, iota, lam)


def test_decompose_single_grouplike():
    k = trivial_k(QQ)
    x = grouplike_comodule(k, 3, (1,))
    lines = decompose_completely_reducible(x, find_grouplikes(k))
    assert lines is not None and len(lines) == 3
    assert all(g == (1,) for _v, g in lines)


def test_decompose_two_blocks_f3():
    g2 = grouplike_coalgebra(2, F3)
    x = Comodule(g2, 2, [[(0, 0, 1)], [(1, 1, 1)]])
    lines = decompose_completely_reducible(x, find_grouplikes(g2))
    assert lines == [((1, 0), (1, 0)), ((0, 1), (0, 1))]


def test_decompose_mixed_basis():
    # coaction diagonalizable but not coordinate-aligned
    g2 = grouplike_coalgebra(2, QQ)
    # T_{g0} = projection onto span{(1,1)} along span{(1,-1)}
    x = Comodule(
        g2,
        2,
        [
            [(0, 0, "1/2"), (1, 0, "1/2"), (0, 1, "1/2"), (1, 1, "-1/2")],
            [(0, 0, "1/2"), (1, 0, "1/2"), (0, 1, "-1/2"), (1, 1, "1/2")],
        ],
    )
    assert x.validate() == []
    lines = decompose_completely_reducible(x, find_grouplikes(g2))
    assert lines is not None and len(lines) == 2
    gs = sorted(g for _v, g in lines)
    assert gs == [(0, 1), (1, 0)]


def test_decompose_refuses_parts_whose_ranks_overshoot():
    # T_g0 = diag(2, 0) and T_g1 = diag(-1, 1) sum to I, but their ranks add to 3 > dim X
    g2 = grouplike_coalgebra(2, QQ)
    x = Comodule(g2, 2, [[(0, 0, 2), (0, 1, -1)], [(1, 1, 1)]])
    assert decompose_completely_reducible(x, find_grouplikes(g2)) is None


def test_decompose_refuses_parts_that_do_not_sum_to_the_identity():
    # T_g0 = diag(2, 0) and T_g1 = diag(0, 1)
    g2 = grouplike_coalgebra(2, QQ)
    x = Comodule(g2, 2, [[(0, 0, 2)], [(1, 1, 1)]])
    assert decompose_completely_reducible(x, find_grouplikes(g2)) is None


def test_decompose_unsupported_coaction():
    g2 = grouplike_coalgebra(2, QQ)
    x = Comodule(g2, 1, [[(0, 1, 1)]])  # rho(x) = x (x) g1
    from convdef import GroupLikeSet

    only_g0 = GroupLikeSet(((QQ.one, QQ.zero),))
    with pytest.raises(UnsupportedCoaction):
        decompose_completely_reducible(x, only_g0)


def test_comodule_validation_catches_bad_coaction():
    d = divided_power_t(1, QQ)
    bad = Comodule(d, 1, [[(0, 1, 1)]])  # rho(x) = x (x) t fails the counit axiom
    assert "coaction counit axiom" in bad.validate()


def test_normalize_triples_range_errors_for_coaction_and_omega():
    d = divided_power_t(1, QQ)
    with pytest.raises(ShapeError, match=r"^coaction triple \(1,0\) out of range at index 0$"):
        Comodule(d, 1, [[(1, 0, 1)]])
    with pytest.raises(ShapeError, match=r"^coaction triple \(0,2\) out of range at index 0$"):
        Comodule(d, 1, [[(0, 2, 1)]])
    com = Comodule(d, 1, [[(0, 0, 1)]])
    with pytest.raises(ShapeError, match=r"^omega triple \(0,2\) out of range at index 0$"):
        Cocycle2(com, [[(0, 2, 1)]])
    # duplicates merge, zeros drop, entries sort, as for Delta
    com2 = Comodule(d, 1, [[(0, 1, 1), (0, 0, 1), (0, 1, -1)]])
    assert com2.coaction == (((0, 0, 1),),)
    w = Cocycle2(com, [[(1, 1, 2), (0, 0, 0), (1, 1, -1)]])
    assert w.omega == (((1, 1, 1),),)


def _perturbed(w, rng):
    """Cocycles that break symmetry, normalization or the 2-cocycle identity, each by one triple added at a random x."""
    c = w.comodule.base
    f = c.field
    pos = [i for i, e in enumerate(c.counit) if f.is_zero(e)] or [0]  # eps vanishes on these, if any
    glike = next(i for i, e in enumerate(c.counit) if not f.is_zero(e))
    s, j, k = rng.randrange(w.comodule.dim), rng.choice(pos), rng.choice(pos)
    extra = [
        (j, k, f.random_element(rng, nonzero=True)),  # one-sided unless j = k
        (glike, glike, f.one),  # symmetric, not normalized
        (j, j, f.one),  # symmetric and normalized
        (rng.randrange(c.dim), rng.randrange(c.dim), f.random_element(rng, nonzero=True)),
    ]
    out = []
    for triple in extra:
        omega = [list(om) for om in w.omega]
        omega[s].append(triple)
        out.append(Cocycle2(w.comodule, omega))
    return out


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_cocycle_validate_matches_dense_oracle(field):
    """The sum over triples and the dense Kronecker products report the same failures, in order."""
    rng = random.Random(41)
    cocycles = _fixture_and_graded_cocycles(field)
    seen = set()
    for w in list(cocycles):
        assert w.validate() == oracle_cocycle_failures(w) == []
        for bad in _perturbed(w, rng):
            got = bad.validate()
            assert got == oracle_cocycle_failures(bad)
            seen.update(got)
    assert seen == {"symmetry", "normalization", "2-cocycle identity"}


def _perturbed_coactions(com, rng):
    """Comodules that break the counit axiom or coassociativity, each by one triple added at a random x."""
    c = com.base
    f = c.field
    pos = [i for i, e in enumerate(c.counit) if f.is_zero(e)] or [0]  # eps vanishes on these, if any
    glike = next(i for i, e in enumerate(c.counit) if not f.is_zero(e))
    s, t = rng.randrange(com.dim), rng.randrange(com.dim)
    extra = [
        (t, glike, f.one),  # seen by the counit axiom
        (t, rng.choice(pos), f.random_element(rng, nonzero=True)),  # invisible to the counit axiom
        (rng.randrange(com.dim), rng.randrange(c.dim), f.random_element(rng, nonzero=True)),
    ]
    out = []
    for triple in extra:
        coaction = [list(rho) for rho in com.coaction]
        coaction[s].append(triple)
        out.append(Comodule(c, com.dim, coaction))
    return out


def _fixture_and_graded_cocycles(field):
    cocycles = [w for _name, sf in fixture_specfiles(field) for w in sf.cocycles.values()]
    for d in (divided_power_t(4, field), polynomial_multi(2, 3, field)):
        cocycles += [_fresh(graded_extension(d, n).cocycle) for n in range(1, d.max_degree() + 1)]
    return cocycles


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_comodule_validate_matches_dense_oracle(field):
    """The sums over triples and the dense Kronecker products report the same comodule failures, in order."""
    rng = random.Random(43)
    comodules = [com for _name, sf in fixture_specfiles(field) for com in sf.comodules.values()]
    comodules += [w.comodule for w in _fixture_and_graded_cocycles(field)]
    seen = set()
    for com in comodules:
        assert com.validate() == oracle_comodule_failures(com) == []
        for bad in _perturbed_coactions(com, rng):
            got = bad.validate()
            assert got == oracle_comodule_failures(bad)
            seen.update(got)
    assert seen == {"coaction coassociativity", "coaction counit axiom"}


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_build_extension_checks_ctilde_through_its_parts(field):
    """Ctilde is a cocommutative coalgebra exactly when C is one, rho is a comodule and omega a symmetric normalized 2-cocycle.

    So `build_extension` checks the parts and not the Ctilde it assembles:
    it raises exactly when the parts fail, and otherwise builds the Ctilde
    that `assemble_ctilde` writes out.
    """
    rng = random.Random(47)
    valid = invalid = 0
    for w in _fixture_and_graded_cocycles(field):
        cases = [w, *_perturbed(w, rng)]
        cases += [Cocycle2(com, w.omega) for com in _perturbed_coactions(w.comodule, rng)]
        for case in cases:
            base = case.comodule.base
            parts_ok = base.validate().ok and base.is_cocommutative and not case.comodule.validate() + case.validate()
            ctilde = assemble_ctilde(case)
            report = ctilde.validate()
            assert parts_ok == (report.ok and report.cocommutative)
            if parts_ok:
                assert build_extension(case).ctilde == ctilde
                valid += 1
            else:
                with pytest.raises(CocycleViolation):
                    build_extension(case)
                invalid += 1
    assert valid and invalid > valid
