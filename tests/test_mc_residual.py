"""A materialized deformation is checked by its Maurer-Cartan residual d^2(nu) = -zeta.

The gate: over Ctilde = C (+) X the associator of m (+) nu is affine in nu,
with an empty C-block and the X-block zeta + d^2(nu).  `make_deformation`
relies on it instead of computing that associator, so it is held equal to
`is_associative`, the full associator, on random cochains that do and do
not solve the equation.  The H^2 and Z^2 enumerations are held equal to
the `itertools.product` comprehension they replace.
"""

import itertools
import random

import pytest

from convdef import (
    AlgebraMC,
    Cochain,
    ConvMorphism,
    MultiMap,
    ShapeError,
    SpecMismatch,
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
from convdef.specfile import parse_path

from helpers import (
    F2,
    F3,
    F5,
    FIXTURES,
    direct_sum_comodule,
    dual_numbers,
    random_mixed_mult,
    random_nilpotent_comodule,
    truncated_poly,
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
    for z in report.z2_basis:
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
            for z in report.z2_basis:
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
            for make in (lambda: make_deformation(alg, ext, nu), lambda: make_deformation(alg, ext, nu, _report=report)):
                if expect:
                    assert make().mtilde == mtilde, label
                else:
                    with pytest.raises(ShapeError, match="deformed multiplication is not associative"):
                        make()
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
            make_deformation(alg, ext, report.base_solution, _report=report)


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
