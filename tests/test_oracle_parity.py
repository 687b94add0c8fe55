"""The sparse coalgebra and extension layer against the dense bodies it replaced (`tests/helpers.py`).

Each library function is held equal to its dense oracle, value for value
or exception type for exception type, over Q, F_2, F_3 and F_5, on every
fixture coalgebra, the builtins, a direct sum and the non-cocommutative
path coalgebra, each also moved by a random change of basis so that the
group-likes, inclusions and retracts are not unit vectors.
"""

import random

import pytest

from convdef import (
    Coalgebra,
    Comodule,
    ConvMorphism,
    GroupLikeSet,
    MultiMap,
    decompose_completely_reducible,
    divided_power_t,
    find_grouplikes,
    graded_extension,
    grouplike_coalgebra,
    polynomial_multi,
    pullback,
    split_extension,
    trivial_k,
)
from convdef.extension import _restrict_coalgebra_along
from convdef.fields import QQ
from convdef.linalg import Matrix

from helpers import (
    F2,
    F3,
    F5,
    counit_matrix,
    dense_eps,
    dense_of,
    direct_sum,
    fixture_specfiles,
    matrix_inverse,
    oracle_coalgebra_report,
    oracle_decompose_completely_reducible,
    oracle_find_grouplikes,
    oracle_pullback,
    oracle_restrict_coalgebra_along,
    oracle_split_extension,
    oracle_validate,
    path_coalgebra,
    random_grouplike_comodule,
    random_invertible,
    sparse_of,
    transport_coalgebra,
)

FIELDS = pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])


def outcome(fn, *args, **kwargs):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def coalgebras(field):
    out = [
        trivial_k(field),
        divided_power_t(3, field),
        polynomial_multi(2, 2, field),
        grouplike_coalgebra(3, field),
        direct_sum([divided_power_t(2, field), grouplike_coalgebra(1, field), divided_power_t(1, field)]),
        path_coalgebra(field),
    ]
    for _name, sf in fixture_specfiles(field):  # the graded ones: `transport_coalgebra` also moves their grading layers
        out += [c for c in sf.coalgebras.values() if c.grading is not None and c not in out]
    return out


def moved(c, rng):
    """(p(C), p) for a random invertible p."""
    p = random_invertible(c.field, c.dim, rng)
    return transport_coalgebra(c, p)[0], p


def broken(c, rng):
    """c with one Delta coefficient bumped, with Delta(e_i) = e_i (x) e_i at a non-group-like, and with eps bumped."""
    f = c.field
    i = rng.randrange(c.dim)
    delta = [list(t) for t in c.delta]
    j, k, x = rng.choice(delta[i])
    delta[i].append((j, k, f.one))
    diagonal = [list(t) for t in c.delta]
    diagonal[c.dim - 1] = [(c.dim - 1, c.dim - 1, f.one)]
    counit = list(c.counit)
    counit[i] = f.add(counit[i], f.one)
    return [
        Coalgebra(f, c.names, delta, c.counit, grading=c.grading),
        Coalgebra(f, c.names, diagonal, c.counit, grading=c.grading),
        Coalgebra(f, c.names, c.delta, counit, grading=c.grading),
    ]


def regraded(c, rng):
    """c with one degree raised by 1, or with the zero grading when c is ungraded."""
    if c.grading is None:
        return Coalgebra(c.field, c.names, c.delta, c.counit, grading=[0] * c.dim)
    grading = list(c.grading)
    grading[rng.randrange(c.dim)] += 1
    return Coalgebra(c.field, c.names, c.delta, c.counit, grading=grading)


@FIELDS
def test_validate_matches_dense_oracle(field):
    """validate's int sums give the report of the dense (Delta (x) 1)Delta = (1 (x) Delta)Delta check and of the Fraction sums.

    Covers the builtins, the fixture coalgebras, direct sums, copies moved by a change
    of basis (rational constants over Q), extensions and perturbed Delta, counit and
    grading; each of the four axioms fails somewhere.  The report is kept: a repeated
    validate returns it.
    """
    rng = random.Random(59)
    failures = set()
    for c in coalgebras(field):
        moved_c = moved(c, rng)[0]
        cases = [c, moved_c, *broken(c, rng), *broken(moved_c, rng), regraded(c, rng)]
        cases += [direct_sum([c, divided_power_t(1, field)])] + [ext.ctilde for ext in extensions_of(c)]
        for target in cases:
            report = target.validate()
            assert report == oracle_validate(target) == oracle_coalgebra_report(target)
            assert target.validate() is report
            failures.update(report.failures())
    assert {"coassociativity", "left counit axiom", "right counit axiom", "grading compatibility"} <= failures


@FIELDS
def test_find_grouplikes_matches_dense_oracle(field):
    rng = random.Random(67)
    found = 0
    for c in coalgebras(field):
        for target in (c, moved(c, rng)[0]):
            got = find_grouplikes(target)
            assert got == oracle_find_grouplikes(target)
            found += len(got.elements)
    assert found > 0


def extensions_of(c):
    """Every graded layer extension of c, if c is cocommutative and graded."""
    if not c.is_cocommutative or c.grading is None:
        return []
    return [graded_extension(c, n) for n in range(1, c.max_degree() + 1) if c.degree_indices(n)]


def extensions(field):
    """Every graded layer extension of the cocommutative graded coalgebras."""
    return [ext for c in coalgebras(field) for ext in extensions_of(c)]


def retracts(ext, rng):
    """(Ctilde, iota, lambda, base) as dense matrices: the extension's own, another normalized retract,
    both moved by a random change of basis of Ctilde, and broken variants."""
    f, dc, d = ext.base.field, ext.base.dim, ext.ctilde.dim
    iota, lam = dense_of(ext.iota), dense_of(ext.lam)
    unit = next(i for i, e in enumerate(ext.base.counit) if e)
    # lambda + N with N zero on iota(C) and eps_C o N = 0 is still a normalized retract
    rows = [list(r) for r in lam.data]
    for x in range(dc, d):
        v = [f.random_element(rng) for _ in range(dc)]
        v[unit] = f.sub(v[unit], f.div(dense_eps(ext.base, v), ext.base.counit[unit]))
        for j in range(dc):
            rows[j][x] = v[j]
    alt = Matrix.from_rows(f, rows)
    out = [(ext.ctilde, iota, lam, ext.base), (ext.ctilde, iota, alt, ext.base), (ext.ctilde, iota, lam, None)]
    target, p = moved(ext.ctilde, rng)
    p_inv = matrix_inverse(p)
    out += [(target, p @ iota, lam @ p_inv, ext.base), (target, p @ iota, alt @ p_inv, None)]
    # broken: lambda off the retract, eps_C o lambda moved, iota not injective, iota not a coalgebra map
    bumped = [list(r) for r in lam.data]
    bumped[unit][dc - 1 if dc > 1 else 0] = f.add(bumped[unit][dc - 1 if dc > 1 else 0], f.one)
    out.append((ext.ctilde, iota, Matrix.from_rows(f, bumped), ext.base))
    bumped = [list(r) for r in lam.data]
    bumped[unit][d - 1] = f.add(bumped[unit][d - 1], f.one)
    out.append((ext.ctilde, iota, Matrix.from_rows(f, bumped), ext.base))
    out.append((ext.ctilde, Matrix.zeros(f, d, dc), lam, None))
    shifted = Matrix(f, d, dc, tuple(iota.data[(r + 1) % d] for r in range(d)))
    out.append((ext.ctilde, shifted, lam, None))
    bent = [list(r) for r in iota.data]
    bent[dc][dc - 1] = f.one  # lambda o iota stays the identity
    out.append((ext.ctilde, Matrix.from_rows(f, bent), lam, None))
    return out


@FIELDS
def test_split_extension_matches_dense_oracle(field):
    rng = random.Random(71)
    results = set()
    for ext in extensions(field):
        for ctilde, iota, lam, base in retracts(ext, rng):
            got = outcome(split_extension, ctilde, sparse_of(iota), sparse_of(lam), base=base)
            assert got == outcome(oracle_split_extension, ctilde, iota, lam, base=base)
            results.add(got if isinstance(got, type) else "split")
    assert len(results) >= 3, results  # splits and at least two kinds of refusal


@FIELDS
def test_restrict_coalgebra_along_matches_dense_oracle(field):
    rng = random.Random(73)
    cases = [(ext.ctilde, dense_of(ext.iota)) for ext in extensions(field)]
    for c in coalgebras(field):
        target, p = moved(c, rng)
        cases += [(c, Matrix.identity(field, c.dim)), (target, p)]
        low = [i for i, g in enumerate(c.grading) if g < c.max_degree()] if c.grading else []
        if low:
            inclusion = tuple(tuple(field.coerce(int(i == j)) for j in low) for i in range(c.dim))
            cases.append((c, Matrix(field, c.dim, len(low), inclusion)))
    for ctilde, iota in cases:
        eps_c = Matrix.row_vector(field, [dense_eps(ctilde, iota.col(j)) for j in range(iota.cols)])
        got = outcome(_restrict_coalgebra_along, ctilde, sparse_of(iota), eps_c.data[0])
        assert got == outcome(oracle_restrict_coalgebra_along, ctilde, iota, eps_c)
    # the pullback of p(C) along p is C, so a non-cocommutative Delta must come back unflipped
    c = path_coalgebra(field)
    target, p = moved(c, rng)
    pulled = _restrict_coalgebra_along(target, sparse_of(p), c.counit)
    assert pulled.delta == c.delta and counit_matrix(pulled) == counit_matrix(c)


def comodules(field, rng):
    """(comodule, group-likes): completely reducible ones, mixed ones and coactions off the group-likes."""
    out = []
    for k in (1, 2, 3):
        cg = grouplike_coalgebra(k, field)
        gl = find_grouplikes(cg)
        out += [(random_grouplike_comodule(cg, rng.randint(1, 4), rng), gl) for _ in range(3)]
    g2 = grouplike_coalgebra(2, field)
    gl2 = find_grouplikes(g2)
    out += [
        (Comodule(g2, 2, [[(0, 0, 2), (0, 1, -1)], [(1, 1, 1)]]), gl2),  # parts sum to I, ranks to 3
        (Comodule(g2, 2, [[(0, 0, 2)], [(1, 1, 1)]]), gl2),  # parts do not sum to I
        (Comodule(g2, 1, [[(0, 1, 1)]]), GroupLikeSet(((field.one, field.zero),))),
        (Comodule(g2, 1, [[(0, 1, 1)]]), GroupLikeSet(((field.one, field.one),))),  # not group-like
        (Comodule(g2, 1, [[(0, 1, 1)]]), GroupLikeSet(gl2.elements + gl2.elements[:1])),  # repeated
        (Comodule(g2, 1, [[(0, 1, 1)]]), GroupLikeSet(())),
    ]
    for ext in extensions(field):
        out.append((ext.comodule, find_grouplikes(ext.base)))
    return out


@FIELDS
def test_decompose_completely_reducible_matches_dense_oracle(field):
    rng = random.Random(79)
    kinds = set()
    for com, gl in comodules(field, rng):
        got = outcome(decompose_completely_reducible, com, gl)
        assert got == outcome(oracle_decompose_completely_reducible, com, gl)
        kinds.add(got if isinstance(got, type) or got is None else "lines")
    assert {"lines", None, ValueError} <= kinds, kinds


@FIELDS
def test_pullback_matches_dense_oracle(field):
    rng = random.Random(83)
    for ext in extensions(field)[:6]:
        d, dc = ext.ctilde.dim, ext.base.dim
        comps = tuple(
            MultiMap.from_rows(field, 2, 2, 1, [[field.random_element(rng) for _ in range(4)] for _ in range(2)])
            for _ in range(d)
        )
        f = ConvMorphism(ext.ctilde, comps)
        iota = Matrix.from_rows(field, [[field.random_element(rng) for _ in range(dc)] for _ in range(d)])
        for i in (dense_of(ext.iota), iota):
            assert pullback(f, sparse_of(i), ext.base) == oracle_pullback(f, i, ext.base)
