import functools
import random
from fractions import Fraction

import pytest

from convdef import (
    Cochain,
    ComplexSpec,
    Comodule,
    ConvMorphism,
    MultiMap,
    NotRankOne,
    ShapeError,
    divided_power_t,
    epsilon_embed,
    find_grouplikes,
    graded_extension,
    grouplike_coalgebra,
    grouplike_comodule,
    hochschild_dims,
    hochschild_spec,
    polynomial_multi,
    product_decompose,
    rank1_reduce,
    trivial_k,
)
from convdef import linalg
from convdef.fields import QQ, PrimeField
from convdef.linalg import Matrix, Subspace

import oracle_hochschild as oracle
from helpers import (
    dense_of,
    F2,
    F3,
    F5,
    cochain_act,
    conjugate_mult,
    dense_compose,
    dense_differential_matrix,
    dense_tensor,
    direct_sum_comodule,
    dual_numbers,
    fixture_specs,
    fraction_constructions,
    greedy_quotient_rows,
    mat2_mult,
    matrix_units,
    oracle_coface,
    oracle_differential,
    oracle_differential_matrix,
    oracle_kernel,
    oracle_rref,
    oracle_solve_many,
    random_algebra,
    random_gauge_transported_mult,
    random_grouplike_comodule,
    random_invertible,
    random_mixed_mult,
    random_nilpotent_comodule,
    rank_one_square,
    split_pair,
    table_from_mult,
    truncated_poly,
    zero_mult,
)


def rand_cochain(spec, n, rng):
    f = spec.field
    flat = [f.random_element(rng) for _ in range(spec.cochain_dim(n))]
    return Cochain.from_flat(f, spec.a_dim, spec.x_dim, n, flat)


def hochschild_spec_of(m0):
    return hochschild_spec(m0)


def test_coface_of_zero_is_zero():
    spec = hochschild_spec_of(dual_numbers(QQ))
    z = Cochain.zero(spec.field, spec.a_dim, spec.x_dim, 2)
    for i in range(4):
        assert oracle_coface(spec, i, 2, z).is_zero()


def test_coface_index_range():
    spec = hochschild_spec_of(dual_numbers(QQ))
    nu = Cochain.zero(spec.field, spec.a_dim, spec.x_dim, 1)
    with pytest.raises(ShapeError):
        oracle_coface(spec, 3, 1, nu)


def test_solve_takes_and_returns_cochains():
    """d^n x = rhs solved in cochains: an x for a coboundary, None off B^(n+1), an rhs of the wrong degree refused."""
    rng = random.Random(3)
    for f in (QQ, F3):
        spec = hochschild_spec_of(dual_numbers(f))
        for _ in range(5):
            rhs = spec.differential(rand_cochain(spec, 1, rng))
            x = spec.solve(1, rhs)
            assert spec.differential(x) == rhs and x.degree == 1
            off = rand_cochain(spec, 2, rng)
            assert (spec.solve(1, off) is None) == bool(spec.coboundaries(2).reduce(off.flat_entries()))
        with pytest.raises(ShapeError):
            spec.solve(2, rhs)


def test_differential_past_the_row_bound_is_refused_before_any_power(monkeypatch):
    """d^n of M_2 has 4^(n+2) rows: n = 6 (65,536) and n = 8 (2^20) pass, n = 9 and a 20-digit n are refused.

    With a one-dimensional A the rows stay x_dim, and the coface count n + 2 is held to the same bound.
    """
    spec = hochschild_spec_of(mat2_mult(QQ))
    for n in (6, 8):
        spec._require_within_bound(n)
    with pytest.raises(ShapeError, match=r"^d\^9 would be 4194304 x 1048576, past the bound of 1048576 rows$"):
        spec.cohomology(9)
    monkeypatch.setattr(ComplexSpec, "cochain_dim", lambda self, n: pytest.fail("cochain_dim called"))
    n = 10**19
    with pytest.raises(ShapeError, match=rf"^d\^{n} would be 1\*4\^{n + 2} x 1\*4\^{n + 1}, past the bound"):
        spec.cohomology(n)
    line = hochschild_spec_of(MultiMap.from_rows(QQ, 1, 2, 1, [[1]]))
    line._require_within_bound(2**20 - 2)
    with pytest.raises(ShapeError, match=r"would be 1\*1\^1048577 x 1\*1\^1048576"):
        line._require_within_bound(2**20 - 1)


def test_trivial_base_cofaces_are_hochschild():
    # with C = k and X = k the cofaces are the classical Hochschild faces
    rng = random.Random(1)
    m0 = dual_numbers(QQ)
    spec = hochschild_spec_of(m0)
    nu = rand_cochain(spec, 1, rng)
    numap = nu.maps[0]
    ident = MultiMap.identity(QQ, 2, 1)
    assert oracle_coface(spec, 0, 1, nu).maps[0] == dense_compose(m0, dense_tensor(ident, numap))
    assert oracle_coface(spec, 1, 1, nu).maps[0] == dense_compose(numap, m0)
    assert oracle_coface(spec, 2, 1, nu).maps[0] == dense_compose(m0, dense_tensor(numap, ident))


def test_scalar_algebra_coface():
    # dim A = 1: every multimap is a scalar and d_0 multiplies through m(x_(1))
    c = grouplike_coalgebra(2, QQ)
    m = ConvMorphism(
        c,
        (
            MultiMap.from_rows(QQ, 1, 2, 1, [[2]]),
            MultiMap.from_rows(QQ, 1, 2, 1, [[3]]),
        ),
    )
    x = Comodule(c, 2, [[(0, 0, 1)], [(1, 1, 1)]])
    spec = ComplexSpec(m, x)
    nu = Cochain(
        2,
        (
            MultiMap.from_rows(QQ, 1, 2, 1, [[5]]),
            MultiMap.from_rows(QQ, 1, 2, 1, [[7]]),
        ),
    )
    out = oracle_coface(spec, 0, 2, nu)
    assert out.maps[0].rows()[0][0] == 10  # mu_{g0} * nu_0
    assert out.maps[1].rows()[0][0] == 21  # mu_{g1} * nu_1


def test_cosimplicial_identities_random():
    rng = random.Random(2)
    m0 = random_algebra(F5, 2, rng)
    c = divided_power_t(2, F5)
    from helpers import random_nilpotent_comodule

    x = random_nilpotent_comodule(c, 2, rng)
    spec = ComplexSpec(epsilon_embed(m0, c), x)
    for n in (0, 1, 2):
        nu = rand_cochain(spec, n, rng)
        for j in range(1, n + 3):
            for i in range(j):
                lhs = oracle_coface(spec, j, n + 1, oracle_coface(spec, i, n, nu))
                rhs = oracle_coface(spec, i, n + 1, oracle_coface(spec, j - 1, n, nu))
                assert lhs == rhs


def test_differential_squares_to_zero():
    rng = random.Random(3)
    spec = hochschild_spec_of(random_algebra(QQ, 2, rng))
    for n in (0, 1, 2):
        nu = rand_cochain(spec, n, rng)
        assert oracle_differential(spec, oracle_differential(spec, nu)).is_zero()


def _d1_manual(spec, nu):
    f, a = spec.field, spec.a_dim
    ident = MultiMap.identity(f, a, 1)
    maps = []
    for s in range(spec.x_dim):
        acc = MultiMap.zero(f, a, 2, 1)
        for t, u, c in spec.comodule.coaction[s]:
            m_u = spec.m.components[u]
            term = (
                dense_compose(m_u, dense_tensor(ident, nu.maps[t]))
                - dense_compose(nu.maps[t], m_u)
                + dense_compose(m_u, dense_tensor(nu.maps[t], ident))
            )
            acc = acc + term.scale(c)
        maps.append(acc)
    return Cochain(2, tuple(maps))


def _d2_manual(spec, nu):
    f, a = spec.field, spec.a_dim
    ident = MultiMap.identity(f, a, 1)
    maps = []
    for s in range(spec.x_dim):
        acc = MultiMap.zero(f, a, 3, 1)
        for t, u, c in spec.comodule.coaction[s]:
            m_u = spec.m.components[u]
            nu_t = nu.maps[t]
            term = (
                dense_compose(m_u, dense_tensor(ident, nu_t))
                - dense_compose(nu_t, dense_tensor(m_u, ident))
                + dense_compose(nu_t, dense_tensor(ident, m_u))
                - dense_compose(m_u, dense_tensor(nu_t, ident))
            )
            acc = acc + term.scale(c)
        maps.append(acc)
    return Cochain(3, tuple(maps))


GATE_MAX_DIM = 128


def _oracle_differentials(labelled_specs, max_dim):
    """(label, spec, n, oracle d^n) for each labelled spec and n <= 3 with cochain_dim(n+1) <= max_dim."""
    return tuple(
        (label, spec, n, oracle_differential_matrix(spec, n))
        for label, spec in labelled_specs
        for n in range(4)
        if spec.cochain_dim(n + 1) <= max_dim
    )


@functools.lru_cache(maxsize=None)
def fixture_oracle_differentials(max_dim=GATE_MAX_DIM):
    """The oracle d^n of every fixture spec."""
    return _oracle_differentials(fixture_specs(), max_dim)


def check_differentials(oracles):
    """d^n from the structure constants equals the column-by-column oracle assembly; returns the number compared."""
    for label, spec, n, oracle_d in oracles:
        assert dense_differential_matrix(spec, n) == oracle_d, (label, n)
    return len(oracles)


def test_differential_matrix_matches_oracle_on_fixtures():
    assert check_differentials(fixture_oracle_differentials()) >= 20


def test_differential_matrix_matches_oracle_on_random_specs():
    # random specs over F_5 and over Q, where m and rho have rational constants, and layers with nonzero omega
    # over Q and F_3, under the same cap
    rng = random.Random(17)
    specs = [(f"random {trial}", _random_spec(trial % 2, rng)) for trial in range(8)]
    specs += [(f"layer over {field.name}", spec) for field in (QQ, F3) for spec in _gate_specs(field, rng)]
    rational = [spec for _label, spec in specs if spec.field == QQ]
    assert any(_denominators(spec)[0] - {1} for spec in rational)
    assert any(_denominators(spec)[1] - {1} for spec in rational)
    assert check_differentials(_oracle_differentials(specs, GATE_MAX_DIM)) >= 40


def check_cocycles(oracles, rng, monkeypatch):
    """cocycles(n) is the dense Gauss-Jordan RREF of the oracle null space of the oracle d^n, read off the mirrored
    elimination of a fresh spec and off the left block a prior solve(n, random rhs) caches; returns the count."""
    sets, init = [], Subspace.__init__

    def recording(self, field, ambient, rows=()):
        rows = list(rows)
        sets.append(len(rows))
        init(self, field, ambient, rows)

    monkeypatch.setattr(Subspace, "__init__", recording)
    for label, spec, n, oracle_d in oracles:
        f, null = spec.field, oracle_kernel(oracle_d)
        red, pivots, rank = oracle_rref(Matrix(f, len(null), oracle_d.cols, tuple(null)))
        for solved in (False, True):
            fresh = ComplexSpec(spec.m, spec.comodule)
            if solved:
                fresh.solve(n, rand_cochain(fresh, n + 1, rng))
            sets.clear()
            z = fresh.cocycles(n)
            assert (z.pivots, z.dense_rows()) == (pivots, red.data[:rank]), (label, n, solved)
            # one elimination: of the rows of d^n, or after a solve of the kernel of the left block it cached
            assert sets == [len(null) if solved else oracle_d.rows] and fresh.cocycles(n) is z, (label, n, solved)
    return len(oracles)


def test_cached_echelons_match_oracle_rref_on_fixtures(monkeypatch):
    # Z^n and the column echelon (B^(n+1)) of each d^n against dense Gauss-Jordan
    oracles = fixture_oracle_differentials(GATE_MAX_DIM)
    for label, spec, n, oracle_d in oracles:
        ech = spec.image_echelon(n)
        red, pivots, rank = oracle_rref(oracle_d.transpose())
        assert (ech.pivots, ech.dim) == (pivots, rank), (label, n)
        assert ech.dense_rows() == red.data[:rank], (label, n)
        assert spec.image_echelon(n) is ech
    assert check_cocycles(oracles, random.Random(3), monkeypatch) >= 20


def test_cocycles_match_oracle_on_random_specs(monkeypatch):
    # random layers over Q, F_2, F_3, F_5 and F_32003; k[x]/(x^3) over Q and M_2 over F_32003 in dense bases, whose
    # 64 x 16 d^1 (9 nonzeros a row) is eliminated packed; and the zero algebra, whose d^n has rank 0
    rng = random.Random(23)
    specs = [(f"layer over {f.name}", spec) for f in (QQ, F2, F3, F5, F32003) for spec in _gate_specs(f, rng)]
    specs += [(f"random {trial}", _random_spec(trial % 3, rng)) for trial in range(6)]
    specs += [(f"dense {name} over {f.name}", hochschild_spec(conjugate_mult(m, random_invertible(f, m.a_dim, rng))))
              for name, f, m in (("k[x]/(x^3)", QQ, truncated_poly(QQ, 3)), ("M_2", F32003, mat2_mult(F32003)))]
    specs.append(("zero algebra", hochschild_spec(zero_mult(F5))))
    packed, packed_rref = [], linalg._packed_rref
    monkeypatch.setattr(linalg, "_packed_rref", lambda p, ambient, rows: packed.append((p, len(rows), ambient))
                        or packed_rref(p, ambient, rows))
    oracles = _oracle_differentials(specs, GATE_MAX_DIM)
    assert check_cocycles(oracles, rng, monkeypatch) >= 60
    assert (32003, 64, 16) in packed
    assert sum(label == "zero algebra" and d.is_zero() for label, _spec, _n, d in oracles) >= 3


def _fractional_specs(rng):
    """Complexes over Q with fractional constants in m, at least three of them in rho too."""
    specs = [_random_spec(1, rng) for _ in range(8)] + _gate_specs(QQ, rng)
    specs = [spec for spec in specs if _denominators(spec)[0] - {1}]
    assert sum(bool(_denominators(spec)[1] - {1}) for spec in specs) >= 3
    return specs


def test_fractional_complexes_match_the_dense_oracle():
    """Over Q with fractional constants in m and rho: differential_entries, cocycles (fresh and after a solve),
    image_echelon and solve, on a coboundary with sevenths and on a random rhs, equal the dense oracle."""
    rng = random.Random(61)
    checked = fractional_rhs = 0
    for spec in _fractional_specs(rng):
        for n in range(3):
            if spec.cochain_dim(n + 1) > GATE_MAX_DIM:
                continue
            oracle_d = oracle_differential_matrix(spec, n)
            fresh = ComplexSpec(spec.m, spec.comodule)
            assert dense_differential_matrix(fresh, n) == oracle_d
            assert fresh._differentials[n][0] > 1  # the int columns of D d^n are held, D beside them
            null = oracle_kernel(oracle_d)
            red, pivots, rank = oracle_rref(Matrix(QQ, len(null), oracle_d.cols, tuple(null)))
            z = fresh.cocycles(n)
            assert (z.pivots, z.dense_rows()) == (pivots, red.data[:rank])
            red_t, pivots_t, rank_t = oracle_rref(oracle_d.transpose())
            b = fresh.image_echelon(n)
            assert (b.pivots, b.dense_rows()) == (pivots_t, red_t.data[:rank_t])
            sevenths = [Fraction(rng.randint(-3, 3), 7) for _ in range(spec.cochain_dim(n))]
            coboundary = fresh.differential(Cochain.from_flat(QQ, spec.a_dim, spec.x_dim, n, sevenths))
            fractional_rhs += any(v.denominator > 1 for v in coboundary.flat_entries().values())
            for rhs in (coboundary, rand_cochain(fresh, n + 1, rng)):
                solved = ComplexSpec(spec.m, spec.comodule)
                x = solved.solve(n, rhs)
                assert (None if x is None else [x.flatten()]) == oracle_solve_many(oracle_d, [rhs.flatten()])
                assert (solved.cocycles(n).pivots, solved.cocycles(n).dense_rows()) == (pivots, red.data[:rank])
            checked += 1
    assert checked >= 8 and fractional_rhs >= 6


def test_rational_cohomology_builds_fractions_only_for_its_representatives():
    """Over Q, cohomology(n) of a fresh complex constructs one Fraction per entry of its H^n representatives and no
    other: d^n, Z^n and B^n, the containment check and the quotient stay on ints."""
    rng = random.Random(67)
    specs = _fractional_specs(rng)
    specs += [hochschild_spec(conjugate_mult(truncated_poly(QQ, 3), random_invertible(QQ, 3, rng)))]
    built = entries = 0
    for spec in specs:
        for n in (1, 2):
            if spec.cochain_dim(n + 1) > GATE_MAX_DIM:
                continue
            fresh = ComplexSpec(spec.m, spec.comodule)
            with fraction_constructions() as count:
                res = fresh.cohomology(n)
            reps = sum(len(rep.flat_entries()) for rep in res.representatives)
            assert count == [reps], n
            built, entries = built + count[0], entries + reps
    assert entries >= 20


def _random_spec(kind, rng):
    if kind == 0:
        c = divided_power_t(2, F5)
        return ComplexSpec(epsilon_embed(random_algebra(F5, 2, rng), c), random_nilpotent_comodule(c, 2, rng))
    if kind == 1:
        c = divided_power_t(2, QQ)
        m = random_gauge_transported_mult(c, random_algebra(QQ, 2, rng), rng)
        return ComplexSpec(m, random_nilpotent_comodule(c, 2, rng))
    c = grouplike_coalgebra(2, F5)
    m = ConvMorphism(c, (random_algebra(F5, 2, rng), random_algebra(F5, 2, rng)))
    return ComplexSpec(m, random_grouplike_comodule(c, 2, rng))


def _denominators(spec):
    """(the denominators of the constants of m, those of rho)."""
    m = {Fraction(v).denominator for comp in spec.m.components for v in comp.entries.values()}
    return m, {Fraction(c).denominator for triples in spec.comodule.coaction for *_, c in triples}


def test_differential_matches_oracle_on_random_cochains():
    # random specs over F_5 and Q, then the fixture specs over Q; over Q also a cochain with denominator 7 wherever
    # no constant of the spec has 7 in its denominator, so a dropped cochain denominator cannot cancel out
    rng = random.Random(31)
    specs = [_random_spec(trial % 3, rng) for trial in range(12)]
    specs += [spec for _label, spec in fixture_specs()]
    sevenths_checked = 0
    for spec in specs:
        f = spec.field
        for n in (0, 1, 2, 3):
            nus = [rand_cochain(spec, n, rng)]
            if not f.char and all(d % 7 for d in set.union(*_denominators(spec))):
                sevenths = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 7) for _ in range(spec.cochain_dim(n))]
                nus.append(Cochain.from_flat(f, spec.a_dim, spec.x_dim, n, sevenths))
                sevenths_checked += 1
            for nu in nus:
                assert spec.differential(nu) == oracle_differential(spec, nu)
    assert sevenths_checked >= 40


def _gate_specs(field, rng):
    """Layers of k[t]_{<=3} and of two-variable monomials (nonzero omega), and a direct-sum comodule."""
    out = []
    for d, n in ((divided_power_t(3, field), 1), (divided_power_t(3, field), 3), (polynomial_multi(2, 2, field), 2)):
        ext = graded_extension(d, n)
        out.append(ComplexSpec(random_mixed_mult(ext.base, rng), ext.comodule))
    ext = graded_extension(divided_power_t(3, field), 2)
    x = direct_sum_comodule(ext.comodule, random_nilpotent_comodule(ext.base, 2, rng))
    out.append(ComplexSpec(random_mixed_mult(ext.base, rng), x))
    return out


def test_differential_matches_assembled_matrix():
    # d^n applied to zero, one-entry and random cochains equals the assembled d^n times the flat cochain
    rng = random.Random(10)
    specs = [spec for field in (QQ, F2, F3, F5) for spec in _gate_specs(field, rng)]
    specs += [_random_spec(trial % 3, rng) for trial in range(6)]
    specs += [spec for _label, spec in fixture_specs()]
    compared = 0
    for spec in specs:
        f = spec.field
        for n in range(5):
            dim = spec.cochain_dim(n)
            if dim * spec.cochain_dim(n + 1) > 50_000:
                continue
            one = [f.zero] * dim
            one[rng.randrange(dim)] = f.random_element(rng, nonzero=True)
            dense = dense_differential_matrix(spec, n)
            one_entry = Cochain.from_flat(f, spec.a_dim, spec.x_dim, n, one)
            for nu in (Cochain.zero(f, spec.a_dim, spec.x_dim, n), one_entry, rand_cochain(spec, n, rng)):
                assert spec.differential(nu).flatten() == dense.mul_vec(nu.flatten()), (f.name, n)
                compared += 1
    assert compared >= 300


def test_differential_expansions_match_closed_forms():
    rng = random.Random(4)
    c = divided_power_t(1, F5)
    m0 = random_algebra(F5, 2, rng)
    x = grouplike_comodule(c, 2, (1, 0))
    spec = ComplexSpec(epsilon_embed(m0, c), x)
    nu1 = rand_cochain(spec, 1, rng)
    assert spec.differential(nu1) == _d1_manual(spec, nu1)
    nu2 = rand_cochain(spec, 2, rng)
    assert spec.differential(nu2) == _d2_manual(spec, nu2)


def test_dual_module_structure():
    # d_i(nu <- alpha) = d_i(nu) <- alpha for any functional alpha on C
    rng = random.Random(5)
    c = grouplike_coalgebra(2, QQ)
    m = ConvMorphism(c, (dual_numbers(QQ), split_pair(QQ)))
    x = Comodule(c, 2, [[(0, 0, 1)], [(1, 1, 1)]])
    spec = ComplexSpec(m, x)
    for n in (1, 2):
        nu = rand_cochain(spec, n, rng)
        alpha = tuple(QQ.random_element(rng) for _ in range(c.dim))
        for i in range(n + 2):
            lhs = oracle_coface(spec, i, n, cochain_act(nu, alpha, x))
            rhs_cochain = oracle_coface(spec, i, n, nu)
            rhs = cochain_act(rhs_cochain, alpha, x)
            assert lhs == rhs


def test_hochschild_oracle_agreement_on_named_algebras():
    # [DERIVED]: dims computed first by the independent bar-complex oracle
    for field in (QQ, F5):
        for mk in (dual_numbers, split_pair, zero_mult, rank_one_square):
            m0 = mk(field)
            table = table_from_mult(m0)
            for n in (1, 2):
                assert (
                    hochschild_dims(m0, [n])[n]
                    == oracle.hh_dim(field, m0.a_dim, table, n)
                )


def test_trivial_base_differential_matches_oracle_entrywise():
    # with C = k, X = k both assemblies produce the same matrix, not just dims
    for field in (QQ, F5):
        m0 = dual_numbers(field)
        spec = hochschild_spec_of(m0)
        table = table_from_mult(m0)
        for n in (0, 1, 2):
            mine = dense_differential_matrix(spec, n)
            theirs = oracle.boundary_matrix(field, 2, table, n)
            assert [list(r) for r in mine.data] == [list(r) for r in theirs]


def test_known_hochschild_dimensions():
    assert hochschild_dims(dual_numbers(QQ), [2])[2] == 1
    assert hochschild_dims(mat2_mult(QQ), [2])[2] == 0
    # oracle confirms both
    assert oracle.hh_dim(QQ, 2, table_from_mult(dual_numbers(QQ)), 2) == 1
    assert oracle.hh_dim(QQ, 4, table_from_mult(mat2_mult(QQ)), 2) == 0


F32003 = PrimeField(32003)


def test_hochschild_of_m2_vanishes_morita():
    # Morita invariance: HH^n(M_2) = HH^n(k) = 0 for n >= 1 (Loday, Cyclic Homology)
    assert hochschild_dims(mat2_mult(F32003), [1, 2, 3]) == {1: 0, 2: 0, 3: 0}
    assert hochschild_dims(mat2_mult(QQ), [1, 2, 3]) == {1: 0, 2: 0, 3: 0}


def test_hochschild_of_m3_vanishes_morita():
    # the ladder size: d^2 of M_3 is 6561 x 729, eliminated sparse from its 7392 entries
    for field in (F32003, QQ):
        assert hochschild_dims(matrix_units(field, 3), [1, 2]) == {1: 0, 2: 0}


def _holm_dim(k, n, char):
    # Holm 2000: HH^0 = k and HH^n = k - 1 for n >= 1 when char does not divide k,
    # every HH^n = k when it does
    return k if n == 0 or (char and k % char == 0) else k - 1


def test_hochschild_of_truncated_polynomials_holm():
    for k in range(2, 6):
        degrees = [n for n in range(10) if k ** (n + 2) <= 1024]
        assert hochschild_dims(truncated_poly(F3, k), degrees) == {n: _holm_dim(k, n, 3) for n in degrees}
    for k in (2, 3):
        degrees = range(5)
        assert hochschild_dims(truncated_poly(QQ, k), degrees) == {n: _holm_dim(k, n, 0) for n in degrees}


def test_zero_multiplication_gives_full_cochain_spaces():
    m0 = zero_mult(QQ)
    spec = hochschild_spec_of(m0)
    for n in (0, 1, 2):
        res = spec.cohomology(n)
        assert res.dim_h == spec.cochain_dim(n)
        assert res.dim_b == 0


def test_cohomology_representatives_are_cocycles():
    spec = hochschild_spec_of(dual_numbers(QQ))
    res = spec.cohomology(2)
    assert res.dim_h == res.dim_z - res.dim_b == 1
    for rep in res.representatives:
        assert spec.differential(rep).is_zero()


def test_cohomology_representatives_match_greedy_oracle():
    rng = random.Random(61)
    for field in (QQ, F5):
        for _ in range(6):
            spec = hochschild_spec_of(random_algebra(field, 2, rng))
            for n in (0, 1, 2):
                res = spec.cohomology(n)
                assert res.z_space.contains_space(res.b_space)
                assert res.dim_z == res.z_space.dim and res.dim_b == res.b_space.dim
                oracle_rows = greedy_quotient_rows(res.z_space, res.b_space)
                assert [r.flatten() for r in res.representatives] == oracle_rows


def test_rank1_reduction_counit_case():
    c = divided_power_t(1, QQ)
    m = epsilon_embed(dual_numbers(QQ), c)
    x = Comodule(c, 2, [[(0, 0, 1)], [(1, 0, 1)]])
    spec = ComplexSpec(m, x)
    red = rank1_reduce(spec, degrees=(1, 2))
    assert red.chi_is_counit
    assert spec.cohomology(2).dim_h == 2 * red.hochschild.cohomology(2).dim_h == 2


def test_rank1_factored_entries_are_the_dense_kronecker_product():
    # the sparse comparison in rank1_reduce reads the entries of act^T (x) partial^n
    c = grouplike_coalgebra(2, QQ)
    m = ConvMorphism(c, (dual_numbers(QQ), dual_numbers(QQ).scale(3)))
    x = Comodule(c, 3, [[(0, 0, 1)], [(1, 1, 1)], [(2, 0, 1)]])
    red = rank1_reduce(ComplexSpec(m, x), degrees=(1, 2))
    for n in (1, 2):
        dense = dense_of(red.act_matrix).transpose().kron(dense_differential_matrix(red.hochschild, n))
        nonzero = {(r, c): v for r, row in enumerate(dense.data) for c, v in enumerate(row) if v}
        assert red.factored_differential_entries(n) == nonzero


def test_rank1_rejects_zero_and_mixed():
    c = divided_power_t(1, QQ)
    x = Comodule(c, 1, [[(0, 0, 1)]])
    zero = ConvMorphism(c, (MultiMap.zero(QQ, 2, 2, 1),) * 2)
    with pytest.raises(NotRankOne):
        rank1_reduce(ComplexSpec(zero, x))
    # over two group-likes the components multiply independently, so this mixed m is associative
    g = grouplike_coalgebra(2, QQ)
    mixed = ConvMorphism(g, (dual_numbers(QQ), rank_one_square(QQ)))
    with pytest.raises(NotRankOne):
        rank1_reduce(ComplexSpec(mixed, Comodule(g, 1, [[(0, 0, 1)]])))


def test_rank1_zero_weight_block_vanishes():
    # chi(g1) = 0 kills the differential block of lines associated to g1
    c = grouplike_coalgebra(2, QQ)
    m = ConvMorphism(c, (dual_numbers(QQ), MultiMap.zero(QQ, 2, 2, 1)))
    x = Comodule(c, 2, [[(0, 0, 1)], [(1, 1, 1)]])
    spec = ComplexSpec(m, x)
    red = rank1_reduce(spec, degrees=(1, 2))
    assert red.chi == (QQ.one, QQ.zero)
    d1 = dense_differential_matrix(spec, 1)
    block = spec.a_dim ** 2
    # columns of the x2 block map to zero
    for col in range(block, 2 * block):
        assert all(QQ.is_zero(v) for v in d1.col(col))


def test_product_decompose_single_line():
    k = trivial_k(QQ)
    x = grouplike_comodule(k, 1, (1,))
    spec = ComplexSpec(epsilon_embed(dual_numbers(QQ), k), x)
    lines = [((QQ.one,), (QQ.one,))]
    dec = product_decompose(spec, lines, degrees=(2,))
    assert dec.totals[2] == 1


def test_product_decompose_two_lines():
    c = grouplike_coalgebra(2, QQ)
    m = ConvMorphism(c, (dual_numbers(QQ), dual_numbers(QQ)))
    x = Comodule(c, 2, [[(0, 0, 1)], [(1, 1, 1)]])
    from convdef import decompose_completely_reducible

    lines = decompose_completely_reducible(x, find_grouplikes(c))
    spec = ComplexSpec(m, x)
    dec = product_decompose(spec, lines, degrees=(2,))
    assert dec.totals[2] == 2
    assert spec.cohomology(2).dim_h == 2


def test_product_decompose_poly_corollary():
    # D = k[t], layer n = 2 has dimension 1: H^2 is one copy of HH^2(A, m(1))
    d = divided_power_t(2, QQ)
    from convdef import graded_extension

    ext = graded_extension(d, 2)
    m = epsilon_embed(dual_numbers(QQ), ext.base)
    spec = ComplexSpec(m, ext.comodule)
    gl = find_grouplikes(ext.base)
    from convdef import decompose_completely_reducible

    lines = decompose_completely_reducible(ext.comodule, gl)
    dec = product_decompose(spec, lines, degrees=(2,))
    assert len(lines) == 1
    assert dec.totals[2] == hochschild_dims(dual_numbers(QQ), [2])[2] == 1
