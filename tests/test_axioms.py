"""The structure-constant associativity and unit checks against the dense oracle."""

import random
from fractions import Fraction

from convdef import (
    Coalgebra,
    ConvMorphism,
    MultiMap,
    SpecFileError,
    conv_compose,
    conv_tensor,
    divided_power_t,
    epsilon_embed,
    is_associative,
    is_unit_of,
    polynomial_multi,
    takeuchi_invert,
)
from convdef.fields import QQ
from convdef.specfile import parse_path

from helpers import (
    F2,
    F3,
    F5,
    FIXTURES,
    dual_numbers,
    mult_from_table,
    oracle_is_associative,
    oracle_is_unit_of,
    square_zero_3,
    truncated_poly_3,
    unit_column,
)


def broken(mor: ConvMorphism, index: int, rng: random.Random) -> ConvMorphism:
    """mor with one structure constant of component `index` raised by one."""
    comps = list(mor.components)
    comp = comps[index]
    f = comp.field
    rows = [list(row) for row in comp.rows()]
    r, col = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[r][col] = f.add(rows[r][col], f.one)
    comps[index] = MultiMap.from_rows(f, comp.a_dim, comp.src_arity, comp.tgt_arity, rows)
    return ConvMorphism(mor.coalgebra, tuple(comps))


def with_broken(mor: ConvMorphism, rng: random.Random) -> list[ConvMorphism]:
    """mor, then one break in its base component and one in its last (X) component."""
    return [mor] + [broken(mor, i, rng) for i in sorted({0, len(mor.components) - 1})]


def assert_agree(ms, us=()) -> tuple[int, int]:
    """Sparse and oracle agree on every m, and on units: each u against ms[0], us[0] against each m.

    Returns the counts of associative and non-associative ms.
    """
    verdicts = []
    for m in ms:
        got = is_associative(m)
        assert got == oracle_is_associative(m)
        verdicts.append(got)
    for m, u in [(ms[0], u) for u in us] + [(m, us[0]) for m in ms[1:] if us]:
        assert is_unit_of(m, u) == oracle_is_unit_of(m, u)
    return sum(verdicts), len(verdicts) - sum(verdicts)


def test_sparse_checks_match_oracle_on_fixtures():
    rng = random.Random(0)
    algebras = units = 0
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            sf, _failures = parse_path(str(path))
        except SpecFileError:
            continue  # a side file (a cochain document), not a spec
        for alg in sf.algebras.values():
            assert is_associative(alg.m)
            us = () if alg.unit is None else with_broken(alg.unit, rng)
            if us:
                assert is_unit_of(alg.m, alg.unit)
            assert_agree(with_broken(alg.m, rng), us)
            algebras += 1
            units += bool(us)
    assert algebras >= 8 and units >= 4


UNITAL = {1: lambda f: mult_from_table(f, [[(1,)]]), 2: dual_numbers, 3: square_zero_3}


def random_unital_pair(c, a, rng):
    """A gauge transport (m_f, u_f) = (g^-1 * m * (g (x) g), g^-1 * u) of an embedded unital algebra."""
    f = c.field
    m0 = UNITAL[a](f) if a < 3 or rng.random() < 0.5 else truncated_poly_3(f)
    m = epsilon_embed(m0, c)
    u = epsilon_embed(unit_column(f, a), c)
    comps = [MultiMap.identity(f, a, 1)] + [
        MultiMap.from_rows(f, a, 1, 1, [[f.random_element(rng) for _ in range(a)] for _ in range(a)])
        for _ in range(1, c.dim)
    ]
    gauge = ConvMorphism(c, tuple(comps))
    inv = takeuchi_invert(gauge)
    return conv_compose(conv_compose(inv, m), conv_tensor(gauge, gauge)), conv_compose(inv, u)


def random_morphism(c, a, src, rng):
    f = c.field
    return ConvMorphism(
        c,
        tuple(
            MultiMap.from_rows(f, a, src, 1, [[f.random_element(rng) for _ in range(a**src)] for _ in range(a)])
            for _ in range(c.dim)
        ),
    )


def test_sparse_checks_match_oracle_on_random_algebras():
    rng = random.Random(11)
    tally = [0, 0]
    for f in (QQ, F2, F3, F5):
        for c in (divided_power_t(2, f), divided_power_t(3, f), polynomial_multi(2, 2, f)):
            # a = 3 over Q only along k[t]_{<=2}: the gauge grows rational entries
            for a in (1, 2, 3) if f.char or c.dim == 3 else (1, 2):
                m, u = random_unital_pair(c, a, rng)
                assert is_associative(m) and is_unit_of(m, u)
                ms = with_broken(m, rng) + [random_morphism(c, a, 2, rng)]
                us = with_broken(u, rng) + [random_morphism(c, a, 0, rng)]
                for i, n in enumerate(assert_agree(ms, us)):
                    tally[i] += n
    assert tally[0] >= 34 and tally[1] >= 34


def matrix_units(field, k):
    """M_k in the basis of matrix units, E_ij at index i*k + j."""
    dim = k * k
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for x in range(dim):
        for y in range(dim):
            i, j = divmod(x, k)
            j2, l = divmod(y, k)
            if j == j2:
                table[x][y][i * k + l] = 1
    return mult_from_table(field, table)


def test_m3_over_truncated_polynomials_is_associative():
    # a = 9: the dense oracle composes 81 x 729 Kronecker products here
    c = divided_power_t(2, QQ)
    m = epsilon_embed(matrix_units(QQ, 3), c)
    assert is_associative(m)
    for index in (0, c.dim - 1):
        comps = list(m.components)
        rows = [list(row) for row in comps[index].rows()]
        rows[0][0] += 1  # E_11 E_11 picks up an extra E_11
        comps[index] = MultiMap.from_rows(QQ, 9, 2, 1, rows)
        assert not is_associative(ConvMorphism(c, tuple(comps)))


def counit_broken(c, rng):
    """c with eps = 0, then c with one counit value moved: both fail a counit axiom."""
    f = c.field
    moved = list(c.counit)
    i = rng.randrange(c.dim)
    moved[i] = f.add(moved[i], f.coerce(Fraction(2, 3) if not f.char else 1))
    return [Coalgebra(f, c.names, c.delta, [f.zero] * c.dim), Coalgebra(f, c.names, c.delta, moved)]


def test_associator_matches_oracle_where_the_counit_fails():
    """The associator contracts eps as it stands, so its verdict is the dense oracle's where the counit axioms fail.

    With eps = 0 both e (x) m and m (x) e vanish and every m is associative; a moved eps
    breaks associative multiplications and leaves others associative.
    """
    rng = random.Random(41)
    tally = {True: 0, False: 0}
    for f in (QQ, F2, F3):
        for c in (divided_power_t(2, f), polynomial_multi(2, 2, f)):
            for moved_c in counit_broken(c, rng):
                assert not (moved_c.validate().counit_left and moved_c.validate().counit_right)
                for a in (1, 2):
                    m, _u = random_unital_pair(c, a, rng)
                    for mult in with_broken(m, rng) + [random_morphism(c, a, 2, rng)]:
                        moved = ConvMorphism(moved_c, mult.components)
                        got = is_associative(moved)
                        assert got == oracle_is_associative(moved)
                        assert got or any(moved_c.counit)
                        tally[got] += 1
    assert tally[True] >= 80 and tally[False] >= 10, tally

