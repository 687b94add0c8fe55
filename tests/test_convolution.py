import math
import random
from fractions import Fraction

import pytest

from convdef import (
    Coalgebra,
    ConvDefError,
    ConvMorphism,
    MultiMap,
    NoFiltration,
    NotCocommutative,
    NotInvertible,
    ShapeError,
    congruent_mod,
    conv_compose,
    conv_tensor,
    divided_power_t,
    epsilon_embed,
    grouplike_coalgebra,
    identity_conv,
    is_associative,
    is_unit_of,
    polynomial_multi,
    pullback,
    takeuchi_invert,
    trivial_k,
)
from convdef import convolution
from convdef.linalg import Matrix, _cleared
from convdef.convolution import _right_inverse
from convdef.fields import QQ

from helpers import (
    subspace_span,
    sparse_of,
    F2,
    F3,
    F5,
    dense,
    dense_compose,
    dense_tensor,
    direct_sum,
    dual_numbers,
    fixture_specfiles,
    fraction_arithmetic_calls,
    full_space,
    matrix_inverse,
    from_dense,
    iterated_delta,
    oracle_conv_compose,
    oracle_conv_tensor,
    oracle_invert_on_bottom,
    oracle_is_associative,
    oracle_is_unit_of,
    path_coalgebra,
    random_invertible,
    transport_coalgebra,
    unit_column,
)


def rand_conv(c, a_dim, p, q, rng):
    f = c.field
    comps = []
    for _ in range(c.dim):
        rows = [[f.random_element(rng) for _ in range(a_dim**p)] for _ in range(a_dim**q)]
        comps.append(MultiMap.from_rows(f, a_dim, p, q, rows))
    return ConvMorphism(c, tuple(comps))


def non_cocommutative_coalgebra(field):
    # basis {a, b, c}: Delta(b) = a (x) b + b (x) c
    return Coalgebra(
        field,
        ["a", "b", "c"],
        [[(0, 0, 1)], [(0, 1, 1), (1, 2, 1)], [(2, 2, 1)]],
        [1, 0, 1],
    )


def test_identity_is_neutral():
    rng = random.Random(2)
    c = divided_power_t(2, QQ)
    f = rand_conv(c, 2, 2, 1, rng)
    e_src = identity_conv(c, 2, 2)
    e_tgt = identity_conv(c, 2, 1)
    assert conv_compose(f, e_src) == f
    assert conv_compose(e_tgt, f) == f


def test_trivial_coalgebra_reduces_to_composition():
    rng = random.Random(3)
    k = trivial_k(QQ)
    f = rand_conv(k, 2, 1, 1, rng)
    g = rand_conv(k, 2, 1, 1, rng)
    assert conv_compose(g, f).components[0] == dense_compose(g.components[0], f.components[0])


def test_divided_power_convolution_is_cauchy_product():
    rng = random.Random(4)
    c = divided_power_t(3, QQ)
    f = rand_conv(c, 2, 1, 1, rng)
    g = rand_conv(c, 2, 1, 1, rng)
    h = conv_compose(f, g)
    for n in range(4):
        acc = MultiMap.zero(QQ, 2, 1, 1)
        for i in range(n + 1):
            acc = acc + dense_compose(f.components[i], g.components[n - i])
        assert h.components[n] == acc


def test_conv_tensor_divided_power_formula():
    rng = random.Random(5)
    c = divided_power_t(2, QQ)
    f = rand_conv(c, 2, 1, 1, rng)
    g = rand_conv(c, 2, 1, 1, rng)
    h = conv_tensor(f, g)
    for n in range(3):
        acc = MultiMap.zero(QQ, 2, 2, 2)
        for i in range(n + 1):
            acc = acc + dense_tensor(f.components[i], g.components[n - i])
        assert h.components[n] == acc


def test_associativity_and_interchange_random():
    rng = random.Random(6)
    for c in (divided_power_t(2, F5), grouplike_coalgebra(2, F5)):
        for _ in range(5):
            f = rand_conv(c, 2, 1, 1, rng)
            g = rand_conv(c, 2, 1, 1, rng)
            h = rand_conv(c, 2, 1, 1, rng)
            assert conv_compose(conv_compose(h, g), f) == conv_compose(h, conv_compose(g, f))
            f2 = rand_conv(c, 2, 1, 1, rng)
            g2 = rand_conv(c, 2, 1, 1, rng)
            lhs = conv_compose(conv_tensor(f, g), conv_tensor(f2, g2))
            rhs = conv_tensor(conv_compose(f, f2), conv_compose(g, g2))
            assert lhs == rhs


def test_conv_tensor_requires_cocommutative():
    rng = random.Random(7)
    c = non_cocommutative_coalgebra(QQ)
    assert c.validate().ok and not c.is_cocommutative
    f = rand_conv(c, 2, 1, 1, rng)
    with pytest.raises(NotCocommutative):
        conv_tensor(f, f)


def test_axiom_checks_require_cocommutative():
    """Both axiom checks refuse a non-cocommutative coalgebra, whatever its counit (eps = 0 included)."""
    rng = random.Random(7)
    for field in (QQ, F2, F3):
        for c in (non_cocommutative_coalgebra(field), path_coalgebra(field)):
            for eps in (c.counit, [field.zero] * c.dim):
                moved = Coalgebra(field, c.names, c.delta, eps)
                m = rand_conv(moved, 2, 2, 1, rng)
                with pytest.raises(NotCocommutative):
                    is_associative(m)
                with pytest.raises(NotCocommutative):
                    is_unit_of(m, rand_conv(moved, 2, 0, 1, rng))


def test_axiom_checks_refuse_wrong_arity():
    rng = random.Random(9)
    c = divided_power_t(1, QQ)
    m = rand_conv(c, 2, 2, 1, rng)
    for bad in (rand_conv(c, 2, 1, 1, rng), rand_conv(c, 2, 2, 2, rng)):
        with pytest.raises(ShapeError):
            is_associative(bad)
        with pytest.raises(ShapeError):
            is_unit_of(bad, rand_conv(c, 2, 0, 1, rng))
    with pytest.raises(ShapeError):
        is_unit_of(m, rand_conv(c, 2, 1, 1, rng))


ARITIES = ((0, 1), (1, 1), (2, 1), (1, 2))


def rand_sparse_conv(c, p, q, rng):
    """A random morphism of arity p -> q over c (A of dim 2) with random zero components."""
    f = rand_conv(c, 2, p, q, rng)
    zero = MultiMap.zero(c.field, 2, p, q)
    return ConvMorphism(c, tuple(zero if rng.random() < 0.4 else x for x in f.components))


def test_convolution_kernel_matches_dense_oracle():
    rng = random.Random(10)
    for field in (QQ, F2, F3, F5):
        coalgebras = (
            divided_power_t(3, field),
            polynomial_multi(2, 2, field),
            grouplike_coalgebra(2, field),
            direct_sum([divided_power_t(1, field), grouplike_coalgebra(1, field)]),
            non_cocommutative_coalgebra(field),
        )
        for c in coalgebras:
            for p, q in ARITIES:
                f = rand_sparse_conv(c, p, q, rng)
                for r in (1, 2):
                    g = rand_sparse_conv(c, q, r, rng)
                    assert conv_compose(g, f) == oracle_conv_compose(g, f)
                for p2, q2 in ARITIES:
                    g = rand_sparse_conv(c, p2, q2, rng)
                    if c.is_cocommutative:
                        assert conv_tensor(f, g) == oracle_conv_tensor(f, g)
                    else:
                        for tensor in (conv_tensor, oracle_conv_tensor):
                            with pytest.raises(NotCocommutative):
                                tensor(f, g)


SCALES = (Fraction(1), Fraction(2), Fraction(-5, 3), Fraction(3, 7), Fraction(1, 5), Fraction(143, 2**70))
DENOMINATORS = (1, 3, 5, 7, 143, 2**70)


def in_field(field, values):
    """The rationals among `values` that are nonzero in `field`: numerator and denominator prime to p."""
    p = field.char
    return [x for x in values if not p or (Fraction(x).numerator % p and Fraction(x).denominator % p)]


def rescaled(c, rng):
    """C moved by the diagonal change of basis diag(s), s_i drawn from SCALES: Delta's constants become mu s_j s_k / s_i."""
    f = c.field
    s = [rng.choice(in_field(f, SCALES)) for _ in range(c.dim)]
    return transport_coalgebra(c, Matrix.from_rows(f, [[x if i == j else 0 for j in range(c.dim)] for i, x in enumerate(s)]))[0]


def rand_wide_conv(c, p, q, rng, denominators):
    """A random morphism p -> q over c (A of dim 2): entries n/d with |n| <= 9 and d from `denominators`, zero components at random."""
    f = c.field
    dens = in_field(f, denominators)
    comps = []
    for _ in range(c.dim):
        rows = [[f.coerce(Fraction(rng.randint(-9, 9), rng.choice(dens))) for _ in range(2**p)] for _ in range(2**q)]
        comps.append(MultiMap.zero(f, 2, p, q) if rng.random() < 0.3 else MultiMap.from_rows(f, 2, p, q, rows))
    return ConvMorphism(c, tuple(comps))


def assert_normalized(mor):
    """Every entry is a nonzero field element in normal form: a Fraction over Q, an int in [1, p) over F_p."""
    p = mor.field.char
    for comp in mor.components:
        for v in comp.entries.values():
            assert (type(v) is int and 0 < v < p) if p else (type(v) is Fraction and v != 0)


def test_convolution_kernel_matches_oracle_on_rational_constants_and_wide_denominators():
    """The integer kernel against the dense oracle where Delta's constants, and the entries, have denominators.

    Over Q the rescaled coalgebras have a common Delta denominator D_mu > 1; the entries
    have denominators 3, 5, 7, 143 and 2^70, or none at all (a common denominator 1).
    Over F_p the same rationals are read mod p, where they exist.
    """
    rng = random.Random(13)
    for field in (QQ, F2, F3, F5):
        base = (divided_power_t(3, field), polynomial_multi(2, 2, field))
        moved = tuple(rescaled(c, rng) for c in base)
        assert field.char or all(c.integral_delta[0] > 1 for c in moved)
        for c in base + moved:
            assert c.validate().ok
            for denominators in (DENOMINATORS, (1,)):
                for p, q in ARITIES:
                    f = rand_wide_conv(c, p, q, rng, denominators)
                    for r in (1, 2):
                        g = rand_wide_conv(c, q, r, rng, denominators)
                        for left in (g, ConvMorphism(c, (MultiMap.zero(field, 2, q, r),) * c.dim)):
                            got = conv_compose(left, f)
                            assert got == oracle_conv_compose(left, f)
                            assert_normalized(got)
                    for p2, q2 in ARITIES:
                        g = rand_wide_conv(c, p2, q2, rng, denominators)
                        got = conv_tensor(f, g)
                        assert got == oracle_conv_tensor(f, g)
                        assert_normalized(got)


def test_unit_check_matches_oracle_on_rational_constants():
    """is_unit_of, which calls the kernel directly, against the dense oracle on rescaled coalgebras."""
    rng = random.Random(14)
    verdicts = {True: 0, False: 0}
    for field in (QQ, F2, F3, F5):
        for c in (rescaled(divided_power_t(3, field), rng), rescaled(polynomial_multi(2, 2, field), rng)):
            m0, u0 = dual_numbers(field), unit_column(field, 2)
            ms = [epsilon_embed(m0, c)] + [rand_wide_conv(c, 2, 1, rng, DENOMINATORS) for _ in range(2)]
            us = [epsilon_embed(u0, c)] + [rand_wide_conv(c, 0, 1, rng, DENOMINATORS) for _ in range(2)]
            for m in ms:
                for u in us:
                    got = is_unit_of(m, u)
                    assert got == oracle_is_unit_of(m, u)
                    verdicts[got] += 1
    assert verdicts[True] >= 8 and verdicts[False] > 0, verdicts


def assert_canonical_form(mor):
    """mor carries the integral form its product seeded, and it is `_cleared` of its entries: D > 0, gcd(D, every int) = 1."""
    den, ints = mor.__dict__["integral_form"]
    assert (den, ints) == _cleared([comp.entries for comp in mor.components])
    assert den > 0 and math.gcd(den, *(v for e in ints for v in e.values())) == 1
    assert den == 1 or not mor.field.char


def test_products_carry_their_canonical_integral_form():
    """conv_compose and conv_tensor seed the product's canonical form, and a product used as an operand matches the oracle.

    Over Q, F_2, F_3 and F_5, on the rescaled coalgebras and wide denominators of the kernel
    test above.  Over Q some product has a D below D_mu * D_L * D_R, so the gcd reduction runs.
    """
    rng = random.Random(16)
    reduced = 0
    for field in (QQ, F2, F3, F5):
        base = (divided_power_t(3, field), polynomial_multi(2, 2, field))
        for c in base + tuple(rescaled(b, rng) for b in base):
            for denominators in (DENOMINATORS, (1,)):
                f, g = rand_wide_conv(c, 1, 1, rng, denominators), rand_wide_conv(c, 1, 2, rng, denominators)
                h = rand_wide_conv(c, 2, 1, rng, denominators)
                gf, ff = conv_compose(g, f), conv_tensor(f, f)
                products = [
                    (gf, oracle_conv_compose(g, f)),
                    (ff, oracle_conv_tensor(f, f)),
                    (conv_compose(h, gf), oracle_conv_compose(h, gf)),
                    (conv_compose(h, ff), oracle_conv_compose(h, ff)),
                    (conv_tensor(gf, f), oracle_conv_tensor(gf, f)),
                ]
                for got, want in products:
                    assert got == want
                    assert_normalized(got)
                    assert_canonical_form(got)
                bound = c.integral_delta[0] * g.integral_form[0] * f.integral_form[0]
                reduced += gf.integral_form[0] < bound
    assert reduced > 0


def _moved(c, rng):
    """c moved by a diagonal change of basis drawn from SCALES, with the images of its grading layers."""
    f = c.field
    s = [rng.choice(in_field(f, SCALES)) for _ in range(c.dim)]
    return transport_coalgebra(c, Matrix.from_rows(f, [[x if i == j else 0 for j in range(c.dim)] for i, x in enumerate(s)]))


def test_inversion_and_axiom_checks_match_oracles_on_rational_constants():
    """takeuchi_invert, is_associative and is_unit_of against the dense oracles over Q, F_2, F_3 and F_5.

    The coalgebras are rescaled, so Delta and the counit have rational constants, and the
    entries have wide denominators.  A morphism singular on the bottom layer is refused by
    both the library and the oracle.  Associative multiplications with units are the dual
    numbers transported by an invertible gauge f: m_f = f^-1 * m * (f (x) f), with unit f^-1 * u.
    """
    rng = random.Random(17)
    inverted = singular = 0
    verdicts = {True: 0, False: 0}
    for field in (QQ, F2, F3, F5):
        for c, layers in (_moved(divided_power_t(3, field), rng), _moved(polynomial_multi(2, 2, field), rng)):
            e = identity_conv(c, 2, 1)
            zero_bottom = ConvMorphism(c, (MultiMap.zero(field, 2, 1, 1),) + e.components[1:])
            for f in [rand_wide_conv(c, 1, 1, rng, DENOMINATORS) for _ in range(4)] + [zero_bottom]:
                try:
                    oracle_invert_on_bottom(f, layers[0])
                except NotInvertible:
                    with pytest.raises(NotInvertible):
                        takeuchi_invert(f)
                    singular += 1
                    continue
                inv = takeuchi_invert(f)
                assert oracle_conv_compose(f, inv) == e == oracle_conv_compose(inv, f)
                inverted += 1
                m, u = epsilon_embed(dual_numbers(field), c), epsilon_embed(unit_column(field, 2), c)
                m_f = oracle_conv_compose(oracle_conv_compose(inv, m), oracle_conv_tensor(f, f))
                u_f = oracle_conv_compose(inv, u)
                wild_m, wild_u = rand_wide_conv(c, 2, 1, rng, DENOMINATORS), rand_wide_conv(c, 0, 1, rng, DENOMINATORS)
                for mult in (m_f, wild_m):
                    assert is_associative(mult) == oracle_is_associative(mult)
                    for unit in (u_f, wild_u):
                        got = is_unit_of(mult, unit)
                        assert got == oracle_is_unit_of(mult, unit)
                        verdicts[got] += 1
                assert is_associative(m_f) and is_unit_of(m_f, u_f)
    assert inverted >= 16 and singular >= 8 and verdicts[False] > 0, (inverted, singular, verdicts)


def test_q_convolution_makes_no_fraction_arithmetic():
    """Over Q, conv_compose, conv_tensor, takeuchi_invert, is_associative, is_unit_of and Coalgebra.validate make 0 calls to Fraction's products, sums and differences.

    Every product runs on the operands' integral forms, and the associator and the unit
    axioms subtract and compare forms; a returned product builds one Fraction(n, D) per
    entry.  The inverse's equations are int sums with the cleared counit on the right, and
    its two-sided check compares forms.  The coalgebra axioms are summed on `integral_delta`.
    The inputs are built first; the calls are counted by wrapping
    those class attributes, restored afterwards.
    """
    rng = random.Random(15)
    c, _layers = _moved(divided_power_t(3, QQ), rng)
    assert c.integral_delta[0] > 1 and any(x not in (0, 1) for x in c.counit)
    e = identity_conv(c, 2, 1)
    assert takeuchi_invert(e) == e
    f, g = rand_wide_conv(c, 1, 1, rng, DENOMINATORS), rand_wide_conv(c, 1, 1, rng, DENOMINATORS)
    m, u = epsilon_embed(dual_numbers(QQ), c), epsilon_embed(unit_column(QQ, 2), c)
    wild_m, wild_u = rand_wide_conv(c, 2, 1, rng, DENOMINATORS), rand_wide_conv(c, 0, 1, rng, DENOMINATORS)
    fresh = Coalgebra(QQ, c.names, c.delta, c.counit)  # c's value, its report not yet computed
    with fraction_arithmetic_calls() as calls:
        composed, tensored = conv_compose(g, f), conv_tensor(f, g)
        chained, inv = conv_compose(composed, f), takeuchi_invert(f)
        verdicts = [is_associative(m), is_associative(wild_m), is_unit_of(m, u), is_unit_of(m, wild_u), is_unit_of(wild_m, u)]
        verdicts.append(fresh.validate().ok)
    assert calls == []
    assert composed == oracle_conv_compose(g, f) and tensored == oracle_conv_tensor(f, g)
    assert chained == oracle_conv_compose(composed, f)
    assert oracle_conv_compose(f, inv) == e == oracle_conv_compose(inv, f)
    assert not composed.is_zero() and not tensored.is_zero()
    assert verdicts == [True, False, True, False, False, True]


def test_pullback_identity_and_epsilon():
    rng = random.Random(8)
    c = divided_power_t(2, QQ)
    f = rand_conv(c, 2, 1, 1, rng)
    assert pullback(f, sparse_of(Matrix.identity(QQ, 3)), c) == f
    # pulling back an eps-embedding along any coalgebra morphism is an eps-embedding
    k = trivial_k(QQ)
    iota = sparse_of(Matrix.from_rows(QQ, [[1], [0], [0]]))
    m0 = MultiMap.from_rows(QQ, 2, 1, 1, [[1, 2], [3, 4]])
    emb = epsilon_embed(m0, c)
    assert pullback(emb, iota, k) == epsilon_embed(m0, k)


def test_pullback_picks_constant_term():
    rng = random.Random(9)
    c = divided_power_t(2, QQ)
    f = rand_conv(c, 2, 2, 1, rng)
    k = trivial_k(QQ)
    iota = sparse_of(Matrix.from_rows(QQ, [[1], [0], [0]]))
    assert pullback(f, iota, k).components[0] == f.components[0]


def test_pullback_functorial():
    rng = random.Random(10)
    d = divided_power_t(2, QQ)
    c = divided_power_t(1, QQ)
    iota = sparse_of(Matrix.from_rows(QQ, [[1, 0], [0, 1], [0, 0]]))
    f = rand_conv(d, 2, 1, 1, rng)
    g = rand_conv(d, 2, 1, 1, rng)
    assert pullback(conv_compose(g, f), iota, c) == conv_compose(
        pullback(g, iota, c), pullback(f, iota, c)
    )
    assert pullback(conv_tensor(g, f), iota, c) == conv_tensor(
        pullback(g, iota, c), pullback(f, iota, c)
    )


def test_congruence_examples():
    rng = random.Random(11)
    c = divided_power_t(3, QQ)
    filt = c.grading_filtration()
    f = rand_conv(c, 2, 1, 1, rng)
    assert congruent_mod(f, f, 3, filt)
    g_comps = list(f.components)
    g_comps[3] = g_comps[3] + MultiMap.identity(QQ, 2, 1)
    g = ConvMorphism(c, tuple(g_comps))
    assert congruent_mod(f, g, 2, filt)
    assert not congruent_mod(f, g, 3, filt)
    for empty in (None, []):  # no layer to read is refused like no filtration, not with an IndexError
        for n in (0, 1, 5):
            with pytest.raises(NoFiltration, match="^no filtration supplied for congruence$"):
                congruent_mod(f, g, n, empty)


def test_congruence_tensor_degree_additivity():
    # f == 0 mod n and f' == 0 mod n' force f (x) f' == 0 mod n + n'
    rng = random.Random(12)
    c = divided_power_t(3, QQ)
    filt = c.grading_filtration()
    zero11 = MultiMap.zero(QQ, 2, 1, 1)
    z = ConvMorphism(c, (zero11,) * 4)
    f_comps = [zero11, zero11] + [rand_conv(c, 2, 1, 1, rng).components[0] for _ in range(2)]
    f = ConvMorphism(c, tuple(f_comps))           # f == 0 mod 1
    g_comps = [zero11] + [rand_conv(c, 2, 1, 1, rng).components[0] for _ in range(3)]
    g = ConvMorphism(c, tuple(g_comps))           # g == 0 mod 0
    zero22 = ConvMorphism(c, (MultiMap.zero(QQ, 2, 2, 2),) * 4)
    assert congruent_mod(f, z, 1, filt) and congruent_mod(g, z, 0, filt)
    assert congruent_mod(conv_tensor(f, g), zero22, 1, filt)


def test_takeuchi_identity():
    c = divided_power_t(2, QQ)
    e = identity_conv(c, 2, 1)
    assert takeuchi_invert(e) == e


def test_takeuchi_geometric_series():
    # f = Id + N t: inverse components are Id, -N, N^2, -N^3 ...
    c = divided_power_t(3, QQ)
    n_mat = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    comps = [
        MultiMap.identity(QQ, 2, 1),
        from_dense(n_mat, 2, 1, 1),
        MultiMap.zero(QQ, 2, 1, 1),
        MultiMap.zero(QQ, 2, 1, 1),
    ]
    f = ConvMorphism(c, tuple(comps))
    g = takeuchi_invert(f)
    e = identity_conv(c, 2, 1)
    assert conv_compose(f, g) == e and conv_compose(g, f) == e
    assert dense(g.components[1]) == -n_mat
    assert dense(g.components[2]) == n_mat @ n_mat
    assert dense(g.components[3]) == -(n_mat @ n_mat @ n_mat)


def test_takeuchi_random_and_congruence_of_inverse():
    rng = random.Random(13)
    c = divided_power_t(3, QQ)
    filt = c.grading_filtration()
    e = identity_conv(c, 2, 1)
    for _ in range(10):
        # invertible on the bottom layer: component at 1 is a random invertible matrix
        comps = [from_dense(random_invertible(QQ, 2, rng), 2, 1, 1)]
        for _k in range(3):
            comps.append(
                MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
            )
        f = ConvMorphism(c, tuple(comps))
        g = takeuchi_invert(f)
        assert conv_compose(f, g) == e and conv_compose(g, f) == e
    # (Id + f)^{-1} == Id - f mod n+1 whenever f == 0 mod n
    for n in (0, 1, 2):
        comps = [MultiMap.zero(QQ, 2, 1, 1)] * (n + 1)
        while len(comps) < 4:
            comps.append(
                MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
            )
        f = ConvMorphism(c, tuple(comps))
        g = takeuchi_invert(e + f)
        assert congruent_mod(g, e - f, n + 1, filt)


def test_takeuchi_not_invertible():
    c = divided_power_t(1, QQ)
    comps = [MultiMap.zero(QQ, 2, 1, 1), MultiMap.identity(QQ, 2, 1)]
    f = ConvMorphism(c, tuple(comps))
    with pytest.raises(NotInvertible):
        takeuchi_invert(f)


@pytest.mark.parametrize("field", [QQ, F3, F5], ids=["Q", "F3", "F5"])
def test_unipotent_inverse_matches_takeuchi_invert(field):
    """The summed powers of -g are the solved inverse of e + g, for g concentrated in one degree n >= 1.

    Over k[t]_{<=N}, N = 1..5, and polynomial_multi(2, 3), at arity 1 and 2; (-g)^{*k}
    lives in degree kn, so every power up to k = floor(N / n) can be nonzero.
    """
    rng = random.Random(83)
    cases = 0
    for c in [divided_power_t(n, field) for n in range(1, 6)] + [polynomial_multi(2, 3, field)]:
        for arity in (1, 2):
            e = identity_conv(c, 2, arity)
            zero = MultiMap.zero(field, 2, arity, arity)
            for n in range(1, c.max_degree() + 1):
                comps = rand_conv(c, 2, arity, arity, rng).components
                g = ConvMorphism(c, tuple(x if deg == n else zero for x, deg in zip(comps, c.grading)))
                assert not g.is_zero()
                got = convolution._unipotent_inverse(c, g.integral_form, e.integral_form)
                assert got == takeuchi_invert(e + g).integral_form
                cases += 1
    assert cases == 2 * (1 + 2 + 3 + 4 + 5 + 3)


@pytest.mark.parametrize("field", [QQ, F3, F5], ids=["Q", "F3", "F5"])
def test_unipotent_inverse_refuses_powers_that_never_vanish(field):
    """A g with a degree-0 component, here g = e with (-g)^{*k} = (-1)^k e, is refused rather than summed forever."""
    for c in (divided_power_t(3, field), polynomial_multi(2, 3, field)):
        e = identity_conv(c, 2, 1).integral_form
        with pytest.raises(ConvDefError, match="not unipotent"):
            convolution._unipotent_inverse(c, e, e)


def _invertible_over(c, rng):
    """eps(-) P for a random invertible P, plus random maps on the basis elements of positive degree."""
    f, a = c.field, 2
    top = [comp if g > 0 else MultiMap.zero(f, a, 1, 1) for comp, g in zip(rand_conv(c, a, 1, 1, rng).components, c.grading)]
    return epsilon_embed(from_dense(random_invertible(f, a, rng), a, 1, 1), c) + ConvMorphism(c, tuple(top))


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_inversion_needs_no_grading(field):
    """takeuchi_invert gives the oracle's inverse over graded and ungraded coalgebras, and refuses a singular f over each.

    Besides coalgebras graded compatibly with Delta, k[t]_{<=3} is read with a scrambled
    grading (incompatible with Delta), a negative one (compatible, below 0) and none at
    all after a random change of basis p; f and its singular variant move with it.
    The singular f vanishes on the degree-0 part, which holds the coradical.
    """
    rng = random.Random(73)
    t3 = divided_power_t(3, field)
    graded = [t3, polynomial_multi(2, 2, field), direct_sum([divided_power_t(2, field), grouplike_coalgebra(2, field)])]
    graded += [c for _name, sf in fixture_specfiles(field) for c in sf.coalgebras.values() if c.grading is not None]
    cases = []
    for c in graded:
        f = _invertible_over(c, rng)
        zero = MultiMap.zero(field, 2, 1, 1)
        cases.append((f, ConvMorphism(c, tuple(zero if g == 0 else comp for comp, g in zip(f.components, c.grading)))))
    f, singular = cases[0]
    for grading in ([0, 2, 1, 3], [0, -1, -2, -3]):
        c = Coalgebra(field, t3.names, t3.delta, t3.counit, grading=grading)
        cases.append((ConvMorphism(c, f.components), ConvMorphism(c, singular.components)))
    p = random_invertible(field, 4, rng)
    moved, _layers = transport_coalgebra(t3, p)
    assert moved.grading is None and moved.validate().ok
    p_inv = sparse_of(matrix_inverse(p))
    cases.append((pullback(f, p_inv, moved), pullback(singular, p_inv, moved)))
    for f, singular in cases:
        c = f.coalgebra
        full = full_space(field, c.dim)
        assert takeuchi_invert(f) == oracle_invert_on_bottom(f, full)
        for invert in (takeuchi_invert, lambda g: oracle_invert_on_bottom(g, full)):
            with pytest.raises(NotInvertible):
                invert(singular)
    assert len(cases) == len(graded) + 3


def _bottom_cases(field, rng):
    """(coalgebra, bottom layer) pairs: group-like bottoms, a 2-dim bottom, transported layers."""
    t3, poly = divided_power_t(3, field), polynomial_multi(2, 2, field)
    summed = direct_sum([divided_power_t(2, field), divided_power_t(1, field)])
    cases = [(c, c.grading_filtration()[0]) for c in (t3, poly, grouplike_coalgebra(3, field), summed)]
    for c in (t3, summed, direct_sum([poly, grouplike_coalgebra(1, field)])):
        moved, layers = transport_coalgebra(c, random_invertible(field, c.dim, rng))
        cases.append((moved, layers[0]))
    non_cocomm = non_cocommutative_coalgebra(field)
    cases.append((non_cocomm, subspace_span(field, 3, [[1, 0, 0], [0, 0, 1]])))
    return cases


def test_right_inverse_matches_oracle():
    """The one solve on all of C gives the inverse the stacked Kronecker blocks give on the full layer, and the same refusals."""
    rng = random.Random(53)
    solved = singular = non_unit_constants = 0
    for field in (QQ, F3, F5):
        for c, _bottom in _bottom_cases(field, rng):
            non_unit_constants += any(mu != 1 for triples in c.delta for _, _, mu in triples)
            full = full_space(field, c.dim)
            for a_dim, arity in ((2, 1), (3, 1), (2, 2)) * 2:
                f = rand_conv(c, a_dim, arity, arity, rng)
                try:
                    want = oracle_invert_on_bottom(f, full)
                except NotInvertible:
                    with pytest.raises(NotInvertible):
                        _right_inverse(f)
                    singular += 1
                    continue
                assert _right_inverse(f) == want
                solved += 1
            zero = ConvMorphism(c, (MultiMap.zero(field, 2, 1, 1),) * c.dim)
            for g in (zero, rand_conv(c, 2, 1, 2, rng)):
                with pytest.raises(NotInvertible):
                    _right_inverse(g)
                with pytest.raises(NotInvertible):
                    oracle_invert_on_bottom(g, full)
                singular += 1
    assert solved > 80 and singular > 40 and non_unit_constants >= 6, (solved, singular, non_unit_constants)


def test_slot_insertion_congruence_lemma():
    # For Theta vanishing on C_n^(x)p and phi the degree-0 projection,
    # Theta o Delta^{p-1} == sum_i Theta o phi_i o Delta^{p-1} on C_{n+1}.
    rng = random.Random(14)
    c = divided_power_t(3, QQ)
    d = c.dim
    for p in (2, 3):
        for n in (0, 1, 2):
            # random functional on C^(x)p vanishing on tensors with all degrees <= n
            theta = [QQ.zero] * (d**p)
            for idx in range(d**p):
                digits = []
                rest = idx
                for _ in range(p):
                    digits.append(rest % d)
                    rest //= d
                if any(c.grading[t] > n for t in digits):
                    theta[idx] = QQ.random_element(rng)

            def apply_theta(vec):
                return sum(a * b for a, b in zip(theta, vec))

            def phi_i(vec, i):
                # phi applied to all slots except slot i (1-based), phi = degree-0 projection
                out = [QQ.zero] * len(vec)
                for idx, coeff in enumerate(vec):
                    if coeff == 0:
                        continue
                    digits = []
                    rest = idx
                    for _ in range(p):
                        digits.append(rest % d)
                        rest //= d
                    digits.reverse()
                    keep = True
                    for pos, t in enumerate(digits, start=1):
                        if pos != i and c.grading[t] != 0:
                            keep = False
                            break
                    if keep:
                        out[idx] = out[idx] + coeff
                return out

            # evaluate both sides on every basis vector of degree <= n+1
            for b in range(d):
                if c.grading[b] > n + 1:
                    continue
                tensor = iterated_delta(c, tuple(QQ.one if i == b else QQ.zero for i in range(d)), p)
                lhs = apply_theta(tensor)
                rhs = sum(apply_theta(phi_i(tensor, i)) for i in range(1, p + 1))
                assert lhs == rhs
