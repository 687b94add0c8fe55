import random
from fractions import Fraction

import pytest

from convdef import (
    Coalgebra,
    ConvMorphism,
    MultiMap,
    NoFiltration,
    NotCocommutative,
    NotInvertible,
    ShapeError,
    Subspace,
    congruent_mod,
    conv_compose,
    conv_tensor,
    direct_sum,
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
from convdef.linalg import Matrix
from convdef.convolution import _invert_on_bottom
from convdef.fields import QQ

from helpers import (
    sparse_of,
    F2,
    F3,
    F5,
    dense,
    dense_compose,
    dense_tensor,
    dual_numbers,
    from_dense,
    oracle_conv_compose,
    oracle_conv_tensor,
    oracle_invert_on_bottom,
    oracle_is_unit_of,
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
    rng = random.Random(7)
    c = non_cocommutative_coalgebra(QQ)
    m = rand_conv(c, 2, 2, 1, rng)
    with pytest.raises(NotCocommutative):
        is_associative(m)
    with pytest.raises(NotCocommutative):
        is_unit_of(m, rand_conv(c, 2, 0, 1, rng))


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


COUNTED = ("__mul__", "__rmul__", "__add__", "__radd__")


def test_kernel_makes_no_fraction_products_or_sums():
    """Over Q, conv_compose and conv_tensor make 0 calls to Fraction.__mul__, __rmul__, __add__ and __radd__.

    The kernel clears denominators and multiplies and adds ints; each output
    entry is one Fraction(sum, D_mu D_L D_R).  The calls are counted by
    wrapping those class attributes, restored afterwards.
    """
    rng = random.Random(15)
    c = rescaled(divided_power_t(3, QQ), rng)
    f = rand_wide_conv(c, 1, 1, rng, DENOMINATORS)
    g = rand_wide_conv(c, 1, 1, rng, DENOMINATORS)
    calls = []
    saved = {name: getattr(Fraction, name) for name in COUNTED}

    def counting(name, fn):
        return lambda a, b: calls.append(name) or fn(a, b)

    try:
        for name, fn in saved.items():
            setattr(Fraction, name, counting(name, fn))
        Fraction(1, 2) * Fraction(1, 3) + 1
        probe, calls[:] = list(calls), []
        composed, tensored = conv_compose(g, f), conv_tensor(f, g)
    finally:
        for name, fn in saved.items():
            setattr(Fraction, name, fn)
    assert probe == ["__mul__", "__add__"]
    assert calls == []
    assert composed == oracle_conv_compose(g, f) and tensored == oracle_conv_tensor(f, g)
    assert not composed.is_zero() and not tensored.is_zero()


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
    with pytest.raises(NoFiltration):
        congruent_mod(f, g, 1, None)


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
    filt = c.grading_filtration()
    assert takeuchi_invert(e, filt) == e


def test_takeuchi_geometric_series():
    # f = Id + N t: inverse components are Id, -N, N^2, -N^3 ...
    c = divided_power_t(3, QQ)
    filt = c.grading_filtration()
    n_mat = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    comps = [
        MultiMap.identity(QQ, 2, 1),
        from_dense(n_mat, 2, 1, 1),
        MultiMap.zero(QQ, 2, 1, 1),
        MultiMap.zero(QQ, 2, 1, 1),
    ]
    f = ConvMorphism(c, tuple(comps))
    g = takeuchi_invert(f, filt)
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
        g = takeuchi_invert(f, filt)
        assert conv_compose(f, g) == e and conv_compose(g, f) == e
    # (Id + f)^{-1} == Id - f mod n+1 whenever f == 0 mod n
    for n in (0, 1, 2):
        comps = [MultiMap.zero(QQ, 2, 1, 1)] * (n + 1)
        while len(comps) < 4:
            comps.append(
                MultiMap.from_rows(QQ, 2, 1, 1, [[QQ.random_element(rng) for _ in range(2)] for _ in range(2)])
            )
        f = ConvMorphism(c, tuple(comps))
        g = takeuchi_invert(e + f, filt)
        assert congruent_mod(g, e - f, n + 1, filt)


def test_takeuchi_not_invertible():
    c = divided_power_t(1, QQ)
    filt = c.grading_filtration()
    comps = [MultiMap.zero(QQ, 2, 1, 1), MultiMap.identity(QQ, 2, 1)]
    f = ConvMorphism(c, tuple(comps))
    with pytest.raises(NotInvertible):
        takeuchi_invert(f, filt)


def _bottom_cases(field, rng):
    """(coalgebra, bottom layer) pairs: group-like bottoms, a 2-dim bottom, transported layers."""
    t3, poly = divided_power_t(3, field), polynomial_multi(2, 2, field)
    summed = direct_sum([divided_power_t(2, field), divided_power_t(1, field)])
    cases = [(c, c.grading_filtration()[0]) for c in (t3, poly, grouplike_coalgebra(3, field), summed)]
    for c in (t3, summed, direct_sum([poly, grouplike_coalgebra(1, field)])):
        moved, layers = transport_coalgebra(c, random_invertible(field, c.dim, rng))
        cases.append((moved, layers[0]))
    non_cocomm = non_cocommutative_coalgebra(field)
    cases.append((non_cocomm, Subspace.span(field, 3, [[1, 0, 0], [0, 0, 1]])))
    return cases


def test_invert_on_bottom_matches_oracle():
    """The sparse equations solve the system the stacked Kronecker blocks built, to the same answer."""
    rng = random.Random(53)
    solved = singular = non_unit_rows = 0
    for field in (QQ, F3, F5):
        for c, bottom in _bottom_cases(field, rng):
            non_unit_rows += any(x not in (0, 1) for row in bottom.dense_rows() for x in row)
            for a_dim, arity in ((2, 1), (3, 1), (2, 2)) * 2:
                f = rand_conv(c, a_dim, arity, arity, rng)
                try:
                    want = oracle_invert_on_bottom(f, bottom)
                except NotInvertible:
                    with pytest.raises(NotInvertible):
                        _invert_on_bottom(f, bottom)
                    singular += 1
                    continue
                assert _invert_on_bottom(f, bottom) == want
                solved += 1
            zero = ConvMorphism(c, (MultiMap.zero(field, 2, 1, 1),) * c.dim)
            for g in (zero, rand_conv(c, 2, 1, 2, rng)):
                for invert in (_invert_on_bottom, oracle_invert_on_bottom):
                    with pytest.raises(NotInvertible):
                        invert(g, bottom)
                singular += 1
    assert solved > 80 and singular > 40 and non_unit_rows >= 6, (solved, singular, non_unit_rows)


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
                tensor = c.iterated_delta(tuple(QQ.one if i == b else QQ.zero for i in range(d)), p)
                lhs = apply_theta(tensor)
                rhs = sum(apply_theta(phi_i(tensor, i)) for i in range(1, p + 1))
                assert lhs == rhs
