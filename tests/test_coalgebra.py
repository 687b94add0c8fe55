import itertools
from fractions import Fraction
import random

import pytest

from convdef import (
    Coalgebra,
    DegreeMismatch,
    NotExhaustive,
    ShapeError,
    Subspace,
    UnsupportedSearch,
    coradical_filtration,
    direct_sum,
    divided_power_t,
    find_grouplikes,
    graded_extension,
    grouplike_coalgebra,
    image,
    is_coalgebra_filtration,
    polynomial_multi,
    trivial_k,
)
from convdef.coalgebra import normalize_triples, triples_columns
from convdef.errors import SpecFileError
from convdef.linalg import unit_vec
from convdef.fields import QQ
from convdef.specfile import parse_path

from helpers import (
    delta_matrix,
    triples_matrix,
    F2,
    F3,
    F5,
    FIXTURES,
    oracle_is_coalgebra_filtration,
    random_invertible,
    reduce_dense,
    transport_coalgebra,
)


def test_validate_trivial():
    c = trivial_k(QQ)
    rep = c.validate()
    assert rep.ok and rep.cocommutative


def test_validate_divided_power():
    c = divided_power_t(3, QQ)
    rep = c.validate()
    assert rep.ok and rep.cocommutative and rep.grading_compatible


def test_validate_broken_coassociativity():
    # mutate k[t]_{<=3} so Delta(t) = t (x) t: coassociativity fails at t^2
    good = divided_power_t(3, QQ)
    delta = [list(t) for t in good.delta]
    delta[1] = [(1, 1, 1)]
    c = Coalgebra(QQ, good.names, delta, good.counit)
    rep = c.validate()
    assert not rep.coassociative
    assert not rep.ok


def test_iterated_delta_p1_returns_input():
    c = divided_power_t(2, QQ)
    v = (1, 2, 3)
    assert c.iterated_delta(v, 1) == (1, 2, 3)


def test_iterated_delta_t2():
    c = divided_power_t(2, QQ)
    out = c.iterated_delta(unit_vec(QQ, 3, 2), 2)
    # 1 (x) t^2 + t (x) t + t^2 (x) 1
    expect = [0] * 9
    expect[0 * 3 + 2] = 1
    expect[1 * 3 + 1] = 1
    expect[2 * 3 + 0] = 1
    assert list(out) == expect


def test_iterated_delta_slot_independence():
    # coassociativity generalized: expanding any slot at each step agrees
    rng = random.Random(1)
    for c in (divided_power_t(3, QQ), polynomial_multi(2, 2, QQ), grouplike_coalgebra(2, F5)):
        v = tuple(c.field.coerce(rng.randint(0, 3)) for _ in range(c.dim))
        for p in (2, 3, 4):
            ref = c.iterated_delta(v, p)
            for slots in itertools.product(*(range(1, arity + 1) for arity in range(1, p))):
                cur = v
                for arity, slot in enumerate(slots, start=1):
                    cur = c.expand_slot(cur, arity, slot - 1)
                assert cur == ref


def test_delta_component_examples():
    c = divided_power_t(2, QQ)
    t2 = unit_vec(QQ, 3, 2)
    # I = (n) returns the element itself
    assert c.delta_component(t2, (2,)) == t2
    # middle component of Delta(t^2) is t (x) t
    comp = c.delta_component(t2, (1, 1))
    expect = [0] * 9
    expect[1 * 3 + 1] = 1
    assert list(comp) == expect
    with pytest.raises(DegreeMismatch):
        c.delta_component(t2, (1, 0))


def test_delta_component_two_variables():
    p = polynomial_multi(2, 2, QQ)
    i_t1t2 = p.names.index("t1*t2")
    i_t1 = p.names.index("t1")
    i_t2 = p.names.index("t2")
    comp = p.delta_component(unit_vec(QQ, p.dim, i_t1t2), (1, 1))
    expect = [0] * (p.dim * p.dim)
    expect[i_t1 * p.dim + i_t2] = 1
    expect[i_t2 * p.dim + i_t1] = 1
    assert list(comp) == expect


def test_delta_component_sum_recovers_full():
    p = polynomial_multi(2, 2, QQ)
    for i in range(p.dim):
        v = unit_vec(QQ, p.dim, i)
        deg = p.grading[i]
        full = p.iterated_delta(v, 2)
        total = [QQ.zero] * len(full)
        for a in range(deg + 1):
            comp = p.delta_component(v, (a, deg - a))
            total = [x + y for x, y in zip(total, comp)]
        assert tuple(total) == full


def test_coradical_filtration_divided_power():
    n = 3
    c = divided_power_t(n, QQ)
    c0 = Subspace.span(QQ, c.dim, [unit_vec(QQ, c.dim, 0)])
    chain = coradical_filtration(c, c0)
    assert [layer.dim for layer in chain] == list(range(1, n + 2))
    for k, layer in enumerate(chain):
        expect = Subspace.span(QQ, c.dim, [unit_vec(QQ, c.dim, i) for i in range(k + 1)])
        assert layer == expect
    assert is_coalgebra_filtration(c, chain)


def test_coradical_filtration_cosemisimple():
    c = grouplike_coalgebra(3, QQ)
    full = Subspace.full(QQ, 3)
    assert coradical_filtration(c, full) == [full]


def test_coradical_filtration_not_exhaustive():
    c = grouplike_coalgebra(2, QQ)
    c0 = Subspace.span(QQ, 2, [(1, 0)])
    with pytest.raises(NotExhaustive):
        coradical_filtration(c, c0)


def test_find_grouplikes_basis():
    c = divided_power_t(3, QQ)
    gl = find_grouplikes(c)
    assert gl.elements == (unit_vec(QQ, 4, 0),)
    g = grouplike_coalgebra(3, QQ)
    assert len(find_grouplikes(g).elements) == 3


def test_find_grouplikes_exhaustive_f2():
    c = grouplike_coalgebra(2, F2)
    gl = find_grouplikes(c, mode="exhaustive")
    assert set(gl.elements) == {(1, 0), (0, 1)}


def test_find_grouplikes_exhaustive_needs_finite_field():
    with pytest.raises(UnsupportedSearch):
        find_grouplikes(trivial_k(QQ), mode="exhaustive")


def test_builtins_validate():
    for c in (
        trivial_k(QQ),
        divided_power_t(2, QQ),
        divided_power_t(4, F5),
        polynomial_multi(2, 2, QQ),
        polynomial_multi(3, 1, F2),
        direct_sum([trivial_k(QQ), divided_power_t(1, QQ)]),
        grouplike_coalgebra(2, F2),
    ):
        rep = c.validate()
        assert rep.ok and rep.cocommutative


def test_polynomial_multi_layer_dims():
    # dim of the degree-n layer is binom(n + r - 1, n)
    from math import comb

    for r in (1, 2, 3):
        p = polynomial_multi(r, 2, QQ)
        for n in range(3):
            assert len(p.degree_indices(n)) == comb(n + r - 1, n)
    assert polynomial_multi(2, 1, QQ).dim == 3


def test_grading_filtration_is_coalgebra_filtration():
    for c in (divided_power_t(3, QQ), polynomial_multi(2, 2, F5)):
        assert is_coalgebra_filtration(c, c.grading_filtration())


def _fixture_coalgebras() -> list:
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            sf, _failures = parse_path(str(path))
        except SpecFileError:
            continue  # a side file (a cochain document), not a spec
        out.extend(c for c in sf.coalgebras.values() if c not in out)
    return out


def _layer_lists(base: list, rng: random.Random) -> list:
    """A filtration and broken variants: reversed, a layer dropped or repeated, perturbed, shifted."""
    f, d = base[0].field, base[0].ambient

    def noise():
        return tuple(f.random_element(rng) for _ in range(d))

    out = [base, base[::-1], [Subspace(f, d)] + base]
    for n, layer in enumerate(base):
        out.append(base[:n] + base[n + 1 :])
        out.append(base[: n + 1] + base[n:])
        if layer.dim:
            rows = list(layer.dense_rows())
            rows[-1] = tuple(f.add(x, y) for x, y in zip(rows[-1], noise()))
            out.append(base[:n] + [Subspace.span(f, d, rows)] + base[n + 1 :])
            out.append(base[:n] + [layer.sum(Subspace.span(f, d, [noise()]))] + base[n + 1 :])
    return out


def _random_chain(f, d, rng: random.Random) -> list:
    rows = [tuple(f.random_element(rng) for _ in range(d)) for _ in range(d)]
    cuts = sorted(rng.sample(range(1, d + 1), rng.randint(1, d)))
    if cuts[-1] != d:
        cuts.append(d)
    layers = [Subspace.span(f, d, rows[:k]) for k in cuts]
    return layers if layers[-1].dim == d else layers + [Subspace.full(f, d)]


def _has_non_unit_row(layers) -> bool:
    return any(
        sum(not layer.field.is_zero(x) for x in row) > 1 for layer in layers for row in layer.dense_rows()
    )


def test_filtration_check_matches_dense_oracle():
    # the adapted-basis sweep against dense spans in C (x) C, on unit-vector and general layers
    rng = random.Random(11)
    outcomes = {False: 0, True: 0}
    cases = 0
    for field in (QQ, F2, F3, F5):
        coalgebras = [
            divided_power_t(3, field),
            polynomial_multi(2, 2, field),
            grouplike_coalgebra(3, field),
            direct_sum([divided_power_t(2, field), grouplike_coalgebra(1, field), divided_power_t(1, field)]),
        ] + [Coalgebra(field, c.names, c.delta, c.counit, grading=c.grading) for c in _fixture_coalgebras()]
        for c in coalgebras:
            moved, moved_layers = transport_coalgebra(c, random_invertible(field, c.dim, rng))
            assert moved.validate().ok and oracle_is_coalgebra_filtration(moved, moved_layers)
            for target, base in ((c, c.grading_filtration()), (moved, moved_layers)):
                lists = _layer_lists(base, rng) + [_random_chain(field, c.dim, rng) for _ in range(3)]
                for layers in lists:
                    got = is_coalgebra_filtration(target, layers)
                    assert got == oracle_is_coalgebra_filtration(target, layers), (target, layers)
                    cases += 1
                    if _has_non_unit_row(layers):
                        outcomes[got] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes
    assert cases > 500


def test_grading_filtration_layers_are_spans_of_unit_vectors():
    """Each layer C_{<=n}, held as its own RREF without elimination, is the eliminated span of its unit vectors."""
    rng = random.Random(13)
    for field in (QQ, F2, F3):
        coalgebras = [
            trivial_k(field),
            divided_power_t(3, field),
            polynomial_multi(2, 2, field),
            grouplike_coalgebra(3, field),
            direct_sum([divided_power_t(2, field), grouplike_coalgebra(1, field), divided_power_t(1, field)]),
        ] + [Coalgebra(field, c.names, c.delta, c.counit, grading=c.grading) for c in _fixture_coalgebras() if c.grading]
        for c in coalgebras:
            layers = c.grading_filtration()
            assert len(layers) == c.max_degree() + 1
            for n, layer in enumerate(layers):
                span = Subspace.span(field, c.dim, [unit_vec(field, c.dim, i) for i, g in enumerate(c.grading) if g <= n])
                assert layer == span and layer.pivots == span.pivots
                v = tuple(field.random_element(rng) for _ in range(c.dim))
                assert reduce_dense(layer, v) == reduce_dense(span, v)
                assert layer.contains_space(span) and span.contains_space(layer)


def test_subspace_is_one_value_across_construction_routes():
    """Trusted RREF rows, eliminated spans, restrictions and images of one subspace are equal and hash-equal."""
    rng = random.Random(17)
    for field in (QQ, F2, F3):
        for c in (divided_power_t(3, field), polynomial_multi(2, 2, field), grouplike_coalgebra(2, field)):
            d = c.dim
            units = [unit_vec(field, d, i) for i in range(d)]
            for n, layer in enumerate(c.grading_filtration()):
                kept = [u for u, g in zip(units, c.grading) if g <= n]
                # an eliminated span of the same rows, scaled, mixed and listed in another order
                mixed = [tuple(field.mul(field.random_element(rng) or field.one, x) for x in u) for u in kept[::-1]]
                mixed += [tuple(field.add(a, b) for a, b in zip(u, v)) for u, v in zip(kept, kept[1:])]
                routes = [layer, Subspace.span(field, d, kept), Subspace.span(field, d, mixed)]
                # a restriction is trusted-constructed from the held rows
                padded = Subspace.span(field, d + 2, [u + (field.random_element(rng),) * 2 for u in kept])
                routes.append(padded.restrict(d))
                for a in routes:
                    for b in routes:
                        assert a == b and hash(a) == hash(b)
                assert len(set(routes)) == 1
            full = Subspace.full(field, d)
            assert full == Subspace.span(field, d, units) == c.grading_filtration()[-1]
            assert hash(full) == hash(Subspace.span(field, d, units[::-1]))
            assert full != Subspace(field, d) and full != Subspace.full(field, d + 1)
        for ext in (graded_extension(divided_power_t(3, field), 2), graded_extension(polynomial_multi(2, 2, field), 1)):
            dt, dc = ext.ctilde.dim, ext.base.dim
            cols = [[field.zero] * dt for _ in range(dc)]
            for r, j, v in ext.iota.entries:
                cols[j][r] = v
            iota_image = image(ext.iota)
            span = Subspace.span(field, dt, cols)
            assert iota_image == span and hash(iota_image) == hash(span) and iota_image.dim == dc
            assert ext.extension_filtration() == [span, Subspace.span(field, dt, [unit_vec(field, dt, i) for i in range(dt)])]


def test_filtration_layers_of_the_wrong_ambient_raise():
    c = divided_power_t(2, QQ)
    wide = [unit_vec(QQ, 4, i) for i in range(3)]
    for layers in (
        [Subspace.span(QQ, 4, wide[:1]), Subspace.full(QQ, 3)],  # nesting compares F^4 with F^3
        [Subspace.span(QQ, 4, wide)],  # exhaustive by dimension, but in F^4
        [Subspace.span(QQ, 4, wide[:1]), Subspace.span(QQ, 4, wide)],
    ):
        for check in (is_coalgebra_filtration, oracle_is_coalgebra_filtration):
            with pytest.raises(ShapeError):
                check(c, layers)


def test_normalize_triples_merges_sorts_and_drops_zeros():
    raw = [[(1, 0, 1), (0, 1, 2), (1, 0, "1/2"), (0, 0, 0)], [(0, 1, 1), (0, 1, -1)]]
    assert normalize_triples(QQ, raw, (2, 2), "delta") == (((0, 1, 2), (1, 0, Fraction(3, 2))), ())


def test_normalize_triples_range_errors_keep_their_messages():
    with pytest.raises(ShapeError, match=r"^delta triple \(0,2\) out of range for index 1$"):
        Coalgebra(QQ, ["a", "b"], [[(0, 0, 1)], [(0, 2, 1)]], [1, 0])
    with pytest.raises(ShapeError, match=r"^delta triple \(-1,0\) out of range for index 0$"):
        normalize_triples(QQ, [[(-1, 0, 1)]], (1, 1), "delta")


def test_triples_matrix_layouts():
    # one source, triples in a 2 x 3 index range
    triples = (((0, 2, 5), (1, 0, 7)),)
    plain = triples_matrix(QQ, triples, (2, 3))
    flipped = triples_matrix(QQ, triples, (2, 3), flip=True)
    assert plain.rows == flipped.rows == 6 and plain.cols == 1
    assert plain.col(0) == (0, 0, 5, 7, 0, 0)    # row j * 3 + k
    assert flipped.col(0) == (0, 7, 0, 0, 5, 0)  # row k * 2 + j
    # the library's sparse columns hold the same entries as the dense oracle's columns
    assert triples_columns(triples, 3) == [{2: 5, 3: 7}]
    c = divided_power_t(2, QQ)
    dense = delta_matrix(c)
    assert triples_columns(c.delta, 3) == [{r: x for r, x in enumerate(dense.col(i)) if x} for i in range(3)]
