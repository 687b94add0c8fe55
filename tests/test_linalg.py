import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from convdef import (
    FieldMismatch,
    ShapeError,
    SparseMatrix,
    Subspace,
    image,
    rref,
)
from convdef.linalg import Matrix, _dense, _sparse
from convdef.fields import QQ, PrimeField

from helpers import (
    F3,
    FIXTURES,
    dense_differential_matrix,
    dense_of,
    fraction_arithmetic_calls,
    full_space,
    greedy_quotient_rows,
    oracle_kernel,
    oracle_rref,
    oracle_solve_many,
    reduce_dense,
    sparse_of,
)

F2 = PrimeField(2)
F5 = PrimeField(5)


def rand_matrix(field, rows, cols, rng):
    return Matrix.from_rows(field, [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)])


def row_space(m: Matrix) -> Subspace:
    return Subspace(m.field, m.cols, map(_sparse, m.data))


def kernel(m: Matrix) -> list:
    """The canonical kernel basis of m from `Subspace.kernel`, as dense vectors."""
    return [_dense(m.field, m.cols, v) for v in row_space(m).kernel()]


def augmented(m: Matrix, rhs: list) -> Subspace:
    """The RREF of [m | B]: each right-hand side b is written into m's row dicts at column m.cols + k."""
    rows = [_sparse(r) for r in m.data]
    for k, b in enumerate(rhs, start=m.cols):
        for row, x in zip(rows, map(m.field.coerce, b)):
            if x:
                row[k] = x
    return Subspace(m.field, m.cols + len(rhs), rows)


def dense_solutions(m: Matrix, ech: Subspace):
    """`Subspace.solutions` of [m | B] as dense vectors, or None."""
    sols = ech.solutions(m.cols)
    return None if sols is None else [_dense(m.field, m.cols, x) for x in sols]


def solve(m: Matrix, rhs: list):
    """(canonical solutions of m x = b per b in rhs or None, canonical kernel of m) from one elimination of [m | B].

    Checked against `oracle_solve_many` and `oracle_kernel` on the way.
    """
    ech = augmented(m, rhs)
    sols, ker = dense_solutions(m, ech), [_dense(m.field, m.cols, v) for v in ech.restrict(m.cols).kernel()]
    assert sols == oracle_solve_many(m, rhs)
    assert ker == oracle_kernel(m)
    return sols, ker


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, piv, rank = rref(m)
    assert red == m and piv == (0, 1) and rank == 2


def test_rref_zero():
    m = Matrix.zeros(QQ, 3, 2)
    red, piv, rank = rref(m)
    assert red == m and piv == () and rank == 0


def test_rref_f2_dependent_rows():
    m = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    red, piv, rank = rref(m)
    assert red == Matrix.from_rows(F2, [[1, 1], [0, 0]])
    assert rank == 1 and piv == (0,)


def test_rref_idempotent_random():
    rng = random.Random(11)
    for field in (QQ, F5):
        for _ in range(20):
            m = rand_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
            red = rref(m)[0]
            assert rref(red)[0] == red


def test_mixed_fields_rejected():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(F2, 2)
    with pytest.raises(FieldMismatch):
        a @ b
    with pytest.raises(FieldMismatch):
        a + b


def test_empty_operands_keep_their_shape():
    # a transpose or product with a zero dimension is built from the shape: rows of the right length, zeros in a product
    for field in (QQ, F5):
        assert Matrix(field, 0, 3, ()).transpose() == Matrix(field, 3, 0, ((), (), ()))
        assert Matrix(field, 2, 0, ((), ())).transpose() == Matrix(field, 0, 2, ())
        assert Matrix(field, 2, 0, ((), ())) @ Matrix(field, 0, 3, ()) == Matrix.zeros(field, 2, 3)
    # a SparseMatrix keeps its shape too, one column dict per column, and its spaces match the dense oracles
    for field in (QQ, F5):
        two_thirds = field.coerce(Fraction(2, 3))
        for m in (
            SparseMatrix(field, 0, 3, ({}, {}, {})),
            SparseMatrix(field, 3, 0, ()),
            SparseMatrix(field, 3, 3, ({0: field.one, 2: two_thirds}, {}, {1: field.one, 2: two_thirds})),
        ):
            t = m.transpose()
            assert (t.rows, t.cols, len(t.columns), len(m.columns)) == (m.cols, m.rows, m.rows, m.cols)
            assert t.transpose() == m and t.nnz == m.nnz
            dense = dense_of(m)
            for space, oracle in ((image(m), dense.transpose()), (m.row_space(), dense)):
                red, _pivots, rank = oracle_rref(oracle)
                assert space.dense_rows() == red.data[:rank]
            assert [_dense(field, m.cols, v) for v in m.row_space().kernel()] == oracle_kernel(dense)


def test_solve_identity():
    m = Matrix.identity(QQ, 2)
    (x,), ker = solve(m, [(1, 2)])
    assert x == (1, 2) and ker == []


def test_solve_zero_map():
    m = Matrix.zeros(QQ, 2, 2)
    (x,), ker = solve(m, [(0, 0)])
    assert x == (0, 0) and len(ker) == 2
    # off the image: no solution, and the kernel is still read off the left block
    sols, ker = solve(m, [(1, 0)])
    assert sols is None and len(ker) == 2


def test_solve_rank_one():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    (x,), ker = solve(m, [(1, 2)])
    # substitute back
    assert m.mul_vec(x) == (1, 2)
    # the canonical solution: the free variable is zero
    assert x == (1, 0)
    assert len(ker) == 1 and ker[0] == (-2, 1)
    for k in ker:
        assert all(v == 0 for v in m.mul_vec(k))
    assert solve(m, [(1, 0)])[0] is None


def test_solve_shape_error():
    for rhs in ([(1, 2, 3)], [(1, 2), (1,)]):
        with pytest.raises(ShapeError):
            oracle_solve_many(Matrix.identity(QQ, 2), rhs)


def test_solve_exactness_random():
    rng = random.Random(5)
    for field in (QQ, F5):
        for _ in range(25):
            m = rand_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng)
            target = tuple(field.random_element(rng) for _ in range(m.cols))
            b = m.mul_vec(target)
            sols, ker = solve(m, [b])
            assert sols is not None
            (x,) = sols
            assert m.mul_vec(x) == b
            assert all(field.is_zero(x[j]) for j in range(m.cols) if j not in oracle_rref(m)[1])
            for k in ker:
                assert all(field.is_zero(v) for v in m.mul_vec(k))
            assert len(ker) == m.cols - rref(m)[2]


def test_solve_many_matches_per_column_solve():
    rng = random.Random(17)
    for field in (QQ, F2, F5):
        for _ in range(40):
            m = rand_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
            if rng.random() < 0.3:
                m = m.vstack(m)  # rank-deficient: a random rhs is often unsolvable
            rhs = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.7:
                    rhs.append(m.mul_vec([field.random_element(rng) for _ in range(m.cols)]))
                else:
                    rhs.append(tuple(field.random_element(rng) for _ in range(m.rows)))
            singles = [solve(m, [b])[0] for b in rhs]
            got = solve(m, rhs)[0]
            if any(res is None for res in singles):
                assert got is None
            else:
                assert got == [res[0] for res in singles]
    assert solve(Matrix.identity(QQ, 2), [])[0] == []
    with pytest.raises(ShapeError):
        solve(Matrix.identity(QQ, 2), [(1, 2, 3)])


def test_subspace_canonical_equality():
    u1 = Subspace.span(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    u2 = Subspace.span(QQ, 3, [(1, 0, -1), (2, 3, 1)])
    assert u1 == u2
    assert hash(u1) == hash(u2)


def test_kernel_basis_canonical():
    m = Matrix.from_rows(QQ, [[1, 2, 3]])
    ker = kernel(m)
    # one vector per free column, free entry one
    assert ker == [(-2, 1, 0), (-3, 0, 1)] == oracle_kernel(m)
    for k in ker:
        assert all(v == 0 for v in m.mul_vec(k))


def _random_subspace(field, n, count, rng):
    return Subspace.span(field, n, [tuple(field.random_element(rng) for _ in range(n)) for _ in range(count)])


def test_subspace_pivots_are_leading_columns():
    rng = random.Random(41)
    for field in (QQ, F2, F5):
        for _ in range(30):
            n = rng.randint(1, 6)
            u = _random_subspace(field, n, rng.randint(0, n + 1), rng)
            assert len(u.pivots) == u.dim
            assert list(u.pivots) == sorted(set(u.pivots))
            for row, p in zip(u.dense_rows(), u.pivots):
                assert row[p] == field.one
                assert all(field.is_zero(x) for x in row[:p])
    assert Subspace(QQ, 3).pivots == ()
    assert full_space(F5, 3).pivots == (0, 1, 2)


def test_subspace_reduce_properties():
    rng = random.Random(43)
    for field in (QQ, F2, F5):
        for _ in range(30):
            n = rng.randint(1, 6)
            u = _random_subspace(field, n, rng.randint(0, n), rng)
            v = tuple(field.random_element(rng) for _ in range(n))
            r = reduce_dense(u, v)
            assert all(field.is_zero(r[p]) for p in u.pivots)
            assert u.contains_vector(tuple(field.sub(a, b) for a, b in zip(v, r)))
            # the representative depends only on the coset
            w = tuple(field.add(a, b) for a, b in zip(v, u.dense_rows()[0])) if u.dim else v
            assert reduce_dense(u, w) == r
            assert u.contains_vector(v) == all(field.is_zero(x) for x in r)
    with pytest.raises(ShapeError):
        reduce_dense(full_space(QQ, 2), (1, 2, 3))


def test_quotient_basis_matches_greedy_oracle():
    rng = random.Random(47)
    for field in (QQ, F2, F5):
        for _ in range(40):
            n = rng.randint(1, 7)
            z = _random_subspace(field, n, rng.randint(0, n), rng)
            combos = [
                tuple(
                    field.normalize(sum(field.mul(c, row[j]) for c, row in zip(coeffs, z.dense_rows())))
                    for j in range(n)
                )
                for coeffs in (
                    [field.random_element(rng) for _ in range(z.dim)] for _ in range(rng.randint(0, z.dim + 1))
                )
            ]
            b = Subspace.span(field, n, combos)
            assert z.contains_space(b)
            kept = [_dense(field, n, row) for row in z.quotient_basis(b)]
            assert kept == greedy_quotient_rows(z, b)
            assert len(kept) == z.dim - b.dim


def test_quotient_basis_keeps_later_rows_when_sub_hits_earlier_ones():
    z = full_space(QQ, 3)
    # e0 + e2 lies in sub: the greedy scan keeps e0, e1 and skips e2
    b = Subspace.span(QQ, 3, [(1, 0, 1)])
    kept = [_dense(QQ, 3, row) for row in z.quotient_basis(b)]
    assert kept == [(1, 0, 0), (0, 1, 0)] == greedy_quotient_rows(z, b)


def _matrix(field, rows, cols):
    return Matrix(field, len(rows), cols, tuple(tuple(field.coerce(x) for x in row) for row in rows))


@st.composite
def matrices(draw):
    """Zero-heavy matrices up to 9 x 9 over Q, F_2, F_3 and F_5, some with repeated rows."""
    field = draw(st.sampled_from((QQ, F2, F3, F5)))
    nr, nc = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if field.char:
        nonzero = st.integers(1, field.char - 1)
    else:
        nonzero = st.fractions(-3, 3, max_denominator=3).filter(bool)
    entry = st.one_of(st.just(0), st.just(0), nonzero)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if rows and draw(st.booleans()):
        # duplicates and multiples make the matrix rank-deficient
        for _ in range(draw(st.integers(1, 3))):
            src, c = rows[draw(st.integers(0, nr - 1))], draw(nonzero)
            rows.append([x * c for x in src])
    return _matrix(field, rows, nc)


# empty (0 x k, k x 0, 0 x 0), all-zero, duplicate-row, rank-deficient, tall and wide
EDGE_MATRICES = [
    Matrix(QQ, 0, 3, ()),
    Matrix(F2, 3, 0, ((),) * 3),
    Matrix(F5, 0, 0, ()),
    Matrix.zeros(QQ, 4, 3),
    Matrix.zeros(F3, 2, 5),
    _matrix(F2, [[1, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0]], 3),
    _matrix(QQ, [[0, 2, 4, 0], [0, 1, 2, 0], [0, 0, 0, 3]], 4),
    _matrix(F5, [[1, 2], [3, 4], [0, 1], [2, 2], [4, 0], [1, 1]], 2),
    _matrix(F3, [[0, 1, 2, 0, 1, 0, 2, 1]], 8),
]


def check_echelon_against_oracle(m):
    red, pivots, rank = oracle_rref(m)
    assert rref(m) == (red, pivots, rank)
    ech = row_space(m)
    assert (ech.pivots, ech.dim) == (pivots, rank)
    assert ech.dense_rows() == red.data[:rank]
    # the RREF is unique: any insertion order gives the same rows
    backwards = Subspace(m.field, m.cols, [{j: x for j, x in enumerate(r) if x} for r in reversed(m.data)])
    assert backwards.rows == ech.rows
    assert kernel(m) == oracle_kernel(m)
    # the left block of an echelon is the echelon of the left block
    k = m.cols // 2
    left = Matrix(m.field, m.rows, k, tuple(r[:k] for r in m.data))
    assert ech.restrict(k).rows == row_space(left).rows
    red_t, _pivots_t, rank_t = oracle_rref(m.transpose())
    assert image(sparse_of(m)).dense_rows() == red_t.data[:rank_t]


@given(matrices())
def test_echelon_matches_dense_gauss_jordan(m):
    check_echelon_against_oracle(m)


@pytest.mark.parametrize("m", EDGE_MATRICES, ids=repr)
def test_echelon_edge_cases_match_dense_gauss_jordan(m):
    check_echelon_against_oracle(m)


# -- Q elimination on ints, against the dense Fraction oracle ------------------------------


def _wide(rng) -> Fraction:
    """A nonzero rational with a numerator up to 2^64 and a denominator up to 2^70."""
    den = rng.choice((1, 3, 143, 2**64 + 13, 2**70, rng.randint(1, 2**70)))
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 2**64), den)


def _wide_q_matrices() -> list:
    """Q matrices with wide entries, negative leading entries and rows that are rational multiples of others."""
    rng = random.Random(29)
    out = []
    for _ in range(12):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[_wide(rng) if rng.random() < 0.6 else 0 for _ in range(nc)] for _ in range(nr)]
        for row in rows:
            lead = next((x for x in row if x), 0)
            if lead > 0 and rng.random() < 0.7:
                row[:] = [-x for x in row]
        for _ in range(rng.randint(1, 3)):
            rows.append([x * _wide(rng) for x in rng.choice(rows)])
        rng.shuffle(rows)
        out.append(_matrix(QQ, rows, nc))
    return out


def _trunc3_dense_differentials() -> list:
    """d^1 (27 x 9) and the tall d^2 (81 x 27) of Q[x]/(x^3) in a dense rational basis."""
    from convdef import hochschild_spec
    from convdef.specfile import parse_path

    sf, _failures = parse_path(str(FIXTURES / "trunc3_dense.json"))
    spec = hochschild_spec(sf.algebras["A"].m.components[0])
    return [dense_differential_matrix(spec, n) for n in (1, 2)]


Q_WIDE_MATRICES = _wide_q_matrices() + _trunc3_dense_differentials()


def _oracle_reduce(m, v) -> tuple:
    """v minus multiples of the oracle's RREF rows, one per pivot, leaving it zero at every pivot."""
    red, pivots, _rank = oracle_rref(m)
    out = list(v)
    for row, c in zip(red.data, pivots):
        factor = out[c]
        out = [x - factor * y for x, y in zip(out, row)]
    return tuple(out)


def _is_normalized_fraction(x) -> bool:
    return type(x) is Fraction and x != 0 and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("m", Q_WIDE_MATRICES, ids=lambda m: f"{m.rows}x{m.cols}")
def test_q_echelon_on_wide_rationals_matches_dense_gauss_jordan(m):
    """Rows, pivots, kernel, reduce and solutions over Q equal the oracle's, with rows of normalized Fractions."""
    check_echelon_against_oracle(m)
    ech = row_space(m)
    for piv, row in ech.rows.items():
        assert type(row[piv]) is Fraction and row[piv] == Fraction(1)
        assert all(_is_normalized_fraction(x) for x in row.values())
        # the held int row R is primitive, positive at its pivot, and the RREF row is R / R[piv]
        held = ech._ints[piv]
        assert math.gcd(*held.values()) == 1 and held[piv] > 0
        assert row == {c: Fraction(v, held[piv]) for c, v in held.items()}
    rng = random.Random(m.rows * 31 + m.cols)
    in_span = tuple(sum((x * _wide(rng) for x in col), Fraction(0)) for col in zip(*m.data))
    noise = [0] * m.cols
    noise[rng.randrange(m.cols)] = _wide(rng)
    vecs = [tuple(_wide(rng) for _ in range(m.cols)), in_span, tuple(a + b for a, b in zip(in_span, noise))]
    k = m.cols // 2
    left = Matrix(QQ, m.rows, k, tuple(r[:k] for r in m.data))
    for v in vecs:
        got = ech.reduce(_sparse(v))
        assert all(_is_normalized_fraction(x) for x in got.values())
        assert _dense(QQ, m.cols, got) == _oracle_reduce(m, v)
        # a restricted echelon is held as Fractions; its int rows are built on first use
        assert _dense(QQ, k, ech.restrict(k).reduce(_sparse(v[:k]))) == _oracle_reduce(left, v[:k])
    image_rhs = m.mul_vec(tuple(_wide(rng) for _ in range(m.cols)))
    for rhs in ([image_rhs], [image_rhs, tuple(_wide(rng) for _ in range(m.rows))]):
        sols = dense_solutions(m, augmented(m, rhs))
        solvable = all(oracle_rref(m.hstack(Matrix(QQ, m.rows, 1, tuple((x,) for x in b))))[2] == ech.dim for b in rhs)
        assert (sols is not None) == solvable
        if sols is None:
            continue
        for x, b in zip(sols, rhs):
            # the canonical solution: m x = b with every free variable zero
            assert m.mul_vec(x) == b
            assert all(x[j] == 0 for j in range(m.cols) if j not in ech.pivots)


def test_q_elimination_makes_no_fraction_arithmetic():
    """Over Q, building a Subspace and reducing against it make 0 calls to Fraction's products, sums and differences.

    Elimination runs on primitive int rows and builds each entry as one
    Fraction.  The calls are counted by wrapping those class attributes,
    restored afterwards.
    """
    rng = random.Random(41)
    cases = [(m, [_sparse(r) for r in m.data], [_sparse(tuple(_wide(rng) for _ in range(m.cols))) for _ in range(3)])
             for m in Q_WIDE_MATRICES[-4:]]
    results = []
    with fraction_arithmetic_calls() as calls:
        for m, rows, vecs in cases:
            ech = Subspace(QQ, m.cols, rows)
            left = ech.restrict(m.cols // 2)
            reduced = [ech.reduce(v) for v in vecs]
            reduced_left = [left.reduce({c: x for c, x in v.items() if c < left.ambient}) for v in vecs]
            results.append((ech, reduced, reduced_left))
    assert calls == []
    for (m, _rows, vecs), (ech, reduced, reduced_left) in zip(cases, results):
        red, _pivots, rank = oracle_rref(m)
        assert ech.dense_rows() == red.data[:rank]
        k = m.cols // 2
        left = Matrix(QQ, m.rows, k, tuple(r[:k] for r in m.data))
        for v, got, got_left in zip(vecs, reduced, reduced_left):
            dv = _dense(QQ, m.cols, v)
            assert _dense(QQ, m.cols, got) == _oracle_reduce(m, dv)
            assert _dense(QQ, k, got_left) == _oracle_reduce(left, dv[:k])
    assert any(x.denominator > 1 for ech, _r, _l in results for row in ech.rows.values() for x in row.values())
