"""Shared builders for the test suite: catalog algebras, random instances."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from convdef import (
    AlgebraMC,
    Coalgebra,
    Cochain,
    Comodule,
    ConvMorphism,
    MultiMap,
    NotCocommutative,
    ShapeError,
    Subspace,
    conv_compose,
    conv_tensor,
    divided_power_t,
    epsilon_embed,
    gauge_transport,
    identity_conv,
    takeuchi_invert,
)
from convdef.deformation import _gauge_from_cochain, complex_of
from convdef.errors import ConvDefError, SpecMismatch
from convdef.linalg import Matrix, _dense, _integral, _lincomb, _sparse
from convdef.fields import PrimeField, require_same_field

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

# Fraction's arithmetic dunders, which the integer-kernel tests count by wrapping them
FRACTION_ARITHMETIC = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__")


@contextmanager
def fraction_arithmetic_calls():
    """The list of FRACTION_ARITHMETIC names called inside the block, in order.

    The class attributes are wrapped for the block and restored afterwards; a
    probe first checks that the wrappers count.
    """
    calls: list[str] = []
    saved = {name: getattr(Fraction, name) for name in FRACTION_ARITHMETIC}

    def counting(name, fn):
        return lambda a, b: calls.append(name) or fn(a, b)

    try:
        for name, fn in saved.items():
            setattr(Fraction, name, counting(name, fn))
        Fraction(1, 2) * Fraction(1, 3) + 1 - Fraction(1, 5)
        assert calls == ["__mul__", "__add__", "__sub__"]
        calls.clear()
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(Fraction, name, fn)


@contextmanager
def fraction_constructions():
    """A one-element list holding the number of Fractions constructed inside the block.

    `Fraction.__new__` is wrapped for the block and restored afterwards; a
    probe first checks that the wrapper counts.  From Python 3.12 on,
    Fraction's own arithmetic builds its results without `__new__`, so a
    count that must not depend on the version is taken where no Fraction
    arithmetic runs.
    """
    saved, original = vars(Fraction)["__new__"], Fraction.__new__
    count = [0]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    try:
        Fraction.__new__ = staticmethod(counting)
        Fraction(1, 2)
        assert count == [1]
        count[0] = 0
        yield count
    finally:
        Fraction.__new__ = saved


def dense(m: MultiMap) -> Matrix:
    """The dense a^q x a^p matrix of a map A^(x)p -> A^(x)q."""
    return Matrix(m.field, m.a_dim**m.tgt_arity, m.a_dim**m.src_arity, m.rows())


def from_dense(mat: Matrix, a_dim: int, src_arity: int, tgt_arity: int) -> MultiMap:
    return MultiMap.from_rows(mat.field, a_dim, src_arity, tgt_arity, mat.data)


def subspace_span(field, ambient: int, vectors) -> Subspace:
    """The `Subspace` spanned by dense vectors of length `ambient`, each coerced into the field and cleared to ints."""
    rows = []
    for v in vectors:
        if len(v) != ambient:
            raise ShapeError(f"vector length {len(v)} vs ambient {ambient}")
        rows.append(_sparse([field.coerce(x) for x in v]))
    return Subspace(field, ambient, _integral(field, rows))


def z2_basis(report) -> list[Cochain]:
    """The RREF rows of Z^2 as cochains, in pivot order: read off the report's cached `spec.cocycles(2)`."""
    spec = report.spec
    z2 = spec.cocycles(2)
    return [Cochain.from_entries(spec.field, spec.a_dim, spec.x_dim, 2, z2.rows[p]) for p in z2.pivots]


def reduce_dense(space, v) -> tuple:
    """The canonical representative of the dense vector v modulo a `Subspace`, as a dense vector."""
    if len(v) != space.ambient:
        raise ShapeError(f"vector length {len(v)} vs ambient {space.ambient}")
    f = space.field
    return _dense(f, space.ambient, space.reduce(_sparse([f.coerce(x) for x in v])))


def dense_compose(outer: MultiMap, inner: MultiMap) -> MultiMap:
    """outer o inner by a product of the dense matrices, independent of the sparse convolution kernel.

    The product is written out over the dense rows; it skips the zero entries
    of inner, most of a Kronecker product with identities.
    """
    if inner.tgt_arity != outer.src_arity or inner.a_dim != outer.a_dim:
        raise ShapeError("arity mismatch in composition")
    f = outer.field
    inner_rows = [[(j, y) for j, y in enumerate(row) if y] for row in inner.rows()]
    rows = []
    for row in outer.rows():
        acc = [f.zero] * inner.a_dim**inner.src_arity
        for x, nonzero in zip(row, inner_rows):
            for j, y in nonzero if x else ():
                acc[j] = f.add(acc[j], f.mul(x, y))
        rows.append(acc)
    return MultiMap.from_rows(f, outer.a_dim, inner.src_arity, outer.tgt_arity, rows)


def dense_tensor(left: MultiMap, right: MultiMap) -> MultiMap:
    """left (x) right by the dense Kronecker product, independent of the sparse convolution kernel."""
    if left.a_dim != right.a_dim:
        raise ShapeError("tensor of maps over different A")
    f = left.field
    rows = [
        [f.mul(x, y) if x and y else f.zero for x in lrow for y in rrow]
        for lrow in left.rows()
        for rrow in right.rows()
    ]
    return MultiMap.from_rows(f, left.a_dim, left.src_arity + right.src_arity, left.tgt_arity + right.tgt_arity, rows)


def mult_from_table(field, table) -> MultiMap:
    """table[i][j] = coordinates of e_i * e_j."""
    dim = len(table)
    rows = [[field.zero] * (dim * dim) for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for r, c in enumerate(table[i][j]):
                rows[r][dim * i + j] = field.coerce(c)
    return MultiMap.from_rows(field, dim, 2, 1, rows)


def table_from_mult(m: MultiMap):
    """Inverse of mult_from_table, for handing data to the oracle."""
    dim, rows = m.a_dim, m.rows()
    return [
        [[rows[r][dim * i + j] for r in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]


def dual_numbers(field) -> MultiMap:
    # basis {1, x}, x^2 = 0
    return mult_from_table(field, [[(1, 0), (0, 1)], [(0, 1), (0, 0)]])


def split_pair(field) -> MultiMap:
    # k x k in the idempotent basis
    return mult_from_table(field, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]])


def zero_mult(field, dim=2) -> MultiMap:
    return MultiMap.zero(field, dim, 2, 1)


def rank_one_square(field) -> MultiMap:
    # m(a, b) = psi(a) psi(b) v with psi(v) = 0: always associative, nonunital
    return mult_from_table(field, [[(0, 0), (0, 0)], [(0, 0), (1, 0)]])


def square_zero_3(field) -> MultiMap:
    # k[x,y]/(x^2, xy, y^2): unital, radical squared zero
    return mult_from_table(
        field,
        [
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 1, 0), (0, 0, 0), (0, 0, 0)],
            [(0, 0, 1), (0, 0, 0), (0, 0, 0)],
        ],
    )


def truncated_poly(field, k) -> MultiMap:
    # k[x]/(x^k) in the monomial basis 1, x, ..., x^(k-1)
    return mult_from_table(
        field,
        [[tuple(int(i + j == r) for r in range(k)) for j in range(k)] for i in range(k)],
    )


def truncated_poly_3(field) -> MultiMap:
    return truncated_poly(field, 3)


def matrix_units(field, n) -> MultiMap:
    # M_n in the matrix units e_ij, basis index (i, j) -> n i + j
    dim = n * n
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            i, j = divmod(a, n)
            k, l = divmod(b, n)
            if j == k:
                table[a][b][n * i + l] = 1
    return mult_from_table(field, table)


def mat2_mult(field) -> MultiMap:
    return matrix_units(field, 2)


CATALOG_2 = (dual_numbers, split_pair, zero_mult, rank_one_square)
CATALOG_3 = (square_zero_3, truncated_poly_3)


def random_invertible(field, dim, rng: random.Random) -> Matrix:
    while True:
        rows = [[field.random_element(rng) for _ in range(dim)] for _ in range(dim)]
        m = Matrix.from_rows(field, rows)
        if oracle_rref(m)[2] == dim:
            return m


def matrix_inverse(p: Matrix) -> Matrix:
    eye = Matrix.identity(p.field, p.rows)
    cols = oracle_solve_many(p, [eye.col(j) for j in range(p.rows)])
    return Matrix(p.field, p.rows, p.rows, tuple(zip(*cols)))


def conjugate_mult(m: MultiMap, p: Matrix) -> MultiMap:
    """Transport of structure: m'(a, b) = p^{-1} m(p a, p b)."""
    return from_dense(matrix_inverse(p) @ dense(m) @ p.kron(p), m.a_dim, 2, 1)


def random_algebra(field, dim, rng: random.Random) -> MultiMap:
    base = rng.choice(CATALOG_2 if dim == 2 else CATALOG_3)(field)
    return conjugate_mult(base, random_invertible(field, dim, rng))


def random_grouplike_comodule(cg, dim_x, rng: random.Random) -> Comodule:
    """Comodule over a group-like coalgebra: conjugated coordinate projections."""
    f = cg.field
    p = random_invertible(f, dim_x, rng)
    p_inv = matrix_inverse(p)
    assignment = [rng.randrange(cg.dim) for _ in range(dim_x)]
    coaction = [[] for _ in range(dim_x)]
    for g in range(cg.dim):
        data = [
            [f.one if (i == j and assignment[i] == g) else f.zero for j in range(dim_x)]
            for i in range(dim_x)
        ]
        t_g = p @ Matrix(f, dim_x, dim_x, tuple(tuple(r) for r in data)) @ p_inv
        for s in range(dim_x):
            for t in range(dim_x):
                if not f.is_zero(t_g.data[t][s]):
                    coaction[s].append((t, g, t_g.data[t][s]))
    return Comodule(cg, dim_x, coaction)


def random_nilpotent_comodule(c_graded, dim_x, rng: random.Random) -> Comodule:
    """Comodule over k[t]_{<=N}: rho(x) = sum rho_1^j(x) (x) t^j.

    The truncation forces rho_1^(N+1) = 0 exactly, so rho_1 is built from
    chains of length at most N+1 and then conjugated.  When dim X >= 2 and
    N >= 1 the first chain has length at least 2 and its first strict entry
    is nonzero, so rho_1 != 0 and rho goes past the identity term.
    """
    f = c_graded.field
    n_max = c_graded.max_degree()
    strict = [[f.zero] * dim_x for _ in range(dim_x)]
    longest = min(n_max + 1, dim_x)
    pos = 0
    while pos < dim_x:
        length = rng.randint(2 if pos == 0 and longest >= 2 else 1, min(longest, dim_x - pos))
        for i in range(pos, pos + length - 1):
            strict[i][i + 1] = f.random_element(rng, nonzero=i == 0)
        pos += length
    p = random_invertible(f, dim_x, rng)
    p_inv = matrix_inverse(p)
    eye = Matrix.identity(f, dim_x)
    rho1 = p @ Matrix(f, dim_x, dim_x, tuple(tuple(r) for r in strict)) @ p_inv
    coaction = [[] for _ in range(dim_x)]
    power = eye
    for j in range(n_max + 1):
        if j > 0:
            power = rho1 @ power
        if power.is_zero():
            break
        for s in range(dim_x):
            for t in range(dim_x):
                if not f.is_zero(power.data[t][s]):
                    coaction[s].append((t, j, power.data[t][s]))
    return Comodule(c_graded, dim_x, coaction)


def random_gauge_transported_mult(c_graded, m0: MultiMap, rng: random.Random) -> ConvMorphism:
    """An associative multiplication over a graded coalgebra with mixed components."""
    f = c_graded.field
    a = m0.a_dim
    comps = [MultiMap.identity(f, a, 1)]
    for _ in range(1, c_graded.dim):
        rows = [[f.random_element(rng) for _ in range(a)] for _ in range(a)]
        comps.append(MultiMap.from_rows(f, a, 1, 1, rows))
    gauge = ConvMorphism(c_graded, tuple(comps))
    inv = takeuchi_invert(gauge)
    m = epsilon_embed(m0, c_graded)
    return conv_compose(conv_compose(inv, m), conv_tensor(gauge, gauge))


def random_mixed_mult(c_graded, rng: random.Random) -> ConvMorphism:
    """A gauge transport of a random conjugate of a two-dimensional catalog algebra: nonzero off degree 0."""
    m0 = conjugate_mult(rng.choice((dual_numbers, split_pair, rank_one_square))(c_graded.field),
                        random_invertible(c_graded.field, 2, rng))
    return random_gauge_transported_mult(c_graded, m0, rng)


def direct_sum_comodule(x: Comodule, y: Comodule) -> Comodule:
    shifted = [[(x.dim + t, u, c) for t, u, c in terms] for terms in y.coaction]
    return Comodule(x.base, x.dim + y.dim, list(x.coaction) + shifted)


def direct_sum(parts) -> Coalgebra:
    """The direct sum coalgebra, its basis the parts' in order; names get an s<b>. prefix when two collide."""
    if not parts:
        raise ShapeError("direct sum of no coalgebras")
    field = parts[0].field
    for p in parts[1:]:
        require_same_field(field, p.field)
    all_names = [name for p in parts for name in p.names]
    unique = len(set(all_names)) == len(all_names)
    names, delta, counit, grading = [], [], [], []
    graded = all(p.grading is not None for p in parts)
    offset = 0
    for b, p in enumerate(parts):
        for i in range(p.dim):
            names.append(p.names[i] if unique else f"s{b}.{p.names[i]}")
            delta.append([(j + offset, k + offset, c) for j, k, c in p.delta[i]])
            counit.append(p.counit[i])
            if graded:
                grading.append(p.grading[i])
        offset += p.dim
    return Coalgebra(field, names, delta, counit, grading=grading if graded else None)


def full_space(field, n: int) -> Subspace:
    """F^n as a `Subspace`, its RREF the unit vectors, built without elimination."""
    return Subspace._held(field, n, {i: {i: 1} for i in range(n)})


def image(m) -> Subspace:
    """The column space of a `SparseMatrix` of field values, its columns cleared to the int rows `Subspace` takes."""
    return Subspace(m.field, m.rows, _integral(m.field, m.columns))


def xsq_deformation_algebra(field):
    """The x^2 = t family over k[t]_{<=1}: m(1) = dual numbers, m(t) = gamma (x) gamma."""
    c = divided_power_t(1, field)
    m0 = dual_numbers(field)
    m1 = mult_from_table(field, [[(0, 0), (0, 0)], [(0, 0), (1, 0)]])
    return AlgebraMC(m=ConvMorphism(c, (m0, m1)))


def greedy_quotient_rows(total, sub):
    """Oracle for Subspace.quotient_basis: the span-and-check loop it replaced.

    Walks the RREF rows of `total` and keeps each row that is not yet in
    the span of `sub` and the rows kept so far, re-eliminating that span
    after every kept row.
    """
    kept = []
    span = sub
    for row in total.dense_rows():
        if not span.contains_vector(row):
            kept.append(row)
            span = subspace_span(total.field, total.ambient, span.dense_rows() + (row,))
    return kept


def unit_column(field, dim, index=0) -> MultiMap:
    rows = [[field.one if r == index else field.zero] for r in range(dim)]
    return MultiMap.from_rows(field, dim, 0, 1, rows)


def oracle_conv_compose(g: ConvMorphism, f: ConvMorphism) -> ConvMorphism:
    """(g * f)(c) = sum g(c_(1)) o f(c_(2)) through the sparse Delta of C.

    A term that pairs a zero component is skipped.  The dense loop of
    `MultiMap` products `convdef.conv_compose` ran before the sparse
    convolution kernel; independent of it, so it serves as the oracle.
    """
    if g.coalgebra != f.coalgebra:
        raise ShapeError("convolution of morphisms over different coalgebras")
    if f.tgt_arity != g.src_arity or f.a_dim != g.a_dim:
        raise ShapeError("arity mismatch in convolution composition")
    c = g.coalgebra
    field = c.field
    g_zero = [comp.is_zero() for comp in g.components]
    f_zero = [comp.is_zero() for comp in f.components]
    out = []
    for i in range(c.dim):
        acc = MultiMap.zero(field, g.a_dim, f.src_arity, g.tgt_arity)
        for j, k, coeff in c.delta[i]:
            if not (g_zero[j] or f_zero[k]):
                acc = acc + dense_compose(g.components[j], f.components[k]).scale(coeff)
        out.append(acc)
    return ConvMorphism(c, tuple(out))


def oracle_conv_tensor(f: ConvMorphism, g: ConvMorphism) -> ConvMorphism:
    """(f (x) g)(c) = sum f(c_(1)) (x) g(c_(2)); requires cocommutative C.

    A term that pairs a zero component is skipped.  The dense loop of
    Kronecker products `convdef.conv_tensor` ran before the sparse
    convolution kernel; independent of it, so it serves as the oracle.
    """
    if f.coalgebra != g.coalgebra:
        raise ShapeError("tensor of morphisms over different coalgebras")
    c = f.coalgebra
    if not c.is_cocommutative:
        raise NotCocommutative("tensor products in the convolution category need cocommutativity")
    field = c.field
    f_zero = [comp.is_zero() for comp in f.components]
    g_zero = [comp.is_zero() for comp in g.components]
    out = []
    for i in range(c.dim):
        acc = MultiMap.zero(
            field, f.a_dim, f.src_arity + g.src_arity, f.tgt_arity + g.tgt_arity
        )
        for j, k, coeff in c.delta[i]:
            if not (f_zero[j] or g_zero[k]):
                acc = acc + dense_tensor(f.components[j], g.components[k]).scale(coeff)
        out.append(acc)
    return ConvMorphism(c, tuple(out))


def oracle_is_associative(m: ConvMorphism) -> bool:
    """m * (m (x) id) = m * (id (x) m) by dense convolution of Kronecker products.

    Independent of the sparse convolution kernel behind `convdef.is_associative`.
    """
    ida = identity_conv(m.coalgebra, m.a_dim, 1)
    left = oracle_conv_compose(m, oracle_conv_tensor(m, ida))
    right = oracle_conv_compose(m, oracle_conv_tensor(ida, m))
    return left == right


def oracle_is_unit_of(m: ConvMorphism, u: ConvMorphism) -> bool:
    """Both unit axioms of u against m by dense convolution."""
    ida = identity_conv(m.coalgebra, m.a_dim, 1)
    return (
        oracle_conv_compose(m, oracle_conv_tensor(u, ida)) == ida
        and oracle_conv_compose(m, oracle_conv_tensor(ida, u)) == ida
    )


def oracle_is_coalgebra_filtration(c, layers) -> bool:
    """Nested, exhaustive, and Delta(C_n) inside sum C_i (x) C_{n-i}, by dense spans in C (x) C.

    For every layer it echelonizes all products u (x) v, u in C_i and v in
    C_{n-i}, and reduces Delta of each basis row against that span.
    """
    f, d = c.field, c.dim
    if not layers or layers[-1].dim != d:
        return False
    for lo, hi in zip(layers, layers[1:]):
        if not hi.contains_space(lo):
            return False
    for n, layer in enumerate(layers):
        vecs = []
        for i in range(n + 1):
            for u in layers[i].dense_rows():
                for v in layers[n - i].dense_rows():
                    vecs.append(tuple(f.mul(x, y) for x in u for y in v))
        target = subspace_span(f, d * d, vecs)
        for row in layer.dense_rows():
            if not target.contains_vector(delta_matrix(c).mul_vec(row)):
                return False
    return True


def transport_coalgebra(c, p: Matrix):
    """The coalgebra p(C), Delta' = (p (x) p) Delta p^-1 and eps' = eps p^-1, with p of its grading layers.

    Returns (c', layers): c' is ungraded, and the layers are the images of
    the grading filtration of c, so their RREF rows are not unit vectors
    in general.
    """
    f, d = c.field, c.dim
    p_inv = matrix_inverse(p)
    delta_mat = p.kron(p) @ delta_matrix(c) @ p_inv
    delta = [
        [(r // d, r % d, delta_mat.data[r][i]) for r in range(d * d) if not f.is_zero(delta_mat.data[r][i])]
        for i in range(d)
    ]
    counit = (counit_matrix(c) @ p_inv).data[0]
    moved = Coalgebra(f, [f"p({name})" for name in c.names], delta, counit)
    layers = [
        subspace_span(f, d, [p.mul_vec(row) for row in layer.dense_rows()])
        for layer in c.grading_filtration()
    ]
    return moved, layers


def oracle_coface(spec, i, n, nu):
    """The i-th coface C^n -> C^(n+1), 0 <= i <= n+1, by dense composition of multimaps.

    Independent of the sparse assembly in `ComplexSpec`: it composes m
    with identity tensors exactly as the cosimplicial structure is defined.
    """
    if nu.degree != n or nu.x_dim != spec.x_dim:
        raise ShapeError("cochain does not match the complex")
    if not 0 <= i <= n + 1:
        raise ShapeError(f"coface index {i} out of range for degree {n}")
    f, a = spec.field, spec.a_dim
    ident = MultiMap.identity(f, a, 1)
    maps = []
    for s in range(spec.x_dim):
        acc = MultiMap.zero(f, a, n + 1, 1)
        for t, u, coeff in spec.comodule.coaction[s]:
            m_u = spec.m.components[u]
            nu_t = nu.maps[t]
            if i == 0:
                term = dense_compose(m_u, dense_tensor(ident, nu_t))
            elif i == n + 1:
                term = dense_compose(m_u, dense_tensor(nu_t, ident))
            else:
                mid = dense_tensor(dense_tensor(MultiMap.identity(f, a, i - 1), m_u), MultiMap.identity(f, a, n - i))
                term = dense_compose(nu_t, mid)
            acc = acc + term.scale(coeff)
        maps.append(acc)
    return Cochain(n + 1, tuple(maps))


def cochain_act(nu: Cochain, alpha, comodule: Comodule) -> Cochain:
    """Right action of a functional on C: (nu <- alpha)(x) = nu(alpha -> x)."""
    f = comodule.base.field
    a = tuple(f.coerce(v) for v in alpha)
    maps = []
    for s in range(comodule.dim):
        terms = ((f.mul(c, a[u]), nu.maps[t].entries) for t, u, c in comodule.coaction[s])
        maps.append(MultiMap(f, nu.a_dim, nu.degree, 1, _lincomb(f, terms)))
    return Cochain(nu.degree, tuple(maps))


def oracle_differential(spec, nu):
    """d^n = sum of (-1)^i oracle cofaces."""
    n = nu.degree
    acc = oracle_coface(spec, 0, n, nu)
    for i in range(1, n + 2):
        term = oracle_coface(spec, i, n, nu)
        acc = acc - term if i % 2 else acc + term
    return acc


def oracle_differential_matrix(spec, n):
    """d^n assembled column by column: each unit cochain through `oracle_differential`."""
    from convdef.linalg import unit_vec

    f = spec.field
    dim_in = spec.cochain_dim(n)
    cols = []
    for j in range(dim_in):
        basis = Cochain.from_flat(f, spec.a_dim, spec.x_dim, n, unit_vec(f, dim_in, j))
        cols.append(oracle_differential(spec, basis).flatten())
    return Matrix(f, spec.cochain_dim(n + 1), dim_in, tuple(zip(*cols)))


def dense_differential_matrix(spec, n):
    """d^n as a dense Matrix, filled in from the sparse entries `ComplexSpec` assembles."""
    f = spec.field
    dim_in = spec.cochain_dim(n)
    rows = [[f.zero] * dim_in for _ in range(spec.cochain_dim(n + 1))]
    for row, col, v in spec.differential_entries(n):
        rows[row][col] = v
    return Matrix(f, len(rows), dim_in, tuple(map(tuple, rows)))


def oracle_rref(m: Matrix):
    """Dense Gauss-Jordan elimination: (R, pivot columns, rank).

    The column-by-column loop `convdef.rref` ran before the sparse
    `Subspace`; independent of it, so it serves as the oracle.
    """
    f = m.field
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if not f.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        lead = rows[r]
        for i in range(nr):
            if i != r:
                factor = rows[i][c]
                if not f.is_zero(factor):
                    rows[i] = [f.sub(x, f.mul(factor, y)) if y else x for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    out = Matrix(f, nr, nc, tuple(tuple(row) for row in rows))
    return out, tuple(pivots), r


def oracle_solve_many(m: Matrix, rhs_columns):
    """The canonical solution of m x = b for each right-hand side b, by `oracle_rref` of [m | B].

    Free variables are zero.  Returns None when some b is not in the image.
    """
    f = m.field
    rhs = [tuple(f.coerce(x) for x in b) for b in rhs_columns]
    for b in rhs:
        if len(b) != m.rows:
            raise ShapeError(f"rhs length {len(b)} vs {m.rows} rows")
    aug = Matrix(f, m.rows, m.cols + len(rhs), tuple(row + tuple(b[i] for b in rhs) for i, row in enumerate(m.data)))
    red, pivots, rank = oracle_rref(aug)
    if rank and pivots[-1] >= m.cols:
        return None
    sols = []
    for k in range(m.cols, aug.cols):
        x = [f.zero] * m.cols
        for row, c in zip(red.data, pivots):
            x[c] = row[k]
        sols.append(tuple(x))
    return sols


def oracle_kernel(m: Matrix):
    """The canonical basis of ker m, by `oracle_rref`: one vector per free column, free entry one."""
    red, pivots, _rank = oracle_rref(m)
    f, basis = m.field, []
    for free in range(m.cols):
        if free not in pivots:
            v = [f.zero] * m.cols
            v[free] = f.one
            for row, c in zip(red.data, pivots):
                v[c] = f.neg(row[free])
            basis.append(tuple(v))
    return basis


def fixture_specs():
    """(label, ComplexSpec) for every algebra of every fixture and each comodule it can pair with.

    The comodules are the fixture's comodule blocks and cocycle comodules
    over the algebra's coalgebra, and the rank-one comodule of the
    Hochschild case when that coalgebra is k.
    """
    from convdef import ComplexSpec, SpecFileError
    from convdef.specfile import parse_path

    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            sf, _failures = parse_path(str(path))
        except SpecFileError:
            continue  # a side file (a cochain document), not a spec
        comodules = list(sf.comodules.items()) + [(w, c.comodule) for w, c in sf.cocycles.items()]
        for aname, alg in sf.algebras.items():
            c = alg.coalgebra
            pairs = [(x, com) for x, com in comodules if com.base == c]
            if c.dim == 1:
                pairs.append(("k", Comodule(c, 1, [[(0, 0, 1)]])))
            seen = []
            for xname, com in pairs:
                if com not in seen:
                    seen.append(com)
                    out.append((f"{path.name}:{aname}/{xname}", ComplexSpec(alg.m, com)))
    return out


def equiv_check(d1, d2):
    """A gauge f with d2 = transport of d1 by f, or None: the oracle that classes are inequivalent.

    Solves the linear equation d^1(f_X) = m''_X - m'_X, then builds
    f(c, x) = eps(c) I + f_X(x) and verifies the transported
    multiplication equals d2 exactly (f is invertible since it restricts
    to the identity along iota).
    """
    if d1.extension != d2.extension or d1.base != d2.base:
        raise SpecMismatch("deformations must share the extension and the base algebra")
    ext = d1.extension
    spec = complex_of(d1.base, ext)
    f_x = spec.solve(1, d2.m_x - d1.m_x)
    if f_x is None:
        return None
    gauge = _gauge_from_cochain(ext, f_x)
    if gauge_transport(d1, gauge).mtilde != d2.mtilde:
        raise ConvDefError("gauge solution failed exact verification")
    return gauge


def oracle_invert_on_bottom(f: ConvMorphism, bottom):
    """A g with (f * g)(b) = eps(b) I on the layer `bottom`, as one dense system stacked from Kronecker blocks.

    The unknowns are g's components at the layer's pivots, each a d x d block
    with all d^2 entries.  On the full layer, `full_space`, this is the
    equation f * g = e that `convolution._right_inverse` solves in dim C * d
    unknowns with d right-hand sides, so the two answers and refusals must agree.
    """
    from convdef import NotInvertible

    c = f.coalgebra
    field = c.field
    d = f.a_dim**f.src_arity
    if f.src_arity != f.tgt_arity:
        raise NotInvertible("only square-arity morphisms can be inverted")
    rows = bottom.dense_rows()
    k = len(rows)
    if k == 0:
        raise NotInvertible("empty bottom layer")
    pivots = bottom.pivots
    # Coefficient of unknown G_{r'} in the constraint for basis row r.
    coeff_mats = [[Matrix.zeros(field, d, d) for _ in range(k)] for _ in range(k)]
    for r, brow in enumerate(rows):
        for i, bi in enumerate(brow):
            if field.is_zero(bi):
                continue
            for j, k2, mu in c.delta[i]:
                if k2 in pivots:
                    rp = pivots.index(k2)
                    coeff_mats[r][rp] = coeff_mats[r][rp] + dense(f.components[j]).scale(
                        field.mul(bi, mu)
                    )
    big_rows = d * d * k
    eye = Matrix.identity(field, d)
    blocks = []
    for r in range(k):
        row_blocks = [coeff_mats[r][rp].kron(eye) for rp in range(k)]
        stacked = row_blocks[0]
        for blk in row_blocks[1:]:
            stacked = stacked.hstack(blk)
        blocks.append(stacked)
    system = blocks[0]
    for blk in blocks[1:]:
        system = system.vstack(blk)
    rhs: list = []
    for r, brow in enumerate(rows):
        e = field.normalize(sum(x * y for x, y in zip(c.counit, brow)))
        rhs.extend(x for row in eye.scale(e).data for x in row)
    assert system.rows == big_rows
    res = oracle_solve_many(system, [rhs])
    if res is None:
        raise NotInvertible("restriction to the bottom filtration layer is not invertible")
    sol = res[0]
    comps = []
    zero = MultiMap.zero(field, f.a_dim, f.src_arity, f.tgt_arity)
    for i in range(c.dim):
        if i in pivots:
            rp = pivots.index(i)
            flat = sol[rp * d * d : (rp + 1) * d * d]
            rows = [flat[r * d : (r + 1) * d] for r in range(d)]
            comps.append(MultiMap.from_rows(field, f.a_dim, f.src_arity, f.tgt_arity, rows))
        else:
            comps.append(zero)
    return ConvMorphism(c, tuple(comps))


def oracle_unit_gauge(mtilde: ConvMorphism, u: ConvMorphism):
    """Unit normalization recomputing the whole transport at every degree.

    The loop `convdef.unit_gauge` ran before it carried the transported
    multiplication forward: each step inverts the whole gauge and
    transports mtilde from scratch, and both are done once more after the
    loop.
    """
    from convdef import NotUnital
    from convdef.deformation import UnitGaugeResult

    ct = mtilde.coalgebra
    if ct.grading is None:
        raise ShapeError("unit normalization needs a graded coalgebra")
    if not ct.is_cocommutative:
        raise ShapeError("unit normalization needs a cocommutative coalgebra")
    f = ct.field
    a = mtilde.a_dim
    zero_idx = list(ct.degree_indices(0))
    c0 = ct.sub_on_indices(zero_idx)
    if u.coalgebra != c0:
        raise ShapeError("unit must live over the degree-0 part of the coalgebra")
    iota0 = Matrix(
        f,
        ct.dim,
        len(zero_idx),
        tuple(
            tuple(f.one if i == zero_idx[j] else f.zero for j in range(len(zero_idx)))
            for i in range(ct.dim)
        ),
    )
    m0 = oracle_pullback(mtilde, iota0, c0)
    if not oracle_is_associative(mtilde):
        raise ShapeError("multiplication is not associative")
    if not oracle_is_unit_of(m0, u):
        raise NotUnital("u is not a unit of the degree-0 multiplication")
    # u o lambda: degree projection kills positive degrees
    pos = {orig: new for new, orig in enumerate(zero_idx)}
    zero_map = MultiMap.zero(f, a, 0, 1)
    u_lam = ConvMorphism(
        ct,
        tuple(
            u.components[pos[i]] if i in pos else zero_map for i in range(ct.dim)
        ),
    )
    ida = identity_conv(ct, a, 1)
    gauge = ida
    for n in range(1, ct.max_degree() + 1):
        inv = takeuchi_invert(gauge)
        m_f = oracle_conv_compose(oracle_conv_compose(inv, mtilde), oracle_conv_tensor(gauge, gauge))
        defect = oracle_conv_compose(m_f, oracle_conv_tensor(ida, u_lam))
        comps = []
        for i in range(ct.dim):
            if ct.grading[i] == n:
                comps.append(-defect.components[i])
            else:
                comps.append(MultiMap.zero(f, a, 1, 1))
        g = ConvMorphism(ct, tuple(comps))
        gauge = oracle_conv_compose(gauge, ida + g)
    inv = takeuchi_invert(gauge)
    m_f = oracle_conv_compose(oracle_conv_compose(inv, mtilde), oracle_conv_tensor(gauge, gauge))
    if not oracle_is_unit_of(m_f, u_lam):
        raise ConvDefError("unit normalization failed exact verification")
    u_tilde = oracle_conv_compose(gauge, u_lam)
    if not oracle_is_unit_of(mtilde, u_tilde):
        raise ConvDefError("f * (u o lambda) failed to be a unit of the original multiplication")
    return UnitGaugeResult(gauge=gauge, m_f=m_f, u_lambda=u_lam, u_tilde=u_tilde)


def fixture_specfiles(field):
    """(fixture name, SpecFile) for every spec fixture that parses and validates when read over `field`."""
    import json

    from convdef import SpecFileError
    from convdef.specfile import parse_text

    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "field" not in doc:
            continue  # a side file (a cochain document), not a spec
        doc["field"] = field.name
        try:
            sf, _failures = parse_text(json.dumps(doc))
        except (SpecFileError, ZeroDivisionError):
            continue
        out.append((path.name, sf))
    return out


def oracle_cocycle_failures(w) -> list[str]:
    """Failed identities among: symmetry, normalization, the 2-cocycle identity, by dense Kronecker products.

    The check `Cocycle2.validate` ran before it summed over the triples,
    with dim C^3 rows; independent of that sum, so it serves as the oracle.
    """
    com = w.comodule
    c = com.base
    f, dc, dx = c.field, c.dim, com.dim
    failures = []
    om = triples_matrix(f, w.omega, (dc, dc))
    # symmetry: omega = flip o omega
    if triples_matrix(f, w.omega, (dc, dc), flip=True) != om:
        failures.append("symmetry")
    eye_c = Matrix.identity(f, dc)
    eps = counit_matrix(c)
    if not (eps.kron(eye_c) @ om).is_zero() or not (eye_c.kron(eps) @ om).is_zero():
        failures.append("normalization")
    dm = delta_matrix(c)
    lhs = (
        eye_c.kron(om) @ triples_matrix(f, com.coaction, (dx, dc), flip=True)
        - dm.kron(eye_c) @ om
        + eye_c.kron(dm) @ om
        - om.kron(eye_c) @ triples_matrix(f, com.coaction, (dx, dc))
    )
    if not lhs.is_zero():
        failures.append("2-cocycle identity")
    return failures


def oracle_comodule_failures(com) -> list[str]:
    """Failed comodule axioms among: coaction coassociativity, the coaction counit axiom, by dense Kronecker products.

    With rho the dim X * dim C x dim X matrix of the coaction, the axioms are
    (rho (x) 1_C) rho = (1_X (x) Delta) rho and (1_X (x) eps) rho = 1_X;
    independent of the sums over triples in `Comodule.validate`, so it
    serves as the oracle.
    """
    c = com.base
    f, dc, dx = c.field, c.dim, com.dim
    rho = triples_matrix(f, com.coaction, (dx, dc))
    eye_x = Matrix.identity(f, dx)
    failures = []
    if rho.kron(Matrix.identity(f, dc)) @ rho != eye_x.kron(delta_matrix(c)) @ rho:
        failures.append("coaction coassociativity")
    if eye_x.kron(counit_matrix(c)) @ rho != eye_x:
        failures.append("coaction counit axiom")
    return failures


def assemble_ctilde(w):
    """Ctilde = C (+) X from the parts of the cocycle w, unvalidated.

    Delta is Delta_C on C, and on x_s it is the sum over rho(x_s) of
    c (u (x) x_t + x_t (x) u), plus omega(x_s); the counit is eps_C, zero on X.
    """
    com = w.comodule
    c = com.base
    f, dc = c.field, c.dim
    delta = [list(triples) for triples in c.delta]
    for rho, om in zip(com.coaction, w.omega):
        delta.append([tr for t, u, v in rho for tr in ((u, dc + t, v), (dc + t, u, v))] + list(om))
    names = list(c.names) + [f"x{s}" for s in range(com.dim)]
    return Coalgebra(f, names, delta, list(c.counit) + [f.zero] * com.dim)


def oracle_obstruction_zeta(alg, ext):
    """zeta(x) = sum over omega(x) of c * m_j o (A (x) m_k - m_k (x) A), by dense index loops.

    The sum `convdef.obstruction_zeta` ran before it read zeta off the
    sparse associator of m (+) 0, with the dense composition and tensor
    product of the components written out; independent of the convolution
    kernel, so it serves as the oracle.  It checks d(zeta) = 0 through
    `oracle_differential`, not through the library's `ComplexSpec.differential`.
    """
    from convdef import ComplexSpec

    f, a = alg.field, alg.a_dim
    maps = []
    for s in range(ext.comodule.dim):
        acc = [[f.zero] * a**3 for _ in range(a)]
        for j, k, c in ext.cocycle.omega[s]:
            mj, mk = alg.m.components[j].rows(), alg.m.components[k].rows()
            for r in range(a):
                for p in range(a):
                    for q in range(a):
                        for t in range(a):
                            # (A (x) m_k)(e_p e_q e_t) = e_p (x) m_k(e_q e_t)
                            # (m_k (x) A)(e_p e_q e_t) = m_k(e_p e_q) (x) e_t
                            total = f.zero
                            for y in range(a):
                                total = f.add(total, f.mul(mj[r][p * a + y], mk[y][q * a + t]))
                                total = f.sub(total, f.mul(mj[r][y * a + t], mk[y][p * a + q]))
                            col = (p * a + q) * a + t
                            acc[r][col] = f.add(acc[r][col], f.mul(c, total))
        maps.append(MultiMap.from_rows(f, a, 3, 1, acc))
    zeta = Cochain(3, tuple(maps))
    if not oracle_differential(ComplexSpec(alg.m, ext.comodule), zeta).is_zero():
        raise ConvDefError("obstruction is not a 3-cocycle; inputs are inconsistent")
    return zeta


# -- dense oracles of the coalgebra and extension layer ----------------------
#
# The bodies the library ran before Delta, iota, lambda and the coaction were
# applied through sparse columns: dense matrices, `mul_vec` and Kronecker
# products, independent of `convdef.coalgebra.triples_columns`.


def sparse_of(m: Matrix):
    """The nonzero entries of a dense Matrix, as the columns of the library's SparseMatrix."""
    from convdef import SparseMatrix

    columns = tuple({r: row[c] for r, row in enumerate(m.data) if row[c]} for c in range(m.cols))
    return SparseMatrix(m.field, m.rows, m.cols, columns)


def dense_of(m) -> Matrix:
    """A SparseMatrix written out densely."""
    rows = [[m.field.zero] * m.cols for _ in range(m.rows)]
    for c, col in enumerate(m.columns):
        for r, v in col.items():
            rows[r][c] = v
    return Matrix(m.field, m.rows, m.cols, tuple(map(tuple, rows)))


def triples_matrix(field, triples, dims, flip: bool = False) -> Matrix:
    """A triples table as a dense (left * right) x (number of sources) matrix.

    Column i holds coeff at row j * right + k for each triple (j, k, coeff)
    of source i; `flip` swaps the tensor factors, putting it at k * left + j.
    """
    left, right = dims
    cols = []
    for per_source in triples:
        col = [field.zero] * (left * right)
        for j, k, c in per_source:
            r = k * left + j if flip else j * right + k
            col[r] = field.add(col[r], c)
        cols.append(col)
    return Matrix(field, left * right, len(cols), tuple(zip(*cols)))


def delta_matrix(c) -> Matrix:
    """Delta as a dim^2 x dim matrix, rows indexed j*dim + k."""
    return triples_matrix(c.field, c.delta, (c.dim, c.dim))


def counit_matrix(c) -> Matrix:
    return Matrix.row_vector(c.field, c.counit)


def expand_slot(c, tensor, arity: int, slot: int) -> tuple:
    """Delta applied to one tensor factor, C^(x)arity -> C^(x)(arity+1), on a dense vector.

    Tensor powers are flattened row-major, the leftmost factor most significant.
    """
    if not 0 <= slot < arity:
        raise ShapeError(f"slot {slot} out of range for arity {arity}")
    f, d = c.field, c.dim
    left = d ** (arity - 1 - slot)  # weight of digits right of the slot
    out = [f.zero] * (d ** (arity + 1))
    for idx, coeff in enumerate(tensor):
        if f.is_zero(coeff):
            continue
        tail = idx % left
        rest = idx // left
        i = rest % d
        head = rest // d
        base = head * (d * d * left)
        for j, k, x in c.delta[i]:
            pos = base + (j * d + k) * left + tail
            out[pos] = f.add(out[pos], f.mul(coeff, x))
    return tuple(out)


def iterated_delta(c, v, p: int) -> tuple:
    """Delta^(p-1)(v) in C^(x)p by `expand_slot` on the first factor; p = 1 returns v itself."""
    if p < 1:
        raise ShapeError("p must be >= 1")
    cur = tuple(c.field.coerce(x) for x in v)
    for arity in range(1, p):
        cur = expand_slot(c, cur, arity, 0)
    return cur


def oracle_validate(c):
    """`Coalgebra.validate` by dense tensors: (Delta (x) 1)Delta(e_i) and (1 (x) Delta)Delta(e_i) in C^(x)3 via `expand_slot`."""
    from convdef import CoalgebraReport
    from convdef.linalg import unit_vec

    f, d = c.field, c.dim
    coassoc = counit_l = counit_r = True
    for i in range(d):
        e_i = unit_vec(f, d, i)
        two = expand_slot(c, e_i, 1, 0)
        if expand_slot(c, two, 2, 0) != expand_slot(c, two, 2, 1):
            coassoc = False
        left = [f.zero] * d
        right = [f.zero] * d
        for j, k, x in c.delta[i]:
            left[k] = f.add(left[k], f.mul(x, c.counit[j]))
            right[j] = f.add(right[j], f.mul(x, c.counit[k]))
        counit_l = counit_l and tuple(left) == e_i
        counit_r = counit_r and tuple(right) == e_i
    grading_ok = None
    if c.grading is not None:
        grading_ok = all(
            c.grading[j] + c.grading[k] == c.grading[i] for i in range(d) for j, k, _x in c.delta[i]
        ) and all(f.is_zero(c.counit[i]) for i in range(d) if c.grading[i] > 0)
    return CoalgebraReport(
        coassociative=coassoc,
        counit_left=counit_l,
        counit_right=counit_r,
        cocommutative=c.is_cocommutative,
        grading_compatible=grading_ok,
    )


def oracle_coalgebra_report(coalgebra):
    """`Coalgebra.validate` as it summed `Fraction` products of the Delta triples, before it ran on `integral_delta`."""
    from convdef import CoalgebraReport
    from convdef.linalg import _sum

    f, delta, counit = coalgebra.field, coalgebra.delta, coalgebra.counit
    coassoc = counit_l = counit_r = True
    for i, triples in enumerate(delta):
        left = _sum(f, (((a, b, k), c * c2) for j, k, c in triples for a, b, c2 in delta[j]))
        right = _sum(f, (((j, a, b), c * c2) for j, k, c in triples for a, b, c2 in delta[k]))
        coassoc = coassoc and left == right
        unit = {i: f.one}
        counit_l = counit_l and _sum(f, ((k, c * counit[j]) for j, k, c in triples)) == unit
        counit_r = counit_r and _sum(f, ((j, c * counit[k]) for j, k, c in triples)) == unit
    grading_ok = None
    if coalgebra.grading is not None:
        g = coalgebra.grading
        grading_ok = all(
            g[j] + g[k] == g[i] for i, triples in enumerate(delta) for j, k, _c in triples
        ) and all(f.is_zero(e) for e, n in zip(counit, g) if n > 0)
    return CoalgebraReport(
        coassociative=coassoc,
        counit_left=counit_l,
        counit_right=counit_r,
        cocommutative=coalgebra.is_cocommutative,
        grading_compatible=grading_ok,
    )


def dense_eps(c, v):
    return c.field.normalize(sum(e * x for e, x in zip(c.counit, v)))


def dense_image(m: Matrix):
    """Column space of a dense matrix."""
    return subspace_span(m.field, m.rows, [m.col(j) for j in range(m.cols)])


def outer(field, u, v):
    return tuple(field.mul(x, y) for x in u for y in v)


def oracle_find_grouplikes(c):
    """The group-like basis vectors, by dense Delta."""
    from convdef import GroupLikeSet
    from convdef.linalg import unit_vec

    f, d = c.field, c.dim
    found = []
    for i in range(d):
        e_i = unit_vec(f, d, i)
        if delta_matrix(c).mul_vec(e_i) == outer(f, e_i, e_i) and dense_eps(c, e_i) == f.one:
            found.append(e_i)
    return GroupLikeSet(tuple(found))


def oracle_restrict_coalgebra_along(ctilde, iota: Matrix, eps_c: Matrix):
    """Coalgebra structure on C pulled back through an injective coalgebra map, by one dense solve."""
    from convdef import NotAnExtension

    f, dc = ctilde.field, iota.cols
    sols = oracle_solve_many(iota.kron(iota), [delta_matrix(ctilde).mul_vec(iota.col(i)) for i in range(dc)])
    if sols is None:
        raise NotAnExtension("iota is not a coalgebra morphism")
    delta = [
        [(j, k, y[j * dc + k]) for j in range(dc) for k in range(dc) if not f.is_zero(y[j * dc + k])] for y in sols
    ]
    return Coalgebra(f, [f"c{i}" for i in range(dc)], delta, eps_c.data[0])


def oracle_split_extension(ctilde, iota: Matrix, lam: Matrix, base=None):
    """(rho_r, omega) of an extension with a normalized retract, by dense Kronecker products."""
    from convdef import Cocycle2, NotAnExtension, RetractNotNormalized
    from convdef.linalg import unit_vec

    f, d, dc = ctilde.field, ctilde.dim, iota.cols
    if iota.rows != d or lam.rows != dc or lam.cols != d:
        raise ShapeError("iota must be dimCtilde x dimC and lambda dimC x dimCtilde")
    if oracle_rref(iota)[2] != dc:
        raise NotAnExtension("iota is not injective")
    if lam @ iota != Matrix.identity(f, dc):
        raise RetractNotNormalized("lambda o iota is not the identity of C")
    eps_c = Matrix.row_vector(f, [dense_eps(ctilde, iota.col(j)) for j in range(dc)])
    pulled = oracle_restrict_coalgebra_along(ctilde, iota, eps_c)
    pulled.require_valid()
    if base is not None:
        if base.delta != pulled.delta or base.counit != pulled.counit:
            raise NotAnExtension("iota is not a coalgebra morphism from the given base")
    else:
        base = pulled
    if Matrix.row_vector(f, base.counit) @ lam != counit_matrix(ctilde):
        raise RetractNotNormalized("eps_C o lambda differs from eps_Ctilde")
    vecs = []
    for i in range(d):
        e_i = unit_vec(f, d, i)
        for u in (iota.col(j) for j in range(dc)):
            vecs += [outer(f, e_i, u), outer(f, u, e_i)]
    dm = delta_matrix(ctilde)
    if oracle_solve_many(Matrix(f, len(vecs), d * d, tuple(vecs)).transpose(), [dm.col(i) for i in range(d)]) is None:
        raise NotAnExtension("Delta(Ctilde) is not supported on Ctilde(x)C + C(x)Ctilde")
    kb = oracle_kernel(lam)
    dx = len(kb)
    if dx == 0:
        raise NotAnExtension("the retract has trivial kernel; nothing to split off")
    eye = Matrix.identity(f, d)
    p_cols = oracle_solve_many(Matrix(f, dx, d, tuple(kb)).transpose(), [(eye - iota @ lam).col(j) for j in range(d)])
    if p_cols is None:
        raise NotAnExtension("id - iota lambda does not land in ker(lambda)")
    proj = Matrix(f, dx, d, tuple(zip(*p_cols)))
    coaction, omega = [], []
    for z in kb:
        dz = dm.mul_vec(z)
        rho = proj.kron(lam).mul_vec(dz)
        coaction.append([(t, u, rho[t * dc + u]) for t in range(dx) for u in range(dc) if not f.is_zero(rho[t * dc + u])])
        om = lam.kron(lam).mul_vec(dz)
        omega.append([(j, k, om[j * dc + k]) for j in range(dc) for k in range(dc) if not f.is_zero(om[j * dc + k])])
    out = Cocycle2(Comodule(base, dx, coaction), omega)
    out.require_valid()
    return out


def oracle_decompose_completely_reducible(com, grouplikes):
    """Lines of a completely reducible comodule, checking that the T_g are orthogonal idempotents product by product."""
    from convdef import UnsupportedCoaction

    base = com.base
    f, dx, dc = base.field, com.dim, base.dim
    gs = list(grouplikes.elements)
    if not gs:
        raise UnsupportedCoaction("no group-likes supplied")
    for g in gs:
        if delta_matrix(base).mul_vec(g) != outer(f, g, g) or dense_eps(base, g) != f.one:
            raise ValueError("supplied vector is not group-like")
    gmat = Matrix(f, len(gs), dc, tuple(tuple(f.coerce(x) for x in g) for g in gs))
    if oracle_rref(gmat)[2] != len(gs):
        raise ValueError("group-like vectors must be distinct (they are then independent)")
    rows_by_st = {}
    for s in range(dx):
        for t in range(dx):
            row = [f.zero] * dc
            for tt, u, c in com.coaction[s]:
                if tt == t:
                    row[u] = f.add(row[u], c)
            rows_by_st[(s, t)] = row
    sols = oracle_solve_many(gmat.transpose(), list(rows_by_st.values()))
    if sols is None:
        raise UnsupportedCoaction("coaction is not supported on the span of the group-likes")
    coeffs = dict(zip(rows_by_st, sols))
    ops = [
        Matrix(f, dx, dx, tuple(tuple(coeffs[(s, t)][gi] for s in range(dx)) for t in range(dx))) for gi in range(len(gs))
    ]
    total = Matrix.zeros(f, dx, dx)
    for op in ops:
        total = total + op
    if total != Matrix.identity(f, dx):
        return None
    for a, op_a in enumerate(ops):
        for b, op_b in enumerate(ops):
            if op_a @ op_b != (op_a if a == b else Matrix.zeros(f, dx, dx)):
                return None
    images = ((oracle_rref(op.transpose()), g) for op, g in zip(ops, gs))
    lines = [(row, g) for (red, _pivots, rank), g in images for row in red.data[:rank]]
    return lines if len(lines) == dx else None


def oracle_pullback(f: ConvMorphism, iota: Matrix, c) -> ConvMorphism:
    """f o iota, each component summed from the dense rows of the components of f."""
    field = c.field
    dense_rows = [comp.rows() for comp in f.components]
    nr, nc = len(dense_rows[0]), len(dense_rows[0][0])
    comps = []
    for j in range(c.dim):
        rows = [
            [field.normalize(sum(iota.data[r][j] * m[x][y] for r, m in enumerate(dense_rows))) for y in range(nc)]
            for x in range(nr)
        ]
        comps.append(MultiMap.from_rows(field, f.a_dim, f.src_arity, f.tgt_arity, rows))
    return ConvMorphism(c, tuple(comps))


def path_coalgebra(field):
    """The path coalgebra of the quiver 0 -a-> 1 -b-> 2: not cocommutative, graded by path length.

    Basis e0, e1, e2, a, b, ba; Delta(p) sums q (x) r over the factorizations p = q r.
    """
    delta = [
        [(0, 0, 1)],
        [(1, 1, 1)],
        [(2, 2, 1)],
        [(1, 3, 1), (3, 0, 1)],
        [(2, 4, 1), (4, 1, 1)],
        [(2, 5, 1), (4, 3, 1), (5, 0, 1)],
    ]
    return Coalgebra(field, ["e0", "e1", "e2", "a", "b", "ba"], delta, [1, 1, 1, 0, 0, 0], grading=[0, 0, 0, 1, 1, 2])
