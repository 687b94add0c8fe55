"""Dense exact linear algebra over Q and F_p.

Everything here is immutable after construction.  Matrices are dense
tuple-of-tuples in row-major order; vectors are plain tuples.  A
`Subspace` holds its basis as reduced row-echelon rows together with
their pivot columns, so equal subspaces compare equal as values, and
every reduction of a vector against a basis goes through
`Subspace.reduce`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NotASubspace, ShapeError
from .fields import Field, require_same_field

Vector = tuple


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data: tuple):
        # Trusted constructor: `data` must already be normalized entries.
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence]) -> Matrix:
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        nr = len(data)
        nc = len(data[0]) if nr else 0
        if any(len(r) != nc for r in data):
            raise ShapeError("ragged rows")
        return cls(field, nr, nc, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> Matrix:
        z = field.zero
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        z, o = field.zero, field.one
        return cls(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def column(cls, field: Field, vec: Sequence) -> Matrix:
        return cls(field, len(vec), 1, tuple((field.coerce(x),) for x in vec))

    @classmethod
    def row_vector(cls, field: Field, vec: Sequence) -> Matrix:
        return cls(field, 1, len(vec), (tuple(field.coerce(x) for x in vec),))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        f = self.field
        body = "; ".join(" ".join(f.fmt(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {f.name}: {body})"

    def _same_shape(self, other: Matrix) -> Field:
        f = require_same_field(self.field, other.field)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return f

    def __add__(self, other: Matrix) -> Matrix:
        f = self._same_shape(other)
        data = tuple(
            tuple(f.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        )
        return Matrix(f, self.rows, self.cols, data)

    def __sub__(self, other: Matrix) -> Matrix:
        f = self._same_shape(other)
        data = tuple(
            tuple(f.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)
        )
        return Matrix(f, self.rows, self.cols, data)

    def __neg__(self) -> Matrix:
        f = self.field
        return Matrix(f, self.rows, self.cols, tuple(tuple(f.neg(a) for a in r) for r in self.data))

    def scale(self, c) -> Matrix:
        f = self.field
        c = f.coerce(c)
        return Matrix(f, self.rows, self.cols, tuple(tuple(f.mul(c, a) for a in r) for r in self.data))

    def __matmul__(self, other: Matrix) -> Matrix:
        f = require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = tuple(zip(*other.data)) if other.data else ()
        p = f.char
        if p:
            data = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % p for col in bt) for row in self.data
            )
        else:
            norm = f.normalize
            data = tuple(
                tuple(norm(sum(a * b for a, b in zip(row, col))) for col in bt) for row in self.data
            )
        return Matrix(f, self.rows, other.cols, data)

    def mul_vec(self, vec: Sequence) -> Vector:
        if len(vec) != self.cols:
            raise ShapeError(f"vector length {len(vec)} vs {self.cols} columns")
        f = self.field
        p = f.char
        if p:
            return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in self.data)
        norm = f.normalize
        return tuple(norm(sum(a * b for a, b in zip(row, vec))) for row in self.data)

    def transpose(self) -> Matrix:
        return Matrix(self.field, self.cols, self.rows, tuple(zip(*self.data)) if self.data else ())

    def kron(self, other: Matrix) -> Matrix:
        f = require_same_field(self.field, other.field)
        mul = f.mul
        data = tuple(
            tuple(mul(a, b) for a in arow for b in brow)
            for arow in self.data
            for brow in other.data
        )
        return Matrix(f, self.rows * other.rows, self.cols * other.cols, data)

    def hstack(self, other: Matrix) -> Matrix:
        f = require_same_field(self.field, other.field)
        if self.rows != other.rows:
            raise ShapeError("row count mismatch in hstack")
        data = tuple(ra + rb for ra, rb in zip(self.data, other.data))
        return Matrix(f, self.rows, self.cols + other.cols, data)

    def vstack(self, other: Matrix) -> Matrix:
        f = require_same_field(self.field, other.field)
        if self.cols != other.cols:
            raise ShapeError("column count mismatch in vstack")
        return Matrix(f, self.rows + other.rows, self.cols, self.data + other.data)

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def row(self, i: int) -> Vector:
        return self.data[i]

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(x) for row in self.data for x in row)

    def flatten(self) -> Vector:
        return tuple(x for row in self.data for x in row)

    @classmethod
    def from_flat(cls, field: Field, rows: int, cols: int, flat: Sequence) -> Matrix:
        if len(flat) != rows * cols:
            raise ShapeError("flat data length mismatch")
        data = tuple(
            tuple(field.coerce(flat[i * cols + j]) for j in range(cols)) for i in range(rows)
        )
        return cls(field, rows, cols, data)


def unit_vec(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one if j == i else field.zero for j in range(n))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form: (R, pivot columns, rank)."""
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
                    rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    out = Matrix(f, nr, nc, tuple(tuple(row) for row in rows))
    return out, tuple(pivots), r


def _kernel_from_rref(field: Field, rows: Sequence, pivots: Sequence[int], ncols: int) -> list[Vector]:
    """Canonical kernel basis read off RREF rows: one vector per free column, free entry 1."""
    piv_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for row, c in zip(rows, pivots):
            v[c] = field.neg(row[free])
        basis.append(tuple(v))
    return basis


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of ker(m): one vector per free column, free entry 1."""
    red, pivots, _rank = rref(m)
    return _kernel_from_rref(m.field, red.data, pivots, m.cols)


def _solve_block(m: Matrix, rhs_columns: list) -> tuple[Matrix, tuple[int, ...], list[Vector] | None]:
    """RREF of [m | B], its pivots, and the canonical particular solution of each b in B.

    The solutions are None when some b is not in the image.  When every b
    is solvable, [m | B] has the rank of m, so its RREF has no pivot in B
    and restricts to the RREF of each [m | b]: every solution is the one an
    elimination of [m | b] alone gives, free variables set to zero.
    """
    f = m.field
    for b in rhs_columns:
        if len(b) != m.rows:
            raise ShapeError(f"rhs length {len(b)} vs {m.rows} rows")
    cols = [tuple(f.coerce(x) for x in b) for b in rhs_columns]
    red, pivots, _rank = rref(m.hstack(Matrix(f, m.rows, len(cols), tuple(zip(*cols)))))
    if pivots and pivots[-1] >= m.cols:
        return red, pivots, None
    sols = []
    for k in range(m.cols, m.cols + len(cols)):
        x = [f.zero] * m.cols
        for row, c in zip(red.data, pivots):
            x[c] = row[k]
        sols.append(tuple(x))
    return red, pivots, sols


def solve(m: Matrix, b: Sequence) -> tuple[Vector, list[Vector]] | None:
    """Solve m x = b exactly.

    Returns None when b is not in the image, otherwise the canonical
    particular solution (free variables set to zero) and the canonical
    kernel basis.
    """
    red, pivots, sols = _solve_block(m, [b])
    if sols is None:
        return None
    return sols[0], _kernel_from_rref(m.field, red.data, pivots, m.cols)


def solve_many(m: Matrix, rhs_columns: Sequence[Sequence]) -> list[Vector] | None:
    """`solve`'s particular solutions for every right-hand side, from one elimination.

    Returns None when some right-hand side is not in the image.
    """
    rhs_columns = list(rhs_columns)
    return _solve_block(m, rhs_columns)[2] if rhs_columns else []


class Subspace:
    """Subspace of F^n held as RREF basis rows and their pivot columns (canonical form)."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: Matrix, pivots: tuple[int, ...]):
        # Trusted constructor: basis must be RREF with no zero rows, pivots
        # the column of each row's leading one.
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def span(cls, field: Field, ambient: int, vectors: Iterable[Sequence]) -> Subspace:
        vecs = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ShapeError(f"vector length {len(v)} vs ambient {ambient}")
        if not vecs:
            return cls.zero(field, ambient)
        red, pivots, rank = rref(Matrix(field, len(vecs), ambient, tuple(vecs)))
        return cls(ambient, Matrix(field, rank, ambient, red.data[:rank]), pivots)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> Subspace:
        return cls(ambient, Matrix(field, 0, ambient, ()), ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> Subspace:
        return cls(ambient, Matrix.identity(field, ambient), tuple(range(ambient)))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

    def reduce(self, v: Sequence) -> Vector:
        """Canonical representative of v modulo this subspace: zero at every pivot."""
        f = self.field
        if len(v) != self.ambient:
            raise ShapeError(f"vector length {len(v)} vs ambient {self.ambient}")
        v = [f.coerce(x) for x in v]
        for row, c in zip(self.basis.data, self.pivots):
            factor = v[c]
            if not f.is_zero(factor):
                v = [f.sub(x, f.mul(factor, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains_vector(self, v: Sequence) -> bool:
        return all(self.field.is_zero(x) for x in self.reduce(v))

    def contains_space(self, other: Subspace) -> bool:
        return all(self.contains_vector(row) for row in other.basis.data)

    def sum(self, other: Subspace) -> Subspace:
        self._check_compatible(other)
        return Subspace.span(self.field, self.ambient, self.basis.data + other.basis.data)

    def intersect(self, other: Subspace) -> Subspace:
        # Zassenhaus: echelonize [A A; B 0]; rows with zero left half carry
        # the intersection in their right half.
        self._check_compatible(other)
        f, n = self.field, self.ambient
        z = (f.zero,) * n
        block = [row + row for row in self.basis.data] + [row + z for row in other.basis.data]
        if not block:
            return Subspace.zero(f, n)
        red, _piv, rank = rref(Matrix(f, len(block), 2 * n, tuple(block)))
        inter = [
            row[n:]
            for row in red.data[:rank]
            if all(f.is_zero(x) for x in row[:n])
        ]
        return Subspace.span(f, n, inter)

    def quotient_basis(self, sub: Subspace) -> list[Vector]:
        """Basis rows kept by a greedy scan: each row not in sub + the rows before it.

        Their classes form a basis of self / sub; sub must lie inside self.
        A vector of sub has coordinates v[p] in this basis, p running over
        the pivots.  Row i is skipped exactly when some vector of sub has its
        last nonzero coordinate at i, that is when i is a pivot of those
        coordinates read right to left: one elimination of a dim sub x
        dim self matrix.
        """
        k = self.dim
        coords = [tuple(row[c] for c in reversed(self.pivots)) for row in sub.basis.data]
        left_out = {k - 1 - c for c in Subspace.span(self.field, k, coords).pivots}
        return [row for i, row in enumerate(self.basis.data) if i not in left_out]

    def equation_matrix(self) -> Matrix:
        """Rows z with z . x = 0 exactly cutting out this subspace."""
        eqs = _kernel_from_rref(self.field, self.basis.data, self.pivots, self.ambient)
        return Matrix(self.field, len(eqs), self.ambient, tuple(eqs))

    def _check_compatible(self, other: Subspace) -> None:
        require_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ShapeError(f"ambient mismatch {self.ambient} vs {other.ambient}")


def image(m: Matrix) -> Subspace:
    """Column space of m as a subspace of F^rows."""
    return Subspace.span(m.field, m.rows, m.transpose().data)


def kernel_space(m: Matrix) -> Subspace:
    return Subspace.span(m.field, m.cols, kernel_basis(m))


def preimage(m: Matrix, target: Subspace) -> Subspace:
    """{x : m x in target} as a subspace of the domain."""
    require_same_field(m.field, target.field)
    if m.rows != target.ambient:
        raise ShapeError(f"map lands in F^{m.rows}, subspace of F^{target.ambient}")
    eqs = target.equation_matrix()
    return kernel_space(eqs @ m)


def quotient_dim(sub: Subspace, total: Subspace) -> int:
    """dim(total / sub); requires sub to be contained in total."""
    if not total.contains_space(sub):
        raise NotASubspace("first argument is not contained in the second")
    return total.dim - sub.dim
