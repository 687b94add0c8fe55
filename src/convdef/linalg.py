"""Exact linear algebra over Q and F_p, with one sparse elimination kernel.

`Subspace` is the only elimination loop and the one subspace type: it
holds the reduced row-echelon form of a spanning set as dicts {column:
nonzero}, keyed by pivot column, so equal subspaces compare equal as
values.  It computes on plain ints: mod p over F_p, and over Q on
primitive int rows R, each with its pivot entry R[c] > 0 as the
denominator of the RREF row R / R[c].  Clearing pivot c from a row v is
v <- R[c] v - v[c] R, then division by the gcd of v's entries; each RREF
entry becomes one `Fraction` only when the elimination is done.
`SparseMatrix` holds a map as its columns, one dict {row: nonzero} each,
the library's one matrix type: the differentials d^n, Delta, the inclusion
of an extension and its retract are read in the form they are built;
`image` spans its columns.
`_lincomb` and `_sum` are the sparse accumulators the layers above share,
and `_Record` the equality, hashing and repr of their plain record classes.
`Matrix` is dense, tuple-of-tuples in row-major order; with `rref` it is
the dense facade, kept only because the benchmark's tracer hooks both.
No other library module uses it.  Vectors are plain tuples.  Everything
here is immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeError
from .fields import Field, require_same_field

Vector = tuple


class _Record:
    """Equality, hashing and repr by the attributes named in `_fields`, as a frozen dataclass gives them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


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
        bt = other.transpose().data
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
        return Matrix(self.field, self.cols, self.rows, tuple(zip(*self.data)) if self.rows else ((),) * self.cols)

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

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(x) for row in self.data for x in row)


def unit_vec(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one if j == i else field.zero for j in range(n))


def _sparse(vec: Sequence) -> dict:
    """The nonzero entries {index: value} of a vector of normalized field elements."""
    return {j: x for j, x in enumerate(vec) if x}


def _dense(field: Field, n: int, vec: dict) -> Vector:
    out = [field.zero] * n
    for j, x in vec.items():
        out[j] = x
    return tuple(out)


def _normalized(field: Field, acc: dict) -> dict:
    """The sums in acc as field elements, zeros dropped."""
    p = field.char
    if p:
        return {key: v % p for key, v in acc.items() if v % p}
    return {key: v for key, v in acc.items() if v}


def _lincomb(field: Field, terms: Iterable[tuple[object, dict]]) -> dict:
    """sum c * e over the (c, entries) terms, normalized once per entry, zeros dropped.

    A first term is stored rather than added to 0: int + Fraction is slow.
    With the columns of a sparse map as the entries it applies the map.
    """
    acc: dict = {}
    for c, entries in terms:
        if not c:
            continue
        for key, v in entries.items():
            t = v if c == 1 else c * v
            acc[key] = acc[key] + t if key in acc else t
    return _normalized(field, acc)


def _sum(field: Field, terms: Iterable[tuple[object, object]]) -> dict:
    """The nonzero sums of the (key, value) terms, by key."""
    acc: dict = {}
    for key, v in terms:
        acc[key] = acc[key] + v if key in acc else v
    return _normalized(field, acc)


def _cleared(entries: Sequence[dict]) -> tuple[int, list[dict]]:
    """(D, every rational entry times D as an int), D the lcm of all their denominators."""
    den = math.lcm(*{v.denominator for e in entries for v in e.values()})
    return den, [{key: v.numerator * (den // v.denominator) for key, v in e.items()} for e in entries]


def _fractions(ints: dict, den: int) -> dict:
    """The entries ints / den, one `Fraction` in lowest terms each."""
    if den == 1:
        return {c: Fraction(v) for c, v in ints.items()}
    return {c: Fraction(v, den) for c, v in ints.items()}


def _sub_multiple(dst: dict, factor: int, src: dict, p: int, scale: int = 1) -> None:
    """dst <- scale * dst - factor * src in place on plain ints, dropping what cancels; over F_p (p > 0) mod p, scale 1."""
    if scale != 1:
        for c in dst:
            dst[c] *= scale
    get = dst.get
    if p:
        for c, v in src.items():
            x = (get(c, 0) - factor * v) % p
            if x:
                dst[c] = x
            else:
                del dst[c]
    else:
        for c, v in src.items():
            x = get(c, 0) - factor * v
            if x:
                dst[c] = x
            else:
                del dst[c]


def _make_primitive(row: dict, lead: int) -> None:
    """Divide the int row in place by the gcd of its entries, signed as lead: the entry lead turns positive."""
    g = math.gcd(*row.values())
    if lead < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


class Subspace:
    """A subspace of F^ambient in canonical form: the reduced row-echelon form of a spanning set, held sparse.

    `Subspace(field, ambient, rows)` eliminates the row dicts {column:
    nonzero}; it is the one elimination loop.  `rows` maps each pivot
    column to its basis row, with a one at the pivot and nothing to its
    left; callers must not mutate it.  The RREF is unique, so equal
    subspaces compare equal as values.  Rows are inserted shortest first,
    to limit fill-in.  Each is reduced against the pivot rows held so far
    and takes its least remaining column as its pivot, which is then
    cleared from every held row.  The new row is zero at every held pivot
    and a held row has no entry left of its own pivot, so no step puts an
    entry left of a pivot or at another row's pivot: the held rows are the
    unique RREF of the span at every step, with no back-reduction pass.

    The loop computes on ints only.  Over F_p a held row R is the RREF row,
    R[c] = 1 at its pivot c, and values are reduced mod p.  Over Q it is
    the primitive int row R with R[c] > 0 (the gcd of its entries is 1),
    so the RREF row is R / R[c]: a rational input row enters as its
    entries times the lcm of their denominators, clearing pivot c from a
    row v is v <- R[c] v - v[c] R followed by division by the gcd of v,
    and `rows` is built once at the end, one `Fraction(v, R[c])` per entry.
    """

    __slots__ = ("field", "ambient", "rows", "pivots", "_ints")

    def __init__(self, field: Field, ambient: int, rows: Iterable[dict] = ()):
        self.field = field
        self.ambient = ambient
        p = field.char
        self._ints: dict[int, dict] = {}
        for row in sorted(rows, key=len):
            vec = dict(row) if p else _cleared((row,))[1][0]
            self._clear(vec)
            self._insert(vec)
        self.rows = self._ints if p else {piv: _fractions(r, r[piv]) for piv, r in self._ints.items()}
        self.pivots = tuple(sorted(self.rows))

    @classmethod
    def _held(cls, field: Field, ambient: int, rows: dict[int, dict]) -> Subspace:
        # Trusted constructor: `rows` must already be an RREF keyed by pivot.
        out = cls.__new__(cls)
        out.field, out.ambient, out.rows, out.pivots = field, ambient, rows, tuple(sorted(rows))
        out._ints = rows if field.char else None
        return out

    @classmethod
    def span(cls, field: Field, ambient: int, vectors: Iterable[Sequence]) -> Subspace:
        rows = []
        for v in vectors:
            if len(v) != ambient:
                raise ShapeError(f"vector length {len(v)} vs ambient {ambient}")
            rows.append(_sparse([field.coerce(x) for x in v]))
        return cls(field, ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

    def _held_ints(self) -> dict[int, dict]:
        """The held int rows; over Q a trusted-constructed subspace builds them on first use.

        An RREF row times the lcm L of its denominators is primitive with L at its pivot.
        """
        if self._ints is None:
            self._ints = {piv: _cleared((row,))[1][0] for piv, row in self.rows.items()}
        return self._ints

    def _clear(self, vec: dict) -> int:
        """Zero the int row vec at every held pivot, in place; returns the factor L it was scaled by.

        A held row is zero at every other pivot, so each coefficient vec[c] is
        vec's own entry.  Over Q, vec is first scaled by L, the lcm of the hit
        rows' R[c], which makes every multiple vec[c] / R[c] an int: the
        result is L times the rational reduction.  L = 1 means every hit
        R[c] is 1, as over F_p.
        """
        held, p = self._ints, self.field.char
        hits = [c for c in vec if c in held]
        scale = 1 if p or not hits else math.lcm(*[held[c][c] for c in hits])
        if scale != 1:
            for c in vec:
                vec[c] *= scale
        for c in hits:
            row = held[c]
            _sub_multiple(vec, vec[c] if scale == 1 else vec[c] // row[c], row, p)
        return scale

    def _insert(self, row: dict) -> None:
        # row is an int row zero at every held pivot
        if not row:
            return
        held, p = self._ints, self.field.char
        piv = min(row)
        lead = row[piv]
        if p:
            if lead != 1:
                inv = self.field.inv(lead)
                row = {c: v * inv % p for c, v in row.items()}
            lead = 1
        else:
            _make_primitive(row, lead)
            lead = row[piv]
        for other in held.values():
            if piv in other:
                _sub_multiple(other, other[piv], row, p, lead)
                if not p:
                    _make_primitive(other, 1)
        held[piv] = row

    def reduce(self, vec: dict) -> dict:
        """A new dict: vec minus its combination of the rows that leaves it zero at every pivot.

        This is the canonical representative of vec modulo the subspace.
        Over Q, vec times the lcm D of its denominators is reduced on ints
        by `_clear`, and each entry left is one Fraction(v, D * L).
        """
        held = self._held_ints()
        if self.field.char:
            out = dict(vec)
            self._clear(out)
            return out
        if not any(c in held for c in vec):
            return dict(vec)
        den, (out,) = _cleared((vec,))
        return _fractions(out, den * self._clear(out))

    def restrict(self, ambient: int) -> Subspace:
        """The RREF of the first `ambient` columns of the rows, read off this one."""
        kept = {
            piv: {c: v for c, v in row.items() if c < ambient} for piv, row in self.rows.items() if piv < ambient
        }
        return Subspace._held(self.field, ambient, kept)

    def dense_rows(self) -> tuple[Vector, ...]:
        return tuple(_dense(self.field, self.ambient, self.rows[piv]) for piv in self.pivots)

    def kernel(self) -> list[dict]:
        """Canonical null-space basis of the rows: one vector per free column, free entry one."""
        f = self.field
        by_free: dict[int, dict] = {}
        for piv, row in self.rows.items():
            for c, x in row.items():
                if c != piv:
                    by_free.setdefault(c, {})[piv] = f.neg(x)
        out = []
        for free in range(self.ambient):
            if free not in self.rows:
                vec = by_free.get(free, {})
                vec[free] = f.one
                out.append(vec)
        return out

    def solutions(self, ncols: int) -> list[Vector] | None:
        """For the RREF of [M | B], M with ncols columns: the canonical solution of M x = b per column b of B.

        Returns None when some b is not in the image.  When every b is
        solvable there is no pivot in B, and the RREF restricts to the RREF
        of each [M | b]: every solution is the one an elimination of
        [M | b] alone gives, free variables set to zero.
        """
        if self.pivots and self.pivots[-1] >= ncols:
            return None
        z = self.field.zero
        sols = []
        for k in range(ncols, self.ambient):
            x = [z] * ncols
            for piv, row in self.rows.items():
                x[piv] = row.get(k, z)
            sols.append(tuple(x))
        return sols

    def contains_vector(self, v: Sequence) -> bool:
        if len(v) != self.ambient:
            raise ShapeError(f"vector length {len(v)} vs ambient {self.ambient}")
        return not self.reduce(_sparse([self.field.coerce(x) for x in v]))

    def contains_space(self, other: Subspace) -> bool:
        self._check_compatible(other)
        return not any(self.reduce(row) for row in other.rows.values())

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
        rev = {p: k - 1 - i for i, p in enumerate(self.pivots)}
        coords = ({rev[c]: x for c, x in row.items() if c in rev} for row in sub.rows.values())
        left_out = {k - 1 - c for c in Subspace(self.field, k, coords).pivots}
        return [_dense(self.field, self.ambient, self.rows[p]) for i, p in enumerate(self.pivots) if i not in left_out]

    def _check_compatible(self, other: Subspace) -> None:
        require_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ShapeError(f"ambient mismatch {self.ambient} vs {other.ambient}")


class SparseMatrix(_Record):
    """A rows x cols matrix held as its columns, one dict {row: nonzero} each; never mutated, compared, not hashed."""

    __slots__ = _fields = ("field", "rows", "cols", "columns")

    def __init__(self, field: Field, rows: int, cols: int, columns: tuple):
        self.field, self.rows, self.cols, self.columns = field, rows, cols, columns

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))

    def transpose(self) -> SparseMatrix:
        """Fresh columns of the transpose, the rows of self."""
        out: tuple = tuple({} for _ in range(self.rows))
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return SparseMatrix(self.field, self.cols, self.rows, out)

    def row_space(self) -> Subspace:
        return Subspace(self.field, self.cols, self.transpose().columns)


def augmented_echelon(field: Field, rows: Sequence[dict], ncols: int, rhs_columns: Sequence[Sequence]) -> Subspace:
    """The RREF of [M | B] from the row dicts of M (taken over) and the columns of B."""
    for b in rhs_columns:
        if len(b) != len(rows):
            raise ShapeError(f"rhs length {len(b)} vs {len(rows)} rows")
    for k, b in enumerate(rhs_columns, start=ncols):
        for row, x in zip(rows, b):
            x = field.coerce(x)
            if x:
                row[k] = x
    return Subspace(field, ncols + len(rhs_columns), rows)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form: (R, pivot columns, rank)."""
    ech = Subspace(m.field, m.cols, map(_sparse, m.data))
    zero_rows = ((m.field.zero,) * m.cols,) * (m.rows - ech.dim)
    return Matrix(m.field, m.rows, m.cols, ech.dense_rows() + zero_rows), ech.pivots, ech.dim


def image(m: SparseMatrix) -> Subspace:
    """Column space of m as a subspace of F^rows."""
    return Subspace(m.field, m.rows, m.columns)
