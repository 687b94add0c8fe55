"""Exact linear algebra over Q and F_p, with one place that eliminates.

`Subspace` is where every elimination runs and the one subspace type: it
holds the reduced row-echelon form of a spanning set as dicts {column:
nonzero}, keyed by pivot column, so equal subspaces compare equal as
values.  It takes, holds and computes on plain ints: mod p over F_p, and
over Q int rows (a caller with rational rows clears them first, as
`_integral` does), held as primitive int rows R, each with its pivot
entry R[c] > 0 as the denominator of the RREF row R / R[c].  Clearing
pivot c from a row v is v <- R[c] v - v[c] R, then division by the gcd
of v's entries.  Over Q a `Fraction` is built only for a value that
leaves: an entry of `rows` (on first read), of `quotient_basis`'s rows,
of a solution or of a reduced vector.  Over F_p a tall, dense row set
(more rows than columns, at least 8 nonzeros a row) is eliminated instead
on packed ints, `_packed_rref`: each held RREF row is one int of W-bit
slots, a row is reduced by one multiply-add per pivot it hits and read
mod p once, and the slot bound (r + 1)^2 p^3 + p, r <= ambient, fixes W;
the RREF it returns is the one the dict loop gives.
`SparseMatrix` holds a map as its columns, one dict {row: nonzero} each,
the library's one matrix type: the differentials d^n, Delta, the inclusion
of an extension and its retract are read in the form they are built.
`_lincomb` and `_sum` are the sparse accumulators the layers above share,
and `_Record` the equality, hashing and repr of their plain record classes.
`Matrix` is dense, tuple-of-tuples in row-major order; with `rref` it is
the dense facade, kept only because the benchmark's tracer hooks both.
No other library module uses it.  Vectors are plain tuples.  Everything
here is immutable after construction.
"""

from __future__ import annotations

import math
import sys
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


def _integral(field: Field, rows: Iterable[dict]) -> Iterable[dict]:
    """The rows as `Subspace` takes them: over Q each rational row times the lcm of its denominators; over F_p as given."""
    return rows if field.char else [_cleared((row,))[1][0] for row in rows]


def _field_row(field: Field, row: dict, col: int) -> dict:
    """The int row divided by its entry at col, as field values: over Q one Fraction each; over F_p the row, 1 at col."""
    return row if field.char else _fractions(row, row[col])


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


# The packed elimination pays only on tall, dense row sets.  Its cost per row
# is a read of the free slots plus one big-int multiply-add per hit pivot;
# the dict loop's is one dict update per entry of each hit row, and in a
# tall set most rows reduce to zero after hitting many.  Measured against
# the dict loop (Python 3.11): on the dense 256 x 64 d^2 of the benchmark
# over F_32003 (10-12 nonzeros a row) 1.9-2.4x faster, on Hochschild d^n in
# dense bases over F_32003 with 9-16 a row 1.1-4.7x faster, at 6-8 a row
# 0.96-1.2x, over F_2 and F_3 at 8-11 a row 0.86-1.4x; on sparse sets
# (0.4-1.7 a row) 3-10x slower, on short sets 1.4-5x slower (9 x 27 over
# F_3 at 12-14 a row included), but on the short 13-16 x 64 kernel sets of
# dense bases over F_32003 (30-44 a row) 1.4-1.8x faster: a rule for short
# sets needs more than their density, so they stay on the dict loop.
_PACKED_MIN_ROW_NNZ = 8


def _packs(ambient: int, rows: Sequence[dict]) -> bool:
    """Whether an F_p row set is eliminated packed: more rows than columns, at least 8 nonzeros a row on average."""
    return len(rows) > ambient and sum(map(len, rows)) >= _PACKED_MIN_ROW_NNZ * len(rows)


def _slot_width(p: int, ambient: int) -> int:
    """The bits W of one packed slot: a multiple of 64 above (ambient + 1)^2 p^3 + p, the bound of `_packed_rref`."""
    return -(-((ambient + 1) ** 2 * p**3 + p).bit_length() // 64) * 64


def _slots(n: int, count: int, width: int) -> Sequence[int]:
    """The count slots of width bits of the packed int n >= 0, least significant first."""
    if width == 64 and sys.byteorder == "little":
        return memoryview(n.to_bytes(8 * count, "little")).cast("Q")
    b = width // 8
    buf = n.to_bytes(b * count, "little")
    return [int.from_bytes(buf[i : i + b], "little") for i in range(0, b * count, b)]


def _packed_rref(p: int, ambient: int, rows: Sequence[dict]) -> dict[int, dict]:
    """The RREF of the F_p rows, keyed by pivot as `Subspace` holds it, computed on packed ints.

    A held RREF row R with pivot c is one int N = sum_j s_j 2^(W j) with
    slots s_j >= 0, s_j = -R[j] mod p, except s_c = p.  A held row is zero
    at every other pivot, so the factor of each pivot c an incoming row v
    hits is v's own entry v[c] (all entries are in [0, p)), and the reduced
    row is v' = (v off the held pivots, packed) + sum_c v[c] N_c: one
    multiply-add per hit, slot c becoming v[c] p = 0 mod p.  Only the free
    slots of v' are read, once, mod p.  A new pivot row R' with pivot c'
    enters as the packed form P of -R' mod p, slots < p; it is cleared
    from each held row N_q by N_q <- N_q + k P, k = slot c' of N_q mod p,
    which makes that slot k p, and no held row is ever renormalized.
    With r <= ambient held rows, a held slot stays below
    p + r p^2 <= (r + 1) p^2 after at most r back-substitutions, and a
    reduced slot below p + r p (r + 1) p^2 < (r + 1)^2 p^3 + p.  So no
    slot reaches 2^W (`_slot_width`), and as every term is nonnegative no
    carry or borrow crosses a slot boundary.  Each held row is unpacked
    once, at the end.  Rows are taken in the given order, so the pivots
    are found in the order the dict loop finds them.
    """
    width = _slot_width(p, ambient)
    held: dict[int, int] = {}
    free = list(range(ambient))
    for v in rows:
        acc = 0
        for c, x in v.items():
            n = held.get(c)
            acc += x << (width * c) if n is None else x * n
        slots = _slots(acc, ambient, width)
        vals = [slots[c] % p for c in free]
        i = next((i for i, x in enumerate(vals) if x), None)
        if i is None:
            continue
        piv = free.pop(i)
        neg_inv = p - pow(vals[i], -1, p)
        new = 0
        for c, x in zip(free[i:], vals[i + 1 :]):
            if x:
                new += x * neg_inv % p << (width * c)
        shift, mask = width * piv, (1 << width) - 1
        new += (p - 1) << shift
        for q, n in held.items():
            if q < piv:
                k = (n >> shift & mask) % p
                if k:
                    held[q] = n + k * new
        held[piv] = new + (1 << shift)
        if not free:
            break
    out = {}
    for q, n in held.items():
        slots = _slots(n, ambient, width)
        row = {q: 1}
        for c in free:
            if c > q:
                x = -slots[c] % p
                if x:
                    row[c] = x
        out[q] = row
    return out


class Subspace:
    """A subspace of F^ambient in canonical form: the reduced row-echelon form of a spanning set, held sparse.

    `Subspace(field, ambient, rows)` eliminates the int row dicts {column:
    nonzero}; every elimination runs here.  Over Q the rows must be ints: a
    caller with rational rows scales each by the lcm of its denominators
    first (`_integral`); a row times any nonzero int spans
    the same line, so the subspace is the same.  `rows` maps each pivot
    column to its basis row as field values, with a one at the pivot and
    nothing to its left; over Q it is built on first read, one `Fraction`
    per entry.  Callers must not mutate it.  The RREF is unique, so equal
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
    so the RREF row is R / R[c]: clearing pivot c from a row v is
    v <- R[c] v - v[c] R followed by division by the gcd of v.  The
    primitive row with a positive pivot is unique, so the held rows are
    canonical too; `kernel`, `reduce`, `contains_space`, `quotient_basis`
    and `solutions` read them, and build Fractions only for what they return.

    Over F_p a row set with more rows than columns and at least 8 nonzeros
    a row on average (`_packs`) is eliminated on packed ints instead
    (`_packed_rref`, whose docstring gives the slot bound that fixes the
    slot width W).  Most rows of such a set reduce to zero, and the dict
    loop spends one dict update per entry of every row it subtracts; the
    packed loop one big-int multiply-add per hit pivot and one read mod p
    per row.  The RREF is unique, so both give the same `rows`.  Over Q
    the dict loop is the only path.
    """

    __slots__ = ("field", "ambient", "pivots", "_ints", "_rows")

    def __init__(self, field: Field, ambient: int, rows: Iterable[dict] = ()):
        self.field = field
        self.ambient = ambient
        p = field.char
        rows = sorted(rows, key=len)
        if p and _packs(ambient, rows):
            self._ints = _packed_rref(p, ambient, rows)
        else:
            self._ints = {}
            for row in rows:
                self._insert(self._residue(row))
        self._rows = self._ints if p else None
        self.pivots = tuple(sorted(self._ints))

    @classmethod
    def _held(cls, field: Field, ambient: int, ints: dict[int, dict]) -> Subspace:
        # Trusted constructor: `ints` must already be the held int rows of an RREF, keyed by pivot.
        out = cls.__new__(cls)
        out.field, out.ambient, out._ints, out.pivots = field, ambient, ints, tuple(sorted(ints))
        out._rows = ints if field.char else None
        return out

    @property
    def rows(self) -> dict[int, dict]:
        """The RREF rows as field values, by pivot; over Q built on first read."""
        if self._rows is None:
            self._rows = {piv: _field_row(self.field, row, piv) for piv, row in self._ints.items()}
        return self._rows

    @property
    def dim(self) -> int:
        return len(self._ints)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._ints == other._ints
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

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

    def _residue(self, ints: dict) -> dict:
        """A new int row: ints cleared at every held pivot, times the factor `_clear` returns."""
        out = dict(ints)
        self._clear(out)
        return out

    def reduce(self, vec: dict) -> dict:
        """A new dict: vec minus its combination of the rows that leaves it zero at every pivot.

        This is the canonical representative of vec modulo the subspace.
        Over Q, vec times the lcm D of its denominators is reduced on ints
        by `_clear`, and each entry left is one Fraction(v, D * L).
        """
        if self.field.char:
            return self._residue(vec)
        if not any(c in self._ints for c in vec):
            return dict(vec)
        den, (out,) = _cleared((vec,))
        return _fractions(out, den * self._clear(out))

    def restrict(self, ambient: int) -> Subspace:
        """The RREF of the first `ambient` columns of the rows, read off this one."""
        kept = {
            piv: {c: v for c, v in row.items() if c < ambient} for piv, row in self._ints.items() if piv < ambient
        }
        if not self.field.char:
            for piv, row in kept.items():
                _make_primitive(row, 1)
        return Subspace._held(self.field, ambient, kept)

    def dense_rows(self) -> tuple[Vector, ...]:
        return tuple(_dense(self.field, self.ambient, self.rows[piv]) for piv in self.pivots)

    def kernel(self) -> list[dict]:
        """Null-space basis of the rows, as held int rows: one vector per free column f, positive at f.

        Over F_p it is the canonical vector, with a one at f and -R[f] at
        the pivot of each held row R; over Q the primitive int multiple of
        the canonical vector, positive at f, its last column.  When the rows
        were eliminated with their columns reversed, the vectors mapped back
        are the held rows of the RREF of the null space; this is how
        `ComplexSpec.cocycles` reads Z^n off d^n.
        """
        held, p = self._ints, self.field.char
        by_free: dict[int, dict] = {}
        for piv, row in held.items():
            for c, x in row.items():
                if c != piv:
                    by_free.setdefault(c, {})[piv] = -x % p if p else -x
        out = []
        for free in range(self.ambient):
            if free not in held:
                vec = by_free.get(free, {})
                if p:
                    vec[free] = 1
                else:
                    lead = math.lcm(*[held[q][q] for q in vec])
                    for q in vec:
                        vec[q] *= lead // held[q][q]
                    vec[free] = lead
                    _make_primitive(vec, lead)
                out.append(vec)
        return out

    def solutions(self, ncols: int) -> list[dict] | None:
        """For the RREF of [M | B], M with ncols columns: the canonical solution {unknown: value} of M x = b per column b of B.

        Returns None when some b is not in the image.  When every b is
        solvable there is no pivot in B, and the RREF restricts to the RREF
        of each [M | b]: every solution is the one an elimination of
        [M | b] alone gives, free variables set to zero, so x[piv] is the
        pivot row's entry in b's column, R[b] / R[piv] over Q.
        """
        if self.pivots and self.pivots[-1] >= ncols:
            return None
        p = self.field.char
        sols: list[dict] = [{} for _ in range(ncols, self.ambient)]
        for piv in self.pivots:
            row = self._ints[piv]
            tail = {c: v for c, v in row.items() if c >= ncols}
            for c, v in (tail if p else _fractions(tail, row[piv])).items():
                sols[c - ncols][piv] = v
        return sols

    def contains_vector(self, v: Sequence) -> bool:
        if len(v) != self.ambient:
            raise ShapeError(f"vector length {len(v)} vs ambient {self.ambient}")
        return not self.reduce(_sparse([self.field.coerce(x) for x in v]))

    def contains_space(self, other: Subspace) -> bool:
        self._check_compatible(other)
        return not any(self._residue(row) for row in other._ints.values())

    def quotient_basis(self, sub: Subspace) -> list[dict]:
        """The RREF row dicts kept by a greedy scan: each row not in sub + the rows before it; not to be mutated.

        Their classes form a basis of self / sub; sub must lie inside self.
        A vector v of sub has coordinates v[p] in this basis, p running over
        the pivots, and a held row of sub is a positive multiple of its RREF
        row, so its int entries at the pivots are the coordinates of a
        spanning vector.  Row i is skipped exactly when some vector of sub
        has its last nonzero coordinate at i, that is when i is a pivot of
        those coordinates read right to left: one elimination of a dim sub x
        dim self int matrix.  Over Q only the kept rows become Fractions.
        """
        k = self.dim
        rev = {p: k - 1 - i for i, p in enumerate(self.pivots)}
        coords = ({rev[c]: x for c, x in row.items() if c in rev} for row in sub._ints.values())
        left_out = {k - 1 - c for c in Subspace(self.field, k, coords).pivots}
        return [_field_row(self.field, self._ints[p], p) for i, p in enumerate(self.pivots) if i not in left_out]

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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form: (R, pivot columns, rank)."""
    ech = Subspace(m.field, m.cols, _integral(m.field, map(_sparse, m.data)))
    zero_rows = ((m.field.zero,) * m.cols,) * (m.rows - ech.dim)
    return Matrix(m.field, m.rows, m.cols, ech.dense_rows() + zero_rows), ech.pivots, ech.dim
