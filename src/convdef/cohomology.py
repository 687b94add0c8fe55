"""The deformation cochain complex of an algebra in the convolution category.

Cochains of degree n are linear maps from the comodule X into
Hom(A^(x)n, A), one sparse `MultiMap` per X basis vector.  The coface maps
weave the multiplication through the coaction; their alternating sum is
the differential.  Flattened cochain coordinates are X-index major, then
row-major over each a x a^n map, i.e. flat[s * a^(n+1) + r * a^n + c] =
maps[s].entries[(r, c)], and a column index of A^(x)n is read as n base-a
digits, the first factor most significant.

One loop, `ComplexSpec._coboundaries`, applies the cofaces.  It scatters
each nonzero entry x of a cochain at (t, y, J) (X index, output row, column
of A^(x)n) through each term c * e_t (x) c_u of rho(e_s) and each nonzero
v = m_u[r][p*a + q]:
  - i = 0, where q = y, adds c*v*x at (s, r, p*a^n + J);
  - i = n+1, where p = y, adds (-1)^(n+1) c*v*x at (s, r, J*a + q);
  - each 1 <= i <= n, with J = (h, r, l) for h in a^(i-1) and l in a^(n-i),
    adds (-1)^i c*v*x at (s, y, (h, p, q, l)).
`differential` runs it on one cochain, and `differential_matrix` on each
unit cochain e_j, whose image is column j of d^n.  It sums ints, as
`convolution._convolve` does: over Q, c' = D_rho c, v' = D_m v (cleared
once per complex) and x' = D_nu x are ints, each sum of c*v*x is the int
sum of c'v'x' over D_rho D_m D_nu, and it becomes one `Fraction`; over F_p
each sum is reduced mod p.  The composition-based cofaces these families
expand are the test suite's independent oracle (`tests/helpers.py`,
`oracle_coface`).  d^n is held as its columns, never densified:
`ComplexSpec` eliminates its rows once (Z^n is their null space) and its
columns once (they span B^(n+1)), each into a sparse `Subspace` per degree.

m is associative when its associator m * ((e (x) m) - (m (x) e)), e = eps(-) id_A,
vanishes (`is_associative`); the obstruction zeta of `convdef.deformation` is
a block of the same sparse associator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .coalgebra import integral_triples, trivial_k
from .convolution import ConvMorphism, Form, MultiMap, _convolve, _form_sum, _identity_form, epsilon_embed
from .errors import NotCompletelyReducible, NotRankOne, ShapeError
from .extension import Comodule
from .fields import Field, require_same_field
from .linalg import SparseMatrix, Subspace, Vector, _Record, _cleared, _dense, _normalized, _sum, image


class Cochain(_Record):
    """Degree-n element of the complex: one map A^(x)n -> A per X basis vector."""

    __slots__ = _fields = ("degree", "maps")

    def __init__(self, degree: int, maps: tuple[MultiMap, ...]):
        self.degree, self.maps = degree, maps
        for m in self.maps:
            if m.src_arity != self.degree or m.tgt_arity != 1:
                raise ShapeError(f"cochain maps must be A^(x){self.degree} -> A")

    @classmethod
    def zero(cls, field: Field, a_dim: int, x_dim: int, degree: int) -> Cochain:
        z = MultiMap.zero(field, a_dim, degree, 1)
        return cls(degree, (z,) * x_dim)

    @property
    def x_dim(self) -> int:
        return len(self.maps)

    @property
    def a_dim(self) -> int:
        return self.maps[0].a_dim

    @property
    def field(self) -> Field:
        return self.maps[0].field

    def __add__(self, other: Cochain) -> Cochain:
        return Cochain(self.degree, tuple(a + b for a, b in zip(self.maps, other.maps)))

    def __sub__(self, other: Cochain) -> Cochain:
        return Cochain(self.degree, tuple(a - b for a, b in zip(self.maps, other.maps)))

    def __neg__(self) -> Cochain:
        return Cochain(self.degree, tuple(-a for a in self.maps))

    def scale(self, c) -> Cochain:
        return Cochain(self.degree, tuple(m.scale(c) for m in self.maps))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps)

    def flat_entries(self) -> dict:
        """The nonzero flat coordinates {index: value}."""
        cols = self.a_dim**self.degree
        block = self.a_dim * cols
        return {s * block + r * cols + c: v for s, m in enumerate(self.maps) for (r, c), v in m.entries.items()}

    def flatten(self) -> Vector:
        return _dense(self.field, self.x_dim * self.a_dim ** (self.degree + 1), self.flat_entries())

    @classmethod
    def from_flat(cls, field: Field, a_dim: int, x_dim: int, degree: int, flat: Sequence) -> Cochain:
        if len(flat) != x_dim * a_dim ** (degree + 1):
            raise ShapeError("flat cochain length mismatch")
        coerced = ((i, field.coerce(x)) for i, x in enumerate(flat) if x)
        return cls.from_entries(field, a_dim, x_dim, degree, {i: v for i, v in coerced if v})

    @classmethod
    def from_entries(cls, field: Field, a_dim: int, x_dim: int, degree: int, entries: dict) -> Cochain:
        """The cochain with the given nonzero normalized flat coordinates {index: value}."""
        cols = a_dim**degree
        maps: list[dict] = [{} for _ in range(x_dim)]
        for i, v in entries.items():
            s, rc = divmod(i, a_dim * cols)
            maps[s][divmod(rc, cols)] = v
        return cls(degree, tuple(MultiMap(field, a_dim, degree, 1, e) for e in maps))


class CohomologyResult(_Record):
    __slots__ = _fields = ("degree", "dim_z", "dim_b", "dim_h", "representatives", "z_space", "b_space")

    def __init__(self, degree: int, dim_z: int, dim_b: int, dim_h: int, representatives: tuple[Cochain, ...],
                 z_space: Subspace, b_space: Subspace):
        self.degree, self.dim_z, self.dim_b, self.dim_h = degree, dim_z, dim_b, dim_h
        self.representatives, self.z_space, self.b_space = representatives, z_space, b_space


class ComplexSpec:
    """The cochain complex of an associative multiplication m and a comodule X."""

    def __init__(self, m: ConvMorphism, comodule: Comodule):
        if m.coalgebra != comodule.base:
            raise ShapeError("multiplication and comodule live over different coalgebras")
        if m.src_arity != 2 or m.tgt_arity != 1:
            raise ShapeError("multiplication must be a map C -> Hom(A(x)A, A)")
        comodule.require_valid()
        if not is_associative(m):
            raise ShapeError("multiplication is not associative in the convolution category")
        self.m = m
        self.comodule = comodule
        self.a_dim = m.a_dim
        self.x_dim = comodule.dim
        self.field = m.field
        self._differentials: dict[int, SparseMatrix] = {}
        self._row_echelons: dict[int, Subspace] = {}  # RREF of the rows of d^n: Z^n is its null space
        self._col_echelons: dict[int, Subspace] = {}  # RREF of the columns of d^n: B^(n+1)

    def cochain_dim(self, n: int) -> int:
        return self.x_dim * self.a_dim ** (n + 1)

    def differential_entries(self, n: int) -> tuple[tuple[int, int, object], ...]:
        """The nonzero entries (row, col, value) of d^n, column by column."""
        return tuple((row, j, v) for j, col in enumerate(self.differential_matrix(n).columns) for row, v in col.items())

    def differential(self, nu: Cochain) -> Cochain:
        """d^n applied to a cochain, scattered from its nonzero entries; d^n is never built."""
        if nu.x_dim != self.x_dim or nu.a_dim != self.a_dim:
            raise ShapeError("cochain does not match the complex")
        f = require_same_field(self.field, nu.field)
        (out,) = self._coboundaries(nu.degree, [nu.flat_entries()])
        return Cochain.from_entries(f, self.a_dim, self.x_dim, nu.degree + 1, out)

    @cached_property
    def _integral_indexes(self) -> tuple[int, list[list], list[dict], list[dict], list[dict]]:
        """(D_rho D_m, rho's (s, u, c) by t, m_u's (r, p, v) by q, (r, q, v) by p and (pq, v) by r), all ints."""
        d_rho, rho = integral_triples(self.comodule.coaction)
        d_m, m = self.m.integral_form
        by_t: list[list] = [[] for _ in range(self.x_dim)]
        for s, triples in enumerate(rho):
            for t, u, c in triples:
                by_t[t].append((s, u, c))
        by_q, by_p, by_r = ([{} for _ in m] for _ in range(3))
        for u, comp in enumerate(m):
            for (r, pq), v in comp.items():
                p, q = divmod(pq, self.a_dim)
                by_q[u].setdefault(q, []).append((r, p, v))
                by_p[u].setdefault(p, []).append((r, q, v))
                by_r[u].setdefault(r, []).append((pq, v))
        return d_rho * d_m, by_t, by_q, by_p, by_r

    def _coboundaries(self, n: int, cochains: Sequence[dict]) -> list[dict]:
        """d^n of each cochain, given and returned as its nonzero flat entries {index: value}: the one coface loop."""
        f, a = self.field, self.a_dim
        an = a**n
        blk_in, blk_out = a * an, a * a * an
        den, by_t, by_q, by_p, by_r = self._integral_indexes
        if not f.char:
            d_nu, cochains = _cleared(cochains)
            den *= d_nu
        inner = [(i % 2, a ** (n - i)) for i in range(1, n + 1)]
        frac: dict[int, Fraction] = {}  # one Fraction per distinct sum
        outs = []
        for entries in cochains:
            acc: dict[int, int] = {}
            get = acc.get
            for j, x in entries.items():
                t, rest = divmod(j, blk_in)
                y, col = divmod(rest, an)
                for s, u, c in by_t[t]:
                    out0, cx = s * blk_out, c * x
                    signed = (cx, -cx)  # (-1)^i c x, indexed by the parity of i
                    # i = 0: the output e_y of nu_t is the second argument q of m_u
                    for r, p, v in by_q[u].get(y, ()):
                        key = out0 + r * blk_in + p * an + col
                        acc[key] = get(key, 0) + cx * v
                    # i = n+1: e_y is the first argument p of m_u
                    last = signed[(n + 1) % 2]
                    for r, q, v in by_p[u].get(y, ()):
                        key = out0 + r * blk_in + col * a + q
                        acc[key] = get(key, 0) + last * v
                    # 1 <= i <= n: m_u(e_p (x) e_q) feeds digit r of the column (h, r, l) of nu_t
                    for odd, lo in inner:
                        h, rl = divmod(col, a * lo)
                        r, l = divmod(rl, lo)
                        row0 = out0 + y * blk_in + h * a * a * lo + l
                        w = signed[odd]
                        for pq, v in by_r[u].get(r, ()):
                            key = row0 + pq * lo
                            acc[key] = get(key, 0) + w * v
            out = _normalized(f, acc)
            if not f.char:
                out = {key: frac.get(v) or frac.setdefault(v, Fraction(v, den)) for key, v in out.items()}
            outs.append(out)
        return outs

    def differential_matrix(self, n: int) -> SparseMatrix:
        """d^n as its cochain_dim(n) columns, assembled once and cached: column j is d^n of the unit cochain e_j."""
        if n not in self._differentials:
            cols = self._coboundaries(n, [{j: 1} for j in range(self.cochain_dim(n))])
            self._differentials[n] = SparseMatrix(self.field, self.cochain_dim(n + 1), self.cochain_dim(n), tuple(cols))
        return self._differentials[n]

    def row_echelon(self, n: int) -> Subspace:
        """The RREF of the rows of d^n, eliminated once and cached."""
        if n not in self._row_echelons:
            self._row_echelons[n] = self.differential_matrix(n).row_space()
        return self._row_echelons[n]

    def image_echelon(self, n: int) -> Subspace:
        """The RREF of the columns of d^n, a basis of B^(n+1); eliminated once and cached."""
        if n not in self._col_echelons:
            self._col_echelons[n] = image(self.differential_matrix(n))
        return self._col_echelons[n]

    def coboundaries(self, n: int) -> Subspace:
        """B^n = im d^(n-1), zero for n = 0."""
        if n == 0:
            return Subspace(self.field, self.cochain_dim(0))
        return self.image_echelon(n - 1)

    def solve(self, n: int, rhs: Cochain) -> Optional[Cochain]:
        """The canonical cochain x with d^n x = rhs (free variables zero), or None when rhs is off B^(n+1).

        One elimination of [d^n | rhs], rhs written into the rows of d^n as
        its last column; the left block is the RREF of the rows of d^n,
        which is cached for Z^n unless already there.
        """
        if (rhs.degree, rhs.x_dim, rhs.a_dim) != (n + 1, self.x_dim, self.a_dim):
            raise ShapeError("right-hand side does not match d^n of the complex")
        f = require_same_field(self.field, rhs.field)
        d = self.differential_matrix(n)
        rows = d.transpose().columns
        for r, v in rhs.flat_entries().items():
            rows[r][d.cols] = v
        aug = Subspace(f, d.cols + 1, rows)
        self._row_echelons.setdefault(n, aug.restrict(d.cols))
        sols = aug.solutions(d.cols)
        return None if sols is None else Cochain.from_entries(f, self.a_dim, self.x_dim, n, sols[0])

    def cohomology(self, n: int) -> CohomologyResult:
        """Z^n = ker d^n, B^n = im d^(n-1), with RREF-canonical H^n representatives."""
        f = self.field
        z_space = Subspace(f, self.cochain_dim(n), self.row_echelon(n).kernel())
        b_space = self.coboundaries(n)
        if not z_space.contains_space(b_space):
            raise ShapeError("differential does not square to zero; complex is inconsistent")
        reps = tuple(Cochain.from_entries(f, self.a_dim, self.x_dim, n, row) for row in z_space.quotient_basis(b_space))
        return CohomologyResult(
            degree=n,
            dim_z=z_space.dim,
            dim_b=b_space.dim,
            dim_h=z_space.dim - b_space.dim,
            representatives=reps,
            z_space=z_space,
            b_space=b_space,
        )


def _associator(m: ConvMorphism) -> Form:
    """m * ((e (x) m) - (m (x) e)), e = eps(-) id_A, by the sparse convolution kernel, as a canonical integral form.

    Convolution is linear in its right factor, so this is m * (e (x) m) - m * (m (x) e)
    with one composition instead of two; the difference is taken on the ints.
    """
    c, a = m.coalgebra, m.a_dim
    if m.src_arity != 2 or m.tgt_arity != 1:
        raise ShapeError("multiplication must be a map C -> Hom(A(x)A, A)")
    mm, ee = m.integral_form, _identity_form(c, a)
    lhs, rhs = _convolve(c, ee, mm, (a, a * a)), _convolve(c, mm, ee, (a, a))
    return _convolve(c, mm, _form_sum(c.field, (1, lhs), (-1, rhs)))


def is_associative(m: ConvMorphism) -> bool:
    """m * (m (x) e) = m * (e (x) m) exactly: the associator is empty; cached on m like its `integral_form`."""
    if "associative" not in m.__dict__:
        m.__dict__["associative"] = not any(_associator(m)[1])
    return m.__dict__["associative"]


def hochschild_spec(m0: MultiMap) -> ComplexSpec:
    """The complex computing Hochschild cohomology of a plain algebra (A, m0).

    This is the C = k, X = k case of the general construction.
    """
    c = trivial_k(m0.field)
    m = epsilon_embed(m0, c)
    com = Comodule(c, 1, [[(0, 0, 1)]])
    return ComplexSpec(m, com)


def hochschild_dims(m0: MultiMap, degrees: Sequence[int]) -> dict[int, int]:
    spec = hochschild_spec(m0)
    return {n: spec.cohomology(n).dim_h for n in degrees}


class Rank1Reduction(_Record):
    """Factorization of the differential through the Hochschild complex of m0; act_matrix is x |-> chi -> x on X."""

    __slots__ = _fields = ("m0", "chi", "chi_is_counit", "act_matrix", "hochschild")

    def __init__(self, m0: MultiMap, chi: Vector, chi_is_counit: bool, act_matrix: SparseMatrix,
                 hochschild: ComplexSpec):
        self.m0, self.chi, self.chi_is_counit = m0, chi, chi_is_counit
        self.act_matrix, self.hochschild = act_matrix, hochschild

    def factored_differential_entries(self, n: int) -> dict[tuple[int, int], object]:
        """The nonzero entries {(row, col): value} of act^T (x) partial^n."""
        f, hs = self.hochschild.field, self.hochschild
        rows, cols = hs.cochain_dim(n + 1), hs.cochain_dim(n)
        partial = hs.differential_entries(n)
        out = {}
        for i, col in enumerate(self.act_matrix.columns):
            for j, a in col.items():
                for r, c, v in partial:
                    out[(i * rows + r, j * cols + c)] = f.mul(a, v)
        return out


def rank1_reduce(spec: ComplexSpec, degrees: Sequence[int] = (2,)) -> Rank1Reduction:
    """Factor d^n as Hom(X, partial^n) after the chi action, for rank-1 m.

    Requires m(c) = chi(c) * m0 for every basis element c; verifies the
    factored matrix against the directly assembled differential for each
    requested degree.
    """
    m = spec.m
    f = spec.field
    base = next((comp for comp in m.components if comp.entries), None)
    if base is None:
        raise NotRankOne("multiplication is zero (rank 0)")
    ref = min(base.entries)  # the first nonzero entry in row-major order
    chi = []
    for comp in m.components:
        coeff = f.div(comp.entries.get(ref, f.zero), base.entries[ref])
        if comp != base.scale(coeff):
            raise NotRankOne("multiplication components are not proportional")
        chi.append(coeff)
    dx = spec.x_dim
    act = tuple(_sum(f, ((t, c * chi[u]) for t, u, c in spec.comodule.coaction[s])) for s in range(dx))
    red = Rank1Reduction(
        m0=base,
        chi=tuple(chi),
        chi_is_counit=tuple(chi) == m.coalgebra.counit,
        act_matrix=SparseMatrix(f, dx, dx, act),
        hochschild=hochschild_spec(base),
    )
    for n in degrees:
        direct = {(r, c): v for r, c, v in spec.differential_entries(n)}
        if red.factored_differential_entries(n) != direct:
            raise NotRankOne("factored differential disagrees with the direct assembly")
    return red


class ProductDecomposition(_Record):
    """Per-line Hochschild cohomology of a completely reducible instance."""

    __slots__ = _fields = ("lines", "per_line", "totals")

    def __init__(self, lines: tuple[tuple[Vector, Vector], ...], per_line: tuple[dict[int, CohomologyResult], ...],
                 totals: dict[int, int]):
        self.lines, self.per_line, self.totals = lines, per_line, totals


def product_decompose(
    spec: ComplexSpec,
    lines: Optional[Sequence[tuple[Vector, Vector]]],
    degrees: Sequence[int] = (2,),
) -> ProductDecomposition:
    """Split H^n through a complete reduction of X into lines x_i (x) g_i.

    Asserts dim H^n of the full complex equals the sum of the per-line
    Hochschild dimensions of (A, m(g_i)).
    """
    if lines is None:
        raise NotCompletelyReducible("no decomposition available")
    per_line = []
    totals = {n: 0 for n in degrees}
    for _x, g in lines:
        m_i = spec.m.evaluate(dict(enumerate(g)))
        hs = hochschild_spec(m_i)
        results = {n: hs.cohomology(n) for n in degrees}
        per_line.append(results)
        for n in degrees:
            totals[n] += results[n].dim_h
    for n in degrees:
        if spec.cohomology(n).dim_h != totals[n]:
            raise NotCompletelyReducible(
                f"H^{n} dimension does not match the product of line cohomologies"
            )
    return ProductDecomposition(
        lines=tuple((tuple(x), tuple(g)) for x, g in lines),
        per_line=tuple(per_line),
        totals=totals,
    )
