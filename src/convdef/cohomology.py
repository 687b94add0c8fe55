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
`differential` runs it on one cochain, `solves` (the Maurer-Cartan
residual, compared on ints) on a batch of them, and `differential_matrix`
on each unit cochain e_j, whose image is column j of d^n.  It sums ints, as
`convolution._convolve` does: over Q, c' = D_rho c, v' = D_m v (cleared
once per complex) and x' = D_nu x are ints, and each sum of c*v*x is the
int sum of c'v'x' over D = D_rho D_m D_nu; over F_p each sum is reduced
mod p and D = 1.  It returns D and the int sums.  The composition-based
cofaces these families expand are the test suite's independent oracle
(`tests/helpers.py`, `oracle_coface`).  d^n is held integral, as the int
columns of D d^n with D beside them (D = D_rho D_m, the unit cochains
being ints), and never densified.  D d^n has the row space, image and
kernel of d^n, so `Subspace` eliminates those ints as they are: its
columns once (they span B^(n+1)) and its rows once, with column c
written at N-1-c: the kernel of that RREF, mapped back, is the RREF of
Z^n, held with no second elimination (`ComplexSpec.cocycles`).  The one
exception is a degree that `solve` has already eliminated in the plain
order, as every `mc_solve` does: there Z^n is the span of the kernel of
the RREF `solve` cached.  Over Q a `Fraction` is built only for a value
that leaves: `differential`'s cochain, `differential_entries`, a
solution and the H^n representatives.

m is associative when its associator m * ((e (x) m) - (m (x) e)), e = eps(-) id_A,
vanishes (`is_associative`), summed straight from the structure constants by
`_associator_rows`; the obstruction zeta of `convdef.deformation` is that sum on X's rows.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from .coalgebra import Coalgebra, integral_triples, trivial_k
from .convolution import ConvMorphism, Form, MultiMap, _canonical, epsilon_embed
from .errors import NotCocommutative, NotCompletelyReducible, NotRankOne, ShapeError
from .extension import Comodule
from .fields import Field, require_same_field
from .linalg import SparseMatrix, Subspace, Vector, _Record, _cleared, _dense, _fractions, _lincomb, _normalized, _sum


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


# The largest d^n the library assembles: 2^20 rows, x_dim a^(n+2).  The largest in the tests, the benchmark and
# the ladder of ROADMAP is M_2 at n = 6, 65,536 rows; one past the bound would take hours and gigabytes.
MAX_DIFFERENTIAL_ROWS = 2**20


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
        self._differentials: dict[int, tuple[int, SparseMatrix]] = {}  # (D, the int columns of D d^n)
        self._row_echelons: dict[int, Subspace] = {}  # RREF of the rows of d^n, left by `solve`
        self._cocycles: dict[int, Subspace] = {}  # Z^n = ker d^n
        self._col_echelons: dict[int, Subspace] = {}  # RREF of the columns of d^n: B^(n+1)

    def cochain_dim(self, n: int) -> int:
        return self.x_dim * self.a_dim ** (n + 1)

    def differential_entries(self, n: int) -> tuple[tuple[int, int, object], ...]:
        """The nonzero entries (row, col, value) of d^n, column by column: the held ints over D."""
        cols = self.differential_matrix(n).columns
        den = self._differentials[n][0]
        if not self.field.char:
            cols = [_fractions(col, den) for col in cols]
        return tuple((row, j, v) for j, col in enumerate(cols) for row, v in col.items())

    def differential(self, nu: Cochain) -> Cochain:
        """d^n applied to a cochain, scattered from its nonzero entries; d^n is never built."""
        if nu.x_dim != self.x_dim or nu.a_dim != self.a_dim:
            raise ShapeError("cochain does not match the complex")
        f = require_same_field(self.field, nu.field)
        den, (out,) = self._coboundaries(nu.degree, [nu.flat_entries()])
        return Cochain.from_entries(f, self.a_dim, self.x_dim, nu.degree + 1, out if f.char else _fractions(out, den))

    def solves(self, nus: Sequence[Cochain], zeta: Optional[Cochain] = None) -> bool:
        """d^n(nu) = -zeta for every nu, or d^n(v) = 0 for every v when zeta is None: exactly, building no Fraction.

        One batched `_coboundaries` pass gives D d^n(nu) as ints; with E the lcm
        of zeta's denominators, E (D d^n(nu)) = -D (E zeta) is compared on ints.
        """
        n = nus[0].degree if nus else 0
        if any((nu.degree, nu.x_dim, nu.a_dim, nu.field) != (n, self.x_dim, self.a_dim, self.field) for nu in nus):
            raise ShapeError("cochain does not match the complex")
        den, outs = self._coboundaries(n, [nu.flat_entries() for nu in nus])
        if zeta is None:
            return not any(outs)
        e, (z,) = _cleared((zeta.flat_entries(),))
        want = _normalized(self.field, {k: -den * v for k, v in z.items()})
        return all(_normalized(self.field, {k: e * v for k, v in out.items()}) == want for out in outs)

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

    def _coboundaries(self, n: int, cochains: Sequence[dict]) -> tuple[int, list[dict]]:
        """(D, D d^n of each cochain as ints): the one coface loop; cochains are nonzero flat entries {index: value}.

        Over Q, D is the lcm of the constants' and the cochains' denominators; over F_p it is 1.
        """
        f, a = self.field, self.a_dim
        an = a**n
        blk_in, blk_out = a * an, a * a * an
        den, by_t, by_q, by_p, by_r = self._integral_indexes
        if not f.char:
            d_nu, cochains = _cleared(cochains)
            den *= d_nu
        inner = [(i % 2, a ** (n - i)) for i in range(1, n + 1)]
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
            outs.append(_normalized(f, acc))
        return den, outs

    def _require_within_bound(self, n: int) -> None:
        """Refuse a d^n with more than MAX_DIFFERENTIAL_ROWS rows, comparing n with the bound before any power.

        With a >= 2 the rows x a^(n+2) pass 2^20 once n + 2 > 20; with a = 1
        they stay x, and n + 2, the number of cofaces, is held to 2^20.
        """
        x, a, k = self.x_dim, self.a_dim, n + 2
        if k <= (MAX_DIFFERENTIAL_ROWS.bit_length() - 1 if a > 1 else MAX_DIFFERENTIAL_ROWS):
            if x * a**k <= MAX_DIFFERENTIAL_ROWS:
                return
            shape = f"{x * a**k} x {x * a ** (k - 1)}"
        else:
            shape = f"{x}*{a}^{k} x {x}*{a}^{k - 1}"
        raise ShapeError(f"d^{n} would be {shape}, past the bound of {MAX_DIFFERENTIAL_ROWS} rows")

    def differential_matrix(self, n: int) -> SparseMatrix:
        """D d^n as its cochain_dim(n) int columns, assembled once and cached: column j is D d^n of the unit e_j.

        D is the denominator `_coboundaries` returns, kept beside the columns;
        over F_p it is 1, so this is d^n.  `differential_entries` gives the values.
        """
        if n not in self._differentials:
            self._require_within_bound(n)
            den, cols = self._coboundaries(n, [{j: 1} for j in range(self.cochain_dim(n))])
            d = SparseMatrix(self.field, self.cochain_dim(n + 1), self.cochain_dim(n), tuple(cols))
            self._differentials[n] = den, d
        return self._differentials[n][1]

    def cocycles(self, n: int) -> Subspace:
        """Z^n = ker d^n in RREF, cached: read off one elimination of the rows of d^n, not eliminated again.

        The int rows of D d^n are eliminated with column c written at N-1-c
        (the columns reversed) to an RREF R' with pivots P'.  Its canonical
        kernel has one vector per free column f': a one at f' and
        -R'[p'][f'] at each pivot p' < f'.  Mapped back by c -> N-1-c, that
        vector leads with its one at N-1-f', and its other entries lie to
        the right, at the columns N-1-p', which lead no other vector.  So the
        vectors are the unique RREF of Z^n, and `Subspace.kernel`'s int
        multiples of them, positive at their leads, are its held rows.  When
        `solve(n, .)` has already eliminated [D d^n | rhs], as every
        `mc_solve` does, Z^n is instead the span of the kernel of the left
        block `solve` cached.
        """
        if n not in self._cocycles:
            d = self.differential_matrix(n)  # refuses an oversized d^n before cochain_dim(n) takes a power
            f, last = self.field, d.cols - 1
            if n in self._row_echelons:
                self._cocycles[n] = Subspace(f, d.cols, self._row_echelons[n].kernel())
            else:
                mirrored = SparseMatrix(f, d.rows, d.cols, d.columns[::-1]).transpose().columns
                kernel = ({last - c: v for c, v in vec.items()} for vec in Subspace(f, d.cols, mirrored).kernel())
                self._cocycles[n] = Subspace._held(f, d.cols, {min(vec): vec for vec in kernel})
        return self._cocycles[n]

    def image_echelon(self, n: int) -> Subspace:
        """The RREF of the columns of d^n, a basis of B^(n+1); eliminated once and cached."""
        if n not in self._col_echelons:
            d = self.differential_matrix(n)
            self._col_echelons[n] = Subspace(self.field, d.rows, d.columns)
        return self._col_echelons[n]

    def coboundaries(self, n: int) -> Subspace:
        """B^n = im d^(n-1), zero for n = 0."""
        if n == 0:
            return Subspace(self.field, self.cochain_dim(0))
        return self.image_echelon(n - 1)

    def solve(self, n: int, rhs: Cochain) -> Optional[Cochain]:
        """The canonical cochain x with d^n x = rhs (free variables zero), or None when rhs is off B^(n+1).

        One elimination of [D d^n | D E rhs] on ints, E the lcm of rhs's
        denominators, D E rhs written into the rows of D d^n as its last
        column.  Its canonical solution is E x, so x is that over E.  The
        left block is the RREF of the rows of d^n, which is cached, unless
        already there, for `cocycles` to read Z^n off.
        """
        if (rhs.degree, rhs.x_dim, rhs.a_dim) != (n + 1, self.x_dim, self.a_dim):
            raise ShapeError("right-hand side does not match d^n of the complex")
        f = require_same_field(self.field, rhs.field)
        d = self.differential_matrix(n)
        den = self._differentials[n][0]
        rows = d.transpose().columns
        e, (b,) = _cleared((rhs.flat_entries(),))
        for r, v in b.items():
            rows[r][d.cols] = den * v
        aug = Subspace(f, d.cols + 1, rows)
        self._row_echelons.setdefault(n, aug.restrict(d.cols))
        sols = aug.solutions(d.cols)
        if sols is None:
            return None
        x = sols[0] if e == 1 else {k: v / e for k, v in sols[0].items()}
        return Cochain.from_entries(f, self.a_dim, self.x_dim, n, x)

    def cohomology(self, n: int) -> CohomologyResult:
        """Z^n = ker d^n, B^n = im d^(n-1), with RREF-canonical H^n representatives."""
        f = self.field
        z_space = self.cocycles(n)
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


def _associator_rows(c: Coalgebra, m: Form, a: int, rows: Iterable[int]) -> Form:
    """The associator of m: A (x) A -> A at the basis elements `rows` of C, summed from the structure constants.

    With L_k = sum nu eps(c_p) m_q over Delta(c_k) = sum nu c_p (x) c_q, e (x) m = I (x) L_k and, C being
    cocommutative, m (x) e = L_k (x) I at c_k; so at c_i it is sum mu m_j o (I (x) L_k - L_k (x) I) over Delta(c_i).
    eps is contracted as it stands, also where the counit axioms fail.  On ints: with mu', eps', m' cleared over
    D_mu, E, D_m, each L'_k is over D_mu E D_m and each sum over D_mu^2 E D_m^2; the form is then made canonical.
    """
    if not c.is_cocommutative:
        raise NotCocommutative("tensor products in the convolution category need cocommutativity")
    (d_mu, delta), (d_m, mm), f = c.integral_delta, m, c.field
    d_eps, (eps,) = _cleared(({i: x for i, x in enumerate(c.counit) if x},))
    ls = []  # L'_k by row y: [(column, value)]
    for triples in delta:
        by_row: dict[int, list] = {}
        for (y, col), v in _lincomb(f, ((nu * eps[p], mm[q]) for p, q, nu in triples if p in eps)).items():
            by_row.setdefault(y, []).append((col, v))
        ls.append(by_row)
    aa, out = a * a, []
    for i in rows:
        acc = {}
        get = acc.get
        for j, k, mu in delta[i]:
            lk = ls[k]
            if not (lk and mm[j]):
                continue
            for (r, col), w in mm[j].items():
                w, (y1, y2) = mu * w, divmod(col, a)
                for qt, v in lk.get(y2, ()):  # m_j[r][(p, y)] L_k[y][(q, t)] at (r, (p, q, t)), p = y1
                    key = (r, y1 * aa + qt)
                    acc[key] = get(key, 0) + w * v
                for pq, v in lk.get(y1, ()):  # -m_j[r][(y, t)] L_k[y][(p, q)] at (r, (p, q, t)), t = y2
                    key = (r, pq * a + y2)
                    acc[key] = get(key, 0) - w * v
        out.append(_normalized(f, acc))
    return _canonical(d_mu * d_mu * d_eps * d_m * d_m, out)


def _associator(m: ConvMorphism) -> Form:
    """The associator of m at every basis element of C, by `_associator_rows`, as a canonical integral form."""
    if m.src_arity != 2 or m.tgt_arity != 1:
        raise ShapeError("multiplication must be a map C -> Hom(A(x)A, A)")
    return _associator_rows(m.coalgebra, m.integral_form, m.a_dim, range(m.coalgebra.dim))


def is_associative(m: ConvMorphism) -> bool:
    """m * (m (x) e) = m * (e (x) m) exactly: the associator is empty; cached on m like its `integral_form`."""
    if "associative" not in m.__dict__:
        m.__dict__["associative"] = not any(_associator(m)[1])
    return m.__dict__["associative"]


def _proved_associative(m: ConvMorphism) -> None:
    """Record on m that it is associative, proved without its associator, so `is_associative` runs none."""
    m.__dict__["associative"] = True


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
