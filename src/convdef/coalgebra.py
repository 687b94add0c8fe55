"""Finite-dimensional coalgebras given by structure constants.

A coalgebra stores sparse comultiplication triples: Delta(e_i) is the sum
of coeff * e_j (x) e_k over the triples (j, k, coeff) attached to basis
index i.  Tensor powers C^(x)p are flattened row-major with the leftmost
factor most significant, so index(t_1, ..., t_p) = sum t_a * dim^(p-1-a).
`triples_columns` holds a triples table as the sparse columns of its
matrix and `_lincomb` applies them: that is how Delta, a coaction or
omega acts on a sparse vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import NoFiltration, NotExhaustive, ShapeError, UnsupportedSearch
from .fields import Field, require_same_field
from .linalg import SparseMatrix, Subspace, Vector, _lincomb, _sum, preimage, unit_vec

Triples = tuple[tuple[int, int, object], ...]


def normalize_triples(field: Field, raw, dims: tuple[int, int], what: str) -> tuple[Triples, ...]:
    """Merge duplicates, drop zeros, sort; one tuple of triples per source index.

    Every structure-constant table (Delta, a coaction, a 2-cocycle) is
    stored this way.  `dims` bounds the two indices of a triple; `what`
    names the table in the range error.
    """
    left, right = dims
    where = "for" if what == "delta" else "at"
    out = []
    for i, triples in enumerate(raw):
        acc: dict[tuple[int, int], object] = {}
        for j, k, c in triples:
            if not (0 <= j < left and 0 <= k < right):
                raise ShapeError(f"{what} triple ({j},{k}) out of range {where} index {i}")
            c = field.coerce(c)
            key = (j, k)
            acc[key] = field.add(acc[key], c) if key in acc else c
        out.append(
            tuple((j, k, c) for (j, k), c in sorted(acc.items()) if not field.is_zero(c))
        )
    return tuple(out)


def integral_triples(table: Sequence[Triples]) -> tuple[int, tuple[Triples, ...]]:
    """(D, the table with every structure constant times D as an int), D the lcm of their denominators.

    Over F_p the constants are ints already and D = 1.
    """
    den = math.lcm(*(c.denominator for triples in table for _, _, c in triples))
    return den, tuple(tuple((j, k, c.numerator * (den // c.denominator)) for j, k, c in triples) for triples in table)


def triples_columns(triples, right: int) -> list[dict]:
    """A triples table as the sparse columns of its matrix: source i -> {j * right + k: coeff}.

    `_lincomb(field, ((x, cols[i]) for i, x in v.items()))` applies the
    table to the sparse vector v; for Delta (right = dim) that is Delta(v)
    in C (x) C, flattened with the left factor most significant.
    """
    return [{j * right + k: c for j, k, c in per_source} for per_source in triples]


def _tensor(field: Field, u: dict, v: dict, right: int) -> dict:
    """u (x) v for sparse vectors, v in F^right, flattened as `triples_columns` is."""
    return {a * right + b: field.mul(x, y) for a, x in u.items() for b, y in v.items()}


@dataclass(frozen=True)
class CoalgebraReport:
    coassociative: bool
    counit_left: bool
    counit_right: bool
    cocommutative: bool
    grading_compatible: Optional[bool] = None

    @property
    def ok(self) -> bool:
        checks = [self.coassociative, self.counit_left, self.counit_right]
        if self.grading_compatible is not None:
            checks.append(self.grading_compatible)
        return all(checks)

    def failures(self) -> list[str]:
        out = []
        if not self.coassociative:
            out.append("coassociativity")
        if not self.counit_left:
            out.append("left counit axiom")
        if not self.counit_right:
            out.append("right counit axiom")
        if self.grading_compatible is False:
            out.append("grading compatibility")
        return out


@dataclass(frozen=True)
class GroupLikeSet:
    elements: tuple[Vector, ...]


class Coalgebra:
    __slots__ = ("field", "dim", "names", "delta", "counit", "grading", "__dict__")

    def __init__(
        self,
        field: Field,
        names: Sequence[str],
        delta,
        counit: Sequence,
        grading: Optional[Sequence[int]] = None,
    ):
        self.field = field
        self.names = tuple(names)
        self.dim = len(self.names)
        if self.dim == 0:
            raise ShapeError("coalgebras here are nonzero")
        if len(delta) != self.dim or len(counit) != self.dim:
            raise ShapeError("delta/counit length must equal dim")
        self.delta = normalize_triples(field, delta, (self.dim, self.dim), "delta")
        self.counit = tuple(field.coerce(x) for x in counit)
        self.grading = tuple(int(g) for g in grading) if grading is not None else None
        if self.grading is not None and len(self.grading) != self.dim:
            raise ShapeError("grading length must equal dim")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coalgebra)
            and self.field == other.field
            and self.names == other.names
            and self.delta == other.delta
            and self.counit == other.counit
            and self.grading == other.grading
        )

    def __hash__(self) -> int:
        return hash((self.field, self.names, self.delta, self.counit, self.grading))

    def __repr__(self) -> str:
        return f"Coalgebra(dim {self.dim} over {self.field.name}, basis {list(self.names)})"

    def eps(self, v: dict) -> object:
        """eps of the vector with nonzero coordinates v = {index: x}."""
        return self.field.normalize(sum(self.counit[i] * x for i, x in v.items()))

    # -- validation ------------------------------------------------------

    def validate(self) -> CoalgebraReport:
        """The axioms on the Delta triples: (Delta (x) 1)Delta = (1 (x) Delta)Delta and both counit axioms, per e_i."""
        f, delta, counit = self.field, self.delta, self.counit
        coassoc = counit_l = counit_r = True
        for i, triples in enumerate(delta):
            left = _sum(f, (((a, b, k), c * c2) for j, k, c in triples for a, b, c2 in delta[j]))
            right = _sum(f, (((j, a, b), c * c2) for j, k, c in triples for a, b, c2 in delta[k]))
            coassoc = coassoc and left == right
            unit = {i: f.one}
            counit_l = counit_l and _sum(f, ((k, c * counit[j]) for j, k, c in triples)) == unit
            counit_r = counit_r and _sum(f, ((j, c * counit[k]) for j, k, c in triples)) == unit
        grading_ok = None
        if self.grading is not None:
            g = self.grading
            grading_ok = all(
                g[j] + g[k] == g[i] for i, triples in enumerate(delta) for j, k, _c in triples
            ) and all(f.is_zero(e) for e, n in zip(counit, g) if n > 0)
        return CoalgebraReport(
            coassociative=coassoc,
            counit_left=counit_l,
            counit_right=counit_r,
            cocommutative=self.is_cocommutative,
            grading_compatible=grading_ok,
        )

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise ShapeError(f"invalid coalgebra: {', '.join(report.failures())} failed")

    @cached_property
    def is_cocommutative(self) -> bool:
        for triples in self.delta:
            coeffs = {(j, k): c for j, k, c in triples}
            for (j, k), c in coeffs.items():
                if coeffs.get((k, j), self.field.zero) != c:
                    return False
        return True

    @cached_property
    def integral_delta(self) -> tuple[int, tuple[Triples, ...]]:
        """`integral_triples` of Delta for the convolution kernel; derived, so not part of equality or hashing."""
        return integral_triples(self.delta)

    # -- gradings and filtrations -----------------------------------------

    def max_degree(self) -> int:
        if self.grading is None:
            raise NoFiltration("coalgebra is not graded")
        return max(self.grading)

    def degree_indices(self, n: int) -> tuple[int, ...]:
        if self.grading is None:
            raise NoFiltration("coalgebra is not graded")
        return tuple(i for i, g in enumerate(self.grading) if g == n)

    def grading_filtration(self) -> list[Subspace]:
        """The canonical filtration C_{<=n} of a graded coalgebra."""
        if self.grading is None:
            raise NoFiltration("coalgebra is not graded")
        f, d = self.field, self.dim
        # a coordinate subspace is its own RREF: no elimination
        return [
            Subspace._held(f, d, {i: {i: f.one} for i, g in enumerate(self.grading) if g <= n})
            for n in range(self.max_degree() + 1)
        ]

    def sub_on_indices(self, indices: Sequence[int], names: Optional[Sequence[str]] = None) -> Coalgebra:
        """Subcoalgebra spanned by the given basis vectors (must be closed)."""
        idx = list(indices)
        pos = {orig: new for new, orig in enumerate(idx)}
        delta = []
        for orig in idx:
            triples = []
            for j, k, c in self.delta[orig]:
                if j not in pos or k not in pos:
                    raise ShapeError("chosen basis vectors do not span a subcoalgebra")
                triples.append((pos[j], pos[k], c))
            delta.append(triples)
        return Coalgebra(
            self.field,
            names if names is not None else [self.names[i] for i in idx],
            delta,
            [self.counit[i] for i in idx],
            grading=[self.grading[i] for i in idx] if self.grading is not None else None,
        )


def is_coalgebra_filtration(c: Coalgebra, layers: Sequence[Subspace]) -> bool:
    """Check increasing, exhaustive, and Delta(C_n) inside sum C_i (x) C_{n-i}.

    The last test runs in one sweep over Delta on a basis adapted to the
    layers, never on spans inside C (x) C.  Nested subspaces in RREF have
    nested pivot sets, so each pivot p has a level lvl(p), the first layer
    whose pivots contain it, and a row b_p, that layer's RREF row with
    pivot p; {b_p : lvl(p) <= n} is a basis of C_n.  Each product
    b_p (x) b_q has leading coefficient 1 at the flat position p*dim + q,
    and these positions are distinct, so the products form an echelon
    basis of C (x) C, and sum_i C_i (x) C_{n-i} is spanned by the products
    with lvl(p) + lvl(q) <= n.  Hence Delta(C_n) lies in that sum for every
    n exactly when each Delta(b_r) has no nonzero coordinate at a product
    with lvl(p) + lvl(q) > lvl(r): the b_r with lvl(r) <= n span C_n, and
    the sum grows with n.  The coordinates are read off by a forward sweep
    over the leading positions, first factor then second; on a grading
    filtration every b_p is a unit vector and the sweep only compares
    degrees over the nonzero Delta-triples.
    """
    f, d = c.field, c.dim
    if not layers or layers[-1].dim != d:
        return False
    for lo, hi in zip(layers, layers[1:]):
        if not hi.contains_space(lo):
            return False
    if layers[-1].ambient != d:
        raise ShapeError(f"filtration layers lie in F^{layers[-1].ambient}, the coalgebra has dim {d}")
    level: dict[int, int] = {}
    tail: dict[int, list] = {}  # b_p = e_p + sum of x * e_i over (i, x) in tail[p], each i > p
    for n, layer in enumerate(layers):
        for p, row in layer.rows.items():
            if p not in level:
                level[p] = n
                tail[p] = [(i, x) for i, x in row.items() if i != p]
    for r, top in level.items():
        # Delta(b_r) by first tensor factor: rows[j][k] is the coefficient of e_j (x) e_k.
        rows: dict[int, dict[int, object]] = {}
        for i, x in [(r, f.one)] + tail[r]:
            for j, k, mu in c.delta[i]:
                row = rows.setdefault(j, {})
                row[k] = f.add(row.get(k, f.zero), f.mul(x, mu))
        while rows:
            p = min(rows)
            y = rows.pop(p)  # the second factor paired with b_p
            for i, x in tail[p]:
                row = rows.setdefault(i, {})
                for k, v in y.items():
                    row[k] = f.sub(row.get(k, f.zero), f.mul(x, v))
            while y:
                q = min(y)
                v = y.pop(q)  # the coordinate at b_p (x) b_q
                if f.is_zero(v):
                    continue
                if level[p] + level[q] > top:
                    return False
                for k, x in tail[q]:
                    y[k] = f.sub(y.get(k, f.zero), f.mul(x, v))
    return True


def coradical_filtration(c: Coalgebra, c0: Subspace) -> list[Subspace]:
    """Iterate C_{n+1} = Delta^{-1}(C (x) C_n + C_0 (x) C) until it reaches C.

    The bottom layer C_0 must be a subcoalgebra; raises NotExhaustive when
    the chain stabilizes strictly below the whole coalgebra.
    """
    f, d = c.field, c.dim
    if c0.ambient != d:
        raise ShapeError("ambient dimension mismatch")
    delta = triples_columns(c.delta, d)
    bottom = list(c0.rows.values())
    c0c0 = Subspace(f, d * d, [_tensor(f, u, v, d) for u in bottom for v in bottom])
    if any(c0c0.reduce(_lincomb(f, ((x, delta[i]) for i, x in u.items()))) for u in bottom):
        raise ShapeError("C0 is not a subcoalgebra")
    delta_map = SparseMatrix(f, d * d, d, tuple((r, i, v) for i, col in enumerate(delta) for r, v in col.items()))
    units = [{i: f.one} for i in range(d)]
    chain = [c0]
    while chain[-1].dim < d:
        cur = chain[-1]
        vecs = [_tensor(f, e, v, d) for e in units for v in cur.rows.values()]
        vecs += [_tensor(f, u, e, d) for e in units for u in bottom]
        nxt = preimage(delta_map, Subspace(f, d * d, vecs)).sum(cur)
        if nxt == cur:
            raise NotExhaustive(
                f"filtration stabilized at dimension {cur.dim} < {d}; C0 is not the coradical"
            )
        chain.append(nxt)
    return chain


def _is_grouplike(c: Coalgebra, delta: list[dict], v: dict) -> bool:
    """eps(v) = 1 and Delta(v) = v (x) v exactly, v given by its nonzero coordinates and Delta by its columns."""
    f = c.field
    return c.eps(v) == f.one and _lincomb(f, ((x, delta[i]) for i, x in v.items())) == _tensor(f, v, v, c.dim)


def find_grouplikes(c: Coalgebra, mode: str = "basis") -> GroupLikeSet:
    """Group-like elements: Delta(g) = g (x) g and eps(g) = 1.

    mode "basis" scans basis vectors only; "exhaustive" enumerates all of
    F_p^dim for small prime fields.
    """
    f, d = c.field, c.dim
    found = []
    if mode == "basis":
        for i in range(d):
            if c.delta[i] == ((i, i, f.one),) and c.counit[i] == f.one:
                found.append(unit_vec(f, d, i))
    elif mode == "exhaustive":
        if not f.char:
            raise UnsupportedSearch("exhaustive group-like search needs a finite field")
        if f.char**d > 10**6:
            raise UnsupportedSearch(f"{f.char}^{d} points is beyond the search bound")
        delta = triples_columns(c.delta, d)
        for v in itertools.product(range(f.char), repeat=d):
            if _is_grouplike(c, delta, {i: x for i, x in enumerate(v) if x}):
                found.append(v)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return GroupLikeSet(tuple(found))


# -- builtin constructors -------------------------------------------------


def trivial_k(field: Field) -> Coalgebra:
    return Coalgebra(field, ["1"], [[(0, 0, 1)]], [1], grading=[0])


def divided_power_t(n_max: int, field: Field) -> Coalgebra:
    """The subcoalgebra k[t]_{<= N} of k[t] with Delta(t^n) = sum t^i (x) t^(n-i)."""
    if n_max < 0:
        raise ShapeError("N must be >= 0")
    names = ["1"] + [f"t^{n}" if n > 1 else "t" for n in range(1, n_max + 1)]
    delta = [[(i, n - i, 1) for i in range(n + 1)] for n in range(n_max + 1)]
    counit = [1] + [0] * n_max
    return Coalgebra(field, names, delta, counit, grading=list(range(n_max + 1)))


def _monomial_name(expts: tuple[int, ...]) -> str:
    parts = []
    for v, e in enumerate(expts):
        if e == 1:
            parts.append(f"t{v + 1}")
        elif e > 1:
            parts.append(f"t{v + 1}^{e}")
    return "*".join(parts) if parts else "1"


def polynomial_multi(r: int, n_max: int, field: Field) -> Coalgebra:
    """Monomials of total degree <= N in r variables, Delta(t^P) = sum_{Q+R=P} t^Q (x) t^R."""
    if r < 1:
        raise ShapeError("need at least one variable")
    monos = sorted(
        (e for e in itertools.product(range(n_max + 1), repeat=r) if sum(e) <= n_max),
        key=lambda e: (sum(e), e),
    )
    index = {e: i for i, e in enumerate(monos)}
    delta = []
    for e in monos:
        triples = []
        for q in itertools.product(*(range(x + 1) for x in e)):
            rrest = tuple(a - b for a, b in zip(e, q))
            triples.append((index[q], index[rrest], 1))
        delta.append(triples)
    counit = [1 if sum(e) == 0 else 0 for e in monos]
    grading = [sum(e) for e in monos]
    return Coalgebra(field, [_monomial_name(e) for e in monos], delta, counit, grading=grading)


def direct_sum(parts: Sequence[Coalgebra]) -> Coalgebra:
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


def grouplike_coalgebra(k: int, field: Field) -> Coalgebra:
    """The coalgebra of the group algebra on k group-like basis vectors."""
    if k < 1:
        raise ShapeError("need at least one group-like")
    return Coalgebra(
        field,
        [f"g{i}" for i in range(k)],
        [[(i, i, 1)] for i in range(k)],
        [1] * k,
        grading=[0] * k,
    )
