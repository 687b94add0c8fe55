"""Finite-dimensional coalgebras given by structure constants.

A coalgebra stores sparse comultiplication triples: Delta(e_i) is the sum
of coeff * e_j (x) e_k over the triples (j, k, coeff) attached to basis
index i.  Tensor powers C^(x)p are flattened row-major with the leftmost
factor most significant, so index(t_1, ..., t_p) = sum t_a * dim^(p-1-a).
`triples_columns` holds a triples table as the sparse columns of its
matrix and `_lincomb` applies them: that is how Delta, a coaction or
omega acts on a sparse vector.

Every identity of a coalgebra, a comodule or a 2-cocycle is read off
whole tables by `_then` and the flip test `_is_symmetric`.  The coalgebra
axioms are checked once per coalgebra, on ints: `validate` reads Delta as
`integral_delta` and keeps its report.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Optional, Sequence

from .errors import NoFiltration, ShapeError
from .fields import Field
from .linalg import Subspace, Vector, _Record, _cleared, _lincomb, _normalized, unit_vec

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


def _then(field: Field, inner, table, right: bool = False) -> dict:
    """(inner (x) 1) o table keyed (s, a, b, k), or (1 (x) inner) o table keyed (s, j, a, b) when `right`.

    Summed over every source s of table at once, on the stored values (ints or field values).  With the counit
    as the table e_i -> eps(e_i) 1 (x) 1 it is (eps (x) 1) o table, keyed (s, 0, 0, k), or (1 (x) eps) o table.
    """
    acc: dict = {}
    for s, triples in enumerate(table):
        for j, k, c in triples:
            for a, b, c2 in inner[k] if right else inner[j]:
                key, t = (s, j, a, b) if right else (s, a, b, k), c * c2
                acc[key] = acc[key] + t if key in acc else t
    return _normalized(field, acc)


def _is_symmetric(table) -> bool:
    """table = flip o table, for a normalized table: every triple (j, k, c) of a source has its mirror (k, j, c)."""
    coeffs = {(s, j, k): c for s, triples in enumerate(table) for j, k, c in triples}
    return coeffs == {(s, k, j): c for (s, j, k), c in coeffs.items()}


class CoalgebraReport(_Record):
    __slots__ = _fields = ("coassociative", "counit_left", "counit_right", "cocommutative", "grading_compatible")

    def __init__(self, coassociative: bool, counit_left: bool, counit_right: bool, cocommutative: bool,
                 grading_compatible: Optional[bool] = None):
        self.coassociative, self.counit_left, self.counit_right = coassociative, counit_left, counit_right
        self.cocommutative, self.grading_compatible = cocommutative, grading_compatible

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        checks = (self.coassociative, self.counit_left, self.counit_right, self.grading_compatible is not False)
        names = ("coassociativity", "left counit axiom", "right counit axiom", "grading compatibility")
        return [name for name, passed in zip(names, checks) if not passed]


class GroupLikeSet(_Record):
    __slots__ = _fields = ("elements",)

    def __init__(self, elements: tuple[Vector, ...]):
        self.elements = elements


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
        """The axioms on the Delta triples: (Delta (x) 1)Delta = (1 (x) Delta)Delta and both counit axioms.

        They are summed on ints by `_then`.  With (D, mu') = `integral_delta` and
        (E, eps') the counit cleared to ints, both sides of coassociativity
        at e_i are D^2 times the rational sums and both counit sides D E
        times theirs, so the int sums agree exactly when the rational ones
        do; over F_p, D = E = 1 and the sums are taken mod p.  The report
        is computed once per value and kept, like `integral_delta`.
        """
        return self._report

    @cached_property
    def _report(self) -> CoalgebraReport:
        f, (den, delta) = self.field, self.integral_delta
        e_den, (eps,) = _cleared(({i: x for i, x in enumerate(self.counit) if x},))
        counit = [((0, 0, eps[i]),) if i in eps else () for i in range(self.dim)]  # eps' as a table, for `_then`
        u = den * e_den  # 1 over F_p
        grading_ok = None
        if self.grading is not None:
            g = self.grading
            grading_ok = all(
                g[j] + g[k] == g[i] for i, triples in enumerate(delta) for j, k, _c in triples
            ) and not any(eps.get(i) for i, n in enumerate(g) if n > 0)
        return CoalgebraReport(
            coassociative=_then(f, delta, delta) == _then(f, delta, delta, right=True),
            counit_left=_then(f, counit, delta) == {(i, 0, 0, i): u for i in range(self.dim)},
            counit_right=_then(f, counit, delta, right=True) == {(i, i, 0, 0): u for i in range(self.dim)},
            cocommutative=self.is_cocommutative,
            grading_compatible=grading_ok,
        )

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise ShapeError(f"invalid coalgebra: {', '.join(report.failures())} failed")

    @cached_property
    def is_cocommutative(self) -> bool:
        return _is_symmetric(self.delta)

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
            Subspace._held(f, d, {i: {i: 1} for i, g in enumerate(self.grading) if g <= n})
            for n in range(self.max_degree() + 1)
        ]

    def sub_on_indices(self, indices: Sequence[int]) -> Coalgebra:
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
            [self.names[i] for i in idx],
            delta,
            [self.counit[i] for i in idx],
            grading=[self.grading[i] for i in idx] if self.grading is not None else None,
        )


def _is_grouplike(c: Coalgebra, delta: list[dict], v: dict) -> bool:
    """eps(v) = 1 and Delta(v) = v (x) v exactly, v given by its nonzero coordinates and Delta by its columns."""
    f = c.field
    return c.eps(v) == f.one and _lincomb(f, ((x, delta[i]) for i, x in v.items())) == _tensor(f, v, v, c.dim)


def find_grouplikes(c: Coalgebra) -> GroupLikeSet:
    """The group-like basis vectors: Delta(e_i) = e_i (x) e_i and eps(e_i) = 1."""
    f, d = c.field, c.dim
    return GroupLikeSet(
        tuple(unit_vec(f, d, i) for i in range(d) if c.delta[i] == ((i, i, f.one),) and c.counit[i] == f.one)
    )


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
