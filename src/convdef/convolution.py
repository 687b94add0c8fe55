"""The convolution category over a coalgebra C.

Objects are tensor powers of a fixed space A (strict monoidal Vect, so
unit and associativity constraints are identities).  A morphism is a
linear map from C into Hom(A^(x)p, A^(x)q): one `MultiMap` per basis
element of C, each held as its nonzero entries {(row, col): v} and never
as a dense matrix.  With Delta(c_i) = sum mu c_j (x) c_k, composition
(g * f)(c_i) = sum mu g(c_j) o f(c_k) and, for cocommutative C, the tensor
product (f (x) g)(c_i) = sum mu f(c_j) (x) g(c_k) are one sparse kernel,
`_convolve`, on those entries; sums and multiples of maps are `_lincomb`.
Inverses are computed layer by layer along a coalgebra filtration.

The kernel multiplies and adds ints only.  Over Q it clears denominators
once per product: D_L and D_R are the lcms of the denominators of the
left and right entries, D_mu that of Delta's constants
(`Coalgebra.integral_delta`), and l' = D_L l, r' = D_R r, mu' = D_mu mu
are ints.  Then sum mu l r = (sum mu' l' r') / (D_mu D_L D_R) term by
term, so an output entry is its int sum over that one denominator, and
`Fraction` reduces it to the lowest terms the rational sum has: the
result is exact and the same value.  Over F_p the entries and constants
are ints already and each sum is reduced mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coalgebra import Coalgebra, is_coalgebra_filtration
from .errors import NoFiltration, NotCocommutative, NotInvertible, ShapeError
from .fields import Field, require_same_field
from .linalg import SparseMatrix, Subspace, _cleared, _lincomb, _normalized, augmented_echelon


class MultiMap:
    """A linear map A^(x)p -> A^(x)q, an a_dim^q x a_dim^p matrix held as its nonzero entries.

    `entries` maps (row, col) to a normalized nonzero field element and is
    never mutated once built.  Two maps are equal exactly when their field,
    arities and entries are, that is, when their dense matrices are.
    """

    __slots__ = ("field", "a_dim", "src_arity", "tgt_arity", "entries")

    def __init__(self, field: Field, a_dim: int, src_arity: int, tgt_arity: int, entries: dict):
        # Trusted constructor: `entries` must already be normalized, nonzero and inside the shape.
        self.field, self.a_dim, self.src_arity, self.tgt_arity = field, a_dim, src_arity, tgt_arity
        self.entries = entries

    @classmethod
    def from_rows(cls, field: Field, a_dim: int, src_arity: int, tgt_arity: int, rows) -> MultiMap:
        """The map with the given dense rows, coerced into the field."""
        rows = [tuple(row) for row in rows]
        nc = a_dim**src_arity
        if len(rows) != a_dim**tgt_arity or any(len(row) != nc for row in rows):
            raise ShapeError(f"rows do not form an a^{tgt_arity} x a^{src_arity} matrix at dim a = {a_dim}")
        coerced = ((r, col, field.coerce(x)) for r, row in enumerate(rows) for col, x in enumerate(row))
        return cls(field, a_dim, src_arity, tgt_arity, {(r, col): v for r, col, v in coerced if v})

    @classmethod
    def zero(cls, field: Field, a_dim: int, src_arity: int, tgt_arity: int) -> MultiMap:
        return cls(field, a_dim, src_arity, tgt_arity, {})

    @classmethod
    def identity(cls, field: Field, a_dim: int, arity: int = 1) -> MultiMap:
        return cls(field, a_dim, arity, arity, {(r, r): field.one for r in range(a_dim**arity)})

    def rows(self) -> tuple[tuple, ...]:
        """The dense matrix, row by row; built only to render a report or spec."""
        z = self.field.zero
        out = [[z] * self.a_dim**self.src_arity for _ in range(self.a_dim**self.tgt_arity)]
        for (r, col), v in self.entries.items():
            out[r][col] = v
        return tuple(map(tuple, out))

    def _with(self, entries: dict) -> MultiMap:
        return MultiMap(self.field, self.a_dim, self.src_arity, self.tgt_arity, entries)

    def __add__(self, other: MultiMap) -> MultiMap:
        self._like(other)
        return self._with(_lincomb(self.field, ((1, self.entries), (1, other.entries))))

    def __sub__(self, other: MultiMap) -> MultiMap:
        self._like(other)
        return self._with(_lincomb(self.field, ((1, self.entries), (-1, other.entries))))

    def __neg__(self) -> MultiMap:
        return self._with({key: self.field.neg(v) for key, v in self.entries.items()})

    def scale(self, c) -> MultiMap:
        return self._with(_lincomb(self.field, ((self.field.coerce(c), self.entries),)))

    def is_zero(self) -> bool:
        return not self.entries

    def _shape(self) -> tuple:
        return (self.field, self.a_dim, self.src_arity, self.tgt_arity)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiMap) and self._shape() == other._shape() and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self._shape(), frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return (f"MultiMap(A^(x){self.src_arity} -> A^(x){self.tgt_arity}, dim A = {self.a_dim}, "
                f"over {self.field.name}: {self.entries})")

    def _like(self, other: MultiMap) -> None:
        require_same_field(self.field, other.field)
        if (self.a_dim, self.src_arity, self.tgt_arity) != (other.a_dim, other.src_arity, other.tgt_arity):
            raise ShapeError("shape mismatch between multimaps")


@dataclass(frozen=True)
class ConvMorphism:
    """A morphism of the convolution category: one MultiMap per basis element of C."""

    coalgebra: Coalgebra
    components: tuple[MultiMap, ...]

    def __post_init__(self):
        if len(self.components) != self.coalgebra.dim:
            raise ShapeError("one component per coalgebra basis element required")
        first = self.components[0]
        for comp in self.components[1:]:
            first._like(comp)

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def a_dim(self) -> int:
        return self.components[0].a_dim

    @property
    def src_arity(self) -> int:
        return self.components[0].src_arity

    @property
    def tgt_arity(self) -> int:
        return self.components[0].tgt_arity

    def evaluate(self, c_vec: dict) -> MultiMap:
        """The map at the element of C with coordinates c_vec = {index: x}; zero ones may be left out."""
        f = self.field
        terms = ((f.coerce(x), self.components[i].entries) for i, x in c_vec.items())
        return self.components[0]._with(_lincomb(f, terms))

    def __add__(self, other: ConvMorphism) -> ConvMorphism:
        self._same_base(other)
        return ConvMorphism(self.coalgebra, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: ConvMorphism) -> ConvMorphism:
        self._same_base(other)
        return ConvMorphism(self.coalgebra, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> ConvMorphism:
        return ConvMorphism(self.coalgebra, tuple(-a for a in self.components))

    def scale(self, c) -> ConvMorphism:
        return ConvMorphism(self.coalgebra, tuple(a.scale(c) for a in self.components))

    def is_zero(self) -> bool:
        return all(comp.is_zero() for comp in self.components)

    def vanishes_on(self, space: Subspace) -> bool:
        if space.ambient != self.coalgebra.dim:
            raise ShapeError("subspace ambient dimension mismatch")
        return all(self.evaluate(row).is_zero() for row in space.rows.values())

    def _same_base(self, other: ConvMorphism) -> None:
        if self.coalgebra != other.coalgebra:
            raise ShapeError("morphisms over different coalgebras")


def epsilon_embed(m0: MultiMap, c: Coalgebra) -> ConvMorphism:
    """The embedding of a plain map along the counit: c |-> eps(c) m0."""
    return ConvMorphism(c, tuple(m0.scale(e) for e in c.counit))


def identity_conv(c: Coalgebra, a_dim: int, arity: int = 1) -> ConvMorphism:
    return epsilon_embed(MultiMap.identity(c.field, a_dim, arity), c)


def _entries(mor: ConvMorphism) -> list[dict]:
    return [comp.entries for comp in mor.components]


def _convolve(c: Coalgebra, left: Sequence[dict], right: Sequence[dict], kron: Optional[tuple[int, int]] = None) -> list[dict]:
    """The convolution kernel on nonzero entries {(row, col): v}, one dict per basis element of C.

    For each c_i it sums mu * (left_j o right_k) over Delta(c_i) = sum mu c_j (x) c_k,
    or mu * (left_j (x) right_k) when `kron` gives the (rows, cols) of the right factors.
    The loop multiplies and adds ints only.  Over Q, with D_L and D_R the lcms of the
    denominators of the left and right entries and (D_mu, mu') = `c.integral_delta`,
    every term is mu * l * r = mu' * l' * r' / (D_mu * D_L * D_R) for the ints
    l' = D_L * l and r' = D_R * r, so each sum is an int sum over that one denominator,
    made into one `Fraction` (in lowest terms, the value the rational sum has).  Over F_p
    the entries and constants are ints already and each sum is reduced mod p.  Zeros are
    dropped; a term with an empty factor costs nothing.
    """
    if kron is not None and not c.is_cocommutative:
        raise NotCocommutative("tensor products in the convolution category need cocommutativity")
    p = c.field.char
    d_mu, delta = c.integral_delta
    if not p:
        d_l, left = _cleared(left)
        d_r, right = _cleared(right)
        den = d_mu * d_l * d_r
    if kron is None:
        by_row: list[dict[int, list]] = [{} for _ in right]
        for rows, comp in zip(by_row, right):
            for (y, z), v in comp.items():
                rows.setdefault(y, []).append((z, v))
    else:
        nr, nc = kron
    out = []
    for triples in delta:
        acc: dict[tuple[int, int], int] = {}
        get = acc.get
        for j, k, mu in triples:
            if not (left[j] and right[k]):
                continue
            for (x, y), v in left[j].items():
                w = v if mu == 1 else mu * v
                if kron is None:
                    for z, u in by_row[k].get(y, ()):
                        key = (x, z)
                        acc[key] = get(key, 0) + w * u
                else:
                    x0, y0 = x * nr, y * nc
                    for (x2, y2), u in right[k].items():
                        key = (x0 + x2, y0 + y2)
                        acc[key] = get(key, 0) + w * u
        out.append(_normalized(c.field, acc) if p else {key: Fraction(v, den) for key, v in acc.items() if v})
    return out


def conv_compose(g: ConvMorphism, f: ConvMorphism) -> ConvMorphism:
    """(g * f)(c) = sum g(c_(1)) o f(c_(2)) through the sparse Delta of C."""
    if g.coalgebra != f.coalgebra:
        raise ShapeError("convolution of morphisms over different coalgebras")
    if f.tgt_arity != g.src_arity or f.a_dim != g.a_dim:
        raise ShapeError("arity mismatch in convolution composition")
    c = g.coalgebra
    entries = _convolve(c, _entries(g), _entries(f))
    return ConvMorphism(c, tuple(MultiMap(c.field, g.a_dim, f.src_arity, g.tgt_arity, e) for e in entries))


def conv_tensor(f: ConvMorphism, g: ConvMorphism) -> ConvMorphism:
    """(f (x) g)(c) = sum f(c_(1)) (x) g(c_(2)); requires cocommutative C."""
    if f.coalgebra != g.coalgebra:
        raise ShapeError("tensor of morphisms over different coalgebras")
    c, a = f.coalgebra, f.a_dim
    if g.a_dim != a:
        raise ShapeError("tensor of maps over different A")
    p, q = f.src_arity + g.src_arity, f.tgt_arity + g.tgt_arity
    entries = _convolve(c, _entries(f), _entries(g), (a**g.tgt_arity, a**g.src_arity))
    return ConvMorphism(c, tuple(MultiMap(c.field, a, p, q, e) for e in entries))


def pullback(f: ConvMorphism, iota: SparseMatrix, c: Coalgebra) -> ConvMorphism:
    """iota^*(f) = f o iota for a coalgebra morphism iota: C -> Ctilde."""
    require_same_field(f.field, c.field)
    if iota.rows != f.coalgebra.dim or iota.cols != c.dim:
        raise ShapeError("iota shape does not match the two coalgebras")
    return ConvMorphism(c, tuple(f.evaluate(col) for col in iota.transpose().row_dicts()))


def congruent_mod(
    f: ConvMorphism, g: ConvMorphism, n: int, filtration: Sequence[Subspace] | None
) -> bool:
    """True when f - g vanishes on the n-th filtration layer."""
    if filtration is None:
        raise NoFiltration("no filtration supplied for congruence")
    if n < 0:
        raise ShapeError("layer index must be >= 0")
    layer = filtration[min(n, len(filtration) - 1)]
    return (f - g).vanishes_on(layer)


def _invert_on_bottom(f: ConvMorphism, bottom: Subspace) -> ConvMorphism:
    """A morphism g with (f * g)(c) = eps(c) I for every c in the bottom layer.

    Unknowns are the components of g at the pivot indices of the layer's
    echelon basis (zero elsewhere); this parameterizes every possible
    restriction of g to the layer, which is all the convolution sees.
    Entry (x, z) of (f * g)(b_r) is the sum of b_ri mu f_j[x][y] G_k[y][z]
    over Delta(c_i) = sum mu c_j (x) c_k with k the s-th pivot: equation
    (r*d + x)*d + z, unknown (s*d + y)*d + z, right-hand side eps(b_r) delta_xz.
    """
    c = f.coalgebra
    field = c.field
    d = f.a_dim**f.src_arity
    if f.src_arity != f.tgt_arity:
        raise NotInvertible("only square-arity morphisms can be inverted")
    rows = [bottom.rows[piv] for piv in bottom.pivots]
    if not rows:
        raise NotInvertible("empty bottom layer")
    slot = {piv: s for s, piv in enumerate(bottom.pivots)}
    n_unknowns = len(slot) * d * d
    eqs: list[dict] = [{} for _ in range(len(rows) * d * d)]
    for r, brow in enumerate(rows):
        for i, bi in brow.items():
            for j, k, mu in c.delta[i]:
                if k not in slot:
                    continue
                w, s = field.mul(bi, mu), slot[k]
                for (x, y), v in f.components[j].entries.items():
                    wv = field.mul(w, v)
                    for z in range(d):
                        eq = eqs[(r * d + x) * d + z]
                        col = (s * d + y) * d + z
                        eq[col] = field.add(eq.get(col, field.zero), wv)
    eqs = [{col: v for col, v in eq.items() if v} for eq in eqs]
    rhs = [c.eps(brow) if x == z else field.zero for brow in rows for x in range(d) for z in range(d)]
    sols = augmented_echelon(field, eqs, n_unknowns, [rhs]).solutions(n_unknowns)
    if sols is None:
        raise NotInvertible("restriction to the bottom filtration layer is not invertible")
    flat = sols[0]
    comps = [MultiMap.zero(field, f.a_dim, f.src_arity, f.tgt_arity)] * c.dim
    for piv, s in slot.items():
        block = flat[s * d * d : (s + 1) * d * d]
        comps[piv] = comps[piv]._with({divmod(i, d): v for i, v in enumerate(block) if v})
    return ConvMorphism(c, tuple(comps))


def takeuchi_invert(f: ConvMorphism, filtration: Sequence[Subspace]) -> ConvMorphism:
    """Two-sided convolution inverse of f, extended layer by layer.

    Follows the filtration argument: once f * g agrees with the identity
    on a layer, the defect h = id - f * g squares to zero one layer up,
    so g * (id + h) corrects the inverse there.  The result satisfies
    both inverse identities exactly (asserted before returning).
    """
    if not filtration:
        raise NoFiltration("a coalgebra filtration is required for inversion")
    c = f.coalgebra
    if not is_coalgebra_filtration(c, filtration):
        raise NoFiltration("the supplied layers do not form a coalgebra filtration")
    e = identity_conv(c, f.a_dim, f.src_arity)
    g = _invert_on_bottom(f, filtration[0])
    for _layer in range(1, len(filtration)):
        h = e - conv_compose(f, g)
        if h.is_zero():
            break
        g = conv_compose(g, e + h)
    if conv_compose(f, g) != e or conv_compose(g, f) != e:
        raise NotInvertible("layer extension failed to produce a two-sided inverse")
    return g
