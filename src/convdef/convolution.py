"""The convolution category over a coalgebra C.

Objects are tensor powers of a fixed space A (strict monoidal Vect, so
unit and associativity constraints are identities).  A morphism is a
linear map from C into Hom(A^(x)p, A^(x)q), stored as one matrix per
basis element of C.  Composition is convolution through Delta, the
tensor product combines components through Delta as well, and inverses
are computed layer by layer along a coalgebra filtration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coalgebra import Coalgebra, is_coalgebra_filtration
from .errors import (
    NoFiltration,
    NotCocommutative,
    NotInvertible,
    ShapeError,
)
from .fields import require_same_field
from .linalg import Matrix, Subspace, augmented_echelon


@dataclass(frozen=True)
class MultiMap:
    """A linear map A^(x)p -> A^(x)q as an a_dim^q x a_dim^p matrix."""

    a_dim: int
    src_arity: int
    tgt_arity: int
    mat: Matrix

    def __post_init__(self):
        if self.mat.rows != self.a_dim**self.tgt_arity or self.mat.cols != self.a_dim**self.src_arity:
            raise ShapeError(
                f"matrix {self.mat.rows}x{self.mat.cols} does not match arities "
                f"{self.src_arity}->{self.tgt_arity} at dim {self.a_dim}"
            )

    @classmethod
    def from_rows(cls, field, a_dim: int, src_arity: int, tgt_arity: int, rows) -> MultiMap:
        return cls(a_dim, src_arity, tgt_arity, Matrix.from_rows(field, rows))

    @classmethod
    def zero(cls, field, a_dim: int, src_arity: int, tgt_arity: int) -> MultiMap:
        return cls(a_dim, src_arity, tgt_arity, Matrix.zeros(field, a_dim**tgt_arity, a_dim**src_arity))

    @classmethod
    def identity(cls, field, a_dim: int, arity: int = 1) -> MultiMap:
        return cls(a_dim, arity, arity, Matrix.identity(field, a_dim**arity))

    @property
    def field(self):
        return self.mat.field

    def compose(self, inner: MultiMap) -> MultiMap:
        if inner.tgt_arity != self.src_arity or inner.a_dim != self.a_dim:
            raise ShapeError("arity mismatch in composition")
        return MultiMap(self.a_dim, inner.src_arity, self.tgt_arity, self.mat @ inner.mat)

    def tensor(self, other: MultiMap) -> MultiMap:
        if other.a_dim != self.a_dim:
            raise ShapeError("tensor of maps over different A")
        return MultiMap(
            self.a_dim,
            self.src_arity + other.src_arity,
            self.tgt_arity + other.tgt_arity,
            self.mat.kron(other.mat),
        )

    def __add__(self, other: MultiMap) -> MultiMap:
        self._like(other)
        return MultiMap(self.a_dim, self.src_arity, self.tgt_arity, self.mat + other.mat)

    def __sub__(self, other: MultiMap) -> MultiMap:
        self._like(other)
        return MultiMap(self.a_dim, self.src_arity, self.tgt_arity, self.mat - other.mat)

    def __neg__(self) -> MultiMap:
        return MultiMap(self.a_dim, self.src_arity, self.tgt_arity, -self.mat)

    def scale(self, c) -> MultiMap:
        return MultiMap(self.a_dim, self.src_arity, self.tgt_arity, self.mat.scale(c))

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def entries(self) -> tuple[tuple[int, tuple[int, int], object], ...]:
        """(r, (p, q), v) for each nonzero v = mat[r][p*a + q] of a map from A (x) A."""
        f, a = self.field, self.a_dim
        return tuple(
            (r, divmod(pq, a), v) for r, row in enumerate(self.mat.data) for pq, v in enumerate(row) if not f.is_zero(v)
        )

    def _like(self, other: MultiMap) -> None:
        if (self.a_dim, self.src_arity, self.tgt_arity) != (
            other.a_dim,
            other.src_arity,
            other.tgt_arity,
        ):
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

    def evaluate(self, c_vec: Sequence) -> MultiMap:
        f = self.field
        acc = self.components[0].scale(f.coerce(c_vec[0]))
        for x, comp in zip(c_vec[1:], self.components[1:]):
            acc = acc + comp.scale(f.coerce(x))
        return acc

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
        return all(self.evaluate(row).is_zero() for row in space.basis.data)

    def _same_base(self, other: ConvMorphism) -> None:
        if self.coalgebra != other.coalgebra:
            raise ShapeError("morphisms over different coalgebras")


def epsilon_embed(m0: MultiMap, c: Coalgebra) -> ConvMorphism:
    """The embedding of a plain map along the counit: c |-> eps(c) m0."""
    return ConvMorphism(c, tuple(m0.scale(e) for e in c.counit))


def identity_conv(c: Coalgebra, a_dim: int, arity: int = 1) -> ConvMorphism:
    return epsilon_embed(MultiMap.identity(c.field, a_dim, arity), c)


def conv_compose(g: ConvMorphism, f: ConvMorphism) -> ConvMorphism:
    """(g * f)(c) = sum g(c_(1)) o f(c_(2)) through the sparse Delta of C.

    A term that pairs a zero component is skipped.
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
                acc = acc + g.components[j].compose(f.components[k]).scale(coeff)
        out.append(acc)
    return ConvMorphism(c, tuple(out))


def conv_tensor(f: ConvMorphism, g: ConvMorphism) -> ConvMorphism:
    """(f (x) g)(c) = sum f(c_(1)) (x) g(c_(2)); requires cocommutative C.

    A term that pairs a zero component is skipped.
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
                acc = acc + f.components[j].tensor(g.components[k]).scale(coeff)
        out.append(acc)
    return ConvMorphism(c, tuple(out))


def pullback(f: ConvMorphism, iota: Matrix, c: Coalgebra) -> ConvMorphism:
    """iota^*(f) = f o iota for a coalgebra morphism iota: C -> Ctilde."""
    require_same_field(f.field, c.field)
    if iota.rows != f.coalgebra.dim or iota.cols != c.dim:
        raise ShapeError("iota shape does not match the two coalgebras")
    return ConvMorphism(c, tuple(f.evaluate(iota.col(j)) for j in range(c.dim)))


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
    rows = bottom.basis.data
    if not rows:
        raise NotInvertible("empty bottom layer")
    slot = {piv: s for s, piv in enumerate(bottom.pivots)}
    n_unknowns = len(slot) * d * d
    eqs: list[dict] = [{} for _ in range(len(rows) * d * d)]
    for r, brow in enumerate(rows):
        for i, bi in enumerate(brow):
            if not bi:
                continue
            for j, k, mu in c.delta[i]:
                if k not in slot:
                    continue
                w, s = field.mul(bi, mu), slot[k]
                for x, frow in enumerate(f.components[j].mat.data):
                    for y, v in enumerate(frow):
                        if not v:
                            continue
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
        block = Matrix.from_flat(field, d, d, flat[s * d * d : (s + 1) * d * d])
        comps[piv] = MultiMap(f.a_dim, f.src_arity, f.tgt_arity, block)
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
