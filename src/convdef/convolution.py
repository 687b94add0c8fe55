"""The convolution category over a coalgebra C.

Objects are tensor powers of a fixed space A (strict monoidal Vect, so
unit and associativity constraints are identities).  A morphism is a
linear map from C into Hom(A^(x)p, A^(x)q): one `MultiMap` per basis
element of C, each held as its nonzero entries {(row, col): v} and never
as a dense matrix.  With Delta(c_i) = sum mu c_j (x) c_k, composition
(g * f)(c_i) = sum mu g(c_j) o f(c_k) and, for cocommutative C, the tensor
product (f (x) g)(c_i) = sum mu f(c_j) (x) g(c_k) are one sparse kernel,
`_convolve`, on those entries; sums and multiples of maps are `_lincomb`.

The kernel multiplies and adds ints only, and integral forms are carried
between products.  A morphism's canonical integral form (D, ints) holds
its entries as ints over one common denominator D, the lcm of all their
denominators, so gcd(D, every int) = 1 and two forms are equal exactly
when the values are; over F_p it is (1, the entries).  `_convolve` takes
two forms and returns the product's, and a product built by
`conv_compose` or `conv_tensor` keeps it, so no operand is cleared twice.
The unit check and the inverse check of `takeuchi_invert` compare forms
(the associator is summed from the structure constants in
`convdef.cohomology`); `Fraction`s are built once per returned morphism.

Inverses come from one exact solve.  Conv(C, End(A^(x)p)) is a
finite-dimensional unital algebra, so a right inverse g of f is its unique
two-sided inverse, and (f * g)(c_i) = eps(c_i) I for every basis element
c_i of C is one linear system.  The coefficient of the unknown g_k[y][z]
in the equation for entry (x, z) at c_i does not depend on z, so the
system has dim C * d unknowns (k, y) and d right-hand sides, not
dim C * d^2 unknowns, for maps on a d-dimensional space.

A unipotent e + g, g of positive degree on a graded C = D_{<=N}, needs no
solve (`_unipotent_inverse`): (-g)^{*k} lives in degrees >= k, so it vanishes
by k = N + 1 (Takeuchi's locally nilpotent argument), and the first empty
power is the certificate, as (e + g) * sum_{k<K} (-g)^{*k} = e - (-g)^{*K} =
sum_{k<K} (-g)^{*k} * (e + g).

No filtration is needed: an unsolvable system is the refusal, whose message is
Takeuchi's criterion (f is invertible exactly when it is on the coradical).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Sequence

from .coalgebra import Coalgebra
from .errors import ConvDefError, NoFiltration, NotCocommutative, NotInvertible, ShapeError
from .fields import Field, require_same_field
from .linalg import SparseMatrix, Subspace, _Record, _cleared, _fractions, _lincomb, _normalized

Form = tuple[int, list[dict]]  # (D, one dict of int entries per basis element of C): the values are ints / D


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
        """The dense matrix, row by row; the library never builds it (reports format `entries`), only tests do."""
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


class ConvMorphism(_Record):
    """A morphism of the convolution category: one MultiMap per basis element of C."""

    __slots__ = ("coalgebra", "components", "__dict__")  # the dict caches integral_form and the associativity verdict
    _fields = __slots__[:2]

    def __init__(self, coalgebra: Coalgebra, components: tuple[MultiMap, ...]):
        self.coalgebra, self.components = coalgebra, components
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

    @cached_property
    def integral_form(self) -> Form:
        """The canonical integral form (`_cleared` of the components); derived, so not part of equality or hashing."""
        return _cleared([comp.entries for comp in self.components])


def epsilon_embed(m0: MultiMap, c: Coalgebra) -> ConvMorphism:
    """The embedding of a plain map along the counit: c |-> eps(c) m0."""
    return ConvMorphism(c, tuple(m0.scale(e) for e in c.counit))


def identity_conv(c: Coalgebra, a_dim: int, arity: int = 1) -> ConvMorphism:
    return epsilon_embed(MultiMap.identity(c.field, a_dim, arity), c)


def _canonical(den: int, ints: list[dict]) -> Form:
    """(den, ints) divided by gcd(den, every int): the canonical form of the values ints / den."""
    g = 1 if den == 1 else math.gcd(den, *(v for e in ints for v in e.values()))
    return (den, ints) if g == 1 else (den // g, [{key: v // g for key, v in e.items()} for e in ints])


def _form_sum(field: Field, *terms: tuple[int, Form]) -> Form:
    """The canonical form of sum k * value over the (int k, form) terms, on ints over the lcm of their D."""
    den = math.lcm(*(d for _, (d, _) in terms))
    n = len(terms[0][1][1])
    return _canonical(den, [_lincomb(field, ((k * (den // d), ints[i]) for k, (d, ints) in terms)) for i in range(n)])


def _identity_form(c: Coalgebra, n: int) -> Form:
    """The canonical form of e = eps(-) I_n, read off the counit without building e."""
    den, (eps,) = _cleared(({i: x for i, x in enumerate(c.counit) if x},))
    return den, [{(r, r): eps[i] for r in range(n)} if i in eps else {} for i in range(c.dim)]


def _from_form(c: Coalgebra, form: Form, a_dim: int, src_arity: int, tgt_arity: int) -> ConvMorphism:
    """The morphism with this canonical form, its entries built once and the form kept as its `integral_form`."""
    f, (den, ints) = c.field, form
    values = ints if f.char else [_fractions(e, den) for e in ints]
    mor = ConvMorphism(c, tuple(MultiMap(f, a_dim, src_arity, tgt_arity, e) for e in values))
    mor.__dict__["integral_form"] = form
    return mor


def _convolve(c: Coalgebra, left: Form, right: Form, kron: Optional[tuple[int, int]] = None) -> Form:
    """The convolution kernel on canonical integral forms, one int dict {(row, col): v} per basis element of C.

    For each c_i it sums mu * (left_j o right_k) over Delta(c_i) = sum mu c_j (x) c_k,
    or mu * (left_j (x) right_k) when `kron` gives the (rows, cols) of the right factors.
    The loop multiplies and adds ints only.  With (D_L, l'), (D_R, r') the two forms and
    (D_mu, mu') = `c.integral_delta`, every term is mu * l * r = mu' * l' * r' / D for
    D = D_mu * D_L * D_R, so the product is the int sums n_i over D (over F_p, D = 1 and
    each sum is reduced mod p).  Dividing D and every n_i by g = gcd(D, n_1, ..., n_k)
    makes it canonical: the lcm of the reduced denominators D / gcd(n_i, D) is
    D / gcd(D, n_1, ..., n_k), as at each prime q its exponent is
    max_i (v_q(D) - min(v_q(n_i), v_q(D))) = v_q(D) - min(v_q(D), min_i v_q(n_i)).
    So the result is `_cleared` of the entries the rational sums have.  Zeros are
    dropped; a term with an empty factor costs nothing.
    """
    if kron is not None and not c.is_cocommutative:
        raise NotCocommutative("tensor products in the convolution category need cocommutativity")
    (d_mu, delta), (d_l, left), (d_r, right) = c.integral_delta, left, right
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
        out.append(_normalized(c.field, acc))
    return _canonical(d_mu * d_l * d_r, out)


def conv_compose(g: ConvMorphism, f: ConvMorphism) -> ConvMorphism:
    """(g * f)(c) = sum g(c_(1)) o f(c_(2)) through the sparse Delta of C."""
    if g.coalgebra != f.coalgebra:
        raise ShapeError("convolution of morphisms over different coalgebras")
    if f.tgt_arity != g.src_arity or f.a_dim != g.a_dim:
        raise ShapeError("arity mismatch in convolution composition")
    c = g.coalgebra
    return _from_form(c, _convolve(c, g.integral_form, f.integral_form), g.a_dim, f.src_arity, g.tgt_arity)


def conv_tensor(f: ConvMorphism, g: ConvMorphism) -> ConvMorphism:
    """(f (x) g)(c) = sum f(c_(1)) (x) g(c_(2)); requires cocommutative C."""
    if f.coalgebra != g.coalgebra:
        raise ShapeError("tensor of morphisms over different coalgebras")
    c, a = f.coalgebra, f.a_dim
    if g.a_dim != a:
        raise ShapeError("tensor of maps over different A")
    form = _convolve(c, f.integral_form, g.integral_form, (a**g.tgt_arity, a**g.src_arity))
    return _from_form(c, form, a, f.src_arity + g.src_arity, f.tgt_arity + g.tgt_arity)


def pullback(f: ConvMorphism, iota: SparseMatrix, c: Coalgebra) -> ConvMorphism:
    """iota^*(f) = f o iota for a coalgebra morphism iota: C -> Ctilde."""
    require_same_field(f.field, c.field)
    if iota.rows != f.coalgebra.dim or iota.cols != c.dim:
        raise ShapeError("iota shape does not match the two coalgebras")
    return ConvMorphism(c, tuple(f.evaluate(col) for col in iota.columns))


def congruent_mod(
    f: ConvMorphism, g: ConvMorphism, n: int, filtration: Sequence[Subspace] | None
) -> bool:
    """True when f - g vanishes on the n-th filtration layer; n past the top layer means the top layer."""
    if not filtration:  # None, or no layers to read
        raise NoFiltration("no filtration supplied for congruence")
    if n < 0:
        raise ShapeError("layer index must be >= 0")
    layer = filtration[min(n, len(filtration) - 1)]
    return (f - g).vanishes_on(layer)


def _right_inverse(f: ConvMorphism) -> ConvMorphism:
    """The g with (f * g)(c_i) = eps(c_i) I at every basis element c_i of C, from one exact solve.

    Row (i, x) holds the coefficients sum mu f_j[x][y] of the unknowns (k, y) over
    Delta(c_i) = sum mu c_j (x) c_k, the same for every column z of g, and, at column
    n + z, column z's right-hand side eps(c_i) delta_xz.  Every equation is taken times
    D_mu D_f D_eps, the denominators of Delta's constants, f's entries and the counit,
    so it is an int sum, and `Subspace` eliminates those ints as they are; over Q a
    Fraction is built only for each entry of the solution.
    """
    c, field, a, p = f.coalgebra, f.field, f.a_dim, f.src_arity
    if p != f.tgt_arity:
        raise NotInvertible("only square-arity morphisms can be inverted")
    d, n = a**p, c.dim * a**p
    (d_mu, delta), (d_f, comps), (d_eps, eps) = c.integral_delta, f.integral_form, _identity_form(c, d)
    eqs: list[dict] = [{} for _ in range(n)]
    for i, triples in enumerate(delta):
        for j, k, mu in triples:
            w = mu * d_eps
            for (x, y), v in comps[j].items():
                eq, col = eqs[i * d + x], k * d + y
                eq[col] = eq.get(col, 0) + w * v
        for (x, _x), v in eps[i].items():
            eqs[i * d + x][n + x] = d_mu * d_f * v
    sols = Subspace(field, n + d, [_normalized(field, eq) for eq in eqs]).solutions(n)
    if sols is None:
        raise NotInvertible("restriction to the bottom filtration layer is not invertible")
    out: list[dict] = [{} for _ in range(c.dim)]
    for z, sol in enumerate(sols):
        for col, v in sol.items():
            out[col // d][(col % d, z)] = v
    return ConvMorphism(c, tuple(MultiMap(field, a, p, p, e) for e in out))


def takeuchi_invert(f: ConvMorphism) -> ConvMorphism:
    """The two-sided convolution inverse of f: one exact solve of f * g = e, then f * g = e = g * f checked exactly.

    A right inverse is the unique two-sided one, and a system with no solution
    refuses f (module docstring).  The checks run on canonical integral forms,
    and g keeps its form as its `integral_form`.
    """
    c = f.coalgebra
    g = _right_inverse(f)
    e, ff, gg = _identity_form(c, f.a_dim**f.src_arity), f.integral_form, g.integral_form
    if _convolve(c, ff, gg) != e or _convolve(c, gg, ff) != e:
        raise NotInvertible("the solved inverse failed the exact two-sided check")
    return g


def _unipotent_inverse(c: Coalgebra, g: Form, e: Form) -> Form:
    """The form of (e + g)^{-1} = sum_k (-g)^{*k}, certified by its first empty power (module docstring)."""
    neg = _form_sum(c.field, (-1, g))
    terms, power = [(1, e)], neg
    while any(power[1]):
        if len(terms) > c.max_degree():
            raise ConvDefError("e + g is not unipotent: no power of -g vanishes")
        terms.append((1, power))
        power = _convolve(c, power, neg)
    return _form_sum(c.field, *terms)
