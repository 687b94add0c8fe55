"""Comodules, symmetric normalized 2-cocycles, and coalgebra extensions.

An extension is the data of a cocommutative coalgebra C, a right comodule
X, and a symmetric normalized 2-cocycle omega: X -> C (x) C.  The direct
sum Ctilde = C (+) X then carries a cocommutative comultiplication whose
mixed terms come from the coaction (used symmetrically, the left coaction
being the flip of the right one) and whose C (x) C term is omega.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

from .coalgebra import (
    Coalgebra, GroupLikeSet, _is_grouplike, _is_symmetric, _tensor, _then, normalize_triples, triples_columns,
)
from .errors import (
    CocycleViolation,
    EmptyLayer,
    NotAnExtension,
    RetractNotNormalized,
    ShapeError,
    UnsupportedCoaction,
)
from .fields import require_same_field
from .linalg import SparseMatrix, Subspace, Vector, _Record, _field_row, _integral, _lincomb, _sum


class Comodule(_Record):
    """Right C-comodule by structure constants: rho(e_s) = sum c * e_t (x) c_u."""

    __slots__ = ("base", "dim", "coaction", "__dict__")  # the dict caches the axiom verdict
    _fields = __slots__[:3]

    def __init__(self, base: Coalgebra, dim: int, coaction):
        self.base = base
        self.dim = dim
        if dim < 1:
            raise ShapeError("comodules here are nonzero")
        if len(coaction) != dim:
            raise ShapeError("coaction must give triples for every basis vector")
        # indices (t, u) live in X x C
        self.coaction = normalize_triples(base.field, coaction, (dim, base.dim), "coaction")

    def validate(self) -> list[str]:
        """The failed comodule axioms (empty when valid), computed once per comodule and kept; not to be mutated."""
        return self._failures

    @cached_property
    def _failures(self) -> list[str]:
        f, rho, c = self.base.field, self.coaction, self.base
        failures = []
        # coassociativity: (rho (x) C) o rho = (X (x) Delta) o rho, maps X -> X (x) C (x) C
        if _then(f, rho, rho) != _then(f, c.delta, rho, right=True):
            failures.append("coaction coassociativity")
        counit = [((0, 0, x),) if x else () for x in c.counit]
        if _then(f, counit, rho, right=True) != {(s, s, 0, 0): f.one for s in range(self.dim)}:
            failures.append("coaction counit axiom")
        return failures

    def require_valid(self) -> None:
        failures = self.validate()
        if failures:
            raise CocycleViolation(f"invalid comodule: {', '.join(failures)}")


def grouplike_comodule(base: Coalgebra, dim: int, grouplike: Sequence) -> Comodule:
    """The comodule with rho(x) = x (x) g for one group-like vector g."""
    f = base.field
    g = [f.coerce(x) for x in grouplike]
    coaction = [
        [(s, u, g[u]) for u in range(base.dim) if not f.is_zero(g[u])] for s in range(dim)
    ]
    return Comodule(base, dim, coaction)


class Cocycle2(_Record):
    """Symmetric normalized 2-cocycle omega: X -> C (x) C over a comodule."""

    __slots__ = ("comodule", "omega", "__dict__")  # the dict caches the identities' verdict
    _fields = __slots__[:2]

    def __init__(self, comodule: Comodule, omega):
        self.comodule = comodule
        f, dc = comodule.base.field, comodule.base.dim
        if len(omega) != comodule.dim:
            raise ShapeError("omega must give triples for every X basis vector")
        self.omega = normalize_triples(f, omega, (dc, dc), "omega")

    def validate(self) -> list[str]:
        """Failed identities among: symmetry, normalization, the 2-cocycle identity; kept like `Comodule.validate`.

        Each is read off whole tables of omega, the coaction and Delta by `_then` and `_is_symmetric`.
        """
        return self._failures

    @cached_property
    def _failures(self) -> list[str]:
        rho, om, c = self.comodule.coaction, self.omega, self.comodule.base
        f = c.field
        counit = [((0, 0, x),) if x else () for x in c.counit]
        failures = []
        if not _is_symmetric(om):
            failures.append("symmetry")
        if _then(f, counit, om) or _then(f, counit, om, right=True):
            failures.append("normalization")
        # (C (x) omega) o rho_l + (C (x) Delta) o omega = (Delta (x) C) o omega + (omega (x) C) o rho; with
        # rho_l = flip o rho the first term is the last, keyed (s, j, k, u), with u moved to the front
        w = _then(f, om, rho)
        w_l = {(s, u, j, k): v for (s, j, k, u), v in w.items()}
        lhs = _sum(f, chain(w_l.items(), _then(f, c.delta, om, right=True).items()))
        if lhs != _sum(f, chain(w.items(), _then(f, c.delta, om).items())):
            failures.append("2-cocycle identity")
        return failures

    def require_valid(self) -> None:
        failures = self.comodule.validate() + self.validate()
        if failures:
            raise CocycleViolation(f"cocycle data fails: {', '.join(failures)}")


class Extension(_Record):
    """An extension C -> Ctilde with cokernel X, in the basis C first, X second.

    So the inclusion iota is the first dim C unit vectors and its
    normalized retract lambda is its transpose, the projection onto C.
    """

    __slots__ = _fields = ("base", "cocycle", "ctilde")

    def __init__(self, base: Coalgebra, cocycle: Cocycle2, ctilde: Coalgebra):
        self.base, self.cocycle, self.ctilde = base, cocycle, ctilde

    @property
    def comodule(self) -> Comodule:
        return self.cocycle.comodule

    @property
    def iota(self) -> SparseMatrix:
        """dim Ctilde x dim C."""
        f = self.base.field
        return SparseMatrix(f, self.ctilde.dim, self.base.dim, tuple({j: f.one} for j in range(self.base.dim)))

    @property
    def lam(self) -> SparseMatrix:
        """dim C x dim Ctilde."""
        return self.iota.transpose()


def build_extension(cocycle: Cocycle2) -> Extension:
    """Assemble Ctilde = C (+) X from checked parts: the blocks of Ctilde's axioms are the parts' axioms.

    Ctilde is a cocommutative coalgebra exactly when C is one, rho is a
    comodule and omega is a symmetric normalized 2-cocycle.
    """
    cocycle.require_valid()
    com = cocycle.comodule
    c = com.base
    failures = c.validate().failures()
    if failures:
        raise CocycleViolation(f"base coalgebra fails validation: {', '.join(failures)}")
    if not c.is_cocommutative:
        raise CocycleViolation("base coalgebra must be cocommutative")
    f, dc, dx = c.field, c.dim, com.dim
    delta = [list(triples) for triples in c.delta]
    for s in range(dx):
        triples = []
        for t, u, v in com.coaction[s]:
            triples.append((u, dc + t, v))  # left coaction term (flip of rho_r)
            triples.append((dc + t, u, v))  # right coaction term
        for j, k, v in cocycle.omega[s]:
            triples.append((j, k, v))
        delta.append(triples)
    counit = list(c.counit) + [f.zero] * dx
    names = list(c.names) + [f"x{s}" for s in range(dx)]
    return Extension(base=c, cocycle=cocycle, ctilde=Coalgebra(f, names, delta, counit))


def split_extension(
    ctilde: Coalgebra, iota: SparseMatrix, lam: SparseMatrix, base: Optional[Coalgebra] = None
) -> Cocycle2:
    """Recover (rho_r, omega) from an extension with a normalized retract.

    The cokernel X is realized as ker(lam) with the projection along
    iota(C); the result has rho_r o p = (p (x) lam) o Delta and
    omega o p = (lam (x) lam) o Delta - Delta_C o lam.  When `base` is
    given it is checked against the pullback of the structure along iota
    and used as the comodule base, otherwise the pullback is built fresh.
    Every map is applied through its sparse columns.
    """
    f = ctilde.field
    require_same_field(f, iota.field)
    require_same_field(f, lam.field)
    d = ctilde.dim
    dc = iota.cols
    if iota.rows != d or lam.rows != dc or lam.cols != d:
        raise ShapeError("iota must be dimCtilde x dimC and lambda dimC x dimCtilde")
    iota_cols, lam_cols = iota.columns, lam.columns

    def apply(cols, v):
        return _lincomb(f, ((x, cols[i]) for i, x in v.items()))

    iota_space = Subspace(f, d, _integral(f, iota_cols))
    if iota_space.dim != dc:
        raise NotAnExtension("iota is not injective")
    if any(apply(lam_cols, col) != {j: f.one} for j, col in enumerate(iota_cols)):
        raise RetractNotNormalized("lambda o iota is not the identity of C")
    pulled = _restrict_coalgebra_along(ctilde, iota, [ctilde.eps(col) for col in iota_cols])
    pulled.require_valid()
    if base is not None:
        if base.delta != pulled.delta or base.counit != pulled.counit:
            raise NotAnExtension("iota is not a coalgebra morphism from the given base")
    else:
        base = pulled
    if any(base.eps(col) != e for col, e in zip(lam_cols, ctilde.counit)):
        raise RetractNotNormalized("eps_C o lambda differs from eps_Ctilde")
    # extension condition: Delta(Ctilde) inside Ctilde (x) iota(C) + iota(C) (x) Ctilde
    delta = triples_columns(ctilde.delta, d)
    units = [{i: f.one} for i in range(d)]
    sides = [t for e in units for u in iota_space.rows.values() for t in (_tensor(f, e, u, d), _tensor(f, u, e, d))]
    target = Subspace(f, d * d, _integral(f, sides))
    if any(target.reduce(col) for col in delta):
        raise NotAnExtension("Delta(Ctilde) is not supported on Ctilde(x)C + C(x)Ctilde")
    # X := ker(lambda), canonical: z_s has a one at the s-th free column of lambda and
    # zeros at the others, so the coordinates of v in ker(lambda) are its free entries
    lam_space = Subspace(f, d, _integral(f, lam.transpose().columns))
    kb = [_field_row(f, z, max(z)) for z in lam_space.kernel()]
    if not kb:
        raise NotAnExtension("the retract has trivial kernel; nothing to split off")
    slot = {i: s for s, i in enumerate(i for i in range(d) if i not in lam_space.pivots)}
    proj = []  # p(e_j), the free entries of e_j - iota lambda e_j
    for j, e in enumerate(units):
        w = _lincomb(f, ((1, e), (-1, apply(iota_cols, lam_cols[j]))))
        proj.append({slot[i]: x for i, x in w.items() if i in slot})

    def apply_kron(left, right, v):
        """(left (x) right) v for v in Ctilde (x) Ctilde, keyed by the pair of output indices."""
        return _sum(f, (
            ((t, u), w * x * y) for r, w in v.items() for t, x in left[r // d].items() for u, y in right[r % d].items()
        ))

    coaction, omega = [], []
    for z in kb:
        dz = apply(delta, z)
        coaction.append([(t, u, v) for (t, u), v in apply_kron(proj, lam_cols, dz).items()])
        # Delta_C(lambda z) = 0 on ker(lambda)
        omega.append([(j, k, v) for (j, k), v in apply_kron(lam_cols, lam_cols, dz).items()])
    out = Cocycle2(Comodule(base, len(kb), coaction), omega)
    out.require_valid()
    return out


def _restrict_coalgebra_along(ctilde: Coalgebra, iota: SparseMatrix, counit: Sequence) -> Coalgebra:
    """Coalgebra structure on C pulled back through an injective coalgebra map.

    Delta_C(e_i) is the solution y of (iota (x) iota) y = Delta(iota e_i),
    for every i from one elimination of [iota (x) iota | Delta iota].
    """
    f, d, dc = ctilde.field, ctilde.dim, iota.cols
    cols = iota.columns
    delta = triples_columns(ctilde.delta, d)
    rows: dict[int, dict] = {}
    for j, u in enumerate(cols):
        for k, v in enumerate(cols):
            for r, y in _tensor(f, u, v, d).items():
                rows.setdefault(r, {})[j * dc + k] = y
    for i, col in enumerate(cols):
        for r, y in _lincomb(f, ((x, delta[a]) for a, x in col.items())).items():
            rows.setdefault(r, {})[dc * dc + i] = y
    sols = Subspace(f, dc * dc + dc, _integral(f, rows.values())).solutions(dc * dc)
    if sols is None:
        raise NotAnExtension("iota is not a coalgebra morphism")
    delta_c = [[(*divmod(jk, dc), y) for jk, y in sol.items()] for sol in sols]
    return Coalgebra(f, [f"c{i}" for i in range(dc)], delta_c, counit)


def graded_extension(d_coalg: Coalgebra, n: int) -> Extension:
    """The extension D_{<n} -> D_{<=n} of a valid graded cocommutative coalgebra D.

    X is the degree-n layer, the coaction keeps the (n, 0)-component of
    Delta and omega collects the middle components of degrees (i, n-i)
    for 0 < i < n.  Nothing is built or checked per layer: D_{<=n} is
    closed under Delta, so Delta(x) for x of degree n is rho(x), omega(x)
    and its (0, n) part, which is flip o rho(x) as D is cocommutative, and
    eps(x) = 0 by the grading.  So Ctilde = D_{<n} (+) X is D_{<=n}, and the
    layer's comodule axioms and cocycle identities are components of D's
    coassociativity, counit axioms and cocommutativity, which D's report
    (computed once per coalgebra and kept) proves: both verdicts are kept as proved.
    """
    g = d_coalg.grading
    if g is None:
        raise ShapeError("graded_extension needs a graded coalgebra")
    if not d_coalg.is_cocommutative:
        raise CocycleViolation("graded_extension needs a cocommutative coalgebra")
    d_coalg.require_valid()
    if n < 1:
        raise ShapeError("layer index must be >= 1")
    x_idx = list(d_coalg.degree_indices(n))
    if not x_idx:
        raise EmptyLayer(f"degree {n} layer of the coalgebra is zero")
    c_idx = [i for i, deg in enumerate(g) if deg < n]
    base = d_coalg.sub_on_indices(c_idx)
    truncated = d_coalg.sub_on_indices(c_idx + x_idx)
    posc = {orig: new for new, orig in enumerate(c_idx)}
    posx = {orig: new for new, orig in enumerate(x_idx)}
    coaction = [[(posx[j], posc[k], c) for j, k, c in d_coalg.delta[i] if g[j] == n] for i in x_idx]
    omega = [[(posc[j], posc[k], c) for j, k, c in d_coalg.delta[i] if 0 < g[j] < n] for i in x_idx]
    cocycle = Cocycle2(Comodule(base, len(x_idx), coaction), omega)
    cocycle.comodule.__dict__["_failures"], cocycle.__dict__["_failures"] = [], []  # proved from D's report
    return Extension(base=base, cocycle=cocycle, ctilde=truncated)


def decompose_completely_reducible(
    com: Comodule, grouplikes: GroupLikeSet
) -> Optional[list[tuple[Vector, Vector]]]:
    """Split X into lines x_i with rho(x_i) = x_i (x) g_i, if possible.

    Writes rho(x) = sum_g T_g(x) (x) g over the given group-likes.  When
    sum_g T_g = I and sum_g rank T_g = dim X, X is the direct sum of the
    images of the T_g, and uniqueness of that decomposition makes the T_g
    orthogonal idempotents; the lines are bases of their images.  Returns
    None otherwise.
    """
    base = com.base
    f, dx, dc = base.field, com.dim, base.dim
    gs = list(grouplikes.elements)
    if not gs:
        raise UnsupportedCoaction("no group-likes supplied")
    vecs = [{u: y for u, y in enumerate(map(f.coerce, g)) if y} for g in gs]
    delta = triples_columns(base.delta, dc)
    if not all(_is_grouplike(base, delta, v) for v in vecs):
        raise ValueError("supplied vector is not group-like")
    # one elimination of [G | B]: G has the group-likes as columns, B the C-parts of rho(x_s) at each x_t
    k = len(gs)
    keys = sorted({(s, t) for s in range(dx) for t, _u, _c in com.coaction[s]})
    column = {st: n for n, st in enumerate(keys, start=k)}
    rows = [{gi: v[u] for gi, v in enumerate(vecs) if u in v} for u in range(dc)]
    for s in range(dx):
        for t, u, c in com.coaction[s]:
            rows[u][column[(s, t)]] = c
    ech = Subspace(f, k + len(keys), _integral(f, rows))
    if ech.restrict(k).dim != k:
        raise ValueError("group-like vectors must be distinct (they are then independent)")
    sols = ech.solutions(k)
    if sols is None:
        raise UnsupportedCoaction("coaction is not supported on the span of the group-likes")
    ops = [[{} for _ in range(dx)] for _ in gs]  # ops[g][s] = T_g(x_s), {t: coefficient}
    for (s, t), sol in zip(keys, sols):
        for gi, y in sol.items():
            ops[gi][s][t] = y
    if any(_lincomb(f, ((1, op[s]) for op in ops)) != {s: f.one} for s in range(dx)):
        return None
    images = [Subspace(f, dx, _integral(f, op)) for op in ops]
    if sum(img.dim for img in images) != dx:
        return None
    return [(row, g) for img, g in zip(images, gs) for row in img.dense_rows()]
