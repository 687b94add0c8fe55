"""Comodules, symmetric normalized 2-cocycles, and coalgebra extensions.

An extension is the data of a cocommutative coalgebra C, a right comodule
X, and a symmetric normalized 2-cocycle omega: X -> C (x) C.  The direct
sum Ctilde = C (+) X then carries a cocommutative comultiplication whose
mixed terms come from the coaction (used symmetrically, the left coaction
being the flip of the right one) and whose C (x) C term is omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .coalgebra import Coalgebra, GroupLikeSet, normalize_triples
from .errors import (
    CocycleViolation,
    EmptyLayer,
    NotAnExtension,
    RetractNotNormalized,
    ShapeError,
    UnsupportedCoaction,
)
from .fields import require_same_field
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    Vector,
    image,
    kernel_basis,
    solve_many,
    unit_vec,
)


class Comodule:
    """Right C-comodule by structure constants: rho(e_s) = sum c * e_t (x) c_u."""

    __slots__ = ("base", "dim", "coaction")

    def __init__(self, base: Coalgebra, dim: int, coaction):
        self.base = base
        self.dim = dim
        if dim < 1:
            raise ShapeError("comodules here are nonzero")
        if len(coaction) != dim:
            raise ShapeError("coaction must give triples for every basis vector")
        # indices (t, u) live in X x C
        self.coaction = normalize_triples(base.field, coaction, (dim, base.dim), "coaction")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Comodule)
            and self.base == other.base
            and self.dim == other.dim
            and self.coaction == other.coaction
        )

    def __hash__(self) -> int:
        return hash((self.base, self.dim, self.coaction))

    def __repr__(self) -> str:
        return f"Comodule(dim {self.dim} over {self.base!r})"

    def validate(self) -> list[str]:
        """Return the list of failed comodule axioms (empty when valid)."""
        f, dx, dc = self.base.field, self.dim, self.base.dim
        failures = []
        # coassociativity: (rho (x) C) o rho = (X (x) Delta) o rho, maps X -> X (x) C (x) C
        for s in range(dx):
            lhs: dict[tuple[int, int, int], object] = {}
            rhs: dict[tuple[int, int, int], object] = {}
            for t, u, c in self.coaction[s]:
                for t2, u2, c2 in self.coaction[t]:
                    _acc(f, lhs, (t2, u2, u), f.mul(c, c2))
                for j, k, c2 in self.base.delta[u]:
                    _acc(f, rhs, (t, j, k), f.mul(c, c2))
            if _clean(f, lhs) != _clean(f, rhs):
                failures.append("coaction coassociativity")
                break
        for s in range(dx):
            out = [f.zero] * dx
            for t, u, c in self.coaction[s]:
                out[t] = f.add(out[t], f.mul(c, self.base.counit[u]))
            if tuple(out) != unit_vec(f, dx, s):
                failures.append("coaction counit axiom")
                break
        return failures

    def require_valid(self) -> None:
        failures = self.validate()
        if failures:
            raise CocycleViolation(f"invalid comodule: {', '.join(failures)}")


def _acc(field, store, key, val):
    store[key] = field.add(store[key], val) if key in store else val


def _clean(field, store):
    return {k: v for k, v in store.items() if not field.is_zero(v)}


def _sum(field, terms) -> dict:
    """The nonzero sums of the (key, value) terms, by key."""
    store: dict = {}
    for key, val in terms:
        _acc(field, store, key, val)
    return _clean(field, store)


def grouplike_comodule(base: Coalgebra, dim: int, grouplike: Sequence) -> Comodule:
    """The comodule with rho(x) = x (x) g for one group-like vector g."""
    f = base.field
    g = [f.coerce(x) for x in grouplike]
    coaction = [
        [(s, u, g[u]) for u in range(base.dim) if not f.is_zero(g[u])] for s in range(dim)
    ]
    return Comodule(base, dim, coaction)


class Cocycle2:
    """Symmetric normalized 2-cocycle omega: X -> C (x) C over a comodule."""

    __slots__ = ("comodule", "omega")

    def __init__(self, comodule: Comodule, omega):
        self.comodule = comodule
        f, dc = comodule.base.field, comodule.base.dim
        if len(omega) != comodule.dim:
            raise ShapeError("omega must give triples for every X basis vector")
        self.omega = normalize_triples(f, omega, (dc, dc), "omega")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cocycle2)
            and self.comodule == other.comodule
            and self.omega == other.omega
        )

    def __hash__(self) -> int:
        return hash((self.comodule, self.omega))

    def validate(self) -> list[str]:
        """Failed identities among: symmetry, normalization, the 2-cocycle identity.

        Each is summed over the triples of omega, the coaction and Delta, one X basis vector at a time.
        """
        com, c = self.comodule, self.comodule.base
        f, eps = c.field, c.counit
        failures = []
        # symmetry: omega = flip o omega
        if any({(j, k): v for j, k, v in om} != {(k, j): v for j, k, v in om} for om in self.omega):
            failures.append("symmetry")

        def counit_terms(om):
            """(eps (x) C) o omega and (C (x) eps) o omega at one x, keyed by side."""
            for j, k, v in om:
                yield (0, k), f.mul(v, eps[j])
                yield (1, j), f.mul(v, eps[k])

        if any(_sum(f, counit_terms(om)) for om in self.omega):
            failures.append("normalization")

        def identity_terms(s):
            """(C (x) omega) o rho_l - (Delta (x) C) o omega + (C (x) Delta) o omega - (omega (x) C) o rho at x_s."""
            for t, u, cr in com.coaction[s]:
                for j, k, v in self.omega[t]:
                    yield (u, j, k), f.mul(cr, v)
                    yield (j, k, u), f.neg(f.mul(cr, v))
            for j, k, v in self.omega[s]:
                yield from (((j1, j2, k), f.neg(f.mul(v, mu))) for j1, j2, mu in c.delta[j])
                yield from (((j, k1, k2), f.mul(v, mu)) for k1, k2, mu in c.delta[k])

        if any(_sum(f, identity_terms(s)) for s in range(com.dim)):
            failures.append("2-cocycle identity")
        return failures

    def require_valid(self) -> None:
        failures = self.comodule.validate() + self.validate()
        if failures:
            raise CocycleViolation(f"cocycle data fails: {', '.join(failures)}")


def zero_cocycle(comodule: Comodule) -> Cocycle2:
    return Cocycle2(comodule, [[] for _ in range(comodule.dim)])


@dataclass(frozen=True)
class Extension:
    """An extension C -> Ctilde with cokernel X, in the basis C first, X second."""

    base: Coalgebra
    cocycle: Cocycle2
    ctilde: Coalgebra
    iota: Matrix  # dim Ctilde x dim C
    lam: Matrix   # dim C x dim Ctilde (normalized retract)

    @property
    def comodule(self) -> Comodule:
        return self.cocycle.comodule

    def extension_filtration(self) -> list[Subspace]:
        """The two-step coalgebra filtration iota(C) inside Ctilde."""
        f = self.base.field
        bottom = image(self.iota)
        return [bottom, Subspace.full(f, self.ctilde.dim)]


def build_extension(cocycle: Cocycle2) -> Extension:
    """Assemble Ctilde = C (+) X from validated (comodule, omega) data."""
    cocycle.require_valid()
    com = cocycle.comodule
    c = com.base
    if not c.is_cocommutative:
        raise CocycleViolation("base coalgebra must be cocommutative")
    f, dc, dx = c.field, c.dim, com.dim
    d = dc + dx
    delta = []
    for i in range(dc):
        delta.append([(j, k, v) for j, k, v in c.delta[i]])
    for s in range(dx):
        triples = []
        for t, u, v in com.coaction[s]:
            triples.append((u, dc + t, v))  # left coaction term (flip of rho_r)
            triples.append((dc + t, u, v))  # right coaction term
        for j, k, v in cocycle.omega[s]:
            triples.append((j, k, v))
        delta.append(triples)
    counit = list(c.counit) + [f.zero] * dx
    x_names = [f"x{s}" for s in range(dx)]
    names = list(c.names) + x_names
    ctilde = Coalgebra(f, names, delta, counit)
    report = ctilde.validate()
    if not report.ok or not report.cocommutative:
        raise CocycleViolation(
            f"built coalgebra fails validation: {', '.join(report.failures()) or 'cocommutativity'}"
        )
    z_c = Matrix.zeros(f, dc, dx)
    z_x = Matrix.zeros(f, dx, dc)
    iota = Matrix.identity(f, dc).vstack(z_x)
    lam = Matrix.identity(f, dc).hstack(z_c)
    return Extension(base=c, cocycle=cocycle, ctilde=ctilde, iota=iota, lam=lam)


def split_extension(
    ctilde: Coalgebra, iota: Matrix, lam: Matrix, base: Optional[Coalgebra] = None
) -> Cocycle2:
    """Recover (rho_r, omega) from an extension with a normalized retract.

    The cokernel X is realized as ker(lam) with the projection along
    iota(C); the result has rho_r o p = (p (x) lam) o Delta and
    omega o p = (lam (x) lam) o Delta - Delta_C o lam.  When `base` is
    given it is checked against the pullback of the structure along iota
    and used as the comodule base, otherwise the pullback is built fresh.
    """
    f = ctilde.field
    require_same_field(f, iota.field)
    require_same_field(f, lam.field)
    d = ctilde.dim
    dc = iota.cols
    if iota.rows != d or lam.rows != dc or lam.cols != d:
        raise ShapeError("iota must be dimCtilde x dimC and lambda dimC x dimCtilde")
    if Echelon.of_matrix(iota).rank != dc:
        raise NotAnExtension("iota is not injective")
    lam_iota = lam @ iota
    if lam_iota != Matrix.identity(f, dc):
        raise RetractNotNormalized("lambda o iota is not the identity of C")
    eps_c = Matrix.row_vector(f, [ctilde.eps(iota.col(j)) for j in range(dc)])
    pulled = _restrict_coalgebra_along(ctilde, iota, eps_c)
    pulled.require_valid()
    if base is not None:
        if base.delta != pulled.delta or base.counit != pulled.counit:
            raise NotAnExtension("iota is not a coalgebra morphism from the given base")
    else:
        base = pulled
    if Matrix.row_vector(f, base.counit) @ lam != ctilde.counit_matrix:
        raise RetractNotNormalized("eps_C o lambda differs from eps_Ctilde")
    # extension condition: Delta(Ctilde) inside Ctilde (x) iota(C) + iota(C) (x) Ctilde
    iota_space = image(iota)
    vecs = []
    for i in range(d):
        e_i = unit_vec(f, d, i)
        for u in iota_space.basis.data:
            vecs.append(tuple(f.mul(x, y) for x in e_i for y in u))
            vecs.append(tuple(f.mul(x, y) for x in u for y in e_i))
    target = Subspace.span(f, d * d, vecs)
    for i in range(d):
        if not target.contains_vector(ctilde.delta_matrix.mul_vec(unit_vec(f, d, i))):
            raise NotAnExtension("Delta(Ctilde) is not supported on Ctilde(x)C + C(x)Ctilde")
    # X := ker(lambda), p := coordinates of (id - iota lambda)
    kb = kernel_basis(lam)
    dx = len(kb)
    if dx == 0:
        raise NotAnExtension("the retract has trivial kernel; nothing to split off")
    kmat = Matrix(f, dx, d, tuple(kb))
    eye = Matrix.identity(f, d)
    phi = iota @ lam
    p_cols = solve_many(kmat.transpose(), [(eye - phi).col(j) for j in range(d)])
    if p_cols is None:
        raise NotAnExtension("id - iota lambda does not land in ker(lambda)")
    proj = Matrix(f, dx, d, tuple(zip(*p_cols)))
    dm = ctilde.delta_matrix
    coaction = []
    omega = []
    for s in range(dx):
        z = kb[s]
        dz = dm.mul_vec(z)
        rho_vec = proj.kron(lam).mul_vec(dz)
        dc_ = dc
        coaction.append(
            [
                (t, u, rho_vec[t * dc_ + u])
                for t in range(dx)
                for u in range(dc_)
                if not f.is_zero(rho_vec[t * dc_ + u])
            ]
        )
        om_vec = lam.kron(lam).mul_vec(dz)  # Delta_C(lambda z) = 0 on ker(lambda)
        omega.append(
            [
                (j, k, om_vec[j * dc_ + k])
                for j in range(dc_)
                for k in range(dc_)
                if not f.is_zero(om_vec[j * dc_ + k])
            ]
        )
    out = Cocycle2(Comodule(base, dx, coaction), omega)
    out.require_valid()
    return out


def _restrict_coalgebra_along(ctilde: Coalgebra, iota: Matrix, eps_c: Matrix) -> Coalgebra:
    """Coalgebra structure on C pulled back through an injective coalgebra map."""
    f = ctilde.field
    d, dc = ctilde.dim, iota.cols
    delta = []
    sols = solve_many(iota.kron(iota), [ctilde.delta_matrix.mul_vec(iota.col(i)) for i in range(dc)])
    if sols is None:
        raise NotAnExtension("iota is not a coalgebra morphism")
    for coeffs in sols:
        delta.append(
            [
                (j, k, coeffs[j * dc + k])
                for j in range(dc)
                for k in range(dc)
                if not f.is_zero(coeffs[j * dc + k])
            ]
        )
    return Coalgebra(f, [f"c{i}" for i in range(dc)], delta, eps_c.data[0])


def graded_extension(d_coalg: Coalgebra, n: int) -> Extension:
    """The extension D_{<n} -> D_{<=n} of a graded cocommutative coalgebra.

    X is the degree-n layer, the coaction keeps the (n, 0)-component of
    Delta and omega collects the middle components of degrees (i, n-i)
    for 0 < i < n.
    """
    if d_coalg.grading is None:
        raise ShapeError("graded_extension needs a graded coalgebra")
    if not d_coalg.is_cocommutative:
        raise CocycleViolation("graded_extension needs a cocommutative coalgebra")
    if n < 1:
        raise ShapeError("layer index must be >= 1")
    f = d_coalg.field
    x_idx = list(d_coalg.degree_indices(n))
    if not x_idx:
        raise EmptyLayer(f"degree {n} layer of the coalgebra is zero")
    c_idx = [i for i, g in enumerate(d_coalg.grading) if g < n]
    base = d_coalg.sub_on_indices(c_idx)
    posc = {orig: new for new, orig in enumerate(c_idx)}
    posx = {orig: new for new, orig in enumerate(x_idx)}
    coaction = []
    omega = []
    for orig in x_idx:
        rho = []
        om = []
        for j, k, c in d_coalg.delta[orig]:
            degj = d_coalg.grading[j]
            if degj == n:
                rho.append((posx[j], posc[k], c))
            elif 0 < degj < n:
                om.append((posc[j], posc[k], c))
        coaction.append(rho)
        omega.append(om)
    cocycle = Cocycle2(Comodule(base, len(x_idx), coaction), omega)
    ext = build_extension(cocycle)
    # The built coalgebra must literally be D_{<=n} (up to basis renaming).
    truncated = d_coalg.sub_on_indices(c_idx + x_idx)
    if ext.ctilde.delta != truncated.delta or ext.ctilde.counit != truncated.counit:
        raise CocycleViolation("built extension disagrees with the graded truncation")
    graded_ctilde = Coalgebra(
        f,
        truncated.names,
        [list(t) for t in ext.ctilde.delta],
        ext.ctilde.counit,
        grading=truncated.grading,
    )
    return Extension(
        base=base,
        cocycle=cocycle,
        ctilde=graded_ctilde,
        iota=ext.iota,
        lam=ext.lam,
    )


def decompose_completely_reducible(
    com: Comodule, grouplikes: GroupLikeSet
) -> Optional[list[tuple[Vector, Vector]]]:
    """Split X into lines x_i with rho(x_i) = x_i (x) g_i, if possible.

    Writes rho(x) = sum_g T_g(x) (x) g over the given group-likes; the
    comodule axioms force the T_g to be orthogonal idempotents summing to
    the identity, and the lines are bases of their images.
    """
    base = com.base
    f, dx, dc = base.field, com.dim, base.dim
    gs = list(grouplikes.elements)
    if not gs:
        raise UnsupportedCoaction("no group-likes supplied")
    for g in gs:
        gg = tuple(f.mul(x, y) for x in g for y in g)
        if base.delta_matrix.mul_vec(g) != gg or base.eps(g) != f.one:
            raise ValueError("supplied vector is not group-like")
    gmat = Matrix(f, len(gs), dc, tuple(tuple(f.coerce(x) for x in g) for g in gs))
    if Echelon.of_matrix(gmat).rank != len(gs):
        raise ValueError("group-like vectors must be distinct (they are then independent)")
    ops = []
    rows_by_st: dict[tuple[int, int], list] = {}
    for s in range(dx):
        for t in range(dx):
            row = [f.zero] * dc
            for tt, u, c in com.coaction[s]:
                if tt == t:
                    row[u] = f.add(row[u], c)
            rows_by_st[(s, t)] = row
    sols = solve_many(gmat.transpose(), list(rows_by_st.values()))
    if sols is None:
        raise UnsupportedCoaction("coaction is not supported on the span of the group-likes")
    coeffs = dict(zip(rows_by_st, sols))
    for gi in range(len(gs)):
        data = tuple(tuple(coeffs[(s, t)][gi] for s in range(dx)) for t in range(dx))
        ops.append(Matrix(f, dx, dx, data))
    eye = Matrix.identity(f, dx)
    total = Matrix.zeros(f, dx, dx)
    for op in ops:
        total = total + op
    if total != eye:
        return None
    for a, op_a in enumerate(ops):
        for b, op_b in enumerate(ops):
            prod = op_a @ op_b
            expect = op_a if a == b else Matrix.zeros(f, dx, dx)
            if prod != expect:
                return None
    lines: list[tuple[Vector, Vector]] = []
    total_rank = 0
    for gi, op in enumerate(ops):
        img = image(op)
        total_rank += img.dim
        for row in img.basis.data:
            lines.append((row, gs[gi]))
    if total_rank < dx:
        return None
    return lines
