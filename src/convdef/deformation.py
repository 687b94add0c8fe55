"""Deformations of associative algebras over coalgebra extensions.

A deformation of (A, m) along an extension C -> Ctilde is an associative
multiplication over Ctilde restricting to m on C.  It is determined by
its restriction to X, and associativity is exactly the generalized
Maurer-Cartan equation d^2(m_X) + zeta = 0, where zeta is the
obstruction 3-cocycle built from m and the extension's 2-cocycle: the
X-block of the associator of m (+) 0 over Ctilde, summed on X's rows
alone.  Every other product here is the sparse convolution kernel on
the nonzero entries of each component.

A materialized deformation is checked by that equation, not by its
associator.  Delta of Ctilde = C (+) X has no X (x) X term (every
extension is supported on Ctilde (x) C + C (x) Ctilde) and eps vanishes
on X, so the associator of m (+) nu is affine in nu: its C-block is the
associator of m, which `complex_of` has refused unless it vanishes,
and its X-block is zeta + d^2(nu).  Once the fiber condition
holds, m (+) nu is associative exactly when d^2(nu) = -zeta, and d^2 is
applied to nu's entries without being assembled.

Every check of that equation, and of d^3(zeta) = 0, is one call of the
exact residual `ComplexSpec.solves`, which compares on ints.  An enumerated family base + sum c_i v_i is checked once: the residual is
affine in nu, so once the base passes it and d^2(v_i) = 0 for each
generator v_i, every member solves d^2(nu) = -zeta exactly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .coalgebra import Coalgebra, find_grouplikes
from .cohomology import Cochain, ComplexSpec, _associator_rows, _proved_associative, is_associative
from .convolution import (
    ConvMorphism,
    Form,
    MultiMap,
    _canonical,
    _convolve,
    _form_sum,
    _from_form,
    _identity_form,
    _unipotent_inverse,
    conv_compose,
    epsilon_embed,
    identity_conv,
    pullback,
    takeuchi_invert,
)
from .errors import (
    ConvDefError,
    NotUnital,
    ShapeError,
    SpecMismatch,
    UnsupportedSearch,
)
from .extension import Extension, graded_extension
from .fields import Field
from .linalg import _Record, _fractions, _normalized

# Over a finite field `classify` materializes every H^2 class while there are at most this many.
COSET_CAP = 64


class AlgebraMC(_Record):
    """An algebra (A, m) in the convolution category over C, optionally unital."""

    __slots__ = _fields = ("m", "unit")

    def __init__(self, m: ConvMorphism, unit: Optional[ConvMorphism] = None):
        self.m, self.unit = m, unit
        if self.m.src_arity != 2 or self.m.tgt_arity != 1:
            raise ShapeError("multiplication must be a map C -> Hom(A(x)A, A)")
        if self.unit is not None:
            if self.unit.coalgebra != self.m.coalgebra:
                raise ShapeError("unit must live over the same coalgebra")
            if self.unit.src_arity != 0 or self.unit.tgt_arity != 1:
                raise ShapeError("unit must be a map C -> Hom(k, A)")

    @property
    def coalgebra(self) -> Coalgebra:
        return self.m.coalgebra

    @property
    def a_dim(self) -> int:
        return self.m.a_dim

    @property
    def field(self) -> Field:
        return self.m.field

    def require_valid(self) -> None:
        if not is_associative(self.m):
            raise ShapeError("multiplication is not associative in the convolution category")
        if self.unit is not None and not is_unit_of(self.m, self.unit):
            raise NotUnital("the supplied unit fails a unit axiom")


def is_unit_of(m: ConvMorphism, u: ConvMorphism) -> bool:
    """m * (u (x) e) = e = m * (e (x) u) in the convolution category, exactly; e = eps(-) id_A.

    Both sides are computed by the sparse convolution kernel and compared
    with e as canonical integral forms.
    """
    c, a = m.coalgebra, m.a_dim
    if u.coalgebra != c:
        raise ShapeError("tensor of morphisms over different coalgebras")
    if (m.src_arity, m.tgt_arity, u.src_arity, u.tgt_arity) != (2, 1, 0, 1) or u.a_dim != a:
        raise ShapeError("unit axioms need m: A(x)A -> A and u: k -> A over the same A")
    mm, uu, ee = m.integral_form, u.integral_form, _identity_form(c, a)
    return _convolve(c, mm, _convolve(c, uu, ee, (a, a))) == ee == _convolve(c, mm, _convolve(c, ee, uu, (a, 1)))


class Deformation(_Record):
    """A multiplication over Ctilde in the fiber over (A, m)."""

    __slots__ = _fields = ("base", "extension", "mtilde")

    def __init__(self, base: AlgebraMC, extension: Extension, mtilde: ConvMorphism):
        self.base, self.extension, self.mtilde = base, extension, mtilde
        if self.mtilde.coalgebra != self.extension.ctilde:
            raise ShapeError("deformation multiplication must live over Ctilde")
        if self.base.coalgebra != self.extension.base:
            raise SpecMismatch("base algebra and extension base coalgebra differ")

    @property
    def m_x(self) -> Cochain:
        dc = self.extension.base.dim
        return Cochain(2, tuple(self.mtilde.components[dc:]))

    def fiber_condition_holds(self) -> bool:
        return pullback(self.mtilde, self.extension.iota, self.extension.base) == self.base.m

    def require_valid(self) -> None:
        """The fiber condition, then associativity of mtilde as the residual d^2(m_X) = -zeta, exactly."""
        if not self.fiber_condition_holds():
            raise SpecMismatch("multiplication does not restrict to the base algebra")
        spec = complex_of(self.base, self.extension)
        _require_mc(spec, [self.m_x], obstruction_zeta(self.base, self.extension, spec))


def _require_mc(spec: ComplexSpec, nus: Sequence[Cochain], zeta: Optional[Cochain] = None) -> None:
    """d^2(nu) = -zeta for every nu, or d^2(v) = 0 for every generator v when zeta is None, or refuse."""
    if not spec.solves(nus, zeta):
        raise ShapeError("deformed multiplication is not associative")


def make_deformation(base: AlgebraMC, ext: Extension, nu: Cochain, *, _certified: bool = False) -> Deformation:
    """Assemble mtilde with mtilde(c, x) = m(c) + nu(x) and verify it: mtilde is associative exactly when d^2(nu) = -zeta.

    The residual is one application of d^2 to nu's entries (see the module
    docstring).  mtilde starts with base.m's own components, so the fiber
    condition holds by construction and is not checked.  Within this
    module `_certified` says nu lies in a family whose base and generators
    `_require_mc` has already checked, so no complex is built for it.
    """
    if nu.degree != 2 or nu.x_dim != ext.comodule.dim:
        raise ShapeError("solution cochain must be a degree-2 cochain on X")
    d = Deformation(base=base, extension=ext, mtilde=ConvMorphism(ext.ctilde, tuple(base.m.components) + nu.maps))
    if not _certified:
        spec = complex_of(base, ext)
        _require_mc(spec, [nu], obstruction_zeta(base, ext, spec))
    # m is associative (zeta's C-block) and d^2(nu) = -zeta: so is mtilde, and no complex over it re-checks
    _proved_associative(d.mtilde)
    return d


def complex_of(alg: AlgebraMC, ext: Extension) -> ComplexSpec:
    if alg.coalgebra != ext.base:
        raise SpecMismatch("algebra and extension live over different coalgebras")
    return ComplexSpec(alg.m, ext.comodule)


def obstruction_zeta(alg: AlgebraMC, ext: Extension, spec: Optional[ComplexSpec] = None) -> Cochain:
    """zeta(x) = sum m(w1) o (A (x) m(w2) - m(w2) (x) A) over omega(x): the X-block of the associator of m (+) 0.

    Only X's output rows of that associator are summed (`_associator_rows`); on x only
    the omega terms of Delta(x) pair two nonzero components.  The C-block is the
    associator of m, whose verdict `complex_of` keeps: it refuses a non-associative m.
    d^3(zeta) = 0 is checked by `spec.solves`, `spec` the caller's `complex_of(alg, ext)`, built here when not given.
    """
    spec = spec or complex_of(alg, ext)
    f, a, dc, (d_m, mm) = alg.field, alg.a_dim, ext.base.dim, alg.m.integral_form
    den, block = _associator_rows(ext.ctilde, (d_m, mm + [{}] * ext.comodule.dim), a, range(dc, ext.ctilde.dim))
    zeta = Cochain(3, tuple(MultiMap(f, a, 3, 1, e if f.char else _fractions(e, den)) for e in block))
    if not spec.solves([zeta]):
        raise ConvDefError("obstruction is not a 3-cocycle; inputs are inconsistent")
    return zeta


class DeformationReport(_Record):
    """Obstruction data, Maurer-Cartan solution set, and its cohomology classes: d^2(nu0) = zeta, base_solution = -nu0,
    coset_count = |F|^dim_h2 over finite fields, zeta_class_rep the canonical representative of [zeta] when nonzero.
    spec, the complex it was solved in, is left out of ==, hash and repr; Z^2 and B^2 are its cached
    `spec.cocycles(2)` and `spec.coboundaries(2)`, so no cochain basis of them is built here."""

    _fields = ("zeta", "obstruction_vanishes", "nu0", "base_solution", "h2_reps",
               "dim_z2", "dim_b2", "dim_h2", "coset_count", "zeta_class_rep")
    __slots__ = _fields + ("spec",)

    def __init__(self, zeta: Cochain, obstruction_vanishes: bool, nu0: Optional[Cochain],
                 base_solution: Optional[Cochain], h2_reps: tuple[Cochain, ...], dim_z2: int, dim_b2: int,
                 dim_h2: int, coset_count: Optional[int], zeta_class_rep: Optional[Cochain], spec: ComplexSpec):
        self.zeta, self.obstruction_vanishes = zeta, obstruction_vanishes
        self.nu0, self.base_solution = nu0, base_solution
        self.h2_reps, self.dim_z2, self.dim_b2, self.dim_h2 = h2_reps, dim_z2, dim_b2, dim_h2
        self.coset_count, self.zeta_class_rep, self.spec = coset_count, zeta_class_rep, spec


def mc_solve(alg: AlgebraMC, ext: Extension) -> DeformationReport:
    """Solve d^2(nu) = -zeta; on success the solution set is base + Z^2.

    `complex_of` checks that m is associative and the comodule valid, each verdict kept on its object.
    """
    spec = complex_of(alg, ext)
    zeta = obstruction_zeta(alg, ext, spec)
    f = spec.field
    # one elimination of [d^2 | zeta]: its left block is the RREF of d^2 that cohomology(2) reads Z^2 from
    nu0 = spec.solve(2, zeta)
    h2 = spec.cohomology(2)
    rep = None
    if nu0 is None:
        # canonical representative of [zeta] modulo B^3 = im d^2
        rep = Cochain.from_entries(f, spec.a_dim, spec.x_dim, 3, spec.coboundaries(3).reduce(zeta.flat_entries()))
    report = DeformationReport(
        zeta=zeta,
        obstruction_vanishes=nu0 is not None,
        nu0=nu0,
        base_solution=None if nu0 is None else -nu0,
        h2_reps=h2.representatives,
        dim_z2=h2.dim_z,
        dim_b2=h2.dim_b,
        dim_h2=h2.dim_h,
        coset_count=f.char ** h2.dim_h if f.char else None,
        zeta_class_rep=rep,
        spec=spec,
    )
    if nu0 is not None:
        # end-to-end re-verification: the base solution's own residual, so that base + Z^2 solves the equation
        _require_mc(spec, [report.base_solution], zeta)
    return report


class ClassifyResult(_Record):
    __slots__ = _fields = ("report", "representatives")

    def __init__(self, report: DeformationReport, representatives: tuple[Deformation, ...]):
        self.report, self.representatives = report, representatives  # one representative per enumerated H^2 coset


def classify(alg: AlgebraMC, ext: Extension) -> ClassifyResult:
    """One deformation per gauge-equivalence class of the solution set.

    Over a finite field all |F|^dim H^2 classes are materialized while the
    count stays within `COSET_CAP`; otherwise the base solution shifted by
    each H^2 representative direction is returned.  The base passed its
    residual in `mc_solve`, and d^2(base + sum c_i h_i) + zeta = sum c_i d^2(h_i),
    so one d^2(h) = 0 check per representative h certifies every member.
    """
    report = mc_solve(alg, ext)
    if not report.obstruction_vanishes:
        return ClassifyResult(report=report, representatives=())
    f = alg.field
    base = report.base_solution
    if f.char and report.coset_count is not None and report.coset_count <= COSET_CAP:
        nus = _affine_span(base, report.h2_reps, f.char)
    else:
        nus = [base] + [base + h for h in report.h2_reps]
    _require_mc(report.spec, report.h2_reps)
    reps = tuple(make_deformation(alg, ext, nu, _certified=True) for nu in nus)
    return ClassifyResult(report=report, representatives=reps)


def _affine_span(base: Cochain, vectors: Sequence[Cochain], p: int) -> Iterator[Cochain]:
    """base + sum c_i v_i for c in F_p^k, lazily and in `itertools.product` order.

    The sums are the leaves of a prefix tree whose node at depth i adds
    c_i v_i to its parent: each scaled vector is computed once and each
    node costs one addition (none for c_i = 0).
    """
    scaled = [[v.scale(c) for c in range(1, p)] for v in vectors]

    def below(prefix: Cochain, i: int) -> Iterator[Cochain]:
        if i == len(scaled):
            yield prefix
            return
        yield from below(prefix, i + 1)
        for step in scaled[i]:
            yield from below(prefix + step, i + 1)

    yield from below(base, 0)


def _gauge_from_cochain(ext: Extension, f_x: Cochain) -> ConvMorphism:
    """f(c, x) = eps(c) I + f_x(x)."""
    return ConvMorphism(ext.ctilde, identity_conv(ext.base, f_x.a_dim).components + f_x.maps)


def _transport(c: Coalgebra, a: int, p: int, m: Form, gauge: Form, inv: Form) -> Form:
    """The form of m_f = f^{-1} * m * (f (x) f) for m: A^(x)2p -> A^(x)p, from the forms of m, f and its verified inverse."""
    return _convolve(c, _convolve(c, inv, m), _convolve(c, gauge, gauge, (a**p, a**p)))


def gauge_transport(d: Deformation, gauge: ConvMorphism) -> Deformation:
    """Transport the multiplication: m_f = f^{-1} * m * (f (x) f).

    When the gauge restricts to the identity along iota the result is a
    deformation of the same base; otherwise the base is transported too.
    """
    ext = d.extension
    if gauge.coalgebra != ext.ctilde:
        raise ShapeError("gauge must live over Ctilde")
    inv = takeuchi_invert(gauge)  # refuses a gauge A^(x)p -> A^(x)q with p != q
    c, m, a, p = ext.ctilde, d.mtilde, gauge.a_dim, gauge.src_arity
    if m.a_dim != a or (m.src_arity, m.tgt_arity) != (2 * p, p):  # m lives over Ctilde, as the gauge does
        raise ShapeError("arity mismatch in convolution composition")
    m_f = _from_form(c, _transport(c, a, p, m.integral_form, gauge.integral_form, inv.integral_form), a, 2 * p, p)
    restricted = pullback(m_f, ext.iota, ext.base)
    if restricted == d.base.m:
        new_base = d.base
    else:
        new_base = AlgebraMC(m=restricted, unit=None)
    out = Deformation(base=new_base, extension=ext, mtilde=m_f)
    out.require_valid()
    return out


# -- order-by-order series deformation -------------------------------------


class SeriesStep(_Record):
    __slots__ = _fields = ("degree", "report", "chosen")

    def __init__(self, degree: int, report: DeformationReport, chosen: Optional[Cochain]):
        self.degree, self.report, self.chosen = degree, report, chosen


class SeriesBranch(_Record):
    __slots__ = _fields = ("steps", "final", "stopped_at")

    def __init__(self, steps: tuple[SeriesStep, ...], final: AlgebraMC, stopped_at: Optional[int]):
        self.steps, self.final = steps, final
        self.stopped_at = stopped_at  # the degree whose obstruction class is nonzero


class SeriesResult(_Record):
    __slots__ = _fields = ("branches",)

    def __init__(self, branches: tuple[SeriesBranch, ...]):
        self.branches = branches

    @property
    def primary(self) -> SeriesBranch:
        return self.branches[0]


def series_deform(
    m0: MultiMap,
    d_coalg: Coalgebra,
    max_degree: int,
    strategy: str = "first",
    user_cochains: Optional[dict[int, Cochain]] = None,
    branch_budget: int = 16,
) -> SeriesResult:
    """Deform (A, m0) degree by degree along the graded coalgebra D.

    Starting from the counit embedding of m0 over the degree-0 part,
    each step builds the one-layer extension D_{<n} -> D_{<=n}, solves
    the Maurer-Cartan equation there, extends the multiplication by a
    chosen solution, and continues.  Stops early when an obstruction
    class is nonzero.

    strategy: "first" takes the canonical solution, "user" takes
    `user_cochains[n]` (verified to solve the equation), "all" explores
    every solution over a finite field, capped at `branch_budget`.
    Branches past the budget are never solved, and a branch is materialized
    only once a later degree expands it or it is returned.
    """
    if strategy not in ("first", "user", "all"):
        raise ShapeError(f"unknown strategy {strategy!r}")
    if d_coalg.grading is None:
        raise ShapeError("series deformation needs a graded coalgebra")
    if not d_coalg.is_cocommutative:
        raise ShapeError("series deformation needs a cocommutative coalgebra")
    if any(a > b for a, b in zip(d_coalg.grading, d_coalg.grading[1:])):
        raise ShapeError("basis must be ordered by degree")
    if d_coalg.max_degree() < max_degree:
        raise ShapeError(
            f"coalgebra carries degrees up to {d_coalg.max_degree()} < {max_degree}"
        )
    if strategy == "all" and not d_coalg.field.char:
        raise UnsupportedSearch("enumerating all solutions needs a finite field")
    if strategy == "user" and not user_cochains:
        raise ShapeError("user strategy needs a cochain per degree")
    c0 = d_coalg.sub_on_indices(d_coalg.degree_indices(0))
    if not find_grouplikes(c0).elements:
        raise ShapeError("degree-0 part has no basis group-like")
    start = AlgebraMC(m=epsilon_embed(m0, c0))
    start.require_valid()
    # a branch is (steps, alg, stopped, pending): with pending = (ext, nu) its algebra is alg grown by nu
    branches: list[tuple[list[SeriesStep], AlgebraMC, Optional[int], Optional[tuple]]] = [([], start, None, None)]
    for n in range(1, max_degree + 1):
        ext = graded_extension(d_coalg, n)
        new_branches = []
        for steps, alg, stopped, pending in branches:
            if len(new_branches) >= branch_budget:
                break
            if stopped is not None:
                new_branches.append((steps, alg, stopped, None))
                continue
            alg = _grown(alg, pending)
            report = mc_solve(alg, ext)
            if not report.obstruction_vanishes:
                new_branches.append((steps + [SeriesStep(n, report, None)], alg, n, None))
                continue
            choices = _solution_choices(report, strategy, user_cochains, n)
            # no solution past the budget is drawn from the lazy choices, so none is built
            for nu in itertools.islice(choices, branch_budget - len(new_branches)):
                new_branches.append((steps + [SeriesStep(n, report, nu)], alg, None, (ext, nu)))
        branches = new_branches
    return SeriesResult(branches=tuple(
        SeriesBranch(steps=tuple(steps), final=_grown(alg, pending), stopped_at=stopped)
        for steps, alg, stopped, pending in branches))


def _grown(alg: AlgebraMC, pending: Optional[tuple]) -> AlgebraMC:
    """alg, or with pending = (ext, nu) the deformation of alg by the certified solution nu."""
    if pending is None:
        return alg
    return AlgebraMC(m=make_deformation(alg, *pending, _certified=True).mtilde)


def _solution_choices(
    report: DeformationReport,
    strategy: str,
    user_cochains: Optional[dict[int, Cochain]],
    degree: int,
) -> Iterable[Cochain]:
    """The solutions to branch on, in order; "all" yields them lazily.  `series_deform` refused any other strategy."""
    base = report.base_solution
    if strategy == "first":
        return [base]
    if strategy == "user":
        if degree not in user_cochains:
            return [base]
        nu = user_cochains[degree]
        if not report.spec.solves([nu], report.zeta):
            raise ShapeError(f"supplied degree-{degree} cochain does not solve the equation")
        return [nu]
    spec = report.spec
    z2 = spec.cocycles(2)
    gens = [Cochain.from_entries(spec.field, spec.a_dim, spec.x_dim, 2, z2.rows[p]) for p in z2.pivots]
    _require_mc(spec, gens)
    return _affine_span(base, gens, spec.field.char)


# -- unit normalization -----------------------------------------------------


class UnitGaugeResult(_Record):
    """The gauge f, restricting to the identity on degree 0; m_f, the transported multiplication;
    u_lambda = u o lambda, the unit of m_f; and u_tilde = f * (u o lambda), a unit of the original mtilde."""

    __slots__ = _fields = ("gauge", "m_f", "u_lambda", "u_tilde")

    def __init__(self, gauge: ConvMorphism, m_f: ConvMorphism, u_lambda: ConvMorphism, u_tilde: ConvMorphism):
        self.gauge, self.m_f, self.u_lambda, self.u_tilde = gauge, m_f, u_lambda, u_tilde


def unit_gauge(mtilde: ConvMorphism, u: ConvMorphism) -> UnitGaugeResult:
    """Normalize the unit of a deformation over a graded coalgebra.

    mtilde is an associative multiplication over the graded cocommutative
    Ctilde = D_{<=N} restricting on D^0 to a multiplication with unit u.
    Degree by degree a correction g is read off the unit defect of the
    transported multiplication m_f and folded into the gauge, following
    f' = f * (e + g).  Transport is an action of the convolution group,
    m_{f * (e + g)} = (m_f)_{e + g}, so m_f is carried forward by the
    one-step gauge e + g alone.  g lives in degree n >= 1, so (e + g)^{-1} =
    sum_k (-g)^{*k} stops by k = floor(N / n), (-g)^{*k} being of degree kn; the
    first empty power certifies it, as (e + g) * sum_{k<K} (-g)^{*k} = e - (-g)^{*K}
    = sum_{k<K} (-g)^{*k} * (e + g), so no step eliminates.  The result satisfies
    both unit axioms for u o lambda exactly, and f * (u o lambda) is a unit of
    the original multiplication.
    """
    ct = mtilde.coalgebra
    if ct.grading is None:
        raise ShapeError("unit normalization needs a graded coalgebra")
    if not ct.is_cocommutative:
        raise ShapeError("unit normalization needs a cocommutative coalgebra")
    f = ct.field
    a = mtilde.a_dim
    zero_idx = list(ct.degree_indices(0))
    c0 = ct.sub_on_indices(zero_idx)
    if u.coalgebra != c0:
        raise ShapeError("unit must live over the degree-0 part of the coalgebra")
    m0 = ConvMorphism(c0, tuple(mtilde.components[i] for i in zero_idx))
    if not is_associative(mtilde):
        raise ShapeError("multiplication is not associative")
    if not is_unit_of(m0, u):
        raise NotUnital("u is not a unit of the degree-0 multiplication")
    # u o lambda: degree projection kills positive degrees
    pos = {orig: new for new, orig in enumerate(zero_idx)}
    zero_map = MultiMap.zero(f, a, 0, 1)
    u_lam = ConvMorphism(
        ct,
        tuple(
            u.components[pos[i]] if i in pos else zero_map for i in range(ct.dim)
        ),
    )
    e = _identity_form(ct, a)
    e_u = _convolve(ct, e, u_lam.integral_form, (a, 1))  # id (x) (u o lambda), the same at every degree
    gauge, m_f = e, mtilde.integral_form  # forms: only the returned morphisms are built
    for n in range(1, ct.max_degree() + 1):
        den, defect = _convolve(ct, m_f, e_u)
        g = _canonical(den, [_normalized(f, {key: -v for key, v in comp.items()}) if ct.grading[i] == n else {}
                             for i, comp in enumerate(defect)])
        if not any(g[1]):
            continue  # m_f is already unital through degree n: the step e + g is the identity
        step = _form_sum(f, (1, e), (1, g))
        gauge = _convolve(ct, gauge, step)
        m_f = _transport(ct, a, 1, m_f, step, _unipotent_inverse(ct, g, e))
    m_f = mtilde if m_f is mtilde.integral_form else _from_form(ct, m_f, a, 2, 1)
    if not is_unit_of(m_f, u_lam):
        raise ConvDefError("unit normalization failed exact verification")
    gauge = _from_form(ct, gauge, a, 1, 1)
    u_tilde = conv_compose(gauge, u_lam)
    if not is_unit_of(mtilde, u_tilde):
        raise ConvDefError("f * (u o lambda) failed to be a unit of the original multiplication")
    return UnitGaugeResult(gauge=gauge, m_f=m_f, u_lambda=u_lam, u_tilde=u_tilde)
