"""Seeded input generator for the convdef benchmark.

Standard library only: this module never imports convdef, so the bytes it
writes depend on (workload, seed, pass index) alone and stay identical
across commits of the library.

Every pass applies a fresh change of basis to each algebra.  A sparse op
gets a monomial change (a permutation times nonzero scalars), which keeps
the structure constants sparse; a dense op gets a random dense invertible
change.  The answers the benchmark checks are invariant under both.  Both
kinds keep every entry to a few bits around matrices of fixed shape, so
exact arithmetic costs about the same on every pass and seed: the bytes
change, the work does not.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional

BIG_PRIME = 32003


# -- fields -------------------------------------------------------------------


class Field:
    """Q (p = 0) or F_p; elements are Fractions or ints in [0, p)."""

    def __init__(self, p: int = 0):
        self.p = p
        self.name = "Q" if p == 0 else f"Fp {p}"

    def norm(self, x):
        if self.p == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    def parse(self, s: str):
        return self.norm(Fraction(s))

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / Fraction(x)

    def fmt(self, x) -> str:
        return str(self.norm(x))

    def small(self, rng: random.Random):
        """A small integer entry, the same distribution over every field."""
        return self.norm(rng.randint(-2, 2))


QQ = Field(0)


def field_named(name: str) -> Field:
    return QQ if name == "Q" else Field(int(name[1:]))


# -- dense matrices as lists of rows --------------------------------------------


def zeros(f: Field, r: int, c: int) -> list:
    return [[f.norm(0)] * c for _ in range(r)]


def identity(f: Field, n: int) -> list:
    return [[f.norm(1 if i == j else 0) for j in range(n)] for i in range(n)]


def matmul(f: Field, a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[f.norm(sum(x * y for x, y in zip(row, col))) for col in bt] for row in a]


def kron(f: Field, a: list, b: list) -> list:
    return [[f.norm(x * y) for x in ra for y in rb] for ra in a for rb in b]


def madd(f: Field, a: list, b: list, c=1) -> list:
    """a + c * b."""
    return [[f.norm(x + c * y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mvec(f: Field, m: list, v: list) -> list:
    return [f.norm(sum(x * y for x, y in zip(row, v))) for row in m]


def is_zero(m: list) -> bool:
    return all(x == 0 for row in m for x in row)


def invert(f: Field, m: list) -> Optional[list]:
    """Gauss-Jordan inverse, or None when m is singular."""
    n = len(m)
    aug = [list(row) + ident for row, ident in zip(m, identity(f, n))]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = f.inv(aug[c][c])
        aug[c] = [f.norm(x * inv) for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                fac = aug[i][c]
                aug[i] = [f.norm(x - fac * y) for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


# -- changes of basis -------------------------------------------------------------


def signed_permutation(f: Field, a: int, rng: random.Random) -> tuple[list, list]:
    """(S, S^-1) for a random permutation matrix with random signs."""
    perm = list(range(a))
    rng.shuffle(perm)
    s, sinv = zeros(f, a, a), zeros(f, a, a)
    for i in range(a):
        sign = f.norm(rng.choice((1, -1)))
        s[perm[i]][i] = sign
        sinv[i][perm[i]] = sign
    return s, sinv


def monomial_change(f: Field, a: int, rng: random.Random) -> tuple[list, list]:
    """(P, P^-1) for a signed permutation times nonzero scalars.

    Over Q the scalars are small primes, so entries stay one machine word
    and the exact arithmetic costs the same whichever are drawn.
    """
    s, sinv = signed_permutation(f, a, rng)
    scale = [f.norm(rng.choice((2, 3, 5, 7)) if f.p == 0 else rng.randint(1, f.p - 1)) for _ in range(a)]
    p = [[f.norm(x * c) for x, c in zip(row, scale)] for row in s]
    pinv = [[f.norm(x * f.inv(c)) for x in row] for row, c in zip(sinv, scale)]
    return p, pinv


def dense_change(f: Field, a: int, rng: random.Random) -> tuple[list, list]:
    """(P, P^-1) with P = S D S' for random signed permutations S, S'.

    D is `unimodular(a)`.  Every pass gets a different dense P whose entries
    have the same sizes, so passes differ in bytes but not in the work they cost.
    """
    s1, _ = signed_permutation(f, a, rng)
    s2, _ = signed_permutation(f, a, rng)
    p = matmul(f, s1, matmul(f, unimodular(f, a), s2))
    return p, invert(f, p)


def unimodular(f: Field, a: int) -> list:
    """L U for L and U all ones on and below (above) the diagonal: dense, determinant 1."""
    return [[f.norm(min(i, j) + 1) for j in range(a)] for i in range(a)]


def conjugate(f: Field, m: list, p: list, pinv: list) -> list:
    """A map A -> A in the new basis: P^-1 m P."""
    return matmul(f, pinv, matmul(f, m, p))


def transport(f: Field, m: list, p: list, pinv: list) -> list:
    """A multi-map A^(x)2 -> A in the new basis: P^-1 m (P (x) P)."""
    return matmul(f, pinv, matmul(f, m, kron(f, p, p)))


def change(f: Field, a: int, kind: str, rng: random.Random) -> tuple[list, list]:
    return monomial_change(f, a, rng) if kind == "sparse" else dense_change(f, a, rng)


# -- algebras by structure constants ---------------------------------------------


def _mult_from(f: Field, a: int, products: dict) -> list:
    """products maps (i, j) to [(k, coeff)]: e_i e_j = sum coeff e_k."""
    m = zeros(f, a, a * a)
    for (i, j), terms in products.items():
        for k, c in terms:
            m[k][a * i + j] = f.norm(c)
    return m


def truncated_poly(f: Field, n: int) -> tuple[list, list]:
    """k[x]/(x^n) on 1, x, ..., x^(n-1): (multiplication, unit)."""
    prods = {(i, j): [(i + j, 1)] for i in range(n) for j in range(n) if i + j < n}
    return _mult_from(f, n, prods), [f.norm(1 if i == 0 else 0) for i in range(n)]


def square_zero(f: Field, r: int) -> tuple[list, list]:
    """k[x_1..x_r]/(x_1..x_r)^2 on 1, x_1, ..., x_r."""
    a = r + 1
    prods = {(0, j): [(j, 1)] for j in range(a)}
    prods.update({(j, 0): [(j, 1)] for j in range(a)})
    return _mult_from(f, a, prods), [f.norm(1 if i == 0 else 0) for i in range(a)]


def matrix_algebra(f: Field, k: int) -> tuple[list, list]:
    """M_k on the matrix units E_ij, index k*i + j."""
    prods = {
        (k * i + j, k * j + l): [(k * i + l, 1)]
        for i in range(k) for j in range(k) for l in range(k)
    }
    return _mult_from(f, k * k, prods), [f.norm(1 if i % (k + 1) == 0 else 0) for i in range(k * k)]


ALGEBRAS: dict[str, Callable[[Field], tuple[list, list]]] = {
    "trunc2": lambda f: truncated_poly(f, 2),
    "trunc3": lambda f: truncated_poly(f, 3),
    "trunc4": lambda f: truncated_poly(f, 4),
    "sqz2": lambda f: square_zero(f, 2),
    "mat2": lambda f: matrix_algebra(f, 2),
}


# -- coalgebras ---------------------------------------------------------------------


@dataclass(frozen=True)
class Coalg:
    """A coalgebra by sparse Delta triples (j, k, coeff) per basis index."""

    names: tuple
    delta: tuple
    counit: tuple
    degrees: tuple

    @property
    def dim(self) -> int:
        return len(self.names)

    def spec(self) -> dict:
        n = self.names
        return {
            "basis": list(n),
            "delta": [[n[i], n[j], n[k], str(c)] for i in range(self.dim) for j, k, c in self.delta[i]],
            "counit": {n[i]: str(c) for i, c in enumerate(self.counit) if c},
            "degrees": {n[i]: d for i, d in enumerate(self.degrees)},
        }


def poly_coalgebra(r: int, n_max: int) -> Coalg:
    """Monomials of total degree <= N in r variables, Delta(t^P) = sum_{Q+R=P} t^Q (x) t^R.

    r = 1 is the divided-power coalgebra k[t]_{<=N}.  The basis is ordered
    by degree, as `series` requires.
    """
    monos = [()]
    for _ in range(r):
        monos = [m + (e,) for m in monos for e in range(n_max + 1)]
    monos = sorted((m for m in monos if sum(m) <= n_max), key=lambda m: (sum(m), m))
    index = {m: i for i, m in enumerate(monos)}

    def name(m):
        if not any(m):
            return "1"
        if r == 1:
            return "t" if m[0] == 1 else f"t^{m[0]}"
        return "*".join(f"t{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in enumerate(m) if e)

    delta = []
    for m in monos:
        splits = [()]
        for e in m:
            splits = [s + (q,) for s in splits for q in range(e + 1)]
        delta.append(tuple((index[q], index[tuple(x - y for x, y in zip(m, q))], 1) for q in splits))
    return Coalg(
        tuple(name(m) for m in monos),
        tuple(delta),
        tuple(1 if not any(m) else 0 for m in monos),
        tuple(sum(m) for m in monos),
    )


def truncate(c: Coalg, n: int) -> Coalg:
    """The subcoalgebra of degree < n (a degree-sorted basis is assumed)."""
    keep = [i for i, d in enumerate(c.degrees) if d < n]
    return Coalg(
        tuple(c.names[i] for i in keep),
        tuple(c.delta[i] for i in keep),
        tuple(c.counit[i] for i in keep),
        tuple(c.degrees[i] for i in keep),
    )


K = poly_coalgebra(1, 0)


def layer_blocks(c: Coalg, n: int) -> tuple[dict, dict]:
    """Comodule and cocycle blocks of the extension C_{<n} -> C_{<=n}.

    X is the degree-n layer; the coaction keeps the (n, 0) part of Delta
    and omega the middle parts.
    """
    x_idx = [i for i, d in enumerate(c.degrees) if d == n]
    xn = {i: f"x{p}" for p, i in enumerate(x_idx)}
    coaction, omega = [], []
    for i in x_idx:
        for j, k, coeff in c.delta[i]:
            if c.degrees[j] == n:
                coaction.append([xn[i], xn[j], c.names[k], str(coeff)])
            elif 0 < c.degrees[j] < n:
                omega.append([xn[i], c.names[j], c.names[k], str(coeff)])
    comodule = {"base": "C", "basis": [xn[i] for i in x_idx], "coaction": coaction}
    return comodule, {"comodule": "X", "omega": omega}


# -- convolution arithmetic over a coalgebra -----------------------------------------


def _convolve(f: Field, c: Coalg, g: list, h: list, product) -> list:
    out = []
    for i in range(c.dim):
        terms = [(coeff, product(f, g[j], h[k])) for j, k, coeff in c.delta[i]]
        acc = zeros(f, len(terms[0][1]), len(terms[0][1][0]))
        for coeff, term in terms:
            acc = madd(f, acc, term, coeff)
        out.append(acc)
    return out


def conv_compose(f: Field, c: Coalg, g: list, h: list) -> list:
    """(g * h)(c) = sum g(c_(1)) h(c_(2)); morphisms are lists of matrices."""
    return _convolve(f, c, g, h, matmul)


def conv_tensor(f: Field, c: Coalg, g: list, h: list) -> list:
    """(g (x) h)(c) = sum g(c_(1)) (x) h(c_(2))."""
    return _convolve(f, c, g, h, kron)


def conv_identity(f: Field, c: Coalg, mat: list) -> list:
    return [mat if e else zeros(f, len(mat), len(mat[0])) for e in c.counit]


def series_inverse(f: Field, comps: list) -> list:
    """Inverse of a power series sum F_n t^n of square matrices with F_0 invertible."""
    inv0 = invert(f, comps[0])
    out = [inv0]
    for n in range(1, len(comps)):
        acc = zeros(f, len(inv0), len(inv0))
        for i in range(1, n + 1):
            acc = madd(f, acc, matmul(f, comps[i], out[n - i]))
        out.append(matmul(f, inv0, [[f.norm(-x) for x in row] for row in acc]))
    return out


def is_associative(f: Field, c: Coalg, m: list) -> bool:
    ida = conv_identity(f, c, identity(f, len(m[0])))
    left = conv_compose(f, c, m, conv_tensor(f, c, m, ida))
    right = conv_compose(f, c, m, conv_tensor(f, c, ida, m))
    return left == right


def is_unit(f: Field, c: Coalg, m: list, u: list) -> bool:
    ida = conv_identity(f, c, identity(f, len(m[0])))
    return (
        conv_compose(f, c, m, conv_tensor(f, c, u, ida)) == ida
        and conv_compose(f, c, m, conv_tensor(f, c, ida, u)) == ida
    )


# -- spec documents ---------------------------------------------------------------------


def fmt_matrix(f: Field, m: list) -> list:
    return [[f.fmt(x) for x in row] for row in m]


def spec_doc(f: Field, **blocks) -> dict:
    doc = {"schema": "convdef-spec v1", "field": f.name}
    doc.update({k: v for k, v in blocks.items() if v})
    return doc


def dump(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def algebra_block(f: Field, over: Coalg, over_name: str, comps: list, unit: Optional[list] = None) -> dict:
    block = {
        "over": over_name,
        "dim": len(comps[0]),
        "mult": {over.names[i]: fmt_matrix(f, m) for i, m in enumerate(comps) if not is_zero(m)},
    }
    if unit is not None:
        block["unit"] = {"1": [f.fmt(x) for x in unit]}
    return block


# -- operations -------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI call: argv with {dir} placeholders, the files it reads, and its check."""

    name: str
    argv: list
    files: dict = dc_field(default_factory=dict)
    expect_exit: int = 0
    check: Optional[tuple] = None  # (kind, params) interpreted by checks.py
    known_defect: bool = False


def _rng(workload: str, seed: int, pass_index: int, op_name: str) -> random.Random:
    key = f"{workload}|{seed}|{pass_index}|{op_name}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


# Hochschild cohomology ops: (algebra, degree, field, basis kind).
HOCHSCHILD = [
    ("trunc2", 1, "Q", "sparse"),
    ("trunc2", 2, "Q", "sparse"),
    ("trunc2", 3, "Q", "sparse"),
    ("trunc3", 1, "Q", "sparse"),
    ("trunc3", 2, "Q", "sparse"),
    ("sqz2", 2, "Q", "sparse"),
    ("mat2", 1, "Q", "sparse"),
    ("trunc3", 2, "Q", "dense"),
    ("sqz2", 2, "Q", "dense"),
    ("mat2", 2, f"F{BIG_PRIME}", "sparse"),
    ("mat2", 2, f"F{BIG_PRIME}", "dense"),
    ("trunc3", 3, f"F{BIG_PRIME}", "sparse"),
    ("trunc4", 2, f"F{BIG_PRIME}", "dense"),
]


def hochschild_ops(seed: int, pass_index: int) -> list[Op]:
    ops = []
    for alg, n, fname, kind in HOCHSCHILD:
        name = f"hh.{alg}.n{n}.{fname}.{kind}"
        f = field_named(fname)
        m, unit = ALGEBRAS[alg](f)
        p, pinv = change(f, len(unit), kind, _rng("hochschild", seed, pass_index, name))
        doc = spec_doc(
            f,
            coalgebras={"K": K.spec()},
            algebras={"A": algebra_block(f, K, "K", [transport(f, m, p, pinv)], mvec(f, pinv, unit))},
        )
        ops.append(Op(
            name, ["cohomology", "{dir}/spec.json", "--degree", str(n), "--out", "{dir}/out.json"],
            {"spec.json": dump(doc)}, 0, ("hochschild", {"algebra": alg, "degree": n, "field": fname}),
        ))
    f = QQ
    m, unit = truncated_poly(f, 2)
    plain = dump(spec_doc(f, coalgebras={"K": K.spec()}, algebras={"A": algebra_block(f, K, "K", [m], unit)}))
    for bad in ("-1", "abc"):
        ops.append(Op(
            f"err.degree[{bad}]", ["cohomology", "{dir}/spec.json", f"--degree={bad}", "--out", "{dir}/out.json"],
            {"spec.json": plain}, 1, None, known_defect=True,
        ))
    return ops


def _transport_all(f: Field, comps: list, p: list, pinv: list) -> list:
    return [transport(f, m, p, pinv) for m in comps]


def _dual_numbers_x2_t(f: Field) -> list:
    """m(1) = the dual numbers k[x]/(x^2), m(t) = x (x) x -> 1: the first-order x^2 = t."""
    m0, _unit = truncated_poly(f, 2)
    m1 = _mult_from(f, 2, {(1, 1): [(0, 1)]})
    return [m0, m1]


def _obstructed(f: Field) -> list:
    """k[x,y]/(x,y)^2 with first-order term y x -> t y: its obstruction class is nonzero."""
    m0, _unit = square_zero(f, 2)
    m1 = _mult_from(f, 3, {(2, 1): [(2, 1)]})
    return [m0, m1]


def _extension_spec(f: Field, full: Coalg, comps: list, layer: int) -> bytes:
    """An algebra over C = full_{<layer} with the extension data of the next layer."""
    base = truncate(full, layer)
    comodule, cocycle = layer_blocks(full, layer)
    return dump(spec_doc(
        f,
        coalgebras={"C": base.spec()},
        comodules={"X": comodule},
        cocycles={"w": cocycle},
        algebras={"A": algebra_block(f, base, "C", comps)},
    ))


def _series_spec(f: Field, d: Coalg, m0: list, unit: list) -> bytes:
    return dump(spec_doc(
        f,
        coalgebras={"K": K.spec(), "D": d.spec()},
        algebras={"A0": algebra_block(f, K, "K", [m0], unit)},
    ))


# deform, obstruct and classify on x^2 = t along k[t]_{<=2}, per field.
DEFORM_FIELDS = ("F2", "F3", "Q")


def deform_ops(seed: int, pass_index: int) -> list[Op]:
    ops = []

    def rng(name):
        return _rng("deform", seed, pass_index, name)

    kt2 = poly_coalgebra(1, 2)
    for fname in DEFORM_FIELDS:
        f = field_named(fname)
        kind = "sparse" if fname == "Q" else "dense"
        for cmd in ("deform", "obstruct", "classify"):
            name = f"{cmd}.x2t.{fname}"
            p, pinv = change(f, 2, kind, rng(name))
            spec = _extension_spec(f, kt2, _transport_all(f, _dual_numbers_x2_t(f), p, pinv), 2)
            ops.append(Op(
                name, [cmd, "{dir}/spec.json", "--algebra", "A", "--cocycle", "w", "--out", "{dir}/out.json"],
                {"spec.json": spec}, 0, ("table", {}),
            ))
    poly22 = poly_coalgebra(2, 2)
    for fname in ("F2", "F3"):
        f = field_named(fname)
        name = f"classify.poly2.{fname}"
        p, pinv = change(f, 2, "dense", rng(name))
        m0, _unit = truncated_poly(f, 2)
        comps = [transport(f, m0, p, pinv)] + [zeros(f, 2, 4)] * 2
        ops.append(Op(
            name, ["classify", "{dir}/spec.json", "--algebra", "A", "--cocycle", "w", "--out", "{dir}/out.json"],
            {"spec.json": _extension_spec(f, poly22, comps, 2)}, 0, ("table", {}),
        ))
    # series: (name, field, coalgebra, algebra, max degree, strategy)
    series = [
        ("series.all.t2.F2", "F2", kt2, "trunc2", 2, "all"),
        ("series.all.t2.F3", "F3", kt2, "trunc2", 2, "all"),
        ("series.first.t4.Q", "Q", poly_coalgebra(1, 4), "trunc2", 4, "first"),
        ("series.first.poly22.Q", "Q", poly22, "trunc2", 2, "first"),
        ("series.first.trunc3.t2.F3", "F3", kt2, "trunc3", 2, "first"),
        ("series.file.t2.Q", "Q", kt2, "trunc2", 2, "file"),
    ]
    for name, fname, d, alg, n_max, strategy in series:
        f = field_named(fname)
        m0, unit = ALGEBRAS[alg](f)
        a = len(unit)
        p, pinv = change(f, a, "sparse" if fname == "Q" else "dense", rng(name))
        m0, unit = transport(f, m0, p, pinv), mvec(f, pinv, unit)
        files = {"spec.json": _series_spec(f, d, m0, unit)}
        argv = ["series", "{dir}/spec.json", "--algebra", "A0", "--coalgebra", "D", "--max-degree", str(n_max)]
        if strategy == "file":
            # the x^2 = t solution of the README, moved to the new basis
            nu = transport(f, _mult_from(f, 2, {(1, 1): [(0, 1)]}), p, pinv)
            files["cochains.json"] = dump({"1": [fmt_matrix(f, nu)]})
            argv += ["--strategy", "file:{dir}/cochains.json"]
        else:
            argv += ["--strategy", strategy]
        check = ("series", {"field": f, "coalgebra": d, "m0": m0})
        ops.append(Op(name, argv + ["--out", "{dir}/out.json"], files, 0, check))
    f = QQ
    name = "deform.obstructed.Q"
    p, pinv = change(f, 3, "sparse", rng(name))
    ops.append(Op(
        name, ["deform", "{dir}/spec.json", "--algebra", "A", "--cocycle", "w", "--out", "{dir}/out.json"],
        {"spec.json": _extension_spec(f, poly_coalgebra(1, 2), _transport_all(f, _obstructed(f), p, pinv), 2)},
        2, ("table", {}),
    ))
    ops.extend(spec_error_ops("deform"))
    return ops


def spec_error_ops(command: str) -> list[Op]:
    """Malformed spec files; each must be refused with exit code 1."""
    m0, unit = truncated_poly(QQ, 2)
    good = spec_doc(QQ, coalgebras={"C": K.spec()}, algebras={"A": algebra_block(QQ, K, "C", [m0], unit)})
    as_list = dict(good, coalgebras=[good["coalgebras"]["C"]])
    with_float = json.loads(json.dumps(good))
    with_float["algebras"]["A"]["mult"]["1"][0][0] = 1.0
    unknown_ref = dict(good, algebras={"A": dict(good["algebras"]["A"], over="Z")})
    argv = [command, "{dir}/spec.json", "--out", "{dir}/out.json"]
    cases = [
        ("coalgebras-list", dump(as_list), True),
        ("non-utf8", b'{"schema": "convdef-spec v1", "field": "Q\xff\xfe"}\n', True),
        ("float-scalar", dump(with_float), False),
        ("unknown-reference", dump(unknown_ref), False),
    ]
    ops = [Op(f"err.{label}", argv, {"spec.json": body}, 1, None, known_defect=defect) for label, body, defect in cases]
    ops.append(Op("err.missing-file", [command, "{dir}/absent.json", "--out", "{dir}/out.json"], {}, 1, None))
    return ops


# -- gauge: convolution inverses and unit normalization ------------------------------


def _morphism_block(f: Field, c: Coalg, comps: list) -> dict:
    a = len(comps[0])
    return {
        "over": "D", "a_dim": a, "source_arity": 1, "target_arity": 1,
        "components": {c.names[i]: fmt_matrix(f, m) for i, m in enumerate(comps) if not is_zero(m)},
    }


# invert: (name, field, coalgebra, a_dim, singular)
INVERT = [
    ("invert.t4.a2.Q", "Q", (1, 4), 2, False),
    ("invert.t6.a2.Q", "Q", (1, 6), 2, False),
    ("invert.t4.a3.Q", "Q", (1, 4), 3, False),
    ("invert.t6.a3.Q", "Q", (1, 6), 3, False),
    (f"invert.t6.a2.F{BIG_PRIME}", f"F{BIG_PRIME}", (1, 6), 2, False),
    ("invert.poly23.a2.Q", "Q", (2, 3), 2, False),
    ("invert.singular.t4.a2.Q", "Q", (1, 4), 2, True),
]

# unit-gauge: (algebra, N)
UNIT_GAUGE = [(alg, n) for alg in ("trunc2", "trunc3") for n in (3, 4)]


def _fixed_matrices(f: Field, a: int, count: int, name: str) -> list:
    """Small random a x a matrices that depend on the instance name alone."""
    rng = _rng("fixed", 0, 0, name)
    return [[[f.small(rng) for _ in range(a)] for _ in range(a)] for _ in range(count)]


def gauge_ops(seed: int, pass_index: int) -> list[Op]:
    ops = []
    for name, fname, (r, n_max), a, singular in INVERT:
        f = field_named(fname)
        c = poly_coalgebra(r, n_max)
        # f = S (D, B_1, B_2, ...) S' for fixed D and B_k: fresh bytes, same work
        d = unimodular(f, a)
        if singular:
            d[a - 1] = [f.norm(2 * x) for x in d[0]]
        base = [d] + _fixed_matrices(f, a, c.dim - 1, name)
        rng = _rng("gauge", seed, pass_index, name)
        s1, _ = signed_permutation(f, a, rng)
        s2, _ = signed_permutation(f, a, rng)
        comps = [matmul(f, s1, matmul(f, b, s2)) for b in base]
        spec = dump(spec_doc(f, coalgebras={"D": c.spec()}, morphisms={"f": _morphism_block(f, c, comps)}))
        ops.append(Op(
            name, ["invert", "{dir}/spec.json", "--morphism", "f", "--out", "{dir}/out.json"], {"spec.json": spec},
            2 if singular else 0, None if singular else ("invert", {"field": f, "coalgebra": c, "f": comps}),
        ))
    f = QQ
    for alg, n_max in UNIT_GAUGE:
        name = f"unit-gauge.{alg}.t{n_max}.Q"
        rng = _rng("gauge", seed, pass_index, name)
        m0, unit = ALGEBRAS[alg](f)
        a = len(unit)
        p, pinv = monomial_change(f, a, rng)
        m0, unit = transport(f, m0, p, pinv), mvec(f, pinv, unit)
        d = poly_coalgebra(1, n_max)
        gauge = [identity(f, a)] + [conjugate(f, b, p, pinv) for b in _fixed_matrices(f, a, n_max, name)]
        m_f = gauge_transport(f, d, [m0] + [zeros(f, a, a * a)] * n_max, gauge)
        spec = dump(spec_doc(
            f,
            coalgebras={"K": K.spec(), "D": d.spec()},
            algebras={"A0": algebra_block(f, K, "K", [m0], unit), "At": algebra_block(f, d, "D", m_f)},
        ))
        ops.append(Op(
            name, ["unit-gauge", "{dir}/spec.json", "--algebra", "At", "--base-algebra", "A0", "--out", "{dir}/out.json"],
            {"spec.json": spec}, 0, ("unit_gauge", {"field": f, "coalgebra": d, "m": m_f, "unit": unit}),
        ))
    ops.extend(op for op in spec_error_ops("invert") if op.name == "err.coalgebras-list")
    return ops


def gauge_transport(f: Field, c: Coalg, m: list, gauge: list) -> list:
    """f^-1 * m * (f (x) f) over k[t]_{<=N}, with f^-1 from the power-series inverse."""
    inv = series_inverse(f, gauge)
    return conv_compose(f, c, conv_compose(f, c, inv, m), conv_tensor(f, c, gauge, gauge))


WORKLOADS: dict[str, Callable[[int, int], list[Op]]] = {
    "hochschild": hochschild_ops,
    "deform": deform_ops,
    "gauge": gauge_ops,
}


def ops_for(workload: str, seed: int, pass_index: int) -> list[Op]:
    return WORKLOADS[workload](seed, pass_index)


def digest_ops(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.name, op.argv, op.expect_exit], sort_keys=True).encode())
        for fname in sorted(op.files):
            h.update(fname.encode() + b"\0" + op.files[fname] + b"\0")
    return h.hexdigest()
