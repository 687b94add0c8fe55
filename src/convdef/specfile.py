"""The batch input format: a self-contained JSON document.

One file declares a base field, named coalgebras (sparse Delta triples by
basis name), comodules, 2-cocycles, algebras (per-basis multiplication
matrices), morphisms, and a task block with command defaults.  Scalars
are exact: integers or strings like "3/2".  `parse` returns a validated
object graph or a SpecFileError whose kind distinguishes io, syntax,
reference, dimension and axiom failures; `serialize` is the exact
inverse on domain objects and is byte-deterministic.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _esc
from typing import Any

from .coalgebra import Coalgebra
from .cohomology import Cochain, is_associative
from .convolution import ConvMorphism, MultiMap
from .deformation import AlgebraMC, is_unit_of
from .errors import ConvDefError, SpecFileError
from .extension import Cocycle2, Comodule
from .fields import Field, field_by_name
from .linalg import _Record

SCHEMA = "convdef-spec v1"
REPORT_SCHEMA = "convdef-report v1"
# The task block's keys: `command` and the defaults the CLI reads.
TASK_KEYS = ("command", "algebra", "base_algebra", "coalgebra", "cocycle", "comodule", "degree", "max_degree",
             "morphism", "strategy")
# Entries of one dense component matrix; the largest any fixture, test or benchmark builds is 729 (M_3).
MAX_ENTRIES = 2**20


class SpecFile(_Record):
    """A parsed document; `checks` maps (kind, name) to the axiom check of that block, run once at parse
    (a CoalgebraReport, else failed axioms).  A table not given starts empty; mutable, so never hashed."""

    __slots__ = _fields = ("field", "coalgebras", "comodules", "cocycles", "algebras", "morphisms", "task", "checks")
    __hash__ = None

    def __init__(self, field: Field, coalgebras=None, comodules=None, cocycles=None, algebras=None, morphisms=None,
                 task=None, checks=None):
        tables = (coalgebras, comodules, cocycles, algebras, morphisms, task, checks)
        self.field = field
        self.coalgebras, self.comodules, self.cocycles, self.algebras, self.morphisms, self.task, self.checks = (
            {} if table is None else table for table in tables)


def _need(obj: dict, key: str, kind: str, where: str):
    if key not in obj:
        raise SpecFileError(kind, f"missing key {key!r} in {where}")
    return obj[key]


def _is_name(x, table) -> bool:
    """True when x is a string naming an entry of table; JSON may put any value there."""
    return isinstance(x, str) and x in table


def _entries(block: dict, key: str, where: str, shape: str, required: bool = True) -> list:
    """The [src, a, b, coeff] entries of a delta, coaction or omega list."""
    entries = _need(block, key, "dimension", where) if required else block.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 4 for e in entries):
        raise SpecFileError("dimension", f"{where}: {key} entries are {shape}")
    return entries


def _scalar(f: Field, x, where: str, lits: dict):
    """The field element of the literal x, parsed once per document: `lits` holds the values parsed so far.

    A literal that raises is not kept, so every occurrence raises with its own `where`.
    """
    if isinstance(x, bool) or isinstance(x, float):
        raise SpecFileError("syntax", f"non-exact scalar literal {x!r} in {where}")
    if not isinstance(x, (int, str)):
        raise SpecFileError("syntax", f"bad scalar literal {x!r} in {where}")
    if x in lits:  # bools and floats, which hash like ints, were refused above
        return lits[x]
    try:
        v = lits[x] = f.coerce(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SpecFileError("syntax", f"bad scalar {x!r} in {where}: {exc}") from exc
    return v


def _multimap(f: Field, rows_spec, a_dim: int, src_arity: int, tgt_arity: int, where: str, lits: dict) -> MultiMap:
    """A map A^(x)p -> A^(x)q from its a^q x a^p matrix of scalar literals, kept as its nonzero entries."""
    nrows, ncols = a_dim**tgt_arity, a_dim**src_arity
    if not isinstance(rows_spec, list) or len(rows_spec) != nrows:
        raise SpecFileError("dimension", f"{where} must be a {nrows}x{ncols} matrix")
    entries = {}
    for r, row in enumerate(rows_spec):
        if not isinstance(row, list) or len(row) != ncols:
            raise SpecFileError("dimension", f"{where} must be a {nrows}x{ncols} matrix")
        for col, x in enumerate(row):
            v = _scalar(f, x, where, lits)
            if v:
                entries[(r, col)] = v
    return MultiMap(f, a_dim, src_arity, tgt_arity, entries)


def _vector(f: Field, vec_spec, n: int, where: str, lits: dict):
    if not isinstance(vec_spec, list) or len(vec_spec) != n:
        raise SpecFileError("dimension", f"{where} must be a vector of length {n}")
    return [_scalar(f, x, where, lits) for x in vec_spec]


def _require_small(where: str, a_dim: int, src_arity: int, tgt_arity: int) -> None:
    """Refuse maps A^(x)p -> A^(x)q whose a^q x a^p component matrices would exceed MAX_ENTRIES entries."""
    n = src_arity + tgt_arity
    if a_dim > 1 and (n > 20 or a_dim**n > MAX_ENTRIES):  # a >= 2 and n > 20 already exceed 2^20
        raise SpecFileError("dimension", f"{where}: maps A^(x){src_arity} -> A^(x){tgt_arity} with dim A = {a_dim} "
                            f"have {a_dim}^{n} entries per component, more than {MAX_ENTRIES}")


def _parse_coalgebra(f: Field, name: str, block: dict, lits: dict) -> Coalgebra:
    where = f"coalgebra {name!r}"
    basis = _need(block, "basis", "dimension", where)
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis) or not basis:
        raise SpecFileError("dimension", f"{where}: basis must be a nonempty list of names")
    if len(set(basis)) != len(basis):
        raise SpecFileError("reference", f"{where}: duplicate basis names")
    index = {b: i for i, b in enumerate(basis)}

    def look(n_: str, what: str) -> int:
        if not _is_name(n_, index):
            raise SpecFileError("reference", f"{where}: {what} references unknown basis name {n_!r}")
        return index[n_]

    delta = [[] for _ in basis]
    for src, left, right, coeff in _entries(block, "delta", where, "[src, left, right, coeff]"):
        delta[look(src, "delta")].append(
            (look(left, "delta"), look(right, "delta"), _scalar(f, coeff, where, lits))
        )
    counit_spec = block.get("counit", {})
    if not isinstance(counit_spec, dict):
        raise SpecFileError("dimension", f"{where}: counit must map basis names to scalars")
    counit = [f.zero] * len(basis)
    for n_, v in counit_spec.items():
        counit[look(n_, "counit")] = _scalar(f, v, where, lits)
    grading = None
    if "degrees" in block:
        deg_spec = block["degrees"]
        if not isinstance(deg_spec, dict):
            raise SpecFileError("dimension", f"{where}: degrees must map basis names to integers")
        grading = [0] * len(basis)
        for n_, v in deg_spec.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise SpecFileError("dimension", f"{where}: degree of {n_!r} must be a nonnegative int")
            grading[look(n_, "degrees")] = v
    return Coalgebra(f, basis, delta, counit, grading=grading)


def _parse_comodule(f: Field, name: str, block: dict, coalgebras: dict[str, Coalgebra], lits: dict) -> Comodule:
    where = f"comodule {name!r}"
    base_name = _need(block, "base", "reference", where)
    if not _is_name(base_name, coalgebras):
        raise SpecFileError("reference", f"{where}: unknown coalgebra {base_name!r}")
    base = coalgebras[base_name]
    basis = _need(block, "basis", "dimension", where)
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis) or not basis:
        raise SpecFileError("dimension", f"{where}: basis must be a nonempty list of names")
    xindex = {b: i for i, b in enumerate(basis)}
    cindex = {b: i for i, b in enumerate(base.names)}
    coaction = [[] for _ in basis]
    for triple in _entries(block, "coaction", where, "[src, x, c, coeff]"):
        src, xo, co, coeff = triple
        if not (_is_name(src, xindex) and _is_name(xo, xindex)):
            raise SpecFileError("reference", f"{where}: unknown X basis name in {triple[:3]!r}")
        if not _is_name(co, cindex):
            raise SpecFileError("reference", f"{where}: unknown coalgebra basis name {co!r}")
        coaction[xindex[src]].append((xindex[xo], cindex[co], _scalar(f, coeff, where, lits)))
    return Comodule(base, len(basis), coaction)


def _parse_cocycle(
    f: Field, name: str, block: dict, comodules: dict[str, Comodule], xnames: dict[str, list[str]], lits: dict
) -> Cocycle2:
    where = f"cocycle {name!r}"
    com_name = _need(block, "comodule", "reference", where)
    if not _is_name(com_name, comodules):
        raise SpecFileError("reference", f"{where}: unknown comodule {com_name!r}")
    com = comodules[com_name]
    names = xnames[com_name]
    xindex = {b: i for i, b in enumerate(names)}
    cindex = {b: i for i, b in enumerate(com.base.names)}
    omega = [[] for _ in range(com.dim)]
    for triple in _entries(block, "omega", where, "[src, c, c, coeff]", required=False):
        src, ca, cb, coeff = triple
        if not _is_name(src, xindex):
            raise SpecFileError("reference", f"{where}: unknown X basis name {src!r}")
        if not (_is_name(ca, cindex) and _is_name(cb, cindex)):
            raise SpecFileError("reference", f"{where}: unknown coalgebra basis name in {triple!r}")
        omega[xindex[src]].append((cindex[ca], cindex[cb], _scalar(f, coeff, where, lits)))
    return Cocycle2(com, omega)


def _parse_algebra(f: Field, name: str, block: dict, coalgebras: dict[str, Coalgebra], lits: dict) -> AlgebraMC:
    where = f"algebra {name!r}"
    over = _need(block, "over", "reference", where)
    if not _is_name(over, coalgebras):
        raise SpecFileError("reference", f"{where}: unknown coalgebra {over!r}")
    c = coalgebras[over]
    dim = block.get("dim")
    if dim is None and isinstance(block.get("basis"), list):
        dim = len(block["basis"])
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecFileError("dimension", f"{where}: positive dimension required (dim or basis)")
    _require_small(where, dim, 2, 1)
    mult = block.get("mult", {})
    if not isinstance(mult, dict):
        raise SpecFileError("dimension", f"{where}: mult must map coalgebra basis names to matrices")
    comps = []
    for i, cname in enumerate(c.names):
        if cname in mult:
            comps.append(_multimap(f, mult[cname], dim, 2, 1, f"{where}.mult[{cname}]", lits))
        else:
            comps.append(MultiMap.zero(f, dim, 2, 1))
    for key in mult:
        if key not in c.names:
            raise SpecFileError("reference", f"{where}: mult references unknown basis name {key!r}")
    m = ConvMorphism(c, tuple(comps))
    unit = None
    if "unit" in block:
        unit_spec = block["unit"]
        if not isinstance(unit_spec, dict):
            raise SpecFileError("dimension", f"{where}: unit must map basis names to vectors")
        ucomps = []
        for cname in c.names:
            if cname in unit_spec:
                vec = _vector(f, unit_spec[cname], dim, f"{where}.unit[{cname}]", lits)
                ucomps.append(MultiMap(f, dim, 0, 1, {(r, 0): v for r, v in enumerate(vec) if v}))
            else:
                ucomps.append(MultiMap.zero(f, dim, 0, 1))
        for key in unit_spec:
            if key not in c.names:
                raise SpecFileError("reference", f"{where}: unit references unknown basis name {key!r}")
        unit = ConvMorphism(c, tuple(ucomps))
    return AlgebraMC(m=m, unit=unit)


def _parse_morphism(f: Field, name: str, block: dict, coalgebras: dict[str, Coalgebra], lits: dict) -> ConvMorphism:
    where = f"morphism {name!r}"
    over = _need(block, "over", "reference", where)
    if not _is_name(over, coalgebras):
        raise SpecFileError("reference", f"{where}: unknown coalgebra {over!r}")
    c = coalgebras[over]
    a_dim = _need(block, "a_dim", "dimension", where)
    p = block.get("source_arity", 1)
    q = block.get("target_arity", 1)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (a_dim, p, q)) or a_dim < 1:
        raise SpecFileError("dimension", f"{where}: a_dim, source_arity, target_arity must be ints")
    _require_small(where, a_dim, p, q)
    comp_spec = block.get("components", {})
    if not isinstance(comp_spec, dict):
        raise SpecFileError("dimension", f"{where}: components must map basis names to matrices")
    comps = []
    for cname in c.names:
        if cname in comp_spec:
            comps.append(_multimap(f, comp_spec[cname], a_dim, p, q, f"{where}[{cname}]", lits))
        else:
            comps.append(MultiMap.zero(f, a_dim, p, q))
    for key in comp_spec:
        if key not in c.names:
            raise SpecFileError("reference", f"{where}: component for unknown basis name {key!r}")
    return ConvMorphism(c, tuple(comps))


def _axiom_failures(sf: SpecFile) -> list[str]:
    """Run the axiom check of every block once, keep each result in `sf.checks`, and list the failures."""
    for name, c in sf.coalgebras.items():
        sf.checks["coalgebra", name] = c.validate()
    for name, com in sf.comodules.items():
        sf.checks["comodule", name] = com.validate()
    for name, w in sf.cocycles.items():
        sf.checks["cocycle", name] = w.validate()
    for name, alg in sf.algebras.items():
        bad = [] if is_associative(alg.m) else ["associativity"]
        if alg.unit is not None and not is_unit_of(alg.m, alg.unit):
            bad.append("unit axioms")
        sf.checks["algebra", name] = bad
    return [
        f"{kind} {name!r}: {item}"
        for (kind, name), result in sf.checks.items()
        for item in (result.failures() if kind == "coalgebra" else result)
    ]


def _section(doc: dict, key: str) -> list[tuple[str, dict]]:
    """The named blocks of one top-level section, sorted by name."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise SpecFileError("syntax", f"{key!r} must be an object of named blocks")
    for name, block in section.items():
        if not isinstance(block, dict):
            raise SpecFileError("syntax", f"{key!r} block {name!r} must be an object")
    return sorted(section.items())


def parse_text(text: str, strict: bool = True) -> tuple[SpecFile, list[str]]:
    """Parse and validate a spec document.

    Returns (specfile, axiom_failures).  With strict=True any axiom
    failure raises; structural problems (syntax, references, dimensions)
    always raise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError("syntax", exc.msg, line=exc.lineno, col=exc.colno) from exc
    except ValueError as exc:  # an integer literal past Python's int-string limit
        raise SpecFileError("syntax", _too_long()) from exc
    if not isinstance(doc, dict):
        raise SpecFileError("syntax", "top level must be an object", line=1, col=1)
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise SpecFileError("syntax", f"unknown schema {doc.get('schema')!r}")
    fname = _need(doc, "field", "syntax", "document")
    try:
        f = field_by_name(fname) if isinstance(fname, str) else None
    except ValueError as exc:
        raise SpecFileError("syntax", str(exc)) from exc
    if f is None:
        raise SpecFileError("syntax", f"bad field block {fname!r}")
    lits: dict = {}  # each distinct scalar literal of this document, parsed once
    coalgebras: dict[str, Coalgebra] = {}
    for name, block in _section(doc, "coalgebras"):
        coalgebras[name] = _parse_coalgebra(f, name, block, lits)
    comodules: dict[str, Comodule] = {}
    xnames: dict[str, list[str]] = {}
    for name, block in _section(doc, "comodules"):
        comodules[name] = _parse_comodule(f, name, block, coalgebras, lits)
        xnames[name] = list(block["basis"])
    cocycles: dict[str, Cocycle2] = {}
    for name, block in _section(doc, "cocycles"):
        cocycles[name] = _parse_cocycle(f, name, block, comodules, xnames, lits)
    algebras: dict[str, AlgebraMC] = {}
    for name, block in _section(doc, "algebras"):
        algebras[name] = _parse_algebra(f, name, block, coalgebras, lits)
    morphisms: dict[str, ConvMorphism] = {}
    for name, block in _section(doc, "morphisms"):
        morphisms[name] = _parse_morphism(f, name, block, coalgebras, lits)
    task = doc.get("task", {})
    if not isinstance(task, dict):
        raise SpecFileError("syntax", "task block must be an object")
    stray = [key for key in task if key not in TASK_KEYS]
    if stray:
        raise SpecFileError("syntax", f"unknown task key {stray[0]!r}")
    sf = SpecFile(
        field=f,
        coalgebras=coalgebras,
        comodules=comodules,
        cocycles=cocycles,
        algebras=algebras,
        morphisms=morphisms,
        task=task,
    )
    failures = _axiom_failures(sf)
    if strict and failures:
        raise SpecFileError("axiom", "; ".join(failures))
    return sf, failures


def parse_path(path: str, strict: bool = True) -> tuple[SpecFile, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError("io", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError("syntax", f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_text(text, strict=strict)


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError("io", f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError("syntax", f"{what} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError("syntax", f"{what}: {exc.msg}", exc.lineno, exc.colno) from exc
    except ValueError as exc:
        raise SpecFileError("syntax", f"{what}: {_too_long()}") from exc


def _too_long() -> str:
    return f"integer literal with more than {sys.get_int_max_str_digits()} digits"


def parse_cochain_file(path: str, f: Field, a_dim: int) -> dict[int, list[MultiMap]]:
    """The `--strategy file:` document: degree -> one map A (x) A -> A (an a x a^2 matrix) per layer element."""
    doc = _read_json(path, "cochain file")
    if not isinstance(doc, dict):
        raise SpecFileError("syntax", "cochain file must map degrees to lists of matrices")
    out, lits = {}, {}
    for key, mats in doc.items():
        try:
            degree = int(key)
        except ValueError as exc:
            raise SpecFileError("syntax", f"cochain file: degree {key!r} is not an integer") from exc
        if not isinstance(mats, list):
            raise SpecFileError(
                "dimension", f"cochain file: degree {degree} needs one matrix per layer element"
            )
        where = f"cochain file degree {degree}"
        out[degree] = [_multimap(f, m, a_dim, 2, 1, where, lits) for m in mats]
    return out


# -- serialization ----------------------------------------------------------


def _fmt_map(m: MultiMap) -> list[list[str]]:
    """The dense matrix as strings, formatting only the nonzero entries (each still through `fmt`'s digit limit)."""
    fmt, cols = m.field.fmt, m.a_dim**m.src_arity
    zero = fmt(m.field.zero)
    out = [[zero] * cols for _ in range(m.a_dim**m.tgt_arity)]
    for (r, col), v in m.entries.items():
        out[r][col] = fmt(v)
    return out


def _coalgebra_dict(c: Coalgebra) -> dict:
    f = c.field
    out: dict[str, Any] = {
        "basis": list(c.names),
        "delta": [
            [c.names[i], c.names[j], c.names[k], f.fmt(v)]
            for i in range(c.dim)
            for j, k, v in c.delta[i]
        ],
        "counit": {c.names[i]: f.fmt(v) for i, v in enumerate(c.counit) if not f.is_zero(v)},
    }
    if c.grading is not None:
        out["degrees"] = {c.names[i]: c.grading[i] for i in range(c.dim)}
    return out


def _comodule_dict(com: Comodule, coalgebras: dict[str, Coalgebra]) -> dict:
    f = com.base.field
    base_name = _name_of(com.base, coalgebras, "comodule base")
    names = [f"x{i}" for i in range(com.dim)]
    return {
        "base": base_name,
        "basis": names,
        "coaction": [
            [names[s], names[t], com.base.names[u], f.fmt(v)]
            for s in range(com.dim)
            for t, u, v in com.coaction[s]
        ],
    }


def _name_of(obj, table: dict, what: str) -> str:
    for name, cand in table.items():
        if cand == obj:
            return name
    raise ConvDefError(f"cannot serialize: {what} is not a named block")


def specfile_to_dict(sf: SpecFile) -> dict:
    f = sf.field
    doc: dict[str, Any] = {"schema": SCHEMA, "field": f.name}
    if sf.coalgebras:
        doc["coalgebras"] = {n: _coalgebra_dict(c) for n, c in sorted(sf.coalgebras.items())}
    if sf.comodules:
        doc["comodules"] = {
            n: _comodule_dict(c, sf.coalgebras) for n, c in sorted(sf.comodules.items())
        }
    if sf.cocycles:
        doc["cocycles"] = {}
        for n, w in sorted(sf.cocycles.items()):
            com_name = _name_of(w.comodule, sf.comodules, "cocycle comodule")
            xn = [f"x{i}" for i in range(w.comodule.dim)]
            doc["cocycles"][n] = {
                "comodule": com_name,
                "omega": [
                    [xn[s], w.comodule.base.names[j], w.comodule.base.names[k], f.fmt(v)]
                    for s in range(w.comodule.dim)
                    for j, k, v in w.omega[s]
                ],
            }
    if sf.algebras:
        doc["algebras"] = {}
        for n, alg in sorted(sf.algebras.items()):
            over = _name_of(alg.coalgebra, sf.coalgebras, "algebra base coalgebra")
            block: dict[str, Any] = {"over": over, "dim": alg.a_dim, "mult": {}}
            for cname, comp in zip(alg.coalgebra.names, alg.m.components):
                if not comp.is_zero():
                    block["mult"][cname] = _fmt_map(comp)
            if alg.unit is not None:
                block["unit"] = {}
                for cname, comp in zip(alg.coalgebra.names, alg.unit.components):
                    if not comp.is_zero():
                        block["unit"][cname] = [row[0] for row in _fmt_map(comp)]
            doc["algebras"][n] = block
    if sf.morphisms:
        doc["morphisms"] = {}
        for n, mor in sorted(sf.morphisms.items()):
            over = _name_of(mor.coalgebra, sf.coalgebras, "morphism base coalgebra")
            block = {
                "over": over,
                "a_dim": mor.a_dim,
                "source_arity": mor.src_arity,
                "target_arity": mor.tgt_arity,
                "components": {},
            }
            for cname, comp in zip(mor.coalgebra.names, mor.components):
                if not comp.is_zero():
                    block["components"][cname] = _fmt_map(comp)
            doc["morphisms"][n] = block
    if sf.task:
        doc["task"] = sf.task
    return doc


def _write(x, ind: str = "") -> str:
    """The bytes `json.dumps(x, sort_keys=True, indent=2)` writes for `x` (keys `str`) at indent `ind`; a list of strings
    is escaped and joined in one step by `json`'s C escaper, where `indent` takes one pure-Python step per scalar."""
    if isinstance(x, str):
        return _esc(x)
    if not isinstance(x, (dict, list, tuple)):
        return json.dumps(x)
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner = ind + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        body = sep.join([f"{_esc(k)}: {_write(v, inner)}" for k, v in sorted(x.items())])
        return f"{{\n{inner}{body}\n{ind}}}"
    if type(x[0]) is str:
        try:
            return f"[\n{inner}{sep.join(map(_esc, x))}\n{ind}]"
        except TypeError:  # a later item is not a string
            pass
    return f"[\n{inner}{sep.join([_write(v, inner) for v in x])}\n{ind}]"


def serialize(sf: SpecFile) -> str:
    return _write(specfile_to_dict(sf)) + "\n"


# -- report helpers ---------------------------------------------------------


def cochain_to_obj(nu: Cochain) -> list[list[list[str]]]:
    return [_fmt_map(m) for m in nu.maps]


def morphism_to_obj(mor: ConvMorphism) -> dict[str, list[list[str]]]:
    return {name: _fmt_map(comp) for name, comp in zip(mor.coalgebra.names, mor.components)}


def render_report(payload: dict) -> str:
    """Stable machine-readable report: versioned, sorted, all scalars exact strings."""
    return _write({"schema_version": REPORT_SCHEMA, **payload}) + "\n"
