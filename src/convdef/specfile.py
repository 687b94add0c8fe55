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


def _ref(block: dict, key: str, table: dict, what: str, where: str):
    """The entry of `table` (blocks of one kind, by name) that the block's `key` names."""
    name = _need(block, key, "reference", where)
    if not _is_name(name, table):
        raise SpecFileError("reference", f"{where}: unknown {what} {name!r}")
    return table[name]


def _index(names) -> dict[str, int]:
    return {b: i for i, b in enumerate(names)}


def _basis(block: dict, where: str) -> dict[str, int]:
    """The block's `basis`, a nonempty list of distinct names, as the position of each name."""
    basis = _need(block, "basis", "dimension", where)
    if not isinstance(basis, list) or not basis or not all(isinstance(b, str) for b in basis):
        raise SpecFileError("dimension", f"{where}: basis must be a nonempty list of names")
    index = _index(basis)
    if len(index) != len(basis):
        raise SpecFileError("reference", f"{where}: duplicate basis names")
    return index


def _at(index: dict[str, int], name, key: str, where: str) -> int:
    """The position of a name that the block's `key` uses; it must be a name of `index`'s basis."""
    if not _is_name(name, index):
        raise SpecFileError("reference", f"{where}: {key} references unknown basis name {name!r}")
    return index[name]


def _triples(f: Field, block: dict, key: str, bases: tuple, where: str, lits: dict, required: bool = True) -> list:
    """A delta, coaction or omega table: its [src, left, right, coeff] entries as (left, right, coeff) per src,
    each name resolved against its own column's basis in `bases`."""
    entries = _need(block, key, "dimension", where) if required else block.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 4 for e in entries):
        raise SpecFileError("dimension", f"{where}: {key} entries are [src, left, right, coeff]")
    src, left, right = bases
    out = [[] for _ in src]
    for s, j, k, coeff in entries:
        out[_at(src, s, key, where)].append(
            (_at(left, j, key, where), _at(right, k, key, where), _scalar(f, coeff, where, lits)))
    return out


def _per_name(block: dict, key: str, index: dict[str, int], what: str, read, zero, where: str) -> list:
    """The values of the block's `key`, an object mapping basis names to `what`, in basis order: `read(name, value)`
    reads each one given, and a name not given gets `zero`."""
    spec = block.get(key, {})
    if not isinstance(spec, dict):
        raise SpecFileError("dimension", f"{where}: {key} must map basis names to {what}")
    out = [zero] * len(index)
    for name, value in spec.items():
        i = _at(index, name, key, where)  # the name is checked before its value is read
        out[i] = read(name, value)
    return out


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


def _vector(f: Field, vec_spec, n: int, where: str, lits: dict) -> MultiMap:
    """A map k -> A from its length-n vector of scalar literals."""
    if not isinstance(vec_spec, list) or len(vec_spec) != n:
        raise SpecFileError("dimension", f"{where} must be a vector of length {n}")
    return MultiMap(f, n, 0, 1, {(r, 0): v for r, x in enumerate(vec_spec) if (v := _scalar(f, x, where, lits))})


def _degree(name: str, v, where: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise SpecFileError("dimension", f"{where}: degree of {name!r} must be a nonnegative int")
    return v


def _require_small(where: str, a_dim: int, src_arity: int, tgt_arity: int) -> None:
    """Refuse maps A^(x)p -> A^(x)q whose a^q x a^p component matrices would exceed MAX_ENTRIES entries."""
    n = src_arity + tgt_arity
    if a_dim > 1 and (n > 20 or a_dim**n > MAX_ENTRIES):  # a >= 2 and n > 20 already exceed 2^20
        raise SpecFileError("dimension", f"{where}: maps A^(x){src_arity} -> A^(x){tgt_arity} with dim A = {a_dim} "
                            f"have {a_dim}^{n} entries per component, more than {MAX_ENTRIES}")


def _parse_coalgebra(f: Field, name: str, block: dict, lits: dict) -> Coalgebra:
    where = f"coalgebra {name!r}"
    index = _basis(block, where)
    delta = _triples(f, block, "delta", (index, index, index), where, lits)
    counit = _per_name(block, "counit", index, "scalars", lambda _n, v: _scalar(f, v, where, lits), f.zero, where)
    grading = None
    if "degrees" in block:
        grading = _per_name(block, "degrees", index, "integers", lambda n, v: _degree(n, v, where), 0, where)
    return Coalgebra(f, index, delta, counit, grading=grading)


def _parse_comodule(
    f: Field, name: str, block: dict, coalgebras: dict[str, Coalgebra], lits: dict
) -> tuple[Comodule, dict[str, int]]:
    """The comodule and the position of each of its basis names, which its cocycles use."""
    where = f"comodule {name!r}"
    base = _ref(block, "base", coalgebras, "coalgebra", where)
    xindex = _basis(block, where)
    coaction = _triples(f, block, "coaction", (xindex, xindex, _index(base.names)), where, lits)
    return Comodule(base, len(xindex), coaction), xindex


def _parse_cocycle(f: Field, name: str, block: dict, comodules: dict[str, tuple], lits: dict) -> Cocycle2:
    where = f"cocycle {name!r}"
    com, xindex = _ref(block, "comodule", comodules, "comodule", where)
    cindex = _index(com.base.names)
    return Cocycle2(com, _triples(f, block, "omega", (xindex, cindex, cindex), where, lits, required=False))


def _parse_algebra(f: Field, name: str, block: dict, coalgebras: dict[str, Coalgebra], lits: dict) -> AlgebraMC:
    where = f"algebra {name!r}"
    c = _ref(block, "over", coalgebras, "coalgebra", where)
    dim = block.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecFileError("dimension", f"{where}: positive dimension required (dim)")
    _require_small(where, dim, 2, 1)
    index = _index(c.names)
    mult = _per_name(block, "mult", index, "matrices",
                     lambda n, v: _multimap(f, v, dim, 2, 1, f"{where}.mult[{n}]", lits), MultiMap.zero(f, dim, 2, 1),
                     where)
    unit = None
    if "unit" in block:
        unit = ConvMorphism(c, tuple(_per_name(block, "unit", index, "vectors",
                                               lambda n, v: _vector(f, v, dim, f"{where}.unit[{n}]", lits),
                                               MultiMap.zero(f, dim, 0, 1), where)))
    return AlgebraMC(m=ConvMorphism(c, tuple(mult)), unit=unit)


def _parse_morphism(f: Field, name: str, block: dict, coalgebras: dict[str, Coalgebra], lits: dict) -> ConvMorphism:
    where = f"morphism {name!r}"
    c = _ref(block, "over", coalgebras, "coalgebra", where)
    a_dim = _need(block, "a_dim", "dimension", where)
    p = block.get("source_arity", 1)
    q = block.get("target_arity", 1)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (a_dim, p, q)) or a_dim < 1:
        raise SpecFileError("dimension", f"{where}: a_dim, source_arity, target_arity must be ints")
    _require_small(where, a_dim, p, q)
    comps = _per_name(block, "components", _index(c.names), "matrices",
                      lambda n, v: _multimap(f, v, a_dim, p, q, f"{where}[{n}]", lits), MultiMap.zero(f, a_dim, p, q),
                      where)
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
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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
    coalgebras = {name: _parse_coalgebra(f, name, block, lits) for name, block in _section(doc, "coalgebras")}
    # each comodule with the position of its basis names, until its cocycles are read
    comodules = {name: _parse_comodule(f, name, block, coalgebras, lits) for name, block in _section(doc, "comodules")}
    cocycles = {name: _parse_cocycle(f, name, block, comodules, lits) for name, block in _section(doc, "cocycles")}
    algebras = {name: _parse_algebra(f, name, block, coalgebras, lits) for name, block in _section(doc, "algebras")}
    morphisms = {name: _parse_morphism(f, name, block, coalgebras, lits) for name, block in _section(doc, "morphisms")}
    task = doc.get("task", {})
    if not isinstance(task, dict):
        raise SpecFileError("syntax", "task block must be an object")
    stray = [key for key in task if key not in TASK_KEYS]
    if stray:
        raise SpecFileError("syntax", f"unknown task key {stray[0]!r}")
    sf = SpecFile(
        field=f,
        coalgebras=coalgebras,
        comodules={name: com for name, (com, _xindex) in comodules.items()},
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
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SpecFileError("io", f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError("syntax", f"{what} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError("syntax", f"{what}: {exc.msg}", exc.lineno, exc.colno) from exc
    except ValueError as exc:
        raise SpecFileError("syntax", f"{what}: {_too_long()}") from exc


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict, refusing a key given twice, which `json` would read last-wins without a word."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen: set = set()
        twice = next(key for key, _v in pairs if key in seen or seen.add(key))
        raise SpecFileError("syntax", f"key {twice!r} is given twice in one object")
    return out


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
        if degree in out:
            raise SpecFileError("syntax", f"cochain file: degree {degree} is given twice")
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


def _triples_obj(f: Field, table, src, left, right) -> list[list[str]]:
    """The [src, left, right, coeff] entries of a delta, coaction or omega table, each name from its column's basis."""
    return [[src[s], left[j], right[k], f.fmt(v)] for s, row in enumerate(table) for j, k, v in row]


def _per_name_obj(names, values, write, is_zero) -> dict:
    """A per-name map: each basis name whose value is not zero, to `write` of that value."""
    return {n: write(v) for n, v in zip(names, values) if not is_zero(v)}


def _name_of(obj, table: dict, what: str) -> str:
    for name, cand in table.items():
        if cand == obj:
            return name
    raise ConvDefError(f"cannot serialize: {what} is not a named block")


def specfile_to_dict(sf: SpecFile) -> dict:
    f = sf.field
    sections: dict[str, dict] = {key: {} for key in ("coalgebras", "comodules", "cocycles", "algebras", "morphisms")}
    for n, c in sf.coalgebras.items():
        block: dict[str, Any] = {"basis": list(c.names), "delta": _triples_obj(f, c.delta, c.names, c.names, c.names),
                                 "counit": _per_name_obj(c.names, c.counit, f.fmt, f.is_zero)}
        if c.grading is not None:
            block["degrees"] = dict(zip(c.names, c.grading))
        sections["coalgebras"][n] = block
    for n, com in sf.comodules.items():
        xn = [f"x{i}" for i in range(com.dim)]
        sections["comodules"][n] = {"base": _name_of(com.base, sf.coalgebras, "comodule base"), "basis": xn,
                                    "coaction": _triples_obj(f, com.coaction, xn, xn, com.base.names)}
    for n, w in sf.cocycles.items():
        xn, cn = [f"x{i}" for i in range(w.comodule.dim)], w.comodule.base.names
        sections["cocycles"][n] = {"comodule": _name_of(w.comodule, sf.comodules, "cocycle comodule"),
                                   "omega": _triples_obj(f, w.omega, xn, cn, cn)}
    for n, alg in sf.algebras.items():
        cn = alg.coalgebra.names
        block = {"over": _name_of(alg.coalgebra, sf.coalgebras, "algebra base coalgebra"), "dim": alg.a_dim,
                 "mult": _per_name_obj(cn, alg.m.components, _fmt_map, MultiMap.is_zero)}
        if alg.unit is not None:
            block["unit"] = _per_name_obj(cn, alg.unit.components, lambda u: [row[0] for row in _fmt_map(u)],
                                          MultiMap.is_zero)
        sections["algebras"][n] = block
    for n, mor in sf.morphisms.items():
        sections["morphisms"][n] = {
            "over": _name_of(mor.coalgebra, sf.coalgebras, "morphism base coalgebra"), "a_dim": mor.a_dim,
            "source_arity": mor.src_arity, "target_arity": mor.tgt_arity,
            "components": _per_name_obj(mor.coalgebra.names, mor.components, _fmt_map, MultiMap.is_zero),
        }
    doc: dict[str, Any] = {"schema": SCHEMA, "field": f.name}
    doc.update((key, blocks) for key, blocks in sections.items() if blocks)
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
