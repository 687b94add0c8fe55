"""Layering guards read off the library's source with `ast`."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import convdef
from convdef import specfile

SRC = Path(convdef.__file__).resolve().parent


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module binds, reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name.rsplit(".", 1)[-1], node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def test_only_linalg_names_the_dense_matrix():
    # the dense Matrix is the test oracles' type; library code above linalg holds sparse entries
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"linalg.py", "coalgebra.py", "extension.py", "cohomology.py"}
    naming = [p.name for p in modules if "Matrix" in _names(ast.parse(p.read_text(), filename=str(p)))]
    assert naming == ["linalg.py"]


def _attributes(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_subspace_is_the_one_subspace_type():
    # the sparse RREF and the subspace it spans are one class, with no forwarding attribute between them
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        assert "Echelon" not in _names(tree), p.name
        assert "echelon" not in _attributes(tree), p.name
    assert not hasattr(convdef, "Echelon")
    assert "Echelon" not in convdef.__all__
    assert "echelon" not in convdef.Subspace.__slots__


def _reads(tree: ast.AST, attr: str) -> int:
    return sum(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(tree))


def test_one_coface_loop_reads_the_integer_indexes():
    """Only `ComplexSpec._coboundaries` reads the cached int constants of m and rho; d^n, d(nu) and the
    Maurer-Cartan residual `solves` all go through it."""
    tree = ast.parse((SRC / "cohomology.py").read_text())
    spec = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ComplexSpec")
    methods = {fn.name: fn for fn in spec.body if isinstance(fn, ast.FunctionDef)}
    assert _reads(methods["_coboundaries"], "_integral_indexes") == _reads(tree, "_integral_indexes") == 1
    for name in ("differential_matrix", "differential", "solves"):
        assert _reads(methods[name], "_coboundaries") == 1, name
    assert _reads(tree, "_coboundaries") == 3
    for name in ("differential_matrix", "differential", "solves", "_coboundaries"):
        assert not {"add", "mul", "neg", "is_zero"} & _attributes(methods[name]), name  # ints, not Field arithmetic
    assert "_m_indexes" not in _names(tree)


def _functions(tree: ast.AST):
    """(qualified name, node) of each module-level function and each method of a module-level class."""
    for scope in (node for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))):
        if isinstance(scope, ast.FunctionDef):
            yield scope.name, scope
        else:
            yield from ((f"{scope.name}.{fn.name}", fn) for fn in scope.body if isinstance(fn, ast.FunctionDef))


def _callers(tree: ast.AST, called: set[str]) -> set[str]:
    """The qualified names of the functions and methods that call a name in `called`, plain or as an attribute."""
    out = set()
    for name, fn in _functions(tree):
        funcs = (node.func for node in ast.walk(fn) if isinstance(node, ast.Call))
        if any(getattr(f, "id", None) in called or getattr(f, "attr", None) in called for f in funcs):
            out.add(name)
    return out


def test_the_deformation_layer_checks_one_residual():
    """deformation.py applies d only through `ComplexSpec.solves`: it builds no cochain d(nu) with `differential`,
    reads no coface loop, and `make_deformation` has one private keyword."""
    tree = ast.parse((SRC / "deformation.py").read_text())
    assert not {"differential", "_coboundaries", "_certify_closed", "_report"} & _names(tree)
    assert _callers(tree, {"solves"}) == {"_require_mc", "obstruction_zeta", "_solution_choices"}
    make = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "make_deformation")
    assert [arg.arg for arg in make.args.kwonlyargs if arg.arg.startswith("_")] == ["_certified"]


def test_the_structure_identities_go_through_the_table_helpers():
    """Coalgebra, comodule and cocycle identities are read off whole tables by the helpers of coalgebra.py, with no
    Field arithmetic, and `graded_extension` builds no Ctilde: it reads the layer off D under D's kept report."""
    functions = {}
    for module in ("coalgebra", "extension"):
        functions.update(_functions(ast.parse((SRC / f"{module}.py").read_text())))
    helpers = {"_then", "_is_symmetric"}
    for name in ("Coalgebra._report", "Coalgebra.is_cocommutative", "Comodule._failures", "Cocycle2._failures"):
        fn = functions[name]
        assert not {"add", "mul", "neg", "sub"} & _attributes(fn), name
        assert helpers & _names(fn), name
    assert not {"build_extension", "validate"} & _names(functions["graded_extension"])
    assert "require_valid" in _attributes(functions["graded_extension"])


def test_a_sparse_matrix_is_its_columns():
    """`SparseMatrix` has one layout; rows are built by a transpose only where elimination or the retract needs them."""
    assert convdef.SparseMatrix.__slots__ == convdef.SparseMatrix._fields == ("field", "rows", "cols", "columns")
    assert not any(hasattr(convdef.SparseMatrix, name) for name in ("entries", "row_dicts"))
    transposing = {}
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        assert "row_dicts" not in _names(tree), p.name
        transposing.update(dict.fromkeys(_callers(tree, {"transpose"}), p.name))
    assert transposing == {
        "Matrix.__matmul__": "linalg.py",  # the dense facade
        "ComplexSpec.cocycles": "cohomology.py",  # the rows of d^n with its columns reversed
        "ComplexSpec.solve": "cohomology.py",
        "split_extension": "extension.py",  # X is the kernel of the retract's rows
        "Extension.lam": "extension.py",  # the retract is the transpose of the inclusion
    }


DENSE = {"_dense", "flatten", "from_flat", "dense_rows"}


def test_solves_stay_sparse():
    """Right-hand sides and solutions are sparse dicts; only the public dense edges build or read dense vectors."""
    densifying = set()
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        assert "augmented_echelon" not in _names(tree), p.name
        densifying |= _callers(tree, DENSE)
    assert not hasattr(convdef.linalg, "augmented_echelon")
    # Cochain.flatten and Subspace.dense_rows are public dense output; rref and the completely reducible lines too
    assert densifying == {"Cochain.flatten", "Subspace.dense_rows", "rref", "decompose_completely_reducible"}


# the dense facade no library code calls; `solve` is checked only as a module attribute, since `ComplexSpec.solve` stays
RETIRED = ("kernel_basis", "solve_many", "of_matrix", "equation_matrix", "expand_slot", "iterated_delta",
           "delta_component", "DegreeMismatch")


def _signature_names(fn: ast.FunctionDef) -> set[str]:
    return _names(fn.args) | (_names(fn.returns) if fn.returns else set())


def test_the_retired_dense_facade_stays_out():
    """`Matrix` and `rref` stay only because the benchmark tracer hooks them; nothing else of the dense facade comes back."""
    for p in sorted(SRC.glob("*.py")):
        assert not set(RETIRED) & _names(ast.parse(p.read_text(), filename=str(p))), p.name
    for name in ("kernel_basis", "solve", "solve_many", "DegreeMismatch"):
        assert not hasattr(convdef, name) and name not in convdef.__all__, name
    assert not any(hasattr(convdef.linalg, name) for name in ("kernel_basis", "solve", "solve_many"))
    assert not any(hasattr(convdef.Subspace, name) for name in ("of_matrix", "equation_matrix"))
    assert not any(hasattr(convdef.Coalgebra, name) for name in ("expand_slot", "iterated_delta", "delta_component"))
    # the reachability guard matches names without types, so `GroupLikeSet.elements` would hide this one
    assert not hasattr(convdef.fields.PrimeField, "elements")
    # the public functions and methods of linalg, Matrix's own methods aside, whose signature names Matrix
    functions = _functions(ast.parse((SRC / "linalg.py").read_text()))
    naming = [
        name for name, fn in functions
        if not name.startswith("Matrix.") and not fn.name.startswith("_") and "Matrix" in _signature_names(fn)
    ]
    assert naming == ["rref"]


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# hooked by the benchmark tracer, but removed from the library before this guard existed
DEAD_HOOKS = {"convdef.cohomology:ComplexSpec.coface"}


def _tracer():
    spec = importlib.util.spec_from_file_location("convdef_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_targets(tracer) -> list[str]:
    """The "module:qualname" targets of the benchmark tracer's spans and counters."""
    return [target for _group, target, *_rest in tracer.SPANS + tracer.COUNTERS]


def test_every_benchmark_tracer_hook_resolves():
    """Each span and counter target of the benchmark tracer names a live function: a rename must re-point its hook."""
    tracer = _tracer()
    targets = _tracer_targets(tracer)
    assert "convdef.linalg:Subspace.contains_vector" in targets
    missing = set()
    for target in targets:
        try:
            tracer._resolve(target)
        except (ImportError, AttributeError):
            missing.add(target)
    assert missing <= DEAD_HOOKS


ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
# reached without being named: the dense Matrix, whole, is the test oracles' type and a tracer hook; argparse calls
# `_Parser.error`; the tracer reads `SparseMatrix.nnz`
REACHED_UNNAMED = {"linalg:Matrix", "cli:_Parser.error", "linalg:SparseMatrix.nnz"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreached() -> list[str]:
    """The library definitions ("module:name", "module:Class.method") outside the closure of the three roots.

    The roots are what runs at import (each module's statements other than
    imports and definitions, so `cli.main` under `__main__`), every name
    `tests/test_acceptance.py` mentions (the paper's claims), and the
    benchmark tracer's targets.  A reached function or method reaches every
    definition its body names; a reached class reaches its bases, its
    class-level statements and its dunders, and its other methods by name.
    Names are matched without types, so a collision only makes more reached.
    """
    definitions: dict[str, ast.AST] = {}
    names = _names(ast.parse(ACCEPTANCE.read_text()))
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{p.stem}:{node.name}"] = node
                for fn in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(fn, ast.FunctionDef):
                        definitions[f"{p.stem}:{node.name}.{fn.name}"] = fn
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= _names(node)
    reached = {target.removeprefix("convdef.") for target in _tracer_targets(_tracer())} | REACHED_UNNAMED
    reached |= {key for key in definitions if key.startswith("linalg:Matrix.")}
    expanded: set[str] = set()
    while True:
        for key in definitions.keys() - reached:
            module, qual = key.split(":")
            owner, _, name = qual.rpartition(".")
            if owner:
                live = f"{module}:{owner}" in reached and (_is_dunder(name) or name in names)
            else:
                live = name in names
            if live:
                reached.add(key)
        todo = (reached & definitions.keys()) - expanded
        if not todo:
            return sorted(definitions.keys() - reached)
        for key in todo:
            node = definitions[key]
            if isinstance(node, ast.ClassDef):
                parts = node.bases + node.keywords + node.decorator_list
                parts += [stmt for stmt in node.body if not isinstance(stmt, ast.FunctionDef)]
                names = names.union(*map(_names, parts))
            else:
                names |= _names(node)
        expanded |= todo


def test_every_library_definition_is_reached_by_the_cli_the_acceptance_tests_or_the_tracer():
    """Code only the tests of that same code reach belongs in `tests/helpers.py` or nowhere."""
    assert _unreached() == []


def _imported_modules(tree: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module)
    return out


def test_no_module_imports_dataclasses():
    """The records are plain slot classes: `dataclasses` would pull in `inspect` and exec generated code at import."""
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        assert not {"dataclasses", "inspect"} & {name.split(".")[0] for name in _imported_modules(tree)}, p.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys; before = set(sys.modules); import convdef.cli; print(sorted(set(sys.modules) - before))"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(out.stdout))
    assert "convdef.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_task_keys_are_the_keys_the_cli_reads():
    """`specfile.TASK_KEYS` is `command` and the key argument of each `_pick`, `_task_str` and `_int_param` call on a task."""
    tree = ast.parse((SRC / "cli.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    on_task = [call for call in calls if any(isinstance(a, ast.Attribute) and a.attr == "task" for a in call.args)]
    assert {call.func.id for call in on_task} == {"_pick", "_task_str", "_int_param"}
    assert sorted(specfile.TASK_KEYS) == sorted({"command"} | {call.args[1].value for call in on_task})
