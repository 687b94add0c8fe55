"""Layering guards read off the library's source with `ast`."""

import ast
import importlib.util
from pathlib import Path

import convdef

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
    """Only `ComplexSpec._coboundaries` reads the cached int constants of m and rho; d^n and d(nu) both go through it."""
    tree = ast.parse((SRC / "cohomology.py").read_text())
    spec = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ComplexSpec")
    methods = {fn.name: fn for fn in spec.body if isinstance(fn, ast.FunctionDef)}
    assert _reads(methods["_coboundaries"], "_integral_indexes") == _reads(tree, "_integral_indexes") == 1
    for name in ("differential_entries", "differential"):
        assert _reads(methods[name], "_coboundaries") == 1, name
    for name in ("differential_entries", "differential", "_coboundaries"):
        assert not {"add", "mul", "neg", "is_zero"} & _attributes(methods[name]), name  # ints, not Field arithmetic
    assert "_m_indexes" not in _names(tree)


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
    # the public functions and methods of linalg, Matrix's own methods aside, whose signature names Matrix
    tree = ast.parse((SRC / "linalg.py").read_text())
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name != "Matrix"):
        functions += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    naming = [name for name, fn in functions if not fn.name.startswith("_") and "Matrix" in _signature_names(fn)]
    assert naming == ["rref"]


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# hooked by the benchmark tracer, but removed from the library before this guard existed
DEAD_HOOKS = {"convdef.cohomology:ComplexSpec.coface"}


def test_every_benchmark_tracer_hook_resolves():
    """Each span and counter target of the benchmark tracer names a live function: a rename must re-point its hook."""
    spec = importlib.util.spec_from_file_location("convdef_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [target for _group, target, *_rest in tracer.SPANS + tracer.COUNTERS]
    assert "convdef.linalg:Subspace.contains_vector" in targets
    missing = set()
    for target in targets:
        try:
            tracer._resolve(target)
        except (ImportError, AttributeError):
            missing.add(target)
    assert missing <= DEAD_HOOKS
