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
