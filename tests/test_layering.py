"""Layering guards read off the library's source with `ast`."""

import ast
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
