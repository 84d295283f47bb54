"""Every module-level private function or class in the package is used by the
package itself: a helper that only tests reach, or one that a deletion left
behind, is dead code."""

import ast
from pathlib import Path

_SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "rbl").glob("*.py"))


def _private_defs(tree: ast.Module) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _used_names(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_private_helper_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in _SRC}
    orphans = []
    for name, tree in trees.items():
        for node in _private_defs(tree):
            # uses inside the helper's own body (recursion) do not count
            used = any(node.name in _used_names(stmt)
                       for other in trees.values() for stmt in other.body
                       if stmt is not node)
            if not used:
                orphans.append(f"{name}: {node.name}")
    assert orphans == []
