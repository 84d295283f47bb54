"""Every deliberate raise in the package is a RobustBundlingError, which the
command line turns into one "error:" line and exit code 2, never a traceback;
an assert, which `python -O` strips, cannot stand in for a check."""

import ast
from pathlib import Path

import pytest

_SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "rbl").glob("*.py"))


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_raises_only_the_package_error_and_asserts_nothing(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            name = _raised_name(node)
            if name != "RobustBundlingError":
                found.append(f"line {node.lineno}: raise {name}")
    assert found == []
