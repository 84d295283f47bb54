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


def _private_constants(tree: ast.Module) -> list:
    targets = [t for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign)
                         else [node.target])]
    return [t.id for t in targets if isinstance(t, ast.Name)
            and t.id.startswith("_") and not t.id.startswith("__")]


def test_every_private_constant_is_read_in_the_package():
    # a constant whose last reader a deletion removed is dead code
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in _SRC]
    read = {n.id if isinstance(n, ast.Name) else n.attr for tree in trees
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}
    unread = [f"{path.name}: {name}" for path, tree in zip(_SRC, trees)
              for name in _private_constants(tree) if name not in read]
    assert unread == []


# cli's option parsers share the protocol parse(name, raw): a parser whose
# message names its option by a fixed text need not read name
_PROTOCOL_PARAMS = {("cli.py", "_as_out", "name"), ("cli.py", "_as_format", "name"),
                    ("cli.py", "_as_members", "name")}


def test_every_private_helper_parameter_is_read():
    # a parameter no body reads is a value every caller computes for nothing
    unread = []
    for path in _SRC:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg, args.kwarg)
                      if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(path.name, node.name, p) for p in params
                       if p not in read and p not in ("self", "cls")]
    assert sorted(set(unread) - _PROTOCOL_PARAMS) == []


def test_only_optimize_reads_the_cell_size():
    # grid_polish cuts its own cells and prices their bounds itself: a
    # caller that reads CELL computes cell ends the search already owns
    readers = []
    for path in _SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = _used_names(tree) | {a.name for a in ast.walk(tree)
                                     if isinstance(a, ast.alias)}
        if "CELL" in names and path.name != "optimize.py":
            readers.append(path.name)
    assert readers == []


def _functions(path: Path) -> list:
    return [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_no_cli_handler_raises():
    # each input rule has one owner, the library call a handler makes or
    # cli's option parsers: a handler's own raise would be a second copy
    cli = next(path for path in _SRC if path.name == "cli.py")
    raising = [node.name for node in _functions(cli)
               if node.name.startswith("_cmd_")
               and any(isinstance(n, ast.Raise) for n in ast.walk(node))]
    assert raising == []


def test_one_function_reads_the_mass_tolerance():
    # every exact law checks its unit mass through one helper
    readers = [f"{path.name}: {node.name}" for path in _SRC
               for node in _functions(path) if "MASS_TOL" in _used_names(node)]
    assert readers == ["sum_law.py: check_unit_mass"]


def test_only_natures_grid_and_the_scale_check_read_u_floor():
    # U_FLOOR is where the nature-first grid ends, and the scale check keeps
    # that grid in double range and in reach; nature answers a price over
    # the whole family, so no other function reads it
    readers = sorted(f"{path.name}: {node.name}" for path in _SRC
                     for node in _functions(path)
                     if "U_FLOOR" in _used_names(node))
    assert readers == ["solvers.py: _check_scale", "solvers.py: _u_grid"]


# public functions that no src/ code uses, each with the reason it stays
_TRACED = "perfbench traces it; moves to tests after ROADMAP item 8"
_UNUSED_PUBLIC = {
    ("solvers.py", "worst_case_alpha"): _TRACED,
    ("sum_law.py", "product_sum"): _TRACED,
    ("sum_law.py", "sample_sum"): _TRACED,
    ("ambiguity.py", "TwoPointDist.inverse_cdf"): _TRACED,
    ("ambiguity.py", "ThreePointDist.inverse_cdf"): _TRACED,
    ("ambiguity.py", "ParetoDist.inverse_cdf"): _TRACED,
}


def _public_defs(tree: ast.Module):
    """(name, node) of every public module-level function and public method
    of a module-level class, a method named Class.method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_"))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")):
            yield node.name, node


def test_every_public_function_is_used_in_the_package():
    # a public function that cli, the package's entry point, does not use,
    # nor any other src/ code (a call, or a reference such as a criterion in
    # its list or a property read), runs only under the tests or perfbench:
    # it is dead code unless the allow-list names why it stays
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in _SRC}
    unused = set()
    for name, tree in trees.items():
        for qual, node in _public_defs(tree):
            own = {id(n) for n in ast.walk(node)}
            used = name == "cli.py" or any(
                id(n) not in own and node.name == getattr(
                    n, "id", getattr(n, "attr", None))
                for other in trees.values() for n in ast.walk(other)
                if isinstance(n, (ast.Name, ast.Attribute)))
            if not used:
                unused.add((name, qual))
    assert unused == set(_UNUSED_PUBLIC)
