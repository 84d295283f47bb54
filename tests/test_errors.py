"""Every deliberate raise in the package is a RobustBundlingError, which the
command line turns into one "error:" line and exit code 2, never a traceback;
an assert, which `python -O` strips, cannot stand in for a check. Every
function taking an item count m rejects one that is not an integer >= 1."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import rbl
from rbl.ambiguity import MeanMadSpec, make_two_point
from rbl.concentration import concentration_constant
from rbl.errors import RobustBundlingError

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


_SPEC = MeanMadSpec(1.0, 0.5)
_TWO = make_two_point(_SPEC, 0.5)
# valid values for every argument but m of each public function taking m; a
# function missing here fails the count-rule test below
_OTHER_ARGS = {
    "asymptotics.schedule_eps_gamma": {},
    "asymptotics.ratio_bound_chain": {"spec": _SPEC, "eps": 0.2},
    "asymptotics.regret_bound_chain": {"spec": _SPEC, "eps": 0.2, "gamma": 0.5},
    "asymptotics.ratio_empirical": {"spec": _SPEC, "grid": 8},
    "asymptotics.regret_empirical": {"spec": _SPEC, "grid": 8},
    "bundling.guaranteed_sale_price": {"spec": _SPEC, "eps": 0.2},
    "bundling.separate_sale_revenue": {"dist": _TWO},
    "concentration.ConcentrationCertificate.bound": {
        "self": concentration_constant(_SPEC, 0.2)},
    "concentration.guaranteed_sale_chain": {"spec": _SPEC, "eps": 0.2},
    "concentration.concentration_check_mc": {
        "members": [_TWO], "eps": 0.2, "n": 10_000, "seed": 1},
    "opt_oracle.opt_deterministic": {"dists": [_TWO]},
    "solvers.worst_case_alpha": {"spec": _SPEC, "p": 0.5},
    "solvers.maximin_certificate_lower": {"spec": _SPEC},
    "solvers.maximin_bundling_value": {"spec": _SPEC, "price_grid": 64},
    "solvers.minimax_bundling_value": {"spec": _SPEC, "alpha_grid": 64},
    "sum_law.iid_two_point_sum": {"dist": _TWO},
    "sum_law.sample_sum": {"members": [_TWO], "seed": 1, "n": 10},
    "sum_law.count_at_least": {
        "members": [_TWO], "seed": 1, "n": 10, "threshold": 0.5},
}


def _functions_taking_m() -> dict:
    """Every public function or public method of a public class in the
    package with a parameter named m, by module-relative name."""
    found = {}
    for info in pkgutil.iter_modules(rbl.__path__):
        mod = importlib.import_module(f"rbl.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", "") != mod.__name__:
                continue
            fns = {name: obj} if inspect.isfunction(obj) else {}
            if inspect.isclass(obj):
                fns = {f"{name}.{attr}": fn for attr, fn in vars(obj).items()
                       if inspect.isfunction(fn) and not attr.startswith("_")}
            found.update({f"{info.name}.{key}": fn for key, fn in fns.items()
                          if "m" in inspect.signature(fn).parameters})
    return found


_TAKING_M = _functions_taking_m()


def test_the_count_table_lists_only_functions_taking_m():
    assert set(_OTHER_ARGS) <= set(_TAKING_M)


@pytest.mark.parametrize("name", sorted(_TAKING_M))
def test_every_function_taking_m_applies_the_count_rule(name):
    # m = 2.5 once gave numbers (maximin 0.4213, the sale chain -17.97) or
    # nan, and m = 0 a bare ZeroDivisionError in maximin_certificate_lower
    fn, args = _TAKING_M[name], _OTHER_ARGS[name]
    fn(m=2, **args)  # the other arguments are valid
    for m in (0, -3, 2.5, True):
        with pytest.raises(RobustBundlingError, match="need m >= 1, an integer"):
            fn(m=m, **args)
