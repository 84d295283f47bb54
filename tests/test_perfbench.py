"""What the benchmark under perfbench/ assumes about the program: the smoke
runs of all three workloads pass their own checks (game-sweep: value >=
certificate lower against a dense reference scan; mc-certify: every Monte
Carlo bound and threshold against the reference failure coefficient and sale
price to 1e-12; exact-oracle: exact sum laws against mpmath and 2^k
lattices, posted prices and tails against the reference, each menu-oracle
revenue against its witness menu and the bundle and separate-sale floors),
and its tracer finds, wraps and puts back every function it patches. All
run in a fresh interpreter, so the tracer's patches never reach this one."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_TRACE_ROUND_TRIP = """
import importlib, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from spans import TRACED, Tracer
mods = {{m: importlib.import_module("rbl." + m) for m, _ in TRACED}}

def target(module, attr):
    owner = mods[module]
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]

before = {{key: vars(target(*key)[0])[target(*key)[1]] for key in TRACED}}
tracer = Tracer()
tracer.install()
for key in TRACED:
    owner, name = target(*key)
    assert vars(owner)[name] is not before[key], key
mods["cli"].main(["maximin", "--mu", "1", "--d", "0.5", "--m", "4"])
tracer.uninstall()
for key in TRACED:
    owner, name = target(*key)
    assert vars(owner)[name] is before[key], key
names = {{span[0] for span in tracer.spans}}
assert "solvers.maximin_certificate_lower" in names, names
print("ok")
"""


@pytest.mark.parametrize("workload", ["game-sweep", "mc-certify",
                                      "exact-oracle"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
         "--workload", workload],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "correct=True" in proc.stdout


def test_tracer_installs_and_uninstalls_every_traced_function():
    code = _TRACE_ROUND_TRIP.format(perfbench=str(ROOT / "perfbench"),
                                    src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("ok")
