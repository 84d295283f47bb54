"""Byte-for-byte gate on what the command line writes.

Each case runs ``rbl.cli.main`` once to stdout and once with ``--out`` and
compares both with the checked-in file of the same name under ``golden/``.
The set covers every subcommand but ``verify``, both formats, and every CSV
shape. A refactor must leave these bytes alone; regenerating a file is an
output change and is logged as one in CHANGES.md.
"""

from pathlib import Path

import pytest

from rbl.cli import main

GOLDEN = Path(__file__).parent / "golden"
HALF = ("--mu", "1", "--d", "0.5")
MC = ("concentration", *HALF, "--m", "50", "--n", "10000", "--seed", "7",
      "--member", "pareto:a=2", "--optimize-t")
ORACLE = ("opt-oracle", *HALF, "--m", "2")

CASES = {
    "maximin.csv": ("maximin", *HALF, "--m", "4,10,100,1000"),
    "maximin.json": ("maximin", "--mu", "1", "--d", "0.8", "--m", "2,16",
                     "--price-grid", "64", "--format", "json"),
    # small m, where a run's end found next to _highs_at is often out of
    # range, up to m = 1e5, where tails near 1 need the lower-tail bounds
    "maximin-wide.json": ("maximin", "--mu", "2.3", "--d", "0.3",
                          "--m", "1,3,7,32,1000,100000", "--format", "json"),
    # m = 1e6: at the maximin price all 562,498 in-range breakpoint tails
    # but the winner's are 1.0, so no bound on the upper tail prunes them
    "maximin-1e6.json": ("maximin", *HALF, "--m", "1000000", "--format",
                         "json"),
    # m = 1e8: the certificate L(m) finds its largest closed-form term over
    # k = 1..m in steps of 17 evenly spaced k, 143 terms in all
    "maximin-1e8.json": ("maximin", *HALF, "--m", "100000000", "--format",
                         "json"),
    # tiny d/mu: the maximin price sits in the top grid cell, next to m mu,
    # where every lower-tail bound vanishes
    "maximin-tiny-d.json": ("maximin", "--mu", "1", "--d", "1e-6",
                            "--m", "100,10000", "--format", "json"),
    "minimax.csv": ("minimax", *HALF, "--m", "1,10,100"),
    "minimax.json": ("minimax", "--mu", "1", "--d", "1.5", "--m", "1000",
                     "--alpha-grid", "256", "--format", "json"),
    # m = 1e4, where the best response's 40-sigma window of k is a small
    # part of 0..m and the adversary sits at m (1 - alpha) < 1
    "minimax-windowed.csv": ("minimax", "--mu", "1", "--d", "0.8",
                             "--m", "10000"),
    "ratio.csv": ("ratio", *HALF, "--m", "2,3,16", "--eps", "0.1",
                  "--grid", "32"),
    "regret.json": ("regret", *HALF, "--m", "2,16", "--eps", "0.1",
                    "--gamma", "0.1", "--grid", "32", "--format", "json"),
    # the optimized cut is max(t*, lowest cut) in closed form: at eps = 0.3
    # it is the interior t* = 2, at eps = 0.2 it is clipped to the lowest
    # cut 2.25, so both branches of the max are covered
    "concentration.csv": (*MC, "--eps", "0.3", "--format", "csv"),
    "concentration.json": (*MC, "--eps", "0.2", "--format", "json"),
    "xi.csv": ("xi", "--mu", "1", "--d", "1.5", "--format", "csv"),
    "xi.json": ("xi", "--mu", "1", "--d", "1.5", "--format", "json"),
    "opt-oracle.csv": (*ORACLE, "--alpha", "0.5,0.7", "--format", "csv"),
    "opt-oracle.json": (*ORACLE, "--alpha", "0.7", "--symmetric",
                        "--format", "json"),
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, capsys, tmp_path):
    want = (GOLDEN / name).read_bytes()
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out.encode() == want
    path = tmp_path / name
    assert main([*CASES[name], "--out", str(path)]) == 0
    assert path.read_bytes() == want
