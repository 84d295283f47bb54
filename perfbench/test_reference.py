"""Tests of the benchmark's references and harness.

    python3 -m pytest perfbench/test_reference.py -q
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import binom

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
from rbl import MeanMadSpec, make_two_point, maximin_bundling_value  # noqa: E402
from rbl import opt_deterministic, product_sum  # noqa: E402


@pytest.mark.parametrize("m", [64, 100])
def test_scan_agrees_with_maximin_where_search_is_right(m):
    rep = maximin_bundling_value(MeanMadSpec(1.0, 0.5), m)
    scan = ref.guarantee_scan(1.0, 0.5, m, rep.price)
    # the program's polish sits closer to the binding breakpoint than the scan
    assert rep.value <= scan["value"] + 1e-9
    assert scan["value"] - rep.value <= 1e-6
    assert scan["spot_rel_err"] <= 1e-8


def test_scan_flags_the_small_m_overstatement():
    rep = maximin_bundling_value(MeanMadSpec(1.0, 0.5), 4)
    scan = ref.guarantee_scan(1.0, 0.5, 4, rep.price)
    assert rep.value - scan["value"] >= 5e-4


def test_exact_and_beta_tails_agree():
    u = np.geomspace(0.75, 1e-6, 2000)
    for p in (2.0, 7.5, 11.0):
        exact = ref._exact_tails(1.0, 0.5, 12, p, u)
        beta = ref._beta_tails(1.0, 0.5, 12, p, 1.0 - u)
        assert np.max(np.abs(exact - beta)) <= 1e-12


def test_incomplete_beta_tail_matches_mpmath():
    u = 1.0 - 0.9
    k = int(ref._crossing_index(1.0, 0.5, 1000, 900.0, np.array([0.9]))[0])
    assert 1 <= k <= 1000
    assert math.isclose(ref.iid_tail(1.0, 0.5, 1000, 900.0, 0.9),
                        ref.beta_tail_mpmath(1000, k, u), rel_tol=1e-10)
    assert math.isclose(ref.beta_tail_mpmath(50, 10, 0.1),
                        float(binom.sf(9, 50, 0.1)), rel_tol=1e-10)


def test_fair_binomial_tail_and_ks():
    law = ref.ShiftedFairBinomial(40, 3.0, 0.5)
    assert math.isclose(law.tail(3.0 + 0.5 * 25), float(binom.sf(24, 40, 0.5)),
                        rel_tol=1e-12)
    rng = np.random.default_rng(7)
    draws = 3.0 + 0.5 * rng.binomial(40, 0.5, size=5000)
    assert law.ks_pvalue(draws) >= ref.KS_ALPHA
    assert law.ks_pvalue(draws + 0.5) < ref.KS_ALPHA
    assert law.ks_pvalue(draws + 0.25) == 0.0  # off the lattice


def test_product_lattice_matches_product_sum():
    spec = MeanMadSpec(1.0, 0.7)
    alphas = [0.4, 0.6, 0.9, 0.5, 0.75]
    law = product_sum([make_two_point(spec, a) for a in alphas])
    vals, mass = ref.product_lattice([(a, *ref.two_point(1.0, 0.7, a)) for a in alphas])
    gap, drift = ref.law_matches_lattice(law.support, law.probs, vals, mass)
    assert gap <= 1e-12 and drift == 0.0
    # a law missing one profile value fails both ways
    gap, drift = ref.law_matches_lattice(law.support[1:], law.probs[1:], vals, mass)
    assert gap > 1e-3 and drift == np.inf


def test_menu_revenue_matches_oracle():
    spec = MeanMadSpec(1.0, 0.5)
    dist = make_two_point(spec, 0.6)
    x, y = ref.two_point(1.0, 0.5, 0.6)
    res = opt_deterministic([dist], 2)
    assert math.isclose(ref.menu_revenue(res.witness.entries, [(0.6, x, y)] * 2),
                        res.revenue, rel_tol=1e-12)
    one = opt_deterministic([dist], 1)
    assert ref.menu_revenue(one.witness.entries, [(0.6, x, y)]) == max(x, 0.4 * y)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_smoke_runs_every_workload():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("correct=True") == 3
