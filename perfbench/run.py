"""Run one rbl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload game-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # every workload, reduced size

Run from the repository root or anywhere else: the program is imported from
the ``src`` directory next to this one, and the run fails (exit code 1, no
result) when that source tree is missing. With ``--trace 0`` the run repeats
whole rounds of the workload until ``--seconds`` have passed and reports the
end-to-end metrics; with ``--trace 1`` it runs one plain round and one traced
round and reports the per-layer metrics. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS stays single-threaded here; Monte Carlo threads are the only ones.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 3

WORKLOADS = ("game-sweep", "mc-certify", "exact-oracle")
# Reported by every untraced run; phase a and b are named per workload in
# workloads.py (e.g. maximin and minimax solves on game-sweep).
END_TO_END = ("round_s", "phase_a_s", "phase_b_s", "peak_rss_mb", "setup_s")

# (name, unit, better) of the metrics the traced run reports; the names
# follow "<module>.<function>.<quantity>" for spans and counts.
PER_LAYER = (
    ("solvers.worst_case_alpha.calls", "count", "lower"),
    ("solvers.worst_case_alpha.self_s", "s", "lower"),
    ("solvers.maximin_bundling_value.busy_s", "s", "lower"),
    ("solvers.maximin_certificate_lower.calls", "count", "lower"),
    ("solvers.maximin_certificate_lower.busy_s", "s", "lower"),
    ("solvers.minimax_bundling_value.busy_s", "s", "lower"),
    ("optimize.golden_min.calls", "count", "lower"),
    ("optimize.golden_min.evals", "count", "lower"),
    ("concentration.concentration_constant.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("sum_law.sample_sum.calls", "count", "lower"),
    ("sum_law.sample_sum.busy_s", "s", "lower"),
    ("sum_law.sample_sum.draws_per_s", "draws/s", "higher"),
    ("ambiguity.inverse_cdf.busy_s", "s", "lower"),
    ("concentration.concentration_check_mc.self_s", "s", "lower"),
    ("sum_law.iid_two_point_sum.calls", "count", "lower"),
    ("sum_law.iid_two_point_sum.busy_s", "s", "lower"),
    ("sum_law.iid_two_point_sum.points", "count", "higher"),
    ("sum_law.product_sum.busy_s", "s", "lower"),
    ("sum_law.tail_prob.calls", "count", "lower"),
    ("sum_law.tail_prob.busy_s", "s", "lower"),
    ("bundling.best_bundle_price.calls", "count", "lower"),
    ("bundling.best_bundle_price.busy_s", "s", "lower"),
    ("ambiguity.make_two_point.calls", "count", "lower"),
    ("opt_oracle.opt_deterministic.calls", "count", "lower"),
    ("opt_oracle.opt_deterministic.busy_s", "s", "lower"),
    ("opt_oracle.opt_deterministic.menus_evaluated", "count", "lower"),
    ("opt_oracle.opt_deterministic.menus_per_s", "menus/s", "higher"),
    ("asymptotics.ratio_empirical.busy_s", "s", "lower"),
    ("asymptotics.regret_empirical.busy_s", "s", "lower"),
    # untraced figures of the same run, named per workload
    ("maximin_sweep_s", "s", "lower"),
    ("minimax_sweep_s", "s", "lower"),
    ("mc_draws_per_s", "draws/s", "higher"),
    ("mc_threaded_draws_per_s", "draws/s", "higher"),
    ("exact_law_points_per_s", "points/s", "higher"),
    ("oracle_s", "s", "lower"),
    ("study_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _load():
    if not os.path.isfile(os.path.join(SRC, "rbl", "__init__.py")):
        sys.exit(f"error: no rbl sources in {SRC}")
    sys.path[:0] = [HERE, SRC]
    import workloads
    return workloads


def _blas_threads() -> int:
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _machine(workloads) -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(), "mc_workers": workloads.MC_WORKERS}


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first possible timed
    call: interpreter, imports, input generation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _timed_round(workload, inp):
    start = time.perf_counter()
    rnd = workload.run_round(inp)
    rnd.wall = time.perf_counter() - start
    return rnd


def _verify(workload, inp, rounds) -> tuple[bool, int, int]:
    """Check the first round in full and later rounds against its digest.
    Returns (correct, attempted, failed); only the named fault may fail."""
    verdicts = workload.check(inp, rounds[0])
    correct = len(verdicts) == workload.work(inp)
    if not correct:
        print(f"# FAIL checked {len(verdicts)} operations of {workload.work(inp)}")
    for v in verdicts:
        if not v.ok:
            tag = "known fault" if v.known_fault else "FAIL"
            print(f"# {tag}: {v.label}: {v.detail}")
            correct = correct and v.known_fault
    bad = sum(not v.ok for v in verdicts)
    failed = bad * len(rounds)
    first = workload.digest(rounds[0])
    for i, rnd in enumerate(rounds[1:], start=2):
        if workload.digest(rnd) != first:
            print(f"# FAIL round {i} outputs differ from round 1")
            correct = False
            failed += len(verdicts) - bad
    return correct, len(verdicts) * len(rounds), failed


def _report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _untraced(workload, inp, args) -> None:
    setup = [_probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(_timed_round(workload, inp))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, attempted, failed = _verify(workload, inp, rounds)
    for name, (value, unit, _) in workload.named_metrics(inp, rounds[0]).items():
        print(f"# {name} = {value!r} {unit} (first round)")
    phase_a, phase_b = workload.phases
    median = statistics.median
    print(f"# rounds = {len(rounds)}")
    metrics = {
        "round_s": (median(r.wall for r in rounds), "s"),
        "phase_a_s": (median(r.seconds(*phase_a) for r in rounds), "s"),
        "phase_b_s": (median(r.seconds(*phase_b) for r in rounds), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (median(setup), "s"),
    }
    _report(correct, attempted, failed, {name: metrics[name] for name in END_TO_END})


def _traced(workload, inp) -> None:
    from spans import Tracer

    plain = _timed_round(workload, inp)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _timed_round(workload, inp)
    finally:
        tracer.uninstall()
    correct, attempted, failed = _verify(workload, inp, [plain, traced])
    layers = tracer.layer_metrics()
    layers.update({k: v for k, (v, _, _) in workload.named_metrics(inp, plain).items()})

    def rate(count: str, busy: str) -> float:
        return layers.get(count, 0.0) / layers[busy] if layers.get(busy) else 0.0

    layers["sum_law.sample_sum.draws_per_s"] = rate(
        "sum_law.sample_sum.draws", "sum_law.sample_sum.busy_s")
    layers["opt_oracle.opt_deterministic.menus_per_s"] = rate(
        "opt_oracle.opt_deterministic.menus_evaluated",
        "opt_oracle.opt_deterministic.busy_s")
    layers["trace_overhead"] = traced.wall / plain.wall
    print(f"# traced round {traced.wall!r} s, untraced round {plain.wall!r} s, "
          f"{len(tracer.spans)} spans")
    _report(correct, attempted, failed,
            {name: (layers.get(name, 0), unit) for name, unit, _ in PER_LAYER})


def _smoke(workloads, names) -> int:
    status = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        inp = workload.inputs(1, smoke=True)
        rnd = _timed_round(workload, inp)
        correct, attempted, failed = _verify(workload, inp, [rnd])
        print(f"smoke {name}: {rnd.wall:.2f} s, correct={correct}, "
              f"attempted={attempted}, failed={failed}")
        status |= not correct
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload (or --workload) once at reduced size")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.workload):
        parser.error("--workload is required")
    workloads = _load()
    if args.smoke:
        return _smoke(workloads, [args.workload] if args.workload else WORKLOADS)
    workload = workloads.WORKLOADS[args.workload]
    inp = workload.inputs(args.seed, smoke=False)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    print("# machine " + json.dumps(_machine(workloads)))
    if args.trace:
        _traced(workload, inp)
    else:
        _untraced(workload, inp, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
