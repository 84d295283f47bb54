import ast
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbl import cli, opt_oracle, sum_law
from rbl.cli import _COMMANDS, main
from rbl.concentration import MC_MIN_SAMPLES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_importing_the_cli_skips_scipy_stats_and_mpmath():
    # a fresh interpreter, since the test session itself loads scipy.stats;
    # scipy.stats is most of the cold start that every subcommand pays
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import rbl.cli, sys; "
         "print('scipy.stats' in sys.modules, 'mpmath' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True).stdout
    assert out.split() == ["False", "False"]


def test_xi_json(capsys):
    code, out, _ = run(capsys, "xi", "--mu", "1", "--d", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"gamma", "tau0", "xi0", "xi1", "xi"}
    assert payload["xi"] > 0.0


def test_xi_csv(capsys):
    code, out, _ = run(capsys, "xi", "--mu", "1", "--d", "1.5",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert lines[1].startswith("gamma,")


def test_maximin_csv_stdout(capsys):
    code, out, _ = run(capsys, "maximin", "--mu", "1", "--d", "0.5",
                       "--m", "1,2,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,d,m,objective,value,price,alpha,lower,upper"
    vals = [float(line.split(",")[4]) for line in lines[1:]]
    assert vals == sorted(vals)
    assert all(v <= 0.75 for v in vals)


def test_minimax_json(capsys):
    code, out, _ = run(capsys, "minimax", "--mu", "1", "--d", "0.5",
                       "--m", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["objective"] == "minimax"
    assert rows[0]["value"] == pytest.approx(0.60961179679779, abs=1e-6)


def test_ratio_row_schema(capsys):
    code, out, _ = run(capsys, "ratio", "--mu", "1", "--d", "0.5",
                       "--m", "2", "--eps", "0.1", "--grid", "64")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,d,m,eps,objective,mode,value,lower,upper"
    cells = lines[1].split(",")
    assert cells[4] == "ratio" and cells[5] == "oracle"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratio_runs_where_the_gamma_schedule_cannot(capsys, fmt):
    # the m^(-1/4) schedule gives gamma = 1 at m = 1, outside (0, 1); ratio's
    # chain picks its own gamma, so the schedule has no say in its run
    code, out, err = run(capsys, "ratio", "--mu", "1", "--d", "0.5", "--m",
                         "1", "--eps", "0.1", "--grid", "8", "--format", fmt)
    assert (code, err) == (0, "")
    rows = (json.loads(out) if fmt == "json"
            else list(csv.DictReader(io.StringIO(out))))
    assert len(rows) == 1 and "gamma" not in rows[0]


def test_regret_auto_schedule(capsys):
    # m = 10000 puts the m^(-1/4) schedule at 0.1 for both knobs
    code, out, _ = run(capsys, "regret", "--mu", "1", "--d", "0.5",
                       "--m", "16", "--eps", "auto", "--gamma", "auto",
                       "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["eps"] == pytest.approx(16 ** -0.25)
    assert row["gamma"] == pytest.approx(16 ** -0.25)
    assert row["mode"] == "mu_upper"


@pytest.mark.parametrize("argv", [
    ("maximin", "--mu", "1", "--d", "3", "--m", "10"),        # infeasible set
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "4,2"),     # not ascending
    ("maximin", "--mu", "1", "--d", "0.5", "--m", ""),        # empty list
    ("maximin", "--d", "0.5", "--m", "2"),                    # missing mu
    ("xi", "--mu", "1", "--d", "0.5"),                        # needs d > mu
    ("xi", "--mu", "1", "--d", "1.5", "--format", "tsv"),     # bad format
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--member", "two_point:alpha=0.5"),      # seed missing
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--seed", "1", "--member", "gaussian:s=1"),
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--seed", "1", "--member", "two_point:0.5"),
    ("opt-oracle", "--mu", "1", "--d", "0.5", "--m", "2", "--alpha", "0.5,0.6,0.7"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "2", "--price-grid", "0"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "2", "--price-grid", "-3"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "2", "--price-grid", "1"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "2", "--alpha-grid", "0"),
    ("minimax", "--mu", "1", "--d", "0.5", "--m", "2", "--alpha-grid", "0"),
    ("minimax", "--mu", "1", "--d", "0.5", "--m", "2", "--alpha-grid", "1"),
    ("ratio", "--mu", "1", "--d", "0.5", "--m", "2", "--grid", "1"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "2", "--seed", "-1"),
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--seed", "-1", "--member", "two_point:alpha=0.5"),
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "0",
     "--n", "10000", "--seed", "1", "--member", "two_point:alpha=0.5"),
    ("opt-oracle", "--mu", "1", "--d", "0.5", "--m", "0", "--alpha", "0.5"),
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--seed", "1", "--member", "two_point:alpha=0.5",
     "--threads", "0"),
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--seed", "1", "--member", "two_point:alpha=0.5",
     "--threads", "-1"),
    ("xi", "--mu", "1", "--d", "1.5", "--threads", "0"),      # not an xi option
    ("opt-oracle", "--mu", "1", "--d", "0.5", "--m", "2", "--alpha", "0.5",
     "--seed", "-1"),
    # spec scales whose arithmetic leaves double range
    ("maximin", "--mu", "1e308", "--d", "1e308", "--m", "3"),
    ("maximin", "--mu", "1e300", "--d", "1e300", "--m", "3"),
    ("maximin", "--mu", "1e-300", "--d", "1e-300", "--m", "3"),
    ("minimax", "--mu", "1e-300", "--d", "1e-300", "--m", "3"),
    ("minimax", "--mu", "1e308", "--d", "1e308", "--m", "3"),
    # the m^(-1/4) auto schedule is out of range at m <= 3 for d = 0.5
    ("ratio", "--mu", "1", "--d", "0.5", "--m", "2", "--grid", "8"),
    ("regret", "--mu", "1", "--d", "0.5", "--m", "1", "--eps", "0.1",
     "--grid", "8"),
    # parser errors: unknown options, options of another subcommand
    ("xi", "--mu", "1", "--d", "1.5", "--bogus", "3"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "4", "--eps", "0.3"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "4", "--eps", "0.3",
     "--gamma", "9", "--grid", "5"),
    ("minimax", "--mu", "1", "--d", "0.5", "--m", "4", "--grid", "5"),
    ("ratio", "--mu", "1", "--d", "0.5", "--m", "2", "--eps", "0.1",
     "--alpha-grid", "8"),
    ("regret", "--mu", "1", "--d", "0.5", "--m", "2", "--eps", "0.1",
     "--price-grid", "8"),
    ("maximin", "--mu", "1", "--d", "0.5", "--m"),
    (),
    # malformed members: bad masses, a negative point, an empty list
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--seed", "1", "--member",
     "three_point:points=0+1+2,probs=0.5+0.5+0.5"),
    ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2", "--m", "50",
     "--n", "10000", "--seed", "1", "--member",
     "three_point:points=-1+1+2,probs=0.25+0.5+0.25"),
    ("RBL_MEMBER=;", "concentration", "--mu", "1", "--d", "0.5", "--eps",
     "0.2", "--m", "50", "--n", "10000", "--seed", "1"),
    # ratio declares no --gamma, so any value given is an unknown option
    *(("ratio", "--mu", "1", "--d", "0.5", "--m", "100", "--eps", "0.2",
       "--gamma", gamma) for gamma in ("nan", "-3", "0", "1.5", "inf")),
])
def test_validation_failures_exit_2(capsys, monkeypatch, argv):
    # leading RBL_NAME=value words set the environment, as in a shell
    while argv and argv[0].startswith("RBL_"):
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err or err == ""
    assert err.count("\n") <= 1


_CONCENTRATION = ("concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2",
                  "--m", "50", "--n", "10000")


@pytest.mark.parametrize("argv, text", [
    # the rules whose one owner words them
    ((*_CONCENTRATION, "--member", "two_point:alpha=0.5"),
     "missing required option --seed"),
    ((*_CONCENTRATION, "--seed", "1"), "need at least one member"),
    (("opt-oracle", "--mu", "1", "--d", "0.5", "--m", "2", "--alpha",
      "0.5,0.6,0.7"), "got 3 members for m=2 items"),
    # ranges the chains check, in the words the handler once used
    (("regret", "--mu", "1", "--d", "0.5", "--m", "16", "--eps", "0.9",
      "--gamma", "1.5"), "need 0 < eps < 0.75, got 0.9"),
    (("regret", "--mu", "1", "--d", "0.5", "--m", "16", "--eps", "0.1",
      "--gamma", "1.5"), "need 0 < gamma < 1, got 1.5"),
    (("ratio", "--mu", "1", "--d", "0.5", "--m", "16", "--eps", "0"),
     "need 0 < eps < 0.75, got 0.0"),
    # member specs, whose owner is the CLI's parser
    *(((*_CONCENTRATION, "--seed", "1", "--member", member),
       f"--member {member!r}: {text}") for member, text in (
        ("two_point", "missing alpha=..."),
        ("three_point:points=0+1+2", "missing probs=..."),
        ("three_point:points=0+2,probs=0.5+0.5",
         "need three +-separated points and probs"))),
])
def test_a_rule_is_worded_by_its_library_owner(capsys, argv, text):
    assert run(capsys, *argv) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize("name, argv", [
    ("RBL_SYMMETRIC", ("opt-oracle", "--mu", "1", "--d", "0.5", "--m", "2",
                       "--alpha", "0.7", "--format", "json")),
    ("RBL_OPTIMIZE_T", (*_CONCENTRATION, "--seed", "7", "--member",
                        "pareto:a=2", "--format", "json")),
])
def test_a_false_switch_reads_as_unset(capsys, monkeypatch, name, argv):
    want = run(capsys, *argv)
    assert want[0] == 0
    for text in ("no", "off", "0", "False"):
        monkeypatch.setenv(name, text)
        assert run(capsys, *argv) == want, text


@pytest.mark.parametrize("module, name, argv, law", [
    (opt_oracle, "ones", ("opt-oracle", "--m", "2", "--alpha", "0.5"),
     "lattice"),
    (sum_law, "exp", ("ratio", "--m", "2", "--eps", "0.1", "--grid", "8"),
     "sum-law"),
])
def test_a_drifted_law_exits_2_in_one_line(capsys, drift, module, name, argv,
                                           law):
    drift(module, name)
    code, out, err = run(capsys, argv[0], "--mu", "1", "--d", "0.5", *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {law} mass drifted to ")
    assert err.count("\n") == 1


def test_non_finite_three_point_member_exits_2_naming_the_input(capsys):
    # once caught only later, as "member moments off by mean nan"
    code, _, err = run(capsys, "concentration", "--mu", "1", "--d", "0.5",
                       "--eps", "0.2", "--m", "50", "--n", "10000", "--seed",
                       "1", "--member",
                       "three_point:points=nan+1+2,probs=0.25+0.5+0.25")
    assert code == 2
    assert "must be finite" in err and err.count("\n") == 1


# smallest accepted value of each integer option
_INT_MIN = {"m": 1, "seed": 0, "threads": 1, "n": MC_MIN_SAMPLES,
            "alpha-grid": 2, "price-grid": 2, "grid": 2}
_GAME_OPTS = ("m", "alpha-grid", "price-grid")
# a valid run per command, cheap at m = 1 (ratio and regret reject the
# m = 1 auto schedule eps = 1 before solving), with the integer options that
# command declares; drawn options override it
_FUZZ_BASE = {
    "maximin": (_GAME_OPTS, ("--m", "1")),
    "minimax": (_GAME_OPTS, ("--m", "1")),
    "ratio": (("m", "grid"), ("--m", "1")),
    "regret": (("m", "grid"), ("--m", "1")),
    "concentration": (("m", "seed", "threads", "n"),
                      ("--m", "1", "--n", "10000", "--seed", "0", "--eps",
                       "0.2", "--member", "two_point:alpha=0.5")),
    "opt-oracle": (("m",), ("--m", "1", "--alpha", "0.5")),
}
# integers <= 1 and digit-free text: no accepted value starts a large solve
_FUZZ_VALUE = st.one_of(
    st.integers(-1, 1), st.integers(max_value=1),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_integer_options_exit_0_or_2_in_one_line(data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_BASE)))
    names, base = _FUZZ_BASE[command]
    opts = data.draw(st.dictionaries(st.sampled_from(names), _FUZZ_VALUE,
                                     max_size=3))
    argv = [command, "--mu", "1", "--d", "0.5", *base,
            *(f"--{key}={val}" for key, val in opts.items())]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
    if any(isinstance(val, int) and val < _INT_MIN[key]
           for key, val in opts.items()):
        assert code == 2


def test_a_line_break_in_an_echoed_argument_stays_on_one_line(capsys):
    code, _, err = run(capsys, "ratio", "--mu", "1", "--d", "0.5", "--m", "1",
                       "--alpha-grid=\n\r")
    assert code == 2
    assert err == "error: rbl: unrecognized arguments: --alpha-grid=\\n\\r\n"


def test_auto_schedule_error_names_the_schedule(capsys):
    code, _, err = run(capsys, "ratio", "--mu", "1", "--d", "0.5", "--m", "2",
                       "--grid", "8")
    assert code == 2
    assert err == ("error: --eps auto: the m^(-1/4) schedule gives "
                   f"{2 ** -0.25!r} at m = 2, need eps < 0.75; "
                   "pass --eps explicitly\n")


# any positive finite double, the ends of the range more often
_EXTREME = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.sampled_from([5e-324, 1e-300, 1e-160, 1e150, 1e300, 1e308]),
    st.floats(0.1, 10.0))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(["maximin", "minimax", "concentration",
                                 "ratio", "regret"]),
       mu=_EXTREME, d=st.one_of(_EXTREME, st.floats(0.0, 2.0)),
       relative=st.booleans(), m=st.integers(1, 3))
def test_fuzzed_spec_scales_exit_0_or_2_in_one_line(command, mu, d, relative,
                                                     m):
    # d is drawn outright or as a multiple of mu in [0, 2]; a run either
    # succeeds cleanly or exits 2 with one line, never a traceback or a
    # floating-point warning
    if relative:
        d *= mu
    argv = [command, "--mu", repr(mu), "--d", repr(d), "--m", str(m)]
    if command == "concentration":
        argv += ["--n", "10000", "--seed", "0", "--eps", "0.2",
                 "--member", "two_point:alpha=0.999", "--optimize-t"]
    if command in ("ratio", "regret"):
        argv += ["--eps", "0.1", "--grid", "8"]
    if command == "regret":
        argv += ["--gamma", "0.1"]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always", RuntimeWarning)
        code = main(argv)
    assert code in (0, 2)
    assert err.getvalue().count("\n") <= 1
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("argv", [
    # the oracle studies once printed value = nan with warnings here
    ("ratio", "--mu", "1e300", "--d", "5e299", "--m", "2", "--eps", "0.1",
     "--grid", "8"),
    ("regret", "--mu", "1e300", "--d", "5e299", "--m", "3", "--eps", "0.1",
     "--gamma", "0.1", "--grid", "8"),
    # a member whose high point is inf once priced it at 1.5e300
    ("opt-oracle", "--mu", "1e300", "--d", "5e299", "--m", "2", "--alpha",
     "0.999999999999"),
    # an infinite sale threshold, and a subnormal one
    ("concentration", "--mu", "1e307", "--d", "5e306", "--m", "100", "--eps",
     "0.2", "--n", "10000", "--seed", "1", "--member", "two_point:alpha=0.5"),
    ("concentration", "--mu", "1e-310", "--d", "5e-311", "--m", "100",
     "--eps", "0.2", "--n", "10000", "--seed", "1", "--member",
     "two_point:alpha=0.5"),
    ("maximin", "--mu", "1", "--d", "1e-310", "--m", "3"),
    # one high at 1 - alpha = 1e-12 no longer reaches m mu in floats
    ("maximin", "--mu", "1", "--d", "0.5", "--m", "2000000000000"),
])
def test_what_doubles_cannot_hold_exits_2_in_one_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("d, m", [(2.0 - 1e-11, 19), (2.0 - 1e-10, 100),
                                  (2.0 - 1e-10, 1000), (2.0 - 1e-9, 1000)])
def test_maximin_above_the_sure_sale_exits_2_in_one_line(capsys, d, m):
    # the best price, m mu, lies above the sure sale m x at 1 - alpha =
    # 1e-12, where members with a smaller 1 - alpha undercut it: maximin
    # printed values above its own ceiling mu - d/2 here, 1.9e-11 against
    # 5.0e-12 at m = 19
    code, out, err = run(capsys, "maximin", "--mu", "1", "--d", repr(d),
                         "--m", str(m))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_maximin_next_to_d_2_mu_stays_below_its_ceiling(capsys):
    # d = 2 - 1e-5: the best price stays below the sure sale, so it solves
    code, out, _ = run(capsys, "maximin", "--mu", "1", "--d", "1.99999",
                       "--m", "2,19,1000", "--format", "json")
    assert code == 0
    for row in json.loads(out):
        assert 0.0 < row["value"] <= row["upper"]


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 4.09 TiB for an array with shape "
                "(562316715545,) and data type float64"),
    MemoryError()])
def test_running_out_of_memory_exits_2_in_one_line(capsys, monkeypatch, exc):
    # at m = 1e12 maximin's O(m) screen asks numpy for terabytes; whether
    # that fails fast depends on the host, so the solver is stubbed to fail
    def out_of_memory(*args, **kwargs):
        raise exc
    monkeypatch.setattr("rbl.cli.maximin_bundling_value", out_of_memory)
    code, out, err = run(capsys, "maximin", "--mu", "1", "--d", "0.5",
                         "--m", "1000000000000")
    assert (code, out) == (2, "")
    assert err == f"error: {str(exc) or 'MemoryError'}\n"


def test_bad_format_is_rejected_before_the_monte_carlo_run(capsys,
                                                           monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before --format was checked")
    monkeypatch.setattr("rbl.cli.concentration_check_mc", unreachable)
    code, _, err = run(capsys, "concentration", "--mu", "1", "--d", "0.5",
                       "--eps", "0.2", "--m", "50", "--n", "10000", "--seed",
                       "1", "--member", "two_point:alpha=0.5", "--format", "tsv")
    assert code == 2
    assert err.startswith("error: --format")


def test_maximin_alpha_grid_is_hidden_and_inert(capsys):
    # kept for RBL_ALPHA_GRID configs: parsed and validated, but maximin
    # solves the adversary exactly, so it changes nothing
    base = ("maximin", "--mu", "1", "--d", "0.5", "--m", "4")
    code, plain, _ = run(capsys, *base)
    code2, with_grid, _ = run(capsys, *base, "--alpha-grid", "256")
    assert code == code2 == 0
    assert plain == with_grid
    with pytest.raises(SystemExit):
        main(["maximin", "--help"])
    assert "--alpha-grid" not in capsys.readouterr().out


def test_minimax_price_grid_is_hidden_and_inert(capsys):
    # accepted so one argv can drive both orders; minimax has no price grid
    base = ("minimax", "--mu", "1", "--d", "0.5", "--m", "4")
    code, plain, _ = run(capsys, *base)
    code2, with_grid, _ = run(capsys, *base, "--price-grid", "48")
    assert code == code2 == 0
    assert plain == with_grid
    with pytest.raises(SystemExit):
        main(["minimax", "--help"])
    assert "--price-grid" not in capsys.readouterr().out


def test_parser_errors_are_one_line(capsys):
    code, out, err = run(capsys, "xi", "--mu", "1", "--d", "1.5", "--bogus", "3")
    assert (code, out) == (2, "")
    assert err == "error: rbl: unrecognized arguments: --bogus 3\n"
    code, _, err = run(capsys, "maximin", "--mu", "1", "--d", "0.5", "--m",
                       "4", "--eps", "0.3", "--gamma", "9", "--grid", "5")
    assert code == 2
    assert err == ("error: rbl: unrecognized arguments: --eps 0.3 --gamma 9 "
                   "--grid 5\n")
    # ratio's chain picks its own gamma, so ratio declares no --gamma
    code, out, err = run(capsys, "ratio", "--mu", "1", "--d", "0.5", "--m",
                         "1", "--eps", "0.1", "--grid", "8", "--gamma", "0.5")
    assert (code, out) == (2, "")
    assert err == "error: rbl: unrecognized arguments: --gamma 0.5\n"


def test_subcommands_read_only_their_own_options(capsys, monkeypatch):
    # a study's grid in the environment does not reach the game commands
    monkeypatch.setenv("RBL_GRID", "1")
    monkeypatch.setenv("RBL_EPS", "nonsense")
    code, _, _ = run(capsys, "maximin", "--mu", "1", "--d", "0.5", "--m", "2")
    assert code == 0
    monkeypatch.setenv("RBL_ALPHA_GRID", "1")
    code, _, err = run(capsys, "ratio", "--mu", "1", "--d", "0.5", "--m", "2",
                       "--eps", "0.1", "--grid", "8")
    assert code == 0, err


def test_opt_oracle_tiny_scale_agrees_with_unit_scale(capsys):
    base = ("--m", "2", "--alpha", "0.5,0.7")
    code, out, err = run(capsys, "opt-oracle", "--mu", "1e-100", "--d",
                         "1e-100", *base)
    assert (code, err) == (0, "")
    code1, out1, _ = run(capsys, "opt-oracle", "--mu", "1", "--d", "1", *base)
    tiny, unit = json.loads(out), json.loads(out1)
    assert tiny["revenue"] / 1e-100 == pytest.approx(unit["revenue"], rel=1e-12)
    assert tiny["menus_evaluated"] == unit["menus_evaluated"] == 121


def test_optimized_cut_at_a_huge_scale_prints_no_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "concentration", "--mu", "1e152", "--d",
                             "1e152", "--m", "3", "--n", "10000", "--seed",
                             "0", "--eps", "0.2", "--member",
                             "two_point:alpha=0.999", "--optimize-t")
    assert (code, err) == (0, "")
    # t* = mu (1 + sqrt(1/2)) / (1/2) sits below the lowest cut mu + d/(2 eps)
    assert json.loads(out)["optimized_t"] == pytest.approx(3.5e152, rel=1e-15)


def test_env_overrides_file_flags_override_env(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1\nd = 0.5\n")  # d = 0.5 would be rejected by xi
    monkeypatch.setenv("RBL_D", "1.5")   # env beats the file: run succeeds
    code, out, _ = run(capsys, "xi", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["gamma"] == pytest.approx(8.0 / 33.0)
    # an explicit flag beats the environment
    monkeypatch.setenv("RBL_D", "0.5")
    code2, out2, _ = run(capsys, "xi", "--config", str(cfg), "--d", "1.5")
    assert code2 == 0


def test_config_file_diagnostics(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    # comment and blank lines are skipped, and counted
    cfg.write_text("# a spec\n\nmu = 1\n   \nwhat is this\n")
    code, _, err = run(capsys, "xi", "--config", str(cfg), "--d", "1.5")
    assert code == 2
    assert "bad.cfg:5" in err


def test_unwritable_out_is_one_line(capsys, tmp_path):
    path = tmp_path / "missing" / "xi.json"
    code, out, err = run(capsys, "xi", "--mu", "1", "--d", "1.5", "--out",
                         str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write output file {path}: ")
    assert err.count("\n") == 1


def test_out_is_checked_before_any_work(capsys, monkeypatch, tmp_path):
    # verify runs every criterion before it writes; a bad --out must not wait
    def fail():
        raise AssertionError("run_all called despite a bad --out")
    monkeypatch.setattr("rbl.cli.run_all", fail)
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        code, out, err = run(capsys, "verify", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write output file {path}: ")
        assert err.count("\n") == 1


def test_write_time_out_failure_is_one_line(capsys, monkeypatch, tmp_path):
    # the early check cannot see every failure; the write still reports one
    monkeypatch.setattr(cli, "_check_out", lambda out: None)
    path = tmp_path / "missing" / "xi.json"
    code, out, err = run(capsys, "xi", "--mu", "1", "--d", "1.5", "--out",
                         str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write output file {path}: ")
    assert err.count("\n") == 1


def test_rbl_config_names_the_config_file(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1\nd = 1.5\n")
    want = run(capsys, "xi", "--mu", "1", "--d", "1.5")
    monkeypatch.setenv("RBL_CONFIG", str(cfg))
    assert run(capsys, "xi") == want
    # the flag still beats the environment
    monkeypatch.setenv("RBL_CONFIG", str(tmp_path / "missing.cfg"))
    assert run(capsys, "xi", "--config", str(cfg)) == want


def test_cached_parser_keeps_calls_apart(capsys):
    # the parser is built once per process; options and --member lists given
    # to one call must not reach the next
    base = ["concentration", "--mu", "1", "--d", "0.5", "--eps", "0.2",
            "--m", "20", "--n", "10000", "--seed", "7",
            "--member", "two_point:alpha=0.5"]
    first = base + ["--member", "pareto:a=2", "--optimize-t", "--format",
                    "csv"]
    fresh = []
    for argv in (first, base):
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    assert [run(capsys, *first), run(capsys, *base)] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert "optimized_t" not in json.loads(fresh[1][1])


# a valid run of each subcommand, cheap enough to repeat once per option
_STUDY_BASE = {"mu": "1", "d": "0.5", "m": "1", "eps": "0.1", "grid": "8"}
_WALK_BASE = {
    "maximin": {"mu": "1", "d": "0.5", "m": "1"},
    "minimax": {"mu": "1", "d": "0.5", "m": "1"},
    "ratio": _STUDY_BASE,
    "regret": {**_STUDY_BASE, "gamma": "0.5"},
    "concentration": {"mu": "1", "d": "0.5", "m": "1", "eps": "0.2",
                      "n": "10000", "seed": "0",
                      "member": "two_point:alpha=0.5"},
    "xi": {"mu": "1", "d": "1.5"},
    "opt-oracle": {"mu": "1", "d": "0.5", "m": "1", "alpha": "0.5"},
    "verify": {},
}
# one rejected value per option name; {tmp} is the test's temporary directory
_BAD_VALUE = {
    "mu": "x", "d": "-1", "config": "{tmp}/missing.cfg", "format": "tsv",
    "out": "{tmp}/missing/out", "seed": "-1", "threads": "0", "m": "0",
    "alpha-grid": "1", "price-grid": "1", "eps": "x", "gamma": "x",
    "grid": "1", "n": "x", "member": "two_point:alpha=2",
    "optimize-t": "maybe", "alpha": "x", "symmetric": "maybe",
}
_DECLARED = [(command, name) for command, (_, _, options) in _COMMANDS.items()
             for name, *_ in options]


def _walk_argv(command, skip):
    return [command, *(f"--{key}={val}"
                       for key, val in _WALK_BASE[command].items()
                       if key != skip)]


@pytest.fixture
def stub_verify(monkeypatch):
    # the acceptance checks take minutes and read no option
    monkeypatch.setattr("rbl.cli.run_all", lambda: [])


def test_bad_value_map_covers_every_declared_option(capsys, stub_verify):
    assert set(_BAD_VALUE) == {name for _, name in _DECLARED}
    # each base run succeeds, so a rejection below comes from the bad value
    for command in _COMMANDS:
        code, _, err = run(capsys, *_walk_argv(command, None))
        assert (code, err) == (0, ""), command


# everything a handler may start once its options are parsed
_WORK = ("maximin_bundling_value", "minimax_bundling_value",
         "ratio_bound_chain", "regret_bound_chain", "ratio_empirical",
         "regret_empirical", "xi_gap", "concentration_check_mc",
         "concentration_constant", "opt_deterministic", "run_all")


@pytest.mark.parametrize("command,name", _DECLARED)
def test_every_declared_option_rejects_a_bad_value(capsys, monkeypatch,
                                                   tmp_path, command, name):
    # rejected before any work: each work function raises if it is reached
    def unreachable(*args, **kwargs):
        raise AssertionError(f"work started before --{name} was checked")
    for work in _WORK:
        monkeypatch.setattr(cli, work, unreachable)
    monkeypatch.setenv("RBL_" + name.upper().replace("-", "_"),
                       _BAD_VALUE[name].format(tmp=tmp_path))
    code, out, err = run(capsys, *_walk_argv(command, name))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_handlers_only_read_parsed_values():
    # every option is parsed once, in _resolve; a handler that converted or
    # checked a value itself could reject it after work has started
    tree = ast.parse(Path(cli.__file__).read_text())
    found = [f"{fn.name} calls {node.func.id}"
             for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and (node.func.id.startswith("_as_")
                  or node.func.id == "_check_out")]
    assert found == []


# one accepted value per option name the base runs leave out
_GOOD_VALUE = {"format": "json", "out": "{tmp}/out", "alpha-grid": "8",
               "price-grid": "8", "threads": "1", "optimize-t": "true",
               "symmetric": "true", "gamma": "0.5"}
# declared options no handler reads: _resolve reads --config itself, and each
# game order accepts the other's grid so one argv can drive both
_UNREAD = {command: {"config"} for command in _COMMANDS}
_UNREAD["maximin"].add("alpha-grid")
_UNREAD["minimax"].add("price-grid")


class _ReadRecorder(dict):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_declared_option_is_read(monkeypatch, tmp_path, stub_verify,
                                       command):
    # a run given every declared option, the ones its base run leaves out
    # from a config file; an option no handler reads is an input that
    # changes nothing
    options = [name for name, *_ in _COMMANDS[command][2]]
    extra = [name for name in options
             if name not in _WALK_BASE[command] and name != "config"]
    cfg_file = tmp_path / "rbl.cfg"
    cfg_file.write_text("".join(
        f"{name} = {_GOOD_VALUE[name].format(tmp=tmp_path)}\n"
        for name in extra))
    recorders = []
    resolve = cli._resolve

    def recording_resolve(args, opts):
        recorders.append(_ReadRecorder(resolve(args, opts)))
        return recorders[-1]
    monkeypatch.setattr(cli, "_resolve", recording_resolve)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*_walk_argv(command, None), f"--config={cfg_file}"]) == 0
    assert set(recorders[0]) == {name.replace("-", "_") for name in options}
    assert ({name for name in options
             if name.replace("-", "_") not in recorders[0].read}
            == _UNREAD[command])


def test_output_files_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "maximin", "--mu", "1", "--d", "0.5",
                         "--m", "1,2", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_opt_oracle_json(capsys):
    code, out, _ = run(capsys, "opt-oracle", "--mu", "1", "--d", "0.5",
                       "--m", "2", "--alpha", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["revenue"] == pytest.approx(1.5)
    assert not payload["symmetric"]
    assert any(entry["bundle"] == [0, 1] for entry in payload["menu"])


def test_opt_oracle_csv_menu(capsys):
    code, out, _ = run(capsys, "opt-oracle", "--mu", "1", "--d", "0.5",
                       "--m", "2", "--alpha", "0.5", "--symmetric",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "bundle,price"


def test_concentration_subcommand(capsys):
    code, out, _ = run(capsys, "concentration", "--mu", "1", "--d", "0.5",
                       "--eps", "0.2", "--m", "200", "--n", "10000",
                       "--seed", "7", "--member", "two_point:alpha=0.5",
                       "--member",
                       "three_point:points=0+1+2,probs=0.25+0.5+0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["m"] == 200


def test_concentration_pareto_member(capsys):
    code, out, _ = run(capsys, "concentration", "--mu", "1", "--d", "0.5",
                       "--eps", "0.2", "--m", "100", "--n", "10000",
                       "--seed", "3", "--member", "pareto:a=2",
                       "--optimize-t")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimized_f"] <= 104.60
    assert payload["passed"] is True


def test_concentration_takes_a_seed_past_2_to_the_128(capsys):
    code, out, err = run(capsys, "concentration", "--mu", "1", "--d", "0.5",
                         "--m", "50", "--n", "10000", "--eps", "0.2",
                         "--member", "pareto:a=2", "--seed",
                         "1361129467683753853853498429727072845824")
    assert (code, err) == (0, "")
    assert json.loads(out)["seed"] == 1361129467683753853853498429727072845824


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("maximin", "minimax", "ratio", "regret", "concentration",
                 "xi", "opt-oracle", "verify"):
        assert name in out
