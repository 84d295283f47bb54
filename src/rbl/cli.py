"""Command-line entry point: parameter studies and machine-readable outputs.

Subcommands: maximin, minimax, ratio, regret, concentration, xi, opt-oracle,
verify. Options resolve as defaults < config file < environment < flags, where
the config file (--config, else RBL_CONFIG) is flat "key = value" lines and
environment overrides are the flag name uppercased with an RBL_ prefix
(--alpha-grid -> RBL_ALPHA_GRID); a subcommand reads only the options it
declares, and every given value is parsed and checked before any work.
--seed and --threads belong to concentration, the one Monte Carlo
subcommand, and --gamma to regret, whose chain reads it (ratio's upper bound
picks its own gamma). Outputs are CSV or JSON with every float printed at
full round-trip precision, so identical configuration and seed give
byte-identical files. Exit codes: 0 success, 2 rejected input (any
RobustBundlingError, parser errors included) or a MemoryError, printed as one
"error:" line on stderr, 3 verify found failing checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from typing import Any, Optional, Sequence

from .acceptance import run_all
from .ambiguity import (
    MeanMadSpec,
    make_pareto_member,
    make_three_point,
    make_two_point,
)
from .asymptotics import (
    ratio_bound_chain,
    ratio_empirical,
    regret_bound_chain,
    regret_empirical,
    schedule_eps_gamma,
    xi_gap,
)
from .concentration import concentration_check_mc, concentration_constant
from .errors import RobustBundlingError
from .opt_oracle import opt_deterministic
from .solvers import maximin_bundling_value, minimax_bundling_value


def _read_config_file(path: str) -> dict:
    data: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise RobustBundlingError(
                        f"{path}:{lineno}: expected key = value, got {line!r}")
                key, val = line.split("=", 1)
                data[key.strip().lower().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise RobustBundlingError(f"cannot read config file {path}: {exc}") from exc
    return data


def _resolve(args: argparse.Namespace, options: Sequence[tuple]) -> dict:
    """Merge option sources at defaults < file < environment < flags, for
    the options the parsed subcommand declares, and parse each given value
    once, before any work. An option given nowhere reads None. The config
    file itself comes from --config, else RBL_CONFIG."""
    path = args.config if args.config is not None else os.environ.get("RBL_CONFIG")
    file_cfg = _read_config_file(path) if path else {}
    cfg: dict[str, Any] = {}
    for name, _, parse in options:
        key = name.replace("-", "_")
        raw = getattr(args, key)
        if raw is None:
            raw = os.environ.get("RBL_" + key.upper(), file_cfg.get(key))
        cfg[key] = None if raw is None else parse(key, raw)
    return cfg


def _check_out(out: str) -> None:
    """Reject an --out that cannot be a writable file: a directory, or a
    path whose directory is missing or not writable. A write can still fail
    later; _emit reports that the same way."""
    target = os.path.abspath(out)
    folder = os.path.dirname(target)
    if os.path.isdir(target):
        why = "is a directory"
    elif not os.path.isdir(folder):
        why = f"no such directory {folder}"
    elif not os.access(folder, os.W_OK):
        why = f"directory {folder} is not writable"
    else:
        return
    raise RobustBundlingError(f"cannot write output file {out}: {why}")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _need(cfg: dict, name: str) -> Any:
    if cfg[name] is None:
        raise RobustBundlingError(f"missing required option {_flag(name)}")
    return cfg[name]


def _spec(cfg: dict) -> MeanMadSpec:
    return MeanMadSpec(mu=_need(cfg, "mu"), d=_need(cfg, "d"))


# Option parsers: parse(name, raw) turns one flag, environment or config
# file text into the value a handler reads, or raises RobustBundlingError.

def _as_out(name: str, raw: str) -> str:
    _check_out(raw)
    return raw


def _as_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise RobustBundlingError(f"{_flag(name)}: not a number: {raw!r}")


def _as_floats(name: str, raw: str) -> list[float]:
    return [_as_float(name, a) for a in raw.split(",") if a.strip()]


def _as_int(name: str, raw: str, lo: Optional[int] = None) -> int:
    try:
        n = int(raw, 10)
    except ValueError:
        raise RobustBundlingError(f"{_flag(name)}: not an integer: {raw!r}")
    if lo is not None and n < lo:
        raise RobustBundlingError(f"{_flag(name)}: must be >= {lo}, got {n}")
    return n


def _as_bool(name: str, raw: str) -> bool:
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise RobustBundlingError(f"{_flag(name)}: not a boolean: {raw!r}")


def _as_m_list(name: str, raw: str) -> tuple[int, ...]:
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise RobustBundlingError("--m: need a nonempty comma-separated list")
    ms = tuple(_as_int(name, p.strip(), 1) for p in parts)
    if any(a >= b for a, b in zip(ms, ms[1:])):
        raise RobustBundlingError(f"--m: list must be strictly ascending, got {ms}")
    return ms


def _as_auto_float(name: str, raw: str) -> Optional[float]:
    # None stands for 'auto', the m^(-1/4) schedule
    return None if raw.strip().lower() == "auto" else _as_float(name, raw)


def _as_format(name: str, raw: str) -> str:
    text = raw.strip().lower()
    if text not in ("csv", "json"):
        raise RobustBundlingError(f"--format: must be csv or json, got {raw!r}")
    return text


def _as_members(name: str, raw: str | list[str]) -> list[tuple]:
    """--member specs, repeated flags or one ';'-separated text, each as
    (constructor, arguments after the spec)."""
    texts = [t for t in raw.split(";") if t.strip()] if isinstance(raw, str) else raw
    return [_parse_member(t) for t in texts]


def _parse_member(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    params: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            if "=" not in part:
                raise RobustBundlingError(
                    f"--member {text!r}: expected key=value, got {part!r}")
            key, val = part.split("=", 1)
            params[key.strip().lower()] = val.strip()

    def grab(key: str) -> str:
        if key not in params:
            raise RobustBundlingError(f"--member {text!r}: missing {key}=...")
        return params[key]

    if kind == "two_point":
        return make_two_point, (_as_float("member alpha", grab("alpha")),)
    if kind == "pareto":
        return make_pareto_member, (_as_float("member a", grab("a")),)
    if kind == "three_point":
        points = tuple(_as_float("member points", v)
                       for v in grab("points").split("+"))
        probs = tuple(_as_float("member probs", v)
                      for v in grab("probs").split("+"))
        if len(points) != 3 or len(probs) != 3:
            raise RobustBundlingError(
                f"--member {text!r}: need three +-separated points and probs")
        return make_three_point, (points, probs)
    raise RobustBundlingError(
        f"--member {text!r}: unknown kind {kind!r} "
        f"(expected two_point, three_point, or pareto)")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise RobustBundlingError(
                f"cannot write output file {out}: {exc}") from exc


def _dump_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A header line and one line per row: floats at full round-trip
    precision, anything else through str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _emit_rows(cfg: dict, rows: list[dict]) -> None:
    """Study rows sharing one key order: CSV (the default) in that order, or
    a JSON list."""
    if cfg["format"] == "json":
        _emit(_dump_json(rows), cfg["out"])
    else:
        _emit(_csv(list(rows[0]), [list(r.values()) for r in rows]), cfg["out"])


def _emit_payload(cfg: dict, payload: dict, header: Sequence[str],
                  rows: Sequence[Sequence[object]]) -> None:
    """One result: the payload as JSON (the default) or the CSV table."""
    _emit(_csv(header, rows) if cfg["format"] == "csv" else _dump_json(payload),
          cfg["out"])


def _grid_kw(cfg: dict, name: str) -> dict:
    """{name: n} for a given grid option, {} to keep the solver's default."""
    return {} if cfg[name] is None else {name: cfg[name]}


def _cmd_saddle(cfg: dict, objective: str) -> int:
    ms = _need(cfg, "m")
    solve, grid = ((maximin_bundling_value, "price_grid") if objective == "maximin"
                   else (minimax_bundling_value, "alpha_grid"))
    grid_kw = _grid_kw(cfg, grid)
    spec = _spec(cfg)
    reports = [solve(spec, m, **grid_kw) for m in ms]
    rows = [
        {
            "mu": spec.mu, "d": spec.d, "m": r.m, "objective": objective,
            "value": r.value, "price": r.price, "alpha": r.alpha,
            "lower": r.certificate[0], "upper": r.certificate[1],
        }
        for r in reports
    ]
    _emit_rows(cfg, rows)
    return 0


def _scheduled(name: str, val: Optional[float], m: int, hi: float) -> float:
    """An --eps or --gamma value: the number given, whose range the chain
    checks, or with None ('auto') the m^(-1/4) schedule at m, below hi."""
    if val is None:
        val = schedule_eps_gamma(m)
        if not val < hi:
            raise RobustBundlingError(
                f"--{name} auto: the m^(-1/4) schedule gives {val!r} at "
                f"m = {m}, need {name} < {hi!r}; pass --{name} explicitly")
    return val


def _cmd_ratio_regret(cfg: dict, objective: str) -> int:
    ms = _need(cfg, "m")
    grid_kw = _grid_kw(cfg, "grid")
    spec = _spec(cfg)
    rows = []
    for m in ms:
        eps = _scheduled("eps", cfg["eps"], m, 1.0 - spec.alpha_min)
        row = {"mu": spec.mu, "d": spec.d, "m": m, "eps": eps}
        # the chain's checks are cheap, so it runs before the study
        if objective == "ratio":
            chain = ratio_bound_chain(spec, m, eps)
            emp = ratio_empirical(spec, m, **grid_kw)
        else:
            row["gamma"] = gamma = _scheduled("gamma", cfg["gamma"], m, 1)
            chain = regret_bound_chain(spec, m, eps, gamma)
            emp = regret_empirical(spec, m, **grid_kw)
        rows.append({**row, "objective": objective, "mode": emp.mode,
                     "value": emp.value, "lower": chain["lower"],
                     "upper": chain["upper"]})
    _emit_rows(cfg, rows)
    return 0


def _cmd_concentration(cfg: dict) -> int:
    spec = _spec(cfg)
    m, eps, n, seed = (_need(cfg, key) for key in ("m", "eps", "n", "seed"))
    members = [make(spec, *params) for make, params in cfg["member"] or ()]
    report = concentration_check_mc(members, m, eps, n, seed,
                                    workers=cfg["threads"] or 1)
    payload = report.to_dict()
    if cfg["optimize_t"]:
        cert = concentration_constant(spec, eps, optimize_t=True)
        payload["optimized_t"] = cert.t
        payload["optimized_f"] = cert.f
        payload["optimized_bound"] = cert.bound(m)
    keys = sorted(payload)
    _emit_payload(cfg, payload, keys, [[payload[k] for k in keys]])
    return 0


def _cmd_xi(cfg: dict) -> int:
    res = xi_gap(_spec(cfg))
    _emit_payload(cfg, res, ("key", "value"), list(res.items()))
    return 0


def _cmd_opt_oracle(cfg: dict) -> int:
    spec = _spec(cfg)
    m = _need(cfg, "m")
    dists = [make_two_point(spec, a) for a in _need(cfg, "alpha")]
    res = opt_deterministic(dists, m, symmetric=bool(cfg["symmetric"]))
    payload = {
        "revenue": res.revenue,
        "menu": res.witness.to_json_obj(),
        "menus_evaluated": res.menus_evaluated,
        "symmetric": res.symmetric,
    }
    rows = [("+".join(str(i) for i in e["bundle"]), e["price"])
            for e in payload["menu"]]
    _emit_payload(cfg, payload, ("bundle", "price"), rows)
    return 0


def _cmd_verify(cfg: dict) -> int:
    results = run_all()
    if cfg["out"] is not None:
        payload = [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail}
            for r in results
        ]
        _emit(_dump_json(payload), cfg["out"])
    return 0 if all(r.passed for r in results) else 3


_CONFIG = ("config", "flat key = value config file", lambda name, raw: raw)
_AT_LEAST_1, _AT_LEAST_2 = partial(_as_int, lo=1), partial(_as_int, lo=2)
_COMMON = (
    ("mu", "mean of each item value", _as_float),
    ("d", "mean absolute deviation of each item value", _as_float),
    _CONFIG,
    ("format", "csv or json", _as_format),
    ("out", "output path (default: stdout)", _as_out),
)
_M_LIST = ("m", "comma-separated ascending item counts", _as_m_list)
_STUDY = _COMMON + (
    _M_LIST,
    ("eps", "tail slack, number or 'auto' (m^-1/4)", _as_auto_float),
    ("grid", "price grid points, read only in oracle mode (m <= 3)", _AT_LEAST_2),
)
_SWITCH = {"action": "store_const", "const": "true"}
# add_argument keywords beyond help, for the options that are not one value
_ACTIONS = {"member": {"action": "append"}, "optimize-t": _SWITCH,
            "symmetric": _SWITCH}

# subcommand -> (help, handler, options). An option is (name, help, parse):
# its flag is --name, its environment variable RBL_NAME and its config key
# name, with - read as _, and _resolve applies parse(name, raw) to any value
# given, so every value is checked before the handler starts. A help of
# SUPPRESS hides an option that is still parsed and validated.
_COMMANDS = {
    # each game order uses one grid; the other is accepted, so one argv can
    # drive both orders, and is validated, hidden and inert
    "maximin": ("price-first bundle game study",
                lambda cfg: _cmd_saddle(cfg, "maximin"),
                _COMMON + (_M_LIST,
                           ("alpha-grid", argparse.SUPPRESS, _AT_LEAST_2),
                           ("price-grid", "price grid points", _AT_LEAST_2))),
    "minimax": ("nature-first bundle game study",
                lambda cfg: _cmd_saddle(cfg, "minimax"),
                _COMMON + (_M_LIST,
                           ("alpha-grid", "adversary grid points", _AT_LEAST_2),
                           ("price-grid", argparse.SUPPRESS, _AT_LEAST_2))),
    "ratio": ("share-of-first-best study",
              lambda cfg: _cmd_ratio_regret(cfg, "ratio"), _STUDY),
    "regret": ("per-item shortfall study",
               lambda cfg: _cmd_ratio_regret(cfg, "regret"), _STUDY + (
                   ("gamma", "share slack, number or 'auto' (m^-1/4)",
                    _as_auto_float),)),
    "concentration": ("Monte Carlo tail-bound check", _cmd_concentration, (
        *_COMMON,
        ("m", "number of items", _AT_LEAST_1),
        ("eps", "tail slack in (0, 1 - d/(2 mu))", _as_float),
        ("n", "Monte Carlo sample count (>= 10^4)", _as_int),
        ("seed", "RNG seed (required)", partial(_as_int, lo=0)),
        ("threads", "Monte Carlo worker threads", _AT_LEAST_1),
        ("member", "member spec, e.g. two_point:alpha=0.5, pareto:a=2, "
                   "three_point:points=0+1+2,probs=0.25+0.5+0.25; "
                   "repeat for a cycled mix", _as_members),
        ("optimize-t", "also report the f-minimizing cut", _as_bool))),
    "xi": ("dispersed-regime gap constants", _cmd_xi, _COMMON),
    "opt-oracle": ("small-m exact menu oracle", _cmd_opt_oracle, (
        *_COMMON,
        ("m", "number of items (<= 3 full, <= 4 symmetric)", _AT_LEAST_1),
        ("alpha", "low-point mass, one value or m comma-separated",
         _as_floats),
        ("symmetric", "restrict prices to depend on bundle size only",
         _as_bool))),
    "verify": ("run every acceptance check", _cmd_verify, (
        _CONFIG, ("out", "also write results as JSON here", _as_out))),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise RobustBundlingError, so
    they exit 2 with one line like every other invalid input."""

    def error(self, message: str):
        raise RobustBundlingError(f"{self.prog}: {message}")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The rbl parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="rbl",
        description="Robust bundle pricing laboratory under mean/MAD ambiguity.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for name, helptext, _ in options:
            sub.add_argument("--" + name, help=helptext,
                             **_ACTIONS.get(name, {}))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, handler, options = _COMMANDS[args.command]
        return handler(_resolve(args, options))
    except (RobustBundlingError, MemoryError) as exc:
        # an argument echoed into the message may hold a line break
        text = str(exc) or type(exc).__name__
        one_line = text.replace("\r", "\\r").replace("\n", "\\n")
        print(f"error: {one_line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
