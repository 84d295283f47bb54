"""Command-line entry point: parameter studies and machine-readable outputs.

Subcommands: maximin, minimax, ratio, regret, concentration, xi, opt-oracle,
verify. Options resolve as defaults < config file < environment < flags, where
the config file is flat "key = value" lines and environment overrides are the
flag name uppercased with an RBL_ prefix (--alpha-grid -> RBL_ALPHA_GRID); a
subcommand reads only the options it declares. Outputs are CSV or JSON with
every float printed at full round-trip precision, so identical configuration
and seed give byte-identical files. Exit codes: 0 success, 2 validation failure
(one "error:" line on stderr, parser errors included), 3 verify found failing
checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .acceptance import run_all
from .ambiguity import (
    MeanMadSpec,
    MemberDist,
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
from .errors import ConfigError, RobustBundlingError
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
                    raise ConfigError(
                        f"{path}:{lineno}: expected key = value, got {line!r}")
                key, val = line.split("=", 1)
                data[key.strip().lower().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return data


def _resolve(args: argparse.Namespace, names: Sequence[str]) -> dict:
    """Merge option sources at defaults < file < environment < flags.

    --seed, --threads and --format are checked here, before any work, so
    every subcommand that accepts them rejects a bad value, used or not."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    merged: dict[str, object] = {}
    for name in names:
        val = getattr(args, name, None)
        if val is None:
            env = os.environ.get("RBL_" + name.upper())
            val = env if env is not None else file_cfg.get(name)
        merged[name] = val
    for name, check in (("seed", _as_seed), ("threads", _as_threads),
                        ("format", _as_format)):
        if merged.get(name) is not None:
            check(merged[name])
    return merged


def _need(cfg: dict, name: str) -> object:
    if cfg.get(name) is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return cfg[name]


def _spec(cfg: dict) -> MeanMadSpec:
    return MeanMadSpec(mu=_as_float("mu", _need(cfg, "mu")),
                       d=_as_float("d", _need(cfg, "d")))


def _as_float(name: str, raw: object) -> float:
    try:
        return float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigError(f"--{name.replace('_', '-')}: not a number: {raw!r}")


def _as_int(name: str, raw: object) -> int:
    try:
        return int(str(raw), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"--{name.replace('_', '-')}: not an integer: {raw!r}")


def _as_grid(name: str, raw: object) -> Optional[int]:
    if raw is None:
        return None
    n = _as_int(name, raw)
    if n < 2:
        raise ConfigError(
            f"--{name.replace('_', '-')}: need at least 2 grid points, got {n}")
    return n


def _as_seed(raw: object) -> int:
    seed = _as_int("seed", raw)
    if seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {seed}")
    return seed


def _as_threads(raw: object) -> int:
    threads = 1 if raw is None else _as_int("threads", raw)
    if threads < 1:
        raise ConfigError(f"--threads: must be >= 1, got {threads}")
    return threads


def _as_bool(name: str, raw: object) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"--{name.replace('_', '-')}: not a boolean: {raw!r}")


def _as_items(raw: object) -> int:
    m = _as_int("m", raw)
    if m < 1:
        raise ConfigError(f"--m: item counts must be >= 1, got {m}")
    return m


def _as_m_list(raw: object) -> tuple[int, ...]:
    parts = [p for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError("--m: need a nonempty comma-separated list")
    ms = tuple(_as_items(p.strip()) for p in parts)
    if any(a >= b for a, b in zip(ms, ms[1:])):
        raise ConfigError(f"--m: list must be strictly ascending, got {ms}")
    return ms


def _as_auto_float(name: str, raw: object) -> object:
    if raw is None:
        return "auto"
    if str(raw).strip().lower() == "auto":
        return "auto"
    return _as_float(name, raw)


def _as_format(raw: object) -> str:
    text = str(raw).strip().lower() if raw is not None else "csv"
    if text not in ("csv", "json"):
        raise ConfigError(f"--format: must be csv or json, got {raw!r}")
    return text


def _parse_member(text: str, spec: MeanMadSpec) -> MemberDist:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    params: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            if "=" not in part:
                raise ConfigError(
                    f"--member {text!r}: expected key=value, got {part!r}")
            key, val = part.split("=", 1)
            params[key.strip().lower()] = val.strip()

    def grab(key: str) -> str:
        if key not in params:
            raise ConfigError(f"--member {text!r}: missing {key}=...")
        return params[key]

    if kind == "two_point":
        return make_two_point(spec, _as_float("member alpha", grab("alpha")))
    if kind == "pareto":
        return make_pareto_member(spec, _as_float("member a", grab("a")))
    if kind == "three_point":
        points = tuple(_as_float("member points", v)
                       for v in grab("points").split("+"))
        probs = tuple(_as_float("member probs", v)
                      for v in grab("probs").split("+"))
        if len(points) != 3 or len(probs) != 3:
            raise ConfigError(
                f"--member {text!r}: need three +-separated points and probs")
        return make_three_point(spec, points, probs)  # type: ignore[arg-type]
    raise ConfigError(
        f"--member {text!r}: unknown kind {kind!r} "
        f"(expected two_point, three_point, or pareto)")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


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
    if _as_format(cfg.get("format")) == "json":
        _emit(_dump_json(rows), cfg.get("out"))  # type: ignore[arg-type]
    else:
        _emit(_csv(list(rows[0]), [list(r.values()) for r in rows]),
              cfg.get("out"))  # type: ignore[arg-type]


def _emit_payload(cfg: dict, payload: dict, header: Sequence[str],
                  rows: Sequence[Sequence[object]]) -> None:
    """One result: the payload as JSON (the default) or the CSV table."""
    fmt = _as_format(cfg.get("format") or "json")
    _emit(_dump_json(payload) if fmt == "json" else _csv(header, rows),
          cfg.get("out"))  # type: ignore[arg-type]


_COMMON = ("mu", "d", "config", "format", "out", "seed", "threads")


def _grid_kw(cfg: dict, name: str) -> dict:
    """{name: n} for a given grid option, {} to keep the solver's default."""
    n = _as_grid(name, cfg.get(name))
    return {} if n is None else {name: n}


def _cmd_saddle(args: argparse.Namespace, objective: str) -> int:
    cfg = _resolve(args, _COMMON + ("m", "alpha_grid", "price_grid"))
    ms = _as_m_list(_need(cfg, "m"))
    alpha_kw = _grid_kw(cfg, "alpha_grid")
    price_kw = _grid_kw(cfg, "price_grid")
    spec = _spec(cfg)
    reports = []
    for m in ms:
        if objective == "maximin":
            reports.append(maximin_bundling_value(spec, m, **price_kw))
        else:
            reports.append(minimax_bundling_value(spec, m, **alpha_kw))
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


def _scheduled(name: str, raw: object, m: int, hi: float) -> float:
    """An --eps or --gamma value: the number given, or 'auto', the m^(-1/4)
    schedule at m, which must fall below hi (numbers are range-checked by
    the bound chains)."""
    if raw != "auto":
        return float(raw)  # type: ignore[arg-type]
    val = schedule_eps_gamma(m)
    if not val < hi:
        raise ConfigError(
            f"--{name} auto: the m^(-1/4) schedule gives {val!r} at m = {m}, "
            f"need {name} < {hi!r}; pass --{name} explicitly")
    return val


def _cmd_ratio_regret(args: argparse.Namespace, objective: str) -> int:
    cfg = _resolve(args, _COMMON + ("m", "eps", "gamma", "grid"))
    ms = _as_m_list(_need(cfg, "m"))
    raw_eps = _as_auto_float("eps", cfg.get("eps"))
    raw_gamma = _as_auto_float("gamma", cfg.get("gamma"))
    grid_kw = _grid_kw(cfg, "grid")
    spec = _spec(cfg)
    rows = []
    for m in ms:
        eps = _scheduled("eps", raw_eps, m, 1.0 - spec.alpha_min)
        # ratio reports gamma but does not use it
        gamma = _scheduled("gamma", raw_gamma, m,
                           1.0 if objective == "regret" else float("inf"))
        # the chain rejects an out-of-range eps or gamma, so it runs first
        if objective == "ratio":
            chain = ratio_bound_chain(spec, m, eps)
            emp = ratio_empirical(spec, m, **grid_kw)
        else:
            chain = regret_bound_chain(spec, m, eps, gamma)
            emp = regret_empirical(spec, m, **grid_kw)
        rows.append({
            "mu": spec.mu, "d": spec.d, "m": m, "eps": eps, "gamma": gamma,
            "objective": objective, "mode": emp.mode, "value": emp.value,
            "lower": chain["lower"], "upper": chain["upper"],
        })
    _emit_rows(cfg, rows)
    return 0


def _cmd_concentration(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _COMMON + ("m", "eps", "n", "member", "optimize_t"))
    spec = _spec(cfg)
    m = _as_items(_need(cfg, "m"))
    eps = _as_float("eps", _need(cfg, "eps"))
    n = _as_int("n", _need(cfg, "n"))
    if cfg.get("seed") is None:
        raise ConfigError("--seed is required for Monte Carlo runs")
    seed = _as_seed(cfg["seed"])
    threads = _as_threads(cfg.get("threads"))
    raw_members = cfg.get("member")
    if raw_members is None:
        raise ConfigError("need at least one --member")
    if isinstance(raw_members, str):
        member_texts = [t for t in raw_members.split(";") if t.strip()]
    else:
        member_texts = list(raw_members)
    members = [_parse_member(t, spec) for t in member_texts]
    report = concentration_check_mc(members, m, eps, n, seed, workers=threads)
    payload = report.to_dict()
    if _as_bool("optimize_t", cfg.get("optimize_t") or False):
        cert = concentration_constant(spec, eps, optimize_t=True).with_m(m)
        payload["optimized_t"] = cert.t
        payload["optimized_f"] = cert.f
        payload["optimized_bound"] = cert.bound
    keys = sorted(payload)
    _emit_payload(cfg, payload, keys, [[payload[k] for k in keys]])
    return 0


def _cmd_xi(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _COMMON)
    res = xi_gap(_spec(cfg))
    keys = ("gamma", "tau0", "xi0", "xi1", "xi")
    _emit_payload(cfg, res, ("key", "value"), [(k, res[k]) for k in keys])
    return 0


def _cmd_opt_oracle(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _COMMON + ("m", "alpha", "symmetric"))
    spec = _spec(cfg)
    m = _as_items(_need(cfg, "m"))
    alphas = [_as_float("alpha", a)
              for a in str(_need(cfg, "alpha")).split(",") if a.strip()]
    if len(alphas) not in (1, m):
        raise ConfigError(f"--alpha: need 1 or {m} comma-separated values")
    dists = [make_two_point(spec, a) for a in alphas]
    symmetric = _as_bool("symmetric", cfg.get("symmetric") or False)
    res = opt_deterministic(dists, m, symmetric=symmetric)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ("config", "out", "format"))
    results = run_all(verbose=True)
    out = cfg.get("out")
    if out is not None:
        payload = [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "detail": r.detail}
            for r in results
        ]
        _emit(_dump_json(payload), out)  # type: ignore[arg-type]
    return 0 if all(r.passed for r in results) else 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mu", help="mean of each item value")
    sub.add_argument("--d", help="mean absolute deviation of each item value")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--format", help="csv or json")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--seed", help="RNG seed (required for Monte Carlo)")
    sub.add_argument("--threads", help="worker threads for Monte Carlo")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so they exit
    2 with one line like every other invalid input."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rbl",
        description="Robust bundle pricing laboratory under mean/MAD ambiguity.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, text in (("maximin", "price-first bundle game study"),
                       ("minimax", "nature-first bundle game study")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        sub.add_argument("--m", help="comma-separated ascending item counts")
        # each order uses one grid; the other is accepted, so one argv can
        # drive both orders, and is validated, hidden and inert
        sub.add_argument("--alpha-grid", dest="alpha_grid",
                         help="adversary grid points" if name == "minimax"
                         else argparse.SUPPRESS)
        sub.add_argument("--price-grid", dest="price_grid",
                         help="price grid points" if name == "maximin"
                         else argparse.SUPPRESS)

    for name, text in (("ratio", "share-of-first-best study"),
                       ("regret", "per-item shortfall study")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        sub.add_argument("--m", help="comma-separated ascending item counts")
        sub.add_argument("--eps", help="tail slack, number or 'auto' (m^-1/4)")
        sub.add_argument("--gamma", help="share slack, number or 'auto' (m^-1/4)")
        sub.add_argument("--grid", help="empirical grid points")

    sub = subs.add_parser("concentration", help="Monte Carlo tail-bound check")
    _add_common(sub)
    sub.add_argument("--m", help="number of items")
    sub.add_argument("--eps", help="tail slack in (0, 1 - d/(2 mu))")
    sub.add_argument("--n", help="Monte Carlo sample count (>= 10^4)")
    sub.add_argument("--member", action="append",
                     help="member spec, e.g. two_point:alpha=0.5, pareto:a=2, "
                          "three_point:points=0+1+2,probs=0.25+0.5+0.25; "
                          "repeat for a cycled mix")
    sub.add_argument("--optimize-t", dest="optimize_t", action="store_const",
                     const="true", help="also report the f-minimizing cut")

    sub = subs.add_parser("xi", help="dispersed-regime gap constants")
    _add_common(sub)

    sub = subs.add_parser("opt-oracle", help="small-m exact menu oracle")
    _add_common(sub)
    sub.add_argument("--m", help="number of items (<= 3 full, <= 4 symmetric)")
    sub.add_argument("--alpha", help="low-point mass, one value or m comma-separated")
    sub.add_argument("--symmetric", action="store_const", const="true",
                     help="restrict prices to depend on bundle size only")

    sub = subs.add_parser("verify", help="run every acceptance check")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="also write results as JSON here")
    sub.add_argument("--format", help=argparse.SUPPRESS)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "maximin":
            return _cmd_saddle(args, "maximin")
        if args.command == "minimax":
            return _cmd_saddle(args, "minimax")
        if args.command == "ratio":
            return _cmd_ratio_regret(args, "ratio")
        if args.command == "regret":
            return _cmd_ratio_regret(args, "regret")
        if args.command == "concentration":
            return _cmd_concentration(args)
        if args.command == "xi":
            return _cmd_xi(args)
        if args.command == "opt-oracle":
            return _cmd_opt_oracle(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except RobustBundlingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
