"""Command-line front end: run experiments and emit CSV plot data.

Four subcommands cover the whole surface: ``reveng`` replays the
reverse-engineering benches and self-checks their verdicts, ``attack``
runs one covert-channel variant and scores every round, ``mitigate``
prices the periodic table flush on a strided workload, and ``oracle``
fuzzes the table against the literal update-recipe transcription.

Every option can also come from a ``--config`` file of ``key=value``
lines; explicit flags win over the file, and the ``AFTERIMAGE_SEED``
environment variable seeds runs that specify nothing else.  Output
files echo the full effective configuration as ``# key=value`` header
comments and are byte-identical for identical inputs.

Exit codes: 0 on success, 1 when results fail verification or a file
cannot be read or written, 2 for usage errors including unsupported
variant/channel pairings.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .cache import CacheConfig
from .experiments import (
    DEFAULT_CLOCK_GHZ,
    NoiseModel,
    flush_period_cycles,
    load_trace,
    mitigation_eval,
    rev_conf_stride,
    rev_entries,
    rev_indexing,
    rev_page,
    rev_replacement,
    run_attack,
)
from .oracle import run_equivalence_check

ATTACK_COLUMNS = ["round", "truth", "detected_stride", "inferred", "success"]
MITIGATE_COLUMNS = [
    "flush_period", "write_ports", "loads", "flushes", "reset_cycles",
    "baseline_misses", "prefetch_requests", "useful_prefetches",
    "coverage", "coverage_no_flush", "coverage_delta",
]
ORACLE_COLUMNS = ["seed", "loads", "mismatches"]
MAX_ORACLE_LOADS = 1_000_000  # a stream this long holds about 200 MB of lists

_CACHE_KEYS = {
    "cache_slices": "slices",
    "cache_sets_per_slice": "sets_per_slice",
    "cache_associativity": "associativity",
    "cache_hit_latency": "hit_latency",
    "cache_miss_latency": "miss_latency",
    "cache_threshold": "threshold",
}


class UsageError(ValueError):
    """A problem with the requested parameters, not with the results."""


# --------------------------------------------------------------------------
# configuration plumbing
# --------------------------------------------------------------------------


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a ``key=value`` config file; ``#`` comments and blanks skip."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    config = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, "
                             f"got {line!r}")
        key, _, value = line.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _to_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _resolve(flag_value, config: dict, key: str, default, convert):
    """Flag beats config file beats default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        try:
            return convert(config[key])
        except UsageError:
            raise
        except ValueError:
            raise UsageError(
                f"config key {key}: cannot parse {config[key]!r}") from None
    return default


def _default_seed() -> int:
    raw = os.environ.get("AFTERIMAGE_SEED", "")
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(
            f"AFTERIMAGE_SEED must be an integer, got {raw!r}") from None


def _cache_config(config: dict) -> CacheConfig | None:
    overrides = {}
    for key, fieldname in _CACHE_KEYS.items():
        if key in config:
            try:
                overrides[fieldname] = int(config[key])
            except ValueError:
                raise UsageError(
                    f"config key {key}: cannot parse "
                    f"{config[key]!r}") from None
    return CacheConfig(**overrides) if overrides else None


def _cache_echo(cache_config: CacheConfig | None) -> dict:
    effective = cache_config if cache_config is not None else CacheConfig()
    return {key: getattr(effective, fieldname)
            for key, fieldname in _CACHE_KEYS.items()}


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------


def emit_csv(path: str | Path, columns: list[str], rows: list[dict],
             config: dict, success_rate: float | None = None) -> None:
    """Write header comments, a column row, data rows and an optional
    trailing ``# success_rate=<r>`` summary."""
    lines = [f"# {key}={value}" for key, value in sorted(config.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(row[column]) for column in columns))
    if success_rate is not None:
        lines.append(f"# success_rate={success_rate}")
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _reveng_indexing(seed, cache_config):
    result = rev_indexing(cache_config=cache_config)
    return ["offset", "triggered"], result.rows(), result.verify()


def _reveng_confstride(seed, cache_config):
    columns = ["mode", "iteration", "st1_7_hot", "st2_5_hot", "label"]
    rows, problems = [], []
    for mode in ("random", "equals_st2"):
        result = rev_conf_stride(offset_mode=mode, seed=seed,
                                 cache_config=cache_config)
        rows.extend({"mode": mode, **row} for row in result.rows())
        problems.extend(f"{mode}: {p}" for p in result.verify())
    return columns, rows, problems


def _reveng_page(seed, cache_config):
    result = rev_page(cache_config=cache_config)
    columns = ["pool", "offset_pages", "tlb", "access", "triggered"]
    return columns, result.rows(), result.verify()


def _reveng_entries(seed, cache_config):
    rows, problems = [], []
    for n_ips in (24, 26, 30):
        result = rev_entries(n_ips, cache_config=cache_config)
        rows.extend({"n_ips": n_ips, **row} for row in result.rows())
        problems.extend(f"{n_ips} streams: {p}" for p in result.verify())
    return ["n_ips", "position", "alive"], rows, problems


def _reveng_replacement(seed, cache_config):
    result = rev_replacement(cache_config=cache_config)
    return ["position", "alive"], result.rows(), result.verify()


_REVENG = {
    "indexing": _reveng_indexing,
    "confstride": _reveng_confstride,
    "page": _reveng_page,
    "entries": _reveng_entries,
    "replacement": _reveng_replacement,
}


def _cmd_reveng(args, config) -> int:
    which = _resolve(args.which, config, "which", "all", str)
    if which != "all" and which not in _REVENG:
        raise UsageError(f"unknown experiment {which!r}; choose from "
                         f"{', '.join(_REVENG)} or all")
    out_dir = Path(_resolve(args.out_dir, config, "out_dir", ".", str))
    seed = _resolve(args.seed, config, "seed", _default_seed(), int)
    cache_config = _cache_config(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    names = list(_REVENG) if which == "all" else [which]
    problems = []
    for name in names:
        columns, rows, found = _REVENG[name](seed, cache_config)
        echo = {"command": "reveng", "experiment": name, "seed": seed,
                **_cache_echo(cache_config)}
        emit_csv(out_dir / f"reveng_{name}.csv", columns, rows, echo)
        problems.extend(f"{name}: {p}" for p in found)
    if problems:
        for problem in problems:
            print(f"verification mismatch: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_attack(args, config) -> int:
    variant = _resolve(args.variant, config, "variant", None, int)
    channel = _resolve(args.channel, config, "channel", None, str)
    if variant is None or channel is None:
        raise UsageError("attack needs --variant and --channel")
    rounds = _resolve(args.rounds, config, "rounds", 200, int)
    seed = _resolve(args.seed, config, "seed", _default_seed(), int)
    p_evict = _resolve(args.noise_evict, config, "noise_evict", 0.0, float)
    p_extra = _resolve(args.noise_load, config, "noise_load", 0.0, float)
    next_line = _resolve(args.next_line_noise, config, "next_line_noise",
                         False, _to_bool)
    flush_on_switch = _resolve(args.flush_on_switch, config,
                               "flush_on_switch", False, _to_bool)
    output = _resolve(args.output, config, "output",
                      f"attack_v{variant}_{channel}.csv", str)
    cache_config = _cache_config(config)
    noise = NoiseModel(p_evict=p_evict, p_extra_load=p_extra,
                       next_line_noise=next_line, seed=seed)
    outcome = run_attack(variant, channel, rounds, noise, seed,
                         flush_on_switch, cache_config)
    echo = {
        "command": "attack", "variant": variant, "channel": channel,
        "rounds": rounds, "seed": seed, "noise_evict": p_evict,
        "noise_load": p_extra, "next_line_noise": next_line,
        "flush_on_switch": flush_on_switch, **_cache_echo(cache_config),
    }
    for key, value in outcome.detail.items():
        echo[key] = value
    emit_csv(output, ATTACK_COLUMNS, outcome.rows(), echo,
             success_rate=outcome.success_rate)
    return 0


def _cmd_mitigate(args, config) -> int:
    period_us = _resolve(args.period_us, config, "period_us", 10.0, float)
    clock_ghz = _resolve(args.clock_ghz, config, "clock_ghz",
                         DEFAULT_CLOCK_GHZ, float)
    write_ports = _resolve(args.write_ports, config, "write_ports", 1, int)
    cycles_per_load = _resolve(args.cycles_per_load, config,
                               "cycles_per_load", 10, int)
    trace = _resolve(args.trace, config, "trace", None, str)
    output = _resolve(args.output, config, "output", "mitigate.csv", str)
    cache_config = _cache_config(config)
    period = flush_period_cycles(period_us, clock_ghz)
    workload = load_trace(trace) if trace else None
    report = mitigation_eval(workload, period, write_ports, cycles_per_load,
                             cache_config)
    echo = {
        "command": "mitigate", "period_us": period_us,
        "clock_ghz": clock_ghz, "write_ports": write_ports,
        "cycles_per_load": cycles_per_load,
        "trace": trace if trace else "", **_cache_echo(cache_config),
    }
    emit_csv(output, MITIGATE_COLUMNS, report.rows(), echo)
    return 0


def _cmd_oracle(args, config) -> int:
    sequences = _resolve(args.sequences, config, "sequences", 10, int)
    loads = _resolve(args.loads, config, "loads", 100_000, int)
    output = _resolve(args.output, config, "output", "oracle.csv", str)
    if sequences < 1 or loads < 1:
        raise UsageError("sequences and loads must be positive")
    if loads > MAX_ORACLE_LOADS:
        raise UsageError(f"loads must not exceed {MAX_ORACLE_LOADS}")
    report = run_equivalence_check(n_loads=loads, seeds=range(sequences))
    rows = [{"seed": seed, "loads": loads, "mismatches": mismatches}
            for seed, mismatches in report.per_seed]
    echo = {"command": "oracle", "sequences": sequences, "loads": loads}
    emit_csv(output, ORACLE_COLUMNS, rows, echo)
    if not report.ok:
        print(f"verification mismatch: "
              f"{report.first_mismatch or 'state divergence'}",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# parser and dispatch
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the oracle's streams are always seeds 0..sequences-1: no --seed
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", metavar="FILE",
                            help="key=value defaults; explicit flags win")
    common = argparse.ArgumentParser(add_help=False, parents=[configured])
    common.add_argument("--seed", type=int, default=None,
                        help="run seed (default: AFTERIMAGE_SEED or 0)")

    parser = argparse.ArgumentParser(
        prog="afterimage",
        description="Stride-prefetcher side-channel simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    reveng = sub.add_parser(
        "reveng", parents=[common],
        help="replay the reverse-engineering benches and self-check")
    reveng.add_argument("--which", default=None,
                        choices=[*_REVENG, "all"],
                        help="which bench to run (default all)")
    reveng.add_argument("--out-dir", default=None,
                        help="directory for reveng_<name>.csv files")

    attack = sub.add_parser("attack", parents=[common],
                            help="run one attack variant end to end")
    attack.add_argument("--variant", type=int, default=None,
                        help="1 same address space, 2 cross process, "
                             "3 user to kernel")
    attack.add_argument("--channel", default=None,
                        choices=["prime_probe", "flush_reload",
                                 "status_probe"])
    attack.add_argument("--rounds", type=int, default=None)
    attack.add_argument("--noise-evict", type=float, default=None,
                        help="per-line eviction probability")
    attack.add_argument("--noise-load", type=float, default=None,
                        help="per-round stray cached line probability")
    attack.add_argument("--next-line-noise", action="store_true",
                        default=None,
                        help="install neighbours of every victim access")
    attack.add_argument("--flush-on-switch", action="store_true",
                        default=None,
                        help="clear the table at every context switch")
    attack.add_argument("--output", default=None, metavar="FILE")

    mitigate = sub.add_parser("mitigate", parents=[common],
                              help="price the periodic table flush")
    mitigate.add_argument("--period-us", type=float, default=None,
                          help="flush period in microseconds (inf disables)")
    mitigate.add_argument("--write-ports", type=int, default=None)
    mitigate.add_argument("--trace", default=None, metavar="FILE",
                          help="ip_hex,vaddr_hex,domain_id load trace")
    mitigate.add_argument("--cycles-per-load", type=int, default=None)
    mitigate.add_argument("--clock-ghz", type=float, default=None)
    mitigate.add_argument("--output", default=None, metavar="FILE")

    oracle = sub.add_parser(
        "oracle", parents=[configured],
        help="fuzz the table against the reference transcription")
    oracle.add_argument("--sequences", type=int, default=None,
                        help="number of seeded load streams")
    oracle.add_argument("--loads", type=int, default=None,
                        help=f"loads per stream (at most {MAX_ORACLE_LOADS})")
    oracle.add_argument("--output", default=None, metavar="FILE")

    return parser


_HANDLERS = {
    "reveng": _cmd_reveng,
    "attack": _cmd_attack,
    "mitigate": _cmd_mitigate,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = read_config(args.config) if args.config else {}
        return _HANDLERS[args.command](args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
