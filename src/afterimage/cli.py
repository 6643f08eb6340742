"""Command-line front end: run experiments and emit CSV plot data.

Four subcommands cover the whole surface: ``reveng`` replays the
reverse-engineering benches and self-checks their verdicts, ``attack``
runs one covert-channel variant and scores every round, ``mitigate``
prices the periodic table flush on a strided workload, and ``oracle``
fuzzes the table against the literal update-recipe transcription.

Every option can also come from a ``--config`` file of ``key=value``
lines, parsed as flags placed before the explicit ones, which win.  A
key must name an option of the subcommand; the cache geometry is the
six ``--cache-*`` options (not for oracle).  ``AFTERIMAGE_SEED`` seeds
runs that specify nothing else.  Output files echo the full effective
configuration as ``# key=value`` header comments and are
byte-identical for identical inputs.

Exit codes: 0 on success, 1 when results fail verification or a file
cannot be read or written, 2 for usage errors, each reported as one
``error:`` line, including unsupported variant/channel pairings.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .cache import CacheConfig
from .experiments import (
    ATTACK_CHANNELS,
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

MAX_ATTACK_ROUNDS = 1_000_000  # the report keeps a row per round
MAX_ORACLE_LOADS = 1_000_000  # bounds run time: --loads may be up to 2**80
MAX_ORACLE_SEQUENCES = 100_000  # the report keeps a row per sequence

_REVENG = {"indexing": rev_indexing, "confstride": rev_conf_stride,
           "page": rev_page, "entries": rev_entries,
           "replacement": rev_replacement}


class _Parser(argparse.ArgumentParser):
    """Report usage errors as ValueError: main prints one line, exit 2.
    An option is matched only by its full name, never by a prefix."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


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
            raise ValueError(f"{path}:{lineno}: expected key=value, "
                             f"got {line!r}")
        key, _, value = line.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _to_bool(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"config key {key}: expected a boolean, got {text!r}")


def _config_flags(config: dict, parsed: dict) -> list[str]:
    """Spell the config file's entries as flags: a switch (an option
    whose value is a bool) as its bare flag when true and as nothing
    when false, any other key as ``--key=value``, so that the parser
    checks it like a flag."""
    flags = []
    for key, value in config.items():
        if key == "config":
            raise ValueError("config key config: config files do not nest")
        flag = "--" + key.replace("_", "-")
        if isinstance(parsed.get(key), bool):
            flags += [flag] if _to_bool(key, value) else []
        else:
            flags.append(f"{flag}={value}")
    return flags


def _seed(args) -> int:
    """The --seed flag or config entry, else AFTERIMAGE_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("AFTERIMAGE_SEED", "")
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"AFTERIMAGE_SEED must be an integer, got {raw!r}") from None


def _cache_config(args) -> CacheConfig:
    """The cache geometry of the ``--cache-*`` options."""
    return CacheConfig(*[getattr(args, f"cache_{name}")
                         for name in CacheConfig._fields])


def _echo(args, *drop: str) -> dict:
    """The header echo: every parsed option but config, output and drop."""
    return {key: value for key, value in vars(args).items()
            if key not in ("config", "output", *drop)}


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------


def emit_csv(path: str | Path, rows: list[dict], config: dict,
             success_rate: float | None = None) -> None:
    """Write header comments, a column row (the first row's keys, in
    order), data rows and an optional trailing ``# success_rate=<r>``
    summary."""
    lines = [f"# {key}={value}" for key, value in sorted(config.items())]
    columns = list(rows[0])
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(row[column]) for column in columns))
    if success_rate is not None:
        lines.append(f"# success_rate={success_rate}")
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_reveng(args) -> int:
    cache_config = _cache_config(args)
    args.seed = _seed(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = _REVENG if args.which == "all" else [args.which]
    problems = []
    for name in names:
        # confstride draws its random jump from the run seed
        seeded = {"seed": args.seed} if name == "confstride" else {}
        result = _REVENG[name](cache_config=cache_config, **seeded)
        problems += [f"{name}: {problem}" for problem in result.problems]
        echo = {**_echo(args, "which", "out_dir"), "experiment": name}
        emit_csv(out_dir / f"reveng_{name}.csv", result.rows, echo)
    if problems:
        for problem in problems:
            print(f"verification mismatch: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_attack(args) -> int:
    cache_config = _cache_config(args)
    if args.variant is None or args.channel is None:
        raise ValueError("attack needs --variant and --channel")
    if args.rounds > MAX_ATTACK_ROUNDS:
        raise ValueError(f"rounds must not exceed {MAX_ATTACK_ROUNDS}")
    args.seed = _seed(args)
    noise = NoiseModel(p_evict=args.noise_evict, p_extra_load=args.noise_load,
                       next_line_noise=args.next_line_noise)
    outcome = run_attack(args.variant, args.channel, args.rounds, noise,
                         args.seed, args.flush_on_switch, cache_config)
    output = (args.output if args.output is not None
              else f"attack_v{args.variant}_{args.channel}.csv")
    echo = {**_echo(args), **outcome.detail}
    emit_csv(output, outcome.rows(), echo,
             success_rate=outcome.success_rate)
    return 0


def _cmd_mitigate(args) -> int:
    cache_config = _cache_config(args)
    period = flush_period_cycles(args.period_us, args.clock_ghz)
    workload = load_trace(args.trace) if args.trace else None
    report = mitigation_eval(workload, period, args.write_ports,
                             args.cycles_per_load, cache_config)
    # the replay draws nothing at random: --seed is accepted only for
    # callers that pass it anyway (perfbench's stream_replay), not echoed
    echo = _echo(args, "seed")
    emit_csv(args.output, report.rows(), echo)
    return 0


def _cmd_oracle(args) -> int:
    if args.sequences < 1 or args.loads < 1:
        raise ValueError("sequences and loads must be positive")
    if args.loads > MAX_ORACLE_LOADS:
        raise ValueError(f"loads must not exceed {MAX_ORACLE_LOADS}")
    if args.sequences > MAX_ORACLE_SEQUENCES:
        raise ValueError(
            f"sequences must not exceed {MAX_ORACLE_SEQUENCES}")
    report = run_equivalence_check(n_loads=args.loads,
                                   seeds=range(args.sequences))
    rows = [{"seed": seed, "loads": args.loads, "mismatches": mismatches}
            for seed, mismatches in report.per_seed]
    emit_csv(args.output, rows, _echo(args))
    if not report.ok:
        print(f"verification mismatch: "
              f"{report.first_mismatch or 'state divergence'}",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# parser and dispatch
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Parsing
    leaves it as it was, so calls share it."""
    # the oracle's streams are always seeds 0..sequences-1: no --seed
    configured = _Parser(add_help=False)
    configured.add_argument("--config", metavar="FILE",
                            help="key=value defaults; explicit flags win")
    common = _Parser(add_help=False, parents=[configured])
    common.add_argument("--seed", type=int, default=None,
                        help="run seed (default: AFTERIMAGE_SEED or 0)")
    for name, default in CacheConfig._field_defaults.items():
        common.add_argument(f"--cache-{name.replace('_', '-')}", type=int,
                            default=default, metavar="N",
                            help=f"CacheConfig.{name} (default %(default)s)")

    parser = _Parser(prog="afterimage",
                     description="Stride-prefetcher side-channel simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    reveng = sub.add_parser(
        "reveng", parents=[common],
        help="replay the reverse-engineering benches and self-check")
    reveng.add_argument("--which", default="all",
                        choices=[*_REVENG, "all"],
                        help="which bench to run (default all)")
    reveng.add_argument("--out-dir", default=".",
                        help="directory for reveng_<name>.csv files")

    attack = sub.add_parser("attack", parents=[common],
                            help="run one attack variant end to end")
    attack.add_argument("--variant", type=int, default=None,
                        help="1 same address space, 2 cross process, "
                             "3 user to kernel")
    attack.add_argument("--channel", default=None,
                        choices=ATTACK_CHANNELS[1])
    attack.add_argument("--rounds", type=int, default=200)
    attack.add_argument("--noise-evict", type=float, default=0.0,
                        help="per-line eviction probability")
    attack.add_argument("--noise-load", type=float, default=0.0,
                        help="per-round stray cached line probability")
    attack.add_argument("--next-line-noise", action="store_true",
                        help="install neighbours of every victim access")
    attack.add_argument("--flush-on-switch", action="store_true",
                        help="clear the table at every context switch")
    attack.add_argument("--output", default=None, metavar="FILE",
                        help="default attack_v<variant>_<channel>.csv")

    mitigate = sub.add_parser("mitigate", parents=[common],
                              help="price the periodic table flush")
    mitigate.add_argument("--period-us", type=float, default=10.0,
                          help="flush period in microseconds (inf disables)")
    mitigate.add_argument("--write-ports", type=int, default=1)
    mitigate.add_argument("--trace", default="", metavar="FILE",
                          help="ip_hex,vaddr_hex,domain_id load trace")
    mitigate.add_argument("--cycles-per-load", type=int, default=10)
    mitigate.add_argument("--clock-ghz", type=float,
                          default=DEFAULT_CLOCK_GHZ)
    mitigate.add_argument("--output", default="mitigate.csv", metavar="FILE")

    oracle = sub.add_parser(
        "oracle", parents=[configured],
        help="fuzz the table against the reference transcription")
    oracle.add_argument("--sequences", type=int, default=10,
                        help="number of seeded load streams")
    oracle.add_argument("--loads", type=int, default=100_000,
                        help=f"loads per stream (at most {MAX_ORACLE_LOADS})")
    oracle.add_argument("--output", default="oracle.csv", metavar="FILE")

    return parser


_HANDLERS = {
    "reveng": _cmd_reveng,
    "attack": _cmd_attack,
    "mitigate": _cmd_mitigate,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = read_config(args.config) if args.config else {}
        if config:
            # the file's entries go before the explicit flags, which win
            args = parser.parse_args(
                argv[:1] + _config_flags(config, vars(args)) + argv[1:])
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
