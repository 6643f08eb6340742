"""Hostile argument values end in a CSV or in one error line.

Every example calls ``cli.main`` in-process.  The base argv of each
subcommand is cheap, and a value that would make a run expensive
(rounds above 3, oracle loads above 500, sequences above 3) is one that
the subcommand rejects before it runs.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from afterimage.cli import build_parser, main

_TRACE = "".join(f"0x400100,{0x10000 + i * 0x40:#x},0\n" for i in range(5))

# cheap argv for each subcommand; {trace} names a five-load trace
_ARGV = {
    "attack": ["attack", "--variant", "1", "--channel", "prime_probe",
               "--rounds", "2", "--seed", "1"],
    "mitigate": ["mitigate", "--trace", "{trace}"],
    "oracle": ["oracle", "--sequences", "1", "--loads", "200"],
}

# the cache geometry options of attack and mitigate
_CACHE = ["--cache-slices", "--cache-sets-per-slice", "--cache-associativity",
          "--cache-hit-latency", "--cache-miss-latency", "--cache-threshold"]

# the numeric options of each subcommand
_SLOTS = {
    "attack": ["--rounds", "--noise-evict", "--noise-load", *_CACHE],
    "mitigate": ["--period-us", "--clock-ghz", "--write-ports",
                 "--cycles-per-load", *_CACHE],
    "oracle": ["--loads", "--sequences"],
}

# what each header leaves out: where the output goes, and mitigate's
# --seed, which nothing reads
_NOT_ECHOED = {"attack": {"config", "output"},
               "mitigate": {"config", "output", "seed"},
               "oracle": {"config", "output"}}

_VALUES = st.one_of(
    st.sampled_from([
        "nan", "NaN", "inf", "-inf", "+inf", "1e400", "-1e400",
        str(2**64), str(2**64 + 1), str(10**400), "", " ",
        "٣", "３",  # non-ASCII digits: int() and float() read both as 3
        "-1", "0", "-0", "+3", " 2 ", "0_3", "0x10", "1.0", "0.5",
        "1e-400", "1e308"]),
    st.integers(-3, 3).map(str),
    # above every cap on rounds, loads and sequences
    st.integers(1_000_001, 2**80).map(str),
    st.floats().map(repr),
)


def _case(command):
    # each entry: (option, value, spelt --option=value rather than as
    # two arguments)
    return st.tuples(st.just(command), st.lists(
        st.tuples(st.sampled_from(_SLOTS[command]), _VALUES, st.booleans()),
        min_size=1, max_size=3))


def _run(argv: list[str]) -> tuple[int, str, list[str], dict | None]:
    """Run one command line; return the exit code, the captured stderr,
    the argv as run and the written CSV's header entries, or None when
    none was written."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "t.txt").write_text(_TRACE)
        out = work / "out.csv"
        argv = [arg.format(trace=work / "t.txt") for arg in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--output", str(out)])
        header = None
        if out.exists():
            header = dict(line[2:].split("=", 1)
                          for line in out.read_text().splitlines()
                          if line.startswith("# "))
    return rc, stderr.getvalue(), argv, header


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(sorted(_SLOTS)).flatmap(_case))
@example(case=("oracle", [("--sequences", str(2**64), False)]))
# --rounds 2**64 ran for ever: the attack now caps its rounds
@example(case=("attack", [("--rounds", str(2**64), False)]))
@example(case=("attack", [("--rounds", "٣", False)]))
@example(case=("attack", [("--noise-evict", "-inf", False)]))
@example(case=("mitigate", [("--clock-ghz", "1e308", True)]))
@example(case=("mitigate", [("--cycles-per-load", str(2**64), True),
                            ("--period-us", "0.5", False)]))
@example(case=("oracle", [("--loads", "٣", True)]))
# powers of two that random draws seldom hit: a CSV, and on prime+probe
# one "pool exhausted" line each
@example(case=("attack", [("--cache-sets-per-slice", str(2**64), False)]))
@example(case=("attack", [("--cache-associativity", str(2**64), True)]))
@example(case=("attack", [("--cache-slices", str(2**64), False)]))
def test_any_argument_value_ends_in_a_csv_or_one_error_line(case):
    command, entries = case
    argv = list(_ARGV[command])
    for option, value, joined in entries:
        argv += [f"{option}={value}"] if joined else [option, value]
    rc, stderr, argv, header = _run(argv)
    assert rc in (0, 1, 2)
    if rc == 0:
        assert stderr == "" and header is not None
        # the header echoes each option's effective, parsed value
        effective = vars(build_parser().parse_args(argv))
        for key, value in effective.items():
            if key not in _NOT_ECHOED[command]:
                assert header[key] == str(value), key
    else:
        assert len(stderr.splitlines()) == 1, stderr
