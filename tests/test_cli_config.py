"""Config files go through the parser: malformed ones end in one line.

Every example calls ``cli.main`` in-process.  The explicit flags keep
each run cheap, because they win over whatever the file says.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from afterimage.cli import build_parser, main

_TRACE = "".join(f"0x400100,{0x10000 + i * 0x40:#x},0\n" for i in range(5))

# cheap argv for each subcommand; {trace} names a five-load trace
_ARGV = {
    "attack": ["attack", "--variant", "1", "--channel", "flush_reload",
               "--rounds", "2"],
    "mitigate": ["mitigate", "--trace", "{trace}"],
    "oracle": ["oracle", "--sequences", "1", "--loads", "200"],
}

_KEYS = [
    # options of one subcommand or another
    "rounds", "seed", "noise_evict", "noise-load", "variant", "channel",
    "period_us", "clock-ghz", "write_ports", "cycles_per_load", "trace",
    "sequences", "loads", "which", "out_dir", "output", "config",
    # switches and cache geometry
    "next_line_noise", "flush-on-switch", "cache_slices",
    "cache_sets_per_slice", "cache_associativity", "cache_hit_latency",
    "cache_miss_latency", "cache_threshold",
    # unknown, misspelt or ambiguous
    "rouns", "sed", "noise", "bogus_key", "help", "h", "", "cache_size",
]

_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "nan", "NaN", "inf", "-inf", "1e400",
                     "x", "", "true", "off", "0x10", "flush_reload",
                     "prime_probe", "all"]),
    st.integers(-2**80, 2**80).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


def _run(command: str, config: bytes) -> tuple[int, str, bool]:
    """Run one subcommand on a config file; return the exit code, the
    captured stderr and whether a CSV with a header was written."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "t.txt").write_text(_TRACE)
        (work / "run.cfg").write_bytes(config)
        out = work / "out.csv"
        argv = [arg.format(trace=work / "t.txt") for arg in _ARGV[command]]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--config", str(work / "run.cfg"),
                              "--output", str(out)])
        wrote = out.exists() and out.read_text().startswith("# ")
    return rc, stderr.getvalue(), wrote


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(_ARGV)),
       entries=st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES),
                        max_size=4),
       garbage=st.booleans())
@example(command="attack", entries=[("rouns", "500")], garbage=False)
@example(command="oracle", entries=[("seed", "7")], garbage=False)
@example(command="mitigate", entries=[("rounds", "2")], garbage=False)
@example(command="attack", entries=[("cache_associativity", "2048")],
         garbage=False)
def test_any_config_file_ends_in_a_csv_or_one_error_line(command, entries,
                                                         garbage):
    config = "".join(f"{key}={value}\n" for key, value in entries).encode()
    if garbage:
        config += b"seed=\xff\xfe\n"
    rc, stderr, wrote = _run(command, config)
    assert rc in (0, 1, 2)
    if rc == 0:
        assert wrote and stderr == ""
    else:
        assert len(stderr.splitlines()) == 1, stderr
        assert stderr.startswith("error: ")


@pytest.mark.parametrize("command, line, message", [
    ("attack", "rouns=500", "unrecognized arguments: --rouns=500"),
    ("attack", "trace=t.txt", "unrecognized arguments: --trace=t.txt"),
    ("attack", "rounds=x", "argument --rounds: invalid int value: 'x'"),
    ("attack", "channel=bogus", "argument --channel: invalid choice: "
     "'bogus' (choose from 'prime_probe', 'flush_reload', 'status_probe')"),
    ("attack", "flush_on_switch=maybe",
     "config key flush_on_switch: expected a boolean, got 'maybe'"),
    ("mitigate", "rounds=2", "unrecognized arguments: --rounds=2"),
    ("mitigate", "flush_on_switch=false",
     "unrecognized arguments: --flush-on-switch=false"),
    ("oracle", "seed=7", "unrecognized arguments: --seed=7"),
    ("oracle", "cache_slices=8",
     "oracle models no cache: drop the cache_* keys"),
])
def test_config_key_errors_exit_2_with_one_line(command, line, message):
    rc, stderr, wrote = _run(command, f"{line}\n".encode())
    assert rc == 2
    assert stderr.splitlines() == [f"error: {message}"]
    assert not wrote


# what each header leaves out: where the output goes, which benches ran,
# and mitigate's --seed, which nothing reads
_NOT_ECHOED = {"reveng": {"config", "output", "which", "out_dir"},
               "attack": {"config", "output"},
               "mitigate": {"config", "output", "seed"},
               "oracle": {"config", "output"}}


@pytest.mark.parametrize("command", sorted(_NOT_ECHOED))
def test_every_option_is_echoed_in_the_header(tmp_path, monkeypatch,
                                              command):
    # a new option reaches the header unless it is listed above
    options = set(vars(build_parser().parse_args([command])))
    monkeypatch.chdir(tmp_path)
    Path("t.txt").write_text(_TRACE)
    argv = (["reveng", "--which", "replacement"] if command == "reveng"
            else [arg.format(trace="t.txt") for arg in _ARGV[command]])
    assert main(argv) == 0
    [csv] = Path().glob("*.csv")
    echoed = {line[2:].split("=", 1)[0]
              for line in csv.read_text().splitlines()
              if line.startswith("# ")}
    assert options - _NOT_ECHOED[command] <= echoed
    assert not echoed & _NOT_ECHOED[command]
