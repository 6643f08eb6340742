"""Command-line interface: CSV shape, config precedence, exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import afterimage
from afterimage.cli import (
    MAX_ATTACK_ROUNDS,
    MAX_ORACLE_SEQUENCES,
    build_parser,
    emit_csv,
    main,
    read_config,
)
from afterimage.experiments import NoiseModel, run_attack


def _lines(path):
    return Path(path).read_text().splitlines()


def _split(lines):
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    return comments, data


def _run_child(*args):
    """Run the interpreter on this checkout's package, stopped after 60 s."""
    src = str(Path(afterimage.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, env=env)


# --------------------------------------------------------------------------
# attack: CSV contents
# --------------------------------------------------------------------------


def test_attack_csv_rows_and_summary(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["attack", "--variant", "1", "--channel", "flush_reload",
               "--rounds", "10", "--seed", "4", "--output", str(out)])
    assert rc == 0
    lines = _lines(out)
    comments, data = _split(lines)
    # header comments first, sorted by key, echoing the full configuration
    keys = [c[2:].split("=")[0] for c in comments[:-1]]
    assert keys == sorted(keys)
    for expected in ("command", "variant", "channel", "rounds", "seed",
                     "noise_evict", "noise_load", "next_line_noise",
                     "flush_on_switch", "cache_slices", "cache_threshold"):
        assert any(k == expected for k in keys), expected
    assert data[0] == "round,truth,detected_stride,inferred,success"
    assert len(data) == 11  # column row + one row per round
    assert all(len(row.split(",")) == 5 for row in data[1:])
    assert lines[-1] == "# success_rate=1.0"


def test_attack_rows_match_the_library_run_of_the_same_seed(tmp_path):
    # the run's --seed alone seeds the noise draws, in the CLI and in
    # the library alike
    out = tmp_path / "run.csv"
    rc = main(["attack", "--variant", "1", "--channel", "prime_probe",
               "--rounds", "20", "--noise-evict", "0.05", "--noise-load",
               "1.0", "--next-line-noise", "--seed", "4",
               "--output", str(out)])
    assert rc == 0
    _, data = _split(_lines(out))
    rows = run_attack(1, "prime_probe", 20,
                      NoiseModel(0.05, 1.0, next_line_noise=True),
                      seed=4).rows()
    assert data[1:] == [",".join(map(str, row.values())) for row in rows]


def test_attack_detail_echoed_for_kernel_variant(tmp_path):
    out = tmp_path / "v3.csv"
    rc = main(["attack", "--variant", "3", "--channel", "flush_reload",
               "--rounds", "6", "--seed", "0", "--output", str(out)])
    assert rc == 0
    comments, _ = _split(_lines(out))
    assert "# matched_group=3" in comments


def test_attack_rerun_is_byte_identical(tmp_path):
    args = ["attack", "--variant", "1", "--channel", "prime_probe",
            "--rounds", "5", "--seed", "7"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_attack_flush_on_switch_via_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("flush_on_switch=true\n")
    out = tmp_path / "blocked.csv"
    rc = main(["attack", "--variant", "2", "--channel", "flush_reload",
               "--rounds", "10", "--config", str(cfg),
               "--output", str(out)])
    assert rc == 0
    lines = _lines(out)
    assert "# flush_on_switch=True" in lines
    assert lines[-1] == "# success_rate=0.0"


def test_attack_cache_override_via_config_file(tmp_path):
    cfg = tmp_path / "cache.cfg"
    cfg.write_text("cache_hit_latency=30\ncache_miss_latency=300\n"
                   "cache_threshold=100\n")
    out = tmp_path / "alt.csv"
    rc = main(["attack", "--variant", "1", "--channel", "flush_reload",
               "--rounds", "6", "--config", str(cfg),
               "--output", str(out)])
    assert rc == 0
    lines = _lines(out)
    assert "# cache_hit_latency=30" in lines
    assert "# cache_miss_latency=300" in lines
    assert lines[-1] == "# success_rate=1.0"


# --------------------------------------------------------------------------
# configuration precedence
# --------------------------------------------------------------------------


def _echoed_seed(path):
    for line in _lines(path):
        if line.startswith("# seed="):
            return int(line.split("=")[1])
    raise AssertionError("no seed echoed")


def test_seed_precedence_flag_file_env_default(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=9\n")
    base = ["attack", "--variant", "1", "--channel", "flush_reload",
            "--rounds", "3"]

    monkeypatch.setenv("AFTERIMAGE_SEED", "3")
    out = tmp_path / "flag.csv"
    assert main(base + ["--config", str(cfg), "--seed", "5",
                        "--output", str(out)]) == 0
    assert _echoed_seed(out) == 5  # explicit flag beats everything

    out = tmp_path / "file.csv"
    assert main(base + ["--config", str(cfg), "--output", str(out)]) == 0
    assert _echoed_seed(out) == 9  # config file beats the environment

    out = tmp_path / "env.csv"
    assert main(base + ["--output", str(out)]) == 0
    assert _echoed_seed(out) == 3  # environment beats the default

    monkeypatch.delenv("AFTERIMAGE_SEED")
    out = tmp_path / "default.csv"
    assert main(base + ["--output", str(out)]) == 0
    assert _echoed_seed(out) == 0


def test_readme_config_example_runs(tmp_path):
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block)
    out = tmp_path / "readme.csv"
    assert main(["attack", "--variant", "2", "--channel", "flush_reload",
                 "--rounds", "2", "--config", str(cfg),
                 "--output", str(out)]) == 0
    comments, data = _split(_lines(out))
    for echoed in ("# seed=9", "# noise_evict=0.01", "# cache_hit_latency=30",
                   "# rounds=2"):
        assert echoed in comments
    assert len(data) == 3


def test_config_file_comments_and_dashes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nnoise-evict = 0.25\nrounds=4\n")
    parsed = read_config(cfg)
    assert parsed == {"noise_evict": "0.25", "rounds": "4"}


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


def test_unsupported_pair_exits_2(capsys):
    rc = main(["attack", "--variant", "2", "--channel", "prime_probe",
               "--rounds", "3"])
    assert rc == 2
    assert "prime_probe" in capsys.readouterr().err


def test_unknown_variant_exits_2():
    assert main(["attack", "--variant", "9", "--channel", "flush_reload",
                 "--rounds", "3"]) == 2


def test_missing_variant_exits_2(capsys):
    rc = main(["attack", "--channel", "flush_reload"])
    assert rc == 2
    assert "--variant" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["attack", "--variant", "1", "--channel", "flush_reload",
                 "--frobnicate"]) == 2
    capsys.readouterr()


def test_abbreviated_flag_exits_2(tmp_path, capsys):
    # options match by full name only: --round is not taken for --rounds
    out = tmp_path / "a.csv"
    assert main(["attack", "--variant", "1", "--channel", "flush_reload",
                 "--round", "2", "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unrecognized arguments: --round 2"]
    assert not out.exists()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "reveng" in capsys.readouterr().out


def test_parser_built_once_carries_no_state(tmp_path, capsys,
                                            monkeypatch):
    # every main call parses with the one parser of the process
    monkeypatch.delenv("AFTERIMAGE_SEED", raising=False)
    assert build_parser() is build_parser()
    cfg = tmp_path / "five.cfg"
    cfg.write_text("rounds=5\nseed=3\n")
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    base = ["attack", "--variant", "1", "--channel", "status_probe"]
    assert main(base + ["--config", str(cfg), "--output", str(first)]) == 0
    assert main(base + ["--output", str(second)]) == 0
    first_echo, _ = _split(_lines(first))
    second_echo, _ = _split(_lines(second))
    assert {"# rounds=5", "# seed=3"} <= set(first_echo)
    assert {"# rounds=200", "# seed=0"} <= set(second_echo)
    assert main(["oracle", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert main(["oracle", "--help"]) == 0
    assert capsys.readouterr().out == help_text


def test_unwritable_output_exits_1(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    rc = main(["attack", "--variant", "1", "--channel", "flush_reload",
               "--rounds", "3", "--output", str(missing)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rounds 4\n")
    rc = main(["attack", "--variant", "1", "--channel", "flush_reload",
               "--config", str(cfg)])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("cache_associativity=0", "associativity must be a power of two"),
    ("cache_associativity=3", "associativity must be a power of two"),
    ("cache_associativity=-4", "associativity must be a power of two"),
    ("cache_slices=x", "argument --cache-slices: invalid int value: 'x'"),
    ("cache_threshold=200",
     "threshold must lie strictly between hit and miss latency"),
    # a latency below one cycle would stall or rewind the clock
    ("cache_hit_latency=-500", "hit_latency must be at least 1"),
    ("cache_hit_latency=0", "hit_latency must be at least 1"),
])
def test_bad_cache_config_exits_2(tmp_path, line, message):
    cfg = tmp_path / "cache.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    proc = _run_child("-m", "afterimage.cli", "attack", "--variant", "1",
                      "--channel", "prime_probe", "--rounds", "2",
                      "--config", str(cfg), "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_exhausted_eviction_set_pool_exits_2(tmp_path):
    # 2048 ways need more same-slice lines than the 4095-candidate pool
    # holds; the search must fail with one line, not a traceback
    cfg = tmp_path / "cache.cfg"
    cfg.write_text("cache_associativity=2048\n")
    out = tmp_path / "x.csv"
    proc = _run_child("-m", "afterimage.cli", "attack", "--variant", "1",
                      "--channel", "prime_probe", "--rounds", "2",
                      "--config", str(cfg), "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: pool exhausted with 1023/2048 members for set 0 slice 3"]
    assert not out.exists()


def test_non_utf8_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"rounds=4\n\xff\xfe\n")
    out = tmp_path / "x.csv"
    proc = _run_child("-m", "afterimage.cli", "attack", "--variant", "1",
                      "--channel", "flush_reload", "--config", str(cfg),
                      "--output", str(out))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {cfg}: not UTF-8 text")
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path):
    assert main(["attack", "--variant", "1", "--channel", "flush_reload",
                 "--config", str(tmp_path / "absent.cfg")]) == 1


def test_bad_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AFTERIMAGE_SEED", "not-a-number")
    rc = main(["attack", "--variant", "1", "--channel", "flush_reload",
               "--rounds", "3",
               "--output", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "AFTERIMAGE_SEED" in capsys.readouterr().err


# --------------------------------------------------------------------------
# reveng
# --------------------------------------------------------------------------


def test_reveng_writes_five_files(tmp_path):
    rc = main(["reveng", "--out-dir", str(tmp_path / "rev")])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "rev").iterdir())
    assert names == ["reveng_confstride.csv", "reveng_entries.csv",
                     "reveng_indexing.csv", "reveng_page.csv",
                     "reveng_replacement.csv"]
    _, data = _split(_lines(tmp_path / "rev" / "reveng_indexing.csv"))
    assert data[0] == "offset,triggered"
    assert len(data) == 257  # column row + one row per byte offset
    _, page = _split(_lines(tmp_path / "rev" / "reveng_page.csv"))
    # column row + eight pool/offset cells + two double-access cold cells
    assert len(page) == 11


def test_reveng_single_experiment(tmp_path):
    rc = main(["reveng", "--which", "replacement",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert [p.name for p in tmp_path.iterdir()] == ["reveng_replacement.csv"]


def test_reveng_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    # every stream survives, so the table looks larger than 24 entries
    monkeypatch.setattr("afterimage.experiments._survivors",
                        lambda n_streams, *args, **kwargs: [True] * n_streams)
    rc = main(["reveng", "--which", "entries", "--out-dir", str(tmp_path)])
    assert rc == 1
    _, data = _split(_lines(tmp_path / "reveng_entries.csv"))
    assert data[0] == "n_ips,position,alive"
    assert len(data) == 1 + 24 + 26 + 30
    assert all(row.endswith(",1") for row in data[1:])
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert errors
    assert all(line.startswith("verification mismatch: entries: ")
               for line in errors)


# --------------------------------------------------------------------------
# mitigate
# --------------------------------------------------------------------------


def test_mitigate_default_workload(tmp_path):
    out = tmp_path / "mit.csv"
    rc = main(["mitigate", "--period-us", "10", "--output", str(out)])
    assert rc == 0
    _, data = _split(_lines(out))
    fields = dict(zip(data[0].split(","), data[1].split(",")))
    assert fields["flush_period"] == "36000"
    assert fields["flushes"] == "40"
    assert fields["reset_cycles"] == "960"
    assert float(fields["coverage_delta"]) <= 0.02


def test_mitigate_infinite_period_disables_flushing(tmp_path):
    out = tmp_path / "inf.csv"
    rc = main(["mitigate", "--period-us", "inf", "--output", str(out)])
    assert rc == 0
    _, data = _split(_lines(out))
    fields = dict(zip(data[0].split(","), data[1].split(",")))
    assert fields["flush_period"] == ""
    assert fields["flushes"] == "0"
    assert fields["coverage_delta"] == "0.000000"


def test_mitigate_trace_file(tmp_path):
    trace = tmp_path / "loads.txt"
    lines = ["# ip,vaddr,domain"]
    for i in range(200):
        lines.append(f"0x{0x400100:x},0x{0x20000000 + i * 448:x},0")
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "mit.csv"
    rc = main(["mitigate", "--period-us", "0.05", "--trace", str(trace),
               "--output", str(out)])
    assert rc == 0
    _, data = _split(_lines(out))
    fields = dict(zip(data[0].split(","), data[1].split(",")))
    assert fields["loads"] == "200"
    assert fields["flush_period"] == "180"


def test_mitigate_malformed_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "bad.txt"
    trace.write_text("0x400100,0x20000000\n")
    rc = main(["mitigate", "--trace", str(trace),
               "--output", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "bad.txt:1" in capsys.readouterr().err


def test_mitigate_too_short_period_exits_2(tmp_path):
    assert main(["mitigate", "--period-us", "0.001",
                 "--output", str(tmp_path / "x.csv")]) == 2


def test_mitigate_zero_write_ports_exits_2(tmp_path, capsys):
    assert main(["mitigate", "--write-ports", "0",
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: write_ports must be >= 1"]


@pytest.mark.parametrize("cycles", ["0", "-5"])
def test_mitigate_nonpositive_cycles_per_load_exits_2(tmp_path, capsys,
                                                      cycles):
    # a clock that never advances never flushes, and the report would
    # price the mitigation at nothing
    out = tmp_path / "x.csv"
    assert main(["mitigate", "--cycles-per-load", cycles,
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cycles_per_load must be >= 1"]
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--clock-ghz=inf", "clock must be finite and positive, got inf GHz"),
    ("--clock-ghz=nan", "clock must be finite and positive, got nan GHz"),
    ("--clock-ghz=0", "clock must be finite and positive, got 0.0 GHz"),
    ("--clock-ghz=-3.6", "clock must be finite and positive, got -3.6 GHz"),
    ("--period-us=-inf", "flush period must be >= 0 us, got -inf"),
    ("--period-us=nan", "flush period must be >= 0 us, got nan"),
    ("--period-us=-1", "flush period must be >= 0 us, got -1.0"),
    ("--period-us=1e306",
     "flush period 1e+306 us at 3.6 GHz overflows the cycle count"),
    # the default period overflows only at this clock: name both
    ("--clock-ghz=1e308",
     "flush period 10.0 us at 1e+308 GHz overflows the cycle count"),
])
def test_mitigate_bad_clock_or_period_exits_2(tmp_path, capsys, flag,
                                              message):
    # only +inf disables flushing: any other value that gives no finite,
    # non-negative cycle count is an error, never a silent default
    trace = tmp_path / "t.txt"
    trace.write_text("".join(f"0x400100,{0x10000 + i * 0x40:#x},0\n"
                             for i in range(5)))
    out = tmp_path / "x.csv"
    assert main(["mitigate", "--trace", str(trace), flag,
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_mitigate_period_equal_to_reset_exits_2(tmp_path):
    # a period of exactly one reset (24 cycles at 1 port) used to owe the
    # next reset as soon as one ended and never let a load through; the
    # child process lets the timeout stop such a regression
    trace = tmp_path / "t.txt"
    trace.write_text("0x400100,0x10000,0\n0x400100,0x10040,0\n")
    proc = _run_child("-m", "afterimage.cli", "mitigate",
                      "--trace", str(trace), "--period-us", str(24 / 3600),
                      "--output", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: flush period 24 does not exceed the 24-cycle table reset "
        "itself"]


@pytest.mark.parametrize("cycles", ["1000000000000",
                                    "1000000000000000000"])
def test_mitigate_huge_cycles_per_load_finishes(tmp_path, cycles):
    # the flush clock used to reset once per elapsed period in a loop,
    # about 10**13 times per load here; the child process lets the
    # timeout stop such a regression
    trace = tmp_path / "t.txt"
    trace.write_text("".join(f"0x400100,{0x10000 + i * 0x40:#x},0\n"
                             for i in range(3)))
    out = tmp_path / "x.csv"
    proc = _run_child("-m", "afterimage.cli", "mitigate", "--trace",
                      str(trace), "--cycles-per-load", cycles,
                      "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    _, data = _split(_lines(out))
    fields = dict(zip(data[0].split(","), data[1].split(",")))
    assert int(fields["flushes"]) > 10**7


_BAD_TRACES = {
    "non_hex_field": (b"0x400100,0xzz,0\n",
                      "{path}:1: malformed field in '0x400100,0xzz,0'"),
    "four_fields": (b"0x400100,0x10000,0,7\n",
                    "{path}:1: expected ip_hex,vaddr_hex,domain_id, "
                    "got '0x400100,0x10000,0,7'"),
    "two_fields": (b"# loads\n0x400100,0x10000\n",
                   "{path}:2: expected ip_hex,vaddr_hex,domain_id, "
                   "got '0x400100,0x10000'"),
    # a negative line index used to make the slice hash loop forever
    "negative_address": (b"0x400100,-0x40,0\n",
                         "{path}:1: ip or address outside 0 .. 2**64 - 1 "
                         "in '0x400100,-0x40,0'"),
    "above_64_bits": (b"# loads\n0x400100,0x10000000000000000,0\n",
                      "{path}:2: ip or address outside 0 .. 2**64 - 1 "
                      "in '0x400100,0x10000000000000000,0'"),
    "negative_domain": (b"0x400100,0x10000,-7\n",
                        "{path}:1: domain outside 0 .. 2**64 - 1 "
                        "in '0x400100,0x10000,-7'"),
    "domain_above_64_bits": (b"0x400100,0x10000,100000000000000000000000\n",
                             "{path}:1: domain outside 0 .. 2**64 - 1 in "
                             "'0x400100,0x10000,100000000000000000000000'"),
    "not_utf8": (b"0x400100,0x10000,0\n\xff\xfe\n",
                 "{path}: not UTF-8 text: 'utf-8' codec can't decode byte "
                 "0xff in position 19: invalid start byte"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TRACES))
def test_mitigate_bad_trace_exits_2(tmp_path, case):
    content, message = _BAD_TRACES[case]
    trace = tmp_path / "trace.txt"
    trace.write_bytes(content)
    out = tmp_path / "x.csv"
    proc = _run_child("-m", "afterimage.cli", "mitigate", "--trace",
                      str(trace), "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: " + message.format(path=trace)]
    assert not out.exists()


@pytest.mark.parametrize("case", ["directory", "missing"])
def test_mitigate_unreadable_trace_exits_1(tmp_path, case):
    trace = tmp_path / "trace"
    if case == "directory":
        trace.mkdir()
    out = tmp_path / "x.csv"
    proc = _run_child("-m", "afterimage.cli", "mitigate", "--trace",
                      str(trace), "--output", str(out))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(trace) in lines[0]
    assert not out.exists()


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------


def test_oracle_per_seed_rows(tmp_path):
    out = tmp_path / "orc.csv"
    rc = main(["oracle", "--sequences", "2", "--loads", "1500",
               "--output", str(out)])
    assert rc == 0
    _, data = _split(_lines(out))
    assert data == ["seed,loads,mismatches", "0,1500,0", "1,1500,0"]


def test_oracle_rejects_nonpositive_counts(tmp_path):
    assert main(["oracle", "--sequences", "0",
                 "--output", str(tmp_path / "x.csv")]) == 2


def test_oracle_rejects_seed(tmp_path, capsys):
    # the streams are always seeds 0..sequences-1; a seed would do nothing
    out = tmp_path / "x.csv"
    assert main(["oracle", "--seed", "3", "--sequences", "1",
                 "--loads", "10", "--output", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_loads_above_ceiling_exit_2(tmp_path):
    # without the ceiling the stream's lists grow until memory runs out;
    # the child process lets the timeout stop such a regression
    proc = _run_child("-m", "afterimage.cli", "oracle",
                      "--loads", "1000000000000",
                      "--output", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: loads must not exceed 1000000"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sequences", [MAX_ORACLE_SEQUENCES + 1, 2**64])
def test_oracle_sequences_above_ceiling_exit_2(tmp_path, capsys, sequences):
    # rejected before any stream runs: 2**64 used to escape as an
    # OverflowError from the list of seeds
    out = tmp_path / "x.csv"
    assert main(["oracle", "--sequences", str(sequences), "--loads", "1",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: sequences must not exceed {MAX_ORACLE_SEQUENCES}"]
    assert not out.exists()


@pytest.mark.parametrize("rounds", [MAX_ATTACK_ROUNDS + 1, 2**64])
def test_attack_rounds_above_ceiling_exit_2(tmp_path, capsys, rounds):
    # rejected before any round runs: 2**64 rounds used to run for ever
    out = tmp_path / "x.csv"
    assert main(["attack", "--variant", "1", "--channel", "prime_probe",
                 "--rounds", str(rounds), "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: rounds must not exceed {MAX_ATTACK_ROUNDS}"]
    assert not out.exists()


def test_cli_import_leaves_numpy_out():
    proc = _run_child(
        "-c", "import sys, afterimage.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# --------------------------------------------------------------------------
# emit_csv
# --------------------------------------------------------------------------


def test_emit_csv_columns_are_the_first_rows_keys_in_order(tmp_path):
    out = tmp_path / "cols.csv"
    # a later row's own key order does not move its values
    emit_csv(out, [{"z": 2, "a": 1}, {"a": 3, "z": 4}], {"k": "v"},
             success_rate=0.5)
    assert _lines(out) == ["# k=v", "z,a", "2,1", "4,3", "# success_rate=0.5"]
