"""The four benchmark workloads: seeded op lists, op execution and checks.

An op is one call into the simulator's public entry points.  Every op
builds its own table, TLB and cache, so nothing is shared between ops
and the op list of a seed can be replayed any number of times.

Each workload is a fixed grid of op shapes (sizes, variants, channels,
trace properties); the seed only fills in the concrete values inside
each shape (addresses, strides, attack seeds, noise draws).  That keeps
the cost of a pass nearly the same for every seed, so runs on different
seeds can be compared.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

WORK_DIR = ".perfbench_work"
OUTPUT_CSV = f"{WORK_DIR}/out.csv"

TABLE_SLOTS = 24


@dataclass(frozen=True)
class Op:
    """One call: ``cli.main(argv)``, or ``oracle.check_seed`` when
    ``fuzz`` is set.  ``work`` counts the loads or attack rounds the op
    simulates; ``trace`` is the text of the load trace it replays."""

    argv: tuple = ()
    fuzz: tuple | None = None
    work: int = 0
    trace: str = ""


# --------------------------------------------------------------------------
# stream_replay: mitigate --trace over generated load traces
# --------------------------------------------------------------------------

TRACE_LOADS = 500
REPLAYS_PER_OP = 3  # mitigation_eval replays: prefetcher off, on, flushed
IP_COUNTS = (6, 24, 40)  # 40 > 24 table slots forces PLRU eviction
STRIDE_BANDS = {"short": (64, 448), "long": (1024, 2047)}
JUMP_RATE = 0.05


def _trace_text(rng: random.Random, n_ips: int, band: str,
                reuse: bool) -> str:
    """Interleave n_ips strided streams, one seeded choice per load.

    Short strides stay on a page for 9 or more loads, long ones cross a
    page every 2 to 4 loads; with many streams the live pages outgrow
    the 64-entry TLB.  A stream that reuses its working set restarts
    from its base every 24 to 48 steps, the others run once through.
    About one load in twenty jumps to an unrelated address.
    """
    lo, hi = STRIDE_BANDS[band]
    tags = rng.sample(range(256), n_ips)
    streams = []
    for k, tag in enumerate(tags):
        if rng.random() < 0.7:
            stride = rng.randint(max(1, lo // 64), hi // 64) * 64
        else:
            stride = rng.randint(lo, hi)
        stride *= rng.choice((1, -1))
        base = rng.randrange(1 << 28, 1 << 40) & ~63
        period = rng.randint(24, 48) if reuse else 0
        streams.append([0x400000 + k * 0x1000 + tag, base, stride, period, 0])
    lines = []
    for _ in range(TRACE_LOADS):
        s = rng.choice(streams)
        ip, base, stride, period, step = s
        if rng.random() < JUMP_RATE:
            vaddr = base + rng.randrange(1 << 13, 1 << 24)
        else:
            vaddr = base + step * stride
            s[4] = (step + 1) % period if period else step + 1
        lines.append(f"{ip:#x},{vaddr:#x},{rng.randrange(2)}")
    return "\n".join(lines) + "\n"


def stream_replay_ops(seed: int) -> list[Op]:
    rng = random.Random(f"stream_replay:{seed}")
    ops = []
    for i in range(108):
        n_ips = IP_COUNTS[i % 3]
        band = ("short", "long")[i // 3 % 2]
        reuse = i // 6 % 2 == 0
        trace = _trace_text(rng, n_ips, band, reuse)
        period_us = rng.choice(("0.25", "0.4", "0.6"))
        ports = rng.choice((1, 2, 3, 4, 6, 8))
        argv = ("mitigate", "--seed", str(seed),
                "--trace", f"{WORK_DIR}/trace_{i:03d}.txt",
                "--period-us", period_us, "--write-ports", str(ports),
                "--output", OUTPUT_CSV)
        ops.append(Op(argv=argv, work=REPLAYS_PER_OP * TRACE_LOADS,
                      trace=trace))
    return ops


# --------------------------------------------------------------------------
# attack workloads: attack through the CLI
# --------------------------------------------------------------------------


def _attack_op(seed: int, variant: int, channel: str, rounds: int,
               noise: tuple = (), flush_on_switch: bool = False) -> Op:
    argv = ["attack", "--variant", str(variant), "--channel", channel,
            "--rounds", str(rounds), "--seed", str(seed)]
    argv += noise
    if flush_on_switch:
        argv.append("--flush-on-switch")
    return Op(argv=tuple(argv + ["--output", OUTPUT_CSV]), work=rounds)


def _noise(rng: random.Random, kind: int) -> tuple:
    """kind 0: none; 1: eviction noise; 2: eviction plus stray loads;
    3: next-line noise."""
    if kind == 0:
        return ()
    if kind == 3:
        return ("--next-line-noise",)
    argv = ("--noise-evict", f"{rng.uniform(0.001, 0.02):.4f}")
    if kind == 2:
        argv += ("--noise-load", f"{rng.uniform(0.05, 0.3):.3f}")
    return argv


def attack_prime_probe_ops(seed: int) -> list[Op]:
    rng = random.Random(f"attack_prime_probe:{seed}")
    ops = []
    for i in range(100):
        rounds = (2, 3, 4, 5, 6)[i % 5]
        kind = i // 5 % 4
        ops.append(_attack_op(rng.randrange(1 << 31), 1, "prime_probe",
                              rounds, _noise(rng, kind)))
    return ops


# (count, variant, channel, rounds spread evenly over a range,
#  flush_on_switch) per pass
MACHINE_MIX = (
    (30, 1, "flush_reload", (16, 40), False),
    (24, 1, "status_probe", (16, 40), False),
    (26, 2, "flush_reload", (16, 40), False),
    (6, 2, "flush_reload", (16, 40), True),
    (10, 3, "flush_reload", (8, 24), False),
    (3, 3, "flush_reload", (8, 24), True),
    (2, 2, "flush_reload", (1000, 1000), False),
)


def attack_machine_ops(seed: int) -> list[Op]:
    rng = random.Random(f"attack_machine:{seed}")
    ops = []
    for count, variant, channel, (lo, hi), mitigated in MACHINE_MIX:
        for i in range(count):
            rounds = lo + (hi - lo) * i // max(1, count - 1)
            kind = 0 if mitigated else i % 4
            ops.append(_attack_op(rng.randrange(1 << 31), variant, channel,
                                  rounds, _noise(rng, kind), mitigated))
    return ops


# --------------------------------------------------------------------------
# oracle_fuzz: oracle.check_seed on seeded streams
# --------------------------------------------------------------------------

FUZZ_SIZES = (1500, 3000, 4500, 6000)


def oracle_fuzz_ops(seed: int) -> list[Op]:
    rng = random.Random(f"oracle_fuzz:{seed}")
    ops = []
    for i in range(120):
        n_loads = FUZZ_SIZES[i % 4]
        ops.append(Op(fuzz=(rng.randrange(1 << 31), n_loads), work=n_loads))
    return ops


WORKLOADS = {
    "stream_replay": stream_replay_ops,
    "attack_prime_probe": attack_prime_probe_ops,
    "attack_machine": attack_machine_ops,
    "oracle_fuzz": oracle_fuzz_ops,
}

# the unit of an op's work, by workload
WORK_UNIT = {
    "stream_replay": "loads",
    "attack_prime_probe": "rounds",
    "attack_machine": "rounds",
    "oracle_fuzz": "loads",
}


# --------------------------------------------------------------------------
# running and checking
# --------------------------------------------------------------------------


def write_traces(ops: list[Op]) -> None:
    for op in ops:
        if op.trace:
            path = op.argv[op.argv.index("--trace") + 1]
            with open(path, "w") as f:
                f.write(op.trace)


def run_op(op: Op, cli, oracle) -> tuple[int, bytes | None]:
    """Make the call; returns its exit code and, for a fuzz op, its
    result as output bytes (a CLI op's output is in OUTPUT_CSV)."""
    if op.fuzz is not None:
        n, mismatches, note = oracle.check_seed(*op.fuzz)
        return 0, f"{n},{mismatches},{note}\n".encode()
    return cli.main(list(op.argv)), None


def read_output() -> bytes:
    with open(OUTPUT_CSV, "rb") as f:
        return f.read()


def _flag(argv: tuple, name: str) -> str:
    return argv[argv.index(name) + 1]


def _csv(data: bytes) -> tuple[list[dict], dict]:
    """Split a CSV into its data rows and the ``# key=value`` lines that
    follow them."""
    rows, summary = [], {}
    columns = None
    for line in data.decode().splitlines():
        if line.startswith("# "):
            if rows:
                key, _, value = line[2:].partition("=")
                summary[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return rows, summary


def _check_mitigate(op: Op, data: bytes) -> str | None:
    rows, _ = _csv(data)
    if len(rows) != 1:
        return f"expected one data row, got {len(rows)}"
    row = rows[0]
    ports = int(_flag(op.argv, "--write-ports"))
    flushes, reset = int(row["flushes"]), int(row["reset_cycles"])
    if int(row["loads"]) != TRACE_LOADS:
        return f"loads={row['loads']}, trace has {TRACE_LOADS}"
    if flushes < 2:
        return f"only {flushes} table flushes"
    if reset != flushes * math.ceil(TABLE_SLOTS / ports):
        return f"reset_cycles={reset} != {flushes} x ceil(24/{ports})"
    return None


def _check_attack(op: Op, data: bytes) -> str | None:
    rows, summary = _csv(data)
    rounds = int(_flag(op.argv, "--rounds"))
    if len(rows) != rounds:
        return f"{len(rows)} rows for {rounds} rounds"
    if "success_rate" not in summary:
        return "no success_rate line"
    rate = float(summary["success_rate"])
    noisy = any(f in op.argv for f in ("--noise-evict", "--noise-load",
                                       "--next-line-noise"))
    mitigated = "--flush-on-switch" in op.argv
    variant = int(_flag(op.argv, "--variant"))
    if not noisy and not mitigated and rate != 1.0:
        return f"zero-noise success_rate={rate}, expected 1.0"
    if mitigated and variant in (2, 3) and rate > 0.05:
        return f"mitigated success_rate={rate} > 0.05"
    return None


def _check_fuzz(op: Op, data: bytes) -> str | None:
    n, mismatches, note = data.decode().rstrip("\n").split(",", 2)
    if int(n) != op.fuzz[1]:
        return f"checked {n} loads of {op.fuzz[1]}"
    if int(mismatches):
        return f"{mismatches} oracle mismatches: {note}"
    return None


def check_output(op: Op, code: int, data: bytes,
                 expected_sha256: str | None) -> str | None:
    """None when the op's output is right, else the reason it is not.

    Output recorded for this seed must match byte for byte; every
    output must also meet the invariants of its command.
    """
    if code != 0:
        return f"exit code {code}"
    if expected_sha256 is not None and \
            hashlib.sha256(data).hexdigest() != expected_sha256:
        return "output differs from the recorded sha256"
    try:
        if op.fuzz is not None:
            return _check_fuzz(op, data)
        if op.argv[0] == "mitigate":
            return _check_mitigate(op, data)
        return _check_attack(op, data)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc!r}"
