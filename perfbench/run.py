"""Benchmark of the afterimage simulator, one workload per run.

    python3 perfbench/run.py --workload stream_replay --seed 0 \
        --seconds 20 --trace 0

Run from the root of a checkout.  The simulator is imported from the
checkout's ``src/`` on the pure-Python path; nothing is built.  Each
run sets up the workload (fresh import plus input generation) several
times, then replays whole passes over the op list until ``--seconds``
have gone by and at least 100 ops ran, checking every op's output.
With ``--trace 1`` it then replays one more pass with every layer
boundary wrapped in spans (see spans.py) and reports per-layer metrics
instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment and a readable summary.  See
README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "afterimage"
SETUP_REPEATS = 9
MIN_PASSES = 3
EXPECTED = Path(__file__).resolve().parent / "expected_sha256.json"

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SPAN_CALLS = ("kernels.table_step", "kernels.tlb_access", "cache.access",
              "cache.location", "cache.install_prefetch", "cache.flush_line",
              "uarch.observe_load", "uarch.table_reset",
              "programs.run_program")
SPAN_SELF = (
    "kernels.table_step", "kernels.tlb_access", "kernels.run_table_batch",
    "cache.access", "cache.location", "cache.install_prefetch",
    "cache.flush_line", "cache.build_eviction_set", "uarch.observe_load",
    "programs.run_program", "sidechannel.prime", "sidechannel.probe",
    "sidechannel.flush_reload", "sidechannel.status_probe",
    "sidechannel.detect_stride", "oracle.run_reference_batch",
    "oracle.generate_loads", "oracle.check_seed", "experiments.run_attack",
    "experiments.mitigation_eval", "experiments.load_trace", "cli.main",
    "cli.emit_csv")
# ratio name -> (span, outcome counter); the base is the span's calls
SPAN_RATIOS = {
    "kernels.tlb_access.hit_ratio": ("kernels.tlb_access", "hit"),
    "cache.access.hit_ratio": ("cache.access", "hit"),
    "uarch.observe_load.trigger_ratio": ("uarch.observe_load", "trigger"),
    "sidechannel.detect_stride.no_signal_ratio":
        ("sidechannel.detect_stride", "no_signal"),
    "sidechannel.detect_stride.ambiguous_ratio":
        ("sidechannel.detect_stride", "ambiguous"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{s}.calls": "count" for s in SPAN_CALLS}
    units.update({f"{s}.self_s": "s" for s in SPAN_SELF})
    units.update({name: "ratio" for name in SPAN_RATIOS})
    units["programs.run_program.events"] = "count"
    units["cache.useful_prefetch_ratio"] = "ratio"
    units.update({f"layer.{layer}.self_share": "ratio"
                  for layer in spans.LAYERS})
    units["trace_overhead_ratio"] = "ratio"
    return units


# --------------------------------------------------------------------------
# host speed
# --------------------------------------------------------------------------

CAL_LOADS = 700
CAL_REF_S = 0.001


class _CalibrationCache:
    """A toy sliced LRU cache: the kind of Python the simulator runs."""

    def __init__(self):
        self.sets = {}
        self.accesses = 0

    def location(self, addr):
        line = addr >> 6
        folded = 0
        while line:
            folded ^= line & 3
            line >>= 2
        return folded, (addr >> 6) & 63

    def access(self, addr):
        ways = self.sets.setdefault(self.location(addr), [])
        line = addr >> 6
        self.accesses += 1
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        if len(ways) >= 8:
            ways.pop(0)
        ways.append(line)
        return False


class _Miss:
    def __init__(self, index, addr):
        self.index = index
        self.addr = addr


def calibration_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds.

    The loop mimics the simulator's own mix: method calls, attribute
    access, dict and list updates, small objects and integer
    arithmetic.  It never touches the simulator's code, so a change to
    the simulator leaves it alone.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        cache, misses, x = _CalibrationCache(), [], 1
        for i in range(CAL_LOADS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            if not cache.access((x & 0xFFFF) << 6):
                misses.append(_Miss(i, x))
        sum(miss.index for miss in misses)
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """Converts host seconds to reference seconds.

    The effective speed of a shared host drifts by up to 2x over
    seconds to minutes.  Each timed interval is therefore scaled by
    CAL_REF_S over the mean of the calibration times measured just
    before and just after it: a reference second is the time the
    interval would take on a host that runs the calibration loop in
    exactly CAL_REF_S.
    """

    def __init__(self):
        self.before = calibration_s()

    def reference_s(self, elapsed: float) -> float:
        after = calibration_s()
        scaled = elapsed * CAL_REF_S * 2 / (self.before + after)
        self.before = after
        return scaled


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def prepare() -> bool:
    """Point imports and outputs at this checkout; False without sources."""
    if not (ROOT / "src" / PACKAGE).is_dir():
        return False
    os.chdir(ROOT)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    # the benchmark measures the pure-Python path; seeds come from argv
    os.environ["AFTERIMAGE_NUMBA"] = "0"
    os.environ.pop("AFTERIMAGE_SEED", None)
    Path(workloads.WORK_DIR).mkdir(exist_ok=True)
    return True


def fresh_import():
    """Import the simulator anew from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    origin = Path(package.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"{PACKAGE} imported from {origin}, not from "
                          f"{ROOT / 'src'}")
    return (package, importlib.import_module(f"{PACKAGE}.cli"),
            importlib.import_module(f"{PACKAGE}.oracle"))


def set_up(workload: str, seed: int):
    """Import and input generation, repeated; returns the last set-up
    and the median reference time one took."""
    times = []
    speed = Speed()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        modules = fresh_import()
        ops = workloads.WORKLOADS[workload](seed)
        workloads.write_traces(ops)
        times.append(speed.reference_s(time.perf_counter() - start))
    return modules, ops, statistics.median(times)


def expected_hashes(workload: str, seed: int) -> list:
    """Recorded output digests of this seed's ops, or None."""
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    return recorded.get(workload, {}).get(str(seed)) or None


def environment(package, args) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_enabled": bool(getattr(package, "NUMBA_ENABLED", False)),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


class Tally:
    """Ops attempted and failed across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = set()
        self.failed = 0
        self.first_failure = ""

    def run(self, ops, expected, cli, oracle, on_op=None) -> list[float]:
        """Replay one pass; returns each op's time in reference seconds."""
        speed = Speed()
        times = []
        for index, op in enumerate(ops):
            if on_op is not None:
                on_op(index)
            t0 = time.perf_counter()
            try:
                code, data = workloads.run_op(op, cli, oracle)
            except Exception as exc:  # an op that raises counts as failed
                code, data, problem = -1, b"", f"raised {exc!r}"
            else:
                problem = None
            times.append(speed.reference_s(time.perf_counter() - t0))
            if problem is None:
                if data is None and code == 0:
                    data = workloads.read_output()
                problem = workloads.check_output(
                    op, code, data, expected[index] if expected else None)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.failed_ops.add(index)
                self.first_failure = self.first_failure or \
                    f"op {index} {' '.join(op.argv) or op.fuzz}: {problem}"
        return times


def run_untraced(tally, ops, expected, cli, oracle, seconds):
    """Whole passes until ``seconds`` went by and MIN_PASSES ran."""
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        passes.append(tally.run(ops, expected, cli, oracle))
    return passes


def end_to_end(ops, passes, failed_ops, setup_s) -> dict:
    """Each op's latency is the median of its passes; throughput counts
    the work of the ops that never failed."""
    per_op = [statistics.median(times) for times in zip(*passes)]
    work = sum(op.work for i, op in enumerate(ops) if i not in failed_ops)
    return {
        "setup_s": setup_s,
        "work_per_s": work / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": statistics.quantiles(per_op, n=10)[8] * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(tally, ops, expected, cli, oracle):
    """One pass with spans on; returns the tracer, reference time, missing
    boundaries and the summed prefetch counters of the ops' caches."""
    tracer = spans.Tracer()

    def on_op(index):
        tracer.op_id = index

    undo, missing = spans.patch(tracer, PACKAGE)
    try:
        times = tally.run(ops, expected, cli, oracle, on_op)
    finally:
        undo()
    prefetch = (
        sum(getattr(c, "useful_prefetch_hits", 0) for c in tracer.caches),
        sum(getattr(c, "prefetch_installs", 0) for c in tracer.caches))
    return tracer, sum(times), missing, prefetch


def per_layer(tracer, prefetch, overhead) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{s}.calls": tracer.calls(s) for s in SPAN_CALLS}
    metrics.update({f"{s}.self_s": tracer.self_s(s) for s in SPAN_SELF})
    for name, (span, outcome) in SPAN_RATIOS.items():
        metrics[name] = ratio(tracer.counts[span][outcome],
                              tracer.calls(span))
    metrics["programs.run_program.events"] = \
        tracer.counts["programs.run_program"]["events"]
    metrics["cache.useful_prefetch_ratio"] = ratio(*prefetch)
    total = tracer.root_s()
    for layer in spans.LAYERS:
        metrics[f"layer.{layer}.self_share"] = \
            ratio(tracer.self_s(layer + "."), total)
    metrics["trace_overhead_ratio"] = overhead
    return metrics


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    (package, cli, oracle), ops, setup_s = set_up(args.workload, args.seed)
    env = environment(package, args)
    if env["numba_enabled"]:
        print("error: numba compiled the kernels; the benchmark measures "
              "the pure-Python path", file=sys.stderr)
        return 2
    expected = expected_hashes(args.workload, args.seed)
    print("# env " + json.dumps(env, sort_keys=True))

    tally = Tally()
    passes = run_untraced(tally, ops, expected, cli, oracle, args.seconds)
    if args.trace:
        tracer, traced_s, missing, prefetch = traced_pass(
            tally, ops, expected, cli, oracle)
        for span in missing:
            print(f"# boundary not found, reads 0: {span}")
        untraced_s = statistics.median(sum(times) for times in passes)
        metrics = per_layer(tracer, prefetch, traced_s / untraced_s)
        units = per_layer_units()
    else:
        metrics = end_to_end(ops, passes, tally.failed_ops, setup_s)
        units = END_TO_END

    attempted = tally.attempted
    unit = workloads.WORK_UNIT[args.workload]
    print(f"# {args.workload}: {len(ops)} ops x {len(passes)} untraced "
          f"passes{' + 1 traced' if args.trace else ''}, {attempted} "
          f"attempted, {tally.failed} failed "
          f"(error_rate={tally.failed / attempted}); "
          f"work_per_s is {unit}_per_s")
    if tally.first_failure:
        print(f"# first failure: {tally.first_failure}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
