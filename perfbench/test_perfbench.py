"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import hashlib
import json

import pytest

import run
import spans
import workloads


@pytest.fixture(scope="module")
def simulator():
    """(package, cli, oracle) imported from this checkout."""
    assert run.prepare()
    return run.fresh_import()


def test_self_time_on_a_nested_call_tree():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = tracer.wrap("inner.leaf", lambda: tick(2.0))

    def middle():
        tick(1.0)
        leaf()
        tick(0.5)

    middle = tracer.wrap("inner.middle", middle)

    def failing():
        tick(0.25)
        raise ValueError("boom")

    failing = tracer.wrap("inner.failing", failing)

    def root():
        tick(3.0)
        middle()
        middle()
        with pytest.raises(ValueError):
            failing()
        tick(1.0)

    tracer.op_id = 7
    tracer.wrap("outer.root", root)()

    assert tracer.calls("inner.leaf") == 2
    assert tracer.self_s("inner.leaf") == 4.0
    assert tracer.self_s("inner.middle") == 3.0
    assert tracer.self_s("inner.failing") == 0.25
    assert tracer.self_s("outer.root") == 4.0
    assert tracer.self_s("inner.") == 7.25
    assert tracer.root_s() == 11.25
    assert tracer.spans[(7, "inner.leaf", "inner.middle")] == [2, 4.0, 4.0]
    assert tracer.spans[(7, "inner.middle", "outer.root")] == [2, 7.0, 3.0]


def test_same_seed_gives_the_same_inputs():
    for make_ops in workloads.WORKLOADS.values():
        first = make_ops(7)
        assert first == make_ops(7)
        assert first != make_ops(8)
        assert len(first) >= 100
    traces = [op.trace for op in workloads.stream_replay_ops(7)]
    assert all(traces) and traces == \
        [op.trace for op in workloads.stream_replay_ops(7)]


def test_a_flipped_output_byte_fails_the_op(simulator):
    _, cli, oracle = simulator
    ops = workloads.attack_machine_ops(0)
    index = next(i for i, op in enumerate(ops)
                 if "status_probe" in op.argv)
    expected = run.expected_hashes("attack_machine", 0)
    assert expected is not None, "seed 0 has no recorded outputs"
    code, _ = workloads.run_op(ops[index], cli, oracle)
    data = workloads.read_output()
    assert workloads.check_output(ops[index], code, data,
                                  expected[index]) is None
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    assert workloads.check_output(ops[index], code, bytes(flipped),
                                  expected[index]) is not None

    tally = run.Tally()
    tally.run([ops[index]], [hashlib.sha256(b"other").hexdigest()],
              cli, oracle)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrappers_reach_every_binding_callers_use(simulator):
    package, cli, _ = simulator
    experiments = package.experiments
    kernels = package.kernels
    originals = (cli.run_attack, experiments.flush_reload,
                 experiments.detect_stride, kernels.table_step,
                 package.cache.CacheModel.access)
    tracer = spans.Tracer()
    undo, missing = spans.patch(tracer)
    try:
        assert missing == []
        assert cli.run_attack is experiments.run_attack
        assert cli.run_attack is not originals[0]
        assert experiments.flush_reload is package.sidechannel.flush_reload
        assert experiments.flush_reload is not originals[1]
        tracer.op_id = 0
        outcome = cli.run_attack(1, "flush_reload", 2, seed=3)
        assert outcome.success_rate == 1.0
    finally:
        undo()
    assert (cli.run_attack, experiments.flush_reload,
            experiments.detect_stride, kernels.table_step,
            package.cache.CacheModel.access) == originals
    assert tracer.calls("experiments.run_attack") == 1
    assert tracer.calls("sidechannel.flush_reload") == 2
    assert tracer.calls("sidechannel.detect_stride") == 2
    assert tracer.calls("kernels.table_step") > 0
    assert tracer.calls("kernels.tlb_access") > 0
    assert tracer.calls("cache.location") >= tracer.calls("cache.access") > 0
    assert len(tracer.caches) == 1


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
