"""Reference-model transcription checks and table/reference agreement."""

import random

from afterimage import kernels
from afterimage.kernels import run_table_batch
from afterimage.oracle import (
    ReferenceModel,
    check_seed,
    generate_loads,
    run_equivalence_check,
)
from afterimage.uarch import PrefetchTable

PAGE = 0x40000000


def replay_both(pairs):
    """Feed (tag, addr) pairs through table and reference; return both views."""
    tags = [p[0] for p in pairs]
    addrs = [p[1] for p in pairs]

    table = PrefetchTable()
    t_emit, *t_out = run_table_batch(
        tags, addrs, table.tags, table.last, table.stride, table.conf,
        table.mru, table.owner, None, 0)

    ref = ReferenceModel()
    r_emit, r_target, r_last, r_stride, r_conf = ref.replay(tags, addrs)
    gated = [e and (t >> 12) - (a >> 12) in (0, 1)
             for e, t, a in zip(r_emit, r_target, addrs)]
    return (t_emit, t_out), (gated, [t if g else 0
                                     for g, t in zip(gated, r_target)],
                             r_last, r_stride, r_conf)


def test_reference_training_sequence():
    ref = ReferenceModel()
    tags = [0xA0] * 3
    addrs = [PAGE, PAGE + 448, PAGE + 896]
    emit, target, _last, _stride, conf = ref.replay(tags, addrs)
    assert emit == [False, False, True]
    assert target[2] == PAGE + 1344
    assert conf == [0, 1, 2]


def test_reference_stale_stride_trigger():
    ref = ReferenceModel()
    tags = [0x11] * 4
    addrs = [PAGE, PAGE + 448, PAGE + 896, PAGE + 896 + 320]
    emit, target, _last, stride, conf = ref.replay(tags, addrs)
    assert emit[3] and target[3] == PAGE + 896 + 320 + 448
    assert (stride[3], conf[3]) == (320, 1)


def test_reference_confidence_saturates():
    ref = ReferenceModel()
    tags = [0x22] * 8
    addrs = [PAGE + i * 64 for i in range(8)]
    _emit, _target, _last, _stride, conf = ref.replay(tags, addrs)
    assert conf[-1] == 3


def test_reference_stride_field_saturates():
    ref = ReferenceModel()
    tags = [0x33] * 2
    addrs = [PAGE, PAGE + 5000]
    _emit, _target, _last, stride, _conf = ref.replay(tags, addrs)
    assert stride[1] == 2047


def test_routes_agree_on_backward_cross_suppression():
    base = PAGE + 3 * 448
    pairs = [(0xA0, base), (0xA0, base - 448), (0xA0, base - 896),
             (0xA0, PAGE)]  # final target would land one frame back
    (t_emit, t_out), (g_emit, g_target, r_last, r_stride, r_conf) = \
        replay_both(pairs)
    assert not t_emit[3] and not g_emit[3]
    assert list(t_emit) == list(g_emit)
    assert list(t_out[0]) == list(g_target)
    assert list(t_out[2]) == list(r_stride)
    assert list(t_out[3]) == list(r_conf)


def test_routes_agree_on_interleaved_tags():
    pairs = []
    for i in range(6):
        pairs.append((0x10, PAGE + i * 448))
        pairs.append((0x20, PAGE + 0x10000 + i * 832))
        pairs.append((0x10, PAGE + 0x20000 + i * 64))  # same tag, second region
    (t_emit, t_out), (g_emit, g_target, r_last, r_stride, r_conf) = \
        replay_both(pairs)
    assert list(t_emit) == list(g_emit)
    assert list(t_out[0]) == list(g_target)
    assert list(t_out[1]) == list(r_last)
    assert list(t_out[2]) == list(r_stride)
    assert list(t_out[3]) == list(r_conf)


def test_generated_streams_cover_trigger_paths():
    tags, addrs = generate_loads(random.Random(5), 20000)
    assert len(tags) == len(addrs) == 20000
    assert len(set(tags)) <= 24
    ref = ReferenceModel()
    emit, _t, _l, _s, conf = ref.replay(tags, addrs)
    # the stream must actually reach both trigger and saturation states
    assert sum(emit) > 1000
    assert conf.count(3) > 100
    # and every stride regime, each far more often than another regime
    # could produce it by chance: forward and backward line multiples,
    # byte grain, repeats, and jumps beyond the 13-bit stride field
    steps = [b - a for a, b in zip(addrs, addrs[1:])]
    assert sum(0 < d <= 2048 and d % 64 == 0 for d in steps) > 100
    assert sum(-2048 <= d < 0 and d % 64 == 0 for d in steps) > 100
    assert sum(abs(d) <= 2047 and d % 64 != 0 for d in steps) > 100
    assert steps.count(0) > 100
    assert sum(2048 < d < 60000 for d in steps) > 100


def test_check_seed_reports_corrupted_targets(monkeypatch):
    # a kernel that emits wrong targets must be caught by the list compare,
    # once per emitting step, with the first such step named in the note
    tags, addrs = generate_loads(random.Random(3), 2000)
    table = PrefetchTable()
    emit = run_table_batch(tags, addrs, table.tags, table.last, table.stride,
                           table.conf, table.mru, table.owner, None, 0)[0]
    real = kernels.table_step

    def off_by_a_line(*args):
        emitted, target, slot = real(*args)
        return emitted, target + 64 if emitted else target, slot

    monkeypatch.setattr(kernels, "table_step", off_by_a_line)
    n, mismatches, note = check_seed(3, 2000)
    assert (n, mismatches) == (2000, sum(emit)) and mismatches > 0
    assert note.startswith(f"seed 3 step {emit.index(True)}: ")


def test_equivalence_smoke():
    report = run_equivalence_check(n_loads=5000, seeds=range(3))
    assert report.ok, report.first_mismatch
    assert report.loads_checked == 15000
