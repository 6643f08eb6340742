"""Reference-model transcription checks and table/reference agreement."""

import numpy as np

from afterimage.kernels import run_table_batch
from afterimage.oracle import (
    ReferenceModel,
    generate_loads,
    run_equivalence_check,
)
from afterimage.uarch import PrefetchTable

PAGE = 0x40000000


def replay_both(pairs):
    """Feed (tag, addr) pairs through table and reference; return both views."""
    tags = np.array([p[0] for p in pairs], dtype=np.int64)
    addrs = np.array([p[1] for p in pairs], dtype=np.int64)
    n = len(pairs)

    table = PrefetchTable()
    t_emit = np.zeros(n, dtype=np.bool_)
    t_out = tuple(np.zeros(n, dtype=np.int64) for _ in range(4))
    run_table_batch(tags, addrs, table.tags, table.last, table.stride,
                    table.conf, table.valid, table.mru, table.owner,
                    None, 0, t_emit, *t_out)

    ref = ReferenceModel()
    r_emit, r_target, r_last, r_stride, r_conf = ref.replay(tags, addrs)
    frames = addrs >> 12
    tframes = r_target >> 12
    gated = r_emit & ((tframes == frames) | (tframes == frames + 1))
    return (t_emit, t_out), (gated, np.where(gated, r_target, 0),
                             r_last, r_stride, r_conf)


def test_reference_training_sequence():
    ref = ReferenceModel()
    tags = np.full(3, 0xA0, dtype=np.int64)
    addrs = np.array([PAGE, PAGE + 448, PAGE + 896], dtype=np.int64)
    emit, target, _last, _stride, conf = ref.replay(tags, addrs)
    assert list(emit) == [False, False, True]
    assert int(target[2]) == PAGE + 1344
    assert list(conf) == [0, 1, 2]


def test_reference_stale_stride_trigger():
    ref = ReferenceModel()
    tags = np.full(4, 0x11, dtype=np.int64)
    addrs = np.array([PAGE, PAGE + 448, PAGE + 896, PAGE + 896 + 320],
                     dtype=np.int64)
    emit, target, _last, stride, conf = ref.replay(tags, addrs)
    assert bool(emit[3]) and int(target[3]) == PAGE + 896 + 320 + 448
    assert (int(stride[3]), int(conf[3])) == (320, 1)


def test_reference_confidence_saturates():
    ref = ReferenceModel()
    tags = np.full(8, 0x22, dtype=np.int64)
    addrs = PAGE + np.arange(8, dtype=np.int64) * 64
    _emit, _target, _last, _stride, conf = ref.replay(tags, addrs)
    assert int(conf[-1]) == 3


def test_reference_stride_field_saturates():
    ref = ReferenceModel()
    tags = np.full(2, 0x33, dtype=np.int64)
    addrs = np.array([PAGE, PAGE + 5000], dtype=np.int64)
    _emit, _target, _last, stride, _conf = ref.replay(tags, addrs)
    assert int(stride[1]) == 2047


def test_routes_agree_on_backward_cross_suppression():
    base = PAGE + 3 * 448
    pairs = [(0xA0, base), (0xA0, base - 448), (0xA0, base - 896),
             (0xA0, PAGE)]  # final target would land one frame back
    (t_emit, t_out), (g_emit, g_target, r_last, r_stride, r_conf) = \
        replay_both(pairs)
    assert not bool(t_emit[3]) and not bool(g_emit[3])
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
    rng = np.random.default_rng(5)
    tags, addrs = generate_loads(rng, 20000)
    assert len(tags) == 20000
    assert len(set(tags.tolist())) <= 24
    ref = ReferenceModel()
    emit, _t, _l, _s, conf = ref.replay(tags, addrs)
    # the stream must actually reach both trigger and saturation states
    assert emit.sum() > 1000
    assert (conf == 3).sum() > 100


def test_equivalence_smoke():
    report = run_equivalence_check(n_loads=5000, seeds=range(3))
    assert report.ok, report.first_mismatch
    assert report.loads_checked == 15000
