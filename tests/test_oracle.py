"""Reference-model transcription checks and table/reference agreement."""

import hashlib
import random
import tracemalloc

import pytest

from afterimage import kernels, oracle
from afterimage.kernels import run_table_batch
from afterimage.oracle import (
    CHUNK_LOADS,
    TAG_SPACE,
    ReferenceModel,
    check_seed,
    generate_loads,
    run_equivalence_check,
)
from afterimage.uarch import PrefetchTable

PAGE = 0x40000000

#: sha256 of repr((tags, addrs)) for the first n loads of seed s's
#: stream, recorded from a generator that drew each stream in one call,
#: at lengths on both sides of the chunk edges
STREAM_SHA256 = {
    (0, 1): "c8f5e6bbdd711625fa43dce20773a9474a803b71c39ba40928f9aa70ea18c3d5",
    (0, 4095):
        "9d1de78ad75c5e13a005a937b8c75faee7314a758a746aa481dc0e26a97c3d14",
    (0, 4096):
        "160213826d02f354fb20c05ba388f92053fd28182fd3d5ccd7b83930acd6a739",
    (0, 4097):
        "57df1c799e3b35d291e7653b57d29f86d3525cc61670cc41d41f2f2528dd6f02",
    (0, 12289):
        "b4352f6214ed9ff517b0925359e780d9fd2370362c72bb23428ed87d511e920d",
    (0, 20000):
        "c094ab5976f07ec95474b6fe6dc69a7cef619d1e43560dc6b4d18c0138056c51",
    (3, 1): "79a7d22115ee2bce4323089d8ec2427a816cae0b794a9567d4340c6c31345f64",
    (3, 4095):
        "63ba41a38bf30d352c7cdf7a51a810d2ba3bf8e1def3f2f3fabcf12cace19f17",
    (3, 4096):
        "f2d06240cfcb862c9ccec89f29de53b37dd4c63f18cc60bbf070847016fcf933",
    (3, 4097):
        "72c244a6a9b340e101749dde7e937ce201951aba69035a2a82795a4929fe8e14",
    (3, 12289):
        "258283d846c2e01ff6744084269833302f3a858146576869507b3b256546e2e6",
    (3, 20000):
        "0c556304ea30c7f37e8bd17b089d6a4df649d7977473e48699a2e2e400834f1d",
    (5, 1): "99d2be5ab2979e76ea6976064c55b5cf9180c0fbccd58e006039846872651256",
    (5, 4095):
        "a604708fb32d7d05c1ac88bb7154941d00d25441d903451bcada1a11a14c3c71",
    (5, 4096):
        "78ee1cb70091f330c7d1cc0ffc5e7b2aad14db0d1ced470bd32a2dfd3afa64ea",
    (5, 4097):
        "c68b04f60da52f271b0bd4bc34927824676826ccb2437e6d6d738c5850d18b39",
    (5, 20000):
        "5a446636370442f2a72742467ca4e154667ccc3df2a73b8a75398e736dc9773f",
}


def first_loads(seed, n):
    """The first n loads of seed's stream, drawn in one call."""
    rng = random.Random(seed)
    pool = rng.sample(range(TAG_SPACE), PrefetchTable.SLOTS)
    tags, addrs = generate_loads(rng, n, pool)
    del tags[n:], addrs[n:]
    return tags, addrs


def checked_loads(monkeypatch, seed, n):
    """The loads that check_seed(seed, n) runs, chunk by chunk."""
    chunks = []

    def recording(tags, addrs, *state):
        chunks.append((list(tags), list(addrs)))
        return run_table_batch(tags, addrs, *state)

    monkeypatch.setattr(oracle, "run_table_batch", recording)
    assert check_seed(seed, n) == (n, 0, "")
    return chunks


def sha256(tags, addrs):
    return hashlib.sha256(repr((tags, addrs)).encode()).hexdigest()


def replay_both(pairs):
    """Feed (tag, addr) pairs through table and reference; return both views."""
    tags = [p[0] for p in pairs]
    addrs = [p[1] for p in pairs]

    table = PrefetchTable()
    t_out = run_table_batch(
        tags, addrs, table.tags, table.last, table.stride, table.conf,
        table.mru, table.owner)

    return t_out, ReferenceModel().replay(tags, addrs)


def test_reference_training_sequence():
    ref = ReferenceModel()
    tags = [0xA0] * 3
    addrs = [PAGE, PAGE + 448, PAGE + 896]
    target, _last, _stride, conf = ref.replay(tags, addrs)
    assert [t is not None for t in target] == [False, False, True]
    assert target[2] == PAGE + 1344
    assert conf == [0, 1, 2]


def test_reference_stale_stride_trigger():
    ref = ReferenceModel()
    tags = [0x11] * 4
    addrs = [PAGE, PAGE + 448, PAGE + 896, PAGE + 896 + 320]
    target, _last, stride, conf = ref.replay(tags, addrs)
    assert target[3] is not None and target[3] == PAGE + 896 + 320 + 448
    assert (stride[3], conf[3]) == (320, 1)


def test_reference_confidence_saturates():
    ref = ReferenceModel()
    tags = [0x22] * 8
    addrs = [PAGE + i * 64 for i in range(8)]
    _target, _last, _stride, conf = ref.replay(tags, addrs)
    assert conf[-1] == 3


def test_reference_stride_field_saturates():
    ref = ReferenceModel()
    tags = [0x33] * 2
    addrs = [PAGE, PAGE + 5000]
    _target, _last, stride, _conf = ref.replay(tags, addrs)
    assert stride[1] == 2047


def test_reference_gates_its_own_emissions():
    # a trained record with stride s at PAGE + 100 aims at PAGE + 100 + s;
    # a stride past the 13-bit field, which the recipe never stores, is
    # the only way to aim two frames ahead, and the gate holds for it too
    def one_step(s):
        ref = ReferenceModel()
        ref.valid[0x44], ref.last[0x44] = True, PAGE + 100 - s
        ref.stride[0x44], ref.conf[0x44] = s, 2
        target, *_ = ref.replay([0x44], [PAGE + 100])
        return target[0]

    assert one_step(-200) is None  # one frame back
    assert one_step(2 * 4096) is None  # two frames ahead
    assert one_step(4096 - 50) == PAGE + 4096 + 50  # next frame
    assert one_step(64) == PAGE + 164  # same frame


def test_routes_agree_on_backward_cross_suppression():
    base = PAGE + 3 * 448
    pairs = [(0xA0, base), (0xA0, base - 448), (0xA0, base - 896),
             (0xA0, PAGE)]  # final target would land one frame back
    t_out, (g_target, r_last, r_stride, r_conf) = replay_both(pairs)
    assert t_out[0][3] is None and g_target[3] is None
    assert [t is not None for t in t_out[0]] == \
        [t is not None for t in g_target]
    assert list(t_out[0]) == list(g_target)
    assert list(t_out[2]) == list(r_stride)
    assert list(t_out[3]) == list(r_conf)


def test_routes_agree_on_interleaved_tags():
    pairs = []
    for i in range(6):
        pairs.append((0x10, PAGE + i * 448))
        pairs.append((0x20, PAGE + 0x10000 + i * 832))
        pairs.append((0x10, PAGE + 0x20000 + i * 64))  # same tag, second region
    t_out, (g_target, r_last, r_stride, r_conf) = replay_both(pairs)
    assert [t is not None for t in t_out[0]] == \
        [t is not None for t in g_target]
    assert list(t_out[0]) == list(g_target)
    assert list(t_out[1]) == list(r_last)
    assert list(t_out[2]) == list(r_stride)
    assert list(t_out[3]) == list(r_conf)


@pytest.mark.parametrize("seed, n", sorted(STREAM_SHA256))
def test_chunked_stream_is_the_whole_stream(monkeypatch, seed, n):
    # one call and check_seed's chunks both draw the pinned stream, burst
    # for burst, and check_seed finds no mismatch in it
    assert sha256(*first_loads(seed, n)) == STREAM_SHA256[seed, n]
    chunks = checked_loads(monkeypatch, seed, n)
    assert all(len(t) < CHUNK_LOADS + 8 for t, _ in chunks)
    tags = [t for chunk, _ in chunks for t in chunk]
    addrs = [a for _, chunk in chunks for a in chunk]
    assert sha256(tags, addrs) == STREAM_SHA256[seed, n]


def test_generated_streams_cover_trigger_paths():
    tags, addrs = first_loads(5, 20000)
    assert len(tags) == len(addrs) == 20000
    assert len(set(tags)) <= 24
    ref = ReferenceModel()
    target, _l, _s, conf = ref.replay(tags, addrs)
    # the stream must actually reach both trigger and saturation states
    assert sum(t is not None for t in target) > 1000
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
    # a kernel that prefetches wrong targets must be caught by the list
    # compare, once per prefetching step, with the first such step named
    # in the note
    tags, addrs = first_loads(3, 2000)
    table = PrefetchTable()
    fires = [t is not None for t in run_table_batch(
        tags, addrs, table.tags, table.last, table.stride, table.conf,
        table.mru, table.owner)[0]]
    real = kernels.table_step

    def off_by_a_line(*args):
        target = real(*args)
        return target + 64 if target is not None else None

    monkeypatch.setattr(kernels, "table_step", off_by_a_line)
    n, mismatches, note = check_seed(3, 2000)
    assert (n, mismatches) == (2000, sum(fires)) and mismatches > 0
    assert note.startswith(f"seed 3 step {fires.index(True)}: ")


def test_check_seed_locates_a_fault_past_the_first_chunk(monkeypatch):
    # targets go wrong only from the 5,000th step on, in the second chunk:
    # each wrong step counts once, and the note names the first of them
    # by its index in the whole stream
    tags, addrs = first_loads(3, 9000)
    table = PrefetchTable()
    fires = [t is not None for t in run_table_batch(
        tags, addrs, table.tags, table.last, table.stride, table.conf,
        table.mru, table.owner)[0]]
    real = kernels.table_step
    calls = [0]

    def off_by_a_line_late(*args):
        calls[0] += 1
        target = real(*args)
        if target is not None and calls[0] > 5000:
            target += 64
        return target

    monkeypatch.setattr(kernels, "table_step", off_by_a_line_late)
    n, mismatches, note = check_seed(3, 9000)
    first = fires.index(True, 5000)
    assert (n, mismatches) == (9000, sum(fires[5000:])) and mismatches > 0
    assert first >= CHUNK_LOADS
    assert note.startswith(f"seed 3 step {first}: tag {tags[first]} "
                           f"addr {addrs[first]:#x} ")


def test_check_seed_memory_stays_bounded_in_loads():
    # each chunk is checked and dropped, so four times the loads need no
    # more memory
    def peak(n):
        tracemalloc.start()
        try:
            assert check_seed(1, n)[1] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40_000) - peak(10_000) < 0.25 * 2**20


def test_equivalence_smoke():
    report = run_equivalence_check(n_loads=5000, seeds=range(3))
    assert report.ok, report.first_mismatch
    assert report.loads_checked == 15000
