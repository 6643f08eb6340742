"""Cache model: placement, LRU behaviour, flush and eviction sets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from afterimage.cache import (
    CacheConfig,
    CacheModel,
    EvictionSetError,
    build_eviction_set,
)
from afterimage.uarch import LINE_BYTES


def same_set_addresses(cache, set_index, slice_index, n, start_line=0):
    """First n line addresses mapping to the given (set, slice)."""
    out = []
    li = start_line
    while len(out) < n:
        addr = li * LINE_BYTES
        if cache.location(addr) == (slice_index, set_index):
            out.append(addr)
        li += 1
    return out


def test_config_validation():
    CacheConfig()  # defaults are legal
    with pytest.raises(ValueError):
        CacheConfig(slices=3)
    with pytest.raises(ValueError):
        CacheConfig(sets_per_slice=1000)
    with pytest.raises(ValueError):
        CacheConfig(associativity=12)
    with pytest.raises(ValueError):
        CacheConfig(hit_latency=40, threshold=40, miss_latency=200)
    with pytest.raises(ValueError):
        CacheConfig(hit_latency=40, threshold=200, miss_latency=200)


def test_miss_then_hit_latencies():
    c = CacheModel()
    assert c.access(0x1000) == 200
    assert c.access(0x1000) == 40
    assert c.access(0x1038) == 40  # same line, different byte


def test_lru_evicts_oldest_within_a_set():
    c = CacheModel()
    target = c.location(0)
    addrs = same_set_addresses(c, target[1], target[0], c.config.associativity + 1)
    for a in addrs[:-1]:
        c.access(a)
    c.access(addrs[0])  # refresh the oldest
    c.access(addrs[-1])  # overflow the set
    assert c.contains(addrs[0])  # refreshed line survived
    assert not c.contains(addrs[1])  # second-oldest was the LRU victim
    for a in addrs[2:]:
        assert c.contains(a)


def test_flush_line():
    c = CacheModel()
    c.access(0x2000)
    c.flush_line(0x2000)
    assert not c.contains(0x2000)
    assert c.access(0x2000) == 200
    c.flush_line(0x999000)  # absent line: no-op


def test_prefetch_install_and_usefulness():
    c = CacheModel()
    c.install_prefetch(0x3000)
    assert c.contains(0x3000)
    assert c.demand_accesses == 0  # no latency accounting for installs
    assert c.access(0x3000) == 40
    assert c.useful_prefetch_hits == 1
    assert c.access(0x3000) == 40
    assert c.useful_prefetch_hits == 1  # only the first use is attributed


def test_duplicate_prefetch_install_is_noop():
    c = CacheModel()
    c.access(0x4000)
    c.install_prefetch(0x4000)
    assert c.prefetch_installs == 0
    c.install_prefetch(0x5000)
    c.install_prefetch(0x5000)
    assert c.prefetch_installs == 1


def test_single_slice_hash_is_constant():
    c = CacheModel(CacheConfig(slices=1))
    assert all(c.slice_of(a) == 0 for a in range(0, 1 << 20, 4096))


def test_slice_hash_spreads_and_is_deterministic():
    c = CacheModel()
    seen = {c.slice_of(a) for a in range(0, 1 << 22, LINE_BYTES * 7)}
    assert seen == {0, 1, 2, 3}
    c2 = CacheModel()
    for a in range(0, 1 << 20, 4096):
        assert c.slice_of(a) == c2.slice_of(a)


def chunk_fold(li, bits):
    """Reference slice hash: XOR the line index one bits-wide chunk at a time."""
    h = 0
    while li:
        h ^= li & ((1 << bits) - 1)
        li >>= bits
    return h


@given(slices=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       paddr=st.integers(0, 1 << 64))
def test_slice_fold_matches_chunk_loop(slices, paddr):
    c = CacheModel(CacheConfig(slices=slices))
    bits = slices.bit_length() - 1
    want = chunk_fold(paddr >> 6, bits) if bits else 0
    assert c.slice_of(paddr) == want
    assert c.location(paddr) == (want, c.set_of(paddr))


def test_custom_slice_hash_is_honoured():
    c = CacheModel(slice_hash=lambda li: 2)
    assert c.slice_of(0x12345) == 2


def test_build_eviction_set():
    c = CacheModel()
    sl, st = c.location(0x80000)
    pool = range(0, 1 << 26, LINE_BYTES)
    mes = build_eviction_set(c, st, sl, pool)
    assert len(mes.members) == c.config.associativity
    assert len({a >> 6 for a in mes.members}) == c.config.associativity
    for a in mes.members:
        assert c.location(a) == (sl, st)


def test_eviction_set_pool_exhaustion():
    c = CacheModel()
    with pytest.raises(EvictionSetError):
        build_eviction_set(c, 0, 0, range(0, 1 << 14, LINE_BYTES))


def test_eviction_set_displaces_a_victim_line():
    c = CacheModel()
    victim = 0x80000
    sl, st = c.location(victim)
    mes = build_eviction_set(c, st, sl, range(1 << 22, 1 << 26, LINE_BYTES))
    for a in mes.members:  # prime
        c.access(a)
    c.access(victim)
    # probing the set again must show at least one displaced member
    latencies = [c.access(a) for a in mes.members]
    assert latencies.count(200) >= 1
