"""Observation channels: prime+probe, flush+reload, stride detection."""

import random

import pytest

from afterimage.cache import CacheModel, build_eviction_set
from afterimage.programs import Machine
from afterimage.sidechannel import (
    StatusProbe,
    detect_stride,
    flush_reload,
    prefetcher_status_probe,
    prime,
    probe,
)
from afterimage.uarch import LINE_BYTES, PrefetchTable, Tlb, page_frame

PAGE = 0x600000  # maps to sets 24576 % 2048 = 0 .. 63, one per line


def build_page_sets(cache, page_base, n_lines=16):
    pool = range(1 << 24, 1 << 27, LINE_BYTES)
    out = []
    for i in range(n_lines):
        sl, st = cache.location(page_base + i * LINE_BYTES)
        out.append(build_eviction_set(cache, st, sl, pool))
    return out


def test_prime_baseline_is_all_hits():
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, 4)
    assert prime(cache, sets) == [16 * 40] * 4


def test_probe_without_victim_sees_nothing():
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, 6)
    baseline = prime(cache, sets)
    misses = cache.demand_misses
    assert probe(cache, sets, baseline) == [False] * 6
    # every probe access hits, so each set's time equals its baseline
    assert cache.demand_misses == misses


@pytest.mark.parametrize("n", [1, 5, 16])
def test_prime_and_probe_counters_and_lru_order(n):
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, n)
    baseline = prime(cache, sets)
    # the fill walk misses once per member, the timed walk only hits
    assert cache.demand_accesses == 2 * 16 * n
    assert cache.demand_misses == 16 * n
    for mes in sets:
        assert cache.sets[mes.key] == mes.lines
    probe(cache, sets, baseline)
    assert cache.demand_accesses == 3 * 16 * n
    assert cache.demand_misses == 16 * n
    for mes in sets:
        assert cache.sets[mes.key] == mes.lines[::-1]


def test_probe_flags_victim_touched_sets():
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, 16)
    baseline = prime(cache, sets)
    cache.access(PAGE + 3 * LINE_BYTES)  # victim line
    cache.access(PAGE + 10 * LINE_BYTES)  # prefetch target, say
    misses = cache.demand_misses
    evicted = probe(cache, sets, baseline)
    assert [i for i, e in enumerate(evicted) if e] == [3, 10]
    # one displaced member turns one hit into a miss in each touched set:
    # |delta| = 160 > 120
    assert cache.demand_misses - misses == 2


def test_flush_reload_reports_exactly_the_cached_lines():
    cache = CacheModel()
    rng = random.Random(1)
    cache.flush_lines(PAGE, 64)
    cache.access(PAGE + 12 * LINE_BYTES)
    cache.access(PAGE + 25 * LINE_BYTES)
    assert flush_reload(cache, PAGE, rng) == {12, 25}
    # reload leaves the whole page resident
    assert flush_reload(cache, PAGE, rng) == set(range(64))


def test_flush_reload_on_flushed_page_is_empty():
    cache = CacheModel()
    cache.access(PAGE + 5 * LINE_BYTES)
    cache.flush_lines(PAGE, 64)
    assert flush_reload(cache, PAGE, random.Random(2)) == set()


def test_sequential_observer_with_one_ip_poisons_itself():
    # a naive observer whose reload loads reach the prefetcher in address
    # order trains a one-line stride and caches lines ahead of itself
    def run(shuffle, single_ip):
        m = Machine()
        m.cache.flush_lines(PAGE, 64)
        order = list(range(64))
        if shuffle:
            random.Random(3).shuffle(order)
        cached = set()
        for i in order:
            # one fixed IP, or a reserved tag per line
            ip = single_ip if single_ip is not None else 0x7E0000 | i
            if m.load(ip, PAGE + i * LINE_BYTES) < m.cache.config.threshold:
                cached.add(i)
        return cached

    sequential = run(shuffle=False, single_ip=0x7D0011)
    assert len(sequential) >= 50  # almost every line reads as cached
    shuffled_same_ip = run(shuffle=True, single_ip=0x7D0011)
    assert len(shuffled_same_ip) < len(sequential)
    # reserved per-line tags cannot train at all: clean result
    assert run(shuffle=True, single_ip=None) == set()
    assert run(shuffle=False, single_ip=None) == set()


def test_observers_never_touch_the_table():
    cache = CacheModel()
    table = PrefetchTable()
    tlb = Tlb()
    for i in range(4):
        table.observe_load(tlb, 0x4010A0, PAGE + i * 448)
    h = table.state_hash()
    sets = build_page_sets(cache, PAGE, 8)
    baseline = prime(cache, sets)
    probe(cache, sets, baseline)
    cache.flush_lines(PAGE, 64)
    flush_reload(cache, PAGE, random.Random(4))
    assert table.state_hash() == h


def test_detect_stride_basics():
    assert detect_stride({8, 16}, [7, 8, 13]).detected == 8
    assert detect_stride({3, 10}, [7, 13]).detected == 7
    d = detect_stride({5}, [7, 13])
    assert d.detected is None and not d.ambiguous


def test_detect_stride_ambiguity_is_reported_not_guessed():
    # both paths' footprints present with equal support
    d = detect_stride({10, 17, 31, 44}, [7, 13])
    assert d.support == {7: 1, 13: 1}
    assert d.detected is None and d.ambiguous
    assert d.ranked == [7, 13]  # count tie falls back to smallest stride


def test_detect_stride_prefers_stronger_support():
    d = detect_stride({0, 7, 14}, [7, 14])
    assert d.support == {7: 2, 14: 1}
    assert d.detected == 7 and d.ambiguous


def test_detect_stride_validation():
    with pytest.raises(ValueError):
        detect_stride({0, 8}, [4, 8])
    with pytest.raises(ValueError):
        detect_stride({0, 8}, [8, 8])


def test_status_probe_tracks_disturbance():
    m = Machine()
    table = m.table
    g1, g2 = 0x200000, 0x300000
    # the observer's pages are translated: the second replay of 0xB4
    # lands on the frame after g2's
    for frame in (page_frame(g1), page_frame(g2), page_frame(g2) + 1):
        m.tlb.access(frame)
    for i in range(4):
        table.observe_load(None, 0x4010A0, g1 + i * 448)
        table.observe_load(None, 0x4020B4, g2 + i * 832)
    probes = [StatusProbe(0x4010A0, g1 + 4 * 448, 448),
              StatusProbe(0x4020B4, g2 + 4 * 832, 832)]

    # idle victim: both entries still trigger
    assert prefetcher_status_probe(m, probes) == {0xA0: True, 0xB4: True}

    # victim executes through tag 0xA0 somewhere far away
    table.observe_load(None, 0x7010A0, 0x900000)
    probes2 = [StatusProbe(0x4010A0, g1 + 6 * 448, 448),
               StatusProbe(0x4020B4, g2 + 5 * 832, 832)]
    got = prefetcher_status_probe(m, probes2)
    assert got == {0xA0: False, 0xB4: True}


def test_status_probe_after_reset_sees_nothing():
    m = Machine()
    g1 = 0x200000
    for i in range(4):
        m.table.observe_load(None, 0x4010A0, g1 + i * 448)
    m.table.reset()
    probes = [StatusProbe(0x4010A0, g1 + 4 * 448, 448)]
    assert prefetcher_status_probe(m, probes) == {0xA0: False}
