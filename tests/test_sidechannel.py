"""Observation channels: prime+probe, flush+reload, stride detection."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afterimage.cache import (
    CacheConfig,
    CacheModel,
    build_eviction_set,
    page_eviction_sets,
)
from afterimage.programs import Machine
from afterimage.sidechannel import (
    StatusProbe,
    detect_stride,
    flush_reload,
    prefetcher_status_probe,
    prime,
    probe,
)
from afterimage.uarch import (
    LINE_BYTES,
    LINE_SHIFT,
    PAGE_LINES,
    PrefetchTable,
    Tlb,
    page_frame,
)

PAGE = 0x600000  # maps to sets 24576 % 2048 = 0 .. 63, one per line


def build_page_sets(cache, page_base, n_lines=16):
    """The keys of the page's first ``n_lines`` lines and one eviction
    set per line, drawn from the lines in [2**24, 2**27) that share its
    set bits."""
    sets = cache.config.sets_per_slice
    keys = [cache.location(page_base + i * LINE_BYTES)
            for i in range(n_lines)]
    return keys, [build_eviction_set(
        cache, key, range((1 << 24) + key % sets * LINE_BYTES, 1 << 27,
                          sets * LINE_BYTES))
        for key in keys]


def _prime(cache, sets):
    keys, walks = sets
    return prime(cache, keys, walks)


def _probe(cache, sets):
    keys, walks = sets
    return probe(cache, keys, [lines[::-1] for lines in walks])


def _reload(cache, page):
    return flush_reload(cache, page, cache.page_keys(page))


def test_prime_baseline_is_all_hits():
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, 4)
    assert _prime(cache, sets) is None
    # the fill walk leaves every set holding its walk: a second walk
    # hits on every line
    misses = cache.demand_misses
    assert cache.walk_sets(*sets) == [16 * 40] * 4
    assert cache.demand_misses == misses


def test_probe_without_victim_sees_nothing():
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, 6)
    _prime(cache, sets)
    misses = cache.demand_misses
    assert _probe(cache, sets) == [False] * 6
    # every probe access hits, so each set reads its all-hit time
    assert cache.demand_misses == misses


@pytest.mark.parametrize("n", [1, 5, 16])
def test_prime_and_probe_counters_and_lru_order(n):
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, n)
    _prime(cache, sets)
    # the fill walk misses once per member, and prime walks only once
    assert cache.demand_accesses == 16 * n
    assert cache.demand_misses == 16 * n
    for key, lines in zip(*sets):
        assert cache.sets[key] == lines
    _probe(cache, sets)
    assert cache.demand_accesses == 2 * 16 * n
    assert cache.demand_misses == 16 * n
    for key, lines in zip(*sets):
        assert cache.sets[key] == lines[::-1]


def test_probe_flags_victim_touched_sets():
    cache = CacheModel()
    sets = build_page_sets(cache, PAGE, 16)
    _prime(cache, sets)
    cache.access(PAGE + 3 * LINE_BYTES)  # victim line
    cache.access(PAGE + 10 * LINE_BYTES)  # prefetch target, say
    misses = cache.demand_misses
    evicted = _probe(cache, sets)
    assert [i for i, e in enumerate(evicted) if e] == [3, 10]
    # one displaced member turns one hit into a miss in each touched set:
    # delta = 160 > 120
    assert cache.demand_misses - misses == 2


def test_flush_reload_reports_exactly_the_cached_lines():
    cache = CacheModel()
    cache.flush_lines(PAGE, cache.page_keys(PAGE))
    cache.access(PAGE + 12 * LINE_BYTES)
    cache.access(PAGE + 25 * LINE_BYTES)
    assert _reload(cache, PAGE) == {12, 25}
    # reload leaves the whole page resident
    assert _reload(cache, PAGE) == set(range(64))


def test_flush_reload_on_flushed_page_is_empty():
    cache = CacheModel()
    cache.access(PAGE + 5 * LINE_BYTES)
    cache.flush_lines(PAGE, cache.page_keys(PAGE))
    assert _reload(cache, PAGE) == set()


def _cache_state(c):
    return (c.sets, c._prefetched, c.demand_accesses, c.demand_misses,
            c.prefetch_installs, c.useful_prefetch_hits)


@given(config=st.sampled_from([
           CacheConfig(slices=2, sets_per_slice=4, associativity=8),
           CacheConfig(slices=4, sets_per_slice=16, associativity=4)]),
       prior=st.lists(st.tuples(
           st.sampled_from(["access", "prefetch", "flush"]),
           st.integers(-4, 68)), max_size=80))
def test_keyed_reload_matches_per_line_access(config, prior):
    # a page's lines share sets in these caches, so the reload evicts
    # lines of its own page
    cache = CacheModel(config)
    for op, line in prior:
        addr = PAGE + line * LINE_BYTES
        if op == "access":
            cache.access(addr)
        elif op == "prefetch":
            cache.install_prefetch(addr)
        else:
            cache.flush_line(addr)
    ref = copy.deepcopy(cache)
    want = {i for i in range(PAGE_LINES)
            if ref.access(PAGE + i * LINE_BYTES) < ref.config.threshold}
    assert _reload(cache, PAGE) == want
    assert _cache_state(cache) == _cache_state(ref)


def _walk_per_line(cache, sets, reverse):
    """Reference walk: each set's time, one ``access_line`` per member."""
    return [sum(cache.access_line(key, li)
                for li in (lines[::-1] if reverse else lines))
            for key, lines in zip(*sets)]


def _disturb(cache, sets, op, line, member):
    """One disturbance between prime and probe: ``line`` picks a page
    line, which lands in the set its eviction set monitors."""
    paddr = PAGE + line * LINE_BYTES
    if op == "victim":
        cache.access(paddr)
    elif op == "prefetch":
        cache.install_prefetch(paddr)
    elif op == "flush":
        cache.flush_line(paddr)
    elif op == "noise":  # as the probe noise: kick the first member out
        cache.flush_line(sets[1][line][0] << LINE_SHIFT)
    else:  # a member comes back as a prefetch no demand has used yet
        addr = sets[1][line][member] << LINE_SHIFT
        cache.flush_line(addr)
        cache.install_prefetch(addr)


@pytest.mark.parametrize("config", [
    CacheConfig(),
    # 16 sets per slice: some page lines share a key, so two eviction
    # sets walk the same set within one prime or probe
    CacheConfig(slices=2, sets_per_slice=16),
    # one miss in a walk (160 cycles over its all-hit time) stays under
    # the threshold; two exceed it
    CacheConfig(hit_latency=40, miss_latency=200, threshold=190)])
@settings(max_examples=25, deadline=None)
@given(rounds=st.lists(st.lists(st.tuples(
           st.sampled_from(["victim", "prefetch", "flush", "noise",
                            "refetch"]),
           st.integers(0, PAGE_LINES - 1), st.integers(0, 15)),
           max_size=8), min_size=1, max_size=4))
def test_prime_probe_rounds_match_per_line_walks(config, rounds):
    cache = CacheModel(config)
    sets = page_eviction_sets(cache, PAGE)
    if config.sets_per_slice < PAGE_LINES:
        assert len(set(sets[0])) < PAGE_LINES
    ref = copy.deepcopy(cache)
    threshold = cache.config.threshold
    for ops in rounds:
        _walk_per_line(ref, sets, False)  # the fill walk, and no other
        # the baseline: what a second walk of the primed sets reads
        baseline = _walk_per_line(copy.deepcopy(ref), sets, False)
        assert _prime(cache, sets) is None
        assert _cache_state(cache) == _cache_state(ref)
        for op in ops:
            _disturb(cache, sets, *op)
            _disturb(ref, sets, *op)
        times = _walk_per_line(ref, sets, True)
        assert _probe(cache, sets) == [
            t - b > threshold for t, b in zip(times, baseline)]
        assert _cache_state(cache) == _cache_state(ref)


@pytest.mark.parametrize("base", [PAGE + LINE_BYTES, PAGE + 8, PAGE - 1])
def test_flush_reload_rejects_an_unaligned_page(base):
    cache = CacheModel()
    with pytest.raises(ValueError, match="page aligned"):
        flush_reload(cache, base, cache.page_keys(PAGE))
    assert cache.demand_accesses == 0


def test_sequential_observer_with_one_ip_poisons_itself():
    # a naive observer whose reload loads reach the prefetcher in address
    # order trains a one-line stride and caches lines ahead of itself
    def run(shuffle, single_ip):
        m = Machine()
        m.cache.flush_lines(PAGE, m.cache.page_keys(PAGE))
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
    before = copy.deepcopy(vars(table))
    sets = build_page_sets(cache, PAGE, 8)
    _prime(cache, sets)
    _probe(cache, sets)
    cache.flush_lines(PAGE, cache.page_keys(PAGE))
    _reload(cache, PAGE)
    assert vars(table) == before


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
    assert prefetcher_status_probe(m, probes,
                                   [False] * len(probes)) == [True, True]

    # victim executes through tag 0xA0 somewhere far away
    table.observe_load(None, 0x7010A0, 0x900000)
    probes2 = [StatusProbe(0x4010A0, g1 + 6 * 448, 448),
               StatusProbe(0x4020B4, g2 + 5 * 832, 832)]
    got = prefetcher_status_probe(m, probes2, [False] * len(probes2))
    assert got == [False, True]


def test_status_probe_after_reset_sees_nothing():
    m = Machine()
    g1 = 0x200000
    for i in range(4):
        m.table.observe_load(None, 0x4010A0, g1 + i * 448)
    m.table.reset()
    probes = [StatusProbe(0x4010A0, g1 + 4 * 448, 448)]
    assert prefetcher_status_probe(m, probes,
                                   [False] * len(probes)) == [False]
