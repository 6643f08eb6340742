"""Cache model: placement, LRU behaviour, flush and eviction sets."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afterimage.cache import (
    CacheConfig,
    CacheModel,
    EvictionSetError,
    build_eviction_set,
    page_eviction_sets,
)
from afterimage.uarch import LINE_BYTES, LINE_SHIFT, PAGE_BYTES, PAGE_LINES


def same_set_addresses(cache, key, n, start_line=0):
    """First n line addresses that ``location`` places at ``key``."""
    out = []
    li = start_line
    while len(out) < n:
        addr = li * LINE_BYTES
        if cache.location(addr) == key:
            out.append(addr)
        li += 1
    return out


def _placement(cache, paddr):
    """(slice, set) of ``paddr``: its key is ``slice << set_bits | set``."""
    return divmod(cache.location(paddr), cache.config.sets_per_slice)


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


def _cached(c, paddr):
    return paddr >> LINE_SHIFT in c.sets.get(c.location(paddr), ())


def test_miss_then_hit_latencies():
    c = CacheModel()
    assert c.access(0x1000) == 200
    assert c.access(0x1000) == 40
    assert c.access(0x1038) == 40  # same line, different byte


def test_lru_evicts_oldest_within_a_set():
    c = CacheModel()
    addrs = same_set_addresses(c, c.location(0), c.config.associativity + 1)
    for a in addrs[:-1]:
        c.access(a)
    c.access(addrs[0])  # refresh the oldest
    c.access(addrs[-1])  # overflow the set
    assert _cached(c, addrs[0])  # refreshed line survived
    assert not _cached(c, addrs[1])  # second-oldest was the LRU victim
    for a in addrs[2:]:
        assert _cached(c, a)


def test_flush_line():
    c = CacheModel()
    c.access(0x2000)
    c.flush_line(0x2000)
    assert not _cached(c, 0x2000)
    assert c.access(0x2000) == 200
    c.flush_line(0x999000)  # absent line: no-op


def test_prefetch_install_and_usefulness():
    c = CacheModel()
    c.install_prefetch(0x3000)
    assert _cached(c, 0x3000)
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


def test_an_evicted_prefetch_earns_no_useful_hit():
    # one set of two ways: two demand lines evict the prefetched line,
    # so its later demand loads are a miss and a plain hit
    c = CacheModel(CacheConfig(slices=1, sets_per_slice=1, associativity=2))
    c.install_prefetch(0)
    c.access(LINE_BYTES)
    c.access(2 * LINE_BYTES)
    assert c.access(0) == c.config.miss_latency
    assert c.access(0) == c.config.hit_latency
    assert c.useful_prefetch_hits == 0


def test_a_flushed_prefetch_earns_no_useful_hit():
    c = CacheModel()
    c.install_prefetch(0)
    c.flush_line(0)
    assert c.access(0) == c.config.miss_latency
    assert c.access(0) == c.config.hit_latency
    assert c.useful_prefetch_hits == 0


def test_single_slice_hash_is_constant():
    c = CacheModel(CacheConfig(slices=1))
    assert all(_placement(c, a)[0] == 0 for a in range(0, 1 << 20, 4096))


def test_slice_hash_spreads_and_is_deterministic():
    c = CacheModel()
    seen = {_placement(c, a)[0] for a in range(0, 1 << 22, LINE_BYTES * 7)}
    assert seen == {0, 1, 2, 3}
    c2 = CacheModel()
    for a in range(0, 1 << 20, 4096):
        assert c.location(a) == c2.location(a)


def chunk_fold(li, bits):
    """Reference slice hash: XOR the line index one bits-wide chunk at a time."""
    h = 0
    while li:
        h ^= li & ((1 << bits) - 1)
        li >>= bits
    return h


# the parity masks span the 58-bit line index of a 64-bit address,
# rounded up to whole slice-width chunks (60 bits for slices=8, whose
# chunks are 3 bits wide); addresses up to 2**200 reach well past them
@given(slices=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       paddr=st.integers(0, 1 << 200))
@example(slices=8, paddr=(1 << 200) - 1)
@example(slices=8, paddr=0b101 << (6 + 60))
@example(slices=4, paddr=(1 << 64) - 1)
def test_slice_fold_matches_chunk_loop(slices, paddr):
    c = CacheModel(CacheConfig(slices=slices))
    bits = slices.bit_length() - 1
    want = chunk_fold(paddr >> 6, bits) if bits else 0
    assert _placement(c, paddr) == (want,
                                    (paddr >> 6) % c.config.sets_per_slice)


@given(slices=st.integers(0, 12).map(lambda e: 1 << e),
       a=st.integers(0, 1 << 200), b=st.integers(0, 1 << 200))
@example(slices=8, a=(1 << 130) + 7 << 6, b=(1 << 61) + 1 << 6)
def test_slice_fold_is_xor_linear(slices, a, b):
    # eviction-set search derives one line's set from another's by this,
    # and the keyed prefetch install a line's key from its load's: the
    # set bits are XOR-linear too, so the whole key is
    c = CacheModel(CacheConfig(slices=slices))
    assert c.location(a ^ b) == c.location(a) ^ c.location(b)


# slices 1..64, up to a slice chunk as wide as a page's line offset,
# and fewer sets per slice than a page has lines or more
_GEOMETRY = st.builds(
    CacheConfig, slices=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    sets_per_slice=st.sampled_from([1, 4, 16, 64, 256, 2048]),
    associativity=st.sampled_from([1, 4, 16]),
    hit_latency=st.just(40), miss_latency=st.just(200),
    threshold=st.just(120))


@given(config=_GEOMETRY, page=st.integers(0, (1 << 58) - 1))
@example(config=CacheConfig(slices=16, sets_per_slice=4),
         page=(1 << 58) - 1)
def test_page_keys_match_location(config, page):
    c = CacheModel(config)
    page_paddr = page * PAGE_BYTES
    assert c.page_keys(page_paddr) == [
        c.location(page_paddr + i * LINE_BYTES) for i in range(PAGE_LINES)]


@given(slices=st.integers(0, 6).map(lambda s: 1 << s),
       sets_per_slice=st.integers(0, 12).map(lambda e: 1 << e),
       page=st.integers(0, (1 << 58) - 1))
def test_page_lines_have_sets_of_their_own_exactly_from_64_sets(
        slices, sets_per_slice, page):
    # the attacks rely on this: each line of a page in a set of its own
    c = CacheModel(CacheConfig(slices=slices, sets_per_slice=sets_per_slice))
    distinct = len(set(c.page_keys(page * PAGE_BYTES))) == PAGE_LINES
    assert distinct == (slices * sets_per_slice >= PAGE_LINES)


@given(config=_GEOMETRY, page=st.integers(0, (1 << 40) - 1),
       prior=st.lists(st.tuples(st.sampled_from(["access", "prefetch"]),
                                st.integers(-8, 2 * PAGE_LINES + 8)),
                      max_size=40),
       load=st.integers(0, PAGE_LINES - 1),
       target=st.integers(0, 2 * PAGE_LINES - 1),
       offset=st.integers(0, LINE_BYTES - 1))
# a target in the next page, and the last line prefetching the next
# page's first
@example(config=CacheConfig(slices=4, sets_per_slice=16), page=5,
         prior=[], load=10, target=PAGE_LINES + 20, offset=0)
@example(config=CacheConfig(slices=8, sets_per_slice=4), page=7,
         prior=[("access", PAGE_LINES)], load=PAGE_LINES - 1,
         target=PAGE_LINES, offset=8)
# a load keyed 0, slice 0 and set 0, which is a placement like any
# other: line 0, line 10,240 of the default geometry (page 160), and
# every line of a one-set cache
@example(config=CacheConfig(slices=4, sets_per_slice=16), page=0,
         prior=[("prefetch", 9)], load=0, target=9, offset=0)
@example(config=CacheConfig(), page=160, prior=[("access", 30)], load=0,
         target=30, offset=12)
@example(config=CacheConfig(slices=1, sets_per_slice=1, associativity=4),
         page=3, prior=[("access", 5), ("prefetch", 7)], load=20, target=41,
         offset=4)
@example(config=CacheConfig(slices=1, sets_per_slice=1, associativity=4),
         page=3, prior=[], load=PAGE_LINES - 1, target=PAGE_LINES + 2,
         offset=0)
def test_keyed_prefetch_matches_placed_prefetch(config, page, prior, load,
                                                target, offset):
    # prior traffic on the load's page, the next one and their edges,
    # so that the target may be cached already or its set full
    c = CacheModel(config)
    page_paddr = page * PAGE_BYTES
    for op, line in prior:
        addr = page_paddr + line * LINE_BYTES
        if op == "access":
            c.access(addr)
        else:
            c.install_prefetch(addr)
    ref = copy.deepcopy(c)
    load_paddr = page_paddr + load * LINE_BYTES + offset
    target_paddr = page_paddr + target * LINE_BYTES + offset
    c.install_prefetch(target_paddr, c.location(load_paddr),
                       load_paddr >> LINE_SHIFT)
    ref.install_prefetch(target_paddr)
    assert _counters(c) == _counters(ref)


@pytest.mark.parametrize("config, paddr", [
    (CacheConfig(slices=4, sets_per_slice=16), 0),
    (CacheConfig(), 160 * PAGE_BYTES + 12),
    (CacheConfig(slices=1, sets_per_slice=1, associativity=4),
     3 * PAGE_BYTES + 20 * LINE_BYTES + 4)])
def test_key_zero_places_lines(config, paddr):
    # the loads of the key-0 examples above: slice 0 and set 0 make key
    # 0, and a page's keys hold it like any other
    c = CacheModel(config)
    assert c.location(paddr) == 0
    page_paddr = paddr - paddr % PAGE_BYTES
    assert c.page_keys(page_paddr)[paddr % PAGE_BYTES // LINE_BYTES] == 0


@pytest.mark.parametrize("page_paddr", [LINE_BYTES, PAGE_BYTES + 8, -1])
def test_page_keys_reject_an_unaligned_page(page_paddr):
    with pytest.raises(ValueError, match="page aligned"):
        CacheModel().page_keys(page_paddr)


def _flush_per_line(c, paddr):
    """Reference flush of one line, placed by ``location``."""
    li = paddr >> LINE_SHIFT
    ways = c.sets.get(c.location(paddr))
    if ways and li in ways:
        ways.remove(li)
    c._prefetched.discard(li)


@given(config=_GEOMETRY, page=st.integers(0, (1 << 40) - 1),
       prior=st.lists(st.tuples(st.sampled_from(["access", "prefetch"]),
                                st.integers(-8, PAGE_LINES + 8)),
                      max_size=80),
       first=st.integers(0, PAGE_LINES - 1), n_lines=st.integers(1, 64),
       offset=st.integers(0, LINE_BYTES - 1))
def test_keyed_flush_matches_per_line_flush(config, page, prior, first,
                                            n_lines, offset):
    # prior traffic on the page and its neighbours' edges, so that sets
    # hold the flushed lines among others, in some LRU order
    c = CacheModel(config)
    page_paddr = page * PAGE_BYTES + PAGE_BYTES
    for op, line in prior:
        addr = page_paddr + line * LINE_BYTES
        if op == "access":
            c.access(addr)
        else:
            c.install_prefetch(addr)
    # a run sliced from the page's keys, as a caller places it
    keys = c.page_keys(page_paddr)[first:first + n_lines]
    paddr = page_paddr + first * LINE_BYTES + offset
    ref = copy.deepcopy(c)
    c.flush_lines(paddr, keys)
    for i in range(len(keys)):
        _flush_per_line(ref, paddr + i * LINE_BYTES)
    assert _counters(c) == _counters(ref)


def test_build_eviction_set():
    c = CacheModel()
    key = c.location(0x80000)
    pool = range(0, 1 << 26, LINE_BYTES)
    lines = build_eviction_set(c, key, pool)
    members = [li * LINE_BYTES for li in lines]
    assert len(members) == c.config.associativity
    assert len({a >> 6 for a in members}) == c.config.associativity
    for a in members:
        assert c.location(a) == key


def test_eviction_set_pool_exhaustion():
    c = CacheModel()
    # key 0 is set 0 of slice 0, where only line 0 of the pool lands
    with pytest.raises(EvictionSetError,
                       match="with 1/16 members for set 0 slice 0$"):
        build_eviction_set(c, 0, range(0, 1 << 14, LINE_BYTES))


def test_eviction_set_displaces_a_victim_line():
    c = CacheModel()
    victim = 0x80000
    lines = build_eviction_set(c, c.location(victim),
                               range(1 << 22, 1 << 26, LINE_BYTES))
    members = [li * LINE_BYTES for li in lines]
    for a in members:  # prime
        c.access(a)
    c.access(victim)
    # probing the set again must show at least one displaced member
    latencies = [c.access(a) for a in members]
    assert latencies.count(200) >= 1


@settings(deadline=None)
@given(slices=st.integers(0, 6).map(lambda s: 1 << s),
       sets_per_slice=st.integers(0, 12).map(lambda e: 1 << e),
       associativity=st.integers(0, 4).map(lambda e: 1 << e),
       page=st.integers(0, (1 << 40) - 1),
       prior=st.lists(st.tuples(st.sampled_from(["access", "prefetch"]),
                                st.integers(0, 1 << 16)), max_size=40))
# 16 sets: page lines 0 and 16 share key 0, and line 0's search takes
# line 16 as a member, so the two walks differ and evict each other
@example(slices=1, sets_per_slice=16, associativity=4, page=0, prior=[])
@example(slices=4, sets_per_slice=2048, associativity=16, page=0x600,
         prior=[("prefetch", 3), ("access", 64), ("prefetch", 70)])
def test_a_primed_eviction_set_reads_all_hits(slices, sets_per_slice,
                                              associativity, page, prior):
    c = CacheModel(CacheConfig(slices=slices, sets_per_slice=sets_per_slice,
                               associativity=associativity))
    page_paddr = page * PAGE_BYTES
    keys, walks = page_eviction_sets(c, page_paddr)
    # prior traffic on the page's lines and the sets' members, which may
    # leave unused prefetches and other lines in the walked sets
    first = page_paddr >> LINE_SHIFT
    lines = [*range(first, first + PAGE_LINES),
             *sorted({li for walk in walks for li in walk})]
    for op, i in prior:
        addr = lines[i % len(lines)] << LINE_SHIFT
        if op == "access":
            c.access(addr)
        else:
            c.install_prefetch(addr)
    c.walk_sets(keys, walks)
    times = c.walk_sets(keys, walks)
    hit = c.config.hit_latency
    if slices * sets_per_slice >= PAGE_LINES:
        assert times == [len(walk) * hit for walk in walks]
    # a walk of associativity-many lines leaves its set holding exactly
    # them, so a walk reads all hits iff the last walk at its key held
    # the same lines; below 64 sets two walks may share a key
    held = {key: set(walk) for key, walk in zip(keys, walks)}
    for key, walk, t in zip(keys, walks, times):
        assert (t == len(walk) * hit) == (set(walk) == held[key])
        held[key] = set(walk)


# a tiny cache: 4 ways, and enough lines per set to displace them
_TINY = CacheConfig(slices=2, sets_per_slice=4, associativity=4)


def _pools(n_lines):
    """Each _TINY key -> the lines below ``n_lines`` placed there."""
    c = CacheModel(_TINY)
    pools = {}
    for li in range(n_lines):
        pools.setdefault(c.location(li * LINE_BYTES), []).append(li)
    return pools


# two keys, each with the eight lines placed there
_POOLS = [(key, lines[:8]) for key, lines in list(_pools(128).items())[:2]]
_KEY, _SAME = _POOLS[0]
_MEMBERS = _SAME[:4]
_KEY2, _SAME2 = _POOLS[1]
_MEMBERS2 = _SAME2[:4]
# each pool line -> the four lines that fill its set exactly
_MEMBERS_OF = {li: same[:4] for _, same in _POOLS for li in same}


def _counters(c):
    return (c.sets, c._prefetched, c.demand_accesses, c.demand_misses,
            c.prefetch_installs, c.useful_prefetch_hits)


def _walks(key, same):
    members = same[:4]
    return st.tuples(st.just(key), st.one_of(
        st.just(members), st.just(members[::-1]),
        st.permutations(members),
        st.lists(st.sampled_from(members), unique=True),
        # more lines than ways, or a repeated line
        st.lists(st.sampled_from(same), max_size=10)))


@given(prior=st.lists(st.tuples(
           st.sampled_from(["access", "prefetch", "flush", "prime"]),
           st.sampled_from(sorted(_MEMBERS_OF))), max_size=24),
       walks=st.lists(st.one_of(*(_walks(k, s) for k, s in _POOLS)),
                      max_size=4))
# the set holds exactly the walked lines in walk order (or its reverse),
# the last not yet demanded: neither order check may skip the prefetch
@example(prior=[("prime", _MEMBERS[0]), ("flush", _MEMBERS[-1]),
                ("prefetch", _MEMBERS[-1])], walks=[(_KEY, _MEMBERS)])
@example(prior=[("prime", _MEMBERS[0]), ("flush", _MEMBERS[-1]),
                ("prefetch", _MEMBERS[-1])], walks=[(_KEY, _MEMBERS[::-1])])
@example(prior=[("prime", _MEMBERS[0]), ("flush", _MEMBERS[1]),
                ("prefetch", _MEMBERS[1])], walks=[(_KEY, _MEMBERS)])
# more unused prefetches than walks, one of them on the walked set,
# which its mark must keep off the all-hit step
@example(prior=[("prime", _MEMBERS[0]), ("flush", _MEMBERS[-1]),
                ("prefetch", _MEMBERS[-1]), ("prefetch", _MEMBERS2[0])],
         walks=[(_KEY, _MEMBERS)])
# every set holds its walk in walk order, but one walked line is an
# unused prefetch: that set's walk may not count as all hits
@example(prior=[("prime", _MEMBERS[0]), ("prime", _MEMBERS2[0]),
                ("flush", _MEMBERS2[-1]), ("prefetch", _MEMBERS2[-1])],
         walks=[(_KEY, _MEMBERS), (_KEY2, _MEMBERS2)])
# one key twice: the same walk (all hits, counted twice), then a walk
# of other lines while the set holds the second walk
@example(prior=[("prime", _MEMBERS[0])],
         walks=[(_KEY, _MEMBERS), (_KEY, _MEMBERS)])
@example(prior=[("access", li) for li in _SAME[4:]],
         walks=[(_KEY, _MEMBERS), (_KEY, _SAME[4:])])
# walks onto an empty set: none, more lines than ways, a repeated line
@example(prior=[], walks=[(_KEY, [])])
@example(prior=[], walks=[(_KEY, _SAME[:5])])
@example(prior=[], walks=[(_KEY, [_SAME[0], _SAME[1], _SAME[0]])])
# prime+probe on one key: fill, timed walk, reversed walk
@example(prior=[], walks=[(_KEY, _MEMBERS), (_KEY, _MEMBERS),
                          (_KEY, _MEMBERS[::-1])])
# a full set and a walk of its length that is neither order nor a
# permutation of it: the set reversed for the order test must be
# restored before the per-line rule
@example(prior=[], walks=[(_KEY, _MEMBERS), (_KEY, [_MEMBERS[0]] * 4)])
# a full set walked in a rotated order: neither order matches, so the
# per-line rule serves the permutation
@example(prior=[], walks=[(_KEY, _MEMBERS),
                          (_KEY, _MEMBERS[1:] + _MEMBERS[:1])])
def test_walk_sets_match_per_line_access(prior, walks):
    c = CacheModel(_TINY)
    for op, li in prior:
        if op == "access":
            c.access(li * LINE_BYTES)
        elif op == "prefetch":
            c.install_prefetch(li * LINE_BYTES)
        elif op == "flush":
            c.flush_line(li * LINE_BYTES)
        else:  # fill the set with exactly its four members
            for m in _MEMBERS_OF[li]:
                c.access(m * LINE_BYTES)
    ref = copy.deepcopy(c)
    want = [sum(ref.access(li * LINE_BYTES) for li in lines)
            for _, lines in walks]
    assert c.walk_sets([key for key, _ in walks],
                       [list(lines) for _, lines in walks]) == want
    assert _counters(c) == _counters(ref)


# each line of the first three pages -> four lines that fill its set
_FILL_OF = {li: same[:4] for same in _pools(3 * PAGE_LINES).values()
            for li in same}
_RELOAD_FIRST = PAGE_LINES  # the reloaded page: lines 64..127


@given(prior=st.lists(st.tuples(
           st.sampled_from(["access", "prefetch", "flush", "fill"]),
           st.integers(0, 3 * PAGE_LINES - 1)), max_size=80))
# the page flushed, then a victim line, its prefetch and a line whose
# set is full of other lines
@example(prior=[("flush", li) for li in range(64, 128)] + [
             ("access", 70), ("prefetch", 77), ("fill", 130)])
def test_access_page_matches_per_line_access(prior):
    # eight sets hold the page's 64 lines, so its lines evict each other
    c = CacheModel(_TINY)
    for op, li in prior:
        if op == "access":
            c.access(li * LINE_BYTES)
        elif op == "prefetch":
            c.install_prefetch(li * LINE_BYTES)
        elif op == "flush":
            c.flush_line(li * LINE_BYTES)
        else:  # fill the line's set with four lines
            for m in _FILL_OF[li]:
                c.access(m * LINE_BYTES)
    ref = copy.deepcopy(c)
    keys = c.page_keys(_RELOAD_FIRST * LINE_BYTES)
    threshold = ref.config.threshold
    want = {i for i in range(PAGE_LINES)
            if ref.access_line(keys[i], _RELOAD_FIRST + i) < threshold}
    assert c.access_page(keys, _RELOAD_FIRST) == want
    assert _counters(c) == _counters(ref)
