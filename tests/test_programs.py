"""Domains, program builders and the Machine."""

import copy

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from afterimage.cache import CacheConfig
from afterimage.programs import (
    ELSE_TAG,
    GADGET,
    IF_TAG,
    STRIDE_ELSE,
    STRIDE_IF,
    Domain,
    Load,
    Machine,
    ip_matching_groups,
    ip_with_tag,
)
from afterimage.uarch import (
    LINE_BYTES,
    LINE_SHIFT,
    PAGE_BYTES,
    PAGE_LINES,
    PrefetchTable,
    ip_tag,
    page_frame,
)


def test_domain_translation_and_sharing():
    d = Domain("proc", phys_offset=0x100000000)
    assert d.translate(0x1234) == 0x100001234
    d.map_shared(0x20000, 0x500000)
    d.map_shared(0x21000, 0x501000)
    assert d.translate(0x20040) == 0x500040
    assert d.translate(0x21010) == 0x501010
    assert d.translate(0x22000) == 0x100022000  # past the shared window
    with pytest.raises(ValueError):
        Domain("x", phys_offset=123)


def _run(m, domain, loads):
    """Place ``loads`` in ``domain`` and run them."""
    return m.run_program(domain, m.place(domain, loads))


def test_gadget_trains_both_entries():
    m = Machine()
    _run(m, Domain("a"), GADGET)
    t = m.table
    assert t.entry(t.lookup(IF_TAG)).confidence == 2
    assert t.entry(t.lookup(IF_TAG)).stride == STRIDE_IF * 64
    assert t.entry(t.lookup(ELSE_TAG)).confidence == 2
    assert t.entry(t.lookup(ELSE_TAG)).stride == STRIDE_ELSE * 64


def test_short_gadget_stays_below_trigger():
    m = Machine()
    # two loads per IP: the first two of the gadget's three rounds
    _run(m, Domain("a"), GADGET[:4])
    t = m.table
    assert t.entry(t.lookup(IF_TAG)).confidence == 1
    assert t.entry(t.lookup(ELSE_TAG)).confidence == 1


def test_ip_matching_groups_cover_tag_space():
    groups = list(ip_matching_groups(11))
    assert len(groups) == 20
    assert all(len(g) == 24 * 3 for g in groups)
    covered = {ip_tag(s.ip) for g in groups for s in g}
    assert covered == set(range(256))
    # each group's loads carry its own distinct tags, one page frame each
    g0 = groups[0]
    tags = {ip_tag(s.ip) for s in g0}
    assert tags == set(range(24))
    frames = {s.vaddr >> 12 for s in g0}
    assert len(frames) == 24
    # the stride is checked at the call, before any group is asked for
    with pytest.raises(ValueError):
        ip_matching_groups(32)


def test_group_training_triggers_matching_tag():
    groups = list(ip_matching_groups(11))
    m = Machine()
    _run(m, Domain("u"), groups[3])
    tags = {ip_tag(s.ip) for s in groups[3]}
    assert tags == {(3 * 24 + j) % 256 for j in range(24)}
    for tag in tags:
        slot = m.table.lookup(tag)
        assert slot is not None
        e = m.table.entry(slot)
        assert e.confidence >= 2 and e.stride == 11 * 64


def test_state_persists_across_switches_by_default():
    a, b = Domain("a", phys_offset=0), Domain("b", phys_offset=0x100000000)
    m = Machine()
    _run(m, a, GADGET)
    table, clock = copy.deepcopy(vars(m.table)), m.clock
    assert m.run_program(b, []) == []
    assert vars(m.table) == table
    assert m.flush_count == 0 and m.reset_cycles == 0
    assert m.clock == clock


def test_flush_on_switch_wipes_the_table():
    a, b = Domain("a"), Domain("b", phys_offset=0x100000000)
    m = Machine(flush_on_switch=True)
    _run(m, a, GADGET)
    assert len(m.table.owner) == 2
    clock = m.clock
    assert m.run_program(b, []) == []
    assert vars(m.table) == vars(PrefetchTable())
    assert m.flush_count == 1 and m.reset_cycles == 24
    assert m.clock == clock + 24
    # staying in the domain owes no further flush
    m.run_program(b, [])
    assert m.flush_count == 1


def test_periodic_flush_accounting():
    m = Machine(flush_period=1000)
    boundary = 1000
    for i in range(60):
        # a reset comes before a load exactly when the clock has reached
        # the next period boundary, and its cycles go on the clock
        clock, flushes = m.clock, m.flush_count
        latency = m.load(0x400000, 0x10000 + i * 64)
        due = clock >= boundary
        assert m.flush_count == flushes + due
        assert m.clock == clock + 24 * due
        if due:
            boundary += 1000
        m.clock += latency
    # the walk crosses several period boundaries (most loads are prefetched
    # hits at 40 cycles, so the clock grows slower than the miss rate implies)
    assert m.flush_count >= 2
    assert m.reset_cycles == 24 * m.flush_count


def test_flush_period_must_exceed_the_reset():
    # a period no longer than the reset would owe the next reset as soon
    # as one ended, so the flush clock would never let a load through
    with pytest.raises(ValueError):
        Machine(flush_period=24)
    with pytest.raises(ValueError):
        Machine(flush_period=12, write_ports=2)
    with pytest.raises(ValueError):
        Machine(write_ports=0)
    m = Machine(flush_period=25)
    m.load(0x400000, 0x10000)
    m.clock += 25
    m.load(0x400000, 0x10040)
    assert m.flush_count == 1 and m.clock == 25 + 24


def _looped_flush_clock(n_loads, cycles_per_load, period, cost):
    """The periodic flush clock as a loop, one reset per elapsed period."""
    clock, due, flushes = 0, period, 0
    for _ in range(n_loads):
        while clock >= due:
            clock += cost
            flushes += 1
            due += period
        clock += cycles_per_load
    return clock, flushes


@pytest.mark.parametrize("cycles_per_load, period, ports", [
    (10, 36_000, 1), (10**5, 36_000, 1), (10**8, 36_000, 1),
    (10, 25, 1), (10**5, 25, 1), (10**5, 1000, 2), (10**5, 13, 2),
])
def test_flush_clock_owes_the_resets_of_a_loop(cycles_per_load, period,
                                               ports):
    # the clock counts the resets owed since the last load in one step;
    # they must be the ones a reset-per-period loop would make
    m = Machine(flush_period=period, write_ports=ports)
    for i in range(3):
        m.load(0x400100, 0x10000 + i * 64)
        m.clock += cycles_per_load
    cost = PrefetchTable.reset_cost(ports)
    clock, flushes = _looped_flush_clock(3, cycles_per_load, period, cost)
    assert (m.clock, m.flush_count, m.reset_cycles) == (
        clock, flushes, cost * flushes)
    if (cycles_per_load, period) == (10**8, 36_000):
        assert (m.flush_count, m.reset_cycles) == (5559, 133416)


def test_machine_without_a_period_never_resets_whatever_its_ports():
    # a mitigation point with no period takes the sweep's unflushed run,
    # made on a plain Machine: one built with its ports must end alike
    machines = Machine(flush_period=None, write_ports=2), Machine()
    for m in machines:
        for i in range(3000):
            k = i % 3
            m.load(ip_with_tag(0x900000 + k * 0x1000, 0x10 + k),
                   0x20000000 + k * (1 << 24) + i // 3 * 448)
            m.clock += 10
    a, b = machines
    assert a.prefetch_requests > 0 and a.cache.useful_prefetch_hits > 0
    assert (a.clock, a.flush_count, a.reset_cycles, a.prefetch_requests) == (
        b.clock, b.flush_count, b.reset_cycles, b.prefetch_requests)
    assert vars(a.cache) == vars(b.cache)
    assert vars(a.table) == vars(b.table)
    assert a.tlb.lru == b.tlb.lru


def test_clock_tracks_latencies():
    m = Machine()
    loads = _run(m, Domain("a"), [Load(0x400000, 0x1000),
                                  Load(0x400100, 0x1000)])
    assert loads == [0x1000, 0x1000]
    assert m.clock == 200 + 40


def test_placed_loads_run_as_their_unplaced_loads():
    # placing translates in the domain and keys the line as location does
    d = Domain("a", phys_offset=0x100000000)
    d.map_shared(0x20000, 0x500000)
    # the if IP walks a private page, the else IP the shared one
    prog = []
    for i in range(3):
        prog += [Load(ip_with_tag(0x400000, 0xA0), 0x1F000 + i * 7 * 64),
                 Load(ip_with_tag(0x401000, 0xB4), 0x20000 + i * 13 * 64)]
    m = Machine()
    placed = m.place(d, prog)
    assert placed == [(s.ip, d.translate(s.vaddr),
                       m.cache.location(d.translate(s.vaddr))) for s in prog]
    ref = Machine()
    for ip, paddr, _key in placed:
        ref.clock += ref.load(ip, paddr)
    assert m.run_program(d, placed) == [paddr for _, paddr, _ in placed]
    assert _machine_state(m) == _machine_state(ref)
    assert vars(m.table) == vars(ref.table)


@pytest.mark.parametrize("config", [
    CacheConfig(), CacheConfig(slices=1, sets_per_slice=1, associativity=4)])
def test_a_load_keyed_zero_runs_as_its_unkeyed_load(config):
    # key 0 is slice 0 and set 0, a placement like any other: the load
    # is not placed again, and the prefetch it triggers in its page is
    # placed from that key.  A one-set cache keys every line 0
    m, ref = Machine(config), Machine(config)
    paddr = next(a for a in range(PAGE_BYTES, 1 << 32, PAGE_BYTES)
                 if m.cache.location(a) == 0)
    stride = 7 * LINE_BYTES
    # one load warms the key-0 line's frame, then a stride trains into
    # that line and triggers from it
    loads = [(ip_with_tag(0x401000, 0x11), paddr + 32 * LINE_BYTES)] + [
        (ip_with_tag(0x400000, 0x3A), paddr + k * stride) for k in (-2, -1, 0)]
    for ip, addr in loads:
        assert m.load(ip, addr, m.cache.location(addr)) == ref.load(ip, addr)
    assert m.prefetch_requests == ref.prefetch_requests == 1
    assert _machine_state(m) == _machine_state(ref)


def test_unknown_step_is_rejected():
    # run_program takes placed loads only
    with pytest.raises(TypeError):
        Machine().run_program(Domain("a"), [0x1000])
    with pytest.raises(ValueError):
        Machine().run_program(Domain("a"), [Load(0x400000, 0x1000)])


def test_cross_process_shared_page_carries_the_stride():
    # train in one process, trigger from another via a shared physical page
    shared_phys = 0x500000
    attacker = Domain("attacker", phys_offset=0x100000000)
    attacker.map_shared(0x20000, shared_phys)
    victim = Domain("victim", phys_offset=0x200000000)
    victim.map_shared(0x30000, shared_phys)

    m = Machine()
    _run(m, attacker, GADGET)
    page = attacker.translate(0x20000)
    m.flush(page, m.cache.page_keys(page))
    requests, installs = m.prefetch_requests, m.cache.prefetch_installs
    [load] = _run(m, victim, [Load(ip_with_tag(0x700000, IF_TAG),
                                   0x30000 + 20 * 64)])

    # the victim's one load fired the stride trained in the other process
    assert m.prefetch_requests == requests + 1
    assert m.cache.prefetch_installs == installs + 1
    for line in (load, load + STRIDE_IF * 64):
        li = line >> LINE_SHIFT
        assert li in m.cache.sets.get(m.cache.location(line), ())
    assert page_frame(load) == page_frame(shared_phys)


_FLUSH_VPAGE = 0x20000  # the frame after it aliases a shared page


def _machine_state(m):
    c = m.cache
    return (c.sets, c._prefetched, c.demand_accesses, c.demand_misses,
            c.prefetch_installs, c.useful_prefetch_hits, list(m.tlb.lru),
            m.clock)


@given(prior=st.lists(st.one_of(
           st.tuples(st.just("load"), st.integers(-8, 3 * PAGE_LINES)),
           st.tuples(st.just("frame"), st.integers(0, 80))), max_size=80),
       start=st.integers(0, 2 * PAGE_LINES - 1),
       n_lines=st.integers(1, PAGE_LINES),
       offset=st.integers(0, LINE_BYTES - 1))
# a run to the end of the shared frame, flushed through its page keys
@example(prior=[("load", 62), ("load", 64), ("frame", 3)], start=64,
         n_lines=64, offset=0)
def test_flush_step_matches_per_line_flushes(prior, start, n_lines, offset):
    # a small cache, so that sets hold several page lines in LRU order,
    # and traffic on other frames, so that the TLB order matters
    d = Domain("attacker", phys_offset=0x100000000)
    d.map_shared(_FLUSH_VPAGE + PAGE_BYTES, 0x500000)
    m = Machine(CacheConfig(slices=4, sets_per_slice=16, associativity=4))
    for kind, value in prior:
        if kind == "load":
            _run(m, d, [Load(ip_with_tag(0x400000, value % 3),
                             _FLUSH_VPAGE + value * LINE_BYTES)])
        else:
            m.tlb.access(value)
    ref = copy.deepcopy(m)
    # a run sliced from its frame's keys, from its first line on
    paddr = d.translate(_FLUSH_VPAGE + start * LINE_BYTES + offset)
    first = start % PAGE_LINES
    keys = m.cache.page_keys(paddr - paddr % PAGE_BYTES)[first:first + n_lines]
    m.flush(paddr, keys)
    for i in range(len(keys)):
        ref.tlb.access(page_frame(paddr))
        ref.cache.flush_line(paddr + i * LINE_BYTES)
    assert _machine_state(m) == _machine_state(ref)
