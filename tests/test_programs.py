"""Domains, secret sources, program builders and the Machine."""

import random

import pytest

from afterimage.programs import (
    Branch,
    Domain,
    FlushLines,
    Load,
    Machine,
    SecretSource,
    build_gadget,
    build_kernel_syscall,
    build_victim,
    ip_matching_groups,
)
from afterimage.uarch import PrefetchTable, ip_tag, page_frame


def test_secret_source_seeded_reproducibility():
    a = SecretSource(seed=42)
    b = SecretSource(seed=42)
    bits = [a.next_bit() for _ in range(32)]
    assert bits == [b.next_bit() for _ in range(32)]
    assert a.history == bits
    assert set(bits) == {0, 1}


def test_secret_source_explicit_bits_cycle():
    s = SecretSource(bits=[1, 0, 0])
    assert [s.next_bit() for _ in range(6)] == [1, 0, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        SecretSource()


def test_domain_translation_and_sharing():
    d = Domain("proc", phys_offset=0x100000000)
    assert d.translate(0x1234) == 0x100001234
    d.map_shared(0x20000, 0x500000, n_pages=2)
    assert d.translate(0x20040) == 0x500040
    assert d.translate(0x21010) == 0x501010
    assert d.translate(0x22000) == 0x100022000  # past the shared window
    with pytest.raises(ValueError):
        Domain("x", phys_offset=123)


def test_gadget_builder_validation():
    with pytest.raises(ValueError):
        build_gadget(0xA0, 0xA0, 7, 13)
    with pytest.raises(ValueError):
        build_gadget(0xA0, 0xB4, 32, 13)  # 32 lines overflow the stride field
    with pytest.warns(UserWarning):
        build_gadget(0xA0, 0xB4, 7, 7)


def test_gadget_trains_both_entries():
    m = Machine()
    prog = build_gadget(0xA0, 0xB4, 7, 13, iterations=3)
    m.run_program(Domain("a"), prog)
    assert m.table.entry_for(0xA0).confidence == 2
    assert m.table.entry_for(0xA0).stride == 7 * 64
    assert m.table.entry_for(0xB4).confidence == 2
    assert m.table.entry_for(0xB4).stride == 13 * 64


def test_short_gadget_stays_below_trigger():
    m = Machine()
    m.run_program(Domain("a"), build_gadget(0xA0, 0xB4, 7, 13, iterations=2))
    assert m.table.entry_for(0xA0).confidence == 1
    assert m.table.entry_for(0xB4).confidence == 1


def test_victim_branch_follows_secret():
    src = SecretSource(bits=[1, 0])
    prog = build_victim(src, 0xA0, 0xB4, array_base=0x30000)
    m = Machine()
    d = Domain("v")
    assert len(m.run_program(d, prog)) == 1
    assert m.table.entry_for(0xA0) is not None
    assert m.table.entry_for(0xB4) is None
    assert len(m.run_program(d, prog)) == 1
    assert m.table.entry_for(0xB4) is not None
    assert src.history == [1, 0]
    with pytest.raises(ValueError):
        build_victim(src, 0xA0, 0xB4, 0x30000, array_lines=100)


def test_kernel_syscall_loads_only_when_bit_set():
    src = SecretSource(bits=[0, 1])
    prog = build_kernel_syscall(src, 0xC3, shared_vaddr=0x30000)
    m = Machine()
    k = Domain("kern", phys_offset=0x80000000)
    k.map_shared(0x30000, 0x500000)
    assert m.run_program(k, prog) == []
    loads = m.run_program(k, prog)
    assert len(loads) == 1 and page_frame(loads[0]) == page_frame(0x500000)


def test_ip_matching_groups_cover_tag_space():
    groups = ip_matching_groups(20, 24)
    assert len(groups) == 20
    covered = {ip_tag(s.ip) for g in groups for s in g}
    assert covered == set(range(256))
    # each group's loads carry its own distinct tags, one page frame each
    g0 = groups[0]
    tags = {ip_tag(s.ip) for s in g0}
    assert tags == set(range(24))
    frames = {s.vaddr >> 12 for s in g0}
    assert len(frames) == 24
    with pytest.raises(ValueError):
        ip_matching_groups(10, 24)


def test_group_training_triggers_matching_tag():
    groups = ip_matching_groups(20, 24, stride_lines=11)
    m = Machine()
    m.run_program(Domain("u"), groups[3])
    tags = {ip_tag(s.ip) for s in groups[3]}
    assert tags == {(3 * 24 + j) % 256 for j in range(24)}
    for tag in tags:
        e = m.table.entry_for(tag)
        assert e is not None and e.confidence >= 2 and e.stride == 11 * 64


def test_state_persists_across_switches_by_default():
    a, b = Domain("a", phys_offset=0), Domain("b", phys_offset=0x100000000)
    m = Machine()
    m.run_program(a, build_gadget(0xA0, 0xB4, 7, 13))
    h, clock = m.table.state_hash(), m.clock
    assert m.run_program(b, []) == []
    assert m.table.state_hash() == h
    assert m.flush_count == 0 and m.reset_cycles == 0
    assert m.clock == clock


def test_flush_on_switch_wipes_the_table():
    a, b = Domain("a"), Domain("b", phys_offset=0x100000000)
    m = Machine(flush_on_switch=True)
    m.run_program(a, build_gadget(0xA0, 0xB4, 7, 13))
    assert m.table.occupancy() == 2
    clock = m.clock
    assert m.run_program(b, []) == []
    assert m.table.state_hash() == PrefetchTable().state_hash()
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


def test_clock_tracks_latencies():
    m = Machine()
    loads = m.run_program(Domain("a"), [Load(0x400000, 0x1000),
                                        Load(0x400100, 0x1000)])
    assert loads == [0x1000, 0x1000]
    assert m.clock == 200 + 40


def test_cross_process_shared_page_carries_the_stride():
    # train in one process, trigger from another via a shared physical page
    shared_phys = 0x500000
    attacker = Domain("attacker", phys_offset=0x100000000)
    attacker.map_shared(0x20000, shared_phys)
    victim = Domain("victim", phys_offset=0x200000000)
    victim.map_shared(0x30000, shared_phys)

    src = SecretSource(bits=[1])
    m = Machine()
    m.run_program(attacker, build_gadget(0xA0, 0xB4, 8, 13))
    assert m.run_program(attacker, [FlushLines(0x20000, 64)]) == []
    requests, installs = m.prefetch_requests, m.cache.prefetch_installs
    [load] = m.run_program(victim, build_victim(src, 0xA0, 0xB4, 0x30000),
                           rng=random.Random(7))

    # the victim's one load fired the stride trained in the other process
    assert m.prefetch_requests == requests + 1
    assert m.cache.prefetch_installs == installs + 1
    assert m.cache.contains(load)
    assert m.cache.contains(load + 8 * 64)
    assert page_frame(load) == page_frame(shared_phys)
