"""Domains, secret sources, program builders and the Machine."""

import random

import pytest

from afterimage.programs import (
    Branch,
    Domain,
    FlushLines,
    Load,
    Machine,
    Program,
    SecretSource,
    build_gadget,
    build_kernel_syscall,
    build_victim,
    ip_matching_groups,
)
from afterimage.uarch import ip_tag


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
    ev1 = m.run_program(d, prog)
    loads = [e for e in ev1 if e.kind == "load"]
    assert len(loads) == 1 and ip_tag(loads[0].ip) == 0xA0
    ev2 = m.run_program(d, prog)
    loads = [e for e in ev2 if e.kind == "load"]
    assert len(loads) == 1 and ip_tag(loads[0].ip) == 0xB4
    assert src.history == [1, 0]
    with pytest.raises(ValueError):
        build_victim(src, 0xA0, 0xB4, 0x30000, array_lines=100)


def test_kernel_syscall_loads_only_when_bit_set():
    src = SecretSource(bits=[0, 1])
    prog = build_kernel_syscall(src, 0xC3, shared_vaddr=0x30000)
    m = Machine()
    k = Domain("kern")
    assert [e.kind for e in m.run_program(k, prog) if e.kind == "load"] == []
    ev = m.run_program(k, prog)
    assert len([e for e in ev if e.kind == "load"]) == 1


def test_ip_matching_groups_cover_tag_space():
    groups = ip_matching_groups(20, 24)
    assert len(groups) == 20
    covered = {ip_tag(s.ip) for g in groups for s in g.steps}
    assert covered == set(range(256))
    # each group's loads carry its own distinct tags, one page frame each
    g0 = groups[0]
    tags = {ip_tag(s.ip) for s in g0.steps}
    assert tags == set(range(24))
    frames = {s.vaddr >> 12 for s in g0.steps}
    assert len(frames) == 24
    with pytest.raises(ValueError):
        ip_matching_groups(10, 24)


def test_group_training_triggers_matching_tag():
    groups = ip_matching_groups(20, 24, stride_lines=11)
    m = Machine()
    m.run_program(Domain("u"), groups[3])
    tags = {ip_tag(s.ip) for s in groups[3].steps}
    assert tags == {(3 * 24 + j) % 256 for j in range(24)}
    for tag in tags:
        e = m.table.entry_for(tag)
        assert e is not None and e.confidence >= 2 and e.stride == 11 * 64


def test_state_persists_across_switches_by_default():
    a, b = Domain("a", phys_offset=0), Domain("b", phys_offset=0x100000000)
    m = Machine()
    m.run_program(a, build_gadget(0xA0, 0xB4, 7, 13))
    h = m.table.state_hash()
    events = m.run_program(b, Program("idle", []))
    assert m.table.state_hash() == h
    assert [e.kind for e in events] == ["switch"]


def test_flush_on_switch_wipes_the_table():
    a, b = Domain("a"), Domain("b", phys_offset=0x100000000)
    m = Machine(flush_on_switch=True)
    m.run_program(a, build_gadget(0xA0, 0xB4, 7, 13))
    assert m.table.occupancy() == 2
    events = m.run_program(b, Program("idle", []))
    assert [e.kind for e in events] == ["switch", "table_reset"]
    assert m.table.occupancy() == 0
    assert m.flush_count == 1 and m.reset_cycles == 24


def test_periodic_flush_accounting():
    m = Machine(flush_period=1000)
    prog = Program("walk", [Load(0x400000, 0x10000 + i * 64) for i in range(60)])
    events = m.run_program(Domain("a"), prog)
    # the walk crosses several period boundaries (most loads are prefetched
    # hits at 40 cycles, so the clock grows slower than the miss rate implies)
    assert m.flush_count >= 2
    assert m.reset_cycles == 24 * m.flush_count
    resets = [e.time for e in events if e.kind == "table_reset"]
    assert len(resets) == m.flush_count
    assert all(t >= 1000 * (i + 1) for i, t in enumerate(resets))
    # every prefetch is listed right after the load that triggered it
    prefetches = [i for i, e in enumerate(events) if e.kind == "prefetch"]
    assert prefetches
    for i in prefetches:
        assert events[i - 1].kind == "load"
        assert events[i - 1].time == events[i].time


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
    m.run_program(Domain("a"), Program("p", [Load(0x400000, 0x1000),
                                             Load(0x400100, 0x1000)]))
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
    m.run_program(attacker, Program("flush", [FlushLines(0x20000, 64)]))
    ev = m.run_program(victim, build_victim(src, 0xA0, 0xB4, 0x30000),
                       rng=random.Random(7))

    load = next(e for e in ev if e.kind == "load")
    prefetches = [e for e in ev if e.kind == "prefetch"]
    assert len(prefetches) == 1
    assert prefetches[0].paddr == load.paddr + 8 * 64
    assert prefetches[0].detail == "tag 0xa0"
    assert prefetches[0].ip == load.ip
    assert m.cache.contains(load.paddr)
    assert m.cache.contains(load.paddr + 8 * 64)
    assert (load.paddr >> 12) == (shared_phys >> 12)
