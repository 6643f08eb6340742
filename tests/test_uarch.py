"""Tests for the stride table's indexing, training and page rules."""

import hashlib
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afterimage.kernels import STRIDE_LIMIT, run_table_batch
from afterimage.oracle import ReferenceModel
from afterimage.programs import Machine
from afterimage.uarch import (
    PAGE_BYTES,
    PrefetchTable,
    Tlb,
    ip_tag,
    page_frame,
)

PAGE = 0x600000  # frame-aligned scratch page


def train(table, ip, base, stride, n, tlb=None):
    """Issue n loads at base, base+stride, ... collecting every target."""
    targets = []
    for i in range(n):
        target = table.observe_load(tlb, ip, base + i * stride)
        if target is not None:
            targets.append(target)
    return targets


def test_tag_is_low_byte_of_ip():
    assert ip_tag(0x4010A0) == 0xA0
    assert ip_tag(0x7FF0A0) == 0xA0
    assert ip_tag(0xFF) == 0xFF


def test_lookup_on_empty_table_misses():
    assert PrefetchTable().lookup(0xA0) is None


def test_ips_sharing_low_byte_share_an_entry():
    t = PrefetchTable()
    train(t, 0x4010A0, PAGE, 448, 2)
    # a far-away instruction with the same low byte lands on the same entry
    slot = t.lookup(ip_tag(0x7FF0A0))
    assert slot is not None
    assert t.entry(slot).stride == 448
    # and continuing the pattern through it triggers immediately
    assert t.observe_load(None, 0x7FF0A0, PAGE + 2 * 448) == PAGE + 3 * 448


def test_lookup_with_different_low_byte_misses():
    t = PrefetchTable()
    train(t, 0x4010A0, PAGE, 448, 2)
    assert t.lookup(0xA1) is None


def test_first_load_creates_cold_entry():
    t = PrefetchTable()
    assert t.observe_load(None, 0x4010A0, PAGE + 512) is None
    e = t.entry(t.lookup(0xA0))
    assert (e.last_addr, e.stride, e.confidence) == (PAGE + 512, 0, 0)


def test_third_matching_load_triggers():
    t = PrefetchTable()
    assert t.observe_load(None, 0x4010A0, PAGE) is None
    assert t.observe_load(None, 0x4010A0, PAGE + 448) is None
    assert t.entry(t.lookup(0xA0)).confidence == 1
    assert t.observe_load(None, 0x4010A0, PAGE + 2 * 448) == PAGE + 3 * 448
    assert t.entry(t.lookup(0xA0)).confidence == 2


def test_trigger_uses_stale_stride_before_retraining():
    t = PrefetchTable()
    train(t, 0x4010A0, PAGE, 448, 3)  # confidence now 2, stride 448
    cur = PAGE + 2 * 448 + 320  # breaks the pattern
    target = t.observe_load(None, 0x4010A0, cur)
    # the old stride still fires once, then the entry falls back to learning
    assert target == cur + 448
    e = t.entry(t.lookup(0xA0))
    assert (e.stride, e.confidence) == (320, 1)


def test_confidence_saturates_at_three():
    t = PrefetchTable()
    for i in range(10):
        target = t.observe_load(None, 0x4010A0, PAGE + i * 448)
        assert (target is not None) == (i >= 2)
    assert t.entry(t.lookup(0xA0)).confidence == 3


def test_stride_switch_relearns_in_two_loads():
    t = PrefetchTable()
    train(t, 0x4010A0, PAGE, 448, 4)  # saturated on 448
    last = PAGE + 3 * 448
    r1 = t.observe_load(None, 0x4010A0, last + 320)
    assert r1 == last + 320 + 448  # stale stride fires
    r2 = t.observe_load(None, 0x4010A0, last + 2 * 320)
    assert r2 == last + 2 * 320 + 320  # new stride locked in
    assert t.entry(t.lookup(0xA0)).confidence == 2


def test_oversized_distances_saturate_the_stride_field():
    t = PrefetchTable()
    t.observe_load(None, 0x4010A0, PAGE)
    t.observe_load(None, 0x4010A0, PAGE + 3000)
    assert t.entry(t.lookup(0xA0)).stride == STRIDE_LIMIT
    # the raw distance never equals the saturated stride, so no training
    t.observe_load(None, 0x4010A0, PAGE + 6000)
    e = t.entry(t.lookup(0xA0))
    assert (e.stride, e.confidence) == (STRIDE_LIMIT, 1)

    t2 = PrefetchTable()
    t2.observe_load(None, 0x4010B0, PAGE + 8000)
    t2.observe_load(None, 0x4010B0, PAGE + 8000 - 3000)
    assert t2.entry(t2.lookup(0xB0)).stride == -STRIDE_LIMIT


def test_negative_stride_triggers_within_frame():
    t = PrefetchTable()
    assert train(t, 0x4010A0, PAGE + 3 * 448, -448, 3) == [PAGE]


def test_backward_page_cross_target_is_dropped():
    t = PrefetchTable()
    train(t, 0x4010A0, PAGE + 3 * 448, -448, 3)  # descending, confidence 2
    # next load sits at the frame base; its target would land one frame back
    assert t.observe_load(None, 0x4010A0, PAGE) is None
    e = t.entry(t.lookup(0xA0))
    assert (e.stride, e.confidence) == (-448, 3)  # update still happened


def test_forward_target_may_enter_next_frame():
    t = PrefetchTable()
    base = PAGE + 2800
    targets = train(t, 0x4010A0, base, 448, 3)
    target = base + 3 * 448  # 2800 + 1344 = 4144, one frame up
    assert targets == [target]
    assert page_frame(target) == page_frame(PAGE) + 1


@given(paddr=st.integers(2 * STRIDE_LIMIT, 1 << 52),
       stride=st.integers(-STRIDE_LIMIT, STRIDE_LIMIT))
@example(paddr=PAGE + PAGE_BYTES - 1, stride=STRIDE_LIMIT)
@example(paddr=PAGE, stride=-STRIDE_LIMIT)
@example(paddr=PAGE + STRIDE_LIMIT, stride=-STRIDE_LIMIT)
def test_a_trained_stride_targets_at_most_one_frame_away(paddr, stride):
    # any stride the field holds reaches the load's frame or one either
    # side, never two away; the gate emits the load's frame and the
    # next one and drops the one below
    t = PrefetchTable()
    emitted = train(t, 0x4010A0, paddr - 2 * stride, stride, 3)
    target = paddr + stride
    step = page_frame(target) - page_frame(paddr)
    assert step in (-1, 0, 1)
    assert emitted == ([] if step < 0 else [target])


def test_a_prefetch_of_address_zero_is_a_prefetch():
    # stride -448 down frame 0 trains to a target of physical address 0,
    # which reads false: every route must report it as a prefetch
    addrs = [1344, 896, 448]
    t = PrefetchTable()
    assert [t.observe_load(None, 0x4010A0, a) for a in addrs] == \
        [None, None, 0]

    table = PrefetchTable()
    t_out = run_table_batch([0xA0] * 3, addrs, table.tags, table.last,
                            table.stride, table.conf, table.mru, table.owner)
    r_out = ReferenceModel().replay([0xA0] * 3, addrs)
    assert t_out[0] == r_out[0] == [None, None, 0]
    assert t_out == r_out

    m = Machine()
    for a in addrs:
        m.load(0x4010A0, a)
    assert m.prefetch_requests == 1
    assert m.cache.access(0) < m.cache.config.threshold


def test_new_frame_with_cold_tlb_needs_two_accesses():
    t = PrefetchTable()
    tlb = Tlb()
    train(t, 0x4010A0, PAGE, 448, 3, tlb=tlb)  # warm frame, confidence 2
    before = t.entry(t.lookup(0xA0))
    nxt = PAGE + PAGE_BYTES + 128
    assert page_frame(nxt) not in tlb.lru
    # first touch of the frame only performs the walk
    assert t.observe_load(tlb, 0x4010A0, nxt) is None
    assert t.entry(t.lookup(0xA0)) == before
    assert page_frame(nxt) in tlb.lru
    # the repeat runs the normal update and fires
    assert t.observe_load(tlb, 0x4010A0, nxt) == nxt + 448


def test_same_frame_loads_ignore_tlb_misses():
    t = PrefetchTable()
    tlb = Tlb()
    train(t, 0x4010A0, PAGE, 448, 3, tlb=tlb)
    tlb.lru.clear()
    # translation misses but the load stays on the entry's frame
    assert t.observe_load(tlb, 0x4010A0, PAGE + 3 * 448) == PAGE + 4 * 448


def test_cold_tlb_still_creates_fresh_entries():
    t = PrefetchTable()
    tlb = Tlb()
    assert t.observe_load(tlb, 0x4010A0, PAGE) is None
    assert t.lookup(0xA0) is not None


class StampScanTlb:
    """Reference LRU TLB: fixed slots, each with a frame and a timestamp.

    A stamp of 0 marks an empty slot.  Every access advances the clock;
    a hit restamps its slot, a miss fills the first empty slot or else
    the slot with the oldest stamp.
    """

    def __init__(self, capacity):
        self.frames = [0] * capacity
        self.stamp = [0] * capacity
        self.clock = 0

    def access(self, frame):
        self.clock += 1
        for i in range(len(self.frames)):
            if self.stamp[i] != 0 and self.frames[i] == frame:
                self.stamp[i] = self.clock
                return True
        victim = 0
        for i in range(len(self.frames)):
            if self.stamp[i] == 0:
                victim = i
                break
            if self.stamp[i] < self.stamp[victim]:
                victim = i
        self.frames[victim] = frame
        self.stamp[victim] = self.clock
        return False

    def contains(self, frame):
        return any(self.stamp[i] != 0 and self.frames[i] == frame
                   for i in range(len(self.frames)))

    def by_recency(self):
        """Cached frames, least recently used first."""
        slots = sorted((s, f) for f, s in zip(self.frames, self.stamp) if s)
        return [f for _, f in slots]

    def clear(self):
        self.stamp = [0] * len(self.stamp)
        self.clock = 0


@st.composite
def tlb_runs(draw):
    capacity = draw(st.integers(1, 70))
    frames = st.integers(0, capacity + capacity // 4 + 2)
    kinds = st.sampled_from(["access"] * 6 + ["in"] * 3 + ["clear"])
    ops = draw(st.lists(st.tuples(kinds, frames), max_size=4 * capacity + 40))
    return capacity, ops


@settings(max_examples=150, deadline=None)
@given(tlb_runs())
def test_tlb_matches_stamp_scan_lru(run):
    capacity, ops = run
    tlb, ref = Tlb(capacity), StampScanTlb(capacity)
    for kind, frame in ops:
        if kind == "access":
            assert tlb.access(frame) == ref.access(frame)
        elif kind == "in":
            assert (frame in tlb.lru) == ref.contains(frame)
        else:
            tlb.lru.clear()
            ref.clear()
        assert list(tlb.lru) == ref.by_recency()


def test_reset_cost_scales_with_write_ports():
    t = PrefetchTable()
    train(t, 0x4010A0, PAGE, 448, 4)
    assert t.reset(write_ports=1) == 24
    assert len(t.owner) == 0
    assert t.reset(write_ports=2) == 12
    assert t.reset(write_ports=5) == 5
    assert t.reset(write_ports=24) == 1
    with pytest.raises(ValueError):
        t.reset(write_ports=0)


def test_replay_determinism():
    def feed(table, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            ip = rng.randrange(1 << 20)
            addr = PAGE + rng.randrange(1 << 22)
            table.observe_load(None, ip, addr)
        return vars(table)

    a, b = PrefetchTable(), PrefetchTable()
    assert feed(a, 7) == feed(b, 7)
    assert feed(PrefetchTable(), 8) != feed(PrefetchTable(), 9)


def test_random_hammer_invariants():
    rng = random.Random(1234)
    t = PrefetchTable()
    for step in range(20000):
        if step and step % 2000 == 0:
            t.reset()
        tag = rng.randrange(256)
        addr = (1 << 21) + rng.randrange(1 << 24)
        filled = len(t.owner)
        if t.lookup(tag) is not None:
            predicted = None
        elif filled == t.SLOTS:
            # Bit-PLRU: the lowest slot whose recency bit is clear
            predicted = t.mru.index(False)
        else:
            # slots fill in order from 0, so the occupied ones are a prefix
            predicted = filled
        target = t.observe_load(None, 0x400000 | tag, addr)
        if predicted is not None:
            # the create path must allocate the slot the rule names
            assert t.tags[predicted] == tag
            assert t.lookup(tag) == predicted
        if target is not None:
            assert page_frame(target) - page_frame(addr) in (0, 1)
        filled = len(t.owner)
        assert filled <= t.SLOTS
        # check the fill boundary and the loaded slot every step, and all
        # slots every 100 steps; 24 entries a step makes the test 4x slower
        slots = range(t.SLOTS) if step % 100 == 0 else \
            {max(filled - 1, 0), min(filled, t.SLOTS - 1), t.lookup(tag)}
        for s in slots:
            assert t.entry(s).valid == (s < filled)
        assert t.lookup(tag) == t.owner.get(tag)
        assert all(0 <= c <= 3 for c in t.conf)
        assert all(abs(s) <= STRIDE_LIMIT for s in t.stride)
    assert len(t.owner) == t.SLOTS


def _state_hash(table):
    """sha256 over the slot fields: little-endian int64s, then one byte
    per valid flag and one per recency bit."""
    h = hashlib.sha256()
    for values in (table.tags, table.last, table.stride, table.conf):
        h.update(struct.pack(f"<{table.SLOTS}q", *values))
    h.update(bytes(s < len(table.owner) for s in range(table.SLOTS)))
    h.update(bytes(table.mru))
    return h.hexdigest()


def test_state_hash_pinned_across_eviction_and_tlb_gate():
    # 40 tags contend for 24 slots, so PLRU evicts; a 16-frame TLB over
    # 64 frames misses on many page changes, so the gate drops loads.
    # The digest fixes the bytes state_hash covers: int64 and bool slots.
    rng = random.Random(2109)
    table, tlb = PrefetchTable(), Tlb(capacity=16)
    evictions = gated = triggers = 0
    for _ in range(400):
        tag = rng.randrange(40)
        stride = rng.choice((64, 448, -320, 1984, 3000))
        base = PAGE + rng.randrange(64) * PAGE_BYTES + rng.randrange(PAGE_BYTES)
        for i in range(rng.randrange(1, 7)):
            addr = base + i * stride
            slot = table.lookup(tag)
            if slot is None:
                evictions += len(table.owner) == table.SLOTS
            elif (page_frame(addr) not in tlb.lru
                  and page_frame(addr) != page_frame(table.last[slot])):
                gated += 1
            target = table.observe_load(tlb, 0x400000 | tag, addr)
            triggers += target is not None
    assert evictions and gated and triggers
    assert _state_hash(table) == \
        "0ab101e93ccfcfd8efe9e7740ad8f8ef7be23e5c5a1cf799abc62cfd34268ab9"
