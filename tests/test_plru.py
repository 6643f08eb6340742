"""Bit-PLRU replacement behaviour of the stride table."""

from afterimage.uarch import PrefetchTable

PAGE = 0x900000


def fill_table(table, n=24):
    """Create n entries with distinct tags, each on its own page frame."""
    for k in range(n):
        table.observe_load(None, 0x400000 | k, PAGE + k * 0x1000)


def test_touch_sets_single_bit():
    t = PrefetchTable()
    t.observe_load(None, 0x400000, PAGE)
    assert list(t.mru) == [True] + [False] * 23


def test_touch_clears_others_when_set_would_fill():
    t = PrefetchTable()
    fill_table(t)
    # inserting 24 entries touches slots 0..23 in order; the last touch
    # would set every bit, so all others were cleared first
    assert list(t.mru) == [False] * 23 + [True]


def test_victim_after_full_touch_cycle_is_slot_zero():
    t = PrefetchTable()
    fill_table(t)
    # hand-run: bits reset at the 24th touch, leaving only slot 23 set,
    # so the lowest clear slot is 0 and the 25th tag lands there
    t.observe_load(None, 0x400000 | 24, PAGE + 24 * 0x1000)
    assert t.lookup(24) == 0
    assert t.lookup(0) is None


def test_retouched_slots_survive_a_burst_of_inserts():
    t = PrefetchTable()
    fill_table(t)
    # refresh the first 8 entries (original insertion positions 1..8)
    for k in range(8):
        t.observe_load(None, 0x400000 | k, PAGE + k * 0x1000 + 64)
    # 8 fresh tags must displace insertion positions 9..16, i.e. slots 8..15
    for j in range(8):
        t.observe_load(None, 0x500000 | (0x40 + j), PAGE + (40 + j) * 0x1000)
    evicted = [k for k in range(24) if t.lookup(k) is None]
    assert evicted == list(range(8, 16))
    assert [t.lookup(0x40 + j) for j in range(8)] == list(range(8, 16))


def test_untouched_table_evicts_in_slot_order():
    t = PrefetchTable()
    fill_table(t)
    for j in range(8):
        t.observe_load(None, 0x500000 | (0x40 + j), PAGE + (40 + j) * 0x1000)
    evicted = [k for k in range(24) if t.lookup(k) is None]
    assert evicted == list(range(0, 8))
