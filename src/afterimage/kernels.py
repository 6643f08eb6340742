"""State-machine kernels for the prefetcher table and TLB.

These functions hold the single authoritative implementation of the
table's update rules.  Table state lives in plain Python lists.  One
step answers one load with one value: the page-gated prefetch target
it fires, or None.  A target may be address 0, so callers test it with
``is None``, never for truth.

Table state lists (one element per slot):
    tags    int     low-8-bit IP tag of the owning load instruction
    last    int     physical byte address of the owner's previous load
    stride  int     signed byte stride, saturated to +/-STRIDE_LIMIT
    conf    int     2-bit confidence counter
    mru     bool    Bit-PLRU recency bit

Beside them, ``owner`` is a dict from the tag of every occupied slot to
that slot, so a load finds its entry with one hash probe.  Slots fill
from 0 and only a reset empties them, so slot ``s`` is occupied exactly
when ``s < len(owner)``.

TLB state: an ``OrderedDict`` whose keys are the cached physical page
frames, least recently used first, and a capacity; ``table_step`` reads
both from the ``uarch.Tlb`` it is given.  A hit moves its frame to the
end; a miss into a full map evicts the first key.
"""

TABLE_SLOTS = 24
CONF_MAX = 3
CONF_TRIGGER = 2
STRIDE_LIMIT = 2047  # 13-bit signed field: sign plus magnitude

PAGE_SHIFT = 12
LINE_SHIFT = 6


def plru_touch(mru, slot):
    """Set a clear slot's recency bit; clear all others first if that
    would fill the set.  The caller only touches a slot whose bit is
    clear: a hit skips the call when the bit is set, and an allocation
    takes an empty slot or ``mru.index(False)``."""
    if mru.count(True) == len(mru) - 1:
        mru[:] = [False] * len(mru)
    mru[slot] = True


def tlb_access(lru, capacity, frame):
    """Hit test with install-on-miss, evicting the LRU frame when full."""
    if frame in lru:
        lru.move_to_end(frame)
        return True
    if len(lru) >= capacity:
        lru.popitem(last=False)
    lru[frame] = None
    return False


def table_step(tag, paddr, tags, last, stride, conf, mru, owner, tlb):
    """Feed one demand load to the table; returns its prefetch target,
    or None when it fires none.

    ``tlb`` is the ``uarch.Tlb``, or None when translation is off.  A
    load whose page translation misses while it sits on a different
    frame than the entry's previous address leaves the entry untouched:
    the walk consumes the access and only a repeat on the now-warm
    frame can trigger.  Targets are confined to the load's own frame or
    the next one up; anything else is dropped after the entry update.
    Every step leaves ``owner[tag]`` naming the touched slot.
    """
    slot = owner.get(tag, -1)

    tlb_hit = True
    if tlb is not None:
        tlb_hit = tlb_access(tlb.lru, tlb.capacity, paddr >> PAGE_SHIFT)

    if slot < 0:
        slot = len(owner)
        if slot == len(tags):
            slot = mru.index(False)  # lowest clear bit; touch keeps one
            del owner[tags[slot]]
        owner[tag] = slot
        tags[slot] = tag
        last[slot] = paddr
        stride[slot] = 0
        conf[slot] = 0
        plru_touch(mru, slot)
        return None

    prev = last[slot]
    if not tlb_hit and (paddr >> PAGE_SHIFT) != (prev >> PAGE_SHIFT):
        return None
    last[slot] = paddr
    if not mru[slot]:
        plru_touch(mru, slot)

    d = paddr - prev
    old = stride[slot]
    c = conf[slot]
    if d != old:
        # retrain; an already confident entry still triggers on the old stride
        stride[slot] = (d if -STRIDE_LIMIT <= d <= STRIDE_LIMIT
                        else STRIDE_LIMIT if d > 0 else -STRIDE_LIMIT)
        conf[slot] = 1
        if c < CONF_TRIGGER:
            return None
    elif c < CONF_MAX:
        conf[slot] = c + 1
        if c + 1 < CONF_TRIGGER:
            return None

    target = paddr + old
    # the stored stride saturates at +/-STRIDE_LIMIT, under a page, so
    # the target is at most one frame from the load's: of the three
    # frames it can reach, only the one below is dropped
    if (target >> PAGE_SHIFT) >= (paddr >> PAGE_SHIFT):
        return target
    return None


def run_table_batch(in_tags, in_addrs, tags, last, stride, conf, mru, owner):
    """Replay a load trace with translation off; returns lists (target,
    last, stride, conf): each step's prefetch target or None, and the
    touched entry's state after it."""
    targets, lasts, strides, confs = [], [], [], []
    for tag, paddr in zip(in_tags, in_addrs):
        targets.append(table_step(
            tag, paddr, tags, last, stride, conf, mru, owner, None))
        slot = owner[tag]
        lasts.append(last[slot])
        strides.append(stride[slot])
        confs.append(conf[slot])
    return targets, lasts, strides, confs
