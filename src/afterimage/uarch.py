"""IP-stride prefetcher model.

The modeled unit is a 24-entry fully associative history table indexed by
the low 8 bits of the load instruction pointer.  There is no further IP
tag, so instructions whose addresses agree in those bits share an entry.
Each entry tracks the owner's last physical address, a 13-bit signed byte
stride and a 2-bit confidence counter; replacement is Bit-PLRU.  Once
confidence reaches 2 every subsequent load through the entry triggers a
prefetch of current address + stride, even while the entry is being
retrained on a different stride.

Page behaviour: a load whose translation misses the TLB while sitting on
a different page frame than the entry's last address only warms the TLB;
the entry is neither updated nor triggered.  Prefetch targets are
restricted to the load's own frame or the immediately following one.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import NamedTuple

from . import kernels
from .kernels import TABLE_SLOTS

LINE_SHIFT = kernels.LINE_SHIFT
PAGE_SHIFT = kernels.PAGE_SHIFT
LINE_BYTES = 1 << LINE_SHIFT
PAGE_BYTES = 1 << PAGE_SHIFT
PAGE_LINES = PAGE_BYTES // LINE_BYTES

Address = int


def page_frame(addr: Address) -> int:
    return addr >> PAGE_SHIFT


def ip_tag(full_ip: Address) -> int:
    """Table index of a load instruction: low 8 bits of its IP."""
    return full_ip & 0xFF


class PrefetcherEntry(NamedTuple):
    """Read-only snapshot of one table slot."""
    ip_tag: int
    last_addr: Address
    stride: int
    confidence: int
    valid: bool
    mru_bit: bool


class Tlb:
    """LRU set of recently translated physical page frames."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("tlb capacity must be at least 1")
        self.capacity = capacity
        self.lru: OrderedDict[int, None] = OrderedDict()  # oldest first

    def access(self, frame: int) -> bool:
        """Translate a frame: hit test plus install-on-miss."""
        return kernels.tlb_access(self.lru, self.capacity, frame)


class PrefetchTable:
    """The 24-entry stride history table."""

    SLOTS = TABLE_SLOTS

    def __init__(self):
        self.tags = [0] * self.SLOTS
        self.last = [0] * self.SLOTS
        self.stride = [0] * self.SLOTS
        self.conf = [0] * self.SLOTS
        self.mru = [False] * self.SLOTS
        self.owner = {}  # tag -> slot of every occupied entry

    # -- queries ---------------------------------------------------------

    def lookup(self, tag: int) -> int | None:
        """Slot index owning the tag, or None.  Pure query, no state change."""
        return self.owner.get(tag)

    def entry(self, slot: int) -> PrefetcherEntry:
        return PrefetcherEntry(
            ip_tag=self.tags[slot],
            last_addr=self.last[slot],
            stride=self.stride[slot],
            confidence=self.conf[slot],
            valid=slot < len(self.owner),
            mru_bit=self.mru[slot],
        )

    # -- updates ---------------------------------------------------------

    def observe_load(self, tlb: Tlb | None, full_ip: Address,
                     paddr: Address) -> Address | None:
        """Feed one demand load; returns its prefetch target or None."""
        if tlb is None:
            lru = capacity = None
        else:
            lru, capacity = tlb.lru, tlb.capacity
        emitted, target, _slot = kernels.table_step(
            ip_tag(full_ip), paddr, self.tags, self.last, self.stride,
            self.conf, self.mru, self.owner, lru, capacity)
        return target if emitted else None

    @classmethod
    def reset_cost(cls, write_ports: int) -> int:
        """Cycles a reset occupies: each cycle wipes one slot per port."""
        if write_ports < 1:
            raise ValueError("write_ports must be >= 1")
        return math.ceil(cls.SLOTS / write_ports)

    def reset(self, write_ports: int = 1) -> int:
        """Invalidate every entry; returns the cycles the wipe occupies."""
        cycles = self.reset_cost(write_ports)
        self.tags[:] = [0] * self.SLOTS
        self.last[:] = [0] * self.SLOTS
        self.stride[:] = [0] * self.SLOTS
        self.conf[:] = [0] * self.SLOTS
        self.mru[:] = [False] * self.SLOTS
        self.owner.clear()
        return cycles
