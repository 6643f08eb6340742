"""Straight-line victim/attacker programs and their execution.

A program is a flat list of ``Load`` steps.  ``Machine.run_program``
runs placed loads, ``(ip, paddr, key)`` triples as ``Machine.load``
takes them.  ``Machine.place`` translates a program in a domain and
places each load's line once, so a program that runs every round is
placed once; a key of None leaves the placement to the access.  The
Machine owns the prefetcher table, the TLB and the cache and keeps a
cycle clock fed by load latencies.  It keeps no log: a run returns the
physical addresses of the demand loads it made, and everything else is
read from the state it leaves.  Every demand load in the simulator,
whether a program step, a bench load, a status probe or a replayed
trace, goes through ``Machine.load``.  ``Machine.flush`` flushes a run
of placed lines within one frame, with one TLB access for the frame and
one cache flush.  Domains give each simulated protection context its
own page mapping; translation is identity-plus-offset with explicit
per-frame overrides so that shared memory can alias one physical page
from several domains.

Prefetcher and cache state persist across domain switches unless a flush
is armed: ``flush_on_switch`` wipes the table at every switch, and a
``flush_period`` wipes it whenever the clock crosses a period boundary.
"""

from __future__ import annotations

import warnings
from typing import Iterator, NamedTuple

from .cache import CacheConfig, CacheModel
from .kernels import STRIDE_LIMIT
from .uarch import (
    LINE_BYTES,
    LINE_SHIFT,
    PAGE_BYTES,
    PrefetchTable,
    Tlb,
    page_frame,
)


def ip_with_tag(code_base: int, tag: int) -> int:
    return (code_base & ~0xFF) | (tag & 0xFF)


class Load(NamedTuple):
    ip: int
    vaddr: int


#: A load ready to run, as ``Machine.load`` takes it: its ip, physical
#: address and cache key (``CacheModel.location``'s int), or None for a
#: key the access finds itself.
Placed = tuple[int, int, int | None]


class Domain:
    """Protection context with its own virtual-to-physical mapping."""

    def __init__(self, name: str, phys_offset: int = 0):
        if phys_offset % PAGE_BYTES:
            raise ValueError("phys_offset must be page aligned")
        self.name = name
        self.phys_offset = phys_offset
        self.frame_map: dict[int, int] = {}

    def map_shared(self, vaddr: int, paddr: int) -> None:
        """Alias the page at vaddr onto the physical page at paddr."""
        if vaddr % PAGE_BYTES or paddr % PAGE_BYTES:
            raise ValueError("shared regions must be page aligned")
        self.frame_map[page_frame(vaddr)] = page_frame(paddr)

    def translate(self, vaddr: int) -> int:
        frame = page_frame(vaddr)
        if frame in self.frame_map:
            return (self.frame_map[frame] * PAGE_BYTES) | (vaddr & (PAGE_BYTES - 1))
        return vaddr + self.phys_offset


class Machine:
    """Runs placed programs against one table/TLB/cache triple.

    The cache is built from ``cache_config`` (None for the default
    geometry).  ``flush_on_switch`` clears the table whenever a program
    runs in a different domain than the last one; ``flush_period`` arms
    the periodic flush clock.  Both charge the reset's cycles to the
    clock.
    """

    def __init__(self, cache_config: CacheConfig | None = None,
                 flush_on_switch: bool = False,
                 flush_period: int | None = None,
                 write_ports: int = 1):
        reset_cost = PrefetchTable.reset_cost(write_ports)
        if flush_period is not None and not flush_period > reset_cost:
            # the clock would owe a reset again as soon as one ended
            raise ValueError(
                f"flush period {flush_period} does not exceed the "
                f"{reset_cost}-cycle table reset itself")
        self.table = PrefetchTable()
        self.tlb = Tlb()
        self.cache = CacheModel(cache_config)
        self.flush_on_switch = flush_on_switch
        self.flush_period = flush_period
        self.write_ports = write_ports
        self.clock = 0
        self.current_domain: str | None = None
        self.flush_count = 0
        self.reset_cycles = 0
        self.prefetch_requests = 0
        self._next_flush = flush_period

    # -- the load path ---------------------------------------------------

    def load(self, ip: int, paddr: int,
             key: int | None = None) -> int:
        """Run one demand load and return its latency.

        This is the one load path: the periodic flush clock, the table,
        the cache access, then the prefetch install if the table asked
        for one.  The caller decides what the latency costs on the clock.
        A caller that has placed ``paddr`` already, with
        ``CacheModel.location`` on a cache of the same geometry, passes
        that key: the access does not place it again, and a prefetch
        target in its page is placed from it.
        """
        if self._next_flush is not None and self.clock >= self._next_flush:
            # each reset owed back to back ends (period - cost) cycles
            # nearer its next deadline: count them instead of looping
            gain = self.flush_period - self.table.reset_cost(self.write_ports)
            owed = (self.clock - self._next_flush) // gain + 1
            self._reset_table(owed)
            self._next_flush += owed * self.flush_period
        target = self.table.observe_load(self.tlb, ip, paddr)
        li = paddr >> LINE_SHIFT
        latency = (self.cache.access(paddr) if key is None
                   else self.cache.access_line(key, li))
        if target is not None:
            self.cache.install_prefetch(target, key, li)
            self.prefetch_requests += 1
        return latency

    def flush(self, paddr: int, keys: list[int]) -> None:
        """Flush the ``len(keys)`` consecutive lines from ``paddr``'s line
        on, all in its frame and placed at ``keys``, as
        ``CacheModel.flush_lines`` takes them; flushing needs the
        frame's translation, so it warms the TLB once."""
        self.cache.flush_lines(paddr, keys)
        self.tlb.access(page_frame(paddr))

    def _reset_table(self, times: int = 1) -> None:
        """Reset the table ``times`` times in a row: one wipe does, but
        each reset is counted and charged."""
        cycles = self.table.reset(self.write_ports) * times
        self.clock += cycles
        self.flush_count += times
        self.reset_cycles += cycles

    # -- execution -------------------------------------------------------

    def place(self, domain: Domain, loads: list[Load]) -> list[Placed]:
        """Translate each load in ``domain`` and place it in the cache,
        ready for ``run_program`` in that domain.  This pays off for a
        program that runs many times; a load that runs once can carry a
        None key instead and be placed by its access."""
        location = self.cache.location
        placed = []
        for step in loads:
            paddr = domain.translate(step.vaddr)
            placed.append((step.ip, paddr, location(paddr)))
        return placed

    def run_program(self, domain: Domain, placed: list[Placed]) -> list[int]:
        """Run placed loads in a domain and return their physical
        addresses, in order.  Entering a new domain flushes the table
        first when ``flush_on_switch`` is set, even for an empty list."""
        if (self.flush_on_switch and self.current_domain is not None
                and domain.name != self.current_domain):
            self._reset_table()
        self.current_domain = domain.name
        load = self.load
        loads: list[int] = []
        for ip, paddr, key in placed:
            self.clock += load(ip, paddr, key)
            loads.append(paddr)
        return loads


# -- program builders ----------------------------------------------------


def stride_bytes(stride_lines: int) -> int:
    sb = stride_lines * LINE_BYTES
    if abs(sb) > STRIDE_LIMIT:
        raise ValueError(f"stride {stride_lines} lines exceeds the 13-bit field")
    return sb


def build_gadget(if_tag: int, else_tag: int, stride_if: int,
                 stride_else: int) -> list[Load]:
    """Training gadget: two load IPs walking distinct strides (in lines).

    The if IP (code page 0x400000) walks from 0x10000 and the else IP
    (code page 0x401000) from 0x12000, three loads each, interleaved.
    """
    iterations, code_base = 3, 0x400000
    array_if, array_else = 0x10000, 0x12000
    if if_tag == else_tag:
        raise ValueError("if/else tags must differ")
    sb_if = stride_bytes(stride_if)
    sb_else = stride_bytes(stride_else)
    if stride_if == stride_else:
        warnings.warn("equal strides leave the two paths indistinguishable",
                      stacklevel=2)
    ip_if = ip_with_tag(code_base, if_tag)
    ip_else = ip_with_tag(code_base + 0x1000, else_tag)
    steps: list[Load] = []
    for i in range(iterations):
        steps.append(Load(ip_if, array_if + i * sb_if))
        steps.append(Load(ip_else, array_else + i * sb_else))
    return steps


def ip_matching_groups(stride_lines: int) -> Iterator[list[Load]]:
    """Training programs whose tags jointly cover the whole 8-bit space.

    There are 20 groups, and group g holds 24 members with distinct
    low-byte tags, each walking its own page frame with three loads at
    the given stride; the 480 members cover all 256 tags.  Each
    member's loads run back to back: when a full table forces every allocation
    to evict, a member that reaches trigger confidence inside its own
    block keeps it even if a later sibling's allocation recycles the
    slot of an earlier one.  Interleaving single loads instead would
    let those evictions land between a member's accesses and no entry
    would ever finish training.

    The stride is checked at the call; the groups are then built one at
    a time, in order, as the caller iterates, so a search that stops
    early never builds the rest.
    """
    sb = stride_bytes(stride_lines)
    return (_matching_group(g, sb) for g in range(20))


def _matching_group(g: int, sb: int) -> list[Load]:
    """Group g of ``ip_matching_groups``, with its stride in bytes."""
    group_size, iterations = 24, 3
    code_base, data_base = 0x400000, 0x40000000
    steps: list[Load] = []
    for j in range(group_size):
        ip = ip_with_tag(code_base + g * 0x10000, (g * group_size + j) % 256)
        page = data_base + (g * group_size + j) * PAGE_BYTES
        steps.extend(Load(ip, page + i * sb) for i in range(iterations))
    return steps

