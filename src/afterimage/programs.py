"""Straight-line victim/attacker programs and their execution.

A program is a flat list of steps (loads, flushes and secret-dependent
branches) run by a Machine that owns the prefetcher table, the TLB and
the cache and keeps a cycle clock fed by load latencies.  The Machine
keeps no log: a run returns the physical addresses of the demand loads
it made, and everything else is read from the state it leaves.  Every
demand load in the simulator, whether a program step, a bench load, a
status probe or a replayed trace, goes through ``Machine.load``.
Domains give each simulated protection context its own page mapping;
translation is identity-plus-offset with explicit per-frame overrides
so that shared memory can alias one physical page from several domains.

Prefetcher and cache state persist across domain switches unless a flush
is armed: ``flush_on_switch`` wipes the table at every switch, and a
``flush_period`` wipes it whenever the clock crosses a period boundary.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Callable, Union

from .cache import CacheConfig, CacheModel
from .kernels import STRIDE_LIMIT
from .uarch import (
    LINE_BYTES,
    PAGE_BYTES,
    PrefetchTable,
    Tlb,
    page_frame,
)

KERNEL_CODE_BASE = 0x7FFF00F000  # fixed: kernel text is not randomized here

AddrExpr = Union[int, Callable[[random.Random], int]]


def ip_with_tag(code_base: int, tag: int) -> int:
    return (code_base & ~0xFF) | (tag & 0xFF)


@dataclass(frozen=True)
class Load:
    ip: int
    vaddr: AddrExpr


@dataclass(frozen=True)
class FlushLines:
    vaddr: int
    n_lines: int = 1


@dataclass(frozen=True)
class Branch:
    source: "SecretSource"
    taken: tuple = ()
    not_taken: tuple = ()


Step = Union[Load, FlushLines, Branch]


class SecretSource:
    """Ground-truth bit stream, seeded or user-supplied, with history."""

    def __init__(self, seed: int | None = None, bits: list[int] | None = None):
        if bits is None and seed is None:
            raise ValueError("need a seed or an explicit bit list")
        self._bits = list(bits) if bits is not None else None
        self._pos = 0
        self._rng = random.Random(seed) if bits is None else None
        self.history: list[int] = []

    def next_bit(self) -> int:
        if self._bits is not None:
            bit = self._bits[self._pos % len(self._bits)]
            self._pos += 1
        else:
            bit = self._rng.randrange(2)
        self.history.append(bit)
        return bit


class Domain:
    """Protection context with its own virtual-to-physical mapping."""

    def __init__(self, name: str, phys_offset: int = 0,
                 frame_map: dict[int, int] | None = None):
        if phys_offset % PAGE_BYTES:
            raise ValueError("phys_offset must be page aligned")
        self.name = name
        self.phys_offset = phys_offset
        self.frame_map = dict(frame_map or {})

    def map_shared(self, vaddr: int, paddr: int, n_pages: int = 1) -> None:
        """Alias n pages at vaddr onto the physical pages at paddr."""
        if vaddr % PAGE_BYTES or paddr % PAGE_BYTES:
            raise ValueError("shared regions must be page aligned")
        for i in range(n_pages):
            self.frame_map[page_frame(vaddr) + i] = page_frame(paddr) + i

    def translate(self, vaddr: int) -> int:
        frame = page_frame(vaddr)
        if frame in self.frame_map:
            return (self.frame_map[frame] * PAGE_BYTES) | (vaddr & (PAGE_BYTES - 1))
        return vaddr + self.phys_offset


class Machine:
    """Runs step lists against one table/TLB/cache triple.

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

    def load(self, ip: int, paddr: int) -> int:
        """Run one demand load and return its latency.

        This is the one load path: the periodic flush clock, the table,
        the cache access, then the prefetch install if the table asked
        for one.  The caller decides what the latency costs on the clock.
        """
        if self._next_flush is not None and self.clock >= self._next_flush:
            # each reset owed back to back ends (period - cost) cycles
            # nearer its next deadline: count them instead of looping
            gain = self.flush_period - self.table.reset_cost(self.write_ports)
            owed = (self.clock - self._next_flush) // gain + 1
            self._reset_table(owed)
            self._next_flush += owed * self.flush_period
        target = self.table.observe_load(self.tlb, ip, paddr)
        latency = self.cache.access(paddr)
        if target is not None:
            self.cache.install_prefetch(target)
            self.prefetch_requests += 1
        return latency

    def flush(self, paddr: int) -> None:
        """Flush one line; flushing needs the translation, so it warms
        the TLB."""
        self.tlb.access(page_frame(paddr))
        self.cache.flush_line(paddr)

    def _reset_table(self, times: int = 1) -> None:
        """Reset the table ``times`` times in a row: one wipe does, but
        each reset is counted and charged."""
        cycles = self.table.reset(self.write_ports) * times
        self.clock += cycles
        self.flush_count += times
        self.reset_cycles += cycles

    # -- execution -------------------------------------------------------

    def run_program(self, domain: Domain, steps: list[Step],
                    rng: random.Random | None = None) -> list[int]:
        """Run a step list in a domain and return the physical addresses
        of its demand loads, in order.  Entering a new domain flushes
        the table first when ``flush_on_switch`` is set."""
        rng = rng or random.Random(0)
        if (self.flush_on_switch and self.current_domain is not None
                and domain.name != self.current_domain):
            self._reset_table()
        self.current_domain = domain.name
        loads: list[int] = []
        self._run_steps(domain, steps, rng, loads)
        return loads

    def _run_steps(self, domain: Domain, steps, rng: random.Random,
                   loads: list[int]) -> None:
        for step in steps:
            if isinstance(step, Load):
                vaddr = step.vaddr(rng) if callable(step.vaddr) else step.vaddr
                paddr = domain.translate(vaddr)
                self.clock += self.load(step.ip, paddr)
                loads.append(paddr)
            elif isinstance(step, FlushLines):
                for i in range(step.n_lines):
                    self.flush(domain.translate(step.vaddr + i * LINE_BYTES))
            elif isinstance(step, Branch):
                arm = step.taken if step.source.next_bit() else step.not_taken
                self._run_steps(domain, arm, rng, loads)
            else:
                raise TypeError(f"unknown step {step!r}")


# -- program builders ----------------------------------------------------


def _stride_bytes(stride_lines: int) -> int:
    sb = stride_lines * LINE_BYTES
    if abs(sb) > STRIDE_LIMIT:
        raise ValueError(f"stride {stride_lines} lines exceeds the 13-bit field")
    return sb


def build_gadget(if_tag: int, else_tag: int, stride_if: int, stride_else: int,
                 iterations: int = 3, code_base: int = 0x400000,
                 array_if: int = 0x10000, array_else: int = 0x12000) -> list[Step]:
    """Training gadget: two load IPs walking distinct strides (in lines)."""
    if if_tag == else_tag:
        raise ValueError("if/else tags must differ")
    sb_if = _stride_bytes(stride_if)
    sb_else = _stride_bytes(stride_else)
    if stride_if == stride_else:
        warnings.warn("equal strides leave the two paths indistinguishable",
                      stacklevel=2)
    ip_if = ip_with_tag(code_base, if_tag)
    ip_else = ip_with_tag(code_base + 0x1000, else_tag)
    steps: list[Step] = []
    for i in range(iterations):
        steps.append(Load(ip_if, array_if + i * sb_if))
        steps.append(Load(ip_else, array_else + i * sb_else))
    return steps


def line_picker(array_base: int, array_lines: int):
    """Uniformly random line inside the victim's array."""
    def pick(rng: random.Random) -> int:
        return array_base + rng.randrange(array_lines) * LINE_BYTES
    return pick


def build_victim(source: SecretSource, if_tag: int, else_tag: int,
                 array_base: int, array_lines: int = 48) -> list[Step]:
    """Secret-dependent branch; each arm loads one arbitrary array line."""
    if array_lines < 1 or array_lines > PAGE_BYTES // LINE_BYTES:
        raise ValueError("array must fit one page")
    code_base = 0x700000
    branch = Branch(
        source,
        taken=(Load(ip_with_tag(code_base, if_tag),
                    line_picker(array_base, array_lines)),),
        not_taken=(Load(ip_with_tag(code_base + 0x1000, else_tag),
                        line_picker(array_base, array_lines)),),
    )
    return [branch]


def build_kernel_syscall(source: SecretSource, tag: int,
                         shared_vaddr: int) -> list[Step]:
    """Syscall body: when the secret bit is set, one load into shared memory."""
    array_lines = 48
    branch = Branch(
        source,
        taken=(Load(ip_with_tag(KERNEL_CODE_BASE, tag),
                    line_picker(shared_vaddr, array_lines)),),
        not_taken=(),
    )
    return [branch]


def ip_matching_groups(n_groups: int = 20, group_size: int = 24,
                       stride_lines: int = 11,
                       iterations: int = 3) -> list[list[Step]]:
    """Training programs whose tags jointly cover the whole 8-bit space.

    Group g holds group_size loads with distinct low-byte tags, each
    walking its own page frame with the given stride.  Each member's
    loads run back to back: when a full table forces every allocation
    to evict, a member that reaches trigger confidence inside its own
    block keeps it even if a later sibling's allocation recycles the
    slot of an earlier one.  Interleaving single loads instead would
    let those evictions land between a member's accesses and no entry
    would ever finish training.
    """
    if n_groups * group_size < 256:
        raise ValueError("groups cannot cover all 256 tags")
    sb = _stride_bytes(stride_lines)
    code_base, data_base = 0x400000, 0x40000000
    groups = []
    for g in range(n_groups):
        steps: list[Step] = []
        tags = [(g * group_size + j) % 256 for j in range(group_size)]
        for j, tag in enumerate(tags):
            page = data_base + (g * group_size + j) * PAGE_BYTES
            for i in range(iterations):
                steps.append(Load(ip_with_tag(code_base + g * 0x10000, tag),
                                  page + i * sb))
        groups.append(steps)
    return groups

