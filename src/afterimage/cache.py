"""Sliced, set-associative last-level cache with true LRU per set.

Lines are tracked by their 64-byte line index.  The slice is an XOR-fold
of the line index (a stand-in for the undocumented physical hash), the
set is its low bits.  The fold is XOR-linear: the slice of ``a ^ b`` is
the slice of ``a`` XOR the slice of ``b``.  ``page_eviction_sets``
relies on this to find the sets of a whole page's lines with one search
per distinct high part.  Timing is whole-line and two-valued: a
configured hit latency and miss latency, with a decision threshold
strictly between them.  ``install_prefetch`` takes the byte address the
prefetch table returned; the install bypasses latency accounting but is
tagged so a later demand hit can be attributed to it.

A line's placement is its ``(slice, set)`` key.  ``access`` places an
address and hands it to ``access_line``, which holds the one LRU,
install and prefetch-attribution rule.  Callers that touch the same
lines over and over, such as prime+probe on a fixed eviction set,
place them once and call ``walk_set(key, lines)``: it demand-accesses
the lines in order.  When the set is empty it fills it in one step, and
when the set already holds exactly those lines and none awaits its
first demand hit, it reorders the set in one step.  An eviction set
holds its members as line indices, ready for ``walk_set``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .uarch import LINE_BYTES, LINE_SHIFT, PAGE_LINES


class EvictionSetError(ValueError):
    """Candidate pool ran out before a full eviction set was gathered."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass
class CacheConfig:
    slices: int = 4
    sets_per_slice: int = 2048
    associativity: int = 16
    hit_latency: int = 40
    miss_latency: int = 200
    threshold: int = 120

    def __post_init__(self):
        for name in ("slices", "sets_per_slice", "associativity"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.hit_latency < 1:
            raise ValueError("hit_latency must be at least 1")
        if not self.hit_latency < self.threshold < self.miss_latency:
            raise ValueError("threshold must lie strictly between hit and miss latency")


@dataclass
class MinimalEvictionSet:
    """Associativity-many line indices mapping to one (set, slice)."""
    set_index: int
    slice_index: int
    lines: list[int]

    @property
    def key(self) -> tuple[int, int]:
        """The members' shared placement, as ``CacheModel.location``."""
        return self.slice_index, self.set_index


class CacheModel:
    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self._slice_bits = self.config.slices.bit_length() - 1
        self._slice_mask = self.config.slices - 1
        self._set_mask = self.config.sets_per_slice - 1
        # (slice, set) -> LRU-ordered line indices, most recent last
        self.sets: dict[tuple[int, int], list[int]] = {}
        self._prefetched: set[int] = set()
        self.demand_accesses = 0
        self.demand_misses = 0
        self.prefetch_installs = 0
        self.useful_prefetch_hits = 0

    # -- placement -------------------------------------------------------

    def _slice(self, li: int) -> int:
        # XOR of all slice-bit-wide chunks of li: fold halves of
        # doubling width until one chunk holds them all
        s = self._slice_bits
        if s == 0:
            return 0
        h, width = li, li.bit_length()
        while s < width:
            h ^= h >> s
            s <<= 1
        return h & self._slice_mask

    def location(self, paddr: int) -> tuple[int, int]:
        li = paddr >> LINE_SHIFT
        return self._slice(li), li & self._set_mask

    # -- operations ------------------------------------------------------

    def contains(self, paddr: int) -> bool:
        return paddr >> LINE_SHIFT in self.sets.get(self.location(paddr), ())

    def access(self, paddr: int) -> int:
        """Demand access; returns latency and installs the line on a miss."""
        return self.access_line(self.location(paddr), paddr >> LINE_SHIFT)

    def access_line(self, key: tuple[int, int], li: int) -> int:
        """Demand access to line ``li`` placed at ``key``."""
        ways = self.sets.setdefault(key, [])
        self.demand_accesses += 1
        if li in ways:
            ways.remove(li)
            ways.append(li)
            if li in self._prefetched:
                self._prefetched.discard(li)
                self.useful_prefetch_hits += 1
            return self.config.hit_latency
        self.demand_misses += 1
        self._install(ways, li)
        return self.config.miss_latency

    def walk_set(self, key: tuple[int, int], lines: list[int]) -> int:
        """Demand-access ``lines``, all placed at ``key``, in order;
        returns the summed latency."""
        ways = self.sets.get(key)
        n = len(lines)
        if not ways:
            if 0 < n <= self.config.associativity and len(set(lines)) == n:
                # every access misses into a free way, so the walk
                # leaves the set in walk order and evicts nothing
                self.sets[key] = list(lines)
                self.demand_accesses += n
                self.demand_misses += n
                return n * self.config.miss_latency
        elif (len(ways) == n and (ways == lines or set(ways) == set(lines))
                and self._prefetched.isdisjoint(lines)):
            # every access hits and moves its line to the end, so the
            # walk leaves the set in walk order
            ways[:] = lines
            self.demand_accesses += n
            return n * self.config.hit_latency
        access_line = self.access_line
        return sum(access_line(key, li) for li in lines)

    def install_prefetch(self, paddr: int) -> None:
        """Place a prefetched line without latency accounting."""
        li = paddr >> LINE_SHIFT
        ways = self.sets.setdefault(self.location(paddr), [])
        if li in ways:
            return
        self.prefetch_installs += 1
        self._install(ways, li)
        self._prefetched.add(li)

    def _install(self, ways: list[int], li: int) -> None:
        if len(ways) >= self.config.associativity:
            evicted = ways.pop(0)
            self._prefetched.discard(evicted)
        ways.append(li)

    def flush_line(self, paddr: int) -> None:
        li = paddr >> LINE_SHIFT
        ways = self.sets.get(self.location(paddr))
        if ways and li in ways:
            ways.remove(li)
        self._prefetched.discard(li)

    def flush_lines(self, base: int, n_lines: int) -> None:
        for i in range(n_lines):
            self.flush_line(base + i * LINE_BYTES)


def build_eviction_set(cache: CacheModel, set_index: int, slice_index: int,
                       candidate_pool: Iterable[int]) -> MinimalEvictionSet:
    """Collect associativity-many distinct lines mapping to the target set."""
    want = cache.config.associativity
    lines: list[int] = []
    for addr in candidate_pool:
        li = addr >> LINE_SHIFT
        if (li & cache._set_mask != set_index
                or cache._slice(li) != slice_index or li in lines):
            continue
        lines.append(li)
        if len(lines) == want:
            return MinimalEvictionSet(set_index, slice_index, lines)
    raise EvictionSetError(
        f"pool exhausted with {len(lines)}/{want} members for "
        f"set {set_index} slice {slice_index}")


def page_eviction_sets(cache: CacheModel,
                       page_paddr: int) -> list[MinimalEvictionSet]:
    """One eviction set per line of the page, each drawn from the pool
    ``set_index + k * sets_per_slice`` for ``k`` in 1..4095 (not the
    line itself).

    Pool line ``k`` shares the set bits of the page line ``own``, and
    the slice fold is XOR-linear, so it lands in ``own``'s slice
    exactly when ``k << set_bits`` and ``own``'s high part shifted
    the same way fold alike.  That depends on the high part alone, so
    one search per distinct high part finds the ``k`` of every line
    that shares it.
    """
    set_mask = cache._set_mask
    set_bits = set_mask.bit_length()
    offsets: dict[int, list[int]] = {}  # high part -> the k found for it
    out = []
    first = page_paddr >> LINE_SHIFT
    for own in range(first, first + PAGE_LINES):
        set_index, high = own & set_mask, own >> set_bits
        slice_index = cache._slice(own)
        ks = offsets.get(high)
        if ks is None:
            pool = ((set_index | k << set_bits) * LINE_BYTES
                    for k in range(1, 4096) if k != high)
            mes = build_eviction_set(cache, set_index, slice_index, pool)
            offsets[high] = [li >> set_bits for li in mes.lines]
        else:
            mes = MinimalEvictionSet(set_index, slice_index,
                                     [set_index | k << set_bits for k in ks])
        out.append(mes)
    return out
