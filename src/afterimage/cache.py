"""Sliced, set-associative last-level cache with true LRU per set.

Lines are tracked by their 64-byte line index.  The slice is an XOR-fold
of the line index (a stand-in for the undocumented physical hash): the
XOR of its chunks of ``s`` bits, for ``2**s`` slices.  Bit ``j`` of the
fold is the parity of the index's bits ``j``, ``j + s``, ``j + 2s``,
..., so each cache keeps one mask of those positions per slice bit.
The masks span a 64-bit address's line index in whole chunks, and a
wider index first folds its bits above them back in, so the fold is
exact at any width.  The set is the index's low bits.  The fold is
XOR-linear: the slice of ``a ^ b`` is the slice of ``a`` XOR the slice
of ``b``.  ``page_eviction_sets`` relies on this to find the sets of a
whole page's lines with one search per distinct high part.  Timing is
whole-line and two-valued: a configured hit latency and miss latency,
with a decision threshold strictly between them.  ``install_prefetch``
takes the byte address the prefetch table returned; the install
bypasses latency accounting but is tagged so a later demand hit can be
attributed to it.

A line's placement is its key, one int: ``slice << set_bits | set``,
the LLC's global set index, where ``set_bits`` is the log2 of the sets
per slice.  Key 0 is slice 0, set 0, so a missing key is None and is
tested with ``is None``.  The set bits are the index's low bits, so the
key is XOR-linear too: the key of line ``a ^ b`` is the XOR of the keys
of ``a`` and ``b``.  ``access`` places an address and hands it to
``access_line``, which holds the one LRU, install and
prefetch-attribution rule.  ``page_keys`` places a whole page at once:
the key of the page's first line, XORed with a table of the keys of
the line offsets 0..63 built once per cache from six keys, one per
offset bit, by the same XOR-linearity.  That is exact only for a
page-aligned first line: its six low bits are clear, so ``first + i ==
first ^ i``.  A prefetch target is placed from the load that asked for
it when the caller passes that load's key and line index: a target in
the load's page differs from the load only in its offset bits, so its
key is the load's XOR the table's key of the two lines' XOR.  A target
in the next page, or one whose load came unplaced, is placed by
``location``.  ``flush_lines`` flushes a run of lines at the keys
``location`` or ``page_keys`` made for it.  Flush+reload places its
page once per attack and hands each reload to one ``access_page(keys,
first)`` call, which accesses the page's lines in line order and
returns the offsets whose access hit.  A line whose set is empty, the
case a flushed page meets most, misses into it in one step; every
other line goes to ``access_line``.
Prime+probe places its eviction sets once and hands
each pass over them to one ``walk_sets(keys, walks)`` call, which
demand-accesses each walk's lines in order, walk after walk.  A walk
onto an empty set fills it in one step.  When the set holds exactly
the walked lines and none awaits its first demand hit, every access
hits and leaves the set in walk order.  Prime+probe walks a set in
the reverse of the order its last walk left it in, so the set is
reversed in place and compared with the walk once; when they differ,
the set is reversed back and the walk goes to the per-line rule.
A set already in walk order occurs only below 64 sets in all, where
two eviction sets share a key, and takes that rule too.  Whether a walk
meets an unused prefetch is settled once per call: each unused
prefetch keeps the key ``install_prefetch`` placed it at, those keys
are marked, and a walk on an unmarked key meets none, since all its
lines sit at its key and walking only clears prefetch flags.  An
eviction set is a key and its members' line indices, ready for
``walk_sets``: its search keeps each new candidate that ``location``
places at the key and skips the lines of the page it watches, so no
set holds a line of its page and page lines that share a key get
equal sets.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .uarch import LINE_BYTES, LINE_SHIFT, PAGE_BYTES, PAGE_LINES


class EvictionSetError(ValueError):
    """Candidate pool ran out before a full eviction set was gathered."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class _CacheFields(NamedTuple):
    slices: int = 4
    sets_per_slice: int = 2048
    associativity: int = 16
    hit_latency: int = 40
    miss_latency: int = 200
    threshold: int = 120


class CacheConfig(_CacheFields):
    """The LLC's geometry and timing, checked when it is called.
    ``_replace`` and ``_make`` skip the checks; nothing calls them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("slices", "sets_per_slice", "associativity"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.hit_latency < 1:
            raise ValueError("hit_latency must be at least 1")
        if not self.hit_latency < self.threshold < self.miss_latency:
            raise ValueError("threshold must lie strictly between hit and miss latency")
        return self

    # inspect.signature reports the fields, not *args and **kwargs
    __new__.__wrapped__ = _CacheFields.__new__


class CacheModel:
    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        # read on every access: a tuple field read costs a descriptor call
        self._hit_latency = self.config.hit_latency
        self._miss_latency = self.config.miss_latency
        self._associativity = self.config.associativity
        # one (positions mask, slice bit) pair per slice bit, for _slice;
        # ones has bits 0, s, 2s, ... below width, a multiple of s
        s = self.config.slices.bit_length() - 1
        width = 64 - LINE_SHIFT
        if s:
            width += -width % s
        ones = ((1 << width) - 1) // ((1 << s) - 1) if s else 0
        # a key holds the slice above the set index
        set_bits = self.config.sets_per_slice.bit_length() - 1
        self._fold_masks = [(ones << j, 1 << set_bits + j) for j in range(s)]
        self._fold_limit = 1 << width
        self._set_mask = self.config.sets_per_slice - 1
        # key of each line offset in a page, for page_keys and the keyed
        # install: by XOR-linearity, the XOR of the keys of its bits
        offset_keys = [0]
        for b in range(PAGE_LINES.bit_length() - 1):
            bit_key = self._slice(1 << b) | (1 << b) & self._set_mask
            offset_keys += [k ^ bit_key for k in offset_keys]
        self._offset_keys = offset_keys
        # key -> LRU-ordered line indices, most recent last
        self.sets: dict[int, list[int]] = {}
        # unused prefetched line -> the key install_prefetch placed it at
        self._prefetched: dict[int, int] = {}
        self.demand_accesses = 0
        self.demand_misses = 0
        self.prefetch_installs = 0
        self.useful_prefetch_hits = 0

    # -- placement -------------------------------------------------------

    def _slice(self, li: int) -> int:
        # each slice bit is the parity of li's bits under its mask; the
        # slice comes back shifted above the set index
        limit = self._fold_limit
        while li >= limit:
            # the mask width is a multiple of the slice width, so the
            # bits above the masks fold onto the same slice bits
            li = (li & (limit - 1)) ^ (li >> (limit.bit_length() - 1))
        h = 0
        for mask, bit in self._fold_masks:
            if (li & mask).bit_count() & 1:
                h ^= bit
        return h

    def location(self, paddr: int) -> int:
        li = paddr >> LINE_SHIFT
        return self._slice(li) | li & self._set_mask

    def page_keys(self, page_paddr: int) -> list[int]:
        """The keys of the 64 lines of the page at ``page_paddr``, in
        line order, as ``location`` gives them."""
        if page_paddr % PAGE_BYTES:
            raise ValueError("page address must be page aligned")
        first = page_paddr >> LINE_SHIFT
        first_key = self._slice(first) | first & self._set_mask
        return [first_key ^ k for k in self._offset_keys]

    # -- operations ------------------------------------------------------

    def access(self, paddr: int) -> int:
        """Demand access; returns latency and installs the line on a miss."""
        return self.access_line(self.location(paddr), paddr >> LINE_SHIFT)

    def access_line(self, key: int, li: int) -> int:
        """Demand access to line ``li`` placed at ``key``."""
        ways = self.sets.setdefault(key, [])
        self.demand_accesses += 1
        if li in ways:
            ways.remove(li)
            ways.append(li)
            if li in self._prefetched:
                del self._prefetched[li]
                self.useful_prefetch_hits += 1
            return self._hit_latency
        self.demand_misses += 1
        self._install(ways, li)
        return self._miss_latency

    def access_page(self, keys: list[int], first: int) -> set[int]:
        """Demand-access line ``first + i``, placed at ``keys[i]``, for
        each ``i`` in line order; returns the offsets ``i`` of the
        accesses that hit."""
        sets, hit = self.sets, self.config.hit_latency
        access_line = self.access_line
        hits = set()
        misses = 0
        for i, key in enumerate(keys):
            ways = sets.get(key)
            if not ways:
                # the line misses into a free way and evicts nothing
                sets[key] = [first + i]
                misses += 1
            elif access_line(key, first + i) == hit:
                hits.add(i)
        self.demand_accesses += misses
        self.demand_misses += misses
        return hits

    def walk_sets(self, keys: list[int],
                  walks: list[list[int]]) -> list[int]:
        """Demand-access each walk's lines, all placed at its key, in
        order, walk after walk; returns each walk's summed latency."""
        sets, hit, miss = self.sets, self._hit_latency, self._miss_latency
        # a walk on a key that holds none of the unused prefetches
        # meets none of them: all its lines sit at its key, and walking
        # only clears prefetch flags
        marked = set(self._prefetched.values())
        access_line = self.access_line
        accesses = misses = 0
        times = []
        for key, lines in zip(keys, walks):
            ways = sets.get(key)
            n = len(lines)
            if not ways:
                if 0 < n <= self._associativity and len(set(lines)) == n:
                    # every access misses into a free way, so the walk
                    # leaves the set in walk order and evicts nothing
                    sets[key] = list(lines)
                    accesses += n
                    misses += n
                    times.append(n * miss)
                    continue
            elif len(ways) == n and key not in marked:
                # when the set holds exactly the walked lines, every
                # access hits and moves its line to the end, so the walk
                # leaves the set in walk order.  Each prime+probe walk
                # finds its set in the reverse of its own order: reverse
                # it in place, and leave any other order to the rule below
                ways.reverse()
                if ways == lines:
                    accesses += n
                    times.append(n * hit)
                    continue
                ways.reverse()  # LRU order, for the rule below
            t = 0
            for li in lines:
                t += access_line(key, li)
            times.append(t)
        self.demand_accesses += accesses
        self.demand_misses += misses
        return times

    def install_prefetch(self, paddr: int, load_key: int | None = None,
                         load_li: int = 0) -> None:
        """Place a prefetched line without latency accounting.  A caller
        that has placed the load that asked for it, line ``load_li`` at
        ``load_key``, passes both, and a target in that line's page is
        placed from them without a fold of its own."""
        li = paddr >> LINE_SHIFT
        if load_key is not None and 0 <= li ^ load_li < PAGE_LINES:
            # the lines share their page, so they differ only in their
            # offsets, and their keys by the key of the offsets' XOR
            key = load_key ^ self._offset_keys[li ^ load_li]
        else:
            key = self.location(paddr)
        ways = self.sets.setdefault(key, [])
        if li in ways:
            return
        self.prefetch_installs += 1
        self._install(ways, li)
        self._prefetched[li] = key

    def _install(self, ways: list[int], li: int) -> None:
        if len(ways) >= self._associativity:
            self._prefetched.pop(ways.pop(0), None)
        ways.append(li)

    def flush_line(self, paddr: int) -> None:
        """Flush the one line at ``paddr``."""
        self.flush_lines(paddr, [self.location(paddr)])

    def flush_lines(self, paddr: int, keys: list[int]) -> None:
        """Flush the ``len(keys)`` consecutive lines from ``paddr``'s line
        on, placed at ``keys`` as ``location`` or ``page_keys`` gives
        them."""
        sets, prefetched = self.sets, self._prefetched
        for line, key in enumerate(keys, paddr >> LINE_SHIFT):
            ways = sets.get(key)
            if ways and line in ways:
                ways.remove(line)
            prefetched.pop(line, None)


def build_eviction_set(cache: CacheModel, key: int,
                       candidate_pool: Iterable[int]) -> list[int]:
    """Collect associativity-many distinct line indices that
    ``location`` places at ``key``."""
    want = cache.config.associativity
    lines: list[int] = []
    for addr in candidate_pool:
        li = addr >> LINE_SHIFT
        if cache.location(addr) != key or li in lines:
            continue
        lines.append(li)
        if len(lines) == want:
            return lines
    slice_index, set_index = divmod(key, cache.config.sets_per_slice)
    raise EvictionSetError(
        f"pool exhausted with {len(lines)}/{want} members for "
        f"set {set_index} slice {slice_index}")


def page_eviction_sets(cache: CacheModel, page_paddr: int
                       ) -> tuple[list[int], list[list[int]]]:
    """The keys of the lines of the page at ``page_paddr`` (page
    aligned), as ``page_keys`` gives them, and one eviction set per
    line, each drawn from the pool ``set_index + k * sets_per_slice``
    for ``k`` in 1..4095 whose line is not in the page.  So no set
    holds a line of the page, and lines that share a key get equal
    sets.

    Pool line ``k`` shares the set bits of the page line ``own``, and
    the slice fold is XOR-linear, so it lands in ``own``'s slice
    exactly when ``k << set_bits`` and ``own``'s high part shifted
    the same way fold alike.  It differs from ``own`` by ``k`` XOR
    that high part, shifted, so it is in the page exactly when that
    is below ``PAGE_LINES``.  Both depend on the high part alone, so
    one search per distinct high part finds the ``k`` of every line
    that shares it.
    """
    set_bits = cache.config.sets_per_slice.bit_length() - 1
    # high part -> the found members' bits above the set index
    member_highs: dict[int, list[int]] = {}
    keys = cache.page_keys(page_paddr)
    walks = []
    for own, key in enumerate(keys, page_paddr >> LINE_SHIFT):
        high, set_index = own >> set_bits, own & cache._set_mask
        highs = member_highs.get(high)
        if highs is None:
            pool = ((set_index | k << set_bits) * LINE_BYTES
                    for k in range(1, 4096)
                    if (k ^ high) << set_bits >= PAGE_LINES)
            lines = build_eviction_set(cache, key, pool)
            member_highs[high] = [li ^ set_index for li in lines]
        else:
            lines = [set_index | h for h in highs]
        walks.append(lines)
    return keys, walks
