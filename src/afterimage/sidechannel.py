"""Cache observation channels and stride inference.

Prime+Probe works on per-line eviction sets: prime fills each set and
returns its hit baseline time, one per set; probe re-walks the sets and
returns one flag per set, set when its time moved by more than the
cache's latency threshold in either direction.  Flush+Reload walks the
64 lines of a shared page in Fisher-Yates-shuffled order, returns the
indices of the lines that hit and keeps all of them resident afterwards.

Both observers talk to the cache only, modelling a pointer-chasing,
serialised measurement loop that the prefetcher cannot learn from; they
never touch the table.  The status probe is the exception: it replays
trained loads through the machine's load path on purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cache import CacheModel, MinimalEvictionSet
from .programs import Machine
from .uarch import LINE_BYTES, PAGE_LINES, ip_tag


@dataclass
class StrideDetection:
    support: dict[int, int]
    detected: int | None
    ambiguous: bool
    ranked: list[int]


@dataclass(frozen=True)
class StatusProbe:
    """Replay coordinates for the trained entry of ``ip``'s tag: the
    address it would load next and its stride in bytes."""
    ip: int
    replay_addr: int
    stride: int


def prime(cache: CacheModel, mes_list: list[MinimalEvictionSet]) -> list[int]:
    """Fill every eviction set, then return its steady hit baseline time."""
    for mes in mes_list:
        cache.walk_set(mes.key, mes.lines)
    return [cache.walk_set(mes.key, mes.lines) for mes in mes_list]


def probe(cache: CacheModel, mes_list: list[MinimalEvictionSet],
          baseline: list[int]) -> list[bool]:
    """Re-walk the sets; a set is evicted iff |time - baseline| exceeds
    the cache's threshold.

    The walk reverses the prime order: under true LRU a same-order probe
    would evict its own next element after a single victim insertion and
    read the whole set as missing.
    """
    threshold = cache.config.threshold
    return [abs(cache.walk_set(mes.key, mes.lines[::-1]) - b) > threshold
            for mes, b in zip(mes_list, baseline)]


def flush_reload(cache: CacheModel, page_base: int,
                 rng: random.Random) -> set[int]:
    """Measure which page lines are cached, in shuffled order; leaves
    all of them resident."""
    threshold = cache.config.threshold
    order = list(range(PAGE_LINES))
    rng.shuffle(order)
    cached = set()
    for i in order:
        addr = page_base + i * LINE_BYTES
        if cache.access(addr) < threshold:
            cached.add(i)
    return cached


def detect_stride(observed, candidates: list[int]) -> StrideDetection:
    """Look for line pairs whose distance matches exactly one candidate.

    Candidates must be pairwise distinct and each wider than 4 lines.
    The winner needs strictly more supporting pairs than any other
    candidate; a tie is reported as ambiguous, never resolved by guessing.
    """
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate strides must be pairwise distinct")
    if any(c <= 4 for c in candidates):
        raise ValueError("candidate strides must exceed 4 lines")
    lines = sorted(set(observed))
    support = {c: 0 for c in candidates}
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            if b - a in support:
                support[b - a] += 1
    ranked = sorted((c for c in candidates if support[c]),
                    key=lambda c: (-support[c], c))
    if not ranked:
        return StrideDetection(support, None, False, [])
    if len(ranked) > 1 and support[ranked[0]] == support[ranked[1]]:
        return StrideDetection(support, None, True, ranked)
    return StrideDetection(support, ranked[0], len(ranked) > 1, ranked)


def prefetcher_status_probe(machine: Machine, probes: list[StatusProbe],
                            drop_targets: frozenset | set = frozenset(),
                            ) -> dict[int, bool]:
    """Check which trained entries still trigger.

    Replays each trained IP once at its expected next address and times
    the single line the old stride would fetch.  An entry whose stride
    was disturbed in the meantime no longer prefetches it, so the load
    misses.  Unlike the pure cache observers this does feed the table,
    through ``machine.load``; it leaves the machine's clock alone.

    Verdicts are keyed by each probe IP's tag.  Tags in drop_targets
    lose their target line between install and timing, modelling an
    unrelated eviction inside the probe window.
    """
    cache = machine.cache
    threshold = cache.config.threshold
    verdict = {}
    for p in probes:
        target = p.replay_addr + p.stride
        cache.flush_line(target)
        machine.load(p.ip, p.replay_addr)
        tag = ip_tag(p.ip)
        if tag in drop_targets:
            cache.flush_line(target)
        verdict[tag] = cache.access(target) < threshold
    return verdict
