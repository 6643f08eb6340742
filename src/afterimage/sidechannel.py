"""Cache observation channels and stride inference.

Every channel is read in one protocol, arm before the victim runs and
read after it; ``experiments`` builds one observer per channel on these
functions and places what they walk once per attack.  Prime+Probe works
on per-line eviction sets, given as their keys and member walks: prime
(its arm) fills each set and returns its hit baseline time, one per
set; probe re-walks the sets in reverse and returns one flag per set,
set when its time moved by more than the cache's latency threshold in
either direction.  Flush+Reload's arm flushes the page through its
``CacheModel.page_keys``; ``flush_reload`` reloads its 64 lines through
the same keys in line order, in one ``CacheModel.access_page`` call,
returns the indices of the lines that hit and leaves all of them
cached.  Prime, probe and reload touch the cache only, modelling a
serialised pointer-chasing loop the prefetcher cannot learn from.  A
real observer shuffles its reloads so that its own loads cannot train
the prefetcher; these reloads never reach the table, so line order
models the same observer.  The order matters only where lines of the
page share a set, that is below 64 sets in all.  The status probe has
no arm: it replays trained loads through the machine's load path on
purpose and returns one alive flag per probe.
"""

from __future__ import annotations

from typing import NamedTuple

from .cache import CacheModel
from .programs import Machine
from .uarch import LINE_SHIFT, PAGE_BYTES


class StrideDetection(NamedTuple):
    support: dict[int, int]
    detected: int | None
    ambiguous: bool
    ranked: list[int]


class StatusProbe(NamedTuple):
    """Replay coordinates for the trained entry of ``ip``'s tag: the
    address it would load next and its stride in bytes."""
    ip: int
    replay_addr: int
    stride: int


def prime(cache: CacheModel, keys: list[int],
          walks: list[list[int]]) -> list[int]:
    """Fill every eviction set, its members ``walks[i]`` placed at
    ``keys[i]``, then return its steady hit baseline time."""
    cache.walk_sets(keys, walks)
    return cache.walk_sets(keys, walks)


def probe(cache: CacheModel, keys: list[int],
          reversed_walks: list[list[int]], baseline: list[int]) -> list[bool]:
    """Re-walk the sets, each in the reverse of its prime walk; a set is
    evicted iff |time - baseline| exceeds the cache's threshold.

    The walk reverses the prime order: under true LRU a same-order probe
    would evict its own next element after a single victim insertion and
    read the whole set as missing.
    """
    threshold = cache.config.threshold
    times = cache.walk_sets(keys, reversed_walks)
    return [abs(t - b) > threshold for t, b in zip(times, baseline)]


def flush_reload(cache: CacheModel, page_base: int,
                 keys: list[int]) -> set[int]:
    """Measure which lines of the page at ``page_base`` (page aligned),
    placed at ``keys`` as ``CacheModel.page_keys`` gives them, are
    cached, in line order; leaves all of them resident.  Timing is
    two-valued, so a reload under the threshold is exactly a hit, and
    the lines that hit are the offsets ``access_page`` returns."""
    if page_base % PAGE_BYTES:
        raise ValueError("page address must be page aligned")
    return cache.access_page(keys, page_base >> LINE_SHIFT)


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
                            drops: list[bool]) -> list[bool]:
    """Check which trained entries still trigger, one flag per probe.

    Replays each trained IP once at its expected next address and times
    the single line the old stride would fetch.  An entry whose stride
    was disturbed in the meantime no longer prefetches it, so the load
    misses.  Unlike the pure cache observers this does feed the table,
    through ``machine.load``; it leaves the machine's clock alone.

    A probe whose ``drops`` flag is set loses its target line before
    the timing: an unrelated eviction inside the probe window.
    """
    cache = machine.cache
    threshold = cache.config.threshold
    alive = []
    for p, drop in zip(probes, drops, strict=True):
        target = p.replay_addr + p.stride
        cache.flush_line(target)
        machine.load(p.ip, p.replay_addr)
        if drop:
            cache.flush_line(target)
        alive.append(cache.access(target) < threshold)
    return alive
