"""Reverse-engineering benches, attack rigs and the flush mitigation.

The ``rev_*`` functions re-run the microbenchmarks that pinned down the
stride prefetcher's behaviour: which IP bits select a table entry, how
the confidence counter gates triggering, what happens at page
boundaries, how many entries the table holds and which ones get
replaced.  Each makes every run that ``reveng`` makes of it and returns
a ``BenchResult``: the CSV rows, and one problem line per verdict that
differs from the documented behaviour, built in the loop that measures
it, so the CLI can self-check.

``run_attack`` drives the three covert/side-channel variants end to
end.  They are one attack in three scenarios: a shared-address-space
victim, a cross-process victim reached through a shared page, and a
kernel syscall reached through shared memory.  A scenario builder says
who trains, where the victim runs, what each arm of its secret-dependent
branch loads, which page is watched and how a detected stride decodes
to a bit.  Each channel is one observer, built once per attack from the
machine, the scenario and the noise: ``arm()`` runs before the victim,
and ``read(rng, victim_loads)`` after it applies the channel's noise and
returns a ``StrideDetection``.  Prime+probe's observer takes its
page's eviction sets from a bounded memo keyed by cache class, geometry
and page, so one search per process serves every attack on that page;
the observers only read them.  Scored and tag-search rounds alike run
train, arm, victim, read; the attacker's training program is placed
once per attack (once per group in the tag search) and the victim's
one load once per round.  ``mitigation_sweep`` prices periodic table
clearing in prefetch coverage at one or more (flush period, write
ports) points; ``mitigation_eval`` is its one-point case.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .cache import CacheConfig, CacheModel, page_eviction_sets
from .programs import (
    ELSE_TAG,
    GADGET,
    IF_TAG,
    STRIDE_ELSE,
    STRIDE_IF,
    Domain,
    Load,
    Machine,
    Placed,
    ip_matching_groups,
    ip_with_tag,
    stride_bytes,
)
from .sidechannel import (
    StatusProbe,
    StrideDetection,
    detect_stride,
    flush_reload,
    prefetcher_status_probe,
    prime,
    probe,
)
from .uarch import LINE_BYTES, LINE_SHIFT, PAGE_BYTES, PAGE_LINES, page_frame

#: Clock used to convert flush periods given in microseconds.
DEFAULT_CLOCK_GHZ = 3.6


def flush_period_cycles(period_us: float,
                        ghz: float = DEFAULT_CLOCK_GHZ) -> int | None:
    """Convert a flush period in microseconds to clock cycles.

    A period of +inf disables flushing and returns None.  The clock must
    be finite and positive, and the period must not be NaN or negative.
    """
    if not (math.isfinite(ghz) and ghz > 0):
        raise ValueError(f"clock must be finite and positive, got {ghz} GHz")
    if not period_us >= 0:  # also catches NaN
        raise ValueError(f"flush period must be >= 0 us, got {period_us}")
    if period_us == math.inf:
        return None
    cycles = period_us * 1000.0 * ghz
    if cycles == math.inf:
        raise ValueError(f"flush period {period_us} us at {ghz} GHz "
                         "overflows the cycle count")
    return round(cycles)


# --------------------------------------------------------------------------
# noise model
# --------------------------------------------------------------------------


class _NoiseFields(NamedTuple):
    p_evict: float = 0.0
    p_extra_load: float = 0.0
    next_line_noise: bool = False


class NoiseModel(_NoiseFields):
    """Background activity injected between the victim and the observer.

    p_evict is the chance, per probed line (or per probed set), that
    unrelated traffic evicts it before the observer times it.
    p_extra_load is the chance that one unrelated line of the observed
    page is sitting in the cache when the observer looks.  When
    next_line_noise is set, the two lines adjacent to every victim
    access are installed as well, imitating an adjacent-line prefetcher.

    The model holds no seed: all randomness derives from the run's seed
    and the round index, never from the probabilities, so sweeping a
    probability replays identical draws and noise events at a higher
    setting are a superset of those at a lower one.

    The probabilities are checked when the model is called;
    ``_replace`` and ``_make`` skip the check, and nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("p_evict", "p_extra_load"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        return self

    # inspect.signature reports the fields, not *args and **kwargs
    __new__.__wrapped__ = _NoiseFields.__new__


def _round_rng(seed: int, index: int) -> random.Random:
    # the seed enters twice so that every pinned CSV keeps its draws
    return random.Random((seed * 1_000_003 + seed) * 1_000_003 + index)


def _apply_page_noise(cache: CacheModel, noise: NoiseModel,
                      rng: random.Random, page_paddr: int,
                      victim_loads: list[int]) -> None:
    """Disturb the observed page.  ``victim_loads`` are the physical
    addresses the victim loaded this round.  Draw counts are fixed per
    round so probability sweeps consume identical random streams."""
    if noise.next_line_noise:
        frame = page_frame(page_paddr)
        victim_lines = {(paddr >> LINE_SHIFT) & (PAGE_LINES - 1)
                        for paddr in victim_loads
                        if page_frame(paddr) == frame}
        for ln in sorted(victim_lines):
            for neighbour in (ln - 1, ln + 1):
                if 0 <= neighbour < PAGE_LINES:
                    cache.install_prefetch(page_paddr + neighbour * LINE_BYTES)
    extra_u = rng.random()
    extra_line = rng.randrange(PAGE_LINES)
    if extra_u < noise.p_extra_load:
        cache.access(page_paddr + extra_line * LINE_BYTES)
    draw, p_evict = rng.random, noise.p_evict
    for ln in range(PAGE_LINES):
        if draw() < p_evict:
            cache.flush_line(page_paddr + ln * LINE_BYTES)


# --------------------------------------------------------------------------
# shared bench plumbing: each run is a fresh Machine, and a timing read
# --------------------------------------------------------------------------


class BenchResult(NamedTuple):
    """One reveng bench: its CSV rows, and one line per verdict that
    differs from the documented behaviour (none when all match)."""

    rows: list[dict]
    problems: list[str]


def _is_hot(cache: CacheModel, paddr: int) -> bool:
    """Time one access: True when the line was already cached."""
    return cache.access(paddr) < cache.config.threshold


# --------------------------------------------------------------------------
# entry indexing: which IP bits select a table entry
# --------------------------------------------------------------------------


def rev_indexing(cache_config=None) -> BenchResult:
    """Train one entry with IP tag 0x2C, then replay from 256
    differently-tagged IPs, one fresh run and one row per low byte.

    The probe IP differs from the training IP in its page bits and in
    bit 9, keeping only a chosen low byte.  A probe that stale-triggers
    the trained stride proves the table keyed solely on those eight
    bits; a probe that allocates a fresh entry fetches nothing.
    """
    trained_tag = 0x2C
    sb = stride_bytes(7)
    train_page = 0x100000
    replay_page = 0x180000
    train_ip = ip_with_tag(0x400000, trained_tag)
    # several pages away and bit 9 flipped: matches nothing but the low byte
    replay_base = (0x400000 + 0x2000) ^ 0x200
    rows, problems = [], []
    for off in range(256):
        bench = Machine(cache_config=cache_config)
        # buffer initialisation installs the translations, not the table
        bench.tlb.access(page_frame(train_page))
        bench.tlb.access(page_frame(replay_page))
        for i in range(4):
            bench.load(train_ip, train_page + i * sb)
        bench.load(ip_with_tag(replay_base, off), replay_page)
        hit = _is_hot(bench.cache, replay_page + sb)
        rows.append({"offset": off, "triggered": int(hit)})
        want = off == trained_tag
        if hit != want:
            problems.append(
                f"ip low byte 0x{off:02x}: triggered={hit}, expected {want}")
    return BenchResult(rows, problems)


# --------------------------------------------------------------------------
# confidence counter and stride replacement
# --------------------------------------------------------------------------


def rev_conf_stride(seed: int, cache_config=None) -> BenchResult:
    """Train a stride, switch to another, and watch what gets fetched.

    Phase one walks 4 loads at stride ``st1`` = 7 lines; phase two
    walks 3 loads at stride ``st2`` = 5.  The bench makes two runs, in
    this order: ``random`` starts phase two at a jump drawn from a
    fresh ``random.Random(seed)``, and ``equals_st2`` exactly one
    ``st2`` step past the last phase-one load.  After every phase-two
    load the lines one ``st1`` and one ``st2`` ahead are timed; the
    label is the stride whose line came in.  A confident entry fetches
    with its old stride once before relearning, so the first phase-two
    load is labelled 7; afterwards the counter has to climb back past
    the trigger threshold before stride-5 fetches appear: the labels
    are 7, none, 5 after a random jump and 7, 5, 5 after a step of 5.
    The farthest line timed starts at byte 3,648, inside the page.
    Each row and problem names its run's mode.
    """
    st1, st2, tr1 = 7, 5, 4
    sb1 = stride_bytes(st1)
    sb2 = stride_bytes(st2)
    page = 0x200000
    ip = ip_with_tag(0x400000, 0x51)
    last = page + (tr1 - 1) * sb1
    rows, problems = [], []
    for mode, expected in (("random", [st1, None, st2]),
                           ("equals_st2", [st1, st2, st2])):
        bench = Machine(cache_config=cache_config)
        bench.tlb.access(page_frame(page))
        for i in range(tr1):
            bench.load(ip, page + i * sb1)
        if mode == "equals_st2":
            start = last + sb2
        else:
            # land well clear of the phase-one footprint, on neither stride
            jump = random.Random(seed).choice(range(8, 20))
            start = last + jump * LINE_BYTES
        # one phase-two load per expected label
        for i, want in enumerate(expected):
            addr = start + i * sb2
            bench.load(ip, addr)
            hot1 = _is_hot(bench.cache, addr + sb1)
            hot2 = _is_hot(bench.cache, addr + sb2)
            if hot1 and not hot2:
                label = st1
            elif hot2 and not hot1:
                label = st2
            else:
                label = None
            rows.append({"mode": mode, "iteration": i,
                         f"st1_{st1}_hot": int(hot1),
                         f"st2_{st2}_hot": int(hot2),
                         "label": "" if label is None else label})
            if label != want:
                problems.append(
                    f"{mode}: iteration {i}: fetched {label}, expected {want}")
    return BenchResult(rows, problems)


# --------------------------------------------------------------------------
# page boundaries: reclaimed frames vs fresh frames
# --------------------------------------------------------------------------


def _page_trial(pool: str, offset_pages: int, *, cold: bool = False,
                cache_config=None) -> list[bool]:
    """Train a stream, then time its prefetch ``offset_pages`` ahead; a
    ``cold`` trial skips the next frame's pre-walk and times two accesses."""
    sb = stride_bytes(7)
    vbase = 0x300000
    dom = Domain("bench")
    if pool == "reclaimed":
        # every virtual page of the walk recycles the same physical frame
        for i in range(5):
            dom.map_shared(vbase + i * PAGE_BYTES, 0x5FA000)
    bench = Machine(cache_config=cache_config)
    ip = ip_with_tag(0x400000, 0x9D)
    bench.tlb.access(page_frame(dom.translate(vbase)))
    if pool == "locked" and not cold:
        # the hardware walks the adjacent page's translation as a
        # stream nears the boundary, so the very next frame starts warm
        bench.tlb.access(page_frame(dom.translate(vbase + PAGE_BYTES)))
    for i in range(4):
        bench.load(ip, dom.translate(vbase + i * sb))
    # probe mid-page so the timed line overlaps nothing from training
    test_vaddr = vbase + offset_pages * PAGE_BYTES + 2048
    flags = []
    for attempt in range(2 if cold else 1):
        test_paddr = dom.translate(test_vaddr)
        target = test_paddr + sb
        if attempt:
            bench.flush(target, [bench.cache.location(target)])
        bench.load(ip, test_paddr)
        flags.append(_is_hot(bench.cache, target))
    return flags


def rev_page(cache_config=None) -> BenchResult:
    """Probe a trained entry one to four pages past its training walk.

    The bench runs nine trials, each on a fresh machine, and writes ten
    rows in this order: the locked pool 1 to 4 pages ahead, the
    reclaimed pool 1 to 4 pages ahead, then the two accesses of a cold
    next-page trial.  The reclaimed pool maps every virtual page onto one
    recycled physical frame, so the walk never really leaves it; the
    locked pool hands out fresh frames, where only the immediately next
    page — whose translation the hardware pre-walks — still fetches.
    When that next page's translation starts cold, the first access
    only installs it and the second one fetches.
    """
    rows, problems = [], []
    for pool in ("locked", "reclaimed"):
        for off in (1, 2, 3, 4):
            # the documented rule: a trial's translation is warm, and so
            # its prefetch fetches, on a reclaimed frame or the next page
            warm = pool == "reclaimed" or off == 1
            got = _page_trial(pool, off, cache_config=cache_config)[0]
            rows.append({"pool": pool, "offset_pages": off,
                         "tlb": "warm" if warm else "cold",
                         "access": 1, "triggered": int(got)})
            if got != warm:
                problems.append(f"{pool} pool, {off} page(s) ahead: "
                                f"triggered={got}, expected {warm}")
    cold = tuple(_page_trial("locked", 1, cold=True,
                             cache_config=cache_config))
    for i, got in enumerate(cold):
        rows.append({"pool": "locked", "offset_pages": 1, "tlb": "cold",
                     "access": i + 1, "triggered": int(got)})
    if cold != (False, True):
        problems.append(
            "cold next-page trial: expected (first=False, second=True), "
            f"got {cold}")
    return BenchResult(rows, problems)


# --------------------------------------------------------------------------
# table capacity and replacement order
# --------------------------------------------------------------------------


def _survivors(n_streams: int, n_retrain: int = 0, n_new: int = 0,
               cache_config=None) -> list[bool]:
    """Train ``n_streams`` streams, re-touch the first ``n_retrain``,
    train ``n_new`` newcomers, then replay each original stream once.

    A replay that still fetches proves its entry survived.  Each stream
    is probed in its own fresh run so a dead stream's replay (which
    allocates and thereby evicts) cannot contaminate the next verdict.
    """
    sb = 448

    def walk(bench: Machine, j: int, first: int, n: int) -> None:
        ip = ip_with_tag(0x400000 + j * 0x1000, j)
        page = 0x1000000 + j * PAGE_BYTES
        for i in range(first, first + n):
            bench.load(ip, page + i * sb)

    alive = []
    for probed in range(n_streams):
        bench = Machine(cache_config=cache_config)
        for j in range(n_streams):
            walk(bench, j, 0, 4)
        for j in range(n_retrain):
            walk(bench, j, 4, 1)
        for j in range(n_streams, n_streams + n_new):
            walk(bench, j, 0, 4)
        step = 5 if probed < n_retrain else 4
        walk(bench, probed, step, 1)
        page = 0x1000000 + probed * PAGE_BYTES
        alive.append(_is_hot(bench.cache, page + (step + 1) * sb))
    return alive


def _survival(alive: list[bool], expected_dead: list[int]) -> BenchResult:
    """One row per trained stream, by position, and one problem line
    when the dead positions differ from ``expected_dead``, the
    positions the documented table drops."""
    rows = [{"position": i + 1, "alive": int(ok)}
            for i, ok in enumerate(alive)]
    dead = [row["position"] for row in rows if not row["alive"]]
    if dead == expected_dead:
        return BenchResult(rows, [])
    return BenchResult(rows,
                       [f"dead positions {dead}, expected {expected_dead}"])


def rev_entries(cache_config=None) -> BenchResult:
    """Train 24, then 26, then 30 streams in order, and replay each one
    once on a fresh machine; each row and problem names its
    configuration's stream count.

    Training more streams than the table holds silently drops the
    oldest.
    """
    rows, problems = [], []
    for n_ips in (24, 26, 30):
        run = _survival(_survivors(n_ips, cache_config=cache_config),
                        list(range(1, n_ips - 23)))
        rows += [{"n_ips": n_ips, **row} for row in run.rows]
        problems += [f"{n_ips} streams: {problem}" for problem in run.problems]
    return BenchResult(rows, problems)


def rev_replacement(cache_config=None) -> BenchResult:
    """Fill the table, refresh a prefix, then push in new streams.

    Trains 24 streams (filling the table), re-touches the first 8 of
    them, trains 8 fresh streams, and replays every original to see
    which survived: one configuration, with one row per original
    stream, each replayed on a fresh machine.  The victims, streams 9
    to 16, come right after the refreshed prefix: the single-bit
    recency scheme evicts the lowest-numbered entry whose bit is clear,
    not the globally oldest.
    """
    return _survival(_survivors(24, 8, 8, cache_config), list(range(9, 17)))


# --------------------------------------------------------------------------
# attack rigs
# --------------------------------------------------------------------------


class UnsupportedChannelError(ValueError):
    """Raised for a variant/channel pairing that has no measurement."""


class RoundRecord(NamedTuple):
    """One transmitted bit and what the observer made of it."""

    index: int
    truth: int
    detected: int | None
    inferred: int | None

    @property
    def success(self) -> bool:
        return self.inferred == self.truth


class AttackOutcome(NamedTuple):
    """Everything one attack run produced, ready for CSV."""

    records: list[RoundRecord]
    detail: dict

    @property
    def success_rate(self) -> float:
        return sum(r.success for r in self.records) / len(self.records)

    def rows(self) -> list[dict]:
        return [{
            "round": r.index,
            "truth": r.truth,
            "detected_stride": "" if r.detected is None else r.detected,
            "inferred": "" if r.inferred is None else r.inferred,
            "success": int(r.success),
        } for r in self.records]


class _Scenario(NamedTuple):
    """Who trains, where the victim runs and which page is watched.

    ``training`` is the attacker's program of loads, from which the
    status probe also takes its replays.  ``page_vaddr`` is the observed
    page in the attacker's space; the attacker's domain says where it
    lives.  ``arms`` maps each secret bit to the (load IP, array vaddr)
    of the branch arm the victim then runs, or to None for an arm that
    makes no load.  ``decode`` maps the detected stride in lines (None
    when nothing was detected) to the inferred bit; a stride it does
    not list infers nothing.
    """

    attacker: Domain
    training: list[Load]
    page_vaddr: int
    victim: Domain
    arms: dict[int, tuple[int, int] | None]
    decode: dict[int | None, int]
    detail: dict


# Variants 1 and 2 train both arms of the victim's branch with GADGET:
# the if arm's tag with one stride, the else arm's tag with another.
_TWO_SIDED = {STRIDE_IF: 1, STRIDE_ELSE: 0}
_VICTIM_CODE = 0x700000
_KERNEL_CODE = 0x7FFF00F000  # fixed: kernel text is not randomized here
_ARRAY_LINES = 48  # the victim's array; each load picks one of its lines
_Observer = tuple[Callable[[], object], Callable[..., StrideDetection]]


def _two_arms(array: int) -> dict[int, tuple[int, int]]:
    """The if arm (bit 1) and the else arm (bit 0), loading from ``array``."""
    return {1: (ip_with_tag(_VICTIM_CODE, IF_TAG), array),
            0: (ip_with_tag(_VICTIM_CODE + 0x1000, ELSE_TAG), array)}


def _same_space(machine: Machine, seed: int) -> _Scenario:
    """Variant 1: gadget, victim and observer share one address space.

    The gadget trains both candidate tags with distinct strides; the
    victim's secret-dependent branch executes a single load whose IP
    low byte collides with one of them, firing that entry's stale
    stride into the victim's own array where the observer can see it.
    """
    victim_page = 0x600000
    dom = Domain("proc")
    # the victim initialised its array earlier; the translation is warm
    machine.tlb.access(page_frame(dom.translate(victim_page)))
    return _Scenario(dom, GADGET, victim_page, dom, _two_arms(victim_page),
                     _TWO_SIDED, {})


def _cross_process(machine: Machine, seed: int) -> _Scenario:
    """Variant 2: the victim runs in another process; a shared page
    carries both the victim's array and the observer's reloads."""
    shared_vaddr, shared_paddr = 0x640000, 0x500000
    attacker = Domain("attacker", phys_offset=0x10000000)
    victim = Domain("victim", phys_offset=0x20000000)
    attacker.map_shared(shared_vaddr, shared_paddr)
    victim.map_shared(shared_vaddr, shared_paddr)
    return _Scenario(attacker, GADGET, shared_vaddr, victim,
                     _two_arms(shared_vaddr), _TWO_SIDED, {})


def _user_kernel(machine: Machine, seed: int) -> _Scenario:
    """Variant 3: the victim load sits inside a syscall handler.

    Kernel code addresses are hidden, so the rig first hunts for a user
    IP whose low byte collides with the handler's load: it trains
    groups of 24 tag-consecutive streams and checks after a forced
    syscall whether the trained stride appeared on the shared page.
    Each group is built and placed only when the search reaches it.
    Scored rounds then retrain the matching group before every call.
    The syscall loads only when the bit is set, so no stride reads 0.
    """
    stride = 11
    kernel_tag = 0x4B
    shared_paddr = 0x7A0000
    kernel_vaddr = 0xFFFF80000000
    user = Domain("user")
    kernel = Domain("kernel", phys_offset=0x80000000)
    kernel.map_shared(kernel_vaddr, shared_paddr)
    arms = {1: (ip_with_tag(_KERNEL_CODE, kernel_tag), kernel_vaddr),
            0: None}
    groups = ip_matching_groups(stride)
    sc = _Scenario(user, [], shared_paddr, kernel, arms, {stride: 1, None: 0},
                   {})

    # Each group gets a few tries: a failed probe's own load allocates
    # an entry right where the next training pass recycles slots, so
    # the first pass over a matching group can lose the one entry that
    # matters.  A repeat finds the table mostly trained and keeps it.
    # The search forces the loading arm with known inputs and no noise.
    observer = _flush_reload(machine, sc, NoiseModel())
    search_rng = random.Random(seed * 7919 + 13)
    matched = None
    for g, group_prog in enumerate(groups):
        if g == 0:
            first = group_prog
        training = machine.place(user, group_prog)
        if any(_run_round(machine, sc, training, observer, 1,
                          search_rng).detected == stride
               for _attempt in range(3)):
            matched = g
            break
    # nothing matched (e.g. table flushed on every switch): carry on
    # with group 0 so the scored rounds still run honestly
    return sc._replace(training=first if matched is None else group_prog,
                       detail={"matched_group": matched})


_SCENARIOS = {1: _same_space, 2: _cross_process, 3: _user_kernel}


def _secret_source(seed: int, flush_on_switch: bool) -> Iterator[int]:
    """The victim's secret bits, one per round."""
    # Under the mitigation every bit is sent as 1: with a random secret
    # a dead channel would still agree with the truth half the time,
    # which would mask the blockage.
    if flush_on_switch:
        return itertools.repeat(1)
    rng = random.Random(seed ^ 0x5EC2E7)
    return (rng.randrange(2) for _ in itertools.count())


def _status_probes(domain: Domain, training: list[Load]) -> list[StatusProbe]:
    """Replay each IP the training program loads from, in the order of
    its first load, one stride past its last load in ``domain``."""
    walks: dict[int, list[int]] = {}
    for step in training:
        walks.setdefault(step.ip, []).append(step.vaddr)
    return [StatusProbe(ip, domain.translate(2 * last - prev), last - prev)
            for ip, (*_, prev, last) in walks.items()]


def _flush_reload(machine: Machine, sc: _Scenario,
                  noise: NoiseModel) -> _Observer:
    """Flush the page before the victim runs; disturb it, then reload.
    The page is placed once: the flush and every reload use its keys."""
    cache, page = machine.cache, sc.attacker.translate(sc.page_vaddr)
    keys = cache.page_keys(page)
    strides = [s for s in sc.decode if s is not None]

    def read(rng: random.Random, victim_loads: list[int]) -> StrideDetection:
        _apply_page_noise(cache, noise, rng, page, victim_loads)
        return detect_stride(flush_reload(cache, page, keys), strides)
    # the training just ran in the attacker's domain: no switch to make
    return lambda: machine.flush(page, keys), read


@functools.lru_cache(maxsize=16)
def _eviction_sets(cache_type: type[CacheModel], config: CacheConfig,
                   page: int
                   ) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The keys and walks of ``page_eviction_sets`` for the page at
    ``page`` in an empty ``cache_type(config)``, and each walk reversed.

    The search reads only the cache's placement, which its class and
    config fix, so its result is shared by every attack that asks for
    the same three: callers only read the lists."""
    keys, walks = page_eviction_sets(cache_type(config), page)
    return keys, walks, [lines[::-1] for lines in walks]


def _prime_probe(machine: Machine, sc: _Scenario,
                 noise: NoiseModel) -> _Observer:
    """Prime one eviction set per page line; after the page noise, stray
    traffic may evict one member per set (read as a hit), then probe.
    The sets' keys and walks, both ways, are found once per process for
    each cache class, geometry and page, and shared read-only."""
    cache, page = machine.cache, sc.attacker.translate(sc.page_vaddr)
    strides = [s for s in sc.decode if s is not None]
    keys, walks, reversed_walks = _eviction_sets(type(cache), cache.config,
                                                 page)

    def read(rng: random.Random, victim_loads: list[int]) -> StrideDetection:
        _apply_page_noise(cache, noise, rng, page, victim_loads)
        draw, p_evict = rng.random, noise.p_evict
        for lines in walks:
            if draw() < p_evict:
                cache.flush_line(lines[0] << LINE_SHIFT)
        evicted = probe(cache, keys, reversed_walks)
        return detect_stride({ln for ln, hit in enumerate(evicted) if hit},
                             strides)
    return lambda: prime(cache, keys, walks), read


def _status_probe(machine: Machine, sc: _Scenario,
                  noise: NoiseModel) -> _Observer:
    """Read the table: the victim's load retrained its arm's entry, so
    that stride died.  ``detected`` only when exactly one stride died."""
    probes = _status_probes(sc.attacker, sc.training)

    def read(rng: random.Random, victim_loads: list[int]) -> StrideDetection:
        alive = prefetcher_status_probe(
            machine, probes, [rng.random() < noise.p_evict for _ in probes])
        dead = sorted({p.stride // LINE_BYTES
                       for p, ok in zip(probes, alive) if not ok})
        return StrideDetection(dict.fromkeys(dead, 1),
                               dead[0] if len(dead) == 1 else None,
                               len(dead) > 1)
    return lambda: None, read


_OBSERVERS = {"prime_probe": _prime_probe, "flush_reload": _flush_reload,
              "status_probe": _status_probe}
# variants 2 and 3 leak through a shared page, which only reloads can read
ATTACK_CHANNELS = {1: tuple(_OBSERVERS), 2: ("flush_reload",),
                   3: ("flush_reload",)}


def _run_round(machine: Machine, sc: _Scenario, training: list[Placed],
               observer: _Observer, bit: int,
               rng: random.Random) -> StrideDetection:
    """Train with the placed ``training``, arm, run the victim's arm for
    ``bit`` and read, per round.  The arm loads from its IP a random
    line of its array, or makes no load."""
    arm, read = observer
    machine.run_program(sc.attacker, training)
    arm()
    # the victim's line is drawn anew each round, so placing it apart
    # would cost the location call its access makes; a silent arm runs
    # no step, but entering the domain still counts
    victim: list[Placed] = []
    if sc.arms[bit] is not None:
        ip, array = sc.arms[bit]
        vaddr = array + rng.randrange(_ARRAY_LINES) * LINE_BYTES
        victim.append((ip, sc.victim.translate(vaddr), None))
    return read(rng, machine.run_program(sc.victim, victim))


def _score_rounds(machine: Machine, sc: _Scenario, channel: str,
                  rounds: int, noise: NoiseModel, seed: int,
                  bits: Iterator[int]) -> list[RoundRecord]:
    """Run each round through the channel's observer and decode it."""
    observer = _OBSERVERS[channel](machine, sc, noise)
    training = machine.place(sc.attacker, sc.training)
    records = []
    for i, truth in zip(range(rounds), bits):
        detected = _run_round(machine, sc, training, observer, truth,
                              _round_rng(seed, i)).detected
        records.append(RoundRecord(i, truth, detected,
                                   sc.decode.get(detected)))
    return records


def run_attack(variant: int, channel: str, rounds: int = 200,
               noise: NoiseModel | None = None, seed: int = 0,
               flush_on_switch: bool = False,
               cache_config=None) -> AttackOutcome:
    """Run one attack variant end to end and score every round.

    Variant 1 needs victim and observer in one address space and
    supports all three observation channels.  Variants 2 (cross
    process) and 3 (user to kernel) leak through a shared page, which
    only flush+reload can read.  ``flush_on_switch`` arms the
    mitigation that clears the prefetch table on every context switch;
    mitigated runs transmit an all-ones secret so that chance agreement
    cannot dress up a dead channel as a working one.
    """
    if variant not in ATTACK_CHANNELS:
        raise UnsupportedChannelError(
            f"unknown variant {variant}; choose one of 1, 2, 3")
    if channel not in ATTACK_CHANNELS[variant]:
        allowed = ", ".join(ATTACK_CHANNELS[variant])
        raise UnsupportedChannelError(
            f"variant {variant} supports only {allowed}, not {channel!r}")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    noise = noise if noise is not None else NoiseModel()
    machine = Machine(cache_config=cache_config,
                      flush_on_switch=flush_on_switch)
    scenario = _SCENARIOS[variant](machine, seed)
    records = _score_rounds(machine, scenario, channel, rounds, noise, seed,
                            _secret_source(seed, flush_on_switch))
    return AttackOutcome(records, scenario.detail)


# --------------------------------------------------------------------------
# mitigation cost
# --------------------------------------------------------------------------


class MitigationReport(NamedTuple):
    """Prefetch coverage with and without periodic table clearing."""

    flush_period: int | None
    write_ports: int
    loads: int
    flushes: int
    reset_cycles: int
    baseline_misses: int
    prefetch_requests: int
    useful_prefetches: int
    coverage: float
    coverage_no_flush: float

    @property
    def coverage_delta(self) -> float:
        return self.coverage_no_flush - self.coverage

    def rows(self) -> list[dict]:
        return [{
            "flush_period": "" if self.flush_period is None
            else self.flush_period,
            "write_ports": self.write_ports,
            "loads": self.loads,
            "flushes": self.flushes,
            "reset_cycles": self.reset_cycles,
            "baseline_misses": self.baseline_misses,
            "prefetch_requests": self.prefetch_requests,
            "useful_prefetches": self.useful_prefetches,
            "coverage": f"{self.coverage:.6f}",
            "coverage_no_flush": f"{self.coverage_no_flush:.6f}",
            "coverage_delta": f"{self.coverage_delta:.6f}",
        }]


def synthetic_workload() -> list[tuple[int, int]]:
    """Interleave 8 stride-7 streams 16 MiB apart, one load per turn,
    144,000 loads in all: each stream's 18,000 steps span 8,064,000
    bytes, so no two overlap."""
    n_loads, n_ips, spacing = 144_000, 8, 1 << 24
    sb = stride_bytes(7)
    code_base, data_base = 0x900000, 0x20000000
    ips = [ip_with_tag(code_base + k * 0x1000, 0x10 + k)
           for k in range(n_ips)]
    loads = []
    for i in range(n_loads):
        k = i % n_ips
        step = i // n_ips
        loads.append((ips[k], data_base + k * spacing + step * sb))
    return loads


def load_trace(path: str | Path) -> list[tuple[int, int]]:
    """Parse a load trace, one ``ip_hex,vaddr_hex,domain_id`` per line,
    into (ip, address) pairs: the domain is checked, then dropped.

    Blank lines and lines starting with ``#`` are skipped.  Malformed
    lines, and values outside ``0 <= value < 2**64``, raise ValueError
    naming the file and line number; a file that is not UTF-8 text
    raises ValueError naming the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    records = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # int() ignores the whitespace around each field
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(
                f"{path}:{lineno}: expected ip_hex,vaddr_hex,domain_id, "
                f"got {line!r}")
        try:
            ip = int(parts[0], 16)
            vaddr = int(parts[1], 16)
            domain_id = int(parts[2])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: malformed field in {line!r}") from None
        if not (0 <= ip < 1 << 64 and 0 <= vaddr < 1 << 64):
            raise ValueError(f"{path}:{lineno}: ip or address outside "
                             f"0 .. 2**64 - 1 in {line!r}")
        if not 0 <= domain_id < 1 << 64:
            raise ValueError(f"{path}:{lineno}: domain outside "
                             f"0 .. 2**64 - 1 in {line!r}")
        records.append((ip, vaddr))
    return records


def mitigation_sweep(workload=None, points=((36_000, 1),),
                     cycles_per_load: int = 10,
                     cache_config=None) -> list[MitigationReport]:
    """Measure the coverage a periodic table flush costs a workload, at
    each ``(flush period, write ports)`` point.

    The workload is a list of (ip, address) loads, as produced by
    :func:`load_trace`.  Coverage is the fraction of the
    prefetcher-off miss count that prefetch hits absorb; each report
    compares a flushed run against an unflushed one on the same loads.
    Each load advances the clock by ``cycles_per_load``, which must be
    at least 1: a clock that stands still never flushes.  A period of
    None (or infinity) disables flushing.

    Only the flushed run depends on the point, so the sweep makes one
    pass over the loads.  It places each load once
    (``CacheModel.location``) and hands that placement to the
    prefetcher-off cache, to the unflushed machine and to the machine
    of each point with a period.  A point with no period never resets,
    so its report reads the unflushed run.  Every point is checked
    before the first load runs.
    """
    if cycles_per_load < 1:
        raise ValueError("cycles_per_load must be >= 1")
    # building a point's machine checks its ports and its period
    flushed = [Machine(cache_config=cache_config,
                       flush_period=None if period == math.inf else period,
                       write_ports=ports)
               for period, ports in points]
    loads = workload if workload is not None else synthetic_workload()

    base_cache = CacheModel(cache_config)  # prefetcher off
    unflushed = Machine(cache_config=cache_config)
    runs = [unflushed] + [m for m in flushed if m.flush_period is not None]
    location, access_line = base_cache.location, base_cache.access_line
    for ip, paddr in loads:
        key = location(paddr)
        access_line(key, paddr >> LINE_SHIFT)
        for machine in runs:
            machine.load(ip, paddr, key)
            machine.clock += cycles_per_load
    baseline_misses = base_cache.demand_misses

    def coverage(cache: CacheModel) -> float:
        if baseline_misses == 0:
            return 0.0
        return cache.useful_prefetch_hits / baseline_misses

    reports = []
    for machine in flushed:
        run = unflushed if machine.flush_period is None else machine
        reports.append(MitigationReport(
            flush_period=machine.flush_period,
            write_ports=machine.write_ports,
            loads=len(loads),
            flushes=run.flush_count,
            reset_cycles=run.reset_cycles,
            baseline_misses=baseline_misses,
            prefetch_requests=run.prefetch_requests,
            useful_prefetches=run.cache.useful_prefetch_hits,
            coverage=coverage(run.cache),
            coverage_no_flush=coverage(unflushed.cache),
        ))
    return reports


def mitigation_eval(workload=None, flush_period_cycles: int | None = 36_000,
                    write_ports: int = 1, cycles_per_load: int = 10,
                    cache_config=None) -> MitigationReport:
    """The one-point :func:`mitigation_sweep`."""
    [report] = mitigation_sweep(workload,
                                [(flush_period_cycles, write_ports)],
                                cycles_per_load, cache_config)
    return report
