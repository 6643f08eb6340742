"""Reverse-engineering benches, attack rigs and the flush mitigation.

The ``rev_*`` functions re-run the microbenchmarks that pinned down the
stride prefetcher's behaviour: which IP bits select a table entry, how
the confidence counter gates triggering, what happens at page
boundaries, how many entries the table holds and which ones get
replaced.  Each returns a small result object whose ``verify`` method
diffs the measured verdicts against the documented behaviour, so the
CLI can self-check.

``run_attack`` drives the three covert/side-channel variants end to
end.  They are one attack in three scenarios: a shared-address-space
victim, a cross-process victim reached through a shared page, and a
kernel syscall reached through shared memory.  A scenario builder says
who trains, where the victim runs, what each arm of its secret-dependent
branch loads, which page is watched and how a detected stride decodes
to a bit; one round loop, ``_score_rounds``, then trains, draws the
secret bit, runs that arm, observes through the chosen channel and
scores each round for every variant.  ``mitigation_eval`` measures
what periodically clearing the table costs in prefetch coverage.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .cache import CacheModel, MinimalEvictionSet, page_eviction_sets
from .programs import (
    Domain,
    FlushLines,
    Load,
    Machine,
    Step,
    build_gadget,
    ip_matching_groups,
    ip_with_tag,
    stride_bytes,
)
from .sidechannel import (
    StatusProbe,
    detect_stride,
    flush_reload,
    prefetcher_status_probe,
    prime,
    probe,
)
from .uarch import (LINE_BYTES, LINE_SHIFT, PAGE_BYTES, PAGE_LINES, ip_tag,
                    page_frame)

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
        raise ValueError(f"flush period {period_us} us overflows the "
                         "cycle count")
    return round(cycles)


# --------------------------------------------------------------------------
# noise model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
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
    """

    p_evict: float = 0.0
    p_extra_load: float = 0.0
    next_line_noise: bool = False

    def __post_init__(self) -> None:
        for name in ("p_evict", "p_extra_load"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


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
    for ln in range(PAGE_LINES):
        if rng.random() < noise.p_evict:
            cache.flush_line(page_paddr + ln * LINE_BYTES)


def _apply_probe_noise(cache: CacheModel, noise: NoiseModel,
                       rng: random.Random,
                       mes_list: list[MinimalEvictionSet]) -> None:
    """Unrelated traffic landing in monitored sets: kicks one member
    out of an eviction set, which the probe then reads as a hit."""
    for mes in mes_list:
        if rng.random() < noise.p_evict:
            cache.flush_line(mes.lines[0] << LINE_SHIFT)


# --------------------------------------------------------------------------
# shared bench plumbing: each run is a fresh Machine, and a timing read
# --------------------------------------------------------------------------


def _is_hot(cache: CacheModel, paddr: int) -> bool:
    """Time one access: True when the line was already cached."""
    return cache.access(paddr) < cache.config.threshold


# --------------------------------------------------------------------------
# entry indexing: which IP bits select a table entry
# --------------------------------------------------------------------------


@dataclass
class IndexingResult:
    """Which of the 256 probe IPs reused the trained entry."""

    trained_tag: int
    triggered: list[bool]

    def matching_offsets(self) -> list[int]:
        return [off for off, hit in enumerate(self.triggered) if hit]

    def verify(self) -> list[str]:
        problems = []
        for off, hit in enumerate(self.triggered):
            want = off == self.trained_tag
            if hit != want:
                problems.append(
                    f"ip low byte 0x{off:02x}: triggered={hit}, expected {want}")
        return problems

    def rows(self) -> list[dict]:
        return [{"offset": off, "triggered": int(hit)}
                for off, hit in enumerate(self.triggered)]


def rev_indexing(trained_tag: int = 0x2C,
                 cache_config=None) -> IndexingResult:
    """Train one entry, then replay from 256 differently-tagged IPs.

    The probe IP differs from the training IP in its page bits and in
    bit 9, keeping only a chosen low byte.  A probe that stale-triggers
    the trained stride proves the table keyed solely on those eight
    bits; a probe that allocates a fresh entry fetches nothing.
    """
    if not 0 <= trained_tag <= 0xFF:
        raise ValueError("trained_tag must fit in one byte")
    sb = stride_bytes(7)
    train_page = 0x100000
    replay_page = 0x180000
    train_ip = ip_with_tag(0x400000, trained_tag)
    # several pages away and bit 9 flipped: matches nothing but the low byte
    replay_base = (0x400000 + 0x2000) ^ 0x200
    triggered = []
    for offset in range(256):
        bench = Machine(cache_config=cache_config)
        # buffer initialisation installs the translations, not the table
        bench.tlb.access(page_frame(train_page))
        bench.tlb.access(page_frame(replay_page))
        for i in range(4):
            bench.load(train_ip, train_page + i * sb)
        bench.load(ip_with_tag(replay_base, offset), replay_page)
        triggered.append(_is_hot(bench.cache, replay_page + sb))
    return IndexingResult(trained_tag, triggered)


# --------------------------------------------------------------------------
# confidence counter and stride replacement
# --------------------------------------------------------------------------


@dataclass
class ConfStrideResult:
    """Per-iteration fetch labels after switching the access stride."""

    labels: list[int | None]
    log: list[dict]
    expected: list[int | None]

    def verify(self) -> list[str]:
        problems = []
        for i, (got, want) in enumerate(zip(self.labels, self.expected)):
            if got != want:
                problems.append(
                    f"iteration {i}: fetched {got}, expected {want}")
        return problems

    def rows(self) -> list[dict]:
        return [dict(row) for row in self.log]


def rev_conf_stride(st1: int = 7, st2: int = 5, tr1: int = 4, tr2: int = 3,
                    offset_mode: str = "random", seed: int = 0,
                    cache_config=None) -> ConfStrideResult:
    """Train a stride, switch to another, and watch what gets fetched.

    Phase one walks ``tr1`` loads at stride ``st1`` lines; phase two
    walks ``tr2`` loads at stride ``st2``, starting either exactly one
    ``st2`` step past the last phase-one load (``offset_mode="equals_st2"``)
    or at a random jump (``"random"``).  After every phase-two load the
    lines one ``st1`` and one ``st2`` ahead are timed; the label is the
    stride whose line came in.  A confident entry fetches with its old
    stride once before relearning, so the first phase-two load is
    labelled ``st1``; afterwards the counter has to climb back past the
    trigger threshold before ``st2`` fetches appear.
    """
    if offset_mode not in ("random", "equals_st2"):
        raise ValueError(f"unknown offset_mode {offset_mode!r}")
    if tr1 < 1 or tr2 < 1:
        raise ValueError("both training phases need at least one load")
    if st1 == st2 or st1 < 1 or st2 < 1:
        raise ValueError("strides must be distinct positive line counts")
    sb1 = stride_bytes(st1)
    sb2 = stride_bytes(st2)
    page = 0x200000
    ip = ip_with_tag(0x400000, 0x51)
    rng = random.Random(seed)

    bench = Machine(cache_config=cache_config)
    bench.tlb.access(page_frame(page))
    last = page + (tr1 - 1) * sb1
    for i in range(tr1):
        bench.load(ip, page + i * sb1)
    if offset_mode == "equals_st2":
        start = last + sb2
    else:
        # land well clear of the phase-one footprint, on neither stride
        allowed = [j for j in range(8, 20) if j not in (st1, st2)]
        start = last + rng.choice(allowed) * LINE_BYTES
    end = start + (tr2 - 1) * sb2 + max(sb1, sb2)
    if page_frame(end) != page_frame(page):
        raise ValueError("training phases do not fit in one page")

    labels: list[int | None] = []
    log = []
    for i in range(tr2):
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
        labels.append(label)
        log.append({"iteration": i, f"st1_{st1}_hot": int(hot1),
                    f"st2_{st2}_hot": int(hot2),
                    "label": "" if label is None else label})

    first = st1 if tr1 >= 3 else None
    if offset_mode == "equals_st2":
        expected = [first] + [st2] * (tr2 - 1)
    else:
        expected = [first, None] + [st2] * (tr2 - 2)
    expected = expected[:tr2]
    return ConfStrideResult(labels, log, expected)


# --------------------------------------------------------------------------
# page boundaries: reclaimed frames vs fresh frames
# --------------------------------------------------------------------------


@dataclass
class PageResult:
    """Whether a trained entry still fetched N pages past its training.

    ``verdicts`` maps (pool, offset_pages) to the timing verdict.  The
    reclaimed pool maps every virtual page onto one recycled physical
    frame, so the walk never really leaves it; the locked pool hands
    out fresh frames, where only the immediately next page — whose
    translation the hardware pre-walks — still fetches.
    ``cold_next_page`` holds the two verdicts of the next-page trial
    when that translation starts cold: the first access only installs
    it, the second one fetches.
    """

    verdicts: dict[tuple[str, int], bool]
    cold_next_page: tuple[bool, bool]

    @staticmethod
    def _warm(pool: str, off: int) -> bool:
        """The documented rule: a trial's translation is warm, and so
        its prefetch fetches, on a reclaimed frame or the next page."""
        return pool == "reclaimed" or off == 1

    def verify(self) -> list[str]:
        problems = []
        for (pool, off), got in sorted(self.verdicts.items()):
            want = self._warm(pool, off)
            if got != want:
                problems.append(
                    f"{pool} pool, {off} page(s) ahead: "
                    f"triggered={got}, expected {want}")
        if self.cold_next_page != (False, True):
            problems.append(
                "cold next-page trial: expected (first=False, second=True), "
                f"got {self.cold_next_page}")
        return problems

    def rows(self) -> list[dict]:
        out = []
        for (pool, off), got in sorted(self.verdicts.items()):
            out.append({"pool": pool, "offset_pages": off,
                        "tlb": "warm" if self._warm(pool, off) else "cold",
                        "access": 1, "triggered": int(got)})
        for i, got in enumerate(self.cold_next_page):
            out.append({"pool": "locked", "offset_pages": 1, "tlb": "cold",
                        "access": i + 1, "triggered": int(got)})
        return out


def _page_trial(pool: str, offset_pages: int, *, cold: bool = False,
                cache_config=None) -> list[bool]:
    """Train a stream, then time its prefetch ``offset_pages`` ahead; a
    ``cold`` trial skips the next frame's pre-walk and times two accesses."""
    sb = stride_bytes(7)
    vbase = 0x300000
    if pool == "reclaimed":
        # every virtual page of the walk recycles the same physical frame
        frame0 = page_frame(0x5FA000)
        fmap = {page_frame(vbase) + i: frame0 for i in range(5)}
        dom = Domain("bench", frame_map=fmap)
    elif pool == "locked":
        dom = Domain("bench")
    else:
        raise ValueError(f"unknown pool {pool!r}")
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
        if attempt:
            bench.flush(test_paddr + sb)
        bench.load(ip, test_paddr)
        flags.append(_is_hot(bench.cache, test_paddr + sb))
    return flags


def rev_page(cache_config=None) -> PageResult:
    """Probe a trained entry one to four pages past its training walk."""
    verdicts = {}
    for pool in ("reclaimed", "locked"):
        for off in (1, 2, 3, 4):
            verdicts[(pool, off)] = _page_trial(
                pool, off, cache_config=cache_config)[0]
    cold = tuple(_page_trial("locked", 1, cold=True,
                             cache_config=cache_config))
    return PageResult(verdicts, cold)


# --------------------------------------------------------------------------
# table capacity and replacement order
# --------------------------------------------------------------------------


@dataclass
class SurvivalResult:
    """Which trained streams still fetched on replay, by position.

    ``expected_dead`` lists the positions the documented table drops,
    or is None where there is no closed form.
    """

    alive: list[bool]
    expected_dead: list[int] | None

    def dead_positions(self) -> list[int]:
        return [i + 1 for i, ok in enumerate(self.alive) if not ok]

    def verify(self) -> list[str]:
        got = self.dead_positions()
        if self.expected_dead is None or got == self.expected_dead:
            return []
        return [f"dead positions {got}, expected {self.expected_dead}"]

    def rows(self) -> list[dict]:
        return [{"position": i + 1, "alive": int(ok)}
                for i, ok in enumerate(self.alive)]


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


def rev_entries(n_ips: int, cache_config=None) -> SurvivalResult:
    """Train ``n_ips`` streams in order, then replay each one once.

    Training more streams than the table holds silently drops the
    oldest.
    """
    if not 1 <= n_ips <= 48:
        raise ValueError("n_ips must be between 1 and 48")
    return SurvivalResult(_survivors(n_ips, cache_config=cache_config),
                          list(range(1, n_ips - 23)))


def rev_replacement(n_retrain: int = 8, n_new: int = 8,
                    cache_config=None) -> SurvivalResult:
    """Fill the table, refresh a prefix, then push in new streams.

    Trains 24 streams (filling the table), re-touches the first
    ``n_retrain`` of them, trains ``n_new`` fresh streams, and replays
    every original to see which survived.  The victims come right after
    the refreshed prefix: the single-bit recency scheme evicts the
    lowest-numbered entry whose bit is clear, not the globally oldest.
    """
    if not 0 <= n_retrain <= 24 or not 0 <= n_new <= 24:
        raise ValueError("n_retrain and n_new must be between 0 and 24")
    # past 23 touches the recency bits wrap: no closed-form expectation
    expected = (list(range(n_retrain + 1, n_retrain + n_new + 1))
                if n_retrain + n_new <= 23 else None)
    return SurvivalResult(_survivors(24, n_retrain, n_new, cache_config),
                          expected)


# --------------------------------------------------------------------------
# attack rigs
# --------------------------------------------------------------------------


class UnsupportedChannelError(ValueError):
    """Raised for a variant/channel pairing that has no measurement."""


ATTACK_CHANNELS = {
    1: ("prime_probe", "flush_reload", "status_probe"),
    2: ("flush_reload",),
    3: ("flush_reload",),
}


@dataclass(frozen=True)
class RoundRecord:
    """One transmitted bit and what the observer made of it."""

    index: int
    truth: int
    detected: int | None
    inferred: int | None

    @property
    def success(self) -> bool:
        return self.inferred == self.truth


@dataclass
class AttackOutcome:
    """Everything one attack run produced, ready for CSV."""

    records: list[RoundRecord]
    detail: dict = field(default_factory=dict)

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


@dataclass
class _Scenario:
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
    training: list[Step]
    page_vaddr: int
    victim: Domain
    arms: dict[int, tuple[int, int] | None]
    decode: dict[int | None, int]
    detail: dict = field(default_factory=dict)


# Variants 1 and 2 train both arms of the victim's branch: the if arm's
# tag with one stride, the else arm's tag with another.
_IF_TAG, _ELSE_TAG = 0x3A, 0xB4
_STRIDE_IF, _STRIDE_ELSE = 7, 13
_TWO_SIDED = {_STRIDE_IF: 1, _STRIDE_ELSE: 0}
_VICTIM_CODE = 0x700000
_KERNEL_CODE = 0x7FFF00F000  # fixed: kernel text is not randomized here
_ARRAY_LINES = 48  # the victim's array; each load picks one of its lines


def _two_arms(array: int) -> dict[int, tuple[int, int]]:
    """The if arm (bit 1) and the else arm (bit 0), loading from ``array``."""
    return {1: (ip_with_tag(_VICTIM_CODE, _IF_TAG), array),
            0: (ip_with_tag(_VICTIM_CODE + 0x1000, _ELSE_TAG), array)}


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
    gadget = build_gadget(_IF_TAG, _ELSE_TAG, _STRIDE_IF, _STRIDE_ELSE)
    return _Scenario(dom, gadget, victim_page, dom, _two_arms(victim_page),
                     _TWO_SIDED)


def _cross_process(machine: Machine, seed: int) -> _Scenario:
    """Variant 2: the victim runs in another process; a shared page
    carries both the victim's array and the observer's reloads."""
    shared_vaddr, shared_paddr = 0x640000, 0x500000
    attacker = Domain("attacker", phys_offset=0x10000000)
    victim = Domain("victim", phys_offset=0x20000000)
    attacker.map_shared(shared_vaddr, shared_paddr)
    victim.map_shared(shared_vaddr, shared_paddr)
    gadget = build_gadget(_IF_TAG, _ELSE_TAG, _STRIDE_IF, _STRIDE_ELSE)
    return _Scenario(attacker, gadget, shared_vaddr, victim,
                     _two_arms(shared_vaddr), _TWO_SIDED)


def _user_kernel(machine: Machine, seed: int) -> _Scenario:
    """Variant 3: the victim load sits inside a syscall handler.

    Kernel code addresses are hidden, so the rig first hunts for a user
    IP whose low byte collides with the handler's load: it trains
    groups of 24 tag-consecutive streams and checks after a forced
    syscall whether the trained stride appeared on the shared page.
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
    groups = ip_matching_groups(n_groups=20, group_size=24,
                                stride_lines=stride, iterations=3)
    flush_prog = [FlushLines(shared_paddr, PAGE_LINES)]

    # Each group gets a few tries: a failed probe's own load allocates
    # an entry right where the next training pass recycles slots, so
    # the first pass over a matching group can lose the one entry that
    # matters.  A repeat finds the table mostly trained and keeps it.
    search_rng = random.Random(seed * 7919 + 13)
    matched = None
    for g, group_prog in enumerate(groups):
        for _attempt in range(3):
            machine.run_program(user, group_prog)
            machine.run_program(user, flush_prog)
            # the search forces the loading arm with known inputs
            machine.run_program(kernel, _victim_steps(arms[1], search_rng))
            observed = flush_reload(machine.cache, shared_paddr, search_rng)
            if detect_stride(observed, [stride]).detected == stride:
                matched = g
                break
        if matched is not None:
            break
    # nothing matched (e.g. table flushed on every switch): carry on
    # with an arbitrary group so the scored rounds still run honestly
    group_prog = groups[matched if matched is not None else 0]
    return _Scenario(user, group_prog, shared_paddr, kernel, arms,
                     {stride: 1, None: 0}, detail={"matched_group": matched})


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


def _victim_steps(arm: tuple[int, int] | None,
                  rng: random.Random) -> list[Step]:
    """One arm of the victim's branch: a load from its IP of a random
    line of its array, or nothing for an arm that makes no load."""
    if arm is None:
        return []
    ip, array = arm
    return [Load(ip, array + rng.randrange(_ARRAY_LINES) * LINE_BYTES)]


def _status_probes(domain: Domain, training: list[Step]) -> list[StatusProbe]:
    """Replay each IP the training program loads from, in the order of
    its first load, one stride past its last load in ``domain``."""
    walks: dict[int, list[int]] = {}
    for step in training:
        walks.setdefault(step.ip, []).append(step.vaddr)
    return [StatusProbe(ip, domain.translate(2 * last - prev), last - prev)
            for ip, (*_, prev, last) in walks.items()]


def _score_rounds(machine: Machine, sc: _Scenario, channel: str,
                  rounds: int, noise: NoiseModel, seed: int,
                  bits: Iterator[int]) -> list[RoundRecord]:
    """Train, let the victim run the arm of the round's secret bit,
    observe the page and decode, per round.

    Flush+reload empties the page before the victim runs; prime+probe
    primes one eviction set per page line instead.  Both then see the
    page noise.  The status probe reads the table, not the page.
    """
    cache = machine.cache
    page_paddr = sc.attacker.translate(sc.page_vaddr)
    flush_prog = [FlushLines(sc.page_vaddr, PAGE_LINES)]
    strides = [s for s in sc.decode if s is not None]
    if channel == "prime_probe":
        mes_list = page_eviction_sets(cache, page_paddr)
    elif channel == "status_probe":
        probes = _status_probes(sc.attacker, sc.training)
    records = []
    for i in range(rounds):
        rng = _round_rng(seed, i)
        machine.run_program(sc.attacker, sc.training)
        if channel == "flush_reload":
            machine.run_program(sc.attacker, flush_prog)
        elif channel == "prime_probe":
            baseline = prime(cache, mes_list)
        truth = next(bits)
        # a silent arm runs no step, but entering the domain still counts
        victim_loads = machine.run_program(
            sc.victim, _victim_steps(sc.arms[truth], rng))

        if channel == "status_probe":
            # the victim's load retrained the entry of the arm it took
            dropped = {ip_tag(p.ip) for p in probes
                       if rng.random() < noise.p_evict}
            alive = prefetcher_status_probe(machine, probes,
                                            drop_targets=dropped)
            dead = [p.stride // LINE_BYTES for p in probes
                    if not alive[ip_tag(p.ip)]]
            detected = dead[0] if len(dead) == 1 else None
        else:
            _apply_page_noise(cache, noise, rng, page_paddr, victim_loads)
            if channel == "prime_probe":
                _apply_probe_noise(cache, noise, rng, mes_list)
                evicted = probe(cache, mes_list, baseline)
                observed = {ln for ln, hit in enumerate(evicted) if hit}
            else:
                observed = flush_reload(cache, page_paddr, rng)
            detected = detect_stride(observed, strides).detected
        inferred = sc.decode.get(detected)
        records.append(RoundRecord(i, truth, detected, inferred))
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


@dataclass
class MitigationReport:
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


def synthetic_workload(n_loads: int = 144_000, n_ips: int = 8,
                       spacing: int = 1 << 24) -> list[tuple[int, int]]:
    """Interleave ``n_ips`` fixed-stride streams, one load per turn."""
    sb = stride_bytes(7)
    code_base, data_base = 0x900000, 0x20000000
    ips = [ip_with_tag(code_base + k * 0x1000, 0x10 + k)
           for k in range(n_ips)]
    if n_loads // n_ips * sb >= spacing:
        raise ValueError("streams would overlap; increase spacing")
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
        parts = [p.strip() for p in line.split(",")]
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


def mitigation_eval(workload=None, flush_period_cycles: int | None = 36_000,
                    write_ports: int = 1, cycles_per_load: int = 10,
                    cache_config=None) -> MitigationReport:
    """Measure the coverage a periodic table flush costs a workload.

    The workload is a list of (ip, address) loads, as produced by
    :func:`load_trace`.  Coverage is the fraction of the
    prefetcher-off miss count that prefetch hits absorb; the report
    compares a flushed run against an unflushed one on the same loads.
    Each load advances the clock by ``cycles_per_load``, which must be
    at least 1: a clock that stands still never flushes.  A period of
    None (or infinity) disables flushing.
    """
    if cycles_per_load < 1:
        raise ValueError("cycles_per_load must be >= 1")
    if flush_period_cycles == math.inf:
        flush_period_cycles = None
    # building the flushed machine checks the ports and the period; with
    # no period it never resets, so its replay is the unflushed one
    flushed = Machine(cache_config=cache_config,
                      flush_period=flush_period_cycles,
                      write_ports=write_ports)
    unflushed = (flushed if flush_period_cycles is None
                 else Machine(cache_config=cache_config))
    loads = workload if workload is not None else synthetic_workload()

    base_cache = CacheModel(cache_config)  # prefetcher off
    for _ip, paddr in loads:
        base_cache.access(paddr)
    baseline_misses = base_cache.demand_misses
    for machine in dict.fromkeys((unflushed, flushed)):  # each one once
        for ip, paddr in loads:
            machine.load(ip, paddr)
            machine.clock += cycles_per_load

    def coverage(cache: CacheModel) -> float:
        if baseline_misses == 0:
            return 0.0
        return cache.useful_prefetch_hits / baseline_misses

    return MitigationReport(
        flush_period=flush_period_cycles,
        write_ports=write_ports,
        loads=len(loads),
        flushes=flushed.flush_count,
        reset_cycles=flushed.reset_cycles,
        baseline_misses=baseline_misses,
        prefetch_requests=flushed.prefetch_requests,
        useful_prefetches=flushed.cache.useful_prefetch_hits,
        coverage=coverage(flushed.cache),
        coverage_no_flush=coverage(unflushed.cache),
    )
