"""Acceptance gate: the eleven deliverable checks, one verdict line each.

Each test prints ``[acceptance NN] PASS/FAIL <detail>`` and then asserts,
so a plain ``pytest -v`` shows one pass/fail line per criterion and
``pytest tests/test_acceptance.py -s`` shows the measured numbers too.
"""

from __future__ import annotations

import copy
import math
import time

from afterimage.cache import CacheModel, build_eviction_set
from afterimage.experiments import (
    NoiseModel,
    rev_conf_stride,
    rev_entries,
    rev_indexing,
    rev_page,
    rev_replacement,
    run_attack,
)
from afterimage.oracle import check_seed, run_equivalence_check
from afterimage.sidechannel import flush_reload, prime, probe
from afterimage.uarch import PrefetchTable, Tlb, page_frame

ALL_PAIRS = [(1, "prime_probe"), (1, "flush_reload"), (1, "status_probe"),
             (2, "flush_reload"), (3, "flush_reload")]


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


class _CalibrationCache:
    """Toy sliced LRU cache; a copy of perfbench's calibration loop, which
    tier-1 does not import."""

    def __init__(self):
        self.sets = {}
        self.accesses = 0

    def location(self, addr):
        line = addr >> 6
        folded = 0
        while line:
            folded ^= line & 3
            line >>= 2
        return folded, (addr >> 6) & 63

    def access(self, addr):
        ways = self.sets.setdefault(self.location(addr), [])
        line = addr >> 6
        self.accesses += 1
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        if len(ways) >= 8:
            ways.pop(0)
        ways.append(line)
        return False


class _Miss:
    def __init__(self, index, addr):
        self.index = index
        self.addr = addr


def _calibration_s() -> float:
    """Fastest of three runs of perfbench's fixed 700-load loop; the
    benchmark's reference host runs it in 1 ms."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        cache, misses, x = _CalibrationCache(), [], 1
        for i in range(700):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            if not cache.access((x & 0xFFFF) << 6):
                misses.append(_Miss(i, x))
        sum(miss.index for miss in misses)
        best = min(best, time.perf_counter() - start)
    return best


def test_01_table_matches_literal_update_recipe():
    check_seed(0, 64)  # first-call costs stay outside the timed window
    before = _calibration_s()
    report = run_equivalence_check(n_loads=100_000, seeds=range(10))
    after = _calibration_s()
    # the host's speed drifts; reference seconds scale the elapsed time to
    # a host that runs the calibration loop in exactly 1 ms
    reference_s = report.elapsed * 0.001 * 2 / (before + after)
    ok = report.ok and report.elapsed < 5.0
    _check(1, ok, f"10 seeds x 100000 loads: {report.mismatches} mismatches "
                  f"in {report.elapsed:.2f}s (budget 5s; "
                  f"{reference_s:.2f} reference s)")


def _dead(rows):
    return [row["position"] for row in rows if not row["alive"]]


def test_02_indexing_uses_exactly_the_low_eight_ip_bits():
    result = rev_indexing()
    offsets = [row["offset"] for row in result.rows if row["triggered"]]
    ok = offsets == [0x2C] and not result.problems
    _check(2, ok, f"256 IP variants, triggering set {offsets} "
                  f"(trained low byte 0x2c)")


def test_03_confidence_threshold_and_stride_retraining():
    result = rev_conf_stride(0)
    labels = {mode: [None if row["label"] == "" else row["label"]
                     for row in result.rows if row["mode"] == mode]
              for mode in ("random", "equals_st2")}
    ok = (labels["random"] == [7, None, 5]
          and labels["equals_st2"] == [7, 5, 5] and not result.problems)
    _check(3, ok, f"random offset -> {labels['random']}, "
                  f"offset=st2 -> {labels['equals_st2']}")


def test_04_page_boundary_and_translation_rules():
    result = rev_page()
    # the first eight rows are the one-access pool/offset cells
    verdicts = {(row["pool"], row["offset_pages"]): bool(row["triggered"])
                for row in result.rows[:8]}
    cold = tuple(bool(row["triggered"]) for row in result.rows[8:])
    expect = {("reclaimed", off): True for off in (1, 2, 3, 4)}
    expect.update({("locked", 1): True, ("locked", 2): False,
                   ("locked", 3): False, ("locked", 4): False})
    ok = (verdicts == expect and cold == (False, True)
          and not result.problems)
    _check(4, ok, f"8 pool/offset cells match, double-access cold trial "
                  f"{cold}")


def test_05_table_holds_twenty_four_streams():
    rows = rev_entries().rows
    dead = {n: _dead(row for row in rows if row["n_ips"] == n)
            for n in (24, 26, 30)}
    ok = (dead[24] == [] and dead[26] == [1, 2]
          and dead[30] == [1, 2, 3, 4, 5, 6])
    _check(5, ok, f"evicted stream positions: 24->{dead[24]}, "
                  f"26->{dead[26]}, 30->{dead[30]}")


def test_06_replacement_walks_not_recently_used_slots():
    result = rev_replacement()
    positions = _dead(result.rows)
    ok = positions == list(range(9, 17)) and not result.problems
    _check(6, ok, f"new streams displaced positions {positions}")


def test_07_attacks_succeed_and_degrade_monotonically_with_noise():
    start = time.perf_counter()
    rates = {}
    for variant, channel in ALL_PAIRS:
        rates[(variant, channel)] = run_attack(
            variant, channel, rounds=200).success_rate
    clean = all(rate == 1.0 for rate in rates.values())

    sweep = []
    for p_evict in (0.0, 0.005, 0.01, 0.02):
        noise = NoiseModel(p_evict=p_evict)
        sweep.append(run_attack(2, "flush_reload", rounds=200,
                                noise=noise, seed=3).success_rate)
    monotone = all(a >= b for a, b in zip(sweep, sweep[1:]))
    elapsed = time.perf_counter() - start
    ok = clean and monotone and sweep[2] >= 0.90 and elapsed < 30.0
    _check(7, ok, f"zero-noise rates {sorted(rates.values())}, eviction "
                  f"sweep {sweep}, {elapsed:.3f}s (budget 30s)")


def test_08_context_switch_flush_blocks_cross_domain_variants():
    rates = {variant: run_attack(variant, "flush_reload", rounds=200,
                                 flush_on_switch=True).success_rate
             for variant in (2, 3)}
    ok = all(rate <= 0.05 for rate in rates.values())
    _check(8, ok, f"flushed cross-process rate {rates[2]}, "
                  f"flushed user-to-kernel rate {rates[3]} (bound 0.05)")


def test_09_flush_overhead_is_bounded_and_reset_cost_exact(default_sweep):
    deltas = {}
    exact = True
    for ports, report in zip((1, 2, 4), default_sweep):
        deltas[ports] = report.coverage_delta
        exact &= report.reset_cycles == report.flushes * math.ceil(24 / ports)
    ok = exact and all(delta <= 0.02 for delta in deltas.values())
    _check(9, ok, f"coverage deltas {deltas} (bound 0.02), reset cost "
                  f"ceil(24/ports) per flush exact={exact}")


def test_10_observers_alone_leave_the_prefetcher_untouched():
    table, tlb, cache = PrefetchTable(), Tlb(), CacheModel()
    page = 0x340000
    tlb.access(page_frame(page))
    for i in range(4):  # give the table a live, confident entry
        target = table.observe_load(tlb, 0x40002C, page + i * 7 * 64)
        if target is not None:
            cache.install_prefetch(target)
    before = copy.deepcopy(vars(table))

    keys = [cache.location(page + line * 64) for line in (0, 7)]
    walks = [build_eviction_set(cache, key,
                                (0x800000 + k * 64 for k in range(1 << 20)))
             for key in keys]
    prime(cache, keys, walks)
    probe(cache, keys, [lines[::-1] for lines in walks])
    cache.flush_lines(page, cache.page_keys(page))
    flush_reload(cache, page, cache.page_keys(page))

    ok = vars(table) == before
    _check(10, ok, f"table state before==after across prime, probe, "
                   f"flush and reload: {ok}")


def test_11_trained_entries_reveal_the_taken_branch():
    outcome = run_attack(1, "status_probe", rounds=200)
    taken = [r for r in outcome.records if r.truth == 1]
    ok = (outcome.success_rate == 1.0 and len(taken) > 0
          and all(r.inferred == 1 for r in taken))
    _check(11, ok, f"status probe rate {outcome.success_rate} over 200 "
                   f"rounds ({len(taken)} taken-branch rounds)")
