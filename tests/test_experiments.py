"""Tests for the reverse-engineering benches, attacks and mitigation."""

import collections
import copy
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afterimage.cache import (
    CacheConfig,
    CacheModel,
    EvictionSetError,
    build_eviction_set,
    page_eviction_sets,
)
from afterimage import experiments, programs
from afterimage.experiments import (
    ATTACK_CHANNELS,
    MitigationReport,
    NoiseModel,
    UnsupportedChannelError,
    _OBSERVERS,
    _SCENARIOS,
    _Scenario,
    _apply_page_noise,
    _run_round,
    _secret_source,
    _status_probes,
    _survival,
    _survivors,
    flush_period_cycles,
    load_trace,
    mitigation_eval,
    mitigation_sweep,
    rev_conf_stride,
    rev_entries,
    rev_indexing,
    rev_page,
    rev_replacement,
    run_attack,
    synthetic_workload,
)
from afterimage.programs import Domain, Load, Machine
from afterimage.uarch import (
    LINE_BYTES,
    LINE_SHIFT,
    PAGE_BYTES,
    PAGE_LINES,
    ip_tag,
    page_frame,
)


# --------------------------------------------------------------------------
# entry indexing
# --------------------------------------------------------------------------


def _dead(rows):
    """The positions whose replay no longer fetched."""
    return [row["position"] for row in rows if not row["alive"]]


def test_indexing_matches_low_byte_only():
    result = rev_indexing()
    assert [row["offset"] for row in result.rows
            if row["triggered"]] == [0x2C]
    assert result.problems == []


def test_indexing_rows_schema():
    result = rev_indexing()
    rows = result.rows
    assert len(rows) == 256
    assert rows[0x2C] == {"offset": 0x2C, "triggered": 1}
    assert rows[0x2D] == {"offset": 0x2D, "triggered": 0}


def test_indexing_reports_each_wrong_verdict(monkeypatch):
    # every probe reads hot: the 255 untrained low bytes are mismatches
    monkeypatch.setattr(experiments, "_is_hot", lambda cache, paddr: True)
    problems = rev_indexing().problems
    assert len(problems) == 255
    assert problems == [
        f"ip low byte 0x{off:02x}: triggered=True, expected False"
        for off in range(256) if off != 0x2C]


# --------------------------------------------------------------------------
# confidence counter
# --------------------------------------------------------------------------


def _labels(result, mode):
    return [None if row["label"] == "" else row["label"]
            for row in result.rows if row["mode"] == mode]


def test_conf_stride_random_offset():
    # a confident entry fires its stale stride once, goes quiet while
    # confidence rebuilds, then fires the new stride
    result = rev_conf_stride(0)
    assert _labels(result, "random") == [7, None, 5]
    assert not [p for p in result.problems if p.startswith("random: ")]


def test_conf_stride_offset_equals_new_stride():
    # when the jump itself equals the new stride no quiet iteration occurs
    result = rev_conf_stride(0)
    assert _labels(result, "equals_st2") == [7, 5, 5]
    assert not [p for p in result.problems if p.startswith("equals_st2: ")]


def test_conf_stride_reports_each_wrong_label(monkeypatch):
    # both timed lines read hot on every load, so no stride is labelled
    monkeypatch.setattr(experiments, "_is_hot", lambda cache, paddr: True)
    assert rev_conf_stride(0).problems == [
        "random: iteration 0: fetched None, expected 7",
        "random: iteration 2: fetched None, expected 5",
        "equals_st2: iteration 0: fetched None, expected 7",
        "equals_st2: iteration 1: fetched None, expected 5",
        "equals_st2: iteration 2: fetched None, expected 5",
    ]


# --------------------------------------------------------------------------
# page boundaries
# --------------------------------------------------------------------------


def _page_verdicts(result):
    """(pool, offset_pages) -> triggered for the one-access trials, the
    first eight rows (the cold trial's two rows follow them)."""
    return {(row["pool"], row["offset_pages"]): bool(row["triggered"])
            for row in result.rows[:8]}


def test_page_reclaimed_pool_always_triggers():
    verdicts = _page_verdicts(rev_page())
    for off in (1, 2, 3, 4):
        assert verdicts[("reclaimed", off)] is True


def test_page_locked_pool_stops_after_next_page():
    verdicts = _page_verdicts(rev_page())
    assert verdicts[("locked", 1)] is True
    for off in (2, 3, 4):
        assert verdicts[("locked", off)] is False


def test_page_cold_translation_needs_second_access():
    # first access only installs the translation; the repeat triggers
    result = rev_page()
    assert [(row["tlb"], row["access"], row["triggered"])
            for row in result.rows[8:]] == [("cold", 1, 0), ("cold", 2, 1)]
    assert result.problems == []


def test_page_reports_each_wrong_verdict(monkeypatch):
    # every trial fetches on every access, even from a cold frame
    monkeypatch.setattr(experiments, "_page_trial",
                        lambda *args, **kwargs: [True, True])
    assert rev_page().problems == [
        "locked pool, 2 page(s) ahead: triggered=True, expected False",
        "locked pool, 3 page(s) ahead: triggered=True, expected False",
        "locked pool, 4 page(s) ahead: triggered=True, expected False",
        "cold next-page trial: expected (first=False, second=True), "
        "got (True, True)",
    ]
    # every first access misses, so only the cold trial reads as documented
    monkeypatch.setattr(experiments, "_page_trial",
                        lambda *args, **kwargs: [False, True])
    assert rev_page().problems == [
        "locked pool, 1 page(s) ahead: triggered=False, expected True",
        *(f"reclaimed pool, {off} page(s) ahead: triggered=False, "
          "expected True" for off in (1, 2, 3, 4)),
    ]


# --------------------------------------------------------------------------
# capacity and replacement
# --------------------------------------------------------------------------


def test_entries_capacity_is_twenty_four():
    rows = rev_entries().rows
    dead = {n: _dead(row for row in rows if row["n_ips"] == n)
            for n in (24, 26, 30)}
    assert dead[24] == []
    assert dead[26] == [1, 2]
    assert dead[30] == [1, 2, 3, 4, 5, 6]


def test_entries_verify_clean():
    assert rev_entries().problems == []


def test_replacement_victims_follow_refreshed_prefix():
    result = rev_replacement()
    assert _dead(result.rows) == [9, 10, 11, 12, 13, 14, 15, 16]
    assert result.problems == []


def test_replacement_without_refresh_evicts_from_front():
    assert _survivors(24, 0, 8) == [False] * 8 + [True] * 16


def test_replacement_no_newcomers_no_victims():
    assert _survivors(24, 8, 0) == [True] * 24


def test_survival_verify_reports_one_line():
    # 26 streams that all survived: the two oldest should have died
    assert _survival([True] * 26, [1, 2]).problems == [
        "dead positions [], expected [1, 2]"]


# --------------------------------------------------------------------------
# attacks: allowed pairs and zero-noise transmission
# --------------------------------------------------------------------------


def test_disallowed_pairs_raise():
    for channel in ("prime_probe", "status_probe"):
        for variant in (2, 3):
            with pytest.raises(UnsupportedChannelError):
                run_attack(variant, channel, rounds=1)
    with pytest.raises(UnsupportedChannelError):
        run_attack(4, "flush_reload", rounds=1)


def test_all_supported_pairs_transmit_perfectly():
    for variant, channels in ATTACK_CHANNELS.items():
        for channel in channels:
            rounds = 20 if channel == "prime_probe" else 60
            outcome = run_attack(variant, channel, rounds=rounds, seed=5)
            assert outcome.success_rate == 1.0, (variant, channel)


# every geometry that gives each of a page's lines a set of its own:
# 2**s slices and 2**e sets per slice, with s + e >= 6
@st.composite
def _own_set_geometry(draw):
    s = draw(st.integers(0, 4))
    e = draw(st.integers(max(0, 6 - s), 12))
    return CacheConfig(slices=1 << s, sets_per_slice=1 << e,
                       associativity=1 << draw(st.integers(0, 4)))


@settings(deadline=None)
@given(config=_own_set_geometry(), seed=st.integers(0, (1 << 32) - 1),
       pair=st.sampled_from([(variant, channel)
                             for variant, channels in ATTACK_CHANNELS.items()
                             for channel in channels]))
def test_every_pair_transmits_perfectly_when_each_line_has_its_own_set(
        config, seed, pair):
    # below 64 sets a page's lines share sets, and no rate is claimed
    assert config.slices * config.sets_per_slice >= PAGE_LINES
    outcome = run_attack(*pair, 20, seed=seed, cache_config=config)
    assert outcome.success_rate == 1.0


def test_attack_records_schema():
    outcome = run_attack(1, "flush_reload", rounds=10, seed=2)
    rows = outcome.rows()
    assert [row["round"] for row in rows] == list(range(10))
    for row, record in zip(rows, outcome.records):
        assert row["truth"] == record.truth
        assert row["success"] == int(record.success)
        assert record.detected in (7, 13)
        assert record.inferred == record.truth


def test_attack_is_seed_reproducible():
    first = run_attack(2, "flush_reload", rounds=40, seed=11)
    second = run_attack(2, "flush_reload", rounds=40, seed=11)
    assert first.records == second.records
    assert first.rows() == second.rows()
    other = run_attack(2, "flush_reload", rounds=40, seed=12)
    assert other.records != first.records


def test_attack_memory_stays_bounded_in_rounds():
    # per round an attack keeps only its RoundRecord; nothing else a
    # round makes may outlive it
    def peak(rounds):
        tracemalloc.start()
        try:
            run_attack(2, "flush_reload", rounds=rounds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_round = (peak(1000) - peak(200)) / 800
    assert per_round < 512, f"{per_round:.0f} B per round"


def _sets_per_line(cache, page_paddr):
    """Reference: search each page line's eviction set on its own, from
    a pool that skips every line of the page."""
    sets = cache.config.sets_per_slice
    keys, walks = [], []
    for line in range(PAGE_LINES):
        own = (page_paddr >> LINE_SHIFT) + line
        key = cache.location(own << LINE_SHIFT)
        set_index = key % sets
        pool = ((set_index + k * sets) * LINE_BYTES for k in range(1, 4096)
                if (set_index + k * sets) * LINE_BYTES // PAGE_BYTES
                != page_paddr // PAGE_BYTES)
        keys.append(key)
        walks.append(build_eviction_set(cache, key, pool))
    return keys, walks


def _search_outcome(search):
    try:
        return search()
    except EvictionSetError as exc:
        return str(exc)


@pytest.mark.parametrize("slices", [1, 4, 64])
@pytest.mark.parametrize("sets_per_slice", [1, 16, 2048])
@pytest.mark.parametrize("associativity", [1, 16, 64])
def test_page_eviction_sets_match_per_line_search(slices, sets_per_slice,
                                                  associativity):
    # 64 ways in 64 slices outrun the pool for some high parts only, so
    # the search must fail at the same line with the same message; with
    # 16 sets page 1024 fails only from line 16, its second high part
    cache = CacheModel(CacheConfig(slices=slices,
                                   sets_per_slice=sets_per_slice,
                                   associativity=associativity))
    rng = random.Random(slices * sets_per_slice * associativity)
    pages = [0, PAGE_BYTES, 1024 * PAGE_BYTES] + [
        rng.randrange(1 << 28) * PAGE_BYTES for _ in range(2)]
    for page in pages:
        want = _search_outcome(lambda: _sets_per_line(cache, page))
        got = _search_outcome(lambda: page_eviction_sets(cache, page))
        assert got == want, page
        if isinstance(got, str):
            continue
        # each walk holds associativity distinct lines that location
        # places at its line's key, and never a line of the page
        keys, walks = got
        first = page >> LINE_SHIFT
        assert keys == [cache.location(page + ln * LINE_BYTES)
                        for ln in range(PAGE_LINES)]
        assert len(walks) == PAGE_LINES
        for key, lines in zip(keys, walks):
            assert len(set(lines)) == len(lines) == associativity
            assert not any(first <= li < first + PAGE_LINES for li in lines)
            assert all(cache.location(li << LINE_SHIFT) == key
                       for li in lines)


class _OtherCacheModel(CacheModel):
    """A cache class of its own, with ``CacheModel``'s placement."""


_NOISY = NoiseModel(p_evict=0.3, p_extra_load=1.0, next_line_noise=True)


def _v1_page_sets():
    """The memoised eviction sets of variant 1's watched page."""
    machine = Machine()
    sc = _SCENARIOS[1](machine, 0)
    return experiments._eviction_sets(type(machine.cache),
                                      machine.cache.config,
                                      sc.attacker.translate(sc.page_vaddr))


def test_shared_eviction_sets_give_the_attack_of_a_fresh_search():
    def attack():
        outcome = run_attack(1, "prime_probe", 20, noise=_NOISY, seed=6)
        return outcome.records, outcome.detail

    first = attack()
    # another geometry and another cache class take entries of their own
    run_attack(1, "prime_probe", 20, noise=_NOISY, seed=6,
               cache_config=CacheConfig(slices=8, sets_per_slice=8,
                                        associativity=4))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(programs, "CacheModel", _OtherCacheModel)
        run_attack(1, "prime_probe", 20, noise=_NOISY, seed=6)
    assert attack() == first
    experiments._eviction_sets.cache_clear()
    assert attack() == first


def test_an_attack_leaves_the_shared_eviction_sets_as_they_were():
    # a fresh search: an entry that an earlier attack changed would
    # already match what this attack leaves of it
    experiments._eviction_sets.cache_clear()
    entry = _v1_page_sets()
    before = copy.deepcopy(entry)
    hits = experiments._eviction_sets.cache_info().hits
    run_attack(1, "prime_probe", 20, noise=_NOISY, seed=7)
    assert experiments._eviction_sets.cache_info().hits == hits + 1
    assert _v1_page_sets() is entry
    assert entry == before


# --------------------------------------------------------------------------
# the victim: secret bits and branch arms
# --------------------------------------------------------------------------


def _bits(seed, flush_on_switch, n=64):
    return list(itertools.islice(_secret_source(seed, flush_on_switch), n))


def test_secret_bits_follow_the_seed():
    assert _bits(42, False) == _bits(42, False)
    assert set(_bits(42, False)) == {0, 1}
    # the mitigation sends all ones, so a dead channel cannot agree by chance
    assert set(_bits(42, True)) == {1}


def test_victim_arms_carry_the_trained_tags_into_the_watched_page():
    def watched(sc, array):
        last = array + (48 - 1) * LINE_BYTES
        return {page_frame(sc.victim.translate(a)) for a in (array, last)} \
            == {page_frame(sc.attacker.translate(sc.page_vaddr))}

    for variant in (1, 2):
        sc = _SCENARIOS[variant](Machine(), 0)
        assert {bit: ip_tag(ip) for bit, (ip, _) in sc.arms.items()} == {
            1: 0x3A, 0: 0xB4}
        assert all(watched(sc, array) for _, array in sc.arms.values())
    sc = _SCENARIOS[3](Machine(), 0)
    ip, array = sc.arms[1]
    assert ip_tag(ip) == 0x4B and watched(sc, array)
    assert sc.arms[0] is None


def test_status_probes_replay_each_trained_ip_one_stride_past_its_walk():
    sc = _SCENARIOS[1](Machine(), 0)
    probes = _status_probes(sc.attacker, sc.training)
    assert [(p.ip, p.replay_addr, p.stride) for p in probes] == [
        (0x40003A, 0x10540, 448), (0x4010B4, 0x129C0, 832)]


class _Draws:
    """A stand-in rng whose random() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_status_observer_reads_its_detection_from_the_dead_strides():
    def status_round(bit, noise, rng):
        machine = Machine()
        sc = _SCENARIOS[1](machine, 0)
        arm, read = _OBSERVERS["status_probe"](machine, sc, noise)
        machine.run_program(sc.attacker,
                            machine.place(sc.attacker, sc.training))
        arm()
        victim_loads = []
        if bit is not None:
            ip, array = sc.arms[bit]
            line = random.Random(1).randrange(48)
            victim_loads = machine.run_program(sc.victim, machine.place(
                sc.victim, [Load(ip, array + line * LINE_BYTES)]))
        return read(rng, victim_loads)

    # nothing disturbed: every trained entry still fetches
    quiet = status_round(None, NoiseModel(), random.Random(0))
    assert (quiet.support, quiet.detected, quiet.ambiguous) == (
        {}, None, False)
    # the victim's if arm retrains the stride-7 entry; the else arm 13
    for bit, stride in ((1, 7), (0, 13)):
        got = status_round(bit, NoiseModel(), random.Random(0))
        assert (got.support, got.detected, got.ambiguous) == (
            {stride: 1}, stride, False)
    # a drop flag on the else probe kills a second entry: ambiguous
    both = status_round(1, NoiseModel(p_evict=0.5), _Draws(0.9, 0.1))
    assert (both.support, both.detected, both.ambiguous) == (
        {7: 1, 13: 1}, None, True)


@pytest.mark.parametrize("variant, channel", [
    (variant, channel) for variant, channels in ATTACK_CHANNELS.items()
    for channel in channels])
def test_every_pair_reaches_its_sidechannel_functions(variant, channel,
                                                      monkeypatch):
    # tracing wraps these names where experiments looks them up, so an
    # observer that bypasses them would escape its span
    calls = collections.Counter()

    def counting(name):
        fn = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("prime", "probe", "flush_reload",
                 "prefetcher_status_probe", "detect_stride"):
        monkeypatch.setattr(experiments, name, counting(name))
    run_attack(variant, channel, rounds=2, seed=1)
    if channel == "prime_probe":
        assert calls["prime"] == calls["probe"] == 2
    elif channel == "flush_reload":
        # variant 3's tag search reloads the page before the rounds
        assert calls["flush_reload"] >= 2
    else:
        assert calls["prefetcher_status_probe"] == 2
        assert calls["detect_stride"] == 0


def test_a_loading_arm_draws_one_line_and_a_silent_arm_none():
    victim = Domain("victim", phys_offset=0x20000000)
    sc = _Scenario(Domain("attacker"), [], 0x30000, victim,
                   {1: (0x70003A, 0x30000), 0: None}, {}, {})
    machine = Machine()
    seen = []
    observer = (lambda: None, lambda rng, loads: seen.append(loads))
    rng, twin = random.Random(5), random.Random(5)
    for _ in range(100):
        line = twin.randrange(48)
        _run_round(machine, sc, [], observer, 1, rng)
        paddr = victim.translate(0x30000 + line * LINE_BYTES)
        assert seen.pop() == [paddr]
        t = machine.table
        assert t.entry(t.lookup(0x3A)).last_addr == paddr
    assert rng.getstate() == twin.getstate()
    _run_round(machine, sc, [], observer, 0, rng)
    assert seen.pop() == [] and machine.current_domain == "victim"
    assert rng.getstate() == twin.getstate()


def test_kernel_attack_finds_matching_group_via_channel():
    outcome = run_attack(3, "flush_reload", rounds=30, seed=4)
    # tag 0x4B lives among tags 72..95, covered by the fourth group
    assert outcome.detail["matched_group"] == 3
    assert outcome.success_rate == 1.0


# --------------------------------------------------------------------------
# noise
# --------------------------------------------------------------------------


def test_noise_model_validates_probabilities():
    with pytest.raises(ValueError):
        NoiseModel(p_evict=1.5)
    with pytest.raises(ValueError):
        NoiseModel(p_extra_load=-0.1)


def test_eviction_noise_sweep_is_monotone():
    rates = []
    for p in (0.0, 0.02, 0.05, 0.1, 0.2):
        outcome = run_attack(1, "flush_reload", rounds=120,
                             noise=NoiseModel(p_evict=p), seed=3)
        rates.append(outcome.success_rate)
    assert rates[0] == 1.0
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 1.0


def test_small_eviction_noise_keeps_accuracy_high():
    outcome = run_attack(1, "flush_reload", rounds=200,
                         noise=NoiseModel(p_evict=0.01), seed=3)
    assert outcome.success_rate >= 0.9


def test_adjacent_line_noise_does_not_fool_the_detector():
    # neighbours sit one line off either candidate stride, so the pair
    # count for 7 and 13 is untouched
    outcome = run_attack(1, "flush_reload", rounds=100,
                         noise=NoiseModel(next_line_noise=True), seed=3)
    assert outcome.success_rate == 1.0


def test_next_line_noise_changes_prime_probe_rounds():
    # with a stray line and evictions beside it, the victim's neighbours
    # add candidate pairs; the option must move some rounds
    def rows(next_line):
        noise = NoiseModel(0.05, 1.0, next_line_noise=next_line)
        return run_attack(1, "prime_probe", rounds=20, noise=noise,
                          seed=4).rows()

    assert rows(True) != rows(False)


def test_next_line_noise_installs_neighbours_of_the_victim_loads():
    # only loads on the watched page count, and neighbours stay on it
    page = 0x600000
    victim_loads = [
        page,
        page + 10 * LINE_BYTES + 8,
        page + PAGE_BYTES + 40 * LINE_BYTES,
        page + 63 * LINE_BYTES,
    ]
    cache = CacheModel()
    _apply_page_noise(cache, NoiseModel(next_line_noise=True),
                      random.Random(0), page, victim_loads)
    cached = [ln for ln in range(64)
              if (page >> LINE_SHIFT) + ln in
              cache.sets.get(cache.location(page + ln * LINE_BYTES), ())]
    assert cached == [1, 9, 11, 62]


def test_noise_reaches_other_channels():
    pp = run_attack(1, "prime_probe", rounds=30,
                    noise=NoiseModel(p_evict=0.3), seed=3)
    status = run_attack(1, "status_probe", rounds=60,
                        noise=NoiseModel(p_evict=0.3), seed=3)
    assert pp.success_rate < 1.0
    assert status.success_rate < 1.0


# --------------------------------------------------------------------------
# mitigation: blocking and cost
# --------------------------------------------------------------------------


def test_flush_on_switch_blocks_cross_domain_attacks():
    for variant in (2, 3):
        outcome = run_attack(variant, "flush_reload", rounds=60, seed=6,
                             flush_on_switch=True)
        assert outcome.success_rate == 0.0, variant
        assert all(record.truth == 1 for record in outcome.records)


def test_flush_on_switch_spares_same_address_space_variant():
    # variant 1 never crosses a domain, so the switch flush never fires
    outcome = run_attack(1, "flush_reload", rounds=40, seed=6,
                         flush_on_switch=True)
    assert outcome.success_rate == 1.0


def test_mitigated_kernel_search_comes_up_empty():
    outcome = run_attack(3, "flush_reload", rounds=20, seed=6,
                         flush_on_switch=True)
    assert outcome.detail["matched_group"] is None


@pytest.fixture
def search_log(monkeypatch):
    """The v3 tag groups built, by index, and every program placed."""
    built, placed = {}, []
    build, place = programs._matching_group, Machine.place

    def logged_build(g, *args):
        built[g] = build(g, *args)
        return built[g]

    def logged_place(machine, domain, loads):
        placed.append(loads)
        return place(machine, domain, loads)

    monkeypatch.setattr(programs, "_matching_group", logged_build)
    monkeypatch.setattr(Machine, "place", logged_place)
    return built, placed


def test_kernel_search_builds_only_the_groups_it_tries(search_log):
    built, placed = search_log
    outcome = run_attack(3, "flush_reload", rounds=2, seed=4)
    assert outcome.detail["matched_group"] == 3
    assert list(built) == [0, 1, 2, 3]
    # the scored rounds train on the group the search stopped at
    assert placed[-1] is built[3]


def test_empty_kernel_search_builds_every_group_and_trains_group_0(
        search_log):
    built, placed = search_log
    outcome = run_attack(3, "flush_reload", rounds=2, seed=4,
                         flush_on_switch=True)
    assert outcome.detail["matched_group"] is None
    assert list(built) == list(range(20))
    assert placed[-1] is built[0]


def test_mitigation_reset_cost_identity(default_sweep):
    for ports, report in zip((1, 2, 4), default_sweep):
        assert report.write_ports == ports
        assert report.reset_cycles == report.flushes * math.ceil(24 / ports)
        assert report.flushes > 0


def test_mitigation_coverage_delta_is_small(default_sweep):
    report = default_sweep[0]
    assert report.coverage_no_flush > 0.7
    assert 0.0 <= report.coverage_delta <= 0.02


def test_mitigation_without_flushing_costs_nothing():
    for report in mitigation_sweep(points=[(None, 1), (math.inf, 1)]):
        assert report.flushes == 0
        assert report.coverage_delta == 0.0


def _reference_report(loads, period, ports, cycles_per_load):
    """One point priced on its own: three fresh runs, each load placed
    by the cache it goes to."""
    base = CacheModel()
    for _ip, paddr in loads:
        base.access(paddr)
    runs = []
    for machine in (Machine(), Machine(flush_period=period,
                                       write_ports=ports)):
        for ip, paddr in loads:
            machine.load(ip, paddr)
            machine.clock += cycles_per_load
        runs.append(machine)
    unflushed, flushed = runs
    misses = base.demand_misses
    return MitigationReport(
        flush_period=period, write_ports=ports, loads=len(loads),
        flushes=flushed.flush_count, reset_cycles=flushed.reset_cycles,
        baseline_misses=misses,
        prefetch_requests=flushed.prefetch_requests,
        useful_prefetches=flushed.cache.useful_prefetch_hits,
        coverage=flushed.cache.useful_prefetch_hits / misses,
        coverage_no_flush=unflushed.cache.useful_prefetch_hits / misses)


def test_sweep_reports_match_points_priced_alone():
    loads = synthetic_workload()[:3_000]
    points = [(None, 3), (400, 1), (400, 8), (2_000, 2), (25, 1)]
    reports = mitigation_sweep(loads, points, cycles_per_load=3)
    assert reports == [_reference_report(loads, period, ports, 3)
                       for period, ports in points]
    assert reports[0] == mitigation_eval(loads, None, 3, 3)
    assert len({r.flushes for r in reports}) == len(points)


class _Unreplayable(list):
    def __iter__(self):
        raise AssertionError("the workload was replayed")


@pytest.mark.parametrize("points, cycles_per_load", [
    ([(36_000, 1), (36_000, 0)], 10),
    ([(None, 1), (10, 1)], 10),
    ([(36_000, 1), (math.nan, 2)], 10),
    ([(36_000, 1)], 0),
])
def test_sweep_checks_every_point_before_any_run(points, cycles_per_load):
    with pytest.raises(ValueError):
        mitigation_sweep(_Unreplayable(synthetic_workload()[:8]),
                         points, cycles_per_load)


def test_mitigation_rejects_impossible_period():
    with pytest.raises(ValueError):
        mitigation_eval(flush_period_cycles=10, write_ports=1)


def test_only_plus_inf_disables_flushing():
    assert flush_period_cycles(10) == 36_000
    assert flush_period_cycles(0.05, 2.0) == 100
    assert flush_period_cycles(math.inf) is None
    for period_us, ghz in ((-math.inf, 3.6), (math.nan, 3.6), (-1.0, 3.6),
                           (1e306, 3.6), (10, math.inf), (10, math.nan),
                           (10, 0.0), (10, -1.0), (math.inf, math.inf)):
        with pytest.raises(ValueError):
            flush_period_cycles(period_us, ghz)
    loads = synthetic_workload()[:64]
    for period in (-math.inf, math.nan):
        with pytest.raises(ValueError):
            mitigation_eval(loads, flush_period_cycles=period)


def test_mitigation_report_rows(default_sweep):
    report = default_sweep[0]
    (row,) = report.rows()
    assert row["flushes"] == report.flushes
    assert row["coverage_delta"] == f"{report.coverage_delta:.6f}"
    assert isinstance(report, MitigationReport)


# --------------------------------------------------------------------------
# workloads and traces
# --------------------------------------------------------------------------


def test_synthetic_workload_interleaves_streams():
    full = synthetic_workload()
    loads = full[:16]
    ips = [ip for ip, _ in loads]
    assert ips[:8] == ips[8:]
    assert len(set(ips)) == 8
    first_ip, first_addr = loads[0]
    second_round_addr = loads[8][1]
    assert second_round_addr - first_addr == 448
    # each stream's last load lies below the next stream's first
    assert len(full) == 144_000
    assert all(full[-8 + k][1] < full[k + 1][1] for k in range(7))


def test_load_trace_roundtrip(tmp_path):
    trace = tmp_path / "loads.txt"
    trace.write_text(
        "# ip_hex,vaddr_hex,domain_id\n"
        "\n"
        "400a4b,20001c0,0\n"
        "0x7fff00f04b, 0x7a0640, 1\n")
    records = load_trace(trace)
    assert records == [(0x400A4B, 0x20001C0), (0x7FFF00F04B, 0x7A0640)]


def test_load_trace_reports_line_numbers(tmp_path):
    trace = tmp_path / "bad.txt"
    trace.write_text("400a4b,20001c0,0\nnot-hex,123,0\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_trace(trace)
    trace.write_text("400a4b,20001c0\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_trace(trace)
    # int() takes no U+001F around a field, though str.strip() would
    trace.write_text("400a4b,\x1f20001c0,0\n")
    with pytest.raises(ValueError, match="bad.txt:1: malformed field"):
        load_trace(trace)


def test_trace_workload_feeds_mitigation_eval(tmp_path):
    lines = ["# synthetic"]
    for ip, addr in synthetic_workload()[:2_000]:
        lines.append(f"{ip:x},{addr:x},0")
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(lines) + "\n")
    report = mitigation_eval(load_trace(trace), flush_period_cycles=500)
    assert report.loads == 2_000
    assert report.flushes > 0
    assert report.reset_cycles == report.flushes * 24
