"""Tests for the reverse-engineering benches, attacks and mitigation."""

import itertools
import math
import random
import tracemalloc

import pytest

from afterimage.cache import (
    CacheConfig,
    CacheModel,
    EvictionSetError,
    build_eviction_set,
    page_eviction_sets,
)
from afterimage.experiments import (
    ATTACK_CHANNELS,
    MitigationReport,
    NoiseModel,
    SurvivalResult,
    UnsupportedChannelError,
    _SCENARIOS,
    _apply_page_noise,
    _secret_source,
    _status_probes,
    _victim_steps,
    flush_period_cycles,
    load_trace,
    mitigation_eval,
    rev_conf_stride,
    rev_entries,
    rev_indexing,
    rev_page,
    rev_replacement,
    run_attack,
    synthetic_workload,
)
from afterimage.programs import Load, Machine
from afterimage.uarch import (
    LINE_BYTES,
    PAGE_BYTES,
    PAGE_LINES,
    ip_tag,
    line_index,
    page_frame,
)


# --------------------------------------------------------------------------
# entry indexing
# --------------------------------------------------------------------------


def test_indexing_matches_low_byte_only():
    result = rev_indexing(trained_tag=0x2C)
    assert result.matching_offsets() == [0x2C]
    assert result.verify() == []


def test_indexing_rows_schema():
    result = rev_indexing(trained_tag=0x2C)
    rows = result.rows()
    assert len(rows) == 256
    assert rows[0x2C] == {"offset": 0x2C, "triggered": 1}
    assert rows[0x2D] == {"offset": 0x2D, "triggered": 0}


def test_indexing_rejects_wide_tag():
    with pytest.raises(ValueError):
        rev_indexing(trained_tag=0x100)


# --------------------------------------------------------------------------
# confidence counter
# --------------------------------------------------------------------------


def test_conf_stride_random_offset():
    # a confident entry fires its stale stride once, goes quiet while
    # confidence rebuilds, then fires the new stride
    result = rev_conf_stride(st1=7, st2=5, tr1=4, tr2=3, offset_mode="random")
    assert result.labels == [7, None, 5]
    assert result.verify() == []


def test_conf_stride_offset_equals_new_stride():
    # when the jump itself equals the new stride no quiet iteration occurs
    result = rev_conf_stride(st1=7, st2=5, tr1=4, tr2=3,
                             offset_mode="equals_st2")
    assert result.labels == [7, 5, 5]
    assert result.verify() == []


def test_conf_stride_short_training_never_confident():
    # one training load leaves confidence below the trigger threshold,
    # so the first phase-two iteration fetches nothing
    result = rev_conf_stride(st1=7, st2=5, tr1=1, tr2=3,
                             offset_mode="random")
    assert result.labels[0] is None
    assert result.verify() == []


def test_conf_stride_validates_arguments():
    with pytest.raises(ValueError):
        rev_conf_stride(offset_mode="sideways")
    with pytest.raises(ValueError):
        rev_conf_stride(st1=5, st2=5)


# --------------------------------------------------------------------------
# page boundaries
# --------------------------------------------------------------------------


def test_page_reclaimed_pool_always_triggers():
    result = rev_page()
    for off in (1, 2, 3, 4):
        assert result.verdicts[("reclaimed", off)] is True


def test_page_locked_pool_stops_after_next_page():
    result = rev_page()
    assert result.verdicts[("locked", 1)] is True
    for off in (2, 3, 4):
        assert result.verdicts[("locked", off)] is False


def test_page_cold_translation_needs_second_access():
    # first access only installs the translation; the repeat triggers
    result = rev_page()
    assert result.cold_next_page == (False, True)
    assert result.verify() == []


# --------------------------------------------------------------------------
# capacity and replacement
# --------------------------------------------------------------------------


def test_entries_capacity_is_twenty_four():
    assert rev_entries(24).dead_positions() == []
    assert rev_entries(26).dead_positions() == [1, 2]
    assert rev_entries(30).dead_positions() == [1, 2, 3, 4, 5, 6]


def test_entries_verify_clean():
    for n in (24, 26, 30):
        assert rev_entries(n).verify() == []


def test_replacement_victims_follow_refreshed_prefix():
    result = rev_replacement(n_retrain=8, n_new=8)
    assert result.dead_positions() == [9, 10, 11, 12, 13, 14, 15, 16]
    assert result.verify() == []


def test_replacement_without_refresh_evicts_from_front():
    assert rev_replacement(0, 8).dead_positions() == list(range(1, 9))


def test_replacement_no_newcomers_no_victims():
    assert rev_replacement(8, 0).dead_positions() == []


def test_survival_verify_reports_one_line():
    # 26 streams that all survived: the two oldest should have died
    assert SurvivalResult([True] * 26, [1, 2]).verify() == [
        "dead positions [], expected [1, 2]"]
    # no closed form: nothing to check against
    assert SurvivalResult([False] * 24, None).verify() == []


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


def _mes_for_line(cache, page_paddr, line):
    """Reference: search one page line's eviction set on its own."""
    addr = page_paddr + line * LINE_BYTES
    slice_index, set_index = cache.location(addr)
    own = line_index(addr)
    sets = cache.config.sets_per_slice

    def pool():
        for k in range(1, 4096):
            candidate = set_index + k * sets
            if candidate != own:
                yield candidate * LINE_BYTES

    return build_eviction_set(cache, set_index, slice_index, pool())


def _search_outcome(search):
    try:
        return [(m.set_index, m.slice_index, m.lines) for m in search()]
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
        want = _search_outcome(lambda: [_mes_for_line(cache, page, ln)
                                        for ln in range(PAGE_LINES)])
        assert _search_outcome(
            lambda: page_eviction_sets(cache, page)) == want, page


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


def test_a_loading_arm_draws_one_line_and_a_silent_arm_none():
    rng, twin = random.Random(5), random.Random(5)
    for _ in range(100):
        line = twin.randrange(48)
        assert _victim_steps((0x70003A, 0x30000), rng) == [
            Load(0x70003A, 0x30000 + line * LINE_BYTES)]
    assert rng.getstate() == twin.getstate()
    assert _victim_steps(None, rng) == []
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
              if cache.contains(page + ln * LINE_BYTES)]
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


@pytest.fixture(scope="module")
def default_mitigation():
    # the default run replays 144,000 loads three times; the tests that
    # take it only read its report
    return mitigation_eval()


def test_mitigation_reset_cost_identity(default_mitigation):
    for ports in (1, 2, 4):
        report = (default_mitigation if ports == 1
                  else mitigation_eval(write_ports=ports))
        assert report.reset_cycles == report.flushes * math.ceil(24 / ports)
        assert report.flushes > 0


def test_mitigation_coverage_delta_is_small(default_mitigation):
    report = default_mitigation
    assert report.coverage_no_flush > 0.7
    assert 0.0 <= report.coverage_delta <= 0.02


def test_mitigation_without_flushing_costs_nothing():
    for period in (None, math.inf):
        report = mitigation_eval(flush_period_cycles=period)
        assert report.flushes == 0
        assert report.coverage_delta == 0.0


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
    loads = synthetic_workload(n_loads=64)
    for period in (-math.inf, math.nan):
        with pytest.raises(ValueError):
            mitigation_eval(loads, flush_period_cycles=period)


def test_mitigation_report_rows(default_mitigation):
    report = default_mitigation
    (row,) = report.rows()
    assert row["flushes"] == report.flushes
    assert row["coverage_delta"] == f"{report.coverage_delta:.6f}"
    assert isinstance(report, MitigationReport)


# --------------------------------------------------------------------------
# workloads and traces
# --------------------------------------------------------------------------


def test_synthetic_workload_interleaves_streams():
    loads = synthetic_workload(n_loads=16, n_ips=8)
    ips = [ip for ip, _ in loads]
    assert ips[:8] == ips[8:]
    assert len(set(ips)) == 8
    first_ip, first_addr = loads[0]
    second_round_addr = loads[8][1]
    assert second_round_addr - first_addr == 448


def test_synthetic_workload_guards_stream_overlap():
    with pytest.raises(ValueError):
        synthetic_workload(n_loads=10_000_000, spacing=1 << 20)


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


def test_trace_workload_feeds_mitigation_eval(tmp_path):
    lines = ["# synthetic"]
    for ip, addr in synthetic_workload(n_loads=2_000):
        lines.append(f"{ip:x},{addr:x},0")
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(lines) + "\n")
    report = mitigation_eval(load_trace(trace), flush_period_cycles=500)
    assert report.loads == 2_000
    assert report.flushes > 0
    assert report.reset_cycles == report.flushes * 24
