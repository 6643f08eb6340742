"""Pinned CLI outputs: every CSV must keep its recorded sha256.

The digests were recorded at a fixed revision of the simulator.  A
refactor that changes no behaviour leaves them all as they are; a
change that is meant to alter an output must re-record the digest of
that case and say why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from afterimage.cli import main


def _trace() -> str:
    """600 loads from six interleaved streams over two domains: short
    and page-crossing strides, a backward walk and stray jumps."""
    strides = (448, 1600, -704, 64, 2040, 896)
    lines = []
    for i in range(600):
        k = i % 6
        step = i // 6
        vaddr = 0x10000000 + k * 0x1000000 + 0x80000 + step * strides[k]
        if i % 37 == 0:
            vaddr += 0x123440
        ip = 0x400000 + k * 0x1000 + 0x20 + 11 * k
        lines.append(f"{ip:#x},{vaddr:#x},{k % 2}")
    return "\n".join(lines) + "\n"


# a non-default cache: twice the slices, half the sets and half the ways
_GEOMETRY = ("cache_slices=8\n"
             "cache_sets_per_slice=1024\n"
             "cache_associativity=8\n")

# a tiny cache: the page's 64 lines share 32 sets of 4 ways
_SMALL_GEOMETRY = ("cache_slices=2\n"
                   "cache_sets_per_slice=16\n"
                   "cache_associativity=4\n")


def _write_inputs() -> None:
    """Write the files the cases name by relative path: the load trace
    and the cache geometry configs."""
    Path("trace.txt").write_text(_trace())
    Path("geometry.cfg").write_text(_GEOMETRY)
    Path("small.cfg").write_text(_SMALL_GEOMETRY)


def _attack(variant, channel, *extra):
    return ["attack", "--variant", str(variant), "--channel", channel,
            "--rounds", "20", "--seed", "3", *extra, "--output", "out.csv"]


# name -> (argv, {output file: sha256})
CASES = {
    "reveng_all": (
        ["reveng", "--which", "all", "--out-dir", "."],
        {"reveng_indexing.csv":
         "ea1d9697f2f9015d153ade30b24a61d0ed0017fdaaaf03b4206ad69dac6ba7df",
         "reveng_confstride.csv":
         "020d63898bd1234265f0dbb3c043d281b617b9afa5d7ce75e8fec72744f8ed8f",
         "reveng_page.csv":
         "8d764b6ac338f1085f0f4b859a1f31e7ebe91aabac168adcbd70b742129b8c06",
         "reveng_entries.csv":
         "9ebc346a18e05ccb5d39aad367d6dd7a41e41230dc3b38625269903db926d434",
         "reveng_replacement.csv":
         "3e2cfee96b92a203d5a9a0101477aed517f898e3182c101bb451af5720649954"}),
    "mitigate_flushed": (
        ["mitigate", "--trace", "trace.txt", "--period-us", "0.25",
         "--write-ports", "3", "--output", "out.csv"],
        {"out.csv":
         "bff23db7c874623a0d6335be6d44082b449559d147744a1a94c130291c74df2b"}),
    "mitigate_unflushed": (
        ["mitigate", "--trace", "trace.txt", "--period-us", "inf",
         "--output", "out.csv"],
        {"out.csv":
         "f2a84aa258d6dd316f6de51a383038c0d04fd08a0399a592d8349b62050bcd34"}),
    "v1_prime_probe": (
        _attack(1, "prime_probe", "--noise-evict", "0.01"),
        {"out.csv":
         "55f02a9849a8b1fdf475f467ff52888ada74923d80e75ef9bb185ba9c69e5736"}),
    "v1_flush_reload": (
        _attack(1, "flush_reload", "--noise-evict", "0.01",
                "--noise-load", "0.2"),
        {"out.csv":
         "a335349d12688345685b6cdcf5937285259c2a8ff863cdf17a2d18aff9cee1ee"}),
    "v1_status_probe": (
        _attack(1, "status_probe", "--noise-evict", "0.05"),
        {"out.csv":
         "c54475e90b16e6e301750a498d78a6a2165b1b33515f18dd64e842ab73e76d03"}),
    "v2_flush_reload": (
        _attack(2, "flush_reload", "--next-line-noise"),
        {"out.csv":
         "5ef36bebf9d7dc5a535ce2717ab9bb1941e67f3881fd4846436eadae79d906a4"}),
    "v3_flush_reload": (
        _attack(3, "flush_reload"),
        {"out.csv":
         "2138f17a38c08ff7352dfe97596b084b040a9904770f3767d02332735c7fe707"}),
    "v2_flush_on_switch": (
        _attack(2, "flush_reload", "--flush-on-switch"),
        {"out.csv":
         "497a7738db6470d947845637805d9dcbfaef0f0e1d00088f2fe537114c4a53ee"}),
    "v3_flush_on_switch": (
        _attack(3, "flush_reload", "--flush-on-switch"),
        {"out.csv":
         "9e71be8d7633c55969e7de044cadc7dc890416c5e80a92c1cca4b475a28261ea"}),
    # victim lines and page noise feed prime+probe; next-line noise alone
    # adds no candidate pair, so the stray line and evictions are needed
    "v1_prime_probe_page_noise": (
        _attack(1, "prime_probe", "--next-line-noise", "--noise-load", "1.0",
                "--noise-evict", "0.05"),
        {"out.csv":
         "45a60294909b29f885d33fdaee50a0dfd5443cfbc3dfe387afd3d5957f70f146"}),
    # eviction sets of 8 ways over 8 slices, with members kicked out
    "v1_prime_probe_geometry": (
        _attack(1, "prime_probe", "--config", "geometry.cfg",
                "--noise-evict", "0.05"),
        {"out.csv":
         "b531a4a84af123b53c5751f4cd714a598a4cc1a60bc1c12f12b1e3229fd5e6ae"}),
    # the same geometry as flags, which win over every entry of small.cfg
    "v1_prime_probe_geometry_flags": (
        _attack(1, "prime_probe", "--config", "small.cfg",
                "--cache-slices", "8", "--cache-sets-per-slice", "1024",
                "--cache-associativity", "8", "--noise-evict", "0.05"),
        {"out.csv":
         "b531a4a84af123b53c5751f4cd714a598a4cc1a60bc1c12f12b1e3229fd5e6ae"}),
    # 64 sets of 4 ways over 8 slices: each page line has a set of its
    # own only while all three slice bits fold apart
    "v1_prime_probe_eight_slices": (
        ["attack", "--variant", "1", "--channel", "prime_probe",
         "--rounds", "20", "--seed", "0", "--cache-slices", "8",
         "--cache-sets-per-slice", "8", "--cache-associativity", "4",
         "--output", "out.csv"],
        {"out.csv":
         "366a71e07146369089b15776b048138bfd12e234ff7ec67f50558e90a9583caa"}),
    "v1_flush_on_switch": (
        _attack(1, "flush_reload", "--flush-on-switch"),
        {"out.csv":
         "7c4749a89982f9193fe75af3e21a1811dd80d39166cd8e82048e772c0ba57f11"}),
    "v3_page_noise": (
        _attack(3, "flush_reload", "--noise-evict", "0.1",
                "--noise-load", "1.0", "--next-line-noise"),
        {"out.csv":
         "ab1704c2dfa1facf06cc93c3357382123312f36198e8d48e78d537919d76c193"}),
    # the tag search and the scored rounds reload a page whose lines
    # share sets
    "v3_small_geometry": (
        _attack(3, "flush_reload", "--config", "small.cfg"),
        {"out.csv":
         "8f5f1fdd948ae4cde24a4d1ffd0e580082c95c5093d85de2afbe5f400b6768a3"}),
    # page noise and the next line land on a page whose lines share sets,
    # so the reload meets hits below the MRU and prefetched lines
    "v1_flush_reload_small_geometry": (
        _attack(1, "flush_reload", "--config", "small.cfg",
                "--noise-load", "1.0", "--next-line-noise"),
        {"out.csv":
         "33e2cec6ba1fd5e5ff128ee421c0f33afeea313c7b230dd78f733d4f180e5ed4"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_pinned_digest(name, tmp_path, monkeypatch):
    # relative paths: the mitigate header echoes the trace path as given
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    argv, digests = CASES[name]
    assert main(argv) == 0
    got = {f: hashlib.sha256(Path(f).read_bytes()).hexdigest()
           for f in digests}
    assert got == digests


def test_flushed_trace_case_flushes_several_times(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("trace.txt").write_text(_trace())
    assert main(CASES["mitigate_flushed"][0]) == 0
    lines = [ln for ln in Path("out.csv").read_text().splitlines()
             if not ln.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert int(row["flushes"]) >= 3
    assert int(row["prefetch_requests"]) > 0
