"""Every pinned CLI digest also holds with every cache fast path off.

``PerLineCache`` replaces each of ``CacheModel``'s batch and keyed
paths (``page_keys``, ``access_page``, ``walk_sets``, keyed
``install_prefetch`` and ``flush_lines``) with a loop that places every
line with ``location`` and runs it through ``access_line`` or
``_install``, the per-line rule.  ``Machine.load`` drops the key its
caller placed, so every load is placed by its own access.  Each case of
``tests/test_cli_digests.py`` then runs whole and must print the same
bytes.  A fast path that changes a digest fails its production test
there; this test overrides that path and still passes, which puts the
fault in the fast path rather than in the rule.  Eviction sets are
memoised by cache class, so the prime+probe cases search with
``PerLineCache`` too.
"""

from __future__ import annotations

import collections
import hashlib
from pathlib import Path

from afterimage import experiments, programs
from afterimage.cache import CacheModel
from afterimage.cli import main
from afterimage.programs import Machine
from afterimage.uarch import LINE_SHIFT, PAGE_LINES

from test_cli_digests import CASES, _write_inputs

#: calls of each override over a run
_CALLS: collections.Counter = collections.Counter()


class PerLineCache(CacheModel):
    """A ``CacheModel`` that places and runs every line on its own."""

    def page_keys(self, page_paddr):
        _CALLS["page_keys"] += 1
        first = page_paddr >> LINE_SHIFT
        return [self.location(first + i << LINE_SHIFT)
                for i in range(PAGE_LINES)]

    def access_page(self, keys, first):
        _CALLS["access_page"] += 1
        hit = self.config.hit_latency
        return {i for i in range(PAGE_LINES)
                if self.access(first + i << LINE_SHIFT) == hit}

    def walk_sets(self, keys, walks):
        _CALLS["walk_sets"] += 1
        return [sum(self.access(li << LINE_SHIFT) for li in lines)
                for lines in walks]

    def install_prefetch(self, paddr, load_key=None, load_li=0):
        _CALLS["install_prefetch"] += 1
        li = paddr >> LINE_SHIFT
        ways = self.sets.setdefault(self.location(paddr), [])
        if li not in ways:
            self.prefetch_installs += 1
            self._install(ways, li)
            self._prefetched.add(li)

    def flush_lines(self, paddr, keys):
        _CALLS["flush_lines"] += 1
        first = paddr >> LINE_SHIFT
        for li in range(first, first + len(keys)):
            ways = self.sets.get(self.location(li << LINE_SHIFT))
            if ways and li in ways:
                ways.remove(li)
            self._prefetched.discard(li)


def test_every_digest_holds_with_every_fast_path_off(tmp_path, monkeypatch):
    keyed_load = Machine.load

    def unkeyed_load(self, ip, paddr, key=None):
        _CALLS["load"] += 1
        return keyed_load(self, ip, paddr)

    memo = experiments._eviction_sets
    memo_classes = set()

    def recorded_eviction_sets(cache_type, config, page):
        memo_classes.add(cache_type)
        return memo(cache_type, config, page)

    monkeypatch.setattr(programs, "CacheModel", PerLineCache)
    monkeypatch.setattr(experiments, "CacheModel", PerLineCache)
    monkeypatch.setattr(experiments, "_eviction_sets", recorded_eviction_sets)
    monkeypatch.setattr(Machine, "load", unkeyed_load)
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    _CALLS.clear()
    got, pinned = {}, {}
    for name, (argv, digests) in CASES.items():
        assert main(argv) == 0, name
        got[name] = {f: hashlib.sha256(Path(f).read_bytes()).hexdigest()
                     for f in digests}
        pinned[name] = digests
    assert got == pinned
    # the memo keys eviction sets by cache class, so the prime+probe
    # cases were served sets that a search with PerLineCache found
    assert memo_classes == {PerLineCache}
    # a refactor that bypasses an override would make this a no-op
    assert set(_CALLS) == {"page_keys", "access_page", "walk_sets",
                           "install_prefetch", "flush_lines", "load"}
