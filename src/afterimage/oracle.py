"""Reference model and equivalence fuzzing for the stride table.

The reference keeps one record per possible 8-bit tag in plain lists and
follows the published update recipe line by line, with no table capacity,
no replacement and no TLB.  It deliberately shares no code with the
kernels module: the production path is checked against this transcription
over randomized load streams, and the reference applies the page gate at
each prefetch with its own arithmetic.

Streams are built from short strided bursts so that training, retraining
and saturation are all exercised.  They draw their tags from a pool as
large as the real table, keeping it free of evictions, and run with
translation disabled; capacity and TLB behaviour have their own tests.
A stream is drawn, run through both routes and compared in chunks of
about ``CHUNK_LOADS`` loads, each route keeping its state between
chunks, so memory does not grow with the stream's length.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from .kernels import run_table_batch
from .uarch import PrefetchTable

TAG_SPACE = 256
PAGE_SHIFT = 12
FIELD_LIMIT = 2047
CHUNK_LOADS = 4096


def run_reference_batch(in_tags, in_addrs, r_last, r_stride, r_conf, r_valid):
    """Replay loads through the literal update recipe, one record per tag.

    For each load: if the tag is unknown, create a record with stride 0
    and confidence 0.  Otherwise compute the distance to the last address;
    with confidence >= 2 always prefetch current + stride, then either
    restart learning (distance mismatch) or count up to saturation; with
    confidence < 2 a mismatch restarts learning and a match counts up,
    prefetching when confidence first reaches 2.  Stored strides saturate
    at the 13-bit field limit.  A prefetch is dropped unless its target
    lies in the load's page frame or the next one.  Returns lists (target,
    last, stride, conf), one element per load, with target None where
    the load prefetches nothing.
    """
    out_target, out_last, out_stride, out_conf = [], [], [], []
    for t, a in zip(in_tags, in_addrs):
        target = None
        if r_valid[t]:
            d = a - r_last[t]
            sd = d
            if sd > FIELD_LIMIT:
                sd = FIELD_LIMIT
            elif sd < -FIELD_LIMIT:
                sd = -FIELD_LIMIT
            if r_conf[t] >= 2:
                target = a + r_stride[t]
                if d != r_stride[t]:
                    r_stride[t] = sd
                    r_conf[t] = 1
                else:
                    if r_conf[t] != 3:
                        r_conf[t] = r_conf[t] + 1
            else:
                if d != r_stride[t]:
                    r_stride[t] = sd
                    r_conf[t] = 1
                else:
                    r_conf[t] = r_conf[t] + 1
                    if r_conf[t] == 2:
                        target = a + r_stride[t]
            r_last[t] = a
            if target is not None:
                frame = a >> PAGE_SHIFT
                target_frame = target >> PAGE_SHIFT
                if target_frame != frame and target_frame != frame + 1:
                    target = None
        else:
            r_valid[t] = True
            r_last[t] = a
            r_stride[t] = 0
            r_conf[t] = 0
        out_target.append(target)
        out_last.append(r_last[t])
        out_stride.append(r_stride[t])
        out_conf.append(r_conf[t])
    return out_target, out_last, out_stride, out_conf


class ReferenceModel:
    """Convenience wrapper holding the per-tag reference lists."""

    def __init__(self):
        self.last = [0] * TAG_SPACE
        self.stride = [0] * TAG_SPACE
        self.conf = [0] * TAG_SPACE
        self.valid = [False] * TAG_SPACE

    def replay(self, tags, addrs):
        """Run a load stream; returns lists (target, last, stride, conf),
        one element per load, target None where no prefetch fires."""
        return run_reference_batch(tags, addrs, self.last, self.stride,
                                   self.conf, self.valid)


def generate_loads(rng: random.Random, n_loads: int,
                   tag_pool: list[int]) -> tuple[list[int], list[int]]:
    """Random loads: strided bursts with mixed stride regimes, each on a
    tag from the pool.  Whole bursts are drawn until there are at least
    ``n_loads`` loads, so successive calls on one rng continue one
    stream."""
    rnd, bits = rng.random, rng.getrandbits
    n_tags = len(tag_pool)
    tags, addrs = [], []
    while len(tags) < n_loads:
        length = 1 + bits(3)
        base = (1 << 20) + int(rnd() * ((1 << 40) - (1 << 20)))
        # stride regimes: line multiples, byte-grain, repeats,
        # out-of-field jumps
        mode = rnd()
        if mode < 0.70:
            stride = (1 + bits(5)) * (64 if rnd() < 0.8 else -64)
        elif mode < 0.85:
            stride = int(rnd() * (2 * FIELD_LIMIT + 1)) - FIELD_LIMIT
        elif mode < 0.95:
            stride = 0
        else:
            stride = 2048 + int(rnd() * (60000 - 2048))
        tags += [tag_pool[int(rnd() * n_tags)]] * length
        addrs += (range(base, base + length * stride, stride) if stride
                  else [base] * length)
    return tags, addrs


class EquivalenceReport(NamedTuple):
    loads_checked: int
    mismatches: int
    elapsed: float
    first_mismatch: str
    per_seed: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and self.loads_checked > 0


def _final_state_mismatches(table: PrefetchTable, ref: ReferenceModel) -> int:
    bad = 0
    for tag in range(TAG_SPACE):
        slot = table.lookup(tag)
        if not ref.valid[tag]:
            bad += slot is not None
            continue
        if slot is None:
            bad += 1
            continue
        e = table.entry(slot)
        if (e.last_addr, e.stride, e.confidence) != \
                (ref.last[tag], ref.stride[tag], ref.conf[tag]):
            bad += 1
    return bad


def check_seed(seed: int, n_loads: int) -> tuple[int, int, str]:
    """Run one stream through both routes; returns (loads, mismatches, note)."""
    rng = random.Random(seed)
    tag_pool = rng.sample(range(TAG_SPACE), PrefetchTable.SLOTS)
    table = PrefetchTable()
    ref = ReferenceModel()
    done = mism = 0
    note = ""
    while done < n_loads:
        left = n_loads - done
        tags, addrs = generate_loads(rng, min(CHUNK_LOADS, left), tag_pool)
        del tags[left:], addrs[left:]
        t_out = run_table_batch(tags, addrs, table.tags, table.last,
                                table.stride, table.conf, table.mru,
                                table.owner)
        r_out = ref.replay(tags, addrs)
        # walk the steps only when the routes differ
        if t_out != r_out:
            diff = [k for k, (t, r)
                    in enumerate(zip(zip(*t_out), zip(*r_out))) if t != r]
            if not note:
                k = diff[0]
                note = (f"seed {seed} step {done + k}: tag {tags[k]} "
                        f"addr {addrs[k]:#x} "
                        f"table={t_out[0][k]} ref={r_out[0][k]}")
            mism += len(diff)
        done += len(tags)
    return done, mism + _final_state_mismatches(table, ref), note


def run_equivalence_check(n_loads: int = 100_000,
                          seeds=range(10)) -> EquivalenceReport:
    """Fuzz the table against the reference over several seeded streams."""
    loads_checked = mismatches = 0
    first_mismatch = ""
    per_seed = []
    t0 = time.perf_counter()
    for seed in seeds:
        n, mism, note = check_seed(seed, n_loads)
        loads_checked += n
        mismatches += mism
        per_seed.append((seed, mism))
        if mism and not first_mismatch:
            first_mismatch = note or f"seed {seed}: state divergence"
    return EquivalenceReport(loads_checked, mismatches,
                             time.perf_counter() - t0, first_mismatch,
                             per_seed)
