"""Reference model and equivalence fuzzing for the stride table.

The reference keeps one record per possible 8-bit tag in plain lists and
follows the published update recipe line by line, with no table capacity,
no replacement and no TLB.  It deliberately shares no code with the
kernels module: the production path is checked against this transcription
over randomized load streams, composing the page gate independently on
this side.

Streams are built from short strided bursts so that training, retraining
and saturation are all exercised.  They use at most 24 distinct tags,
keeping the real table free of evictions, and run with translation
disabled; capacity and TLB behaviour have their own tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .uarch import PrefetchTable

TAG_SPACE = 256
PAGE_SHIFT = 12
FIELD_LIMIT = 2047


def run_reference_batch(in_tags, in_addrs, r_last, r_stride, r_conf, r_valid,
                        out_emit, out_target, out_last, out_stride, out_conf):
    """Replay loads through the literal update recipe, one record per tag.

    For each load: if the tag is unknown, create a record with stride 0
    and confidence 0.  Otherwise compute the distance to the last address;
    with confidence >= 2 always prefetch current + stride, then either
    restart learning (distance mismatch) or count up to saturation; with
    confidence < 2 a mismatch restarts learning and a match counts up,
    prefetching when confidence first reaches 2.  Stored strides saturate
    at the 13-bit field limit.
    """
    for k in range(len(in_tags)):
        t = in_tags[k]
        a = in_addrs[k]
        emitted = False
        target = 0
        if r_valid[t]:
            d = a - r_last[t]
            sd = d
            if sd > FIELD_LIMIT:
                sd = FIELD_LIMIT
            elif sd < -FIELD_LIMIT:
                sd = -FIELD_LIMIT
            if r_conf[t] >= 2:
                emitted = True
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
                        emitted = True
                        target = a + r_stride[t]
            r_last[t] = a
        else:
            r_valid[t] = True
            r_last[t] = a
            r_stride[t] = 0
            r_conf[t] = 0
        out_emit[k] = emitted
        out_target[k] = target
        out_last[k] = r_last[t]
        out_stride[k] = r_stride[t]
        out_conf[k] = r_conf[t]


class ReferenceModel:
    """Convenience wrapper holding the per-tag reference lists."""

    def __init__(self):
        self.last = [0] * TAG_SPACE
        self.stride = [0] * TAG_SPACE
        self.conf = [0] * TAG_SPACE
        self.valid = [False] * TAG_SPACE

    def replay(self, tags, addrs):
        """Run a numpy load stream; returns (emit, target, last, stride, conf)
        as numpy arrays, one element per load."""
        n = len(tags)
        emit = [False] * n
        out = tuple([0] * n for _ in range(4))
        run_reference_batch(tags.tolist(), addrs.tolist(), self.last,
                            self.stride, self.conf, self.valid, emit, *out)
        return (np.array(emit, dtype=np.bool_),
                *(np.array(o, dtype=np.int64) for o in out))


def generate_loads(rng: np.random.Generator, n_loads: int,
                   n_tags: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Random load stream: strided bursts with mixed stride regimes."""
    n_bursts = max(1, n_loads // 4)
    lens = rng.integers(1, 9, size=n_bursts)
    total = int(lens.sum())
    while total < n_loads:
        extra = rng.integers(1, 9, size=n_bursts // 4 + 1)
        lens = np.concatenate([lens, extra])
        total += int(extra.sum())

    tag_pool = rng.choice(TAG_SPACE, size=n_tags, replace=False).astype(np.int64)
    burst_tags = tag_pool[rng.integers(0, n_tags, size=len(lens))]
    bases = rng.integers(1 << 20, 1 << 40, size=len(lens))

    # stride regimes: line multiples, byte-grain, repeats, out-of-field jumps
    mode = rng.random(len(lens))
    strides = np.where(rng.random(len(lens)) < 0.8, 1, -1) * \
        rng.integers(1, 33, size=len(lens)) * 64
    byte_grain = rng.integers(-FIELD_LIMIT, FIELD_LIMIT + 1, size=len(lens))
    jumps = rng.integers(2048, 60000, size=len(lens))
    strides = np.where(mode < 0.70, strides,
                       np.where(mode < 0.85, byte_grain,
                                np.where(mode < 0.95, 0, jumps)))

    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    tags = np.repeat(burst_tags, lens)
    within = np.arange(len(tags)) - np.repeat(starts, lens)
    addrs = np.repeat(bases, lens) + within * np.repeat(strides, lens)

    return tags[:n_loads].astype(np.int64), addrs[:n_loads].astype(np.int64)


@dataclass
class EquivalenceReport:
    seeds: list[int]
    loads_checked: int = 0
    mismatches: int = 0
    elapsed: float = 0.0
    first_mismatch: str = ""
    per_seed: list[tuple[int, int]] = field(default_factory=list)

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
    rng = np.random.default_rng(seed)
    tags, addrs = generate_loads(rng, n_loads)
    n = len(tags)

    table = PrefetchTable()
    t_emit = np.zeros(n, dtype=np.bool_)
    t_out = tuple(np.zeros(n, dtype=np.int64) for _ in range(4))
    from .kernels import run_table_batch
    run_table_batch(tags, addrs, table.tags, table.last, table.stride,
                    table.conf, table.valid, table.mru, table.owner,
                    None, 0, t_emit, *t_out)

    ref = ReferenceModel()
    r_emit, r_target, r_last, r_stride, r_conf = ref.replay(tags, addrs)

    # page gate applied on this side with independent arithmetic
    frames = addrs >> PAGE_SHIFT
    tframes = r_target >> PAGE_SHIFT
    gated_emit = r_emit & ((tframes == frames) | (tframes == frames + 1))
    gated_target = np.where(gated_emit, r_target, 0)

    diff = (t_emit != gated_emit) | (t_out[0] != gated_target) | \
        (t_out[1] != r_last) | (t_out[2] != r_stride) | (t_out[3] != r_conf)
    mism = int(diff.sum()) + _final_state_mismatches(table, ref)

    note = ""
    if diff.any():
        k = int(np.argmax(diff))
        note = (f"seed {seed} step {k}: tag {tags[k]} addr {addrs[k]:#x} "
                f"table=({bool(t_emit[k])},{int(t_out[0][k])}) "
                f"ref=({bool(gated_emit[k])},{int(gated_target[k])})")
    return n, mism, note


def run_equivalence_check(n_loads: int = 100_000,
                          seeds=range(10)) -> EquivalenceReport:
    """Fuzz the table against the reference over several seeded streams."""
    report = EquivalenceReport(seeds=list(seeds))
    t0 = time.perf_counter()
    for seed in report.seeds:
        n, mism, note = check_seed(seed, n_loads)
        report.loads_checked += n
        report.mismatches += mism
        report.per_seed.append((seed, mism))
        if mism and not report.first_mismatch:
            report.first_mismatch = note or f"seed {seed}: state divergence"
    report.elapsed = time.perf_counter() - t0
    return report


def warmup() -> None:
    """Run one short stream through both routes outside any timed region,
    so imports and first-call costs do not land in a measurement."""
    check_seed(0, 64)
