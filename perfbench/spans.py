"""Span tracing around the simulator's layer boundaries.

The traced run replaces each public function listed in ``BOUNDARIES``
with a wrapper that records a span: its name, its parent span and the
op it belongs to.  Spans are aggregated per (op, name, parent) as they
close, because the per-load boundaries fire millions of times; memory
stays bounded by ops x boundaries.  A span's self time is its duration
minus the durations of its child spans.

Callers look names up in different places, so a wrapper must replace
every binding the callers use: ``experiments`` and ``cli`` import
functions such as ``flush_reload`` or ``run_attack`` with ``from``,
``kernels`` calls ``table_step`` and ``tlb_access`` as module globals,
and methods are looked up on their classes.  ``patch`` therefore
rebinds a function in every loaded ``afterimage`` module that holds
it, and sets methods on the class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _hit_tlb(counts, args, result):
    counts["hit"] += bool(result)


def _hit_cache(counts, args, result):
    counts["hit"] += result < args[0].config.threshold


def _trigger(counts, args, result):
    counts["trigger"] += bool(result)


def _events(counts, args, result):
    counts["events"] += len(result) if result is not None else 0


def _detection(counts, args, result):
    ambiguous = bool(getattr(result, "ambiguous", False))
    counts["ambiguous"] += ambiguous
    counts["no_signal"] += result.detected is None and not ambiguous


# (span name, module, attribute path, result hook)
BOUNDARIES = (
    ("cli.main", "cli", "main", None),
    ("cli.emit_csv", "cli", "emit_csv", None),
    ("experiments.run_attack", "experiments", "run_attack", None),
    ("experiments.mitigation_eval", "experiments", "mitigation_eval", None),
    ("experiments.load_trace", "experiments", "load_trace", None),
    ("programs.run_program", "programs", "Machine.run_program", _events),
    ("sidechannel.prime", "sidechannel", "prime", None),
    ("sidechannel.probe", "sidechannel", "probe", None),
    ("sidechannel.flush_reload", "sidechannel", "flush_reload", None),
    ("sidechannel.status_probe", "sidechannel", "prefetcher_status_probe",
     None),
    ("sidechannel.detect_stride", "sidechannel", "detect_stride", _detection),
    ("cache.build_eviction_set", "cache", "build_eviction_set", None),
    ("cache.access", "cache", "CacheModel.access", _hit_cache),
    ("cache.location", "cache", "CacheModel.location", None),
    ("cache.install_prefetch", "cache", "CacheModel.install_prefetch", None),
    ("cache.flush_line", "cache", "CacheModel.flush_line", None),
    ("uarch.observe_load", "uarch", "PrefetchTable.observe_load", _trigger),
    ("uarch.table_reset", "uarch", "PrefetchTable.reset", None),
    ("kernels.table_step", "kernels", "table_step", None),
    ("kernels.tlb_access", "kernels", "tlb_access", _hit_tlb),
    ("kernels.run_table_batch", "kernels", "run_table_batch", None),
    ("oracle.check_seed", "oracle", "check_seed", None),
    ("oracle.generate_loads", "oracle", "generate_loads", None),
    ("oracle.run_reference_batch", "oracle", "run_reference_batch", None),
)

LAYERS = ("cli", "experiments", "programs", "sidechannel", "cache", "uarch",
          "kernels", "oracle")


class Tracer:
    """Records spans of wrapped calls, aggregated per (op, name, parent)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_id = None
        self._stack = []  # open spans: [name, start, child seconds]
        # (op, name, parent) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(Counter)  # name -> outcome counters
        self.caches = []  # every CacheModel built while patched

    def wrap(self, name, fn, hook=None):
        stack, spans, clock = self._stack, self.spans, self.clock
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                parent = None
                if stack:
                    parent = stack[-1][0]
                    stack[-1][2] += duration
                agg = spans[(self.op_id, name, parent)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    # -- reading the aggregates ------------------------------------------

    def calls(self, name: str) -> int:
        return sum(v[0] for k, v in self.spans.items() if k[1] == name)

    def self_s(self, prefix: str) -> float:
        """Self seconds of one span name, or of a whole layer given as
        ``"<layer>."``."""
        return sum(v[2] for k, v in self.spans.items()
                   if k[1] == prefix or
                   (prefix.endswith(".") and k[1].startswith(prefix)))

    def root_s(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(v[1] for k, v in self.spans.items() if k[2] is None)


def patch(tracer: Tracer, package: str = "afterimage"):
    """Install wrappers for every boundary; returns (undo, missing).

    ``undo()`` restores the original bindings.  ``missing`` names the
    boundaries whose function no longer exists, so that a refactor that
    moves one shows up instead of silently reading zero.
    """
    saved, missing = [], []
    loaded = [m for name, m in list(sys.modules.items())
              if name == package or name.startswith(package + ".")]
    for span, module, path, hook in BOUNDARIES:
        owner = sys.modules.get(f"{package}.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(span)
            continue
        wrapped = tracer.wrap(span, original, hook)
        if classes:
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapped)

    cache_cls = getattr(sys.modules.get(f"{package}.cache"), "CacheModel",
                        None)
    if cache_cls is not None:
        init = cache_cls.__init__

        @functools.wraps(init)
        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.caches.append(self)

        saved.append((cache_cls, "__init__", init))
        cache_cls.__init__ = recording_init

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, missing
