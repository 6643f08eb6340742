"""Deterministic simulator of an IP-stride hardware prefetcher and the
cache side-channels it opens across code, process and kernel boundaries."""

from .experiments import (
    NoiseModel,
    UnsupportedChannelError,
    mitigation_eval,
    mitigation_sweep,
    rev_conf_stride,
    rev_entries,
    rev_indexing,
    rev_page,
    rev_replacement,
    run_attack,
)
from .uarch import (
    LINE_BYTES,
    PAGE_BYTES,
    PrefetchTable,
    PrefetcherEntry,
    Tlb,
    ip_tag,
    page_frame,
)

__version__ = "0.1.0"

__all__ = [
    "LINE_BYTES",
    "PAGE_BYTES",
    "NoiseModel",
    "PrefetchTable",
    "PrefetcherEntry",
    "Tlb",
    "UnsupportedChannelError",
    "ip_tag",
    "mitigation_eval",
    "mitigation_sweep",
    "page_frame",
    "rev_conf_stride",
    "rev_entries",
    "rev_indexing",
    "rev_page",
    "rev_replacement",
    "run_attack",
    "__version__",
]
