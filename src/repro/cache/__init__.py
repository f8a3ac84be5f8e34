"""Trace-driven data-cache simulation with bypass and kill support.

The paper assumes a data cache with **line size one** (Section 1); the
simulator defaults to that but supports longer lines so the ablation
benches can show *why* line size one is preferred for data.

Replacement policies: LRU, FIFO, Random, and Belady's MIN (offline),
each combined with the paper's dead-line modification (Section 3.2):
a kill-marked reference empties the line immediately — or, in
``demote`` mode, merely makes it least recently used — and a dead dirty
line is dropped without a write-back.
"""

from repro.cache.stats import CacheStats
from repro.cache.semantics import (
    FIFOPolicy,
    LRUPolicy,
    MinPolicy,
    RandomPolicy,
    ReplacementPolicy,
    UnifiedCache,
)
from repro.cache.cache import Cache, CacheConfig
from repro.cache.belady import simulate_min
from repro.cache.replay import MinConfig, replay_trace
from repro.cache.stackdist import (
    StackDistanceProfile,
    profile_pass,
    replay_trace_sweep,
    supports_stackdist,
)
from repro.cache.functional import DataCachedMemory
from repro.cache.hierarchy import (
    HierarchyCache,
    HierarchySpec,
    hierarchy_stats,
    parse_hierarchy,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "FIFOPolicy",
    "HierarchyCache",
    "HierarchySpec",
    "LRUPolicy",
    "MinConfig",
    "MinPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "StackDistanceProfile",
    "UnifiedCache",
    "simulate_min",
    "hierarchy_stats",
    "parse_hierarchy",
    "profile_pass",
    "replay_trace",
    "replay_trace_sweep",
    "supports_stackdist",
    "DataCachedMemory",
]
