"""The cache simulator with bypass and kill, under every policy.

A performance model: it tracks tags, dirtiness and recency but not
data.  :class:`Cache` is a thin driver over the canonical transfer
function in :mod:`repro.cache.semantics` — the per-event bypass/kill
handling lives there, shared with the data-carrying functional twin,
the replay engines, and the sweep dispatchers.
"""

from dataclasses import dataclass

from repro.cache.semantics import UnifiedCache

#: Replacement policies: the paper's LRU, FIFO, Random, Belady's
#: offline MIN, and the predictive zoo (the last five,
#: docs/POLICIES.md).  ``min``, ``ship`` and ``hawkeye`` read
#: precomputed trace columns, so a driver builds their policy objects
#: from the trace (``repro.cache.replay.policy_for_trace``) before
#: replaying; an online driver, which has no trace, cannot run them.
POLICIES = (
    "lru", "fifo", "random", "min",
    "srrip", "brrip", "drrip", "ship", "hawkeye",
)

#: What a kill-marked reference does to the line (paper Section 3.2
#: offers both alternatives).
KILL_MODES = ("invalidate", "demote")

#: Store handling for the through-cache path.  ``writeback`` (default)
#: dirties the line and writes memory on eviction; ``writethrough``
#: (common in 1980s designs) sends every store to memory immediately
#: and never dirties lines — which also neuters the kill bit's
#: dead-dirty-drop benefit, a contrast worth measuring.
WRITE_POLICIES = ("writeback", "writethrough")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and behaviour of one simulated data cache."""

    size_words: int = 256
    line_words: int = 1
    associativity: int = 4
    policy: str = "lru"
    honor_bypass: bool = True
    honor_kill: bool = True
    kill_mode: str = "invalidate"
    write_policy: str = "writeback"
    allocate_on_write: bool = True
    seed: int = 12345

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError("unknown policy {!r}".format(self.policy))
        if self.kill_mode not in KILL_MODES:
            raise ValueError("unknown kill mode {!r}".format(self.kill_mode))
        if self.write_policy not in WRITE_POLICIES:
            raise ValueError(
                "unknown write policy {!r}".format(self.write_policy)
            )
        if self.size_words % (self.line_words * self.associativity):
            raise ValueError(
                "size_words must be a multiple of line_words*associativity"
            )

    @property
    def num_sets(self):
        return self.size_words // (self.line_words * self.associativity)


class Cache(UnifiedCache):
    """Set-associative cache honoring the unified model's annotations.

    All behaviour — ``access``, ``probe``, ``contents``, ``stats`` —
    comes from :class:`~repro.cache.semantics.UnifiedCache`; this
    subclass only adds the keyword-argument constructor convenience.
    """

    __slots__ = ()

    def __init__(self, config=None, policy=None, **kwargs):
        if config is None:
            config = CacheConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a CacheConfig or keyword arguments")
        super().__init__(config, policy=policy)
