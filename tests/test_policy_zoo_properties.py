"""Property-based tests (hypothesis) for the predictive policy zoo.

Three properties pin the zoo's mechanics to their definitions:

1. **SRRIP MRU safety** — promotion-on-hit means the block touched by
   the previous access to a set is never the victim of the next
   eviction in that set (associativity >= 2): its RRPV is 0 and the
   LRU tie-break protects it even after aging saturates every line.
2. **DRRIP leader purity** — a leader set's state depends only on its
   own access subsequence, so the dueling monitor's per-leader hit
   counts equal a standalone SRRIP (or BRRIP) replay of the whole
   trace, read off at the leader set.
3. **OPTgen == MIN** — Hawkeye's shadow oracle is the incremental MIN
   next-use machinery re-used verbatim, so its hit count on a
   single-set trace equals a MIN replay exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.replay import policy_for_trace, replay_trace
from repro.cache.semantics import (
    SRRIPPolicy,
    UnifiedCache,
    make_policy,
)
from repro.vm.trace import FLAG_WRITE, TraceBuffer

# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

#: Plain read/write streams over a small address window — enough to
#: thrash a tiny cache without bypass/kill noise.
plain_refs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


def make_trace(refs):
    trace = TraceBuffer()
    for address, is_write in refs:
        trace.append(address, FLAG_WRITE if is_write else 0)
    return trace


def drive(core, trace):
    for index, (address, flags) in enumerate(trace):
        core.access(address, bool(flags & FLAG_WRITE), False, False,
                    index=index)


# ----------------------------------------------------------------------
# Property 1: SRRIP promotion-on-hit protects the MRU block.
# ----------------------------------------------------------------------


class _RecordingSRRIP(SRRIPPolicy):
    __slots__ = ("evictions",)

    def reset(self, config):
        super().reset(config)
        self.evictions = []

    def evict(self, set_index):
        block, victim = super().evict(set_index)
        self.evictions.append((set_index, block))
        return block, victim


@settings(max_examples=80, deadline=None)
@given(
    refs=plain_refs,
    geometry=st.sampled_from(
        [dict(size_words=4, associativity=2),
         dict(size_words=8, associativity=2),
         dict(size_words=8, associativity=4)]
    ),
)
def test_srrip_never_evicts_the_mru_block(refs, geometry):
    config = CacheConfig(line_words=1, policy="srrip", **geometry)
    policy = _RecordingSRRIP()
    core = UnifiedCache(config, policy=policy)
    # set index -> block, present only when the previous access to
    # that set was a hit (the promotion holds for exactly one access:
    # afterwards aging may legitimately reach the block again).
    promoted = {}
    seen = 0
    for address, is_write in refs:
        block = address  # line_words == 1
        set_index = block % config.num_sets
        hit = block in policy.resident
        core.access(address, is_write, False, False)
        for evicted_set, victim in policy.evictions[seen:]:
            assert evicted_set == set_index
            if evicted_set in promoted:
                assert victim != promoted[evicted_set], (
                    "evicted the hit-promoted MRU block", refs)
        seen = len(policy.evictions)
        if hit:
            promoted[set_index] = block
        else:
            promoted.pop(set_index, None)


# ----------------------------------------------------------------------
# Property 2: DRRIP leader sets replay standalone.
# ----------------------------------------------------------------------


def per_set_hits(trace, config):
    """Hit counts per set for ``config``, via a side-effect-free
    pre-lookup before every access."""
    core = UnifiedCache(config, policy=policy_for_trace(trace, config))
    hits = {}
    for index, (address, flags) in enumerate(trace):
        block = address // config.line_words
        set_index = block % config.num_sets
        if block in core.policy.resident:
            hits[set_index] = hits.get(set_index, 0) + 1
        core.access(address, bool(flags & FLAG_WRITE), False, False,
                    index=index)
    return hits


@settings(max_examples=60, deadline=None)
@given(refs=plain_refs)
def test_drrip_monitor_equals_standalone_replays(refs):
    # 8 words, 2-way -> 4 sets; leaders: set 0 (srrip), set 2 (brrip).
    geometry = dict(size_words=8, line_words=1, associativity=2)
    trace = make_trace(refs)
    drrip = UnifiedCache(CacheConfig(policy="drrip", **geometry))
    drive(drrip, trace)
    monitor = drrip.policy.monitor
    srrip_hits = per_set_hits(trace, CacheConfig(policy="srrip", **geometry))
    brrip_hits = per_set_hits(trace, CacheConfig(policy="brrip", **geometry))
    assert monitor["srrip"].get(0, 0) == srrip_hits.get(0, 0)
    assert monitor["brrip"].get(2, 0) == brrip_hits.get(2, 0)


# ----------------------------------------------------------------------
# Property 3: Hawkeye's OPTgen agrees with the MIN simulator.
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    refs=plain_refs,
    associativity=st.sampled_from([1, 2, 4]),
)
def test_hawkeye_optgen_matches_min(refs, associativity):
    # One set: the whole cache is a single fully-associative set, so
    # OPTgen's per-set shadow is exactly the MIN simulation.
    config = CacheConfig(
        size_words=associativity, line_words=1,
        associativity=associativity, policy="hawkeye",
    )
    trace = make_trace(refs)
    policy = policy_for_trace(trace, config)
    core = UnifiedCache(config, policy=policy)
    drive(core, trace)
    min_stats = replay_trace(
        trace, policy="min", size_words=associativity, line_words=1,
        associativity=associativity,
    )
    assert policy.optgen_refs == min_stats.hits + min_stats.misses
    assert policy.optgen_hits == min_stats.hits
