"""The replacement policies' line store stays exact.

Every policy keeps its lines in one ``{block: entry}`` dict per set,
and :class:`UnifiedCache` finds a block with one ``dict.get`` on
``policy.resident``, so after every access ``resident`` must equal the
union of the per-set dicts, entry for entry, each line must sit in its
block's set under its own block, and no set may hold more lines than
its associativity (``room`` reads the set's size).  These properties
drive every policy — LRU, FIFO, Random, MIN, the RRIP zoo and the
multicore :class:`PartitionedLRUPolicy` — over Hypothesis streams and
fuzzer traces carrying bypasses (hits included) and kills in both
modes, and check them after each event.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import POLICIES, Cache, CacheConfig
from repro.cache.multicore import PartitionedLRUPolicy
from repro.cache.replay import policy_for_trace
from repro.cache.semantics import ENTRY_BLOCK
from repro.vm.trace import (
    FLAG_BYPASS,
    FLAG_KILL,
    FLAG_WRITE,
    IS_BYPASS,
    IS_KILL,
    IS_WRITE,
    TraceBuffer,
)
from test_engine_table import fuzzer_trace

#: Geometries with few sets and ways over a small address window, so
#: evictions, bypass hits and kill hits all happen often; the demote
#: and two-word-line rows keep dead lines resident.
GEOMETRIES = (
    dict(size_words=8, line_words=1, associativity=2),
    dict(size_words=8, line_words=1, associativity=4,
         kill_mode="demote"),
    dict(size_words=16, line_words=2, associativity=2),
    dict(size_words=8, line_words=1, associativity=2,
         allocate_on_write=False),
)

#: Way quotas of the partitioned runs, one per associativity.
QUOTAS = {2: (1, 1), 4: (3, 1)}

#: Streams long enough to fill every set of every geometry.
refs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=19),
        st.integers(min_value=0, max_value=FLAG_WRITE | FLAG_BYPASS
                    | FLAG_KILL),
    ),
    min_size=40,
    max_size=100,
)


def assert_exact(policy, config, where):
    union = {}
    for set_index, lines in enumerate(policy._sets):
        assert len(lines) <= config.associativity, where
        for block, entry in lines.items():
            assert block % config.num_sets == set_index, where
            assert entry[ENTRY_BLOCK] == block, where
            union[block] = id(entry)
    resident = {block: id(entry) for block, entry in policy.resident.items()}
    assert resident == union, where


def drive(trace, config, partitioned=False):
    """Replay ``trace``, checking the invariants after every event;
    returns the cache for the callers' own checks."""
    if partitioned:
        policy = PartitionedLRUPolicy(QUOTAS[config.associativity])
        cache = Cache(replace(config, policy="lru"), policy=policy)
    else:
        policy = None
        cache = Cache(config, policy=policy_for_trace(trace, config))
    assert_exact(cache.policy, config, "after reset")
    for index, (address, flags) in enumerate(trace):
        if policy is not None:
            policy.core = address & 1
        cache.access(address, IS_WRITE[flags], IS_BYPASS[flags],
                     IS_KILL[flags], index=index)
        assert_exact(cache.policy, config,
                     (config.policy, index, address, flags))
    return cache


def make_trace(pairs):
    trace = TraceBuffer()
    for address, flags in pairs:
        trace.append(address, flags)
    return trace


SPECS = [
    (policy, index)
    for policy in POLICIES + ("partitioned",)
    for index in range(len(GEOMETRIES))
]


def config_of(policy, index):
    name = "lru" if policy == "partitioned" else policy
    return CacheConfig(policy=name, seed=7, **GEOMETRIES[index])


@pytest.mark.parametrize("policy,geometry", SPECS)
@settings(max_examples=15, deadline=None)
@given(pairs=refs)
def test_resident_map_is_exact(policy, geometry, pairs):
    drive(make_trace(pairs), config_of(policy, geometry),
          partitioned=policy == "partitioned")


#: Fuzzer programs whose traces evict, probe resident blocks through
#: bypasses and kill resident lines under the geometries above.
FUZZER_SEEDS = (45, 79, 91, 101, 117)


@pytest.mark.parametrize("policy", POLICIES + ("partitioned",))
def test_resident_map_on_fuzzer_traces(policy):
    evictions = probe_hits = kills = 0
    for seed in FUZZER_SEEDS:
        trace = fuzzer_trace(seed)
        for geometry in range(len(GEOMETRIES)):
            stats = drive(trace, config_of(policy, geometry),
                          partitioned=policy == "partitioned").stats
            evictions += stats.evictions
            probe_hits += stats.probe_hits
            kills += stats.kills
    # The traces exercised what the invariants guard.
    assert evictions and probe_hits and kills, policy
