"""The replacement policies' ``resident`` map stays exact.

:meth:`UnifiedCache.access` finds a block with one ``dict.get`` on
``policy.resident``, so the map must equal the policy's valid lines
after every access, and each way policy's per-set free count must
equal that set's invalid ways (``room`` reads it).  These properties
drive every policy — LRU, FIFO, Random, MIN, the RRIP zoo and the
multicore :class:`PartitionedLRUPolicy` — over Hypothesis streams and
fuzzer traces carrying bypasses (hits included) and kills in both
modes, and check both invariants after each event.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import POLICIES, Cache, CacheConfig
from repro.cache.multicore import PartitionedLRUPolicy
from repro.cache.replay import policy_for_trace
from repro.cache.semantics import _WAY_TAG, _WAY_VALID, MinPolicy
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


def valid_lines(policy):
    """``{block: id(entry)}`` and the per-set invalid-way counts, read
    off the policy's own per-set storage."""
    if isinstance(policy, MinPolicy):
        lines = {}
        for resident in policy._sets:
            lines.update(resident)
        return {block: id(entry) for block, entry in lines.items()}, None
    lines = {
        line[_WAY_TAG]: id(line)
        for ways in policy._sets
        for line in ways
        if line[_WAY_VALID]
    }
    free = [
        sum(1 for line in ways if not line[_WAY_VALID])
        for ways in policy._sets
    ]
    return lines, free


def assert_exact(policy, where):
    lines, free = valid_lines(policy)
    resident = {block: id(entry) for block, entry in policy.resident.items()}
    assert resident == lines, where
    if free is not None:
        assert policy._free == free, where


def drive(trace, config, partitioned=False):
    """Replay ``trace``, checking the invariants after every event;
    returns the cache for the callers' own checks."""
    if partitioned:
        policy = PartitionedLRUPolicy(QUOTAS[config.associativity])
        cache = Cache(replace(config, policy="lru"), policy=policy)
    else:
        policy = None
        cache = Cache(config, policy=policy_for_trace(trace, config))
    assert_exact(cache.policy, "after reset")
    for index, (address, flags) in enumerate(trace):
        if policy is not None:
            policy.core = address & 1
        cache.access(address, IS_WRITE[flags], IS_BYPASS[flags],
                     IS_KILL[flags], index=index)
        assert_exact(cache.policy, (config.policy, index, address, flags))
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
