"""The reference cache's bound transfer functions against its old body.

:class:`~repro.cache.semantics.UnifiedCache` builds one transfer
function per flavor (the ``EV_*`` codes) with its config folded in,
and derives what a flavor fixes in the statistics from per-flavor
event counts.  :class:`scalar_reference.ScalarCache` keeps the one
per-event ``access`` body they replaced.  Hypothesis drives the two
side by side, through ``access`` and through the flag-byte table
``on_flags``, over every policy and the multi-core
:class:`PartitionedLRUPolicy`, both kill modes, one- and two-word
lines, write-through, write-around, all four honor-flag pairs and
data mode, and compares them after every event.

The binding battery patches ``UnifiedCache.access`` to raise: the
online consumers that bind once (the cross-validator, the reference
replay, the multi-core shared level and E10's combined replay) must
still run and match their per-event oracles.
"""

import gc
import weakref
from dataclasses import replace
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import (
    KILL_MODES,
    POLICIES,
    WRITE_POLICIES,
    Cache,
    CacheConfig,
)
from repro.cache.multicore import PartitionedLRUPolicy, multicore_grid
from repro.cache.replay import policy_for_trace, replay_trace
from repro.cache.semantics import (
    ENTRY_DEAD,
    ENTRY_DIRTY,
    ENTRY_VALUE,
    UnifiedCache,
)
from repro.evalharness.sweeps import _trace_for
from repro.evalharness.unifiedcache import (
    record_combined_trace,
    replay_combined,
)
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.staticcheck.crossval import cross_validate
from repro.staticcheck.mustmay import analyze_program
from repro.unified.pipeline import CompilationOptions, compile_source
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer

from scalar_reference import (
    ProbingValidatingMemory,
    ScalarCache,
    free_dead_py,
    replay_combined_py,
    replay_trace_py,
    simulate_multicore_py,
)
from test_multicore import synth_trace

#: Way quotas of the partitioned runs, one per associativity.
QUOTAS = {2: (1, 1), 4: (3, 1)}

POLICY_NAMES = POLICIES + ("partitioned",)


@st.composite
def configs(draw, policy):
    """A small geometry with every behaviour knob drawn, and whether
    the cache carries data (one-word lines only)."""
    line_words = draw(st.sampled_from((1, 2)))
    associativity = draw(st.sampled_from((2, 4)))
    config = CacheConfig(
        size_words=line_words * associativity * draw(st.sampled_from((1, 2))),
        line_words=line_words,
        associativity=associativity,
        policy="lru" if policy == "partitioned" else policy,
        honor_bypass=draw(st.booleans()),
        honor_kill=draw(st.booleans()),
        kill_mode=draw(st.sampled_from(KILL_MODES)),
        write_policy=draw(st.sampled_from(WRITE_POLICIES)),
        allocate_on_write=draw(st.booleans()),
        seed=7,
    )
    return config, line_words == 1 and draw(st.booleans())


#: ``(address, write/bypass/kill bits, stored word, free_dead first)``:
#: a small address window, so lines are evicted, probed by bypasses
#: and killed often.
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=FLAG_WRITE | FLAG_BYPASS
                    | FLAG_KILL),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=0, max_value=9).map(lambda roll: roll == 0),
    ),
    min_size=1,
    max_size=80,
)


def trace_of(stream):
    trace = TraceBuffer()
    for address, flags, _value, _free in stream:
        trace.append(address, flags)
    return trace


def build_pair(policy, config, trace, data):
    """The cache under test and its oracle, each on its own policy."""
    def make():
        if policy == "partitioned":
            return PartitionedLRUPolicy(QUOTAS[config.associativity])
        return policy_for_trace(trace, config)

    return (UnifiedCache(config, make(), data=data),
            ScalarCache(config, make(), data=data))


def core_slots(cache):
    """Each resident block's dirty, dead and value slots."""
    return {
        block: (entry[ENTRY_DIRTY], entry[ENTRY_DEAD], entry[ENTRY_VALUE])
        for block, entry in cache.policy.resident.items()
    }


def drive(policy, config, data, stream, through_table, read_every):
    """Run ``stream`` through both caches, comparing after each event;
    ``read_every`` spaces the statistics reads, so a read also folds
    several events at once."""
    trace = trace_of(stream)
    cache, oracle = build_pair(policy, config, trace, data)
    for index, (address, flags, value, free) in enumerate(stream):
        if policy == "partitioned":
            cache.policy.core = oracle.policy.core = address & 1
        if free:
            assert cache.free_dead(address) == free_dead_py(oracle, address)
        is_write = bool(flags & FLAG_WRITE)
        bypass, kill = bool(flags & FLAG_BYPASS), bool(flags & FLAG_KILL)
        want = oracle.access(address, is_write, bypass, kill, value=value,
                             index=index)
        if through_table:
            got = cache.on_flags[flags](address, index, value)
        else:
            got = cache.access(address, is_write, bypass, kill,
                               value=value, index=index)
        where = (index, address, flags)
        assert got == want, where
        if data:
            assert cache.main == oracle.main, where
            if not is_write:
                assert cache.value == oracle.value, where
        if index % read_every == 0:
            assert cache.stats == oracle.stats, where
        assert core_slots(cache) == core_slots(oracle), where
        assert cache.contents() == oracle.contents(), where
    assert cache.stats == oracle.stats
    return cache


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), stream=events, through_table=st.booleans(),
       read_every=st.integers(min_value=1, max_value=5))
def test_bound_functions_match_the_scalar_body(policy, data, stream,
                                               through_table, read_every):
    config, carries_data = data.draw(configs(policy))
    drive(policy, config, carries_data, stream, through_table, read_every)


class TestLiveStats:
    def test_one_object_that_keeps_edits_in_place(self):
        """``stats`` is the same object on every read, and a field
        written in place keeps its edit through later folds."""
        config = CacheConfig(size_words=8, associativity=2)
        cache, oracle = UnifiedCache(config), ScalarCache(config)
        stats = cache.stats
        for step in range(200):
            address, flags = (step * 7) % 13, step % 8
            for target in (cache, oracle):
                target.access(address, flags & FLAG_WRITE,
                              flags & FLAG_BYPASS, flags & FLAG_KILL)
            if step == 50:
                stats.dead_drops += 3
                stats.hits += 2
                oracle.stats.dead_drops += 3
                oracle.stats.hits += 2
        assert cache.stats is stats
        assert stats == oracle.stats
        assert stats.refs_bypassed and stats.kills and stats.probe_hits

    def test_transfer_table_follows_the_honor_flags(self):
        """``on_flags`` maps a flag byte to the function of the flavor
        the config makes of it; the high bits never matter."""
        cache = UnifiedCache(CacheConfig(honor_bypass=False))
        plain_read, plain_write, kill_read = cache.transfer[:3]
        assert cache.on_flags[FLAG_BYPASS] is plain_read
        assert cache.on_flags[FLAG_BYPASS | FLAG_WRITE] is plain_write
        assert cache.on_flags[0x80 | FLAG_BYPASS | FLAG_KILL] is kill_read
        assert len(set(cache.on_flags)) == 4


class _WeakCache(UnifiedCache):
    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_dropped_cache_is_freed_without_the_cycle_collector(policy):
    """The transfer functions refer to no cache, so reference counting
    alone frees a dropped one (data mode included)."""
    stream = [((i * 5) % 11, i % 8, i, i % 9 == 0) for i in range(120)]
    config = CacheConfig(size_words=4, associativity=2,
                         policy="lru" if policy == "partitioned" else policy)
    trace = trace_of(stream)
    gc.disable()
    try:
        if policy == "partitioned":
            cache = _WeakCache(config, PartitionedLRUPolicy((1, 1)),
                               data=True)
        else:
            cache = _WeakCache(config, policy_for_trace(trace, config),
                               data=True)
        for index, (address, flags, value, free) in enumerate(stream):
            if free:
                cache.free_dead(address)
            cache.on_flags[flags](address, index, value)
        assert cache.stats.refs_total == len(stream)
        cache_ref = weakref.ref(cache)
        del cache
        assert cache_ref() is None
    finally:
        gc.enable()


def refuse(self, *args, **kwargs):
    raise AssertionError("UnifiedCache.access called")


#: The ``--check`` compilation and its 64-word 2-way geometry.
CHECK_OPTIONS = CompilationOptions(scheme="unified", promotion="none")
CHECK_GEOMETRY = CacheConfig(size_words=64, line_words=1, associativity=2)

#: Reference-replay configurations: the Figure 5 pair, demoting and
#: two-word-line kills, write-through, write-around and MIN.
REPLAY_CONFIGS = (
    CHECK_GEOMETRY,
    replace(CHECK_GEOMETRY, honor_bypass=False, honor_kill=False),
    replace(CHECK_GEOMETRY, kill_mode="demote"),
    CacheConfig(size_words=64, line_words=2, associativity=2),
    replace(CHECK_GEOMETRY, write_policy="writethrough"),
    replace(CHECK_GEOMETRY, allocate_on_write=False),
    replace(CHECK_GEOMETRY, policy="min"),
)


class TestNoConsumerCallsAccess:
    """Every online consumer binds its transfer functions once, so with
    ``UnifiedCache.access`` refusing they run unchanged."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_cross_validate(self, name):
        program = compile_source(get_benchmark(name).source, CHECK_OPTIONS)
        analysis = analyze_program(program, CHECK_GEOMETRY, exact=True)
        with mock.patch.object(UnifiedCache, "access", refuse):
            report = cross_validate(program, CHECK_GEOMETRY,
                                    analysis=analysis)
        probing = ProbingValidatingMemory(analysis)
        program.run(memory=probing)
        assert report.events_total == probing.events_total > 0
        assert report.events_classified == probing.events_classified
        assert report.event_tiers == probing.event_tiers
        assert report.mismatches == probing.mismatches == []

    @pytest.mark.parametrize("name", ["queen", "towers"])
    def test_replay_trace(self, name):
        trace = _trace_for(name)[0]
        for config in REPLAY_CONFIGS:
            want, outcomes = replay_trace_py(trace, config)
            hits = numpy.zeros(len(trace), dtype=bool)
            with mock.patch.object(UnifiedCache, "access", refuse):
                got = replay_trace(trace, config, hits=hits)
            assert got == want, config
            assert hits.tolist() == [o == "hit" for o in outcomes], config

    def test_multicore_grid(self):
        traces = [synth_trace(seed=5, kill=0.3),
                  synth_trace(seed=6, kill=0.3, addresses=30)]
        l1 = CacheConfig(size_words=16, associativity=2)
        shared = CacheConfig(size_words=64, associativity=8)
        with mock.patch.object(UnifiedCache, "access", refuse):
            grid = multicore_grid(traces, l1, shared, quotas=(6, 2))
        assert grid["kill"].kill_probes > 0
        for cell, (l1_cell, quotas, shared_kill) in {
            "shared": (replace(l1, honor_kill=False), None, False),
            "partitioned": (replace(l1, honor_kill=False), (6, 2), False),
            "kill": (l1, None, True),
            "kill+partitioned": (l1, (6, 2), True),
        }.items():
            want = simulate_multicore_py(traces, l1_cell, shared,
                                         quotas=quotas,
                                         shared_kill=shared_kill)
            assert grid[cell].as_dict() == want.as_dict(), cell
            assert grid[cell].shared_stats == want.shared_stats, cell

    def test_replay_combined(self):
        trace, _program = record_combined_trace("queen")
        config = CacheConfig(size_words=128, associativity=4)
        for honor in (True, False):
            with mock.patch.object(UnifiedCache, "access", refuse):
                got = replay_combined(trace, config, honor_annotations=honor)
            assert got == replay_combined_py(trace, config, honor), honor

    def test_the_dispatcher_is_what_refuses(self):
        with mock.patch.object(UnifiedCache, "access", refuse):
            with pytest.raises(AssertionError, match="access called"):
                Cache(CHECK_GEOMETRY).access(0, False)
