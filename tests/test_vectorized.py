"""Property suite for the set-major vectorized replay kernel.

The contract under test: :func:`repro.cache.vectorized.vector_profile_pass`
builds, field by field, the :class:`StackDistanceProfile` and the
per-event hit mask that its all-flagged mode builds — every set
replayed through the hole-stack automaton, the mode it runs in above
``VECTOR_ASSOC_CAP_LIMIT`` — so the array pass is held to the
automaton at every cap, and the dispatcher that runs it must match
the serial replay.  The geometry battery deliberately includes the
degenerate shapes (one set, one way, lines wider than the address
range) where segmented-scan bugs hide.  ``tests/test_engine_table.py``
runs the kernel on every spec the engine table lists it for.
"""

from unittest import mock

import numpy
import pytest
from hypothesis import given, settings

from repro.cache import semantics, vectorized
from repro.cache.cache import CacheConfig
from repro.cache.stackdist import (
    StackDistanceProfile,
    _flag_presence,
    flavor_key,
    replay_trace_sweep,
    supports_stackdist,
)
from repro.cache.vectorized import VECTOR_ASSOC_CAP_LIMIT, vector_profile_pass
from repro.vm.trace import FLAG_KILL, FLAG_WRITE, TraceBuffer
from test_engine_table import (
    ANNOTATED_EVENTS,
    BATTERY,
    GEOMETRIES,
    fuzzer_trace,
    make_trace,
    reference_hits,
    serial,
    sparse_traces,
    traces,
)
from test_stackdist import _assert_identical


def _fields(profile):
    return {
        name: getattr(profile, name)
        for name in StackDistanceProfile.__slots__
    }


def all_flagged(columns, flavor, num_sets, assoc_cap, **kwargs):
    """The kernel with every set flagged: its wide-cap mode, forced at
    any cap by a cap limit of 0."""
    with mock.patch.object(vectorized, "VECTOR_ASSOC_CAP_LIMIT", 0):
        return vector_profile_pass(columns, flavor, num_sets, assoc_cap,
                                   **kwargs)


def assert_matches_automaton(trace, configs=BATTERY):
    """The kernel equals its all-flagged mode field by field, hit mask
    included, on every profiled group of ``configs``, and the
    dispatcher equals the serial replay on all of them."""
    columns = trace.to_columns()
    has_bypass, has_kill = _flag_presence(columns)
    for config in configs:
        if not supports_stackdist(config, has_bypass, has_kill):
            continue
        flavor = flavor_key(config, has_bypass, has_kill)
        geometry = (config.num_sets, config.associativity)
        hits = numpy.zeros(len(trace), dtype=bool)
        flagged_hits = numpy.zeros(len(trace), dtype=bool)
        got = vector_profile_pass(columns, flavor, *geometry, hits=hits)
        want = all_flagged(columns, flavor, *geometry, hits=flagged_hits)
        assert _fields(got) == _fields(want), config
        assert hits.tolist() == flagged_hits.tolist(), config
    _assert_identical(trace, configs)


class TestPropertyEquivalence:
    """The array pass versus the automaton, and the dispatcher versus
    the serial replay.

    The dispatcher scores the profiled LRU groups with the kernel and
    routes unsupported specs through the lane walks (fallback, never
    failure), so the whole battery — every
    honor_bypass/honor_kill/write_policy combination over every
    degenerate geometry — runs through one assertion.
    """

    @settings(max_examples=60, deadline=None)
    @given(events=traces)
    def test_byte_identical_across_battery(self, events):
        assert_matches_automaton(make_trace(events))

    @settings(max_examples=30, deadline=None)
    @given(events=sparse_traces)
    def test_sparse_address_space(self, events):
        assert_matches_automaton(make_trace(events))

    def test_degenerate_geometries_with_annotations(self):
        """One set, one way, wide lines — with bypass and kill traffic
        (the probe/mutation path) exercised deterministically."""
        trace = make_trace(ANNOTATED_EVENTS)
        degenerate = [
            CacheConfig(size_words=size, line_words=lw, associativity=assoc,
                        policy="lru", write_policy=wp)
            for size, lw, assoc in GEOMETRIES
            for wp in ("writeback", "writethrough")
        ]
        assert_matches_automaton(trace, degenerate)


class TestFuzzerTraces:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_generated_programs_round_trip(self, seed):
        """Real compiler-emitted traces (bypass/kill annotated by the
        unified pipeline) score identically in the array pass and the
        automaton."""
        assert_matches_automaton(fuzzer_trace(seed))


def _profile_stats(profile, assoc_cap):
    return [profile.stats_for(a).as_dict() for a in range(1, assoc_cap + 1)]


class TestKernelSelection:
    """The ``info`` side channel and the wide-cap mode."""

    FLAVOR = (1, True, True, "writeback")
    EVENTS = [(3, 0), (5, FLAG_WRITE), (3, FLAG_KILL), (9, 0),
              (5, 0), (3, FLAG_WRITE), (1, FLAG_KILL | FLAG_WRITE)]

    def _columns(self):
        return make_trace(self.EVENTS).to_columns()

    def test_numpy_kernel_reported_and_identical(self):
        columns = self._columns()
        info = {}
        got = vector_profile_pass(columns, self.FLAVOR, 4, 4, info=info)
        want = all_flagged(columns, self.FLAVOR, 4, 4)
        # Addresses 3, 5, 9 and 1 fall in sets 3 and 1 of four; the
        # kernel reports each present set as offline or fallback.
        assert info["offline_sets"] + info["fallback_sets"] == 2
        assert info["fallback_events"] <= len(self.EVENTS)
        assert _profile_stats(got, 4) == _profile_stats(want, 4)

    def test_oversize_assoc_cap_delegates_to_scalar(self):
        """Above the cap the dispatcher still scores the group on the
        kernel, which skips its level loop and delegates every set to
        the scalar automaton."""
        trace = make_trace(self.EVENTS)
        cap = VECTOR_ASSOC_CAP_LIMIT + 1
        config = CacheConfig(size_words=cap, line_words=1,
                             associativity=cap, policy="lru")
        with mock.patch.object(vectorized, "vector_profile_pass",
                               wraps=vector_profile_pass) as kernel:
            (got,) = replay_trace_sweep(trace, [config])
        assert kernel.call_count == 1
        info = {}
        want = vector_profile_pass(self._columns(), self.FLAVOR, 1, cap,
                                   info=info)
        assert info == {"offline_sets": 0, "fallback_sets": 1,
                        "fallback_events": len(self.EVENTS)}
        assert got.as_dict() == want.stats_for(cap).as_dict()
        assert got.as_dict() == serial(trace, config).as_dict()

    def test_hits_need_the_array_kernel(self):
        """The array kernel gives per-event hits at every cap: above
        ``VECTOR_ASSOC_CAP_LIMIT`` through the automaton's sink."""
        trace = make_trace(self.EVENTS * 3)
        for cap in (VECTOR_ASSOC_CAP_LIMIT, VECTOR_ASSOC_CAP_LIMIT + 1):
            config = CacheConfig(size_words=cap, line_words=1,
                                 associativity=cap, policy="lru")
            hits = numpy.zeros(len(trace), dtype=bool)
            profile = vector_profile_pass(
                trace.to_columns(), self.FLAVOR, 1, cap, hits=hits,
            )
            assert hits.tolist() == reference_hits(trace, config), cap
            assert profile.stats_for(cap) == serial(trace, config), cap

    def test_flavor_key_shape_matches_kernel_contract(self):
        """The dispatcher hands ``flavor_key`` tuples straight to the
        kernel; both sides must agree on the layout."""
        config = CacheConfig(size_words=16, line_words=2, associativity=2,
                             policy="lru", write_policy="writethrough")
        flavor = flavor_key(config, True, True)
        line_words, honor_bypass, honor_kill, write_policy = flavor
        assert line_words == 2
        assert write_policy == "writethrough"
        assert isinstance(honor_bypass, bool)
        assert isinstance(honor_kill, bool)


class TestSetBlocks:
    """Sets are independent and every profile field is additive, so
    the kernel over blocks of a few events equals the scalar automaton
    (the all-flagged mode, over one block) field by field, and its
    ``info`` counts sum to the one-block ones.
    """

    @settings(max_examples=40, deadline=None)
    @given(events=traces)
    def test_small_blocks_match_scalar_profiler(self, events):
        columns = make_trace(events).to_columns()
        has_bypass, has_kill = _flag_presence(columns)
        for config in BATTERY:
            if not supports_stackdist(config, has_bypass, has_kill):
                continue
            flavor = flavor_key(config, has_bypass, has_kill)
            geometry = (config.num_sets, config.associativity)
            want = all_flagged(columns, flavor, *geometry)
            one_block = {}
            vector_profile_pass(columns, flavor, *geometry, info=one_block)
            blocks = {}
            with mock.patch.object(semantics, "SET_BLOCK_EVENTS", 3):
                got = vector_profile_pass(columns, flavor, *geometry,
                                          info=blocks)
                wide = all_flagged(columns, flavor, *geometry)
            assert _fields(got) == _fields(want), config
            assert _fields(wide) == _fields(want), config
            assert blocks == one_block, config

    def test_blocks_are_whole_sets_within_budget(self):
        blocks = numpy.array([0, 4, 8, 1, 2, 6, 10, 14, 18, 3])
        with mock.patch.object(semantics, "SET_BLOCK_EVENTS", 3):
            bounds = list(semantics.set_blocks(blocks, 4))
        # Set sizes 3, 1, 5, 1: sets 0 | 1 | 2 (over budget, alone) | 3.
        assert bounds == [(0, 3), (3, 4), (4, 9), (9, 10)]


class TestDispatch:
    def test_forced_vectorized_falls_back_not_fails(self):
        """The dispatcher puts the LRU group on the kernel and routes
        specs outside the stack-distance model (FIFO, Random, MIN,
        demote-kill) through the lane walks: it falls back, never
        fails."""
        trace = make_trace([(3, 0), (5, FLAG_WRITE), (3, FLAG_KILL),
                            (5, 0), (3, 0)])
        specs = [
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="lru"),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="fifo"),
            CacheConfig(size_words=8, line_words=1, associativity=8,
                        policy="random", seed=7),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="lru", kill_mode="demote"),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="min"),
        ]
        _assert_identical(trace, specs)

    def test_empty_trace(self):
        _assert_identical(TraceBuffer(), BATTERY)
