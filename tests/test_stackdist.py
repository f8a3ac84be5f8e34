"""Property suite for the one-pass stack-distance sweep engine.

The contract under test: for every supported LRU configuration,
:func:`repro.cache.stackdist.replay_trace_sweep` reconstructs
``CacheStats`` **byte-identically** to the serial reference replay
(:func:`repro.cache.replay.replay_trace` driving ``Cache.access``
event by event).  Hypothesis supplies adversarial traces — every flag
combination, tiny address ranges that alias heavily, instruction bits
— and the battery of geometries includes the degenerate shapes (one
set, one way, fully associative, lines wider than the address range)
where stacking bugs hide.

The cases here drive the dispatcher, which takes no engine override,
and pin the stack-distance model's gating.  Every engine the engine
table lists, called one by one, is held to the same oracle by
``tests/test_engine_table.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.stackdist import (
    engines_for,
    flavor_key,
    replay_trace_sweep,
    supports_stackdist,
)
from repro.vm.trace import TraceBuffer
from test_engine_table import (
    BATTERY,
    assert_same,
    fuzzer_trace,
    make_trace,
    serial,
    sparse_traces,
    traces,
)


def _assert_identical(trace, configs):
    """One dispatcher call over ``configs`` equals the serial replay.

    A config can be outside the one-pass model for this particular
    trace (a kill bit with multi-word lines, say); the dispatcher then
    scores it on the LRU lanes instead of the kernel.
    """
    swept = replay_trace_sweep(trace, configs)
    for config, got in zip(configs, swept):
        assert_same("replay_trace_sweep", config, got, serial(trace, config))


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(events=traces)
    def test_byte_identical_across_battery(self, events):
        trace = make_trace(events)
        _assert_identical(trace, BATTERY)

    @settings(max_examples=30, deadline=None)
    @given(events=sparse_traces)
    def test_sparse_address_space(self, events):
        trace = make_trace(events)
        _assert_identical(trace, BATTERY)

    @settings(max_examples=25, deadline=None)
    @given(
        events=traces,
        seed=st.integers(0, 2**16),
    )
    def test_auto_engine_mixed_specs(self, events, seed):
        """The dispatcher merges kernel and lane-walk results in
        order."""
        trace = make_trace(events)
        specs = [
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="lru"),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="fifo"),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="min"),
            CacheConfig(size_words=8, line_words=1, associativity=8,
                        policy="random", seed=seed),
            CacheConfig(size_words=64, line_words=1, associativity=4,
                        policy="lru", write_policy="writethrough"),
        ]
        _assert_identical(trace, specs)


class TestFuzzerTraces:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_generated_programs_round_trip(self, seed):
        """Real compiler-emitted traces (bypass/kill annotated by the
        unified pipeline) agree with the serial replay."""
        _assert_identical(fuzzer_trace(seed), BATTERY)


class TestEngineContract:
    def test_empty_trace(self):
        _assert_identical(TraceBuffer(), BATTERY)

    def test_unknown_engine_rejected(self):
        """No caller can name an engine: neither the dispatcher nor the
        table takes an override."""
        config = BATTERY[0]
        with pytest.raises(TypeError):
            replay_trace_sweep(TraceBuffer(), [config], engine="auto")
        with pytest.raises(TypeError):
            engines_for(config, True, True, "stats", "auto")

    def test_supports_gating(self):
        lru = CacheConfig(size_words=16, line_words=1, associativity=2,
                          policy="lru")
        fifo = CacheConfig(size_words=16, line_words=1, associativity=2,
                           policy="fifo")
        demote = CacheConfig(size_words=16, line_words=1, associativity=2,
                             policy="lru", kill_mode="demote")
        wide_kill = CacheConfig(size_words=16, line_words=2, associativity=2,
                                policy="lru")
        assert supports_stackdist(lru, True, True)
        assert not supports_stackdist(fifo, False, False)
        # Demote-mode kills fall back only when the trace has kills.
        assert supports_stackdist(demote, True, False)
        assert not supports_stackdist(demote, True, True)
        # Multi-word invalidation kills are out of the model too.
        assert not supports_stackdist(wide_kill, False, True)
        assert supports_stackdist(wide_kill, False, False)

    def test_flavor_key_normalizes_absent_flags(self):
        """honor_* only matters when the trace carries the bit, so
        flavors collapse and share passes when the bits are absent."""
        honoring = CacheConfig(size_words=16, line_words=1, associativity=2,
                               policy="lru")
        blind = CacheConfig(size_words=16, line_words=1, associativity=2,
                            policy="lru", honor_bypass=False,
                            honor_kill=False)
        assert flavor_key(honoring, False, False) == flavor_key(
            blind, False, False
        )
        assert flavor_key(honoring, True, True) != flavor_key(
            blind, True, True
        )
