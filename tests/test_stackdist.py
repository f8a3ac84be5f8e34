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
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.replay import MinConfig, replay_trace
from repro.cache.stackdist import (
    _flag_presence,
    flavor_key,
    replay_trace_sweep,
    supports_stackdist,
)
from repro.vm.trace import (
    FLAG_AMBIGUOUS,
    FLAG_BYPASS,
    FLAG_INSTRUCTION,
    FLAG_KILL,
    FLAG_WRITE,
    TraceBuffer,
)

#: Geometries chosen to cover every structural edge: one set, one way,
#: a single fully-associative set, direct-mapped many-set, multi-word
#: lines, and lines wider than the whole generated address range.
GEOMETRIES = (
    (1, 1, 1),      # the single-line cache
    (2, 2, 1),      # one set, one way, two-word line
    (4, 1, 4),      # one fully-associative set
    (16, 1, 2),     # 8 sets, 2-way
    (16, 4, 1),     # direct-mapped, 4-word lines
    (64, 1, 4),     # the Figure 5 ladder shape
    (8, 8, 1),      # line wider than the small address ranges below
)


def lru_battery():
    configs = []
    for size, lw, assoc in GEOMETRIES:
        for honor_bypass in (True, False):
            for honor_kill in (True, False):
                for write_policy in ("writeback", "writethrough"):
                    configs.append(
                        CacheConfig(
                            size_words=size,
                            line_words=lw,
                            associativity=assoc,
                            policy="lru",
                            honor_bypass=honor_bypass,
                            honor_kill=honor_kill,
                            write_policy=write_policy,
                        )
                    )
    return configs


BATTERY = lru_battery()

#: Every flag byte the VM can emit (modulo origin bits, which replay
#: ignores): read/write × bypass × kill, plus ambiguity and
#: instruction-fetch markers to prove they never perturb the math.
FLAG_CHOICES = [
    w | b | k
    for w in (0, FLAG_WRITE)
    for b in (0, FLAG_BYPASS)
    for k in (0, FLAG_KILL)
] + [FLAG_AMBIGUOUS, FLAG_WRITE | FLAG_AMBIGUOUS, FLAG_INSTRUCTION | 0x10]


def make_trace(events):
    buffer = TraceBuffer()
    for address, flags in events:
        buffer.append(address, flags)
    return buffer


def _assert_identical(trace, configs, engine):
    swept = replay_trace_sweep(trace, configs, engine=engine)
    for config, got in zip(configs, swept):
        want = replay_trace(trace, config)
        assert got.as_dict() == want.as_dict(), (
            engine,
            config,
            {
                key: (want.as_dict()[key], got.as_dict()[key])
                for key in want.as_dict()
                if want.as_dict()[key] != got.as_dict()[key]
            },
        )


def assert_sweep_matches_serial(trace, configs, engine=None):
    """Forced stackdist on every supported config, auto on the lot.

    A config can be outside the one-pass model for this particular
    trace (a kill bit with multi-word lines, say); those only run
    through the auto path, which is also the harness default.
    """
    if engine is not None:
        _assert_identical(trace, configs, engine)
        return
    has_bypass, has_kill = _flag_presence(trace.to_columns())
    supported = [
        config
        for config in configs
        if supports_stackdist(config, has_bypass, has_kill)
    ]
    if supported:
        _assert_identical(trace, supported, "stackdist")
    _assert_identical(trace, configs, "auto")


traces = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(FLAG_CHOICES)),
    max_size=300,
)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(events=traces)
    def test_byte_identical_across_battery(self, events):
        trace = make_trace(events)
        assert_sweep_matches_serial(trace, BATTERY)

    @settings(max_examples=30, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 100000),
                st.sampled_from(FLAG_CHOICES),
            ),
            max_size=120,
        )
    )
    def test_sparse_address_space(self, events):
        trace = make_trace(events)
        assert_sweep_matches_serial(trace, BATTERY)

    @settings(max_examples=25, deadline=None)
    @given(
        events=traces,
        seed=st.integers(0, 2**16),
    )
    def test_auto_engine_mixed_specs(self, events, seed):
        """auto mode merges stackdist and fallback results in order."""
        trace = make_trace(events)
        specs = [
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="lru"),
            CacheConfig(size_words=16, line_words=1, associativity=2,
                        policy="fifo"),
            MinConfig(size_words=16, line_words=1, associativity=2),
            CacheConfig(size_words=8, line_words=1, associativity=8,
                        policy="random", seed=seed),
            CacheConfig(size_words=64, line_words=1, associativity=4,
                        policy="lru", write_policy="writethrough"),
        ]
        swept = replay_trace_sweep(trace, specs, engine="auto")
        for spec, got in zip(specs, swept):
            if isinstance(spec, MinConfig):
                continue  # covered by the multi-replay battery
            want = replay_trace(trace, spec)
            assert got.as_dict() == want.as_dict()


class TestFuzzerTraces:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_generated_programs_round_trip(self, seed):
        """Real compiler-emitted traces (bypass/kill annotated by the
        unified pipeline) agree between the two engines."""
        from repro.robustness.generator import generate_program
        from repro.unified.pipeline import CompilationOptions, compile_source
        from repro.vm.memory import RecordingMemory

        generated = generate_program(seed)
        program = compile_source(
            generated.source,
            CompilationOptions(scheme="unified", promotion="aggressive"),
        )
        memory = RecordingMemory()
        program.run(memory=memory)
        assert_sweep_matches_serial(memory.buffer, BATTERY)


class TestEngineContract:
    def test_empty_trace(self):
        assert_sweep_matches_serial(TraceBuffer(), BATTERY)

    def test_unknown_engine_rejected(self):
        # "vectorized" names the kernels auto runs, not an engine.
        for engine in ("belady", "vectorized"):
            with pytest.raises(ValueError, match="unknown sweep engine"):
                replay_trace_sweep(TraceBuffer(), BATTERY, engine=engine)

    def test_forced_stackdist_rejects_fifo(self):
        config = CacheConfig(size_words=16, line_words=1, associativity=2,
                             policy="fifo")
        with pytest.raises(ValueError, match="cannot profile"):
            replay_trace_sweep(TraceBuffer(), [config], engine="stackdist")

    def test_forced_multi_matches_serial(self):
        trace = make_trace([(3, 0), (5, FLAG_WRITE), (3, FLAG_KILL)])
        assert_sweep_matches_serial(trace, BATTERY, engine="multi")

    def test_env_var_selects_engine(self, monkeypatch):
        config = CacheConfig(size_words=16, line_words=1, associativity=2,
                             policy="fifo")
        monkeypatch.setenv("REPRO_SWEEP_ENGINE", "stackdist")
        with pytest.raises(ValueError, match="cannot profile"):
            replay_trace_sweep(TraceBuffer(), [config])
        monkeypatch.setenv("REPRO_SWEEP_ENGINE", "auto")
        replay_trace_sweep(TraceBuffer(), [config])

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
