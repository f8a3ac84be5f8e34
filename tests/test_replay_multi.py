"""One multi-configuration sweep call vs the serial path.

Every configuration the sweeps can request — policies, bypass/kill
honoring, write policies, allocation policy, kill modes, multi-word
lines, MIN — must produce bit-identical statistics whether it runs
through :func:`replay_trace` (the reference serial path) or, mixed
with the others in one call, through the sweep dispatcher
:func:`replay_trace_sweep`, which groups the specs and scores each
group on its engine.  The run collapse that fronts the lane walks is
held to the same oracle.  ``tests/test_engine_table.py`` takes
``SWEEP_CONFIGS`` and the hand trace from here and holds every engine
the engine table lists to the same oracle, one spec at a time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.replay import MinConfig, replay_trace
from repro.cache.semantics import (
    collapse_runs,
    fifo_sweep,
    flag_presence,
    flavor_decode,
    lru_sweep,
    min_sweep,
    next_use_index,
    random_sweep,
)
from repro.cache.stackdist import flavor_key, replay_trace_sweep
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer
from scalar_reference import collapse_runs_py


def make_trace(refs):
    trace = TraceBuffer()
    for address, is_write, bypass, kill in refs:
        flags = 0
        if is_write:
            flags |= FLAG_WRITE
        if bypass:
            flags |= FLAG_BYPASS
        if kill:
            flags |= FLAG_KILL
        trace.append(address, flags)
    return trace


#: Every behaviorally distinct configuration family the harness uses.
SWEEP_CONFIGS = [
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="lru"),
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="fifo"),
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="random",
                seed=99),
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="lru",
                honor_bypass=False, honor_kill=False),
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="lru",
                honor_bypass=True, honor_kill=False),
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="lru",
                write_policy="writethrough"),
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="lru",
                allocate_on_write=False),
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="lru",
                kill_mode="demote"),
    CacheConfig(size_words=16, line_words=4, associativity=2, policy="lru"),
    CacheConfig(size_words=16, line_words=4, associativity=2, policy="fifo",
                kill_mode="demote", write_policy="writethrough"),
    CacheConfig(size_words=4, line_words=1, associativity=4, policy="random",
                seed=7, allocate_on_write=False, kill_mode="demote"),
]


def serial_replay(trace, spec):
    """The reference result for one sweep slot."""
    if isinstance(spec, MinConfig):
        return replay_trace(
            trace,
            policy="min",
            size_words=spec.config.size_words,
            line_words=spec.config.line_words,
            associativity=spec.config.associativity,
            honor_bypass=spec.config.honor_bypass,
            honor_kill=spec.config.honor_kill,
            kill_mode=spec.config.kill_mode,
        )
    return replay_trace(trace, spec)


def assert_multi_matches_serial(trace, configs):
    """One dispatcher call over every spec equals the serial path."""
    serial = [serial_replay(trace, spec) for spec in configs]
    swept = replay_trace_sweep(trace, configs, engine="auto")
    for spec, expect, got in zip(configs, serial, swept):
        assert got.as_dict() == expect.as_dict(), spec


# A dense little stream touching hits, misses, evictions, bypasses,
# kills, writes, and re-reads of killed addresses.
HAND_REFS = [
    (0, False, False, False),
    (1, True, False, False),
    (2, False, False, False),
    (3, True, False, True),
    (0, False, False, False),
    (4, False, True, False),   # bypass read, not resident
    (1, False, True, True),    # bypass read of a dirty resident line + kill
    (5, True, True, False),    # bypass write
    (6, True, False, False),
    (7, False, False, True),   # kill on miss
    (2, True, True, True),     # bypass write + kill (kill not counted)
    (0, True, False, False),
    (8, False, False, False),
    (9, False, False, False),  # forces eviction at assoc 2
    (1, False, False, False),
    (3, False, False, False),
]


class TestMultiEqualsSerial:
    """Mixed families in one sweep call: LRU on the kernel and on the
    LRU lanes, FIFO, Random and MIN lanes, merged in request order."""

    def test_hand_trace_all_configs(self):
        trace = make_trace(HAND_REFS)
        assert_multi_matches_serial(trace, list(SWEEP_CONFIGS))

    def test_min_configs_share_next_use(self):
        trace = make_trace(HAND_REFS)
        specs = [
            MinConfig(size_words=8, line_words=1, associativity=2),
            MinConfig(size_words=8, line_words=1, associativity=2,
                      honor_kill=False),
            MinConfig(size_words=4, line_words=1, associativity=1),
            MinConfig(size_words=16, line_words=4, associativity=2),
            MinConfig(size_words=8, line_words=1, associativity=2,
                      honor_bypass=False),
        ]
        assert_multi_matches_serial(trace, specs)

    def test_mixed_online_and_min(self):
        trace = make_trace(HAND_REFS)
        specs = [
            SWEEP_CONFIGS[0],
            MinConfig(size_words=8, line_words=1, associativity=2),
            SWEEP_CONFIGS[3],
            MinConfig(size_words=8, line_words=1, associativity=2,
                      honor_kill=False),
        ]
        assert_multi_matches_serial(trace, specs)

    def test_empty_trace(self):
        trace = make_trace([])
        stats = replay_trace_sweep(
            trace, [SWEEP_CONFIGS[0], MinConfig(size_words=8,
                                                associativity=2)],
            engine="auto",
        )
        assert all(s.refs_total == 0 for s in stats)

    @given(
        refs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=23),
                st.booleans(),
                st.booleans(),
                st.booleans(),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_traces(self, refs):
        trace = make_trace(refs)
        specs = list(SWEEP_CONFIGS) + [
            MinConfig(size_words=8, line_words=1, associativity=2),
            MinConfig(size_words=8, line_words=1, associativity=2,
                      honor_kill=False),
        ]
        assert_multi_matches_serial(trace, specs)


class TestReplayTraceKwargsGuard:
    def test_config_plus_kwargs_raises(self):
        trace = make_trace(HAND_REFS)
        config = CacheConfig(size_words=8, associativity=2)
        with pytest.raises(ValueError, match="not both"):
            replay_trace(trace, config, size_words=4)

    def test_config_alone_still_works(self):
        trace = make_trace(HAND_REFS)
        config = CacheConfig(size_words=8, associativity=2)
        assert replay_trace(trace, config).refs_total == len(HAND_REFS)

    def test_kwargs_alone_still_work(self):
        trace = make_trace(HAND_REFS)
        stats = replay_trace(trace, size_words=8, associativity=2)
        assert stats.refs_total == len(HAND_REFS)

    def test_min_config_plus_kwargs_raises(self):
        config = CacheConfig(size_words=8, associativity=2)
        with pytest.raises(ValueError, match="not both"):
            MinConfig(config, size_words=4)


def collapse_for(trace, config):
    """The stream and CollapsedRuns a lane walk computes for ``config``."""
    columns = trace.to_columns()
    has_bypass, has_kill = flag_presence(columns)
    effective = (
        config.line_words,
        config.honor_bypass and has_bypass,
        config.honor_kill and has_kill,
    )
    stream = flavor_decode(columns, effective + (config.write_policy,))
    return stream, collapse_runs(
        stream.blocks_np, stream.types_np, config.num_sets
    )


#: Collapse is only sound under write-allocation (a write-around head
#: miss leaves its followers missing too) — the eligible slice of the
#: sweep family, across all three online policies plus the variant
#: knobs.
COLLAPSE_CONFIGS = [
    spec for spec in SWEEP_CONFIGS if spec.allocate_on_write
]


def walked(trace, spec):
    """``spec`` scored by its lane walk, which fronts itself with the
    run collapse whenever the spec allocates on write."""
    config = spec.config if isinstance(spec, MinConfig) else spec
    columns = trace.to_columns()
    stream = flavor_decode(columns,
                           flavor_key(config, *flag_presence(columns)))
    args = (
        stream, config.num_sets, [config.associativity],
        config.line_words, config.kill_mode, config.write_policy,
        config.allocate_on_write,
    )
    if isinstance(spec, MinConfig):
        lanes = min_sweep(*args, next_use_index(
            trace, config.line_words, config.honor_bypass
        ))
    elif config.policy == "random":
        lanes = random_sweep(*args, config.seed)
    elif config.policy == "fifo":
        lanes = fifo_sweep(*args)
    else:
        lanes = lru_sweep(*args)
    return lanes[config.associativity]


class TestRunCollapseBitIdentity:
    """The same-block run collapse fronting the lane walks never
    changes a single counter — collapsed followers are guaranteed MRU
    hits and their write-dirtying is absorbed exactly."""

    def assert_collapse_invisible(self, trace):
        # MIN rides the same collapse, stamped with the next use of
        # each run's last event.
        for spec in COLLAPSE_CONFIGS + [
            MinConfig(size_words=8, line_words=1, associativity=2),
        ]:
            want = serial_replay(trace, spec)
            assert walked(trace, spec).as_dict() == want.as_dict(), spec

    def test_hand_trace(self):
        self.assert_collapse_invisible(make_trace(HAND_REFS))

    def test_dense_runs(self):
        """Long same-block runs with interleaved sets — the shape the
        collapse exists for."""
        refs = []
        for block in (0, 1, 8, 1, 0):
            for repeat in range(6):
                refs.append((block, repeat % 2 == 1, False, False))
        refs.append((9, False, False, True))
        refs.extend((0, True, False, False) for _ in range(4))
        self.assert_collapse_invisible(make_trace(refs))

    @given(
        refs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.booleans(),
                st.booleans(),
                st.booleans(),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_collapse_bit_identity(self, refs):
        self.assert_collapse_invisible(make_trace(refs))

    @given(
        refs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.booleans(),
                st.booleans(),
                st.booleans(),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_numpy_and_python_collapse_agree(self, refs):
        trace = make_trace(refs)
        for config in COLLAPSE_CONFIGS[:3]:
            stream, runs = collapse_for(trace, config)
            blocks = stream.blocks_np.tolist()
            types = stream.types_np.tolist()
            pure = collapse_runs_py(blocks, types, config.num_sets)
            if runs is None or pure is None:
                assert runs is None and pure is None
                continue
            assert runs.indices.tolist() == pure.indices
            assert runs.run_writes == pure.run_writes
            assert runs.last_indices.tolist() == pure.last_indices
            assert runs.follower_reads == pure.follower_reads
            assert runs.follower_writes == pure.follower_writes
            assert runs.collapsed == pure.collapsed


class TestFuzzedProgramTraces:
    """One sweep call against traces of real compiled programs."""

    @pytest.fixture(scope="class")
    def fuzz_traces(self):
        from repro.robustness.generator import generate_program
        from repro.unified.pipeline import CompilationOptions, compile_source
        from repro.vm.memory import RecordingMemory

        traces = []
        for seed in (3, 11, 29):
            generated = generate_program(seed)
            program = compile_source(
                generated.source,
                CompilationOptions(scheme="unified", promotion="aggressive"),
            )
            memory = RecordingMemory()
            program.run(memory=memory)
            traces.append(memory.buffer)
        return traces

    def test_fuzzed_traces_agree(self, fuzz_traces):
        for trace in fuzz_traces:
            assert_multi_matches_serial(
                trace,
                [
                    SWEEP_CONFIGS[0],
                    SWEEP_CONFIGS[2],
                    SWEEP_CONFIGS[3],
                    MinConfig(size_words=8, line_words=1, associativity=2),
                ],
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_fuzzed_seeds(self, seed):
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
        assert_multi_matches_serial(
            memory.buffer,
            [
                SWEEP_CONFIGS[0],
                SWEEP_CONFIGS[5],
                SWEEP_CONFIGS[6],
                MinConfig(size_words=8, line_words=1, associativity=2),
            ],
        )
