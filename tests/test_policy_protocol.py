"""Conformance suite for the :class:`ReplacementPolicy` protocol.

The refactor's contract is that every policy — LRU, FIFO, Random,
MIN, and the predictive zoo (SRRIP, BRRIP, DRRIP, SHiP, Hawkeye) — is
a state-owning strategy object behind one transfer function
(:class:`repro.cache.semantics.UnifiedCache`), and that every engine
driving that core produces bit-identical :class:`CacheStats`.  This
suite checks the contract from four angles:

* the protocol surface itself (``make_policy`` dispatch, the
  operations every policy must expose, capacity invariants,
  fixed-seed determinism);
* cross-engine bit-identity per policy on hand-built and fuzzer
  traces (serial replay vs the sweep dispatcher — Random included,
  via the counter-based per-(set, draw) RNG);
* the kill/bypass interaction semantics each policy must honor
  (demote forces predicted-dead, invalidation never trains a
  predictor);
* the golden Figure 5 pin: the numbers in ``tests/golden/figure5.json``
  reproduced through three engines — online :class:`Cache`, the
  data-carrying functional twin, and the sweep dispatcher.

Every engine the engine table lists, called one by one on the same
policy families, is held to the serial replay by
``tests/test_engine_table.py``.
"""

import json
import os

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.functional import DataCachedMemory
from repro.cache.replay import policy_for_trace, replay_trace
from repro.cache.semantics import (
    ENTRY_DEAD,
    RRPV_MAX,
    SHCT_INIT,
    _RRIP_RRPV,
    _RRIP_SIG,
    BRRIPPolicy,
    DRRIPPolicy,
    FIFOPolicy,
    HawkeyePolicy,
    LRUPolicy,
    MinPolicy,
    RandomPolicy,
    SHiPPolicy,
    SRRIPPolicy,
    UnifiedCache,
    make_policy,
    next_use_index,
)
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.experiment import (
    DEFAULT_CACHE,
    _static_bypass_checked,
    conventional_config,
)
from repro.evalharness.figure5 import figure5_options
from repro.programs import get_benchmark
from repro.unified.pipeline import compile_source
from repro.vm.memory import RecordingMemory
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer
from test_engine_table import (
    MIN_CONFIGS,
    MIXED_SPECS,
    PROTOCOL_REFS as HAND_REFS,
    fuzzer_trace,
    policy_configs,
    serial,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "figure5.json"
)

#: Every protocol operation the semantics core calls on a policy (it
#: finds resident blocks through the ``resident`` map instead).
PROTOCOL_OPS = (
    "reset", "touch", "room", "evict", "install",
    "invalidate", "demote", "entries",
)

ONLINE_POLICIES = ("lru", "fifo", "random")

#: The predictive zoo (docs/POLICIES.md); all online, all held to the
#: same cross-engine battery as the classics.
ZOO_POLICIES = ("srrip", "brrip", "drrip", "ship", "hawkeye")

ALL_ONLINE_POLICIES = ONLINE_POLICIES + ZOO_POLICIES

#: Policies that consume trace positions (and, for the predictors,
#: precomputed trace columns).
INDEXED_POLICIES = ("min", "ship", "hawkeye")


def build_policy(policy, trace):
    """A ready policy instance for ``policy`` over ``trace``."""
    return policy_for_trace(trace, CacheConfig(policy=policy, seed=1))


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


class TestProtocolSurface:
    def test_make_policy_dispatch(self):
        assert isinstance(
            make_policy(CacheConfig(policy="lru")), LRUPolicy
        )
        assert isinstance(
            make_policy(CacheConfig(policy="fifo")), FIFOPolicy
        )
        assert isinstance(
            make_policy(CacheConfig(policy="random", seed=1)), RandomPolicy
        )
        assert isinstance(
            make_policy(CacheConfig(policy="min"), next_use=[]), MinPolicy
        )
        assert isinstance(
            make_policy(CacheConfig(policy="srrip")), SRRIPPolicy
        )
        assert isinstance(
            make_policy(CacheConfig(policy="brrip")), BRRIPPolicy
        )
        assert isinstance(
            make_policy(CacheConfig(policy="drrip")), DRRIPPolicy
        )
        assert isinstance(
            make_policy(CacheConfig(policy="ship"), signatures=[]),
            SHiPPolicy,
        )
        assert isinstance(
            make_policy(
                CacheConfig(policy="hawkeye"), next_use=[], signatures=[]
            ),
            HawkeyePolicy,
        )

    def test_predictor_policies_demand_their_columns(self):
        with pytest.raises(ValueError, match="next-use index"):
            make_policy(CacheConfig(policy="min"))
        with pytest.raises(ValueError, match="signature column"):
            make_policy(CacheConfig(policy="ship"))
        with pytest.raises(ValueError, match="next-use and signature"):
            make_policy(CacheConfig(policy="hawkeye"))
        with pytest.raises(ValueError, match="next-use and signature"):
            make_policy(CacheConfig(policy="hawkeye"), signatures=[])

    def test_min_cache_needs_the_next_use_index(self):
        """MIN is a config policy, but an offline one: a cache built
        from the config alone has no next-use index to read."""
        config = CacheConfig(policy="min")
        with pytest.raises(ValueError, match="next-use index"):
            Cache(config)
        trace = make_trace(HAND_REFS)
        cache = Cache(config, policy=policy_for_trace(trace, config))
        assert isinstance(cache.policy, MinPolicy)

    def test_unknown_policy_raises(self):
        class Stub:
            policy = "plru"

        with pytest.raises(ValueError, match="unknown policy"):
            make_policy(Stub())

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES + ("min",))
    def test_protocol_operations_exist(self, policy):
        instance = build_policy(policy, make_trace(HAND_REFS))
        if instance is None:
            instance = make_policy(CacheConfig(policy=policy, seed=1))
        for op in PROTOCOL_OPS:
            assert callable(getattr(instance, op)), (policy, op)
        instance.reset(CacheConfig(policy=policy, seed=1))
        assert instance.resident == {}, policy
        assert isinstance(instance.needs_index, bool)
        assert instance.needs_index == (policy in INDEXED_POLICIES)

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_capacity_never_exceeded(self, policy):
        config = CacheConfig(
            size_words=8, line_words=1, associativity=2, policy=policy,
            seed=5,
        )
        trace = make_trace(HAND_REFS)
        core = UnifiedCache(config, policy=policy_for_trace(trace, config))
        for index, (address, is_write, bypass, kill) in enumerate(HAND_REFS):
            core.access(address, is_write, bypass, kill, index=index)
            counts = {}
            for block, entry in core.policy.entries():
                assert entry[0] in (True, False)
                set_index = block % config.num_sets
                counts[set_index] = counts.get(set_index, 0) + 1
            for set_index, count in counts.items():
                assert count <= config.associativity, (policy, set_index)

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_fixed_seed_determinism(self, policy):
        """The same config replays to the same stats, run after run."""
        trace = make_trace(HAND_REFS)
        config = CacheConfig(
            size_words=8, line_words=1, associativity=2, policy=policy,
            seed=17,
        )
        first = replay_trace(trace, config)
        second = replay_trace(trace, config)
        assert first.as_dict() == second.as_dict()

    def test_random_seed_changes_the_draws(self):
        """Different seeds must be able to produce different victims
        (the counter RNG is seeded, not degenerate)."""
        refs = [(a % 12, a % 3 == 0, False, False) for a in range(400)]
        trace = make_trace(refs)
        outcomes = {
            replay_trace(
                trace,
                CacheConfig(size_words=4, line_words=1, associativity=4,
                            policy="random", seed=seed),
            ).hits
            for seed in range(8)
        }
        assert len(outcomes) > 1


class TestCrossEngineBitIdentity:
    """serial replay == sweep dispatcher, per policy.  Every case here
    is also an input of ``tests/test_engine_table.py``'s corpus (this
    hand trace is its ``PROTOCOL_REFS``; fuzzer seeds 7 and 23; every
    ``policy_configs`` family, ``MIN_CONFIGS`` and ``MIXED_SPECS``)."""

    def engines(self, trace, specs):
        wants = [serial(trace, spec) for spec in specs]
        swept = replay_trace_sweep(trace, specs)
        for spec, want, got in zip(specs, wants, swept):
            assert got.as_dict() == want.as_dict(), spec

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_hand_trace(self, policy):
        self.engines(make_trace(HAND_REFS), policy_configs(policy))

    def test_hand_trace_min(self):
        self.engines(make_trace(HAND_REFS),
                     policy_configs("min") + MIN_CONFIGS)

    @pytest.fixture(scope="class")
    def fuzz_traces(self):
        return [fuzzer_trace(seed) for seed in (7, 23)]

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_fuzzed_traces(self, policy, fuzz_traces):
        for trace in fuzz_traces:
            self.engines(trace, policy_configs(policy))

    def test_fuzzed_traces_min(self, fuzz_traces):
        for trace in fuzz_traces:
            self.engines(trace, policy_configs("min") + MIN_CONFIGS)

    def test_mixed_policy_battery_one_call(self, fuzz_traces):
        """One sweep call spanning every registered policy routes each
        spec to its engine and still matches the serial path
        spec-by-spec."""
        for trace in fuzz_traces:
            self.engines(trace, MIXED_SPECS)


class TestKillBypassInteraction:
    """Per-policy unit cases for the kill/bypass semantics (the
    interaction table in docs/POLICIES.md)."""

    def drive(self, policy, refs, **overrides):
        params = dict(size_words=4, line_words=1, associativity=2,
                      policy=policy, seed=9)
        params.update(overrides)
        config = CacheConfig(**params)
        trace = make_trace(refs)
        core = UnifiedCache(config, policy=policy_for_trace(trace, config))
        for index, (address, flags) in enumerate(trace):
            core.access(
                address,
                bool(flags & FLAG_WRITE),
                bool(flags & FLAG_BYPASS),
                bool(flags & FLAG_KILL),
                index=index,
            )
        return core

    def blocks(self, core):
        return {block for block, _entry in core.policy.entries()}

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_kill_invalidate_drops_the_line(self, policy):
        core = self.drive(policy, [
            (0, False, False, False),
            (0, False, False, True),
        ])
        assert 0 not in self.blocks(core)

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_kill_demote_marks_dead_but_keeps_the_line(self, policy):
        core = self.drive(policy, [
            (0, False, False, False),
            (2, False, False, False),
            (0, False, False, True),
        ], kill_mode="demote")
        entries = dict(core.policy.entries())
        assert set(entries) >= {0, 2}
        assert entries[0][ENTRY_DEAD]
        assert not entries[2][ENTRY_DEAD]

    @pytest.mark.parametrize("policy", ZOO_POLICIES)
    def test_demote_forces_predicted_dead(self, policy):
        """A killed line lands at distant RRPV with its signature
        cleared — the compiler's verdict overrides the predictor."""
        core = self.drive(policy, [
            (0, False, False, False),
            (2, False, False, False),
            (0, False, False, True),
        ], kill_mode="demote")
        entries = dict(core.policy.entries())
        assert entries[0][_RRIP_RRPV] == RRPV_MAX
        assert entries[0][_RRIP_SIG] is None

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_demoted_line_is_the_next_victim(self, policy):
        """Dead lines are evicted first under every policy — the
        paper's dead-line reuse is policy-independent."""
        core = self.drive(policy, [
            (0, False, False, False),
            (2, False, False, False),
            (0, False, False, True),
            (4, False, False, False),
        ], kill_mode="demote")
        assert self.blocks(core) & {0, 2, 4} == {2, 4}

    @pytest.mark.parametrize("policy", ALL_ONLINE_POLICIES)
    def test_bypass_never_installs(self, policy):
        core = self.drive(policy, [(0, False, True, False)])
        assert self.blocks(core) == set()
        assert core.stats.refs_bypassed == 1

    def test_ship_kill_is_predictor_exempt(self):
        """Killing a never-reused line must not detrain the SHCT —
        compiler knowledge is not predictor evidence."""
        control = self.drive("ship", [
            (0, False, False, False),
            (2, False, False, False),
        ], size_words=2, associativity=1)
        assert control.policy._shct == {0: SHCT_INIT - 1}
        killed = self.drive("ship", [
            (0, False, False, True),
            (2, False, False, False),
        ], size_words=2, associativity=1, kill_mode="demote")
        assert killed.policy._shct == {}


class TestFunctionalTwinZoo:
    """The data-carrying functional twin replays every zoo policy
    bit-identically to the trace engines (the two-pass scheme:
    record the trace, build the predictor columns, re-run)."""

    @pytest.mark.parametrize("policy", ZOO_POLICIES + ("random",))
    def test_twin_matches_replay(self, policy):
        program = compile_source(
            get_benchmark("puzzle").source, figure5_options()
        )
        memory = RecordingMemory()
        output = program.run(memory=memory).output
        trace = memory.buffer
        config = CacheConfig(
            size_words=64, line_words=1, associativity=4,
            policy=policy, seed=11,
        )
        want = replay_trace(trace, config)
        twin = DataCachedMemory(
            config, policy=policy_for_trace(trace, config)
        )
        fresh = compile_source(
            get_benchmark("puzzle").source, figure5_options()
        )
        result = fresh.run(memory=twin)
        assert result.output == output
        assert twin.stats.as_dict() == want.as_dict()


class TestGoldenFigure5Pin:
    """The golden Figure 5 numbers through three engines.

    Two benchmarks keep the runtime proportionate;
    ``tests/test_figure5_golden.py`` pins the full table on its
    reference, functional and sweep legs.
    """

    NAMES = ("towers", "intmm")

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def runs(self):
        options = figure5_options()
        out = {}
        for name in self.NAMES:
            program = compile_source(get_benchmark(name).source, options)
            memory = RecordingMemory()
            program.run(memory=memory)
            out[name] = (program, memory.buffer)
        return out

    def payload(self, program, summary, unified, conventional):
        return {
            "static_percent_unambiguous":
                program.static.percent_unambiguous,
            "static_bypass_checked":
                _static_bypass_checked(program, DEFAULT_CACHE),
            "dynamic_percent_unambiguous":
                100.0 * summary["unambiguous"] / summary["total"],
            "cache_traffic_reduction":
                unified.cache_traffic_reduction_vs(conventional),
            "bus_traffic_reduction":
                unified.bus_traffic_reduction_vs(conventional),
            "dynamic_refs": summary["total"],
        }

    def test_sweep_dispatcher_matches_golden(self, runs, golden):
        specs = [DEFAULT_CACHE, conventional_config(DEFAULT_CACHE)]
        for name, (program, trace) in runs.items():
            unified, conventional = replay_trace_sweep(trace, specs)
            assert self.payload(
                program, trace.summary(), unified, conventional
            ) == golden[name], name

    def test_online_cache_matches_golden(self, runs, golden):
        for name, (program, trace) in runs.items():
            stats = []
            for config in (DEFAULT_CACHE,
                           conventional_config(DEFAULT_CACHE)):
                cache = Cache(config)
                for address, flags in trace:
                    cache.access(
                        address,
                        bool(flags & FLAG_WRITE),
                        bool(flags & FLAG_BYPASS),
                        bool(flags & FLAG_KILL),
                    )
                stats.append(cache.stats)
            assert self.payload(
                program, trace.summary(), stats[0], stats[1]
            ) == golden[name], name

    def test_functional_twin_matches_golden(self, runs, golden):
        options = figure5_options()
        for name, (program, trace) in runs.items():
            stats = []
            for config in (DEFAULT_CACHE,
                           conventional_config(DEFAULT_CACHE)):
                functional = DataCachedMemory(config)
                fresh = compile_source(get_benchmark(name).source, options)
                fresh.run(memory=functional)
                stats.append(functional.stats)
            assert self.payload(
                program, trace.summary(), stats[0], stats[1]
            ) == golden[name], name


class TestSharedNextUse:
    def test_next_use_shared_across_min_specs(self):
        """One next-use index answers every MIN geometry of a sweep."""
        trace = make_trace(HAND_REFS)
        shared = next_use_index(trace, 1, True)
        specs = [
            CacheConfig(size_words=4, line_words=1, associativity=1,
                        policy="min"),
            CacheConfig(size_words=8, line_words=1, associativity=2,
                        policy="min"),
        ]
        direct = [serial(trace, spec) for spec in specs]
        via_policy = [
            UnifiedCache(spec, policy=MinPolicy(shared)) for spec in specs
        ]
        for core in via_policy:
            for index, (address, flags) in enumerate(trace):
                core.access(
                    address,
                    bool(flags & FLAG_WRITE),
                    bool(flags & FLAG_BYPASS),
                    bool(flags & FLAG_KILL),
                    index=index,
                )
        for want, core in zip(direct, via_policy):
            assert core.stats.as_dict() == want.as_dict()
