"""The multi-core shared-LLC layer: deterministic interleaving, SWP
way partitioning, the UMON utility monitor, and the E18 grid.

The load-bearing properties: the interleaver is a pure function of
``(traces, seed, chunk)`` (same seed, byte-identical merged stream);
each core's private L1 behaves exactly as it would standalone (the
interleave must not perturb per-core state); the partitioned policy
converges to its quotas and never lets an at-quota core victimize a
neighbour; the four E18 cells replay the identical contention
schedule and equal the per-event reference loop, the report's
queen+towers grid included; and the UMON curves come from the
set-major kernel and equal per-event LRU replays of each core's demand
stream.
"""

import random
from dataclasses import replace

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.hierarchy import HierarchyError
from repro.cache.multicore import (
    MULTICORE_CONFIGS,
    _PART_OWNER,
    PartitionedLRUPolicy,
    even_partition,
    interleave_traces,
    multicore_grid,
    simulate_multicore,
    utility_curves,
    utility_partition,
)
from repro.cache.replay import replay_trace
from repro.cache.vectorized import vector_profile_pass
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer
from scalar_reference import simulate_multicore_py

L1 = CacheConfig(size_words=16, line_words=1, associativity=2)
SHARED = CacheConfig(size_words=64, line_words=1, associativity=8)


def synth_trace(events=800, addresses=48, seed=0, bypass=0.2, kill=0.1):
    rng = random.Random(seed)
    trace = TraceBuffer()
    for _ in range(events):
        flags = 0
        if rng.random() < 0.3:
            flags |= FLAG_WRITE
        if rng.random() < bypass:
            flags |= FLAG_BYPASS
        if rng.random() < kill:
            flags |= FLAG_KILL
        trace.append(rng.randrange(addresses), flags)
    return trace


class TestInterleaver:
    def test_same_seed_byte_identical(self):
        traces = [synth_trace(seed=1), synth_trace(seed=2)]
        first = interleave_traces(traces, seed=7, chunk=8)
        second = interleave_traces(traces, seed=7, chunk=8)
        assert first.tobytes() == second.tobytes()

    def test_seed_changes_schedule(self):
        traces = [synth_trace(seed=1), synth_trace(seed=2)]
        assert (
            interleave_traces(traces, seed=0).tobytes()
            != interleave_traces(traces, seed=1).tobytes()
        )

    def test_every_event_once_in_core_order(self):
        traces = [synth_trace(seed=1, events=333),
                  synth_trace(seed=2, events=500),
                  synth_trace(seed=3, events=90)]
        merged = interleave_traces(traces, seed=3, chunk=5)
        assert len(merged) == sum(len(t) for t in traces)
        assert merged.counts == tuple(len(t) for t in traces)
        positions = [0] * len(traces)
        for core, address, flags in merged:
            src = traces[core]
            index = positions[core]
            assert address == src.addresses[index]
            assert flags == src.flags[index]
            positions[core] = index + 1
        assert positions == [len(t) for t in traces]

    def test_hypothesis_determinism(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(
            lengths=st.lists(
                st.integers(min_value=0, max_value=60),
                min_size=1, max_size=4,
            ),
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            chunk=st.integers(min_value=1, max_value=9),
        )
        def property_(lengths, seed, chunk):
            traces = []
            for core, length in enumerate(lengths):
                trace = TraceBuffer()
                for index in range(length):
                    trace.append(core * 1000 + index,
                                 (core + index) % 8)
                traces.append(trace)
            first = interleave_traces(traces, seed=seed, chunk=chunk)
            second = interleave_traces(traces, seed=seed, chunk=chunk)
            assert first.tobytes() == second.tobytes()
            assert len(first) == sum(lengths)

        property_()

    def test_rejects_empty_and_bad_chunk(self):
        with pytest.raises(HierarchyError, match="at least one trace"):
            interleave_traces([])
        with pytest.raises(HierarchyError, match="chunk"):
            interleave_traces([synth_trace()], chunk=0)


class TestPartitionedPolicy:
    def set_up(self, quotas):
        # One 8-way set so every block contends.
        config = CacheConfig(size_words=8, line_words=1, associativity=8)
        policy = PartitionedLRUPolicy(quotas)
        return Cache(config, policy=policy), policy

    def occupancy(self, policy):
        counts = {}
        for _block, line in policy.entries():
            owner = line[_PART_OWNER]
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    def test_converges_to_quotas(self):
        cache, policy = self.set_up((6, 2))
        # Core 0 floods the set (free fills go beyond its quota)...
        policy.core = 0
        for block in range(8):
            cache.access(block, False)
        assert self.occupancy(policy) == {0: 8}
        # ...then core 1 reclaims exactly the over-quota lines.
        policy.core = 1
        for block in range(100, 102):
            cache.access(block, False)
        assert self.occupancy(policy) == {0: 6, 1: 2}

    def test_at_quota_core_victimizes_itself(self):
        cache, policy = self.set_up((6, 2))
        policy.core = 0
        for block in range(8):
            cache.access(block, False)
        policy.core = 1
        cache.access(100, False)
        cache.access(101, False)
        # Core 1 is at quota now; its next install must not touch
        # core 0's lines.
        cache.access(102, False)
        occupancy = self.occupancy(policy)
        assert occupancy == {0: 6, 1: 2}
        assert cache.probe(100) is False  # its own LRU line went

    def test_quota_zero_core_still_runs(self):
        cache, policy = self.set_up((8, 0))
        policy.core = 0
        for block in range(8):
            cache.access(block, False)
        policy.core = 1
        cache.access(100, False)  # evicts someone else's line, no crash
        occupancy = self.occupancy(policy)
        assert occupancy[1] == 1

    def test_dead_lines_preferred_within_partition(self):
        config = CacheConfig(size_words=8, line_words=1, associativity=8,
                             kill_mode="demote")
        policy = PartitionedLRUPolicy((6, 2))
        cache = Cache(config, policy=policy)
        policy.core = 0
        for block in range(6):
            cache.access(block, False)
        # Touch block 3 with a kill: demoted dead, but MRU by stamp.
        cache.access(3, False, False, True)
        policy.core = 1
        cache.access(100, False)
        cache.access(101, False)
        policy.core = 0
        cache.access(200, False)  # full set; own dead line must go
        assert cache.probe(3) is False
        assert cache.probe(0) is True  # LRU but alive — spared

    def test_quotas_must_sum_to_associativity(self):
        config = CacheConfig(size_words=8, line_words=1, associativity=8)
        with pytest.raises(HierarchyError, match="sum to the associativity"):
            Cache(config, policy=PartitionedLRUPolicy((4, 2)))


class TestUtilityMonitor:
    def test_curves_monotone_and_bounded(self):
        traces = [synth_trace(seed=1), synth_trace(seed=2)]
        curves = utility_curves(traces, L1, SHARED)
        assert len(curves) == 2
        for curve in curves:
            assert len(curve) == SHARED.associativity + 1
            assert curve[0] == 0
            assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_curves_come_from_the_kernel(self, monkeypatch):
        """UMON's shadow-tag pass runs on the set-major kernel, and a
        curve's ``w``-way entry is the hit count a ``w``-way LRU scores
        on the core's demand stream, replayed event by event."""
        traces = [synth_trace(seed=1), synth_trace(seed=2)]
        calls = []

        def kernel(*args, **kwargs):
            calls.append(args[3])  # the associativity cap
            return vector_profile_pass(*args, **kwargs)

        monkeypatch.setattr("repro.cache.multicore.vector_profile_pass",
                            kernel)
        curves = utility_curves(traces, L1, SHARED)
        assert calls == [SHARED.associativity] * len(traces)
        for trace, curve in zip(traces, curves):
            l1 = Cache(L1)
            demand = TraceBuffer()
            for address, flags in trace:
                if l1.access(address, bool(flags & FLAG_WRITE),
                             bool(flags & FLAG_BYPASS),
                             bool(flags & FLAG_KILL)) != "hit":
                    demand.append(address, flags)
            monitor = replace(SHARED, honor_bypass=False, honor_kill=False)
            assert curve[1:] == [
                replay_trace(demand, replace(
                    monitor, size_words=SHARED.num_sets * ways,
                    associativity=ways,
                )).hits
                for ways in range(1, SHARED.associativity + 1)
            ]

    def test_partition_sums_and_favours_utility(self):
        # Core 0 gains 10 hits per way, core 1 is flat: greedy must
        # give core 0 everything above the floor.
        curves = [[0, 10, 20, 30, 40, 50, 60, 70, 80],
                  [0, 1, 1, 1, 1, 1, 1, 1, 1]]
        quotas = utility_partition(curves, 8)
        assert sum(quotas) == 8
        assert quotas == (7, 1)

    def test_partition_floor_enforced(self):
        with pytest.raises(HierarchyError, match="exceed"):
            utility_partition([[0, 1]] * 9, 8)

    def test_even_partition(self):
        assert even_partition(2, 8) == (4, 4)
        assert even_partition(3, 8) == (3, 3, 2)


class TestSimulateMulticore:
    def traces(self):
        return [synth_trace(seed=1), synth_trace(seed=2)]

    def test_private_l1_equals_standalone(self):
        """Interleaving must not perturb per-core private state."""
        traces = self.traces()
        result = simulate_multicore(traces, L1, SHARED, seed=5)
        for trace, stats in zip(traces, result.l1_stats):
            assert stats.as_dict() == replay_trace(trace, L1).as_dict()

    def test_deterministic(self):
        traces = self.traces()
        first = simulate_multicore(traces, L1, SHARED, seed=9)
        second = simulate_multicore(traces, L1, SHARED, seed=9)
        assert first.as_dict() == second.as_dict()

    def test_shared_refs_accounted_per_core(self):
        result = simulate_multicore(self.traces(), L1, SHARED)
        assert sum(result.shared_refs) == result.shared_stats.refs_total
        for refs, hits in zip(result.shared_refs, result.shared_hits):
            assert 0 <= hits <= refs

    def test_quota_validation(self):
        with pytest.raises(HierarchyError, match="one way quota per core"):
            simulate_multicore(self.traces(), L1, SHARED, quotas=(8,))

    def test_shared_kill_probe_invalidates(self):
        """A pure kill served by L1 retires the stale shared copy."""
        trace = TraceBuffer()
        trace.append(0, 0)          # miss: installs in L1 and shared
        trace.append(0, FLAG_KILL)  # L1 hit + kill: probe the shared copy
        trace.append(0, 0)          # must go to memory again
        result = simulate_multicore([trace, TraceBuffer()], L1, SHARED,
                                    shared_kill=True)
        assert result.kill_probes == 1
        assert result.shared_stats.dead_line_frees == 1
        assert result.shared_hits[0] == 0

    def test_without_shared_kill_copy_survives(self):
        trace = TraceBuffer()
        trace.append(0, 0)
        trace.append(0, FLAG_KILL)  # L1 invalidates its own line only
        trace.append(0, 0)          # served by the shared copy
        result = simulate_multicore([trace, TraceBuffer()], L1, SHARED,
                                    shared_kill=False)
        assert result.kill_probes == 0
        assert result.shared_hits[0] == 1

    def test_cores_do_not_share_addresses(self):
        """Same-address streams on two cores must not hit off each
        other at the shared level (disjoint block offsets)."""
        t0 = TraceBuffer()
        t1 = TraceBuffer()
        for _ in range(4):
            t0.append(0, 0)
            t1.append(0, 0)
        result = simulate_multicore([t0, t1], L1, SHARED)
        # Each core's first touch misses at both levels independently.
        assert result.shared_stats.misses == 2


class TestGrid:
    def test_grid_shape_and_schedule(self):
        traces = [synth_trace(seed=1), synth_trace(seed=2)]
        grid = multicore_grid(traces, L1, SHARED, quotas=(6, 2), seed=4)
        assert sorted(grid) == sorted(MULTICORE_CONFIGS)
        for config, result in grid.items():
            row = result.as_dict()
            assert row["events"] == sum(len(t) for t in traces)
            assert row["seed"] == 4
            if "partitioned" in config:
                assert row["quotas"] == [6, 2]
            else:
                assert row["quotas"] is None

    def test_kill_cells_change_shared_behavior(self):
        traces = [synth_trace(seed=1, kill=0.3),
                  synth_trace(seed=2, kill=0.3)]
        grid = multicore_grid(traces, L1, SHARED, quotas=(4, 4))
        assert (
            grid["kill"].as_dict() != grid["shared"].as_dict()
        )


class TestAgainstPerEventReference:
    """Every grid cell -- quotas and shared kills included -- equals
    the per-event loop that drove each private L1 alongside the shared
    level (``tests/scalar_reference.py``)."""

    def assert_grid_matches(self, traces, quotas, seed, l1_config=L1,
                            shared=SHARED):
        grid = multicore_grid(traces, l1_config, shared, quotas=quotas,
                              seed=seed)
        merged = interleave_traces(traces, seed=seed)
        no_kill = replace(l1_config, honor_kill=False)
        cells = {
            "shared": (no_kill, None, False),
            "partitioned": (no_kill, quotas, False),
            "kill": (l1_config, None, True),
            "kill+partitioned": (l1_config, quotas, True),
        }
        for config, (l1, cell_quotas, shared_kill) in cells.items():
            want = simulate_multicore_py(
                traces, l1, shared, quotas=cell_quotas,
                shared_kill=shared_kill, merged=merged,
            )
            got = grid[config]
            assert got.as_dict() == want.as_dict(), config
            assert got.l1_stats == want.l1_stats, config
            assert got.shared_stats == want.shared_stats, config

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kill_heavy_pair(self, seed):
        traces = [synth_trace(seed=seed, kill=0.3),
                  synth_trace(seed=seed + 10, kill=0.3)]
        self.assert_grid_matches(traces, (6, 2), seed)

    def test_three_cores_with_an_empty_one(self):
        traces = [synth_trace(seed=3, kill=0.3), TraceBuffer(),
                  synth_trace(seed=4, kill=0.3, addresses=20)]
        self.assert_grid_matches(traces, (4, 2, 2), 5)

    def test_report_pairing(self):
        """The E18 report's queen+towers grid, at its geometries and
        UMON quotas, on the report's own traces."""
        from repro.evalharness.sweeps import (
            MULTICORE_L1,
            MULTICORE_SHARED,
            _trace_for,
        )

        traces = [_trace_for(name)[0] for name in ("queen", "towers")]
        quotas = utility_partition(
            utility_curves(traces, MULTICORE_L1, MULTICORE_SHARED),
            MULTICORE_SHARED.associativity,
        )
        self.assert_grid_matches(traces, quotas, 0,
                                 MULTICORE_L1, MULTICORE_SHARED)
