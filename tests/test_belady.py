"""Belady MIN replay tests, including optimality versus LRU."""

import random

from repro.cache.cache import Cache, CacheConfig
from repro.cache.replay import replay_trace
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer


def make_trace(refs):
    """refs: iterable of (address, flags) pairs."""
    trace = TraceBuffer()
    for address, flags in refs:
        trace.append(address, flags)
    return trace


def reads(addresses):
    return make_trace((address, 0) for address in addresses)


class TestMinBasics:
    def test_hits_and_misses_counted(self):
        trace = reads([1, 2, 1, 2])
        stats = replay_trace(
            trace, policy="min", size_words=4, associativity=4
        )
        assert stats.misses == 2
        assert stats.hits == 2

    def test_min_evicts_farthest_next_use(self):
        # Cache of 2; stream 1 2 3 1 2: MIN evicts 3... wait, at the
        # miss on 3 it evicts whichever of {1,2} is used later (2),
        # keeping 1 for its sooner reuse.
        trace = reads([1, 2, 3, 1, 2])
        stats = replay_trace(
            trace, policy="min", size_words=2, associativity=2
        )
        # misses: 1, 2, 3, then 1 hits, 2 misses -> 4 misses, 1 hit.
        assert stats.misses == 4
        assert stats.hits == 1

    def test_min_beats_lru_on_looping_pattern(self):
        # Cyclic pattern over k+1 blocks with a k-block cache is LRU's
        # worst case (0% hits); MIN keeps k-1 of them resident.
        pattern = list(range(5)) * 20
        trace = reads(pattern)
        lru = replay_trace(trace, size_words=4, associativity=4,
                           policy="lru")
        best = replay_trace(trace, policy="min", size_words=4, associativity=4)
        assert lru.hits == 0
        assert best.hits > 0
        assert best.misses <= lru.misses


class TestMinOptimality:
    def test_min_never_worse_than_online_policies(self):
        rng = random.Random(42)
        for trial in range(10):
            addresses = [rng.randrange(24) for _ in range(400)]
            trace = reads(addresses)
            best = replay_trace(
                trace, policy="min", size_words=8, associativity=8
            )
            for policy in ("lru", "fifo", "random"):
                online = replay_trace(
                    trace, size_words=8, associativity=8, policy=policy
                )
                assert best.misses <= online.misses, (trial, policy)

    def test_min_respects_set_mapping(self):
        rng = random.Random(1)
        addresses = [rng.randrange(64) for _ in range(500)]
        trace = reads(addresses)
        best = replay_trace(
            trace, policy="min", size_words=16, associativity=2
        )
        online = replay_trace(
            trace, size_words=16, associativity=2, policy="lru"
        )
        assert best.misses <= online.misses


class TestMinWithAnnotations:
    def test_bypass_references_skip_cache(self):
        trace = make_trace([(1, 0), (1, FLAG_BYPASS), (1, 0)])
        stats = replay_trace(
            trace, policy="min", size_words=4, associativity=4
        )
        assert stats.refs_bypassed == 1
        # The bypass probe invalidated the line; third access misses.
        assert stats.misses == 2

    def test_kill_frees_line(self):
        trace = make_trace([(1, 0), (1, FLAG_KILL), (2, 0)])
        stats = replay_trace(
            trace, policy="min", size_words=1, associativity=1
        )
        assert stats.dead_line_frees == 1
        assert stats.evictions == 0

    def test_kill_dirty_drop(self):
        trace = make_trace([(1, FLAG_WRITE), (1, FLAG_KILL)])
        stats = replay_trace(
            trace, policy="min", size_words=4, associativity=4
        )
        assert stats.dead_drops == 1
        assert stats.writebacks == 0

    def test_dirty_eviction_writes_back(self):
        trace = make_trace(
            [(1, FLAG_WRITE), (2, FLAG_WRITE), (3, 0), (1, 0)]
        )
        stats = replay_trace(
            trace, policy="min", size_words=2, associativity=2
        )
        assert stats.writebacks >= 1

    def test_honor_flags_off_matches_plain_min(self):
        rng = random.Random(3)
        refs = []
        for _ in range(300):
            flags = 0
            if rng.random() < 0.5:
                flags |= FLAG_WRITE
            if rng.random() < 0.2:
                flags |= FLAG_BYPASS
            refs.append((rng.randrange(16), flags))
        with_flags_off = replay_trace(
            make_trace(refs), policy="min", size_words=8, associativity=8,
            honor_bypass=False, honor_kill=False,
        )
        plain = replay_trace(
            make_trace([(a, f & FLAG_WRITE) for a, f in refs]),
            policy="min", size_words=8, associativity=8,
        )
        assert with_flags_off.misses == plain.misses
        assert with_flags_off.hits == plain.hits
