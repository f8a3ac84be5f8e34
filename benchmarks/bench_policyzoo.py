"""Replay cost of the predictive policy zoo, recorded in
``BENCH_policyzoo.json``.

The zoo must stay affordable: every predictive policy replays the
intmm trace (64 words, 4-way — the geometry the E17 golden table
pins) in at most ``COST_CEILING`` times the LRU replay, best of
``ROUNDS`` rounds, asserted live.  The record carries the absolute
times, the relative costs, and each policy's miss count next to
LRU's, so the cost/accuracy frontier accumulates run over run
alongside the other BENCH records.  Intmm evicts at this geometry
under the unified scheme (towers never does, so every policy would
miss exactly as LRU does), and at least one policy must miss
differently from LRU there.

The RRIP lane sweep must earn its engine-table row: the whole E17
grid on towers scores through ``replay_trace_sweep`` at least
``SWEEP_FLOOR`` times faster than through the reference
``replay_trace`` loop, one spec at a time, best of ``ROUNDS``, after
the two are asserted equal.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_policyzoo.py -q
"""

import time
from dataclasses import replace

import pytest

from conftest import traced_benchmark

from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.sweeps import ZOO_GEOMETRY, ZOO_POLICIES

#: Intmm's unified stream evicts at the cost geometry (19,380 LRU
#: evictions), so the policies' miss counts differ.
COST_WORKLOAD = "intmm"
#: Towers is recursion-heavy (kill bits and reuse prediction both have
#: material work to do) and the longest of the six traces.
GRID_WORKLOAD = "towers"
CACHE_WORDS = 64

#: Everything the zoo added over the classic trio, Random included —
#: the counter RNG must not price it out of the one-pass lane either.
ZOO = ("srrip", "brrip", "drrip", "ship", "hawkeye", "random")

#: Ceiling on (policy replay time) / (LRU replay time).  Hawkeye pays
#: for a shadow MIN per access and still measures well under 2x; 3x
#: leaves room for noise without letting a quadratic regression hide.
COST_CEILING = 3.0
ROUNDS = 3

#: Floor on (``replay_trace`` time, spec by spec) /
#: (``replay_trace_sweep`` time) for the E17 grid on towers: the
#: earlier 1.5 against the retired multi-configuration replay times
#: the reference/multi-replay time ratio on this grid (1.25, timed
#: with the two interleaved), rounded up.
SWEEP_FLOOR = 1.9


def config_for(policy):
    return CacheConfig(size_words=CACHE_WORDS, line_words=1,
                       associativity=4, policy=policy, seed=1)


def best_of(rounds, *runs):
    """Best wall clock of each of ``runs`` over ``rounds`` rounds, and
    each run's result.  The runs take turns within a round, so a slow
    spell of a shared host hits every side of a ratio."""
    best = [None] * len(runs)
    results = [None] * len(runs)
    for _ in range(rounds):
        for slot, run in enumerate(runs):
            started = time.perf_counter()
            results[slot] = run()
            elapsed = time.perf_counter() - started
            if best[slot] is None or elapsed < best[slot]:
                best[slot] = elapsed
    return best, results


@pytest.mark.parametrize("policy", ZOO)
def test_zoo_replay_cost_vs_lru(policy, record_property):
    _bench, _program, trace = traced_benchmark(COST_WORKLOAD)
    lru_config = config_for("lru")
    config = config_for(policy)
    (lru_seconds, policy_seconds), (lru_stats, stats) = best_of(
        ROUNDS,
        lambda: replay_trace(trace, lru_config),
        lambda: replay_trace(trace, config),
    )
    relative = policy_seconds / lru_seconds
    record_property("events", len(trace))
    record_property("lru_seconds", round(lru_seconds, 4))
    record_property("policy_seconds", round(policy_seconds, 4))
    record_property("relative_cost", round(relative, 2))
    record_property("misses", stats.misses)
    record_property("lru_misses", lru_stats.misses)
    assert relative <= COST_CEILING, (
        "{} replay costs {:.2f}x LRU (policy {:.3f}s, LRU {:.3f}s), "
        "over the {}x ceiling".format(
            policy, relative, policy_seconds, lru_seconds, COST_CEILING
        )
    )


def test_some_policy_misses_differently_from_lru():
    """The cost geometry separates the policies on the cost workload:
    a record where every policy misses as LRU does carries no
    accuracy signal."""
    _bench, _program, trace = traced_benchmark(COST_WORKLOAD)
    lru_misses = replay_trace(trace, config_for("lru")).misses
    assert any(
        replay_trace(trace, config_for(policy)).misses != lru_misses
        for policy in ZOO
    )


def test_zoo_grid_sweep_vs_reference(record_property):
    """The E17 grid (every zoo policy, conventional and unified) through
    the sweep dispatcher, where the RRIP lanes score the predictive
    cells, against the reference loop, one spec at a time."""
    _bench, _program, trace = traced_benchmark(GRID_WORKLOAD)
    specs = [
        replace(ZOO_GEOMETRY, policy=policy,
                honor_bypass=honor, honor_kill=honor)
        for policy in ZOO_POLICIES
        for honor in (False, True)
    ]

    def reference():
        return [replay_trace(trace, spec) for spec in specs]

    (sweep_seconds, reference_seconds), (swept, want) = best_of(
        ROUNDS,
        lambda: replay_trace_sweep(trace, specs, engine="auto"),
        reference,
    )
    assert swept == want
    speedup = reference_seconds / sweep_seconds
    record_property("events", len(trace))
    record_property("specs", len(specs))
    record_property("sweep_seconds", round(sweep_seconds, 4))
    record_property("reference_seconds", round(reference_seconds, 4))
    record_property("speedup", round(speedup, 2))
    assert speedup >= SWEEP_FLOOR, (
        "the E17 grid scores only {:.2f}x faster through "
        "replay_trace_sweep ({:.3f}s) than through replay_trace "
        "({:.3f}s), under the {}x floor".format(
            speedup, sweep_seconds, reference_seconds, SWEEP_FLOOR
        )
    )
