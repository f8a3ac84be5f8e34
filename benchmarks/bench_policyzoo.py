"""Replay cost of the predictive policy zoo, recorded in
``BENCH_policyzoo.json``.

The zoo must stay affordable: every predictive policy replays the
towers trace (64 words, 4-way — the geometry the E17 golden table
pins) in at most ``COST_CEILING`` times the LRU replay, best of
``ROUNDS`` rounds, asserted live.  The record carries the absolute
times, the relative costs, and each policy's miss count next to
LRU's, so the cost/accuracy frontier accumulates run over run
alongside the other BENCH records.

The RRIP lane sweep must earn its engine-table row: the whole E17
grid on towers scores through ``replay_trace_sweep`` at least
``SWEEP_FLOOR`` times faster than through ``replay_trace_multi``,
best of ``ROUNDS``, after the two are asserted equal.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_policyzoo.py -q
"""

import time
from dataclasses import replace

import pytest

from conftest import traced_benchmark

from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace, replay_trace_multi
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.sweeps import ZOO_GEOMETRY, ZOO_POLICIES

#: Towers is recursion-heavy (kill bits and reuse prediction both have
#: material work to do) and the longest of the six traces.
WORKLOAD = "towers"
CACHE_WORDS = 64

#: Everything the zoo added over the classic trio, Random included —
#: the counter RNG must not price it out of the one-pass lane either.
ZOO = ("srrip", "brrip", "drrip", "ship", "hawkeye", "random")

#: Ceiling on (policy replay time) / (LRU replay time).  Hawkeye pays
#: for a shadow MIN per access and still measures well under 2x; 3x
#: leaves room for noise without letting a quadratic regression hide.
COST_CEILING = 3.0
ROUNDS = 3

#: Floor on (``replay_trace_multi`` time) / (``replay_trace_sweep``
#: time) for the E17 grid on towers.
SWEEP_FLOOR = 1.5


def config_for(policy):
    return CacheConfig(size_words=CACHE_WORDS, line_words=1,
                       associativity=4, policy=policy, seed=1)


def best_of(rounds, run):
    best = None
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


@pytest.mark.parametrize("policy", ZOO)
def test_zoo_replay_cost_vs_lru(policy, record_property):
    _bench, _program, trace = traced_benchmark(WORKLOAD)
    lru_config = config_for("lru")
    lru_seconds, lru_stats = best_of(
        ROUNDS, lambda: replay_trace(trace, lru_config)
    )
    config = config_for(policy)
    policy_seconds, stats = best_of(
        ROUNDS, lambda: replay_trace(trace, config)
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


def test_zoo_grid_sweep_vs_multi(record_property):
    """The E17 grid (every zoo policy, conventional and unified) through
    the sweep dispatcher, where the RRIP lanes score the predictive
    cells, against the multi-replay core."""
    _bench, _program, trace = traced_benchmark(WORKLOAD)
    specs = [
        replace(ZOO_GEOMETRY, policy=policy,
                honor_bypass=honor, honor_kill=honor)
        for policy in ZOO_POLICIES
        for honor in (False, True)
    ]
    assert replay_trace_sweep(trace, specs, engine="auto") == (
        replay_trace_multi(trace, specs)
    )
    sweep_seconds, _ = best_of(
        ROUNDS, lambda: replay_trace_sweep(trace, specs, engine="auto")
    )
    multi_seconds, _ = best_of(
        ROUNDS, lambda: replay_trace_multi(trace, specs)
    )
    speedup = multi_seconds / sweep_seconds
    record_property("events", len(trace))
    record_property("specs", len(specs))
    record_property("sweep_seconds", round(sweep_seconds, 4))
    record_property("multi_seconds", round(multi_seconds, 4))
    record_property("speedup", round(speedup, 2))
    assert speedup >= SWEEP_FLOOR, (
        "the E17 grid scores only {:.2f}x faster through "
        "replay_trace_sweep ({:.3f}s) than replay_trace_multi ({:.3f}s), "
        "under the {}x floor".format(
            speedup, sweep_seconds, multi_seconds, SWEEP_FLOOR
        )
    )
