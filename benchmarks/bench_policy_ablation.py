"""Section 3.2: the dead-line modification applies to LRU, FIFO,
Random, and Belady's MIN alike.  Times each policy's trace replay and
records the kill-bit benefit (write-backs avoided, dead-line frees).
"""

import pytest

from conftest import traced_benchmark

from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace

#: Towers is recursion-heavy (kill bits matter: dead spill/save lines);
#: the small cache keeps capacity pressure on so the policies separate.
WORKLOAD = "towers"
CACHE_WORDS = 64
POLICIES = ("lru", "fifo", "random", "min")


@pytest.mark.parametrize("kill_bits", [True, False],
                         ids=["kill-on", "kill-off"])
@pytest.mark.parametrize("policy", POLICIES)
def test_policy_with_kill_bits(benchmark, policy, kill_bits):
    _bench, _program, trace = traced_benchmark(WORKLOAD)

    def simulate():
        return replay_trace(
            trace,
            CacheConfig(size_words=CACHE_WORDS, associativity=4,
                        policy=policy, honor_kill=kill_bits),
        )

    stats = benchmark(simulate)
    benchmark.extra_info["misses"] = stats.misses
    benchmark.extra_info["writebacks"] = stats.writebacks
    benchmark.extra_info["dead_drops"] = stats.dead_drops
    benchmark.extra_info["bus_words"] = stats.bus_words


def test_min_is_lower_bound(benchmark):
    """MIN's misses lower-bound every online policy (both kill modes)."""
    _bench, _program, trace = traced_benchmark(WORKLOAD)

    def compare():
        return {
            policy: replay_trace(
                trace,
                CacheConfig(size_words=CACHE_WORDS, associativity=4,
                            policy=policy),
            )
            for policy in POLICIES
        }

    results = benchmark(compare)
    for policy in ("lru", "fifo", "random"):
        assert results["min"].misses <= results[policy].misses
        benchmark.extra_info["{}_misses".format(policy)] = (
            results[policy].misses
        )
    benchmark.extra_info["min_misses"] = results["min"].misses
