"""Cost of the multi-core shared-LLC simulation, recorded in
``BENCH_multicore.json``.

The contention layer must stay close to free: simulating two cores
against private L1s plus one shared level may cost at most
``OVERHEAD_CEILING`` times the two *independent* single-core two-level
replays it generalizes (same traces, same L1, a private copy of the
shared level each), best of ``ROUNDS`` rounds, asserted live.  Each
round simulates fresh copies of the traces: the private levels'
outcomes are memoized on a trace, so reusing one would time a memo
hit.  The record carries the absolute times, the per-configuration
grid times, and the event throughput, so the layer's cost trajectory
accumulates alongside the other BENCH records.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_multicore.py -q
"""

import time

import pytest

from conftest import traced_benchmark

from repro.cache.cache import Cache, CacheConfig
from repro.cache.multicore import (
    interleave_traces,
    simulate_multicore,
)
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer

WORKLOADS = ("intmm", "sieve")
L1 = CacheConfig(size_words=64, line_words=1, associativity=2)
SHARED = CacheConfig(size_words=512, line_words=1, associativity=8)

#: Ceiling on (2-core shared simulation) / (two independent replays).
#: The shared path scores each private level in array space and drives
#: only the shared level per event, so it measures below the
#: independent replays; 3x leaves noise room without hiding a
#: superlinear regression.
OVERHEAD_CEILING = 3.0
ROUNDS = 3


def fresh_copies(traces):
    """New buffers holding the same events, with nothing memoized."""
    copies = []
    for trace in traces:
        copy = TraceBuffer(max_events=None)
        copy.addresses.extend(trace.addresses)
        copy.flags.extend(trace.flags)
        copies.append(copy)
    return copies


def independent_replay(traces):
    """The baseline: each trace drives its own private L1 + L2 chain."""
    for trace in traces:
        l1 = Cache(L1)
        l2 = Cache(CacheConfig(
            size_words=SHARED.size_words, line_words=SHARED.line_words,
            associativity=SHARED.associativity,
            honor_bypass=False, honor_kill=False,
        ))
        l1_access = l1.access
        l2_access = l2.access
        for address, flags in trace:
            outcome = l1_access(
                address,
                bool(flags & FLAG_WRITE),
                bool(flags & FLAG_BYPASS),
                bool(flags & FLAG_KILL),
            )
            if outcome != "hit":
                l2_access(address, bool(flags & FLAG_WRITE))


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


@pytest.mark.parametrize("partitioned", [False, True],
                         ids=["unpartitioned", "partitioned"])
def test_multicore_overhead_vs_independent(partitioned, record_property):
    traces = [traced_benchmark(name)[2] for name in WORKLOADS]
    merged = interleave_traces(traces, seed=0, chunk=8)
    quotas = (4, 4) if partitioned else None

    independent_seconds, _ = best_of(
        ROUNDS, lambda: independent_replay(traces)
    )
    rounds = iter([fresh_copies(traces) for _ in range(ROUNDS)])
    shared_seconds, result = best_of(
        ROUNDS,
        lambda: simulate_multicore(next(rounds), L1, SHARED,
                                   quotas=quotas, merged=merged),
    )
    relative = shared_seconds / independent_seconds
    events = sum(len(trace) for trace in traces)
    record_property("cores", "+".join(WORKLOADS))
    record_property("events", events)
    record_property("independent_seconds", round(independent_seconds, 4))
    record_property("shared_seconds", round(shared_seconds, 4))
    record_property("relative_cost", round(relative, 2))
    record_property("events_per_second",
                    int(events / shared_seconds) if shared_seconds else 0)
    record_property("shared_hit_rate",
                    round(result.shared_stats.hit_rate, 4))
    assert relative <= OVERHEAD_CEILING, (
        "2-core shared simulation costs {:.2f}x the independent "
        "replays (shared {:.3f}s, independent {:.3f}s), over the {}x "
        "ceiling".format(
            relative, shared_seconds, independent_seconds,
            OVERHEAD_CEILING,
        )
    )


def test_interleave_cost_is_negligible(record_property):
    """The merge itself must stay a vanishing fraction of a replay."""
    traces = [traced_benchmark(name)[2] for name in WORKLOADS]
    seconds, merged = best_of(
        ROUNDS, lambda: interleave_traces(traces, seed=0, chunk=8)
    )
    record_property("events", len(merged))
    record_property("interleave_seconds", round(seconds, 4))
    record_property("events_per_second",
                    int(len(merged) / seconds) if seconds else 0)
    # An array-slice merge of ~220k events should take milliseconds;
    # a one-second budget only catches catastrophic regressions.
    assert seconds < 1.0
