"""Multi-core shared-LLC contention over the unified semantics.

The paper scores one program against one private cache.  This layer
asks the question the ROADMAP flags: do compiler-provided kill bits
still pay off when the last-level cache is *shared and contended* —
and can they substitute for utility-based way partitioning?

The model: K benchmark traces are interleaved deterministically as
"cores" (:func:`interleave_traces` — a seeded burst schedule over the
counter RNG, so the same seed always yields the byte-identical merged
stream).  Each core owns a private first level driven with its own
bypass/kill stream; every reference the private level cannot serve
falls through to one shared :class:`~repro.cache.semantics.UnifiedCache`
whose tag space is partitioned per core (disjoint block offsets that
preserve each core's set mapping, so contention is for *ways*, exactly
the shared-LLC regime the partitioning literature studies).  A
private level only ever sees its own core's stream, so it is scored
once per core trace (:func:`~repro.cache.hierarchy.level_outcome`,
memoized on the trace and shared by every grid cell and UMON); only
the shared level runs event by event, over the private levels' misses.

Two capacity-management levers are modeled at the shared level:

* **Static way partitioning** (SWP): :class:`PartitionedLRUPolicy`
  gives each core a way quota per set and enforces it in the victim
  scan — an installing core at or over quota evicts the LRU line among
  its *own* lines; an under-quota core reclaims the LRU line of
  whichever core is over quota.  Dead-line preference (the paper's
  policy-independent kill reuse) applies within the allowed candidate
  set, so partition isolation survives the kill bits.
* **UMON utility monitoring**: per-core shadow-tag stack-distance
  counters (:func:`utility_curves`: one profiling pass over each
  core's private-level demand stream, on the set-major kernel) yield
  hits-versus-ways curves;
  :func:`utility_partition` converts them into quotas by greedy
  marginal utility (UCP-lite).

Kill bits default to the hierarchy core's rule (innermost level only),
but :func:`simulate_multicore` exposes ``shared_kill``: when set, kill
bits are also honored at the shared level — a killed reference that
falls through retires its shared copy too, and a kill served entirely
by the private level sends a tag probe that invalidates (dead-drops if
dirty) any stale shared copy.  That is the lever the E18 experiment
compares against way partitioning: compiler liveness freeing contended
shared ways directly.
"""

from array import array
from dataclasses import replace
from itertools import compress

import numpy

from repro.cache.cache import Cache
from repro.cache.hierarchy import HierarchyError, level_outcome
from repro.cache.semantics import (
    ENTRY_DIRTY,
    LRUPolicy,
    _WAY_TAG,
    _by_stamp,
    _mix64,
)
from repro.cache.stackdist import flavor_key
from repro.cache.vectorized import vector_profile_pass
from repro.vm.trace import FLAG_KILL, IS_BYPASS, IS_KILL, IS_WRITE

#: Way-list slot holding the installing core's id (the first slot past
#: the shared ``_WAY_INSERTED`` tail; the RRIP family's extra slots
#: start at the same index, but the partitioned policy is LRU-based
#: and never coexists with them in one policy object).
_PART_OWNER = 7


class MergedTrace:
    """A deterministic interleave of K per-core reference streams.

    Parallel arrays (``cores``/``addresses``/``flags``) plus the
    metadata the simulator needs: per-core event counts and the
    maximum address over every input stream (for disjoint per-core
    block offsets at the shared level).  Iteration yields
    ``(core, address, flags)``.
    """

    __slots__ = ("cores", "addresses", "flags", "counts", "max_address",
                 "seed", "chunk")

    def __init__(self, cores, addresses, flags, counts, max_address,
                 seed, chunk):
        self.cores = cores
        self.addresses = addresses
        self.flags = flags
        self.counts = counts
        self.max_address = max_address
        self.seed = seed
        self.chunk = chunk

    def __len__(self):
        return len(self.addresses)

    def __iter__(self):
        return zip(self.cores, self.addresses, self.flags)

    @property
    def num_cores(self):
        return len(self.counts)

    def tobytes(self):
        """The merged stream as one byte string (determinism checks)."""
        return (
            self.cores.tobytes()
            + self.addresses.tobytes()
            + self.flags.tobytes()
        )


def interleave_traces(traces, seed=0, chunk=8):
    """Merge per-core traces into one deterministic contention stream.

    At each step one non-exhausted core is drawn uniformly via the
    counter RNG (:func:`~repro.cache.semantics._mix64` keyed by
    ``seed`` and the draw ordinal — no shared RNG stream, so the
    schedule is a pure function of ``(lengths, seed, chunk)``) and
    contributes its next ``chunk`` events (a burst, the granularity at
    which real cores trade the shared cache).  Every input event
    appears exactly once, in its core's original order.
    """
    if not traces:
        raise HierarchyError("interleave_traces needs at least one trace")
    if chunk < 1:
        raise HierarchyError("interleave chunk must be >= 1")
    counts = tuple(len(trace) for trace in traces)
    cores = array("B")
    addresses = array("q")
    flags = array("B")
    if len(traces) > 255:
        raise HierarchyError("at most 255 cores")
    sources = [
        (trace.addresses, trace.flags) for trace in traces
    ]
    positions = [0] * len(traces)
    remaining = list(counts)
    live = [i for i, count in enumerate(counts) if count]
    draw = 0
    max_address = 0
    for trace in traces:
        if len(trace.addresses):
            max_address = max(max_address, max(trace.addresses))
    while live:
        choice = live[_mix64(seed, 0, draw) % len(live)]
        draw += 1
        take = min(chunk, remaining[choice])
        start = positions[choice]
        src_addresses, src_flags = sources[choice]
        addresses.extend(src_addresses[start:start + take])
        flags.extend(src_flags[start:start + take])
        cores.extend([choice] * take)
        positions[choice] = start + take
        remaining[choice] -= take
        if not remaining[choice]:
            live.remove(choice)
    return MergedTrace(cores, addresses, flags, counts, max_address,
                       seed, chunk)


class PartitionedLRUPolicy(LRUPolicy):
    """LRU with SWP-style per-core way quotas enforced in eviction.

    ``quotas[core]`` is the number of ways per set the core owns; the
    quotas must sum to the associativity.  The driver sets ``core``
    before each shared-level access (the simulation is serial).  Free
    ways fill normally — partitioning constrains only whose line a
    full set gives up: a core at/over its quota victimizes its own
    LRU line; an under-quota core reclaims the LRU line of an
    over-quota core.  Dead lines are preferred within the allowed
    candidate set (smallest stamp first), keeping the paper's
    policy-independent dead-line reuse without letting a kill breach
    the partition.
    """

    __slots__ = ("quotas", "core")
    name = "partitioned-lru"
    _extra_slots = 1

    def __init__(self, quotas):
        self.quotas = tuple(int(quota) for quota in quotas)
        if any(quota < 0 for quota in self.quotas):
            raise HierarchyError("way quotas must be non-negative")
        self.core = 0

    def reset(self, config):
        if sum(self.quotas) != config.associativity:
            raise HierarchyError(
                "way quotas {} must sum to the associativity {}".format(
                    self.quotas, config.associativity
                )
            )
        super().reset(config)

    def install(self, set_index, block, clock, index):
        line = super().install(set_index, block, clock, index)
        line[_PART_OWNER] = self.core
        return line

    def _candidates(self, lines):
        """The lines the installing core may victimize in a full set."""
        core = self.core
        owned = [line for line in lines if line[_PART_OWNER] == core]
        if owned and len(owned) >= self.quotas[core]:
            return owned
        occupancy = {}
        for line in lines:
            owner = line[_PART_OWNER]
            occupancy[owner] = occupancy.get(owner, 0) + 1
        over = [
            line for line in lines
            if occupancy[line[_PART_OWNER]] > self.quotas[line[_PART_OWNER]]
        ]
        if over:
            return over
        # Quotas exactly met everywhere yet this core is under quota:
        # only possible transiently (e.g. quota 0); fall back to any
        # other core's lines, then to the whole set.
        others = [line for line in lines if line[_PART_OWNER] != core]
        return others or lines

    def evict(self, set_index):
        lines = self._sets[set_index]
        candidates = self._candidates(lines)
        victim = self._dead_victim(candidates) if self._demoted else None
        if victim is None:
            victim = min(candidates, key=_by_stamp)
        self._release(set_index, victim)
        return victim[_WAY_TAG], victim


def utility_curves(traces, l1_config, shared_config):
    """Per-core UMON curves: shared-level hits as a function of ways.

    Each core's demand stream — the events its private level does not
    serve, read off the memoized
    :func:`~repro.cache.hierarchy.level_outcome` — feeds a shadow-tag
    stack-distance pass at the shared geometry (kills and bypasses
    ignored: UMON monitors raw reuse) on the set-major kernel
    (:func:`~repro.cache.vectorized.vector_profile_pass`).  The aggregate
    distance histogram's prefix sums are exactly "hits this core would
    score with w ways".  Returns
    ``curves[core][w]`` for ``w in 0..associativity``.
    """
    # Shadow tags install on every miss whatever the shared level's
    # allocation policy: the monitor is write-allocate LRU.
    monitor_config = replace(
        shared_config, policy="lru", honor_bypass=False, honor_kill=False,
        allocate_on_write=True,
    )
    assoc = monitor_config.associativity
    flavor = flavor_key(monitor_config, False, False)
    curves = []
    for trace in traces:
        _l1_stats, hits = level_outcome(trace, l1_config)
        addresses, flags = trace.to_columns()
        demand = ~hits
        profile = vector_profile_pass(
            (addresses[demand], flags[demand]), flavor,
            monitor_config.num_sets, assoc,
        )
        histogram = profile.distance_histogram()
        curve = [0] * (assoc + 1)
        running = histogram[0]  # collapsed guaranteed-MRU hits
        for way in range(1, assoc + 1):
            running += histogram[way]
            curve[way] = running
        curve[0] = 0
        curves.append(curve)
    return curves


def utility_partition(curves, total_ways, min_ways=1):
    """Greedy marginal-utility way allocation (UCP-lite).

    Every core starts at ``min_ways``; the remaining ways go one at a
    time to the core with the largest marginal hit gain (ties to the
    lowest core index, so the allocation is deterministic).  Returns
    the per-core quota tuple, summing to ``total_ways``.
    """
    cores = len(curves)
    if cores * min_ways > total_ways:
        raise HierarchyError(
            "{} cores x {} minimum ways exceed the {} available".format(
                cores, min_ways, total_ways
            )
        )
    quotas = [min_ways] * cores
    for _ in range(total_ways - cores * min_ways):
        best = None
        best_gain = -1
        for core in range(cores):
            ways = quotas[core]
            if ways >= len(curves[core]) - 1:
                gain = 0
            else:
                gain = curves[core][ways + 1] - curves[core][ways]
            if gain > best_gain:
                best = core
                best_gain = gain
        quotas[best] += 1
    return tuple(quotas)


def even_partition(cores, total_ways):
    """Equal split of ``total_ways``, remainder to the lowest cores."""
    base, extra = divmod(total_ways, cores)
    return tuple(base + (1 if core < extra else 0) for core in range(cores))


class MulticoreResult:
    """Everything one multi-core simulation measured."""

    __slots__ = ("names", "l1_stats", "shared_stats", "shared_refs",
                 "shared_hits", "quotas", "events", "kill_probes",
                 "seed", "chunk")

    def __init__(self, names, l1_stats, shared_stats, shared_refs,
                 shared_hits, quotas, events, kill_probes, seed, chunk):
        self.names = names
        self.l1_stats = l1_stats
        self.shared_stats = shared_stats
        self.shared_refs = shared_refs
        self.shared_hits = shared_hits
        self.quotas = quotas
        self.events = events
        self.kill_probes = kill_probes
        self.seed = seed
        self.chunk = chunk

    @property
    def shared_hit_rate(self):
        """Hit ratio of the shared level's through-cache references."""
        return self.shared_stats.hit_rate

    @property
    def memory_bus_words(self):
        return self.shared_stats.bus_words

    def as_dict(self):
        row = {
            "cores": list(self.names),
            "events": self.events,
            "quotas": list(self.quotas) if self.quotas else None,
            "seed": self.seed,
            "chunk": self.chunk,
            "shared_hits": self.shared_stats.hits,
            "shared_misses": self.shared_stats.misses,
            "shared_hit_rate": round(self.shared_hit_rate, 4),
            "memory_bus_words": self.memory_bus_words,
            "shared_kill_probes": self.kill_probes,
        }
        for core, name in enumerate(self.names):
            prefix = "core{}".format(core)
            row[prefix + "_benchmark"] = name
            row[prefix + "_l1_miss_rate"] = round(
                self.l1_stats[core].miss_rate, 4
            )
            row[prefix + "_shared_refs"] = self.shared_refs[core]
            row[prefix + "_shared_hits"] = self.shared_hits[core]
        return row


def simulate_multicore(traces, l1_config, shared_config, quotas=None,
                       shared_kill=False, seed=0, chunk=8, names=None,
                       merged=None):
    """Replay K per-core traces against private L1s + one shared level.

    ``traces`` is a list of per-core :class:`TraceBuffer`\\ s (their
    bypass/kill streams are each core's own compiler annotations);
    ``l1_config`` is the private-level geometry (honor flags as
    given); ``shared_config`` the shared level's.  ``quotas`` turns on
    static way partitioning (:class:`PartitionedLRUPolicy`); ``None``
    leaves the shared level an unpartitioned free-for-all under
    ``shared_config.policy``.  ``shared_kill`` extends kill bits to
    the shared level (see the module docstring); bypass stays a
    first-level directive, the E16 answer.  ``merged`` short-circuits
    the interleave with a prebuilt :class:`MergedTrace` of the same
    traces (the overhead benchmark reuses one merge across
    configurations).

    A private level only ever sees its own core's stream, so each
    core's L1 is scored once on its own trace
    (:func:`~repro.cache.hierarchy.level_outcome`, memoized on the
    trace) and its hit mask is scattered into merged order.  Only the
    shared level is driven event by event, over the L1 non-hits plus,
    with ``shared_kill``, the kill probes of L1-hit kill events.
    """
    cores = len(traces)
    if merged is None:
        merged = interleave_traces(traces, seed=seed, chunk=chunk)
    if names is None:
        names = ["core{}".format(index) for index in range(cores)]
    shared_effective = replace(
        shared_config,
        honor_bypass=False,
        honor_kill=bool(shared_kill and shared_config.honor_kill),
    )
    policy = None
    if quotas is not None:
        if len(quotas) != cores:
            raise HierarchyError(
                "need one way quota per core ({} cores, {} quotas)".format(
                    cores, len(quotas)
                )
            )
        policy = PartitionedLRUPolicy(quotas)
        shared = Cache(replace(shared_effective, policy="lru"),
                       policy=policy)
    else:
        shared = Cache(shared_effective)

    line_words = shared_effective.line_words
    num_sets = shared_effective.num_sets
    # Disjoint per-core block offsets that preserve each core's own
    # set mapping: contention is for ways, never a remapping artifact.
    max_block = merged.max_address // line_words
    stride_blocks = -(-(max_block + 1) // num_sets) * num_sets
    stride_words = stride_blocks * line_words

    # Each core's private-level outcome, scattered into merged order
    # (the interleave keeps every core's events in its own order).
    l1_stats = []
    l1_hit = numpy.empty(len(merged), dtype=bool)
    merged_cores = numpy.frombuffer(merged.cores, dtype=numpy.uint8)
    for core, trace in enumerate(traces):
        stats, hits = level_outcome(trace, l1_config)
        l1_stats.append(stats)
        l1_hit[merged_cores == core] = hits
    visit = ~l1_hit
    probe_kills = bool(shared_kill and l1_config.honor_kill)
    if probe_kills:
        visit |= (
            numpy.frombuffer(merged.flags, dtype=numpy.uint8) & FLAG_KILL
        ).astype(bool)

    shared_policy = shared.policy
    resident = shared_policy.resident
    shared_stats = shared.stats
    kill_probes = 0
    shared_refs = [0] * cores
    shared_hits = [0] * cores
    shared_access = shared.access
    for core, address, flags, l1_hit_event in compress(
        zip(merged.cores, merged.addresses, merged.flags, l1_hit.tobytes()),
        visit.tobytes(),
    ):
        shifted = address + core * stride_words
        if l1_hit_event:
            # A kill the private level served retired its line; a
            # stale shared copy is dead too — free the way without a
            # reference.
            block = shifted // line_words
            entry = resident.get(block)
            if entry is not None:
                if entry[ENTRY_DIRTY]:
                    shared_stats.dead_drops += 1
                shared_policy.invalidate(block % num_sets, block, entry)
                shared_stats.dead_line_frees += 1
                kill_probes += 1
            continue
        if policy is not None:
            policy.core = core
        shared_refs[core] += 1
        if shared_access(
            shifted, IS_WRITE[flags], IS_BYPASS[flags], IS_KILL[flags]
        ) == "hit":
            shared_hits[core] += 1
    return MulticoreResult(
        names=tuple(names),
        l1_stats=l1_stats,
        shared_stats=shared.stats,
        shared_refs=shared_refs,
        shared_hits=shared_hits,
        quotas=tuple(quotas) if quotas is not None else None,
        events=len(merged),
        kill_probes=kill_probes,
        seed=merged.seed,
        chunk=merged.chunk,
    )


#: The E18 configuration grid: the kill axis crossed with the
#: partitioning axis.  Bypass is honored at the private level in all
#: four (the E16 answer: bypass is a first-level directive).
MULTICORE_CONFIGS = ("shared", "partitioned", "kill", "kill+partitioned")


def multicore_grid(traces, l1_config, shared_config, quotas,
                   seed=0, chunk=8, names=None, configs=MULTICORE_CONFIGS):
    """Score the kill-vs-partitioning grid on one core pairing.

    Returns ``{config: MulticoreResult}`` over (a subset of)
    :data:`MULTICORE_CONFIGS`; the interleave is computed once and
    shared, so every configuration sees the identical contention
    schedule.  ``quotas`` applies to the two partitioned cells.
    """
    merged = interleave_traces(traces, seed=seed, chunk=chunk)
    no_kill = replace(l1_config, honor_kill=False)
    grid = {
        "shared": (no_kill, None, False),
        "partitioned": (no_kill, quotas, False),
        "kill": (l1_config, None, True),
        "kill+partitioned": (l1_config, quotas, True),
    }
    results = {}
    for config in configs:
        l1, cell_quotas, shared_kill = grid[config]
        results[config] = simulate_multicore(
            traces, l1, shared_config, quotas=cell_quotas,
            shared_kill=shared_kill, seed=seed, chunk=chunk,
            names=names, merged=merged,
        )
    return results
