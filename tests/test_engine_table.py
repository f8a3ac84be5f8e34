"""Conformance test for the engine table.

:data:`repro.cache.stackdist.ENGINE_TABLE` lists, for each spec
family, the replay engines exact for it, and
:func:`repro.cache.stackdist.engines_for` answers every dispatcher
from it.  This file holds the table to both of its promises:

* **Exactness.**  Every engine the table lists for a spec is
  bit-identical to the serial reference :func:`replay_trace` over one
  trace corpus: Hypothesis traces over dense and sparse addresses
  using every flag byte (the dense ones also with set blocks of three
  events, so every set-major walk crosses block boundaries), the empty
  trace, hand-built traces, fuzzer programs and the six Figure 5
  benchmarks.  The outputs only
  the kernel gives are held too, on both sides of its associativity
  cap: its per-event hit mask equals ``Cache.access(...) == "hit"``
  event by event, and its distance histogram reproduces the hit
  count.  The kernel is also held to what it hands the hole-stack
  automaton, in its usual mode and with every set flagged: never a
  cold probe, whose miss is known in advance.
* **Routing.**  Each consumer — the sweep dispatcher and the
  hierarchy's level outcome — reaches the engine that the routing
  table in ``docs/PERFORMANCE.md`` names, for every family and side of
  the associativity cap.  These checks wrap each engine wherever a
  ``repro`` module binds it and take their expectations from the
  document, so they use none of the table's own API; a last check
  holds the document's tables to the engine table.
"""

import os
import sys
from dataclasses import replace
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import semantics, stackdist, vectorized
from repro.cache.cache import POLICIES, Cache, CacheConfig
from repro.cache.hierarchy import level_outcome
from repro.cache.replay import policy_for_trace, replay_trace
from repro.cache.semantics import (
    EV_KILL_WRITE,
    EV_PLAIN_READ,
    EV_PLAIN_WRITE,
    RRIP_POLICIES,
    fifo_sweep,
    flag_presence,
    flavor_decode,
    lru_sweep,
    min_sweep,
    next_use_index,
    random_sweep,
    rrip_sweep,
    signature_column,
)
from repro.cache.stackdist import flavor_key, replay_trace_sweep
from repro.cache.vectorized import VECTOR_ASSOC_CAP_LIMIT, vector_profile_pass
from repro.evalharness.sweeps import ZOO_GEOMETRY
from repro.vm.trace import (
    FLAG_AMBIGUOUS,
    FLAG_BYPASS,
    FLAG_INSTRUCTION,
    FLAG_KILL,
    FLAG_WRITE,
    TraceBuffer,
)
from test_replay_multi import (
    HAND_REFS,
    SWEEP_CONFIGS,
    make_trace as make_ref_trace,
)

# ----------------------------------------------------------------------
# The spec battery
# ----------------------------------------------------------------------

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

#: The LRU battery: every geometry under every honor/write-policy
#: combination.
BATTERY = [
    CacheConfig(
        size_words=size,
        line_words=lw,
        associativity=assoc,
        policy="lru",
        honor_bypass=honor_bypass,
        honor_kill=honor_kill,
        write_policy=write_policy,
    )
    for size, lw, assoc in GEOMETRIES
    for honor_bypass in (True, False)
    for honor_kill in (True, False)
    for write_policy in ("writeback", "writethrough")
]

#: The LRU battery plus levels the kernel never scores: other
#: policies (two of them indexed), demoted kills and write-around.
OUTCOME_CONFIGS = BATTERY + [
    CacheConfig(size_words=16, associativity=2, policy="fifo"),
    CacheConfig(size_words=16, associativity=2, policy="min"),
    CacheConfig(size_words=16, associativity=4, policy="srrip"),
    CacheConfig(size_words=16, associativity=4, policy="hawkeye"),
    CacheConfig(size_words=16, associativity=2, kill_mode="demote"),
    CacheConfig(size_words=16, associativity=2, allocate_on_write=False),
]


def policy_configs(policy):
    """The behaviorally distinct config family for one policy name:
    honor flags, write policy, write-around, demoted kills, one way and
    four-word lines (whose kills always demote)."""
    base = dict(size_words=8, line_words=1, associativity=2, policy=policy)
    if policy == "random":
        base["seed"] = 17
    return [
        CacheConfig(**base),
        CacheConfig(**dict(base, honor_bypass=False, honor_kill=False)),
        CacheConfig(**dict(base, write_policy="writethrough")),
        CacheConfig(**dict(base, allocate_on_write=False)),
        CacheConfig(**dict(base, kill_mode="demote")),
        CacheConfig(**dict(base, size_words=4, associativity=1)),
        CacheConfig(**dict(base, size_words=16, line_words=4)),
    ]

#: One fully associative Random set, and one LRU set wider than the
#: kernel's cap (the kernel flags every set).
WIDE_CONFIGS = [
    CacheConfig(size_words=8, line_words=1, associativity=8,
                policy="random", seed=7),
    CacheConfig(size_words=128, line_words=1,
                associativity=VECTOR_ASSOC_CAP_LIMIT * 2),
]


#: MIN shapes the per-policy family misses: kills ignored on their own,
#: and four ways with kills invalidating and demoting.
MIN_CONFIGS = [
    CacheConfig(size_words=8, line_words=1, associativity=2, policy="min",
                honor_kill=False),
    CacheConfig(size_words=16, line_words=1, associativity=4, policy="min"),
    CacheConfig(size_words=16, line_words=1, associativity=4, policy="min",
                kill_mode="demote"),
]

#: One spec of every registered policy at one geometry, which
#: ``TestRouting.test_one_sweep_over_every_family`` also scores in one
#: dispatcher call.
MIXED_SPECS = [
    CacheConfig(size_words=8, associativity=2, policy=policy, seed=3)
    if policy == "random" else
    CacheConfig(size_words=8, associativity=2, policy=policy)
    for policy in POLICIES
]


#: RRIP-family shapes the per-policy families above miss: two-word
#: lines (their kills always demote), eight ways, one-way BRRIP over
#: sixteen sets, and one two-way SHiP set for ``DEMOTED_REVIVAL``.
RRIP_CONFIGS = [
    CacheConfig(size_words=16, line_words=2, associativity=2, policy="ship"),
    CacheConfig(size_words=16, line_words=2, associativity=2,
                policy="hawkeye", write_policy="writethrough"),
    CacheConfig(size_words=16, line_words=1, associativity=8, policy="drrip"),
    CacheConfig(size_words=16, line_words=1, associativity=1, policy="brrip"),
    CacheConfig(size_words=2, line_words=1, associativity=2, policy="ship",
                kill_mode="demote"),
]


def _unique(specs):
    seen = {}
    for spec in specs:
        seen.setdefault(repr(spec), spec)
    return list(seen.values())


#: The union of every battery above.
SPECS = _unique(
    OUTCOME_CONFIGS
    + SWEEP_CONFIGS
    + [config for policy in POLICIES for config in policy_configs(policy)]
    + WIDE_CONFIGS
    + MIN_CONFIGS
    + RRIP_CONFIGS
    + MIXED_SPECS
)

# ----------------------------------------------------------------------
# The trace corpus
# ----------------------------------------------------------------------

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


traces = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(FLAG_CHOICES)),
    max_size=300,
)

sparse_traces = st.lists(
    st.tuples(st.integers(0, 100000), st.sampled_from(FLAG_CHOICES)),
    max_size=120,
)

#: Probe-heavy traces: episodes of up to four events on one address,
#: mostly bypasses, mixed with the installs, kill reads and kill-writes
#: that leave a later probe warm or cold (reinstalls after kills, probes
#: after kill-writes).  Sixteen addresses put bypassed and cached words
#: in the same block under four-word lines.
PROBE_FLAGS = (
    [FLAG_BYPASS, FLAG_BYPASS | FLAG_KILL, FLAG_BYPASS | FLAG_WRITE] * 2
    + [0, FLAG_WRITE, FLAG_KILL, FLAG_WRITE | FLAG_KILL]
)

probe_traces = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.lists(st.sampled_from(PROBE_FLAGS), min_size=1, max_size=4),
    ),
    max_size=80,
).map(lambda episodes: [
    (address, flags) for address, run in episodes for flags in run
])

#: The policy-protocol suite's hand trace: ``HAND_REFS`` without its
#: bypassed kill-write of address 2.
PROTOCOL_REFS = [
    (0, False, False, False),
    (1, True, False, False),
    (2, False, False, False),
    (3, True, False, True),
    (0, False, False, False),
    (4, False, True, False),
    (1, False, True, True),
    (5, True, True, False),
    (6, True, False, False),
    (7, False, False, True),
    (0, True, False, False),
    (8, False, False, False),
    (9, False, False, False),
    (1, False, False, False),
    (3, False, False, False),
]

#: One set, one way, wide lines — with bypass and kill traffic (the
#: kernel's probe/mutation path) on every address.
ANNOTATED_EVENTS = [
    (address, flags)
    for address in (0, 3, 1, 0, 7, 3, 1, 1, 0, 5, 7, 2)
    for flags in (0, FLAG_WRITE, FLAG_KILL)
]

#: A demoted line revived by a hit must not train SHiP: block 0's
#: signature counter then reaches zero two evictions later, block 3
#: inserts at the frontier and the last read of block 0 hits.  Had the
#: revival trained, block 0 would be the victim and that read a miss.
DEMOTED_REVIVAL = [
    (0, 0), (0, FLAG_KILL), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 0),
]

#: The specs where a kill demotes and a set has a victim to choose:
#: demoted kills, or multi-word lines (whose kills always demote), at
#: two or more ways.
DEMOTE_SPECS = [
    spec for spec in SPECS
    if spec.honor_kill and spec.associativity > 1
    and (spec.kill_mode == "demote" or spec.line_words > 1)
]

#: Plain reads of 64 consecutive words: every set of every
#: ``DEMOTE_SPECS`` geometry sees more blocks than it has ways, so each
#: evicts before any kill arrives.
EVICTING_PREFIX = [(address, 0) for address in range(64)]

FUZZER_SEEDS = (3, 7, 11, 17, 23, 29, 45, 79, 91, 117)


def fuzzer_trace(seed):
    """The trace of one generated program, bypass/kill annotated."""
    from repro.robustness.generator import generate_program
    from repro.unified.pipeline import CompilationOptions, compile_source
    from repro.vm.memory import RecordingMemory

    program = compile_source(
        generate_program(seed).source,
        CompilationOptions(scheme="unified", promotion="aggressive"),
    )
    memory = RecordingMemory()
    program.run(memory=memory)
    return memory.buffer


@pytest.fixture(scope="session")
def figure5_traces():
    from repro.evalharness.sweeps import _trace_for
    from repro.programs import BENCHMARK_NAMES

    return {name: _trace_for(name)[0] for name in BENCHMARK_NAMES}


#: The Figure 5 traces hold 25 k to 219 k events, so they take one
#: spec per family the report's ablations score, two E17 zoo cells
#: (bypass and kill honored): DRRIP's set dueling and Hawkeye's shadow
#: OPT, and the LRU lanes' two kinds of spec: demoted kills and
#: write-around.
FIGURE5_SPECS = [
    CacheConfig(size_words=256, line_words=1, associativity=4,
                policy="lru"),
    CacheConfig(size_words=256, line_words=1, associativity=4,
                policy="fifo"),
    CacheConfig(size_words=256, line_words=1, associativity=4,
                policy="random", seed=12345),
    CacheConfig(size_words=64, line_words=1, associativity=2,
                policy="lru", honor_bypass=False, honor_kill=False),
    CacheConfig(size_words=256, line_words=1, associativity=4,
                policy="min"),
    replace(ZOO_GEOMETRY, policy="drrip"),
    replace(ZOO_GEOMETRY, policy="hawkeye"),
    CacheConfig(size_words=256, line_words=1, associativity=4,
                policy="lru", kill_mode="demote"),
    CacheConfig(size_words=256, line_words=1, associativity=4,
                policy="lru", allocate_on_write=False),
]

# ----------------------------------------------------------------------
# Exactness: every listed engine against the serial reference
# ----------------------------------------------------------------------


def serial(trace, spec):
    """The reference stats: ``replay_trace``."""
    return replay_trace(trace, spec)


def reference_hits(trace, config):
    """``Cache.access(...) == "hit"``, event by event, driven here
    rather than through ``replay_trace`` so its hit mask is held to
    the access loop too."""
    cache = Cache(config, policy=policy_for_trace(trace, config))
    return [
        cache.access(
            address,
            bool(flags & FLAG_WRITE),
            bool(flags & FLAG_BYPASS),
            bool(flags & FLAG_KILL),
            index=index,
        ) == "hit"
        for index, (address, flags) in enumerate(trace)
    ]


def lane_stats(name, trace, config, presence):
    """``config`` scored by the lane sweep ``name``."""
    flavor = flavor_key(config, *presence)
    line_words, honor_bypass, honor_kill, write_policy = flavor
    args = (
        flavor_decode(trace.to_columns(), flavor), config.num_sets,
        [config.associativity], line_words,
        config.kill_mode if honor_kill else "invalidate",
        write_policy, config.allocate_on_write,
    )
    if name == "fifo_sweep":
        lanes = fifo_sweep(*args)
    elif name == "lru_sweep":
        lanes = lru_sweep(*args)
    elif name == "random_sweep":
        lanes = random_sweep(*args, config.seed)
    elif name == "rrip_sweep":
        lanes = rrip_sweep(
            *args, config.policy, signature_column(trace),
            next_use_index(trace, line_words, honor_bypass),
        )
    else:
        assert name == "min_sweep", name
        lanes = min_sweep(
            *args, next_use_index(trace, line_words, honor_bypass)
        )
    return lanes[config.associativity]


def assert_same(engine, spec, got, want):
    got, want = got.as_dict(), want.as_dict()
    assert got == want, (engine, spec, {
        key: (want[key], got[key]) for key in want if want[key] != got[key]
    })


def assert_table_exact(trace, specs, masks=True):
    """Every engine the table lists for each spec equals the oracle.

    The kernel, called as the sweep dispatcher calls it (once per
    ``(flavor, num_sets)`` group at its widest cap), also hands the
    UMON consumer a distance histogram, whose prefix through the
    associativity is the hit count, and the level-outcome consumer a
    per-event hit mask for its cap, held to ``Cache.access`` unless
    ``masks`` is false (that oracle costs a second reference replay per
    LRU spec).
    """
    columns = trace.to_columns()
    presence = flag_presence(columns)
    groups = {}
    for spec in specs:
        want = serial(trace, spec)
        for name in stackdist.engines_for(spec, *presence):
            if name == "vector_profile_pass":
                key = (flavor_key(spec, *presence), spec.num_sets)
                groups.setdefault(key, []).append((spec, want))
            elif name != "reference":  # the oracle itself
                assert_same(name, spec,
                            lane_stats(name, trace, spec, presence), want)
    for (flavor, num_sets), members in groups.items():
        cap = max(spec.associativity for spec, _want in members)
        profile, hits = profiled(columns, flavor, num_sets, cap)
        histogram = profile.distance_histogram()
        for spec, want in members:
            assoc = spec.associativity
            assert_same("vector_profile_pass", spec,
                        profile.stats_for(assoc), want)
            assert sum(histogram[:assoc + 1]) == want.hits, spec
            if masks:
                mask = hits if assoc == cap else profiled(
                    columns, flavor, num_sets, assoc
                )[1]
                assert mask.tolist() == reference_hits(trace, spec), spec


def profiled(columns, flavor, num_sets, cap):
    """``(profile, hits)`` from the kernel; ``hits`` is its per-event
    mask for the ``cap``-way cache."""
    hits = numpy.empty(len(columns[0]), dtype=bool)
    profile = vector_profile_pass(columns, flavor, num_sets, cap, hits=hits)
    return profile, hits


def test_corpus_covers_every_family():
    """Each family row of the table is some battery spec's engine list,
    and the wide LRU spec's is the kernel's row."""
    lists = {stackdist.engines_for(spec, True, True) for spec in SPECS}
    rows = stackdist.ENGINE_TABLE["families"]
    assert set(rows.values()) <= lists
    wide_lru = WIDE_CONFIGS[1]
    assert wide_lru.associativity > VECTOR_ASSOC_CAP_LIMIT
    assert stackdist.engines_for(wide_lru, True, True) == rows["lru"]
    assert stackdist.engines_for(wide_lru, True, True, "hits") == rows["lru"]


class TestExactness:
    @settings(max_examples=60, deadline=None)
    @given(events=traces,
           budget=st.sampled_from([semantics.SET_BLOCK_EVENTS, 3]))
    def test_dense_addresses(self, events, budget):
        # Set blocks of three events make the lane walks and the
        # kernel, on both sides of its cap, cross block boundaries.
        with mock.patch.object(semantics, "SET_BLOCK_EVENTS", budget):
            assert_table_exact(make_trace(events), SPECS)

    @settings(max_examples=30, deadline=None)
    @given(events=sparse_traces)
    def test_sparse_addresses(self, events):
        # Sparse addresses almost never reuse a block, so the kernel's
        # mask is its run collapse alone; the dense traces check masks.
        assert_table_exact(make_trace(events), SPECS, masks=False)

    @settings(max_examples=40, deadline=None)
    @given(events=probe_traces)
    def test_probe_heavy(self, events):
        assert_table_exact(make_trace(events), SPECS)

    def test_empty_trace(self):
        assert_table_exact(TraceBuffer(), SPECS)

    def test_hand_traces(self):
        assert_table_exact(make_ref_trace(HAND_REFS), SPECS)
        assert_table_exact(make_ref_trace(PROTOCOL_REFS), SPECS)
        assert_table_exact(make_trace(ANNOTATED_EVENTS), SPECS)
        assert_table_exact(make_trace(DEMOTED_REVIVAL), SPECS)

    @pytest.mark.parametrize("seed", FUZZER_SEEDS)
    def test_fuzzer_traces(self, seed):
        assert_table_exact(fuzzer_trace(seed), SPECS)

    def test_figure5_traces(self, figure5_traces):
        for trace in figure5_traces.values():
            assert_table_exact(trace, FIGURE5_SPECS, masks=False)

    def test_evicting_prefix_evicts_in_every_set(self):
        assert DEMOTE_SPECS
        for spec in DEMOTE_SPECS:
            blocks = {address // spec.line_words
                      for address, _flags in EVICTING_PREFIX}
            per_set = [0] * spec.num_sets
            for block in blocks:
                per_set[block % spec.num_sets] += 1
            assert min(per_set) > spec.associativity, spec

    @settings(max_examples=40, deadline=None)
    @given(events=traces)
    def test_first_kill_after_every_set_evicted(self, events):
        """The online policies look for dead lines only once a kill has
        demoted one.  A first kill that arrives after every set has
        evicted must still leave the lane walks' dead-first victims."""
        assert_table_exact(make_trace(EVICTING_PREFIX + events),
                           DEMOTE_SPECS)

    @settings(max_examples=25, deadline=None)
    @given(events=traces)
    def test_one_rrip_walk_scores_a_ways_ladder(self, events):
        """The dispatcher hands ``rrip_sweep`` a whole ways ladder over
        four sets in one call, and every lane equals the oracle."""
        trace = make_trace(events)
        for policy in RRIP_POLICIES:
            for kill_mode in ("invalidate", "demote"):
                specs = [
                    CacheConfig(size_words=4 * assoc, associativity=assoc,
                                policy=policy, kill_mode=kill_mode)
                    for assoc in (1, 2, 4, 8)
                ]
                with mock.patch.object(
                    stackdist, "rrip_sweep", wraps=rrip_sweep
                ) as walk:
                    swept = replay_trace_sweep(trace, specs)
                assert walk.call_count == 1
                for spec, stats in zip(specs, swept):
                    assert_same("rrip_sweep", spec, stats, serial(trace, spec))


# ----------------------------------------------------------------------
# Cold probes never reach the automaton
# ----------------------------------------------------------------------

INSTALLS = (EV_PLAIN_READ, EV_PLAIN_WRITE)


def automaton_inputs(trace, specs):
    """The events each automaton call receives from the kernel.

    Runs ``vector_profile_pass`` (with a hit mask, so the sink path
    runs too) once per group of the LRU ``specs`` in the stack-distance
    model, in its usual mode and with every set flagged (the wide-cap
    mode, forced by a cap limit of 0), with ``_run_general`` wrapped
    wherever the kernel binds it.
    """
    columns = trace.to_columns()
    presence = flag_presence(columns)
    caps = {}
    for spec in specs:
        if stackdist.supports_stackdist(spec, *presence):
            key = (flavor_key(spec, *presence), spec.num_sets)
            caps[key] = max(caps.get(key, 0), spec.associativity)
    calls = []
    real = stackdist._run_general

    def automaton(profile, iterator, *args, **kwargs):
        events = list(iterator)
        calls.append(events)
        return real(profile, iter(events), *args, **kwargs)

    with mock.patch.object(vectorized, "_run_general", automaton):
        for (flavor, num_sets), cap in caps.items():
            for limit in (VECTOR_ASSOC_CAP_LIMIT, 0):
                with mock.patch.object(vectorized, "VECTOR_ASSOC_CAP_LIMIT",
                                       limit):
                    profiled(columns, flavor, num_sets, cap)
    return calls


def assert_no_cold_probes(trace, specs=BATTERY):
    """Every probe the automaton receives follows an install.

    One call holds whole sets and a block never spans sets, so a block's
    previous event within a call is its previous replayed event.  A
    warm probe's previous event is an install, which always replays; a
    cold probe that slipped through would follow no event, a probe or
    a kill-write instead.  Returns how many probes were checked.
    """
    checked = 0
    for events in automaton_inputs(trace, specs):
        previous = {}
        for index, (block, event_type, _wrote) in enumerate(events):
            if event_type not in INSTALLS and event_type != EV_KILL_WRITE:
                assert previous.get(block) in INSTALLS, (
                    index, block, event_type, previous.get(block)
                )
                checked += 1
            previous[block] = event_type
    return checked


class TestColdProbes:
    @settings(max_examples=40, deadline=None)
    @given(events=probe_traces)
    def test_probe_heavy(self, events):
        assert_no_cold_probes(make_trace(events))

    @settings(max_examples=20, deadline=None)
    @given(events=traces)
    def test_dense_addresses(self, events):
        assert_no_cold_probes(make_trace(events))

    def test_hand_traces(self):
        assert_no_cold_probes(make_ref_trace(HAND_REFS))
        assert_no_cold_probes(make_trace(ANNOTATED_EVENTS))

    @pytest.mark.parametrize("seed", FUZZER_SEEDS)
    def test_fuzzer_traces(self, seed):
        assert_no_cold_probes(fuzzer_trace(seed))

    def test_figure5_traces(self, figure5_traces):
        # The report's unified streams do hand the automaton warm
        # probes, so the wrapped automaton is the one the kernel calls.
        assert sum(
            assert_no_cold_probes(trace, FIGURE5_SPECS)
            for trace in figure5_traces.values()
        )


# ----------------------------------------------------------------------
# Routing: every consumer reaches the engine the document names
# ----------------------------------------------------------------------

DOC_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "PERFORMANCE.md"
)

#: The engines the routing checks watch, by name and home module.
ENGINES = {
    "vector_profile_pass": "repro.cache.vectorized",
    "fifo_sweep": "repro.cache.semantics",
    "random_sweep": "repro.cache.semantics",
    "min_sweep": "repro.cache.semantics",
    "rrip_sweep": "repro.cache.semantics",
    "lru_sweep": "repro.cache.semantics",
}

#: The routing table's consumer labels.
CONSUMERS = {
    "sweep": "stats",
    "hit mask": "hits",
}

WIDE = VECTOR_ASSOC_CAP_LIMIT * 2

#: Representative specs per routing-table column, on each side of the
#: kernel's associativity cap.
FAMILY_SPECS = {
    "lru": [
        CacheConfig(size_words=16, associativity=2),
        CacheConfig(size_words=WIDE, associativity=WIDE),
    ],
    "fifo": [
        CacheConfig(size_words=16, associativity=2, policy="fifo"),
        CacheConfig(size_words=WIDE, associativity=WIDE, policy="fifo"),
    ],
    "random": [
        CacheConfig(size_words=16, associativity=2, policy="random"),
        CacheConfig(size_words=WIDE, associativity=WIDE, policy="random"),
    ],
    "min": [
        CacheConfig(size_words=16, associativity=2, policy="min"),
        CacheConfig(size_words=WIDE, associativity=WIDE, policy="min"),
    ],
    "rrip": [
        CacheConfig(size_words=16, associativity=4, policy="srrip"),
        CacheConfig(size_words=16, associativity=4, policy="hawkeye"),
        CacheConfig(size_words=WIDE, associativity=WIDE, policy="ship"),
    ],
    "other": [
        CacheConfig(size_words=16, associativity=2, allocate_on_write=False),
        CacheConfig(size_words=16, associativity=2, kill_mode="demote"),
        CacheConfig(size_words=16, line_words=2, associativity=2),
        CacheConfig(size_words=WIDE, associativity=WIDE, kill_mode="demote"),
    ],
}

#: Carries bypass and kill bits, so the demote and two-word-line LRU
#: specs above fall outside the stack-distance model.
ROUTING_EVENTS = [
    (3, 0), (5, FLAG_WRITE), (3, FLAG_KILL), (9, FLAG_BYPASS),
    (5, 0), (3, FLAG_WRITE), (11, FLAG_WRITE | FLAG_KILL), (5, 0),
]


def doc_table(header):
    """The rows of the ``docs/PERFORMANCE.md`` table under ``header``."""
    with open(DOC_PATH, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index(header)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


ROUTING_COLUMNS = ("lru", "fifo", "random", "min", "rrip", "other")
ROUTING_HEADER = "| consumer | {} |".format(
    " | ".join("`{}`".format(column) for column in ROUTING_COLUMNS)
)
FAMILY_HEADER = "| family | specs | exact engines, fast one first |"
CONSUMER_HEADER = "| consumer | needs | engines that give it |"


def engine_names(cell):
    return [name.strip().strip("`") for name in cell.split(",")]


def routing_cells():
    """``(consumer, column, expected)`` per table cell."""
    cells = []
    for row in doc_table(ROUTING_HEADER):
        consumer = CONSUMERS[row[0]]
        for column, cell in zip(ROUTING_COLUMNS, row[1:]):
            cells.append((consumer, column, cell.strip("`")))
    return cells


@pytest.fixture
def reached(monkeypatch):
    """Wrap every engine wherever a ``repro`` module binds it; the
    returned list records each engine entered, in order."""
    calls = []
    for name, home in ENGINES.items():
        raw = getattr(sys.modules[home], name)

        def wrapper(*args, _name=name, _raw=raw, **kwargs):
            calls.append(_name)
            return _raw(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def drive(consumer, spec, reached):
    """The engines ``consumer`` enters, asked once for ``spec``.

    Runs on a fresh trace (the level outcome is memoized per trace)
    and checks the consumer's answer against the reference.
    """
    trace = make_trace(ROUTING_EVENTS)
    if consumer == "stats":
        want = serial(trace, spec)
    else:
        want = reference_hits(trace, spec)
    del reached[:]
    if consumer == "stats":
        (stats,) = replay_trace_sweep(trace, [spec])
        assert stats == want, spec
    else:
        _stats, hits = level_outcome(trace, spec)
        assert hits.tolist() == want, spec
    return list(reached)


class TestRouting:
    """Every consumer reaches the engine the routing table names.

    An engine may delegate to another, so the engine that scored is
    the innermost one entered — the last recorded.  ``reference`` means
    no engine was entered: the consumer ran the ``Cache.access`` loop.
    """

    def test_routing_table_is_complete(self):
        cells = routing_cells()
        assert {cell[:2] for cell in cells} == {
            (consumer, column)
            for consumer in CONSUMERS.values()
            for column in ROUTING_COLUMNS
        }

    def test_consumers_reach_the_named_engine(self, reached):
        checked = 0
        for consumer, column, expected in routing_cells():
            for spec in FAMILY_SPECS[column]:
                entered = drive(consumer, spec, reached)
                if expected == "reference":
                    assert entered == [], (consumer, spec)
                else:
                    assert entered[-1:] == [expected], (consumer, spec)
                checked += 1
        assert checked

    def test_one_sweep_over_every_family(self):
        """One dispatcher call spanning every family, and one holding
        one spec of every policy on fuzzer traces, merge each group's
        results back in request order."""
        cases = [(
            make_trace(ROUTING_EVENTS),
            [spec for specs in FAMILY_SPECS.values() for spec in specs],
        )] + [(fuzzer_trace(seed), MIXED_SPECS) for seed in (7, 23)]
        for trace, specs in cases:
            for spec, stats in zip(specs, replay_trace_sweep(trace, specs)):
                assert stats == serial(trace, spec), spec

    def test_unclaimed_specs_land_on_the_lru_lanes_or_the_reference(
            self, reached):
        """LRU outside the stack-distance model: the LRU lane walk
        scores its sweeps, the reference loop its hit masks."""
        for spec in FAMILY_SPECS["other"]:
            assert drive("stats", spec, reached) == ["lru_sweep"]
            assert drive("hits", spec, reached) == []


# ----------------------------------------------------------------------
# The document follows the table
# ----------------------------------------------------------------------


class TestDocumentedTables:
    def test_family_table(self):
        rows = {
            row[0].strip("`"): engine_names(row[2])
            for row in doc_table(FAMILY_HEADER)
        }
        assert rows == {
            family: list(names)
            for family, names in stackdist.ENGINE_TABLE["families"].items()
        }

    def test_consumer_table(self):
        documented = [
            engine_names(row[2]) for row in doc_table(CONSUMER_HEADER)
        ]
        assert documented == [
            list(names)
            for names in stackdist.ENGINE_TABLE["consumers"].values()
        ]

    def test_routing_table(self):
        for consumer, column, expected in routing_cells():
            for spec in FAMILY_SPECS[column]:
                (got, *_rest) = stackdist.engines_for(
                    spec, True, True, consumer
                )
                assert got == expected, (consumer, column, spec)

