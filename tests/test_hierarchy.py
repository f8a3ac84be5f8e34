"""The N-level hierarchy layer: spec parsing, the offline scorers vs
the online chained model, and the bypass-level ablation.

The load-bearing contract is the one the differential harness also
enforces: for non-inclusive hierarchies the offline
:func:`hierarchy_stats` scorer is bit-identical, level by level, to
the online :class:`HierarchyCache` chain (on synthetic traces, and on
the E16 report's three-level geometry over its intmm and towers
traces); for inclusive hierarchies
the L1 column is identical to the standalone L1 and the derived
local-L2 metrics stay within their definitions.  The Hypothesis
property at the bottom additionally holds the N=2 instantiation
bit-identical to an inline two-level reference chain (the pre-refactor
L1/L2 model) on fuzzer-generated traces.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.cache import semantics, stackdist
from repro.cache.cache import Cache, CacheConfig
from repro.cache.hierarchy import (
    HierarchyCache,
    HierarchyError,
    HierarchySpec,
    filtered_trace,
    hierarchy_stats,
    level_outcome,
    parse_hierarchy,
)
from repro.cache.replay import replay_trace
from repro.errors import ReproError
from repro.evalharness.experiment import DEFAULT_CACHE
from repro.evalharness.sweeps import DEFAULT_HIERARCHY3, _trace_for
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, TraceBuffer
from test_engine_table import (
    OUTCOME_CONFIGS,
    fuzzer_trace,
    make_trace as make_event_trace,
    reference_hits as reference_outcome,
    traces,
)


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


@pytest.fixture(scope="module")
def report_traces():
    """The E16 report's traces of intmm and towers."""
    return {name: _trace_for(name)[0] for name in ("intmm", "towers")}


def mixed_trace(events=4000, addresses=160, seed=42):
    """Deterministic flag-rich trace exercising every event flavor."""
    rng = random.Random(seed)
    refs = []
    for _ in range(events):
        refs.append((
            rng.randrange(addresses),
            rng.random() < 0.3,
            rng.random() < 0.2,
            rng.random() < 0.1,
        ))
    return make_trace(refs)


class TestParseHierarchy:
    def test_basic_two_level(self):
        spec = parse_hierarchy("L1:64x2,L2:512x8")
        assert [name for name, _ in spec.levels] == ["L1", "L2"]
        l1, l2 = (config for _name, config in spec.levels)
        assert (l1.size_words, l1.associativity) == (64, 2)
        assert (l2.size_words, l2.associativity) == (512, 8)
        assert spec.inclusion == "non-inclusive"
        assert spec.bypass_level == "l1"

    def test_discipline_tokens(self):
        spec = parse_hierarchy("L1:64x2,L2:512x8,inclusive,bypass=both")
        assert spec.inclusion == "inclusive"
        assert spec.bypass_level == "both"

    def test_kwargs_win_over_tokens(self):
        spec = parse_hierarchy(
            "L1:64x2,L2:512x8,inclusive,bypass=both",
            inclusion="non-inclusive",
            bypass_levels="l1",
        )
        assert spec.inclusion == "non-inclusive"
        assert spec.bypass_level == "l1"

    def test_base_config_carries_through(self):
        base = CacheConfig(kill_mode="demote", write_policy="writethrough")
        spec = parse_hierarchy("L1:64x2,L2:512x8", base=base)
        for _name, config in spec.levels:
            assert config.kill_mode == "demote"
            assert config.write_policy == "writethrough"

    def test_describe_round_trip(self):
        text = "L1:64x2,L2:512x8,inclusive,bypass=both"
        spec = parse_hierarchy(text)
        again = parse_hierarchy(spec.describe())
        assert again.describe() == spec.describe()

    def test_single_level_rejected(self):
        with pytest.raises(ValueError, match="two levels"):
            parse_hierarchy("L1:64x2")

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="NAME:SIZExASSOC"):
            parse_hierarchy("L1:64x2,L2:big")

    def test_bad_bypass_rejected(self):
        with pytest.raises(ValueError, match="bad bypass level"):
            parse_hierarchy("L1:64x2,L2:512x8,bypass=l3")

    def test_inclusive_needs_nested_associativity(self):
        with pytest.raises(ValueError, match="nest"):
            parse_hierarchy("L1:64x4,L2:128x2,inclusive")

    def test_inclusive_needs_nested_sets(self):
        # 32 sets inside 48 sets: 48 % 32 != 0.
        with pytest.raises(ValueError, match="nest"):
            parse_hierarchy("L1:64x2,L2:96x2,inclusive")

    def test_non_inclusive_allows_any_geometry(self):
        spec = parse_hierarchy("L1:64x4,L2:128x2")
        assert spec.inclusion == "non-inclusive"

    def test_mixed_line_words_rejected(self):
        levels = [
            ("L1", CacheConfig(size_words=64, line_words=1,
                               associativity=2)),
            ("L2", CacheConfig(size_words=512, line_words=4,
                               associativity=8)),
        ]
        with pytest.raises(ValueError, match="line_words"):
            HierarchySpec(levels)


class TestOnlineChain:
    def test_serving_level_names(self):
        spec = parse_hierarchy("L1:4x1,L2:16x2")
        chain = HierarchyCache(spec)
        assert chain.access(0, False) == "memory"
        assert chain.access(0, False) == "L1"
        # Push block 0 out of the 4-set direct-mapped L1 only.
        assert chain.access(4, False) == "memory"
        assert chain.access(0, False) == "L2"

    def test_stats_keys_are_level_names(self):
        spec = parse_hierarchy("L1:4x1,L2:16x2")
        chain = HierarchyCache(spec)
        chain.access(0, False)
        assert sorted(chain.stats()) == ["L1", "L2"]

    @pytest.mark.parametrize("policy", ["min", "ship", "hawkeye"])
    def test_trace_column_levels_score_offline_only(self, policy):
        """The online chain has no trace to build a MIN, SHiP or
        Hawkeye level from; the offline scorer replays that level."""
        spec = parse_hierarchy("L1:16x2@{},L2:64x4".format(policy))
        with pytest.raises(ValueError):
            HierarchyCache(spec)
        trace = mixed_trace(events=400)
        l1 = spec.level_configs()[0]
        assert hierarchy_stats(trace, spec)["L1"] == replay_trace(trace, l1)


class TestOfflineMatchesOnline:
    """Non-inclusive offline scoring == the online chain, bit for bit."""

    @pytest.mark.parametrize("bypass_level", ["l1", "both"])
    @pytest.mark.parametrize(
        "text", ["L1:16x2,L2:128x4", "L1:64x2,L2:512x8", "L1:32x4,L2:64x2"]
    )
    def test_bit_identity(self, text, bypass_level):
        trace = mixed_trace()
        spec = parse_hierarchy(text, bypass_levels=bypass_level)
        offline = hierarchy_stats(trace, spec)
        online = HierarchyCache(spec)
        for address, flags in trace:
            online.access(
                address,
                bool(flags & FLAG_WRITE),
                bool(flags & FLAG_BYPASS),
                bool(flags & FLAG_KILL),
            )
        for name, stats in offline.levels:
            assert stats.as_dict() == online.stats()[name].as_dict(), (
                text, bypass_level, name,
            )

    def test_l1_equals_standalone_cache(self):
        """The hierarchy's L1 column is exactly the single-cache score
        — chaining adds levels without disturbing the paper's model."""
        trace = mixed_trace()
        spec = parse_hierarchy("L1:64x2,L2:512x8")
        offline = hierarchy_stats(trace, spec)
        standalone = replay_trace(trace, spec.levels[0][1])
        assert offline["L1"].as_dict() == standalone.as_dict()


class TestInclusiveScoring:
    @pytest.mark.parametrize("bypass_level", ["l1", "both"])
    def test_l1_matches_non_inclusive(self, bypass_level):
        trace = mixed_trace()
        inclusive = hierarchy_stats(
            trace,
            parse_hierarchy(
                "L1:64x2,L2:512x8", inclusion="inclusive",
                bypass_levels=bypass_level,
            ),
        )
        chained = hierarchy_stats(
            trace,
            parse_hierarchy(
                "L1:64x2,L2:512x8", bypass_levels=bypass_level
            ),
        )
        assert inclusive["L1"].as_dict() == chained["L1"].as_dict()

    @pytest.mark.parametrize("bypass_level", ["l1", "both"])
    def test_derived_metrics_within_definitions(self, bypass_level):
        trace = mixed_trace()
        row = hierarchy_stats(
            trace,
            parse_hierarchy(
                "L1:64x2,L2:512x8", inclusion="inclusive",
                bypass_levels=bypass_level,
            ),
        ).as_dict()
        assert row["l2_local_hits"] >= 0
        assert 0.0 <= row["l2_local_miss_rate"] <= 1.0
        assert row["memory_bus_words"] >= 0
        assert row["l1_l2_bus_words"] >= 0


class TestBypassAblation:
    """The headline question: which level do bypassed references skip?

    A stream that re-reads bypassed blocks separates the designs: with
    ``bypass=l1`` those blocks retain their L2 locality, with
    ``bypass=both`` every re-read goes all the way to memory.
    """

    def ablation_rows(self, inclusion):
        refs = []
        # Eight hot blocks read through bypass four times each, round
        # robin, never entering L1; a little plain traffic alongside.
        for round_index in range(4):
            for block in range(8):
                refs.append((100 + block, False, True, False))
                refs.append((block, False, False, False))
        trace = make_trace(refs)
        rows = {}
        for bypass_level in ("l1", "both"):
            rows[bypass_level] = hierarchy_stats(
                trace,
                parse_hierarchy(
                    "L1:64x2,L2:512x8", inclusion=inclusion,
                    bypass_levels=bypass_level,
                ),
            ).as_dict()
        return rows

    @pytest.mark.parametrize("inclusion", ["non-inclusive", "inclusive"])
    def test_bypass_both_costs_memory_traffic(self, inclusion):
        rows = self.ablation_rows(inclusion)
        assert (
            rows["both"]["memory_bus_words"]
            > rows["l1"]["memory_bus_words"]
        )

    @pytest.mark.parametrize("inclusion", ["non-inclusive", "inclusive"])
    def test_l1_column_unaffected_by_bypass_level(self, inclusion):
        """Both designs treat L1 identically — the knob only changes
        what happens below it."""
        rows = self.ablation_rows(inclusion)
        for key in ("l1_hits", "l1_misses", "l1_miss_rate"):
            assert rows["both"][key] == rows["l1"][key]


class TestAsDictShape:
    def test_reporting_row_fields(self):
        trace = mixed_trace(events=500)
        row = hierarchy_stats(
            trace, parse_hierarchy("L1:64x2,L2:512x8")
        ).as_dict()
        for key in (
            "hierarchy", "inclusion", "bypass_level", "levels",
            "l1_hits", "l1_misses", "l1_miss_rate", "l1_bus_words",
            "l2_hits", "l2_misses", "l2_miss_rate", "l2_bus_words",
            "l2_local_hits", "l2_local_miss_rate",
            "memory_bus_words", "l1_l2_bus_words",
        ):
            assert key in row, key
        assert row["hierarchy"].startswith("L1:64x2,L2:512x8")
        assert row["levels"] == ["L1", "L2"]

    def test_three_level_row_fields(self):
        trace = mixed_trace(events=500)
        row = hierarchy_stats(
            trace, parse_hierarchy("L1:16x2,L2:64x4,L3:256x8")
        ).as_dict()
        assert row["levels"] == ["L1", "L2", "L3"]
        for key in (
            "l3_hits", "l3_misses", "l3_miss_rate", "l3_bus_words",
            "l2_local_hits", "l2_local_miss_rate",
            "l3_local_hits", "l3_local_miss_rate",
            "l1_l2_bus_words", "l2_l3_bus_words", "memory_bus_words",
        ):
            assert key in row, key
        # The memory bus is the outermost level's downstream bus.
        assert row["memory_bus_words"] == row["l3_bus_words"]


class TestParseErgonomics:
    def test_duplicate_level_names_rejected(self):
        with pytest.raises(HierarchyError, match="duplicate level name"):
            parse_hierarchy("L1:64x2,L1:512x8")

    def test_duplicate_names_case_insensitive(self):
        with pytest.raises(HierarchyError, match="duplicate level name"):
            parse_hierarchy("L1:64x2,l1:512x8")

    def test_contradictory_bypass_tokens_rejected(self):
        with pytest.raises(HierarchyError, match="contradictory bypass"):
            parse_hierarchy("L1:64x2,bypass=l1,L2:512x8,bypass=both")

    def test_contradictory_inclusion_tokens_rejected(self):
        with pytest.raises(HierarchyError,
                           match="contradictory inclusion"):
            parse_hierarchy("L1:64x2,L2:512x8,inclusive,non-inclusive")

    def test_repeated_identical_tokens_allowed(self):
        spec = parse_hierarchy(
            "L1:64x2,inclusive,L2:512x8,inclusive,bypass=both,bypass=both"
        )
        assert spec.inclusion == "inclusive"
        assert spec.bypass_level == "both"

    def test_whitespace_around_tokens(self):
        spec = parse_hierarchy(
            "  L1 : 64x2 ,  L2:512x8 ,  inclusive , bypass= both "
        )
        assert [name for name, _ in spec.levels] == ["L1", "L2"]
        assert spec.inclusion == "inclusive"
        assert spec.bypass_level == "both"

    def test_errors_are_stage_tagged(self):
        with pytest.raises(HierarchyError) as excinfo:
            parse_hierarchy("L1:64x2,L1:512x8")
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.stage == "hierarchy"

    def test_bad_level_policy_rejected(self):
        with pytest.raises(HierarchyError, match="bad level policy"):
            parse_hierarchy("L1:64x2,L2:512x8@optimal")

    def test_level_policy_suffix_parses(self):
        spec = parse_hierarchy("L1:64x2,L2:512x8@srrip")
        assert spec.levels[0][1].policy == "lru"
        assert spec.levels[1][1].policy == "srrip"
        assert "@srrip" in spec.describe()


class TestThreeLevels:
    def test_parse_three_levels(self):
        spec = parse_hierarchy("L1:16x2,L2:64x4,L3:256x8")
        assert [name for name, _ in spec.levels] == ["L1", "L2", "L3"]
        assert spec.bypass_levels == ("L1",)
        assert spec.bypass_level == "l1"

    def test_bypass_addressing_set(self):
        spec = parse_hierarchy("L1:16x2,L2:64x4,L3:256x8,bypass=L1+L3")
        assert spec.bypass_levels == ("L1", "L3")
        assert spec.bypass_level == "L1+L3"
        again = parse_hierarchy(spec.describe())
        assert again.bypass_levels == ("L1", "L3")

    def test_bypass_both_addresses_every_level(self):
        spec = parse_hierarchy("L1:16x2,L2:64x4,L3:256x8,bypass=both")
        assert spec.bypass_levels == ("L1", "L2", "L3")
        assert spec.bypass_level == "both"

    def test_level_configs_gate_honor_flags(self):
        spec = parse_hierarchy("L1:16x2,L2:64x4,L3:256x8,bypass=L1+L3")
        configs = spec.level_configs()
        assert [c.honor_bypass for c in configs] == [True, False, True]
        # Kills act at the innermost level only.
        assert [c.honor_kill for c in configs] == [True, False, False]

    @pytest.mark.parametrize(
        "bypass", ["l1", "both", "L1+L3", "L2"]
    )
    def test_offline_matches_online_three_levels(self, bypass):
        trace = mixed_trace()
        spec = parse_hierarchy(
            "L1:16x2,L2:64x4,L3:256x8", bypass_levels=bypass
        )
        offline = hierarchy_stats(trace, spec)
        online = HierarchyCache(spec)
        for address, flags in trace:
            online.access(
                address,
                bool(flags & FLAG_WRITE),
                bool(flags & FLAG_BYPASS),
                bool(flags & FLAG_KILL),
            )
        for name, stats in offline.levels:
            assert stats.as_dict() == online.stats()[name].as_dict(), (
                bypass, name,
            )

    def test_offline_matches_online_zoo_policy_level(self):
        """Any zoo policy works at any level (here SRRIP at L2)."""
        trace = mixed_trace(events=2000)
        spec = parse_hierarchy("L1:16x2,L2:64x4@srrip,L3:256x8")
        offline = hierarchy_stats(trace, spec)
        online = HierarchyCache(spec)
        for address, flags in trace:
            online.access(
                address,
                bool(flags & FLAG_WRITE),
                bool(flags & FLAG_BYPASS),
                bool(flags & FLAG_KILL),
            )
        for name, stats in offline.levels:
            assert stats.as_dict() == online.stats()[name].as_dict(), name

    @pytest.mark.parametrize("bypass", ["l1", "both"])
    def test_report_geometry_matches_online_chain(self, bypass,
                                                  report_traces):
        """The E16 three-level report geometry, scored offline on the
        report's own traces, equals the per-event online chain."""
        spec = parse_hierarchy(DEFAULT_HIERARCHY3, base=DEFAULT_CACHE,
                               bypass_levels=bypass)
        for name, trace in report_traces.items():
            offline = hierarchy_stats(trace, spec)
            online = HierarchyCache(spec)
            for address, flags in trace:
                online.access(
                    address,
                    bool(flags & FLAG_WRITE),
                    bool(flags & FLAG_BYPASS),
                    bool(flags & FLAG_KILL),
                )
            for level, stats in offline.levels:
                assert stats.as_dict() == online.stats()[level].as_dict(), (
                    name, bypass, level,
                )

    def test_inclusive_three_levels(self):
        trace = mixed_trace()
        spec = parse_hierarchy(
            "L1:16x2,L2:64x4,L3:256x8", inclusion="inclusive"
        )
        row = hierarchy_stats(trace, spec).as_dict()
        standalone = replay_trace(trace, spec.level_configs()[0])
        assert row["l1_hits"] == standalone.hits
        assert row["l2_local_hits"] >= 0
        assert row["l3_local_hits"] >= 0


def _reference_two_level(trace, l1_config, l2_config, bypass_level):
    """The pre-refactor L1/L2 model, inlined: replay L1 online, hand
    every non-hit to L2, honor bypass at L2 only under ``"both"``,
    never honor kills below L1."""
    from dataclasses import replace

    l1 = Cache(l1_config)
    l2 = Cache(replace(
        l2_config,
        honor_bypass=l2_config.honor_bypass and bypass_level == "both",
        honor_kill=False,
    ))
    for address, flags in trace:
        is_write = bool(flags & FLAG_WRITE)
        bypass = bool(flags & FLAG_BYPASS)
        kill = bool(flags & FLAG_KILL)
        if l1.access(address, is_write, bypass, kill) != "hit":
            l2.access(address, is_write, bypass, False)
    return l1.stats, l2.stats


class TestReferenceEquivalence:
    """N=2 instantiation == the pinned PR 5 two-level behavior."""

    @pytest.mark.parametrize("bypass_level", ["l1", "both"])
    def test_hypothesis_bit_identity(self, bypass_level):
        from hypothesis import given, settings, strategies as st

        ref = st.tuples(
            st.integers(min_value=0, max_value=95),
            st.booleans(), st.booleans(), st.booleans(),
        )

        @settings(max_examples=40, deadline=None)
        @given(refs=st.lists(ref, min_size=1, max_size=400))
        def property_(refs):
            trace = make_trace(refs)
            spec = parse_hierarchy(
                "L1:16x2,L2:64x4", bypass_levels=bypass_level
            )
            offline = hierarchy_stats(trace, spec)
            l1_ref, l2_ref = _reference_two_level(
                trace, spec.levels[0][1], spec.levels[1][1], bypass_level
            )
            assert offline["L1"].as_dict() == l1_ref.as_dict()
            assert offline["L2"].as_dict() == l2_ref.as_dict()

        property_()


def assert_outcomes_exact(trace, configs):
    for config in configs:
        want_hits = reference_outcome(trace, config)
        stats, hits = level_outcome(trace, config)
        assert hits.tolist() == want_hits, config
        assert stats == replay_trace(trace, config), config
        _stats, downstream = filtered_trace(trace, config)
        passed = [
            (address, flags & ~FLAG_KILL)
            for (address, flags), hit in zip(trace, want_hits) if not hit
        ]
        assert list(downstream) == passed, config


#: ``(hit-mask engines, set-block budget)``: the kernel over one set
#: block, the kernel over blocks of a few events, and the reference
#: loop, which the table's hit-mask row reaches for every level once it
#: lists the reference alone (it always does for the levels outside
#: the kernel's family).
OUTCOME_PATHS = [
    (stackdist.ENGINE_TABLE["consumers"]["hits"], semantics.SET_BLOCK_EVENTS),
    (stackdist.ENGINE_TABLE["consumers"]["hits"], 3),
    (("reference",), semantics.SET_BLOCK_EVENTS),
]
OUTCOME_PATH_IDS = ["kernel", "kernel-small-blocks", "reference"]


@contextlib.contextmanager
def outcome_path(engines, budget):
    """Patch the hit-mask row and the set-block budget."""
    consumers = stackdist.ENGINE_TABLE["consumers"]
    with mock.patch.dict(consumers, {"hits": engines}), \
            mock.patch.object(semantics, "SET_BLOCK_EVENTS", budget):
        yield


class TestLevelOutcome:
    """The per-level outcome (stats plus per-event hit mask, and the
    filtered stream cut from it) is exact on every path: the set-major
    kernel, over one set block or many, and the reference loop; and
    the outcome is memoized per trace."""

    @pytest.mark.parametrize("engines,budget", OUTCOME_PATHS,
                             ids=OUTCOME_PATH_IDS)
    def test_synthetic_traces(self, engines, budget):
        @settings(max_examples=25, deadline=None)
        @given(events=traces)
        def property_(events):
            assert_outcomes_exact(make_event_trace(events), OUTCOME_CONFIGS)

        with outcome_path(engines, budget):
            property_()

    @pytest.mark.parametrize("seed", [45, 79, 117])
    @pytest.mark.parametrize("engines,budget", OUTCOME_PATHS,
                             ids=OUTCOME_PATH_IDS)
    def test_fuzzer_traces(self, engines, budget, seed):
        trace = fuzzer_trace(seed)
        with outcome_path(engines, budget):
            assert_outcomes_exact(trace, OUTCOME_CONFIGS)

    def test_memoized_per_config(self):
        trace = mixed_trace(events=500)
        config = CacheConfig(size_words=16, associativity=2)
        first_stats, first_hits = level_outcome(trace, config)
        first_stats.hits += 1  # callers get their own copy
        stats, hits = level_outcome(trace, config)
        assert hits is first_hits
        assert not hits.flags.writeable
        assert stats == replay_trace(trace, config)

    def test_append_clears_the_memo(self):
        trace = mixed_trace(events=500)
        config = CacheConfig(size_words=16, associativity=2)
        filtered_trace(trace, config)
        trace.append(7, FLAG_WRITE | FLAG_KILL)
        stats, downstream = filtered_trace(trace, config)
        fresh = TraceBuffer()
        for address, flags in trace:
            fresh.append(address, flags)
        want_stats, want_downstream = filtered_trace(fresh, config)
        assert stats == want_stats
        assert list(downstream) == list(want_downstream)
