"""Combined I+D cache experiment and instruction-fetch tracing tests."""

import pytest

from conftest import compile_program

from repro.evalharness.unifiedcache import (
    SplitStats,
    record_combined_trace,
    replay_combined,
    unified_cache_comparison,
)
from repro.cache.cache import CacheConfig
from repro.vm.machine import TEXT_BASE
from repro.vm.memory import RecordingMemory
from repro.vm.reference import ReferenceMachine
from repro.vm.trace import FLAG_INSTRUCTION

SOURCE = (
    "int f(int x) { return x * 2; } "
    "int main() { int i; int s; s = 0; "
    "for (i = 0; i < 10; i++) s = s + f(i); print(s); return 0; }"
)


class TestInstructionTracing:
    def test_sink_sees_every_step(self):
        program = compile_program(SOURCE)
        fetched = []
        vm = program.machine(instruction_sink=fetched.append)
        result = vm.run()
        assert len(fetched) == result.steps

    def test_addresses_in_text_segment(self):
        program = compile_program(SOURCE)
        fetched = []
        vm = program.machine(instruction_sink=fetched.append)
        vm.run()
        assert all(address >= TEXT_BASE for address in fetched)
        assert max(fetched) < TEXT_BASE + vm.code_size

    def test_straightline_fetches_are_sequential(self):
        program = compile_program("int main() { int x; x = 1; x = x + 2; "
                                  "return x; }", promotion="aggressive")
        fetched = []
        vm = program.machine(instruction_sink=fetched.append)
        vm.run()
        deltas = [b - a for a, b in zip(fetched, fetched[1:])]
        # A single basic block: every fetch advances by one word.
        assert all(delta == 1 for delta in deltas)

    def test_layout_is_disjoint_across_functions(self):
        program = compile_program(SOURCE)
        vm = program.machine()
        spans = []
        for function in program.module.functions.values():
            for block in function.blocks.values():
                spans.append(
                    (block.code_address,
                     block.code_address + len(block.instructions))
                )
        spans.sort()
        for (start_a, end_a), (start_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= start_b

    def test_no_sink_no_overhead_path(self):
        program = compile_program(SOURCE)
        result = program.run()
        assert result.output == [90]


class TestCombinedTrace:
    def test_trace_contains_both_classes(self):
        trace, _program = record_combined_trace("queen")
        summary = trace.summary()
        assert summary["instructions"] > 0
        assert summary["total"] > 0
        assert summary["instructions"] + summary["total"] == len(trace)

    def test_instruction_events_flagged(self):
        trace, _program = record_combined_trace("queen")
        flagged = sum(
            1 for _addr, flags in trace if flags & FLAG_INSTRUCTION
        )
        assert flagged == trace.summary()["instructions"]

    def test_replay_split_counts(self):
        trace, _program = record_combined_trace("queen")
        split, stats = replay_combined(
            trace, CacheConfig(size_words=256, associativity=4)
        )
        summary = trace.summary()
        assert split.i_refs == summary["instructions"]
        assert split.d_refs == summary["total"]
        assert split.d_bypassed == summary["bypassed"]
        assert stats.refs_total == len(trace)

    @pytest.mark.parametrize("name", ["queen", "towers"])
    def test_trace_matches_reference_interpreter(self, name):
        """A sinked machine builds no fused table, so every data event
        of E10's recorder goes through ``RecordingMemory.bind_site``;
        the reference interpreter, which calls ``read``/``write`` per
        event, records the same bytes under the same fetch sink."""
        trace, program = record_combined_trace(name)
        memory = RecordingMemory()
        buffer = memory.buffer

        def ifetch(address):
            buffer.append(address, FLAG_INSTRUCTION)

        ReferenceMachine(
            program.module, memory=memory, machine=program.options.machine,
            instruction_sink=ifetch,
        ).run()
        summary = trace.summary()
        assert summary["writes"] > 0 and summary["bypassed"] > 0
        assert trace.to_bytes() == buffer.to_bytes()

    def test_split_stats_rates(self):
        split = SplitStats(i_refs=10, i_hits=9, d_refs=6, d_hits=2,
                           d_bypassed=2)
        assert split.i_hit_rate == pytest.approx(0.9)
        assert split.d_hit_rate == pytest.approx(0.5)

    def test_empty_rates(self):
        split = SplitStats()
        assert split.i_hit_rate == 0.0
        assert split.d_hit_rate == 0.0


class TestComparison:
    def test_bypass_never_hurts_instruction_stream(self):
        for size in (128, 256):
            row = unified_cache_comparison("queen", size_words=size)
            assert row["unified_i_hit_rate"] >= (
                row["conventional_i_hit_rate"] - 1e-9
            )

    def test_pressure_shows_gain(self):
        row = unified_cache_comparison("towers", size_words=128)
        assert row["unified_i_hit_rate"] > row["conventional_i_hit_rate"]

    def test_row_fields(self):
        row = unified_cache_comparison("queen", size_words=128)
        assert row["i_refs"] > row["d_refs"] > 0
