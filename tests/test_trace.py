"""Trace encoding and memory-system wrapper tests."""

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ir.instructions import RefClass, RefInfo, RefOrigin, RegionKind
from repro.lang.errors import ResourceExhausted
from repro.vm.trace import (
    FLAG_AMBIGUOUS,
    FLAG_BYPASS,
    FLAG_INSTRUCTION,
    FLAG_KILL,
    FLAG_WRITE,
    TraceBuffer,
    TraceEvent,
    encode_flags,
    origin_from_flags,
    set_order,
)
from repro.vm.memory import FlatMemory, RecordingMemory
from scalar_reference import rptrace1_bytes


def make_ref(bypass=False, kill=False, ambiguous=False,
             origin=RefOrigin.USER):
    ref = RefInfo("t", RegionKind.DIRECT, origin=origin)
    ref.ref_class = RefClass.AMBIGUOUS if ambiguous else RefClass.UNAMBIGUOUS
    ref.bypass = bypass
    ref.kill = kill
    return ref


#: Every flag byte :func:`encode_flags` can produce, as a data event
#: and as an instruction fetch.
ENCODABLE_FLAGS = sorted({
    encode_flags(make_ref(bypass, kill, ambiguous, origin), is_write)
    | instruction
    for bypass in (False, True)
    for kill in (False, True)
    for ambiguous in (False, True)
    for origin in RefOrigin
    for is_write in (False, True)
    for instruction in (0, FLAG_INSTRUCTION)
})


def summary_by_loop(buffer):
    """The per-event reference for :meth:`TraceBuffer.summary`."""
    writes = bypassed = killed = ambiguous = instructions = 0
    by_origin = {origin.value: 0 for origin in RefOrigin}
    for flags in buffer.flags:
        if flags & FLAG_INSTRUCTION:
            instructions += 1
            continue
        writes += bool(flags & FLAG_WRITE)
        bypassed += bool(flags & FLAG_BYPASS)
        killed += bool(flags & FLAG_KILL)
        ambiguous += bool(flags & FLAG_AMBIGUOUS)
        by_origin[origin_from_flags(flags).value] += 1
    total = len(buffer) - instructions
    return {
        "total": total,
        "reads": total - writes,
        "writes": writes,
        "bypassed": bypassed,
        "killed": killed,
        "ambiguous": ambiguous,
        "unambiguous": total - ambiguous,
        "instructions": instructions,
        "by_origin": by_origin,
    }


class TestFlagEncoding:
    def test_roundtrip_all_flags(self):
        for bypass in (False, True):
            for kill in (False, True):
                for ambiguous in (False, True):
                    for origin in RefOrigin:
                        for is_write in (False, True):
                            ref = make_ref(bypass, kill, ambiguous, origin)
                            flags = encode_flags(ref, is_write)
                            event = TraceEvent.from_packed(99, flags)
                            assert event.is_write == is_write
                            assert event.bypass == bypass
                            assert event.kill == kill
                            assert event.ambiguous == ambiguous
                            assert event.origin == origin

    def test_flag_bits_disjoint(self):
        bits = [FLAG_WRITE, FLAG_BYPASS, FLAG_KILL, FLAG_AMBIGUOUS]
        for index, bit in enumerate(bits):
            for other in bits[index + 1:]:
                assert bit & other == 0

    def test_origin_from_flags(self):
        ref = make_ref(origin=RefOrigin.SPILL)
        assert origin_from_flags(encode_flags(ref, False)) is RefOrigin.SPILL


class TestTraceBuffer:
    def test_append_and_len(self):
        buffer = TraceBuffer()
        buffer.append(5, 0)
        buffer.append(6, FLAG_WRITE)
        assert len(buffer) == 2
        assert list(buffer) == [(5, 0), (6, FLAG_WRITE)]

    def test_events_view(self):
        buffer = TraceBuffer()
        buffer.append(7, FLAG_WRITE | FLAG_BYPASS)
        event = buffer.events()[0]
        assert event.address == 7
        assert event.is_write and event.bypass

    def test_events_cached_and_invalidated_on_append(self):
        buffer = TraceBuffer()
        buffer.append(7, FLAG_WRITE)
        first = buffer.events()
        assert buffer.events() is first
        buffer.append(8, 0)
        second = buffer.events()
        assert second is not first
        assert [event.address for event in second] == [7, 8]

    def test_to_columns_cached_and_invalidated_on_append(self):
        buffer = TraceBuffer()
        buffer.append(3, FLAG_KILL)
        buffer.append(4, FLAG_WRITE)
        addresses, flags = buffer.to_columns()
        assert list(addresses) == [3, 4]
        assert list(flags) == [FLAG_KILL, FLAG_WRITE]
        assert buffer.to_columns() is buffer._columns
        again = buffer.to_columns()
        assert again == buffer.to_columns()
        buffer.append(5, 0)
        addresses, flags = buffer.to_columns()
        assert list(addresses) == [3, 4, 5]
        assert list(flags) == [FLAG_KILL, FLAG_WRITE, 0]

    def test_recording_run_drops_memos_before_its_first_event(self):
        # The VM's recording handlers append to the arrays directly, so
        # the run itself must forget what was decoded before it.
        from repro.unified.pipeline import CompilationOptions, compile_source

        program = compile_source(
            "int g; int main() { g = 3; return g; }",
            CompilationOptions(promotion="none"),
        )
        memory = RecordingMemory()
        buffer = memory.buffer
        buffer.append(9, FLAG_WRITE)
        buffer.events()
        buffer.to_columns()
        buffer.set_partition(4)
        vm = program.machine(memory=memory)
        for _ in range(2):
            vm.run()
            assert len(buffer) > 1
            assert len(buffer.events()) == len(buffer)
            assert list(buffer.to_columns()[0]) == list(buffer.addresses)
            assert len(buffer.set_partition(4)) == len(buffer)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(ENCODABLE_FLAGS), max_size=300))
    @example([])
    @example([0, FLAG_WRITE, FLAG_BYPASS | FLAG_AMBIGUOUS, FLAG_KILL])
    def test_summary_counts(self, flags):
        buffer = TraceBuffer()
        for address, value in enumerate(flags):
            buffer.append(address, value)
        assert buffer.summary() == summary_by_loop(buffer)

    def test_from_bytes_rejects_unknown_origin_code(self):
        buffer = TraceBuffer()
        buffer.append(9, 0x40)  # a data event with origin code 4
        for data in (rptrace1_bytes([9], [0x40]), buffer.to_bytes()):
            with pytest.raises(ValueError, match="origin code 4"):
                TraceBuffer.from_bytes(data)

    def test_from_bytes_honours_max_events(self):
        buffer = TraceBuffer()
        for address in range(10):
            buffer.append(address, FLAG_WRITE)
        data = buffer.to_bytes()
        with pytest.raises(ResourceExhausted):
            TraceBuffer.from_bytes(data, max_events=3)
        assert len(TraceBuffer.from_bytes(data, max_events=10)) == 10
        assert len(TraceBuffer.from_bytes(data, max_events=None)) == 10


#: Set counts on both sides of the 16-bit key's range.
SET_COUNTS = (1, 3, 48, 64, 4096, 65536, 65537)


def assert_set_order(buffer):
    """:func:`set_order`, and the partition built on it, equal the
    int64-key stable argsort at every set count and line size."""
    addresses, _flags = buffer.to_columns()
    for line_words in (1, 4):
        blocks = addresses if line_words == 1 else addresses // line_words
        for num_sets in SET_COUNTS:
            want = numpy.argsort(blocks % num_sets, kind="stable")
            got = set_order(blocks, num_sets)
            assert got.dtype == want.dtype
            assert numpy.array_equal(got, want), (line_words, num_sets)
            assert numpy.array_equal(
                buffer.set_partition(num_sets, line_words), want
            )


class TestSetOrder:
    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(
        st.tuples(st.integers(0, 1 << 62), st.sampled_from(ENCODABLE_FLAGS)),
        max_size=400,
    ))
    def test_hypothesis_traces(self, events):
        buffer = TraceBuffer()
        for address, flags in events:
            buffer.append(address, flags)
        assert_set_order(buffer)

    @pytest.mark.parametrize("seed", [3, 11, 45])
    def test_fuzzer_traces(self, seed):
        from repro.robustness.generator import generate_program
        from repro.unified.pipeline import CompilationOptions, compile_source

        program = compile_source(
            generate_program(seed).source,
            CompilationOptions(scheme="unified", promotion="none"),
        )
        memory = RecordingMemory()
        program.run(memory=memory)
        assert len(memory.buffer)
        assert_set_order(memory.buffer)


class TestMemorySystems:
    def test_flat_memory_read_default_zero(self):
        memory = FlatMemory()
        assert memory.read(1234, make_ref()) == 0

    def test_flat_memory_write_read(self):
        memory = FlatMemory()
        memory.write(10, 99, make_ref())
        assert memory.read(10, make_ref()) == 99

    def test_recording_memory_captures_everything(self):
        memory = RecordingMemory()
        memory.write(10, 1, make_ref())
        memory.read(10, make_ref(bypass=True))
        assert len(memory.buffer) == 2
        events = list(memory.buffer.events())
        assert events[0].is_write
        assert events[1].bypass

    def test_recording_memory_is_functional(self):
        memory = RecordingMemory()
        memory.write(10, 7, make_ref())
        assert memory.read(10, make_ref()) == 7

    def test_streaming_memory_feeds_cache(self):
        """A memory system that implements only ``read``/``write`` runs
        through the default ``bind_site``: fed by the VM, its online
        cache counts exactly what the recorded trace replays to."""
        from repro.cache.cache import Cache, CacheConfig
        from repro.cache.replay import replay_trace
        from repro.programs import get_benchmark
        from repro.unified.pipeline import CompilationOptions, compile_source
        from test_superinstructions import StreamingMemory

        config = CacheConfig(size_words=64, associativity=2)
        program = compile_source(
            get_benchmark("towers").source,
            CompilationOptions(scheme="unified", promotion="none"),
        )
        streaming = StreamingMemory(Cache(config))
        program.run(memory=streaming)
        recording = RecordingMemory()
        program.run(memory=recording)
        stats = streaming.sink.stats
        assert stats.refs_bypassed > 0 and stats.hits > 0
        assert stats == replay_trace(recording.buffer, config)

    def test_poke_is_not_traced(self):
        memory = RecordingMemory()
        memory.poke(5, 55)
        assert len(memory.buffer) == 0
        assert memory.peek(5) == 55
