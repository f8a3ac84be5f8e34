"""The content-addressed artifact cache and trace serialization.

A stored artifact must come back bit-identical (program, trace,
output, steps); a corrupt entry must degrade into a quarantined miss;
the content address must move whenever the source, the annotation
configuration, or the schema moves.

These are mechanism tests asserting exact hit/miss/quarantine
counters, so they mask any ambient ``REPRO_FAULT_PLAN`` (the chaos CI
job sets one suite-wide); the fault-injection behaviour of the store
has its own battery in ``tests/test_artifact_store.py``.
"""

import json
import os

import pytest

from repro import faultinject
from repro.evalharness.artifacts import (
    ArtifactCache,
    artifact_key,
    options_fingerprint,
)
from repro.lang.errors import VMError
from repro.programs import get_benchmark
from repro.unified.pipeline import CompilationOptions
from repro.vm.trace import (
    FLAG_BYPASS,
    FLAG_KILL,
    FLAG_WRITE,
    TRACE_MAGIC,
    TraceBuffer,
    _decode_deltas,
    _encode_deltas,
)
from scalar_reference import decode_deltas_py, encode_deltas_py, rptrace1_bytes


@pytest.fixture(autouse=True)
def _mask_ambient_fault_plan():
    with faultinject.fault_plan(None):
        yield


SIMPLE = """
int main() {
    int values[8];
    int i;
    for (i = 0; i < 8; i++) { values[i] = i * i; }
    print(values[3] + values[5]);
    return 0;
}
"""


class TestTraceSerialization:
    def _trace(self):
        trace = TraceBuffer()
        trace.append(0, FLAG_WRITE)
        trace.append(7, FLAG_BYPASS)
        trace.append(123456, FLAG_WRITE | FLAG_KILL)
        trace.append(3, 0)
        return trace

    def test_roundtrip(self):
        trace = self._trace()
        clone = TraceBuffer.from_bytes(trace.to_bytes())
        assert list(clone.addresses) == list(trace.addresses)
        assert list(clone.flags) == list(trace.flags)
        assert clone.summary() == trace.summary()

    def test_empty_roundtrip(self):
        clone = TraceBuffer.from_bytes(TraceBuffer().to_bytes())
        assert len(clone) == 0

    def test_save_load(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.bin"
        trace.save(str(path))
        clone = TraceBuffer.load(str(path))
        assert list(clone) == list(trace)

    def test_bad_magic_rejected(self):
        data = b"NOTMAGIC" + self._trace().to_bytes()[8:]
        with pytest.raises(ValueError, match="magic"):
            TraceBuffer.from_bytes(data)

    def test_truncated_rejected(self):
        data = self._trace().to_bytes()
        with pytest.raises(ValueError):
            TraceBuffer.from_bytes(data[:-3])

    def test_trailing_garbage_rejected(self):
        data = self._trace().to_bytes() + b"\x00"
        with pytest.raises(ValueError):
            TraceBuffer.from_bytes(data)

    def test_magic_constant_in_payload(self):
        assert self._trace().to_bytes().startswith(TRACE_MAGIC)


class TestTraceV2Codec:
    """The RPTRACE2 zigzag-varint delta codec behind save/load."""

    def _trace(self, addresses):
        trace = TraceBuffer()
        for index, address in enumerate(addresses):
            trace.append(address, index % 8)
        return trace

    #: Streams the codec must round-trip exactly: strided walks,
    #: backward jumps, repeats, and the int64 extremes whose deltas
    #: wrap 64-bit arithmetic.
    STREAMS = [
        [],
        [0],
        [5, 5, 5, 5],
        list(range(0, 400, 4)),
        [1000, 0, 999, 1, 998, 2],
        [0, (1 << 63) - 1, -(1 << 63), (1 << 63) - 1, 0],
        [-(1 << 63), (1 << 63) - 1],
    ]

    @pytest.mark.parametrize("addresses", STREAMS)
    def test_v2_roundtrip(self, addresses):
        trace = self._trace(addresses)
        clone = TraceBuffer.from_bytes(trace.to_bytes())
        assert list(clone.addresses) == list(trace.addresses)
        assert list(clone.flags) == list(trace.flags)

    @pytest.mark.parametrize("addresses", STREAMS)
    def test_v1_still_written_and_read(self, addresses):
        """RPTRACE1 is read-only now: the test writes the payload."""
        trace = self._trace(addresses)
        legacy = rptrace1_bytes(addresses, trace.flags)
        clone = TraceBuffer.from_bytes(legacy)
        assert list(clone.addresses) == list(trace.addresses)
        assert list(clone.flags) == list(trace.flags)

    @pytest.mark.parametrize("addresses", STREAMS)
    def test_numpy_and_python_encoders_agree(self, addresses):
        packed = self._trace(addresses).addresses
        assert _encode_deltas(packed) == encode_deltas_py(packed)

    @pytest.mark.parametrize("addresses", STREAMS)
    def test_numpy_and_python_decoders_agree(self, addresses):
        packed = self._trace(addresses).addresses
        payload = encode_deltas_py(packed)
        count = len(packed)
        assert list(_decode_deltas(payload, count)) == list(
            decode_deltas_py(payload, count)
        )

    def test_small_deltas_compress(self):
        """The point of the codec: a strided walk costs about one byte
        per address instead of eight."""
        trace = self._trace(list(range(0, 4000, 4)))
        v1 = len(rptrace1_bytes(trace.addresses, trace.flags))
        v2 = len(trace.to_bytes())
        assert v2 < v1 / 3

    def test_truncated_varint_rejected(self):
        data = self._trace([1 << 40, 2 << 40, 3 << 40]).to_bytes()
        with pytest.raises(ValueError):
            TraceBuffer.from_bytes(data[:-4])

    def test_wrong_count_rejected(self):
        trace = self._trace([10, 20, 30])
        data = bytearray(trace.to_bytes())
        # The header's event count lives at offset 12 (magic + version).
        data[12] = 7
        with pytest.raises(ValueError):
            TraceBuffer.from_bytes(bytes(data))

    def test_overwide_varint_rejected(self):
        import struct

        # Eleven continuation-heavy bytes: wider than any 64-bit value.
        payload = b"\xff" * 10 + b"\x01" + b"\x00"
        data = struct.pack("<8sIQ", TRACE_MAGIC, 2, 1) + payload
        with pytest.raises(ValueError):
            TraceBuffer.from_bytes(data)

    def test_python_decoder_rejects_trailing_bytes(self):
        """The decoder and its loop reference both refuse a payload
        holding more varints than promised, including none at all."""
        packed = self._trace([1, 2, 3]).addresses
        payload = encode_deltas_py(packed) + b"\x05"
        with pytest.raises(ValueError, match="trailing"):
            decode_deltas_py(payload, len(packed))
        with pytest.raises(ValueError):
            _decode_deltas(payload, len(packed))
        for decode in (_decode_deltas, decode_deltas_py):
            with pytest.raises(ValueError, match="trailing"):
                decode(b"\x05", 0)

    def test_save_load_is_v2(self, tmp_path):
        trace = self._trace(list(range(64)))
        path = tmp_path / "trace.bin"
        trace.save(str(path))
        with open(str(path), "rb") as handle:
            assert handle.read(8) == TRACE_MAGIC
        clone = TraceBuffer.load(str(path))
        assert list(clone) == list(trace)


class TestArtifactKey:
    def test_key_stable(self):
        options = CompilationOptions()
        assert artifact_key(SIMPLE, options) == artifact_key(SIMPLE, options)

    def test_key_moves_with_source(self):
        options = CompilationOptions()
        assert artifact_key(SIMPLE, options) != artifact_key(
            SIMPLE + "\n", options
        )

    def test_key_moves_with_options(self):
        assert artifact_key(SIMPLE, CompilationOptions()) != artifact_key(
            SIMPLE, CompilationOptions(promotion="aggressive")
        )
        assert artifact_key(SIMPLE, CompilationOptions()) != artifact_key(
            SIMPLE, CompilationOptions(scheme="conventional")
        )

    def test_fingerprint_covers_machine(self):
        from repro.ir.instructions import MachineConfig

        small = CompilationOptions(machine=MachineConfig(num_regs=8,
                                                         num_caller_saved=4))
        assert options_fingerprint(small) != options_fingerprint(
            CompilationOptions()
        )


class TestArtifactCache:
    def test_cold_then_warm(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        first = cache.resolve("simple", SIMPLE)
        assert (cache.hits, cache.misses) == (0, 1)
        assert not first.from_cache
        second = cache.resolve("simple", SIMPLE)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second.from_cache
        assert second.output == first.output
        assert second.steps == first.steps
        assert list(second.trace) == list(first.trace)

    def test_warm_program_replays_identically(self, tmp_path):
        from repro.vm.memory import RecordingMemory

        cache = ArtifactCache(str(tmp_path))
        cache.resolve("simple", SIMPLE)
        warm = cache.resolve("simple", SIMPLE)
        memory = RecordingMemory()
        result = warm.program.run(memory=memory)
        assert tuple(result.output) == warm.output
        assert result.steps == warm.steps
        assert list(memory.buffer) == list(warm.trace)

    def test_distinct_options_distinct_entries(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.resolve("simple", SIMPLE, CompilationOptions())
        cache.resolve(
            "simple", SIMPLE, CompilationOptions(promotion="aggressive")
        )
        assert cache.misses == 2

    def test_corrupt_program_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        artifact = cache.resolve("simple", SIMPLE)
        entry = cache._entry_dir(artifact.key)
        with open(os.path.join(entry, "program.pkl"), "wb") as handle:
            handle.write(b"not a pickle")
        repaired = cache.resolve("simple", SIMPLE)
        assert cache.misses == 2
        assert repaired.output == artifact.output
        # The corrupt entry was quarantined (never re-read on the next
        # lookup) and the recompute stored a fresh copy, so the third
        # resolve is a clean hit.
        assert cache.quarantined == 1
        assert [key for key, _ in cache.quarantine_entries()] == [
            artifact.key
        ]
        third = cache.resolve("simple", SIMPLE)
        assert third.output == artifact.output
        assert cache.hits == 1

    def test_corrupt_trace_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        artifact = cache.resolve("simple", SIMPLE)
        entry = cache._entry_dir(artifact.key)
        with open(os.path.join(entry, "trace.bin"), "r+b") as handle:
            handle.truncate(10)
        cache.resolve("simple", SIMPLE)
        assert cache.misses == 2

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        artifact = cache.resolve("simple", SIMPLE)
        entry = cache._entry_dir(artifact.key)
        with open(os.path.join(entry, "meta.json"), "w") as handle:
            handle.write("{ truncated")
        cache.resolve("simple", SIMPLE)
        assert cache.misses == 2

    def test_meta_event_count_checked(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        artifact = cache.resolve("simple", SIMPLE)
        entry = cache._entry_dir(artifact.key)
        meta_path = os.path.join(entry, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["events"] += 1
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        cache.resolve("simple", SIMPLE)
        assert cache.misses == 2

    def test_expected_output_mismatch_raises(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        with pytest.raises(VMError, match="instead of"):
            cache.resolve("simple", SIMPLE, expected_output=(999,))
        # ... on the warm path too.
        cache.resolve("simple", SIMPLE)
        with pytest.raises(VMError, match="instead of"):
            cache.resolve("simple", SIMPLE, expected_output=(999,))

    def test_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.resolve("simple", SIMPLE)
        cache.clear()
        cache.resolve("simple", SIMPLE)
        assert cache.misses == 2

    def test_benchmark_resolution_matches_direct_run(self, tmp_path):
        bench = get_benchmark("sieve")
        cache = ArtifactCache(str(tmp_path))
        artifact = cache.resolve(
            bench.name, bench.source, expected_output=bench.expected_output
        )
        assert artifact.output == bench.expected_output
        warm = cache.resolve(
            bench.name, bench.source, expected_output=bench.expected_output
        )
        assert warm.from_cache
        assert list(warm.trace) == list(artifact.trace)
        assert warm.program.static.rows() == artifact.program.static.rows()
