"""Pure-Python references for the NumPy kernels, used only by tests.

The production run collapse (:func:`repro.cache.semantics.collapse_runs`)
and the RPTRACE2 delta codec (:mod:`repro.vm.trace`) are NumPy array
code.  These are the plain loops they replaced: tests require the
kernels to agree with them exactly, bit for bit.  The module also
builds legacy RPTRACE1 payloads, which the library still reads but no
longer writes.
"""

import struct
from array import array

from repro.cache.semantics import EV_PLAIN_WRITE, CollapsedRuns
from repro.vm.trace import TRACE_FORMAT_VERSION_V1, TRACE_MAGIC_V1

#: 64-bit wrap mask: the codec works in uint64 arithmetic, so the
#: loops agree with the NumPy kernels on address extremes.
_U64 = (1 << 64) - 1


def rptrace1_bytes(addresses, flags):
    """An RPTRACE1 payload: header, little-endian int64 addresses,
    then one flag byte per event."""
    count = len(addresses)
    return (
        struct.pack("<8sIQ", TRACE_MAGIC_V1, TRACE_FORMAT_VERSION_V1, count)
        + struct.pack("<{}q".format(count), *addresses)
        + bytes(flags)
    )


def collapse_runs_py(blocks, types, num_sets):
    """Loop reference for :func:`repro.cache.semantics.collapse_runs`.

    Tracks each set's current run head by position so follower writes
    dirty the right head even when other sets' events interleave.
    """
    last_block = {}
    last_plain = {}
    head_pos = {}
    indices = []
    run_writes = []
    last_indices = []
    follower_reads = 0
    follower_writes = 0
    for i, block in enumerate(blocks):
        t = types[i]
        s = block % num_sets
        plain = t <= EV_PLAIN_WRITE
        if (
            plain
            and last_plain.get(s, False)
            and last_block.get(s) == block
        ):
            pos = head_pos[s]
            last_indices[pos] = i
            if t == EV_PLAIN_WRITE:
                run_writes[pos] = True
                follower_writes += 1
            else:
                follower_reads += 1
        else:
            if plain:
                head_pos[s] = len(indices)
            indices.append(i)
            run_writes.append(False)
            last_indices.append(i)
        last_block[s] = block
        last_plain[s] = plain
    collapsed = follower_reads + follower_writes
    if collapsed == 0:
        return None
    runs = CollapsedRuns()
    runs.indices = indices
    runs.indices_list = indices
    runs.run_writes = run_writes
    runs.last_indices = last_indices
    runs.follower_reads = follower_reads
    runs.follower_writes = follower_writes
    runs.collapsed = collapsed
    return runs


def encode_deltas_py(addresses):
    """Loop reference for :func:`repro.vm.trace._encode_deltas`."""
    out = bytearray()
    previous = 0
    for address in addresses:
        delta = (address - previous) & _U64
        previous = address
        if delta >= 1 << 63:
            delta -= 1 << 64
        zig = ((delta << 1) ^ (delta >> 63)) & _U64
        while zig > 0x7F:
            out.append(0x80 | (zig & 0x7F))
            zig >>= 7
        out.append(zig)
    return bytes(out)


def decode_deltas_py(payload, count):
    """Loop reference for :func:`repro.vm.trace._decode_deltas`."""
    out = array("q")
    position = 0
    previous = 0
    data = bytes(payload)
    for _ in range(count):
        zig = 0
        shift = 0
        while True:
            if position >= len(data) or shift > 63:
                raise ValueError(
                    "corrupt trace: varint stream does not hold the "
                    "promised event count"
                )
            byte = data[position]
            position += 1
            zig |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        zig &= _U64
        delta = (zig >> 1) ^ -(zig & 1)
        previous = (previous + delta) & _U64
        value = previous
        if value >= 1 << 63:
            value -= 1 << 64
        out.append(value)
    if position != len(data):
        raise ValueError("corrupt trace: trailing bytes after the "
                         "varint stream")
    return out
