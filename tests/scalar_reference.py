"""Pure-Python references for the NumPy kernels, used only by tests.

The production run collapse
(:func:`repro.cache.semantics.collapse_runs_sorted`),
the RPTRACE2 delta codec (:mod:`repro.vm.trace`) and the multi-core
private levels (:func:`repro.cache.multicore.simulate_multicore`) run
on NumPy arrays.  These are the plain loops they replaced: tests
require the kernels to agree with them exactly, bit for bit.  The
module also builds legacy RPTRACE1 payloads, which the library still
reads but no longer writes.
"""

import struct
from array import array
from dataclasses import replace
from types import SimpleNamespace

from repro.cache.cache import Cache
from repro.cache.hierarchy import HierarchyError
from repro.cache.multicore import (
    MulticoreResult,
    PartitionedLRUPolicy,
    interleave_traces,
)
from repro.cache.semantics import ENTRY_DIRTY, EV_PLAIN_WRITE
from repro.vm.trace import (
    FLAG_BYPASS,
    FLAG_KILL,
    FLAG_WRITE,
    TRACE_FORMAT_VERSION_V1,
    TRACE_MAGIC_V1,
)

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
    """Loop reference for :func:`repro.cache.semantics.collapse_runs_sorted`.

    Walks in time order and tracks each set's current run head by
    position, so follower writes dirty the right head even when other
    sets' events interleave.  Returns the heads' event indices in time
    order (``indices``), ``run_writes``, each run's ``last_indices``
    and the follower counts.
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
    return SimpleNamespace(
        indices=indices,
        run_writes=run_writes,
        last_indices=last_indices,
        follower_reads=follower_reads,
        follower_writes=follower_writes,
        collapsed=follower_reads + follower_writes,
    )


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


def simulate_multicore_py(traces, l1_config, shared_config, quotas=None,
                          shared_kill=False, seed=0, chunk=8, names=None,
                          merged=None):
    """Per-event reference for
    :func:`repro.cache.multicore.simulate_multicore`.

    Walks the merged stream once, driving each core's private
    :class:`Cache` and, for every reference the private level does not
    serve as a hit, the shared level — the loop the production code
    replaced with one private-level outcome per core.
    """
    cores = len(traces)
    if merged is None:
        merged = interleave_traces(traces, seed=seed, chunk=chunk)
    if names is None:
        names = ["core{}".format(index) for index in range(cores)]
    l1s = [Cache(l1_config) for _ in range(cores)]
    shared_effective = replace(
        shared_config,
        honor_bypass=False,
        honor_kill=bool(shared_kill and shared_config.honor_kill),
    )
    policy = None
    if quotas is not None:
        if len(quotas) != cores:
            raise HierarchyError("need one way quota per core")
        policy = PartitionedLRUPolicy(quotas)
        shared = Cache(replace(shared_effective, policy="lru"),
                       policy=policy)
    else:
        shared = Cache(shared_effective)

    line_words = shared_effective.line_words
    num_sets = shared_effective.num_sets
    max_block = merged.max_address // line_words
    stride_blocks = -(-(max_block + 1) // num_sets) * num_sets
    stride_words = stride_blocks * line_words

    probe_kills = bool(shared_kill and l1_config.honor_kill)
    shared_policy = shared.policy
    shared_stats = shared.stats
    kill_probes = 0
    shared_refs = [0] * cores
    shared_hits = [0] * cores
    for core, address, flags in merged:
        is_write = bool(flags & FLAG_WRITE)
        bypass = bool(flags & FLAG_BYPASS)
        kill = bool(flags & FLAG_KILL)
        outcome = l1s[core].access(address, is_write, bypass, kill)
        shifted = address + core * stride_words
        if outcome == "hit":
            if kill and probe_kills:
                block = shifted // line_words
                set_index = block % num_sets
                entry = shared_policy.lookup(set_index, block)
                if entry is not None:
                    if entry[ENTRY_DIRTY]:
                        shared_stats.dead_drops += 1
                    shared_policy.invalidate(set_index, block, entry)
                    shared_stats.dead_line_frees += 1
                    kill_probes += 1
            continue
        if policy is not None:
            policy.core = core
        shared_refs[core] += 1
        if shared.access(shifted, is_write, bypass, kill) == "hit":
            shared_hits[core] += 1
    return MulticoreResult(
        names=tuple(names),
        l1_stats=[cache.stats for cache in l1s],
        shared_stats=shared.stats,
        shared_refs=shared_refs,
        shared_hits=shared_hits,
        quotas=tuple(quotas) if quotas is not None else None,
        events=len(merged),
        kill_probes=kill_probes,
        seed=merged.seed,
        chunk=merged.chunk,
    )
