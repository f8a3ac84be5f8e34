"""Compact memory-reference traces.

A trace event is one data reference: word address plus one flag byte.
Events are stored in parallel ``array`` buffers so multi-million-entry
traces stay cheap; the cache simulators consume either the packed form
directly or :class:`TraceEvent` views.
"""

import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy

from repro.ir.instructions import RefClass, RefOrigin
from repro.lang.errors import ResourceExhausted

#: On-disk trace formats.  Both share the header (magic, format
#: version, event count); the payloads differ:
#:
#: * ``RPTRACE1`` (read only) — the address array verbatim
#:   (little-endian int64) followed by the flag array (one byte per
#:   event).
#: * ``RPTRACE2`` (the one written) — each address as the zigzag
#:   varint of its delta from the previous event's address (the first
#:   event is relative to zero), followed by the raw flag bytes.
#:   Reference streams walk arrays and stack frames in small strides,
#:   so most deltas fit one varint byte and traces shrink several-fold
#:   (``benchmarks/bench_onepass.py`` records the measured ratio).
#:
#: :meth:`TraceBuffer.from_bytes` auto-detects the format by magic, so
#: artifacts written before the codec change stay readable.  Version
#: bumps whenever the flag-byte encoding above changes, so a stale
#: artifact can never be replayed under the wrong semantics.
TRACE_MAGIC_V1 = b"RPTRACE1"
TRACE_FORMAT_VERSION_V1 = 1
TRACE_MAGIC = b"RPTRACE2"
TRACE_FORMAT_VERSION = 2
_HEADER = struct.Struct("<8sIQ")

#: Default cap on buffered trace events.  Each event costs nine bytes
#: (an int64 address plus a flag byte), so the default bounds one
#: buffer at roughly 1.8 GB — far above any shipped workload
#: (paper-scale runs stay in the tens of millions) but low enough to
#: fail with a clean :class:`ResourceExhausted` instead of an OOM kill
#: when a runaway program floods the recorder.
DEFAULT_MAX_EVENTS = 200_000_000

FLAG_WRITE = 0x01
FLAG_BYPASS = 0x02
FLAG_KILL = 0x04
FLAG_AMBIGUOUS = 0x08
ORIGIN_SHIFT = 4
ORIGIN_MASK = 0x70
#: Set on instruction-fetch events in combined I+D traces.  Instruction
#: references always go through the cache in the unified model (there
#: is no "execute register" instruction, Section 2.3), so the bit only
#: classifies; it never changes cache behaviour.
FLAG_INSTRUCTION = 0x80

#: One annotation bit of every flag byte as a bool, indexed by the
#: byte: the per-event drivers decode an event with three tuple
#: lookups instead of three ``bool(flags & FLAG_*)``.
IS_WRITE, IS_BYPASS, IS_KILL = (
    tuple(bool(flags & bit) for flags in range(256))
    for bit in (FLAG_WRITE, FLAG_BYPASS, FLAG_KILL)
)

_ORIGIN_CODES = {
    RefOrigin.USER: 0,
    RefOrigin.SPILL: 1,
    RefOrigin.CALLEE_SAVE: 2,
    RefOrigin.ARG_HOME: 3,
}
_CODE_ORIGINS = {code: origin for origin, code in _ORIGIN_CODES.items()}

#: The flag bytes a trace may carry: a known origin code (instruction
#: events too, since :meth:`TraceBuffer.events` decodes theirs).
_VALID_FLAG_BYTES = bytes(
    f for f in range(256) if (f & ORIGIN_MASK) >> ORIGIN_SHIFT in _CODE_ORIGINS
)


def encode_flags(ref, is_write):
    """Pack a :class:`RefInfo` plus direction into one flag byte."""
    flags = FLAG_WRITE if is_write else 0
    if ref.bypass:
        flags |= FLAG_BYPASS
    if ref.kill:
        flags |= FLAG_KILL
    if ref.ref_class is RefClass.AMBIGUOUS:
        flags |= FLAG_AMBIGUOUS
    flags |= _ORIGIN_CODES[ref.origin] << ORIGIN_SHIFT
    return flags


def origin_from_flags(flags):
    return _CODE_ORIGINS[(flags & ORIGIN_MASK) >> ORIGIN_SHIFT]


def set_order(blocks, num_sets):
    """``numpy.argsort(blocks % num_sets, kind="stable")``: the events
    set-major, each set's in time order.

    Up to 65,536 sets the key is computed straight into a uint16 array,
    with no int64 temporary, and NumPy's stable argsort of a 16-bit key
    is a radix sort; a stable sort's permutation is unique, so the
    result is the same.  Wider geometries keep the int64 key.
    """
    if num_sets <= 1 << 16:
        key = numpy.empty(len(blocks), dtype=numpy.uint16)
        numpy.remainder(blocks, num_sets, out=key, casting="unsafe")
    else:
        key = blocks % num_sets
    return numpy.argsort(key, kind="stable")


@dataclass(frozen=True)
class TraceEvent:
    """An unpacked view of one reference, for tests and small tools."""

    address: int
    is_write: bool
    bypass: bool
    kill: bool
    ambiguous: bool
    origin: RefOrigin
    is_instruction: bool = False

    @classmethod
    def from_packed(cls, address, flags):
        return cls(
            address=address,
            is_write=bool(flags & FLAG_WRITE),
            bypass=bool(flags & FLAG_BYPASS),
            kill=bool(flags & FLAG_KILL),
            ambiguous=bool(flags & FLAG_AMBIGUOUS),
            origin=origin_from_flags(flags),
            is_instruction=bool(flags & FLAG_INSTRUCTION),
        )


def _encode_deltas(addresses):
    """Zigzag-varint encode previous-address deltas (RPTRACE2 body).

    All arithmetic wraps at 64 bits, so address extremes whose deltas
    overflow int64 still round-trip exactly.
    """
    if not len(addresses):
        return b""
    addrs = numpy.frombuffer(addresses.tobytes(), dtype=numpy.int64)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        addrs = addrs.byteswap()
    deltas = numpy.diff(addrs, prepend=addrs.dtype.type(0))
    zig = ((deltas << 1) ^ (deltas >> 63)).astype(numpy.uint64)
    # Varint width of each value: one byte per started 7-bit group.
    widths = numpy.ones(len(zig), dtype=numpy.int64)
    for bits in range(7, 70, 7):
        widths += zig >= numpy.uint64(1) << numpy.uint64(bits)
    out = numpy.zeros(int(widths.sum()), dtype=numpy.uint8)
    starts = numpy.cumsum(widths) - widths
    for k in range(int(widths.max())):
        mask = widths > k
        group = (zig[mask] >> numpy.uint64(7 * k)) & numpy.uint64(0x7F)
        cont = (widths[mask] > k + 1).astype(numpy.uint8) << 7
        out[starts[mask] + k] = group.astype(numpy.uint8) | cont
    return out.tobytes()


def _decode_deltas(payload, count):
    """Decode an RPTRACE2 varint body into an ``array('q')``.

    Raises :class:`ValueError` unless the payload holds exactly
    ``count`` well-formed varints.
    """
    if not count:
        if payload:
            raise ValueError("corrupt trace: trailing bytes after the "
                             "varint stream")
        return array("q")
    data = numpy.frombuffer(bytes(payload), dtype=numpy.uint8)
    ends = numpy.flatnonzero(data < 0x80)
    if len(ends) != count or (len(data) and ends[-1] != len(data) - 1):
        raise ValueError("corrupt trace: varint stream does not hold "
                         "the promised event count")
    starts = numpy.empty(count, dtype=numpy.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts + 1
    if int(widths.max()) > 10:
        raise ValueError("corrupt trace: varint wider than 64 bits")
    zig = numpy.zeros(count, dtype=numpy.uint64)
    for k in range(int(widths.max())):
        mask = widths > k
        zig[mask] |= (
            (data[starts[mask] + k] & numpy.uint64(0x7F))
            << numpy.uint64(7 * k)
        )
    deltas = (zig >> numpy.uint64(1)).astype(numpy.int64) ^ -(
        (zig & numpy.uint64(1)).astype(numpy.int64)
    )
    addrs = numpy.cumsum(deltas, dtype=numpy.int64)
    out = array("q")
    out.frombytes(addrs.tobytes())  # native order on both sides
    return out


def _checked_flags(flag_bytes):
    """``flag_bytes``, once no byte is found to carry an unknown origin."""
    bad = flag_bytes.translate(None, _VALID_FLAG_BYTES)
    if bad:
        code = (bad[0] & ORIGIN_MASK) >> ORIGIN_SHIFT
        raise ValueError("corrupt trace: flag byte 0x{:02x} has unknown "
                         "origin code {}".format(bad[0], code))
    return flag_bytes


class TraceBuffer:
    """Parallel-array storage for a data-reference trace.

    ``max_events`` caps the buffer's growth; exceeding it raises
    :class:`ResourceExhausted` (``None`` disables the cap entirely).
    """

    def __init__(self, max_events=DEFAULT_MAX_EVENTS):
        self.addresses = array("q")
        self.flags = array("B")
        self.max_events = max_events
        self._events = None
        self._columns = None
        self._memo = None

    def append(self, address, flags):
        if self.max_events is not None and len(self.addresses) >= self.max_events:
            raise ResourceExhausted(
                "trace buffer exceeded {} events "
                "(runaway reference stream?)".format(self.max_events)
            )
        if (
            self._events is not None
            or self._columns is not None
            or self._memo is not None
        ):
            self.drop_memos()
        self.addresses.append(address)
        self.flags.append(flags)

    def drop_memos(self):
        """Forget the decoded events, the columns and the memos."""
        self._events = None
        self._columns = None
        self._memo = None

    def direct_appends(self):
        """``(addresses, flags, limit)`` for a writer that inlines
        :meth:`append`.

        While ``len(addresses) < limit`` such a writer may append one
        event straight to the two arrays; at the limit it calls
        :meth:`append`, which holds the cap's check and message.  It
        skips :meth:`append`'s invalidation, so it calls
        :meth:`drop_memos` before its first event (the VM's recording
        handlers do, at the start of every run).
        """
        limit = sys.maxsize if self.max_events is None else self.max_events
        return self.addresses, self.flags, limit

    def __len__(self):
        return len(self.addresses)

    def __iter__(self):
        """Yield packed ``(address, flags)`` pairs."""
        return zip(self.addresses, self.flags)

    def events(self):
        """The unpacked :class:`TraceEvent` list.

        Decoded once and cached — repeated consumers (fuzzer
        cross-checks, cross-validation audits) iterate the same tuple.
        :meth:`append` invalidates the cache.
        """
        if self._events is None:
            self._events = tuple(
                TraceEvent.from_packed(address, flags)
                for address, flags in self
            )
        return self._events

    def to_columns(self):
        """The packed stream as flat ``(addresses, flags)`` columns.

        Returns NumPy int64/uint8 arrays.  The result is cached (and
        invalidated by :meth:`append`); callers must treat it as
        read-only — the replay engines and the stack-distance profiler
        all share one decode.
        """
        if self._columns is None:
            # tobytes() detaches the columns from the live arrays:
            # exporting the arrays' own buffers would make a later
            # append raise BufferError while a caller held them.
            self._columns = (
                numpy.frombuffer(self.addresses.tobytes(), dtype=numpy.int64),
                numpy.frombuffer(self.flags.tobytes(), dtype=numpy.uint8),
            )
        return self._columns

    def set_partition(self, num_sets, line_words=1):
        """A stable argsort of the trace by cache-set index.

        Returns a NumPy int64 permutation (:func:`set_order`) that
        groups events set-major (all of set 0's events in time order,
        then set 1's, ...).  The sort key is
        ``(address // line_words) % num_sets`` — the set
        index every replay engine derives — so one partition is shared
        by the stack-distance profiler's run collapse and the
        vectorized set-major kernels for every flavor of the same
        geometry.
        Cached per ``(num_sets, line_words)`` and invalidated by
        :meth:`append`; callers must treat the array as read-only.
        """
        def build():
            addresses, _ = self.to_columns()
            blocks = addresses if line_words == 1 else addresses // line_words
            return set_order(blocks, num_sets)

        return self.memoized(
            ("set_partition", int(num_sets), int(line_words)), build
        )

    def memoized(self, key, build):
        """``build()``, computed once per ``key`` until :meth:`append`.

        The cache behind :meth:`set_partition` and the hierarchy
        layer's per-level outcomes
        (:func:`repro.cache.hierarchy.level_outcome`); callers must
        treat the value as read-only.
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- serialization -------------------------------------------------

    def to_bytes(self):
        """Serialize to the RPTRACE2 on-disk format."""
        return b"".join(
            [
                _HEADER.pack(TRACE_MAGIC, TRACE_FORMAT_VERSION, len(self)),
                _encode_deltas(self.addresses),
                self.flags.tobytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, data, max_events=DEFAULT_MAX_EVENTS):
        """Rebuild a buffer serialized by :meth:`to_bytes`.

        The format is detected from the magic, so both RPTRACE2 and
        legacy RPTRACE1 payloads load.  Raises :class:`ValueError` on
        a truncated, corrupted, or wrong-version payload rather than
        returning a bad trace, and :class:`ResourceExhausted` (as
        :meth:`append` does) past ``max_events``.
        """
        if len(data) < _HEADER.size:
            raise ValueError("trace data shorter than its header")
        magic, version, count = _HEADER.unpack_from(data)
        if magic == TRACE_MAGIC:
            expected_version = TRACE_FORMAT_VERSION
        elif magic == TRACE_MAGIC_V1:
            expected_version = TRACE_FORMAT_VERSION_V1
        else:
            raise ValueError("not a serialized trace (bad magic)")
        if version != expected_version:
            raise ValueError(
                "trace format version {} unsupported (expected {})".format(
                    version, expected_version
                )
            )
        if max_events is not None and count > max_events:
            raise ResourceExhausted("trace payload holds {} events, over "
                                    "the cap of {}".format(count, max_events))

        buffer = cls(max_events=max_events)
        if version == TRACE_FORMAT_VERSION_V1:
            expected = _HEADER.size + count * 9
            if len(data) != expected:
                raise ValueError(
                    "trace payload is {} bytes, header promises {}".format(
                        len(data), expected
                    )
                )
            split = _HEADER.size + count * 8
            buffer.addresses.frombytes(data[_HEADER.size:split])
            if sys.byteorder != "little":
                buffer.addresses.byteswap()
            buffer.flags.frombytes(_checked_flags(data[split:]))
            return buffer

        payload = data[_HEADER.size:]
        if len(payload) < count:
            raise ValueError(
                "trace payload is {} bytes, too short for {} flag "
                "bytes".format(len(payload), count)
            )
        split = len(payload) - count
        buffer.addresses = _decode_deltas(payload[:split], count)
        buffer.flags.frombytes(_checked_flags(payload[split:]))
        return buffer

    def save(self, path):
        """Write the serialized trace to ``path`` (see :meth:`to_bytes`)."""
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path, max_events=DEFAULT_MAX_EVENTS):
        """Read a trace written by :meth:`save`."""
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read(), max_events=max_events)

    def summary(self):
        """Counts used by the dynamic-classification experiment.

        Instruction-fetch events (combined traces) are reported under
        ``instructions`` and excluded from every data-reference count.
        Every count is read off one 256-bin histogram of the flag bytes.
        """
        data = [
            (flags, count) for flags, count in Counter(self.flags).items()
            if not flags & FLAG_INSTRUCTION
        ]

        def counted(bit):
            return sum(count for flags, count in data if flags & bit)

        by_origin = {origin.value: 0 for origin in _ORIGIN_CODES}
        for flags, count in data:
            by_origin[origin_from_flags(flags).value] += count
        total = sum(count for _flags, count in data)
        writes = counted(FLAG_WRITE)
        ambiguous = counted(FLAG_AMBIGUOUS)
        return {
            "total": total,
            "reads": total - writes,
            "writes": writes,
            "bypassed": counted(FLAG_BYPASS),
            "killed": counted(FLAG_KILL),
            "ambiguous": ambiguous,
            "unambiguous": total - ambiguous,
            "instructions": len(self) - total,
            "by_origin": by_origin,
        }
