"""Memory systems the VM can run against.

A memory system answers word reads and writes, each annotated with the
:class:`~repro.ir.instructions.RefInfo` of the Load/Store that made
it.  The VM never hands it that RefInfo per event: while it builds its
handlers it asks :meth:`MemorySystem.bind_site` for each static site's
pair, and every event of the site then calls the pair with the address
alone.  That is the one way the VM's per-instruction handlers reach
memory, whatever the memory system; only its fused bodies inline an
exact-type :class:`RecordingMemory`.  ``read``/``write`` remain the
per-event entry points of the reference interpreter
(:class:`repro.vm.reference.ReferenceMachine`) and of direct callers.
"""

from repro.vm.trace import TraceBuffer, encode_flags


class MemorySystem:
    """Interface: word reads/writes annotated with the RefInfo."""

    def read(self, address, ref):
        raise NotImplementedError

    def write(self, address, value, ref):
        raise NotImplementedError

    def bind_site(self, ref):
        """``(read_at, write_at)`` for the static site that owns ``ref``.

        ``read_at(address)`` returns the word and
        ``write_at(address, value)`` stores it, with exactly the effects
        of ``read(address, ref)`` and ``write(address, value, ref)``.
        The VM calls this while it builds its handlers, once for each
        handler and fused body the site appears in (jump threading
        repeats an instruction), so an override that compiles the site
        memoizes it per RefInfo.  An override may read the site's
        bypass and kill bits, and anything else it derives from
        ``ref``, there and only there: change ``ref.bypass``/``ref.kill``
        before the machine that runs the program is built, never during
        its run.

        This default closes over ``read``/``write`` with ``ref`` bound,
        so a memory system that implements only those runs one frame
        deeper.  A subclass that changes ``read``/``write`` under an
        override (such as :class:`RecordingMemory`'s) overrides this
        method to match.
        """
        read, write = self.read, self.write

        def read_at(address):
            return read(address, ref)

        def write_at(address, value):
            write(address, value, ref)

        return read_at, write_at


class FlatMemory(MemorySystem):
    """Plain word-addressed memory; the functional oracle."""

    def __init__(self):
        self.words = {}

    def read(self, address, ref):
        return self.words.get(address, 0)

    def write(self, address, value, ref):
        self.words[address] = value

    def poke(self, address, value):
        """Direct initialisation (no RefInfo, not traced)."""
        self.words[address] = value

    def peek(self, address):
        return self.words.get(address, 0)


class RecordingMemory(MemorySystem):
    """Flat memory that records every reference into a TraceBuffer.

    ``max_events`` bounds the freshly created buffer (ignored when an
    explicit ``buffer`` is supplied); see
    :data:`repro.vm.trace.DEFAULT_MAX_EVENTS`.
    """

    def __init__(self, flat=None, buffer=None, max_events=None):
        self.flat = flat if flat is not None else FlatMemory()
        if buffer is None:
            buffer = (
                TraceBuffer(max_events=max_events)
                if max_events is not None
                else TraceBuffer()
            )
        self.buffer = buffer

    def read(self, address, ref):
        self.buffer.append(address, encode_flags(ref, False))
        return self.flat.words.get(address, 0)

    def write(self, address, value, ref):
        self.buffer.append(address, encode_flags(ref, True))
        self.flat.words[address] = value

    def bind_site(self, ref):
        """The site's pair with both flag bytes encoded here, once.

        Each event makes one :meth:`TraceBuffer.append`, which holds
        the event cap's check and message, then touches the word dict.
        Every data event of the VM's per-instruction handlers takes
        this path: all of them on a machine with an
        ``instruction_sink`` (the combined I+D recorder), which builds
        no fused table.
        """
        append = self.buffer.append
        words = self.flat.words
        get = words.get
        read_flags = encode_flags(ref, False)
        write_flags = encode_flags(ref, True)

        def read_at(address):
            append(address, read_flags)
            return get(address, 0)

        def write_at(address, value):
            append(address, write_flags)
            words[address] = value

        return read_at, write_at

    def poke(self, address, value):
        self.flat.poke(address, value)

    def peek(self, address):
        return self.flat.peek(address)
