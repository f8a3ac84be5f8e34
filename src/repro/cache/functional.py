"""A data-carrying cache: proves the unified protocol is transparent.

The performance simulator (:mod:`repro.cache.cache`) tracks tags only.
This twin drives the very same transfer function
(:class:`repro.cache.semantics.UnifiedCache` in data mode, which
actually stores each word in its line), so running a program against
it and comparing every output (and final memory) with a flat-memory
run demonstrates that bypass bits, kill bits, coherence probes and
dead-dirty drops never change program semantics — the property the
paper's hardware depends on.

Restricted to line size one, like the paper's data cache.
"""

from repro.cache.cache import CacheConfig
from repro.cache.semantics import ENTRY_DIRTY, ENTRY_VALUE, UnifiedCache
from repro.vm.memory import MemorySystem


class DataCachedMemory(MemorySystem):
    """MemorySystem implementing the unified protocol *with data*.

    ``policy`` accepts a prebuilt :class:`ReplacementPolicy` for the
    trace-column-driven predictors (SHiP, Hawkeye): record the
    program's trace once, build the policy from its columns, and rerun
    the program against this twin — the access sequence is identical,
    so the internal event counter lines the predictor's columns up
    with the live accesses.
    """

    def __init__(self, config=None, policy=None, **kwargs):
        if config is None:
            config = CacheConfig(**kwargs)
        if config.line_words != 1:
            raise ValueError("the functional model requires line size 1")
        self.config = config
        self._core = UnifiedCache(config, policy=policy, data=True)
        self._index = 0

    @property
    def stats(self):
        return self._core.stats

    @property
    def main(self):
        return self._core.main

    # ------------------------------------------------------------------
    # Initialisation helpers (not traced).
    # ------------------------------------------------------------------

    def poke(self, address, value):
        self._core.main[address] = value

    def peek(self, address):
        """Coherent view: the cached copy wins over main memory."""
        entry = self._core.policy.resident.get(address)
        if entry is not None:
            return entry[ENTRY_VALUE]
        return self._core.main.get(address, 0)

    # ------------------------------------------------------------------

    def read(self, address, ref):
        core = self._core
        index = self._index
        self._index = index + 1
        core.access(address, False, ref.bypass, ref.kill, index=index)
        return core.value

    def write(self, address, value, ref):
        index = self._index
        self._index = index + 1
        self._core.access(
            address, True, ref.bypass, ref.kill, value=value, index=index
        )

    def flush(self):
        """Write every dirty line back; used before final memory checks.
        Lines stay resident."""
        main = self._core.main
        for block, entry in self._core.policy.entries():
            if entry[ENTRY_DIRTY]:
                main[block] = entry[ENTRY_VALUE]
                entry[ENTRY_DIRTY] = False
