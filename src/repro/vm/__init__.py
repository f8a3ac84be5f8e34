"""Register-machine interpreter and memory-reference tracing.

The :class:`Machine` executes fully allocated IR (physical registers
only) and drives every data access through a pluggable
:class:`MemorySystem`.  Swapping the memory system is how the harness
obtains its different views of the same execution:

* :class:`FlatMemory` — plain words, fastest, used as the functional
  oracle;
* :class:`RecordingMemory` — flat memory plus a compact
  :class:`TraceBuffer` of every data reference for offline cache
  simulation (including Belady MIN, which needs the future);
* :class:`repro.cache.functional.DataCachedMemory` — a cache that
  actually holds the data, used to *prove* the unified protocol
  (bypass + kill bits) never changes program results.
"""

from repro.vm.memory import FlatMemory, MemorySystem, RecordingMemory
from repro.vm.machine import ExecutionResult, Machine, run_module
from repro.vm.trace import (
    FLAG_AMBIGUOUS,
    FLAG_BYPASS,
    FLAG_KILL,
    FLAG_WRITE,
    ORIGIN_SHIFT,
    TraceBuffer,
    TraceEvent,
    encode_flags,
    origin_from_flags,
)

__all__ = [
    "Machine",
    "ExecutionResult",
    "run_module",
    "MemorySystem",
    "FlatMemory",
    "RecordingMemory",
    "TraceBuffer",
    "TraceEvent",
    "encode_flags",
    "origin_from_flags",
    "FLAG_WRITE",
    "FLAG_BYPASS",
    "FLAG_KILL",
    "FLAG_AMBIGUOUS",
    "ORIGIN_SHIFT",
]
