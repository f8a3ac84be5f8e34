"""repro — Unified Management of Registers and Cache Using Liveness
and Cache Bypass (Chi & Dietz, PLDI 1989), reproduced in Python.

The package is a complete vertical slice of the paper's system:

* a MiniC compiler frontend (:mod:`repro.lang`) and three-address IR
  (:mod:`repro.ir`);
* the compiler analyses the model requires (:mod:`repro.analysis`):
  liveness, D-U webs, alias sets, memory-value liveness;
* register allocation with spill-to-cache (:mod:`repro.regalloc`);
* the unified model itself (:mod:`repro.unified`): classification,
  the four load/store flavors, bypass and kill bits;
* a tracing register-machine VM (:mod:`repro.vm`);
* cache simulators with the dead-line modification
  (:mod:`repro.cache`): LRU / FIFO / Random / Belady MIN, plus a
  data-carrying twin that proves the protocol functionally transparent;
* the six Stanford benchmarks from the paper (:mod:`repro.programs`)
  and the evaluation harness (:mod:`repro.evalharness`).

Quickstart::

    from repro import compile_source, CompilationOptions
    from repro.evalharness import run_compiled

    program = compile_source(open("prog.minic").read())
    result = run_compiled("prog", program)
    print(result.cache_traffic_reduction)
"""

from repro.unified.pipeline import (
    CompilationOptions,
    CompiledProgram,
    Scheme,
    compile_source,
)
from repro.regalloc.promotion import PromotionLevel
from repro.cache.cache import Cache, CacheConfig
from repro.cache.stats import CacheStats
from repro.vm.machine import ExecutionResult, Machine, run_module
from repro.vm.memory import FlatMemory, RecordingMemory

__version__ = "1.0.0"

__all__ = [
    "compile_source",
    "CompilationOptions",
    "CompiledProgram",
    "Scheme",
    "PromotionLevel",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "Machine",
    "ExecutionResult",
    "run_module",
    "FlatMemory",
    "RecordingMemory",
    "__version__",
]
