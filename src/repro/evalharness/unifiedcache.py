"""Combined instruction + data cache experiment.

The unified model's reference taxonomy (paper Section 4.2, Figure 4)
has three classes: unambiguous data (registers + bypass), ambiguous
data (cache), and **instructions** (cache — "most computers do not
have an execute-register instruction", Section 2.3).  In a combined
I+D cache, the abstract's claim that "cache space is wasted to hold
inaccessible copies of values in registers" has a measurable dual:
bypassing the unambiguous data references frees lines that instruction
words then occupy, so the *instruction* hit rate improves even though
the unified model never touches how instructions are cached.

This module records a combined trace (one event per instruction fetch,
interleaved with the data references it causes) and replays it through
one shared cache, keeping per-class statistics.
"""

from dataclasses import dataclass

from repro.cache.cache import Cache, CacheConfig
from repro.evalharness.artifacts import check_output
from repro.evalharness.figure5 import figure5_options
from repro.programs import get_benchmark
from repro.unified.pipeline import compile_source
from repro.vm.memory import RecordingMemory
from repro.vm.trace import FLAG_INSTRUCTION, IS_BYPASS, IS_KILL, IS_WRITE

#: The bypass/kill decode of a replay that ignores the annotations.
_IGNORED = (False,) * 256


@dataclass
class SplitStats:
    """Hit/miss accounting split by reference class."""

    i_refs: int = 0
    i_hits: int = 0
    d_refs: int = 0
    d_hits: int = 0
    d_bypassed: int = 0

    @property
    def i_hit_rate(self):
        return self.i_hits / self.i_refs if self.i_refs else 0.0

    @property
    def d_hit_rate(self):
        cached = self.d_refs - self.d_bypassed
        return self.d_hits / cached if cached else 0.0


def record_combined_trace(name, paper_scale=False, options=None):
    """Execute one benchmark recording instructions and data together."""
    bench = get_benchmark(name, paper_scale)
    program = compile_source(bench.source, options or figure5_options())
    memory = RecordingMemory()
    buffer = memory.buffer

    def ifetch(address):
        buffer.append(address, FLAG_INSTRUCTION)

    vm = program.machine(memory=memory, instruction_sink=ifetch)
    result = vm.run()
    check_output(name, result.output, bench.expected_output)
    return buffer, program


def replay_combined(trace, config=None, honor_annotations=True, **kwargs):
    """Replay a combined trace through one shared cache.

    Instruction events are plain cached reads; data events carry their
    bypass/kill annotations (ignored when ``honor_annotations`` is
    False, giving the conventional baseline).
    """
    if config is None:
        config = CacheConfig(**kwargs)
    cache = Cache(config)
    split = SplitStats()
    access = cache.access
    bypasses, kills = (
        (IS_BYPASS, IS_KILL) if honor_annotations else (_IGNORED, _IGNORED)
    )
    for address, flags in trace:
        if flags & FLAG_INSTRUCTION:
            split.i_refs += 1
            if access(address, False) == "hit":
                split.i_hits += 1
            continue
        split.d_refs += 1
        outcome = access(address, IS_WRITE[flags], bypasses[flags],
                         kills[flags])
        if outcome == "hit":
            split.d_hits += 1
        elif outcome == "bypass":
            split.d_bypassed += 1
    return split, cache.stats


def unified_cache_comparison(name, size_words=256, associativity=4,
                             paper_scale=False, options=None):
    """Unified-vs-conventional on one shared I+D cache; returns a dict."""
    trace, _program = record_combined_trace(name, paper_scale, options)
    config = CacheConfig(size_words=size_words, associativity=associativity)
    unified, unified_stats = replay_combined(trace, config)
    conventional, conventional_stats = replay_combined(
        trace, config, honor_annotations=False
    )
    return {
        "benchmark": name,
        "size_words": size_words,
        "i_refs": unified.i_refs,
        "d_refs": unified.d_refs,
        "unified_i_hit_rate": unified.i_hit_rate,
        "conventional_i_hit_rate": conventional.i_hit_rate,
        "unified_d_hit_rate": unified.d_hit_rate,
        "conventional_d_hit_rate": conventional.d_hit_rate,
        "unified_bus_words": unified_stats.bus_words,
        "conventional_bus_words": conventional_stats.bus_words,
    }
