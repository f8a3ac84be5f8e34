"""The one-pass sweep acceptance benchmark, recorded in
``BENCH_onepass.json``.

Five claims, all asserted live:

* **LRU replay**: on the 6-benchmark × 4-geometry associativity
  ladder (64 sets fixed, ways 1/2/4/8 — the canonical Mattson shape,
  every geometry answered by the same per-set distance histograms),
  the sweep dispatcher
  (:func:`repro.cache.stackdist.replay_trace_sweep`, which scores the
  ladder on the set-major kernel of :mod:`repro.cache.vectorized`)
  beats the reference per-event loop
  (:func:`repro.cache.replay.replay_trace`, one spec at a time) by at
  least **9.62x** single-core (min-of-5 per side, interleaved), with
  bit-identical statistics.
* **FIFO / MIN sweeps**: the same ladder under FIFO and Belady MIN
  routes through the single-pass lane walks
  (:func:`repro.cache.semantics.fifo_sweep` /
  :func:`repro.cache.semantics.min_sweep`), at least **1.56x** and
  **2.43x** over the reference per-event loop (min-of-5 per side,
  interleaved), bit-identical.
* **Trace generation**: the closure-compiled VM hot loop
  (:class:`repro.vm.machine.Machine`) produces the recorded reference
  traces at least **1.5x** faster than the per-step dispatch reference
  interpreter (:class:`repro.vm.reference.ReferenceMachine`) it
  replaced — the cold-path cost when the artifact cache is empty.
* **Superinstruction VM**: the fused-run handler table beats the same
  Machine with fusion disabled by at least **1.3x** under aggressive
  promotion (locals in registers: long register runs) and at least
  **1.35x** under no promotion (every scalar in memory: runs of loads
  and stores), min-of-5 per side, interleaved, with identical output,
  step counts and traces.

The record also carries the RPTRACE2 delta-codec compression ratio
over the same traces.  When the scheduler grants fewer than two CPUs
for stable wall-clock ratios the benchmark *skips* and records the
reason instead of failing.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_onepass.py -q
"""

import json
import os
import platform
import struct
import time
from dataclasses import replace

import numpy
import pytest

from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.experiment import conventional_config
from repro.evalharness.figure5 import figure5_options
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.unified.pipeline import CompilationOptions, compile_source
from repro.vm.machine import Machine
from repro.vm.memory import RecordingMemory
from repro.vm.reference import ReferenceMachine

#: The associativity ladder: 64 sets at every rung, so one profiling
#: pass covers the whole column of geometries.
SWEEP_WAYS = (1, 2, 4, 8)
NUM_SETS = 64

GEOMETRIES = tuple(
    CacheConfig(
        size_words=NUM_SETS * ways,
        line_words=1,
        associativity=ways,
        policy="lru",
    )
    for ways in SWEEP_WAYS
)

RECORD_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_onepass.json",
)

#: The LRU, FIFO and MIN floors are held against the reference loop.
#: The FIFO and MIN floors were their earlier floors against the retired
#: multi-configuration replay (2.0, 2.0) times the reference/multi-replay
#: time ratio on the same ladder (1.11, 1.51), rounded up: 2.3, 3.1.  The
#: LRU floor was the product of the two it replaced: the scalar profiler
#: over the reference loop (5.8) and the kernel over the scalar
#: profiler (2.0): 11.6.  When the reference loop itself got faster
#: (one bound transfer function per flavor), each floor was re-based
#: the same way, to keep every engine's absolute time bound: times the
#: new/old reference time on its own ladder (LRU 0.829, FIFO 0.776, MIN
#: 0.783: the best of five alternating min-of-5 timings per side).
#: When every policy moved onto one line store, the FIFO reference (its
#: victim now the first line of the set's dict) moved by 0.878 and its
#: floor was re-based again; LRU (0.998) and MIN (0.988) moved by less
#: than the timings' spread, and their floors stayed.
REPLAY_SPEEDUP_FLOOR = 9.62
FIFO_SPEEDUP_FLOOR = 1.56
MIN_SPEEDUP_FLOOR = 2.43
VM_SPEEDUP_FLOOR = 1.5
#: Fused over unfused closure VM, per promotion level.  The no-promotion
#: floor leaves a fifth of margin below the lowest of the runs
#: docs/PERFORMANCE.md records.
SUPERINSTRUCTION_SPEEDUP_FLOORS = {"aggressive": 1.3, "none": 1.35}

#: min-of-N repetitions for the wall-clock ratios that are asserted
#: against tight floors; the minimum is robust against scheduler noise
#: in a way a single sample on a busy box is not.
TIMING_REPS = 5

#: The legacy RPTRACE1 layout, which the codec ratio is measured
#: against: the shared header, then an int64 address and a flag byte
#: per event.
V1_HEADER_BYTES = struct.calcsize("<8sIQ")
V1_EVENT_BYTES = 9


class _UnfusedMachine(Machine):
    """The closure VM with superinstruction fusion disabled — the
    baseline side of the fused-vs-unfused ratio.  Its Load/Store
    handlers call each site's ``bind_site`` pair, while the fused
    bodies inline the recording memory, so the ratio measures that
    inlining as well as the saved dispatches."""

    _enable_fusion = False


def record_skip(path, reason):
    """Degrade gracefully: write the skip reason where the timing
    record would have gone, then skip the test."""
    record = {
        "skipped": reason,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective_cpus(),
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    pytest.skip(reason)


def effective_cpus():
    """CPUs this process may actually run on, where the OS can say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count()


def check_environment(path):
    """Skip (with a recorded reason) when the floors cannot be fair.

    ``REPRO_BENCH_FORCE=1`` overrides the guard — the ratios here are
    single-core algorithmic speedups, so a pinned box can still
    produce a valid record when the operator asks for one.
    """
    if os.environ.get("REPRO_BENCH_FORCE"):
        return
    cpus = effective_cpus()
    if cpus is not None and cpus < 2:
        record_skip(path, "only {} effective CPU(s): wall-clock "
                          "ratios are too noisy to assert "
                          "floors".format(cpus))


def _specs():
    """Unified + conventional per geometry, the harness sweep shape."""
    specs = []
    for geometry in GEOMETRIES:
        specs.append(geometry)
        specs.append(conventional_config(geometry))
    return specs


def _policy_specs(policy):
    """The same ladder under another replacement policy."""
    return [replace(geometry, policy=policy) for geometry in GEOMETRIES]


def _min_of(reps, *fns):
    """Best wall clock of each of ``fns`` over ``reps`` rounds, the
    functions interleaved within a round so a slow spell of a shared
    host hits every side."""
    best = [None] * len(fns)
    for _ in range(reps):
        for slot, fn in enumerate(fns):
            started = time.perf_counter()
            fn()
            seconds = time.perf_counter() - started
            if best[slot] is None or seconds < best[slot]:
                best[slot] = seconds
    return best


def _trace_with(vm_class, program):
    memory = RecordingMemory()
    vm = vm_class(program.module, memory=memory,
                  machine=program.options.machine)
    started = time.perf_counter()
    result = vm.run()
    seconds = time.perf_counter() - started
    return memory.buffer, result, seconds


def test_onepass_speedup_and_equivalence():
    check_environment(RECORD_PATH)
    options = figure5_options()
    programs = {
        name: compile_source(get_benchmark(name).source, options)
        for name in BENCHMARK_NAMES
    }

    # -- cold path: VM trace generation, closure loop vs reference ----
    traces = {}
    vm_seconds = 0.0
    reference_vm_seconds = 0.0
    for name, program in programs.items():
        trace, result, seconds = _trace_with(Machine, program)
        traces[name] = trace
        vm_seconds += seconds
        ref_trace, ref_result, ref_seconds = _trace_with(
            ReferenceMachine, program
        )
        reference_vm_seconds += ref_seconds
        assert ref_result.output == result.output
        assert ref_result.steps == result.steps
        assert list(ref_trace) == list(trace)

    # -- warm path: LRU ladder, the dispatcher vs the reference loop --
    specs = _specs()

    def _reference_all():
        return {
            name: [replay_trace(trace, spec) for spec in specs]
            for name, trace in traces.items()
        }

    def _sweep_all():
        return {
            name: replay_trace_sweep(trace, specs)
            for name, trace in traces.items()
        }

    reference = _reference_all()
    swept = _sweep_all()
    for name in BENCHMARK_NAMES:
        for spec, want, got in zip(specs, reference[name], swept[name]):
            assert got.as_dict() == want.as_dict(), (name, spec)

    reference_seconds_lru, sweep_seconds = _min_of(
        TIMING_REPS, _reference_all, _sweep_all,
    )

    # -- superinstruction VM: fused run handlers vs per-op closures ---
    superinstruction = {}
    for promotion, floor in SUPERINSTRUCTION_SPEEDUP_FLOORS.items():
        promoted = CompilationOptions(scheme="unified", promotion=promotion)
        fused_seconds = 0.0
        unfused_seconds = 0.0
        for name in BENCHMARK_NAMES:
            program = compile_source(get_benchmark(name).source, promoted)
            fused_trace, fused_result, _ = _trace_with(Machine, program)
            plain_trace, plain_result, _ = _trace_with(
                _UnfusedMachine, program
            )
            assert plain_result.output == fused_result.output, name
            assert plain_result.steps == fused_result.steps, name
            assert list(plain_trace) == list(fused_trace), name
            unfused_best, fused_best = _min_of(
                TIMING_REPS,
                lambda program=program: _trace_with(
                    _UnfusedMachine, program
                ),
                lambda program=program: _trace_with(Machine, program),
            )
            unfused_seconds += unfused_best
            fused_seconds += fused_best
        superinstruction[promotion] = {
            "unfused_seconds": round(unfused_seconds, 3),
            "fused_seconds": round(fused_seconds, 3),
            "speedup": round(unfused_seconds / fused_seconds, 2),
            "floor": floor,
            "timing_reps": TIMING_REPS,
        }

    # -- FIFO / MIN ladders: lane walks vs the reference loop ----------
    # Min-of-N on both sides: one shot of either swings by 15-20 % on a
    # shared host.
    policy_speedups = {}
    for policy in ("fifo", "min"):
        policy_specs = _policy_specs(policy)
        for name, trace in traces.items():
            stacked = replay_trace_sweep(trace, policy_specs)
            for spec, got in zip(policy_specs, stacked):
                want = replay_trace(trace, spec)
                assert got.as_dict() == want.as_dict(), (policy, name, spec)
        ladder_reference_seconds, stacked_seconds = _min_of(
            TIMING_REPS,
            lambda: [
                [replay_trace(trace, spec) for spec in policy_specs]
                for trace in traces.values()
            ],
            lambda: [
                replay_trace_sweep(trace, policy_specs)
                for trace in traces.values()
            ],
        )
        policy_speedups[policy] = {
            "reference_seconds": round(ladder_reference_seconds, 3),
            "sweep_seconds": round(stacked_seconds, 3),
            "speedup": round(ladder_reference_seconds / stacked_seconds, 2),
            "timing_reps": TIMING_REPS,
        }

    # -- trace codec: RPTRACE2 delta varints vs verbatim RPTRACE1 -----
    v1_bytes = sum(
        V1_HEADER_BYTES + V1_EVENT_BYTES * len(t) for t in traces.values()
    )
    v2_bytes = sum(len(t.to_bytes()) for t in traces.values())

    replay_speedup = reference_seconds_lru / sweep_seconds
    vm_speedup = reference_vm_seconds / vm_seconds
    record = {
        "benchmarks": list(BENCHMARK_NAMES),
        "num_sets": NUM_SETS,
        "ways": list(SWEEP_WAYS),
        "geometry_sizes": [g.size_words for g in GEOMETRIES],
        "specs_per_trace": len(specs),
        "reference_replay_seconds": round(reference_seconds_lru, 3),
        "sweep_seconds": round(sweep_seconds, 3),
        "replay_speedup": round(replay_speedup, 2),
        "replay_timing_reps": TIMING_REPS,
        "reference_vm_seconds": round(reference_vm_seconds, 3),
        "closure_vm_seconds": round(vm_seconds, 3),
        "vm_speedup": round(vm_speedup, 2),
        "superinstruction_vm": superinstruction,
        "fifo_sweep": policy_speedups["fifo"],
        "min_sweep": policy_speedups["min"],
        "trace_bytes_v1": v1_bytes,
        "trace_bytes_v2": v2_bytes,
        "trace_v2_compression": round(v1_bytes / v2_bytes, 2),
        "replay_speedup_floor": REPLAY_SPEEDUP_FLOOR,
        "fifo_speedup_floor": FIFO_SPEEDUP_FLOOR,
        "min_speedup_floor": MIN_SPEEDUP_FLOOR,
        "vm_speedup_floor": VM_SPEEDUP_FLOOR,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    try:
        record["effective_cpus"] = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        record["effective_cpus"] = None
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert replay_speedup >= REPLAY_SPEEDUP_FLOOR, (
        "LRU sweep speedup {:.2f}x is below the {}x floor "
        "(reference {:.2f}s, sweep {:.2f}s)".format(
            replay_speedup, REPLAY_SPEEDUP_FLOOR,
            reference_seconds_lru, sweep_seconds,
        )
    )
    assert vm_speedup >= VM_SPEEDUP_FLOOR, (
        "closure VM speedup {:.2f}x is below the {}x floor "
        "(reference {:.2f}s, closure {:.2f}s)".format(
            vm_speedup, VM_SPEEDUP_FLOOR,
            reference_vm_seconds, vm_seconds,
        )
    )
    for promotion, timing in superinstruction.items():
        assert timing["speedup"] >= timing["floor"], (
            "superinstruction VM speedup {:.2f}x under promotion {} is "
            "below the {}x floor (unfused {:.2f}s, fused {:.2f}s)".format(
                timing["speedup"], promotion, timing["floor"],
                timing["unfused_seconds"], timing["fused_seconds"],
            )
        )
    for policy, floor in (("fifo", FIFO_SPEEDUP_FLOOR),
                          ("min", MIN_SPEEDUP_FLOOR)):
        timing = policy_speedups[policy]
        assert timing["speedup"] >= floor, (
            "{} lane sweep speedup {:.2f}x is below the {}x floor "
            "(reference {:.2f}s, sweep {:.2f}s)".format(
                policy, timing["speedup"], floor,
                timing["reference_seconds"], timing["sweep_seconds"],
            )
        )
