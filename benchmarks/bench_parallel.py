"""The engine acceptance benchmark: serial sweep vs the
compile-once/trace-once engine, with the timing record written to
``BENCH_parallel.json``.

The sweep is the full geometry battery — every benchmark at four cache
sizes — and the claim is twofold: the engine's results are
bit-identical to the serial path, and the warm-artifact-cache engine
run beats the serial run by at least 2x wall-clock.  The floor used
to be 3x; it dropped when the serial baseline's per-config replay
gained the same run-collapse fronting as the sweep engines, so the
engine's remaining edge is the amortized compile+VM work and the
shared single-decode replay, not a slower opponent.

When the environment cannot support the claim — fewer than two
effective CPUs for the ``jobs=4`` fan-out — the benchmark *skips* and
records the reason in ``BENCH_parallel.json`` instead of failing.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q
"""

import json
import os
import platform
import tempfile
import time

import pytest

from repro.cache.cache import CacheConfig
from repro.evalharness.artifacts import ArtifactCache
from repro.evalharness.experiment import evaluate_trace_multi, run_benchmark
from repro.evalharness.figure5 import figure5_options
from repro.evalharness.parallel import EvalUnit, run_units
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.unified.pipeline import compile_source
from repro.vm.memory import RecordingMemory

SWEEP_SIZES = (64, 128, 256, 512)

#: Recalibrated from 3.0 when the serial baseline's replay gained the
#: same run-collapse fronting as the engines (a faster opponent, not a
#: slower engine): measured 2.6x on a 1-CPU container, floored at 2x
#: for wall-clock noise headroom.
WARM_SPEEDUP_FLOOR = 2.0

GEOMETRIES = tuple(
    CacheConfig(size_words=size, line_words=1, associativity=4, policy="lru")
    for size in SWEEP_SIZES
)

RECORD_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_parallel.json",
)


def _effective_cpus():
    """CPUs this process may actually run on, where the OS can say.

    ``os.cpu_count()`` reports the machine; a container or cpuset can
    pin the process to fewer, which is what the engine's ``jobs``
    setting competes against.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return None


def record_skip(path, reason):
    """Degrade gracefully: write the skip reason where the timing
    record would have gone, then skip the test."""
    record = {
        "skipped": reason,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    pytest.skip(reason)


def check_environment(path):
    """Skip (with a recorded reason) when the floor cannot be fair.

    ``REPRO_BENCH_FORCE=1`` overrides the guard: the warm-engine
    speedup comes mostly from artifact-cache hits (compile+VM skipped
    outright), so a pinned box can still produce a meaningful record
    when the operator asks for one.
    """
    if os.environ.get("REPRO_BENCH_FORCE"):
        return
    cpus = _effective_cpus()
    if cpus is not None and cpus < 2:
        record_skip(path, "only {} effective CPU(s): the jobs=4 "
                          "fan-out cannot beat the serial sweep "
                          "without parallel hardware".format(cpus))


def staged_timings(options):
    """One serial compile → trace → replay pass, timed per stage.

    Each benchmark is compiled once, traced once, and its trace scored
    against every geometry once — the minimum work the engine's
    artifact cache amortizes — so the record shows where the serial
    sweep's time actually goes.
    """
    compile_started = time.perf_counter()
    programs = {
        name: compile_source(get_benchmark(name).source, options)
        for name in BENCHMARK_NAMES
    }
    compile_seconds = time.perf_counter() - compile_started

    trace_started = time.perf_counter()
    traced = {}
    for name, program in programs.items():
        memory = RecordingMemory()
        result = program.run(memory=memory)
        traced[name] = (memory.buffer, result)
    trace_seconds = time.perf_counter() - trace_started

    replay_started = time.perf_counter()
    for name, (trace, result) in traced.items():
        evaluate_trace_multi(
            name, programs[name], trace, result.output, result.steps,
            GEOMETRIES,
        )
    replay_seconds = time.perf_counter() - replay_started
    return {
        "compile_seconds": round(compile_seconds, 3),
        "trace_seconds": round(trace_seconds, 3),
        "replay_seconds": round(replay_seconds, 3),
    }


def canonical(result):
    return {
        "unified": result.unified_stats.as_dict(),
        "conventional": result.conventional_stats.as_dict(),
        "dynamic": dict(result.dynamic),
        "steps": result.steps,
        "static_bypass_checked": result.static_bypass_checked,
    }


def test_engine_speedup_and_equivalence():
    check_environment(RECORD_PATH)
    options = figure5_options()

    serial_started = time.perf_counter()
    serial = {}
    for name in BENCHMARK_NAMES:
        for geometry in GEOMETRIES:
            serial[(name, geometry.size_words)] = run_benchmark(
                name, options=options, cache_config=geometry
            )
    serial_seconds = time.perf_counter() - serial_started

    units = [
        EvalUnit(name=name, options=options, cache_configs=GEOMETRIES)
        for name in BENCHMARK_NAMES
    ]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)

        cold_started = time.perf_counter()
        cold = run_units(units, jobs=4, artifact_cache=cache)
        cold_seconds = time.perf_counter() - cold_started

        warm_started = time.perf_counter()
        warm = run_units(units, jobs=4, artifact_cache=cache)
        warm_seconds = time.perf_counter() - warm_started

    for results in (cold, warm):
        for name, unit_results in zip(BENCHMARK_NAMES, results):
            for geometry, result in zip(GEOMETRIES, unit_results):
                expect = serial[(name, geometry.size_words)]
                assert canonical(result) == canonical(expect), (
                    name, geometry.size_words,
                )

    warm_speedup = serial_seconds / warm_seconds
    cold_speedup = serial_seconds / cold_seconds
    record = {
        "benchmarks": list(BENCHMARK_NAMES),
        "geometry_sizes": list(SWEEP_SIZES),
        "jobs": 4,
        "serial_seconds": round(serial_seconds, 3),
        "cold_engine_seconds": round(cold_seconds, 3),
        "warm_engine_seconds": round(warm_seconds, 3),
        "cold_speedup": round(cold_speedup, 2),
        "warm_speedup": round(warm_speedup, 2),
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
        "stages": staged_timings(options),
    }
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        "warm engine speedup {:.2f}x is below the {}x floor "
        "(serial {:.2f}s, warm {:.2f}s)".format(
            warm_speedup, WARM_SPEEDUP_FLOOR, serial_seconds, warm_seconds
        )
    )
