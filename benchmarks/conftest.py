"""Shared infrastructure for the pytest-benchmark harness.

Compiled programs and reference traces are cached per configuration so
a full ``pytest benchmarks/ --benchmark-only`` run compiles and traces
each workload once and spends its time on what the benches measure.
"""

import json
import os
import platform
import time

import pytest

from repro.evalharness.figure5 import figure5_options
from repro.programs import get_benchmark
from repro.unified.pipeline import CompilationOptions, compile_source
from repro.vm.memory import RecordingMemory

_trace_cache = {}
_program_cache = {}


def options_key(options):
    return (
        str(options.scheme),
        str(options.promotion),
        options.promotion_budget,
        options.kill_bits,
        options.spill_to_cache,
    )


def compiled_benchmark(name, options=None):
    """Compile one named benchmark (cached)."""
    options = options or figure5_options()
    key = (name, options_key(options))
    if key not in _program_cache:
        bench = get_benchmark(name)
        _program_cache[key] = (
            bench,
            compile_source(bench.source, options),
        )
    return _program_cache[key]


def traced_benchmark(name, options=None):
    """Compile + execute once; returns (bench, program, trace)."""
    options = options or figure5_options()
    key = (name, options_key(options))
    if key not in _trace_cache:
        bench, program = compiled_benchmark(name, options)
        memory = RecordingMemory()
        result = program.run(memory=memory)
        assert tuple(result.output) == bench.expected_output
        _trace_cache[key] = (bench, program, memory.buffer)
    return _trace_cache[key]


#: Bench modules whose call-phase timings get their own JSON record:
#: {nodeid substring: (accumulator, output filename)}.
_timing_sinks = {
    "bench_robustness": ([], "BENCH_robustness.json"),
    "bench_staticcheck": ([], "BENCH_staticcheck.json"),
    "bench_policyzoo": ([], "BENCH_policyzoo.json"),
    "bench_multicore": ([], "BENCH_multicore.json"),
}


def pytest_runtest_logreport(report):
    """Collect call-phase durations of the tracked bench modules."""
    if report.when != "call":
        return
    for marker, (timings, _path) in _timing_sinks.items():
        if marker in report.nodeid:
            entry = {
                "test": report.nodeid.split("::")[-1],
                "seconds": round(report.duration, 4),
                "outcome": report.outcome,
            }
            # Benches publish derived metrics (e.g. the exact pass's
            # step count) via ``record_property``.
            for name, value in report.user_properties:
                entry[name] = value
            timings.append(entry)


def pytest_sessionfinish(session):
    """Emit the per-module BENCH_*.json records so each layer's cost
    trajectory accumulates alongside the other benchmark records.

    Each record says whether pytest-benchmark timed its ``benchmark``
    fixtures: a bench's call phase includes those rounds when it did,
    so the same tree reads several times slower with it on.  The flag
    is the mode the plugin actually ran in, which ``--benchmark-enable``
    and xdist change as well as ``--benchmark-disable``.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    disabled = bench_session is None or bench_session.disabled
    for timings, filename in _timing_sinks.values():
        if not timings:
            continue
        record = {
            "generated_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "benchmark_disabled": disabled,
            "timings": timings,
        }
        out_path = os.path.join(str(session.config.rootdir), filename)
        with open(out_path, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")


@pytest.fixture
def figure5_opts():
    return figure5_options()


@pytest.fixture
def default_options():
    return CompilationOptions()
