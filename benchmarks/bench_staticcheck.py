"""Cost of the static-analysis stack, exact refinement included.

The ``--check`` gate runs the must/may analysis plus the exact
refinement pass on every benchmark in CI, so its runtime budget is
part of the contract.  These benches time (a) the refinement pass
alone on top of a ready must/may solution, (b) the full
analyze-and-validate round trip, and (c) the static-only predictor —
and record the refinement's step counts and verdict-tier yield via
``record_property`` so ``BENCH_staticcheck.json`` tracks precision
alongside cost.  The round trip also records its own best of
``TIMING_REPS`` wall clocks: its call-phase duration moves by half
its value from run to run on a shared host, a minimum far less.
"""

import time

import pytest

from repro.cache.cache import CacheConfig
from repro.evalharness.experiment import DEFAULT_CACHE
from repro.programs import BENCHMARK_NAMES
from repro.staticcheck.crossval import cross_validate
from repro.staticcheck.mustmay import analyze_program
from repro.staticcheck.predictor import predict_program
from repro.unified.pipeline import CompilationOptions

from conftest import compiled_benchmark

#: The gate's compilation configuration: promotion off, full memory
#: reference stream (matches ``repro-analyze --check``).
CHECK_OPTIONS = CompilationOptions(scheme="unified", promotion="none")

SMALL_CACHE = CacheConfig(size_words=64, line_words=1, associativity=2,
                          policy="lru")

#: min-of-N repetitions of the round trip's recorded timing.
TIMING_REPS = 5


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_exact_refinement_pass(benchmark, name, record_property):
    """The refinement alone: footprint, routing, focused exploration."""
    _, program = compiled_benchmark(name, CHECK_OPTIONS)

    def analyze_exact():
        return analyze_program(program, DEFAULT_CACHE, exact=True)

    analysis = benchmark(analyze_exact)
    refinement = analysis.refinement
    record_property("exact_steps_used", refinement.steps_used)
    record_property("exact_exhausted", refinement.exhausted)
    record_property("persistent_sites", refinement.persistent_sites)
    record_property("input_dependent_sites",
                    refinement.input_dependent_sites)
    record_property("residual_unknown", refinement.residual_unknown)
    record_property("static_definite_percent",
                    round(analysis.static_definite_percent, 1))
    assert not refinement.exhausted
    assert analysis.static_classified_percent == 100.0


def test_check_gate_round_trip(benchmark, record_property):
    """One benchmark's full ``--check`` leg: analyze exactly under two
    geometries and audit every verdict against the replayed cache."""
    _, program = compiled_benchmark("bubble", CHECK_OPTIONS)

    def validate_both():
        reports = []
        for geometry in (DEFAULT_CACHE, SMALL_CACHE):
            analysis = analyze_program(program, geometry, exact=True)
            reports.append(
                cross_validate(program, geometry, analysis=analysis)
            )
        return reports

    reports = benchmark(validate_both)
    for report in reports:
        assert report.mismatches == []
        assert report.dynamic_decided_percent >= 90.0
    record_property("events_total", reports[0].events_total)
    record_property("definite_percent",
                    round(reports[0].dynamic_classified_percent, 1))
    best = None
    for _ in range(TIMING_REPS):
        started = time.perf_counter()
        validate_both()
        seconds = time.perf_counter() - started
        best = seconds if best is None else min(best, seconds)
    record_property("min_seconds", round(best, 4))
    record_property("timing_reps", TIMING_REPS)


def test_static_predictor(benchmark, record_property):
    """The static-only predictor: one flat-memory execution, hit/miss
    from verdicts alone; must agree with the simulator exactly."""
    _, program = compiled_benchmark("towers", CHECK_OPTIONS)
    start = time.perf_counter()
    analysis = analyze_program(program, DEFAULT_CACHE, exact=True)
    analysis_seconds = time.perf_counter() - start

    prediction = benchmark(
        predict_program, program, DEFAULT_CACHE, analysis=analysis
    )
    assert prediction.exact
    record_property("analysis_seconds", round(analysis_seconds, 4))
    record_property("predicted_hits", prediction.hits)
    record_property("predicted_misses", prediction.misses)
    record_property("predicted_hit_rate", round(prediction.hit_rate, 4))
