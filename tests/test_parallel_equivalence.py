"""The equivalence battery: parallel engine == serial path, bitwise.

Every route through the compile-once/trace-once engine — the
multi-config replay, the artifact-cache cold and warm paths, and the
process-pool fan-out — must produce results bit-identical to the
serial ``run_benchmark`` baseline, on all six benchmarks.
"""

import sys

import pytest

from repro import faultinject
from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace
from repro.evalharness.artifacts import ArtifactCache
from repro.evalharness.experiment import (
    DEFAULT_CACHE,
    evaluate_trace_multi,
    run_benchmark,
)
from repro.evalharness.figure5 import figure5_table, format_figure5
from repro.evalharness.parallel import EvalUnit, evaluate_unit, run_units
from repro.programs import BENCHMARK_NAMES


def canonical(result):
    """Everything measurable about an ExperimentResult, as plain data."""
    return {
        "name": result.name,
        "unified": result.unified_stats.as_dict(),
        "conventional": result.conventional_stats.as_dict(),
        "dynamic": dict(result.dynamic),
        "output": tuple(result.output),
        "steps": result.steps,
        "static_percent_unambiguous": result.static_percent_unambiguous,
        "static_bypass_checked": result.static_bypass_checked,
        "cache_traffic_reduction": result.cache_traffic_reduction,
        "bus_traffic_reduction": result.bus_traffic_reduction,
    }


@pytest.fixture(scope="module")
def artifact_cache(tmp_path_factory):
    return ArtifactCache(str(tmp_path_factory.mktemp("artifacts")))


@pytest.fixture(scope="module")
def serial_results():
    return {name: run_benchmark(name) for name in BENCHMARK_NAMES}


class TestEngineEqualsSerial:
    def test_artifact_cold_and_warm_paths(self, serial_results,
                                          artifact_cache):
        for name in BENCHMARK_NAMES:
            cold = run_benchmark(name, artifact_cache=artifact_cache)
            warm = run_benchmark(name, artifact_cache=artifact_cache)
            assert canonical(cold) == canonical(serial_results[name]), name
            assert canonical(warm) == canonical(serial_results[name]), name
        if faultinject.active_plan() is None:
            # Under an ambient REPRO_FAULT_PLAN (the chaos CI job) the
            # hit count depends on the injection schedule — corrupted
            # entries quarantine into recorded misses.  Equivalence
            # above is the invariant; the counter is only meaningful
            # on a clean run.
            assert artifact_cache.hits >= len(BENCHMARK_NAMES)

    def test_evaluate_unit_matches_serial(self, serial_results,
                                          artifact_cache):
        for name in BENCHMARK_NAMES:
            unit = EvalUnit(name=name)
            direct = evaluate_unit(unit)
            cached = evaluate_unit(unit, artifact_cache=artifact_cache)
            assert canonical(direct[0]) == canonical(serial_results[name])
            assert canonical(cached[0]) == canonical(serial_results[name])

    def test_run_units_pool_matches_serial(self, serial_results,
                                           artifact_cache):
        units = [EvalUnit(name=name) for name in BENCHMARK_NAMES]
        pooled = run_units(units, jobs=2, artifact_cache=artifact_cache)
        for name, results in zip(BENCHMARK_NAMES, pooled):
            assert len(results) == 1
            assert canonical(results[0]) == canonical(serial_results[name])

    def test_multi_geometry_unit_matches_per_geometry_serial(
            self, artifact_cache):
        geometries = (
            DEFAULT_CACHE,
            CacheConfig(size_words=64, line_words=1, associativity=2,
                        policy="lru"),
        )
        unit = EvalUnit(name="towers", cache_configs=geometries)
        multi = evaluate_unit(unit, artifact_cache=artifact_cache)
        for geometry, result in zip(geometries, multi):
            serial = run_benchmark("towers", cache_config=geometry)
            assert canonical(result) == canonical(serial)

    def test_failure_is_recorded_not_raised(self):
        failures = []
        results = run_units(
            [EvalUnit(name="towers"), EvalUnit(name="no-such-benchmark")],
            failures=failures,
        )
        assert results[0] is not None and results[1] is None
        assert len(failures) == 1
        assert failures[0]["item"] == "no-such-benchmark"

    def test_failure_propagates_without_failures_list(self):
        with pytest.raises(Exception):
            run_units([EvalUnit(name="no-such-benchmark")])


class TestReplayLevelEquivalence:
    """The trace-level evaluation against the serial benchmark run.

    Every engine on the six benchmark traces is held to the serial
    replay by ``tests/test_engine_table.py``.
    """

    def test_evaluate_trace_multi_matches_evaluate_trace(self,
                                                         artifact_cache):
        from repro.programs import get_benchmark
        from repro.evalharness.figure5 import figure5_options

        bench = get_benchmark("queen")
        artifact = artifact_cache.resolve(
            bench.name, bench.source, figure5_options(),
            expected_output=bench.expected_output,
        )
        geometries = (
            DEFAULT_CACHE,
            CacheConfig(size_words=128, line_words=1, associativity=4,
                        policy="fifo"),
        )
        multi = evaluate_trace_multi(
            bench.name, artifact.program, artifact.trace, artifact.output,
            artifact.steps, geometries,
        )
        for geometry, result in zip(geometries, multi):
            serial = run_benchmark(
                "queen", options=figure5_options(), cache_config=geometry
            )
            assert canonical(result) == canonical(serial)


class TestFigure5ByteIdentical:
    """The acceptance check: the rendered Figure 5 text is identical."""

    def test_parallel_figure5_text(self, artifact_cache):
        serial = format_figure5(figure5_table())
        parallel = format_figure5(
            figure5_table(jobs=2, artifact_cache=artifact_cache)
        )
        warm = format_figure5(
            figure5_table(jobs=2, artifact_cache=artifact_cache)
        )
        assert parallel == serial
        assert warm == serial


class TestReportRouting:
    """The report's Figure 5 and spill rows never reach the reference
    replay: they score through the sweep dispatcher, and still equal
    the rows the reference produces."""

    def test_rows_do_not_use_replay_trace(self, monkeypatch):
        from repro.evalharness.figure5 import Figure5Row, figure5_options
        from repro.evalharness.sweeps import spill_ablation

        expected_figure5 = [Figure5Row.from_result(
            run_benchmark("queen", options=figure5_options())
        )]
        expected_spill = spill_ablation()

        def forbidden(*args, **kwargs):
            raise AssertionError("a report row reached replay_trace")

        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is replay_trace:
                    monkeypatch.setattr(module, key, forbidden)
        assert figure5_table(names=("queen",)) == expected_figure5
        assert spill_ablation() == expected_spill
