"""The static-only hit-ratio predictor versus the cache simulator.

The predictor executes over flat memory and scores every through-cache
reference from its verdict tier alone — no cache state.  Wherever the
analysis decides every event (``exact``), its hit/miss counts must
equal the simulator's count-for-count; benchmarks with
input-dependent references are excused, never wrong.  This is the
agreement contract behind the Figure 5 static-predictor CI job.
"""

import pytest

from repro.evalharness.artifacts import ArtifactCache
from repro.evalharness.experiment import DEFAULT_CACHE, run_compiled
from repro.evalharness.figure5 import (
    StaticPredictorRow,
    figure5_options,
    format_static_predictor,
    static_predictor_table,
)
from repro.programs import get_benchmark
from repro.staticcheck.predictor import predict_program
from repro.unified.pipeline import CompilationOptions, compile_source

#: With promotion off, the full reference stream is visible and the
#: analysis decides these benchmarks completely at the default cache.
FULLY_DECIDED = ("bubble", "queen", "towers")

NONE_OPTIONS = CompilationOptions(scheme="unified", promotion="none")


class TestPredictorAgreement:
    @pytest.mark.parametrize("name", FULLY_DECIDED)
    def test_exact_benchmarks_match_the_simulator(self, name):
        program = compile_source(
            get_benchmark(name).source, NONE_OPTIONS
        )
        prediction = predict_program(program, DEFAULT_CACHE)
        assert prediction.exact, (
            "{} regressed: {}".format(name, prediction.describe())
        )
        stats = run_compiled(
            name, program, cache_config=DEFAULT_CACHE
        ).unified_stats
        assert prediction.hits == stats.hits
        assert prediction.misses == stats.misses
        assert prediction.refs_bypassed == stats.refs_bypassed
        assert prediction.agrees_with(stats)
        assert prediction.hit_rate == stats.hit_rate

    def test_input_dependent_benchmark_is_excused_not_wrong(self):
        # sieve's flag-array reread turns on run-time values; the
        # predictor must disqualify itself rather than guess.
        program = compile_source(
            get_benchmark("sieve").source, NONE_OPTIONS
        )
        prediction = predict_program(program, DEFAULT_CACHE)
        assert not prediction.exact
        assert prediction.unpredicted > 0
        assert "input-dependent" in prediction.describe()

    def test_figure5_table_rows_all_ok(self, tmp_path):
        rows = static_predictor_table(
            options=NONE_OPTIONS,
            names=("bubble", "sieve"),
        )
        by_name = {row.name: row for row in rows}
        assert by_name["bubble"].exact and by_name["bubble"].agrees
        assert not by_name["sieve"].exact
        assert all(row.ok for row in rows)
        rendered = format_static_predictor(rows)
        assert "exact, agrees" in rendered
        assert "excused" in rendered
        # The same rows from a cold and then a warm artifact store: the
        # predictor also runs on a program unpickled from the store.
        cache = ArtifactCache(str(tmp_path))
        for _ in range(2):
            assert static_predictor_table(
                options=NONE_OPTIONS,
                names=("bubble", "sieve"),
                artifact_cache=cache,
            ) == rows
        assert cache.hits + cache.misses == 4

    def test_figure5_default_options_never_disagree(self):
        # Under the figure's modest promotion, spill traffic makes the
        # footprint non-concrete: benchmarks go excused, not wrong.
        rows = static_predictor_table(
            options=figure5_options(), names=("queen",)
        )
        assert all(row.ok for row in rows)

    def test_exact_disagreement_is_a_failure(self):
        row = StaticPredictorRow(
            name="synthetic", predicted_hits=10, predicted_misses=0,
            simulated_hits=9, simulated_misses=1, exact=True,
        )
        assert not row.agrees
        assert not row.ok
        assert "DISAGREES" in format_static_predictor([row])
