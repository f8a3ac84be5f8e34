"""The fuzzing subsystem: generator, differential checker, reducer,
driver, and the error-classification plumbing they share."""

import json
import os

import pytest

from repro.cache.stackdist import replay_trace_sweep
from repro.errors import (
    InternalError,
    ReproError,
    error_signature,
    pipeline_stage,
)
from repro.robustness import check_source, generate_program, reduce_source
from repro.robustness.differential import DifferentialError
from repro.robustness.driver import run_fuzz
from repro.unified.pipeline import compile_source

#: Seeds exercised by the quick in-suite differential pass; the CI
#: smoke run covers hundreds more via ``repro-fuzz``.
QUICK_SEEDS = range(12)


class TestGenerator:
    def test_deterministic(self):
        first = generate_program(42)
        second = generate_program(42)
        assert first.source == second.source
        assert first.expected_output == second.expected_output
        assert first.expected_return == second.expected_return

    def test_distinct_seeds_differ(self):
        sources = {generate_program(seed).source for seed in range(8)}
        assert len(sources) > 1

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_programs_compile_and_match_model(self, seed):
        generated = generate_program(seed)
        program = compile_source(generated.source)
        result = program.run(max_steps=5_000_000)
        assert result.output == list(generated.expected_output)
        assert result.return_value == generated.expected_return

    def test_programs_exercise_alias_machinery(self):
        # Across a handful of seeds the generator must produce the
        # constructs the alias analysis exists for.
        corpus = "\n".join(
            generate_program(seed).source for seed in range(20)
        )
        assert "&" in corpus
        assert "*p" in corpus
        assert "[" in corpus
        assert "while" in corpus
        assert "for" in corpus


class TestDifferential:
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_battery_passes(self, seed):
        generated = generate_program(seed)
        info = check_source(
            generated.source,
            expected_output=generated.expected_output,
            expected_return=generated.expected_return,
        )
        assert info["configs"] == 8

    def test_battery_scores_in_one_sweep(self, monkeypatch):
        """The fuzzer scores its whole configuration battery, every
        family of the engine table, in one dispatcher call."""
        from repro.robustness import differential

        calls = []

        def sweep(trace, specs):
            calls.append(len(specs))
            return replay_trace_sweep(trace, specs)

        monkeypatch.setattr(differential, "replay_trace_sweep", sweep)
        generated = generate_program(0)
        check_source(
            generated.source,
            expected_output=generated.expected_output,
            expected_return=generated.expected_return,
        )
        assert calls == [12]

    def test_sweep_mismatch_names_the_engine(self, monkeypatch):
        """A swept result that disagrees with its serial replay is
        reported under the name of the engine that scored it."""
        from repro.robustness import differential

        def sweep(trace, specs):
            swept = replay_trace_sweep(trace, specs)
            swept[3].hits += 1  # the FIFO configuration
            return swept

        monkeypatch.setattr(differential, "replay_trace_sweep", sweep)
        generated = generate_program(0)
        with pytest.raises(DifferentialError) as excinfo:
            check_source(
                generated.source,
                expected_output=generated.expected_output,
                expected_return=generated.expected_return,
            )
        assert excinfo.value.kind == "fifo_sweep"

    def test_wrong_model_prediction_is_flagged(self):
        generated = generate_program(0)
        with pytest.raises(DifferentialError) as excinfo:
            check_source(generated.source, expected_return=10**9)
        assert excinfo.value.kind == "model-return"
        assert excinfo.value.stage == "differential"


class TestReducer:
    def test_shrinks_to_the_failing_line(self):
        generated = generate_program(7)
        needle = "print("

        def predicate(candidate):
            if needle not in candidate:
                return False
            try:
                compile_source(candidate)
            except ReproError:
                return False
            return True

        reduced = reduce_source(generated.source, predicate)
        assert needle in reduced
        assert len(reduced.splitlines()) <= 15
        compile_source(reduced)  # still a valid program

    def test_unreproducible_failure_is_returned_unchanged(self):
        source = "int main() { return 1; }\n"
        assert reduce_source(source, lambda candidate: False) == source


class TestDriver:
    def test_clean_run_reports_no_failures(self, tmp_path):
        failures = run_fuzz(
            programs=5, seed=0, crashes_dir=str(tmp_path / "crashes")
        )
        assert failures == []
        assert not (tmp_path / "crashes").exists()

    def test_injected_failure_is_shrunk_and_archived(self, tmp_path):
        crashes = tmp_path / "crashes"
        failures = run_fuzz(
            programs=6,
            seed=0,
            crashes_dir=str(crashes),
            inject=r"print\(",
        )
        assert failures, "every generated program prints, so all fail"
        for record in failures:
            assert record["error_type"] == "InjectedFailure"
            assert record["stage"] == "injected"
            assert record["reduced_lines"] <= 15
            crash_dir = record["crash_dir"]
            assert os.path.isfile(os.path.join(crash_dir, "original.mc"))
            assert os.path.isfile(os.path.join(crash_dir, "reduced.mc"))
            with open(os.path.join(crash_dir, "meta.json")) as handle:
                meta = json.load(handle)
            assert meta["seed"] == record["seed"]
            assert "traceback" in meta
            # The reduced reproducer still compiles and still matches.
            with open(os.path.join(crash_dir, "reduced.mc")) as handle:
                reduced = handle.read()
            assert "print(" in reduced
            compile_source(reduced)


class TestErrorPlumbing:
    def test_pipeline_stage_wraps_raw_exceptions(self):
        with pytest.raises(InternalError) as excinfo:
            with pipeline_stage("demo"):
                raise KeyError("boom")
        error = excinfo.value
        assert error.stage == "demo"
        assert error.original_type == "KeyError"
        assert isinstance(error.__cause__, KeyError)

    def test_pipeline_stage_passes_repro_errors_through(self):
        class Custom(ReproError):
            pass

        with pytest.raises(Custom) as excinfo:
            with pipeline_stage("demo"):
                raise Custom("typed")
        assert excinfo.value.stage == "demo"  # tagged in flight

    def test_error_signature_distinguishes_kinds(self):
        left = DifferentialError("output-mismatch", "a")
        right = DifferentialError("step-mismatch", "b")
        assert error_signature(left) != error_signature(right)
        assert error_signature(left) == error_signature(
            DifferentialError("output-mismatch", "different message")
        )
