"""Experiment harness tests: Figure 5 bands, sweeps, CLI surface."""

from dataclasses import replace

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace
from repro.evalharness.experiment import (
    DEFAULT_CACHE,
    run_benchmark,
    run_compiled,
)
from repro.evalharness.figure5 import (
    PAPER_DYNAMIC_BAND,
    PAPER_STATIC_BAND,
    Figure5Row,
    average_row,
    figure5_table,
    figure5_options,
    format_figure5,
)
from repro.evalharness.sweeps import (
    _trace_for,
    cache_size_sweep,
    kill_bit_ablation,
    policy_ablation,
    promotion_ablation,
    spill_ablation,
)
from repro.evalharness.tables import format_bar_chart, format_table
from repro.unified.pipeline import CompilationOptions


class TestRunBenchmark:
    def test_result_fields(self):
        result = run_benchmark("queen", options=figure5_options())
        assert result.name == "queen"
        assert result.output == (92,)
        assert result.dynamic["total"] > 0
        assert result.static.total > 0
        assert 0 <= result.dynamic_percent_unambiguous <= 100
        assert 0 <= result.static_percent_unambiguous <= 100

    def test_unified_reduces_cache_traffic(self):
        result = run_benchmark("queen", options=figure5_options())
        assert result.unified_stats.refs_cached < (
            result.conventional_stats.refs_cached
        )
        assert result.cache_traffic_reduction > 0

    def test_conventional_baseline_sees_all_refs(self):
        result = run_benchmark("queen", options=figure5_options())
        assert result.conventional_stats.refs_cached == (
            result.dynamic["total"]
        )
        assert result.conventional_stats.refs_bypassed == 0

    def test_bypassed_fraction_matches_trace(self):
        result = run_benchmark("sieve", options=figure5_options())
        assert result.unified_stats.refs_bypassed == (
            result.dynamic["bypassed"]
        )

    def test_wrong_output_detected(self):
        from repro.lang.errors import VMError
        from repro.unified.pipeline import compile_source

        program = compile_source("int main() { print(1); return 0; }")
        with pytest.raises(VMError):
            run_compiled("bad", program, expected_output=[2])

    def test_benchmark_output_checks_raise_vm_error(self, monkeypatch):
        """Every route from a benchmark to its trace (the reference
        run, the pool's unit, the sweeps, the static predictor and
        E10's combined trace) checks the benchmark's output with a
        stage-tagged error, not an assert."""
        from repro.evalharness import (
            experiment,
            figure5,
            parallel,
            sweeps,
            unifiedcache,
        )
        from repro.lang.errors import VMError
        from repro.programs import get_benchmark

        def wrong(name, paper_scale=False):
            return replace(get_benchmark(name, paper_scale),
                           expected_output=(-1,))

        routes = (
            (experiment, experiment.run_benchmark),
            (parallel,
             lambda name: parallel.evaluate_unit(parallel.EvalUnit(name))),
            (sweeps, sweeps._trace_for),
            (figure5,
             lambda name: figure5.static_predictor_table(names=(name,))),
            (unifiedcache, unifiedcache.record_combined_trace),
        )
        for module, route in routes:
            monkeypatch.setattr(module, "get_benchmark", wrong)
            with pytest.raises(VMError, match="instead of") as excinfo:
                route("queen")
            assert excinfo.value.stage == "vm"


class TestFigure5:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure5_table()

    def test_all_benchmarks_present(self, rows):
        assert [row.name for row in rows] == [
            "bubble", "intmm", "puzzle", "queen", "sieve", "towers"
        ]

    def test_average_static_in_paper_band(self, rows):
        avg = average_row(rows)
        low, high = PAPER_STATIC_BAND
        assert low - 10 <= avg.static_percent_unambiguous <= high + 10

    def test_average_dynamic_in_paper_band(self, rows):
        avg = average_row(rows)
        low, high = PAPER_DYNAMIC_BAND
        assert low <= avg.dynamic_percent_unambiguous <= high

    def test_reduction_about_sixty_percent(self, rows):
        avg = average_row(rows)
        assert 45.0 <= avg.cache_traffic_reduction <= 75.0

    def test_reduction_tracks_dynamic_unambiguous(self, rows):
        # Bypassed refs are exactly the unambiguous ones that skip the
        # cache; reduction of through-cache refs must track closely.
        for row in rows:
            assert row.cache_traffic_reduction == pytest.approx(
                row.dynamic_percent_unambiguous, abs=12.0
            )

    def test_formatting(self, rows):
        text = format_figure5(rows)
        assert "Figure 5" in text
        assert "towers" in text
        assert "average" in text

    def test_miller_ratio_band(self, rows):
        # Paper Section 6: Miller's static unambiguous:ambiguous ratio
        # is between 1:1 and 3:1.  Check our per-benchmark static ratio
        # lands in a loosened version of that interval.
        result = run_benchmark("towers", options=figure5_options())
        assert 0.8 <= result.static.miller_ratio <= 6.0


class TestSweeps:
    def test_cache_size_sweep_shape(self):
        rows = cache_size_sweep("queen", sizes=(64, 256))
        assert len(rows) == 2
        assert rows[0]["size_words"] == 64
        for row in rows:
            assert 0 <= row["cache_traffic_reduction"] <= 100

    def test_policy_ablation_covers_policies(self):
        rows = policy_ablation("queen", policies=("lru", "fifo", "min"))
        assert {row["policy"] for row in rows} == {"lru", "fifo", "min"}
        assert {row["kill_bits"] for row in rows} == {True, False}

    def test_min_never_worse_than_lru_in_ablation(self):
        rows = policy_ablation("sieve", policies=("lru", "min"))
        by_key = {
            (row["policy"], row["kill_bits"]): row["misses"] for row in rows
        }
        assert by_key[("min", True)] <= by_key[("lru", True)]
        assert by_key[("min", False)] <= by_key[("lru", False)]

    def test_ablation_cells_follow_the_base(self):
        """Every cell, MIN included, is the base config with its policy
        and kill bits swapped in: over a write-through base nothing is
        ever written back."""
        base = replace(DEFAULT_CACHE, size_words=64,
                       write_policy="writethrough")
        rows = policy_ablation("towers", policies=("lru", "min"), base=base)
        assert [row["writebacks"] for row in rows] == [0] * 4, rows
        trace, _program = _trace_for("towers")
        for row in rows:
            want = replay_trace(trace, replace(
                base, policy=row["policy"], honor_kill=row["kill_bits"]))
            assert row["misses"] == want.misses, row
            assert row["bus_words"] == want.bus_words, row

    def test_kill_bits_never_hurt_misses(self):
        for size in (32, 64):
            rows = kill_bit_ablation("towers", sizes=(size,))
            by_mode = {row["kill_mode"]: row for row in rows}
            assert by_mode["invalidate"]["misses"] <= (
                by_mode["off"]["misses"]
            )

    def test_kill_bits_reduce_writebacks(self):
        rows = kill_bit_ablation("towers", sizes=(32,))
        by_mode = {row["kill_mode"]: row for row in rows}
        assert by_mode["invalidate"]["writebacks"] <= (
            by_mode["off"]["writebacks"]
        )
        assert by_mode["invalidate"]["dead_drops"] >= 0

    def test_spill_ablation_routes_spills(self):
        rows = spill_ablation()
        by_flag = {row["spill_to_cache"]: row for row in rows}
        assert set(by_flag) == {True, False}
        assert by_flag[True]["spill_refs"] > 0
        # Spill-to-cache turns spill traffic into cache references;
        # bypassing sends the same words over the memory bus instead.
        assert by_flag[True]["refs_cached"] > by_flag[False]["refs_cached"]
        assert by_flag[True]["bus_words"] < by_flag[False]["bus_words"]

    def test_promotion_ablation_monotone(self):
        rows = promotion_ablation("bubble")
        by_level = {row["promotion"]: row for row in rows}
        # More promotion => fewer data references and a lower
        # unambiguous fraction (register-worthy refs leave the stream).
        assert by_level["none"]["dynamic_refs"] >= (
            by_level["modest"]["dynamic_refs"]
        )
        assert by_level["modest"]["dynamic_refs"] >= (
            by_level["aggressive"]["dynamic_refs"]
        )
        assert by_level["none"]["dynamic_percent_unambiguous"] >= (
            by_level["aggressive"]["dynamic_percent_unambiguous"]
        )


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_format_bar_chart(self):
        text = format_bar_chart([("a", 50.0), ("b", 100.0)])
        lines = text.splitlines()
        assert lines[1].count("#") == 2 * lines[0].count("#")

    def test_empty_chart(self):
        assert format_bar_chart([], title="t") == "t"


class TestCLI:
    def test_figure5_cli(self, capsys):
        from repro.evalharness.cli import main_figure5

        main_figure5(["--benchmarks", "queen", "--cache-words", "128"])
        out = capsys.readouterr().out
        assert "queen" in out
        assert "Figure 5" in out

    def test_run_cli(self, tmp_path, capsys):
        from repro.evalharness.cli import main_run

        path = tmp_path / "p.minic"
        path.write_text(
            "int main() { int i; int s; s = 0; "
            "for (i = 0; i < 5; i++) s += i; print(s); return 0; }"
        )
        main_run([str(path)])
        out = capsys.readouterr().out
        assert out.startswith("10\n")
        assert "refs_total" in out

    def test_compile_cli(self, tmp_path, capsys):
        from repro.evalharness.cli import main_compile

        path = tmp_path / "p.minic"
        path.write_text("int a[4]; int main() { a[0] = 1; return a[0]; }")
        main_compile([str(path), "--promotion", "none"])
        out = capsys.readouterr().out
        assert "alias sets:" in out
        assert "Am_LOAD" in out

    def test_cli_extension_flags(self, tmp_path, capsys):
        from repro.evalharness.cli import main_run

        path = tmp_path / "p.minic"
        path.write_text(
            "int main() { int x; int *p; x = 1; p = &x; "
            "*p = *p + 41; print(x); return 0; }"
        )
        main_run([
            str(path), "--hybrid", "--merge-true-aliases",
            "--refine-points-to", "--cache-globals",
        ])
        out = capsys.readouterr().out
        # Definition-1 merging plus promotion collapses the whole
        # program into registers: zero data references remain.
        assert out.startswith("42\n")
        assert "0 data references" in out
