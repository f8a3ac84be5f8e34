"""Smoke tests for the one-command reproduction report."""

import pytest

import repro.cache.stackdist as stackdist
import repro.evalharness.sweeps as sweeps
import repro.programs.registry as registry
from repro.evalharness.fullreport import (
    build_report,
    format_failures,
    kill_section,
    main,
)


class TestReport:
    def test_fast_report_contains_sections(self):
        report = build_report(fast=True)
        assert "Figure 5" in report
        assert "Dead-line" in report
        assert "Spill-to-cache" in report
        assert "towers" in report
        assert "paper" in report

    def test_fast_report_excludes_slow_sections(self):
        report = build_report(fast=True)
        assert "Combined I+D" not in report
        assert "Total memory access time" not in report

    def test_cli_fast(self, capsys):
        assert main(["--fast"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out

    def test_cli_accepts_seed_and_max_steps(self, capsys):
        assert main(["--fast", "--seed", "7", "--max-steps",
                     "100000000"]) == 0
        assert "Reproduction report" in capsys.readouterr().out


class TestKillSection:
    def test_scores_only_the_printed_cells(self, monkeypatch):
        """E5 asks the sweep dispatcher for the six (size, mode) cells
        it prints, all inside the stack-distance model."""
        monkeypatch.delenv("REPRO_SWEEP_ENGINE", raising=False)
        swept = []
        real_sweep = sweeps.replay_trace_sweep

        def sweep(trace, specs, *args, **kwargs):
            specs = list(specs)
            swept.extend(specs)
            return real_sweep(trace, specs, *args, **kwargs)

        monkeypatch.setattr(sweeps, "replay_trace_sweep", sweep)
        kill_section()
        cells = [
            (spec.size_words, spec.kill_mode if spec.honor_kill else "off")
            for spec in swept
        ]
        assert cells == [
            (size, mode)
            for size in (32, 64, 256)
            for mode in ("invalidate", "off")
        ]
        assert all(
            stackdist.supports_stackdist(spec, True, True) for spec in swept
        )


@pytest.fixture
def broken_towers(monkeypatch):
    def broken(paper_scale=False):
        raise KeyError("synthetic benchmark corruption")

    monkeypatch.setitem(registry._FACTORIES, "towers", broken)


class TestGracefulDegradation:
    OTHER_FIVE = ("bubble", "intmm", "puzzle", "queen", "sieve")

    def test_broken_benchmark_degrades_not_aborts(self, broken_towers):
        failures = []
        report = build_report(fast=True, failures=failures)
        for name in self.OTHER_FIVE:
            assert name in report
        assert failures
        sections = {record["section"] for record in failures}
        assert "figure5" in sections
        assert "kill-bits" in sections  # that section is towers-only
        assert all(
            record["error_type"] == "KeyError" for record in failures
        )

    def test_without_failures_list_errors_propagate(self, broken_towers):
        with pytest.raises(KeyError):
            build_report(fast=True)

    def test_cli_reports_and_exits_nonzero(self, broken_towers, capsys):
        assert main(["--fast"]) == 1
        captured = capsys.readouterr()
        for name in self.OTHER_FIVE:
            assert name in captured.out
        assert "experiment(s) failed" in captured.err
        assert "towers" in captured.err

    def test_format_failures_lists_each_record(self):
        text = format_failures(
            [
                {
                    "section": "figure5",
                    "item": "towers",
                    "error_type": "KeyError",
                    "stage": "unknown",
                    "kind": None,
                    "original_type": None,
                    "message": "boom",
                }
            ]
        )
        assert "figure5/towers" in text
        assert "KeyError" in text
