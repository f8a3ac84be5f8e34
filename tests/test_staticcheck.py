"""Static must/may cache analysis, annotation linter, cross-validation.

Three layers under test: the abstract domain's transfer functions
(unit tests against hand-built states), the linter (violation
injection: corrupt one annotation, the matching diagnostic must fire),
and the static/dynamic contract (every definite verdict checked
against the simulator on real executions, including the six-benchmark
acceptance gate that CI runs via ``repro-analyze --check``).
"""

import pytest

from repro.cache.cache import CacheConfig
from repro.ir.instructions import Load, RefFlavor, RegMem, Store, SymMem
from repro.staticcheck import StaticCheckError
from repro.staticcheck import absdomain as dom
from repro.staticcheck.absdomain import CacheState, CallSummary
from repro.staticcheck.crossval import cross_validate
from repro.staticcheck.linter import lint_module, lint_program
from repro.staticcheck.locations import AMBIG, STACK, may_conflict
from repro.staticcheck.mustmay import (
    Classification,
    analyze_program,
    check_geometry,
)
from repro.unified.pipeline import CompilationOptions, compile_source

CONFIG = CacheConfig(size_words=8, line_words=1, associativity=2,
                     policy="lru")  # 4 sets


def compile_none(source, scheme="unified", **kwargs):
    """Compile with promotion off so every value reference is visible."""
    return compile_source(
        source, CompilationOptions(scheme=scheme, promotion="none", **kwargs)
    )


def memory_refs(program, cls=(Load, Store)):
    """[(function, instruction)] over all memory references."""
    out = []
    for function in program.module.functions.values():
        for instruction in function.instructions():
            if isinstance(instruction, cls):
                out.append((function, instruction))
    return out


# ----------------------------------------------------------------------
# Abstract domain.
# ----------------------------------------------------------------------

G0 = ("g", 0, False)
G1 = ("g", 1, False)
G4 = ("g", 4, False)   # same set as G0 with 4 sets
GAT = ("g", 9, True)   # address-taken global


class TestAbstractDomain:
    def test_join_intersects_must_at_worst_age(self):
        a = CacheState({G0: 0, G1: 1}, frozenset([G0, G1]))
        b = CacheState({G0: 1}, frozenset([G0, G4]))
        joined = dom.join([a, b])
        assert joined.must == {G0: 1}
        assert joined.may == frozenset([G0, G1, G4])
        assert not joined.may_top

    def test_join_skips_bottom(self):
        a = CacheState({G0: 0}, frozenset([G0]))
        assert dom.join([None, a]) == a
        assert dom.join([None, None]) is None

    def test_through_access_installs_and_ages_conflicting(self):
        # G4 conflicts with G0 (same set); G1 does not.
        state = CacheState({G4: 0, G1: 0}, frozenset([G4, G1]))
        after = dom.access_through(
            state, (G0,), G0, is_write=False, kill=False,
            config=CONFIG, must_enabled=True,
        )
        assert after.must == {G0: 0, G4: 1, G1: 0}
        assert G0 in after.may and G4 in after.may

    def test_aging_evicts_at_associativity(self):
        state = CacheState({G4: 1}, frozenset([G4]))  # max age for 2-way
        after = dom.access_through(
            state, (G0,), G0, is_write=False, kill=False,
            config=CONFIG, must_enabled=True,
        )
        assert G4 not in after.must      # aged out of the must set...
        assert G4 in after.may           # ...but may still be present

    def test_kill_load_purges_without_aging(self):
        state = CacheState({G0: 0, G4: 1}, frozenset([G0, G4]))
        after = dom.access_through(
            state, (G0,), G0, is_write=False, kill=True,
            config=CONFIG, must_enabled=True,
        )
        assert G0 not in after.must and G0 not in after.may
        assert after.must[G4] == 1       # a kill load moves nobody else

    def test_kill_store_miss_can_evict_a_victim(self):
        # The concrete cache allocates-then-invalidates on a killed
        # store miss, so it can push a conflicting block out: the
        # abstract kill-store must age before purging.
        state = CacheState({G4: 1}, frozenset([G4]))
        after = dom.access_through(
            state, (G0,), G0, is_write=True, kill=True,
            config=CONFIG, must_enabled=True,
        )
        assert G4 not in after.must

    def test_bypass_removes_target_only(self):
        state = CacheState({G0: 0, G4: 1}, frozenset([G0, G4]))
        after = dom.access_bypass(state, (G0,), G0)
        assert G0 not in after.must and G0 not in after.may
        assert after.must[G4] == 1 and G4 in after.may

    def test_ambiguous_invalidation_purges_reachable(self):
        state = CacheState({G0: 0, GAT: 0}, frozenset([G0, GAT]))
        after = dom.access_bypass(state, (AMBIG,), None)
        assert GAT not in after.must     # pointer-reachable: purged
        assert after.must[G0] == 0       # unreachable word survives
        assert GAT in after.may          # weak invalidation keeps may

    def test_call_havocs_must_and_folds_summary(self):
        state = CacheState({G0: 0}, frozenset([G0]))
        summary = CallSummary(frozenset([G1]), ambig=True, stack=True)
        after = dom.apply_call(state, summary)
        assert after.must == {}
        assert {G0, G1, AMBIG, STACK} <= after.may
        assert not after.may_top
        assert dom.apply_call(state, CallSummary(top=True)).may_top

    def test_translate_entry(self, tiny_program):
        callee = tiny_program.module.functions["main"]
        frame_at = ("f", "caller", 0, True)
        frame_private = ("f", "caller", 1, False)
        state = CacheState(
            {G0: 1, frame_private: 0},
            frozenset([G0, frame_at, frame_private, STACK]),
        )
        entry = dom.translate_entry(state, callee)
        assert entry.must == {G0: 1}          # frame identities shift
        assert G0 in entry.may
        assert AMBIG in entry.may             # address-taken caller slot
        assert frame_private not in entry.may  # invisible to the callee
        # Dead deeper frames coincide with the callee's fresh frame.
        assert STACK in entry.may
        assert any(loc[0] in ("f", "fa") for loc in entry.may)

    def test_may_possible(self):
        state = CacheState({}, frozenset([GAT]))
        assert dom.may_possible(state, GAT)
        assert dom.may_possible(state, AMBIG)     # reachable member
        assert not dom.may_possible(state, G0)
        top = CacheState({}, frozenset(), may_top=True)
        assert dom.may_possible(top, G0)
        ambig = CacheState({}, frozenset([AMBIG]))
        assert dom.may_possible(ambig, GAT)
        assert not dom.may_possible(ambig, G0)    # not pointer-reachable

    def test_may_conflict(self):
        assert may_conflict(G0, G4, 4)            # 0 ≡ 4 (mod 4)
        assert not may_conflict(G0, G1, 4)
        assert may_conflict(G0, ("f", "f", 0, False), 4)   # cross-base
        assert may_conflict(G0, ("ga", 2, 4, True), 4)     # size ≥ sets
        assert not may_conflict(G0, ("ga", 1, 2, True), 4)
        assert may_conflict(G0, AMBIG, 4)
        assert may_conflict(G0, G1, 1)            # fully associative set

    def test_unsupported_geometries_rejected(self):
        with pytest.raises(StaticCheckError):
            check_geometry(CacheConfig(line_words=4))
        with pytest.raises(StaticCheckError):
            check_geometry(CacheConfig(allocate_on_write=False))
        with pytest.raises(StaticCheckError):
            check_geometry(CacheConfig(kill_mode="demote"))
        check_geometry(CacheConfig())  # the defaults are in the model


@pytest.fixture(scope="module")
def tiny_program():
    return compile_none("int main() { int x; x = 1; return x; }")


# ----------------------------------------------------------------------
# Classification.
# ----------------------------------------------------------------------

class TestClassification:
    def test_conventional_store_misses_then_load_hits(self):
        program = compile_none(
            "int main() { int x; x = 1; return x; }", scheme="conventional"
        )
        analysis = analyze_program(program, CONFIG)
        verdicts = [site.classification for site in analysis.sites]
        assert verdicts == [
            Classification.ALWAYS_MISS,   # cold cache: the store misses
            Classification.ALWAYS_HIT,    # just installed: the load hits
        ]

    def test_unified_bypass_is_always_absent(self):
        program = compile_none("int main() { int x; x = 1; return x; }")
        analysis = analyze_program(program, CONFIG)
        assert [site.bypass for site in analysis.sites] == [True, True]
        assert all(
            site.classification is Classification.ALWAYS_MISS
            for site in analysis.sites
        )

    def test_must_disabled_for_non_lru(self):
        program = compile_none(
            "int main() { int x; x = 1; return x; }", scheme="conventional"
        )
        fifo = CacheConfig(size_words=8, associativity=2, policy="fifo")
        analysis = analyze_program(program, fifo)
        verdicts = [site.classification for site in analysis.sites]
        # Always-miss (deterministic absence) survives; always-hit
        # (LRU-age reasoning) degrades to unknown.
        assert verdicts == [
            Classification.ALWAYS_MISS,
            Classification.UNKNOWN,
        ]

    def test_ambiguous_array_traffic_is_unknown(self):
        program = compile_none(
            "int a[4]; int main() { int i; i = 1; a[i] = 2; "
            "return a[i]; }",
            scheme="conventional",
        )
        analysis = analyze_program(program, CONFIG)
        array_sites = [
            s for s in analysis.sites if "[" in s.ref.access_path
        ]
        assert array_sites
        # The first array store to a cold cache is provably a miss;
        # rereads of an unknown element stay unknown.
        assert any(
            s.classification is Classification.UNKNOWN for s in array_sites
        )

    def test_static_percentages(self):
        program = compile_none("int main() { int x; x = 1; return x; }")
        analysis = analyze_program(program, CONFIG)
        assert analysis.static_classified_percent == 100.0
        assert analysis.static_bypass_percent == 100.0
        counts = analysis.counts()
        assert counts["always-miss"] == len(analysis.sites)


# ----------------------------------------------------------------------
# The linter: violation injection.
# ----------------------------------------------------------------------

def lint_kinds(program):
    return {
        violation.kind
        for violation in lint_module(program.module, program.alias)
    }


class TestLinter:
    def test_clean_programs_lint_clean(self):
        for scheme in ("unified", "conventional"):
            program = compile_none(
                "int g; int a[4];"
                "int f(int *p) { return *p; }"
                "int main() { int i; g = 1; "
                "for (i = 0; i < 4; i++) a[i] = i; "
                "return f(a) + g; }",
                scheme=scheme,
            )
            assert lint_kinds(program) == set()

    def test_flavor_missing(self):
        program = compile_none("int main() { int x; x = 1; return x; }")
        _, store = memory_refs(program, Store)[0]
        store.ref.flavor = None
        assert "flavor-missing" in lint_kinds(program)

    def test_flavor_mismatch(self):
        program = compile_none("int main() { int x; x = 1; return x; }")
        _, load = memory_refs(program, Load)[0]
        load.ref.bypass = False  # flavor stays UmAm_LOAD
        assert "flavor-mismatch" in lint_kinds(program)

    def test_bypass_ambiguous(self):
        program = compile_none(
            "int a[4]; int main() { a[1] = 2; return a[1]; }"
        )
        _, load = memory_refs(program, Load)[-1]
        assert not load.ref.bypass  # the array read goes through-cache
        load.ref.annotate(RefFlavor.UMAM_LOAD, bypass=True)
        assert "bypass-ambiguous" in lint_kinds(program)

    def test_kill_on_store(self):
        program = compile_none("int main() { int x; x = 1; return x; }")
        _, store = memory_refs(program, Store)[0]
        store.ref.kill = True
        assert "kill-on-store" in lint_kinds(program)

    def test_kill_indirect(self):
        program = compile_none(
            "int a[4]; int main() { int i; i = 0; return a[i]; }"
        )
        indirect = next(
            ins for _fn, ins in memory_refs(program, Load)
            if isinstance(ins.mem, RegMem)
        )
        indirect.ref.kill = True
        assert "kill-indirect" in lint_kinds(program)

    def test_kill_not_last_use_and_reuse_witness(self):
        program = compile_none(
            "int main() { int x; x = 1; print(x); return x; }",
            scheme="conventional",
        )
        first_load = next(
            ins for _fn, ins in memory_refs(program, Load)
            if isinstance(ins.mem, SymMem)
        )
        first_load.ref.kill = True
        kinds = lint_kinds(program)
        # The liveness fixpoint and the independent CFG walk must both
        # flag the premature kill.
        assert "kill-not-last-use" in kinds
        assert "kill-line-reused" in kinds

    def test_kill_on_global_flagged_via_exit_liveness(self):
        # Globals are live at function exit: a "last" load of g inside
        # main is still not killable.
        program = compile_none(
            "int g; int main() { g = 3; return g; }", scheme="conventional"
        )
        g_load = next(
            ins for _fn, ins in memory_refs(program, Load)
            if isinstance(ins.mem, SymMem)
            and ins.mem.symbol.name == "g"
        )
        g_load.ref.kill = True
        kinds = lint_kinds(program)
        assert "kill-line-reused" in kinds

    def test_lint_program_raises_structured_error(self):
        program = compile_none("int main() { int x; x = 1; return x; }")
        _, store = memory_refs(program, Store)[0]
        store.ref.kill = True
        with pytest.raises(StaticCheckError) as info:
            lint_program(program, raise_on_violation=True)
        assert info.value.stage == "staticcheck"


# ----------------------------------------------------------------------
# Dynamic cross-validation.
# ----------------------------------------------------------------------

class TestCrossValidation:
    def test_clean_run_validates(self):
        program = compile_none(
            "int g; int a[8];"
            "int main() { int i; int s; s = 0; "
            "for (i = 0; i < 8; i++) { a[i] = i; s = s + a[i]; } "
            "g = s; return g; }"
        )
        report = cross_validate(program, CONFIG)
        assert report.ok
        assert report.events_total > 0
        assert report.events_classified > 0
        assert 0.0 < report.dynamic_classified_percent <= 100.0
        assert report.describe_geometry() == "8w/2-way/lru"

    def test_injected_wrong_claim_is_caught(self):
        program = compile_none("int main() { int x; x = 1; return x; }")
        analysis = analyze_program(program, CONFIG)
        site = analysis.sites[0]
        assert site.classification is Classification.ALWAYS_MISS
        analysis.predictions[id(site.ref)] = Classification.ALWAYS_HIT
        report = cross_validate(program, CONFIG, analysis=analysis)
        assert not report.ok
        assert report.mismatches[0].predicted is Classification.ALWAYS_HIT
        with pytest.raises(StaticCheckError):
            cross_validate(
                program, CONFIG, analysis=analysis, raise_on_mismatch=True
            )

    def test_both_schemes_both_geometries(self):
        source = (
            "int a[16]; int g;"
            "int sum(int *p, int n) { int i; int s; s = 0; "
            "for (i = 0; i < n; i++) s = s + p[i]; return s; }"
            "int main() { int i; "
            "for (i = 0; i < 16; i++) a[i] = i * i; "
            "g = sum(a, 16); print(g); return 0; }"
        )
        for scheme in ("unified", "conventional"):
            program = compile_none(source, scheme=scheme)
            for config in (CONFIG, CacheConfig(size_words=64,
                                               associativity=2)):
                report = cross_validate(program, config)
                assert report.ok, report.mismatches


# ----------------------------------------------------------------------
# The acceptance gate: all six benchmarks, table included.
# ----------------------------------------------------------------------

class TestBenchmarkAcceptance:
    @pytest.mark.slow
    def test_repro_analyze_check_passes(self, capsys):
        from repro.staticcheck.cli import main

        assert main(["--check"]) == 0
        out = capsys.readouterr().out
        for name in ("bubble", "intmm", "puzzle", "queen", "sieve",
                     "towers"):
            assert name in out
        assert "zero lint violations, zero mismatches" in out

    def test_single_benchmark_gate(self):
        from repro.programs import get_benchmark

        program = compile_none(get_benchmark("sieve").source)
        assert lint_module(program.module, program.alias) == []
        for geometry in (CacheConfig(), CacheConfig(size_words=64,
                                                    associativity=2)):
            report = cross_validate(program, geometry)
            assert report.ok, report.mismatches
            assert report.dynamic_classified_percent >= 50.0


# ----------------------------------------------------------------------
# CLI table mode and the Figure 5 cross-check.
# ----------------------------------------------------------------------

class TestCliAndFigure5:
    def test_table_mode(self, capsys, tmp_path):
        from repro.staticcheck.cli import main

        path = tmp_path / "p.minic"
        path.write_text("int main() { int x; x = 1; return x; }")
        assert main([str(path), "--promotion", "none", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "always-miss" in out
        assert "static bypass ratio" in out
        assert "0 mismatch(es)" in out

    @pytest.mark.parametrize("policy", ["min", "ship", "hawkeye"])
    def test_offline_policy_is_a_clean_error(self, capsys, tmp_path,
                                             policy):
        """The validator runs the cache beside the VM, with no trace to
        read columns from: ``--validate`` and ``--check`` print one
        staticcheck error line, and the table mode still accepts the
        policy."""
        from repro.staticcheck.cli import main

        path = tmp_path / "p.minic"
        path.write_text("int main() { int x; x = 1; return x; }")
        geometry = ["--geometry", "64:2:" + policy]
        table = [str(path), "--promotion", "none"] + geometry
        assert main(table) == 0
        capsys.readouterr()
        for argv in (table + ["--validate"],
                     ["--check", "--benchmark", "queen"] + geometry):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1, err
            assert err[0].startswith("error [staticcheck]: "), err
            assert policy in err[0]

    def test_figure5_carries_the_analysis_column(self):
        from repro.evalharness.experiment import run_benchmark
        from repro.evalharness.figure5 import Figure5Row, format_figure5

        result = run_benchmark("sieve")
        assert result.static_bypass_checked is not None
        assert result.static_bypass_agrees is True

        row = Figure5Row.from_result(result)
        rendered = format_figure5([row], include_chart=False)
        assert "static %byp (analysis)" in rendered
        assert "{:.1f}".format(row.static_bypass_checked) in rendered
