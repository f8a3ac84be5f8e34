"""Register allocation tests: promotion, coloring, spilling, saves.

The strongest checks here are semantic: the same program must produce
identical output at every promotion level and under punishing register
pressure, because spill code and callee saves are the mechanisms the
unified model routes through the cache.
"""

import pytest

from conftest import outputs, run_source

from repro.analysis.alias import analyze_aliases
from repro.ir.builder import build_module
from repro.ir.cfg import build_cfg
from repro.ir.instructions import Load, MachineConfig, PReg, RefOrigin, Store
from repro.lang.parser import parse_program
from repro.lang.sema import analyze
from repro.regalloc.allocator import allocate_function, allocate_module
from repro.regalloc.interference import build_interference
from repro.regalloc.promotion import choose_promotable, promote_scalars
from repro.unified.pipeline import CompilationOptions, compile_source

PRESSURE_SOURCE = """
int main() {
    int a; int b; int c; int d; int e; int f; int g; int h;
    int i; int j; int k; int l; int m; int n; int o; int p;
    int q; int r; int s; int t;
    a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8;
    i = 9; j = 10; k = 11; l = 12; m = 13; n = 14; o = 15; p = 16;
    q = 17; r = 18; s = 19; t = 20;
    // Use everything at once so all twenty values are live together.
    print(a + b + c + d + e + f + g + h + i + j
          + k + l + m + n + o + p + q + r + s + t);
    print(a * t + b * s + c * r + d * q + e * p + f * o
          + g * n + h * m + i * l + j * k);
    return 0;
}
"""


def allocated_module(source, promotion="modest", machine=None, budget=6):
    machine = machine or MachineConfig()
    module = build_module(analyze(parse_program(source)), machine)
    for function in module.functions.values():
        build_cfg(function)
    alias = analyze_aliases(module)
    stats = allocate_module(module, alias, machine, promotion, budget)
    return module, stats


class TestPromotion:
    def test_none_promotes_nothing(self):
        module, stats = allocated_module(
            "int main() { int x; x = 1; return x; }", promotion="none"
        )
        assert stats["main"].promoted_symbols == []

    def test_aggressive_promotes_all_worthy(self):
        module, stats = allocated_module(
            "int main() { int x; int y; int *p; p = &y; *p = 2; x = 1; "
            "return x + y; }",
            promotion="aggressive",
        )
        promoted = stats["main"].promoted_symbols
        assert any(name.startswith("x#") for name in promoted)
        # y's address escapes: it must stay in memory.
        assert not any(name.startswith("y#") for name in promoted)

    def test_modest_budget_limits_promotion(self):
        source = (
            "int main() { int a; int b; int c; a = 1; b = 2; c = 3; "
            "return a + b + c; }"
        )
        _module, stats = allocated_module(source, "modest", budget=1)
        assert len(stats["main"].promoted_symbols) == 1

    def test_modest_prefers_loop_variables(self):
        source = (
            "int main() { int cold; int hot; int s; cold = 1; s = 0;"
            "for (hot = 0; hot < 100; hot++) s = s + hot;"
            "return s + cold; }"
        )
        module = build_module(analyze(parse_program(source)))
        function = module.functions["main"]
        build_cfg(function)
        alias = analyze_aliases(module)
        chosen = choose_promotable(function, alias, "modest", budget=2)
        names = {symbol.name for symbol in chosen}
        assert "hot" in names
        assert "s" in names

    def test_promotion_removes_memory_refs(self):
        source = "int main() { int x; x = 5; return x + x; }"
        module = build_module(analyze(parse_program(source)))
        function = module.functions["main"]
        build_cfg(function)
        alias = analyze_aliases(module)
        before = sum(
            isinstance(i, (Load, Store)) for i in function.instructions()
        )
        promote_scalars(
            function, choose_promotable(function, alias, "aggressive")
        )
        after = sum(
            isinstance(i, (Load, Store)) for i in function.instructions()
        )
        assert after < before


class TestColoring:
    def test_no_interfering_same_color(self):
        source = PRESSURE_SOURCE
        module = build_module(analyze(parse_program(source)))
        function = module.functions["main"]
        build_cfg(function)
        alias = analyze_aliases(module)
        promote_scalars(
            function, choose_promotable(function, alias, "aggressive")
        )
        build_cfg(function)
        from repro.analysis.du import rename_webs
        from repro.regalloc.chaitin import color_graph

        rename_webs(function)
        graph = build_interference(function)
        result = color_graph(graph, MachineConfig())
        for node, color in result.assignment.items():
            for neighbor in graph.neighbors(node):
                if isinstance(neighbor, PReg):
                    assert neighbor.index != color
                elif neighbor in result.assignment:
                    assert result.assignment[neighbor] != color

    def test_pressure_forces_spills(self):
        _module, stats = allocated_module(
            PRESSURE_SOURCE, promotion="aggressive"
        )
        assert stats["main"].spilled_webs > 0

    def test_pressure_program_still_correct(self):
        result = run_source(PRESSURE_SOURCE, promotion="aggressive")
        expected_sum = sum(range(1, 21))
        expected_dot = sum(
            a * b for a, b in zip(range(1, 11), range(20, 10, -1))
        )
        assert result.output == [expected_sum, expected_dot]

    def test_tiny_machine_still_works(self):
        # Eight registers total (4 caller-saved): brutal but allocatable.
        machine = MachineConfig(num_regs=8, num_arg_regs=4,
                                num_caller_saved=4)
        options = CompilationOptions(promotion="aggressive", machine=machine)
        program = compile_source(PRESSURE_SOURCE, options)
        result = program.run()
        assert result.output[0] == sum(range(1, 21))

    def test_spill_code_references_spill_slots(self):
        module, stats = allocated_module(
            PRESSURE_SOURCE, promotion="aggressive"
        )
        spill_refs = [
            inst.ref
            for inst in module.functions["main"].instructions()
            if isinstance(inst, (Load, Store))
            and inst.ref.origin is RefOrigin.SPILL
        ]
        assert spill_refs


class TestColoringAgainstRescan:
    """:func:`~repro.regalloc.chaitin.color_graph` keeps each node's
    degree as nodes leave; :func:`scalar_reference.color_graph_rescan`
    recounts it on every pick.  On every graph the compiler builds,
    both must assign the same colours in the same order and spill the
    same nodes."""

    TINY = MachineConfig(num_regs=8, num_arg_regs=4, num_caller_saved=4)

    def colorings(self, monkeypatch, sources, options):
        from scalar_reference import color_graph_rescan

        from repro.regalloc import allocator
        from repro.regalloc.chaitin import color_graph

        spills = []

        def both(graph, machine):
            result = color_graph(graph, machine)
            oracle = color_graph_rescan(graph, machine)
            assert (list(result.assignment.items())
                    == list(oracle.assignment.items()))
            assert result.spilled == oracle.spilled
            spills.append(len(result.spilled))
            return result

        monkeypatch.setattr(allocator, "color_graph", both)
        for source in sources:
            for option in options:
                compile_source(source, option)
        return spills

    @pytest.mark.parametrize("promotion", ["none", "modest", "aggressive"])
    def test_benchmarks(self, monkeypatch, promotion):
        from repro.programs import (
            BENCHMARK_NAMES,
            EXTRA_BENCHMARK_NAMES,
            get_benchmark,
        )

        sources = [get_benchmark(name).source
                   for name in BENCHMARK_NAMES + EXTRA_BENCHMARK_NAMES]
        spills = self.colorings(monkeypatch, sources, [
            CompilationOptions(scheme="unified", promotion=promotion),
        ])
        assert len(spills) >= len(sources)

    def test_generated_programs(self, monkeypatch):
        from repro.robustness.generator import generate_program

        sources = [generate_program(seed).source for seed in range(12)]
        self.colorings(monkeypatch, sources, [
            CompilationOptions(promotion=promotion)
            for promotion in ("none", "aggressive")
        ])

    def test_spilling_graphs(self, monkeypatch):
        spills = self.colorings(monkeypatch, [PRESSURE_SOURCE], [
            CompilationOptions(promotion="aggressive"),
            CompilationOptions(promotion="aggressive", machine=self.TINY),
        ])
        assert sum(spills) > 0


class TestCalleeSaves:
    def test_recursive_function_saves_callee_registers(self):
        source = (
            "int fib(int n) { if (n < 2) return n; "
            "return fib(n - 1) + fib(n - 2); } "
            "int main() { return fib(10); }"
        )
        module, stats = allocated_module(source, promotion="aggressive")
        assert stats["fib"].callee_saved_used
        saves = [
            inst
            for inst in module.functions["fib"].instructions()
            if isinstance(inst, (Load, Store))
            and inst.ref.origin is RefOrigin.CALLEE_SAVE
        ]
        assert saves

    def test_leaf_function_avoids_callee_saves(self):
        source = (
            "int add(int a, int b) { return a + b; } "
            "int main() { return add(1, 2); }"
        )
        _module, stats = allocated_module(source, promotion="aggressive")
        assert stats["add"].callee_saved_used == []

    def test_value_survives_call(self):
        source = (
            "int id(int x) { return x; } "
            "int main() { int a; a = 11; print(id(5)); print(a); return 0; }"
        )
        assert outputs(source, promotion="aggressive") == [5, 11]


class TestSemanticPreservation:
    @pytest.mark.parametrize("promotion", ["none", "modest", "aggressive"])
    def test_same_output_across_promotion_levels(self, promotion):
        source = """
        int g;
        int a[6];
        int sum3(int x, int y, int z) { return x + y + z; }
        int main() {
            int i;
            for (i = 0; i < 6; i++) a[i] = i * i - 3;
            g = 0;
            for (i = 0; i < 6; i++) g = g + a[i];
            print(g);
            print(sum3(a[0], a[3], g));
            return 0;
        }
        """
        # sum(i*i - 3 for i in 0..5) = 55 - 18 = 37; -3 + 6 + 37 = 40.
        assert outputs(source, promotion=promotion) == [37, 40]

    def test_allocated_code_has_no_vregs(self):
        from repro.ir.instructions import VReg

        module, _stats = allocated_module(PRESSURE_SOURCE, "aggressive")
        for function in module.functions.values():
            for instruction in function.instructions():
                for register in list(instruction.uses()) + list(
                    instruction.defs()
                ):
                    assert not isinstance(register, VReg)

    def test_deterministic_allocation(self):
        results = set()
        for _ in range(3):
            program = compile_source(
                PRESSURE_SOURCE, CompilationOptions(promotion="aggressive")
            )
            results.add(program.run().steps)
        assert len(results) == 1
