"""The superinstruction (fused-run) fast table versus the oracle.

:meth:`Machine._fuse_block` compiles maximal straight-line runs of
register ops and loads/stores — optionally closed by one control op,
with Jump targets threaded through — into single exec-generated
handlers.  This suite holds the fused table to the same bar as the
closure compiler, under both memory bindings the fused bodies know
(``Machine._memory_plan``: the inlined recording one, and the per-site
binding through ``MemorySystem.bind_site`` of flat memory, a streaming
cache, the static-analysis validator, the static predictor, the
data-carrying cache and a memory system that implements only
``read``/``write``): identical observable behaviour to
:class:`ReferenceMachine`, which calls ``read``/``write`` per event
(return value, output, steps, registers, memory, traces, cache stats,
audits, predictions), exact fuel accounting at exhaustion, and an
untouched per-instruction path whenever an ``instruction_sink`` needs
to see every fetch.  The per-instruction handlers bind every memory
system through ``bind_site``, ``RecordingMemory``'s own included.  The
validator compiles each RefInfo's audit once and looks no plan up
while the program runs.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.functional import DataCachedMemory
from repro.ir.instructions import Load, Store
from repro.lang.errors import ResourceExhausted, VMError
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.staticcheck.crossval import ValidatingMemory
from repro.staticcheck.mustmay import analyze_program
from repro.staticcheck.predictor import PredictingMemory
from repro.unified.pipeline import CompilationOptions, compile_source
from repro.vm import machine as machine_mod
from repro.vm.machine import Machine
from repro.vm.memory import FlatMemory, MemorySystem, RecordingMemory
from repro.vm.reference import ReferenceMachine

AGGRESSIVE = CompilationOptions(scheme="unified", promotion="aggressive")
NONE = CompilationOptions(scheme="unified", promotion="none")

#: The geometry the per-site bindings simulate: ``repro-analyze
#: --check``'s small one, where bypasses, kills and evictions all bite.
CACHE = CacheConfig(size_words=64, associativity=2)


class _UnfusedMachine(Machine):
    """A Machine with fusion disabled: only the per-instruction closure
    table, each Load/Store bound through ``bind_site``."""

    _enable_fusion = False


def _flat(program):
    memory = FlatMemory()
    return memory, lambda: {"words": memory.words}


def _recording(program):
    memory = RecordingMemory()
    return memory, lambda: {
        "words": memory.flat.words, "trace": list(memory.buffer),
    }


def _validating(program):
    memory = ValidatingMemory(analyze_program(program, CACHE))
    return memory, lambda: {
        "words": memory.flat.words,
        "stats": memory.cache.stats,
        "audits": (memory.events_total, memory.events_classified,
                   memory.event_tiers),
        "mismatches": [
            (m.site, m.address, m.event_index, m.predicted, m.present)
            for m in memory.mismatches
        ],
    }


def _predicting(program):
    memory = PredictingMemory(analyze_program(program, CACHE, exact=True))
    return memory, lambda: {
        "words": memory.flat.words,
        "predicted": (memory.hits, memory.misses, memory.refs_total,
                      memory.refs_bypassed, memory.unpredicted,
                      list(memory.unpredicted_sites.items())),
    }


def _data_cached(program):
    memory = DataCachedMemory(CACHE)

    def observe():
        memory.flush()
        return {"stats": memory.stats, "main": memory.main}

    return memory, observe


class ReadWriteOnlyMemory(MemorySystem):
    """Implements only ``read``/``write``: the VM binds it through the
    default :meth:`MemorySystem.bind_site`."""

    def __init__(self):
        self.words = {}
        self.log = []

    def read(self, address, ref):
        self.log.append((address, id(ref), ref.bypass, ref.kill))
        return self.words.get(address, 0)

    def write(self, address, value, ref):
        self.log.append((address, id(ref), value))
        self.words[address] = value

    def poke(self, address, value):
        self.words[address] = value

    def peek(self, address):
        return self.words.get(address, 0)


def _read_write_only(program):
    memory = ReadWriteOnlyMemory()
    return memory, lambda: {"words": memory.words, "log": memory.log}


class StreamingMemory(FlatMemory):
    """Flat memory that feeds an online cache per event through
    ``read``/``write`` alone: ``sink.access(address, is_write, bypass,
    kill)``, as :class:`~repro.cache.cache.Cache` takes it."""

    def __init__(self, sink):
        super().__init__()
        self.sink = sink

    def read(self, address, ref):
        self.sink.access(address, False, ref.bypass, ref.kill)
        return self.words.get(address, 0)

    def write(self, address, value, ref):
        self.sink.access(address, True, ref.bypass, ref.kill)
        self.words[address] = value


def _streaming(program):
    memory = StreamingMemory(Cache(CACHE))
    return memory, lambda: {
        "words": memory.words, "stats": memory.sink.stats,
    }


#: One memory per way the VM binds memory: ``(memory, observe)``
#: factories, ``observe()`` returning what the run left in the memory
#: system.  Recording has its own ``bind_site`` and the fused bodies'
#: inlined binding; flat, streaming, predicting, data-cached and
#: read-write-only run through the default ``bind_site``, validating
#: through its memoized one.
BINDINGS = {
    "flat": _flat,
    "recording": _recording,
    "streaming": _streaming,
    "validating": _validating,
    "predicting": _predicting,
    "data-cached": _data_cached,
    "read-write-only": _read_write_only,
}


def _run(cls, program, max_steps=None, memory=None):
    vm = cls(program.module, memory=memory,
             machine=program.options.machine)
    result = vm.run(max_steps=max_steps)
    return vm, result


def assert_equivalent(source, options=None, binding="recording"):
    program = compile_source(source, options or CompilationOptions())
    runs = []
    for cls in (Machine, _UnfusedMachine, ReferenceMachine):
        memory, observe = BINDINGS[binding](program)
        vm, result = _run(cls, program, memory=memory)
        runs.append((vm, observe(), result))
    (vm_a, seen_a, res_a) = runs[0]
    assert vm_a._fast_handlers is not None
    for vm_b, seen_b, res_b in runs[1:]:
        assert res_a.return_value == res_b.return_value
        assert res_a.output == res_b.output
        assert res_a.steps == res_b.steps
        assert vm_a.regs == vm_b.regs
        assert seen_a == seen_b


@pytest.fixture(params=sorted(BINDINGS))
def binding(request):
    return request.param


class TestObservableEquivalence:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmark_aggressive(self, name):
        """Aggressive promotion fuses the longest register runs
        (locals live in registers)."""
        assert_equivalent(get_benchmark(name).source, AGGRESSIVE)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("binding", sorted(set(BINDINGS) - {"recording"}))
    def test_benchmark_aggressive_bindings(self, name, binding):
        assert_equivalent(get_benchmark(name).source, AGGRESSIVE, binding)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmark_no_promotion(self, name, binding):
        """No promotion leaves every scalar reference in memory, so
        nearly every fused op is a Load/Store."""
        assert_equivalent(get_benchmark(name).source, NONE, binding)

    @pytest.mark.parametrize("name", ["sieve", "towers"])
    @pytest.mark.parametrize("promotion", ["none", "modest", "aggressive"])
    def test_promotion_levels(self, name, promotion):
        assert_equivalent(
            get_benchmark(name).source,
            CompilationOptions(scheme="unified", promotion=promotion),
        )

    @pytest.mark.parametrize("seed", [5, 23, 47, 101])
    def test_generated_program(self, seed):
        from repro.robustness.generator import generate_program

        assert_equivalent(generate_program(seed).source, AGGRESSIVE)

    @pytest.mark.parametrize("seed", [5, 23, 47, 101])
    @pytest.mark.parametrize("options", [AGGRESSIVE, NONE],
                             ids=["aggressive", "none"])
    def test_generated_program_bindings(self, seed, options, binding):
        from repro.robustness.generator import generate_program

        assert_equivalent(generate_program(seed).source, options, binding)

    def test_tight_self_loop_threads_correctly(self):
        """A block whose Jump closes back on itself — the thread pass
        unrolls one partial iteration and must stay exact."""
        source = """
        int main() {
            int i;
            int acc;
            i = 0;
            acc = 0;
            while (i < 1000) {
                acc = acc + i * 3 - 1;
                i = i + 1;
            }
            print(acc);
            return acc;
        }
        """
        assert_equivalent(source, AGGRESSIVE)


class TestFuelAccounting:
    LOOP = "int main() { while (1) { } return 0; }"

    def test_exhaustion_clamps_to_budget_plus_one(self):
        """The fast loop charges a whole run up front; on overrun it
        must report exhaustion exactly like the per-step loops do."""
        program = compile_source(self.LOOP, AGGRESSIVE)
        for cls in (Machine, _UnfusedMachine, ReferenceMachine):
            vm = cls(program.module, machine=program.options.machine)
            with pytest.raises(ResourceExhausted, match="exceeded 500 steps"):
                vm.run(max_steps=500)
            assert vm.steps == 501, cls.__name__

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 50, 499, 5003])
    def test_exhaustion_agrees_at_every_budget(self, budget):
        """A run that would overrun the budget executes op by op up to
        it: at promotion none, whose runs hold loads and stores, the
        partial trace and words match the oracle's too."""
        for options in (AGGRESSIVE, NONE):
            program = compile_source(get_benchmark("sieve").source, options)
            outcomes = []
            for cls in (Machine, ReferenceMachine):
                memory = RecordingMemory()
                vm = cls(program.module, memory=memory,
                         machine=program.options.machine)
                try:
                    result = vm.run(max_steps=budget)
                    outcome = ("done", result.steps, result.return_value)
                except ResourceExhausted:
                    outcome = ("exhausted", vm.steps, None)
                outcomes.append((outcome, vm.regs, list(memory.buffer),
                                 memory.flat.words))
            assert outcomes[0] == outcomes[1], options.promotion

    def test_successful_run_step_counts_match(self):
        program = compile_source(get_benchmark("towers").source, AGGRESSIVE)
        fused = _run(Machine, program)[1].steps
        unfused = _run(_UnfusedMachine, program)[1].steps
        assert fused == unfused


class TestErrorEquivalence:
    WILD = """
    int a[4];
    int main() {
        int i;
        int s;
        i = 3;
        s = a[i];
        a[i] = s + 1;
        i = i * 10000000;
        a[i] = 5;
        return s;
    }
    """

    def _raised(self, cls, program, memory):
        vm = cls(program.module, memory=memory,
                 machine=program.options.machine)
        with pytest.raises((VMError, ResourceExhausted)) as info:
            vm.run()
        return str(info.value), vm.regs

    @pytest.mark.parametrize("options", [AGGRESSIVE, NONE],
                             ids=["aggressive", "none"])
    def test_wild_access_mid_run(self, options, binding):
        """A wild address inside a fused run raises the handler's
        message after the run's earlier ops took effect."""
        program = compile_source(self.WILD, options)
        seen = []
        for cls in (Machine, _UnfusedMachine, ReferenceMachine):
            memory, observe = BINDINGS[binding](program)
            message, regs = self._raised(cls, program, memory)
            seen.append((message, regs, observe()))
        assert "wild memory access" in seen[0][0]
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("cap", [1, 2, 5, 40])
    def test_trace_cap_mid_run(self, cap):
        """The trace cap raises from inside a fused run, after exactly
        the events the oracle recorded."""
        program = compile_source(get_benchmark("sieve").source, NONE)
        seen = []
        for cls in (Machine, ReferenceMachine):
            memory = RecordingMemory(max_events=cap)
            message, regs = self._raised(cls, program, memory)
            seen.append((message, regs, list(memory.buffer),
                         memory.flat.words))
        assert "trace buffer exceeded" in seen[0][0]
        assert seen[0] == seen[1]

    def test_division_by_zero_mid_run(self):
        """A trap raised from inside a fused run surfaces as the same
        VMError the scalar handler raises."""
        source = """
        int main() {
            int a;
            int b;
            a = 7;
            b = a - 7;
            a = a + 1;
            a = a / b;
            return a;
        }
        """
        program = compile_source(source, AGGRESSIVE)
        for cls in (Machine, _UnfusedMachine):
            vm = cls(program.module, machine=program.options.machine)
            with pytest.raises(VMError, match="division by zero"):
                vm.run()


class TestSinkGating:
    def test_sink_sees_every_instruction(self):
        """Fetch tracing must see the per-instruction stream, so a
        sinked Machine skips fusion entirely and matches the oracle."""
        program = compile_source(get_benchmark("towers").source, AGGRESSIVE)
        streams = []
        for cls in (Machine, ReferenceMachine):
            fetched = []
            vm = cls(program.module, machine=program.options.machine,
                     instruction_sink=fetched.append)
            vm.run()
            streams.append(fetched)
        assert streams[0] == streams[1]

    def test_sinked_machine_builds_no_fast_table(self):
        program = compile_source(get_benchmark("sieve").source, AGGRESSIVE)
        vm = Machine(program.module, machine=program.options.machine,
                     instruction_sink=lambda address: None)
        assert vm._fast_handlers is None
        assert vm._costs is None


class _CountingPlan(dict):
    """A plan mapping that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def _memory_refs(module):
    return {
        id(ins.ref)
        for function in module.functions.values()
        for ins in function.instructions()
        if isinstance(ins, (Load, Store))
    }


class TestSiteBinding:
    @pytest.mark.parametrize("options", [AGGRESSIVE, NONE],
                             ids=["aggressive", "none"])
    def test_validator_looks_up_no_plan_during_run(self, options):
        """Every plan lookup happens while the machine is built; the
        run itself only calls the bound closures."""
        program = compile_source(get_benchmark("queen").source, options)
        memory = ValidatingMemory(analyze_program(program, CACHE))
        memory._plan = plan = _CountingPlan(memory._plan)
        vm = Machine(program.module, memory=memory,
                     machine=program.options.machine)
        built = plan.lookups
        assert built == len(_memory_refs(program.module))
        vm.run()
        assert memory.events_total > 0
        assert plan.lookups == built

    @pytest.mark.parametrize("options", [AGGRESSIVE, NONE],
                             ids=["aggressive", "none"])
    def test_each_ref_is_bound_once(self, options):
        """Jump threading emits a site in several fused bodies, and
        each site also has its per-instruction handler, but the
        validator compiles each RefInfo's audit once."""
        program = compile_source(get_benchmark("towers").source, options)
        memory = ValidatingMemory(analyze_program(program, CACHE))
        compiled = Counter()
        compile_site = memory._compile_site

        def counting_compile(ref):
            compiled[id(ref)] += 1
            return compile_site(ref)

        memory._compile_site = counting_compile
        emitted = Counter()
        fuse_site = machine_mod._FUSE_MEMORY["site"]

        def counting_fuse(ins, a, value, site, bind):
            emitted[id(ins.ref)] += 1
            return fuse_site(ins, a, value, site, bind)

        with mock.patch.dict(machine_mod._FUSE_MEMORY,
                             {"site": counting_fuse}):
            Machine(program.module, memory=memory,
                    machine=program.options.machine)
        assert set(compiled) == _memory_refs(program.module)
        assert set(compiled.values()) == {1}
        assert max(emitted.values()) >= 2

    def test_bits_are_read_when_the_machine_is_built(self):
        """A validated site's bypass/kill bits are fixed once its
        machine exists: flipping them afterwards changes nothing the
        bound audit does, and a validator and machine built after the
        flip see it."""
        program = compile_source(get_benchmark("towers").source, NONE)
        refs = [
            ins.ref
            for function in program.module.functions.values()
            for ins in function.instructions()
            if isinstance(ins, (Load, Store)) and ins.ref.bypass
        ]
        assert refs

        def stats(flip_after_build):
            memory = ValidatingMemory(analyze_program(program, CACHE))
            vm = Machine(program.module, memory=memory,
                         machine=program.options.machine)
            if flip_after_build:
                for ref in refs:
                    ref.bypass = False
            try:
                vm.run()
            finally:
                for ref in refs:
                    ref.bypass = True
            return memory.cache.stats

        before = stats(False)
        assert stats(True) == before
        for ref in refs:
            ref.bypass = False
        try:
            after = stats(False)
        finally:
            for ref in refs:
                ref.bypass = True
        assert after.refs_bypassed == 0 < before.refs_bypassed


class TestRecordingBinding:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("options", [AGGRESSIVE, NONE],
                             ids=["aggressive", "none"])
    def test_only_the_reference_calls_read_or_write(self, name, options):
        """The VM reaches a RecordingMemory through its ``bind_site``
        and the fused bodies' inlined binding, never through the
        per-event ``read``/``write``, which only the reference
        interpreter calls.  Without the override the default
        ``bind_site`` would call them a frame deeper, and E10's
        recorder, whose every data event takes this binding, would
        slow down."""
        bench = get_benchmark(name)
        program = compile_source(bench.source, options)

        def refuse(self, *args):
            raise AssertionError("per-event read/write called")

        def build(cls, **kwargs):
            return cls(program.module, memory=RecordingMemory(),
                       machine=program.options.machine, **kwargs)

        with mock.patch.object(RecordingMemory, "read", refuse), \
                mock.patch.object(RecordingMemory, "write", refuse):
            for vm in (build(Machine), build(_UnfusedMachine),
                       build(Machine, instruction_sink=lambda a: None)):
                assert tuple(vm.run().output) == bench.expected_output
                assert len(vm.memory.buffer) > 0
            with pytest.raises(AssertionError, match="read/write called"):
                build(ReferenceMachine).run()


class TestLifetime:
    @pytest.mark.parametrize("binding", sorted(BINDINGS))
    def test_machine_is_freed_without_the_cycle_collector(self, binding):
        """The handlers share a frame object, not the Machine, so a
        dropped machine frees its memory system and trace at once."""
        import gc
        import weakref

        program = compile_source(get_benchmark("towers").source, NONE)
        memory, _observe = BINDINGS[binding](program)
        gc.disable()
        try:
            vm = Machine(program.module, memory=memory,
                         machine=program.options.machine)
            vm.run()
            machine_ref = weakref.ref(vm)
            memory_ref = weakref.ref(memory)
            del vm, memory, _observe
            assert machine_ref() is None
            assert memory_ref() is None
        finally:
            gc.enable()


class TestFastTableStructure:
    def test_overlay_layout(self):
        """Fused handlers overlay run heads; every slot still holds a
        callable, and costs are >= 2 exactly at the overlaid heads."""
        program = compile_source(get_benchmark("intmm").source, AGGRESSIVE)
        vm = Machine(program.module, machine=program.options.machine)
        assert vm._fast_handlers is not None
        assert len(vm._fast_handlers) == len(vm._handlers)
        assert len(vm._costs) == len(vm._handlers)
        fused_heads = [
            index for index, cost in enumerate(vm._costs) if cost > 1
        ]
        assert fused_heads, "aggressive intmm must fuse something"
        for index, handler in enumerate(vm._fast_handlers):
            assert callable(handler)
            if vm._costs[index] == 1:
                assert handler is vm._handlers[index]

    def test_reference_machine_opts_out(self):
        program = compile_source(get_benchmark("sieve").source, AGGRESSIVE)
        vm = ReferenceMachine(program.module,
                              machine=program.options.machine)
        assert vm._fast_handlers is None

    def test_fused_code_cache_is_bounded_and_reused(self):
        """A second build of the same modules, under every binding,
        re-uses the cached factories: sites and memory callables are
        factory arguments, never source text."""
        programs = [
            compile_source(get_benchmark(name).source, options)
            for name in BENCHMARK_NAMES
            for options in (AGGRESSIVE, NONE)
        ]

        def build_all():
            for program in programs:
                for make in BINDINGS.values():
                    memory, _observe = make(program)
                    Machine(program.module, memory=memory,
                            machine=program.options.machine)

        build_all()
        before = len(machine_mod._FUSED_CODE_CACHE)
        assert 0 < before <= machine_mod._FUSED_CODE_CACHE_LIMIT
        build_all()
        assert len(machine_mod._FUSED_CODE_CACHE) == before

    def test_memory_ops_fuse(self):
        """At promotion none a fused run holds loads and stores: the
        fast table retires the program in far fewer dispatches."""
        program = compile_source(get_benchmark("sieve").source, NONE)
        vm = Machine(program.module, memory=RecordingMemory(),
                     machine=program.options.machine)
        heads = [cost for cost in vm._costs if cost > 1]
        assert heads and max(heads) >= 8
