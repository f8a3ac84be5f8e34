"""The end-to-end compilation pipeline.

``compile_source`` runs, in order:

1. frontend (lex, parse, type-check);
2. IR lowering to memory-resident TAC + CFG construction;
3. interprocedural alias analysis (points-to + alias sets);
4. promotion and register allocation (policy per options);
5. reference classification against the alias facts;
6. bypass/kill annotation — unified model or conventional baseline.

The result can be executed directly (:meth:`CompiledProgram.run`) with
any memory system.
"""

from dataclasses import dataclass, replace
from enum import Enum, unique

from repro.analysis.alias import analyze_aliases
from repro.errors import pipeline_stage
from repro.ir.builder import build_module
from repro.ir.cfg import build_cfg
from repro.ir.instructions import MACHINE
from repro.ir.validate import verify_annotations, verify_module
from repro.lang.parser import parse_program
from repro.lang.sema import analyze
from repro.regalloc.allocator import allocate_module
from repro.regalloc.promotion import DEFAULT_MODEST_BUDGET, PromotionLevel
from repro.unified.bypass import annotate_conventional, annotate_unified
from repro.unified.classify import classify_references
from repro.unified.report import static_report
from repro.vm.machine import Machine


@unique
class Scheme(Enum):
    """Which management model the emitted code targets."""

    UNIFIED = "unified"
    CONVENTIONAL = "conventional"

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        return cls(value)


@dataclass
class CompilationOptions:
    """Everything that varies between pipeline configurations."""

    scheme: object = Scheme.UNIFIED
    promotion: object = PromotionLevel.MODEST
    promotion_budget: int = DEFAULT_MODEST_BUDGET
    machine: object = MACHINE
    kill_bits: bool = True
    spill_to_cache: bool = True
    refine_points_to: bool = False
    #: Keep unambiguous global scalars in registers between calls
    #: within each basic block (repro.regalloc.blockopt).  Off by
    #: default: the Figure 5 calibration models era codegen without it.
    cache_globals_in_blocks: bool = False
    #: False selects the hybrid refinement: only spill/callee-save
    #: traffic bypasses; source-level unambiguous references stay
    #: through-cache but keep their kill bits.
    bypass_user_refs: bool = True
    #: Apply Definition 1 user-name merging: rewrite dereferences of
    #: single-target pointers into direct references, letting refined
    #: classification recover the target as unambiguous.
    merge_true_aliases: bool = False

    def normalized(self):
        return replace(
            self,
            scheme=Scheme.parse(self.scheme),
            promotion=PromotionLevel.parse(self.promotion),
        )


class CompiledProgram:
    """A fully compiled, annotated, executable module."""

    def __init__(self, module, alias_analysis, allocation_stats, options):
        self.module = module
        self.alias = alias_analysis
        self.allocation_stats = allocation_stats
        self.options = options
        self.static = static_report(module)

    def machine(self, memory=None, **kwargs):
        """A fresh VM for this program."""
        return Machine(
            self.module, memory=memory, machine=self.options.machine, **kwargs
        )

    def run(self, entry="main", memory=None, globals_init=None, **kwargs):
        """Execute ``entry`` and return the :class:`ExecutionResult`."""
        vm = self.machine(memory=memory, **kwargs)
        if globals_init:
            for name, value in globals_init.items():
                if isinstance(value, (list, tuple)):
                    for index, element in enumerate(value):
                        vm.set_global(name, element, index)
                else:
                    vm.set_global(name, value)
        return vm.run(entry)

    def alias_sets(self):
        return self.alias.alias_sets()


def compile_source(source, options=None, filename="<minic>"):
    """Compile MiniC ``source`` under ``options``; see module docstring."""
    options = (options or CompilationOptions()).normalized()

    with pipeline_stage("frontend"):
        analyzed = analyze(parse_program(source, filename))
    with pipeline_stage("lower"):
        module = build_module(analyzed, options.machine)
        for function in module.functions.values():
            build_cfg(function)
        verify_module(module)

    with pipeline_stage("alias"):
        alias_analysis = analyze_aliases(module, options.refine_points_to)
        if options.merge_true_aliases:
            from repro.analysis.deref_merge import merge_true_aliases

            merge_true_aliases(module, alias_analysis)
    if options.cache_globals_in_blocks:
        with pipeline_stage("blockopt"):
            from repro.regalloc.blockopt import cache_globals_module

            cache_globals_module(module, alias_analysis)
            for function in module.functions.values():
                build_cfg(function)
    with pipeline_stage("regalloc"):
        allocation_stats = allocate_module(
            module,
            alias_analysis,
            options.machine,
            promotion=options.promotion,
            budget=options.promotion_budget,
        )
    with pipeline_stage("classify"):
        classify_references(module, alias_analysis)
    with pipeline_stage("annotate"):
        if options.scheme is Scheme.UNIFIED:
            annotate_unified(
                module,
                alias_analysis,
                kill_bits=options.kill_bits,
                spill_to_cache=options.spill_to_cache,
                bypass_user_refs=options.bypass_user_refs,
            )
        else:
            annotate_conventional(module)
    with pipeline_stage("verify"):
        verify_annotations(module)
        verify_module(module, allocated=True, machine=options.machine)
    return CompiledProgram(module, alias_analysis, allocation_stats, options)
