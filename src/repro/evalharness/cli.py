"""Command-line entry points.

* ``repro-figure5`` — regenerate the paper's Figure 5 table/chart.
* ``repro-compile`` — compile a MiniC file and dump the annotated IR.
* ``repro-run`` — compile and execute a MiniC file, with cache stats.
"""

import argparse
import functools
import sys

from repro.cache.cache import CacheConfig
from repro.errors import ReproError
from repro.cache.replay import replay_trace
from repro.evalharness.experiment import DEFAULT_CACHE
from repro.evalharness.figure5 import figure5_table, format_figure5
from repro.ir.printer import format_module
from repro.programs import BENCHMARK_NAMES
from repro.unified.pipeline import CompilationOptions, compile_source
from repro.vm.memory import RecordingMemory


def _compile_options(args):
    return CompilationOptions(
        scheme=args.scheme,
        promotion=args.promotion,
        promotion_budget=args.budget,
        kill_bits=not args.no_kill_bits,
        spill_to_cache=not args.spill_bypass,
        bypass_user_refs=not args.hybrid,
        merge_true_aliases=args.merge_true_aliases,
        refine_points_to=args.refine_points_to,
        cache_globals_in_blocks=args.cache_globals,
    )


def _structured_errors(entry):
    """CLI wrapper: structured pipeline errors print one clean line
    (``error [stage]: message``) and exit 1 instead of dumping a
    traceback at the user."""

    @functools.wraps(entry)
    def wrapper(argv=None):
        try:
            return entry(argv)
        except ReproError as error:
            print(
                "error [{}]: {}".format(
                    getattr(error, "stage", "unknown"), error
                ),
                file=sys.stderr,
            )
            return 1

    return wrapper


def _read_source(args, parser):
    """The MiniC source to operate on: a file, stdin, or ``--seed``."""
    if args.seed is not None:
        if args.file is not None:
            parser.error("give either a file or --seed, not both")
        from repro.robustness.generator import generate_program

        return generate_program(args.seed).source
    if args.file is None:
        parser.error("a source file (or --seed N) is required")
    if args.file == "-":
        return sys.stdin.read()
    try:
        return open(args.file).read()
    except OSError as error:
        parser.error("cannot read {}: {}".format(args.file, error.strerror))


def _add_compile_args(parser):
    parser.add_argument(
        "--seed", type=int, default=None,
        help="compile the fuzz generator's program for this seed "
             "instead of reading a file")
    parser.add_argument(
        "--scheme", choices=["unified", "conventional"], default="unified"
    )
    parser.add_argument(
        "--promotion", choices=["none", "modest", "aggressive"],
        default="modest",
    )
    parser.add_argument("--budget", type=int, default=6,
                        help="modest-promotion budget per function")
    parser.add_argument("--no-kill-bits", action="store_true")
    parser.add_argument("--spill-bypass", action="store_true",
                        help="route spills around the cache (ablation)")
    parser.add_argument("--hybrid", action="store_true",
                        help="bypass only register-boundary traffic "
                             "(EXPERIMENTS.md E14)")
    parser.add_argument("--merge-true-aliases", action="store_true",
                        help="rewrite single-target derefs to direct "
                             "references (paper Definition 1)")
    parser.add_argument("--refine-points-to", action="store_true",
                        help="points-to-refined classification")
    parser.add_argument("--cache-globals", action="store_true",
                        help="block-local register caching of "
                             "unambiguous globals")


@_structured_errors
def main_figure5(argv=None):
    parser = argparse.ArgumentParser(
        description="Reproduce Figure 5 of Chi & Dietz (PLDI 1989)."
    )
    parser.add_argument("--paper-scale", action="store_true",
                        help="paper-sized workloads (minutes, not seconds)")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        choices=list(BENCHMARK_NAMES))
    parser.add_argument("--cache-words", type=int,
                        default=DEFAULT_CACHE.size_words)
    parser.add_argument("--associativity", type=int,
                        default=DEFAULT_CACHE.associativity)
    parser.add_argument("--policy", default=DEFAULT_CACHE.policy,
                        choices=["lru", "fifo", "random", "srrip", "brrip",
                                 "drrip", "ship", "hawkeye"])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the benchmark fan-out "
                             "(enables the artifact cache)")
    parser.add_argument("--artifact-cache", default=None, metavar="PATH",
                        help="artifact cache root (default: "
                             "$REPRO_ARTIFACT_CACHE or "
                             "~/.cache/repro/artifacts)")
    parser.add_argument("--no-artifact-cache", action="store_true",
                        help="always compile and trace in-process, even "
                             "with --jobs")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="checkpoint completed benchmarks here; a "
                             "rerun with the same journal resumes from "
                             "completed units bit-identically")
    parser.add_argument("--hierarchy", default=None, metavar="SPEC",
                        help="also print the hierarchy table for this "
                             "geometry (any number of levels), e.g. "
                             "L1:64x2,L2:512x8,L3:4096x16")
    parser.add_argument("--static-predictor", action="store_true",
                        help="also print the static-only hit-ratio "
                             "predictor versus the simulator (exit "
                             "non-zero if an exact prediction disagrees)")
    parser.add_argument("--promotion", default=None,
                        choices=["none", "modest", "aggressive"],
                        help="override the Figure 5 register-promotion "
                             "level (default: the figure's 'modest'; "
                             "'none' exposes the full reference stream, "
                             "where the static predictor decides the "
                             "most benchmarks exactly)")
    args = parser.parse_args(argv)
    cache = CacheConfig(
        size_words=args.cache_words,
        line_words=1,
        associativity=args.associativity,
        policy=args.policy,
    )
    artifact_cache = None
    if not args.no_artifact_cache and (args.jobs or args.artifact_cache):
        from repro.evalharness.artifacts import ArtifactCache

        artifact_cache = ArtifactCache(args.artifact_cache)
    from repro.evalharness.figure5 import figure5_options

    options = figure5_options()
    if args.promotion is not None:
        options = CompilationOptions(
            scheme=options.scheme,
            promotion=args.promotion,
            promotion_budget=options.promotion_budget,
        )
    rows = figure5_table(
        paper_scale=args.paper_scale,
        options=options,
        cache_config=cache,
        names=tuple(args.benchmarks) if args.benchmarks else BENCHMARK_NAMES,
        jobs=args.jobs,
        artifact_cache=artifact_cache,
        journal=args.journal,
    )
    print(format_figure5(rows))
    status = 0
    if args.static_predictor:
        from repro.evalharness.figure5 import (
            format_static_predictor,
            static_predictor_table,
        )

        predictor_rows = static_predictor_table(
            paper_scale=args.paper_scale,
            options=options,
            cache_config=cache,
            names=(tuple(args.benchmarks) if args.benchmarks
                   else BENCHMARK_NAMES),
        )
        print()
        print(format_static_predictor(predictor_rows))
        if not all(row.ok for row in predictor_rows):
            print("FAIL: an exact static prediction disagrees with the "
                  "simulator", file=sys.stderr)
            status = 1
    if args.hierarchy:
        from repro.evalharness.fullreport import hierarchy_table_rows
        from repro.evalharness.sweeps import hierarchy_sweep
        from repro.evalharness.tables import format_table

        names = tuple(args.benchmarks) if args.benchmarks else BENCHMARK_NAMES
        rows = []
        for name in names:
            rows.extend(hierarchy_sweep(
                name, hierarchy=args.hierarchy, base=cache,
                artifact_cache=artifact_cache,
            ))
        print()
        print("hierarchy {} (bypass-level ablation)".format(args.hierarchy))
        header, table_rows = hierarchy_table_rows(rows)
        print(format_table(header, table_rows))
    return status


@_structured_errors
def main_compile(argv=None):
    parser = argparse.ArgumentParser(
        description="Compile MiniC and dump the annotated machine IR."
    )
    parser.add_argument("file", nargs="?", default=None,
                        help="MiniC source file ('-' for stdin)")
    _add_compile_args(parser)
    args = parser.parse_args(argv)
    source = _read_source(args, parser)
    program = compile_source(source, _compile_options(args))
    print(format_module(program.module))
    print()
    print("alias sets:")
    for alias_set in program.alias_sets():
        print("  ", alias_set)
    print()
    for label, value in program.static.rows():
        print("{:28s} {}".format(label, value))
    return 0


@_structured_errors
def main_run(argv=None):
    parser = argparse.ArgumentParser(
        description="Compile and execute MiniC; print output and cache stats."
    )
    parser.add_argument("file", nargs="?", default=None,
                        help="MiniC source file ('-' for stdin)")
    _add_compile_args(parser)
    parser.add_argument("--cache-words", type=int,
                        default=DEFAULT_CACHE.size_words)
    parser.add_argument("--max-steps", type=int, default=None,
                        help="VM fuel budget (ResourceExhausted beyond it)")
    args = parser.parse_args(argv)
    source = _read_source(args, parser)
    program = compile_source(source, _compile_options(args))
    memory = RecordingMemory()
    result = program.run(memory=memory, max_steps=args.max_steps)
    for value in result.output:
        print(value)
    stats = replay_trace(
        memory.buffer,
        size_words=args.cache_words,
        associativity=DEFAULT_CACHE.associativity,
    )
    print("-- executed {} instructions, {} data references".format(
        result.steps, len(memory.buffer)))
    for key, value in stats.as_dict().items():
        print("{:20s} {}".format(key, value))
    return 0
