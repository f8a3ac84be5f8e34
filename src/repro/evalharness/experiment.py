"""Run one benchmark through the whole measurement pipeline.

One VM execution produces one annotated reference trace; the unified
and conventional cache numbers both come from replaying that same
trace (the conventional cache simply ignores the bypass/kill bits,
which yields exactly the reference stream conventional code would
produce, since annotations never change the instruction sequence —
``tests/test_pipeline.py`` locks that invariant).

The evaluation half is factored out of the execution half
(:func:`evaluate_trace`, :func:`evaluate_trace_multi`) so the
compile-once/trace-once engine (:mod:`repro.evalharness.parallel`) can
resolve a stored artifact and score any number of cache geometries
against it without touching the compiler or the VM again.
"""

from dataclasses import dataclass, replace

from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.artifacts import record, resolve
from repro.programs import get_benchmark
from repro.unified.pipeline import CompilationOptions

#: The default simulated data cache: 256 words on chip (the paper's
#: "typical cache implemented on the processor chip contains 128 to 256
#: words"), line size one (Section 1's stated assumption), 4-way LRU.
DEFAULT_CACHE = CacheConfig(size_words=256, line_words=1, associativity=4,
                            policy="lru")


@dataclass
class ExperimentResult:
    """Everything measured for one benchmark under one configuration."""

    name: str
    options: CompilationOptions
    cache_config: CacheConfig
    static: object
    dynamic: dict
    unified_stats: object
    conventional_stats: object
    output: tuple
    steps: int
    #: The static bypass ratio derived independently by the must/may
    #: analysis (:mod:`repro.staticcheck`), or ``None`` when the cache
    #: geometry is outside what the analysis models.  Cross-checks the
    #: annotation pass's own :attr:`StaticReport.percent_bypassed`.
    static_bypass_checked: object = None

    @property
    def static_percent_unambiguous(self):
        return self.static.percent_unambiguous

    @property
    def static_bypass_agrees(self):
        """Do the annotation pass and the static analysis agree on the
        bypass ratio?  ``None`` when the analysis could not run."""
        if self.static_bypass_checked is None:
            return None
        return abs(
            self.static_bypass_checked - self.static.percent_bypassed
        ) < 0.05

    @property
    def dynamic_percent_unambiguous(self):
        if self.dynamic["total"] == 0:
            return 0.0
        return 100.0 * self.dynamic["unambiguous"] / self.dynamic["total"]

    @property
    def cache_traffic_reduction(self):
        return self.unified_stats.cache_traffic_reduction_vs(
            self.conventional_stats
        )

    @property
    def bus_traffic_reduction(self):
        return self.unified_stats.bus_traffic_reduction_vs(
            self.conventional_stats
        )


def conventional_config(cache_config):
    """The same geometry with every annotation bit ignored — the
    conventional-machine baseline of all unified-vs-conventional
    comparisons."""
    return replace(cache_config, honor_bypass=False, honor_kill=False)


def _static_bypass_checked(program, cache_config):
    """Independent derivation of the paper's static bypass claim: the
    must/may analysis re-counts the bypassed sites from the module it
    analyses, so a disagreement with the annotation pass's own
    StaticReport means one of the two mis-reads the annotations."""
    from repro.staticcheck import StaticCheckError
    from repro.staticcheck.mustmay import analyze_module

    try:
        analysis = analyze_module(program.module, program.alias, cache_config)
        return analysis.static_bypass_percent
    except StaticCheckError:
        return None  # geometry outside the model


def evaluate_trace(
    name,
    program,
    trace,
    output,
    steps,
    cache_config=DEFAULT_CACHE,
):
    """Score one recorded trace under one cache geometry.

    This is the reference evaluation path: it replays through the
    online :class:`~repro.cache.cache.Cache` exactly as the original
    serial harness did, so any source of the ``(program, trace)`` pair
    — a fresh VM run or an artifact-cache hit — produces bit-identical
    :class:`ExperimentResult` values.
    """
    unified_stats = replay_trace(trace, cache_config)
    conventional_stats = replay_trace(trace, conventional_config(cache_config))
    return ExperimentResult(
        name=name,
        options=program.options,
        cache_config=cache_config,
        static=program.static,
        dynamic=trace.summary(),
        unified_stats=unified_stats,
        conventional_stats=conventional_stats,
        output=tuple(output),
        steps=steps,
        static_bypass_checked=_static_bypass_checked(program, cache_config),
    )


def evaluate_trace_multi(
    name,
    program,
    trace,
    output,
    steps,
    cache_configs,
):
    """Score one recorded trace under many cache geometries at once.

    The unified and conventional replays of every geometry run through
    the sweep dispatcher
    (:func:`~repro.cache.stackdist.replay_trace_sweep`), which scores
    each spec on the engine the engine table names for it, and the
    dynamic summary is computed once and shared; the per-geometry
    results are bit-identical to calling :func:`evaluate_trace` per
    config (the equivalence battery asserts exactly that).
    """
    specs = []
    for cache_config in cache_configs:
        specs.append(cache_config)
        specs.append(conventional_config(cache_config))
    stats = replay_trace_sweep(trace, specs)
    summary = trace.summary()
    output = tuple(output)
    results = []
    for index, cache_config in enumerate(cache_configs):
        results.append(
            ExperimentResult(
                name=name,
                options=program.options,
                cache_config=cache_config,
                static=program.static,
                dynamic=dict(summary),
                unified_stats=stats[2 * index],
                conventional_stats=stats[2 * index + 1],
                output=output,
                steps=steps,
                static_bypass_checked=_static_bypass_checked(
                    program, cache_config
                ),
            )
        )
    return results


def run_compiled(
    name,
    program,
    expected_output=None,
    cache_config=DEFAULT_CACHE,
):
    """Trace an already-compiled program and simulate both schemes."""
    artifact = record(name, program, expected_output)
    return evaluate_trace(
        name,
        program,
        artifact.trace,
        artifact.output,
        artifact.steps,
        cache_config=cache_config,
    )


def run_benchmark(
    name,
    paper_scale=False,
    options=None,
    cache_config=DEFAULT_CACHE,
    artifact_cache=None,
):
    """Compile and measure one named benchmark.

    The trace comes from :func:`~repro.evalharness.artifacts.resolve`:
    compiled, recorded and output-checked in-process, or, with
    ``artifact_cache`` (an
    :class:`~repro.evalharness.artifacts.ArtifactCache`), at most once
    per annotation configuration across every run sharing that store.
    Either way it is scored by the reference :func:`evaluate_trace`.
    """
    bench = get_benchmark(name, paper_scale)
    artifact = resolve(bench.name, bench.source, options,
                       bench.expected_output, artifact_cache)
    return evaluate_trace(
        bench.name,
        artifact.program,
        artifact.trace,
        artifact.output,
        artifact.steps,
        cache_config=cache_config,
    )
