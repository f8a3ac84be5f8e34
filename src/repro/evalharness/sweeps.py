"""Ablation sweeps for the design decisions called out in DESIGN.md.

Every function returns a list of plain dict rows so the pytest
benchmarks and the examples can both render or assert on them.

Each sweep obtains its reference trace once (compile + VM run, or an
:class:`~repro.evalharness.artifacts.ArtifactCache` hit) and scores
every configuration of the battery through the single-pass
sweep dispatcher (:func:`~repro.cache.stackdist.replay_trace_sweep`):
LRU geometries inside the stack-distance model share one profiling
pass per flavor, and every other policy (LRU outside the model
included) one lane walk per flavor — either way the
per-configuration cost is far below a full compile-run-replay
pipeline.
"""

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import hierarchy_stats, parse_hierarchy
from repro.cache.replay import MinConfig
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.experiment import DEFAULT_CACHE, run_benchmark
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.unified.pipeline import CompilationOptions, compile_source
from repro.vm.memory import RecordingMemory


def _trace_for(name, paper_scale=False, options=None, artifact_cache=None):
    """Compile + run once, returning the annotated trace.

    Defaults to the Figure 5 configuration so every sweep measures the
    same reference stream the headline experiment uses.  With
    ``artifact_cache`` the compile and VM run resolve through the
    on-disk artifact store instead.
    """
    from repro.evalharness.figure5 import figure5_options

    bench = get_benchmark(name, paper_scale)
    options = options or figure5_options()
    if artifact_cache is not None:
        artifact = artifact_cache.resolve(
            bench.name, bench.source, options,
            expected_output=bench.expected_output,
        )
        return artifact.trace, artifact.program
    program = compile_source(bench.source, options)
    memory = RecordingMemory()
    result = program.run(memory=memory)
    assert tuple(result.output) == bench.expected_output, (
        name, result.output, bench.expected_output)
    return memory.buffer, program


def _variant(config, **overrides):
    values = {
        "size_words": config.size_words,
        "line_words": config.line_words,
        "associativity": config.associativity,
        "policy": config.policy,
        "honor_bypass": config.honor_bypass,
        "honor_kill": config.honor_kill,
        "kill_mode": config.kill_mode,
        "write_policy": config.write_policy,
        "allocate_on_write": config.allocate_on_write,
        "seed": config.seed,
    }
    values.update(overrides)
    return CacheConfig(**values)


def cache_size_sweep(
    name,
    sizes=(64, 128, 256, 512, 1024, 4096),
    base=DEFAULT_CACHE,
    paper_scale=False,
    options=None,
    artifact_cache=None,
):
    """Unified-vs-conventional across cache sizes (Section 2.2)."""
    trace, _program = _trace_for(name, paper_scale, options, artifact_cache)
    specs = []
    for size in sizes:
        specs.append(_variant(base, size_words=size))
        specs.append(
            _variant(base, size_words=size, honor_bypass=False,
                     honor_kill=False)
        )
    stats = replay_trace_sweep(trace, specs)
    rows = []
    for index, size in enumerate(sizes):
        unified = stats[2 * index]
        baseline = stats[2 * index + 1]
        rows.append(
            {
                "benchmark": name,
                "size_words": size,
                "unified_miss_rate": unified.miss_rate,
                "conventional_miss_rate": baseline.miss_rate,
                "cache_traffic_reduction":
                    unified.cache_traffic_reduction_vs(baseline),
                "bus_traffic_reduction":
                    unified.bus_traffic_reduction_vs(baseline),
            }
        )
    return rows


def policy_ablation(
    name,
    policies=("lru", "fifo", "random", "min"),
    base=DEFAULT_CACHE,
    paper_scale=False,
    options=None,
    artifact_cache=None,
):
    """The dead-line modification applied to each policy (Section 3.2)."""
    trace, _program = _trace_for(name, paper_scale, options, artifact_cache)
    cells = []
    specs = []
    for policy in policies:
        for honor_kill in (True, False):
            if policy == "min":
                specs.append(
                    MinConfig(
                        size_words=base.size_words,
                        line_words=base.line_words,
                        associativity=base.associativity,
                        honor_kill=honor_kill,
                    )
                )
            else:
                specs.append(
                    _variant(base, policy=policy, honor_kill=honor_kill)
                )
            cells.append((policy, honor_kill))
    all_stats = replay_trace_sweep(trace, specs)
    rows = []
    for (policy, honor_kill), stats in zip(cells, all_stats):
        rows.append(
            {
                "benchmark": name,
                "policy": policy,
                "kill_bits": honor_kill,
                "miss_rate": stats.miss_rate,
                "misses": stats.misses,
                "writebacks": stats.writebacks,
                "dead_drops": stats.dead_drops,
                "bus_words": stats.bus_words,
            }
        )
    return rows


#: The E17 policy zoo: the paper's baseline plus the predictive
#: lineage (docs/POLICIES.md).  BRRIP rides along inside DRRIP.
ZOO_POLICIES = ("lru", "srrip", "drrip", "ship", "hawkeye")

#: The zoo members that predict reuse in hardware (everything but the
#: LRU baseline) — the "prediction alone" side of the E17 headline.
ZOO_PREDICTIVE = ("srrip", "drrip", "ship", "hawkeye")

#: E17's geometry, shared with the golden pin and the cost benchmark:
#: at 64 words / 4-way every benchmark outgrows the cache, so
#: replacement decisions (and the compiler's kill bits) have real
#: work to do; at the 256-word default the policies barely separate.
ZOO_GEOMETRY = CacheConfig(size_words=64, line_words=1, associativity=4)


def policy_zoo_sweep(
    name,
    policies=ZOO_POLICIES,
    base=DEFAULT_CACHE,
    paper_scale=False,
    options=None,
    artifact_cache=None,
):
    """E17: hardware reuse prediction vs. compiler reuse knowledge.

    Each policy replays the same annotated trace twice: once
    *conventional* (annotation bits ignored — prediction alone) and
    once *unified* (bypass and kill honored — prediction plus the
    compiler's liveness).  One :func:`replay_trace_sweep` call scores
    the whole grid: the LRU pairs ride the stack-distance kernel and
    the predictive policies the RRIP lane walk
    (:func:`~repro.cache.semantics.rrip_sweep`).
    """
    trace, _program = _trace_for(name, paper_scale, options, artifact_cache)
    cells = []
    specs = []
    for policy in policies:
        for scheme in ("conventional", "unified"):
            honor = scheme == "unified"
            specs.append(
                _variant(
                    base, policy=policy,
                    honor_bypass=honor, honor_kill=honor,
                )
            )
            cells.append((policy, scheme))
    all_stats = replay_trace_sweep(trace, specs)
    rows = []
    for (policy, scheme), stats in zip(cells, all_stats):
        rows.append(
            {
                "benchmark": name,
                "policy": policy,
                "scheme": scheme,
                "hit_rate": stats.hit_rate,
                "miss_rate": stats.miss_rate,
                "hits": stats.hits,
                "misses": stats.misses,
                "refs_cached": stats.refs_cached,
                "dead_drops": stats.dead_drops,
                "bus_words": stats.bus_words,
            }
        )
    return rows


def kill_bit_ablation(name, base=DEFAULT_CACHE, paper_scale=False,
                      sizes=(32, 64, 128, 256),
                      modes=("invalidate", "demote", "off"), options=None,
                      artifact_cache=None):
    """Kill bits on/off and invalidate-vs-demote (Section 3.2).

    Small caches make the LRU-decay waste visible: without kill bits a
    dead line occupies a slot for O(associativity) further misses.
    One row per ``(size, mode)`` cell, sizes outermost; ``modes`` picks
    among ``"invalidate"``, ``"demote"`` and ``"off"``.
    """
    trace, _program = _trace_for(name, paper_scale, options, artifact_cache)
    cells = []
    specs = []
    for size in sizes:
        for mode in modes:
            specs.append(
                _variant(
                    base,
                    size_words=size,
                    honor_kill=mode != "off",
                    kill_mode=mode if mode != "off" else "invalidate",
                )
            )
            cells.append((size, mode))
    all_stats = replay_trace_sweep(trace, specs)
    rows = []
    for (size, mode), stats in zip(cells, all_stats):
        rows.append(
            {
                "benchmark": name,
                "size_words": size,
                "kill_mode": mode,
                "miss_rate": stats.miss_rate,
                "misses": stats.misses,
                "writebacks": stats.writebacks,
                "dead_drops": stats.dead_drops,
                "dead_line_frees": stats.dead_line_frees,
                "bus_words": stats.bus_words,
            }
        )
    return rows


#: A kernel with twenty simultaneously-live values: graph coloring must
#: spill on any realistic register file.  The benchmark programs'
#: functions are all small enough to color without spilling, so the
#: spill experiment needs its own workload.
SPILL_KERNEL = """
int main() {
    int a; int b; int c; int d; int e; int f; int g; int h;
    int i; int j; int k; int l; int m; int n; int o; int p;
    int q; int r; int s; int t;
    int round;
    for (round = 0; round < 200; round++) {
        a = round + 1;  b = a + 1;  c = b + 1;  d = c + 1;
        e = d + 1;      f = e + 1;  g = f + 1;  h = g + 1;
        i = h + 1;      j = i + 1;  k = j + 1;  l = k + 1;
        m = l + 1;      n = m + 1;  o = n + 1;  p = o + 1;
        q = p + 1;      r = q + 1;  s = r + 1;  t = s + 1;
        print(a + b + c + d + e + f + g + h + i + j
              + k + l + m + n + o + p + q + r + s + t
              + a * t + b * s + c * r + d * q + e * p
              + f * o + g * n + h * m + i * l + j * k);
    }
    return 0;
}
"""


def spill_ablation(name="pressure-kernel", base=DEFAULT_CACHE,
                   paper_scale=False, num_regs=8, artifact_cache=None):
    """Spill-to-cache vs spill-bypass (Section 4.2).

    Compiles for a small register file (default 8 registers) with
    aggressive promotion so graph coloring genuinely spills, then
    routes the spill/save traffic through the cache (the paper's
    choice) or around it.  ``name`` may be a benchmark name or the
    default built-in pressure kernel.
    """
    from repro.ir.instructions import MachineConfig

    machine = MachineConfig(num_regs=num_regs,
                            num_caller_saved=num_regs // 2)
    if name == "pressure-kernel":
        source = SPILL_KERNEL
    else:
        source = get_benchmark(name, paper_scale).source
    rows = []
    for spill_to_cache in (True, False):
        options = CompilationOptions(
            scheme="unified",
            promotion="aggressive",
            machine=machine,
            spill_to_cache=spill_to_cache,
        )
        if artifact_cache is not None:
            artifact = artifact_cache.resolve(name, source, options)
            trace = artifact.trace
        else:
            program = compile_source(source, options)
            memory = RecordingMemory()
            program.run(memory=memory)
            trace = memory.buffer
        (stats,) = replay_trace_sweep(trace, [base])
        summary = trace.summary()
        rows.append(
            {
                "benchmark": name,
                "spill_to_cache": spill_to_cache,
                "refs_cached": stats.refs_cached,
                "refs_bypassed": stats.refs_bypassed,
                "miss_rate": stats.miss_rate,
                "bus_words": stats.bus_words,
                "spill_refs": summary["by_origin"]["spill"],
                "save_refs": summary["by_origin"]["callee_save"],
            }
        )
    return rows


def promotion_ablation(name, base=DEFAULT_CACHE, paper_scale=False,
                       levels=("none", "modest", "aggressive"),
                       artifact_cache=None):
    """Classification fractions vs allocator aggressiveness."""
    rows = []
    for level in levels:
        options = CompilationOptions(scheme="unified", promotion=level)
        result = run_benchmark(
            name, paper_scale=paper_scale, options=options, cache_config=base,
            artifact_cache=artifact_cache,
        )
        rows.append(
            {
                "benchmark": name,
                "promotion": level,
                "static_percent_unambiguous":
                    result.static_percent_unambiguous,
                "dynamic_percent_unambiguous":
                    result.dynamic_percent_unambiguous,
                "cache_traffic_reduction": result.cache_traffic_reduction,
                "dynamic_refs": result.dynamic["total"],
                "steps": result.steps,
            }
        )
    return rows


#: Default two-level geometry for the hierarchy ablation: a small
#: 64-word 2-way L1 (where bypass pressure is visible) backed by a
#: 512-word 8-way L2, nested so the inclusive discipline is scorable.
DEFAULT_HIERARCHY = "L1:64x2,L2:512x8"

#: The three-level variant the golden-pin matrix covers: a paper-scale
#: L1 under a mid L2 and a 4K-word 16-way last level.
DEFAULT_HIERARCHY3 = "L1:64x2,L2:512x8,L3:4096x16"


def hierarchy_sweep(
    name,
    hierarchy=DEFAULT_HIERARCHY,
    base=DEFAULT_CACHE,
    inclusions=("non-inclusive", "inclusive"),
    bypass_levels=("l1", "both"),
    paper_scale=False,
    options=None,
    artifact_cache=None,
):
    """L1/L2 hierarchy scores with the bypass-level ablation.

    For each inclusion discipline and each ``bypass_level`` the
    benchmark's reference trace is scored through
    :func:`~repro.cache.hierarchy.hierarchy_stats`; the row set
    answers *which level the compiler's bypassed references skip*:
    comparing ``bypass_level="l1"`` against ``"both"`` isolates the
    L2 consequences of routing ``UmAm_*`` traffic around the whole
    hierarchy versus around the first level only.
    """
    trace, _program = _trace_for(name, paper_scale, options, artifact_cache)
    rows = []
    for inclusion in inclusions:
        for bypass_level in bypass_levels:
            spec = parse_hierarchy(
                hierarchy, base=base,
                inclusion=inclusion, bypass_level=bypass_level,
            )
            row = hierarchy_stats(trace, spec).as_dict()
            row["benchmark"] = name
            rows.append(row)
    return rows


#: Private-L1 and shared-level geometries for the E18 contention
#: experiment: each core keeps the paper-scale 64-word 2-way first
#: level; the contended level is the E16 L2 (512 words, 8 ways — room
#: for meaningful way partitions).
MULTICORE_L1 = CacheConfig(size_words=64, line_words=1, associativity=2)
MULTICORE_SHARED = CacheConfig(size_words=512, line_words=1,
                               associativity=8)

#: Default E18 core groupings: two contrasting pairs (a blocked
#: compute kernel against a streaming scan, and the two recursive
#: benchmarks) plus a four-core mix.
MULTICORE_PAIRINGS = (
    ("intmm", "sieve"),
    ("queen", "towers"),
    ("bubble", "intmm", "puzzle", "sieve"),
)


def multicore_sweep(
    names,
    l1=MULTICORE_L1,
    shared=MULTICORE_SHARED,
    partition="umon",
    seed=0,
    chunk=8,
    paper_scale=False,
    options=None,
    artifact_cache=None,
):
    """E18 rows: one core grouping through the kill/partitioning grid.

    ``names`` lists the benchmarks acting as cores; their reference
    traces are interleaved once and replayed under every
    :data:`~repro.cache.multicore.MULTICORE_CONFIGS` cell, so the four
    rows differ only in the two levers (kill bits, way quotas).
    ``partition`` picks the quota policy for the partitioned cells:
    ``"umon"`` (utility-monitor greedy allocation) or ``"even"``.
    """
    from repro.cache.hierarchy import HierarchyError
    from repro.cache.multicore import (
        even_partition,
        multicore_grid,
        utility_curves,
        utility_partition,
    )

    traces = [
        _trace_for(name, paper_scale, options, artifact_cache)[0]
        for name in names
    ]
    if partition == "umon":
        curves = utility_curves(traces, l1, shared)
        quotas = utility_partition(curves, shared.associativity)
    elif partition == "even":
        quotas = even_partition(len(names), shared.associativity)
    else:
        raise HierarchyError(
            "unknown partition policy {!r} "
            "(expected 'umon' or 'even')".format(partition)
        )
    grid = multicore_grid(traces, l1, shared, quotas,
                          seed=seed, chunk=chunk, names=names)
    rows = []
    for config, result in grid.items():
        row = result.as_dict()
        row["config"] = config
        row["partition"] = partition
        rows.append(row)
    return rows


def _sweep_worker(payload):
    """Top-level worker for :func:`all_benchmarks_sweep` fan-out."""
    from repro.errors import failure_record
    from repro.evalharness.artifacts import ArtifactCache

    sweep_name, name, artifact_root, kwargs, capture = payload
    sweep = globals()[sweep_name]
    if artifact_root:
        kwargs = dict(kwargs, artifact_cache=ArtifactCache(artifact_root))
    if not capture:
        return "ok", sweep(name, **kwargs)
    try:
        return "ok", sweep(name, **kwargs)
    except Exception as error:  # noqa: BLE001 - serialized as a record
        return "error", failure_record(sweep_name, name, error)


def all_benchmarks_sweep(sweep, names=BENCHMARK_NAMES, failures=None,
                         jobs=None, artifact_cache=None, **kwargs):
    """Apply one of the sweeps above to every benchmark.

    With ``failures`` (a list), a benchmark that breaks is recorded
    there and skipped instead of aborting the whole sweep; without it,
    errors propagate.  ``jobs`` fans the per-benchmark sweeps out over
    a process pool (the sweep must be one of this module's functions so
    workers can resolve it by name); ``artifact_cache`` lets every
    benchmark resolve its trace from the on-disk store.
    """
    from repro.errors import failure_record

    if jobs and jobs > 1:
        from repro.evalharness.parallel import pool_map

        sweep_name = sweep.__name__
        if globals().get(sweep_name) is not sweep:
            raise ValueError(
                "all_benchmarks_sweep(jobs=N) requires one of the "
                "module-level sweeps, got {!r}".format(sweep)
            )
        root = artifact_cache.root if artifact_cache is not None else None
        capture = failures is not None
        payloads = [
            (sweep_name, name, root, kwargs, capture) for name in names
        ]
        rows = []
        for status, value in pool_map(_sweep_worker, payloads, jobs=jobs):
            if status == "ok":
                rows.extend(value)
            else:
                failures.append(value)
        return rows

    if artifact_cache is not None:
        kwargs = dict(kwargs, artifact_cache=artifact_cache)
    rows = []
    for name in names:
        try:
            rows.extend(sweep(name, **kwargs))
        except Exception as error:  # noqa: BLE001 - recorded, reported
            if failures is None:
                raise
            failures.append(
                failure_record(getattr(sweep, "__name__", "sweep"), name, error)
            )
    return rows
