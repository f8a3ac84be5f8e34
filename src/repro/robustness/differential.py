"""Differential execution: one program, every configuration.

A fuzzed program is only interesting evidence if we extract every
agreement the design promises.  :func:`check_source` compiles one
MiniC program under the full cross-product of annotation scheme and
promotion level (plus the hybrid and alias-merging refinements) and
asserts:

* **Functional equivalence** — every configuration prints the same
  output and returns the same value (and matches the generator's
  Python model when one is supplied).  Register promotion and
  bypass/kill annotation must never change observable semantics.
* **Event-stream agreement** — at equal promotion, the unified and
  conventional schemes execute the *same instructions*: identical step
  counts, identical data-address streams, identical read/write
  pattern.  Only the bypass/kill bits may differ, because annotation
  is metadata, not code motion.
* **Cache-model agreement** — on the unified/aggressive trace, the
  data-carrying functional cache produces the same program output,
  the same final memory as flat memory, and *exactly* the same
  statistics as the tag-only simulator replaying the recorded trace.
* **Engine agreement** — one sweep-dispatcher call scores the unified,
  annotation-blind, MIN, FIFO, Random, predictive-zoo and
  outside-the-model LRU configurations of the same trace, and each
  result reproduces its serial replay bit-identically.  Every fast
  engine of the engine table (:func:`repro.cache.stackdist.engines_for`)
  runs: the set-major kernel for LRU, and the lane sweeps for FIFO,
  Random, MIN, the RRIP family (SRRIP/BRRIP/DRRIP/SHiP/Hawkeye) and
  the LRU outside the stack-distance model (demoted kills,
  write-around).  A mismatch names the engine that scored the spec.
* **Superinstruction agreement** — the fused closure VM
  (:meth:`repro.vm.machine.Machine._fuse_block`) re-runs the heaviest
  configuration through the per-step
  :class:`~repro.vm.reference.ReferenceMachine` and must match it on
  output, return value, step count, and the full annotated reference
  trace; every fuzzed program thereby exercises the superinstruction
  compiler's run detection, jump threading, and fuel accounting.
* **Hierarchy agreement** — the offline non-inclusive L1/L2 scorer
  (:func:`repro.cache.hierarchy.hierarchy_stats`) is bit-identical to
  the online chained :class:`~repro.cache.hierarchy.HierarchyCache`
  for both bypass levels, and the inclusive discipline's derived
  local counters stay within their invariants.
* **MIN sanity** — Belady MIN on the same trace agrees with LRU on
  every policy-independent counter and never misses more than LRU.
* **Static-analysis agreement** — the :mod:`repro.staticcheck`
  must/may classifier is sound on this program: the annotation linter
  reports no violations, and replaying representative configurations
  under two cache geometries contradicts no *always-hit*/*always-miss*
  claim.  Every fuzzed program thereby validates the static analysis.

Violations raise :class:`DifferentialError` with a ``kind`` tag so the
fuzz driver can bucket failures; static-analysis failures raise
:class:`repro.staticcheck.StaticCheckError` (stage ``staticcheck``)
so reduced reproducers distinguish analysis unsoundness from pipeline
bugs.
"""

from dataclasses import replace

from repro.cache.cache import CacheConfig
from repro.cache.functional import DataCachedMemory
from repro.cache.hierarchy import (
    HierarchyCache,
    hierarchy_stats,
    parse_hierarchy,
)
from repro.cache.replay import replay_trace
from repro.cache.semantics import flag_presence
from repro.cache.stackdist import engines_for, replay_trace_sweep
from repro.errors import ReproError
from repro.regalloc.promotion import PromotionLevel
from repro.unified.pipeline import CompilationOptions, Scheme, compile_source
from repro.vm.memory import RecordingMemory
from repro.vm.trace import FLAG_WRITE, IS_BYPASS, IS_KILL, IS_WRITE

#: Fuel budget for each fuzzed run; generated programs are tiny, so a
#: run that gets anywhere near this is itself a bug.
DEFAULT_FUZZ_MAX_STEPS = 5_000_000

#: Counters that depend only on the reference stream's flags, never on
#: the replacement policy — MIN and LRU must agree on all of them.
POLICY_INDEPENDENT_COUNTERS = (
    "refs_total",
    "reads",
    "writes",
    "refs_cached",
    "refs_bypassed",
    "bypass_writes",
    "kills",
)


class DifferentialError(ReproError):
    """Two configurations (or models) disagreed about one program."""

    stage = "differential"

    def __init__(self, kind, message):
        self.kind = kind
        super().__init__("[{}] {}".format(kind, message))


def _configs():
    """(name, options) pairs covering the scheme/promotion matrix."""
    pairs = []
    for promotion in (
        PromotionLevel.NONE,
        PromotionLevel.MODEST,
        PromotionLevel.AGGRESSIVE,
    ):
        for scheme in (Scheme.UNIFIED, Scheme.CONVENTIONAL):
            name = "{}/{}".format(scheme.value, promotion.value)
            pairs.append(
                (
                    name,
                    CompilationOptions(scheme=scheme, promotion=promotion),
                )
            )
    pairs.append(
        (
            "hybrid/aggressive",
            CompilationOptions(
                scheme=Scheme.UNIFIED,
                promotion=PromotionLevel.AGGRESSIVE,
                bypass_user_refs=False,
            ),
        )
    )
    pairs.append(
        (
            "merged/aggressive",
            CompilationOptions(
                scheme=Scheme.UNIFIED,
                promotion=PromotionLevel.AGGRESSIVE,
                refine_points_to=True,
                merge_true_aliases=True,
            ),
        )
    )
    return pairs


class _Run:
    __slots__ = ("name", "options", "program", "result", "trace", "words")

    def __init__(self, name, options, program, result, memory):
        self.name = name
        self.options = options
        self.program = program
        self.result = result
        self.trace = memory.buffer
        self.words = memory.flat.words


def _write_pattern(trace):
    return [flags & FLAG_WRITE for flags in trace.flags]


def check_source(
    source,
    expected_output=None,
    expected_return=None,
    max_steps=DEFAULT_FUZZ_MAX_STEPS,
    cache_words=16,
    associativity=2,
):
    """Run every differential assertion over ``source``.

    Returns a summary dict (config count, trace length) on success;
    raises :class:`DifferentialError` on any disagreement.  Compile
    and VM errors propagate unchanged, already stage-tagged.
    """
    runs = []
    for name, options in _configs():
        program = compile_source(source, options)
        memory = RecordingMemory()
        result = program.run(memory=memory, max_steps=max_steps)
        runs.append(_Run(name, options, program, result, memory))

    baseline = runs[0]
    if expected_output is not None:
        if baseline.result.output != list(expected_output):
            raise DifferentialError(
                "model-output",
                "{} printed {!r}, model predicted {!r}".format(
                    baseline.name, baseline.result.output, list(expected_output)
                ),
            )
    if expected_return is not None:
        if baseline.result.return_value != expected_return:
            raise DifferentialError(
                "model-return",
                "{} returned {!r}, model predicted {!r}".format(
                    baseline.name, baseline.result.return_value, expected_return
                ),
            )

    for run in runs[1:]:
        if run.result.output != baseline.result.output:
            raise DifferentialError(
                "output-mismatch",
                "{} printed {!r} but {} printed {!r}".format(
                    run.name,
                    run.result.output,
                    baseline.name,
                    baseline.result.output,
                ),
            )
        if run.result.return_value != baseline.result.return_value:
            raise DifferentialError(
                "return-mismatch",
                "{} returned {!r} but {} returned {!r}".format(
                    run.name,
                    run.result.return_value,
                    baseline.name,
                    baseline.result.return_value,
                ),
            )

    by_name = {run.name: run for run in runs}
    stream_pairs = [
        ("unified/{}".format(level), "conventional/{}".format(level))
        for level in ("none", "modest", "aggressive")
    ]
    stream_pairs.append(("unified/aggressive", "hybrid/aggressive"))
    for left_name, right_name in stream_pairs:
        left, right = by_name[left_name], by_name[right_name]
        if left.result.steps != right.result.steps:
            raise DifferentialError(
                "step-mismatch",
                "{} took {} steps, {} took {}".format(
                    left_name,
                    left.result.steps,
                    right_name,
                    right.result.steps,
                ),
            )
        if left.trace.addresses != right.trace.addresses:
            raise DifferentialError(
                "address-stream",
                "{} and {} disagree on the data-address stream "
                "({} vs {} events)".format(
                    left_name, right_name, len(left.trace), len(right.trace)
                ),
            )
        if _write_pattern(left.trace) != _write_pattern(right.trace):
            raise DifferentialError(
                "write-pattern",
                "{} and {} disagree on which references are writes".format(
                    left_name, right_name
                ),
            )

    _check_cache_models(
        by_name["unified/aggressive"], baseline, cache_words, associativity
    )
    # Aggressive promotion fuses the longest register runs; none fuses
    # runs of loads and stores.
    for name in ("unified/aggressive", "unified/none"):
        _check_superinstructions(by_name[name], max_steps)
    static_events = _check_static_analysis(
        runs, by_name, cache_words, associativity
    )
    return {
        "configs": len(runs),
        "trace_events": len(by_name["unified/aggressive"].trace),
        "steps": baseline.result.steps,
        "static_checked_events": static_events,
    }


#: Configurations whose programs get the static must/may treatment in
#: every fuzz iteration: full memory traffic (none), the heaviest
#: annotation mix (aggressive), the conventional baseline (exercises
#: the must analysis), and the points-to-refined variant (exercises
#: the refined classification the linter leans on).
STATIC_CHECKED_CONFIGS = (
    "unified/none",
    "unified/aggressive",
    "conventional/none",
    "merged/aggressive",
)


def _check_static_analysis(runs, by_name, cache_words, associativity):
    """Lint every configuration; cross-validate representative ones
    under two geometries.  Raises ``StaticCheckError`` on failure."""
    from repro.staticcheck import StaticCheckError, cross_validate, lint_module

    for run in runs:
        violations = lint_module(run.program.module, run.program.alias)
        if violations:
            raise StaticCheckError(
                "lint",
                "{}: {} annotation violation(s); first: {}".format(
                    run.name, len(violations), violations[0]
                ),
            )

    geometries = (
        CacheConfig(
            size_words=cache_words,
            line_words=1,
            associativity=associativity,
            policy="lru",
        ),
        CacheConfig(size_words=256, line_words=1, associativity=4,
                    policy="lru"),
    )
    checked = 0
    for name in STATIC_CHECKED_CONFIGS:
        run = by_name[name]
        for index, geometry in enumerate(geometries):
            # The exact refinement runs on the first (fuzz-chosen)
            # geometry with a small budget: every exact-hit/-miss/
            # -persistent verdict it mints on generator programs gets
            # audited per event by the same validator, and budget
            # exhaustion must degrade gracefully rather than fail.
            report = cross_validate(
                run.program,
                geometry,
                max_steps=run.result.steps + 1,
                raise_on_mismatch=True,
                exact=index == 0,
                exact_budget=20_000,
            )
            checked += report.events_classified
    return checked


def _check_cache_models(run, baseline, cache_words, associativity):
    config = CacheConfig(
        size_words=cache_words,
        line_words=1,
        associativity=associativity,
        policy="lru",
    )

    functional = DataCachedMemory(config)
    result = run.program.run(
        memory=functional, max_steps=run.result.steps + 1
    )
    if result.output != baseline.result.output:
        raise DifferentialError(
            "functional-output",
            "data cache printed {!r}, flat memory printed {!r}".format(
                result.output, baseline.result.output
            ),
        )
    if result.return_value != baseline.result.return_value:
        raise DifferentialError(
            "functional-return",
            "data cache returned {!r}, flat memory returned {!r}".format(
                result.return_value, baseline.result.return_value
            ),
        )

    functional.flush()
    for address in set(run.words) | set(functional.main):
        flat_value = run.words.get(address, 0)
        cached_value = functional.main.get(address, 0)
        if flat_value != cached_value:
            raise DifferentialError(
                "functional-memory",
                "after flush, address {} holds {} under the data cache "
                "but {} under flat memory".format(
                    address, cached_value, flat_value
                ),
            )

    replayed = replay_trace(run.trace, config)
    if functional.stats.as_dict() != replayed.as_dict():
        diff = {
            key: (functional.stats.as_dict()[key], replayed.as_dict()[key])
            for key in functional.stats.as_dict()
            if functional.stats.as_dict()[key] != replayed.as_dict().get(key)
        }
        raise DifferentialError(
            "stats-mismatch",
            "functional cache and tag-only replay disagree: {!r}".format(diff),
        )

    min_config = replace(config, policy="min")
    min_stats = replay_trace(run.trace, min_config)
    lru = replayed.as_dict()
    minimum = min_stats.as_dict()
    for counter in POLICY_INDEPENDENT_COUNTERS:
        if minimum[counter] != lru[counter]:
            raise DifferentialError(
                "min-counter",
                "MIN and LRU disagree on policy-independent counter "
                "{}: {} vs {}".format(counter, minimum[counter], lru[counter]),
            )
    if min_stats.misses > replayed.misses:
        raise DifferentialError(
            "min-not-optimal",
            "MIN missed {} times, LRU only {}".format(
                min_stats.misses, replayed.misses
            ),
        )

    blind = CacheConfig(
        size_words=cache_words,
        line_words=1,
        associativity=associativity,
        policy="lru",
        honor_bypass=False,
        honor_kill=False,
    )
    fifo = CacheConfig(
        size_words=cache_words,
        line_words=1,
        associativity=associativity,
        policy="fifo",
    )
    # LRU outside the stack-distance model: the LRU lane sweep's specs.
    demote = replace(config, kill_mode="demote")
    write_around = replace(config, allocate_on_write=False)
    serial = {
        "unified": lru,
        "conventional": replay_trace(run.trace, blind).as_dict(),
        "min": minimum,
        "fifo": replay_trace(run.trace, fifo).as_dict(),
        "demote": replay_trace(run.trace, demote).as_dict(),
        "write-around": replay_trace(run.trace, write_around).as_dict(),
    }
    labels = ("unified", "conventional", "min", "fifo", "demote",
              "write-around")
    battery = [config, blind, min_config, fifo, demote, write_around]
    # The predictive-policy axis: random plus the whole zoo, each
    # replayed serially and held to the batch engines below.
    for zoo_policy in ("random", "srrip", "brrip", "drrip", "ship",
                       "hawkeye"):
        zoo_config = CacheConfig(
            size_words=cache_words,
            line_words=1,
            associativity=associativity,
            policy=zoo_policy,
        )
        serial[zoo_policy] = replay_trace(run.trace, zoo_config).as_dict()
        labels = labels + (zoo_policy,)
        battery.append(zoo_config)
    # The whole battery in one sweep call, held to the serial path.
    presence = flag_presence(run.trace.to_columns())
    swept = replay_trace_sweep(run.trace, battery)
    for label, spec, stats in zip(labels, battery, swept):
        if stats.as_dict() != serial[label]:
            name = engines_for(spec, *presence)[0]
            diff = {
                key: (stats.as_dict()[key], serial[label][key])
                for key in serial[label]
                if stats.as_dict().get(key) != serial[label][key]
            }
            raise DifferentialError(
                name,
                "{} and serial replay disagree on the {} "
                "configuration: {!r}".format(name, label, diff),
            )

    _check_hierarchy(run, cache_words, associativity)


def _check_superinstructions(run, max_steps):
    """The fused closure VM versus the per-step reference oracle.

    ``run`` already executed through :class:`~repro.vm.machine.Machine`
    with superinstruction fusion on; re-running its module through
    :class:`~repro.vm.reference.ReferenceMachine` must reproduce the
    printed output, return value, step count, and the entire annotated
    reference trace bit for bit.
    """
    from repro.vm.reference import ReferenceMachine

    memory = RecordingMemory()
    vm = ReferenceMachine(
        run.program.module,
        memory=memory,
        machine=run.program.options.machine,
    )
    result = vm.run(max_steps=max_steps)
    if (
        result.output != run.result.output
        or result.return_value != run.result.return_value
        or result.steps != run.result.steps
    ):
        raise DifferentialError(
            "superinstruction",
            "fused VM and reference interpreter disagree on {}: "
            "output {!r}/{!r}, return {!r}/{!r}, steps {}/{}".format(
                run.name,
                run.result.output, result.output,
                run.result.return_value, result.return_value,
                run.result.steps, result.steps,
            ),
        )
    if (
        memory.buffer.addresses != run.trace.addresses
        or list(memory.buffer.flags) != list(run.trace.flags)
    ):
        raise DifferentialError(
            "superinstruction-trace",
            "fused VM and reference interpreter disagree on the "
            "reference trace of {} ({} vs {} events)".format(
                run.name, len(run.trace), len(memory.buffer)
            ),
        )


def _check_hierarchy(run, cache_words, associativity):
    """The L1/L2 scorers agree with the online chained model."""
    spec_text = "L1:{}x{},L2:{}x{}".format(
        cache_words, associativity, cache_words * 8, associativity * 2
    )
    for bypass_level in ("l1", "both"):
        spec = parse_hierarchy(spec_text, bypass_level=bypass_level)
        offline = hierarchy_stats(run.trace, spec)
        online = HierarchyCache(spec)
        for address, flags in run.trace:
            online.access(
                address, IS_WRITE[flags], IS_BYPASS[flags], IS_KILL[flags]
            )
        online_stats = online.stats()
        for name, stats in offline.levels:
            if stats.as_dict() != online_stats[name].as_dict():
                diff = {
                    key: (stats.as_dict()[key],
                          online_stats[name].as_dict()[key])
                    for key in stats.as_dict()
                    if stats.as_dict()[key]
                    != online_stats[name].as_dict().get(key)
                }
                raise DifferentialError(
                    "hierarchy",
                    "offline non-inclusive scorer and online chained "
                    "hierarchy disagree at {} (bypass_level={}): "
                    "{!r}".format(name, bypass_level, diff),
                )

        inclusive = hierarchy_stats(
            run.trace,
            parse_hierarchy(
                spec_text, inclusion="inclusive", bypass_level=bypass_level
            ),
        )
        if inclusive.levels[0][1] != offline.levels[0][1]:
            raise DifferentialError(
                "hierarchy-l1",
                "the L1 score must not depend on the inclusion "
                "discipline (bypass_level={})".format(bypass_level),
            )
        row = inclusive.as_dict()
        if row["l2_local_hits"] < 0:
            raise DifferentialError(
                "hierarchy-inclusion",
                "inclusive L2 served fewer references than L1 "
                "(local hits {}), violating inclusion".format(
                    row["l2_local_hits"]
                ),
            )
        if not 0.0 <= row["l2_local_miss_rate"] <= 1.0:
            raise DifferentialError(
                "hierarchy-inclusion",
                "inclusive L2 local miss rate {} out of range".format(
                    row["l2_local_miss_rate"]
                ),
            )
