"""Outside-in span recorder for the end-to-end benchmark.

A traced worker wraps the public functions at each layer boundary of
``repro`` wherever they are bound -- every ``repro.*`` module attribute
that *is* the function, and the class attribute for methods -- with a
stack-based timer.  Nothing under ``src/`` is edited: the program runs
unmodified and the wrappers are installed only in traced workers, which
the benchmark never uses for its end-to-end numbers.

Each span records calls, total time and self time (total minus the time
of spans nested inside it).  The bottom of the stack is the workload
itself, so the time it saw covered by top-level spans, over the
workload's wall time, is ``spans.coverage``.
"""

import functools
import importlib
import sys
import time

#: Marker attribute set on every wrapper (the untraced pristine check).
MARKER = "__e2e_span__"

#: ``(span, module, attribute)``: the function or ``Class.method`` at a
#: layer boundary.  Several functions may share one span name; the
#: per-layer metrics aggregate by span.  Targets missing from the
#: program (a later refactor renamed them) are skipped, never fatal.
TARGETS = (
    ("compile", "repro.unified.pipeline", "compile_source"),
    ("compile.frontend", "repro.lang.parser", "parse_program"),
    ("compile.frontend", "repro.lang.sema", "analyze"),
    ("compile.alias", "repro.analysis.alias", "analyze_aliases"),
    ("compile.regalloc", "repro.regalloc.allocator", "allocate_module"),
    ("compile.annotate", "repro.unified.bypass", "annotate_unified"),
    ("compile.annotate", "repro.unified.bypass", "annotate_conventional"),
    ("vm.run", "repro.unified.pipeline", "CompiledProgram.run"),
    ("tracebuf.summary", "repro.vm.trace", "TraceBuffer.summary"),
    ("tracebuf.from_bytes", "repro.vm.trace", "TraceBuffer.from_bytes"),
    ("tracebuf.set_partition", "repro.vm.trace", "TraceBuffer.set_partition"),
    ("replay.reference", "repro.cache.replay", "replay_trace"),
    ("replay.multi", "repro.cache.replay", "replay_trace_multi"),
    ("replay.sweep", "repro.cache.stackdist", "replay_trace_sweep"),
    ("replay.stackdist", "repro.cache.stackdist", "profile_pass"),
    ("replay.vectorized", "repro.cache.vectorized", "vector_profile_pass"),
    ("replay.lanes", "repro.cache.semantics", "fifo_sweep"),
    ("replay.lanes", "repro.cache.semantics", "random_sweep"),
    ("replay.lanes", "repro.cache.semantics", "min_sweep"),
    ("replay.decode", "repro.cache.semantics", "flavor_decode"),
    ("replay.decode", "repro.cache.semantics", "decode_trace"),
    ("hierarchy.filter", "repro.cache.hierarchy", "filtered_trace"),
    ("hierarchy.stats", "repro.cache.hierarchy", "hierarchy_stats"),
    ("multicore.simulate", "repro.cache.multicore", "simulate_multicore"),
    ("multicore.umon", "repro.cache.multicore", "utility_curves"),
    ("multicore.interleave", "repro.cache.multicore", "interleave_traces"),
    ("static.analyze", "repro.staticcheck.mustmay", "analyze_program"),
    ("static.analyze", "repro.staticcheck.mustmay", "analyze_module"),
    ("static.crossval", "repro.staticcheck.crossval", "cross_validate"),
    ("static.lint", "repro.staticcheck.linter", "lint_module"),
    ("artifacts.resolve", "repro.evalharness.artifacts",
     "ArtifactCache.resolve"),
    ("pool.run_units", "repro.evalharness.parallel", "run_units"),
    ("render", "repro.evalharness.tables", "format_table"),
    ("render", "repro.evalharness.tables", "format_bar_chart"),
    ("render", "repro.evalharness.figure5", "format_figure5"),
)


class Recorder:
    """Span totals and boundary counters for one traced workload."""

    def __init__(self):
        # One frame per open span holding the time of its child spans;
        # frame 0 is the workload itself.
        self.stack = [[0.0]]
        self.spans = {}
        self.counts = {}
        self.resolved_keys = set()

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def covered_s(self):
        """Time the workload spent inside top-level spans."""
        return self.stack[0][0]

    def self_s(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[2]

    def total_s(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[1]

    def calls(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[0]


def _argument(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _after_vm_run(recorder, result, args, kwargs):
    recorder.count("vm.steps", getattr(result, "steps", 0))
    memory = _argument(args, kwargs, 2, "memory")  # (self, entry, memory)
    buffer = getattr(memory, "buffer", None)
    if buffer is not None:
        recorder.count("vm.trace_events", len(buffer))


def _after_multi(recorder, result, args, kwargs):
    recorder.count("replay.multi.specs", len(result))


def _after_sweep(recorder, result, args, kwargs):
    recorder.count("replay.sweep.specs", len(result))


def _before_vector(args, kwargs):
    # ``info`` is the kernel's documented report channel; ask for it
    # when the caller did not, to read the offline/fallback set counts.
    if len(args) <= 6 and kwargs.get("info") is None:
        kwargs = dict(kwargs, info={})
    return kwargs


def _after_vector(recorder, result, args, kwargs):
    info = _argument(args, kwargs, 6, "info") or {}
    recorder.count("replay.vectorized.offline_sets",
                   info.get("offline_sets", 0))
    recorder.count("replay.vectorized.fallback_sets",
                   info.get("fallback_sets", 0))


def _after_resolve(recorder, result, args, kwargs):
    recorder.count("artifacts.hits" if result.from_cache
                   else "artifacts.misses")
    recorder.resolved_keys.add(result.key)


#: Per-span hooks: ``(before(args, kwargs) -> kwargs, after(...))``.
HOOKS = {
    "vm.run": (None, _after_vm_run),
    "replay.multi": (None, _after_multi),
    "replay.sweep": (None, _after_sweep),
    "replay.vectorized": (_before_vector, _after_vector),
    "artifacts.resolve": (None, _after_resolve),
}


def _span(recorder, name, function):
    before, after = HOOKS.get(name, (None, None))
    stack = recorder.stack
    spans = recorder.spans
    clock = time.perf_counter

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if before is not None:
            kwargs = before(args, kwargs)
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            stack[-1][0] += elapsed
            entry = spans.get(name)
            if entry is None:
                entry = spans[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
        if after is not None:
            after(recorder, result, args, kwargs)
        return result

    setattr(wrapper, MARKER, name)
    return wrapper


def _locate(module_name, attribute):
    """``(owner, name, raw)`` for a target, or ``None`` if absent.

    ``raw`` is the object as stored on its owner, so a classmethod is
    returned as the descriptor rather than a bound method.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    if raw is None:
        return None
    return owner, name, raw


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder):
    """Wrap every target in the already-imported program."""
    located = [(span, _locate(module, attribute))
               for span, module, attribute in TARGETS]
    modules = _repro_modules()
    for span, target in located:
        if target is None:
            continue
        owner, name, raw = target
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_span(recorder, span, raw.__func__))
            else:
                wrapped = _span(recorder, span, raw)
            setattr(owner, name, wrapped)
            continue
        wrapped = _span(recorder, span, raw)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)


def snapshot():
    """The raw target objects, for :func:`pristine` to compare."""
    return {
        (module, attribute): target[2]
        for _span_name, module, attribute in TARGETS
        for target in [_locate(module, attribute)]
        if target is not None
    }


def pristine(before):
    """True when no target was replaced and no wrapper is bound."""
    for (module, attribute), raw in before.items():
        target = _locate(module, attribute)
        if target is None or target[2] is not raw:
            return False
    for module in _repro_modules():
        for value in list(vars(module).values()):
            if hasattr(value, MARKER) and callable(value):
                return False
    return True


def layer_metrics(recorder, wall_s):
    """The per-layer metrics one traced workload run yields.

    ``spans.overhead_pct`` and ``host.cpu_s`` need untraced runs too;
    the orchestrator adds them.
    """
    r = recorder
    vm_total = r.total_s("vm.run")
    steps = r.counts.get("vm.steps", 0)
    offline = r.counts.get("replay.vectorized.offline_sets", 0)
    fallback = r.counts.get("replay.vectorized.fallback_sets", 0)
    hits = r.counts.get("artifacts.hits", 0)
    misses = r.counts.get("artifacts.misses", 0)
    resolves = hits + misses
    return {
        "compile.total_s": r.total_s("compile"),
        "compile.calls": r.calls("compile"),
        "compile.frontend.self_s": r.self_s("compile.frontend"),
        "compile.alias.self_s": r.self_s("compile.alias"),
        "compile.regalloc.self_s": r.self_s("compile.regalloc"),
        "compile.annotate.self_s": r.self_s("compile.annotate"),
        "vm.run.self_s": r.self_s("vm.run"),
        "vm.steps": steps,
        "vm.trace_events": r.counts.get("vm.trace_events", 0),
        "vm.steps_per_s": steps / vm_total if vm_total else 0.0,
        "tracebuf.summary.self_s": r.self_s("tracebuf.summary"),
        "tracebuf.from_bytes.self_s": r.self_s("tracebuf.from_bytes"),
        "tracebuf.set_partition.self_s": r.self_s("tracebuf.set_partition"),
        "tracebuf.set_partition.calls": r.calls("tracebuf.set_partition"),
        "replay.reference.self_s": r.self_s("replay.reference"),
        "replay.reference.calls": r.calls("replay.reference"),
        "replay.multi.self_s": r.self_s("replay.multi"),
        "replay.multi.specs": r.counts.get("replay.multi.specs", 0),
        "replay.vectorized.self_s": r.self_s("replay.vectorized"),
        "replay.vectorized.groups": r.calls("replay.vectorized"),
        "replay.vectorized.fallback_sets": fallback,
        "replay.vectorized.offline_set_ratio":
            offline / (offline + fallback) if offline + fallback else 0.0,
        "replay.stackdist.self_s": r.self_s("replay.stackdist"),
        "replay.sweep.self_s": r.self_s("replay.sweep"),
        "replay.sweep.specs": r.counts.get("replay.sweep.specs", 0),
        "replay.lanes.self_s": r.self_s("replay.lanes"),
        "replay.decode.self_s": r.self_s("replay.decode"),
        "hierarchy.filter.self_s": r.self_s("hierarchy.filter"),
        "hierarchy.filter.calls": r.calls("hierarchy.filter"),
        "hierarchy.stats.calls": r.calls("hierarchy.stats"),
        "multicore.simulate.self_s": r.self_s("multicore.simulate"),
        "multicore.umon.self_s": r.self_s("multicore.umon"),
        "multicore.interleave.self_s": r.self_s("multicore.interleave"),
        "static.analyze.self_s": r.self_s("static.analyze"),
        "static.crossval.self_s": r.self_s("static.crossval"),
        "static.lint.self_s": r.self_s("static.lint"),
        "artifacts.resolve.self_s": r.self_s("artifacts.resolve"),
        "artifacts.hits": hits,
        "artifacts.misses": misses,
        "artifacts.hit_ratio": hits / resolves if resolves else 0.0,
        "artifacts.resolves_per_key":
            resolves / len(r.resolved_keys) if r.resolved_keys else 0.0,
        "pool.run_units.self_s": r.self_s("pool.run_units"),
        "render.self_s": r.self_s("render"),
        "spans.coverage": r.covered_s() / wall_s if wall_s else 0.0,
    }
