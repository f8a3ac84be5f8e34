"""The five end-to-end workloads and their correctness checks.

Each workload is a batch job a user of the reproduction runs, sized so
one repeat takes a few seconds.  ``run(seed, store, smoke)`` returns
``(exit_code, payload)``: the payload is the command's output (report
text without its "generated in" line, or the sweep rows), and its
digest is what ``expected.json`` pins per seed.  The warm workloads
read their traces from an artifact store that set-up fills; the cold
ones compile and trace from scratch, as a user's first run does.

Only the standard library is imported here at module level, so the
worker decides when ``repro`` is imported (the start-to-ready time).
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, replace

#: The cache bases of ``lru-sweep-warm``: 1-, 4- and 16-way
#: write-back, plus 4-way write-through, over the default 256-word LRU.
LRU_BASES = (
    ("1-way", {"associativity": 1}),
    ("4-way", {}),
    ("16-way", {"associativity": 16}),
    ("4-way-writethrough", {"write_policy": "writethrough"}),
)
LRU_SIZES = (64, 256, 1024, 4096)

#: Benchmark subsets: the warm workloads draw on intmm, queen and
#: towers (a blocked kernel and the two recursive programs), sized so
#: one repeat stays near three seconds and a 20-second run holds three
#: or more; ``smoke`` shrinks every list to about one benchmark.
FULL = {
    "lru": ("intmm", "queen", "towers"),
    "zoo": ("intmm", "queen"),
    "ablation": ("intmm", "queen", "towers"),
    "hierarchy": ("intmm", "queen"),
    "multicore": ("queen", "towers"),
    "check": None,
}
SMOKE = {
    "lru": ("queen",),
    "zoo": ("queen",),
    "ablation": ("queen",),
    "hierarchy": ("queen",),
    "multicore": ("puzzle", "queen"),
    "check": "queen",
}


def subsets(smoke):
    return SMOKE if smoke else FULL


def digest(payload):
    """SHA-256 of a payload: text as is, rows as canonical JSON."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _captured(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _store(store):
    from repro.evalharness.artifacts import ArtifactCache

    return ArtifactCache(store)


def _trace(cache, name):
    """A benchmark's Figure 5 trace, resolved through the store."""
    from repro.evalharness.figure5 import figure5_options
    from repro.programs import get_benchmark

    bench = get_benchmark(name)
    return cache.resolve(bench.name, bench.source, figure5_options(),
                         expected_output=bench.expected_output).trace


def fill(store, names):
    """Set-up of a warm workload: compile and trace into the store."""
    cache = _store(store)
    for name in names:
        _trace(cache, name)


# ----------------------------------------------------------------------
# report-fast-cold


def run_report(seed, store, smoke):
    from repro.evalharness.fullreport import main

    code, text = _captured(main, ["--fast", "--seed", str(seed)])
    kept = [line for line in text.splitlines()
            if not line.startswith("(generated in")]
    return code, "\n".join(kept)


# ----------------------------------------------------------------------
# analyze-check


def run_check(seed, store, smoke):
    from repro.staticcheck.cli import main

    argv = ["--check", "--geometry", "64:2"]
    benchmark = subsets(smoke)["check"]
    if benchmark:
        argv += ["--benchmark", benchmark]
    return _captured(main, argv)


# ----------------------------------------------------------------------
# lru-sweep-warm


def _lru_base(label):
    from repro.evalharness.experiment import DEFAULT_CACHE

    return replace(DEFAULT_CACHE, **dict(LRU_BASES)[label])


def run_lru(seed, store, smoke):
    from repro.evalharness.sweeps import all_benchmarks_sweep, cache_size_sweep

    cache = _store(store)
    rows = []
    for label, _overrides in LRU_BASES:
        for row in all_benchmarks_sweep(
            cache_size_sweep, names=subsets(smoke)["lru"],
            sizes=LRU_SIZES, base=_lru_base(label), artifact_cache=cache,
        ):
            rows.append(dict(row, base=label))
    return 0, rows


def oracle_lru(rows, seed, store, k):
    from repro.cache.replay import replay_trace

    cache = _store(store)
    mismatches = []
    for row in _sample(rows, seed, k):
        config = replace(_lru_base(row["base"]), size_words=row["size_words"])
        trace = _trace(cache, row["benchmark"])
        unified = replay_trace(trace, config)
        conventional = replay_trace(
            trace, replace(config, honor_bypass=False, honor_kill=False))
        expected = {
            "unified_miss_rate": unified.miss_rate,
            "conventional_miss_rate": conventional.miss_rate,
            "cache_traffic_reduction":
                unified.cache_traffic_reduction_vs(conventional),
            "bus_traffic_reduction":
                unified.bus_traffic_reduction_vs(conventional),
        }
        mismatches += _differences(row, expected)
    return mismatches


# ----------------------------------------------------------------------
# policy-sweep-warm


def _ablation_base(seed):
    from repro.evalharness.experiment import DEFAULT_CACHE

    return replace(DEFAULT_CACHE, seed=seed)


def run_policy(seed, store, smoke):
    from repro.evalharness.sweeps import (
        ZOO_GEOMETRY,
        all_benchmarks_sweep,
        policy_ablation,
        policy_zoo_sweep,
    )

    cache = _store(store)
    rows = [
        dict(row, sweep="zoo")
        for row in all_benchmarks_sweep(
            policy_zoo_sweep, names=subsets(smoke)["zoo"],
            base=ZOO_GEOMETRY, artifact_cache=cache,
        )
    ]
    rows += [
        dict(row, sweep="ablation")
        for row in all_benchmarks_sweep(
            policy_ablation, names=subsets(smoke)["ablation"],
            policies=("fifo", "random", "min"), base=_ablation_base(seed),
            artifact_cache=cache,
        )
    ]
    return 0, rows


def oracle_policy(rows, seed, store, k):
    from repro.cache.replay import replay_trace
    from repro.evalharness.sweeps import ZOO_GEOMETRY

    cache = _store(store)
    mismatches = []
    for row in _sample(rows, seed, k):
        trace = _trace(cache, row["benchmark"])
        if row["sweep"] == "zoo":
            honor = row["scheme"] == "unified"
            stats = replay_trace(trace, replace(
                ZOO_GEOMETRY, policy=row["policy"],
                honor_bypass=honor, honor_kill=honor))
            fields = ("hit_rate", "miss_rate", "hits", "misses",
                      "refs_cached", "dead_drops", "bus_words")
        else:
            base = _ablation_base(seed)
            if row["policy"] == "min":
                stats = replay_trace(
                    trace, policy="min", size_words=base.size_words,
                    line_words=base.line_words,
                    associativity=base.associativity,
                    honor_kill=row["kill_bits"])
            else:
                stats = replay_trace(trace, replace(
                    base, policy=row["policy"], honor_kill=row["kill_bits"]))
            fields = ("miss_rate", "misses", "writebacks", "dead_drops",
                      "bus_words")
        mismatches += _differences(
            row, {field: getattr(stats, field) for field in fields})
    return mismatches


# ----------------------------------------------------------------------
# hierarchy-multicore-warm


def run_hierarchy(seed, store, smoke):
    from repro.evalharness.sweeps import (
        DEFAULT_HIERARCHY3,
        all_benchmarks_sweep,
        hierarchy_sweep,
        multicore_sweep,
    )

    cache = _store(store)
    return 0, {
        "hierarchy": all_benchmarks_sweep(
            hierarchy_sweep, names=subsets(smoke)["hierarchy"],
            hierarchy=DEFAULT_HIERARCHY3, artifact_cache=cache,
        ),
        "multicore": multicore_sweep(
            subsets(smoke)["multicore"], seed=seed, artifact_cache=cache,
        ),
    }


# ----------------------------------------------------------------------


def _sample(rows, seed, k):
    """``k`` rows drawn by ``seed``: the oracle's flat cells."""
    chosen = random.Random(seed).sample(range(len(rows)), min(k, len(rows)))
    return [rows[index] for index in sorted(chosen)]


def _differences(row, expected):
    return [
        "{} {}: sweep {!r} != reference {!r}".format(
            row["benchmark"], field, row[field], value)
        for field, value in expected.items() if row[field] != value
    ]


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` and the README say why it is in."""

    name: str
    #: Imported before the worker reports ready (counted in set-up).
    modules: tuple
    run: object
    #: Subset keys naming the benchmarks set-up stores (``None``: a cold
    #: workload).
    fills: object = None
    oracle: object = None

    def fill_names(self, smoke):
        if self.fills is None:
            return ()
        sets = subsets(smoke)
        return tuple(sorted({n for key in self.fills for n in sets[key]}))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "report-fast-cold",
            ("repro.evalharness.fullreport",),
            run_report,
        ),
        Workload(
            "lru-sweep-warm",
            ("repro.evalharness.sweeps", "repro.evalharness.artifacts"),
            run_lru,
            fills=("lru",),
            oracle=oracle_lru,
        ),
        Workload(
            "policy-sweep-warm",
            ("repro.evalharness.sweeps", "repro.evalharness.artifacts"),
            run_policy,
            fills=("zoo", "ablation"),
            oracle=oracle_policy,
        ),
        Workload(
            "hierarchy-multicore-warm",
            ("repro.evalharness.sweeps", "repro.evalharness.artifacts"),
            run_hierarchy,
            fills=("hierarchy", "multicore"),
        ),
        Workload(
            "analyze-check",
            ("repro.staticcheck.cli",),
            run_check,
        ),
    )
}
