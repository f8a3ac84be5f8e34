"""One-command reproduction report: every experiment, one screenful.

``repro-experiments`` runs E1 (Figure 5), the classification claims,
the kill-bit/policy/spill/size ablations, the combined I+D cache
experiment, and the access-time model, then prints a compact report
with the paper's expectations alongside the measured values.
"""

import argparse
import sys
import time
from dataclasses import replace

from repro.cache.cache import CacheConfig
from repro.cache.stackdist import replay_trace_sweep
from repro.cache.timing import (
    LatencyModel,
    access_time_speedup,
    value_reference_time,
)
from repro.evalharness.figure5 import (
    average_row,
    figure5_table,
    format_figure5,
)
from repro.errors import failure_record
from repro.evalharness.experiment import DEFAULT_CACHE
from repro.evalharness.sweeps import (
    _trace_for,
    kill_bit_ablation,
    spill_ablation,
)
from repro.evalharness.tables import format_table
from repro.evalharness.unifiedcache import unified_cache_comparison
from repro.programs import BENCHMARK_NAMES
from repro.unified.pipeline import CompilationOptions
from repro.vm.machine import set_default_max_steps


def _heading(text):
    return "\n{}\n{}".format(text, "=" * len(text))


def figure5_section(paper_scale, failures=None, cache_config=DEFAULT_CACHE,
                    jobs=None, artifact_cache=None, journal=None):
    rows = figure5_table(
        paper_scale=paper_scale, cache_config=cache_config, failures=failures,
        jobs=jobs, artifact_cache=artifact_cache, journal=journal,
    )
    if not rows:
        return "\n".join(
            [
                _heading("E1-E3  Figure 5 and the Section 5 bands"),
                "[every benchmark failed; see the failure summary]",
            ]
        )
    avg = average_row(rows)
    lines = [_heading("E1-E3  Figure 5 and the Section 5 bands")]
    lines.append(format_figure5(rows))
    lines.append(
        "paper: static 70-80%%, dynamic 45-75%%, reduction ~60%% | "
        "measured averages: static %.1f%%, dynamic %.1f%%, reduction %.1f%%"
        % (
            avg.static_percent_unambiguous,
            avg.dynamic_percent_unambiguous,
            avg.cache_traffic_reduction,
        )
    )
    return "\n".join(lines)


def kill_section(artifact_cache=None):
    rows = kill_bit_ablation("towers", sizes=(32, 64, 256),
                             modes=("invalidate", "off"),
                             artifact_cache=artifact_cache)
    lines = [_heading("E5  Dead-line (kill-bit) modification, towers")]
    lines.append(format_table(
        ["cache words", "kill", "write-backs", "bus words"],
        [
            [row["size_words"], row["kill_mode"], row["writebacks"],
             row["bus_words"]]
            for row in rows
        ],
    ))
    return "\n".join(lines)


def spill_section(artifact_cache=None):
    rows = spill_ablation(artifact_cache=artifact_cache)
    lines = [_heading("E6  Spill-to-cache vs spill-bypass "
                      "(pressure kernel, 8 registers)")]
    lines.append(format_table(
        ["spill routing", "refs through cache", "bus words", "spill refs"],
        [
            [
                "to cache" if row["spill_to_cache"] else "bypass",
                row["refs_cached"],
                row["bus_words"],
                row["spill_refs"],
            ]
            for row in rows
        ],
    ))
    return "\n".join(lines)


def hierarchy_table_rows(rows):
    """Render hierarchy ``as_dict`` rows for any level count.

    Returns ``(header, table_rows)``: the innermost level contributes
    its global miss rate, every outer level its local one, so a
    three-level spec reads as three miss columns before the memory
    words.  The header is derived from the first row's ``levels``.
    """
    if not rows:
        return ["benchmark"], []
    levels = rows[0]["levels"]
    header = ["benchmark", "inclusion", "bypass",
              "{} miss".format(levels[0])]
    header += ["{} local miss".format(name) for name in levels[1:]]
    header.append("memory words")
    table_rows = []
    for row in rows:
        cells = [
            row["benchmark"],
            row["inclusion"],
            row["bypass_level"],
            "{:.4f}".format(row[levels[0].lower() + "_miss_rate"]),
        ]
        cells += [
            "{:.4f}".format(row[name.lower() + "_local_miss_rate"])
            for name in row["levels"][1:]
        ]
        cells.append(row["memory_bus_words"])
        table_rows.append(cells)
    return header, table_rows


def hierarchy_section(hierarchy, names, failures=None, artifact_cache=None,
                      jobs=None, journal=None):
    """E16: which level do bypassed references skip?

    Rows pair the ``bypass_level="l1"`` and ``"both"`` scores per
    benchmark and inclusion discipline so the outer-level effect of
    hierarchy-wide bypassing reads straight off the table.  The
    benchmarks run as hierarchy-aware :class:`EvalUnit`\\ s through the
    supervised pool (``jobs`` fans them out; ``journal`` checkpoints
    them alongside the Figure 5 units).
    """
    from repro.evalharness.figure5 import figure5_options
    from repro.evalharness.parallel import EvalUnit, run_units

    lines = [_heading("E16  Cache hierarchy: bypass-level ablation "
                      "({})".format(hierarchy))]
    specs = tuple(
        "{},{},bypass={}".format(hierarchy, inclusion, bypass_level)
        for inclusion in ("non-inclusive", "inclusive")
        for bypass_level in ("l1", "both")
    )
    units = [
        EvalUnit(name=name, options=figure5_options(),
                 cache_configs=(DEFAULT_CACHE,), hierarchy=specs)
        for name in names
    ]
    unit_results = run_units(
        units, jobs=jobs, artifact_cache=artifact_cache,
        failures=failures, section="hierarchy", journal=journal,
    )
    rows = [
        row
        for results in unit_results if results is not None
        for row in results
    ]
    header, table_rows = hierarchy_table_rows(rows)
    lines.append(format_table(header, table_rows))
    return "\n".join(lines)


def multicore_section(pairings, partition="umon", failures=None,
                      artifact_cache=None):
    """E18: kill bits vs. way partitioning at a shared last level.

    Each core grouping replays one deterministic interleave under the
    four cells of the kill × partitioning grid; the table reports the
    shared level's hit ratio (dead-value refs served around the cache
    count against it — the kill cells trade hit *ratio* for freed
    ways) and the memory words actually moved, the paper's own
    currency, which the headline scores.
    """
    from repro.cache.multicore import MULTICORE_CONFIGS
    from repro.evalharness.sweeps import (
        MULTICORE_SHARED,
        multicore_sweep,
    )

    lines = [_heading(
        "E18  Multi-core shared LLC: kill bits vs. way partitioning "
        "(shared {}w x{}, {} quotas)".format(
            MULTICORE_SHARED.size_words, MULTICORE_SHARED.associativity,
            partition,
        )
    )]
    table_rows = []
    kill_wins = []
    best_cells = []
    scored = []
    for names in pairings:
        label = "+".join(names)
        try:
            rows = multicore_sweep(names, partition=partition,
                                   artifact_cache=artifact_cache)
        except Exception as error:  # noqa: BLE001 - recorded, reported
            if failures is None:
                raise
            failures.append(failure_record("multicore", label, error))
            continue
        by_config = {row["config"]: row for row in rows}
        for config in MULTICORE_CONFIGS:
            row = by_config[config]
            table_rows.append([
                label,
                config,
                "/".join(str(q) for q in row["quotas"])
                if row["quotas"] else "-",
                "{:.4f}".format(row["shared_hit_rate"]),
                row["memory_bus_words"],
            ])
        scored.append(label)
        if (by_config["kill"]["memory_bus_words"]
                <= by_config["partitioned"]["memory_bus_words"]):
            kill_wins.append(label)
        best = min(MULTICORE_CONFIGS,
                   key=lambda c: by_config[c]["memory_bus_words"])
        best_cells.append("{}: {}".format(label, best))
    lines.append(format_table(
        ["cores", "config", "quotas", "shared hit", "memory words"],
        table_rows,
    ))
    lines.append(
        "headline: kill bits alone beat or match static partitioning "
        "on memory words for {}/{} groupings{}; best cell per grouping: "
        "{}".format(
            len(kill_wins), len(scored),
            " ({})".format(", ".join(kill_wins)) if kill_wins else "",
            "; ".join(best_cells) if best_cells else "none",
        )
    )
    return "\n".join(lines)


def policy_zoo_section(names=BENCHMARK_NAMES, base=None,
                       failures=None, artifact_cache=None):
    """E17: hardware reuse prediction vs. compiler reuse knowledge.

    Every policy's hit rate appears conventional (annotations ignored)
    and unified (bypass+kill honored); the trailing headline counts,
    per benchmark, whether the best kill+RRIP cell beats kill+LRU
    (the fair, same-stream comparison) and whether it also beats the
    best prediction-alone cell (cross-scheme: the unified denominator
    excludes the bypassed easy refs, so this is a high bar — see
    EXPERIMENTS.md E17).
    """
    from repro.evalharness.sweeps import (
        ZOO_GEOMETRY,
        ZOO_POLICIES,
        ZOO_PREDICTIVE,
        policy_zoo_sweep,
    )

    if base is None:
        base = ZOO_GEOMETRY

    lines = [_heading("E17  Predictive replacement vs. compiler liveness "
                      "(policy zoo)")]
    table_rows = []
    beats_lru = []
    beats_both = []
    for name in names:
        try:
            rows = policy_zoo_sweep(name, base=base,
                                    artifact_cache=artifact_cache)
        except Exception as error:  # noqa: BLE001 - recorded, reported
            if failures is None:
                raise
            failures.append(failure_record("policy-zoo", name, error))
            continue
        by_cell = {(row["policy"], row["scheme"]): row for row in rows}
        for policy in ZOO_POLICIES:
            conv = by_cell[(policy, "conventional")]
            unified = by_cell[(policy, "unified")]
            table_rows.append([
                name,
                policy,
                "{:.4f}".format(conv["hit_rate"]),
                "{:.4f}".format(unified["hit_rate"]),
                conv["bus_words"],
                unified["bus_words"],
            ])
        kill_lru = by_cell[("lru", "unified")]["hit_rate"]
        prediction_alone = max(
            by_cell[(p, "conventional")]["hit_rate"] for p in ZOO_PREDICTIVE
        )
        kill_rrip = max(
            by_cell[(p, "unified")]["hit_rate"] for p in ZOO_PREDICTIVE
        )
        if kill_rrip > kill_lru:
            beats_lru.append(name)
            if kill_rrip > prediction_alone:
                beats_both.append(name)
    lines.append(format_table(
        ["benchmark", "policy", "conv hit", "unified hit",
         "conv bus words", "unified bus words"],
        table_rows,
    ))
    lines.append(
        "headline: kill+RRIP beats kill+LRU on {}/{} benchmarks{}; "
        "beats both kill+LRU and prediction alone on {}/{}{}".format(
            len(beats_lru), len(names),
            " ({})".format(", ".join(beats_lru)) if beats_lru else "",
            len(beats_both), len(names),
            " ({})".format(", ".join(beats_both)) if beats_both else "",
        )
    )
    return "\n".join(lines)


def combined_cache_section(failures=None):
    lines = [_heading("E10  Combined I+D cache: instruction hit rate")]
    table_rows = []
    for name, size in (("queen", 128), ("towers", 128), ("towers", 256)):
        try:
            row = unified_cache_comparison(name, size_words=size)
        except Exception as error:  # noqa: BLE001 - recorded, reported
            if failures is None:
                raise
            failures.append(failure_record("combined-cache", name, error))
            continue
        table_rows.append([
            "{} @ {}w".format(name, size),
            "{:.4f}".format(row["conventional_i_hit_rate"]),
            "{:.4f}".format(row["unified_i_hit_rate"]),
        ])
    lines.append(format_table(
        ["workload", "conventional I-hit", "unified I-hit"], table_rows
    ))
    return "\n".join(lines)


def _access_time_row(name, model, artifact_cache=None):
    stats = {}
    refs = {}
    for label, options, honor in (
        ("conv",
         CompilationOptions(scheme="conventional", promotion="none"),
         False),
        ("pure",
         CompilationOptions(scheme="unified", promotion="aggressive"),
         True),
        ("hybrid",
         CompilationOptions(scheme="unified", promotion="aggressive",
                            bypass_user_refs=False),
         True),
    ):
        trace, _program = _trace_for(
            name, options=options, artifact_cache=artifact_cache
        )
        (stats[label],) = replay_trace_sweep(
            trace, [CacheConfig(honor_bypass=honor, honor_kill=honor)]
        )
        refs[label] = len(trace)
    total = refs["conv"]
    conv = value_reference_time(stats["conv"], 0, model)
    pure = value_reference_time(stats["pure"], total - refs["pure"], model)
    hybrid = value_reference_time(
        stats["hybrid"], total - refs["hybrid"], model
    )
    return [
        name,
        "{:.2f}x".format(access_time_speedup(conv, pure)),
        "{:.2f}x".format(access_time_speedup(conv, hybrid)),
    ]


def access_time_section(failures=None, artifact_cache=None):
    model = LatencyModel()
    lines = [_heading("E13/E14  Total memory access time "
                      "(speedup vs conventional)")]
    table_rows = []
    for name in BENCHMARK_NAMES:
        try:
            table_rows.append(
                _access_time_row(name, model, artifact_cache=artifact_cache)
            )
        except Exception as error:  # noqa: BLE001 - recorded, reported
            if failures is None:
                raise
            failures.append(failure_record("access-time", name, error))
    lines.append(format_table(
        ["benchmark", "pure unified", "hybrid"], table_rows
    ))
    lines.append('paper Section 4.4: "speedups of total memory access '
                 'time by factors of 2 or more"')
    return "\n".join(lines)


def build_report(paper_scale=False, fast=False, failures=None,
                 cache_config=DEFAULT_CACHE, jobs=None, artifact_cache=None,
                 hierarchy=None, hierarchy_benchmarks=None, journal=None,
                 policy_zoo=False, multicore=None, partition="umon"):
    """Assemble the report string.

    With ``failures`` (a list), a section or benchmark that breaks is
    recorded there and the report carries on — one bad workload must
    not cost the other results.  Without it, errors propagate.
    ``jobs`` fans the Figure 5 benchmarks out over worker processes;
    ``artifact_cache`` routes every compile+trace through the on-disk
    store.  Every flat-geometry cell (Figure 5, kill bits, spill,
    policy zoo, access time) is scored by the sweep dispatcher;
    :func:`~repro.cache.replay.replay_trace` is the tests' oracle.
    Every section honors ``REPRO_SWEEP_ENGINE`` (worker processes
    inherit it): ``auto`` and ``stackdist`` give byte-identical text
    (only the trailing wall-clock line differs), except that
    ``stackdist`` refuses the policy-zoo cells, which are outside the
    stack-distance model, so every benchmark of that section is
    recorded as failed.
    """
    started = time.time()
    section_builders = [
        ("figure5",
         lambda: figure5_section(paper_scale, failures=failures,
                                 cache_config=cache_config, jobs=jobs,
                                 artifact_cache=artifact_cache,
                                 journal=journal)),
        ("kill-bits", lambda: kill_section(artifact_cache=artifact_cache)),
        ("spill", lambda: spill_section(artifact_cache=artifact_cache)),
    ]
    if hierarchy:
        section_builders.append(
            ("hierarchy",
             lambda: hierarchy_section(
                 hierarchy, hierarchy_benchmarks or BENCHMARK_NAMES,
                 failures=failures, artifact_cache=artifact_cache,
                 jobs=jobs, journal=journal)))
    if multicore:
        section_builders.append(
            ("multicore",
             lambda: multicore_section(
                 multicore, partition=partition,
                 failures=failures, artifact_cache=artifact_cache)))
    if policy_zoo:
        section_builders.append(
            ("policy-zoo",
             lambda: policy_zoo_section(
                 failures=failures, artifact_cache=artifact_cache)))
    if not fast:
        section_builders.append(
            ("combined-cache",
             lambda: combined_cache_section(failures=failures)))
        section_builders.append(
            ("access-time",
             lambda: access_time_section(failures=failures,
                                         artifact_cache=artifact_cache)))
    sections = ["Reproduction report: Chi & Dietz, PLDI 1989"]
    for section_name, builder in section_builders:
        try:
            sections.append(builder())
        except Exception as error:  # noqa: BLE001 - recorded, reported
            if failures is None:
                raise
            failures.append(failure_record(section_name, None, error))
            sections.append(
                "{}\n[section failed: {}: {}]".format(
                    _heading("SECTION {}".format(section_name)),
                    type(error).__name__,
                    error,
                )
            )
    sections.append(
        "\n(generated in {:.1f}s; see EXPERIMENTS.md for the full record)"
        .format(time.time() - started)
    )
    return "\n".join(sections)


def format_failures(failures):
    lines = ["{} experiment(s) failed:".format(len(failures))]
    for record in failures:
        where = record["section"]
        if record["item"]:
            where += "/" + str(record["item"])
        lines.append(
            "  {}: {} (stage {}): {}".format(
                where,
                record["error_type"],
                record["stage"],
                record["message"],
            )
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the full reproduction and print a summary report."
    )
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--fast", action="store_true",
                        help="skip the slower combined-cache and "
                             "access-time sections")
    parser.add_argument("--seed", type=int, default=None,
                        help="cache-simulator RNG seed (random policy)")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="VM fuel budget per benchmark run")
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
                        help="checkpoint completed Figure 5 benchmarks "
                             "here; a rerun with the same journal resumes "
                             "from completed units bit-identically")
    parser.add_argument("--hierarchy", default=None, metavar="SPEC",
                        help="add the E16 hierarchy section for this "
                             "geometry (any number of levels), e.g. "
                             "L1:64x2,L2:512x8 or "
                             "L1:64x2,L2:512x8,L3:4096x16")
    parser.add_argument("--hierarchy-benchmarks", nargs="*", default=None,
                        choices=list(BENCHMARK_NAMES),
                        help="restrict the hierarchy section to these "
                             "benchmarks (default: all)")
    parser.add_argument("--multicore", action="store_true",
                        help="add the E18 multi-core shared-LLC section "
                             "(kill bits vs. way partitioning on the "
                             "default core groupings)")
    parser.add_argument("--multicore-benchmarks", nargs="*", default=None,
                        choices=list(BENCHMARK_NAMES),
                        help="run E18 on this single core grouping "
                             "instead of the defaults (implies "
                             "--multicore; needs >= 2 names)")
    parser.add_argument("--partition", default="umon",
                        choices=["umon", "even"],
                        help="way-quota policy for the E18 partitioned "
                             "cells: UMON utility-monitor allocation or "
                             "an even split (default: umon)")
    parser.add_argument("--policy-zoo", action="store_true",
                        help="add the E17 predictive-replacement zoo "
                             "section ({policy} x {conventional, unified} "
                             "hit ratios on every benchmark)")
    args = parser.parse_args(argv)
    set_default_max_steps(args.max_steps)
    cache_config = DEFAULT_CACHE
    if args.seed is not None:
        cache_config = replace(DEFAULT_CACHE, seed=args.seed)
    artifact_cache = None
    if not args.no_artifact_cache and (args.jobs or args.artifact_cache):
        from repro.evalharness.artifacts import ArtifactCache

        artifact_cache = ArtifactCache(args.artifact_cache)
    multicore = None
    if args.multicore_benchmarks is not None:
        if len(args.multicore_benchmarks) < 2:
            parser.error("--multicore-benchmarks needs at least two names")
        multicore = (tuple(args.multicore_benchmarks),)
    elif args.multicore:
        from repro.evalharness.sweeps import MULTICORE_PAIRINGS

        multicore = MULTICORE_PAIRINGS
    failures = []
    print(build_report(paper_scale=args.paper_scale, fast=args.fast,
                       failures=failures, cache_config=cache_config,
                       jobs=args.jobs, artifact_cache=artifact_cache,
                       hierarchy=args.hierarchy,
                       hierarchy_benchmarks=args.hierarchy_benchmarks,
                       journal=args.journal,
                       policy_zoo=args.policy_zoo,
                       multicore=multicore,
                       partition=args.partition))
    if failures:
        print("\n" + format_failures(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
