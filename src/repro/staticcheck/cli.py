"""The ``repro-analyze`` command: classify, lint, cross-validate.

Three modes over one compiled program (a MiniC file, ``--seed N`` for
a fuzz-generated program, or ``--benchmark NAME``):

* default — the per-reference classification table: every static
  memory reference with its flavor, resolved target, and tiered
  verdict (always-hit/-miss, exact-hit/-miss, exact-persistent,
  input-dependent, unknown), plus the summary block (per-verdict and
  per-tier counts, static bypass ratio, and what the exact refinement
  pass did).
* ``--validate`` — additionally execute the program under a
  validating memory and report dynamic precision (% of dynamic
  references per tier) and any static/dynamic mismatches.
* ``--check`` — CI mode over benchmarks (all six by default): the
  soundness linter must report zero violations, the cross-validator
  zero mismatches, and the dynamic classification must reach the
  tier gates — >=90% of events *decided* (any tier but unknown) and
  >=50% *definite* (the audited always + exact tiers) — on every
  requested cache geometry.  Prints the per-benchmark precision
  table, names the tier that fell short on failure, and exits
  non-zero on any violation.  ``--json PATH`` additionally writes the
  full per-tier breakout ('-' for stdout).

The exact refinement pass runs in every mode and is bounded:
``--exact-budget N`` caps its exploration at N transfer steps
(exhaustion degrades the affected sites to their must/may verdicts,
never fails the command).

Geometries are given as ``SIZE:ASSOC[:POLICY]`` (e.g. ``256:4`` or
``64:2:lru``); ``--geometry`` may be repeated.
"""

import argparse
import json
import sys
from dataclasses import replace

from repro.cache.cache import CacheConfig
from repro.evalharness.cli import (
    _add_compile_args,
    _compile_options,
    _read_source,
    _structured_errors,
)
from repro.programs import BENCHMARK_NAMES, get_benchmark
from repro.staticcheck.crossval import cross_validate
from repro.staticcheck.linter import lint_module
from repro.staticcheck.locations import describe_loc
from repro.staticcheck.mustmay import Classification, analyze_program
from repro.unified.pipeline import compile_source

#: The geometries ``--check`` exercises when none are given: the
#: paper-scale default cache and a small high-conflict one.
DEFAULT_CHECK_GEOMETRIES = ("256:4", "64:2")

#: The ``--check`` tier gates (percent of dynamic references).
DECIDED_GATE = 90.0
DEFINITE_GATE = 50.0


def _parse_geometry(text):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            "geometry must be SIZE:ASSOC[:POLICY], got {!r}".format(text)
        )
    size, assoc = int(parts[0]), int(parts[1])
    policy = parts[2] if len(parts) == 3 else "lru"
    return CacheConfig(
        size_words=size, line_words=1, associativity=assoc, policy=policy
    )


def _geometries(args):
    if args.geometry:
        return list(args.geometry)
    return [_parse_geometry(text) for text in DEFAULT_CHECK_GEOMETRIES]


def _describe_target(target):
    if target.strong is not None:
        return describe_loc(target.strong)
    return " | ".join(describe_loc(loc) for loc in target.weak) or "?"


def _print_site_table(analysis, out):
    header = "{:26s} {:22s} {:11s} {:6s} {:4s} {}".format(
        "site", "access", "flavor", "bypass", "kill", "verdict"
    )
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for site in analysis.sites:
        flavor = site.ref.flavor.value if site.ref.flavor else "-"
        out.write(
            "{:26s} {:22s} {:11s} {:6s} {:4s} {}   [{}]\n".format(
                site.where(),
                site.ref.access_path,
                flavor,
                "yes" if site.bypass else "no",
                "yes" if site.kill else "no",
                site.classification.value,
                _describe_target(site.target),
            )
        )


def _print_summary(analysis, out):
    counts = analysis.counts()
    tiers = analysis.tier_counts()
    out.write("\n")
    out.write("{:28s} {}\n".format("memory reference sites", len(analysis.sites)))
    for classification in Classification:
        out.write(
            "{:28s} {}\n".format(
                classification.value, counts[classification.value]
            )
        )
    out.write(
        "{:28s} always {} / exact {} / input-dep {} / unknown {}\n".format(
            "verdict tiers", tiers["always"], tiers["exact"],
            tiers["input-dependent"], tiers["unknown"],
        )
    )
    out.write(
        "{:28s} {:.1f}%\n".format(
            "statically decided", analysis.static_classified_percent
        )
    )
    out.write(
        "{:28s} {:.1f}%\n".format(
            "statically definite", analysis.static_definite_percent
        )
    )
    out.write(
        "{:28s} {:.1f}%\n".format(
            "static bypass ratio", analysis.static_bypass_percent
        )
    )
    refinement = analysis.refinement
    if refinement is not None:
        out.write(
            "{:28s} {}\n".format("exact refinement", refinement.describe())
        )
        out.write(
            "{:28s} {}\n".format("install footprint",
                                 refinement.footprint.describe())
        )


def _refinement_payload(refinement):
    if refinement is None:
        return None
    return {
        "budget": refinement.budget,
        "steps_used": refinement.steps_used,
        "exhausted": refinement.exhausted,
        "explored_sites": refinement.explored_sites,
        "exact_hit_sites": refinement.exact_hit_sites,
        "exact_miss_sites": refinement.exact_miss_sites,
        "persistent_sites": refinement.persistent_sites,
        "input_dependent_sites": refinement.input_dependent_sites,
        "refused_sites": refinement.refused_sites,
        "residual_unknown": refinement.residual_unknown,
        "footprint_words": len(refinement.footprint.addresses),
        "footprint_concrete": refinement.footprint.concrete,
        "certified_sets": len(refinement.footprint.certified_sets),
        "touched_sets": len(refinement.footprint.demand),
    }


@_structured_errors
def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Static must/may cache analysis with bypass/kill semantics "
            "plus the exact refinement pass: tiered classification "
            "table, annotation soundness lint, and dynamic "
            "cross-validation against the cache simulator."
        ),
    )
    parser.add_argument("file", nargs="?", default=None,
                        help="MiniC source file ('-' for stdin)")
    parser.add_argument("--benchmark", choices=list(BENCHMARK_NAMES),
                        default=None,
                        help="analyze one Stanford benchmark")
    parser.add_argument(
        "--geometry", action="append", type=_parse_geometry, default=None,
        metavar="SIZE:ASSOC[:POLICY]",
        help="cache geometry (repeatable; default {})".format(
            " and ".join(DEFAULT_CHECK_GEOMETRIES)),
    )
    parser.add_argument("--validate", action="store_true",
                        help="also execute and cross-validate the claims")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: lint + cross-validate benchmarks, "
                             "print the precision table, exit non-zero on "
                             "any violation, mismatch, or missed tier gate")
    parser.add_argument("--exact-budget", type=int, default=None,
                        metavar="STEPS",
                        help="transfer-step budget for the exact "
                             "exploration (default {}; exhaustion "
                             "degrades, never fails)".format(
                                 _default_budget()))
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="with --check: write the per-benchmark "
                             "per-tier breakout as JSON ('-' for stdout)")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="VM fuel budget for --validate/--check runs")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --check (one benchmark "
                             "per worker; output order is unchanged)")
    _add_compile_args(parser)
    args = parser.parse_args(argv)

    if args.check:
        return _run_check(args)

    if args.benchmark is not None:
        if args.file is not None or args.seed is not None:
            parser.error("--benchmark excludes a file and --seed")
        source = get_benchmark(args.benchmark).source
    else:
        source = _read_source(args, parser)
    program = compile_source(source, _compile_options(args))
    geometries = _geometries(args)

    violations = lint_module(program.module, program.alias)
    analysis = analyze_program(
        program, geometries[0], exact=True, exact_budget=args.exact_budget
    )
    _print_site_table(analysis, sys.stdout)
    _print_summary(analysis, sys.stdout)
    sys.stdout.write(
        "{:28s} {}\n".format("lint violations", len(violations))
    )
    for violation in violations:
        sys.stdout.write("  {!r}\n".format(violation))

    status = 1 if violations else 0
    if args.validate:
        for geometry in geometries:
            report = cross_validate(
                program,
                geometry,
                max_steps=args.max_steps,
                analysis=analyze_program(
                    program, geometry, exact=True,
                    exact_budget=args.exact_budget,
                ),
            )
            sys.stdout.write(
                "{:28s} {} events, {:.1f}% definite, {:.1f}% decided, "
                "{} mismatch(es)\n".format(
                    "validated " + report.describe_geometry(),
                    report.events_total,
                    report.dynamic_classified_percent,
                    report.dynamic_decided_percent,
                    len(report.mismatches),
                )
            )
            tiers = report.event_tiers
            sys.stdout.write(
                "{:28s} always {} / exact {} / input-dep {} / "
                "unknown {}\n".format(
                    "  event tiers", tiers["always"], tiers["exact"],
                    tiers["input-dependent"], tiers["unknown"],
                )
            )
            for mismatch in report.mismatches:
                sys.stdout.write("  {!r}\n".format(mismatch))
            if report.mismatches:
                status = 1
    return status


def _default_budget():
    from repro.staticcheck.exact import DEFAULT_EXACT_BUDGET

    return DEFAULT_EXACT_BUDGET


def _check_benchmark_worker(payload):
    """One benchmark of the ``--check`` gate: compile, lint, validate.

    Top-level so ``--jobs`` can fan benchmarks out over a process pool;
    returns ``(failures, row, violation_lines, json_entry)`` so the
    parent prints the table in benchmark order regardless of
    completion order, and the failure strings name exactly which gate
    (and which verdict tier) fell short.
    """
    name, options, geometries, max_steps, exact_budget = payload
    program = compile_source(get_benchmark(name).source, options)
    violations = lint_module(program.module, program.alias)
    failures = []
    if violations:
        failures.append(
            "{}: {} lint violation(s)".format(name, len(violations))
        )
    row = None
    json_entry = {"lint_violations": len(violations), "geometries": {}}
    for geometry in geometries:
        analysis = analyze_program(
            program, geometry, exact=True, exact_budget=exact_budget
        )
        if row is None:
            json_entry["sites"] = len(analysis.sites)
            json_entry["static_tiers"] = analysis.tier_counts()
            row = "{:10s} {:>6d} {:>8d} {:>6.1f}%".format(
                name, len(violations), len(analysis.sites),
                analysis.static_bypass_percent,
            )
        report = cross_validate(
            program, geometry, max_steps=max_steps, analysis=analysis,
        )
        where = "{}: {}".format(name, report.describe_geometry())
        if report.mismatches:
            failures.append(
                "{}: {} mismatch(es); first: {!r}".format(
                    where, len(report.mismatches), report.mismatches[0]
                )
            )
        decided = report.dynamic_decided_percent
        definite = report.dynamic_classified_percent
        if decided < DECIDED_GATE:
            failures.append(
                "{}: decided tier at {:.1f}% (< {:.0f}%): the unknown "
                "tier holds {} of {} events".format(
                    where, decided, DECIDED_GATE,
                    report.event_tiers["unknown"], report.events_total,
                )
            )
        if definite < DEFINITE_GATE:
            failures.append(
                "{}: definite (always+exact) tier at {:.1f}% "
                "(< {:.0f}%)".format(where, definite, DEFINITE_GATE)
            )
        row += "  {:>4d} {:>6.1f}% {:>6.1f}%".format(
            len(report.mismatches), definite, decided
        )
        json_entry["geometries"][report.describe_geometry()] = {
            "events_total": report.events_total,
            "event_tiers": report.event_tiers,
            "definite_percent": report.dynamic_classified_percent,
            "decided_percent": report.dynamic_decided_percent,
            "mismatches": len(report.mismatches),
            "refinement": _refinement_payload(analysis.refinement),
        }
    violation_lines = [
        "  {!r}".format(violation) for violation in violations
    ]
    return failures, row, violation_lines, json_entry


def _run_check(args):
    """CI mode: every benchmark must lint clean, validate clean, and
    clear the tier gates."""
    names = (args.benchmark,) if args.benchmark else BENCHMARK_NAMES
    geometries = _geometries(args)
    # The precision table is about *memory* references, so expose the
    # full reference stream: no register promotion (higher promotion
    # levels hide scalar traffic in registers, leaving little for the
    # classifier to grade).  Scheme and the other toggles follow the
    # command line.
    options = replace(_compile_options(args), promotion="none")

    header = "{:10s} {:>6s} {:>8s} {:>7s}".format(
        "benchmark", "lint", "sites", "byp%"
    )
    for geometry in geometries:
        header += "  {:>19s}".format(
            "{}w/{}way mm/def/dec".format(geometry.size_words,
                                          geometry.associativity)
        )
    print(header)
    print("-" * len(header))

    all_failures = []
    json_payload = {}
    payloads = [
        (name, options, tuple(geometries), args.max_steps,
         args.exact_budget)
        for name in names
    ]
    from repro.evalharness.parallel import pool_map

    for name, (failures, row, violation_lines, json_entry) in zip(
        names,
        pool_map(_check_benchmark_worker, payloads, jobs=args.jobs),
    ):
        all_failures.extend(failures)
        print(row)
        for line in violation_lines:
            print(line)
        json_payload[name] = json_entry

    if args.json:
        text = json.dumps(
            {
                "gates": {"decided": DECIDED_GATE,
                          "definite": DEFINITE_GATE},
                "benchmarks": json_payload,
                "failures": all_failures,
            },
            indent=2,
            sort_keys=True,
        )
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")

    if all_failures:
        print("FAIL: {} gate violation(s)".format(len(all_failures)),
              file=sys.stderr)
        for failure in all_failures:
            print("  " + failure, file=sys.stderr)
        return 1
    print("all benchmarks: zero lint violations, zero mismatches, "
          ">={:.0f}% of dynamic references decided "
          "(>={:.0f}% definite)".format(DECIDED_GATE, DEFINITE_GATE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
