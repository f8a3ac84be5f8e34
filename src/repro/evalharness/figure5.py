"""Figure 5 reproduction: percent of data-cache reference traffic
reduction, per benchmark.

The paper reports (Section 5):

* statically, 70-80 percent of load/store data references are
  unambiguous and marked to bypass the cache;
* dynamically, 45-75 percent of executed data references are
  unambiguous;
* data-cache reference traffic falls by about 60 percent.
"""

from dataclasses import dataclass

from repro.evalharness.experiment import DEFAULT_CACHE
from repro.evalharness.tables import format_bar_chart, format_table
from repro.programs import BENCHMARK_NAMES

#: The bands the paper states in Section 5.
PAPER_STATIC_BAND = (70.0, 80.0)
PAPER_DYNAMIC_BAND = (45.0, 75.0)
PAPER_REDUCTION_ABOUT = 60.0


def figure5_options():
    """The compilation configuration used for the Figure 5 runs.

    The paper measured *data value references* of 1989-era MIPS code;
    its 45-75 percent dynamic-unambiguous band implies codegen that
    kept only the hottest scalar values in registers and left the rest
    as memory traffic.  ``modest`` promotion with a budget of one
    models that generation; the promotion ablation
    (:func:`repro.evalharness.sweeps.promotion_ablation`) reports how
    the fractions move from ``none`` (every value reference is a
    memory reference) to ``aggressive`` (modern graph coloring).
    """
    from repro.unified.pipeline import CompilationOptions

    return CompilationOptions(
        scheme="unified", promotion="modest", promotion_budget=1
    )


@dataclass
class Figure5Row:
    """One benchmark's entry in the reproduced figure."""

    name: str
    static_percent_unambiguous: float
    dynamic_percent_unambiguous: float
    cache_traffic_reduction: float
    bus_traffic_reduction: float
    dynamic_refs: int
    #: The must/may analysis's independent count of the static bypass
    #: ratio (None when the geometry is outside the analysis's model);
    #: cross-checks the annotation pass against the paper's 70-80 %
    #: static claim from a second code path.
    static_bypass_checked: object = None

    @classmethod
    def from_result(cls, result):
        return cls(
            name=result.name,
            static_percent_unambiguous=result.static_percent_unambiguous,
            dynamic_percent_unambiguous=result.dynamic_percent_unambiguous,
            cache_traffic_reduction=result.cache_traffic_reduction,
            bus_traffic_reduction=result.bus_traffic_reduction,
            dynamic_refs=result.dynamic["total"],
            static_bypass_checked=result.static_bypass_checked,
        )


def figure5_table(
    paper_scale=False,
    options=None,
    cache_config=DEFAULT_CACHE,
    names=BENCHMARK_NAMES,
    failures=None,
    jobs=None,
    artifact_cache=None,
    journal=None,
):
    """Run the full Figure 5 experiment; returns a list of rows plus
    an average row.

    With ``failures`` (a list), a benchmark that breaks is recorded
    there and skipped instead of aborting the whole table; without it,
    errors propagate.  Each benchmark is one unit of the
    compile-once/trace-once engine (:mod:`repro.evalharness.parallel`),
    scored by the sweep dispatcher; ``jobs``/``artifact_cache`` fan the
    units out and reuse stored traces.  The rows are bit-identical to
    the reference replay behind
    :func:`~repro.evalharness.experiment.run_benchmark`.  ``journal``
    (a path) checkpoints completed benchmarks so a killed run resumes
    where it left off.  The rows are bit-identical under every
    ``REPRO_SWEEP_ENGINE`` value.
    """
    from repro.evalharness.parallel import EvalUnit, run_units

    if options is None:
        options = figure5_options()
    units = [
        EvalUnit(
            name=name,
            paper_scale=paper_scale,
            options=options,
            cache_configs=(cache_config,),
        )
        for name in names
    ]
    unit_results = run_units(
        units,
        jobs=jobs,
        artifact_cache=artifact_cache,
        failures=failures,
        section="figure5",
        journal=journal,
    )
    return [
        Figure5Row.from_result(results[0])
        for results in unit_results
        if results is not None
    ]


def average_row(rows):
    count = max(len(rows), 1)
    return Figure5Row(
        name="average",
        static_percent_unambiguous=sum(
            row.static_percent_unambiguous for row in rows
        ) / count,
        dynamic_percent_unambiguous=sum(
            row.dynamic_percent_unambiguous for row in rows
        ) / count,
        cache_traffic_reduction=sum(
            row.cache_traffic_reduction for row in rows
        ) / count,
        bus_traffic_reduction=sum(
            row.bus_traffic_reduction for row in rows
        ) / count,
        dynamic_refs=sum(row.dynamic_refs for row in rows),
        static_bypass_checked=(
            sum(row.static_bypass_checked for row in rows) / count
            if all(row.static_bypass_checked is not None for row in rows)
            and rows
            else None
        ),
    )


@dataclass
class StaticPredictorRow:
    """Predicted-vs-simulated hit counts for one benchmark.

    ``exact`` — the analysis decided every through-cache event with a
    definite verdict, so the prediction claims equality with the
    simulator.  ``agrees`` — that claim held.  ``excuse`` — why a
    non-exact benchmark is excused (input-dependent references, an
    unsupported geometry); a row *fails* only when ``exact`` and not
    ``agrees``.
    """

    name: str
    predicted_hits: int = 0
    predicted_misses: int = 0
    simulated_hits: int = 0
    simulated_misses: int = 0
    unpredicted: int = 0
    exact: bool = False
    excuse: str = ""

    @property
    def agrees(self):
        return (
            self.exact
            and self.predicted_hits == self.simulated_hits
            and self.predicted_misses == self.simulated_misses
        )

    @property
    def ok(self):
        """An exact prediction must agree; a non-exact one is excused."""
        return self.agrees if self.exact else True

    @staticmethod
    def _ratio(hits, misses):
        total = hits + misses
        return 100.0 * hits / total if total else 0.0

    @property
    def predicted_hit_ratio(self):
        return self._ratio(self.predicted_hits, self.predicted_misses)

    @property
    def simulated_hit_ratio(self):
        return self._ratio(self.simulated_hits, self.simulated_misses)


def static_predictor_table(
    paper_scale=False,
    options=None,
    cache_config=DEFAULT_CACHE,
    names=BENCHMARK_NAMES,
    exact_budget=None,
):
    """The static-only predictor versus the simulator, per benchmark.

    Each benchmark is compiled once; the simulated side replays the
    recorded trace through the reference cache (the numbers behind the
    golden Figure 5 values for the same options/geometry), while the
    predicted side re-executes under
    :class:`~repro.staticcheck.predictor.PredictingMemory` — flat
    memory, no cache state, hits and misses read off the verdict tiers
    alone.  On every benchmark where the analysis decides all events
    (``exact``), the two must match count-for-count.
    """
    from repro.evalharness.experiment import run_compiled
    from repro.programs import get_benchmark
    from repro.staticcheck import StaticCheckError
    from repro.staticcheck.predictor import predict_program
    from repro.unified.pipeline import compile_source

    if options is None:
        options = figure5_options()
    rows = []
    for name in names:
        bench = get_benchmark(name, paper_scale)
        program = compile_source(bench.source, options)
        result = run_compiled(
            name, program, expected_output=bench.expected_output,
            cache_config=cache_config,
        )
        stats = result.unified_stats
        try:
            prediction = predict_program(
                program, cache_config, exact_budget=exact_budget
            )
        except StaticCheckError as error:
            rows.append(StaticPredictorRow(
                name=name,
                simulated_hits=stats.hits,
                simulated_misses=stats.misses,
                excuse="geometry outside the model: {}".format(error),
            ))
            continue
        if prediction.exact:
            excuse = ""
        else:
            sample = sorted(prediction.unpredicted_sites.items())
            excuse = "{} unpredicted events (e.g. {} [{}])".format(
                prediction.unpredicted,
                sample[0][0] if sample else "?",
                sample[0][1] if sample else "?",
            )
        rows.append(StaticPredictorRow(
            name=name,
            predicted_hits=prediction.hits,
            predicted_misses=prediction.misses,
            simulated_hits=stats.hits,
            simulated_misses=stats.misses,
            unpredicted=prediction.unpredicted,
            exact=prediction.exact,
            excuse=excuse,
        ))
    return rows


def format_static_predictor(rows):
    """Render the predictor-vs-simulator comparison."""
    body = []
    for row in rows:
        if row.exact:
            status = "exact, {}".format(
                "agrees" if row.agrees else "DISAGREES"
            )
        else:
            status = "excused ({})".format(row.excuse or "not exact")
        body.append([
            row.name,
            "{}/{}".format(row.predicted_hits, row.predicted_misses),
            "{}/{}".format(row.simulated_hits, row.simulated_misses),
            "{:.2f}".format(row.predicted_hit_ratio) if row.exact else "-",
            "{:.2f}".format(row.simulated_hit_ratio),
            status,
        ])
    table = format_table(
        ["benchmark", "predicted h/m", "simulated h/m",
         "pred hit%", "sim hit%", "status"],
        body,
        title="static-only predictor vs cache simulator",
    )
    exact_rows = [row for row in rows if row.exact]
    note = (
        "\n{} of {} benchmarks fully decided statically; every exact "
        "prediction {} the simulator".format(
            len(exact_rows), len(rows),
            "matches" if all(row.agrees for row in exact_rows)
            else "DOES NOT match",
        )
    )
    return table + note


def format_figure5(rows, include_chart=True):
    """Render the reproduced Figure 5 as table + bar chart."""
    avg = average_row(rows)
    table = format_table(
        ["benchmark", "static %unamb", "static %byp (analysis)",
         "dynamic %unamb", "cache-ref reduction %", "bus reduction %",
         "data refs"],
        [
            [
                row.name,
                "{:.1f}".format(row.static_percent_unambiguous),
                (
                    "{:.1f}".format(row.static_bypass_checked)
                    if row.static_bypass_checked is not None
                    else "-"
                ),
                "{:.1f}".format(row.dynamic_percent_unambiguous),
                "{:.1f}".format(row.cache_traffic_reduction),
                "{:.1f}".format(row.bus_traffic_reduction),
                row.dynamic_refs,
            ]
            for row in rows + [avg]
        ],
        title="Figure 5: percent of data cache reference traffic reduction",
    )
    if not include_chart:
        return table
    chart = format_bar_chart(
        [(row.name, row.cache_traffic_reduction) for row in rows],
        title="\ncache reference traffic reduction (the Figure 5 bars):",
    )
    note = (
        "\npaper bands: static 70-80% unambiguous, dynamic 45-75% "
        "unambiguous, reduction about 60%"
    )
    return "\n".join([table, chart, note])
