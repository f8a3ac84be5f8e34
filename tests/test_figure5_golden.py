"""Golden-file regression test pinning the Figure 5 table.

The headline experiment's exact numbers — every float, every
reference count, for all six benchmarks — are pinned in
``tests/golden/figure5.json``.  Any change to the compiler, the VM,
the cache model, or the evaluation engine that moves a single value
fails here, deliberately loudly: the whole engine refactor is sold on
bit-identical results, so a drift is either a bug or a semantics
change that must re-pin the golden file on purpose.

To regenerate after an *intentional* semantics change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_figure5_golden.py -q

and commit the refreshed ``tests/golden/figure5.json`` alongside the
change that moved the numbers.

The pin runs three legs, each producing the whole table its own way:
``reference`` (the serial replay, ``run_benchmark`` →
``evaluate_trace`` → ``replay_trace`` through the online simulator),
``functional`` (the data-carrying twin, re-executing every benchmark
against it) and ``sweep`` (``figure5_table``, the path
``repro-experiments`` ships, under whatever ``REPRO_SWEEP_ENGINE``
the environment sets).  All three must match the same golden file
exactly.  Tier-1 runs the ``sweep`` leg on the default engine; CI
reruns this file under ``REPRO_SWEEP_ENGINE=stackdist`` and
``multi``.
"""

import json
import os

import pytest

from repro.evalharness.figure5 import figure5_table
from repro.programs import BENCHMARK_NAMES

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "figure5.json"
)

def functional_table():
    """The Figure 5 rows scored by the functional twin.

    Each benchmark is executed against :class:`DataCachedMemory` under
    the unified and conventional configurations — the cache stats are
    measured *during* execution, not replayed — and the row is
    assembled from the same :class:`ExperimentResult` arithmetic as
    the replay engines.
    """
    from repro.cache.functional import DataCachedMemory
    from repro.evalharness.experiment import (
        DEFAULT_CACHE,
        ExperimentResult,
        _static_bypass_checked,
        conventional_config,
    )
    from repro.evalharness.figure5 import Figure5Row, figure5_options
    from repro.programs import get_benchmark
    from repro.unified.pipeline import compile_source
    from repro.vm.memory import RecordingMemory

    options = figure5_options()
    rows = []
    for name in BENCHMARK_NAMES:
        program = compile_source(get_benchmark(name).source, options)
        memory = RecordingMemory()
        result = program.run(memory=memory)
        stats = []
        for config in (DEFAULT_CACHE, conventional_config(DEFAULT_CACHE)):
            functional = DataCachedMemory(config)
            outcome = compile_source(
                get_benchmark(name).source, options
            ).run(memory=functional)
            assert tuple(outcome.output) == tuple(result.output), name
            stats.append(functional.stats)
        rows.append(Figure5Row.from_result(ExperimentResult(
            name=name,
            options=options,
            cache_config=DEFAULT_CACHE,
            static=program.static,
            dynamic=memory.buffer.summary(),
            unified_stats=stats[0],
            conventional_stats=stats[1],
            output=tuple(result.output),
            steps=result.steps,
            static_bypass_checked=_static_bypass_checked(
                program, DEFAULT_CACHE
            ),
        )))
    return rows


def reference_table():
    """The Figure 5 rows scored by the reference serial replay.

    ``figure5_table`` scores through the sweep dispatcher, so this leg
    builds its rows from ``run_benchmark`` instead: that path replays
    each trace through :func:`~repro.cache.replay.replay_trace` and
    the online simulator, keeping the oracle pinned to the golden file.
    """
    from repro.evalharness.experiment import run_benchmark
    from repro.evalharness.figure5 import Figure5Row, figure5_options

    return [
        Figure5Row.from_result(
            run_benchmark(name, options=figure5_options())
        )
        for name in BENCHMARK_NAMES
    ]


#: The golden pin's legs: how each one builds the measured table.
LEGS = {
    "reference": reference_table,
    "functional": functional_table,
    "sweep": figure5_table,
}


def row_payload(row):
    return {
        "static_percent_unambiguous": row.static_percent_unambiguous,
        "static_bypass_checked": row.static_bypass_checked,
        "dynamic_percent_unambiguous": row.dynamic_percent_unambiguous,
        "cache_traffic_reduction": row.cache_traffic_reduction,
        "bus_traffic_reduction": row.bus_traffic_reduction,
        "dynamic_refs": row.dynamic_refs,
    }


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_figure5_matches_golden(leg):
    measured = {row.name: row_payload(row) for row in LEGS[leg]()}
    if os.environ.get("REPRO_REGEN_GOLDEN") and leg == "reference":
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert set(golden) == set(BENCHMARK_NAMES)
    # Compare exactly — these are deterministic integer-arithmetic
    # pipelines; float equality is intentional, not a tolerance bug.
    assert measured == golden


def test_golden_covers_all_benchmarks():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(BENCHMARK_NAMES)
    for name, values in golden.items():
        assert values["dynamic_refs"] > 0, name
