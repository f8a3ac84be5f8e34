"""Golden-file regression tests pinning E16 (hierarchy) and E18
(multi-core shared LLC).

``tests/golden/hierarchy.json`` pins every
:func:`~repro.evalharness.sweeps.hierarchy_sweep` row — all six
benchmarks, both inclusion disciplines, both legacy bypass levels —
for the two-level E16 geometry *and* the three-level variant, so the
N-level refactor (and anything after it) is held to the exact numbers
the fixed L1/L2 implementation produced.  ``tests/golden/multicore.json``
pins the E18 kill-vs-partitioning grid on the default intmm+sieve
pairing under both quota policies.

To regenerate after an *intentional* semantics change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_hierarchy_golden.py -q

The offline hierarchy scoring runs on the engines the engine table
names; ``tests/test_hierarchy.py`` holds them to the online chain.
"""

import json
import os

import pytest

from repro.evalharness.sweeps import (
    DEFAULT_HIERARCHY,
    DEFAULT_HIERARCHY3,
    hierarchy_sweep,
    multicore_sweep,
)
from repro.programs import BENCHMARK_NAMES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
HIERARCHY_GOLDEN = os.path.join(GOLDEN_DIR, "hierarchy.json")
MULTICORE_GOLDEN = os.path.join(GOLDEN_DIR, "multicore.json")

MULTICORE_NAMES = ("intmm", "sieve")


def _round_floats(value):
    """Stabilize float repr across JSON round-trips (12 significant
    decimal places is far beyond any legitimate drift)."""
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def measured_hierarchy():
    table = {}
    for spec in (DEFAULT_HIERARCHY, DEFAULT_HIERARCHY3):
        for name in BENCHMARK_NAMES:
            for row in hierarchy_sweep(name, hierarchy=spec):
                key = "|".join([
                    spec, name, row["inclusion"], row["bypass_level"],
                ])
                table[key] = _round_floats(row)
    return table


def measured_multicore():
    table = {}
    for partition in ("umon", "even"):
        for row in multicore_sweep(MULTICORE_NAMES, partition=partition):
            key = "|".join([
                "+".join(MULTICORE_NAMES), partition, row["config"],
            ])
            table[key] = _round_floats(row)
    return table


def _check(measured, path):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        with open(path, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(path) as handle:
        golden = json.load(handle)
    assert measured == golden


@pytest.mark.slow
def test_hierarchy_matches_golden():
    _check(measured_hierarchy(), HIERARCHY_GOLDEN)


@pytest.mark.slow
def test_multicore_matches_golden():
    _check(measured_multicore(), MULTICORE_GOLDEN)


def test_hierarchy_golden_covers_both_specs():
    with open(HIERARCHY_GOLDEN) as handle:
        golden = json.load(handle)
    specs = {key.split("|")[0] for key in golden}
    assert specs == {DEFAULT_HIERARCHY, DEFAULT_HIERARCHY3}
    names = {key.split("|")[1] for key in golden}
    assert names == set(BENCHMARK_NAMES)
    # 2 specs x 6 benchmarks x 2 inclusions x 2 bypass levels.
    assert len(golden) == 48


def test_multicore_golden_covers_grid():
    with open(MULTICORE_GOLDEN) as handle:
        golden = json.load(handle)
    configs = {key.split("|")[2] for key in golden}
    assert configs == {
        "shared", "partitioned", "kill", "kill+partitioned"
    }
    assert len(golden) == 8
    for row in golden.values():
        assert row["events"] > 0
        assert 0.0 <= row["shared_hit_rate"] <= 1.0
