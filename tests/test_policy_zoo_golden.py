"""Golden-file regression test pinning the E17 policy-zoo table.

``tests/golden/policyzoo.json`` pins the {policy} x {conventional,
unified} hit/miss/bus numbers for all six benchmarks at one geometry
(64 words, 4-way — small enough that replacement decisions matter).
Any change to the RRIP mechanics, the signature scheme, the OPTgen
oracle, or the kill/bypass interaction that moves a single count
fails here.  The table is held twice: as the report scores it (the
sweep dispatcher, under the ambient ``REPRO_SWEEP_ENGINE``) and
through the reference :func:`~repro.cache.replay.replay_trace` loop,
one cell at a time.

To regenerate after an *intentional* semantics change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_policy_zoo_golden.py -q

The suite also asserts that ``tests/golden/figure5.json`` is
byte-identical to its committed form after the zoo replays — the zoo
must not perturb the LRU baseline.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.cache.replay import replay_trace
from repro.evalharness.sweeps import (
    ZOO_GEOMETRY,
    ZOO_POLICIES,
    _trace_for,
    policy_zoo_sweep,
)
from repro.programs import BENCHMARK_NAMES

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "policyzoo.json"
)
FIGURE5_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "figure5.json"
)


#: The golden's fields per cell.
FIELDS = ("hits", "misses", "refs_cached", "dead_drops", "bus_words",
          "hit_rate")


def measured_table():
    table = {}
    for name in BENCHMARK_NAMES:
        rows = policy_zoo_sweep(name, base=ZOO_GEOMETRY)
        for row in rows:
            key = "{}/{}/{}".format(name, row["policy"], row["scheme"])
            table[key] = {field: row[field] for field in FIELDS}
    return table


def reference_table():
    """The same cells, each replayed alone through ``replay_trace``."""
    table = {}
    for name in BENCHMARK_NAMES:
        trace, _program = _trace_for(name)
        for policy in ZOO_POLICIES:
            for scheme in ("conventional", "unified"):
                honor = scheme == "unified"
                stats = replay_trace(trace, replace(
                    ZOO_GEOMETRY, policy=policy,
                    honor_bypass=honor, honor_kill=honor,
                ))
                key = "{}/{}/{}".format(name, policy, scheme)
                table[key] = {
                    field: getattr(stats, field) for field in FIELDS
                }
    return table


@pytest.fixture(scope="module")
def measured():
    return measured_table()


def test_policy_zoo_matches_golden(measured):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    # Compare exactly — replacement is deterministic integer
    # arithmetic; float equality is intentional, not a tolerance bug.
    assert measured == golden


def test_reference_replay_matches_golden():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert reference_table() == golden


def test_golden_covers_the_full_grid():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    want = {
        "{}/{}/{}".format(name, policy, scheme)
        for name in BENCHMARK_NAMES
        for policy in ZOO_POLICIES
        for scheme in ("conventional", "unified")
    }
    assert set(golden) == want
    for key, values in golden.items():
        assert values["hits"] + values["misses"] == values["refs_cached"], key


def test_scheme_semantics_hold_under_every_policy():
    """Scheme invariants that follow from the honor flags, policy by
    policy: conventional ignores kill bits (no dead drops) and caches
    every reference, so the unified cached stream is never larger."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    for name in BENCHMARK_NAMES:
        for policy in ZOO_POLICIES:
            conv = golden["{}/{}/conventional".format(name, policy)]
            unif = golden["{}/{}/unified".format(name, policy)]
            assert conv["dead_drops"] == 0, (name, policy)
            assert unif["refs_cached"] <= conv["refs_cached"], (name, policy)


def test_figure5_golden_untouched():
    """The LRU baseline is byte-identical to the committed Figure 5
    pin — adding the zoo must not have moved it."""
    with open(FIGURE5_GOLDEN_PATH, "rb") as handle:
        raw = handle.read()
    golden = json.loads(raw)
    assert sorted(golden) == sorted(BENCHMARK_NAMES)
    # A regen writes sorted keys, 2-space indent, trailing newline;
    # anything else means the file was edited by hand or the format
    # drifted.
    expected = json.dumps(
        golden, indent=2, sort_keys=True
    ).encode() + b"\n"
    assert raw == expected
