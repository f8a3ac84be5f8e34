"""The planned cross-validator against the probe-then-access oracle.

:class:`~repro.staticcheck.crossval.ValidatingMemory` reads each
site's audit from :func:`~repro.staticcheck.crossval.site_plan`,
presence from the cache's ``resident`` map, and calls the site's bound
transfer functions.  :class:`scalar_reference.ProbingValidatingMemory`
keeps the per-event verdict dispatch, the separate ``probe`` and the
per-event ``access`` body (:class:`scalar_reference.ScalarCache`) that
this replaced.  Both
run the same program under the same analysis, honest or seeded with
wrong verdicts, and must agree on every count, on the cache's
statistics and on the recorded mismatches, field by field.
"""

import functools
import random
from dataclasses import replace

import pytest

from repro.cache.cache import CacheConfig
from repro.ir.instructions import Load, Store
from repro.programs import get_benchmark
from repro.robustness.generator import generate_program
from repro.staticcheck.crossval import ValidatingMemory
from repro.staticcheck.mustmay import Classification, analyze_program
from repro.unified.pipeline import CompilationOptions, compile_source

from scalar_reference import ProbingValidatingMemory

BASE = CacheConfig(size_words=64, line_words=1, associativity=2)

GEOMETRIES = {
    "lru": BASE,
    "fifo": replace(BASE, size_words=32, associativity=4, policy="fifo"),
    "random": replace(BASE, associativity=4, policy="random"),
    "srrip": replace(BASE, associativity=4, policy="srrip"),
    "writethrough": replace(BASE, write_policy="writethrough"),
    "unhonored": replace(BASE, honor_bypass=False, honor_kill=False),
}

#: Generator seeds (odd ones compile under the conventional scheme;
#: the others carry exact-tier verdicts at 64:2) and two Stanford
#: benchmarks.
INPUTS = ("gen-4", "gen-10", "gen-37", "gen-52", "puzzle", "queen")

FLIPPED = {
    Classification.ALWAYS_HIT: Classification.ALWAYS_MISS,
    Classification.ALWAYS_MISS: Classification.ALWAYS_HIT,
    Classification.EXACT_HIT: Classification.EXACT_MISS,
    Classification.EXACT_MISS: Classification.EXACT_HIT,
}


def compile_input(name):
    if name.startswith("gen-"):
        seed = int(name[4:])
        source = generate_program(seed).source
        scheme = ("unified", "conventional")[seed % 2]
    else:
        source = get_benchmark(name).source
        scheme = "unified"
    return compile_source(
        source, CompilationOptions(scheme=scheme, promotion="none")
    )


compiled = functools.lru_cache(maxsize=None)(compile_input)


@functools.lru_cache(maxsize=None)
def reannotated(name):
    """The input with a seeded third of its bypass bits toggled and a
    sixth of its kill bits, so bypassed references meet cached copies
    (sound annotations never let them) and presence is read off a
    bypass."""
    program = compile_input(name)
    rng = random.Random(3)
    for function in program.module.functions.values():
        for instruction in function.instructions():
            if isinstance(instruction, (Load, Store)):
                ref = instruction.ref
                if rng.randrange(3) == 0:
                    ref.bypass = not ref.bypass
                if rng.randrange(6) == 0:
                    ref.kill = not ref.kill
    return program


def seed_wrong_verdicts(analysis, seed):
    """Corrupt a seeded five sixths of the sites: drop the prediction
    (its ref then runs unplanned), flip a hit or miss verdict, or claim
    persistence where no certificate was issued."""
    rng = random.Random(seed)
    predictions = analysis.predictions
    for site in analysis.sites:
        key = id(site.ref)
        verdict = predictions[key]
        roll = rng.randrange(6)
        if roll == 0:
            del predictions[key]
        elif roll < 3 and verdict in FLIPPED:
            predictions[key] = FLIPPED[verdict]
        elif roll < 5 and verdict is not Classification.EXACT_PERSISTENT:
            predictions[key] = Classification.EXACT_PERSISTENT
    return analysis


def audit_both(program, analysis, max_mismatches=25):
    """Run ``program`` under the planned and the probing validator."""
    planned = ValidatingMemory(analysis, max_mismatches=max_mismatches)
    probing = ProbingValidatingMemory(analysis, max_mismatches=max_mismatches)
    results = [program.run(memory=memory) for memory in (planned, probing)]
    assert results[0].output == results[1].output
    assert results[0].return_value == results[1].return_value
    return planned, probing


def mismatch_fields(mismatch):
    return (mismatch.event_index, mismatch.address, id(mismatch.site),
            mismatch.predicted, mismatch.present)


def assert_same_audit(planned, probing):
    assert planned.events_total == probing.events_total
    assert planned.events_classified == probing.events_classified
    assert planned.event_tiers == probing.event_tiers
    assert planned.cache.stats == probing.cache.stats
    assert len(planned.mismatches) <= planned.max_mismatches
    assert ([mismatch_fields(m) for m in planned.mismatches]
            == [mismatch_fields(m) for m in probing.mismatches])


def analysis_for(program, geometry):
    return analyze_program(
        program, GEOMETRIES[geometry], exact=True, exact_budget=50_000,
    )


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("name", INPUTS)
class TestPlannedAuditEqualsProbingAudit:
    def test_honest_verdicts(self, name, geometry):
        program = compiled(name)
        planned, probing = audit_both(
            program, analysis_for(program, geometry)
        )
        assert_same_audit(planned, probing)
        assert planned.events_total > 0

    def test_seeded_wrong_verdicts(self, name, geometry):
        program = reannotated(name)
        analysis = seed_wrong_verdicts(analysis_for(program, geometry), 7)
        planned, probing = audit_both(program, analysis)
        assert_same_audit(planned, probing)
        assert planned.event_tiers["unknown"] > 0
        assert planned.mismatches
        if not name.startswith("gen-"):
            assert len(planned.mismatches) == planned.max_mismatches
            if GEOMETRIES[geometry].honor_bypass:
                assert planned.cache.stats.probe_hits > 0


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_mismatch_cap_keeps_the_first(geometry):
    """A cap of 3 keeps the same first three mismatches on both sides
    as the default cap of 25 does."""
    program = reannotated("puzzle")
    analysis = seed_wrong_verdicts(analysis_for(program, geometry), 11)
    planned, _ = audit_both(program, analysis)
    capped, capped_probing = audit_both(program, analysis, max_mismatches=3)
    assert_same_audit(capped, capped_probing)
    assert ([mismatch_fields(m) for m in capped.mismatches]
            == [mismatch_fields(m) for m in planned.mismatches[:3]])
