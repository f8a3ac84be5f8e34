"""Dynamic cross-validation of the static cache analysis.

The analysis and the simulator describe the same machine from
opposite ends: the analysis proves presence/absence from the program
text, the simulator observes it by running the program.  Replaying an
execution through the real cache model while checking every
*always-hit* / *always-miss* claim turns the two into mutual
correctness oracles — a mismatch means either the abstract transfer
functions or the concrete cache semantics are wrong, and both are
worth knowing about immediately.

The contract checked per dynamic memory reference, before the access
is applied:

* ``ALWAYS_HIT`` / ``EXACT_HIT``   → ``cache.probe(address)`` is True;
* ``ALWAYS_MISS`` / ``EXACT_MISS`` → ``cache.probe(address)`` is False;
* ``EXACT_PERSISTENT`` → ``cache.probe(address)`` equals the presence
  history the validator replays itself: an address is predicted
  present exactly when it was installed through the cache and not
  since removed by a bypass or kill.  The certificate behind the
  verdict (:mod:`repro.staticcheck.uncertainty`) proves the involved
  sets never evict, which is precisely what makes this history exact —
  so the audit doubles as a check of the certificate.
* ``INPUT_DEPENDENT`` → nothing: the verdict *is* "either outcome can
  happen"; the event is counted as decided (the analysis finished
  with it) but not definite.
* ``UNKNOWN`` → nothing (counted, for the precision summary).

Static sites are keyed by RefInfo identity: each Load/Store owns one
:class:`~repro.ir.instructions.RefInfo` and the VM hands exactly that
object to the memory system, so ``id(ref)`` connects dynamic events to
static classifications with no trace-format changes.
"""

from repro.cache.cache import CacheConfig
from repro.cache.semantics import (
    NEXT_USE_POLICIES,
    SIGNATURE_POLICIES,
    UnifiedCache,
)
from repro.staticcheck import StaticCheckError
from repro.staticcheck.mustmay import (
    TIER_OF,
    TIERS,
    Classification,
    analyze_program,
)
from repro.vm.memory import FlatMemory, MemorySystem


class Mismatch:
    """One dynamic contradiction of a static claim."""

    __slots__ = ("site", "address", "event_index", "predicted", "present")

    def __init__(self, site, address, event_index, predicted, present):
        self.site = site
        self.address = address
        self.event_index = event_index
        self.predicted = predicted
        self.present = present

    def __repr__(self):
        return (
            "Mismatch(event {} at {} {}: predicted {}, block {} present="
            "{})".format(
                self.event_index,
                self.site.where(),
                self.site.ref.access_path,
                self.predicted.value,
                self.address,
                self.present,
            )
        )


class ValidatingMemory(MemorySystem):
    """Flat memory + online cache that audits static claims in-line."""

    def __init__(self, analysis, flat=None, max_mismatches=25):
        self.analysis = analysis
        # The audit drives the canonical transfer function directly:
        # probe() and access() answer from the same per-event
        # semantics every other engine is defined against.
        self.cache = UnifiedCache(analysis.config)
        self.flat = flat if flat is not None else FlatMemory()
        self.max_mismatches = max_mismatches
        self.mismatches = []
        self.events_total = 0
        self.events_classified = 0
        self.event_tiers = {tier: 0 for tier in TIERS}
        self._predictions = analysis.predictions
        self._sites = {id(site.ref): site for site in analysis.sites}
        # The presence history behind exact-persistent audits: which
        # addresses are currently installed through the cache.  Exact
        # for every address living in a certified (eviction-free) set;
        # persistent verdicts are only ever issued for those.
        self._installed = set()
        self._honor_bypass = analysis.config.honor_bypass
        self._honor_kill = analysis.config.honor_kill

    _HIT_VERDICTS = frozenset(
        {Classification.ALWAYS_HIT, Classification.EXACT_HIT}
    )
    _MISS_VERDICTS = frozenset(
        {Classification.ALWAYS_MISS, Classification.EXACT_MISS}
    )

    def _audit(self, address, ref):
        self.events_total += 1
        verdict = self._predictions.get(id(ref))
        if verdict is None:
            self.event_tiers["unknown"] += 1
            self._track(address, ref)
            return
        self.event_tiers[TIER_OF[verdict]] += 1
        if verdict in self._HIT_VERDICTS:
            expected = True
        elif verdict in self._MISS_VERDICTS:
            expected = False
        elif verdict is Classification.EXACT_PERSISTENT:
            expected = address in self._installed
        else:  # UNKNOWN / INPUT_DEPENDENT: nothing to audit.
            self._track(address, ref)
            return
        self.events_classified += 1
        present = self.cache.probe(address)
        if present != expected and len(self.mismatches) < self.max_mismatches:
            self.mismatches.append(
                Mismatch(
                    self._sites[id(ref)],
                    address,
                    self.events_total - 1,
                    verdict,
                    present,
                )
            )
        self._track(address, ref)

    def _track(self, address, ref):
        """Replay the presence history (one-word lines, write-allocate,
        invalidate-mode kills — the geometries the analysis models).
        A through access leaves the block installed; a bypass or kill
        leaves it absent (a killed read misses around the cache, a
        killed write retires its own line after the transient
        allocate)."""
        if (ref.bypass and self._honor_bypass) or (
            ref.kill and self._honor_kill
        ):
            self._installed.discard(address)
        else:
            self._installed.add(address)

    def read(self, address, ref):
        self._audit(address, ref)
        self.cache.access(address, False, ref.bypass, ref.kill)
        return self.flat.words.get(address, 0)

    def write(self, address, value, ref):
        self._audit(address, ref)
        self.cache.access(address, True, ref.bypass, ref.kill)
        self.flat.words[address] = value

    def poke(self, address, value):
        self.flat.poke(address, value)

    def peek(self, address):
        return self.flat.peek(address)


class CrossValidationReport:
    """Outcome of one validated execution under one geometry."""

    __slots__ = ("analysis", "config", "mismatches", "events_total",
                 "events_classified", "event_tiers", "result")

    def __init__(self, analysis, memory, result):
        self.analysis = analysis
        self.config = analysis.config
        self.mismatches = memory.mismatches
        self.events_total = memory.events_total
        self.events_classified = memory.events_classified
        self.event_tiers = memory.event_tiers
        self.result = result

    @property
    def ok(self):
        return not self.mismatches

    @property
    def dynamic_classified_percent(self):
        """% of dynamic data references whose static site carried a
        definite (audited per-event) verdict: the always + exact
        tiers."""
        if not self.events_total:
            return 0.0
        return 100.0 * self.events_classified / self.events_total

    @property
    def dynamic_decided_percent(self):
        """% of dynamic references whose site the analysis finished
        with — definite verdicts plus the input-dependent tier (where
        "both outcomes happen" *is* the answer)."""
        if not self.events_total:
            return 0.0
        decided = self.events_total - self.event_tiers["unknown"]
        return 100.0 * decided / self.events_total

    def tier_percents(self):
        """{tier: % of dynamic events} for the reporting breakout."""
        total = self.events_total or 1
        return {
            tier: 100.0 * count / total
            for tier, count in self.event_tiers.items()
        }

    def describe_geometry(self):
        return "{}w/{}-way/{}".format(
            self.config.size_words,
            self.config.associativity,
            self.config.policy,
        )


def cross_validate(
    program,
    cache_config=None,
    entry="main",
    max_steps=None,
    analysis=None,
    raise_on_mismatch=False,
    globals_init=None,
    exact=False,
    exact_budget=None,
):
    """Run ``program`` once, auditing the analysis's claims.

    Returns a :class:`CrossValidationReport`; with
    ``raise_on_mismatch`` the first contradiction becomes a
    :class:`~repro.staticcheck.StaticCheckError` (stage
    ``staticcheck``, kind ``crossval``) after the run completes.
    ``exact`` (used when no ready ``analysis`` is passed) runs the
    exact refinement pass before validating, so its verdicts get
    audited too.  The cache runs online, beside the VM, so a policy
    that reads trace columns (MIN, SHiP, Hawkeye) raises
    :class:`~repro.staticcheck.StaticCheckError` (kind
    ``unsupported-geometry``).
    """
    if cache_config is None:
        cache_config = CacheConfig()
    if cache_config.policy in NEXT_USE_POLICIES + SIGNATURE_POLICIES:
        raise StaticCheckError(
            "unsupported-geometry",
            "cross-validation runs the cache online, without a trace, "
            "and the {} policy reads trace columns".format(
                cache_config.policy
            ),
        )
    if analysis is None:
        analysis = analyze_program(
            program, cache_config, entry=entry, exact=exact,
            exact_budget=exact_budget,
        )
    memory = ValidatingMemory(analysis)
    kwargs = {}
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    result = program.run(
        entry=entry, memory=memory, globals_init=globals_init, **kwargs
    )
    report = CrossValidationReport(analysis, memory, result)
    if report.mismatches and raise_on_mismatch:
        raise StaticCheckError(
            "crossval",
            "{} static/dynamic mismatch(es) under {}; first: {}".format(
                len(report.mismatches),
                report.describe_geometry(),
                report.mismatches[0],
            ),
        )
    return report
