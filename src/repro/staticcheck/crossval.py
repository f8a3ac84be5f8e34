"""Dynamic cross-validation of the static cache analysis.

The analysis and the simulator describe the same machine from
opposite ends: the analysis proves presence/absence from the program
text, the simulator observes it by running the program.  Replaying an
execution through the real cache model while checking every
*always-hit* / *always-miss* claim turns the two into mutual
correctness oracles — a mismatch means either the abstract transfer
functions or the concrete cache semantics are wrong, and both are
worth knowing about immediately.

The contract checked per dynamic memory reference, against whether
the block was present just before the access:

* ``ALWAYS_HIT`` / ``EXACT_HIT``   → present;
* ``ALWAYS_MISS`` / ``EXACT_MISS`` → absent;
* ``EXACT_PERSISTENT`` → present exactly when the presence history
  the validator replays itself says so: an address is predicted
  present exactly when it was installed through the cache and not
  since removed by a bypass or kill.  The certificate behind the
  verdict (:mod:`repro.staticcheck.uncertainty`) proves the involved
  sets never evict, which is precisely what makes this history exact —
  so the audit doubles as a check of the certificate.
* ``INPUT_DEPENDENT`` → nothing: the verdict *is* "either outcome can
  happen"; the event is counted as decided (the analysis finished
  with it) but not definite.
* ``UNKNOWN`` → nothing (counted, for the precision summary).

Presence comes from the one :meth:`UnifiedCache.access
<repro.cache.semantics.UnifiedCache.access>` each event makes:
``access`` looks the block up once, before it mutates anything, and
reports that lookup as a ``"hit"``, or as a ``"bypass"`` that counted
a ``probe_hits``.  A ``"miss"``, or a ``"bypass"`` that did not, found
the block absent.

Static sites are keyed by RefInfo identity: each Load/Store owns one
:class:`~repro.ir.instructions.RefInfo` and the VM hands exactly that
object to the memory system, so ``id(ref)`` connects dynamic events to
static classifications with no trace-format changes.  :func:`site_plan`
turns an analysis into one :class:`SitePlan` per site — what an event
of that site counts, audits and does to the presence history — and
both the validator and the static-only predictor
(:mod:`repro.staticcheck.predictor`) read it.
"""

from typing import NamedTuple

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

#: Audit kinds: what one event of a site claims about presence.
AUDIT_NONE, AUDIT_HIT, AUDIT_MISS, AUDIT_PERSISTENT = range(4)

_AUDIT_OF = {
    Classification.ALWAYS_HIT: AUDIT_HIT,
    Classification.EXACT_HIT: AUDIT_HIT,
    Classification.ALWAYS_MISS: AUDIT_MISS,
    Classification.EXACT_MISS: AUDIT_MISS,
    Classification.EXACT_PERSISTENT: AUDIT_PERSISTENT,
}

#: Count slots: one per verdict, in enum order.  Tiers and the
#: classified count are sums of slots.
_VERDICTS = tuple(Classification)
_SLOT_OF = {verdict: slot for slot, verdict in enumerate(_VERDICTS)}


class SitePlan(NamedTuple):
    """What one event of a static site counts, audits and tracks."""

    #: Count slot of the verdict (``unknown`` for an unplanned ref).
    slot: int
    #: ``AUDIT_NONE`` / ``AUDIT_HIT`` / ``AUDIT_MISS`` /
    #: ``AUDIT_PERSISTENT``.
    audit: int
    #: The bypass and kill bits as the geometry honors them.
    bypass: bool
    kill: bool
    #: Whether the event leaves its address out of the presence
    #: history (one-word lines, write-allocate, invalidate-mode kills —
    #: the geometries the analysis models): a through access leaves
    #: the block installed; a bypass or kill leaves it absent (a
    #: killed read misses around the cache, a killed write retires its
    #: own line after the transient allocate).
    removes: bool
    #: The :class:`~repro.staticcheck.mustmay.Site` and the verdict a
    #: :class:`Mismatch` names (``None`` for an unplanned ref).
    site: object
    verdict: object


def plan_ref(ref, config, site=None, verdict=None):
    """The :class:`SitePlan` of one reference under ``config``."""
    bypass = bool(ref.bypass) and config.honor_bypass
    kill = bool(ref.kill) and config.honor_kill
    return SitePlan(
        _SLOT_OF[Classification.UNKNOWN if verdict is None else verdict],
        _AUDIT_OF.get(verdict, AUDIT_NONE),
        bypass,
        kill,
        bypass or kill,
        site,
        verdict,
    )


def site_plan(analysis):
    """``{id(ref): SitePlan}`` for every site the analysis predicts.

    Reads ``analysis.predictions`` (the verdicts) and
    ``analysis.sites`` (the sites a :class:`Mismatch` names).  A ref
    with no entry counts in the unknown tier and audits nothing
    (:func:`plan_ref` with no verdict).
    """
    sites = {id(site.ref): site for site in analysis.sites}
    config = analysis.config
    return {
        key: plan_ref(sites[key].ref, config, sites[key], verdict)
        for key, verdict in analysis.predictions.items()
    }


def _tally(counts):
    """``(events_total, events_classified, event_tiers)`` from the
    per-slot event counts."""
    tiers = {tier: 0 for tier in TIERS}
    classified = 0
    for verdict, count in zip(_VERDICTS, counts):
        tiers[TIER_OF[verdict]] += count
        if verdict in _AUDIT_OF:
            classified += count
    return sum(counts), classified, tiers


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
    """Flat memory + online cache that audits static claims in-line.

    The analysis is compiled once, here, into :func:`site_plan`; each
    event then costs one plan lookup, one count and exactly one
    ``UnifiedCache.access``.  ``read`` and ``write`` are closures over
    that state, bound per instance.
    """

    def __init__(self, analysis, flat=None, max_mismatches=25):
        self.analysis = analysis
        # The audit drives the canonical transfer function directly:
        # access() answers presence from the same per-event semantics
        # every other engine is defined against.
        self.cache = UnifiedCache(analysis.config)
        self.flat = flat if flat is not None else FlatMemory()
        self.max_mismatches = max_mismatches
        self.mismatches = []
        self._counts = [0] * len(_VERDICTS)
        self.read, self.write = self._bind(site_plan(analysis))

    @property
    def events_total(self):
        return sum(self._counts)

    @property
    def events_classified(self):
        return _tally(self._counts)[1]

    @property
    def event_tiers(self):
        return _tally(self._counts)[2]

    def _bind(self, plan):
        """The ``read``/``write`` closures auditing against ``plan``."""
        plan_get = plan.get
        config = self.analysis.config
        counts = self._counts
        access = self.cache.access
        stats = self.cache.stats
        mismatches = self.mismatches
        max_mismatches = self.max_mismatches
        words = self.flat.words
        # The presence history behind exact-persistent audits: which
        # addresses are currently installed through the cache.  Exact
        # for every address living in a certified (eviction-free) set;
        # persistent verdicts are only ever issued for those.
        installed = set()
        install = installed.add
        remove = installed.discard

        def mismatch(address, entry, present):
            if len(mismatches) < max_mismatches:
                mismatches.append(Mismatch(
                    entry.site, address, sum(counts) - 1, entry.verdict,
                    present,
                ))

        # read and write each carry the whole audit in-line (no shared
        # helper frame: one call per reference is the hot path).
        get = words.get

        def read(address, ref):
            entry = plan_get(id(ref))
            if entry is None:
                entry = plan_ref(ref, config)
            slot, kind, bypass, kill, removes, _site, _verdict = entry
            counts[slot] += 1
            if kind:
                expected = (
                    address in installed if kind == AUDIT_PERSISTENT
                    else kind == AUDIT_HIT
                )
                probes = stats.probe_hits
                outcome = access(address, False, bypass, kill)
                present = outcome == "hit" or (
                    outcome == "bypass" and stats.probe_hits != probes
                )
                if present != expected:
                    mismatch(address, entry, present)
            else:
                access(address, False, bypass, kill)
            if removes:
                remove(address)
            else:
                install(address)
            return get(address, 0)

        def write(address, value, ref):
            entry = plan_get(id(ref))
            if entry is None:
                entry = plan_ref(ref, config)
            slot, kind, bypass, kill, removes, _site, _verdict = entry
            counts[slot] += 1
            if kind:
                expected = (
                    address in installed if kind == AUDIT_PERSISTENT
                    else kind == AUDIT_HIT
                )
                probes = stats.probe_hits
                outcome = access(address, True, bypass, kill)
                present = outcome == "hit" or (
                    outcome == "bypass" and stats.probe_hits != probes
                )
                if present != expected:
                    mismatch(address, entry, present)
            else:
                access(address, True, bypass, kill)
            if removes:
                remove(address)
            else:
                install(address)
            words[address] = value

        return read, write

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
