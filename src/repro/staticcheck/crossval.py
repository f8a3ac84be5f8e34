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

Presence is read just before the access, from the map the cache
itself finds blocks in: the policy's ``resident`` map, block to entry
(the analysis models one-word lines, so a block is its address).  The
access is one call of the site's own transfer function, its read or
write flavor off :attr:`UnifiedCache.on_flags
<repro.cache.semantics.UnifiedCache>`, picked when the site is bound;
nothing per event decodes a bit.

Static sites are keyed by RefInfo identity: each Load/Store owns one
:class:`~repro.ir.instructions.RefInfo`, so ``id(ref)`` connects
dynamic events to static classifications with no trace-format
changes.  :func:`site_plan` turns an analysis into one
:class:`SitePlan` per site — what an event of that site counts, audits
and does to the presence history — and both the validator and the
static-only predictor (:mod:`repro.staticcheck.predictor`) read it.
Sites are bound at machine construction, not looked up per event: the
VM asks the memory system's ``bind_site`` for each site while it
builds its handlers, and the validator compiles that site's plan
entry and transfer functions, once per RefInfo, into the
``read_at``/``write_at`` closures every event of the site then calls
(:meth:`ValidatingMemory.bind_site`).
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
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE

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

    The analysis is compiled once, here, into :func:`site_plan`, and
    each site's plan entry once more into the site's own ``read_at`` /
    ``write_at`` closures (:meth:`bind_site`), which the VM asks for
    while it builds its handlers.  An event then costs one count and
    one call of its site's transfer function, plus the presence check
    its verdict audits; no plan is looked up during the run.  ``read``
    and ``write`` call the same closures.
    """

    def __init__(self, analysis, flat=None, max_mismatches=25):
        self.analysis = analysis
        # The audit drives the canonical transfer functions directly,
        # the per-event semantics every other engine is defined
        # against.
        self.cache = UnifiedCache(analysis.config)
        self.flat = flat if flat is not None else FlatMemory()
        self.max_mismatches = max_mismatches
        self.mismatches = []
        self._counts = [0] * len(_VERDICTS)
        self._plan = site_plan(analysis)
        # The presence history behind exact-persistent audits: which
        # addresses are currently installed through the cache.  Exact
        # for every address living in a certified (eviction-free) set;
        # persistent verdicts are only ever issued for those.
        self._installed = set()
        #: ``id(ref) -> (ref, read_at, write_at)``.  The closures hold
        #: no reference to this object, so a dropped run frees it at
        #: once.
        self._bound = {}

    @property
    def events_total(self):
        return sum(self._counts)

    @property
    def events_classified(self):
        return _tally(self._counts)[1]

    @property
    def event_tiers(self):
        return _tally(self._counts)[2]

    def read(self, address, ref):
        return self.bind_site(ref)[0](address)

    def write(self, address, value, ref):
        self.bind_site(ref)[1](address, value)

    def bind_site(self, ref):
        """The site's audit as ``(read_at, write_at)``, compiled from its
        plan entry on the first call for ``ref`` and memoized by
        ``id(ref)``, so the VM's handlers and fused bodies, ``read``
        and ``write`` share one pair per site (see
        :meth:`~repro.vm.memory.MemorySystem.bind_site`).  A planned
        site's bypass and kill bits were read when this memory was
        built, an unplanned one's are read here."""
        bound = self._bound.get(id(ref))
        if bound is None or bound[0] is not ref:
            bound = self._bound[id(ref)] = (ref,) + self._compile_site(ref)
        return bound[1:]

    def _compile_site(self, ref):
        entry = self._plan.get(id(ref))
        if entry is None:
            entry = plan_ref(ref, self.analysis.config)
        slot, kind, bypass, kill, removes, site, verdict = entry
        counts = self._counts
        bits = (FLAG_BYPASS if bypass else 0) | (FLAG_KILL if kill else 0)
        on_flags = self.cache.on_flags
        cache_read, cache_write = on_flags[bits], on_flags[bits | FLAG_WRITE]
        words = self.flat.words
        get = words.get
        installed = self._installed
        track = installed.discard if removes else installed.add

        if kind == AUDIT_NONE:
            def read_at(address):
                counts[slot] += 1
                cache_read(address)
                track(address)
                return get(address, 0)

            def write_at(address, value):
                counts[slot] += 1
                cache_write(address)
                track(address)
                words[address] = value

            return read_at, write_at

        resident = self.cache.policy.resident
        mismatches = self.mismatches
        max_mismatches = self.max_mismatches
        persistent = kind == AUDIT_PERSISTENT
        hit = kind == AUDIT_HIT

        def mismatch(address, present):
            if len(mismatches) < max_mismatches:
                mismatches.append(Mismatch(
                    site, address, sum(counts) - 1, verdict, present,
                ))

        # read_at and write_at each carry the whole audit in-line (no
        # shared helper frame: one call per reference is the hot path).
        def read_at(address):
            counts[slot] += 1
            expected = address in installed if persistent else hit
            if (address in resident) != expected:
                mismatch(address, not expected)
            cache_read(address)
            track(address)
            return get(address, 0)

        def write_at(address, value):
            counts[slot] += 1
            expected = address in installed if persistent else hit
            if (address in resident) != expected:
                mismatch(address, not expected)
            cache_write(address)
            track(address)
            words[address] = value

        return read_at, write_at

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
