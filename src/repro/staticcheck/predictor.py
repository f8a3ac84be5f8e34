"""The static-only Figure 5 predictor: hit ratios without a cache.

If the tiered analysis (:mod:`repro.staticcheck.mustmay` plus the
exact refinement in :mod:`repro.staticcheck.exact`) really decides
every reference, the cache simulator is redundant for hit counting:
each dynamic event's outcome is already written down in its site's
verdict.  This module cashes that claim in.  It executes the program
once over flat memory — **no** :class:`~repro.cache.semantics.UnifiedCache`,
no replacement state, no probe — and counts predicted hits and misses
purely from the verdicts:

* ``always-hit`` / ``exact-hit``   → predicted hit;
* ``always-miss`` / ``exact-miss`` → predicted miss;
* ``exact-persistent`` → predicted present exactly when the address
  was installed through the cache and not since removed by a bypass
  or kill (the same history the cross-validator replays; exact
  because the verdict certifies the involved sets never evict);
* ``input-dependent`` / ``unknown`` → *unpredicted*: the event is
  counted but the prediction is disqualified from exactness.

The bookkeeping mirrors :class:`~repro.cache.semantics.UnifiedCache`
stat semantics exactly: honored bypasses never touch ``hits`` /
``misses`` (they are ``refs_bypassed``), while killed references
still score hit-or-miss by presence.  A prediction with zero
unpredicted events therefore makes a falsifiable claim — its
``hits``/``misses`` must equal the simulator's for the same program
and geometry — and the Figure 5 harness
(:func:`repro.evalharness.figure5.static_predictor_table`) checks
that equality benchmark by benchmark.
"""

from repro.cache.cache import CacheConfig
from repro.staticcheck.crossval import (
    AUDIT_HIT,
    AUDIT_NONE,
    AUDIT_PERSISTENT,
    plan_ref,
    site_plan,
)
from repro.staticcheck.mustmay import analyze_program
from repro.vm.memory import FlatMemory, MemorySystem


class PredictingMemory(MemorySystem):
    """Flat memory that scores hits/misses from static verdicts alone.

    Each site's verdict dispatch and presence-history effect come from
    the same :func:`~repro.staticcheck.crossval.site_plan` the
    cross-validator audits with.
    """

    def __init__(self, analysis, flat=None):
        self.analysis = analysis
        self.flat = flat if flat is not None else FlatMemory()
        self.hits = 0
        self.misses = 0
        self.refs_total = 0
        self.refs_bypassed = 0
        self.unpredicted = 0
        self.unpredicted_sites = {}
        self._plan = site_plan(analysis)
        self._installed = set()

    def _predict(self, address, ref):
        self.refs_total += 1
        entry = self._plan.get(id(ref))
        if entry is None:
            entry = plan_ref(ref, self.analysis.config)
        if entry.bypass:
            # Bypass path: served around the cache, never a hit/miss
            # event.
            self.refs_bypassed += 1
        elif entry.audit == AUDIT_NONE:
            self.unpredicted += 1
            site = entry.site
            if site is not None and len(self.unpredicted_sites) < 10:
                self.unpredicted_sites.setdefault(
                    site.where(), site.classification.value
                )
        elif entry.audit == AUDIT_HIT or (
            entry.audit == AUDIT_PERSISTENT and address in self._installed
        ):
            self.hits += 1
        else:
            self.misses += 1
        if entry.removes:
            self._installed.discard(address)
        else:
            self._installed.add(address)

    def read(self, address, ref):
        self._predict(address, ref)
        return self.flat.words.get(address, 0)

    def write(self, address, value, ref):
        self._predict(address, ref)
        self.flat.words[address] = value

    def poke(self, address, value):
        self.flat.poke(address, value)

    def peek(self, address):
        return self.flat.peek(address)


class StaticPrediction:
    """One program's verdict-predicted cache behavior under one
    geometry."""

    __slots__ = ("analysis", "config", "hits", "misses", "refs_total",
                 "refs_bypassed", "unpredicted", "unpredicted_sites",
                 "result")

    def __init__(self, analysis, memory, result):
        self.analysis = analysis
        self.config = analysis.config
        self.hits = memory.hits
        self.misses = memory.misses
        self.refs_total = memory.refs_total
        self.refs_bypassed = memory.refs_bypassed
        self.unpredicted = memory.unpredicted
        self.unpredicted_sites = memory.unpredicted_sites
        self.result = result

    @property
    def exact(self):
        """Did every through-cache event carry a definite verdict?
        Only then do ``hits``/``misses`` claim simulator equality."""
        return self.unpredicted == 0

    @property
    def refs_cached(self):
        return self.hits + self.misses + self.unpredicted

    @property
    def hit_rate(self):
        """Predicted hit rate of the through-cache references (the
        simulator's ``CacheStats.hit_rate``); meaningless unless
        ``exact``."""
        cached = self.refs_cached
        if not cached:
            return 0.0
        return self.hits / cached

    def agrees_with(self, stats):
        """Exact agreement with a simulated
        :class:`~repro.cache.stats.CacheStats` for the same run."""
        return (
            self.exact
            and self.hits == stats.hits
            and self.misses == stats.misses
        )

    def describe(self):
        body = "{} hits / {} misses predicted, {} bypassed".format(
            self.hits, self.misses, self.refs_bypassed
        )
        if self.exact:
            return body + " (exact)"
        return body + ", {} unpredicted (first: {})".format(
            self.unpredicted,
            "; ".join(
                "{} [{}]".format(where, verdict)
                for where, verdict in sorted(
                    self.unpredicted_sites.items()
                )[:3]
            ) or "?",
        )


def predict_program(
    program,
    cache_config=None,
    entry="main",
    max_steps=None,
    analysis=None,
    exact_budget=None,
):
    """Run ``program`` once under :class:`PredictingMemory`.

    Builds the exactly-refined analysis when none is passed.  Raises
    :class:`~repro.staticcheck.StaticCheckError` when the geometry is
    outside the analysis's model (multi-word lines, write-around, ...)
    — the predictor has nothing sound to say there.
    """
    if cache_config is None:
        cache_config = CacheConfig()
    if analysis is None:
        analysis = analyze_program(
            program, cache_config, entry=entry, exact=True,
            exact_budget=exact_budget,
        )
    memory = PredictingMemory(analysis)
    kwargs = {}
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    result = program.run(entry=entry, memory=memory, **kwargs)
    return StaticPrediction(analysis, memory, result)
