"""N-level cache hierarchies over the unified semantics.

The paper's experiments score a single data cache; this module asks
the natural follow-up: in a memory hierarchy, *which levels* do the
compiler's annotations address?  A ``UmAm_*`` reference marked bypass
certainly skips the first-level cache — but whether it also skips the
levels below is a design choice with measurable consequences, so the
model makes bypass an *addressing set* (``HierarchySpec.bypass_levels``,
a subset of the level names): the reference probes-and-invalidates at
every level the set names and is a perfectly ordinary cached reference
at every level it does not.  The set also takes the historical
two-position spellings: ``"l1"`` addresses the innermost level only and
``"both"`` addresses every level.

Kill bits always act at the innermost level only: the liveness argument
(Section 3.2) is about the level whose working set the register
allocator manages; a dead first-level line may still serve a future
miss from an outer level.  (The multi-core layer in
:mod:`repro.cache.multicore` deliberately relaxes this as an
experiment knob; the hierarchy core itself does not.)

Two inclusion disciplines are modeled:

* ``"inclusive"`` — every outer level holds a superset of the one
  inside it.  All levels are then scored *standalone over the
  unfiltered stream* through the one-pass sweep dispatcher
  (:func:`~repro.cache.stackdist.replay_trace_sweep`), which is exact
  for an inclusive hierarchy whose outer recency state is updated on
  inner hits: with LRU, nested set counts and non-decreasing
  associativity, a block at inner stack distance ``d`` sits at outer
  distance ``<= d``, so residency inside implies residency outside and
  per-level hit counts follow from the standalone scores.  The nesting
  conditions are validated at construction.
* ``"non-inclusive"`` — each level sees only the references its inner
  neighbour could not serve.  Every inner level is scored once per
  trace and config as a *level outcome* (:func:`level_outcome`: the
  level's stats plus a per-event hit mask) — on the set-major kernel
  for an LRU level, where an event hits exactly when its stack
  distance is at most the associativity, and by the reference loop
  (:func:`~repro.cache.replay.replay_trace`) otherwise — and the mask
  cuts the filtered stream out of the trace's columns; the outermost
  level is scored on the final residual stream through the sweep
  dispatcher.
  :class:`HierarchyCache` chains the online simulators and is
  bit-identical to this by construction — the differential harness
  holds the offline scorer to it.

Every level is a full :class:`~repro.cache.semantics.UnifiedCache`
over a pluggable :class:`~repro.cache.semantics.ReplacementPolicy`, so
any zoo policy works at any level (``L2:512x8@srrip``); the offline
scorer materializes each level's stream, which is what the policies
that read trace columns (MIN, SHiP, Hawkeye) need.  Those levels take
the reference loop.

Modeling simplification, stated once: a level's victim writebacks are
accounted as bus words on the bus *below* it but do not allocate or
re-dirty lines in the next level — a write-no-allocate victim path.
Each level's ``bus_words`` therefore measures the traffic below it
(the last level: the memory bus).
"""

from dataclasses import replace

import numpy

from repro.cache.cache import Cache, CacheConfig, POLICIES
from repro.cache.replay import replay_trace
from repro.cache.semantics import flag_presence
from repro.cache.stackdist import engines_for, flavor_key, replay_trace_sweep
from repro.cache.vectorized import vector_profile_pass
from repro.errors import ReproError
from repro.vm.trace import FLAG_KILL, TraceBuffer

INCLUSIONS = ("inclusive", "non-inclusive")


class HierarchyError(ReproError, ValueError):
    """A malformed hierarchy spec (bad token, duplicate level, …).

    Subclasses both :class:`~repro.errors.ReproError` (stage-tagged,
    so the CLI's structured-error wrapper and the failure records
    classify it) and :class:`ValueError` (so long-standing
    ``except ValueError`` call sites keep working).
    """

    stage = "hierarchy"


def _resolve_bypass(value, names):
    """Normalize a bypass addressing ``value`` to level names, in order.

    ``value`` may be ``None`` (default: the innermost level), one of
    the two-position spellings ``"l1"``/``"both"``, a ``"+"``-joined
    string of level names (``"L1+L3"``), or an iterable of names.
    Names resolve case-insensitively; the result is deduplicated and
    ordered processor-outward.
    """
    if value is None:
        return (names[0],)
    if isinstance(value, str):
        if value == "both":
            return tuple(names)
        parts = [part.strip() for part in value.split("+") if part.strip()]
    else:
        parts = [str(part).strip() for part in value]
    lowered = {name.lower(): name for name in names}
    resolved = []
    for part in parts:
        match = lowered.get(part.lower())
        if match is None and part.lower() == "l1" and len(parts) == 1:
            # The two-position spelling on a hierarchy whose first
            # level is not literally named "L1".
            match = names[0]
        if match is None:
            raise HierarchyError(
                "bad bypass level {!r} (expected 'both', 'l1', or "
                "'+'-joined level names among {})".format(
                    part, "/".join(names)
                )
            )
        if match not in resolved:
            resolved.append(match)
    if not resolved:
        raise HierarchyError("empty bypass addressing")
    return tuple(name for name in names if name in resolved)


class HierarchySpec:
    """Geometry and discipline of an N-level hierarchy.

    ``levels`` is a tuple of ``(name, CacheConfig)`` pairs ordered
    from the processor outward (two or more; names unique); every
    config shares the innermost level's ``line_words`` (mixed line
    sizes would make the inter-level traffic accounting ambiguous).
    ``bypass_levels`` is the set of level names the bypass bit
    addresses (anything :func:`_resolve_bypass` accepts, ``"l1"`` and
    ``"both"`` included), stored processor-outward.
    """

    __slots__ = ("levels", "inclusion", "bypass_levels")

    def __init__(self, levels, inclusion="non-inclusive",
                 bypass_levels=None):
        levels = tuple(levels)
        if len(levels) < 2:
            raise HierarchyError("a hierarchy needs at least two levels")
        if inclusion not in INCLUSIONS:
            raise HierarchyError("unknown inclusion {!r}".format(inclusion))
        names = [name for name, _config in levels]
        seen = set()
        for name in names:
            key = name.lower()
            if key in seen:
                raise HierarchyError(
                    "duplicate level name {!r}".format(name)
                )
            seen.add(key)
        line_words = levels[0][1].line_words
        for _name, config in levels[1:]:
            if config.line_words != line_words:
                raise HierarchyError(
                    "hierarchy levels must share line_words"
                )
        if inclusion == "inclusive":
            for (inner_name, inner), (outer_name, outer) in zip(
                levels, levels[1:]
            ):
                if (
                    outer.num_sets % inner.num_sets
                    or outer.associativity < inner.associativity
                ):
                    raise HierarchyError(
                        "inclusive hierarchy requires nested geometry: "
                        "{} ({} sets x {} ways) does not nest inside "
                        "{} ({} sets x {} ways)".format(
                            inner_name, inner.num_sets, inner.associativity,
                            outer_name, outer.num_sets, outer.associativity,
                        )
                    )
        self.levels = levels
        self.inclusion = inclusion
        self.bypass_levels = _resolve_bypass(bypass_levels, tuple(names))

    @property
    def bypass_level(self):
        """The addressing set in legacy spelling where representable.

        ``"l1"`` when only the innermost level is addressed, ``"both"``
        when every level is, otherwise the ``"+"``-joined name list.
        Kept so E16-era reporting rows and scripts read unchanged.
        """
        names = tuple(name for name, _config in self.levels)
        if self.bypass_levels == (names[0],):
            return "l1"
        if self.bypass_levels == names:
            return "both"
        return "+".join(self.bypass_levels)

    def level_configs(self):
        """The effective per-level configs the chain drives.

        Bypass is honored only at the levels the addressing set names;
        kills are honored only at the innermost level.  A base config
        that already disables a flag stays disabled (the gates compose
        with ``and``).
        """
        configs = []
        for position, (name, config) in enumerate(self.levels):
            configs.append(
                replace(
                    config,
                    honor_bypass=(
                        config.honor_bypass and name in self.bypass_levels
                    ),
                    honor_kill=config.honor_kill and position == 0,
                )
            )
        return configs

    def __repr__(self):
        return "HierarchySpec({}, {}, bypass={})".format(
            ",".join(
                "{}:{}x{}".format(name, cfg.size_words, cfg.associativity)
                for name, cfg in self.levels
            ),
            self.inclusion,
            self.bypass_level,
        )

    def describe(self):
        """The canonical spec string (parseable by :func:`parse_hierarchy`)."""
        parts = []
        for name, cfg in self.levels:
            token = "{}:{}x{}".format(name, cfg.size_words, cfg.associativity)
            if cfg.policy != "lru":
                token += "@" + cfg.policy
            parts.append(token)
        parts.append(self.inclusion)
        parts.append("bypass=" + self.bypass_level)
        return ",".join(parts)


def parse_hierarchy(text, base=None, inclusion=None, bypass_levels=None):
    """Parse ``"L1:64x2,L2:512x8,L3:4096x8"`` into a :class:`HierarchySpec`.

    Each ``NAME:SIZExASSOC[@POLICY]`` part builds a level from ``base``
    (default :class:`CacheConfig`) with ``size_words``,
    ``associativity`` and optionally ``policy`` overridden.  The comma
    list also accepts the bare discipline tokens ``inclusive`` /
    ``non-inclusive`` and ``bypass=`` addressing tokens —
    ``bypass=L1+L3`` names levels directly; ``bypass=l1`` /
    ``bypass=both`` are the two-position spellings.  Whitespace
    around tokens is ignored.  Duplicate level names and contradictory
    repeated ``inclusive``/``bypass=`` tokens raise
    :class:`HierarchyError` (stage ``hierarchy``) instead of silently
    taking the last value; explicit keyword arguments win over tokens.
    """
    if base is None:
        base = CacheConfig()
    levels = []
    token_inclusion = None
    token_bypass = None
    for raw in text.split(","):
        part = raw.strip()
        if not part:
            continue
        if part in INCLUSIONS:
            if token_inclusion is not None and token_inclusion != part:
                raise HierarchyError(
                    "contradictory inclusion tokens {!r} and {!r}".format(
                        token_inclusion, part
                    )
                )
            token_inclusion = part
            continue
        if part.startswith("bypass="):
            value = part[len("bypass="):].strip()
            if token_bypass is not None and token_bypass != value:
                raise HierarchyError(
                    "contradictory bypass tokens {!r} and {!r}".format(
                        token_bypass, value
                    )
                )
            token_bypass = value
            continue
        policy = None
        geometry_part = part
        if "@" in part:
            geometry_part, policy = part.rsplit("@", 1)
            policy = policy.strip().lower()
            if policy not in POLICIES:
                raise HierarchyError(
                    "bad level policy {!r} (expected one of {})".format(
                        policy, "/".join(POLICIES)
                    )
                )
        try:
            name, geometry = geometry_part.split(":")
            name = name.strip()
            size_text, assoc_text = geometry.strip().lower().split("x")
            size_words = int(size_text)
            associativity = int(assoc_text)
        except ValueError:
            raise HierarchyError(
                "bad hierarchy level {!r} (expected NAME:SIZExASSOC, "
                "e.g. L1:64x2)".format(part)
            )
        overrides = {
            "size_words": size_words,
            "associativity": associativity,
        }
        if policy is not None:
            overrides["policy"] = policy
        levels.append((name, replace(base, **overrides)))
    if bypass_levels is None:
        bypass_levels = token_bypass
    return HierarchySpec(
        levels,
        inclusion=inclusion or token_inclusion or "non-inclusive",
        bypass_levels=bypass_levels,
    )


class HierarchyCache:
    """Online chained hierarchy: the reference model.

    Drives one :class:`~repro.cache.semantics.UnifiedCache` per level
    (built from :meth:`HierarchySpec.level_configs`, whose honor gates
    encode the bypass addressing and innermost-only kills); a
    reference propagates outward until some level serves it (every
    outcome except ``"hit"`` — misses *and* bypasses — falls through).
    The offline scorers in :func:`hierarchy_stats` are held
    bit-identical to this model by the differential harness.

    The online chain builds each level's policy from its config alone,
    so the policies that read trace columns (MIN, SHiP, Hawkeye) —
    which need a per-level precomputed stream — are offline-only
    (:func:`hierarchy_stats`): a level running one of them raises
    :class:`ValueError` here.
    """

    def __init__(self, spec):
        self.spec = spec
        self.caches = [Cache(config) for config in spec.level_configs()]

    def access(self, address, is_write, bypass=False, kill=False):
        """Run one reference through the hierarchy; returns the name of
        the level that served it (or ``"memory"``)."""
        for position, cache in enumerate(self.caches):
            outcome = cache.access(address, is_write, bypass, kill)
            if outcome == "hit":
                return self.spec.levels[position][0]
        return "memory"

    def stats(self):
        """Per-level :class:`CacheStats`, as ``{name: stats}``."""
        return {
            name: cache.stats
            for (name, _cfg), cache in zip(self.spec.levels, self.caches)
        }


class HierarchyStats:
    """Scored hierarchy: per-level stats plus the derived metrics."""

    __slots__ = ("spec", "levels")

    def __init__(self, spec, levels):
        self.spec = spec
        self.levels = levels  # list of (name, CacheStats)

    def __getitem__(self, name):
        for level_name, stats in self.levels:
            if level_name == name:
                return stats
        raise KeyError(name)

    def as_dict(self):
        """Flat reporting row (JSON-friendly).

        Per-level ``{name}_hits`` / ``_misses`` / ``_miss_rate`` /
        ``_bus_words`` keys, localized ``{name}_local_hits`` /
        ``_local_miss_rate`` for every level past the first (for the
        inclusive discipline the standalone scores are globalized, so
        each level is localized against its inner neighbour), adjacent
        ``{inner}_{outer}_bus_words`` pairs, and ``memory_bus_words``.
        ``l1_l2_bus_words`` survives as a deprecated alias for the
        innermost level's downstream bus.
        """
        row = {
            "hierarchy": self.spec.describe(),
            "inclusion": self.spec.inclusion,
            "bypass_level": self.spec.bypass_level,
            "levels": [name for name, _stats in self.levels],
        }
        for name, stats in self.levels:
            key = name.lower()
            row[key + "_hits"] = stats.hits
            row[key + "_misses"] = stats.misses
            row[key + "_miss_rate"] = stats.miss_rate
            row[key + "_bus_words"] = stats.bus_words
        inclusive = self.spec.inclusion == "inclusive"
        for (inner_name, inner), (name, stats) in zip(
            self.levels, self.levels[1:]
        ):
            if inclusive:
                # This level's stats are global (scored on the
                # unfiltered stream); localize against the level inside.
                local_hits = stats.hits - inner.hits
            else:
                local_hits = stats.hits
            local_accesses = local_hits + stats.misses
            row["{}_local_hits".format(name.lower())] = local_hits
            row["{}_local_miss_rate".format(name.lower())] = (
                stats.misses / local_accesses if local_accesses else 0.0
            )
            row["{}_{}_bus_words".format(
                inner_name.lower(), name.lower()
            )] = inner.bus_words
        row["memory_bus_words"] = self.levels[-1][1].bus_words
        # Deprecated alias (pre-N-level reporting shape).
        row["l1_l2_bus_words"] = self.levels[0][1].bus_words
        return row


def level_outcome(trace, config):
    """One level's ``(stats, hits)`` over ``trace``: its level outcome.

    ``stats`` is the level's :class:`~repro.cache.stats.CacheStats`
    (a fresh copy on every call); ``hits`` is a read-only NumPy
    boolean mask with one entry per event, true exactly where
    :meth:`Cache.access` returns ``"hit"``.  The engine table
    (:func:`~repro.cache.stackdist.engines_for`, consumer ``"hits"``)
    picks the scorer: the set-major kernel, where an event hits
    exactly when its stack distance is at most the associativity, or
    the reference loop (:func:`~repro.cache.replay.replay_trace`).
    The outcome is memoized per config on the trace
    (:meth:`~repro.vm.trace.TraceBuffer.memoized`), so every caller
    that filters the same trace through the same level shares one
    scoring.
    """
    stats, hits = trace.memoized(
        ("level_outcome", config), lambda: _score_level(trace, config)
    )
    return replace(stats), hits


def _score_level(trace, config):
    """:func:`level_outcome` without the memo."""
    columns = trace.to_columns()
    has_bypass, has_kill = flag_presence(columns)
    name = engines_for(config, has_bypass, has_kill, "hits")[0]
    hits = numpy.empty(len(trace), dtype=bool)
    if name == "vector_profile_pass":
        stats = vector_profile_pass(
            columns, flavor_key(config, has_bypass, has_kill),
            config.num_sets, config.associativity,
            order=trace.set_partition(config.num_sets, config.line_words),
            hits=hits,
        ).stats_for(config.associativity)
    else:
        stats = replay_trace(trace, config, hits=hits)
    hits.flags.writeable = False
    return stats, hits


def filtered_trace(trace, config):
    """Score one level; return ``(stats, stream_passed_down)``.

    The level's :func:`level_outcome` decides which events it serves;
    the downstream stream is every other event (misses and bypasses),
    in order, with every flag except ``FLAG_KILL`` (kills are an
    innermost-level directive; whether an outer level honors the
    surviving bypass bit is that level's ``honor_bypass`` gate).  The
    stream is cut out of the trace's columns with the miss mask.
    """
    stats, hits = level_outcome(trace, config)
    addresses, flags = trace.to_columns()
    passed = ~hits
    downstream = TraceBuffer(max_events=None)
    downstream.addresses.frombytes(addresses[passed].tobytes())
    downstream.flags.frombytes(
        (flags[passed] & (0xFF ^ FLAG_KILL)).tobytes()
    )
    return stats, downstream


def hierarchy_stats(trace, spec):
    """Score ``trace`` through every level of ``spec``.

    Inclusive hierarchies score every level standalone over the full
    stream in one :func:`~repro.cache.stackdist.replay_trace_sweep`
    call (one-pass stack-distance profiling whenever the level's
    config supports it); non-inclusive hierarchies chain the levels,
    scoring each on the stream its inner neighbour passed through.
    Returns a :class:`HierarchyStats`.
    """
    configs = spec.level_configs()
    if spec.inclusion == "inclusive":
        scored = replay_trace_sweep(trace, configs)
        return HierarchyStats(
            spec,
            [
                (name, stats)
                for (name, _cfg), stats in zip(spec.levels, scored)
            ],
        )

    levels = []
    current = trace
    last = len(spec.levels) - 1
    for position, (name, _config) in enumerate(spec.levels):
        config = configs[position]
        if position == last:
            # Outermost level: score the residual stream through the
            # one-pass dispatcher.
            (stats,) = replay_trace_sweep(current, [config])
        else:
            stats, current = filtered_trace(current, config)
        levels.append((name, stats))
    return HierarchyStats(spec, levels)
