"""One-pass, bypass/kill-aware stack-distance profiling of block streams.

Mattson's classical observation is that an LRU cache of every
associativity can be scored in a single pass: keep the referenced
blocks of a set in recency order and a reference that finds its block
at stack position ``p`` hits exactly the caches with ``assoc >= p``.
This module extends that machinery to the paper's unified-management
semantics and reconstructs **exact** :class:`~repro.cache.stats.CacheStats`
— bit-identical to the serial replay through
:class:`~repro.cache.semantics.UnifiedCache`'s transfer functions, not
approximations — for every ``(num_sets, associativity)``
geometry sharing one *flavor* (``line_words``, honored flag set,
write policy) in one pass per ``(flavor, num_sets)`` pair.

Three extensions are needed beyond the textbook stack:

* **Bypass probes and kills leave holes.**  A bypassing reference (and
  a kill on a resident block, in invalidate mode) removes the block
  from every cache that holds it, which frees a way in precisely those
  caches.  Popping the entry would mis-predict later evictions, so the
  entry is replaced by a *hole* pinned at its stack position: caches
  with ``assoc >= position`` see the free way, smaller caches (which
  had already evicted the block) see nothing.  A later install
  consumes the topmost hole above the touched position — the caches
  that had the free way absorb the fill without an eviction — and a
  touch of a block *below* a hole migrates the hole down to the
  touched block's old position.  Section "the hole algebra" in
  ``docs/PERFORMANCE.md`` spells out the case analysis.
* **Dirty thresholds.**  A block's dirtiness is not one bit but a
  threshold: a write dirties the line in every cache (write-allocate
  installs dirty, write hits dirty), while a read touch at stack
  position ``p`` re-installs *clean* in every cache with ``assoc < p``
  and preserves the state above.  So "dirty in caches with assoc >= D"
  is an invariant, with writes setting ``D = 1`` and read touches
  setting ``D = max(D, p)``.  Writebacks, dead-line drops, and
  bypass-hit flushes all become exact 2-D ``(position, D)`` histogram
  sums.
* **Evictions are prefix shifts.**  When a touch moves a block from
  position ``p`` to the top, the entries at positions ``1..p-1`` (or
  ``1..h-1`` when the hole at ``h`` absorbs the fill) shift down one
  position; an entry crossing the ``q -> q+1`` boundary is exactly an
  eviction from the ``assoc == q`` cache, and it costs a writeback
  exactly when its dirty threshold is ``<= q``.

The profiler is exact for LRU with write-allocate (any write policy,
any line size), with kills honored only when they fully invalidate
(``kill_mode == "invalidate"`` and one-word lines — the demote mode
reorders evictions away from pure recency and has no stack property).
FIFO, Random, Belady MIN, the RRIP family (SRRIP/BRRIP/DRRIP/SHiP/
Hawkeye) and the LRU specs outside the model (write-around, demoted or
multi-word-line kills) have no stack property, but their sweeps still
share one walk of the typed stream per flavor through the lane walks
in :mod:`repro.cache.semantics`
(:func:`~repro.cache.semantics.fifo_sweep` /
:func:`~repro.cache.semantics.random_sweep` /
:func:`~repro.cache.semantics.min_sweep` /
:func:`~repro.cache.semantics.lru_sweep` /
:func:`~repro.cache.semantics.rrip_sweep`).

Which engine scores which spec is decided in one place: the engine
table (:data:`ENGINE_TABLE`) lists, per spec family, the one fast
engine exact for it and the reference loop, and :func:`engines_for`
answers the dispatchers — :func:`replay_trace_sweep` and the
hierarchy's :func:`~repro.cache.hierarchy.level_outcome`.  The
set-major kernel in :mod:`repro.cache.vectorized` builds this module's
profile at every associativity cap; it runs the automaton below on the
sets its array pass cannot settle (every set, above
``VECTOR_ASSOC_CAP_LIMIT`` ways).
"""

from itertools import compress
from operator import le

import numpy as _np

from repro.cache.semantics import (
    EV_BYPASS_READ,
    EV_BYPASS_READ_KILL,
    EV_BYPASS_WRITE,
    EV_KILL_READ,
    EV_KILL_WRITE,
    EV_PLAIN_READ,
    EV_PLAIN_WRITE,
    NEXT_USE_POLICIES,
    RRIP_POLICIES,
    SIGNATURE_POLICIES,
    fifo_sweep,
    flag_presence as _flag_presence,
    flavor_decode as _flavor_decode,
    lru_sweep,
    min_sweep,
    next_use_index,
    random_sweep,
    rrip_sweep,
    signature_column,
)
from repro.cache.stats import CacheStats


def supports_stackdist(config, has_bypass, has_kill):
    """Can the profiler reproduce ``config`` exactly on such a trace?

    ``has_bypass`` / ``has_kill`` say whether the trace carries any
    bypass/kill flag bits at all: a config that honors kills over a
    kill-free trace is still pure LRU, so the trace content widens the
    supported set.
    """
    if config.policy != "lru":
        return False
    if not config.allocate_on_write:
        return False
    if config.honor_kill and has_kill:
        # Only full invalidation preserves the stack property; the
        # demote mode (and multi-word lines, which force it) prefers
        # dead lines over LRU order.
        if config.kill_mode != "invalidate" or config.line_words != 1:
            return False
    return True


def flavor_key(config, has_bypass, has_kill):
    """The profiling flavor a supported config belongs to.

    Two configs in one flavor consume the identical decoded event
    stream; they may still differ in geometry (``num_sets`` and
    ``associativity``).  Honor flags are normalized against the trace:
    honoring bypass on a bypass-free trace is the same flavor as not
    honoring it.
    """
    return (
        config.line_words,
        bool(config.honor_bypass and has_bypass),
        bool(config.honor_kill and has_kill),
        config.write_policy,
    )


#: The engine table.  ``"families"`` lists, for each spec family, the
#: engine every dispatcher calls, then ``"reference"``, the per-event
#: ``UnifiedCache`` loop (:func:`~repro.cache.replay.replay_trace`)
#: exact for every family: ``"lru"`` is LRU inside the stack-distance
#: model (:func:`supports_stackdist`), ``"min"`` is Belady MIN
#: (``policy="min"``), ``"rrip"`` is the predictive zoo
#: (:data:`~repro.cache.semantics.RRIP_POLICIES`), and ``"other"`` is
#: the LRU outside that model (write-around LRU, LRU with demote or
#: multi-word-line kills on a trace that carries kills).  ``"consumers"`` lists the engines that give what each
#: consumer needs: ``CacheStats`` for a sweep (every engine), a
#: per-event hit mask for ``level_outcome``.  Entries are names, not
#: functions: each dispatcher looks the function up through its module
#: attribute when it calls it.  ``docs/PERFORMANCE.md`` renders the
#: table, and ``tests/test_engine_table.py`` holds the two together.
ENGINE_TABLE = {
    "families": {
        "lru": ("vector_profile_pass", "reference"),
        "fifo": ("fifo_sweep", "reference"),
        "random": ("random_sweep", "reference"),
        "min": ("min_sweep", "reference"),
        "rrip": ("rrip_sweep", "reference"),
        "other": ("lru_sweep", "reference"),
    },
    "consumers": {
        "stats": ("vector_profile_pass", "fifo_sweep", "random_sweep",
                  "min_sweep", "rrip_sweep", "lru_sweep", "reference"),
        "hits": ("vector_profile_pass", "reference"),
    },
}


def engines_for(spec, has_bypass, has_kill, consumer="stats"):
    """The engines that may score ``spec`` for ``consumer``, best first.

    The first entry is the one every dispatcher calls; the conformance
    test runs them all.  ``has_bypass`` and ``has_kill`` describe the
    trace (see :func:`supports_stackdist`); ``consumer`` is
    ``"stats"`` or ``"hits"``.  Raises :class:`ValueError` when no
    engine gives what ``consumer`` needs.
    """
    if spec.policy in ("fifo", "random", "min"):
        family = spec.policy
    elif spec.policy in RRIP_POLICIES:
        family = "rrip"
    elif supports_stackdist(spec, has_bypass, has_kill):
        family = "lru"
    else:
        family = "other"
    gives = ENGINE_TABLE["consumers"][consumer]
    names = tuple(
        name for name in ENGINE_TABLE["families"][family] if name in gives
    )
    if not names:
        raise ValueError(
            "no engine gives {} for {!r}".format(consumer, spec)
        )
    return names


class StackDistanceProfile:
    """Exact sweep results for one ``(flavor, num_sets)`` pass.

    Carries the per-set-derived distance histograms (aggregated over
    sets) alongside everything needed to reconstruct exact
    :class:`CacheStats` for any profiled associativity: positions are
    1-based stack distances clipped to ``assoc_cap + 1`` (the "beyond
    every profiled cache" bucket, which includes cold and
    post-invalidation misses).
    """

    __slots__ = (
        "num_sets",
        "assoc_cap",
        "line_words",
        "write_policy",
        "constants",
        "hist_cached_read",
        "hist_cached_write",
        "hist_kill_read",
        "hist_kill_write",
        "hist_bypass_read",
        "hist_bypass_write",
        "hist2_kill_read",
        "hist2_bypass_read_kill",
        "hist2_bypass_read_nokill",
        "shift_prefix",
        "wb_hist",
        "collapsed_hits",
    )

    def __init__(self, num_sets, assoc_cap, line_words, write_policy,
                 constants):
        cap = assoc_cap + 2  # positions 1..cap-1 plus the miss bucket
        self.num_sets = num_sets
        self.assoc_cap = assoc_cap
        self.line_words = line_words
        self.write_policy = write_policy
        #: Geometry-independent counter values shared by every
        #: associativity of the pass (see :func:`_flavor_constants`).
        self.constants = constants
        # 1-D position histograms, one bucket per stack distance.
        self.hist_cached_read = [0] * cap
        self.hist_cached_write = [0] * cap
        self.hist_kill_read = [0] * cap
        self.hist_kill_write = [0] * cap
        self.hist_bypass_read = [0] * cap
        self.hist_bypass_write = [0] * cap
        # 2-D (position, dirty-threshold) histograms for the flush
        # accounting of resident-block invalidations.
        self.hist2_kill_read = [[0] * cap for _ in range(cap)]
        self.hist2_bypass_read_kill = [[0] * cap for _ in range(cap)]
        self.hist2_bypass_read_nokill = [[0] * cap for _ in range(cap)]
        #: ``shift_prefix[m]`` counts events whose install shifted the
        #: top ``m`` stack entries down one position; entry ``q`` of a
        #: counted prefix is an eviction from the ``assoc == q`` cache.
        self.shift_prefix = [0] * cap
        #: ``wb_hist[q]`` counts shifted entries that crossed the
        #: ``q -> q+1`` boundary while dirty at ``q`` (victim
        #: writebacks of the ``assoc == q`` cache).
        self.wb_hist = [0] * cap
        #: Collapsed same-block run followers: guaranteed hits at every
        #: profiled associativity (split read/write only for the
        #: histograms' totals; both hit everywhere).
        self.collapsed_hits = 0

    def add_missed_probes(self, types):
        """Record probes (an EV_* array) that miss at every associativity.

        This is all the automaton does for a probe whose block is
        absent: kill reads and bypass reads land in their miss bucket,
        bypass writes record nothing.
        """
        counts = _np.bincount(types, minlength=EV_BYPASS_WRITE + 1)
        miss_bucket = self.assoc_cap + 1
        self.hist_kill_read[miss_bucket] += int(counts[EV_KILL_READ])
        self.hist_bypass_read[miss_bucket] += int(
            counts[EV_BYPASS_READ] + counts[EV_BYPASS_READ_KILL]
        )

    # -- reconstruction -------------------------------------------------

    def stats_for(self, assoc):
        """Exact :class:`CacheStats` for ``(num_sets, assoc)``."""
        if assoc > self.assoc_cap:
            raise ValueError(
                "associativity {} exceeds the profiled cap {}".format(
                    assoc, self.assoc_cap
                )
            )
        c = self.constants
        lw = self.line_words
        writeback = self.write_policy == "writeback"
        up_to = assoc + 1  # positions 1..assoc hit
        kill_writes = c["counts"][EV_KILL_WRITE]

        cached_read_hits = sum(self.hist_cached_read[1:up_to])
        cached_write_hits = sum(self.hist_cached_write[1:up_to])
        kill_read_hits = sum(self.hist_kill_read[1:up_to])
        kill_write_hits = sum(self.hist_kill_write[1:up_to])
        bypass_read_hits = sum(self.hist_bypass_read[1:up_to])
        bypass_write_hits = sum(self.hist_bypass_write[1:up_to])

        # Each run head lands in exactly one histogram bucket, so the
        # miss side of every hist is its tail; collapsed followers are
        # guaranteed hits at every profiled associativity.
        plain_read_misses = sum(self.hist_cached_read[up_to:])
        plain_write_misses = sum(self.hist_cached_write[up_to:])
        kill_read_misses = sum(self.hist_kill_read[up_to:])
        kill_write_misses = sum(self.hist_kill_write[up_to:])
        bypass_read_misses = sum(self.hist_bypass_read[up_to:])

        hits = (
            cached_read_hits + cached_write_hits + kill_read_hits
            + kill_write_hits + self.collapsed_hits
        )
        misses = (
            plain_read_misses + plain_write_misses
            + kill_read_misses + kill_write_misses
        )

        # Fills: every through-cache miss fetches a full line except a
        # one-word write-allocate (the write overwrites the line) and a
        # kill read (served around the cache, one word).

        words_from_memory = plain_read_misses * lw + bypass_read_misses
        words_from_memory += kill_read_misses
        if lw > 1:
            words_from_memory += plain_write_misses * lw
            words_from_memory += kill_write_misses * lw

        # Evictions: prefix shifts crossing the assoc boundary.
        evictions = sum(
            self.shift_prefix[m]
            for m in range(assoc, self.assoc_cap + 2)
        )
        victim_writebacks = self.wb_hist[assoc] if writeback else 0

        flush_writebacks = 0
        dead_drops = 0
        if writeback:
            flush_writebacks = _prefix2(
                self.hist2_bypass_read_nokill, assoc
            )
            dead_drops = (
                _prefix2(self.hist2_bypass_read_kill, assoc)
                + _prefix2(self.hist2_kill_read, assoc)
                + kill_writes
            )
        writebacks = victim_writebacks + flush_writebacks

        words_to_memory = c["words_to_memory_const"] + writebacks * lw

        dead_line_frees = kill_read_hits + kill_writes

        return CacheStats(
            refs_total=c["refs_total"],
            reads=c["reads"],
            writes=c["writes"],
            refs_cached=c["refs_cached"],
            refs_bypassed=c["refs_bypassed"],
            hits=hits,
            misses=misses,
            evictions=evictions,
            writebacks=writebacks,
            words_from_memory=words_from_memory,
            words_to_memory=words_to_memory,
            probe_hits=bypass_read_hits + bypass_write_hits,
            kills=c["kills"],
            dead_drops=dead_drops,
            dead_line_frees=dead_line_frees,
            bypass_read_hits=bypass_read_hits,
            bypass_reads_from_memory=bypass_read_misses,
            bypass_writes=c["bypass_writes"],
        )

    def distance_histogram(self):
        """Aggregate per-set LRU distance histogram of cached refs.

        ``histogram[p]`` counts through-cache references that found
        their block at stack position ``p`` (``p == 0`` holds the
        collapsed guaranteed-MRU hits; the last bucket is "deeper than
        every profiled cache", including cold misses).
        """
        cap = self.assoc_cap + 2
        out = [0] * cap
        out[0] = self.collapsed_hits
        for p in range(cap):
            out[p] += (
                self.hist_cached_read[p]
                + self.hist_cached_write[p]
                + self.hist_kill_read[p]
                + self.hist_kill_write[p]
            )
        return out


def _prefix2(hist2, assoc):
    """Sum of ``hist2[p][d]`` over ``p <= assoc and d <= assoc``."""
    total = 0
    for p in range(1, assoc + 1):
        row = hist2[p]
        for d in range(1, assoc + 1):
            total += row[d]
    return total


# ----------------------------------------------------------------------
# The automaton
# ----------------------------------------------------------------------


def cold_probes(blocks, types, order=None):
    """Mask of the *cold probes* in a decoded stream.

    A probe is an event that does not install its block: a kill read
    or a bypass.  It is cold when its block has no previous event, or
    when that event is not an install (``EV_PLAIN_READ`` /
    ``EV_PLAIN_WRITE``).  Only an install makes a block resident and
    every other event leaves it absent, so a cold probe misses at every
    associativity; the kernel counts it with
    :meth:`StackDistanceProfile.add_missed_probes` instead of replaying
    it.  Run collapse drops only installs that follow an install of
    the same block, so the mask means the same on a collapsed stream.

    ``blocks`` and ``types`` are parallel arrays in time order within
    each set (blocks never span sets); ``order``, a stable argsort of
    ``blocks`` that lays each block's events out in a row, saves the
    sort when the caller has one.
    """
    if order is None:
        order = _np.argsort(blocks, kind="stable")
    chain_blocks = blocks[order]
    chain_types = types[order]
    after_install = _np.zeros(len(order), dtype=bool)
    after_install[1:] = (
        (chain_blocks[1:] == chain_blocks[:-1])
        & (chain_types[:-1] <= EV_PLAIN_WRITE)
    )
    cold = _np.empty(len(order), dtype=bool)
    cold[order] = (
        (chain_types > EV_PLAIN_WRITE)
        & (chain_types != EV_KILL_WRITE)
        & ~after_install
    )
    return cold


def _run_general(profile, iterator, num_sets, assoc_cap, write_policy,
                 sink=None):
    """The automaton: bypass probes and kills leave holes.

    Each set's stack is two parallel lists, most recent first: the
    blocks (``None`` marks a hole) and their dirty thresholds (a
    hole's is never read).  The block search and the first-hole search
    are ``list.index`` calls, and the writeback-crossing scan is a
    ``compress`` over the thresholds, so no Python step runs per stack
    entry.

    ``sink``, when a list, receives one boolean per event: whether the
    ``assoc_cap``-way cache served it as a hit (the block sat in the
    stack and the event goes through the cache).
    """
    emit = sink.append if sink is not None else None
    writeback = write_policy == "writeback"
    clean = assoc_cap + 1
    miss_bucket = assoc_cap + 1
    set_blocks = [[] for _ in range(num_sets)]
    set_dirty = [[] for _ in range(num_sets)]
    #: Holes per set, so hole searches are skipped while a set has
    #: none (the common case even in unified streams).
    hole_count = [0] * num_sets
    #: ``crossings[k]`` are the boundaries ``1..k`` that the top ``k``
    #: entries cross when they shift down one position.
    crossings = [range(1, k + 1) for k in range(assoc_cap + 1)]

    hist_cr = profile.hist_cached_read
    hist_cw = profile.hist_cached_write
    hist_kr = profile.hist_kill_read
    hist_br = profile.hist_bypass_read
    hist_bw = profile.hist_bypass_write
    hist_kw = profile.hist_kill_write
    h2_kr = profile.hist2_kill_read
    h2_brk = profile.hist2_bypass_read_kill
    h2_brn = profile.hist2_bypass_read_nokill
    shift_prefix = profile.shift_prefix
    wb_hist = profile.wb_hist

    for block, event_type, follower_wrote in iterator:
        s = block % num_sets
        blocks = set_blocks[s]
        pos = blocks.index(block) + 1 if block in blocks else 0
        if emit is not None:
            emit(pos != 0 and event_type <= EV_KILL_WRITE)

        if event_type <= EV_KILL_WRITE:
            # Through-cache reference: touch (kill-write touches then
            # invalidates; kill-read never installs).
            dirty = set_dirty[s]
            if event_type == EV_KILL_READ:
                if pos:
                    hist_kr[pos] += 1
                    if writeback:
                        h2_kr[pos][dirty[pos - 1]] += 1
                    blocks[pos - 1] = None
                    hole_count[s] += 1
                else:
                    hist_kr[miss_bucket] += 1
                continue

            is_write = event_type != EV_PLAIN_READ  # PLAIN_WRITE/KILL_WRITE
            if pos == 1:
                # MRU hit: nothing moves, no holes involved.
                if writeback and (is_write or follower_wrote):
                    dirty[0] = 1
                if event_type == EV_PLAIN_READ:
                    hist_cr[1] += 1
                elif event_type == EV_PLAIN_WRITE:
                    hist_cw[1] += 1
                else:
                    hist_kw[1] += 1
                    blocks[0] = None
                    hole_count[s] += 1
                continue

            # The top ``top`` entries shift down one position and slot
            # ``top`` is consumed: the block's own slot, the first hole
            # above it, or (on a miss) the first hole or the free slot
            # below the stack.
            if pos:
                top = pos - 1
                if hole_count[s]:
                    hole = blocks.index(None)
                    if hole < top:
                        # The hole absorbs the fill and the block's old
                        # slot becomes the migrated hole (the hole count
                        # is net unchanged).
                        blocks[top] = None
                        top = hole
                if not writeback:
                    threshold = clean
                elif is_write or follower_wrote:
                    threshold = 1
                else:
                    threshold = max(dirty[pos - 1], pos)
                record = pos
            else:
                # Cold (or previously invalidated/fallen-off) install.
                if hole_count[s]:
                    top = blocks.index(None)
                    hole_count[s] -= 1
                else:
                    top = len(blocks)
                threshold = (
                    1 if (is_write or follower_wrote) and writeback
                    else clean
                )
                record = miss_bucket
            shift_prefix[top] += 1
            if writeback and top:
                # Entry ``q`` crosses the ``q -> q+1`` boundary: a
                # writeback from the ``assoc == q`` cache when dirty
                # there.
                span = crossings[top]
                for q in compress(span, map(le, dirty, span)):
                    wb_hist[q] += 1
            if top < len(blocks):
                del blocks[top]
                del dirty[top]
            elif top == assoc_cap:
                # The bottom entry falls past the deepest profiled
                # cache; its eviction is already in the prefix count.
                del blocks[-1]
                del dirty[-1]
            blocks.insert(0, block)
            dirty.insert(0, threshold)

            if event_type == EV_PLAIN_READ:
                hist_cr[record] += 1
            elif event_type == EV_PLAIN_WRITE:
                hist_cw[record] += 1
            else:
                hist_kw[record] += 1
                blocks[0] = None
                hole_count[s] += 1
            continue

        # Bypass path: probe without pushing; resident blocks die.
        if event_type == EV_BYPASS_WRITE:
            if pos:
                hist_bw[pos] += 1
                blocks[pos - 1] = None
                hole_count[s] += 1
            continue
        if pos:
            hist_br[pos] += 1
            if writeback:
                d = set_dirty[s][pos - 1]
                if event_type == EV_BYPASS_READ_KILL:
                    h2_brk[pos][d] += 1
                else:
                    h2_brn[pos][d] += 1
            blocks[pos - 1] = None
            hole_count[s] += 1
        else:
            hist_br[miss_bucket] += 1


# ----------------------------------------------------------------------
# Sweep dispatch
# ----------------------------------------------------------------------


def replay_trace_sweep(trace, specs):
    """Score every spec of a sweep, one-pass where the math allows.

    ``specs`` are :class:`~repro.cache.cache.CacheConfig` entries, any
    policy; the result list is aligned with the input and bit-identical
    to the serial :func:`~repro.cache.replay.replay_trace` path for
    every entry.  Specs sharing a policy, flavor and set count (and,
    for Random, a seed) form one group, scored in one pass, up to its
    widest member, by the engine :func:`engines_for` names for the
    group.  The kernel and the lane walks (all but :func:`rrip_sweep`)
    share the trace's memoized set partition; the next-use index and
    the signature column are computed once per call for the groups
    that read them.
    """
    from repro.cache import vectorized

    specs = list(specs)
    columns = trace.to_columns()
    has_bypass, has_kill = _flag_presence(columns)

    groups = {}
    for index, config in enumerate(specs):
        kind = config.policy
        flavor = flavor_key(config, has_bypass, has_kill)
        key = (
            kind,
            flavor,
            # The kill mode only matters when the stream carries kills.
            config.kill_mode if flavor[2] else "invalidate",
            config.allocate_on_write,
            config.num_sets,
            # The counter-based RNG is a pure function of (seed, set,
            # draw ordinal), so lanes sharing a seed sweep together.
            config.seed if kind == "random" else None,
        )
        groups.setdefault(key, []).append((index, config))

    results = [None] * len(specs)
    decoded_cache = {}
    next_use_cache = {}
    signatures = None
    for key, members in groups.items():
        kind, flavor, kill_mode, allocate_on_write, num_sets, seed = key
        line_words, eff_hb, _eff_hk, write_policy = flavor
        name = engines_for(members[0][1], has_bypass, has_kill)[0]
        stream = decoded_cache.get(flavor)
        if stream is None:
            stream = decoded_cache[flavor] = _flavor_decode(columns, flavor)
        if name == "vector_profile_pass":
            cap = max(member[1].associativity for member in members)
            scored = vectorized.vector_profile_pass(
                columns, flavor, num_sets, cap, decoded=stream,
                order=trace.set_partition(num_sets, line_words),
            ).stats_for
        else:
            lane_args = (
                stream, num_sets,
                sorted({member[1].associativity for member in members}),
                line_words, kill_mode, write_policy, allocate_on_write,
            )
            next_use = None
            if kind in NEXT_USE_POLICIES:
                nu_key = (line_words, eff_hb)
                next_use = next_use_cache.get(nu_key)
                if next_use is None:
                    next_use = next_use_cache[nu_key] = next_use_index(
                        trace, *nu_key
                    )
            if signatures is None and kind in SIGNATURE_POLICIES:
                signatures = signature_column(trace)
            if name == "rrip_sweep":
                lanes = rrip_sweep(*lane_args, kind, signatures, next_use)
            else:
                order = trace.set_partition(num_sets, line_words)
                if name == "fifo_sweep":
                    lanes = fifo_sweep(*lane_args, order=order)
                elif name == "lru_sweep":
                    lanes = lru_sweep(*lane_args, order=order)
                elif name == "random_sweep":
                    lanes = random_sweep(*lane_args, seed, order=order)
                else:
                    lanes = min_sweep(*lane_args, next_use, order=order)
            scored = lanes.__getitem__
        for index, config in members:
            results[index] = scored(config.associativity)
    return results
