"""One-pass, bypass/kill-aware stack-distance profiling of block streams.

Mattson's classical observation is that an LRU cache of every
associativity can be scored in a single pass: keep the referenced
blocks of a set in recency order and a reference that finds its block
at stack position ``p`` hits exactly the caches with ``assoc >= p``.
This module extends that machinery to the paper's unified-management
semantics and reconstructs **exact** :class:`~repro.cache.stats.CacheStats`
— bit-identical to serial :meth:`repro.cache.cache.Cache.access`
replay, not approximations — for every ``(num_sets, associativity)``
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
FIFO, Random, and Belady MIN have no stack property, but their sweeps
still share one walk of the typed stream per flavor through the
set-count stackers in :mod:`repro.cache.semantics`
(:func:`~repro.cache.semantics.fifo_sweep` /
:func:`~repro.cache.semantics.random_sweep` /
:func:`~repro.cache.semantics.min_sweep`).  Everything else — the
predictive zoo (SRRIP/BRRIP/DRRIP/SHiP/Hawkeye),
write-around LRU, demoted-kill LRU — is the fallback path's job
(:func:`repro.cache.replay.replay_trace_multi`);
:func:`replay_trace_sweep` routes each requested configuration to
whichever engine applies and merges the results in request order.

The per-flavor decode and the run-collapse pre-pass are NumPy array
code; the set-major array kernels in :mod:`repro.cache.vectorized`
rebuild this module's profile for associativity caps up to
``VECTOR_ASSOC_CAP_LIMIT``, and :func:`profile_pass` scores the rest
(and every group under ``REPRO_SWEEP_ENGINE=stackdist``).
"""

import os
from itertools import repeat

from repro.cache.semantics import (
    EV_BYPASS_READ,
    EV_BYPASS_READ_KILL,
    EV_BYPASS_WRITE,
    EV_KILL_READ,
    EV_KILL_WRITE,
    EV_PLAIN_READ,
    EV_PLAIN_WRITE,
    collapse_runs,
    fifo_sweep,
    flag_presence as _flag_presence,
    flavor_decode as _flavor_decode,
    min_sweep,
    next_use_index,
    random_sweep,
)
from repro.cache.stats import CacheStats


def sweep_engine(engine=None):
    """The replay engine to use: ``engine``, else ``REPRO_SWEEP_ENGINE``.

    ``"auto"`` (the default) scores LRU through the set-major array
    kernels, ``"stackdist"`` through :func:`profile_pass`, and
    ``"multi"`` through the per-event replay core; see
    :func:`replay_trace_sweep`.  Raises :class:`ValueError` on any
    other value.
    """
    if engine is None:
        engine = os.environ.get("REPRO_SWEEP_ENGINE", "auto")
    if engine not in ("auto", "stackdist", "multi"):
        raise ValueError("unknown sweep engine {!r}".format(engine))
    return engine


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
        "hist_bypass_read",
        "hist_bypass_write",
        "hist2_kill_read",
        "hist2_bypass_read_kill",
        "hist2_bypass_read_nokill",
        "shift_prefix",
        "wb_hist",
        "collapsed_hits",
        "totals",
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
        self.totals = {}

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
        kill_write_hist = self.hist_kill_write_positions()

        cached_read_hits = sum(self.hist_cached_read[1:up_to])
        cached_write_hits = sum(self.hist_cached_write[1:up_to])
        kill_read_hits = sum(self.hist_kill_read[1:up_to])
        kill_write_hits = sum(kill_write_hist[1:up_to])
        bypass_read_hits = sum(self.hist_bypass_read[1:up_to])
        bypass_write_hits = sum(self.hist_bypass_write[1:up_to])

        # Each run head lands in exactly one histogram bucket, so the
        # miss side of every hist is its tail; collapsed followers are
        # guaranteed hits at every profiled associativity.
        plain_read_misses = sum(self.hist_cached_read[up_to:])
        plain_write_misses = sum(self.hist_cached_write[up_to:])
        kill_read_misses = sum(self.hist_kill_read[up_to:])
        kill_write_misses = sum(kill_write_hist[up_to:])
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
                + self.totals["kill_write"]
            )
        writebacks = victim_writebacks + flush_writebacks

        words_to_memory = c["words_to_memory_const"] + writebacks * lw

        dead_line_frees = kill_read_hits + self.totals["kill_write"]

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

    def hist_kill_write_positions(self):
        """Kill-write position histogram (stored with the 2-D data)."""
        return self._kill_write_hist

    @property
    def _kill_write_hist(self):
        return self.totals["kill_write_hist"]

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
        kill_write = self.hist_kill_write_positions()
        for p in range(cap):
            out[p] += (
                self.hist_cached_read[p]
                + self.hist_cached_write[p]
                + self.hist_kill_read[p]
                + kill_write[p]
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


def profile_pass(columns, flavor, num_sets, assoc_cap, decoded=None):
    """One pass: profile ``(flavor, num_sets)`` up to ``assoc_cap``.

    Returns a :class:`StackDistanceProfile` from which
    :meth:`~StackDistanceProfile.stats_for` reconstructs exact stats
    for every ``assoc <= assoc_cap``.
    """
    line_words, _hb, _hk, write_policy = flavor
    stream = decoded
    if stream is None:
        stream = _flavor_decode(columns, flavor)
    profile = StackDistanceProfile(
        num_sets, assoc_cap, line_words, write_policy, stream.constants
    )
    counts = stream.constants["counts"]
    profile.totals = {
        "plain_read": counts[EV_PLAIN_READ],
        "plain_write": counts[EV_PLAIN_WRITE],
        "kill_read": counts[EV_KILL_READ],
        "kill_write": counts[EV_KILL_WRITE],
        "bypass_read": counts[EV_BYPASS_READ] + counts[EV_BYPASS_READ_KILL],
        "kill_write_hist": [0] * (assoc_cap + 2),
    }

    runs = collapse_runs(stream.blocks_np, stream.types_np, num_sets)
    profile.collapsed_hits = runs.collapsed if runs is not None else 0

    if runs is None:
        blocks_it = stream.blocks_list
        types_it = stream.types_list
        rw_it = repeat(False)
    else:
        blocks_it = stream.blocks_np[runs.indices].tolist()
        types_it = stream.types_np[runs.indices].tolist()
        rw_it = runs.run_writes

    if stream.plain_only:
        _run_plain(profile, zip(blocks_it, types_it, rw_it),
                   num_sets, assoc_cap, write_policy)
    else:
        _run_general(profile, zip(blocks_it, types_it, rw_it),
                     num_sets, assoc_cap, write_policy)
    return profile


def _run_plain(profile, iterator, num_sets, assoc_cap, write_policy):
    """The no-hole fast path: the stream is plain reads/writes only.

    Without bypasses or kills nothing is ever invalidated, so the
    stack never contains holes and every touch is the classic Mattson
    move-to-front.
    """
    writeback = write_policy == "writeback"
    clean = assoc_cap + 1
    miss_bucket = assoc_cap + 1
    sets = [[] for _ in range(num_sets)]
    hist_cr = profile.hist_cached_read
    hist_cw = profile.hist_cached_write
    shift_prefix = profile.shift_prefix
    wb_hist = profile.wb_hist

    for block, is_write, follower_wrote in iterator:
        stack = sets[block % num_sets]
        pos = 0
        for idx, entry in enumerate(stack):
            if entry[0] == block:
                pos = idx + 1
                break
        if pos == 1:
            if writeback and (is_write or follower_wrote):
                stack[0][1] = 1
            (hist_cw if is_write else hist_cr)[1] += 1
            continue
        if pos:
            entry = stack[pos - 1]
            shift_prefix[pos - 1] += 1
            if writeback:
                for q in range(pos - 1):
                    if stack[q][1] <= q + 1:
                        wb_hist[q + 1] += 1
                if is_write or follower_wrote:
                    entry[1] = 1
                elif entry[1] < pos:
                    entry[1] = pos
            del stack[pos - 1]
            stack.insert(0, entry)
            (hist_cw if is_write else hist_cr)[pos] += 1
        else:
            depth = len(stack)
            shift_prefix[depth] += 1
            if writeback:
                for q in range(depth):
                    if stack[q][1] <= q + 1:
                        wb_hist[q + 1] += 1
            if depth == assoc_cap:
                # The bottom entry falls past the deepest profiled
                # cache; its eviction is already in the prefix count.
                del stack[-1]
            stack.insert(0, [
                block,
                1 if (is_write or follower_wrote) and writeback else clean,
            ])
            (hist_cw if is_write else hist_cr)[miss_bucket] += 1


def _run_general(profile, iterator, num_sets, assoc_cap, write_policy,
                 sink=None):
    """The full automaton: bypass probes and kills leave holes.

    ``sink``, when a list, receives one boolean per event: whether the
    ``assoc_cap``-way cache served it as a hit (the block sat in the
    stack and the event goes through the cache).
    """
    emit = sink.append if sink is not None else None
    writeback = write_policy == "writeback"
    clean = assoc_cap + 1
    miss_bucket = assoc_cap + 1
    sets = [[] for _ in range(num_sets)]
    #: Holes per set, so hole searches are skipped while a set has
    #: none (the common case even in unified streams).
    hole_count = [0] * num_sets

    hist_cr = profile.hist_cached_read
    hist_cw = profile.hist_cached_write
    hist_kr = profile.hist_kill_read
    hist_br = profile.hist_bypass_read
    hist_bw = profile.hist_bypass_write
    hist_kw = profile.totals["kill_write_hist"]
    h2_kr = profile.hist2_kill_read
    h2_brk = profile.hist2_bypass_read_kill
    h2_brn = profile.hist2_bypass_read_nokill
    shift_prefix = profile.shift_prefix
    wb_hist = profile.wb_hist

    for block, event_type, follower_wrote in iterator:
        s = block % num_sets
        stack = sets[s]
        pos = 0
        for idx, entry in enumerate(stack):
            if entry[0] == block:
                pos = idx + 1
                break
        if emit is not None:
            emit(pos != 0 and event_type <= EV_KILL_WRITE)

        if event_type <= EV_KILL_WRITE:
            # Through-cache reference: touch (kill-write touches then
            # invalidates; kill-read never installs).
            if event_type == EV_KILL_READ:
                if pos:
                    hist_kr[pos] += 1
                    if writeback:
                        h2_kr[pos][stack[pos - 1][1]] += 1
                    stack[pos - 1][0] = None
                    hole_count[s] += 1
                else:
                    hist_kr[miss_bucket] += 1
                continue

            is_write = event_type != EV_PLAIN_READ  # PLAIN_WRITE/KILL_WRITE
            if pos == 1:
                # MRU hit: nothing moves, no holes involved.
                if writeback and (is_write or follower_wrote):
                    stack[0][1] = 1
                if event_type == EV_PLAIN_READ:
                    hist_cr[1] += 1
                elif event_type == EV_PLAIN_WRITE:
                    hist_cw[1] += 1
                else:
                    hist_kw[1] += 1
                    stack[0][0] = None
                    hole_count[s] += 1
                continue

            if pos:
                entry = stack[pos - 1]
                hole = -1
                if hole_count[s]:
                    for idx in range(pos - 1):
                        if stack[idx][0] is None:
                            hole = idx
                            break
                if hole >= 0:
                    # Fill absorbed by the hole at ``hole + 1``: the
                    # entries above it shift; the block's old slot
                    # becomes the migrated hole (hole count is net
                    # unchanged).
                    shift_prefix[hole] += 1
                    if writeback:
                        for q in range(hole):
                            if stack[q][1] <= q + 1:
                                wb_hist[q + 1] += 1
                    stack[pos - 1] = [None, 0]
                    del stack[hole]
                else:
                    shift_prefix[pos - 1] += 1
                    if writeback:
                        for q in range(pos - 1):
                            if stack[q][1] <= q + 1:
                                wb_hist[q + 1] += 1
                    del stack[pos - 1]
                if writeback:
                    if is_write or follower_wrote:
                        entry[1] = 1
                    elif entry[1] < pos:
                        entry[1] = pos
                stack.insert(0, entry)
                record = pos
            else:
                # Cold (or previously invalidated/fallen-off) install.
                if hole_count[s]:
                    for idx, entry in enumerate(stack):
                        if entry[0] is None:
                            hole = idx
                            break
                    shift_prefix[hole] += 1
                    if writeback:
                        for q in range(hole):
                            if stack[q][1] <= q + 1:
                                wb_hist[q + 1] += 1
                    del stack[hole]
                    hole_count[s] -= 1
                else:
                    depth = len(stack)
                    shift_prefix[depth] += 1
                    if writeback:
                        for q in range(depth):
                            if stack[q][1] <= q + 1:
                                wb_hist[q + 1] += 1
                    if depth == assoc_cap:
                        # The bottom entry falls past the deepest
                        # profiled cache; its eviction is already in
                        # the prefix count.
                        del stack[-1]
                dirty = (
                    1 if (is_write or follower_wrote) and writeback
                    else clean
                )
                stack.insert(0, [block, dirty])
                record = miss_bucket

            if event_type == EV_PLAIN_READ:
                hist_cr[record] += 1
            elif event_type == EV_PLAIN_WRITE:
                hist_cw[record] += 1
            else:
                hist_kw[record] += 1
                stack[0][0] = None
                hole_count[s] += 1
            continue

        # Bypass path: probe without pushing; resident blocks die.
        if event_type == EV_BYPASS_WRITE:
            if pos:
                hist_bw[pos] += 1
                stack[pos - 1][0] = None
                hole_count[s] += 1
            continue
        if pos:
            hist_br[pos] += 1
            if writeback:
                d = stack[pos - 1][1]
                if event_type == EV_BYPASS_READ_KILL:
                    h2_brk[pos][d] += 1
                else:
                    h2_brn[pos][d] += 1
            stack[pos - 1][0] = None
            hole_count[s] += 1
        else:
            hist_br[miss_bucket] += 1


# ----------------------------------------------------------------------
# Sweep dispatch
# ----------------------------------------------------------------------


def replay_trace_sweep(trace, specs, columns=None, engine=None):
    """Score every spec of a sweep, one-pass where the math allows.

    ``specs`` mixes :class:`~repro.cache.cache.CacheConfig` and
    :class:`~repro.cache.replay.MinConfig` entries exactly like
    :func:`~repro.cache.replay.replay_trace_multi`; the result list is
    aligned with the input and bit-identical to the serial
    :func:`~repro.cache.replay.replay_trace` path for every entry.
    Supported LRU configurations are grouped by flavor and set count
    and scored by :func:`profile_pass`; FIFO, Random, and Belady MIN
    specs are grouped the same way and scored by the single-pass
    set-count stackers (:func:`repro.cache.semantics.fifo_sweep` /
    :func:`repro.cache.semantics.random_sweep` /
    :func:`repro.cache.semantics.min_sweep`); everything else
    (the predictive zoo, write-around LRU, demoted-kill LRU) falls
    back to the multi-replay core.  ``engine`` picks the path:
    ``"auto"`` routes per spec, scoring the profiled LRU groups with
    the set-major array kernels (:mod:`repro.cache.vectorized`);
    ``"stackdist"`` scores them with :func:`profile_pass` instead and
    raises :class:`ValueError` if any spec is outside the hole-stack
    profiler (FIFO/Random/MIN included — they have no stack property);
    ``"multi"`` skips one-pass engines entirely.  When left ``None``
    the ``REPRO_SWEEP_ENGINE`` environment variable picks the engine
    (the CI golden-pin job forces each in turn this way), defaulting
    to ``auto``.  This is the one engine override: every engine is
    bit-identical, so it exists for tests and benchmarks.
    """
    from repro.cache.replay import MinConfig, replay_trace_multi

    specs = list(specs)
    engine = sweep_engine(engine)
    if engine == "multi":
        return replay_trace_multi(trace, specs)

    if columns is None:
        columns = trace.to_columns()
    has_bypass, has_kill = _flag_presence(columns)

    def policy_sweep_key(config):
        """Group key for the FIFO/MIN single-pass stackers.

        Like :func:`flavor_key` plus the knobs those sweeps honor
        directly; the kill mode is normalized away when the effective
        stream carries no kills.
        """
        eff_hk = bool(config.honor_kill and has_kill)
        return (
            config.line_words,
            bool(config.honor_bypass and has_bypass),
            eff_hk,
            config.kill_mode if eff_hk else "invalidate",
            config.write_policy,
            config.allocate_on_write,
            config.num_sets,
        )

    groups = {}
    fifo_groups = {}
    random_groups = {}
    min_groups = {}
    fallback = []
    for index, spec in enumerate(specs):
        if isinstance(spec, MinConfig):
            if engine == "stackdist":
                raise ValueError(
                    "stack-distance engine cannot profile {!r}".format(spec)
                )
            config = spec.config
            key = policy_sweep_key(config)
            min_groups.setdefault(key, []).append((index, config))
            continue
        if supports_stackdist(spec, has_bypass, has_kill):
            key = (flavor_key(spec, has_bypass, has_kill), spec.num_sets)
            groups.setdefault(key, []).append((index, spec))
            continue
        if engine == "stackdist":
            raise ValueError(
                "stack-distance engine cannot profile {!r}".format(spec)
            )
        if spec.policy == "fifo":
            key = policy_sweep_key(spec)
            fifo_groups.setdefault(key, []).append((index, spec))
            continue
        if spec.policy == "random":
            # The counter-based RNG is a pure function of (seed, set,
            # draw ordinal), so lanes sharing a seed sweep together.
            key = policy_sweep_key(spec) + (spec.seed,)
            random_groups.setdefault(key, []).append((index, spec))
            continue
        fallback.append((index, spec))

    results = [None] * len(specs)
    decoded_cache = {}

    def stream_for(flavor):
        decoded = decoded_cache.get(flavor)
        if decoded is None:
            decoded = _flavor_decode(columns, flavor)
            decoded_cache[flavor] = decoded
        return decoded

    use_vector = engine != "stackdist"
    if groups and use_vector:
        from repro.cache.vectorized import vector_profile_pass

    for (flavor, num_sets), members in groups.items():
        assoc_cap = max(spec.associativity for _i, spec in members)
        if use_vector:
            partition = getattr(trace, "set_partition", None)
            order = (
                partition(num_sets, flavor[0])
                if partition is not None else None
            )
            profile = vector_profile_pass(
                columns, flavor, num_sets, assoc_cap,
                decoded=stream_for(flavor), order=order,
            )
        else:
            profile = profile_pass(
                columns, flavor, num_sets, assoc_cap,
                decoded=stream_for(flavor),
            )
        for index, spec in members:
            results[index] = profile.stats_for(spec.associativity)

    next_use_cache = {}
    for kind, kind_groups in (
        ("fifo", fifo_groups),
        ("random", random_groups),
        ("min", min_groups),
    ):
        for key, members in kind_groups.items():
            seed = None
            if kind == "random":
                key, seed = key[:-1], key[-1]
            (line_words, eff_hb, eff_hk, kill_mode, write_policy,
             allocate_on_write, num_sets) = key
            stream = stream_for((line_words, eff_hb, eff_hk, write_policy))
            assocs = sorted({spec.associativity for _i, spec in members})
            if kind == "fifo":
                sweep = fifo_sweep(
                    stream, num_sets, assocs, line_words, kill_mode,
                    write_policy, allocate_on_write,
                )
            elif kind == "random":
                sweep = random_sweep(
                    stream, num_sets, assocs, line_words, kill_mode,
                    write_policy, allocate_on_write, seed,
                )
            else:
                nu_key = (line_words, eff_hb)
                next_use = next_use_cache.get(nu_key)
                if next_use is None:
                    next_use = next_use_index(trace, line_words, eff_hb)
                    next_use_cache[nu_key] = next_use
                sweep = min_sweep(
                    stream, num_sets, assocs, line_words, kill_mode,
                    write_policy, allocate_on_write, next_use,
                )
            for index, spec in members:
                results[index] = sweep[spec.associativity]

    if fallback:
        fallback_stats = replay_trace_multi(
            trace, [spec for _i, spec in fallback]
        )
        for (index, _spec), stats in zip(fallback, fallback_stats):
            results[index] = stats
    return results
