"""Set-major vectorized stack-distance replay kernels.

The per-event automaton in :mod:`repro.cache.stackdist` pays Python
dispatch for every collapsed event.  This module rebuilds the same
exact profile with NumPy array kernels over the columnar trace that
:meth:`repro.vm.trace.TraceBuffer.to_columns` already provides:

* **Set-major partition.**  One stable argsort of the set-index column
  groups every set's events contiguously while preserving time order
  inside each set (:meth:`TraceBuffer.set_partition` caches it per
  geometry, and the lane walks of :mod:`repro.cache.semantics` share
  the same permutation).  The run collapse
  (:func:`repro.cache.semantics.collapse_runs_sorted`) and all kernels
  below run on the partitioned stream, so per-set state machines
  become segmented scans.

* **Age-matrix LRU sweep.**  Classic Mattson stack maintenance is
  replaced by the bounded recency matrix ``t[d, q]`` — the slot of the
  ``d``-th most recent distinct block as of slot ``q`` — built level
  by level from the recurrence ``t[d+1, q+1] = t[d, q] if t[d, q] >
  prev(q) else t[d+1, q]`` (``prev(q)`` is the driving block's
  previous-touch slot).  Each level is a masked segmented forward
  fill, so all ``assoc_cap`` associativities of a geometry are scored
  in ``assoc_cap`` vector passes instead of ``events x assoc`` scalar
  steps.  A reference's stack distance is ``1 + #{d : t[d, q] >
  prev}``; "ever fell past the deepest profiled cache" shows up as all
  ``assoc_cap`` entries beating ``prev``.

* **Bypass/kill as vector masks.**  Probes (bypasses and through-cache
  kills) read the age matrix without driving it.  A probe that would
  *hit* — and a kill-write, which always invalidates — mutates the
  recency state in ways the offline matrix does not model, so its set
  is flagged and that set's events are replayed through the exact
  hole-stack automaton (:func:`repro.cache.stackdist._run_general`)
  instead.  The flag is sound: the first mutating event of a set is
  classified under a still-valid no-mutation history, and everything
  after it in that set is recomputed sequentially.  Measured on the
  six Figure 5 benchmarks, 0-42 % of a unified stream's events live in
  flagged sets; conventional flavors carry no probes at all.  A
  flagged set's *cold probes* (:func:`repro.cache.stackdist.cold_probes`:
  no install since the block's last event) are known misses and are
  counted without the automaton, from the chain order the kernel
  already sorts.

* **Dirty thresholds and writebacks as gap algebra.**  Between two
  touches of a block its dirty threshold ``D`` is constant and its
  stack position only ever decays ``1 -> P_end``, crossing each
  boundary exactly once; a victim writeback at associativity ``q`` is
  a gap with ``D <= q <= P_end - 1``.  ``D`` is a segmented running
  max over each block's touch chain, the crossings are two bincounts
  (a difference array over ``q``), and evictions are one more
  bincount of per-event shift widths.

* **Set blocks.**  Sets are independent and every profile field is
  additive, so the kernel walks the set-major order in blocks of whole
  sets holding at most ``SET_BLOCK_EVENTS`` events
  (:func:`repro.cache.semantics.set_blocks`, the block loop the lane
  walks use too) and sums the results; its per-event temporaries are
  sized by the block, not the trace.

* **Wide caps.**  Above ``VECTOR_ASSOC_CAP_LIMIT`` ways the level loop
  costs more than the automaton it saves, so the kernel skips it and
  treats every set as flagged: cold probes are still counted without
  a replay, and every other head goes through the automaton.

* **Per-event hits.**  For the cache at the cap associativity an
  event's outcome falls out of the same pass: a collapsed run
  follower hits, an offline-set head hits when it goes through the
  cache at stack distance ``<= assoc_cap``, a cold probe misses, and
  every other flagged-set head takes the outcome the automaton
  reports.  The hierarchy layer reads these masks
  (:func:`repro.cache.hierarchy.level_outcome`).

The result is a :class:`repro.cache.stackdist.StackDistanceProfile`
whose every field is bit-identical to replaying every set through the
automaton — the all-flagged mode — and whose reconstructed
:class:`~repro.cache.stats.CacheStats` equal the serial replay.  It is
the one LRU engine of the engine table
(:data:`repro.cache.stackdist.ENGINE_TABLE`), at every associativity.
``docs/PERFORMANCE.md`` ("The set-major vectorized kernel") has the
derivation and measured speedups.
"""

import numpy as _np

from repro.cache.semantics import (
    EV_KILL_WRITE,
    EV_PLAIN_WRITE,
    collapse_runs_sorted,
    flavor_decode as _flavor_decode,
    set_blocks,
)
from repro.cache.stackdist import (
    StackDistanceProfile,
    _run_general,
    cold_probes,
)
from repro.vm.trace import set_order

#: Above this associativity cap the level loop stops paying for
#: itself: the kernel then flags every set and replays it through the
#: automaton (cold probes excepted).
VECTOR_ASSOC_CAP_LIMIT = 64


def vector_profile_pass(columns, flavor, num_sets, assoc_cap,
                        decoded=None, order=None, info=None, hits=None):
    """Profile ``(flavor, num_sets)`` up to ``assoc_cap`` in one pass.

    Returns a :class:`StackDistanceProfile` from which
    :meth:`~StackDistanceProfile.stats_for` reconstructs exact stats
    for every ``assoc <= assoc_cap``, at any cap (above
    ``VECTOR_ASSOC_CAP_LIMIT`` every set is flagged).  ``order`` is an
    optional pre-computed set-major partition
    (:meth:`TraceBuffer.set_partition`); ``info``, when a dict, is
    populated with ``offline_sets``, ``fallback_sets`` and
    ``fallback_events`` for benchmarks and tests.

    ``hits``, when given, is a writable boolean array with one slot
    per trace event.  The kernel fills it in time order with each
    event's outcome in the ``assoc_cap``-way cache: true exactly when
    :meth:`~repro.cache.semantics.UnifiedCache.access` would return
    ``"hit"``.

    The kernel runs over set blocks of at most
    :data:`~repro.cache.semantics.SET_BLOCK_EVENTS` events
    (``docs/PERFORMANCE.md``, "Set blocks"); the profile and the
    ``info`` counts are sums over the blocks.
    """
    line_words, _hb, _hk, write_policy = flavor
    stream = decoded
    if stream is None:
        stream = _flavor_decode(columns, flavor)
    profile = StackDistanceProfile(
        num_sets, assoc_cap, line_words, write_policy, stream.constants
    )
    tally = {"offline_sets": 0, "fallback_sets": 0, "fallback_events": 0}
    blocks = stream.blocks_np
    if len(blocks):
        if order is None:
            order = set_order(blocks, num_sets)
        for lo, hi in set_blocks(blocks, num_sets):
            _profile_block(profile, stream, num_sets, assoc_cap,
                           write_policy, order[lo:hi], tally, hits)
    if info is not None:
        info.update(tally)
    return profile


# ----------------------------------------------------------------------
# The NumPy kernel
# ----------------------------------------------------------------------


def _profile_block(profile, stream, num_sets, assoc_cap, write_policy,
                   order, tally, hits):
    """Add one set block's events (``order``) into ``profile``."""
    # Collapse directly in set-major order: the head columns come out
    # already partitioned, so no back-to-time remap, keep-mask
    # regather or list materialization is paid on this path.
    runs = collapse_runs_sorted(stream.blocks_np, stream.types_np,
                                num_sets, order)
    profile.collapsed_hits += runs.collapsed
    if assoc_cap > VECTOR_ASSOC_CAP_LIMIT:
        # Wide caps: every set is flagged, and only its cold probes
        # (known misses) settle without the automaton.
        sets = runs.sets
        tally["fallback_sets"] += 1 + int((sets[1:] != sets[:-1]).sum())
        tally["fallback_events"] += len(sets)
        settled = cold_probes(runs.blocks, runs.types)
        profile.add_missed_probes(runs.types[settled])
        head_hit = None
        if hits is not None:
            head_hit = _np.zeros(len(sets), dtype=bool)
    else:
        settled, head_hit = _offline_sets(profile, runs, assoc_cap,
                                          write_policy, tally,
                                          hits is not None)

    # Flagged sets: replay their unsettled events — still set-major, so
    # each set's slice is in time order — through the exact automaton
    # into the same additive profile.  Settled probes keep the miss
    # ``head_hit`` already holds for them.
    replay = _np.flatnonzero(~settled)
    if len(replay):
        sink = None if head_hit is None else []
        _run_general(
            profile,
            zip(runs.blocks[replay].tolist(), runs.types[replay].tolist(),
                runs.run_writes[replay].tolist()),
            num_sets, assoc_cap, write_policy, sink,
        )
        if sink is not None:
            head_hit[replay] = sink

    if hits is not None:
        # Collapsed followers are MRU hits; heads scatter back to their
        # time-order slots.
        hits[order] = True
        hits[runs.heads] = head_hit


def _offline_sets(profile, runs, assoc_cap, write_policy, tally,
                  want_hits):
    """Score the sets of one block that the age matrix settles.

    Adds every offline set's events, and every cold probe of a flagged
    set, into ``profile``.  Returns ``(settled, head_hit)``: the mask
    of the heads scored here (the rest replay through the automaton)
    and, when ``want_hits``, each head's outcome at ``assoc_cap`` ways
    so far.
    """
    writeback = write_policy == "writeback"
    cap = assoc_cap
    clean = cap + 1
    miss_bucket = cap + 1

    sb = runs.blocks
    st = runs.types
    ss = runs.sets
    sw = runs.run_writes
    n = len(sb)

    plain = st <= EV_PLAIN_WRITE

    # Set segmentation (ordinals over the sets actually present).
    new_set = _np.empty(n, dtype=bool)
    new_set[0] = True
    new_set[1:] = ss[1:] != ss[:-1]
    sid = _np.cumsum(new_set) - 1
    n_sets_present = int(sid[-1]) + 1

    # Slot coordinates: each set owns one slot per plain event plus a
    # trailing "after the last touch" slot, so probes landing past a
    # set's final plain event still have a queryable column.
    pc = _np.cumsum(plain) - plain
    slot = pc + sid
    plain_per_set = _np.bincount(sid[plain], minlength=n_sets_present)
    slot_widths = plain_per_set + 1
    base = _np.empty(n_sets_present, dtype=_np.int64)
    base[0] = 0
    _np.cumsum(slot_widths[:-1], out=base[1:])
    n_slots = int(base[-1] + slot_widths[-1])
    slot_set = _np.repeat(_np.arange(n_sets_present), slot_widths)
    slot_start = _np.zeros(n_slots, dtype=bool)
    slot_start[base] = True

    # Per-block chains: previous plain-touch slot of every event's
    # block (``-1`` = cold).  Blocks never span sets, so a stable sort
    # by block keeps each chain in time order; within a chain slots
    # are increasing, so "most recent previous plain touch" is an
    # exclusive segmented running max.
    corder = _np.argsort(sb, kind="stable")
    cb = sb[corder]
    cchange = _np.empty(n, dtype=bool)
    cchange[0] = True
    cchange[1:] = cb[1:] != cb[:-1]
    cid = _np.cumsum(cchange) - 1
    carry = _np.where(plain[corder], slot[corder], -1)
    stride = _np.int64(n_slots + 1)
    inc = _np.maximum.accumulate(carry + cid * stride) - cid * stride
    exc = _np.empty(n, dtype=_np.int64)
    exc[0] = -1
    exc[1:] = inc[:-1]
    exc[cchange] = -1
    prev_slot = _np.empty(n, dtype=_np.int64)
    prev_slot[corder] = exc

    # Drivers of the age-matrix recurrence: the plain events.
    plain_idx = _np.flatnonzero(plain)
    pslot = slot[plain_idx]
    driver = _np.zeros(n_slots, dtype=bool)
    driver[pslot] = True
    prev_of_slot = _np.full(n_slots, -1, dtype=_np.int64)
    prev_of_slot[pslot] = prev_slot[plain_idx]

    # Chain-order view of the plain events (for dirty thresholds and
    # the end-of-trace gap queries below).  A chain's first plain
    # event is exactly its cold touch, so chain starts come free from
    # the forward fill.
    cpo = corder[plain[corder]]
    npl = len(cpo)
    chain_start = prev_slot[cpo] < 0
    chain_last = _np.empty(npl, dtype=bool)
    if npl:
        chain_last[-1] = True
        chain_last[:-1] = chain_start[1:]
    last_events = cpo[chain_last]
    last_sid = sid[last_events]
    end_q = base[last_sid] + plain_per_set[last_sid]
    end_prev = slot[last_events]

    # Level loop: build t_1..t_cap, accumulating per-event "entries
    # above my previous touch" counts as each level materializes.
    ar = _np.arange(n_slots, dtype=_np.int64)
    t = ar - 1
    t[slot_start] = -1
    cnt = _np.zeros(n, dtype=_np.int64)
    cnt_end = _np.zeros(len(last_events), dtype=_np.int64)
    seg_stride = _np.int64(n_slots + 1)
    seg_off = slot_set * seg_stride
    for level in range(cap):
        cnt += t[slot] > prev_slot
        cnt_end += t[end_q] > end_prev
        if level == cap - 1:
            break
        valid = driver & (t > prev_of_slot)
        idx = _np.where(valid, ar, -1)
        last_valid = _np.maximum.accumulate(idx + seg_off) - seg_off
        exi = _np.empty(n_slots, dtype=_np.int64)
        exi[0] = -1
        exi[1:] = last_valid[:-1]
        exi[slot_start] = -1
        t = _np.where(exi >= 0, t[exi], -1)

    cold = prev_slot < 0
    pos = _np.where(cold | (cnt >= cap), miss_bucket, cnt + 1)

    # Mutation flags: a resident probe (bypass or through-cache kill
    # read) and every kill-write invalidate state the offline matrix
    # does not carry — their sets replay through the hole automaton.
    probe = ~plain & (st != EV_KILL_WRITE)
    resident = ~cold & (cnt < cap)
    mutating = (st == EV_KILL_WRITE) | (probe & resident)
    bad_set = _np.bincount(sid[mutating], minlength=n_sets_present) > 0
    good = ~bad_set[sid]
    fallback_sets = int(bad_set.sum())
    tally["fallback_sets"] += fallback_sets
    tally["offline_sets"] += n_sets_present - fallback_sets
    tally["fallback_events"] += int((~good).sum())

    hist_len = cap + 2

    # Distance histograms of the offline sets' plain heads.
    gp = plain & good
    gp_write = gp & (st == EV_PLAIN_WRITE)
    bc_w = _np.bincount(pos[gp_write], minlength=hist_len)
    bc_r = _np.bincount(pos[gp & ~gp_write], minlength=hist_len)
    _add_list(profile.hist_cached_write, bc_w)
    _add_list(profile.hist_cached_read, bc_r)

    # Probes that miss without a replay: every probe of an offline set
    # (a hit would have flagged the set) and every cold probe of a
    # flagged set (its block is absent, see ``cold_probes``).  The
    # rest of a flagged set replays through the automaton below.
    settled = good
    if fallback_sets:
        settled = good | cold_probes(sb, st, corder)
    profile.add_missed_probes(st[probe & settled])

    # Evictions: per-event shift widths.  A hit at position p shifts
    # the p-1 entries above it (MRU hits shift nothing); an install
    # shifts the whole current stack, whose depth is the number of
    # prior installs in the set, saturated at the cap.
    hit_sel = gp & (pos >= 2) & (pos <= cap)
    miss_flag = (plain & (pos == miss_bucket)).astype(_np.int64)
    installs_excl = _np.cumsum(miss_flag) - miss_flag
    set_first = _np.flatnonzero(new_set)
    installs_before = installs_excl - installs_excl[set_first][sid]
    miss_sel = gp & (pos == miss_bucket)
    shifts = _np.concatenate([
        pos[hit_sel] - 1,
        _np.minimum(installs_before[miss_sel], cap),
    ])
    _add_list(profile.shift_prefix, _np.bincount(shifts, minlength=hist_len))

    if writeback:
        # Dirty thresholds along each chain: writes (head or collapsed
        # follower) reset D to 1, installs reset it to 1/clean, read
        # hits fold in max(D, p).  Segmented running max with segments
        # opened by the resets.
        pos_cp = pos[cpo]
        w_cp = (st[cpo] == EV_PLAIN_WRITE) | sw[cpo]
        miss_cp = pos_cp == miss_bucket
        v = _np.where(w_cp, 1, _np.where(miss_cp, clean, pos_cp))
        reset = chain_start | miss_cp | w_cp
        seg = _np.cumsum(reset)
        dstride = _np.int64(clean + 2)
        d_after = _np.maximum.accumulate(v + seg * dstride) - seg * dstride

        # Gaps: consecutive touches inside a chain plus each chain's
        # tail gap to the end of the trace.  A gap (D, P_end) crosses
        # boundaries 1..P_end-1 exactly once each and writes back at q
        # iff D <= q, so wb_hist is a difference array of bincounts.
        good_cp = good[cpo]
        adj = ~chain_start
        gap_d = _np.concatenate([
            d_after[:-1][adj[1:]],
            d_after[chain_last],
        ])
        gap_end = _np.concatenate([
            pos_cp[adj],
            _np.where(cnt_end >= cap, miss_bucket, cnt_end + 1),
        ])
        gap_good = _np.concatenate([good_cp[adj], good_cp[chain_last]])
        live = gap_good & (gap_d < gap_end)
        wb_len = clean + 2
        diff = (
            _np.bincount(gap_d[live], minlength=wb_len)
            - _np.bincount(gap_end[live], minlength=wb_len)
        )
        running = _np.cumsum(diff)
        wb = profile.wb_hist
        for q in range(1, cap + 1):
            wb[q] += int(running[q])

    # Per-event hits: a head in an offline set hits when it goes
    # through the cache within the cap (offline probes all miss).
    head_hit = None
    if want_hits:
        head_hit = plain & (pos <= cap)
    return settled, head_hit


def _add_list(target, counts):
    for i, value in enumerate(counts.tolist()):
        if value:
            target[i] += value
