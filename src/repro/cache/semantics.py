"""The canonical per-event cache semantics.

The paper's bypass/kill transfer function lives in
:class:`UnifiedCache`, one function per event flavor (the EV_* codes),
each built once per cache with the config folded in; replacement
decisions are delegated to a state-owning :class:`ReplacementPolicy`
(LRU, FIFO, Random, MIN, and the predictive zoo: SRRIP, BRRIP, DRRIP,
SHiP-lite, Hawkeye-lite — see ``docs/POLICIES.md``).  The online
:class:`~repro.cache.cache.Cache`, the data-carrying functional twin,
the reference replay (MIN included), the static-analysis audit and the
shared level of the multi-core model all drive those seven functions,
so a policy or a semantic rule changes once for all of them.

Four one-pass engines re-derive the same semantics for speed instead
of calling them: the hole-stack automaton
(:func:`repro.cache.stackdist._run_general`), the set-major kernel
(:func:`repro.cache.vectorized.vector_profile_pass`), and this
module's two lane walks: :func:`_lane_sweep` (behind
:func:`fifo_sweep`, :func:`random_sweep`, :func:`min_sweep` and
:func:`lru_sweep`) and :func:`rrip_sweep`.  Each is held bit-identical
to :class:`UnifiedCache` (through
:func:`repro.cache.replay.replay_trace`) by the engine-table
conformance test, ``tests/test_engine_table.py``, on every spec the
engine table (:data:`repro.cache.stackdist.ENGINE_TABLE`) lists it
for, and by the differential fuzzer on every fuzzed trace.

Three layers:

* **Flavor decode** — ``flavor_decode`` (the EV_* typed stream),
  ``flavor_constants`` (what a flavor fixes in the statistics),
  ``flag_presence``, ``next_use_index``, the same-block run collapse
  (:func:`collapse_runs_sorted`) and the set blocks
  (:func:`set_blocks`) that the kernel and the lane walks share.
* **The transfer functions** — :class:`UnifiedCache` over one line
  store, :class:`ReplacementPolicy` (a ``{block: entry}`` dict per set,
  each policy adding only its victim rule and bookkeeping): bypass
  probes, kill bits (invalidate vs demote), write policies,
  write-allocation and dirty-writeback accounting.
* **Lane walks** — single-pass multi-associativity sweeps that score a
  whole geometry column in one walk of the stream: set-major, one set
  block at a time, except :func:`rrip_sweep`, whose predictors span
  sets.

The contract between every pair of engines is bit-identical
:class:`~repro.cache.stats.CacheStats`, never approximately-equal.
"""

from itertools import count as _count, repeat as _repeat

import numpy as _np

from repro.cache.stats import CacheStats
from repro.vm.trace import FLAG_BYPASS, FLAG_KILL, FLAG_WRITE, set_order

#: Event type codes produced by the flavor decode (order matters only
#: to the consumers' dispatch; plain events are the two smallest).
EV_PLAIN_READ = 0
EV_PLAIN_WRITE = 1
EV_KILL_READ = 2
EV_KILL_WRITE = 3
EV_BYPASS_READ = 4
EV_BYPASS_READ_KILL = 5
EV_BYPASS_WRITE = 6


# ----------------------------------------------------------------------
# Flavor decode
# ----------------------------------------------------------------------


def flag_presence(columns):
    """Does the trace carry any bypass / kill bits at all?"""
    _addresses, flags = columns
    present = int(_np.bitwise_or.reduce(flags) if len(flags) else 0)
    return bool(present & FLAG_BYPASS), bool(present & FLAG_KILL)


class FlavorStream:
    """One flavor's decoded event stream.

    The blocks and EV_* type codes as NumPy arrays, plus the
    geometry-independent stat constants — all computed exactly once per
    flavor no matter how many ``(num_sets, assoc)`` passes share them.
    """

    __slots__ = ("blocks_np", "types_np", "constants")


#: The flag bits the flavor decode reads.
_EVENT_BITS = FLAG_WRITE | FLAG_BYPASS | FLAG_KILL


def _event_types(honor_bypass, honor_kill):
    """EV_* code for every value of a flag byte's ``_EVENT_BITS``."""
    table = _np.zeros(_EVENT_BITS + 1, dtype=_np.int64)
    for bits in range(_EVENT_BITS + 1):
        w = bits & FLAG_WRITE
        y = (bits & FLAG_BYPASS) >> 1 if honor_bypass else 0
        k = (bits & FLAG_KILL) >> 2 if honor_kill else 0
        # plain=0/1 by write bit; kill adds 2; bypass overrides to
        # 4/5/6 (a bypass write sheds its kill bit: the probe already
        # invalidates, so the kill is never separately honored).
        table[bits] = (1 - y) * (w + 2 * k) + y * (4 + 2 * w + (1 - w) * k)
    return table


def flavor_decode(columns, flavor):
    """Decode the packed columns into a :class:`FlavorStream`.

    ``flavor`` is ``(line_words, honor_bypass, honor_kill,
    write_policy)`` with the honor flags already normalized against
    the trace's flag presence.
    """
    addresses, flags = columns
    line_words, honor_bypass, honor_kill, write_policy = flavor
    stream = FlavorStream()
    a = _np.asarray(addresses, dtype=_np.int64)
    blocks = a if line_words == 1 else a // line_words
    # One table lookup per event on the write/bypass/kill bits: no
    # whole-trace int64 temporaries besides the result.
    low = _np.asarray(flags, dtype=_np.uint8) & _EVENT_BITS
    types = _event_types(honor_bypass, honor_kill)[low]
    stream.blocks_np = blocks
    stream.types_np = types
    counts = _np.bincount(types, minlength=7).tolist()
    stream.constants = flavor_constants(counts, write_policy)
    return stream


def flavor_constants(counts, write_policy):
    """The geometry-independent :class:`CacheStats` contributions.

    ``kills`` and ``words_to_memory_const`` assume every kill-write
    event reaches a cache line (true whenever
    ``allocate_on_write=True``); the write-around sweeps count kills
    per associativity instead of using this entry, and
    :class:`UnifiedCache` subtracts its write-around kill-write misses.
    """
    refs_total = sum(counts)
    writes = counts[EV_PLAIN_WRITE] + counts[EV_KILL_WRITE] + counts[
        EV_BYPASS_WRITE
    ]
    refs_bypassed = (
        counts[EV_BYPASS_READ]
        + counts[EV_BYPASS_READ_KILL]
        + counts[EV_BYPASS_WRITE]
    )
    kills = (
        counts[EV_KILL_READ]
        + counts[EV_KILL_WRITE]
        + counts[EV_BYPASS_READ_KILL]
    )
    words_to_memory = counts[EV_BYPASS_WRITE]
    if write_policy == "writethrough":
        words_to_memory += counts[EV_PLAIN_WRITE] + counts[EV_KILL_WRITE]
    return {
        "refs_total": refs_total,
        "reads": refs_total - writes,
        "writes": writes,
        "refs_cached": refs_total - refs_bypassed,
        "refs_bypassed": refs_bypassed,
        "kills": kills,
        "bypass_writes": counts[EV_BYPASS_WRITE],
        "words_to_memory_const": words_to_memory,
        "counts": counts,
    }


def next_use_index(trace, line_words=1, honor_bypass=True):
    """For each reference index, the index of the next through-cache
    reference to the same block (or infinity).

    Returns a float64 NumPy array, one entry per event.  Bypassed
    references (when honored) never touch a line's future, so they
    carry the marker ``-1`` instead of a position.  The result depends
    only on the two arguments, never on geometry or policy, so one
    index serves every MIN and Hawkeye configuration of a sweep that
    shares them.
    """
    addresses, flags = trace.to_columns()
    n = len(addresses)
    a = _np.asarray(addresses, dtype=_np.int64)
    blocks = a if line_words == 1 else a // line_words
    if honor_bypass:
        f = _np.asarray(flags, dtype=_np.int64)
        cached = _np.flatnonzero((f & FLAG_BYPASS) == 0)
    else:
        cached = _np.arange(n)
    out = _np.full(n, -1.0)
    if len(cached):
        cb = blocks[cached]
        order = _np.argsort(cb, kind="stable")
        sorted_blocks = cb[order]
        sorted_indices = cached[order]
        # Within a block group the stable sort keeps time order, so
        # each event's next use is simply its right neighbor.
        nxt = _np.empty(len(cached))
        same = sorted_blocks[1:] == sorted_blocks[:-1]
        nxt[:-1] = _np.where(same, sorted_indices[1:], _np.inf)
        nxt[-1] = _np.inf
        out[sorted_indices] = nxt
    return out


# ----------------------------------------------------------------------
# The run-collapse pre-pass
# ----------------------------------------------------------------------


#: Most events one set block may hold.  The set-major walks (the
#: array kernel and the lane walks) go through the set partition in
#: blocks of whole sets (a set with more events than this is a block of
#: its own), so their per-event temporaries are sized by the block, not
#: by the trace.
SET_BLOCK_EVENTS = 1 << 15


def set_blocks(blocks, num_sets):
    """``(lo, hi)`` bounds of the set blocks in set-major order.

    Each block is a run of whole sets holding at most
    ``SET_BLOCK_EVENTS`` events, or a single larger set.  ``lo:hi``
    slices the set partition (``TraceBuffer.set_partition``).
    """
    ends = _np.cumsum(_np.bincount(blocks % num_sets, minlength=num_sets))
    total = int(ends[-1])
    lo = 0
    while lo < total:
        fit = int(_np.searchsorted(ends, lo + SET_BLOCK_EVENTS, side="right"))
        hi = int(ends[fit - 1]) if fit else lo
        if hi <= lo:
            hi = int(ends[_np.searchsorted(ends, lo, side="right")])
        yield lo, hi
        lo = hi


class SortedRuns:
    """Per-set consecutive same-block plain runs, collapsed to heads.

    The surviving head events stay in set-major (partition) order —
    the layout the set-major walks consume — so no back-to-time remap
    or list materialization is paid.  ``blocks`` / ``types`` /
    ``sets`` are the gathered head columns; ``heads`` holds each head's
    raw event index (for scattering per-head results back to time
    order); ``lasts`` holds the raw index of each run's final event
    (the head itself for a singleton run), the index whose next-use
    value MIN must see; ``run_writes[p]`` says a collapsed follower of
    head ``p`` wrote.  ``follower_reads`` / ``follower_writes``
    partition the ``collapsed`` guaranteed-hit followers.
    """

    __slots__ = (
        "blocks", "types", "sets", "heads", "lasts", "run_writes",
        "follower_reads", "follower_writes", "collapsed",
    )


def collapse_runs_sorted(blocks, types, num_sets, order):
    """Collapse per-set consecutive same-block plain-cached runs.

    A through-cache reference whose set's previous reference touched
    the same block is a guaranteed MRU hit in every geometry and moves
    nothing, so only the run head needs simulating; followers
    contribute guaranteed hits and at most a write-dirtying.

    Only valid when every plain head leaves its block resident — i.e.
    ``allocate_on_write=True`` (a write-around head miss would make
    its followers miss too); callers gate on that.

    ``order`` is a stable set-major argsort of the events
    (``TraceBuffer.set_partition``), or a slice of one covering whole
    sets (one set block); the result covers exactly those events, in
    that order, and always includes the gathered block/type/set
    columns, even when nothing collapses.
    """
    b = blocks if isinstance(blocks, _np.ndarray) else _np.asarray(blocks)
    t = _np.asarray(types, dtype=_np.int64)
    n = len(order)
    runs = SortedRuns()
    runs.follower_reads = runs.follower_writes = runs.collapsed = 0
    if n == 0:
        empty = _np.zeros(0, dtype=_np.int64)
        runs.blocks = runs.types = runs.sets = empty
        runs.heads = runs.lasts = empty
        runs.run_writes = _np.zeros(0, dtype=bool)
        return runs
    sb = b[order]
    st = t[order]
    ss = sb % num_sets
    same_set = _np.empty(n, dtype=bool)
    same_set[0] = False
    same_set[1:] = ss[1:] == ss[:-1]
    plain = st <= EV_PLAIN_WRITE
    follower = _np.empty(n, dtype=bool)
    follower[0] = False
    follower[1:] = (
        same_set[1:]
        & plain[1:]
        & plain[:-1]
        & (sb[1:] == sb[:-1])
    )
    collapsed = int(follower.sum())
    if collapsed == 0:
        runs.blocks = sb
        runs.types = st
        runs.sets = ss
        runs.heads = runs.lasts = order
        runs.run_writes = _np.zeros(n, dtype=bool)
        return runs
    keep = ~follower
    head_ids = _np.cumsum(keep) - 1
    head_pos = _np.flatnonzero(keep)
    heads = len(head_pos)
    follower_write_mask = follower & (st == EV_PLAIN_WRITE)
    runs.blocks = sb[keep]
    runs.types = st[keep]
    runs.sets = ss[keep]
    runs.heads = order[keep]
    # Runs are contiguous in set-major order and time-ordered inside
    # (the stable sort never reorders one set's events), so each run
    # ends just before the next head.
    last_pos = _np.empty(heads, dtype=head_pos.dtype)
    last_pos[:-1] = head_pos[1:] - 1
    last_pos[-1] = n - 1
    runs.lasts = order[last_pos]
    runs.run_writes = (
        _np.bincount(head_ids[follower_write_mask], minlength=heads) > 0
    )
    runs.follower_writes = int(follower_write_mask.sum())
    runs.follower_reads = collapsed - runs.follower_writes
    runs.collapsed = collapsed
    return runs


# ----------------------------------------------------------------------
# Replacement policies
# ----------------------------------------------------------------------

# Entry layout shared by every policy: the semantics core reads and
# writes the three leading slots, the line store keys a line by its
# block and every victim rule reads its stamp; a policy's own
# bookkeeping follows them.
ENTRY_DIRTY = 0
ENTRY_DEAD = 1
ENTRY_VALUE = 2
ENTRY_BLOCK = 3
ENTRY_STAMP = 4

# The RRIP family's tail.
_RRIP_RRPV = 5
_RRIP_SIG = 6
_RRIP_OUTCOME = 7

# -- RRIP-family constants (docs/POLICIES.md) --------------------------

#: 2-bit re-reference prediction values: 0 = near-immediate,
#: RRPV_MAX = distant (the eviction frontier).
RRPV_MAX = 3
RRPV_LONG = RRPV_MAX - 1

#: BRRIP inserts distant except every Nth install per set, which gets
#: the long (SRRIP) position.  The throttle is a deterministic per-set
#: install counter — never the clock — so every driver agrees and
#: DRRIP leader sets replay standalone bit-exactly.
BRRIP_THROTTLE = 32

#: DRRIP set-dueling: leader sets every DUEL_PERIOD sets (clamped to
#: the geometry), a 10-bit PSEL saturating counter trained on leader
#: misses.
DUEL_PERIOD = 32
PSEL_BITS = 10
PSEL_INIT = 1 << (PSEL_BITS - 1)
PSEL_MAX = (1 << PSEL_BITS) - 1

#: SHiP-lite: 2-bit saturating signature history counters.
SHCT_MAX = 3
SHCT_INIT = 1

#: Hawkeye-lite: 3-bit saturating friendliness counters; a signature
#: is cache-friendly while its counter stays at or above the midpoint.
HAWKEYE_MAX = 7
HAWKEYE_INIT = 4

#: The static reference signature used by the SHiP/Hawkeye predictors:
#: the trace's annotation byte (write/bypass/kill/ambiguous/origin
#: bits — all static properties of the reference site), excluding the
#: dynamic FLAG_INSTRUCTION bit.  The trace format carries no per-site
#: program counter, and the signature must survive the RPTRACE2
#: round-trip through the artifact cache, so it is derived from
#: ``(flags)`` alone.
SIGNATURE_MASK = 0x7F


def _duel_roles(num_sets):
    """DRRIP's per-set dueling role: ``"srrip"``/``"brrip"``/``None``.

    Leader sets sit every ``DUEL_PERIOD`` sets, clamped to the
    geometry: phase 0 duels for SRRIP, the opposite phase for BRRIP.
    """
    period = min(num_sets, DUEL_PERIOD)
    roles = []
    for set_index in range(num_sets):
        phase = set_index % period
        if phase == 0:
            roles.append("srrip")
        elif period >= 2 and phase == period // 2:
            roles.append("brrip")
        else:
            roles.append(None)
    return roles


def _bimodal_insert(throttle, set_index):
    """BRRIP's insertion RRPV: long every ``BRRIP_THROTTLE``-th install
    in the set (``throttle`` holds the per-set install counts)."""
    count = throttle[set_index]
    throttle[set_index] = count + 1
    return RRPV_LONG if count % BRRIP_THROTTLE == 0 else RRPV_MAX


def _duel_insert(role, psel, throttle, set_index):
    """DRRIP's insertion RRPV for one install, and the PSEL after it.

    A leader install charges PSEL against its side and inserts as that
    side would; a follower inserts BRRIP-style while PSEL sits above
    its midpoint, SRRIP-style otherwise.
    """
    if role == "srrip":
        return RRPV_LONG, min(psel + 1, PSEL_MAX)
    if role == "brrip":
        return _bimodal_insert(throttle, set_index), max(psel - 1, 0)
    if psel > PSEL_INIT:
        return _bimodal_insert(throttle, set_index), psel
    return RRPV_LONG, psel


def _optgen(shadow, counters, assoc, block, sig, position):
    """One access through Hawkeye's shadow OPT set; trains ``counters``.

    ``shadow`` is one set's ``{block: next-use position}`` dict with
    :class:`MinPolicy`'s victim order: farthest next use, the first in
    insertion order on infinity ties (``max`` keeps the first maximum).
    A shadow hit trains ``sig`` cache-friendly, a miss averse.  Returns
    whether the shadow hit.
    """
    count = counters.get(sig, HAWKEYE_INIT)
    hit = block in shadow
    if hit:
        if count < HAWKEYE_MAX:
            counters[sig] = count + 1
    else:
        if count > 0:
            counters[sig] = count - 1
        if len(shadow) >= assoc:
            del shadow[max(shadow, key=shadow.__getitem__)]
    shadow[block] = position
    return hit


def signature_column(trace):
    """Per-event static reference signatures for a trace.

    Returns a list aligned with the trace's event positions; feed it
    to :func:`make_policy` for the signature-indexed policies (SHiP,
    Hawkeye).
    """
    _addresses, flags = trace.to_columns()
    return _np.bitwise_and(
        _np.asarray(flags, dtype=_np.int64), SIGNATURE_MASK
    ).tolist()


_M64 = (1 << 64) - 1


def _mix64(seed, set_index, draw):
    """A splitmix64-style hash of ``(seed, set, draw ordinal)``.

    The counter-based RNG behind :class:`RandomPolicy`: every driver
    that replays the same trace makes the same draws in the same
    per-set order, so victims agree bit-exactly across the serial,
    functional, and one-pass lane engines.
    """
    x = (
        seed * 0x9E3779B97F4A7C15
        + set_index * 0xBF58476D1CE4E5B9
        + draw * 0x94D049BB133111EB
    ) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def _by_stamp(line):
    return line[ENTRY_STAMP]


class ReplacementPolicy:
    """The line store behind :class:`UnifiedCache`, and its victim rule.

    The store is one insertion-ordered ``{block: entry}`` dict per set
    (a block's set is ``block % num_sets``) plus ``resident``, one dict
    mapping every resident block to its entry over all sets, so the
    core finds a block with one ``dict.get``.  ``reset`` creates both;
    ``install`` / ``evict`` / ``invalidate`` keep them exact, and
    nothing else writes them.  A hit moves nothing, so each set's dict
    order is its install order.

    Entries are small lists: the core owns ``ENTRY_DIRTY`` /
    ``ENTRY_DEAD`` / ``ENTRY_VALUE``, the store ``ENTRY_BLOCK`` and
    ``ENTRY_STAMP`` (the clock at the last install or touch, unless a
    policy says otherwise), and the policy the tail.  A policy states
    its install and touch bookkeeping (``_entry``, ``touch``) and its
    victim rule (``_victim``).  Every rule takes a dead line first,
    smallest stamp first (:meth:`_dead_victim`) — the paper's dead-line
    reuse is policy-independent — except MIN's, whose own scan ranks
    the dead lines first.
    """

    __slots__ = ("_sets", "_assoc", "resident", "_demoted")

    #: Policies that consume the trace position (MIN's next-use index,
    #: the signature-indexed predictors) set this so drivers know to
    #: thread event indices through.
    needs_index = False

    def reset(self, config):
        """(Re)build an empty store for ``config``'s geometry."""
        self._sets = [{} for _ in range(config.num_sets)]
        self._assoc = config.associativity
        self.resident = {}
        #: Has a kill demoted a line since ``reset``?  Only ``demote``
        #: leaves a line dead, so until then no rule scans for one.
        self._demoted = False

    def touch(self, entry, clock, index):
        """Record a hit on ``entry`` (recency/next-use update)."""
        entry[ENTRY_STAMP] = clock

    def room(self, set_index):
        """Is there a free slot, making eviction unnecessary?"""
        return len(self._sets[set_index]) < self._assoc

    def evict(self, set_index):
        """Choose, remove, and return ``(block, entry)`` of a victim.

        Only called when ``room`` is ``False``; the returned entry
        still carries its dirty bit for writeback accounting.
        """
        lines = self._sets[set_index]
        victim = self._victim(set_index, lines)
        block = victim[ENTRY_BLOCK]
        del lines[block]
        del self.resident[block]
        return block, victim

    def install(self, set_index, block, clock, index):
        """Insert ``block`` (there is room) and return its clean entry."""
        entry = self._entry(set_index, block, clock, index)
        self._sets[set_index][block] = self.resident[block] = entry
        return entry

    def invalidate(self, set_index, block, entry):
        """Drop a resident entry (bypass probe or kill)."""
        del self._sets[set_index][block]
        del self.resident[block]

    def demote(self, entry):
        """A kill retired ``entry`` in demote mode (it stays resident).

        The core has already marked it ``ENTRY_DEAD``; predictive
        policies additionally force their own predicted-dead state
        (distant RRPV) and exempt the line from predictor training —
        the compiler has supplied the reuse verdict.
        """
        self._demoted = True

    def entries(self):
        """Yield ``(block, entry)`` for every resident line."""
        for lines in self._sets:
            yield from lines.items()

    def _entry(self, set_index, block, clock, index):
        """A clean entry for ``block``, the policy's tail included."""
        return [False, False, None, block, clock]

    def _dead_victim(self, lines):
        """The dead line of ``lines`` with the smallest stamp, if any."""
        if self._demoted:
            dead = [line for line in lines if line[ENTRY_DEAD]]
            if dead:
                return min(dead, key=_by_stamp)
        return None

    def _victim(self, set_index, lines):
        """The line a full set gives up; ``lines`` is the set's dict."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-touched victim (the paper's baseline)."""

    __slots__ = ()
    name = "lru"

    def _victim(self, set_index, lines):
        lines = lines.values()
        return self._dead_victim(lines) or min(lines, key=_by_stamp)


class FIFOPolicy(ReplacementPolicy):
    """Oldest-installed victim; touches never refresh position."""

    __slots__ = ()
    name = "fifo"

    def _victim(self, set_index, lines):
        lines = lines.values()
        return self._dead_victim(lines) or next(iter(lines))


class RandomPolicy(ReplacementPolicy):
    """Counter-based seeded uniform victim.

    Each draw hashes ``(seed, set index, per-set draw ordinal)``
    (:func:`_mix64`) and picks that rank in install order (the set's
    dict order), so the choice is a pure function of the per-set
    eviction history — no shared RNG stream.  A draw happens only when
    no dead line short-circuits the choice, so every driver (serial,
    functional, and the one-pass lane sweep, where install order is
    the residency dict's insertion order too) reproduces the identical
    victim sequence.
    """

    __slots__ = ("_seed", "_draws")
    name = "random"

    def reset(self, config):
        super().reset(config)
        self._seed = config.seed
        self._draws = [0] * config.num_sets

    def _victim(self, set_index, lines):
        victim = self._dead_victim(lines.values())
        if victim is not None:
            return victim
        draw = self._draws[set_index]
        self._draws[set_index] = draw + 1
        choice = _mix64(self._seed, set_index, draw) % len(lines)
        return list(lines.values())[choice]


class MinPolicy(ReplacementPolicy):
    """Belady's MIN: evict the block whose next use is farthest away.

    A line's stamp is its next use.  The first strict minimum over
    ``(not dead, -next_use)`` in install order wins, so dead lines go
    first and infinity ties break by install order, as in
    :func:`min_sweep`.  Offline: it reads the trace's
    :func:`next_use_index`, so ``Cache(config)`` cannot build it (see
    :func:`make_policy`).
    """

    __slots__ = ("_next_use",)
    name = "min"
    needs_index = True

    def __init__(self, next_use):
        self._next_use = next_use

    def touch(self, entry, clock, index):
        entry[ENTRY_STAMP] = self._next_use[index]

    def _entry(self, set_index, block, clock, index):
        return [False, False, None, block, self._next_use[index]]

    def _victim(self, set_index, lines):
        victim = victim_key = None
        for entry in lines.values():
            key = (0 if entry[ENTRY_DEAD] else 1, -entry[ENTRY_STAMP])
            if victim_key is None or key < victim_key:
                victim, victim_key = entry, key
        return victim


class _RRIPPolicy(ReplacementPolicy):
    """Shared 2-bit RRPV machinery for the predictive policies.

    Insertion position is the subclass knob (``_insert``); hits
    promote to RRPV 0; the victim scan ages the whole set to the
    eviction frontier in one step and breaks frontier ties toward the
    least-recently-touched line, so a just-promoted MRU block is never
    the victim while an alternative exists.  An entry's tail is its
    RRPV, the signature that installed it and whether it saw reuse.
    """

    __slots__ = ()

    def _entry(self, set_index, block, clock, index):
        sig = self._signature(index)
        return [False, False, None, block, clock,
                self._insert(set_index, sig, index), sig, False]

    def touch(self, entry, clock, index):
        entry[ENTRY_STAMP] = clock
        entry[_RRIP_RRPV] = 0
        self._on_hit(entry, index)

    def evict(self, set_index):
        block, victim = super().evict(set_index)
        self._on_evict(victim)
        return block, victim

    def demote(self, entry):
        # Kill/bypass interaction: the compiler said dead, so force the
        # hardware's predicted-dead state and withhold the line from
        # predictor training (its non-reuse is knowledge, not evidence).
        self._demoted = True
        entry[_RRIP_RRPV] = RRPV_MAX
        entry[_RRIP_SIG] = None

    def _victim(self, set_index, lines):
        lines = lines.values()
        victim = self._dead_victim(lines)
        if victim is not None:
            return victim
        top = 0
        for line in lines:
            if line[_RRIP_RRPV] > top:
                top = line[_RRIP_RRPV]
        if top < RRPV_MAX:
            bump = RRPV_MAX - top
            for line in lines:
                line[_RRIP_RRPV] += bump
        for line in lines:
            if line[_RRIP_RRPV] >= RRPV_MAX and (
                victim is None or line[ENTRY_STAMP] < victim[ENTRY_STAMP]
            ):
                victim = line
        return victim

    # -- subclass hooks ------------------------------------------------

    def _signature(self, index):
        return None

    def _insert(self, set_index, sig, index):
        raise NotImplementedError

    def _on_hit(self, entry, index):
        pass

    def _on_evict(self, victim):
        pass


class SRRIPPolicy(_RRIPPolicy):
    """Static RRIP: insert at the long position, promote on hit."""

    __slots__ = ()
    name = "srrip"

    def _insert(self, set_index, sig, index):
        return RRPV_LONG


class BRRIPPolicy(_RRIPPolicy):
    """Bimodal RRIP: insert distant, every Nth per-set install long."""

    __slots__ = ("_throttle",)
    name = "brrip"

    def reset(self, config):
        super().reset(config)
        self._throttle = [0] * config.num_sets

    def _insert(self, set_index, sig, index):
        return _bimodal_insert(self._throttle, set_index)


class DRRIPPolicy(_RRIPPolicy):
    """Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion.

    Leader sets are fixed by geometry (every ``DUEL_PERIOD`` sets,
    clamped so small caches still duel); a saturating PSEL counter
    charges each leader miss against its policy, and follower sets
    insert with whichever side PSEL currently favors.  ``monitor``
    exposes per-leader-set hit counts — a leader set's state depends
    only on its own access subsequence, so those counts replay
    standalone under pure SRRIP/BRRIP bit-exactly (the Hypothesis
    suite holds it to that).
    """

    __slots__ = ("_throttle", "_psel", "_roles", "monitor")
    name = "drrip"

    def reset(self, config):
        super().reset(config)
        num_sets = config.num_sets
        self._throttle = [0] * num_sets
        self._psel = PSEL_INIT
        self._roles = _duel_roles(num_sets)
        self.monitor = {"srrip": {}, "brrip": {}}

    def _insert(self, set_index, sig, index):
        rrpv, self._psel = _duel_insert(
            self._roles[set_index], self._psel, self._throttle, set_index
        )
        return rrpv

    def _on_hit(self, entry, index):
        set_index = entry[ENTRY_BLOCK] % len(self._sets)
        role = self._roles[set_index]
        if role is not None:
            hits = self.monitor[role]
            hits[set_index] = hits.get(set_index, 0) + 1


class SHiPPolicy(_RRIPPolicy):
    """SHiP-lite: signature history counters steer insertion.

    A 2-bit saturating counter per static reference signature (the
    trace's annotation byte — see :data:`SIGNATURE_MASK`) learns
    whether that signature's installs see reuse: hits train up and set
    the line's outcome bit, an eviction without reuse trains down.  A
    zero counter predicts dead-on-arrival and inserts distant.
    Invalidations (bypass probes, kills) never train — the compiler
    already ruled on those lines.
    """

    __slots__ = ("_signatures", "_shct")
    name = "ship"
    needs_index = True

    def __init__(self, signatures):
        self._signatures = signatures

    def reset(self, config):
        super().reset(config)
        self._shct = {}

    def _signature(self, index):
        return self._signatures[index]

    def _insert(self, set_index, sig, index):
        if self._shct.get(sig, SHCT_INIT) == 0:
            return RRPV_MAX
        return RRPV_LONG

    def _on_hit(self, entry, index):
        sig = entry[_RRIP_SIG]
        if sig is not None:
            entry[_RRIP_OUTCOME] = True
            count = self._shct.get(sig, SHCT_INIT)
            if count < SHCT_MAX:
                self._shct[sig] = count + 1

    def _on_evict(self, victim):
        sig = victim[_RRIP_SIG]
        if sig is not None and not victim[_RRIP_OUTCOME]:
            count = self._shct.get(sig, SHCT_INIT)
            if count > 0:
                self._shct[sig] = count - 1


class HawkeyePolicy(_RRIPPolicy):
    """Hawkeye-lite: learn from what Belady's MIN *would have done*.

    Every through-cache access also runs through a per-set shadow OPT
    that mirrors :class:`MinPolicy` exactly — same always-install,
    same farthest-next-use victim, same tie order — driven by the
    precomputed :func:`next_use_index`, i.e. the OPTgen oracle is the
    existing incremental MIN machinery rather than a liveness-vector
    reconstruction.  A shadow hit trains the access's signature
    cache-friendly, a shadow miss trains it averse; friendly installs
    enter at RRPV 0, averse installs at the eviction frontier.
    ``optgen_hits`` counts shadow hits so the property suite can hold
    the oracle to a MIN replay
    (:func:`~repro.cache.replay.replay_trace` with ``policy="min"``).
    """

    __slots__ = (
        "_signatures", "_next_use", "_predictor", "_shadow",
        "optgen_hits", "optgen_refs",
    )
    name = "hawkeye"
    needs_index = True

    def __init__(self, next_use, signatures):
        self._next_use = next_use
        self._signatures = signatures

    def reset(self, config):
        super().reset(config)
        self._predictor = {}
        self._shadow = [dict() for _ in range(config.num_sets)]
        self.optgen_hits = 0
        self.optgen_refs = 0

    def _entry(self, set_index, block, clock, index):
        self._optgen(set_index, block, index)
        return super()._entry(set_index, block, clock, index)

    def touch(self, entry, clock, index):
        block = entry[ENTRY_BLOCK]
        self._optgen(block % len(self._sets), block, index)
        super().touch(entry, clock, index)

    def _signature(self, index):
        return self._signatures[index]

    def _insert(self, set_index, sig, index):
        if self._predictor.get(sig, HAWKEYE_INIT) >= HAWKEYE_INIT:
            return 0
        return RRPV_MAX

    def _optgen(self, set_index, block, index):
        """One access through the shadow OPT; trains the predictor."""
        self.optgen_refs += 1
        if _optgen(self._shadow[set_index], self._predictor,
                   self._assoc, block, self._signatures[index],
                   self._next_use[index]):
            self.optgen_hits += 1


_POLICY_CLASSES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
    "drrip": DRRIPPolicy,
    "ship": SHiPPolicy,
    "hawkeye": HawkeyePolicy,
}

#: Which policies read which precomputed trace column, decided once:
#: MIN and Hawkeye read the next-use index (:func:`next_use_index`),
#: SHiP and Hawkeye the signature column (:func:`signature_column`).
#: A driver holding only a config builds them through
#: :func:`repro.cache.replay.policy_for_trace`; the sweep dispatcher
#: computes each column once per call for the groups that read it.
NEXT_USE_POLICIES = ("min", "hawkeye")
SIGNATURE_POLICIES = ("ship", "hawkeye")

#: The RRIP family: every policy whose victim is the RRPV frontier.
#: :func:`rrip_sweep` scores them all.
RRIP_POLICIES = ("srrip", "brrip", "drrip", "ship", "hawkeye")


def make_policy(config, next_use=None, signatures=None):
    """Instantiate the :class:`ReplacementPolicy` for ``config``.

    MIN and Hawkeye need the trace's precomputed ``next_use`` index
    (see :func:`next_use_index`), SHiP and Hawkeye its ``signatures``
    column (see :func:`signature_column`); each raises
    :class:`ValueError` without its columns.  The other policies
    ignore both.
    """
    if config.policy == "ship":
        if signatures is None:
            raise ValueError("the SHiP policy needs a signature column")
        return SHiPPolicy(signatures)
    if config.policy == "hawkeye":
        if next_use is None or signatures is None:
            raise ValueError(
                "the Hawkeye policy needs next-use and signature columns"
            )
        return HawkeyePolicy(next_use, signatures)
    if config.policy == "min":
        if next_use is None:
            raise ValueError("the MIN policy needs a next-use index")
        return MinPolicy(next_use)
    try:
        return _POLICY_CLASSES[config.policy]()
    except KeyError:
        raise ValueError("unknown policy {!r}".format(config.policy))


# ----------------------------------------------------------------------
# The transfer function
# ----------------------------------------------------------------------


#: Event-count slots after the seven EV_* flavors: through-cache
#: misses (the hits are the rest), bypassed reads that found their
#: block, and write-around kill-write misses, which retire no line.
_N_MISSES, _N_BYPASS_HITS, _N_AROUND_KILLS = 7, 8, 9

#: The :class:`CacheStats` fields :func:`flavor_constants` fixes outright.
_CONSTANT_FIELDS = ("refs_total", "reads", "writes", "refs_cached",
                    "refs_bypassed", "bypass_writes")


def _transfer_functions(config, policy, stats, n, main, seen):
    """A cache's seven transfer functions, in EV_* order, and its
    ``free_dead``.  Each takes ``(address, index=None, value=None)``,
    returns ``"hit"``/``"miss"``/``"bypass"`` and counts its event in
    ``n``, from which :attr:`UnifiedCache.stats` derives what the
    flavor fixes, and the rest in ``stats``.  ``main`` is the data-mode
    word store (``None`` without data), ``seen[0]`` the word a read
    observed.  Nothing here refers to the cache, so a dropped cache is
    freed by reference counting."""
    lw, num_sets = config.line_words, config.num_sets
    writeback = config.write_policy == "writeback"
    allocate = config.allocate_on_write
    invalidating = config.kill_mode == "invalidate" and lw == 1
    data = main is not None
    get = policy.resident.get
    touch, invalidate = policy.touch, policy.invalidate
    room, evict, install = policy.room, policy.evict, policy.install
    # Stamps only order lines, so only through-cache events tick.
    tick = _count(1).__next__

    def free_dead(address):
        block = address // lw
        entry = get(block)
        if entry is None:
            return False
        if entry[ENTRY_DIRTY]:
            stats.dead_drops += 1
        invalidate(block % num_sets, block, entry)
        stats.dead_line_frees += 1
        return True

    def bind(flavor, is_write, bypass, kill):
        def transfer(address, index=None, value=None):
            n[flavor] += 1
            if is_write and data and (bypass or not writeback):
                main[address] = value
            block = address // lw
            entry = get(block)
            if bypass:
                if entry is None:
                    if data and not is_write:
                        seen[0] = main.get(address, 0)
                    return "bypass"
                if is_write:
                    # A bypassed store goes straight to memory; a
                    # resident copy is stale and dies without writeback
                    # (the store supersedes whatever the line held).
                    stats.probe_hits += 1
                else:
                    n[_N_BYPASS_HITS] += 1
                    if data:
                        seen[0] = entry[ENTRY_VALUE]
                    if entry[ENTRY_DIRTY]:
                        if kill:
                            # Last use of a dead value: drop it instead
                            # of flushing.
                            stats.dead_drops += 1
                        else:
                            stats.writebacks += 1
                            stats.words_to_memory += lw
                            if data:
                                main[address] = entry[ENTRY_VALUE]
                invalidate(block % num_sets, block, entry)
                return "bypass"
            if entry is not None:
                touch(entry, tick(), index)
                entry[ENTRY_DEAD] = False
                outcome = "hit"
            else:
                n[_N_MISSES] += 1
                if kill and not is_write:
                    # A killed read misses *around* the cache: the
                    # value is dead after this one use, so serve the
                    # word and install nothing.
                    stats.words_from_memory += 1
                    if data:
                        seen[0] = main.get(address, 0)
                    return "miss"
                if is_write and not allocate:
                    # Write-around: the store goes to memory without
                    # claiming a line (and without honoring any kill —
                    # there is no line to retire).
                    if kill:
                        n[_N_AROUND_KILLS] += 1
                    if writeback:
                        stats.words_to_memory += 1
                        if data:
                            main[address] = value
                    return "miss"
                set_index = block % num_sets
                if not room(set_index):
                    victim_block, victim = evict(set_index)
                    stats.evictions += 1
                    if victim[ENTRY_DIRTY]:
                        stats.writebacks += 1
                        stats.words_to_memory += lw
                        if data:
                            main[victim_block] = victim[ENTRY_VALUE]
                entry = install(set_index, block, tick(), index)
                if not (is_write and lw == 1):
                    # A one-word write-allocate needs no fill;
                    # everything else fetches the line.
                    stats.words_from_memory += lw
                if data and not is_write:
                    entry[ENTRY_VALUE] = main.get(address, 0)
                outcome = "miss"
            if is_write:
                if writeback:
                    entry[ENTRY_DIRTY] = True
                if data:
                    entry[ENTRY_VALUE] = value
            elif data:
                seen[0] = entry[ENTRY_VALUE]
            if kill:
                # Retire the dead value after its final touch.
                if invalidating:
                    free_dead(address)
                else:
                    # Demote (or a partial-line kill): mark dead so the
                    # next eviction in this set prefers it; predictive
                    # policies additionally force their predicted-dead
                    # state.
                    entry[ENTRY_DEAD] = True
                    policy.demote(entry)
            return outcome

        return transfer

    return (
        bind(EV_PLAIN_READ, False, False, False),
        bind(EV_PLAIN_WRITE, True, False, False),
        bind(EV_KILL_READ, False, False, True),
        bind(EV_KILL_WRITE, True, False, True),
        bind(EV_BYPASS_READ, False, True, False),
        bind(EV_BYPASS_READ_KILL, False, True, True),
        bind(EV_BYPASS_WRITE, True, True, False),
    ), free_dead


class UnifiedCache:
    """The paper's cache semantics over a pluggable policy.

    Each flavor (the EV_* codes) has one transfer function, built with
    the cache with the config folded in (:func:`_transfer_functions`):
    ``transfer[flavor]`` holds them, ``on_flags[flag byte]`` picks a
    trace event's, and the honor flags decide which.  A driver binds
    once and makes one call per event; ``access`` is a thin dispatcher
    for callers that hold the bits.  ``free_dead(address)`` frees a
    line another level's kill left dead.  With ``data=True`` the cache
    also carries values (the functional twin): ``main`` is the backing
    word store, writes deposit ``value``, and reads leave the observed
    word in ``self.value``.
    """

    __slots__ = (
        "config", "policy", "main", "transfer", "on_flags", "free_dead",
        "_stats", "_counts", "_folded", "_seen",
    )

    def __init__(self, config, policy=None, data=False):
        if data and config.line_words != 1:
            raise ValueError(
                "data-carrying caches require line_words=1 "
                "(got {})".format(config.line_words)
            )
        self.config = config
        if policy is None:
            policy = make_policy(config)
        policy.reset(config)
        self.policy = policy
        self.main = {} if data else None
        self._seen = [None]
        self._stats = CacheStats()
        self._counts = [0] * (_N_AROUND_KILLS + 1)
        self._folded = self._counts[:]
        self.transfer, self.free_dead = _transfer_functions(
            config, policy, self._stats, self._counts, self.main,
            self._seen,
        )
        types = _event_types(config.honor_bypass, config.honor_kill)
        self.on_flags = tuple(
            self.transfer[types[flags & _EVENT_BITS]] for flags in range(256)
        )

    @property
    def stats(self):
        """The live :class:`CacheStats`.  Reading it folds in what the
        flavors fix for the events since the last read, so it is exact
        whenever read, and edits made to it in place stay."""
        counts, folded, stats = self._counts, self._folded, self._stats
        delta = [now - then for now, then in zip(counts, folded)]
        folded[:] = counts
        const = flavor_constants(delta[:_N_MISSES], self.config.write_policy)
        for name in _CONSTANT_FIELDS:
            setattr(stats, name, getattr(stats, name) + const[name])
        misses, bypass_hits, around_kills = delta[_N_MISSES:]
        stats.hits += const["refs_cached"] - misses
        stats.misses += misses
        stats.kills += const["kills"] - around_kills
        stats.words_to_memory += const["words_to_memory_const"]
        stats.probe_hits += bypass_hits
        stats.bypass_read_hits += bypass_hits
        # Every other bypassed read fetched its word.
        fetched = delta[EV_BYPASS_READ] + delta[EV_BYPASS_READ_KILL]
        stats.words_from_memory += fetched - bypass_hits
        stats.bypass_reads_from_memory += fetched - bypass_hits
        return stats

    @property
    def value(self):
        """The word the last data-mode read observed."""
        return self._seen[0]

    def access(self, address, is_write, bypass=False, kill=False,
               value=None, index=None):
        """Apply one reference; returns ``"hit"``/``"miss"``/``"bypass"``.

        ``index`` is the trace position (consumed by next-use-driven
        policies); ``value`` is the stored word in data mode.
        """
        return self.on_flags[
            (FLAG_WRITE if is_write else 0)
            | (FLAG_BYPASS if bypass else 0)
            | (FLAG_KILL if kill else 0)
        ](address, index, value)

    # -- inspection ----------------------------------------------------

    def probe(self, address):
        """Would ``address`` hit right now?  Counts nothing."""
        return address // self.config.line_words in self.policy.resident

    def contents(self):
        """``{block: dirty}`` for every resident line."""
        return {
            block: entry[ENTRY_DIRTY]
            for block, entry in self.policy.entries()
        }


# ----------------------------------------------------------------------
# Lane walks
# ----------------------------------------------------------------------


#: The single-pass sweeps' per-associativity counters: the
#: :class:`CacheStats` field of each slot, in slot order.
_COUNTER_FIELDS = (
    "hits", "misses", "evictions", "writebacks", "words_from_memory",
    "words_to_memory", "probe_hits", "kills", "dead_drops",
    "dead_line_frees", "bypass_read_hits", "bypass_reads_from_memory",
)
(
    _C_HITS, _C_MISSES, _C_EVICTIONS, _C_WRITEBACKS, _C_WORDS_FROM,
    _C_WORDS_TO, _C_PROBE_HITS, _C_KILLS, _C_DEAD_DROPS, _C_DEAD_FREES,
    _C_BYPASS_READ_HITS, _C_BYPASS_READ_MEM,
) = range(len(_COUNTER_FIELDS))
_C_SLOTS = len(_COUNTER_FIELDS)


def _sweep_stats(stream, counters, collapsed):
    """Assemble exact :class:`CacheStats` from sweep counters."""
    const = stream.constants
    stats = CacheStats(
        **{name: const[name] for name in _CONSTANT_FIELDS},
        **dict(zip(_COUNTER_FIELDS, counters)),
    )
    stats.hits += collapsed
    stats.words_to_memory += const["words_to_memory_const"]
    return stats


def fifo_sweep(stream, num_sets, assocs, line_words, kill_mode,
               write_policy, allocate_on_write, order=None):
    """Score every FIFO associativity of one flavor group in one pass.

    FIFO has no stacking property, so each associativity keeps its own
    per-set residency dict — but one walk of the shared typed stream
    (fronted by the run collapse) serves them all, and the victim
    choice (free slot, else smallest-stamp dead line, else oldest
    install) is representation-independent because clock stamps are
    unique.  ``order`` is the set partition (see :func:`_lane_sweep`).
    Returns ``{assoc: CacheStats}``.
    """

    def make_evict():
        def evict(lines, counters, set_index):
            _stamp_evict(lines, counters, line_words, _LANE_INSERTED)

        return evict

    return _lane_sweep(stream, num_sets, assocs, line_words, kill_mode,
                       write_policy, allocate_on_write, make_evict,
                       order=order)


def lru_sweep(stream, num_sets, assocs, line_words, kill_mode,
              write_policy, allocate_on_write, order=None):
    """Score every LRU associativity of one flavor group in one pass.

    For the LRU specs outside the stack-distance model: write-around,
    and demoted or multi-word-line kills on a trace that carries kills.
    :class:`LRUPolicy` evicts the dead line with the smallest stamp,
    else the line with the smallest stamp, and a stamp is the clock of
    the line's last touch.  Stamps are unique, so per-set dicts
    reproduce that order whatever order they keep.  The run collapse
    keeps it too: no other line of the set is touched inside a run, so
    stamping the head instead of the last follower moves no line past
    another.  ``order`` is the set partition (see :func:`_lane_sweep`).
    Returns ``{assoc: CacheStats}``.
    """

    def make_evict():
        def evict(lines, counters, set_index):
            _stamp_evict(lines, counters, line_words, _LANE_STAMP)

        return evict

    return _lane_sweep(stream, num_sets, assocs, line_words, kill_mode,
                       write_policy, allocate_on_write, make_evict,
                       order=order)


def random_sweep(stream, num_sets, assocs, line_words, kill_mode,
                 write_policy, allocate_on_write, seed, order=None):
    """Score every Random associativity of one flavor group in one pass.

    Shares the lane walk with :func:`fifo_sweep`; the victim is the
    counter-based :func:`_mix64` draw over install order, which in a
    lane's residency dict *is* its insertion order — so each lane's
    per-set draw counters replay exactly the serial
    :class:`RandomPolicy` sequence for that associativity.  ``order``
    is the set partition (see :func:`_lane_sweep`).  Returns
    ``{assoc: CacheStats}``.
    """

    def make_evict():
        draws = [0] * num_sets

        def evict(lines, counters, set_index):
            _random_evict(lines, counters, line_words, seed, set_index,
                          draws)

        return evict

    return _lane_sweep(stream, num_sets, assocs, line_words, kill_mode,
                       write_policy, allocate_on_write, make_evict,
                       order=order)


def min_sweep(stream, num_sets, assocs, line_words, kill_mode,
              write_policy, allocate_on_write, next_use, order=None):
    """Score every MIN associativity of one flavor group in one pass.

    The lane walk with ``next_use`` (:func:`next_use_index` for the
    flavor's line size and bypass honoring) as its stamp column, so a
    line's stamp is the next-use position of its last touch; a
    collapsed run takes its last event's.  The residency dicts keep
    install order and the victim scan (:func:`_min_evict`) mirrors
    :class:`MinPolicy`, ties included, so the statistics are
    bit-identical to the per-config path.  ``order`` is the set
    partition (see :func:`_lane_sweep`).  Returns
    ``{assoc: CacheStats}``.
    """

    def make_evict():
        def evict(lines, counters, set_index):
            _min_evict(lines, counters, line_words)

        return evict

    return _lane_sweep(stream, num_sets, assocs, line_words, kill_mode,
                       write_policy, allocate_on_write, make_evict,
                       stamps=next_use, order=order)


#: Slots of a :func:`_lane_sweep` entry ``[dirty, dead, stamp,
#: inserted]``: the stamp of the last touch, and its value at install.
_LANE_STAMP = 2
_LANE_INSERTED = 3


def _lane_sweep(stream, num_sets, assocs, line_words, kill_mode,
                write_policy, allocate_on_write, make_evict, stamps=None,
                order=None):
    """One walk of the typed stream over per-associativity lanes.

    The shared engine behind :func:`fifo_sweep`, :func:`lru_sweep`,
    :func:`random_sweep` and :func:`min_sweep`: ``make_evict()`` is
    called once per lane and must return an ``evict(lines, counters,
    set_index)`` that pops a victim from the residency dict and
    accounts the eviction.  ``stamps``, a per-event NumPy column,
    gives each touch its stamp (a collapsed run takes its last
    event's, gathered one set block at a time); without it the stamp
    is the walk's clock.

    The walk is set-major: it goes through ``order``, the stable
    set-major argsort of the stream (``TraceBuffer.set_partition``;
    computed here when not given), one set block
    (:func:`set_blocks`) at a time, and builds each block's event
    lists only when it reaches that block.  That is exact because sets
    are independent and every counter adds; the LRU and FIFO clock
    stamps are compared only within a set, where the walk keeps time
    order; Random draws per ``(seed, set, draw)``; and MIN's stamps are
    absolute next-use positions.
    """
    writethrough = write_policy == "writethrough"
    kill_invalidates = kill_mode == "invalidate" and line_words == 1
    blocks = stream.blocks_np
    types = stream.types_np
    if order is None:
        order = set_order(blocks, num_sets)
    clock = _count(1)
    collapsed = 0

    uniq = sorted(set(assocs))
    states = [[{} for _ in range(num_sets)] for _ in uniq]
    counters = [[0] * _C_SLOTS for _ in uniq]
    lanes = [
        (assoc, state, c, make_evict())
        for assoc, state, c in zip(uniq, states, counters)
    ]

    for lo, hi in set_blocks(blocks, num_sets):
        part = order[lo:hi]
        if allocate_on_write:
            runs = collapse_runs_sorted(blocks, types, num_sets, part)
            collapsed += runs.collapsed
            walk_blocks, walk_types = runs.blocks, runs.types
            lasts = runs.lasts
            run_writes = runs.run_writes.tolist()
        else:
            walk_blocks, walk_types = blocks[part], types[part]
            lasts = part
            run_writes = _repeat(False)
        # Plain lists for this block only, dropped when the walk moves
        # on: no tuple per event.
        events = zip(
            walk_blocks.tolist(), walk_types.tolist(), run_writes,
            clock if stamps is None else stamps[lasts].tolist(),
        )
        for block, event_type, follower_wrote, stamp in events:
            set_index = block % num_sets
            if event_type <= EV_PLAIN_WRITE:
                is_write = event_type == EV_PLAIN_WRITE
                dirties = (is_write or follower_wrote) and not writethrough
                around = is_write and not allocate_on_write
                fetches = not (is_write and line_words == 1)
                for assoc, sets, c, evict in lanes:
                    lines = sets[set_index]
                    entry = lines.get(block)
                    if entry is not None:
                        c[_C_HITS] += 1
                        if dirties:
                            entry[0] = True
                        entry[1] = False
                        entry[2] = stamp
                        continue
                    c[_C_MISSES] += 1
                    if around:
                        if not writethrough:
                            c[_C_WORDS_TO] += 1
                        continue
                    if len(lines) >= assoc:
                        evict(lines, c, set_index)
                    lines[block] = [dirties, False, stamp, stamp]
                    if fetches:
                        c[_C_WORDS_FROM] += line_words
                continue
            if event_type == EV_KILL_READ:
                for assoc, sets, c, evict in lanes:
                    lines = sets[set_index]
                    entry = lines.get(block)
                    if entry is None:
                        c[_C_MISSES] += 1
                        c[_C_KILLS] += 1
                        c[_C_WORDS_FROM] += 1
                        continue
                    c[_C_HITS] += 1
                    entry[2] = stamp
                    c[_C_KILLS] += 1
                    if kill_invalidates:
                        if entry[0]:
                            c[_C_DEAD_DROPS] += 1
                        del lines[block]
                        c[_C_DEAD_FREES] += 1
                    else:
                        entry[1] = True
                continue
            if event_type == EV_KILL_WRITE:
                for assoc, sets, c, evict in lanes:
                    lines = sets[set_index]
                    entry = lines.get(block)
                    if entry is not None:
                        c[_C_HITS] += 1
                        if not writethrough:
                            entry[0] = True
                        entry[2] = stamp
                    else:
                        c[_C_MISSES] += 1
                        if not allocate_on_write:
                            if not writethrough:
                                c[_C_WORDS_TO] += 1
                            continue
                        if len(lines) >= assoc:
                            evict(lines, c, set_index)
                        entry = [not writethrough, False, stamp, stamp]
                        lines[block] = entry
                        if line_words != 1:
                            c[_C_WORDS_FROM] += line_words
                    c[_C_KILLS] += 1
                    if kill_invalidates:
                        if entry[0]:
                            c[_C_DEAD_DROPS] += 1
                        del lines[block]
                        c[_C_DEAD_FREES] += 1
                    else:
                        entry[1] = True
                continue
            if event_type == EV_BYPASS_WRITE:
                for _assoc, sets, c, _evict in lanes:
                    lines = sets[set_index]
                    if block in lines:
                        c[_C_PROBE_HITS] += 1
                        del lines[block]
                continue
            # Bypass read, with or without a kill bit.
            is_kill = event_type == EV_BYPASS_READ_KILL
            for _assoc, sets, c, _evict in lanes:
                entry = sets[set_index].pop(block, None)
                if entry is not None:
                    c[_C_PROBE_HITS] += 1
                    c[_C_BYPASS_READ_HITS] += 1
                    if entry[0]:
                        if is_kill:
                            c[_C_DEAD_DROPS] += 1
                        else:
                            c[_C_WRITEBACKS] += 1
                            c[_C_WORDS_TO] += line_words
                else:
                    c[_C_WORDS_FROM] += 1
                    c[_C_BYPASS_READ_MEM] += 1
                if is_kill:
                    c[_C_KILLS] += 1

    return {
        assoc: _sweep_stats(stream, c, collapsed)
        for assoc, _sets, c, _evict in lanes
    }


def _stamp_evict(lines, counters, line_words, slot):
    """Pop the dead line with the smallest stamp, else the line with
    the smallest ``entry[slot]`` (``_LANE_STAMP`` for LRU,
    ``_LANE_INSERTED`` for FIFO), and account the eviction.  Stamps
    are unique, so the dict's order never decides."""
    victim_block = None
    dead_stamp = None
    oldest_block = None
    oldest = None
    for block, entry in lines.items():
        if entry[1] and (dead_stamp is None or entry[2] < dead_stamp):
            dead_stamp = entry[2]
            victim_block = block
        if oldest is None or entry[slot] < oldest:
            oldest = entry[slot]
            oldest_block = block
    if victim_block is None:
        victim_block = oldest_block
    victim = lines.pop(victim_block)
    counters[_C_EVICTIONS] += 1
    if victim[0]:
        counters[_C_WRITEBACKS] += 1
        counters[_C_WORDS_TO] += line_words


def _random_evict(lines, counters, line_words, seed, set_index, draws):
    """Pop the counter-RNG Random victim (dead-first) and account it.

    The residency dict's iteration order is its insertion order, which
    for lane entries equals ascending install stamp — the same ranking
    :class:`RandomPolicy` draws over in its own set dict, so the
    ``_mix64`` draw lands on the identical block.  The draw counter
    advances only when a draw actually happens (a dead line
    short-circuits it).
    """
    victim_block = None
    dead_stamp = None
    for block, entry in lines.items():
        if entry[1] and (dead_stamp is None or entry[2] < dead_stamp):
            dead_stamp = entry[2]
            victim_block = block
    if victim_block is None:
        draw = draws[set_index]
        draws[set_index] = draw + 1
        choice = _mix64(seed, set_index, draw) % len(lines)
        for position, block in enumerate(lines):
            if position == choice:
                victim_block = block
                break
    victim = lines.pop(victim_block)
    counters[_C_EVICTIONS] += 1
    if victim[0]:
        counters[_C_WRITEBACKS] += 1
        counters[_C_WORDS_TO] += line_words


def _min_evict(lines, counters, line_words):
    """Pop the MIN victim (dead-first, then farthest next use).

    Same ordering as :class:`MinPolicy` — dead beats live, then the
    larger next-use position, first strict winner on ties — written
    as scalar comparisons so the scan allocates nothing.
    """
    victim_block = None
    victim_dead = False
    victim_pos = -1.0
    for block, entry in lines.items():
        dead = entry[1]
        pos = entry[2]
        if dead:
            if not victim_dead or pos > victim_pos:
                victim_dead = True
                victim_pos = pos
                victim_block = block
        elif not victim_dead and pos > victim_pos:
            victim_pos = pos
            victim_block = block
    victim = lines.pop(victim_block)
    counters[_C_EVICTIONS] += 1
    if victim[0]:
        counters[_C_WRITEBACKS] += 1
        counters[_C_WORDS_TO] += line_words


# RRIP lane entry slots after the shared dirty/dead/stamp prefix.
_LANE_RRPV = 3
_LANE_SIG = 4
_LANE_OUTCOME = 5


def rrip_sweep(stream, num_sets, assocs, line_words, kill_mode,
               write_policy, allocate_on_write, policy, signatures=None,
               next_use=None):
    """Score every associativity of one RRIP-family group in one pass.

    ``policy`` is one of :data:`RRIP_POLICIES`.  SHiP and Hawkeye also
    read the trace's ``signatures`` (:func:`signature_column`), and
    Hawkeye its ``next_use`` index (:func:`next_use_index` for the
    flavor's line size and bypass honoring).  Each lane (one
    associativity) keeps per-set ``{block: entry}`` dicts and its own
    predictor state: the DRRIP PSEL and BRRIP throttles, the SHiP
    counters, the Hawkeye counters and shadow OPT sets.

    Dicts are exact because no RRIP-family victim choice reads way
    order.  A dead line goes first, smallest stamp among the dead; else
    the set ages to the RRPV frontier and the smallest stamp there
    goes.  Stamps are the event index of a line's last touch, so they
    are unique.

    Unlike :func:`_lane_sweep`, the walk replays every event: the run
    collapse is sound only when a follower's hit changes nothing, and
    here it does.  It promotes a just-installed line from its insertion
    RRPV to 0, and SHiP and Hawkeye train on every access.  It also
    walks in time order, not set-major: DRRIP's PSEL and the SHiP and
    Hawkeye counters are shared by every set, so the interleaving of
    the sets' events decides their values.  Returns
    ``{assoc: CacheStats}``.
    """
    if policy not in RRIP_POLICIES:
        raise ValueError("not an RRIP-family policy: {!r}".format(policy))
    ship = policy == "ship"
    hawkeye = policy == "hawkeye"
    if (ship or hawkeye) and signatures is None:
        raise ValueError("the {} policy needs a signature column".format(
            policy))
    if hawkeye:
        if next_use is None:
            raise ValueError("the hawkeye policy needs a next-use index")
        # Read once per event and lane: a list indexes faster.
        next_use = next_use.tolist()
    writethrough = write_policy == "writethrough"
    kill_invalidates = kill_mode == "invalidate" and line_words == 1
    roles = _duel_roles(num_sets) if policy == "drrip" else None
    bimodal = policy == "brrip"
    counts = stream.constants["counts"]
    # Only a demoting kill leaves a dead line behind.
    demotes = not kill_invalidates and bool(
        counts[EV_KILL_READ] + counts[EV_KILL_WRITE]
    )

    # A lane: (assoc, sets, counters, predictor counters, shadow sets,
    # per-set BRRIP throttle, [PSEL]).
    lanes = [
        (assoc, [{} for _ in range(num_sets)], [0] * _C_SLOTS, {},
         [{} for _ in range(num_sets)] if hawkeye else None,
         [0] * num_sets, [PSEL_INIT])
        for assoc in sorted(set(assocs))
    ]

    def miss(lane, lines, set_index, block, event_type, index):
        """A through-cache miss: serve around, write around, or install
        (evicting from a full set), then honor a kill."""
        assoc, _sets, c, table, shadows, throttle, psel = lane
        c[_C_MISSES] += 1
        is_write = event_type & 1  # the EV_*_WRITE codes are odd
        if is_write:
            if not allocate_on_write:
                if not writethrough:
                    c[_C_WORDS_TO] += 1
                return
            if line_words != 1:
                c[_C_WORDS_FROM] += line_words
        elif event_type == EV_KILL_READ:
            c[_C_KILLS] += 1
            c[_C_WORDS_FROM] += 1
            return
        else:
            c[_C_WORDS_FROM] += line_words
        if len(lines) >= assoc:
            victim = lines.pop(_rrip_victim(lines, demotes))
            c[_C_EVICTIONS] += 1
            if victim[0]:
                c[_C_WRITEBACKS] += 1
                c[_C_WORDS_TO] += line_words
            victim_sig = victim[_LANE_SIG]
            if ship and victim_sig is not None and not victim[_LANE_OUTCOME]:
                count = table.get(victim_sig, SHCT_INIT)
                if count > 0:
                    table[victim_sig] = count - 1
        sig = None
        if hawkeye:
            sig = signatures[index]
            _optgen(shadows[set_index], table, assoc, block, sig,
                    next_use[index])
            friendly = table.get(sig, HAWKEYE_INIT) >= HAWKEYE_INIT
            rrpv = 0 if friendly else RRPV_MAX
        elif ship:
            sig = signatures[index]
            rrpv = RRPV_MAX if table.get(sig, SHCT_INIT) == 0 else RRPV_LONG
        elif roles is not None:
            rrpv, psel[0] = _duel_insert(roles[set_index], psel[0],
                                         throttle, set_index)
        elif bimodal:
            rrpv = _bimodal_insert(throttle, set_index)
        else:
            rrpv = RRPV_LONG
        entry = [bool(is_write) and not writethrough, False, index, rrpv,
                 sig, False]
        lines[block] = entry
        if event_type == EV_KILL_WRITE:
            kill(c, lines, block, entry)

    def kill(c, lines, block, entry):
        """Retire a dead value after its final touch."""
        c[_C_KILLS] += 1
        if kill_invalidates:
            if entry[0]:
                c[_C_DEAD_DROPS] += 1
            del lines[block]
            c[_C_DEAD_FREES] += 1
        else:
            entry[1] = True
            entry[_LANE_RRPV] = RRPV_MAX
            entry[_LANE_SIG] = None

    for index, (block, event_type) in enumerate(
        zip(stream.blocks_np.tolist(), stream.types_np.tolist())
    ):
        set_index = block % num_sets
        if event_type <= EV_KILL_WRITE:
            for lane in lanes:
                lines = lane[1][set_index]
                entry = lines.get(block)
                if entry is None:
                    miss(lane, lines, set_index, block, event_type, index)
                    continue
                # A hit (counted at the end): stamp, promote to RRPV 0,
                # train the predictor.
                if event_type & 1 and not writethrough:
                    entry[0] = True
                entry[1] = False
                entry[2] = index
                entry[_LANE_RRPV] = 0
                if ship:
                    entry_sig = entry[_LANE_SIG]
                    if entry_sig is not None:
                        entry[_LANE_OUTCOME] = True
                        table = lane[3]
                        count = table.get(entry_sig, SHCT_INIT)
                        if count < SHCT_MAX:
                            table[entry_sig] = count + 1
                elif hawkeye:
                    _optgen(lane[4][set_index], lane[3], lane[0], block,
                            signatures[index], next_use[index])
                if event_type >= EV_KILL_READ:
                    kill(lane[2], lines, block, entry)
            continue
        if event_type == EV_BYPASS_WRITE:
            for lane in lanes:
                lines = lane[1][set_index]
                if block in lines:
                    lane[2][_C_PROBE_HITS] += 1
                    del lines[block]
            continue
        is_kill = event_type == EV_BYPASS_READ_KILL
        for lane in lanes:
            c = lane[2]
            entry = lane[1][set_index].pop(block, None)
            if entry is not None:
                c[_C_PROBE_HITS] += 1
                c[_C_BYPASS_READ_HITS] += 1
                if entry[0]:
                    if is_kill:
                        c[_C_DEAD_DROPS] += 1
                    else:
                        c[_C_WRITEBACKS] += 1
                        c[_C_WORDS_TO] += line_words
            else:
                c[_C_WORDS_FROM] += 1
                c[_C_BYPASS_READ_MEM] += 1
            if is_kill:
                c[_C_KILLS] += 1

    cached = stream.constants["refs_cached"]
    for lane in lanes:
        lane[2][_C_HITS] = cached - lane[2][_C_MISSES]
    return {lane[0]: _sweep_stats(stream, lane[2], 0) for lane in lanes}


def _rrip_victim(lines, demotes):
    """The block an RRIP-family lane evicts from a full set.

    :class:`_RRIPPolicy`'s order over a ``{block: entry}`` dict: the
    dead line with the smallest stamp (looked for only when
    ``demotes``: no other kill leaves a dead line); else the line with
    the highest RRPV, smallest stamp among ties, after every line ages
    by the distance from that RRPV to ``RRPV_MAX``.  Aging moves every
    line alike, so the frontier after aging is the highest RRPV before
    it.  Stamps are unique, so the dict's order never decides.
    """
    if demotes:
        dead_block = None
        dead_stamp = 0
        for block, entry in lines.items():
            if entry[1] and (dead_block is None or entry[2] < dead_stamp):
                dead_block = block
                dead_stamp = entry[2]
        if dead_block is not None:
            return dead_block
    victim = None
    top = -1
    stamp = 0
    for block, entry in lines.items():
        rrpv = entry[_LANE_RRPV]
        if rrpv > top or (rrpv == top and entry[2] < stamp):
            victim = block
            top = rrpv
            stamp = entry[2]
    bump = RRPV_MAX - top
    if bump:
        for entry in lines.values():
            entry[_LANE_RRPV] += bump
    return victim
