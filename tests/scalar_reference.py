"""Pure-Python references for the NumPy kernels, used only by tests.

The production run collapse
(:func:`repro.cache.semantics.collapse_runs_sorted`),
the RPTRACE2 delta codec (:mod:`repro.vm.trace`) and the multi-core
private levels (:func:`repro.cache.multicore.simulate_multicore`) run
on NumPy arrays.  These are the plain loops they replaced: tests
require the kernels to agree with them exactly, bit for bit.  The
module also builds legacy RPTRACE1 payloads, which the library still
reads but no longer writes.

:class:`ScalarCache` is :class:`~repro.cache.semantics.UnifiedCache`
as it was before each flavor got its own bound transfer function: one
``access`` body that re-tests the honor flags, the write policy, data
mode and the flavor on every event and bumps every counter itself.
The bound functions must agree with it event for event, and every
oracle here drives it, never the cache under test:
:func:`replay_trace_py` and :func:`replay_combined_py` are the
reference replay and E10's combined replay over it.

:class:`ProbingValidatingMemory` is the cross-validator as it was
before :func:`repro.staticcheck.crossval.site_plan`: per event it
dispatches on the verdict, calls ``ScalarCache.probe`` for presence,
then makes the access.  The planned
:class:`~repro.staticcheck.crossval.ValidatingMemory`, which reads
presence off the cache's ``resident`` map and calls its site's bound
transfer functions, must audit exactly as it does.  It
implements only ``read``/``write``, so the VM drives it through the
default :meth:`~repro.vm.memory.MemorySystem.bind_site`.

:func:`color_graph_rescan` is the graph colourer as it was before
:func:`repro.regalloc.chaitin.color_graph` kept its degrees: every
pick rescans the nodes from the smallest id and recounts each
candidate's degree.  Both must pick, assign and spill identically.
"""

import struct
from array import array
from dataclasses import replace
from types import SimpleNamespace

from repro.cache.hierarchy import HierarchyError
from repro.cache.multicore import (
    MulticoreResult,
    PartitionedLRUPolicy,
    interleave_traces,
)
from repro.cache.replay import policy_for_trace
from repro.cache.semantics import (
    ENTRY_DEAD,
    ENTRY_DIRTY,
    ENTRY_VALUE,
    EV_PLAIN_WRITE,
    make_policy,
)
from repro.cache.stats import CacheStats
from repro.evalharness.unifiedcache import SplitStats
from repro.ir.instructions import PReg
from repro.regalloc.chaitin import ColoringResult, _preferred_color
from repro.staticcheck.crossval import Mismatch
from repro.staticcheck.mustmay import TIER_OF, TIERS, Classification
from repro.vm.memory import FlatMemory, MemorySystem
from repro.vm.trace import (
    FLAG_BYPASS,
    FLAG_INSTRUCTION,
    FLAG_KILL,
    FLAG_WRITE,
    IS_BYPASS,
    IS_KILL,
    IS_WRITE,
    TRACE_FORMAT_VERSION_V1,
    TRACE_MAGIC_V1,
)

#: 64-bit wrap mask: the codec works in uint64 arithmetic, so the
#: loops agree with the NumPy kernels on address extremes.
_U64 = (1 << 64) - 1


def rptrace1_bytes(addresses, flags):
    """An RPTRACE1 payload: header, little-endian int64 addresses,
    then one flag byte per event."""
    count = len(addresses)
    return (
        struct.pack("<8sIQ", TRACE_MAGIC_V1, TRACE_FORMAT_VERSION_V1, count)
        + struct.pack("<{}q".format(count), *addresses)
        + bytes(flags)
    )


def collapse_runs_py(blocks, types, num_sets):
    """Loop reference for :func:`repro.cache.semantics.collapse_runs_sorted`.

    Walks in time order and tracks each set's current run head by
    position, so follower writes dirty the right head even when other
    sets' events interleave.  Returns the heads' event indices in time
    order (``indices``), ``run_writes``, each run's ``last_indices``
    and the follower counts.
    """
    last_block = {}
    last_plain = {}
    head_pos = {}
    indices = []
    run_writes = []
    last_indices = []
    follower_reads = 0
    follower_writes = 0
    for i, block in enumerate(blocks):
        t = types[i]
        s = block % num_sets
        plain = t <= EV_PLAIN_WRITE
        if (
            plain
            and last_plain.get(s, False)
            and last_block.get(s) == block
        ):
            pos = head_pos[s]
            last_indices[pos] = i
            if t == EV_PLAIN_WRITE:
                run_writes[pos] = True
                follower_writes += 1
            else:
                follower_reads += 1
        else:
            if plain:
                head_pos[s] = len(indices)
            indices.append(i)
            run_writes.append(False)
            last_indices.append(i)
        last_block[s] = block
        last_plain[s] = plain
    return SimpleNamespace(
        indices=indices,
        run_writes=run_writes,
        last_indices=last_indices,
        follower_reads=follower_reads,
        follower_writes=follower_writes,
        collapsed=follower_reads + follower_writes,
    )


def encode_deltas_py(addresses):
    """Loop reference for :func:`repro.vm.trace._encode_deltas`."""
    out = bytearray()
    previous = 0
    for address in addresses:
        delta = (address - previous) & _U64
        previous = address
        if delta >= 1 << 63:
            delta -= 1 << 64
        zig = ((delta << 1) ^ (delta >> 63)) & _U64
        while zig > 0x7F:
            out.append(0x80 | (zig & 0x7F))
            zig >>= 7
        out.append(zig)
    return bytes(out)


def decode_deltas_py(payload, count):
    """Loop reference for :func:`repro.vm.trace._decode_deltas`."""
    out = array("q")
    position = 0
    previous = 0
    data = bytes(payload)
    for _ in range(count):
        zig = 0
        shift = 0
        while True:
            if position >= len(data) or shift > 63:
                raise ValueError(
                    "corrupt trace: varint stream does not hold the "
                    "promised event count"
                )
            byte = data[position]
            position += 1
            zig |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        zig &= _U64
        delta = (zig >> 1) ^ -(zig & 1)
        previous = (previous + delta) & _U64
        value = previous
        if value >= 1 << 63:
            value -= 1 << 64
        out.append(value)
    if position != len(data):
        raise ValueError("corrupt trace: trailing bytes after the "
                         "varint stream")
    return out


class ScalarCache:
    """The per-event reference for
    :class:`~repro.cache.semantics.UnifiedCache`.

    Its ``access`` is the body the seven bound transfer functions
    replaced, and ``stats`` is a plain :class:`CacheStats` it bumps on
    every event.  The replacement policies are the production ones.
    """

    def __init__(self, config, policy=None, data=False):
        self.config = config
        self.stats = CacheStats()
        if policy is None:
            policy = make_policy(config)
        policy.reset(config)
        self.policy = policy
        self._resident = policy.resident
        self._clock = 0
        self._line_words = config.line_words
        self._num_sets = config.num_sets
        self._honor_bypass = config.honor_bypass
        self._honor_kill = config.honor_kill
        self._writethrough = config.write_policy == "writethrough"
        self._allocate_on_write = config.allocate_on_write
        self._kill_invalidates = (
            config.kill_mode == "invalidate" and config.line_words == 1
        )
        if data and config.line_words != 1:
            raise ValueError("data-carrying caches require line_words=1")
        self.main = {} if data else None
        self.value = None

    def access(self, address, is_write, bypass=False, kill=False,
               value=None, index=None):
        """Apply one reference; returns ``"hit"``/``"miss"``/``"bypass"``."""
        stats = self.stats
        stats.refs_total += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if bypass and not self._honor_bypass:
            bypass = False
        if kill and not self._honor_kill:
            kill = False
        self._clock += 1
        line_words = self._line_words
        block = address // line_words
        set_index = block % self._num_sets
        policy = self.policy
        entry = self._resident.get(block)
        main = self.main

        if bypass:
            stats.refs_bypassed += 1
            if is_write:
                stats.words_to_memory += 1
                stats.bypass_writes += 1
                if main is not None:
                    main[address] = value
                if entry is not None:
                    stats.probe_hits += 1
                    policy.invalidate(set_index, block, entry)
                return "bypass"
            if entry is not None:
                stats.probe_hits += 1
                stats.bypass_read_hits += 1
                if main is not None:
                    self.value = entry[ENTRY_VALUE]
                if entry[ENTRY_DIRTY]:
                    if kill:
                        stats.dead_drops += 1
                    else:
                        stats.writebacks += 1
                        stats.words_to_memory += line_words
                        if main is not None:
                            main[address] = entry[ENTRY_VALUE]
                if kill:
                    stats.kills += 1
                policy.invalidate(set_index, block, entry)
                return "bypass"
            stats.words_from_memory += 1
            stats.bypass_reads_from_memory += 1
            if kill:
                stats.kills += 1
            if main is not None:
                self.value = main.get(address, 0)
            return "bypass"

        stats.refs_cached += 1
        writethrough = self._writethrough
        if is_write and writethrough:
            stats.words_to_memory += 1
            if main is not None:
                main[address] = value

        if entry is not None:
            stats.hits += 1
            if is_write:
                if not writethrough:
                    entry[ENTRY_DIRTY] = True
                if main is not None:
                    entry[ENTRY_VALUE] = value
            elif main is not None:
                self.value = entry[ENTRY_VALUE]
            policy.touch(entry, self._clock, index)
            entry[ENTRY_DEAD] = False
            if kill:
                self._kill(set_index, block, entry)
            return "hit"

        stats.misses += 1
        if kill and not is_write:
            stats.kills += 1
            stats.words_from_memory += 1
            if main is not None:
                self.value = main.get(address, 0)
            return "miss"
        if is_write and not self._allocate_on_write:
            if not writethrough:
                stats.words_to_memory += 1
                if main is not None:
                    main[address] = value
            return "miss"

        if not policy.room(set_index):
            victim_block, victim = policy.evict(set_index)
            stats.evictions += 1
            if victim[ENTRY_DIRTY]:
                stats.writebacks += 1
                stats.words_to_memory += line_words
                if main is not None:
                    main[victim_block] = victim[ENTRY_VALUE]
        entry = policy.install(set_index, block, self._clock, index)
        if is_write:
            if not writethrough:
                entry[ENTRY_DIRTY] = True
            if main is not None:
                entry[ENTRY_VALUE] = value
        elif main is not None:
            entry[ENTRY_VALUE] = main.get(address, 0)
            self.value = entry[ENTRY_VALUE]
        if not (is_write and line_words == 1):
            stats.words_from_memory += line_words
        if kill:
            self._kill(set_index, block, entry)
        return "miss"

    def _kill(self, set_index, block, entry):
        stats = self.stats
        stats.kills += 1
        if self._kill_invalidates:
            if entry[ENTRY_DIRTY]:
                stats.dead_drops += 1
            self.policy.invalidate(set_index, block, entry)
            stats.dead_line_frees += 1
        else:
            entry[ENTRY_DEAD] = True
            self.policy.demote(entry)

    def probe(self, address):
        return address // self._line_words in self._resident

    def contents(self):
        return {
            block: entry[ENTRY_DIRTY]
            for block, entry in self.policy.entries()
        }


def free_dead_py(cache, address):
    """Per-event reference for
    :meth:`~repro.cache.semantics.UnifiedCache.free_dead`: retire a
    stale copy of ``address`` in a :class:`ScalarCache`, writing its
    statistics in place.  Returns whether a line was resident."""
    block = address // cache.config.line_words
    entry = cache.policy.resident.get(block)
    if entry is None:
        return False
    if entry[ENTRY_DIRTY]:
        cache.stats.dead_drops += 1
    cache.policy.invalidate(block % cache.config.num_sets, block, entry)
    cache.stats.dead_line_frees += 1
    return True


def replay_trace_py(trace, config):
    """Per-event reference for :func:`repro.cache.replay.replay_trace`:
    the trace through :class:`ScalarCache`, the flags decoded per
    event.  Returns the stats and the per-event outcomes."""
    cache = ScalarCache(config, policy=policy_for_trace(trace, config))
    outcomes = [
        cache.access(address, IS_WRITE[flags], IS_BYPASS[flags],
                     IS_KILL[flags], index=index)
        for index, (address, flags) in enumerate(trace)
    ]
    return cache.stats, outcomes


def replay_combined_py(trace, config, honor_annotations=True):
    """Per-event reference for
    :func:`repro.evalharness.unifiedcache.replay_combined`: the
    conventional baseline passes the annotations as cleared bits to a
    cache that honors them."""
    cache = ScalarCache(config)
    split = SplitStats()
    for address, flags in trace:
        if flags & FLAG_INSTRUCTION:
            split.i_refs += 1
            if cache.access(address, False) == "hit":
                split.i_hits += 1
            continue
        split.d_refs += 1
        outcome = cache.access(
            address, IS_WRITE[flags],
            honor_annotations and IS_BYPASS[flags],
            honor_annotations and IS_KILL[flags],
        )
        if outcome == "hit":
            split.d_hits += 1
        elif outcome == "bypass":
            split.d_bypassed += 1
    return split, cache.stats


def simulate_multicore_py(traces, l1_config, shared_config, quotas=None,
                          shared_kill=False, seed=0, chunk=8, names=None,
                          merged=None):
    """Per-event reference for
    :func:`repro.cache.multicore.simulate_multicore`.

    Walks the merged stream once, driving each core's private
    :class:`ScalarCache` and, for every reference the private level
    does not serve as a hit, the shared level — the loop the
    production code replaced with one private-level outcome per core.
    It frees a stale shared copy with :func:`free_dead_py`, where the
    production code asks the cache's ``free_dead``.
    """
    cores = len(traces)
    if merged is None:
        merged = interleave_traces(traces, seed=seed, chunk=chunk)
    if names is None:
        names = ["core{}".format(index) for index in range(cores)]
    l1s = [ScalarCache(l1_config) for _ in range(cores)]
    shared_effective = replace(
        shared_config,
        honor_bypass=False,
        honor_kill=bool(shared_kill and shared_config.honor_kill),
    )
    policy = None
    if quotas is not None:
        if len(quotas) != cores:
            raise HierarchyError("need one way quota per core")
        policy = PartitionedLRUPolicy(quotas)
        shared = ScalarCache(replace(shared_effective, policy="lru"),
                             policy=policy)
    else:
        shared = ScalarCache(shared_effective)

    line_words = shared_effective.line_words
    num_sets = shared_effective.num_sets
    max_block = merged.max_address // line_words
    stride_blocks = -(-(max_block + 1) // num_sets) * num_sets
    stride_words = stride_blocks * line_words

    probe_kills = bool(shared_kill and l1_config.honor_kill)
    kill_probes = 0
    shared_refs = [0] * cores
    shared_hits = [0] * cores
    for core, address, flags in merged:
        is_write = bool(flags & FLAG_WRITE)
        bypass = bool(flags & FLAG_BYPASS)
        kill = bool(flags & FLAG_KILL)
        outcome = l1s[core].access(address, is_write, bypass, kill)
        shifted = address + core * stride_words
        if outcome == "hit":
            if kill and probe_kills and free_dead_py(shared, shifted):
                kill_probes += 1
            continue
        if policy is not None:
            policy.core = core
        shared_refs[core] += 1
        if shared.access(shifted, is_write, bypass, kill) == "hit":
            shared_hits[core] += 1
    return MulticoreResult(
        names=tuple(names),
        l1_stats=[cache.stats for cache in l1s],
        shared_stats=shared.stats,
        shared_refs=shared_refs,
        shared_hits=shared_hits,
        quotas=tuple(quotas) if quotas is not None else None,
        events=len(merged),
        kill_probes=kill_probes,
        seed=merged.seed,
        chunk=merged.chunk,
    )


class ProbingValidatingMemory(MemorySystem):
    """Flat memory + online cache that audits static claims in-line."""

    def __init__(self, analysis, flat=None, max_mismatches=25):
        self.analysis = analysis
        # The audit drives the scalar cache: probe() and access()
        # answer from the per-event body the bound transfer functions
        # are held to.
        self.cache = ScalarCache(analysis.config)
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


def color_graph_rescan(graph, machine):
    """The colourer that recounts degrees on every pick."""
    num_colors = machine.num_regs
    nodes = graph.vreg_nodes()
    remaining = set(nodes)

    # Degrees count both uncolored vregs still in the graph and
    # precolored physical registers (which never leave).
    def current_degree(node):
        degree = 0
        for neighbor in graph.neighbors(node):
            if isinstance(neighbor, PReg) or neighbor in remaining:
                degree += 1
        return degree

    stack = []
    ordered = sorted(nodes, key=lambda node: node.id)
    while remaining:
        candidate = None
        for node in ordered:
            if node in remaining and current_degree(node) < num_colors:
                candidate = node
                break
        if candidate is None:
            candidate = _pick_spill_candidate_rescan(
                graph, remaining, current_degree
            )
        stack.append(candidate)
        remaining.discard(candidate)

    assignment = {}
    spilled = []
    while stack:
        node = stack.pop()
        forbidden = set()
        for neighbor in graph.neighbors(node):
            if isinstance(neighbor, PReg):
                forbidden.add(neighbor.index)
            elif neighbor in assignment:
                forbidden.add(assignment[neighbor])
        color = _preferred_color(graph, node, assignment, forbidden, num_colors)
        if color is None:
            spilled.append(node)
        else:
            assignment[node] = color
    return ColoringResult(assignment, spilled)


def _pick_spill_candidate_rescan(graph, remaining, current_degree):
    best = None
    best_metric = None
    for node in sorted(remaining, key=lambda node: node.id):
        if node in graph.no_spill:
            continue
        degree = max(current_degree(node), 1)
        metric = graph.costs.get(node, 1) / degree
        if best_metric is None or metric < best_metric:
            best = node
            best_metric = metric
    if best is None:
        best = min(
            remaining, key=lambda node: (graph.costs.get(node, 1), node.id)
        )
    return best
