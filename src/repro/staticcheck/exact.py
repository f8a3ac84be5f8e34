"""The exact decision procedure: focused explicit-state cache
exploration.

For the residual references the must/may analysis left unknown and the
uncertainty filter (:mod:`repro.staticcheck.uncertainty`) routed here,
this module model-checks the (CFG location x concrete cache set)
product: it enumerates every reachable LRU stack of the one cache set
the focused reference maps to, walking the whole interprocedural CFG
with transfer rules that mirror the transfer functions of
:class:`repro.cache.semantics.UnifiedCache` case by case — a
through hit refreshes to MRU, a miss installs at MRU and evicts the
LRU block from a full set, a bypass takes the block out, an
invalidate-mode kill leaves the line invalid, and a killed write that
misses installs transiently (it can evict a victim) before retiring
itself.  Because the exploration and the simulator apply the same
per-event rules to the same concrete addresses, they cannot disagree
by construction; the dynamic cross-validation audits the resulting
``exact-hit``/``exact-miss`` verdicts anyway.

The state space is kept small three ways:

* one set at a time — references mapping elsewhere are no-ops, and
  whole functions that cannot affect the focused set (directly or via
  callees) are skipped;
* LRU stacks are bounded by the associativity over the set's concrete
  block alphabet;
* a hard budget on transfer-step applications.  Exhaustion raises
  :class:`~repro.errors.ResourceExhausted` tagged with the
  ``static-analysis`` stage; :func:`refine_analysis` catches it and
  degrades every undecided site to its must/may (or persistence)
  fallback instead of failing the analysis.

Interprocedural precision is context-sensitive in the set state: each
``(function, entry_stack)`` pair is tabulated to its reachable exit
stacks, with recursion handled by iterating the whole context table to
a fixpoint (exit sets only grow, so the iteration terminates).

The procedure *refuses* (and the sites keep their fallback verdicts)
when the program can install a block whose address is unknown at
compile time — a frame word or an ambiguous pointer target could land
in the focused set and corrupt the stack model — or when the
replacement policy is not true LRU.  Ambiguous *removals* (a bypassed
or killed pointer dereference) are handled exactly by branching over
every pointer-reachable resident block plus the no-op.
"""

from repro.errors import ResourceExhausted
from repro.ir.instructions import Call, Load, Store
from repro.staticcheck.mustmay import Classification
from repro.staticcheck.uncertainty import (
    ROUTE_EXPLORE,
    ROUTE_INPUT_DEPENDENT,
    ROUTE_PERSISTENT,
    compute_footprint,
    expand_location,
    route_residuals,
)

#: Default transfer-step budget for one whole refinement pass (all
#: focused sets together).  Overridable per call and from the CLI via
#: ``--exact-budget``.
DEFAULT_EXACT_BUDGET = 300_000


def _exhausted(used, limit):
    error = ResourceExhausted(
        "exact cache exploration exhausted its budget ({} transfer "
        "steps > {}); undecided sites keep their fallback "
        "verdicts".format(used, limit)
    )
    error.stage = "static-analysis"
    return error


class _Refused(Exception):
    """Internal: this set cannot be explored exactly (reason inside)."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class _Budget:
    """Shared step counter across every focused set of one pass."""

    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, count):
        self.used += count
        if self.used > self.limit:
            raise _exhausted(self.used, self.limit)


# ----------------------------------------------------------------------
# Module model: per-instruction operations, precomputed once.
# ----------------------------------------------------------------------

_OP_CALL = 0
_OP_REF = 1
_OP_POISON = 2


class _ModuleModel:
    """The program lowered to cache-relevant operations.

    Per function: ``blocks`` maps block name to the operation list,
    ``succs`` to successor names; exit blocks have no successors.
    Operations are tuples:

    * ``(_OP_CALL, callee_name)``
    * ``(_OP_REF, instr_id, words, bypass, kill, is_write, ambig)`` —
      ``words`` are the concrete candidate addresses; ``ambig`` marks
      an additional ambiguous-removal choice.
    * ``(_OP_POISON, reason)`` — an operation the model cannot express
      (unknown-address install, unknown callee); executing it refuses
      the whole set.
    """

    __slots__ = ("analysis", "functions", "reachable_words")

    def __init__(self, analysis, footprint):
        self.analysis = analysis
        self.reachable_words = footprint.addresses
        self.functions = {}
        module = analysis.module
        for name, function in module.functions.items():
            blocks = {}
            succs = {}
            for block in function.block_list():
                ops = []
                for instruction in block.instructions:
                    op = self._lower(module, function, instruction)
                    if op is not None:
                        ops.append(op)
                blocks[block.name] = ops
                succs[block.name] = [s.name for s in block.succs]
            self.functions[name] = (blocks, succs, function.entry_name)

    def _lower(self, module, function, instruction):
        cls = instruction.__class__
        if cls is Call:
            if instruction.callee not in module.functions:
                return (_OP_POISON,
                        "unknown callee {!r}".format(instruction.callee))
            return (_OP_CALL, instruction.callee)
        if cls is not Load and cls is not Store:
            return None
        analysis = self.analysis
        target = analysis._target(function, instruction)
        bypass, kill = analysis._effective(instruction.ref)
        is_write = cls is Store
        installs = not bypass and (is_write or not kill)
        words = []
        ambig = False
        for loc in target.candidates():
            expansion = expand_location(loc)
            if expansion is None:
                if installs:
                    # An unknown-address install could land in any set.
                    return (_OP_POISON,
                            "unmodeled install in {} ({})".format(
                                function.name,
                                instruction.ref.access_path))
                if loc[0] in ("f", "fa"):
                    # Frame blocks are never installed in an explorable
                    # module, so removing one is a no-op.
                    continue
                ambig = True  # AMBIG/STACK removal: branch at run time.
            else:
                words.extend(expansion)
        return (_OP_REF, id(instruction), tuple(sorted(set(words))),
                bypass, kill, is_write, ambig)


# ----------------------------------------------------------------------
# Per-set exploration.
# ----------------------------------------------------------------------


def _remove(state, word):
    return tuple(x for x in state if x != word)


class _SetExploration:
    """Tabulated exploration of one cache set."""

    __slots__ = ("model", "set_index", "num_sets", "assoc", "focus",
                 "ops", "succs", "entries", "budget", "outcomes",
                 "contexts")

    def __init__(self, model, set_index, focus, budget):
        config = model.analysis.config
        self.model = model
        self.set_index = set_index
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.focus = focus  # {instr_id: word}
        self.budget = budget
        self.outcomes = {key: set() for key in focus}
        self.contexts = {}
        self._specialize()

    def _specialize(self):
        """Keep only the operations that can affect this set, then
        prune calls to functions that (transitively) cannot."""
        set_index = self.set_index
        num_sets = self.num_sets
        kept = {}
        calls = {}
        affects = {}
        for name, (blocks, succs, _entry) in self.model.functions.items():
            out = {}
            fn_calls = set()
            fn_affects = False
            for block, ops in blocks.items():
                ops_out = []
                for op in ops:
                    kind = op[0]
                    if kind == _OP_CALL:
                        fn_calls.add(op[1])
                        ops_out.append(op)
                        continue
                    if kind == _OP_POISON:
                        fn_affects = True
                        ops_out.append(op)
                        continue
                    (_kind, instr_id, words, bypass, kill, is_write,
                     ambig) = op
                    in_set = tuple(
                        w for w in words if w % num_sets == set_index
                    )
                    outside = ambig or len(in_set) < len(words)
                    if not in_set and not ambig:
                        continue  # Cannot touch this set: no-op.
                    ops_out.append(
                        (_OP_REF, instr_id, in_set, bypass, kill,
                         is_write, ambig, outside)
                    )
                    fn_affects = True
                out[block] = ops_out
            kept[name] = out
            calls[name] = fn_calls
            affects[name] = fn_affects
        changed = True
        while changed:
            changed = False
            for name, callees in calls.items():
                if not affects[name] and any(
                    affects.get(c, False) for c in callees
                ):
                    affects[name] = True
                    changed = True
        self.ops = {}
        self.succs = {}
        self.entries = {}
        for name, (blocks, succs, entry) in self.model.functions.items():
            pruned = {
                block: [
                    op for op in ops
                    if op[0] != _OP_CALL or affects.get(op[1], False)
                ]
                for block, ops in kept[name].items()
            }
            self.ops[name] = pruned
            self.succs[name] = succs
            self.entries[name] = entry

    # -- transfer rules (mirror UnifiedCache's transfer functions) -----

    def _apply_ref(self, state, op):
        (_kind, instr_id, in_set, bypass, kill, is_write, ambig,
         outside) = op
        assoc = self.assoc
        results = set()
        if outside or not in_set:
            results.add(state)  # The choice lands in another set.
        for word in in_set:
            if bypass or (kill and not is_write):
                # Bypass takes/invalidates a resident copy; a killed
                # read misses around the cache.  Either way the block
                # is absent afterwards and nobody else moves.
                results.add(
                    _remove(state, word) if word in state else state
                )
            elif kill:  # killed write
                if word in state:
                    results.add(_remove(state, word))
                elif len(state) == assoc:
                    # Transient allocate evicts the LRU block, then
                    # the line is invalidated.
                    results.add(state[:-1])
                else:
                    results.add(state)
            else:  # through-cache load/store
                if word in state:
                    results.add((word,) + _remove(state, word))
                else:
                    installed = (word,) + state
                    results.add(installed[:assoc])
        if ambig:
            # The ambiguous removal may take out any pointer-reachable
            # resident block (the no-op branch is covered above).
            reachable = self.model.reachable_words
            for word in state:
                if reachable.get(word, False):
                    results.add(_remove(state, word))
        return results

    # -- the tabulation -----------------------------------------------

    def run(self):
        entry = self.model.analysis.entry
        if entry not in self.ops:
            raise _Refused("entry function {!r} missing".format(entry))
        self.contexts[(entry, ())] = set()
        changed = True
        while changed:
            changed = False
            for ctx in sorted(self.contexts):
                exits, grew = self._run_context(ctx)
                if grew or exits - self.contexts[ctx]:
                    self.contexts[ctx] |= exits
                    changed = True
        return self.outcomes

    def _run_context(self, ctx):
        name, entry_state = ctx
        ops = self.ops[name]
        succs = self.succs[name]
        focus = self.focus
        outcomes = self.outcomes
        contexts = self.contexts
        budget = self.budget
        exits = set()
        grew = False
        seen = {(self.entries[name], entry_state)}
        work = [(self.entries[name], entry_state)]
        while work:
            block, state = work.pop()
            states = {state}
            for op in ops[block]:
                budget.spend(len(states))
                kind = op[0]
                if kind == _OP_CALL:
                    merged = set()
                    for st in states:
                        callee_ctx = (op[1], st)
                        known = contexts.get(callee_ctx)
                        if known is None:
                            contexts[callee_ctx] = set()
                            grew = True
                        else:
                            merged |= known
                    states = merged
                    if not states:
                        break  # No callee exit known yet: truncate.
                elif kind == _OP_POISON:
                    raise _Refused(op[1])
                else:
                    key = op[1]
                    if key in focus:
                        word = focus[key]
                        for st in states:
                            outcomes[key].add(word in st)
                    merged = set()
                    for st in states:
                        merged |= self._apply_ref(st, op)
                    states = merged
            if not states:
                continue
            block_succs = succs[block]
            if not block_succs:
                exits |= states
                continue
            for succ in block_succs:
                for st in states:
                    if (succ, st) not in seen:
                        seen.add((succ, st))
                        work.append((succ, st))
        return exits, grew


# ----------------------------------------------------------------------
# The refinement orchestrator.
# ----------------------------------------------------------------------


class RefinementReport:
    """What one exact refinement pass did, for tables and telemetry."""

    __slots__ = (
        "footprint", "budget", "steps_used", "exhausted",
        "persistent_sites", "input_dependent_sites", "exact_hit_sites",
        "exact_miss_sites", "explored_sites", "refused_sites",
        "refusal_reasons", "residual_unknown",
    )

    def __init__(self, footprint, budget):
        self.footprint = footprint
        self.budget = budget
        self.steps_used = 0
        self.exhausted = False
        self.persistent_sites = 0
        self.input_dependent_sites = 0
        self.exact_hit_sites = 0
        self.exact_miss_sites = 0
        self.explored_sites = 0
        self.refused_sites = 0
        self.refusal_reasons = []
        self.residual_unknown = 0

    def describe(self):
        parts = [
            "{} persistent".format(self.persistent_sites),
            "{} exact-hit".format(self.exact_hit_sites),
            "{} exact-miss".format(self.exact_miss_sites),
            "{} input-dependent".format(self.input_dependent_sites),
            "{} residual unknown".format(self.residual_unknown),
            "{} steps".format(self.steps_used),
        ]
        if self.exhausted:
            parts.append("budget exhausted")
        return ", ".join(parts)


def _fallback(route, report):
    """The verdict for an explore candidate the exploration could not
    decide: the persistence certificate when available, else the
    original must/may unknown."""
    if route.certified:
        report.persistent_sites += 1
        return Classification.EXACT_PERSISTENT
    report.residual_unknown += 1
    return Classification.UNKNOWN


def refine_analysis(analysis, budget=None):
    """Run the full refinement pass over ``analysis`` in place.

    Routes every residual unknown through the uncertainty filter,
    explores the survivors set by set, rewrites the affected sites'
    classifications, rebuilds ``analysis.predictions``, and returns a
    :class:`RefinementReport`.  Never raises for budget exhaustion —
    undecided sites simply keep their fallback verdicts.
    """
    if budget is None:
        budget = DEFAULT_EXACT_BUDGET
    footprint = compute_footprint(analysis)
    report = RefinementReport(footprint, budget)
    unknown = [
        site for site in analysis.sites
        if site.classification is Classification.UNKNOWN
    ]
    routes = route_residuals(analysis, footprint, unknown)
    explore_routes = []
    for route in routes:
        if route.kind == ROUTE_PERSISTENT:
            route.site.classification = Classification.EXACT_PERSISTENT
            report.persistent_sites += 1
        elif route.kind == ROUTE_INPUT_DEPENDENT:
            route.site.classification = Classification.INPUT_DEPENDENT
            report.input_dependent_sites += 1
        elif route.kind == ROUTE_EXPLORE:
            explore_routes.append(route)
        else:
            report.residual_unknown += 1

    if explore_routes:
        _explore(analysis, footprint, explore_routes, budget, report)

    analysis.predictions = {
        id(site.ref): site.classification for site in analysis.sites
    }
    return report


def _explore(analysis, footprint, routes, budget, report):
    if analysis.config.policy != "lru":
        report.refusal_reasons.append("non-LRU replacement")
        for route in routes:
            report.refused_sites += 1
            route.site.classification = _fallback(route, report)
        return
    model = _ModuleModel(analysis, footprint)
    tracker = _Budget(budget)
    by_set = {}
    for route in routes:
        by_set.setdefault(route.word % analysis.config.num_sets,
                          []).append(route)
    undecided = list(routes)
    try:
        for set_index in sorted(by_set):
            group = by_set[set_index]
            focus = {
                id(route.site.instruction): route.word for route in group
            }
            try:
                exploration = _SetExploration(
                    model, set_index, focus, tracker
                )
                outcomes = exploration.run()
            except _Refused as refusal:
                if refusal.reason not in report.refusal_reasons:
                    report.refusal_reasons.append(refusal.reason)
                for route in group:
                    report.refused_sites += 1
                    route.site.classification = _fallback(route, report)
                    undecided.remove(route)
                continue
            for route in group:
                report.explored_sites += 1
                seen = outcomes[id(route.site.instruction)]
                if seen == {True}:
                    route.site.classification = Classification.EXACT_HIT
                    report.exact_hit_sites += 1
                elif seen == {False}:
                    route.site.classification = Classification.EXACT_MISS
                    report.exact_miss_sites += 1
                elif seen:
                    # Both outcomes over the collecting semantics.  A
                    # certified set still yields the per-event-exact
                    # persistence verdict; otherwise the outcome turns
                    # on which paths the input drives.
                    if route.certified:
                        route.site.classification = (
                            Classification.EXACT_PERSISTENT
                        )
                        report.persistent_sites += 1
                    else:
                        route.site.classification = (
                            Classification.INPUT_DEPENDENT
                        )
                        report.input_dependent_sites += 1
                else:
                    # Never reached on any terminating path: dead code
                    # as far as the audit is concerned.
                    route.site.classification = Classification.UNKNOWN
                    report.residual_unknown += 1
                undecided.remove(route)
    except ResourceExhausted:
        report.exhausted = True
        for route in undecided:
            route.site.classification = _fallback(route, report)
    report.steps_used = tracker.used
