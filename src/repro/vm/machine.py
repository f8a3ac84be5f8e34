"""The register-machine interpreter.

Executes fully allocated IR: sixteen physical registers, a word-
addressed memory, a downward-growing stack of frames.  Every data
memory access goes through the pluggable memory system, which is how
traces and cache models observe the reference stream with the paper's
bypass/kill annotations attached.  Those annotations belong to the
static Load/Store site (its :class:`RefInfo`), so the machine hands
them over when it builds its handlers, not per event: each
per-instruction Load/Store handler asks the memory system's
:meth:`~repro.vm.memory.MemorySystem.bind_site` for its site's pair,
and each event calls ``read_at(address)`` or
``write_at(address, value)``.  The fused bodies bind the same way,
except under exact-type :class:`RecordingMemory`, whose trace append
(the flag byte encoded at construction) and word access they inline.

The hot loop is **closure-compiled**: at construction time every
instruction is translated into a zero-argument handler closure with
its operand kinds, arithmetic op, frame offsets, jump targets and
bound memory site resolved once, instead of being re-dispatched on
every step.  The interpreter loop is then just
``index = handlers[index]()`` plus the fuel check; each handler
returns the global index of its successor.  Handlers bind the memory
system at construction — build the :class:`Machine` after the memory
it should run against, and after the last change to a reference's
bypass/kill bits, and do not swap ``vm.memory`` afterwards.  They
share the frame pointer and call stack through a small
:class:`_Frame`, never the machine itself, so a dropped machine frees
its memory system and trace at once.

On top of the per-instruction handlers the compiler builds
**superinstructions**: each maximal straight-line run of BinOp/Move/
UnOp/AddrOfSym and Load/Store ops (optionally closing with the block's
Jump/CJump/Ret or a known Call) is code-generated into a single
zero-argument handler, so one dispatch retires the whole run.  A
Load/Store applies its per-instruction handler's effects in order: the
wild-address check, then the call to its site's bound
``read_at``/``write_at`` or, under the recording binding
(``_memory_plan``), that pair's trace append and word read or write,
inlined.  The generated bodies inline register indices, constants,
frame offsets and flag bytes as literals; the memory callables, each
memory op's instruction and each site's bound callable are factory
arguments, so bodies are cached module-wide by source text and
structurally repeated runs share one code object.

Fuel is charged a run's full length before it executes.  When a run
would overrun the budget, the loop hands its index to the
per-instruction table instead, which stops at exactly ``budget + 1``
steps after making every trace event, word write and audit the
reference interpreter makes.  The fused table is bypassed whenever an
``instruction_sink`` is attached so fetch traces still see every
instruction.  ``ReferenceMachine`` opts out entirely via
``_enable_fusion`` and remains the oracle the fused interpreter is
differentially tested against.
"""

from dataclasses import dataclass, field

from repro.lang.errors import ResourceExhausted, VMError
from repro.ir.function import GLOBAL_BASE
from repro.ir.instructions import (
    MACHINE,
    AddrOfSym,
    BinOp,
    Call,
    CJump,
    Jump,
    Load,
    Move,
    PReg,
    Print,
    Ret,
    Store,
    SymMem,
    UnOp,
)
from repro.vm.memory import FlatMemory, RecordingMemory
from repro.vm.trace import encode_flags

#: Default top-of-stack word address (stack grows downward from here).
DEFAULT_STACK_BASE = 1 << 22

#: Base address of the text segment (instruction fetches in combined
#: I+D traces).  Above the stack, so code and data never collide.
TEXT_BASE = 1 << 23

#: Default execution budget; generous enough for paper-scale workloads.
#: Read at Machine construction time, so tools (the CLIs' --max-steps
#: flag, the fuzz driver) can tighten it process-wide via
#: :func:`set_default_max_steps`.
DEFAULT_MAX_STEPS = 2_000_000_000

#: Maximum call-stack depth before the VM refuses to recurse further.
MAX_CALL_DEPTH = 100_000


def set_default_max_steps(max_steps):
    """Set the process-wide default VM fuel budget (None keeps it)."""
    global DEFAULT_MAX_STEPS
    if max_steps is not None:
        DEFAULT_MAX_STEPS = max_steps
    return DEFAULT_MAX_STEPS


def _c_div(a, b):
    """C-style integer division: truncation toward zero."""
    if b == 0:
        raise VMError("division by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def _c_mod(a, b):
    return a - _c_div(a, b) * b


_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _c_div,
    "mod": _c_mod,
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
}


#: Expression templates for the superinstruction code generator — the
#: arithmetic inlined as operators instead of ``_BINOPS`` calls.
_FUSE_OPS = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "div": "_c_div({}, {})",
    "mod": "_c_mod({}, {})",
    "eq": "(1 if {} == {} else 0)",
    "ne": "(1 if {} != {} else 0)",
    "lt": "(1 if {} < {} else 0)",
    "le": "(1 if {} <= {} else 0)",
    "gt": "(1 if {} > {} else 0)",
    "ge": "(1 if {} >= {} else 0)",
}

#: Names the generated bodies may reference beyond their factory
#: arguments.  (_Halt / the error types serve the fused Ret and Call
#: closers and the wild-address check; _Halt is injected below its
#: definition.)
_FUSE_GLOBALS = {
    "_c_div": _c_div,
    "_c_mod": _c_mod,
    "VMError": VMError,
    "ResourceExhausted": ResourceExhausted,
}

#: Source text -> ``_make`` factory.  Fused bodies inline only small
#: literals, so structurally repeated runs (unrolled loops, generated
#: programs) hit this cache instead of re-exec'ing.
_FUSED_CODE_CACHE = {}
_FUSED_CODE_CACHE_LIMIT = 4096

#: Upper bound on instructions retired by one superinstruction —
#: keeps jump-threaded bodies (and their up-front fuel charge) small.
_FUSE_RUN_LIMIT = 32


#: Per memory binding of the fused bodies (:meth:`Machine._memory_plan`):
#: the names its callables take, in order, in their factories.  The
#: site binding has no memory-wide callables: each site's own pair is a
#: factory argument.
_MEMORY_NAMES = {
    "recording": ("aa", "fa", "addrs", "lim", "append", "get", "words"),
    "site": (),
}


def _fusable(ins, offsets):
    """Can ``ins`` join a superinstruction run?

    Register ops (plus a frame-pointer read for local AddrOfSym) and
    Load/Store whose address is a known frame or global symbol or a
    register: no output, no control transfer, and no construction-time
    surprises — unknown BinOps and unknown frame symbols keep their
    individual handlers so they fail exactly as before.  A memory op's
    run-time faults (a wild address, the trace cap) raise from inside
    the run at that op, after the ops before it, as they would from
    its own handler.
    """
    cls = ins.__class__
    if cls is BinOp:
        return ins.op in _FUSE_OPS
    if cls is Move or cls is UnOp:
        return True
    if cls is AddrOfSym:
        symbol = ins.symbol
        return symbol.global_address is not None or symbol in offsets
    if cls is Load or cls is Store:
        mem = ins.mem
        if mem.__class__ is SymMem:
            symbol = mem.symbol
            return symbol.global_address is not None or symbol in offsets
        return mem.addr.__class__ is PReg
    return False


def _fuse_operand(operand):
    return (
        "r[%d]" % operand.index if operand.__class__ is PReg
        else repr(operand.value)
    )


def _fuse_stmt(ins, offsets):
    """One fusable instruction -> one generated statement."""
    cls = ins.__class__
    if cls is BinOp:
        a = _fuse_operand(ins.left)
        b = _fuse_operand(ins.right)
        return "r[%d] = %s" % (ins.dest.index, _FUSE_OPS[ins.op].format(a, b))
    if cls is Move:
        return "r[%d] = %s" % (ins.dest.index, _fuse_operand(ins.src))
    if cls is UnOp:
        operand = ins.operand
        if operand.__class__ is PReg:
            if ins.op == "neg":
                return "r[%d] = -r[%d]" % (ins.dest.index, operand.index)
            return (
                "r[%d] = 1 if r[%d] == 0 else 0"
                % (ins.dest.index, operand.index)
            )
        value = (
            -operand.value if ins.op == "neg"
            else (1 if operand.value == 0 else 0)
        )
        return "r[%d] = %s" % (ins.dest.index, repr(value))
    symbol = ins.symbol
    if symbol.global_address is not None:
        return "r[%d] = %d" % (ins.dest.index, symbol.global_address)
    return "r[%d] = f.fp + %s" % (ins.dest.index, repr(offsets[symbol]))


def _fuse_address(ins, offsets, hi, site):
    """``(statements, expression)`` for a memory op's word address.

    A register address gets the wild-address check, with the message
    its per-instruction handler raises.
    """
    mem = ins.mem
    if mem.__class__ is SymMem:
        symbol = mem.symbol
        if symbol.global_address is not None:
            return [], "%d" % symbol.global_address
        return ["a = f.fp + %r" % offsets[symbol]], "a"
    return [
        "a = r[%d]" % mem.addr.index,
        "if a < %d or a >= %d:" % (GLOBAL_BASE, hi),
        "    raise VMError('wild memory access at address {} by {!r}'"
        ".format(a, %s))" % site(ins),
    ], "a"


# One statement generator per memory binding: a Load (``value`` None)
# or a Store of ``value`` at address expression ``a``, with the effects
# of the site's bound pair in their order.  ``memory`` is the binding's
# callables (the site binding's: ``bind_site``).


def _fuse_recording(ins, a, value, site, memory):
    fb = encode_flags(ins.ref, value is not None)
    lines = [
        "if len(addrs) < lim:",
        "    aa(%s)" % a,
        "    fa(%d)" % fb,
        "else:",
        "    append(%s, %d)" % (a, fb),
    ]
    if value is None:
        lines.append("r[%d] = get(%s, 0)" % (ins.dest.index, a))
    else:
        lines.append("words[%s] = %s" % (a, value))
    return lines


def _fuse_site(ins, a, value, site, bind):
    read_at, write_at = bind(ins.ref)
    if value is None:
        return ["r[%d] = %s(%s)" % (ins.dest.index, site(read_at), a)]
    return ["%s(%s, %s)" % (site(write_at), a, value)]


_FUSE_MEMORY = {
    "recording": _fuse_recording,
    "site": _fuse_site,
}


class _Frame:
    """The frame pointer and call stack the handlers share.

    Handlers close over this object, never over their Machine, so a
    Machine is in no reference cycle with its handler table: the
    machine, its memory and the trace buffer its handlers append to
    are freed as soon as the last user drops the machine, not at
    whatever later cyclic collection finds them.
    """

    __slots__ = ("fp", "calls")

    def __init__(self):
        self.fp = 0
        #: ``(return index, caller's fp)`` per active call.
        self.calls = []


class _Halt(Exception):
    """Internal: a top-level Ret ends the run (never escapes Machine)."""


_FUSE_GLOBALS["_Halt"] = _Halt


@dataclass
class ExecutionResult:
    """What one program run produced."""

    return_value: int
    output: list = field(default_factory=list)
    steps: int = 0


class Machine:
    """Interprets an allocated :class:`IRModule`."""

    #: Subclasses (the reference oracle) set this False to keep the
    #: one-handler-per-instruction table byte-for-byte unfused.
    _enable_fusion = True

    def __init__(
        self,
        module,
        memory=None,
        machine=MACHINE,
        stack_base=DEFAULT_STACK_BASE,
        max_steps=None,
        instruction_sink=None,
    ):
        self.module = module
        self.memory = memory if memory is not None else FlatMemory()
        self.machine = machine
        self.stack_base = stack_base
        self.max_steps = max_steps if max_steps is not None else DEFAULT_MAX_STEPS
        #: Optional callable(address) invoked for every instruction
        #: fetch; used to build combined I+D traces.
        self.instruction_sink = instruction_sink
        self.regs = [0] * machine.num_regs
        self.output = []
        self.steps = 0
        self._global_top = GLOBAL_BASE + module.global_size
        self._offsets = {}
        for function in module.functions.values():
            self._offsets[function.name] = dict(function.frame._offsets)
        self._initialize_globals()
        self._layout_code()
        self._compile_handlers()

    def _layout_code(self):
        """Assign every basic block a text-segment address so fetches
        can be traced.  One word per instruction, blocks laid out in
        function order — a plausible linker layout."""
        address = TEXT_BASE
        for function in self.module.functions.values():
            for block in function.blocks.values():
                block.code_address = address
                address += len(block.instructions)
        self.code_size = address - TEXT_BASE

    def _initialize_globals(self):
        for symbol in self.module.globals:
            base = symbol.global_address
            if symbol.is_array():
                for offset in range(symbol.type.size_words()):
                    self.memory.poke(base + offset, 0)
            else:
                self.memory.poke(base, self.module.global_inits.get(symbol, 0))

    # -- closure compilation -------------------------------------------

    def _compile_handlers(self):
        """Translate the laid-out code into the global handler table.

        ``self._handlers[i]`` executes the instruction at text address
        ``TEXT_BASE + i`` and returns its successor's index.  One extra
        guard slot at the end catches control flow that falls off a
        block without a terminator (or jumps to an empty block).
        """
        module = self.module
        #: Index of the fall-off guard handler (one past the code).
        guard = self.code_size
        self._frame = _Frame()
        self._memory_binding = self._memory_plan()
        #: The trace buffer the fused recording bodies append to directly.
        self._recorded = (
            self.memory.buffer
            if self._memory_binding[0] == "recording" else None
        )
        fuse = self._enable_fusion and self.instruction_sink is None
        handlers = []
        overlays = []
        entry_index = {}
        for function in module.functions.values():
            entry_block = function.entry
            entry_index[function.name] = (
                entry_block.code_address - TEXT_BASE
                if entry_block.instructions
                else guard
            )
            offsets = self._offsets[function.name]
            for block in function.blocks.values():
                base = block.code_address - TEXT_BASE
                assert base == len(handlers), "layout/compile order skew"
                last = len(block.instructions) - 1
                for i, instruction in enumerate(block.instructions):
                    next_index = base + i + 1 if i < last else guard
                    handlers.append(
                        self._compile_instruction(
                            instruction, next_index, function, offsets, guard
                        )
                    )
                if fuse:
                    self._fuse_block(
                        block, base, function, offsets, guard, overlays
                    )

        def fell_off():
            raise VMError("execution fell off the end of a basic block")

        handlers.append(fell_off)
        self._handlers = handlers
        self._entry_index = entry_index
        if overlays:
            fast = list(handlers)
            costs = [1] * len(handlers)
            for index, handler, cost in overlays:
                fast[index] = handler
                costs[index] = cost
            self._fast_handlers = fast
            self._costs = costs
        else:
            self._fast_handlers = None
            self._costs = None

    def _block_index(self, function, name, guard):
        block = function.blocks[name]
        if not block.instructions:
            return guard
        return block.code_address - TEXT_BASE

    # -- superinstruction fusion ---------------------------------------

    def _fuse_block(self, block, base, function, offsets, guard, overlays):
        """Collect the block's superinstruction runs into ``overlays``.

        A run is a maximal stretch of fusable ops, optionally closed by
        one control op — Jump/CJump/Ret, or a Call to a known function
        (whose push/frame bookkeeping is pure register-and-attribute
        work too); runs shorter than two instructions stay on their
        individual handlers.  Only run heads get overlaid — interior
        indices are unreachable (nothing jumps into the middle of
        straight-line code), but their per-instruction handlers stay in
        the table untouched.
        """
        instructions = block.instructions
        m = len(instructions)
        i = 0
        while i < m:
            if not _fusable(instructions[i], offsets):
                i += 1
                continue
            j = i
            while j < m and _fusable(instructions[j], offsets):
                j += 1
            terminal = self._fuse_closer(instructions, j)
            count = (j - i) + (1 if terminal is not None else 0)
            if count >= 2:
                handler, count = self._compile_fused(
                    instructions[i:j], terminal, j, m, base, function,
                    offsets, guard,
                )
                overlays.append((base + i, handler, count))
            i = j + 1 if terminal is not None else j

    def _fuse_closer(self, instructions, j):
        """The control op at position ``j`` if a run may absorb it."""
        if j >= len(instructions):
            return None
        ins = instructions[j]
        cls = ins.__class__
        if cls in (Jump, CJump, Ret):
            return ins
        if cls is Call and ins.callee in self.module.functions:
            return ins
        return None

    def _compile_fused(self, run, terminal, j, m, base, function, offsets,
                       guard):
        """Generate and instantiate one superinstruction handler.

        The body is plain source — register indices, constants, frame
        offsets, flag bytes and successor indices all inlined as
        literals — wrapped in a ``_make(f, r, m, k)`` factory so one
        compiled code object serves every machine whose run has the
        same shape: ``f`` is the machine's :class:`_Frame`, ``r`` its
        register file, ``m`` the memory binding's callables and ``k``
        the memory ops' instructions (for the wild-address message)
        and, under the site binding, their sites' bound ``read_at`` /
        ``write_at``, in order of use.
        Returns ``(handler, instructions_retired)``.

        A closing Jump is **threaded**: instead of returning the
        target's index, the target block's own fusable head run (and
        its closer) is inlined into this body, repeating — bounded by
        ``_FUSE_RUN_LIMIT`` and a visited set — so straight-line code
        split across blocks still retires in one dispatch.  Each block
        is threaded at most once per body; a self-jump therefore
        unrolls a single partial iteration and then returns.
        """
        kind, memory = self._memory_binding
        fuse_memory = _FUSE_MEMORY[kind]
        hi = self.stack_base
        lines = []
        sites = []
        uses_memory = False

        def site(obj):
            sites.append(obj)
            return "k%d" % (len(sites) - 1)

        def emit(ins):
            nonlocal uses_memory
            cls = ins.__class__
            if cls is Load or cls is Store:
                uses_memory = True
                setup, a = _fuse_address(ins, offsets, hi, site)
                value = None if cls is Load else _fuse_operand(ins.src)
                for line in setup + fuse_memory(ins, a, value, site,
                                                memory):
                    lines.append("        " + line)
            else:
                lines.append("        " + _fuse_stmt(ins, offsets))

        for ins in run:
            emit(ins)
        count = len(run)
        #: Successor index when the current segment has no closer.
        succ = guard if j >= m else base + j
        visited = set()
        while True:
            if terminal is None:
                lines.append("        return %d" % succ)
                break
            cls = terminal.__class__
            count += 1
            if cls is Jump:
                target = function.blocks[terminal.target]
                t_instructions = target.instructions
                t_base = target.code_address - TEXT_BASE
                if not t_instructions:
                    lines.append("        return %d" % guard)
                    break
                if id(target) in visited or count >= _FUSE_RUN_LIMIT:
                    lines.append("        return %d" % t_base)
                    break
                visited.add(id(target))
                k = 0
                t_m = len(t_instructions)
                while (
                    k < t_m
                    and count + k < _FUSE_RUN_LIMIT
                    and _fusable(t_instructions[k], offsets)
                ):
                    emit(t_instructions[k])
                    k += 1
                count += k
                if k == 0:
                    lines.append("        return %d" % t_base)
                    break
                terminal = (
                    self._fuse_closer(t_instructions, k)
                    if count < _FUSE_RUN_LIMIT else None
                )
                j, m, base = k, t_m, t_base
                succ = guard if j >= m else base + j
                continue
            if cls is CJump:
                t = self._block_index(function, terminal.if_true, guard)
                f = self._block_index(function, terminal.if_false, guard)
                cond = terminal.cond
                if cond.__class__ is PReg:
                    lines.append(
                        "        return %d if r[%d] != 0 else %d"
                        % (t, cond.index, f)
                    )
                else:
                    lines.append(
                        "        return %d" % (t if cond.value != 0 else f)
                    )
            elif cls is Ret:
                lines.extend([
                    "        cs = f.calls",
                    "        if not cs:",
                    "            raise _Halt",
                    "        n, fp = cs.pop()",
                    "        f.fp = fp",
                    "        return n",
                ])
            else:  # Call to a known function
                callee = self.module.functions[terminal.callee]
                centry = (
                    callee.entry.code_address - TEXT_BASE
                    if callee.entry.instructions
                    else guard
                )
                after = base + j + 1 if j < m - 1 else guard
                overflow = "stack overflow calling {}".format(callee.name)
                lines.extend([
                    "        cs = f.calls",
                    "        cs.append((%d, f.fp))" % after,
                    "        if len(cs) > %d:" % MAX_CALL_DEPTH,
                    "            raise ResourceExhausted(",
                    "                'call stack overflow "
                    "(recursion too deep)'",
                    "            )",
                    "        fp = f.fp - %d" % callee.frame.size,
                    "        if fp < %d:" % self._global_top,
                    "            raise VMError(%r)" % overflow,
                    "        f.fp = fp",
                    "        return %d" % centry,
                ])
            break
        head = ["def _make(f, r, m, k):"]
        names = _MEMORY_NAMES[kind]
        if uses_memory and names:
            head.append("    %s = m" % ", ".join(names))
        if sites:
            head.append("    %s, = k" % ", ".join(
                "k%d" % i for i in range(len(sites))
            ))
        head.append("    def _fused():")
        lines.append("    return _fused")
        source = "\n".join(head + lines)
        make = _FUSED_CODE_CACHE.get(source)
        if make is None:
            namespace = dict(_FUSE_GLOBALS)
            exec(compile(source, "<fused>", "exec"), namespace)
            make = namespace["_make"]
            if len(_FUSED_CODE_CACHE) < _FUSED_CODE_CACHE_LIMIT:
                _FUSED_CODE_CACHE[source] = make
        return make(self._frame, self.regs, memory, tuple(sites)), count

    def _compile_instruction(self, ins, nxt, function, offsets, guard):
        """One instruction -> one zero-argument handler closure."""
        regs = self.regs
        frame = self._frame
        cls = ins.__class__

        if cls is BinOp:
            opname = ins.op
            if opname not in _BINOPS:
                def unknown_op(opname=opname):
                    return _BINOPS[opname]  # the historical KeyError
                return unknown_op
            op = _BINOPS[opname]
            d = ins.dest.index
            left, right = ins.left, ins.right
            if left.__class__ is PReg:
                li = left.index
                if right.__class__ is PReg:
                    def h(regs=regs, op=op, d=d, l=li, r=right.index, n=nxt):
                        regs[d] = op(regs[l], regs[r])
                        return n
                else:
                    def h(regs=regs, op=op, d=d, l=li, b=right.value, n=nxt):
                        regs[d] = op(regs[l], b)
                        return n
            else:
                a = left.value
                if right.__class__ is PReg:
                    def h(regs=regs, op=op, d=d, a=a, r=right.index, n=nxt):
                        regs[d] = op(a, regs[r])
                        return n
                else:
                    def h(regs=regs, op=op, d=d, a=a, b=right.value, n=nxt):
                        regs[d] = op(a, b)
                        return n
            return h

        if cls is Move:
            d = ins.dest.index
            src = ins.src
            if src.__class__ is PReg:
                def h(regs=regs, d=d, s=src.index, n=nxt):
                    regs[d] = regs[s]
                    return n
            else:
                def h(regs=regs, d=d, v=src.value, n=nxt):
                    regs[d] = v
                    return n
            return h

        if cls is Load:
            return self._compile_load(ins, nxt, offsets)

        if cls is Store:
            return self._compile_store(ins, nxt, offsets)

        if cls is CJump:
            cond = ins.cond
            t = self._block_index(function, ins.if_true, guard)
            f = self._block_index(function, ins.if_false, guard)
            if cond.__class__ is PReg:
                def h(regs=regs, c=cond.index, t=t, f=f):
                    return t if regs[c] != 0 else f
            else:
                target = t if cond.value != 0 else f
                def h(t=target):
                    return t
            return h

        if cls is Jump:
            target = self._block_index(function, ins.target, guard)

            def h(t=target):
                return t
            return h

        if cls is UnOp:
            d = ins.dest.index
            operand = ins.operand
            negate = ins.op == "neg"
            if operand.__class__ is PReg:
                if negate:
                    def h(regs=regs, d=d, s=operand.index, n=nxt):
                        regs[d] = -regs[s]
                        return n
                else:
                    def h(regs=regs, d=d, s=operand.index, n=nxt):
                        regs[d] = 1 if regs[s] == 0 else 0
                        return n
            else:
                value = -operand.value if negate else (
                    1 if operand.value == 0 else 0
                )

                def h(regs=regs, d=d, v=value, n=nxt):
                    regs[d] = v
                    return n
            return h

        if cls is AddrOfSym:
            d = ins.dest.index
            symbol = ins.symbol
            if symbol.global_address is not None:
                def h(regs=regs, d=d, a=symbol.global_address, n=nxt):
                    regs[d] = a
                    return n
            else:
                def h(regs=regs, d=d, f=frame, off=offsets[symbol], n=nxt):
                    regs[d] = f.fp + off
                    return n
            return h

        if cls is Call:
            callee = self.module.functions.get(ins.callee)
            if callee is None:
                def h(name=ins.callee):
                    raise VMError(
                        "call to unknown function {}".format(name)
                    )
                return h
            centry = (
                callee.entry.code_address - TEXT_BASE
                if callee.entry.instructions
                else guard
            )

            def h(
                cs=frame.calls,
                f=frame,
                n=nxt,
                size=callee.frame.size,
                ce=centry,
                top=self._global_top,
                cname=callee.name,
            ):
                cs.append((n, f.fp))
                if len(cs) > MAX_CALL_DEPTH:
                    raise ResourceExhausted(
                        "call stack overflow (recursion too deep)"
                    )
                fp = f.fp - size
                if fp < top:
                    raise VMError("stack overflow calling {}".format(cname))
                f.fp = fp
                return ce
            return h

        if cls is Ret:
            def h(cs=frame.calls, f=frame):
                if not cs:
                    raise _Halt
                n, fp = cs.pop()
                f.fp = fp
                return n
            return h

        if cls is Print:
            out = self.output
            src = ins.src
            if src.__class__ is PReg:
                def h(regs=regs, out=out, s=src.index, n=nxt):
                    out.append(regs[s])
                    return n
            else:
                def h(out=out, v=src.value, n=nxt):
                    out.append(v)
                    return n
            return h

        def h(ins=ins):
            raise VMError("cannot execute instruction {!r}".format(ins))
        return h

    def _memory_plan(self):
        """How the fused bodies' loads/stores bind the memory system.

        Returns ``(kind, callables)``.  Exact-type
        :class:`RecordingMemory` over exact-type :class:`FlatMemory`
        gets the one inlined fast path, ``"recording"``: the callables
        named by ``_MEMORY_NAMES["recording"]``, with which a body
        appends straight to the trace buffer's arrays
        (:meth:`~repro.vm.trace.TraceBuffer.direct_appends`; at the
        event cap it calls ``append``, which raises) and touches the
        word dict, its flag bytes encoded at compile time.  Every other
        memory system gets the ``"site"`` binding, whose one callable
        is its :meth:`~repro.vm.memory.MemorySystem.bind_site`: each
        body asks it for each of its sites' ``(read_at, write_at)``.
        The per-instruction handlers bind through ``bind_site`` under
        either.
        """
        memory = self.memory
        if (
            type(memory) is RecordingMemory
            and type(memory.flat) is FlatMemory
        ):
            buffer = memory.buffer
            addrs, flags, lim = buffer.direct_appends()
            words = memory.flat.words
            return "recording", (
                addrs.append, flags.append, addrs, lim, buffer.append,
                words.get, words,
            )
        return "site", memory.bind_site

    def _compile_load(self, ins, nxt, offsets):
        regs = self.regs
        d = ins.dest.index
        mem = ins.mem
        read_at = self.memory.bind_site(ins.ref)[0]
        if mem.__class__ is SymMem:
            symbol = mem.symbol
            if symbol.global_address is not None:
                def h(read_at=read_at, regs=regs, d=d,
                      a=symbol.global_address, n=nxt):
                    regs[d] = read_at(a)
                    return n
                return h

            def h(read_at=read_at, regs=regs, f=self._frame, d=d,
                  off=offsets[symbol], n=nxt):
                regs[d] = read_at(f.fp + off)
                return n
            return h

        def h(read_at=read_at, regs=regs, d=d, ai=mem.addr.index,
              lo=GLOBAL_BASE, hi=self.stack_base, ins=ins, n=nxt):
            a = regs[ai]
            if a < lo or a >= hi:
                raise VMError(
                    "wild memory access at address {} by {!r}".format(a, ins)
                )
            regs[d] = read_at(a)
            return n
        return h

    def _compile_store(self, ins, nxt, offsets):
        regs = self.regs
        mem = ins.mem
        src = ins.src
        write_at = self.memory.bind_site(ins.ref)[1]
        if mem.__class__ is SymMem:
            symbol = mem.symbol
            if symbol.global_address is not None:
                a = symbol.global_address
                if src.__class__ is PReg:
                    def h(write_at=write_at, regs=regs, a=a, s=src.index,
                          n=nxt):
                        write_at(a, regs[s])
                        return n
                else:
                    def h(write_at=write_at, a=a, v=src.value, n=nxt):
                        write_at(a, v)
                        return n
                return h
            f, off = self._frame, offsets[symbol]
            if src.__class__ is PReg:
                def h(write_at=write_at, regs=regs, f=f, off=off,
                      s=src.index, n=nxt):
                    write_at(f.fp + off, regs[s])
                    return n
            else:
                def h(write_at=write_at, f=f, off=off, v=src.value, n=nxt):
                    write_at(f.fp + off, v)
                    return n
            return h

        ai = mem.addr.index
        lo, hi = GLOBAL_BASE, self.stack_base
        if src.__class__ is PReg:
            def h(write_at=write_at, regs=regs, ai=ai, lo=lo, hi=hi,
                  s=src.index, ins=ins, n=nxt):
                a = regs[ai]
                if a < lo or a >= hi:
                    raise VMError(
                        "wild memory access at address {} by {!r}".format(
                            a, ins
                        )
                    )
                write_at(a, regs[s])
                return n
        else:
            def h(write_at=write_at, regs=regs, ai=ai, lo=lo, hi=hi,
                  v=src.value, ins=ins, n=nxt):
                a = regs[ai]
                if a < lo or a >= hi:
                    raise VMError(
                        "wild memory access at address {} by {!r}".format(
                            a, ins
                        )
                    )
                write_at(a, v)
                return n
        return h

    # ------------------------------------------------------------------

    def set_global(self, name, value, index=None):
        """Initialise a global scalar or array element before running."""
        symbol = self._find_global(name)
        address = symbol.global_address
        if index is not None:
            if not symbol.is_array():
                raise VMError("global {} is not an array".format(name))
            if not 0 <= index < symbol.type.size_words():
                raise VMError("index {} out of range for {}".format(index, name))
            address += index
        self.memory.poke(address, value)

    def get_global(self, name, index=None):
        symbol = self._find_global(name)
        address = symbol.global_address
        if index is not None:
            address += index
        return self.memory.peek(address)

    def _find_global(self, name):
        for symbol in self.module.globals:
            if symbol.name == name:
                return symbol
        raise VMError("no global named {}".format(name))

    # ------------------------------------------------------------------

    def run(self, entry="main", max_steps=None):
        """Execute ``entry()`` to completion; returns ExecutionResult."""
        if entry not in self.module.functions:
            raise VMError("no function named {}".format(entry))
        budget = max_steps if max_steps is not None else self.max_steps
        function = self.module.functions[entry]
        fp = self.stack_base - function.frame.size
        if fp < self._global_top:
            raise VMError("stack overflow on entry")
        self._frame.fp = fp
        self._frame.calls.clear()
        if self._recorded is not None:
            # The fused recording bodies skip TraceBuffer.append, and
            # with it the invalidation of whatever was decoded before.
            self._recorded.drop_memos()
        handlers = self._handlers
        index = self._entry_index[entry]
        steps = self.steps
        sink = self.instruction_sink

        try:
            if sink is None:
                if self._fast_handlers is not None:
                    # Superinstruction table: each handler retires a
                    # whole fused run, so fuel is charged by ``costs``
                    # up front.  A run that would overrun is left to the
                    # per-instruction loop below, which executes its
                    # ops one by one and stops exactly at budget + 1.
                    fast = self._fast_handlers
                    costs = self._costs
                    while True:
                        steps += costs[index]
                        if steps > budget:
                            steps -= costs[index]
                            break
                        index = fast[index]()
                while True:
                    steps += 1
                    if steps > budget:
                        self.steps = steps
                        raise ResourceExhausted(
                            "execution exceeded {} steps "
                            "(infinite loop?)".format(budget)
                        )
                    index = handlers[index]()
            else:
                while True:
                    sink(TEXT_BASE + index)
                    steps += 1
                    if steps > budget:
                        self.steps = steps
                        raise ResourceExhausted(
                            "execution exceeded {} steps "
                            "(infinite loop?)".format(budget)
                        )
                    index = handlers[index]()
        except _Halt:
            self.steps = steps
            return ExecutionResult(
                return_value=self.regs[self.machine.ret_reg],
                output=self.output,
                steps=steps,
            )

    def _check_address(self, address, instruction):
        if address < GLOBAL_BASE or address >= self.stack_base:
            raise VMError(
                "wild memory access at address {} by {!r}".format(
                    address, instruction
                )
            )


def run_module(module, entry="main", memory=None, machine=MACHINE, **kwargs):
    """Convenience: build a Machine, run ``entry``, return the result."""
    vm = Machine(module, memory=memory, machine=machine, **kwargs)
    return vm.run(entry)
