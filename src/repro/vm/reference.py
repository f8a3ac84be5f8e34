"""The per-step dispatch interpreter, kept as a reference oracle.

This is the original :class:`~repro.vm.machine.Machine` hot loop: one
big ``if/elif`` over the instruction class, operand kinds re-examined
on every step.  :mod:`repro.vm.machine` replaced it with closure-
compiled handlers; this copy stays behind for two reasons:

* **Differential testing** — the closure compiler resolves operand
  kinds, frame offsets, jump targets, and memory fast paths at build
  time, which is exactly the kind of translation that can go subtly
  wrong.  Running the same module through both interpreters and
  demanding identical output, steps, registers, and reference traces
  checks the whole translation (``tests/test_vm_reference.py``).
* **Benchmark baseline** — ``benchmarks/bench_onepass.py`` measures
  the closure rework's cold-trace speedup against this loop, live,
  rather than against a number recorded on some other machine.

It reuses the compiled :class:`Machine` for everything but ``run`` —
construction, global initialisation, and code layout are shared, so
the two interpreters execute literally the same module object.
"""

from repro.ir.instructions import (
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
from repro.lang.errors import ResourceExhausted, VMError
from repro.vm.machine import (
    _BINOPS,
    MAX_CALL_DEPTH,
    ExecutionResult,
    Machine,
)


class ReferenceMachine(Machine):
    """A :class:`Machine` that runs the original dispatch loop."""

    #: The oracle never fuses — it must stay the original semantics
    #: the superinstruction compiler is differentially tested against.
    _enable_fusion = False

    def run(self, entry="main", max_steps=None):
        """Execute ``entry()`` to completion; returns ExecutionResult."""
        if entry not in self.module.functions:
            raise VMError("no function named {}".format(entry))
        budget = max_steps if max_steps is not None else self.max_steps
        function = self.module.functions[entry]
        fp = self.stack_base - function.frame.size
        if fp < self._global_top:
            raise VMError("stack overflow on entry")
        call_stack = []
        offsets = self._offsets[function.name]
        block = function.entry
        instructions = block.instructions
        index = 0
        regs = self.regs
        memory = self.memory
        steps = self.steps
        instruction_sink = self.instruction_sink

        while True:
            instruction = instructions[index]
            if instruction_sink is not None:
                instruction_sink(block.code_address + index)
            index += 1
            steps += 1
            if steps > budget:
                self.steps = steps
                raise ResourceExhausted(
                    "execution exceeded {} steps (infinite loop?)".format(budget)
                )
            cls = instruction.__class__

            if cls is BinOp:
                left = instruction.left
                right = instruction.right
                a = regs[left.index] if left.__class__ is PReg else left.value
                b = regs[right.index] if right.__class__ is PReg else right.value
                regs[instruction.dest.index] = _BINOPS[instruction.op](a, b)
            elif cls is Move:
                src = instruction.src
                regs[instruction.dest.index] = (
                    regs[src.index] if src.__class__ is PReg else src.value
                )
            elif cls is Load:
                mem = instruction.mem
                if mem.__class__ is SymMem:
                    symbol = mem.symbol
                    if symbol.global_address is not None:
                        address = symbol.global_address
                    else:
                        address = fp + offsets[symbol]
                else:
                    address = regs[mem.addr.index]
                    self._check_address(address, instruction)
                regs[instruction.dest.index] = memory.read(
                    address, instruction.ref
                )
            elif cls is Store:
                mem = instruction.mem
                if mem.__class__ is SymMem:
                    symbol = mem.symbol
                    if symbol.global_address is not None:
                        address = symbol.global_address
                    else:
                        address = fp + offsets[symbol]
                else:
                    address = regs[mem.addr.index]
                    self._check_address(address, instruction)
                src = instruction.src
                value = regs[src.index] if src.__class__ is PReg else src.value
                memory.write(address, value, instruction.ref)
            elif cls is CJump:
                cond = instruction.cond
                value = (
                    regs[cond.index] if cond.__class__ is PReg else cond.value
                )
                target = instruction.if_true if value != 0 else instruction.if_false
                block = function.blocks[target]
                instructions = block.instructions
                index = 0
            elif cls is Jump:
                block = function.blocks[instruction.target]
                instructions = block.instructions
                index = 0
            elif cls is UnOp:
                operand = instruction.operand
                value = (
                    regs[operand.index]
                    if operand.__class__ is PReg
                    else operand.value
                )
                if instruction.op == "neg":
                    regs[instruction.dest.index] = -value
                else:
                    regs[instruction.dest.index] = 1 if value == 0 else 0
            elif cls is AddrOfSym:
                symbol = instruction.symbol
                if symbol.global_address is not None:
                    regs[instruction.dest.index] = symbol.global_address
                else:
                    regs[instruction.dest.index] = fp + offsets[symbol]
            elif cls is Call:
                callee = self.module.functions.get(instruction.callee)
                if callee is None:
                    raise VMError(
                        "call to unknown function {}".format(instruction.callee)
                    )
                call_stack.append((function, offsets, block, index, fp))
                if len(call_stack) > MAX_CALL_DEPTH:
                    raise ResourceExhausted(
                        "call stack overflow (recursion too deep)"
                    )
                fp = fp - callee.frame.size
                if fp < self._global_top:
                    raise VMError(
                        "stack overflow calling {}".format(callee.name)
                    )
                function = callee
                offsets = self._offsets[function.name]
                block = function.entry
                instructions = block.instructions
                index = 0
            elif cls is Ret:
                if not call_stack:
                    self.steps = steps
                    return ExecutionResult(
                        return_value=regs[self.machine.ret_reg],
                        output=self.output,
                        steps=steps,
                    )
                function, offsets, block, index, fp = call_stack.pop()
                instructions = block.instructions
            elif cls is Print:
                src = instruction.src
                value = regs[src.index] if src.__class__ is PReg else src.value
                self.output.append(value)
            else:
                raise VMError(
                    "cannot execute instruction {!r}".format(instruction)
                )
