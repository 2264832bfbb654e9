"""Compiled candidate evaluation: the MCMC inner loop's fast path.

The reference :class:`~repro.emulator.cpu.Emulator` re-dispatches
``execute()`` per instruction per testcase: every proposal pays for
operand classification, register-view resolution, width masking and
algebra indirection once *per testcase*. This module hoists all of that
to once *per candidate*: each instruction is lowered to one specialized
step function (operand accessors, masks and jump targets pre-resolved
against the concrete :data:`~repro.x86.algebra.INT_ALGEBRA`; ``UNUSED``
slots dropped outright) and the program becomes a tight trampoline over
the step list, evaluated against a pooled, reset-in-place
:class:`~repro.emulator.state.MachineState`.

Crucially, lowering is driven by the *same* ``execute()`` definition the
reference emulator and the symbolic validator interpret: compilation
runs the shared semantics once against a recording
:class:`~repro.x86.semantics.Machine` whose algebra emits straight-line
Python source instead of computing values. Constant subexpressions fold
at compile time; reads, writes and sandbox events are emitted in
exactly the order the reference performs them, so final states —
including the Eq. 11 event counters — are bit-identical
(``tests/emulator/test_compile.py`` checks this differentially over the
whole suite).

The recorder writes every instruction-dependent literal (register and
flag names, masks, folded constants) as a parameter, so what it records
is a *skeleton*: ``add rax, rbx`` and ``add rcx, rdx`` record the same
text. Each distinct skeleton is ``exec``-ed once into a factory
``_make(c0, c1, ...)`` returning the step; an instruction whose skeleton
was seen before only calls the cached factory with its own literals.
Recording still specializes exactly (``xor r, r``, a zero shift count),
because two instructions share a factory only if they recorded
identical text.

Instructions whose semantics branch on runtime values in ways the
recorder cannot express (``div``/``idiv``, shifts and rotates with a
register count — anywhere ``known_zero`` needs a concrete answer) fall
back to a per-instruction interpretive step over the shared
``execute()``; correctness is preserved, only the speedup is forfeited
for that instruction.

Compiled steps are cached on the :class:`Instruction` instances
themselves (a proposal shares all but one instruction object with its
predecessor) with a structural second-level cache behind them, so the
steady-state compile cost of a proposal is one dictionary hit per slot.
Each instruction also caches its slot kind and write mask, so lowering a
program is one pass over its slots.
"""

from __future__ import annotations

from typing import Callable

from repro.emulator.cpu import Emulator
from repro.emulator.sandbox import Sandbox
from repro.emulator.state import MachineState
from repro.errors import StepLimitExceeded
from repro.x86.algebra import INT_ALGEBRA, mask, to_signed
from repro.x86.instruction import Instruction, is_unused
from repro.x86.program import Program
from repro.x86.registers import (FLAG_NAMES, GPR64, XMM, RegClass,
                                 Register)
from repro.x86.semantics import cc_value, execute

_M64 = (1 << 64) - 1

#: A compiled step: executes one instruction against (state, sandbox).
Step = Callable[[MachineState, Sandbox], object]


class _CannotCompile(Exception):
    """Raised when semantics need a concrete value at compile time."""


class _Const:
    """A compile-time-known value in the recording machine."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class _SourceBuilder:
    """A :class:`Machine` whose operations emit source, not values.

    Values flowing through the semantics are either :class:`_Const`
    (folded immediately with the integer algebra's rules) or integer
    indices naming local variables ``v0, v1, ...`` of the generated
    step function. Every state access appends one (or a few) source
    lines; the finished function replays the reference emulator's exact
    sequence of reads, writes and sandbox events for one instruction.

    Every instruction-dependent literal (register and flag names,
    masks, folded constants such as displacements, shift counts,
    definedness bit patterns, the address wrap mask) is written as a
    parameter ``c0, c1, ...`` through :meth:`_lit`, so the recorded text
    is the instruction's *skeleton*: ``add rax, rbx`` and ``add rcx,
    rdx`` record the same text and differ only in :attr:`consts`. The
    byte index and shift of each byte of a memory access stay literal:
    the access width, already spelled out by the number of lines, fixes
    them, and lifting them would let them alias a displacement.
    """

    def __init__(self) -> None:
        self.alg = self            # semantics reach the algebra via m.alg
        self.lines: list[str] = []
        self.consts: list[int | str] = []
        self._params: dict[tuple[type, int | str], str] = {}
        self._counter = 0

    def _lit(self, value: int | str) -> str:
        """The parameter name standing for one literal, deduplicated."""
        key = (type(value), value)
        name = self._params.get(key)
        if name is None:
            name = f"c{len(self.consts)}"
            self._params[key] = name
            self.consts.append(value)
        return name

    def _mask(self, width: int) -> str:
        return self._lit(mask(width))

    def _slot(self, expr: str) -> int:
        k = self._counter
        self._counter += 1
        self.lines.append(f"v{k} = {expr}")
        return k

    def _tmp(self) -> str:
        self._counter += 1
        return f"v{self._counter - 1}"

    def _ref(self, v) -> str:
        if type(v) is _Const:
            return self._lit(v.value)
        return f"v{v}"

    def _signed(self, ref: str, width: int) -> str:
        """Inline two's-complement reinterpretation of a masked value."""
        sign = self._lit(1 << (width - 1))
        return f"({ref} - (({ref} & {sign}) << 1))"

    # -- algebra: arithmetic ------------------------------------------------

    def const(self, width: int, value: int):
        return _Const(value & mask(width))

    def add(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value + b.value) & mask(width))
        return self._slot(
            f"({self._ref(a)} + {self._ref(b)}) & {self._mask(width)}")

    def sub(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value - b.value) & mask(width))
        return self._slot(
            f"({self._ref(a)} - {self._ref(b)}) & {self._mask(width)}")

    def mul(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const((a.value * b.value) & mask(width))
        return self._slot(
            f"({self._ref(a)} * {self._ref(b)}) & {self._mask(width)}")

    def neg(self, width: int, a):
        if type(a) is _Const:
            return _Const((-a.value) & mask(width))
        return self._slot(f"(-{self._ref(a)}) & {self._mask(width)}")

    # -- algebra: division (a runtime divisor raises _CannotCompile in
    # known_zero first, so these never divide by zero) ----------------------

    def udiv(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value // b.value)
        return self._slot(f"{self._ref(a)} // {self._ref(b)}")

    def urem(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value % b.value)
        return self._slot(f"{self._ref(a)} % {self._ref(b)}")

    def sdiv(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(INT_ALGEBRA.sdiv(width, a.value, b.value))
        return self._slot(f"_sdiv({self._lit(width)}, {self._ref(a)}, "
                          f"{self._ref(b)})")

    def srem(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(INT_ALGEBRA.srem(width, a.value, b.value))
        return self._slot(f"_srem({self._lit(width)}, {self._ref(a)}, "
                          f"{self._ref(b)})")

    # -- algebra: bitwise ---------------------------------------------------

    def and_(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value & b.value)
        return self._slot(f"{self._ref(a)} & {self._ref(b)}")

    def or_(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value | b.value)
        return self._slot(f"{self._ref(a)} | {self._ref(b)}")

    def xor(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(a.value ^ b.value)
        return self._slot(f"{self._ref(a)} ^ {self._ref(b)}")

    def not_(self, width: int, a):
        if type(a) is _Const:
            return _Const(~a.value & mask(width))
        return self._slot(f"~{self._ref(a)} & {self._mask(width)}")

    # -- algebra: shifts ----------------------------------------------------

    def shl(self, width: int, a, count):
        if type(count) is _Const:
            c = count.value
            if c >= width:
                return _Const(0)
            if type(a) is _Const:
                return _Const((a.value << c) & mask(width))
            return self._slot(f"({self._ref(a)} << {self._lit(c)}) & "
                              f"{self._mask(width)}")
        c = self._ref(count)
        return self._slot(f"0 if {c} >= {self._lit(width)} else "
                          f"({self._ref(a)} << {c}) & {self._mask(width)}")

    def lshr(self, width: int, a, count):
        if type(count) is _Const:
            c = count.value
            if c >= width:
                return _Const(0)
            if type(a) is _Const:
                return _Const(a.value >> c)
            return self._slot(f"{self._ref(a)} >> {self._lit(c)}")
        c = self._ref(count)
        return self._slot(f"0 if {c} >= {self._lit(width)} else "
                          f"{self._ref(a)} >> {c}")

    def ashr(self, width: int, a, count):
        if type(count) is _Const and type(a) is _Const:
            return _Const(INT_ALGEBRA.ashr(width, a.value, count.value))
        signed = self._signed(self._ref(a), width)
        if type(count) is _Const:
            c = self._lit(min(count.value, width - 1))
        else:
            cr = self._ref(count)
            top = self._lit(width - 1)
            c = f"({cr} if {cr} < {top} else {top})"
        return self._slot(f"({signed} >> {c}) & {self._mask(width)}")

    # -- algebra: comparisons -----------------------------------------------

    def eq(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if a.value == b.value else 0)
        return self._slot(
            f"1 if {self._ref(a)} == {self._ref(b)} else 0")

    def ult(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if a.value < b.value else 0)
        return self._slot(
            f"1 if {self._ref(a)} < {self._ref(b)} else 0")

    def slt(self, width: int, a, b):
        if type(a) is _Const and type(b) is _Const:
            return _Const(1 if to_signed(width, a.value) <
                          to_signed(width, b.value) else 0)
        sa = self._signed(self._ref(a), width)
        sb = self._signed(self._ref(b), width)
        return self._slot(f"1 if {sa} < {sb} else 0")

    # -- algebra: structure -------------------------------------------------

    def ite(self, width: int, cond, then, otherwise):
        if type(cond) is _Const:
            return then if cond.value else otherwise
        return self._slot(f"{self._ref(then)} if {self._ref(cond)} "
                          f"else {self._ref(otherwise)}")

    def extract(self, hi: int, lo: int, a):
        m = mask(hi - lo + 1)
        if type(a) is _Const:
            return _Const((a.value >> lo) & m)
        if lo == 0:
            return self._slot(f"{self._ref(a)} & {self._lit(m)}")
        return self._slot(
            f"({self._ref(a)} >> {self._lit(lo)}) & {self._lit(m)}")

    def concat(self, hi_width: int, hi, lo_width: int, lo):
        if type(hi) is _Const and type(lo) is _Const:
            return _Const((hi.value << lo_width) | lo.value)
        if type(hi) is _Const:
            return self._slot(
                f"{self._lit(hi.value << lo_width)} | {self._ref(lo)}")
        return self._slot(f"({self._ref(hi)} << {self._lit(lo_width)}) | "
                          f"{self._ref(lo)}")

    def zext(self, from_width: int, to_width: int, a):
        return a                      # values are unsigned ints already

    def sext(self, from_width: int, to_width: int, a):
        if type(a) is _Const:
            return _Const(to_signed(from_width, a.value) & mask(to_width))
        signed = self._signed(self._ref(a), from_width)
        return self._slot(f"{signed} & {self._mask(to_width)}")

    def popcount(self, width: int, a):
        if type(a) is _Const:
            return _Const(a.value.bit_count())
        return self._slot(f"{self._ref(a)}.bit_count()")

    # -- Machine protocol: state accesses -----------------------------------

    def read_full(self, name: str):
        return self._slot(f"regs[{self._lit(name)}]")

    def write_full(self, name: str, value) -> None:
        self.lines.append(f"regs[{self._lit(name)}] = {self._ref(value)}")

    def check_reg_defined(self, reg: Register) -> None:
        needed = self._lit((1 << reg.byte_width) - 1)
        self.lines.append(
            f"if rdef[{self._lit(reg.full)}] & {needed} != {needed}: "
            "events.undef += 1")

    def mark_reg_defined(self, reg: Register) -> None:
        full = self._lit(reg.full)
        if reg.reg_class is RegClass.GPR and reg.width == 32:
            self.lines.append(f"rdef[{full}] = {self._lit(255)}")
        else:
            bits = self._lit((1 << reg.byte_width) - 1)
            self.lines.append(f"rdef[{full}] |= {bits}")

    def read_flag(self, name: str):
        flag = self._lit(name)
        self.lines.append(f"if not fdef[{flag}]: events.undef += 1")
        return self._slot(f"flags[{flag}]")

    def write_flag(self, name: str, value) -> None:
        flag = self._lit(name)
        self.lines.append(f"flags[{flag}] = {self._ref(value)}")
        self.lines.append(f"fdef[{flag}] = True")

    def set_flag_undefined(self, name: str) -> None:
        self.lines.append(f"fdef[{self._lit(name)}] = False")

    def read_mem(self, addr, nbytes: int):
        a = self._ref(addr)
        m64 = self._lit(_M64)
        k = self._slot("0")
        lines = self.lines
        for i in range(nbytes):
            t = self._tmp()
            lines.append(f"{t} = ({a} + {i}) & {m64}")
            lines.append(f"if check({t}):")
            lines.append(f"    {t} = mem.get({t})")
            lines.append(f"    if {t} is None: events.undef += 1")
            lines.append(f"    else: v{k} |= {t} << {8 * i}")
            lines.append("else:")
            lines.append("    events.sigsegv += 1")
        return k

    def write_mem(self, addr, nbytes: int, value) -> None:
        a = self._ref(addr)
        v = self._ref(value)
        m64 = self._lit(_M64)
        lines = self.lines
        for i in range(nbytes):
            t = self._tmp()
            lines.append(f"{t} = ({a} + {i}) & {m64}")
            lines.append(f"if check({t}): "
                         f"mem[{t}] = ({v} >> {8 * i}) & 255")
            lines.append("else: events.sigsegv += 1")

    def fpe(self) -> None:
        self.lines.append("events.sigfpe += 1")

    def known_zero(self, width: int, value) -> bool:
        if type(value) is _Const:
            return value.value == 0
        raise _CannotCompile("runtime-dependent control flow")

    # -- assembly -----------------------------------------------------------

    def build(self, result=None) -> Step:
        """The step function for the recorded source.

        With ``result``, the function returns that value's expression
        (used for compiled condition codes). The text is looked up in
        the skeleton cache; only a text never seen before is ``exec``-ed
        (into a factory taking the literals as parameters), every other
        instruction just binds its own literals to the cached factory.
        """
        if result is not None:
            self.lines.append(f"return {self._ref(result)}")
        text = "\n".join(self.lines)
        key = (len(self.consts), text)
        factory = _SKELETONS.get(key)
        if factory is None:
            if len(_SKELETONS) >= _STRUCTURAL_CACHE_LIMIT:
                _SKELETONS.clear()
            factory = _exec_skeleton(text, len(self.consts))
            _SKELETONS[key] = factory
            COUNTERS.skeletons_compiled += 1
        return factory(*self.consts)


_PREAMBLE = (("regs", "regs = s.regs"),
             ("rdef", "rdef = s.reg_defined"),
             ("flags", "flags = s.flags"),
             ("fdef", "fdef = s.flag_defined"),
             ("mem", "mem = s.memory"),
             ("events", "events = s.events"),
             ("check", "check = box.check"))


def _exec_skeleton(text: str, nconsts: int) -> Callable[..., Step]:
    """``exec`` one skeleton into a factory: literals in, step out."""
    body = [line for name, line in _PREAMBLE if name in text]
    body += text.splitlines()
    if not body:
        body = ["pass"]
    params = ", ".join(f"c{k}" for k in range(nconsts))
    source = (f"def _make({params}):\n"
              "    def _step(s, box):\n" +
              "".join(f"        {line}\n" for line in body) +
              "    return _step\n")
    namespace = {"_sdiv": INT_ALGEBRA.sdiv, "_srem": INT_ALGEBRA.srem}
    exec(compile(source, "<repro-compiled>", "exec"),  # noqa: S102
         namespace)
    return namespace["_make"]


# ---------------------------------------------------------------------------
# the interpretive fallback
# ---------------------------------------------------------------------------

_FALLBACK_MACHINE = Emulator(MachineState(), Sandbox.recorder())


def _fallback_step(instr: Instruction) -> Step:
    """A step interpreting ``instr`` through the shared executor."""
    machine = _FALLBACK_MACHINE

    def step(s, box):
        machine.state = s
        machine.sandbox = box
        execute(instr, machine)
    return step


# ---------------------------------------------------------------------------
# evaluator telemetry
# ---------------------------------------------------------------------------


class _EvaluatorCounters:
    """Process-global tier-up/cache/fallback counts for this evaluator.

    Monotonic tallies, snapshotted around each chain job by the engine
    worker (the difference is that chain's share). They describe real
    execution, which is why they are *not* deterministic across worker
    counts: the structural cache and hot-threshold table are per
    process, so which chain pays a tier-up depends on pool placement.
    Telemetry therefore files them under the chain's nondeterministic
    ``runtime`` section.
    """

    __slots__ = ("instance_hits", "structural_hits", "tier_ups",
                 "skeletons_compiled", "cold_fallbacks",
                 "uncompilable_fallbacks", "programs_compiled")

    def __init__(self) -> None:
        self.instance_hits = 0          # step cached on the instruction
        self.structural_hits = 0        # equal instruction seen before
        self.tier_ups = 0               # interpretive -> compiled step
        self.skeletons_compiled = 0     # step texts exec-ed (cache misses)
        self.cold_fallbacks = 0         # below the hot threshold
        self.uncompilable_fallbacks = 0  # semantics defeated the recorder
        self.programs_compiled = 0      # CompiledProgram constructions

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


COUNTERS = _EvaluatorCounters()


def evaluator_counters() -> dict[str, int]:
    """A point-in-time copy of this process's evaluator counters."""
    return COUNTERS.snapshot()


# ---------------------------------------------------------------------------
# instruction and condition-code compilation, with caching
# ---------------------------------------------------------------------------

_STRUCTURAL_CACHE: dict[tuple, Step] = {}
_STRUCTURAL_CACHE_LIMIT = 1 << 16

#: Step factories keyed by ``(len(consts), text)`` of the recorded
#: skeleton; many instructions (and every condition code) share one.
_SKELETONS: dict[tuple[int, str], Callable[..., Step]] = {}

#: Sightings before an instruction is worth ``exec``-ing a step for.
#: Random proposals draw many one-shot instructions; interpreting an
#: instruction until it recurs keeps compile latency off their path
#: while everything the chain actually revisits still gets compiled.
_HOT_THRESHOLD = 2

_SEEN_ONCE: dict[tuple, int] = {}

_CC_CACHE: dict[str, Callable[[MachineState, Sandbox], int]] = {}


def _compile_instruction(instr: Instruction) -> Step:
    builder = _SourceBuilder()
    try:
        execute(instr, builder)
    except _CannotCompile:
        COUNTERS.uncompilable_fallbacks += 1
        return _fallback_step(instr)
    return builder.build()


def compiled_step(instr: Instruction) -> Step:
    """The specialized step function for one non-jump instruction.

    The first-level cache lives on the instruction instance (a proposal
    shares all but one instruction object with its predecessor); the
    second level is structural, so re-proposing an equal instruction
    never recompiles. Below :data:`_HOT_THRESHOLD` sightings the
    returned step interprets (bit-identically) instead of compiling.
    """
    step = instr.__dict__.get("_compiled_step")
    if step is None:
        key = (instr.opcode.name, instr.operands)
        step = _STRUCTURAL_CACHE.get(key)
        if step is None:
            count = _SEEN_ONCE.get(key, 0) + 1
            if count < _HOT_THRESHOLD:
                if len(_SEEN_ONCE) >= _STRUCTURAL_CACHE_LIMIT:
                    _SEEN_ONCE.clear()
                _SEEN_ONCE[key] = count
                COUNTERS.cold_fallbacks += 1
                return _fallback_step(instr)   # cold: not cached
            _SEEN_ONCE.pop(key, None)
            if len(_STRUCTURAL_CACHE) >= _STRUCTURAL_CACHE_LIMIT:
                _STRUCTURAL_CACHE.clear()
            step = _compile_instruction(instr)
            _STRUCTURAL_CACHE[key] = step
            COUNTERS.tier_ups += 1
        else:
            COUNTERS.structural_hits += 1
        instr.__dict__["_compiled_step"] = step
    else:
        COUNTERS.instance_hits += 1
    return step


def _compiled_cc(cc: str) -> Callable[[MachineState, Sandbox], int]:
    """A compiled evaluator for one jcc condition code."""
    evaluate = _CC_CACHE.get(cc)
    if evaluate is None:
        builder = _SourceBuilder()
        value = cc_value(builder, cc)
        evaluate = builder.build(result=value)
        _CC_CACHE[cc] = evaluate
    return evaluate


# ---------------------------------------------------------------------------
# whole programs
# ---------------------------------------------------------------------------

_STRAIGHT, _JMP, _JCC = 0, 1, 2

#: What a slot is, cached per instruction with its write mask.
_SLOT_UNUSED, _SLOT_JUMP, _SLOT_STRAIGHT = 0, 1, 2

#: Write-mask bits: bit 0 for memory, one bit per full register and
#: per flag above it. Sets decode in this fixed order.
_FULL_REGS = tuple(reg.full for reg in GPR64 + XMM)
_WRITE_BIT = {name: 2 << i for i, name in enumerate(_FULL_REGS + FLAG_NAMES)}
_MEMORY_BIT = 1

#: A write set: (full registers, flags, writes memory).
WriteSet = tuple[tuple[str, ...], tuple[str, ...], bool]

_WRITE_SETS: dict[int, WriteSet] = {}


def _slot_shape(instr: Instruction) -> tuple[int, int]:
    """Work out and cache ``(kind, write_mask)`` of one slot.

    The mask is the ISA table's def/use metadata (full registers,
    flags, memory), so it covers fallback-interpreted instructions too;
    jumps and UNUSED write nothing.
    """
    if is_unused(instr):
        shape = (_SLOT_UNUSED, 0)
    elif instr.is_jump:
        shape = (_SLOT_JUMP, 0)
    else:
        bits = _MEMORY_BIT if instr.writes_memory else 0
        for reg in instr.regs_written:
            bits |= _WRITE_BIT[reg.full]
        for flag in instr.flags_written:
            bits |= _WRITE_BIT[flag]
        shape = (_SLOT_STRAIGHT, bits)
    instr.__dict__["_slot_shape"] = shape
    return shape


def _write_set(bits: int) -> WriteSet:
    """The write set an OR of slot write masks stands for."""
    write_set = _WRITE_SETS.get(bits)
    if write_set is None:
        write_set = (
            tuple(name for name in _FULL_REGS if bits & _WRITE_BIT[name]),
            tuple(name for name in FLAG_NAMES if bits & _WRITE_BIT[name]),
            bool(bits & _MEMORY_BIT))
        if len(_WRITE_SETS) >= _STRUCTURAL_CACHE_LIMIT:
            _WRITE_SETS.clear()
        _WRITE_SETS[bits] = write_set
    return write_set


class CompiledProgram:
    """A candidate lowered to specialized steps, ready to amortize.

    Straight-line programs (the overwhelmingly common case — proposal
    moves never introduce jumps) execute as one flat step list;
    programs with jumps run a per-slot trampoline whose targets were
    resolved against the label table at compile time.

    :attr:`write_set` is the static over-approximation of what a run
    may dirty. It lets a pooled state be reset by undoing exactly these
    writes (:meth:`~repro.testgen.testcase.Testcase.undo_writes`)
    instead of rebuilding every register and flag from the prototype;
    partial runs (faults, step limits) only ever dirty a subset.
    """

    __slots__ = ("steps", "units", "slots", "write_set")

    def __init__(self, prog: Program) -> None:
        code = prog.code
        self.slots = len(code)
        bits = 0
        jumps = False
        slot_steps: list[Step | None] = []
        for instr in code:
            shape = instr.__dict__.get("_slot_shape") or _slot_shape(instr)
            if shape[0] == _SLOT_STRAIGHT:
                bits |= shape[1]
                slot_steps.append(compiled_step(instr))
            else:
                jumps = jumps or shape[0] == _SLOT_JUMP
                slot_steps.append(None)
        self.write_set = _write_set(bits)
        if not jumps:
            self.steps: tuple[Step, ...] | None = tuple(
                filter(None, slot_steps))
            self.units: tuple[tuple, ...] = ()
            return
        self.steps = None
        self.units = tuple(_unit(prog, instr, step)
                           for instr, step in zip(code, slot_steps))

    def run(self, state: MachineState, sandbox: Sandbox, *,
            max_steps: int = 10_000) -> MachineState:
        """Execute against ``state``; mirrors ``Emulator.run``."""
        steps = self.steps
        if steps is not None:
            if self.slots > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            for step in steps:
                step(state, sandbox)
            return state
        pc = 0
        count = 0
        units = self.units
        length = len(units)
        while pc < length:
            count += 1
            if count > max_steps:
                raise StepLimitExceeded(f"exceeded {max_steps} steps")
            unit = units[pc]
            kind = unit[0]
            if kind == _STRAIGHT:
                if unit[1] is not None:
                    unit[1](state, sandbox)
                pc += 1
            elif kind == _JMP:
                pc = unit[1]
            else:
                pc = unit[2] if unit[1](state, sandbox) else pc + 1
        return state


def _unit(prog: Program, instr: Instruction, step: Step | None) -> tuple:
    """One trampoline entry of a program with jumps."""
    if not instr.is_jump:
        return (_STRAIGHT, step)
    target = instr.jump_target
    assert target is not None
    target_pc = prog.labels[target]
    if instr.opcode.family == "jmp":
        return (_JMP, target_pc)
    cc = instr.opcode.cc
    assert cc is not None
    return (_JCC, _compiled_cc(cc), target_pc)


def compile_program(prog: Program) -> CompiledProgram:
    """Lower ``prog`` once; cached on the program instance."""
    compiled = prog.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledProgram(prog)
        prog.__dict__["_compiled"] = compiled
        COUNTERS.programs_compiled += 1
    return compiled
