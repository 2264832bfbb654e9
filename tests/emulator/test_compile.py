"""Differential tests: the compiled evaluator vs the reference emulator.

The compiled fast path is only admissible because it is bit-identical
to the reference: same final registers, flags, memory, definedness
*and* the same Eq. 11 event counters, for every program it may see.
These tests check that over the whole benchmark suite (every
compilation of every kernel x generated testcases), over randomized
programs drawn from the proposal distribution with a fixed seed, and
at the cost-function level where the pooled-state reuse could smuggle
state between candidates.
"""

from __future__ import annotations

import random

import pytest

from repro.cost.correctness import CostWeights
from repro.cost.correctness import testcase_cost as eq_cost
from repro.cost.function import CostFunction, Phase
import repro.emulator.compile as compiled
from repro.emulator.compile import (COUNTERS, CompiledProgram,
                                    compile_program, compiled_step)
from repro.emulator.cpu import Emulator
from repro.emulator.state import MachineState
from repro.errors import StepLimitExceeded
from repro.search.config import SearchConfig
from repro.search.moves import MoveGenerator
from repro.suite.registry import all_benchmarks, benchmark
from repro.testgen.generator import TestcaseGenerator
from repro.testgen.testcase import Testcase
from repro.x86.parser import parse_instruction, parse_program
from repro.x86.program import Program


def _snapshot(state: MachineState) -> tuple:
    return (dict(state.regs), dict(state.reg_defined),
            dict(state.flags), dict(state.flag_defined),
            dict(state.memory),
            (state.events.sigsegv, state.events.sigfpe,
             state.events.undef))


def _assert_identical(prog, testcase) -> None:
    reference = testcase.initial_state()
    Emulator(reference, testcase.sandbox()).run(prog)
    pooled = testcase.reset_into(MachineState())
    compile_program(prog).run(pooled, testcase.sandbox())
    assert _snapshot(reference) == _snapshot(pooled), str(prog)
    weights = CostWeights()
    assert eq_cost(reference, testcase, weights) == \
        eq_cost(pooled, testcase, weights)


def _testcases(bench, count=4, seed=3):
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=seed)
    return generator.generate(count)


@pytest.mark.parametrize("bench", all_benchmarks(),
                         ids=lambda b: b.name)
def test_suite_kernels_bit_identical(bench):
    """Every compilation of every kernel, including jumps/div/shifts."""
    testcases = _testcases(bench)
    programs = [bench.o0, bench.gcc, bench.icc]
    if bench.paper_stoke is not None:
        programs.append(bench.paper_stoke)
    for prog in programs:
        for testcase in testcases:
            _assert_identical(prog, testcase)


def test_randomized_programs_bit_identical():
    """Fixed-seed fuzz over the proposal distribution's program space."""
    bench = benchmark("p14")
    testcases = _testcases(bench, count=3, seed=0)
    rng = random.Random(20260727)
    moves = MoveGenerator(bench.o0, SearchConfig(ell=12), rng)
    for _ in range(200):
        prog = moves.random_program()
        for testcase in testcases:
            _assert_identical(prog, testcase)


def test_mutated_chain_programs_bit_identical():
    """A proposal chain (shared instruction objects, warm caches)."""
    bench = benchmark("p18")
    testcases = _testcases(bench, count=2, seed=1)
    rng = random.Random(7)
    config = SearchConfig(ell=36)
    moves = MoveGenerator(bench.o0, config, rng)
    prog = bench.o0.compact().padded(config.ell)
    for _ in range(120):
        prog, _kind = moves.propose(prog)
        for testcase in testcases:
            _assert_identical(prog, testcase)


def test_pooled_state_reuse_matches_fresh_states():
    """CostFunction's pooled evaluation never leaks between candidates."""
    bench = benchmark("p12")
    testcases = _testcases(bench, count=6, seed=2)
    compiled_fn = CostFunction(testcases, bench.o0,
                               phase=Phase.OPTIMIZATION,
                               evaluator="compiled")
    reference_fn = CostFunction(testcases, bench.o0,
                                phase=Phase.OPTIMIZATION,
                                evaluator="reference")
    rng = random.Random(13)
    moves = MoveGenerator(bench.o0, SearchConfig(ell=24), rng)
    candidates = [bench.o0.compact().padded(24), bench.gcc.padded(24)]
    candidates += [moves.random_program() for _ in range(60)]
    for candidate in candidates:
        compiled = compiled_fn.evaluate(candidate)
        reference = reference_fn.evaluate(candidate)
        assert compiled.value == reference.value, str(candidate)
        assert compiled.eq_term == reference.eq_term


def test_jump_programs_take_both_branches():
    prog = parse_program("""
        cmpq rsi, rdi
        je .L1
        movq rsi, rax
        jmp .L2
        .L1
        movq rdi, rax
        .L2
        addq rdi, rax
    """)
    for rdi, rsi in ((5, 5), (5, 9)):
        state = MachineState()
        state.set_reg("rdi", rdi)
        state.set_reg("rsi", rsi)
        reference = state.copy()
        from repro.emulator.sandbox import Sandbox
        Emulator(reference, Sandbox.recorder()).run(prog)
        pooled = state.copy()
        compile_program(prog).run(pooled, Sandbox.recorder())
        assert _snapshot(reference) == _snapshot(pooled)


def test_step_limit_enforced():
    prog = parse_program("movq rdi, rax\nmovq rax, rbx\n")
    state = MachineState()
    state.mark_all_defined()
    from repro.emulator.sandbox import Sandbox
    with pytest.raises(StepLimitExceeded):
        compile_program(prog).run(state, Sandbox.recorder(), max_steps=1)


def test_write_set_covers_implicit_and_memory_effects():
    prog = parse_program("""
        pushq rdi
        mulq rsi
        popq rcx
    """)
    regs, flags, writes_memory = CompiledProgram(prog).write_set
    assert {"rsp", "rax", "rdx", "rcx"} <= set(regs)
    assert writes_memory


def test_write_set_decodes_in_fixed_order():
    prog = parse_program("""
        movq rdi, r9
        addq rsi, rax
        movq rax, 8(rdi)
    """)
    write_set = CompiledProgram(prog).write_set
    assert write_set == (("rax", "r9"), ("CF", "ZF", "SF", "OF", "PF"),
                         True)
    # one shared tuple per distinct write set
    assert CompiledProgram(prog).write_set is write_set


# -- skeleton sharing ---------------------------------------------------------

#: Two inputs per instruction: everything defined and the pointer inside
#: the sandbox, then a partly undefined state whose pointer faults.
_SKELETON_CASES = (
    Testcase(input_regs=(("rax", 0x8000_0000_0000_0001), ("rbx", 7),
                         ("rcx", 0xFFFF_FFFF), ("rdx", 3),
                         ("rdi", 0x1000)),
             input_memory=tuple((addr, addr * 37 & 255)
                                for addr in range(0x0FE0, 0x1020)),
             expected_regs=(), expected_memory=(),
             valid_addresses=frozenset(range(0x0FE0, 0x1020))),
    Testcase(input_regs=(("rax", 5), ("rdi", 0x9000)),
             input_memory=(), expected_regs=(), expected_memory=(),
             valid_addresses=frozenset(range(0x1000, 0x1010))),
)


@pytest.fixture
def cold_step_caches():
    """Empty the process-global step caches so compiles are counted."""
    for cache in (compiled._STRUCTURAL_CACHE, compiled._SEEN_ONCE,
                  compiled._SKELETONS):
        cache.clear()


def _hot_step(text):
    """A fresh instruction's step once it has passed the hot threshold."""
    instr = parse_instruction(text)
    for _ in range(compiled._HOT_THRESHOLD):
        step = compiled_step(instr)
    assert step.__code__.co_filename == "<repro-compiled>", text
    return instr, step


def _assert_step_matches_reference(instr, step):
    for testcase in _SKELETON_CASES:
        reference = testcase.initial_state()
        Emulator(reference, testcase.sandbox()).run(Program((instr,)))
        state = testcase.initial_state()
        step(state, testcase.sandbox())
        assert _snapshot(state) == _snapshot(reference), str(instr)


@pytest.mark.parametrize("pair", [
    ("addq rbx, rax", "addq rdx, rcx"),
    ("movq 8(rdi), rax", "movq -24(rdi), rax"),
    ("movq rax, 16(rdi)", "movq rax, -8(rdi)"),
], ids=" / ".join)
def test_equal_shapes_share_one_skeleton(cold_step_caches, pair):
    before = COUNTERS.skeletons_compiled
    (first, first_step), (second, second_step) = map(_hot_step, pair)
    assert COUNTERS.skeletons_compiled - before == 1
    assert first_step.__code__ is second_step.__code__
    assert first_step is not second_step      # each binds its literals
    _assert_step_matches_reference(first, first_step)
    _assert_step_matches_reference(second, second_step)


@pytest.mark.parametrize("pair", [
    ("shll 0, eax", "shll 3, eax"),          # known_zero specializes
    ("xorl eax, eax", "xorl ebx, eax"),      # the zeroing idiom
    ("addq rax, rax", "addq rbx, rax"),      # equal literals dedupe
], ids=" / ".join)
def test_different_recordings_never_share(cold_step_caches, pair):
    before = COUNTERS.skeletons_compiled
    (first, first_step), (second, second_step) = map(_hot_step, pair)
    assert COUNTERS.skeletons_compiled - before == 2
    assert first_step.__code__ is not second_step.__code__
    _assert_step_matches_reference(first, first_step)
    _assert_step_matches_reference(second, second_step)

