"""The full cost function c(R; T) (Eq. 2), as a weighted sum of terms.

The paper's c = eq + perf is the default instance of a more general
shape: a weighted sum of registered :class:`~repro.cost.terms.CostTerm`
objects. Static terms (latency, size, modeled cycles) are charged once
per candidate; per-testcase terms (correctness) accumulate inside the
testcase loop. Both search phases of Section 4.4 are supported:

* synthesis mode ignores the static terms entirely;
* optimization mode adds them, allowing temporary correctness
  violations while exploring shortcuts.

The evaluator supports bounded evaluation for the optimized acceptance
computation of Section 4.5: evaluation stops as soon as the running
cost exceeds the precomputed acceptance bound (Eq. 14). Two refinements
sharpen that loop:

* candidates run on a selectable *evaluator* — ``compiled`` (default)
  lowers the rewrite once via :mod:`repro.emulator.compile` and reuses
  a pooled machine state across testcases; ``reference`` is the
  original per-testcase interpreter. Both produce bit-identical states
  and therefore identical costs;
* testcases are visited most-discriminating-first, ordered by a
  deterministic per-testcase failure counter, so the Eq. 14 bound is
  usually exceeded within the first few testcases. Accept/reject
  decisions and final costs are unchanged (the total is a sum); only
  ``testcases_evaluated`` shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.cost.correctness import CostWeights
from repro.cost.terms import (CostTerm, DEFAULT_COST_TERMS, CostSpec,
                              DEFAULT_EVALUATOR, EVALUATORS, TermContext)
from repro.emulator.compile import compile_program
from repro.emulator.cpu import Emulator
from repro.emulator.state import MachineState
from repro.errors import SearchError
from repro.testgen.suite import input_key
from repro.testgen.testcase import Testcase
from repro.x86.program import Program


class Phase(Enum):
    """Which cost terms are active (Section 4.4)."""

    SYNTHESIS = "synthesis"
    OPTIMIZATION = "optimization"


@dataclass
class CostResult:
    """Outcome of evaluating one candidate rewrite.

    Attributes:
        value: the total cost, or None if evaluation terminated early
            because the bound was exceeded.
        eq_term: the per-testcase part (valid when value is not None);
            zero means the candidate passed every testcase.
        testcases_evaluated: how many testcases ran before stopping —
            the quantity plotted in Figure 5.
    """

    value: int | None
    eq_term: int
    testcases_evaluated: int

    @property
    def exceeded(self) -> bool:
        return self.value is None

    @property
    def correct_on_tests(self) -> bool:
        return self.value is not None and self.eq_term == 0


class CostFunction:
    """Evaluates c(R; T) over a testcase suite.

    The testcase list is copied on construction — counterexamples
    appended during search (which, as the paper notes, change the
    search landscape; that is intended) never mutate the caller's
    suite. ``terms`` takes (weight, unbound term) pairs, normally from
    :meth:`CostSpec.instantiate`; the default reproduces the paper's
    c = eq + perf exactly. Terms are bound to this function's target
    here, so instances must not be shared between cost functions.

    ``evaluator`` selects how candidates execute: ``"compiled"``
    (default) or ``"reference"``; see the module docstring.
    """

    def __init__(self, testcases: Sequence[Testcase], target: Program, *,
                 phase: Phase = Phase.SYNTHESIS,
                 weights: CostWeights | None = None,
                 improved: bool = True,
                 max_steps: int = 10_000,
                 terms: Sequence[tuple[float, CostTerm]] | None = None,
                 evaluator: str = DEFAULT_EVALUATOR) -> None:
        self.testcases = list(testcases)
        self.weights = weights or CostWeights()
        self.improved = improved
        self.phase = phase
        self.max_steps = max_steps
        if evaluator not in EVALUATORS:
            raise SearchError(
                f"unknown evaluator {evaluator!r} "
                f"(available: {', '.join(sorted(EVALUATORS))})")
        self.evaluator = evaluator
        # one pooled state per testcase, created lazily; _pool_dirty
        # remembers the write-set of the last program run on each pool
        # so the next reset only undoes what that run could have touched
        self._pools: list[MachineState | None] = \
            [None] * len(self.testcases)
        self._pool_dirty: list[tuple | None] = [None] * len(self.testcases)
        self._fail_counts = [0] * len(self.testcases)
        self._input_keys = {input_key(tc) for tc in self.testcases}
        if terms is None:
            terms = CostSpec(DEFAULT_COST_TERMS).instantiate()
        context = TermContext(target=target, weights=self.weights,
                              improved=self.improved)
        for _weight, term in terms:
            term.bind(context)
        self.terms = list(terms)
        self._static_terms = [(weight, term) for weight, term in terms
                              if not term.per_testcase]
        self._testcase_terms = [(weight, term) for weight, term in terms
                                if term.per_testcase]
        if not self._testcase_terms:
            # without a per-testcase term every candidate scores
            # eq_term == 0, so search would promote arbitrary programs
            # straight to the (expensive, and here unrefinable)
            # validator on every proposal
            raise SearchError(
                "cost spec needs at least one per-testcase term "
                "(e.g. correctness)")

    def add_testcase(self, testcase: Testcase) -> bool:
        """Append a counterexample to the suite; True if it was novel.

        Testcases are keyed by their *inputs*: a duplicate input would
        add per-proposal evaluation cost without distinguishing any new
        candidates (the validator can re-discover the same
        counterexample when refinement and hardened base suites
        overlap), so duplicates are dropped.
        """
        if input_key(testcase) in self._input_keys:
            return False
        self._input_keys.add(input_key(testcase))
        self.testcases.append(testcase)
        self._pools.append(None)
        self._pool_dirty.append(None)
        self._fail_counts.append(0)
        return True

    def _visit_order(self) -> list[int]:
        """Testcase indices, most-discriminating-first.

        The failure counters depend only on the (deterministic)
        sequence of evaluations this function has performed, so the
        order — and with it the ``testcases_evaluated`` statistics —
        is reproducible across runs, worker counts and resumes.
        """
        counts = self._fail_counts
        order = list(range(len(counts)))
        order.sort(key=lambda i: -counts[i])      # stable: ties by index
        return order

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, rewrite: Program,
                 bound: float | None = None) -> CostResult:
        """Compute c(rewrite), optionally stopping at ``bound``.

        With a bound (Eq. 14), evaluation is abandoned — and the
        proposal known rejected — once the running sum exceeds it.
        """
        total = 0
        if self.phase is Phase.OPTIMIZATION:
            for weight, term in self._static_terms:
                value = term.program_cost(rewrite)
                total += value if weight == 1 else int(value * weight)
        compiled = None
        if self.evaluator == "compiled":
            compiled = compile_program(rewrite)
        evaluated = 0
        eq_term = 0
        fail_counts = self._fail_counts
        for index in self._visit_order():
            if bound is not None and total > bound:
                return CostResult(value=None, eq_term=eq_term,
                                  testcases_evaluated=evaluated)
            testcase = self.testcases[index]
            if compiled is not None:
                state = self._pools[index]
                if state is None:
                    state = testcase.initial_state()
                    self._pools[index] = state
                else:
                    dirty = self._pool_dirty[index]
                    assert dirty is not None
                    testcase.undo_writes(state, *dirty)
                # recorded before running: a partial run (fault, step
                # limit) dirties a subset of the static write-set
                self._pool_dirty[index] = compiled.write_set
                compiled.run(state, testcase.sandbox(),
                             max_steps=self.max_steps)
            else:
                state = testcase.initial_state()
                emulator = Emulator(state, testcase.sandbox())
                emulator.run(rewrite, max_steps=self.max_steps)
            case_total = 0
            for weight, term in self._testcase_terms:
                value = term.testcase_cost(rewrite, state, testcase)
                # ceil, not truncate: a failing testcase (value > 0)
                # must never weight down to 0, or eq_term == 0 would
                # stop meaning "passed every testcase"
                case_total += value if weight == 1 \
                    else math.ceil(value * weight)
            if case_total:
                fail_counts[index] += 1
            total += case_total
            eq_term += case_total
            evaluated += 1
        if bound is not None and total > bound:
            return CostResult(value=None, eq_term=eq_term,
                              testcases_evaluated=evaluated)
        return CostResult(value=total, eq_term=eq_term,
                          testcases_evaluated=evaluated)
