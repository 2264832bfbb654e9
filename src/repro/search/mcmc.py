"""Metropolis-Hastings sampling over rewrites (Sections 3.2, 4.5).

Because the proposal distribution is symmetric, acceptance reduces to
the Metropolis ratio computed directly from the cost function:

    alpha = min(1, exp(-beta * (c(R*) - c(R))))

The *optimized acceptance computation* of Section 4.5 samples the
acceptance uniform p first, inverts the ratio to get the maximum cost
we could accept (Eq. 14),

    c(R*) < c(R) - log(p) / beta

and then evaluates testcases only until that bound is exceeded. The
sampler records the per-proposal testcase counts so Figure 5 can be
regenerated.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from repro.cost.function import CostFunction
from repro.search.moves import MoveGenerator
from repro.telemetry.chain import ChainTelemetry
from repro.telemetry.metrics import safe_rate
from repro.x86.program import Program


@dataclass
class ChainStats:
    """Counters and traces collected while a chain runs."""

    proposals: int = 0
    accepted: int = 0
    testcases_evaluated: int = 0
    seconds: float = 0.0
    cost_trace: list[tuple[int, int]] = field(default_factory=list)
    testcases_trace: list[tuple[int, float]] = field(default_factory=list)

    @property
    def proposals_per_second(self) -> float:
        """Inner-loop throughput, finite even for sub-resolution runs.

        A short chain can finish between two ticks of the clock
        (``seconds == 0`` with proposals run); ``safe_rate`` clamps the
        elapsed time instead of reporting a false 0.0.
        """
        return safe_rate(self.proposals, self.seconds)

    @property
    def testcases_per_proposal(self) -> float:
        if not self.proposals:
            return 0.0
        return self.testcases_evaluated / self.proposals


#: Zero-test-cost rewrites a chain keeps: the lowest-cost ones.
ZERO_COST_CAP = 64


@dataclass
class ChainResult:
    """Final state of one MCMC chain."""

    best_program: Program
    best_cost: int
    current_program: Program
    current_cost: int
    zero_cost: list[tuple[int, Program]]     # (cost, program), eq' == 0
    stats: ChainStats
    telemetry: ChainTelemetry | None = None


class MCMCSampler:
    """One Markov chain over fixed-length rewrites."""

    def __init__(self, cost_fn: CostFunction, moves: MoveGenerator,
                 start: Program, *, beta: float,
                 rng: random.Random,
                 early_termination: bool = True,
                 trace_every: int = 64,
                 telemetry: bool = True) -> None:
        self.cost_fn = cost_fn
        self.moves = moves
        self.beta = beta
        self.rng = rng
        self.early_termination = early_termination
        self.trace_every = trace_every
        # telemetry=False exists for the overhead benchmark
        # (benchmarks/bench_inner_loop.py); recording never touches the
        # rng, so the chain's decisions are identical either way
        self.telemetry = telemetry
        self.current = start
        result = cost_fn.evaluate(start)
        assert result.value is not None
        self.current_cost = result.value
        self.best = start
        self.best_cost = self.current_cost
        # (cost, program) pairs with eq' == 0, pruned to the best few —
        # the pool handed to the re-ranking step (Figure 9, stage 6)
        self.zero_cost: list[tuple[int, Program]] = []
        if result.eq_term == 0:
            self.zero_cost.append((self.current_cost, start))

    def _acceptance_bound(self, step: int, p: float) -> float:
        """Invert the Metropolis ratio for uniform ``p`` (Eq. 14).

        The maximum candidate cost this step would accept; strategy
        variants (greedy descent, annealing schedules) override this
        single decision point and inherit the rest of the chain.
        """
        return self.current_cost - math.log(max(p, 1e-300)) / self.beta

    def run(self, proposals: int, *,
            stop_at_zero: bool = False) -> ChainResult:
        """Run the chain for a fixed number of proposals.

        Args:
            proposals: the computational budget.
            stop_at_zero: end early once a zero-eq-cost rewrite appears
                (used by the synthesis phase).
        """
        stats = ChainStats()
        telemetry = ChainTelemetry() if self.telemetry else None
        start_time = time.perf_counter()
        window_testcases = 0
        window_proposals = 0
        step = -1
        for step in range(proposals):
            stats.proposals += 1
            candidate, kind = self.moves.propose(self.current)
            p = self.rng.random()
            bound = self._acceptance_bound(step, p)
            result = self.cost_fn.evaluate(
                candidate, bound=bound if self.early_termination else None)
            stats.testcases_evaluated += result.testcases_evaluated
            window_testcases += result.testcases_evaluated
            window_proposals += 1
            accept = (not result.exceeded and
                      result.value is not None and
                      result.value <= bound)
            previous_cost = self.current_cost
            if accept:
                stats.accepted += 1
                assert result.value is not None
                self.current = candidate
                self.current_cost = result.value
                if result.value < self.best_cost:
                    self.best = candidate
                    self.best_cost = result.value
                if result.eq_term == 0:
                    self.zero_cost.append((result.value, candidate))
                    if len(self.zero_cost) > 2 * ZERO_COST_CAP:
                        self.zero_cost.sort(key=lambda pair: pair[0])
                        del self.zero_cost[ZERO_COST_CAP:]
            if telemetry is not None:
                delta = (None if result.exceeded or result.value is None
                         else result.value - previous_cost)
                telemetry.record_proposal(
                    telemetry.move_row(kind.value),
                    accepted=accept, delta=delta,
                    bounded=result.exceeded,
                    testcases=result.testcases_evaluated,
                    step=step, cost=self.current_cost,
                    best=self.best_cost)
            if step % self.trace_every == 0:
                stats.cost_trace.append((step, self.current_cost))
                if window_proposals:
                    stats.testcases_trace.append(
                        (step, window_testcases / window_proposals))
                window_testcases = 0
                window_proposals = 0
            if stop_at_zero and self.zero_cost:
                break
        stats.seconds = time.perf_counter() - start_time
        if telemetry is not None:
            if step >= 0:
                telemetry.seal(step, self.current_cost, self.best_cost)
            telemetry.runtime["seconds"] = stats.seconds
        return ChainResult(
            best_program=self.best,
            best_cost=self.best_cost,
            current_program=self.current,
            current_cost=self.current_cost,
            zero_cost=sorted(self.zero_cost, key=lambda pair: pair[0]),
            stats=stats,
            telemetry=telemetry,
        )
