"""Campaign planning: an incremental job source, one chain at a time.

The decomposition mirrors the serial pipeline exactly — synthesis
chains first, then one optimization chain per (chain index, starting
program) pair — including the per-job seed scheme, so a campaign with
any worker count retraces the same chains the one-process pipeline
would run. Job ids are stable functions of the plan position, which is
what lets a resumed campaign skip exactly the chains it already ran.

Since the adaptive-budget work the optimization wave is *generated*,
not precomputed: :func:`optimization_rounds` yields one chain's jobs at
a time so the campaign can consult its stopping rule between chains and
simply stop consuming the generator once the ranking has stabilized.
:func:`optimization_jobs` (the full plan, used by fixed budgets and
tests) is defined as the concatenation of those rounds, so the two
views can never disagree about ids or seeds.

A *sweep* of many kernels shares one worker pool: the driver in
:mod:`repro.engine.sweep` grants every kernel's rounds in round-robin
order. That only reorders *grants* across kernels — each kernel's own
rounds keep their plan order, ids, and seeds — which is why a sweep is
bit-identical to running its kernels one at a time.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.jobs import ChainJob, OPTIMIZATION, SYNTHESIS
from repro.search.config import SearchConfig
from repro.x86.program import Program

SYNTHESIS_SEED_BASE = 1000
OPTIMIZATION_SEED_BASE = 2000
OPTIMIZATION_CHAIN_STRIDE = 97


def synthesis_jobs(config: SearchConfig) -> list[ChainJob]:
    """Plan the synthesis wave: one job per configured chain."""
    return [
        ChainJob(job_id=f"synth-{chain:03d}", kind=SYNTHESIS,
                 seed=config.seed + SYNTHESIS_SEED_BASE + chain)
        for chain in range(config.synthesis_chains)
    ]


def optimization_round(config: SearchConfig, starts: list[Program],
                       chain: int) -> list[ChainJob]:
    """One optimization chain's jobs: chain ``chain`` over every start."""
    jobs: list[ChainJob] = []
    for index, start in enumerate(starts):
        seed = (config.seed + OPTIMIZATION_SEED_BASE +
                OPTIMIZATION_CHAIN_STRIDE * chain + index)
        jobs.append(ChainJob(
            job_id=f"opt-c{chain:03d}-s{index:03d}",
            kind=OPTIMIZATION, seed=seed, start=start))
    return jobs


def optimization_rounds(config: SearchConfig,
                        starts: list[Program]) \
        -> Iterator[list[ChainJob]]:
    """Generate the optimization wave chain by chain.

    The campaign consumes rounds until its stopping rule trips (or the
    configured chain count runs out); a round left ungenerated is a
    chain never scheduled.
    """
    for chain in range(config.optimization_chains):
        yield optimization_round(config, starts, chain)


def optimization_jobs(config: SearchConfig,
                      starts: list[Program]) -> list[ChainJob]:
    """The full optimization plan: chains x starting programs."""
    return [job for round_jobs in optimization_rounds(config, starts)
            for job in round_jobs]

