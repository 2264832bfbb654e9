"""Cross-kernel interleaving: campaign wall-clock on a mixed quartet.

Runs the same multi-chain campaign over a mixed fast/slow kernel
quartet both ways — sequentially (``Campaign.run`` per kernel, one
kernel's chains at a time) and interleaved (one ``run_campaigns``
sweep: every kernel's chain rounds granted round-robin into one shared
pool) — and reports the campaign
wall-clock each schedule needs, at every kernel's best verified
ranking. The claim under test is the cross-kernel scheduler's
contract: a lower campaign wall-clock tail (the pool stays saturated
instead of draining to each slow kernel's serial rounds), at
bit-identical best rankings.

Methodology: best rankings are compared from *real* runs of both
schedules. Wall-clock is reported two ways, because the scheduling
effect needs real cores to show up in raw time: the **modeled
makespan** replays each schedule's grant discipline over the measured
per-chain durations with ``--jobs`` workers (deterministic, isolates
the scheduler from machine noise and works on a 1-core CI box), and
the **measured seconds** of the real runs are included for reference
(they only separate when the host actually has >= --jobs cores; on a
single core every schedule degenerates to the sum of chain times).
The regression gate is rankings equality plus the modeled makespan.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign_interleave.py \
        --kernels p01 p03 p18 p21 --chains 4 --jobs 4 \
        --out BENCH_campaign_interleave.json

The default quartet mixes two small kernels (p01, p03) with two much
larger ones (p18, p21) whose chains take several times longer —
exactly the shape where a sequential sweep leaves slots idle. Exits
nonzero if interleaving does not lower the modeled makespan or any
kernel's best ranking differs.
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time
from collections import deque

from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.events import CHAIN_COMPLETED
from repro.engine.serialize import program_key
from repro.engine.sweep import run_campaigns
from repro.search.config import SearchConfig
from repro.search.stoke import StokeResult
from repro.suite.registry import benchmark as get_benchmark
from repro.suite.runner import budget_scale
from repro.verifier.validator import Validator

DEFAULT_KERNELS = ("p01", "p03", "p18", "p21")


def _config(kernel: str, chains: int, seed: int) -> SearchConfig:
    bench = get_benchmark(kernel)
    ell = min(50, max(8, len(bench.o0) + 4))
    # larger kernels get proportionally larger proposal budgets (the
    # suite runner's scheme), which is what makes the quartet "mixed"
    length_factor = min(3.0, max(1.0, ell / 12))
    return SearchConfig(
        ell=ell, beta=1.0, seed=seed,
        optimization_proposals=int(3_000 * budget_scale() *
                                   length_factor),
        optimization_restarts=4,
        optimization_chains=chains,
        synthesis_chains=0,
        testcase_count=8)


def _campaigns(kernels: list[str], chains: int, seed: int,
               budget: str, progress=None) -> list[Campaign]:
    campaigns = []
    for index, kernel in enumerate(kernels):
        bench = get_benchmark(kernel)
        campaigns.append(Campaign(
            bench.o0, bench.spec, bench.annotations,
            config=_config(kernel, chains, seed + index),
            validator=Validator(),
            options=EngineOptions(jobs=1, budget=budget,
                                  progress=progress),
            name=kernel))
    return campaigns


def _best(result: StokeResult) -> tuple[str, int]:
    best = result.ranked[0]
    return (program_key(best.program), best.cycles)


class ChainTimer:
    """Progress listener measuring per-chain wall durations.

    Under a serial executor exactly one chain runs at a time, so the
    time between consecutive chain completions is that chain's cost —
    the durations the makespan model replays.
    """

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self._last = time.perf_counter()

    def __call__(self, event):
        now = time.perf_counter()
        if event.event == CHAIN_COMPLETED:
            self.durations.setdefault(event.kernel, []).append(
                now - self._last)
        self._last = now


def modeled_makespan(durations: dict[str, list[float]], workers: int,
                     interleaved: bool) -> float:
    """Campaign wall-clock under one grant discipline.

    Each kernel is a serial chain of jobs (incremental budgets are a
    barrier per round). Sequential grants drain one kernel before the
    next starts, so the pool never holds more than one of its jobs;
    interleaved grants keep every kernel's next round eligible, served
    round-robin across ``workers`` slots.
    """
    if not interleaved:
        return sum(sum(chain) for chain in durations.values())
    remaining = {kernel: deque(chain)
                 for kernel, chain in durations.items() if chain}
    ready = deque(remaining)
    running: list[tuple[float, int, str]] = []
    now, free, tiebreak = 0.0, workers, 0
    while ready or running:
        while free and ready:
            kernel = ready.popleft()
            heapq.heappush(
                running,
                (now + remaining[kernel].popleft(), tiebreak, kernel))
            tiebreak += 1
            free -= 1
        now, _, kernel = heapq.heappop(running)
        free += 1
        if remaining[kernel]:
            ready.append(kernel)
    return now


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="+",
                        default=list(DEFAULT_KERNELS))
    parser.add_argument("--chains", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--budget", default="adaptive:stable=2")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out",
                        default="BENCH_campaign_interleave.json")
    args = parser.parse_args(argv)

    # real sequential run, timing every chain
    timer = ChainTimer()
    start = time.perf_counter()
    seq_results = [campaign.run() for campaign in _campaigns(
        args.kernels, args.chains, args.seed, args.budget,
        progress=timer)]
    seq_seconds = time.perf_counter() - start

    # real interleaved run of the identical campaigns
    start = time.perf_counter()
    int_results = run_campaigns(_campaigns(
        args.kernels, args.chains, args.seed, args.budget))
    int_seconds = time.perf_counter() - start

    report: dict = {"kernels": {}, "jobs": args.jobs,
                    "chains": args.chains, "budget": args.budget}
    rankings_equal = True
    for kernel, seq, inter in zip(args.kernels, seq_results,
                                  int_results):
        equal = _best(seq) == _best(inter)
        rankings_equal = rankings_equal and equal
        chain_times = timer.durations.get(kernel, [])
        report["kernels"][kernel] = {
            "best_cycles": _best(inter)[1],
            "chains_scheduled": inter.chains_scheduled,
            "chain_seconds": [round(t, 3) for t in chain_times],
            "best_ranking_equal": equal,
        }
        verdict = "==" if equal else "!!"
        print(f"{kernel:>6}: best {_best(seq)[1]} {verdict} "
              f"{_best(inter)[1]} cycles, "
              f"{inter.chains_scheduled} chains, "
              f"{sum(chain_times):.1f}s of chain time")

    seq_makespan = modeled_makespan(timer.durations, args.jobs, False)
    int_makespan = modeled_makespan(timer.durations, args.jobs, True)
    speedup = seq_makespan / int_makespan if int_makespan else 0.0
    report["modeled_sequential_seconds"] = round(seq_makespan, 3)
    report["modeled_interleaved_seconds"] = round(int_makespan, 3)
    report["modeled_speedup"] = round(speedup, 3)
    report["measured_sequential_seconds"] = round(seq_seconds, 3)
    report["measured_interleaved_seconds"] = round(int_seconds, 3)
    report["best_rankings_equal"] = rankings_equal
    print(f"modeled makespan at jobs={args.jobs}: sequential "
          f"{seq_makespan:.1f}s, interleaved {int_makespan:.1f}s "
          f"({speedup:.2f}x) at "
          f"{'equal' if rankings_equal else 'DIFFERENT'} "
          f"best rankings")
    print(f"measured (this host): sequential {seq_seconds:.1f}s, "
          f"interleaved {int_seconds:.1f}s")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    if not rankings_equal:
        print("FAIL: interleaved best ranking differs from sequential",
              file=sys.stderr)
        return 1
    if int_makespan >= seq_makespan:
        print("FAIL: interleaving did not reduce the modeled "
              "campaign makespan", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
