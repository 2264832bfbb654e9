"""Distributed execution: campaign makespan over TCP workers.

Runs the same multi-kernel sweep two ways — on the
serial executor (``--jobs 1``, one chain at a time) and distributed
over loopback TCP workers (``--workers W``) — and reports the campaign
wall-clock each deployment needs, at every kernel's best verified
ranking. The claim under test is the transport's contract: worker
count divides the campaign makespan while remaining **invisible in
results** — the distributed rankings must equal the serial ones bit
for bit.

Methodology: rankings are compared from *real* runs of both
deployments. Wall-clock is reported two ways, because the scaling
effect needs real cores to show up in raw time: the **modeled
makespan** replays the interleaved pool's plan-order grant sequence
over the measured per-chain durations with W workers (deterministic,
isolates the transport from machine noise and works on a 1-core CI
box, where loopback "workers" time-slice one core), and the
**measured seconds** of the real runs are included for reference.
The regression gate is rankings equality plus the modeled makespan
shrinking at every modeled worker count above one.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign_distributed.py \
        --kernels p01 p03 p18 p21 --chains 4 --workers 2 \
        --model-workers 1 2 4 8 --out BENCH_campaign_distributed.json

Exits nonzero if any kernel's best ranking differs between the serial
and distributed runs, or if a modeled worker count above one fails to
lower the modeled makespan.
"""

from __future__ import annotations

import argparse
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
    # suite runner's scheme), so chain durations are genuinely mixed
    length_factor = min(3.0, max(1.0, ell / 12))
    return SearchConfig(
        ell=ell, beta=1.0, seed=seed,
        optimization_proposals=int(1_500 * budget_scale() *
                                   length_factor),
        optimization_restarts=3,
        optimization_chains=chains,
        synthesis_chains=0,
        testcase_count=8)


def _campaigns(kernels: list[str], chains: int, seed: int,
               workers: int, job_timeout: float | None,
               progress=None) -> list[Campaign]:
    campaigns = []
    for index, kernel in enumerate(kernels):
        bench = get_benchmark(kernel)
        campaigns.append(Campaign(
            bench.o0, bench.spec, bench.annotations,
            config=_config(kernel, chains, seed + index),
            validator=Validator(),
            options=EngineOptions(jobs=1, workers=workers,
                                  job_timeout=job_timeout,
                                  progress=progress),
            name=kernel))
    return campaigns


def _best(result: StokeResult) -> tuple[str, int]:
    best = result.ranked[0]
    return (program_key(best.program), best.cycles)


class ChainTimer:
    """Progress listener measuring per-chain wall durations.

    Under the serial executor exactly one chain runs at a time, so the
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


def modeled_makespan(durations: dict[str, list[float]],
                     workers: int) -> float:
    """Campaign wall-clock with W workers draining the shared pool.

    Replays the interleaved pool's grant discipline — each kernel's
    next chain granted round-robin, in plan order — assigning every
    granted chain to the earliest-free worker. Worker count only
    changes *when* a chain runs, never which chains run, which is the
    modeled half of the bit-identity claim.
    """
    queues = {kernel: deque(chain)
              for kernel, chain in durations.items() if chain}
    order = deque(queues)
    grants: list[float] = []
    while order:
        kernel = order.popleft()
        grants.append(queues[kernel].popleft())
        if queues[kernel]:
            order.append(kernel)
    slots = [0.0] * workers
    for seconds in grants:
        index = min(range(workers), key=slots.__getitem__)
        slots[index] += seconds
    return max(slots) if grants else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="+",
                        default=list(DEFAULT_KERNELS))
    parser.add_argument("--chains", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2,
                        help="loopback workers for the real "
                             "distributed run")
    parser.add_argument("--model-workers", type=int, nargs="+",
                        default=[1, 2, 4, 8])
    parser.add_argument("--job-timeout", type=float, default=300.0)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out",
                        default="BENCH_campaign_distributed.json")
    args = parser.parse_args(argv)

    # real serial run (--jobs 1), timing every chain
    timer = ChainTimer()
    start = time.perf_counter()
    serial_results = run_campaigns(_campaigns(
        args.kernels, args.chains, args.seed, 0, None, progress=timer))
    serial_seconds = time.perf_counter() - start

    # real distributed run of the identical campaigns over loopback
    start = time.perf_counter()
    remote_results = run_campaigns(_campaigns(
        args.kernels, args.chains, args.seed, args.workers,
        args.job_timeout))
    remote_seconds = time.perf_counter() - start

    report: dict = {"kernels": {}, "workers": args.workers,
                    "chains": args.chains}
    rankings_equal = True
    for kernel, serial, remote in zip(args.kernels, serial_results,
                                      remote_results):
        equal = _best(serial) == _best(remote)
        rankings_equal = rankings_equal and equal
        chain_times = timer.durations.get(kernel, [])
        report["kernels"][kernel] = {
            "best_cycles": _best(remote)[1],
            "chains_scheduled": remote.chains_scheduled,
            "chain_seconds": [round(t, 3) for t in chain_times],
            "best_ranking_equal": equal,
        }
        verdict = "==" if equal else "!!"
        print(f"{kernel:>6}: best {_best(serial)[1]} {verdict} "
              f"{_best(remote)[1]} cycles, "
              f"{remote.chains_scheduled} chains, "
              f"{sum(chain_times):.1f}s of chain time")

    base = modeled_makespan(timer.durations, 1)
    scaling_holds = True
    report["modeled_makespan_seconds"] = {}
    for workers in sorted(set(args.model_workers)):
        makespan = modeled_makespan(timer.durations, workers)
        speedup = base / makespan if makespan else 0.0
        report["modeled_makespan_seconds"][str(workers)] = round(
            makespan, 3)
        if workers > 1 and makespan >= base:
            scaling_holds = False
        print(f"modeled makespan at workers={workers}: "
              f"{makespan:.1f}s ({speedup:.2f}x)")
    report["measured_serial_seconds"] = round(serial_seconds, 3)
    report["measured_distributed_seconds"] = round(remote_seconds, 3)
    report["best_rankings_equal"] = rankings_equal
    print(f"measured (this host): serial {serial_seconds:.1f}s, "
          f"distributed workers={args.workers} {remote_seconds:.1f}s "
          f"at {'equal' if rankings_equal else 'DIFFERENT'} "
          f"best rankings")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    if not rankings_equal:
        print("FAIL: distributed best ranking differs from serial",
              file=sys.stderr)
        return 1
    if not scaling_holds:
        print("FAIL: added modeled workers did not reduce the "
              "modeled campaign makespan", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
