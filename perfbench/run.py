"""The repo benchmark: one command per workload, metrics and checks.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``campaign``: kernels p01/p03/p14/p18/p21, the suite runner's search
  config at 4% of its proposal budget, two chains per kernel,
  interleaved and journaled, on the ``--jobs 2`` process pool;
* ``promote``: p01/p02/p04-p07, ten 300-proposal single-segment chains
  per kernel, journaled, on ``--workers 2`` TCP loopback workers;
* ``verify``: validator queries with known answers: every suite
  kernel's O0 listing against its gcc and icc listings (but mont/icc),
  then seeded single-move mutants of the p01-p25 gcc listings.

Each round of a workload runs in a fresh interpreter (``child.py``), a
closed loop with one client that waits for the whole round. With
``--trace 0`` the benchmark runs as many rounds as fit ``--seconds``
(a fixed count for a given ``--seconds``, so exact counts repeat),
each round on its own inputs derived from ``--seed``, plus set-up-only
rounds up to five set-up samples, and prints every end-to-end metric.
With ``--trace 1`` it runs one round three ways: on the workload's
parallel executor with the coordinator's engine layer traced, traced
with every chain in the benchmark's own process, and untraced in that
same arrangement (the difference is the tracing overhead); it prints
every per-layer metric. The round is round 0, or for ``promote`` the
first round whose parallel run ends within its deadline.

End-to-end metrics: ``setup_s`` (start of a round's interpreter to its
first chain granted or first query issued, median of five set-ups),
``wall_s`` (median round time after set-up), ``proposals_per_s``
(chain proposals over chain time; for ``verify``, the geometric mean
of the kernels' mutant-screening rates), ``ok_share`` (attempted
chains and queries that were neither lost nor answered wrongly or not
at all, a cut round's chains counted as not answered: one minus the
failed share) and ``peak_rss_mb`` (the lowest round peak, workers
included). Search quality and time to verdict are printed too, but
they vary with the seed beyond any bound a run of this size can hold.

The host is a share of a busy machine that slows each core on its own
by up to a fifth for tens of seconds, so every timed metric is scaled
to a reference host speed: while a round runs, this process times a
fixed piece of interpreter work (:func:`probe_ms`) on each core the
round runs on at every 0.1 s poll (``verify``, one process, runs on
one core), and the round's times are divided by (its rates multiplied
by) the probe's slowdown against :data:`REFERENCE_PROBE_MS`. The probe
is plain Python, independent of the program under test, so a change to
the program moves the scaled times as it moves the measured ones. The
measured times and each round's slowdown are printed beside the
metrics.

Every round checks its outputs (see ``workloads.py``), and each
round's exact counts must equal those of any earlier run of the same
code on the same seed (kept under ``.perfbench/fingerprints``) and, in
a traced run, across the three arrangements. Any failed check exits 1.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from workloads import digest, planned_chains

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("campaign", "promote", "verify")
#: Seconds one round takes at the reference speed (2 vCPUs): fixes the
#: round count of an untraced run (three rounds of each workload at
#: 30 s). A run reports the median of its rounds, so the validation
#: load of one round decides little.
SECONDS_PER_ROUND = {"campaign": 10.0, "promote": 9.0, "verify": 10.0}
#: A promote round still running after this many seconds is stopped and
#: its wall time read as this value: a seed's draw of a slow validator
#: query (a 314-variable p04 CNF took 19.5 s of SAT search, an
#: 85k-variable one 78 s; about one round in fifteen draws one) must
#: neither push a run past three minutes nor decide the median of its
#: rounds. Its chains count as attempted and failed
#: (``round-timeout``) in ``ok_share``.
ROUND_DEADLINE_S = {"promote": 45.0}
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150.0
CALIBRATION_LOOP = 3_000_000
#: The host-speed probe: plain interpreter work on this many items,
#: timed in this process's thread CPU time on each of the round's
#: cores at every 0.1 s poll. A round's slowdown is the mean over its
#: cores of the median probe time over the round's whole life, divided
#: by :data:`REFERENCE_PROBE_MS`.
PROBE_ITEMS = 2000
REFERENCE_PROBE_MS = 1.5
#: Per-layer metrics measured on the coordinator of the parallel round.
COORDINATOR_METRICS = (
    "engine.wait_s", "engine.submit_s", "engine.decode_s",
    "engine.journal_s", "engine.journal_records", "engine.retries",
    "engine.quarantined", "engine.frames", "engine.frame_bytes",
    "engine.transport_s")

UNITS = {
    "setup_s": "s", "wall_s": "s", "proposals_per_s": "1/s",
    "ok_share": "fraction", "peak_rss_mb": "MB",
    "quality.speedup_geomean": "x", "verifier.verdict_p50_ms": "ms",
    "verifier.verdict_p90_ms": "ms",
}


class BenchError(Exception):
    """A round that crashed, timed out or wrote no report."""


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not program."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    return time.perf_counter() - start


def probe_ms() -> float:
    """Thread CPU milliseconds of a fixed piece of interpreter work
    (string keys, tuples, a dict, a keyed sort): the speed of the core
    it runs on at this moment, blind to time the scheduler gives the
    round's own processes.

    On the core a one-process search loop ran on, its time tracked the
    loop's (correlation 0.88 over 45 one-second chunks, which varied
    by 10%); on the other core it did not (-0.08)."""
    start = time.thread_time_ns()
    table = {}
    for i in range(PROBE_ITEMS):
        table[str(i)] = (i, i * 2)
    sorted(table.items(), key=lambda item: item[1][1] % 97)
    return (time.thread_time_ns() - start) / 1e6


def _probe_cores(probes: dict[int, list[float]]) -> None:
    """One probe on each core in ``probes``, this process pinned to it."""
    allowed = os.sched_getaffinity(0)
    try:
        for cpu, times in probes.items():
            os.sched_setaffinity(0, {cpu})
            times.append(probe_ms())
    finally:
        os.sched_setaffinity(0, allowed)


def code_digest() -> str:
    """What the exact counts depend on: the program and the benchmark."""
    hasher = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.rglob("*.py")]):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _sample_peaks(pid: int, peaks: dict[int, int]) -> None:
    """Raise ``peaks[p]`` to the peak resident size (``VmHWM``, kB) of
    ``pid`` and each of its descendants."""
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    stack.extend(int(child) for child in fh.read().split())
            with open(f"/proc/{current}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peaks[current] = max(peaks.get(current, 0),
                                             int(line.split()[1]))
                        break
        except (OSError, ValueError):
            continue                    # exited while we looked


class Round(NamedTuple):
    """What :func:`run_child` saw of one round."""

    report: dict | None        # None: cut at its deadline
    start: float               # ``time.monotonic`` at launch
    peak_mb: float
    slowdown: float            # median probe time / reference


def run_child(workload: str, seed: int, index: int, mode: str, *,
              serial: bool, work: Path, deadline: float | None = None
              ) -> Round:
    """Run one round in a fresh interpreter.

    Besides its report and start time, returns the peak resident size
    of its process tree in MB (the sum over the round's processes —
    the round itself, pool or TCP workers — of each one's own peak,
    sampled every 0.1 s) and the host's slowdown while it ran, from a
    probe at each sample. A round still running after ``deadline``
    seconds is stopped and reports None.
    """
    shutil.rmtree(work, ignore_errors=True)
    (work / "verdicts").mkdir(parents=True)
    out = work / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE / "hooks")])
    if workload != "verify":
        env["PERFBENCH_VERDICTS"] = str(work / "verdicts")
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--round", str(index), "--mode", mode,
               "--dir", str(work), "--out", str(out)]
    if serial:
        command.append("--serial")
    # the host slows each core on its own, so the probe runs on the
    # cores the round runs on, and a one-process round gets one core
    cpus = sorted(os.sched_getaffinity(0))
    if workload == "verify":
        cpus = cpus[:1]
    peaks: dict[int, int] = {}
    probes: dict[int, list[float]] = {cpu: [] for cpu in cpus}
    cut = False
    with open(work / "log.txt", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            command, env=env, cwd=ROOT, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        try:
            while True:
                try:
                    proc.wait(timeout=0.1)
                    break
                except subprocess.TimeoutExpired:
                    _sample_peaks(proc.pid, peaks)
                    _probe_cores(probes)
                elapsed = time.monotonic() - start
                if deadline is not None and elapsed > deadline:
                    cut = True
                    break
                if elapsed > CHILD_TIMEOUT:
                    raise BenchError(f"{workload} round {index} ({mode}) "
                                     f"ran past {CHILD_TIMEOUT:.0f} s")
        finally:
            if proc.poll() is None or mode == "setup":
                # the whole session: pool and TCP workers included
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
    peak_mb = sum(peaks.values()) / 1024
    if not probes[cpus[0]]:
        _probe_cores(probes)
    slowdown = statistics.mean(statistics.median(times)
                               for times in probes.values()) \
        / REFERENCE_PROBE_MS
    if cut:
        return Round(None, start, peak_mb, slowdown)
    if proc.returncode != 0 or not out.exists():
        tail = (work / "log.txt").read_text(errors="replace")[-3000:]
        raise BenchError(f"{workload} round {index} ({mode}) exited "
                         f"{proc.returncode}:\n{tail}")
    return Round(json.loads(out.read_text()), start, peak_mb, slowdown)


def check_fingerprint(workload: str, seed: int, index: int, counts: dict,
                      code: str, problems: list[str]) -> None:
    """Exact counts of a (seed, round) must repeat under the same code."""
    path = STATE / "fingerprints" / f"{workload}-{seed}-{index}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored["code"] == code:
            if stored["counts"] != counts:
                problems.append(
                    f"round {index}: exact counts differ from an "
                    f"earlier run of the same code:\n  then "
                    f"{json.dumps(stored['counts'], sort_keys=True)}\n"
                    f"  now  {json.dumps(counts, sort_keys=True)}")
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": code, "counts": counts}))


def quality(reports: list[dict]) -> dict:
    """Search quality and time to verdict, pooled over rounds.

    These vary with the seed far more than any bound allows on a run
    of this size (the campaign validates only a few dozen candidates),
    so they are reported, with their sample counts, but not gated.
    """
    verdicts = sorted(ms for r in reports for ms in r["verdict_ms"])
    speedups = [s for r in reports for s in r["speedups"]]
    p90 = (statistics.quantiles(verdicts, n=10)[8] if len(verdicts) > 1
           else sum(verdicts))
    return {
        "speedup_geomean": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)),
        "kernel_samples": len(speedups),
        "verdict_p50_ms": statistics.median(verdicts) if verdicts else 0.0,
        "verdict_p90_ms": p90,
        "verdict_samples": len(verdicts),
        "verdict_p90_beyond": sum(ms > p90 for ms in verdicts),
    }


def measure(workload: str, seed: int, seconds: int,
            run: Path) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics over a fixed round count."""
    count = max(1, round(seconds / SECONDS_PER_ROUND[workload]))
    deadline = ROUND_DEADLINE_S.get(workload)
    rounds, tallies, setups, walls, rates = [], [], [], [], []
    for index in range(count):
        child = run_child(workload, seed, index, "run", serial=False,
                          deadline=deadline, work=run / f"round-{index}")
        rounds.append(child)
        if child.report is None:
            walls.append(deadline / child.slowdown)
            # the cut round's chains: attempted, none completed
            chains = planned_chains(workload)
            tallies.append({"attempted": chains, "failed": 0,
                            "incomplete": {"round-timeout": chains}})
            continue
        tallies.append(child.report)
        setups.append(_setup(child))
        walls.append(_wall(child))
        rates.append(child.report["proposals_per_s"] * child.slowdown)
    reports = [child.report for child in rounds if child.report]
    if not reports:
        raise BenchError(f"every {workload} round ran past {deadline} s")
    index = count
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup(run_child(workload, seed, index, "setup",
                                       serial=False,
                                       work=run / f"setup-{index}")))
        index += 1
    attempted = sum(r["attempted"] for r in tallies)
    incomplete = sum(n for r in tallies for n in r["incomplete"].values())
    failed = sum(r["failed"] for r in tallies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "proposals_per_s": statistics.median(rates),
        "ok_share": (attempted - incomplete - failed) / attempted,
        # a seed's draw of a large validator query raises one round's
        # peak; a program that needs more memory raises every round's
        "peak_rss_mb": min(c.peak_mb for c in rounds),
    }
    detail = {
        "rounds": count, "rounds_cut": count - len(reports),
        "host_slowdown": [round(c.slowdown, 3) for c in rounds],
        "measured_wall_s": [round(c.report["done_mark"]
                                  - c.report["setup_mark"], 3)
                            for c in rounds if c.report],
        "measured_rates": [round(r["proposals_per_s"], 1)
                           for r in reports],
        "setup_samples": len(setups),
        **quality(reports),
        "failed_share": (incomplete + failed) / attempted,
        "attempted": attempted, "failed": failed,
        "incomplete": _tally(tallies),
        "counts": {r["round"]: r["counts"] for r in reports},
    }
    return metrics, detail


def traced(workload: str, seed: int, run: Path,
           problems: list[str]) -> tuple[dict, dict]:
    """The traced run: per-layer metrics of one round."""
    search = workload != "verify"
    deadline = ROUND_DEADLINE_S.get(workload)
    index, parallel = 0, None
    if search:
        for index in range(3):
            parallel = run_child(workload, seed, index, "coordinator",
                                 serial=False, deadline=deadline,
                                 work=run / "parallel").report
            if parallel is not None:
                break
        else:
            raise BenchError(f"no {workload} round ended within "
                             f"{deadline} s")
    traced_child = run_child(workload, seed, index, "trace", serial=True,
                             work=run / "traced")
    plain_child = run_child(workload, seed, index, "run", serial=True,
                            work=run / "untraced")
    traced_report, plain = traced_child.report, plain_child.report
    reports = [traced_report, plain]
    layers = dict(traced_report["layers"])
    if search:
        reports.append(parallel)
        layers.update({name: parallel["layers"][name]
                       for name in COORDINATOR_METRICS})
        if parallel["counts"] != traced_report["counts"]:
            problems.append(
                "the parallel round's counts or rankings differ from "
                "the serial traced round's:\n  parallel "
                f"{json.dumps(parallel['counts'], sort_keys=True)}\n"
                f"  serial   "
                f"{json.dumps(traced_report['counts'], sort_keys=True)}")
    if plain["counts"] != traced_report["counts"]:
        problems.append("tracing changed the round's exact counts")

    # from the last untraced round: the parallel one where there is one
    untraced = quality(reports[-1:])
    layers["quality.speedup_geomean"] = untraced["speedup_geomean"]
    layers["verifier.verdict_p50_ms"] = untraced["verdict_p50_ms"]
    layers["verifier.verdict_p90_ms"] = untraced["verdict_p90_ms"]
    layers["verifier.spurious_refutations"] = \
        traced_report["incomplete"].get("spurious", 0)
    layers["trace.overhead_ratio"] = (_wall(traced_child)
                                      / _wall(plain_child) - 1)
    layers["trace.unattributed_ratio"] = (traced_report["root_self_s"]
                                          / traced_report["root_s"])
    detail = {
        "traced_wall_s": _wall(traced_child),
        "untraced_wall_s": _wall(plain_child),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "incomplete": _tally(reports),
        "round": index,
        "counts": {index: traced_report["counts"]},
        "spans": str((run / "traced" / "spans.json").relative_to(ROOT)),
    }
    return layers, detail


def _setup(child: Round) -> float:
    """A round's set-up time, scaled to the reference host speed."""
    return (child.report["setup_mark"] - child.start) / child.slowdown


def _wall(child: Round) -> float:
    """A round's time after set-up, scaled to the reference host speed."""
    return (child.report["done_mark"] - child.report["setup_mark"]) \
        / child.slowdown


def _tally(reports: list[dict]) -> dict[str, int]:
    tally: dict[str, int] = {}
    for report in reports:
        for verdict, n in report["incomplete"].items():
            tally[verdict] = tally.get(verdict, 0) + n
    return dict(sorted(tally.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    calibration = host_calibration()
    code = code_digest()
    run = STATE / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(run, ignore_errors=True)    # no report of an older run
    problems: list[str] = []
    try:
        if args.trace:
            metrics, detail = traced(args.workload, args.seed, run,
                                     problems)
            metrics["host.calib_s"] = calibration
        else:
            metrics, detail = measure(args.workload, args.seed,
                                      args.seconds, run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for index, counts in detail["counts"].items():
        check_fingerprint(args.workload, args.seed, index, counts, code,
                          problems)
    for report_dir in sorted(run.glob("*/report.json")):
        problems.extend(json.loads(report_dir.read_text())
                        .get("hard_failures", []))

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"host.calib_s={calibration:.3f}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit_of(name)}")
    for name, value in detail.items():
        if name != "counts":
            print(f"  {name:<32} {value}")
    print(f"  {'counts':<32} {digest(detail['counts'])}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{run.name}.json").write_text(
        json.dumps({"result": result, "detail": detail,
                    "problems": problems, "host.calib_s": calibration},
                   indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
