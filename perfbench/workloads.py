"""One round of each workload, and the checks on its outputs.

A round is the workload's fixed unit of work, run inside a fresh
interpreter (see ``child.py``) so no process-global cache carries over
from an earlier round. Every input of a round — kernel seeds, testcase
seeds, the mutant draw — is derived from the run's ``--seed`` and the
round's index, so a (seed, round) pair always does the same work and
must reproduce the same exact counts.

Known answers never come from the validator under test: a proof is
checked against the reference emulator on random testcases, and a
refutation is checked by replaying its counterexample in the reference
emulator.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

#: Kernels of each search workload, in campaign order. ``promote``
#: takes kernels whose promotions validate in under about 1.3 s each
#: (8 seeds x 10 chains per kernel): a p03 chain drew a 20 s query and
#: a p14 one a 12 s query, and a round's wall time would follow such
#: draws, not the program.
SEARCH_KERNELS = {
    "campaign": ("p01", "p03", "p14", "p18", "p21"),
    "promote": ("p01", "p02", "p04", "p05", "p06", "p07"),
}
#: ``campaign``: chains per kernel, and the share of the suite runner's
#: per-chain proposal budget each chain runs.
CAMPAIGN_CHAINS = 2
CAMPAIGN_BUDGET_SHARE = 0.04
#: ``promote``: many short single-segment chains per kernel.
PROMOTE_CHAINS = 10
PROMOTE_PROPOSALS = 300
#: ``verify``: single-move proposals screened per kernel, and how many
#: of them become validator queries (half that pass every testcase,
#: half that fail one).
SCREENED_PER_KERNEL = 200
MUTANTS_PER_KERNEL = 2
#: SAT conflict budget of a mutant query (the listing pairs keep the
#: validator's default); a query that runs out counts as failed.
MUTANT_CONFLICTS = 300
#: Testcases per kernel for screening and for the output checks.
CHECK_TESTCASES = 32
#: Listing pairs left out of ``verify``: the mont/icc proof alone took
#: 31 of a round's 45 s (2 vCPUs), one long sample whose time follows
#: the host's drift over half a minute, not the program. mont/gcc (a
#: spurious refutation) stays.
SKIPPED_PAIRS = frozenset({("mont", "icc")})


def planned_chains(workload: str) -> int:
    """Chains one round of a search workload schedules."""
    per_kernel = (CAMPAIGN_CHAINS if workload == "campaign"
                  else PROMOTE_CHAINS)
    return per_kernel * len(SEARCH_KERNELS[workload])


def derive(seed: int, *parts) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``parts``."""
    text = json.dumps([seed, *parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") >> 1


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class SetupDone(Exception):
    """Ends a set-up-only round at its set-up mark."""


class Marks:
    """The end of set-up (first chain granted or first query issued)
    and the end of the round's work, as ``time.monotonic`` readings,
    which are comparable across processes on one host."""

    def __init__(self, *, setup_only: bool) -> None:
        self.setup_only = setup_only
        self.setup: float | None = None
        self.done: float | None = None
        self.on_done = None

    def mark_setup(self) -> None:
        if self.setup is None:
            self.setup = time.monotonic()
            if self.setup_only:
                raise SetupDone

    def mark_done(self) -> None:
        self.done = time.monotonic()
        if self.on_done is not None:
            self.on_done()

    def install_engine_hooks(self) -> None:
        """Mark set-up at the first grant: after the first ``submit``
        of a local executor (which forks the pool), or after the first
        grant frame a TCP coordinator sends (after worker spawn and
        handshake)."""
        import repro.engine.remote as remote
        from repro.engine.executor import ProcessPoolExecutor, SerialExecutor
        from repro.engine.transport import GRANT

        marks = self
        for executor in (SerialExecutor, ProcessPoolExecutor):
            submit = executor.submit

            def marked_submit(self, kernel, jobs, _submit=submit):
                added = _submit(self, kernel, jobs)
                marks.mark_setup()
                return added

            executor.submit = marked_submit
        send = remote.send_frame

        def marked_send(sock, frame):
            send(sock, frame)
            if frame.get("type") == GRANT:
                marks.mark_setup()

        remote.send_frame = marked_send


# -- reference-emulator checks -----------------------------------------------

def outputs_match(program, testcase) -> bool:
    """Does ``program`` reproduce ``testcase``'s recorded outputs in the
    reference emulator (without a division fault)?"""
    from repro.emulator.cpu import Emulator
    state = testcase.initial_state()
    Emulator(state, testcase.sandbox()).run(program)
    if state.events.sigfpe:
        return False
    if any(state.get_reg(name) != value
           for name, value in testcase.expected_regs):
        return False
    return all(state.memory.get(addr, 0) == byte
               for addr, byte in testcase.expected_memory)


def replay_refutation(target, rewrite, spec, counterexample) -> str:
    """``confirmed``, ``spurious`` (equal outputs on the counterexample)
    or ``target-faults`` (the target faults on it)."""
    from repro.errors import EmulationError
    from repro.testgen.annotations import Annotations
    from repro.testgen.generator import TestcaseGenerator
    generator = TestcaseGenerator(target, spec, Annotations())
    try:
        testcase = generator.from_counterexample(counterexample)
    except EmulationError:
        return "target-faults"
    return "spurious" if outputs_match(rewrite, testcase) else "confirmed"


def _testcases(bench, seed: int):
    from repro.testgen.generator import TestcaseGenerator
    return TestcaseGenerator(bench.o0, bench.spec, bench.annotations,
                             seed=seed).generate(CHECK_TESTCASES)


class Outcome:
    """What a round reports back: metrics inputs, counts, failures."""

    def __init__(self) -> None:
        self.verdict_ms: list[float] = []
        self.speedups: list[float] = []
        self.proposals_per_s = 0.0
        self.attempted = 0
        self.incomplete: dict[str, int] = {}     # validator known gaps
        self.failed = 0                          # operations lost
        self.hard_failures: list[str] = []       # wrong answers
        self.counts: dict = {}

    def note_verdict(self, verdict: str) -> None:
        if verdict not in ("proven", "confirmed"):
            self.incomplete[verdict] = self.incomplete.get(verdict, 0) + 1

    def to_json(self, marks: Marks) -> dict:
        return {
            "setup_mark": marks.setup, "done_mark": marks.done,
            "verdict_ms": self.verdict_ms, "speedups": self.speedups,
            "proposals_per_s": self.proposals_per_s,
            "attempted": self.attempted, "incomplete": self.incomplete,
            "failed": self.failed, "hard_failures": self.hard_failures,
            "counts": self.counts,
        }


# -- campaign and promote ------------------------------------------------------

def search_round(workload: str, seed: int, index: int, *,
                 parallel: bool, run_dir: Path, verdict_dir: Path,
                 marks: Marks) -> Outcome:
    """One interleaved, journaled campaign over the workload's kernels.

    ``parallel`` selects the workload's own executor (the ``--jobs 2``
    pool for ``campaign``, ``--workers 2`` TCP loopback workers for
    ``promote``); otherwise every chain runs in this process.
    """
    from repro.api.session import Session
    from repro.api.targets import Target
    from repro.engine.campaign import EngineOptions
    from repro.engine.serialize import program_key
    from repro.engine.sweep import run_campaigns
    from repro.suite.registry import benchmark
    from repro.suite.runner import search_config
    from repro.verifier.validator import Validator

    benches = [benchmark(name) for name in SEARCH_KERNELS[workload]]
    campaigns = []
    for bench in benches:
        kernel_seed = derive(seed, index, bench.name)
        if workload == "campaign":
            config = search_config(bench, seed=kernel_seed,
                                   chains=CAMPAIGN_CHAINS)
            config = replace(config, optimization_proposals=int(
                config.optimization_proposals * CAMPAIGN_BUDGET_SHARE))
            options = EngineOptions(jobs=2 if parallel else 1,
                                    run_dir=run_dir / bench.name,
                                    interleave=True)
        else:
            config = search_config(bench, seed=kernel_seed,
                                   chains=PROMOTE_CHAINS)
            config = replace(config,
                             optimization_proposals=PROMOTE_PROPOSALS,
                             optimization_restarts=1)
            options = EngineOptions(workers=2 if parallel else 0,
                                    run_dir=run_dir / bench.name,
                                    interleave=True)
        target = Target(program=bench.o0, spec=bench.spec,
                        annotations=bench.annotations, name=bench.name)
        campaigns.append(Session(target, config=config,
                                 validator=Validator(),
                                 engine=options).campaign())
    results = run_campaigns(campaigns)
    marks.mark_done()

    out = Outcome()
    chain_seconds = 0.0
    counts = {"proposals": 0, "testcases": 0, "accepted": 0,
              "validations": 0, "chains": 0, "rankings": {}}
    for bench, result in zip(benches, results):
        phases = result.synthesis + result.optimization
        for phase in phases:
            if phase.chain is not None:
                stats = phase.chain.stats
                counts["proposals"] += stats.proposals
                counts["testcases"] += stats.testcases_evaluated
                counts["accepted"] += stats.accepted
                chain_seconds += stats.seconds
            counts["validations"] += phase.validations
        counts["chains"] += result.chains_scheduled
        counts["rankings"][bench.name] = [
            result.rewrite_cycles if result.verified else None,
            digest([[r.cycles, program_key(r.program)]
                    for r in result.ranked])]
        out.attempted += result.chains_scheduled
        out.failed += result.chains_quarantined
        out.speedups.append(
            result.target_cycles / result.rewrite_cycles
            if result.verified and result.rewrite_cycles else 1.0)
        _check_rewrites(bench, result, derive(seed, index, bench.name,
                                              "replay"), out)
    # inner-loop throughput over chain time, as StokeResult reports it
    out.proposals_per_s = counts["proposals"] / chain_seconds
    _read_verdicts(verdict_dir, counts, out)
    out.counts = counts
    return out


def _check_rewrites(bench, result, check_seed: int, out: Outcome) -> None:
    """Every verified rewrite must reproduce the target's outputs on
    fresh testcases (seeded apart from the search's own)."""
    from repro.engine.serialize import program_key
    programs = {}
    for phase in result.synthesis + result.optimization:
        for program in phase.verified:
            programs.setdefault(program_key(program), program)
    if result.verified and result.rewrite is not None:
        programs.setdefault(program_key(result.rewrite), result.rewrite)
    if not programs:
        return
    testcases = _testcases(bench, check_seed)
    for program in programs.values():
        if not all(outputs_match(program, tc) for tc in testcases):
            out.hard_failures.append(
                f"{bench.name}: a verified rewrite differs from the "
                f"target on fresh testcases:\n{program}")


def _read_verdicts(verdict_dir: Path, counts: dict, out: Outcome) -> None:
    """Fold in the per-query records the validator hook wrote, and
    replay every refutation's counterexample."""
    from repro.engine.serialize import program_from_json, spec_from_json
    from repro.verifier.validator import Counterexample
    records = []
    for path in sorted(verdict_dir.glob("*.jsonl")):
        records.extend(json.loads(line)
                       for line in path.read_text().splitlines())
    if len(records) != counts["validations"]:
        out.hard_failures.append(
            f"the validator hook saw {len(records)} queries, the "
            f"campaign reports {counts['validations']}")
    counts["cnf_vars"] = sum(r.get("vars", 0) for r in records)
    counts["cnf_clauses"] = sum(r.get("clauses", 0) for r in records)
    counts["refuted"] = sum(r["verdict"] == "refuted" for r in records)
    # the simplifier folded the difference to 0: no CNF was built
    counts["short_circuits"] = sum(
        r["verdict"] == "proven" and not r["vars"] for r in records)
    for record in records:
        out.attempted += 1
        out.verdict_ms.append(record["ms"])
        verdict = record["verdict"]
        if verdict == "refuted":
            replay = record["replay"]
            verdict = replay_refutation(
                program_from_json(replay["target"]),
                program_from_json(replay["rewrite"]),
                spec_from_json(replay["spec"]),
                Counterexample(registers=replay["registers"],
                               memory=dict(replay["memory"])))
        out.note_verdict(verdict)


# -- verify ------------------------------------------------------------------------

def verify_round(seed: int, index: int, *, marks: Marks) -> Outcome:
    """Validator queries with known answers, without search or engine.

    First every suite kernel's O0 listing against its gcc and icc
    listings (but :data:`SKIPPED_PAIRS`), then seeded single-move
    mutants of the p01-p25 gcc
    listings. Mutants are drawn with the search's move generator and
    screened on the kernel's testcases with the cost function; half of
    each kernel's queries pass every testcase (only the validator can
    tell them apart), half fail one. Mutant queries run under a small
    conflict budget, so one seed's draw of a slow query (a p25 mutant
    can take a minute) cannot swamp the run; running out counts as a
    failed query.
    """
    from repro.cost.function import CostFunction, Phase
    from repro.engine.serialize import program_key
    from repro.errors import ReproError
    from repro.search.config import SearchConfig
    from repro.search.moves import MoveGenerator
    from repro.suite.registry import all_benchmarks
    from repro.verifier.validator import Validator

    benches = all_benchmarks()
    queries = [(bench, kind, getattr(bench, kind).compact())
               for bench in benches for kind in ("gcc", "icc")
               if (bench.name, kind) not in SKIPPED_PAIRS]
    for bench in benches:
        bench.o0                         # parse and lower up front
    out = Outcome()
    results = []

    def ask(bench, rewrite, validator):
        marks.mark_setup()
        start = time.perf_counter()
        try:
            result = validator.validate(bench.o0, rewrite, bench.spec)
        except ReproError as exc:
            result = exc
        out.verdict_ms.append((time.perf_counter() - start) * 1e3)
        results.append(result)

    validator = Validator()
    for bench, _kind, listing in queries:
        ask(bench, listing, validator)
    validator = Validator(max_conflicts=MUTANT_CONFLICTS)
    rates = []
    testcases_run = 0
    for bench in benches:
        if not bench.name.startswith("p"):
            continue
        rng = random.Random(derive(seed, index, bench.name, "mutants"))
        gcc = bench.gcc.compact()
        cost_fn = CostFunction(
            _testcases(bench, derive(seed, index, bench.name, "tests")),
            bench.o0, phase=Phase.SYNTHESIS)
        moves = MoveGenerator(gcc, SearchConfig(ell=len(gcc)), rng)
        passing, failing = {}, {}
        start = time.perf_counter()
        for _ in range(SCREENED_PER_KERNEL):
            mutant, _move = moves.propose(gcc)
            result = cost_fn.evaluate(mutant)
            testcases_run += result.testcases_evaluated
            pool = passing if result.eq_term == 0 else failing
            pool.setdefault(program_key(mutant), mutant)
        rates.append(SCREENED_PER_KERNEL / (time.perf_counter() - start))
        passing.pop(program_key(gcc), None)
        half = MUTANTS_PER_KERNEL // 2
        for pool in (passing, failing):
            keys = sorted(pool)
            for key in rng.sample(keys, min(half, len(keys))):
                queries.append((bench, "mutant", pool[key]))
                ask(bench, pool[key], validator)
    marks.mark_done()
    # the geometric mean over kernels: kernels differ in size, and a
    # mutant that loops to the step limit makes its kernel's screening
    # slow, whatever the host (a median jumps between kernels by seed)
    out.proposals_per_s = statistics.geometric_mean(rates)
    _check_verdicts(seed, index, queries, results, out)
    answers = [r for r in results if not isinstance(r, Exception)]
    out.counts = {
        "queries": len(queries),
        "screened": len(rates) * SCREENED_PER_KERNEL,
        "testcases": testcases_run,
        "mutants": digest([program_key(rewrite)
                           for _b, kind, rewrite in queries
                           if kind == "mutant"]),
        "verdicts": dict(sorted(out.incomplete.items())),
        "proofs": sum(r.equivalent for r in answers),
        "refuted": sum(not r.equivalent for r in answers),
        "short_circuits": sum(r.equivalent and not r.num_vars
                              for r in answers),
        "cnf_vars": sum(r.num_vars for r in answers),
        "cnf_clauses": sum(r.num_clauses for r in answers),
    }
    return out


def _check_verdicts(seed: int, index: int, queries, results,
                    out: Outcome) -> None:
    from repro.perfsim.model import actual_runtime
    testcases = {}
    best_cycles = {}
    for (bench, kind, rewrite), result in zip(queries, results):
        out.attempted += 1
        if isinstance(result, Exception):
            out.note_verdict("error:" + type(result).__name__)
            continue
        if not result.equivalent:
            out.note_verdict(replay_refutation(
                bench.o0, rewrite, bench.spec, result.counterexample))
            continue
        # seeded apart from the mutants' screening testcases, which
        # every passing mutant matches by construction
        if bench.name not in testcases:
            testcases[bench.name] = _testcases(
                bench, derive(seed, index, bench.name, "check"))
        if not all(outputs_match(rewrite, tc)
                   for tc in testcases[bench.name]):
            out.hard_failures.append(
                f"{bench.name} {kind}: proven equivalent, but the "
                f"reference emulator tells it from the target:\n"
                f"{rewrite}")
        out.note_verdict("proven")
        if kind != "mutant":
            cycles = actual_runtime(rewrite)
            best_cycles[bench.name] = min(
                cycles, best_cycles.get(bench.name, cycles))
    # the verified speedup of the corpus: each kernel's best proven
    # listing over its O0 listing (1.0 when neither listing is proven)
    out.speedups = [
        actual_runtime(bench.o0.compact()) / best_cycles[bench.name]
        if bench.name in best_cycles else 1.0
        for bench in {b.name: b for b, _k, _r in queries}.values()]
