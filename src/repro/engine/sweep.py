"""Cross-kernel campaign scheduling: many kernels, one worker pool.

The paper's headline result comes from running many independent MCMC
chains per kernel on a large cluster. Scheduling one kernel's chains
at a time squanders that shape on a shared pool: a campaign drains to
a single slow kernel's tail while finished kernels' slots sit idle.
This module runs a whole sweep as *one* pool of jobs, granting chain
rounds to kernels in round-robin (fair-share) order, gated by each
kernel's budget rule, so the pool stays saturated until every kernel
stops. It is the only scheduler: a single-kernel campaign is the
one-kernel sweep.

Determinism survives the rotation because nothing a kernel computes
depends on any other kernel: each kernel's rounds keep their plan
order, ids, and seeds; results aggregate per kernel in plan order; and
stopping rules observe only their own kernel's plan-order signature
sequence. The rotation reorders *when* rounds run, never *which*
rounds exist — so a sweep is bit-identical to running its kernels one
at a time, at any worker count.

The one rule that is not a pure function of results is ``wallclock``:
its grant decisions consult the sweep's clock, one deadline shared by
every kernel. Those decisions — not the clock — are therefore
journaled (``grants.jsonl``, the v4 checkpoint layout) and streamed
(``kernel-granted`` events), and a resumed campaign replays the
journal verbatim before making any live decision, which keeps replay
deterministic even under a deadline.

:class:`KernelSchedule` is one kernel's steppable state machine
(synthesis wave → optimization rounds → final aggregate);
:func:`run_campaigns` is the driver that rotates grants among any
number of them over one executor. A single-kernel
:meth:`Campaign.run` is just the one-schedule sweep.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.engine import aggregator, scheduler
from repro.engine.checkpoint import CheckpointStore
from repro.engine.events import (CAMPAIGN_FINISHED, CAMPAIGN_STARTED,
                                 CHAIN_COMPLETED, EventLog,
                                 JOB_QUARANTINED, JOB_REQUEUED,
                                 JOB_RETRIED, KERNEL_GRANTED,
                                 KERNEL_STOPPED, RANKING_UPDATED,
                                 WORKER_JOINED, WORKER_LEFT)
from repro.engine.executor import make_executor
from repro.engine.faults import FaultInjectingExecutor
from repro.engine.jobs import (ChainJob, JobResult, payload_problem,
                               result_from_json)
from repro.engine.serialize import Json
from repro.engine.worker import CampaignContext
from repro.errors import (CorruptPayloadError, EngineError,
                          JobTimeoutError, StaleGrantError,
                          WorkerCrashError)
from repro.perfsim.model import actual_runtime
from repro.search.stoke import StokeResult
from repro.telemetry import ChainTelemetry, MetricsLog
from repro.telemetry.metrics import Series
from repro.x86.program import Program

if TYPE_CHECKING:                               # pragma: no cover
    from repro.engine.campaign import Campaign

Clock = Callable[[], float]

_SYNTHESIS = "synthesis"
_OPTIMIZATION = "optimization"

GRANT_SCHEDULED = "scheduled"

RECOVERY_RETRIED = "retried"
RECOVERY_REQUEUED = "requeued"
RECOVERY_QUARANTINED = "quarantined"


@dataclass(slots=True)
class _InFlight:
    """One granted job's recovery state: which attempt is running,
    when the job was first granted, and when to give up waiting."""

    job: ChainJob
    attempt: int
    granted_at: float
    deadline: float | None


class KernelSchedule:
    """One kernel's campaign as a steppable state machine.

    The cross-kernel driver holds one schedule per kernel and walks
    them in fair-share rotation: :meth:`next_grant` returns the next
    wave of jobs this kernel wants in the pool (or None while it waits
    on in-flight results), :meth:`complete` feeds one finished job
    back. The schedule journals, emits progress events, consults its
    budget rule at every grant, and aggregates its own final result —
    everything :class:`Campaign` used to do inline, reshaped so many
    kernels can share one executor.

    It is also the kernel's recovery ledger: ``in_flight`` maps each
    granted, unsettled job id to its attempt and deadline, :meth:`fail`
    decides retry, requeue or quarantine, and news about a job that is
    no longer in flight (a duplicate, or a late result or crash for
    work already banked or quarantined) is counted and dropped here.
    """

    def __init__(self, campaign: Campaign, *,
                 clock: Clock = time.perf_counter) -> None:
        self.campaign = campaign
        self.name = campaign.name
        self.clock = clock
        options = campaign.options
        config = campaign.config
        self.store = (CheckpointStore(options.run_dir)
                      if options.run_dir is not None else None)
        self.testcases, self.completed = campaign._initial_state(
            self.store)
        self.events = EventLog(
            path=(None if self.store is None
                  else self.store.run_dir / "events.jsonl"),
            listener=options.progress,
            append=options.resume)
        self.metrics = (MetricsLog(self.store.run_dir / "metrics.jsonl",
                                   append=options.resume)
                        if self.store is not None else None)
        self.rule = campaign.budget.rule()
        # the persistent CEGIS suite (harden): the fresh-start merge
        # already happened in _initial_state; noting the frozen base
        # keeps appends down to genuinely novel counterexamples
        self.cex_suite = None
        if options.harden and self.store is not None:
            from repro.minimize.cegis import CounterexampleSuite
            self.cex_suite = CounterexampleSuite.for_run_dir(
                self.store.run_dir)
            self.cex_suite.note(self.testcases)
        self.policy = options.retry_policy
        self.context = CampaignContext(
            target=campaign.target, spec=campaign.spec,
            annotations=campaign.annotations, config=config,
            testcases=self.testcases, validator=campaign.validator,
            cost=campaign.cost, strategy=campaign.strategy)
        self.chains_planned = (config.synthesis_chains +
                               config.optimization_chains)
        # grant decisions journaled by an interrupted run, replayed
        # verbatim (the wallclock rule's determinism-on-resume seam)
        self._replay: deque[Json] = deque(
            self.store.grants()
            if self.store is not None and options.resume else ())
        # recovery state: quarantines are campaign membership (a
        # resume must not hammer a poisoned chain again), so they
        # replay from recovery.jsonl; counters are diagnostics for
        # the metrics document's runtime section
        self.recovery_counts: dict[str, int] = {
            RECOVERY_RETRIED: 0, RECOVERY_REQUEUED: 0,
            RECOVERY_QUARANTINED: 0, "duplicates": 0, "stale": 0}
        self._quarantined: dict[str, str] = {}
        if self.store is not None and options.resume:
            for record in self.store.recovery():
                action = record.get("action")
                if action in self.recovery_counts:
                    self.recovery_counts[action] += 1
                if action == RECOVERY_QUARANTINED:
                    self._quarantined[record["job_id"]] = \
                        record.get("kind", "")
        # phase state
        self._phase = _SYNTHESIS
        self._synth_plan = scheduler.synthesis_jobs(config)
        self._synth_granted = False
        self._synth_results: list[JobResult] = []
        self._starts: list[Program] = []
        self._rounds = None
        self._opt_plan: list[ChainJob] = []
        self._decoded: dict[str, JobResult] = {}
        self._opt_granted_all = False
        self._granted_chains = 0
        self._observed_chains = 0
        self._charged_validations = 0
        #: granted jobs awaiting a result, keyed by job id
        self.in_flight: dict[str, _InFlight] = {}
        self._result: StokeResult | None = None
        self._start_time = 0.0
        self._synth_seconds = 0.0
        self._opt_start_time = 0.0
        # scheduler runtime telemetry (wall-clock, hence filed under
        # the metrics document's nondeterministic runtime section)
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_max = 0.0
        self._occupancy = Series()
        # distributed runs only: chains delivered per remote worker
        # (runtime diagnostics, like every other wall-clock number)
        self._worker_counts: dict[str, int] = {}

    # -- driver protocol ------------------------------------------------------

    def start(self) -> None:
        self._start_time = self.clock()
        self.events.emit(CAMPAIGN_STARTED, self.name,
                         budget=self.campaign.budget.spec_string(),
                         jobs=self.campaign.options.jobs,
                         chains_planned=self.chains_planned)

    @property
    def done(self) -> bool:
        return self._result is not None

    @property
    def result(self) -> StokeResult:
        assert self._result is not None, "campaign still running"
        return self._result

    def complete(self, payload: Json) -> bool:
        """Feed one finished job's payload back into the schedule.

        Returns False for a job not in flight, counted and dropped: a
        ``duplicates`` copy of a banked result (first wins), or a
        ``stale`` result for a job that was re-granted and already
        banked, or quarantined. It never reaches the aggregate.
        """
        job_id = payload["job_id"]
        flight = self.in_flight.pop(job_id, None)
        if flight is None:
            self.recovery_counts["duplicates" if job_id in self.completed
                                 else "stale"] += 1
            return False
        self.completed[job_id] = payload
        if self.store is not None:
            self.store.record(payload)
        self.events.emit(CHAIN_COMPLETED, self.name,
                         job_id=job_id,
                         kind=payload["kind"],
                         verified=len(payload["verified"]),
                         new_testcases=len(payload["new_testcases"]))
        latency = self.clock() - flight.granted_at
        self._latency_count += 1
        self._latency_total += latency
        self._latency_max = max(self._latency_max, latency)
        self._sample_occupancy()
        chain = payload.get("chain")
        telemetry = None if chain is None else chain.get("telemetry")
        if self.metrics is not None and telemetry is not None:
            self.metrics.record_chain(self.name, job_id, telemetry)
        if self.cex_suite is not None and payload["new_testcases"]:
            self.cex_suite.append(
                self._result_for(job_id).new_testcases)
        return True

    # -- recovery -------------------------------------------------------------

    def fail(self, job_id: str, reason: str, *,
             requeue: bool) -> ChainJob | None:
        """Settle one failed (or, with ``requeue``, expired) attempt.

        Returns the job to submit again, with its next attempt's
        backed-off deadline, or None: after the attempt that exhausts
        ``retries + 1`` the job is quarantined, and bad news about a
        job not in flight (its result already banked, or it was
        quarantined) is counted ``stale`` and dropped.
        """
        flight = self.in_flight.get(job_id)
        if flight is None:
            self.recovery_counts["stale"] += 1
            return None
        attempts = flight.attempt + 1           # attempts made so far
        if attempts > self.policy.retries:
            self.quarantine(flight.job, attempts, reason)
            return None
        if requeue:
            self.note_requeue(flight.job, attempts, reason)
        else:
            self.note_retry(flight.job, attempts, reason)
        flight.attempt = attempts
        flight.deadline = self.policy.deadline(self.clock(), attempts)
        return flight.job

    def _note_recovery(self, action: str, event_type: str,
                       job: ChainJob, attempt: int,
                       reason: str) -> None:
        if self.store is not None:
            self.store.record_recovery({
                "action": action, "job_id": job.job_id,
                "kind": job.kind, "attempt": attempt,
                "reason": reason})
        self.recovery_counts[action] += 1
        self.events.emit(event_type, self.name, job_id=job.job_id,
                         kind=job.kind, attempt=attempt, reason=reason)

    def note_retry(self, job: ChainJob, attempt: int,
                   reason: str) -> None:
        """Journal one re-grant of a failed or corrupt attempt."""
        self._note_recovery(RECOVERY_RETRIED, JOB_RETRIED, job,
                            attempt, reason)

    def note_requeue(self, job: ChainJob, attempt: int,
                     reason: str) -> None:
        """Journal one re-grant of a stalled (deadline-expired) job."""
        self._note_recovery(RECOVERY_REQUEUED, JOB_REQUEUED, job,
                            attempt, reason)

    def quarantine(self, job: ChainJob, attempt: int,
                   reason: str) -> None:
        """Abandon a job that exhausted its retries.

        The campaign degrades gracefully: the job leaves ``in_flight``
        (so the schedule can progress), contributes an empty result to
        the aggregate, and is reported — never silently dropped — in
        ``StokeResult.quarantined_jobs``.
        """
        self._note_recovery(RECOVERY_QUARANTINED, JOB_QUARANTINED,
                            job, attempt, reason)
        self._quarantined[job.job_id] = job.kind
        self.in_flight.pop(job.job_id, None)
        self._sample_occupancy()

    def note_worker(self, worker_id: str | None) -> None:
        """Credit one delivered chain to a remote worker (None for
        local executors, which have no worker identities)."""
        if worker_id is None:
            return
        self._worker_counts[worker_id] = \
            self._worker_counts.get(worker_id, 0) + 1

    def note_membership(self, notices: list[tuple]) -> None:
        """Stream worker joins/leaves as progress events (v4)."""
        for notice in notices:
            if notice[0] == "joined":
                self.events.emit(WORKER_JOINED, self.name,
                                 worker=notice[1])
            else:
                self.events.emit(WORKER_LEFT, self.name,
                                 worker=notice[1], reason=notice[2])

    def next_grant(self, elapsed: float) -> list[ChainJob] | None:
        """The next wave of jobs to submit, or None.

        None means the kernel is waiting on in-flight results (or has
        finished). The method advances every phase transition that
        needs no new execution — a wave satisfied entirely from the
        resume journal completes instantly and the loop rolls on to
        the next grant decision.
        """
        while True:
            if self._result is not None or self.in_flight:
                return None
            if self._phase == _SYNTHESIS:
                if not self._synth_granted:
                    self._synth_granted = True
                    if self._synth_plan:
                        pending = self._admit_wave(self._synth_plan,
                                                   wave=_SYNTHESIS,
                                                   chain=None,
                                                   reason=GRANT_SCHEDULED)
                        if pending:
                            return pending
                    continue
                self._finish_synthesis()
                continue
            assert self._phase == _OPTIMIZATION
            if not self.rule.incremental:
                grant = self._grant_full_wave()
                if grant is None:
                    continue
                return grant
            grant = self._grant_next_round(elapsed)
            if grant is None:
                continue
            return grant

    # -- phase transitions ----------------------------------------------------

    def _admit_wave(self, jobs: list[ChainJob], *, wave: str,
                    chain: int | None, reason: str) -> list[ChainJob]:
        """Admit one granted wave: emit the grant event, put the jobs
        not already satisfied by the resume journal in flight (attempt
        0, first deadline) and return them."""
        self.events.emit(KERNEL_GRANTED, self.name, wave=wave,
                         chain=chain, granted=True, reason=reason,
                         jobs=len(jobs))
        pending = [job for job in jobs
                   if job.job_id not in self.completed
                   and job.job_id not in self._quarantined]
        now = self.clock()
        deadline = self.policy.deadline(now, 0)
        for job in pending:
            self.in_flight[job.job_id] = _InFlight(job, 0, now, deadline)
        self._sample_occupancy()
        return pending

    def _sample_occupancy(self) -> None:
        """One (elapsed, jobs-in-flight) point on the occupancy
        timeline; ``force`` because elapsed is a float, not a step."""
        self._occupancy.record(self.clock() - self._start_time,
                               float(len(self.in_flight)), force=True)

    def _result_for(self, job_id: str) -> JobResult:
        """The decoded result for one completed job, parsed once.

        Per-round observations walk the whole plan-so-far; decoding a
        payload (programs through the x86 parser, testcases) on every
        walk would make observation quadratic in chains."""
        result = self._decoded.get(job_id)
        if result is None:
            if job_id in self._quarantined:
                # an abandoned chain contributes an empty result: the
                # aggregate is computed over the survivors
                result = JobResult(job_id=job_id,
                                   kind=self._quarantined[job_id])
            else:
                result = result_from_json(self.completed[job_id])
            self._decoded[job_id] = result
        return result

    def _finish_synthesis(self) -> None:
        self._synth_results = [self._result_for(job.job_id)
                               for job in self._synth_plan]
        self._synth_seconds = self.clock() - self._start_time
        self._starts = aggregator.synthesis_starts(
            self.campaign.target, self._synth_results)
        self._rounds = scheduler.optimization_rounds(
            self.campaign.config, self._starts)
        self._opt_start_time = self.clock()
        self._phase = _OPTIMIZATION

    def _grant_full_wave(self) -> list[ChainJob] | None:
        """Non-incremental rules submit the whole plan as one wave —
        exactly the pre-budget engine."""
        if self._opt_granted_all:
            # wave complete (nothing in flight): aggregate
            self._finalize("exhausted")
            return None
        self._opt_granted_all = True
        self._opt_plan = [job for round_jobs in self._rounds
                          for job in round_jobs]
        self._granted_chains = self.campaign.config.optimization_chains
        if self._opt_plan:
            pending = self._admit_wave(self._opt_plan,
                                       wave=_OPTIMIZATION, chain=None,
                                       reason=GRANT_SCHEDULED)
            if pending:
                return pending
        return None

    def _grant_next_round(self, elapsed: float) -> list[ChainJob] | None:
        """One grant decision under an incremental rule."""
        if self._observed_chains < self._granted_chains:
            self._observe_round()
        granted, reason = self._grant_decision(elapsed)
        if not granted:
            self.events.emit(KERNEL_GRANTED, self.name,
                             wave=_OPTIMIZATION,
                             chain=self._granted_chains,
                             granted=False, reason=reason, jobs=0)
            self._finalize(reason)
            return None
        round_jobs = next(self._rounds, None)
        if round_jobs is None:
            self._finalize("exhausted")
            return None
        chain = self._granted_chains
        self._granted_chains += 1
        self._opt_plan.extend(round_jobs)
        pending = self._admit_wave(round_jobs, wave=_OPTIMIZATION,
                                   chain=chain, reason=reason)
        if pending:
            return pending
        return None                     # round satisfied from journal

    # -- grant decisions ------------------------------------------------------

    def _grant_decision(self, elapsed: float) -> tuple[bool, str]:
        """Grant or deny the next chain; replayed on resume.

        Fresh decisions ask the rule (the wallclock rule consults
        ``elapsed``) and are journaled; a resumed campaign replays the
        journal verbatim instead, so the set of chains a run schedules
        is reproducible even when the deciding input was a clock.
        """
        chain = self._granted_chains
        if self._replay:
            record = self._replay.popleft()
            if record.get("chain") != chain:
                raise EngineError(
                    f"grants journal out of order for {self.name}: "
                    f"expected chain {chain}, found "
                    f"{record.get('chain')}")
            return bool(record["granted"]), str(record["reason"])
        granted = self.rule.grant(elapsed)
        reason = GRANT_SCHEDULED if granted else self.rule.stop_reason
        if self.store is not None:
            self.store.record_grant({"chain": chain,
                                     "granted": granted,
                                     "reason": reason})
        return granted, reason

    def _observe_round(self) -> None:
        """Feed the just-completed round's feedback to the rule.

        Ranking rules get the running best signature; validator-budget
        rules get the round's *newly* spent validator queries (the
        plan-order total minus what was already charged — a chain's
        spend must never be double-counted when several rounds resolve
        from the resume journal at once).
        """
        self._observed_chains += 1
        if self.rule.needs_validations:
            total = sum(result.validations for result in
                        self._synth_results + self._opt_results())
            self.rule.charge(total - self._charged_validations)
            self._charged_validations = total
        if not self.rule.needs_ranking:
            return
        results = self._opt_results()
        merged = aggregator.merge_testcases(
            self.testcases, self._synth_results + results)
        signature = aggregator.best_signature(
            self.campaign.target, self.campaign.config, merged,
            results, cost=self.campaign.cost)
        self.rule.observe(signature)
        self.events.emit(RANKING_UPDATED, self.name,
                         chains_completed=self._observed_chains,
                         best_cycles=signature[1],
                         stable_chains=self.rule.stable_chains)

    # -- aggregation ----------------------------------------------------------

    def _opt_results(self) -> list[JobResult]:
        return [self._result_for(job.job_id)
                for job in self._opt_plan]

    def _finalize(self, reason: str) -> None:
        campaign = self.campaign
        config = campaign.config
        # stale-grant rejection: every journaled result must belong to
        # a job this campaign actually planned — a foreign record (a
        # hand-mixed journal, or results from a differently-budgeted
        # run) must abort rather than silently join the aggregate
        plan_ids = {job.job_id for job in
                    list(self._synth_plan) + list(self._opt_plan)}
        foreign = sorted(set(self.completed) - plan_ids)
        if foreign:
            raise StaleGrantError(
                f"run directory holds results for jobs this campaign "
                f"never planned: {', '.join(foreign[:5])}"
                + ("..." if len(foreign) > 5 else ""))
        chains_scheduled = (config.synthesis_chains +
                            self._granted_chains)
        chains_saved = self.chains_planned - chains_scheduled
        self.events.emit(KERNEL_STOPPED, self.name,
                         reason=reason,
                         chains_scheduled=chains_scheduled,
                         chains_saved=chains_saved)
        opt_results = self._opt_results()
        if self.cex_suite is not None:
            # backfill journal-satisfied chains (they never passed
            # through complete()); dedup makes live chains no-ops
            for result in self._synth_results + opt_results:
                if result.new_testcases:
                    self.cex_suite.append(result.new_testcases)
        merged = aggregator.merge_testcases(
            self.testcases, self._synth_results + opt_results)
        ranked = aggregator.final_ranking(campaign.target, config,
                                          merged, opt_results,
                                          cost=campaign.cost)
        target_cycles = actual_runtime(campaign.target.compact())
        rewrite: Program | None = None
        rewrite_cycles = target_cycles
        if ranked:
            best = ranked[0]
            if best.cycles <= target_cycles:
                rewrite = best.program.compact()
                rewrite_cycles = best.cycles
        now = self.clock()
        result = StokeResult(
            target=campaign.target,
            rewrite=rewrite,
            verified=rewrite is not None,
            target_cycles=target_cycles,
            rewrite_cycles=rewrite_cycles,
            ranked=ranked,
            synthesis=[r.phase_result() for r in self._synth_results],
            optimization=[r.phase_result() for r in opt_results],
            testcases=merged,
            seconds=now - self._start_time,
            synthesis_seconds=self._synth_seconds,
            optimization_seconds=now - self._opt_start_time,
            chains_scheduled=chains_scheduled,
            chains_saved=chains_saved,
            chains_quarantined=len(self._quarantined),
            quarantined_jobs=sorted(self._quarantined),
        )
        occupancy = (round(chains_scheduled / self.chains_planned, 4)
                     if self.chains_planned else 0.0)
        finished: Json = dict(verified=result.verified,
                              rewrite_cycles=result.rewrite_cycles,
                              speedup=round(result.speedup, 4),
                              chains_scheduled=chains_scheduled,
                              chains_saved=chains_saved,
                              occupancy=occupancy)
        if self._quarantined:
            finished["chains_quarantined"] = len(self._quarantined)
        self.events.emit(CAMPAIGN_FINISHED, self.name, **finished)
        if self.metrics is not None:
            self._journal_campaign_metrics(result.seconds)
        self._result = result

    def _journal_campaign_metrics(self, seconds: float) -> None:
        """Seal the metrics journal: backfill + the campaign record.

        Chains satisfied from the resume journal never passed through
        :meth:`complete`, so their telemetry is backfilled here in plan
        order (dedup makes live-recorded chains no-ops). The campaign
        record carries the plan-order merge — bit-identical at any
        worker count — plus this run's scheduler runtime.
        """
        assert self.metrics is not None
        merged = ChainTelemetry()
        for job in list(self._synth_plan) + list(self._opt_plan):
            payload = self.completed.get(job.job_id)
            chain = None if payload is None else payload.get("chain")
            telemetry = None if chain is None else chain.get("telemetry")
            if telemetry is None:
                continue                # pre-v5 journal, or no chain
            self.metrics.record_chain(self.name, job.job_id, telemetry)
            merged.absorb(ChainTelemetry.from_json(telemetry))
        runtime = {
            "seconds": seconds,
            "grant_latency": {
                "count": self._latency_count,
                "mean": (self._latency_total / self._latency_count
                         if self._latency_count else 0.0),
                "max": self._latency_max,
            },
            "occupancy": self._occupancy.to_json(),
            # recovery counters ride in the runtime section: how hard
            # the run fought worker failures is a property of this
            # execution, not of the (deterministic) search
            "recovery": dict(self.recovery_counts),
        }
        if self._worker_counts:
            # which remote worker delivered which chains is the very
            # definition of runtime state — any other placement would
            # break worker-count invisibility of the deterministic doc
            runtime["workers"] = dict(self._worker_counts)
        self.metrics.record_campaign(
            self.name, merged.deterministic_json(), runtime)


def run_campaigns(campaigns: list[Campaign], *,
                  clock: Clock = time.perf_counter,
                  executor_factory: Callable[
                      [dict[str, CampaignContext]], object] | None = None) \
        -> list[StokeResult]:
    """Run any number of campaigns over one shared worker pool.

    The driver grants waves in fair-share rotation (each pass visits
    every kernel in list order and admits at most one wave per
    kernel), then blocks for one completed job and feeds it back to
    its schedule — so slow kernels' rounds run alongside fast ones'
    instead of serializing behind them. Results return in input
    order; every campaign must share one worker count, and kernel
    names must be unique (they key the shared pool's contexts).

    ``executor_factory`` overrides executor selection: it receives the
    per-kernel contexts and returns any object speaking the
    submit/next_result protocol — the seam tests and embedders use to
    run a sweep over, say, a hand-configured
    :class:`~repro.engine.remote.RemoteExecutor`. Fault injection
    (``--faults``) still wraps whatever the factory returns. Without a
    factory, ``EngineOptions.workers > 0`` selects the distributed
    coordinator and spawns that many loopback workers.

    Recovery is each schedule's business (:meth:`KernelSchedule.fail`
    and :meth:`KernelSchedule.complete`): every granted job carries a
    per-attempt deadline (``--job-timeout``, capped exponential
    backoff), a crashed or corrupt attempt is re-granted up to
    ``--retries`` times before quarantine, duplicate completions are
    deduplicated first-wins by job id, and every decision is
    journaled (``recovery.jsonl``) and streamed (``job-retried`` /
    ``job-requeued`` / ``job-quarantined``). The driver only waits
    until the nearest deadline and hands each failure, expiry or
    completion to its kernel's schedule. Because chain jobs are
    deterministic functions of their (context, job) pair, a retried
    attempt reproduces the lost payload exactly — a campaign that
    survives injected faults ranks bit-identically to a fault-free
    run.
    """
    if not campaigns:
        return []
    # one sweep runs over one executor (half the kernels cannot be
    # distributed while the rest stay local) with one pool-global
    # deadline/retry discipline (one shared next_result() wait cannot
    # honor two different timeouts) and one fault plan
    first = campaigns[0].options
    for attr, what in (("jobs", "a worker count"),
                       ("workers", "a --workers count"),
                       ("retry_policy", "a retry policy"),
                       ("faults", "a fault plan")):
        if any(getattr(campaign.options, attr) != getattr(first, attr)
               for campaign in campaigns):
            raise EngineError(
                f"all campaigns in one sweep must share {what}")
    jobs, workers = first.jobs, first.workers
    policy, faults = first.retry_policy, first.faults
    names = [campaign.name for campaign in campaigns]
    if len(set(names)) != len(names):
        raise EngineError(
            f"duplicate kernel names in one sweep: {sorted(names)}")
    run_dirs = [str(campaign.options.run_dir) for campaign in campaigns
                if campaign.options.run_dir is not None]
    if len(set(run_dirs)) != len(run_dirs):
        # job ids are kernel-agnostic, so two kernels sharing one
        # journal would fuse their records and poison a later resume
        raise EngineError(
            "campaigns in one sweep must not share a run directory")
    schedules = [KernelSchedule(campaign, clock=clock)
                 for campaign in campaigns]
    by_name = {schedule.name: schedule for schedule in schedules}
    contexts = {schedule.name: schedule.context
                for schedule in schedules}
    executor = (executor_factory(contexts)
                if executor_factory is not None
                else make_executor(contexts, jobs, workers=workers))
    if faults is not None and faults.active:
        executor = FaultInjectingExecutor(executor, faults)
    start = clock()

    def fail(schedule: KernelSchedule, job_id: str, reason: str, *,
             requeue: bool = False) -> None:
        job = schedule.fail(job_id, reason, requeue=requeue)
        if job is not None:
            executor.submit(schedule.name, [job])

    def sync_membership() -> None:
        """Stream any worker joins/leaves the executor observed while
        we waited (local executors have no membership to report)."""
        drain = getattr(executor, "drain_notices", None)
        if drain is None:
            return
        notices = drain()
        if not notices:
            return
        for schedule in schedules:
            schedule.note_membership(notices)

    try:
        for schedule in schedules:
            schedule.start()
        while True:
            progressed = True
            while progressed:
                progressed = False
                for schedule in schedules:       # fair-share rotation
                    pending = schedule.next_grant(clock() - start)
                    if pending:
                        executor.submit(schedule.name, pending)
                        progressed = True
            if all(schedule.done for schedule in schedules):
                break
            # job ids are kernel-agnostic (every kernel has an
            # opt-c000-s000), so each schedule keeps its own ledger
            in_flight = [(schedule, flight) for schedule in schedules
                         for flight in schedule.in_flight.values()]
            if not in_flight:
                raise EngineError("campaign scheduler stalled with "
                                  "no jobs in flight")
            timeout = None
            if policy.job_timeout is not None:
                nearest = min(flight.deadline for _, flight in in_flight)
                timeout = max(0.0, nearest - clock())
            try:
                kernel, payload = executor.next_result(timeout=timeout)
            except JobTimeoutError:
                # a stalled worker never deadlocks the wait: whichever
                # jobs are past their deadline are re-granted, oldest
                # grant first, and a spurious wake simply recomputes
                # the next deadline
                now = clock()
                overdue = sorted(
                    ((schedule, flight) for schedule, flight in in_flight
                     if flight.deadline is not None
                     and flight.deadline <= now),
                    key=lambda pair: pair[1].granted_at)
                for schedule, flight in overdue:
                    fail(schedule, flight.job.job_id, "deadline expired",
                         requeue=True)
                continue
            except WorkerCrashError as exc:
                if exc.job_id is None or exc.kernel not in by_name:
                    raise          # pool-level failure: unrecoverable
                fail(by_name[exc.kernel], exc.job_id, str(exc))
                continue
            finally:
                sync_membership()
            problem = payload_problem(payload)
            if problem is None:
                schedule = by_name[kernel]
                if schedule.complete(payload):
                    schedule.note_worker(
                        getattr(executor, "last_worker_id", None))
                continue
            schedule = by_name.get(kernel)
            job_id = (payload.get("job_id")
                      if isinstance(payload, dict) else None)
            if (schedule is not None and isinstance(job_id, str)
                    and job_id in schedule.in_flight):
                fail(schedule, job_id, f"corrupt payload: {problem}")
                continue
            raise CorruptPayloadError(
                f"unrecoverable corrupt payload from {kernel}: "
                f"{problem}", kernel=kernel,
                job_id=job_id if isinstance(job_id, str) else None)
    except BaseException:
        # don't block an error or Ctrl-C on queued chains; the
        # journal already holds everything worth keeping (every
        # event/metric/recovery record is flushed as it is written,
        # and terminate() is idempotent even mid-shutdown)
        executor.terminate()
        raise
    else:
        executor.close()
    return [schedule.result for schedule in schedules]
