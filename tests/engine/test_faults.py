"""Fault-injection matrix and recovery-layer tests.

The acceptance bar (ISSUE 8): under any FaultPlan whose probabilities
are < 1.0, a multi-kernel sweep completes with rankings
bit-identical to the fault-free run at any worker count; every
retry/quarantine decision is journaled and replayed on resume; and a
stalled worker never deadlocks ``next_result()`` — the deadline-based
re-grant fires instead.
"""

import json
import os
import pickle
from pathlib import Path

import pytest

from repro import cli
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.checkpoint import MANIFEST_VERSION
from repro.engine.events import (JOB_QUARANTINED, JOB_REQUEUED,
                                 JOB_RETRIED, ProgressEvent,
                                 event_from_json, event_to_json,
                                 format_event, read_events)
from repro.engine.executor import ProcessPoolExecutor, make_executor
from repro.engine.faults import (FaultInjectingExecutor, FaultPlan,
                                 RetryPolicy)
from repro.engine.jobs import ChainJob, payload_problem
from repro.engine.sweep import run_campaigns
from repro.errors import (CorruptPayloadError, EngineError,
                          JobTimeoutError, RegistryError,
                          StaleGrantError, TransportError,
                          WorkerCrashError)
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import load_document
from repro.verifier.validator import Validator

KERNELS = ("p01", "p03")


def _run_base(tmp_path, label):
    """tmp_path normally; a kept directory under REPRO_FAULT_RUNS in
    CI, so a failing matrix entry uploads its run dir as an artifact."""
    root = os.environ.get("REPRO_FAULT_RUNS")
    if not root:
        return tmp_path
    base = Path(root) / label
    base.mkdir(parents=True, exist_ok=True)
    return base


def _campaigns(jobs, budget="fixed", *, base_dir=None, resume=False,
               faults=None, job_timeout=None, retries=None,
               chains=2, progress=None):
    campaigns = []
    for index, name in enumerate(KERNELS):
        bench = benchmark(name)
        config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                              optimization_proposals=300,
                              optimization_restarts=3,
                              optimization_chains=chains,
                              synthesis_chains=0,
                              testcase_count=4)
        run_dir = None if base_dir is None else base_dir / name
        options = EngineOptions(jobs=jobs, run_dir=run_dir,
                                resume=resume, budget=budget,
                                faults=faults,
                                job_timeout=job_timeout,
                                retries=retries, progress=progress)
        campaigns.append(Campaign(bench.o0, bench.spec,
                                  bench.annotations, config=config,
                                  validator=Validator(),
                                  options=options, name=name))
    return campaigns


def _key(result):
    return (tuple((str(r.program), r.cost, r.cycles)
                  for r in result.ranked),
            str(result.rewrite), result.rewrite_cycles,
            result.chains_scheduled, result.chains_saved)


_BASELINE: dict = {}


def _baseline(budget):
    """The fault-free serial rankings every faulted run must equal."""
    if budget not in _BASELINE:
        results = run_campaigns(_campaigns(1, budget))
        _BASELINE[budget] = [_key(result) for result in results]
    return _BASELINE[budget]


# -- spec grammar -------------------------------------------------------------

def test_fault_plan_parse_round_trip():
    plan = FaultPlan.parse("faults:seed=7,crash=0.25,dup=0.1,"
                           "stall=0.2,corrupt=0.05")
    assert plan == FaultPlan(seed=7, crash=0.25, dup=0.1, stall=0.2,
                             corrupt=0.05)
    assert plan.spec_string() == ("faults:seed=7,crash=0.25,dup=0.1,"
                                  "stall=0.2,corrupt=0.05")
    assert FaultPlan.parse(plan.spec_string()) == plan


def test_fault_plan_prefix_is_optional_and_zeroes_implicit():
    assert FaultPlan.parse("crash=0.5") == FaultPlan(crash=0.5)
    assert FaultPlan.parse("crash=0.5").spec_string() == \
        "faults:seed=0,crash=0.5"
    assert FaultPlan.parse(None) is None
    assert not FaultPlan().active
    assert FaultPlan(dup=0.1).active


def test_fault_plan_rejects_bad_specs():
    with pytest.raises(RegistryError, match="unknown fault parameter"):
        FaultPlan.parse("faults:burn=0.5")
    with pytest.raises(RegistryError, match="bad fault parameter"):
        FaultPlan.parse("faults:crash=lots")
    with pytest.raises(RegistryError, match="must be in"):
        FaultPlan.parse("faults:crash=1.5")
    with pytest.raises(RegistryError, match="expected key=value"):
        FaultPlan.parse("faults:crash")


def test_retry_policy_parse_and_spec_string():
    assert RetryPolicy.parse(None) == RetryPolicy()
    policy = RetryPolicy.parse("retries=5,timeout=0.25")
    assert policy == RetryPolicy(retries=5, job_timeout=0.25)
    assert policy.spec_string() == "retries=5,timeout=0.25"
    assert RetryPolicy().spec_string() == "retries=3,timeout=none"
    assert RetryPolicy.parse("timeout=none").job_timeout is None
    with pytest.raises(RegistryError, match="unknown retry parameter"):
        RetryPolicy.parse("lives=9")
    with pytest.raises(RegistryError, match="retries must be"):
        RetryPolicy(retries=-1)
    with pytest.raises(RegistryError, match="timeout must be"):
        RetryPolicy(job_timeout=0.0)


def test_retry_deadlines_back_off_and_cap():
    policy = RetryPolicy(retries=8, job_timeout=1.0)
    deadlines = [policy.deadline(100.0, k) - 100.0 for k in range(6)]
    assert deadlines == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]   # capped at 8x
    assert RetryPolicy().deadline(100.0, 3) is None


def test_fault_rolls_are_deterministic_and_order_free():
    plan = FaultPlan(seed=3, crash=0.3, dup=0.3, stall=0.2,
                     corrupt=0.2)
    coords = [(f"opt-c{i:03d}-s000", attempt)
              for i in range(20) for attempt in range(3)]
    forward = {coord: plan.roll(*coord) for coord in coords}
    backward = {coord: plan.roll(*coord)
                for coord in reversed(coords)}
    assert forward == backward       # order and history never matter
    # every fault kind actually fires somewhere in a 60-roll sample
    primaries = {primary for primary, _dup in forward.values()}
    assert {"crash", "stall", "corrupt"} <= primaries
    assert any(dup for _primary, dup in forward.values())


# -- the injector, against a fake inner executor ------------------------------

class FakeInner:
    """Inner executor double: returns canned payloads FIFO."""

    def __init__(self):
        self.queue = []
        self.closed = False
        self.terminated = False

    def submit(self, kernel, jobs):
        for job in jobs:
            self.queue.append((kernel, {
                "job_id": job.job_id, "kind": job.kind,
                "verified": [], "candidates": [], "chain": None,
                "validations": 0, "new_testcases": []}))
        return len(list(jobs))

    def next_result(self, timeout=None):
        return self.queue.pop(0)

    def close(self):
        self.closed = True

    def terminate(self):
        self.terminated = True


def _job(job_id="opt-c000-s000"):
    return ChainJob(job_id=job_id, kind="optimization", seed=1)


def _plan_forcing(kind, job_id="opt-c000-s000", attempt=0):
    """A plan whose roll() verdict for (job_id, attempt) is `kind`."""
    for seed in range(500):
        kwargs = {kind: 0.5} if kind != "dup" else {"dup": 0.5}
        plan = FaultPlan(seed=seed, **kwargs)
        primary, dup = plan.roll(job_id, attempt)
        if kind == "dup" and dup:
            return plan
        if kind != "dup" and primary == kind:
            return plan
    raise AssertionError(f"no seed forces {kind}")   # pragma: no cover


def test_injected_crash_raises_worker_crash_with_job_identity():
    executor = FaultInjectingExecutor(FakeInner(),
                                      _plan_forcing("crash"))
    executor.submit("p01", [_job()])
    with pytest.raises(WorkerCrashError) as info:
        executor.next_result(timeout=1.0)
    assert info.value.kernel == "p01"
    assert info.value.job_id == "opt-c000-s000"


def test_injected_stall_times_out_instead_of_deadlocking():
    executor = FaultInjectingExecutor(FakeInner(),
                                      _plan_forcing("stall"))
    executor.submit("p01", [_job()])
    assert executor.stalled == [("p01", "opt-c000-s000")]
    with pytest.raises(JobTimeoutError):
        executor.next_result(timeout=0.01)
    with pytest.raises(EngineError, match="no deadline"):
        executor.next_result(timeout=None)


def test_injected_corruption_fails_structural_validation():
    executor = FaultInjectingExecutor(FakeInner(),
                                      _plan_forcing("corrupt"))
    executor.submit("p01", [_job()])
    _kernel, payload = executor.next_result(timeout=1.0)
    assert payload["job_id"] == "opt-c000-s000"     # identity survives
    assert payload_problem(payload) is not None     # structure doesn't


def test_injected_duplicate_is_delivered_twice():
    executor = FaultInjectingExecutor(FakeInner(), _plan_forcing("dup"))
    executor.submit("p01", [_job()])
    first = executor.next_result(timeout=1.0)
    second = executor.next_result(timeout=1.0)
    assert first == second
    assert payload_problem(first[1]) is None


def test_injector_attempts_are_tracked_per_kernel():
    plan = FaultPlan(seed=0, crash=0.5)
    executor = FaultInjectingExecutor(FakeInner(), plan)
    executor.submit("p01", [_job()])
    executor.submit("p03", [_job()])    # same job id, other kernel
    assert executor._attempts == {("p01", "opt-c000-s000"): 1,
                                  ("p03", "opt-c000-s000"): 1}


def test_payload_problem_rejects_what_decoding_would_crash_on():
    assert payload_problem("not a dict") is not None
    assert payload_problem({"job_id": "x"}) is not None
    assert payload_problem({"job_id": "", "kind": "optimization",
                            "verified": [], "candidates": [],
                            "chain": None, "validations": 0,
                            "new_testcases": []}) is not None
    assert payload_problem({"job_id": "x", "kind": "sideways",
                            "verified": [], "candidates": [],
                            "chain": None, "validations": 0,
                            "new_testcases": []}) is not None


# -- options and fingerprint --------------------------------------------------

def test_options_normalize_the_retry_policy():
    options = EngineOptions(retries=5, job_timeout=0.5)
    assert options.retry_policy == RetryPolicy(retries=5,
                                               job_timeout=0.5)
    assert EngineOptions().retry_policy.spec_string() == \
        "retries=3,timeout=none"


def test_options_reject_stall_faults_without_a_deadline():
    with pytest.raises(EngineError, match="requires a job timeout"):
        EngineOptions(faults="faults:stall=0.5")
    # with a deadline the same plan is fine
    options = EngineOptions(faults="faults:stall=0.5", job_timeout=1.0)
    assert options.faults == FaultPlan(stall=0.5)


def test_manifest_fingerprints_the_retry_policy(tmp_path):
    run_campaigns(_campaigns(1, base_dir=tmp_path, retries=2,
                             job_timeout=4.0))
    manifest = json.loads(
        (tmp_path / "p01" / "manifest.json").read_text())
    assert manifest["version"] == MANIFEST_VERSION
    assert manifest["retry"] == "retries=2,timeout=4"
    assert "transport" not in manifest
    with pytest.raises(EngineError, match="differs in retry"):
        run_campaigns(_campaigns(1, base_dir=tmp_path, retries=3,
                                 job_timeout=4.0, resume=True))


def test_sweep_rejects_mismatched_retry_policies():
    campaigns = _campaigns(1)
    object.__setattr__(campaigns[1].options, "retries", 9)
    with pytest.raises(EngineError, match="share a retry policy"):
        run_campaigns(campaigns)


# -- the fault matrix: bit-identical rankings under injection -----------------

FAULTS = ("faults:seed=0,crash=0.25,dup=0.25,corrupt=0.2",
          "faults:seed=1,crash=0.3,dup=0.3,stall=0.2,corrupt=0.2")


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("spec", range(len(FAULTS)))
def test_faulted_campaigns_rank_bit_identical(spec, jobs, tmp_path):
    """faults x jobs: every injected run equals the fault-free run."""
    faults = FAULTS[spec]
    run_base = _run_base(tmp_path, f"matrix-j{jobs}-f{spec}")
    results = run_campaigns(_campaigns(
        jobs, base_dir=run_base, faults=faults, job_timeout=2.0,
        retries=8))
    assert [_key(result) for result in results] == _baseline("fixed")
    for result in results:
        assert result.chains_quarantined == 0
    # every recovery decision left a journal trail
    recovery = (run_base / "p01" / "recovery.jsonl").read_text() + \
        (run_base / "p03" / "recovery.jsonl").read_text()
    events = [e for name in KERNELS
              for e in read_events(run_base / name / "events.jsonl")]
    recovered = [e for e in events
                 if e.event in (JOB_RETRIED, JOB_REQUEUED)]
    assert len(recovered) == recovery.count("\n")


@pytest.mark.parametrize("budget", ["adaptive:stable=2",
                                    "plateau:eps=1,stable=2"])
def test_faulted_campaigns_match_under_incremental_budgets(budget):
    results = run_campaigns(_campaigns(
        2, budget, faults=FAULTS[0], job_timeout=2.0, retries=8))
    assert [_key(result) for result in results] == _baseline(budget)


def test_certain_duplicates_still_rank_bit_identical(tmp_path):
    """dup=1.0: every completion arrives twice; first-wins dedup."""
    results = run_campaigns(_campaigns(
        1, base_dir=tmp_path, faults="faults:dup=1.0"))
    assert [_key(result) for result in results] == _baseline("fixed")
    document = load_document(tmp_path / "p01")
    recovery = document["runtime"]["recovery"]
    assert recovery["duplicates"] > 0
    assert recovery["quarantined"] == 0


# -- graceful degradation -----------------------------------------------------

def test_certain_stall_quarantines_everything_without_deadlock(
        tmp_path):
    """stall=1.0: no job ever returns; the campaign must still finish
    (degraded), with every decision journaled and evented."""
    results = run_campaigns(_campaigns(
        1, base_dir=tmp_path, faults="faults:stall=1.0",
        job_timeout=0.1, retries=2))
    for result, name in zip(results, KERNELS):
        # no chain ever reported, so no improvement may be claimed:
        # the ranking degrades to the target itself
        assert result.rewrite_cycles == result.target_cycles
        assert result.chains_quarantined == len(result.quarantined_jobs)
        assert result.chains_quarantined > 0
        events = read_events(tmp_path / name / "events.jsonl")
        quarantines = [e for e in events if e.event == JOB_QUARANTINED]
        requeues = [e for e in events if e.event == JOB_REQUEUED]
        assert len(quarantines) == result.chains_quarantined
        assert requeues                        # the deadline fired
        recovery = [json.loads(line) for line in
                    (tmp_path / name / "recovery.jsonl")
                    .read_text().splitlines()]
        assert sorted(r["job_id"] for r in recovery
                      if r["action"] == "quarantined") == \
            result.quarantined_jobs


def test_quarantines_replay_on_resume(tmp_path):
    """A resumed run must not hammer a chain its predecessor already
    gave up on — quarantine is campaign membership, not mood."""
    first = run_campaigns(_campaigns(
        1, base_dir=tmp_path, faults="faults:stall=1.0",
        job_timeout=0.1, retries=1))
    resumed = run_campaigns(_campaigns(
        1, base_dir=tmp_path, resume=True, job_timeout=0.1,
        retries=1))                            # no faults this time
    assert [r.quarantined_jobs for r in resumed] == \
        [r.quarantined_jobs for r in first]
    assert [_key(r) for r in resumed] == [_key(r) for r in first]


def test_faulted_run_resumes_bit_identical(tmp_path):
    """Interrupt a faulted run (drop its last journaled job), resume
    fault-free: the rankings must equal the fault-free baseline."""
    run_campaigns(_campaigns(2, base_dir=tmp_path, faults=FAULTS[0],
                             job_timeout=2.0, retries=8))
    for name in KERNELS:
        journal = tmp_path / name / "jobs.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) >= 2
        journal.write_text("\n".join(lines[:-1]) + "\n")
    resumed = run_campaigns(_campaigns(2, base_dir=tmp_path,
                                       resume=True, job_timeout=2.0,
                                       retries=8))
    assert [_key(result) for result in resumed] == _baseline("fixed")


# -- stale grants -------------------------------------------------------------

def test_resume_rejects_results_for_unplanned_jobs(tmp_path):
    run_campaigns(_campaigns(1, base_dir=tmp_path))
    journal = tmp_path / "p01" / "jobs.jsonl"
    record = json.loads(journal.read_text().splitlines()[0])
    record["job_id"] = "opt-c999-s999"        # a job nobody planned
    with journal.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    with pytest.raises(StaleGrantError, match="never planned"):
        run_campaigns(_campaigns(1, base_dir=tmp_path, resume=True))


# -- executor shutdown (satellite 1) ------------------------------------------

def test_pool_shutdown_is_idempotent():
    contexts = {}
    executor = ProcessPoolExecutor(contexts, jobs=2)
    executor.close()                     # never started: both no-ops
    executor.close()
    executor.terminate()
    executor.terminate()
    assert executor._pool is None
    serial = make_executor(contexts, jobs=1)
    serial.close()
    serial.terminate()                   # serial shutdown also no-ops


def test_interrupted_sweep_resumes_cleanly(tmp_path):
    """A KeyboardInterrupt mid-campaign (here: raised by the progress
    listener) must leave journals that resume to the exact result."""
    seen = {"events": 0}

    def bomb(event):
        seen["events"] += 1
        if seen["events"] == 4:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaigns(_campaigns(1, base_dir=tmp_path, progress=bomb))
    resumed = run_campaigns(_campaigns(1, base_dir=tmp_path,
                                       resume=True))
    assert [_key(result) for result in resumed] == _baseline("fixed")


# -- error taxonomy (satellite 2) ---------------------------------------------

def test_error_exit_codes_are_distinct():
    codes = {EngineError: 2, WorkerCrashError: 3, JobTimeoutError: 4,
             StaleGrantError: 5, CorruptPayloadError: 6,
             TransportError: 7}
    for cls, code in codes.items():
        assert cls.exit_code == code


def test_worker_crash_error_pickles_with_job_identity():
    original = WorkerCrashError("boom", kernel="p01",
                                job_id="opt-c001-s000")
    copy = pickle.loads(pickle.dumps(original))
    assert copy.kernel == "p01"
    assert copy.job_id == "opt-c001-s000"
    assert str(copy) == "boom"


def test_cli_maps_stale_grant_to_exit_code_5(tmp_path, capsys):
    run_dir = tmp_path / "run"
    args = ["engine", "campaign", "p01", "--chains", "2",
            "--run-dir", str(run_dir)]
    assert cli.main(args) == 0
    capsys.readouterr()
    journal = run_dir / "p01" / "jobs.jsonl"
    record = json.loads(journal.read_text().splitlines()[0])
    record["job_id"] = "opt-c999-s999"
    with journal.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    assert cli.main(args + ["--resume"]) == 5
    assert "never planned" in capsys.readouterr().err


def test_cli_rejects_stall_faults_without_timeout(capsys):
    code = cli.main(["engine", "campaign", "p01", "--faults",
                     "faults:stall=0.5"])
    assert code == 2
    assert "requires a job timeout" in capsys.readouterr().err


# -- event stream v3 ----------------------------------------------------------

def test_recovery_events_round_trip_and_format():
    for event_type, needle in ((JOB_RETRIED, "retried"),
                               (JOB_REQUEUED, "requeued"),
                               (JOB_QUARANTINED, "quarantined")):
        event = ProgressEvent(event=event_type, kernel="p01", seq=3,
                              data={"job_id": "opt-c000-s000",
                                    "kind": "optimization",
                                    "attempt": 2,
                                    "reason": "deadline expired"})
        decoded = event_from_json(event_to_json(event))
        assert decoded == event
        line = format_event(event)
        assert needle in line and "opt-c000-s000" in line


def test_event_stream_rejects_version_2_records():
    payload = event_to_json(ProgressEvent(
        event=JOB_RETRIED, kernel="p01", seq=0, data={}))
    payload["v"] = 2
    with pytest.raises(EngineError, match="version 2"):
        event_from_json(payload)
