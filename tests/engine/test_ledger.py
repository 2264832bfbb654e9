"""The recovery ledger: each KernelSchedule's jobs in flight.

``KernelSchedule.fail`` decides retry, requeue or quarantine for one
failed attempt, and ``KernelSchedule.complete`` banks a result or
drops late news (a duplicate, or a result for a job no longer in
flight). Both are driven here directly, with no executor, plus one
loopback TCP campaign in which a worker dies holding a job that
another worker already delivered: that crash is late news about
banked work and must be counted ``stale``, not retried.
"""

import socket
import threading

from repro.engine import worker
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.events import (CHAIN_COMPLETED, JOB_QUARANTINED,
                                 JOB_REQUEUED, JOB_RETRIED)
from repro.engine.jobs import job_from_json
from repro.engine.remote import RemoteExecutor
from repro.engine.sweep import KernelSchedule, run_campaigns
from repro.engine.transport import (BYE, HELLO, RESULT, WIRE_VERSION,
                                    recv_frame, send_frame)
from repro.errors import TransportError, WorkerCrashError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import load_document
from repro.verifier.validator import Validator


def _campaign(*, run_dir=None, job_timeout=None, retries=None,
              progress=None):
    bench = benchmark("p01")
    config = SearchConfig(ell=12, beta=1.0, seed=5,
                          optimization_proposals=300,
                          optimization_restarts=3,
                          optimization_chains=2,
                          synthesis_chains=0,
                          testcase_count=4)
    options = EngineOptions(jobs=1, run_dir=run_dir,
                            job_timeout=job_timeout, retries=retries,
                            progress=progress)
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=config, validator=Validator(),
                    options=options, name="p01")


def _key(result):
    return (tuple((str(r.program), r.cost, r.cycles)
                  for r in result.ranked),
            str(result.rewrite), result.rewrite_cycles,
            result.chains_scheduled, result.chains_saved)


class Clock:
    """A clock that moves only when the test sets it."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _granted(**options):
    """A started schedule with its first wave in flight."""
    clock = Clock()
    events = []
    schedule = KernelSchedule(_campaign(progress=events.append,
                                        **options), clock=clock)
    schedule.start()
    jobs = schedule.next_grant(0.0)
    assert [job.job_id for job in jobs] == list(schedule.in_flight)
    return schedule, jobs, clock, events


def test_fail_retries_then_requeues_then_quarantines():
    schedule, jobs, clock, events = _granted(job_timeout=10.0, retries=2)
    assert len(jobs) == 2
    job = jobs[0]
    flight = schedule.in_flight[job.job_id]
    assert (flight.attempt, flight.granted_at, flight.deadline) == \
        (0, 100.0, 110.0)

    clock.now = 105.0
    assert schedule.fail(job.job_id, "worker died", requeue=False) is job
    assert (flight.attempt, flight.deadline) == (1, 105.0 + 20.0)
    clock.now = 130.0
    assert schedule.fail(job.job_id, "deadline expired",
                         requeue=True) is job
    assert (flight.attempt, flight.deadline) == (2, 130.0 + 40.0)
    assert len(schedule.in_flight) == 2
    # the third failed attempt is retries + 1: quarantine, nothing to
    # submit, and the job leaves the ledger
    assert schedule.fail(job.job_id, "worker died",
                         requeue=False) is None
    assert list(schedule.in_flight) == [jobs[1].job_id]
    assert schedule.recovery_counts == {
        "retried": 1, "requeued": 1, "quarantined": 1,
        "duplicates": 0, "stale": 0}
    assert [(e.event, e.data["attempt"]) for e in events
            if e.event in (JOB_RETRIED, JOB_REQUEUED,
                           JOB_QUARANTINED)] == \
        [(JOB_RETRIED, 1), (JOB_REQUEUED, 2), (JOB_QUARANTINED, 3)]

    # the schedule still finishes, over the survivor
    assert schedule.complete(
        worker.run_chain_job(schedule.context, jobs[1]))
    assert schedule.next_grant(0.0) is None and schedule.done
    assert schedule.result.quarantined_jobs == [job.job_id]


def test_deadlines_are_off_without_a_job_timeout():
    schedule, jobs, _, _ = _granted()
    assert all(flight.deadline is None
               for flight in schedule.in_flight.values())
    schedule.fail(jobs[0].job_id, "worker died", requeue=False)
    assert schedule.in_flight[jobs[0].job_id].deadline is None


def test_complete_drops_duplicates_and_stale_news():
    schedule, jobs, _, events = _granted(retries=0)
    first, second = jobs
    payloads = [worker.run_chain_job(schedule.context, job)
                for job in jobs]
    assert schedule.complete(payloads[0]) is True
    assert schedule.complete(payloads[0]) is False       # a duplicate
    assert schedule.recovery_counts["duplicates"] == 1
    # retries=0: the first failure quarantines, and the job's late
    # result is stale
    assert schedule.fail(second.job_id, "worker died",
                         requeue=False) is None
    assert schedule.complete(payloads[1]) is False
    assert schedule.recovery_counts["stale"] == 1
    # a crash for work already banked is stale too, never a retry
    assert schedule.fail(first.job_id, "late crash",
                         requeue=False) is None
    assert schedule.recovery_counts == {
        "retried": 0, "requeued": 0, "quarantined": 1,
        "duplicates": 1, "stale": 2}
    assert list(schedule.completed) == [first.job_id]
    assert sum(e.event == CHAIN_COMPLETED for e in events) == 1
    assert not schedule.in_flight


# -- a late crash over real sockets -------------------------------------------

def _scripted_worker(address, name, decide):
    """A worker speaking the wire protocol whose answer to each grant
    is ``decide(job)``: "run" it, "hold" it silently, or "hang up"."""
    sock = socket.create_connection(address, timeout=30.0)
    try:
        send_frame(sock, {"type": HELLO, "wire": WIRE_VERSION,
                          "worker": name})
        contexts = {kernel: worker.context_from_json(data)
                    for kernel, data in
                    recv_frame(sock, timeout=30.0)["contexts"].items()}
        while True:
            frame = recv_frame(sock, timeout=120.0)
            if frame is None or frame["type"] == BYE:
                return
            kernel, job = frame["kernel"], job_from_json(frame["job"])
            action = decide(job)
            if action == "hang up":
                return
            if action == "run":
                send_frame(sock, {
                    "type": RESULT, "kernel": kernel,
                    "payload": worker.run_chain_job(contexts[kernel],
                                                    job)})
    except (TransportError, OSError):
        pass                    # the coordinator already closed
    finally:
        sock.close()


def test_late_crash_for_a_banked_job_is_counted_stale(tmp_path):
    """Worker A holds job J past its deadline; J is re-granted to
    worker B; A delivers J, then B dies holding it. The driver sees
    exactly one crash, counts it stale, and ranks bit-identically to
    the serial run."""
    baseline = [_key(result) for result in run_campaigns([_campaign()])]
    state = {}
    a_granted, c_granted, b_granted = (threading.Event(),
                                       threading.Event(),
                                       threading.Event())
    delivered, crash_seen = threading.Event(), threading.Event()
    crashes, threads = [], []

    class Watched(RemoteExecutor):
        def next_result(self, timeout=None):
            try:
                kernel, payload = super().next_result(timeout)
            except WorkerCrashError as exc:
                crashes.append(exc.job_id)
                crash_seen.set()
                raise
            if payload["job_id"] == state.get("job"):
                delivered.set()
            return kernel, payload

    def worker_a(job):
        if "job" in state:
            return "hold"
        state["job"] = job.job_id
        a_granted.set()
        b_granted.wait(60.0)            # hold J until B owns it too
        return "run"

    def worker_c(job):
        if c_granted.is_set():
            return "hold"
        c_granted.set()
        crash_seen.wait(60.0)           # keep a job in flight
        return "run"

    def worker_b(job):
        if job.job_id != state["job"]:
            return "hold"
        b_granted.set()
        delivered.wait(60.0)            # die only after A delivered J
        return "hang up"

    def launch(address):
        for name, decide, granted in (("a", worker_a, a_granted),
                                      ("c", worker_c, c_granted),
                                      ("b", worker_b, None)):
            thread = threading.Thread(target=_scripted_worker,
                                      args=(address, name, decide),
                                      daemon=True)
            thread.start()
            threads.append(thread)
            if granted is not None:
                granted.wait(60.0)

    def factory(contexts):
        executor = Watched(contexts)
        launcher = threading.Thread(target=launch,
                                    args=(executor.address,),
                                    daemon=True)
        launcher.start()
        threads.append(launcher)
        return executor

    results = run_campaigns(
        [_campaign(run_dir=tmp_path / "p01", job_timeout=2.0)],
        executor_factory=factory)
    assert crashes == [state["job"]]
    recovery = load_document(tmp_path / "p01")["runtime"]["recovery"]
    assert recovery["stale"] == 1
    assert recovery["retried"] == 0 and recovery["quarantined"] == 0
    assert [_key(result) for result in results] == baseline
    for thread in list(threads):        # every worker saw its bye
        thread.join(30.0)
        assert not thread.is_alive()
    assert len(threads) == 4
