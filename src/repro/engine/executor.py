"""Job executors: same-process for tests and ``jobs=1``, a
``multiprocessing`` pool otherwise (and, behind ``--workers``, the
socket coordinator in :mod:`repro.engine.remote`).

Every executor speaks the same submit/await protocol the cross-kernel
scheduler drives: :meth:`submit` enqueues a wave of jobs for one
kernel, :meth:`next_result` blocks until some submitted job finishes
and returns its ``(kernel, payload)`` pair. Payloads are identical
regardless of executor — workers build them with the same code — which
is what makes worker counts invisible in the final aggregate.

The ``next_result`` contract, identical across every executor (and
pinned for all of them by ``tests/engine/test_executor_contract.py``):

* With nothing submitted and nothing owed, it raises
  :class:`~repro.errors.EngineError` (``"next_result with no submitted
  jobs"``) no matter what ``timeout`` is — calling it is a scheduler
  bug, not a condition to wait out.
* ``timeout=None`` blocks until *some* delivery is ready, however
  long that takes. Deadline-based recovery is the caller's job: pass a
  finite timeout to get :class:`~repro.errors.JobTimeoutError` when
  nothing arrives in time.
* A worker dying (or its job raising) surfaces as
  :class:`~repro.errors.WorkerCrashError` naming the job, and counts
  as that attempt's answer.
* ``close()`` and ``terminate()`` are both idempotent, in either
  order — the KeyboardInterrupt-during-shutdown case.

The executor is shared by *every* kernel of a campaign sweep: contexts
are keyed by kernel name and installed once per worker process, so a
multi-kernel sweep keeps one warm pool saturated instead of forking
a fresh pool per kernel. ``submit()`` may be called repeatedly: an
incremental-budget campaign submits one chain round at a time, and the
pool persists across rounds and kernels.
"""

from __future__ import annotations

import multiprocessing
import queue
import sys
from collections import deque
from typing import Iterable

from repro.engine import worker
from repro.engine.jobs import ChainJob, job_from_json, job_to_json
from repro.engine.serialize import Json
from repro.engine.worker import CampaignContext
from repro.errors import (EngineError, JobTimeoutError, ReproError,
                          WorkerCrashError)


class SerialExecutor:
    """Runs every job in the calling process, in submission order."""

    def __init__(self, contexts: dict[str, CampaignContext]) -> None:
        self.contexts = contexts
        self._queue: deque[tuple[str, ChainJob]] = deque()

    def submit(self, kernel: str, jobs: Iterable[ChainJob]) -> int:
        added = 0
        for job in jobs:
            self._queue.append((kernel, job))
            added += 1
        return added

    def next_result(self, timeout: float | None = None) \
            -> tuple[str, Json]:
        # serial jobs run synchronously, so a deadline cannot fire
        # mid-job; the timeout parameter exists for protocol parity
        if not self._queue:
            raise EngineError("next_result with no submitted jobs")
        kernel, job = self._queue.popleft()
        return kernel, worker.run_chain_job(self.contexts[kernel], job)

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


# Per-process campaign contexts, installed once by the pool initializer
# so the (identical) contexts are not re-shipped with every job.
_PROCESS_CONTEXTS: dict[str, CampaignContext] | None = None


def _init_process(contexts_json: dict[str, Json]) -> None:
    global _PROCESS_CONTEXTS
    _PROCESS_CONTEXTS = {kernel: worker.context_from_json(payload)
                         for kernel, payload in contexts_json.items()}


def _run_job_in_process(task: tuple[str, Json]) -> tuple[str, Json]:
    assert _PROCESS_CONTEXTS is not None, "pool initializer did not run"
    kernel, job_json = task
    context = _PROCESS_CONTEXTS[kernel]
    try:
        return kernel, worker.run_chain_job(context,
                                            job_from_json(job_json))
    except ReproError:
        # configuration/validation failures are deterministic — a
        # retry would fail identically, so they stay loud
        raise
    except Exception as exc:
        # anything else is treated as the worker dying mid-chain;
        # naming the job makes the failure retryable upstream
        raise WorkerCrashError(
            f"worker failed running {job_json['job_id']}: "
            f"{type(exc).__name__}: {exc}",
            kernel=kernel, job_id=job_json["job_id"]) from exc


class ProcessPoolExecutor:
    """Fans jobs out across a ``multiprocessing`` pool.

    Jobs and results cross the process boundary as plain-JSON payloads;
    the contexts are installed once per worker process by the pool
    initializer. The pool is created lazily so planning errors surface
    before any process is forked. Completed payloads (or worker
    exceptions) land on an in-process queue via the async-result
    callbacks, which is what lets the scheduler rotate grants among
    many kernels while earlier waves are still in flight.
    """

    def __init__(self, contexts: dict[str, CampaignContext],
                 jobs: int) -> None:
        if jobs < 2:
            raise EngineError("ProcessPoolExecutor needs jobs >= 2")
        self.contexts = contexts
        self.jobs = jobs
        self._pool: multiprocessing.pool.Pool | None = None
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._outstanding = 0

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            # fork is the fast path but is unsafe on macOS (the reason
            # CPython switched its default there to spawn in 3.8)
            methods = multiprocessing.get_all_start_methods()
            method = ("fork" if "fork" in methods and
                      sys.platform != "darwin" else "spawn")
            ctx = multiprocessing.get_context(method)
            contexts_json = {kernel: worker.context_to_json(context)
                             for kernel, context in self.contexts.items()}
            self._pool = ctx.Pool(
                processes=self.jobs,
                initializer=_init_process,
                initargs=(contexts_json,))
        return self._pool

    def submit(self, kernel: str, jobs: Iterable[ChainJob]) -> int:
        pool = self._ensure_pool()
        added = 0
        for job in jobs:
            pool.apply_async(
                _run_job_in_process, ((kernel, job_to_json(job)),),
                callback=self._results.put,
                error_callback=self._results.put)
            added += 1
        self._outstanding += added
        return added

    def next_result(self, timeout: float | None = None) \
            -> tuple[str, Json]:
        if self._outstanding < 1:
            raise EngineError("next_result with no submitted jobs")
        try:
            item = self._results.get(timeout=timeout)
        except queue.Empty:
            raise JobTimeoutError(
                f"no job result within {timeout:g}s") from None
        self._outstanding -= 1
        if isinstance(item, BaseException):
            raise item
        return item

    # Both shutdown paths are idempotent — ``_pool`` is cleared before
    # join returns control, so a second close()/terminate() (or a
    # terminate after close, the KeyboardInterrupt-during-shutdown
    # case) is a no-op instead of an AttributeError.

    def close(self) -> None:
        """Graceful shutdown: lets in-flight jobs finish."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()

    def terminate(self) -> None:
        """Abandon in-flight jobs (error/interrupt shutdown); anything
        already journaled survives for a later --resume."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()


def make_executor(contexts: dict[str, CampaignContext],
                  jobs: int, *, workers: int = 0):
    """The right executor for a worker count (``jobs=1`` is serial).

    ``workers > 0`` selects the distributed path instead: a
    :class:`~repro.engine.remote.RemoteExecutor` coordinator that
    spawns that many loopback worker subprocesses (the ``--workers``
    flag; remote hosts join the same coordinator by hand).
    """
    if jobs < 1:
        raise EngineError("jobs must be at least 1")
    if workers > 0:
        if jobs != 1:
            raise EngineError(
                "--workers replaces the local pool; use it with "
                "jobs=1")
        from repro.engine.remote import RemoteExecutor
        return RemoteExecutor(contexts, spawn=workers)
    if jobs == 1:
        return SerialExecutor(contexts)
    return ProcessPoolExecutor(contexts, jobs)
