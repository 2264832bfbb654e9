"""Deterministic fault injection and the retry policy it exercises.

The ROADMAP's distributed-execution step needs a failure story before
any remote executor can exist: a worker that dies, hangs, or returns a
duplicate or corrupt payload must never deadlock ``next_result()`` or
poison the aggregate. In the spirit of SpecFuzz — surface the latent
error by *injecting* the faulty behavior instead of waiting for it —
this module builds the injector first and uses it to drive the
recovery machinery (:mod:`repro.engine.sweep`) to bit-identical
results.

Two spec grammars live here, both resume-fingerprint-grade strings:

``faults:seed=S,crash=P,dup=P,stall=P,corrupt=P``
    A :class:`FaultPlan`. Every probability defaults to 0; the
    ``faults:`` prefix is optional on input and canonical on output.
    Fault decisions are a pure function of ``(seed, job_id, attempt)``
    — never of worker count, scheduling order, or the clock — so an
    injected campaign replays identically at any ``--jobs N``.

``retries=N,timeout=S``
    A :class:`RetryPolicy` (the ``--retries`` / ``--job-timeout``
    flags). ``timeout=none`` disables deadlines; attempt ``k``'s
    deadline is ``timeout * min(BACKOFF**k, BACKOFF_CAP)`` — capped
    exponential backoff, so a genuinely slow job is not re-granted in
    a tight loop. The policy is frozen in the checkpoint manifest
    (v7): a resume under a different retry policy would re-decide
    which chains get quarantined, so it is rejected like any other
    fingerprint field.

The :class:`FaultInjectingExecutor` wraps any executor behind the
``submit``/``next_result`` protocol and simulates, per submitted
attempt:

* **crash** — the worker died: the job never runs and the scheduler
  receives a :class:`~repro.errors.WorkerCrashError` naming the job;
* **stall** — the worker hangs: the job's result simply never arrives,
  and only the scheduler's per-job deadline can recover it;
* **corrupt** — the payload is damaged in flight: a required field is
  stripped, which the scheduler's structural validation rejects;
* **dup** — the completion is delivered twice (a re-granted chain's
  original worker reporting late): the second copy must be deduplicated
  first-wins by job id.

At most one of crash/stall/corrupt fires per attempt (drawn in that
fixed order); dup only decorates an otherwise successful delivery.
Because chain jobs are deterministically seeded, a retried attempt
reproduces the lost payload bit for bit — which is why a recovered
campaign's rankings are bit-identical to the fault-free run's.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.engine.jobs import ChainJob
from repro.engine.serialize import Json
from repro.errors import (EngineError, JobTimeoutError, RegistryError,
                          WorkerCrashError)

FAULTS_PREFIX = "faults"

CRASH = "crash"
STALL = "stall"
CORRUPT = "corrupt"
DUP = "dup"

#: crash/stall/corrupt are mutually exclusive per attempt, rolled in
#: this order; dup rides along on successful deliveries only.
_PRIMARY_FAULTS = (CRASH, STALL, CORRUPT)

#: Retry backoff: attempt k's deadline multiplier is
#: ``min(BACKOFF ** k, BACKOFF_CAP)``.
BACKOFF = 2.0
BACKOFF_CAP = 8.0

DEFAULT_RETRIES = 3

#: Marker stripped from corrupted payloads; structural validation
#: (:func:`repro.engine.jobs.payload_problem`) is what detects it.
_CORRUPT_FIELD = "verified"


def _format_number(value: float) -> str:
    """Canonical numeric form (shared fingerprint discipline with
    :mod:`repro.engine.budget`): no trailing zeros, lossless."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _parse_pairs(text: str, what: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise RegistryError(
                f"bad {what} parameter {part!r} (expected key=value)")
        values[key.strip()] = value.strip()
    return values


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected executor faults.

    Attributes:
        seed: the plan's RNG seed; two runs with the same seed inject
            the same faults at the same (job, attempt) coordinates.
        crash / dup / stall / corrupt: per-attempt probabilities in
            [0, 1].
    """

    seed: int = 0
    crash: float = 0.0
    dup: float = 0.0
    stall: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in (CRASH, DUP, STALL, CORRUPT):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise RegistryError(
                    f"fault probability {name} must be in [0, 1], "
                    f"got {_format_number(value)}")

    @classmethod
    def parse(cls, text: "str | FaultPlan | None") -> "FaultPlan | None":
        """Parse ``faults:seed=S,crash=P,...`` (prefix optional)."""
        if text is None or isinstance(text, FaultPlan):
            return text
        body = text.strip()
        if body.startswith(FAULTS_PREFIX + ":"):
            body = body[len(FAULTS_PREFIX) + 1:]
        elif body == FAULTS_PREFIX:
            body = ""
        values = _parse_pairs(body, "fault")
        known = {"seed": int, CRASH: float, DUP: float, STALL: float,
                 CORRUPT: float}
        kwargs: dict[str, float] = {}
        for key, value in values.items():
            if key not in known:
                raise RegistryError(
                    f"unknown fault parameter {key!r} "
                    f"(known: {', '.join(sorted(known))})")
            try:
                kwargs[key] = known[key](value)
            except ValueError:
                raise RegistryError(
                    f"bad fault parameter value {value!r} for "
                    f"{key!r}") from None
        return cls(**kwargs)  # type: ignore[arg-type]

    @property
    def active(self) -> bool:
        """True when any fault can actually fire."""
        return any(getattr(self, name) > 0.0
                   for name in (CRASH, DUP, STALL, CORRUPT))

    def spec_string(self) -> str:
        """The canonical flag form (zero probabilities are implicit)."""
        parts = [f"seed={self.seed}"]
        for name in (CRASH, DUP, STALL, CORRUPT):
            value = getattr(self, name)
            if value > 0.0:
                parts.append(f"{name}={_format_number(value)}")
        return f"{FAULTS_PREFIX}:{','.join(parts)}"

    def roll(self, job_id: str, attempt: int) -> tuple[str | None, bool]:
        """The fault verdict for one submitted attempt.

        Returns ``(primary, dup)``: ``primary`` is one of ``crash`` /
        ``stall`` / ``corrupt`` or None for a successful delivery, and
        ``dup`` is True when that successful delivery arrives twice.
        The draw is keyed on ``(seed, job_id, attempt)`` alone —
        ``random.Random`` seeds strings via SHA-512, so the verdict is
        stable across processes, platforms, and hash randomization.
        """
        rng = random.Random(f"{self.seed}:{job_id}:{attempt}")
        primary = None
        for name in _PRIMARY_FAULTS:
            draw = rng.random()      # always drawn, to keep the stream
            if primary is None and draw < getattr(self, name):
                primary = name
        dup = primary is None and rng.random() < self.dup
        return primary, dup


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler recovers lost, failed, and stalled jobs.

    Attributes:
        retries: re-grants allowed per job after its first attempt;
            a job that fails ``retries + 1`` attempts is quarantined.
        job_timeout: per-attempt deadline in seconds; None disables
            deadline-based re-grants (failures still retry).
    """

    retries: int = DEFAULT_RETRIES
    job_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise RegistryError(
                f"retries must be >= 0, got {self.retries}")
        if self.job_timeout is not None and not (
                math.isfinite(self.job_timeout) and self.job_timeout > 0):
            # nan makes every deadline comparison false (the driver
            # would busy-spin) and inf overflows the pool's queue wait
            raise RegistryError(
                f"job timeout must be a finite number > 0 seconds, got "
                f"{_format_number(self.job_timeout)}")

    @classmethod
    def parse(cls, text: "str | RetryPolicy | None") -> "RetryPolicy":
        """Parse ``retries=N,timeout=S`` (``timeout=none`` allowed)."""
        if text is None:
            return cls()
        if isinstance(text, RetryPolicy):
            return text
        values = _parse_pairs(text, "retry")
        kwargs: dict = {}
        for key, value in values.items():
            if key == "retries":
                try:
                    kwargs["retries"] = int(value)
                except ValueError:
                    raise RegistryError(
                        f"bad retry count {value!r}") from None
            elif key == "timeout":
                if value.lower() == "none":
                    kwargs["job_timeout"] = None
                else:
                    try:
                        kwargs["job_timeout"] = float(value)
                    except ValueError:
                        raise RegistryError(
                            f"bad job timeout {value!r}") from None
            else:
                raise RegistryError(
                    f"unknown retry parameter {key!r} "
                    f"(known: retries, timeout)")
        return cls(**kwargs)

    def spec_string(self) -> str:
        """The canonical manifest form (the v7 ``retry`` field)."""
        timeout = ("none" if self.job_timeout is None
                   else _format_number(self.job_timeout))
        return f"retries={self.retries},timeout={timeout}"

    def deadline(self, granted_at: float, attempt: int) -> float | None:
        """Absolute deadline for one attempt (None when disabled)."""
        if self.job_timeout is None:
            return None
        factor = min(BACKOFF ** attempt, BACKOFF_CAP)
        return granted_at + self.job_timeout * factor


class FaultInjectingExecutor:
    """Wraps any executor and injects a :class:`FaultPlan`'s faults.

    Speaks the same ``submit``/``next_result`` protocol as the real
    executors, so the scheduler cannot tell injection from genuine
    worker misbehavior — which is the point: the recovery machinery is
    exercised through its production interface. Per-job attempt
    numbers are tracked here (each ``submit`` of the same job id is
    the next attempt), so the fault sequence a job experiences is
    independent of how grants are ordered across kernels and workers.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        # all per-job state is keyed by (kernel, job id): job ids are
        # kernel-agnostic, and a sweep runs many kernels at once
        self._attempts: dict[tuple[str, str], int] = {}
        #: deliveries owed to the scheduler ahead of the inner
        #: executor: ("crash", kernel, job_id) or ("result", kernel,
        #: payload) for duplicated completions.
        self._pending: deque[tuple] = deque()
        self._corrupt: set[tuple[str, str]] = set()
        self._dup: set[tuple[str, str]] = set()
        self._inner_outstanding = 0
        # attempts submitted and not yet answered (stalled attempts
        # never decrement): the executor-contract "no submitted jobs"
        # guard must fire on the same condition as every real executor
        self._outstanding = 0
        #: (kernel, job_id) of attempts swallowed whole — diagnostics
        #: for tests; the scheduler only ever sees the silence.
        self.stalled: list[tuple[str, str]] = []

    def submit(self, kernel: str, jobs: Iterable[ChainJob]) -> int:
        added = 0
        for job in jobs:
            key = (kernel, job.job_id)
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            primary, dup = self.plan.roll(job.job_id, attempt)
            added += 1
            self._outstanding += 1
            if primary == CRASH:
                self._pending.append((CRASH, kernel, job.job_id))
                continue
            if primary == STALL:
                self.stalled.append(key)
                continue
            if primary == CORRUPT:
                self._corrupt.add(key)
            if dup:
                self._dup.add(key)
            self.inner.submit(kernel, [job])
            self._inner_outstanding += 1
        return added

    def next_result(self, timeout: float | None = None) \
            -> tuple[str, Json]:
        if self._pending:
            item = self._pending.popleft()
            if item[0] == CRASH:
                _kind, kernel, job_id = item
                self._outstanding -= 1
                raise WorkerCrashError(
                    f"injected worker crash running {job_id}",
                    kernel=kernel, job_id=job_id)
            # a duplicated completion is a bonus delivery on top of
            # the attempt already answered — no outstanding change
            _kind, kernel, payload = item
            return kernel, payload
        if self._outstanding < 1:
            raise EngineError("next_result with no submitted jobs")
        if self._inner_outstanding < 1:
            # everything still outstanding was stalled: the worker is
            # silent, so only the caller's deadline can make progress
            if timeout is None:
                raise EngineError(
                    "stalled job with no deadline configured; set a "
                    "job timeout to recover stalled workers")
            time.sleep(min(timeout, 0.05))
            raise JobTimeoutError(
                "no result within the deadline (stalled worker)")
        try:
            kernel, payload = self.inner.next_result(timeout=timeout)
        except WorkerCrashError:
            # a *genuine* crash from the inner executor (a dead remote
            # worker, say) also answers one submitted attempt
            self._inner_outstanding -= 1
            self._outstanding -= 1
            raise
        self._inner_outstanding -= 1
        self._outstanding -= 1
        job_id = payload.get("job_id") if isinstance(payload, dict) \
            else None
        key = (kernel, job_id)
        if key in self._dup:
            self._dup.discard(key)
            self._pending.append(("result", kernel, dict(payload)))
        if key in self._corrupt:
            self._corrupt.discard(key)
            payload = {name: value for name, value in payload.items()
                       if name != _CORRUPT_FIELD}
        return kernel, payload

    # -- distributed pass-throughs --------------------------------------------
    # The wrapper is transparent to the driver's worker-membership
    # observability: when it sits over a RemoteExecutor, worker ids,
    # join/leave notices, and per-worker stats flow through untouched
    # (and degrade to empty over executors that have none).

    @property
    def last_worker_id(self):
        return getattr(self.inner, "last_worker_id", None)

    def drain_notices(self) -> list[tuple]:
        drain = getattr(self.inner, "drain_notices", None)
        return drain() if drain is not None else []

    def worker_stats(self) -> dict[str, int]:
        stats = getattr(self.inner, "worker_stats", None)
        return stats() if stats is not None else {}

    def close(self) -> None:
        self.inner.close()

    def terminate(self) -> None:
        self.inner.terminate()
