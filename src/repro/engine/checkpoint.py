"""Checkpoint store: a run directory that survives interrupts.

Layout::

    <run_dir>/manifest.json   campaign fingerprint + frozen testcases
    <run_dir>/jobs.jsonl      one line per completed job result
    <run_dir>/grants.jsonl    one line per scheduler grant decision
    <run_dir>/recovery.jsonl  one line per retry/requeue/quarantine
    <run_dir>/events.jsonl    campaign progress stream (diagnostics)
    <run_dir>/metrics.jsonl   search telemetry (diagnostics)
    <run_dir>/cex_suite.jsonl persistent counterexamples (--harden)

The manifest freezes everything job results depend on — target, spec,
annotations, config, and the generated base testcases — so a resumed
campaign provably replays the same search, and resuming against a
different campaign is rejected instead of silently mixing results.
Each ``*.jsonl`` file is a :class:`repro.journal.Journal`, which owns
the durability and torn-tail rules; a job whose record was torn simply
re-runs.

Manifest versions (any mismatch rejects the resume):

* **v1** (PR 1): ``target``, ``spec``, ``annotations``, ``config``,
  ``testcases``.
* **v2** (PR 2): adds ``cost`` and ``strategy`` — the cost-spec string
  (which since PR 3 also carries the ``evaluator=`` choice) and the
  strategy name, so a resume cannot silently re-search under different
  machinery.
* **v3** (PR 4): adds ``budget`` — the stopping-rule spec string
  (``fixed`` or ``adaptive:stable=K``). An adaptive campaign's journal
  contains only the chains its rule actually scheduled; resuming it
  under a different rule would re-decide which chains exist, so a
  changed budget is rejected like any other fingerprint field.
* **v4** (PR 5): adds the cross-kernel scheduling-policy field
  (``none`` or ``roundrobin``). The policy decides the grant
  order of the shared worker pool; results are bit-identical either
  way, but a resumed campaign must not silently switch schedulers, so
  the policy is frozen like every other fingerprint field. v4 run
  directories also journal *grant decisions* in ``grants.jsonl``:
  one record per scheduler decision (chain index, granted, reason).
  Deterministic rules re-derive the same decisions on replay; the
  clock-driven ``wallclock`` rule cannot, so a resume replays the
  journaled decisions instead of re-consulting the clock.
* **v5** (PR 6): job payloads carry per-chain search telemetry
  (``chain.telemetry``) and the run directory gains ``metrics.jsonl``,
  the telemetry journal (:mod:`repro.telemetry.journal`). The journal
  is diagnostic, not resume state — but a v4 journal's payloads cannot
  supply telemetry for journal-satisfied chains on resume, so the
  version gate keeps resumed runs' metrics documents complete.
* **v6** (PR 7): adds ``minimize`` and ``harden`` — the rewrite
  minimization policy (``off`` or a comma-separated pass list) and the
  CEGIS hardening flag. Minimization changes the reported rewrite and
  hardening changes the frozen base testcases, so both are fingerprint
  fields: a resume under a different policy is rejected. Hardened run
  directories also carry ``cex_suite.jsonl``, the persistent
  counterexample suite (:mod:`repro.minimize.cegis`); it is
  deliberately *not* truncated by :meth:`CheckpointStore.start_fresh`
  — counterexamples accumulate across fresh runs (the flywheel), while
  the manifest records exactly which of them this run's base suite
  absorbed.
* **v7** (PR 8): adds ``retry`` — the retry policy's spec string
  (``retries=N,timeout=S``). The policy decides which chains get
  quarantined after repeated failures, so resuming under a different
  policy would re-decide the campaign's membership; it is frozen like
  the budget. v7 run directories also journal *recovery decisions* in
  ``recovery.jsonl`` — one record per retry/requeue/quarantine — which
  a resume replays so quarantined chains stay quarantined and the
  recovery counters survive the interrupt.
* **v8** (PR 9): adds ``transport`` — the execution transport's
  spec string (``local``, or ``tcp:wire=N`` for socket workers). The
  *worker count* is deliberately not frozen (results are worker-count
  invisible, exactly like ``jobs``); what a resume must agree on is
  the frame vocabulary version, so a run cannot silently hop between
  transports whose wire formats could diverge.
* **v9**: drops the v4 scheduling-policy field and the v8 ``transport``
  field. Every sweep now runs on the one round-robin scheduler, and
  results are bit-identical on either transport, so the two fields
  could only reject resumes that would have produced the same
  results. The wire version is still enforced where it matters, at
  the TCP hello, so a run started with ``--workers`` may be resumed
  with ``--jobs`` and the other way round. Ten fingerprint fields
  remain, each able to change a result.

A run directory may also hold ``events.jsonl``, the campaign progress
stream (:mod:`repro.engine.events`), and ``metrics.jsonl``, the search
telemetry journal. Both are diagnostic output, not resume state: the
fingerprint never covers them, and each is started over by its own
writer (:class:`~repro.engine.events.EventLog`,
:class:`~repro.telemetry.journal.MetricsLog`), not by
:meth:`CheckpointStore.start_fresh`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.serialize import Json, require_fields
from repro.errors import EngineError
from repro.journal import Journal, replace_durably

MANIFEST_VERSION = 9

_FINGERPRINT_FIELDS = ("target", "spec", "annotations", "config",
                       "cost", "strategy", "budget", "minimize",
                       "harden", "retry")


class CheckpointStore:
    """Journal of completed jobs under one run directory."""

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.manifest_path = self.run_dir / "manifest.json"
        self.journal_path = self.run_dir / "jobs.jsonl"
        self.grants_path = self.run_dir / "grants.jsonl"
        self.metrics_path = self.run_dir / "metrics.jsonl"
        self.recovery_path = self.run_dir / "recovery.jsonl"
        self._jobs = Journal(self.journal_path, "journal")
        self._grants = Journal(self.grants_path, "grants journal")
        self._recovery = Journal(self.recovery_path, "recovery journal")

    def has_manifest(self) -> bool:
        return self.manifest_path.exists()

    def start_fresh(self, manifest: Json) -> None:
        """Initialize the run directory, discarding any prior state."""
        require_fields(manifest, _FINGERPRINT_FIELDS + ("testcases",),
                       "manifest")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        payload = dict(manifest)
        payload["version"] = MANIFEST_VERSION
        replace_durably(self.manifest_path,
                        json.dumps(payload, sort_keys=True))
        for journal in (self._jobs, self._grants, self._recovery):
            journal.reset()

    def load_manifest(self, expected_fingerprint: Json) -> Json:
        """Load and cross-check the manifest against this campaign.

        Args:
            expected_fingerprint: the current campaign's target, spec,
                annotations, and config, serialized; any divergence
                from the stored run aborts the resume.
        """
        if not self.has_manifest():
            raise EngineError(
                f"no campaign to resume under {self.run_dir}")
        try:
            manifest = json.loads(self.manifest_path.read_text())
            version = manifest.get("version")
        except (OSError, ValueError, AttributeError):
            raise EngineError(f"cannot resume: damaged manifest "
                              f"{self.manifest_path}") from None
        # version first: an old-format manifest is a migration problem
        # ("version 1 is not 2"), not a corruption problem
        if version != MANIFEST_VERSION:
            raise EngineError(
                f"manifest version {version!r} is not "
                f"{MANIFEST_VERSION}; cannot resume")
        require_fields(manifest, _FINGERPRINT_FIELDS + ("testcases",),
                       "manifest")
        for name in _FINGERPRINT_FIELDS:
            if manifest[name] != expected_fingerprint[name]:
                raise EngineError(
                    f"cannot resume: stored campaign differs in {name} "
                    f"(run directory {self.run_dir})")
        return manifest

    def record(self, payload: Json) -> None:
        """Append one completed job result, durably."""
        self._jobs.append(payload)

    def record_grant(self, payload: Json) -> None:
        """Append one scheduler grant decision, durably."""
        self._grants.append(payload)

    def record_recovery(self, payload: Json) -> None:
        """Append one recovery decision (retry/requeue/quarantine),
        durably — quarantines especially must survive an interrupt, or
        a resume would hammer a poisoned chain all over again."""
        self._recovery.append(payload)

    def grants(self) -> list[Json]:
        """Journaled grant decisions, in decision order."""
        return list(self._grants)

    def recovery(self) -> list[Json]:
        """Journaled recovery decisions, in decision order."""
        return list(self._recovery)

    def completed(self) -> dict[str, Json]:
        """All journaled results, keyed by job id."""
        results: dict[str, Json] = {}
        for payload in self._jobs:
            if "job_id" not in payload:
                raise EngineError(
                    f"journal record without job_id in "
                    f"{self.journal_path}")
            results[payload["job_id"]] = payload
        return results
