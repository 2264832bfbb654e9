"""The metrics journal: ``RUN_DIR/metrics.jsonl`` and its merged view.

The file is a :class:`repro.journal.Journal`, which owns the
durability and torn-tail rules; records are versioned (``"v"``).
Three record shapes share the file::

    {"v": 1, "record": "chain", "kernel": ..., "job_id": ...,
     "telemetry": {<ChainTelemetry wire form>}}
    {"v": 1, "record": "campaign", "kernel": ...,
     "telemetry": {<merged deterministic wire form>},
     "runtime": {seconds, grant latencies, occupancy timeline}}
    {"v": 1, "record": "minimize", "kernel": ...,
     "telemetry": {<MinimizeResult.to_json() wire form>}}

One ``chain`` record lands the moment a chain job completes (so an
in-progress run is reportable live); the single ``campaign`` record
lands at finalization with the plan-order merge of every chain; the
single ``minimize`` record lands when the kernel's winning rewrite is
shrunk (``repro minimize``, ``Session(minimize=...)``). A resumed run
re-opens the journal in append mode, and records are deduplicated by
(kernel, job_id) so chains satisfied from the job journal are
backfilled exactly once.

:func:`metrics_document` folds the records into the one merged
document ``repro engine report --json`` emits. Its ``runtime``
sections (wall-clock seconds, the compiled evaluator's process-global
cache counters, scheduler latencies) legitimately differ between runs
and across ``--jobs N``; :func:`deterministic_document` strips them,
and what remains is bit-identical at any worker count — the telemetry
extension of the engine's replay guarantee (the sweep replay matrix
in ``tests/engine`` holds it across jobs 1/2/4).
"""

from __future__ import annotations

from pathlib import Path

from repro.journal import Journal
from repro.telemetry.chain import ChainTelemetry
from repro.telemetry.metrics import Json, TelemetryError

METRICS_VERSION = 1

RECORD_CHAIN = "chain"
RECORD_CAMPAIGN = "campaign"
RECORD_MINIMIZE = "minimize"

#: The (kernel-level) keys campaign/minimize records dedup under.
_CAMPAIGN_KEY = "@campaign"
_MINIMIZE_KEY = "@minimize"


def _require(record: Json, fields: tuple[str, ...],
             what: str) -> None:
    missing = [name for name in fields if name not in record]
    if missing:
        raise TelemetryError(f"corrupt {what}: missing {missing}")


def _validate(record: Json) -> Json:
    _require(record, ("v", "record", "kernel", "telemetry"),
             "metrics record")
    if record["v"] != METRICS_VERSION:
        raise TelemetryError(
            f"metrics record version {record['v']!r} is not "
            f"{METRICS_VERSION}; refusing to misread the journal")
    if record["record"] not in (RECORD_CHAIN, RECORD_CAMPAIGN,
                                RECORD_MINIMIZE):
        raise TelemetryError(
            f"unknown metrics record kind {record['record']!r}")
    if record["record"] == RECORD_CHAIN:
        _require(record, ("job_id",), "chain metrics record")
    return record


def iter_metrics(path: str | Path):
    """Stream-decode a metrics journal (torn trailing line dropped)."""
    for payload in Journal(path, "metrics journal"):
        yield _validate(payload)


def read_metrics(path: str | Path) -> list[Json]:
    return list(iter_metrics(path))


class MetricsLog:
    """Appends telemetry records to one run directory's journal.

    Appends deduplicate by (kernel, job_id) so a resume can blindly
    backfill journal-satisfied chains; ``append=False`` starts the
    journal over.
    """

    def __init__(self, path: str | Path, *,
                 append: bool = False) -> None:
        self._journal = Journal(path, "metrics journal")
        self._seen: set[tuple[str, str]] = set()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        if append:
            self._seen.update(self._key(record)
                              for record in iter_metrics(path))
            self._journal.heal()
        else:
            self._journal.reset()

    @staticmethod
    def _key(record: Json) -> tuple[str, str]:
        if record["record"] == RECORD_MINIMIZE:
            return (record["kernel"], _MINIMIZE_KEY)
        return (record["kernel"],
                record.get("job_id", _CAMPAIGN_KEY))

    def record_chain(self, kernel: str, job_id: str,
                     telemetry: Json) -> bool:
        """Journal one chain's telemetry; False if already journaled."""
        return self._append({"v": METRICS_VERSION,
                             "record": RECORD_CHAIN,
                             "kernel": kernel, "job_id": job_id,
                             "telemetry": telemetry})

    def record_campaign(self, kernel: str, telemetry: Json,
                        runtime: Json) -> bool:
        """Journal the campaign-level merge; False if already there."""
        return self._append({"v": METRICS_VERSION,
                             "record": RECORD_CAMPAIGN,
                             "kernel": kernel, "telemetry": telemetry,
                             "runtime": runtime})

    def record_minimize(self, kernel: str, telemetry: Json) -> bool:
        """Journal the winner-shrink summary; False if already there."""
        return self._append({"v": METRICS_VERSION,
                             "record": RECORD_MINIMIZE,
                             "kernel": kernel, "telemetry": telemetry})

    def _append(self, record: Json) -> bool:
        key = self._key(record)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._journal.append(record)
        return True


def metrics_document(records: list[Json]) -> Json | None:
    """Fold one run directory's records into the merged document.

    Returns None when the journal holds nothing yet. A finished run's
    ``campaign`` section comes from the journaled plan-order merge; an
    in-progress run synthesizes it from the chains seen so far (the
    merge is order-insensitive by construction, so the two agree).
    """
    chains: dict[str, Json] = {}
    campaign: Json | None = None
    minimize: Json | None = None
    runtime: Json = {}
    kernel = None
    for record in records:
        if kernel is None:
            kernel = record["kernel"]
        elif record["kernel"] != kernel:
            raise TelemetryError(
                f"metrics journal mixes kernels {kernel!r} and "
                f"{record['kernel']!r}; run directories are per-kernel")
        if record["record"] == RECORD_CHAIN:
            chains[record["job_id"]] = record["telemetry"]
        elif record["record"] == RECORD_MINIMIZE:
            minimize = record["telemetry"]
        else:
            campaign = record["telemetry"]
            runtime = dict(record.get("runtime", {}))
    if kernel is None:
        return None
    complete = campaign is not None
    if campaign is None:
        merged = ChainTelemetry()
        for job_id in sorted(chains):
            merged.absorb(ChainTelemetry.from_json(chains[job_id]))
        campaign = merged.deterministic_json()
    return {"v": METRICS_VERSION, "kernel": kernel,
            "complete": complete, "chains": chains,
            "campaign": campaign, "minimize": minimize,
            "runtime": runtime}


def deterministic_document(document: Json) -> Json:
    """The document minus every ``runtime`` section.

    What remains is a pure function of (campaign fingerprint, plan) —
    the projection the jobs-1/2/4 bit-identity tests compare.
    """
    chains = {
        job_id: {key: value for key, value in telemetry.items()
                 if key != "runtime"}
        for job_id, telemetry in document["chains"].items()}
    minimize = document.get("minimize")
    if minimize is not None:
        minimize = {key: value for key, value in minimize.items()
                    if key != "runtime"}
    return {"v": document["v"], "kernel": document["kernel"],
            "complete": document["complete"], "chains": chains,
            "campaign": {key: value
                         for key, value in document["campaign"].items()
                         if key != "runtime"},
            "minimize": minimize}
