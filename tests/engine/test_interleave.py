"""Cross-kernel scheduler tests: the replay matrix and resume.

The acceptance bar for the round-robin sweep: campaign results are
bit-identical across ``--jobs {1,2,4}``, across every budget form, and
between running the kernels one campaign at a time (``Campaign.run``)
and as one sweep (``run_campaigns``) — the scheduler may reorder
*when* rounds run, never *which* rounds exist or what they produce.
The wallclock budget is the one clock-driven rule, so its grant
decisions are journaled and a resume replays them instead of
re-consulting the clock.
"""

import json

import pytest

from repro.engine.budget import BudgetSpec
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.events import KERNEL_GRANTED, KERNEL_STOPPED
from repro.engine.sweep import run_campaigns
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import deterministic_document, load_document
from repro.verifier.validator import Validator

KERNELS = ("p01", "p03")
BUDGETS = ("fixed", "adaptive:stable=2", "plateau:eps=1,stable=2",
           "wallclock:secs=3600")


def _campaigns(jobs, budget, base_dir=None, resume=False, workers=0,
               job_timeout=None, progress=None):
    campaigns = []
    for index, name in enumerate(KERNELS):
        bench = benchmark(name)
        config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                              optimization_proposals=500,
                              optimization_restarts=3,
                              optimization_chains=3,
                              synthesis_chains=0,
                              testcase_count=4)
        run_dir = None if base_dir is None else base_dir / name
        options = EngineOptions(jobs=jobs, run_dir=run_dir,
                                resume=resume, budget=budget,
                                workers=workers,
                                job_timeout=job_timeout,
                                progress=progress)
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


_CACHE: dict = {}


def _run(jobs, budget, sweep):
    """Per-kernel result keys, cached across the matrix.

    sweep=False runs each campaign on its own (``Campaign.run``, one
    kernel at a time); sweep=True runs them all as one round-robin
    sweep (``run_campaigns``) — so the matrix compares the two ways of
    scheduling the same campaigns."""
    cache_key = (jobs, budget, sweep)
    if cache_key not in _CACHE:
        campaigns = _campaigns(jobs, budget)
        if sweep:
            results = run_campaigns(campaigns)
        else:
            results = [campaign.run() for campaign in campaigns]
        _CACHE[cache_key] = [_key(result) for result in results]
    return _CACHE[cache_key]


# -- the replay matrix --------------------------------------------------------

@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("sweep", [False, True])
def test_campaigns_bit_identical_across_the_matrix(budget, jobs, sweep):
    """jobs x budget x (one at a time | one sweep): all equal the
    one-at-a-time serial baseline."""
    assert _run(jobs, budget, sweep) == _run(1, budget, False)


def test_wallclock_high_deadline_matches_fixed():
    """A deadline that never trips must not change a single bit."""
    assert _run(1, "wallclock:secs=3600", True) == \
        _run(1, "fixed", False)


def test_sweep_rotates_optimization_grants_across_kernels():
    """The driver itself grants round-robin: while both kernels still
    run, their optimization grants alternate p01, p03, p01, ..."""
    events = []
    run_campaigns(_campaigns(1, "adaptive:stable=2",
                             progress=events.append))
    stopped = set()
    rotation = []
    for event in events:
        if event.event == KERNEL_STOPPED or (
                event.event == KERNEL_GRANTED
                and not event.data["granted"]):
            stopped.add(event.kernel)
        elif (event.event == KERNEL_GRANTED and not stopped
              and event.data["wave"] == "optimization"):
            rotation.append(event.kernel)
    assert len(rotation) >= 4
    assert rotation == [KERNELS[i % 2] for i in range(len(rotation))]


def test_metrics_documents_bit_identical_across_jobs(tmp_path):
    """The telemetry invariant: the deterministic slice of every
    kernel's metrics document is byte-for-byte identical at any worker
    count — only the ``runtime`` sections may differ."""
    fingerprints = {}
    for jobs in (1, 2, 4):
        base = tmp_path / f"jobs{jobs}"
        run_campaigns(_campaigns(jobs, "fixed", base_dir=base))
        fingerprints[jobs] = [
            json.dumps(deterministic_document(
                load_document(base / name)), sort_keys=True)
            for name in KERNELS]
    assert fingerprints[2] == fingerprints[1]
    assert fingerprints[4] == fingerprints[1]
    # the full document carries what determinism cannot: wall-clock
    # runtime and the campaign's scheduler occupancy/latency sections
    document = load_document(tmp_path / "jobs1" / KERNELS[0])
    assert document["complete"] is True
    assert "seconds" in document["runtime"]
    assert "occupancy" in document["runtime"]


# -- resume from a v4 checkpoint ----------------------------------------------

def test_resume_mid_campaign_from_v4_checkpoint(tmp_path):
    full = run_campaigns(_campaigns(2, "adaptive:stable=2",
                                    base_dir=tmp_path))
    # simulate a kill: one kernel loses its last journaled chain, the
    # other a torn trailing line
    for name, keep in (("p01", -1), ("p03", -1)):
        journal = tmp_path / name / "jobs.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) >= 2
        torn = lines[keep][:25] if name == "p03" else ""
        journal.write_text("\n".join(lines[:keep]) +
                           ("\n" + torn if torn else "\n"))
    resumed = run_campaigns(_campaigns(2, "adaptive:stable=2",
                                       base_dir=tmp_path, resume=True))
    assert [_key(r) for r in resumed] == [_key(r) for r in full]


def test_resume_across_transports(tmp_path):
    """The transport is not resume state: a run journaled on the local
    pool finishes on TCP workers with the same results (the wire
    version is checked at the TCP hello, not in the manifest)."""
    full = run_campaigns(_campaigns(1, "adaptive:stable=2",
                                    base_dir=tmp_path,
                                    job_timeout=120.0)[:1])
    journal = tmp_path / "p01" / "jobs.jsonl"
    lines = journal.read_text().splitlines()
    assert len(lines) >= 2
    journal.write_text("\n".join(lines[:-1]) + "\n")
    resumed = run_campaigns(_campaigns(1, "adaptive:stable=2",
                                       base_dir=tmp_path, resume=True,
                                       workers=2,
                                       job_timeout=120.0)[:1])
    assert [_key(r) for r in resumed] == [_key(r) for r in full]
    assert len(journal.read_text().splitlines()) == len(lines)


def test_engine_options_reject_interleave_false():
    """Every sweep interleaves; the field survives only as True."""
    assert EngineOptions().interleave is True
    assert EngineOptions(interleave=True).interleave is True
    with pytest.raises(EngineError, match="every sweep interleaves"):
        EngineOptions(interleave=False)


def test_resume_rejects_changed_budget_spec(tmp_path):
    run_campaigns(_campaigns(1, "plateau:eps=1,stable=2",
                             base_dir=tmp_path))
    with pytest.raises(EngineError, match="differs in budget"):
        run_campaigns(_campaigns(1, "plateau:eps=2,stable=2",
                                 base_dir=tmp_path, resume=True))


# -- wallclock grants are journaled, not re-decided ---------------------------

class Ticker:
    """A deterministic clock: every look costs one second."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wallclock_denies_grants_at_the_deadline(tmp_path):
    campaigns = _campaigns(1, "wallclock:secs=8", base_dir=tmp_path)
    results = run_campaigns(campaigns, clock=Ticker())
    saved = sum(result.chains_saved for result in results)
    scheduled = sum(result.chains_scheduled for result in results)
    assert saved > 0                    # the deadline bit
    assert scheduled > 0                # but not before work was done
    grants = (tmp_path / "p01" / "grants.jsonl").read_text()
    assert '"granted": true' in grants or '"granted": false' in grants


def test_wallclock_resume_replays_grants_not_the_clock(tmp_path):
    """A resumed run far past the deadline must re-run the chains the
    journal granted — the decisions, not the clock, are authoritative."""
    full = run_campaigns(_campaigns(1, "wallclock:secs=8",
                                    base_dir=tmp_path),
                         clock=Ticker())
    # drop the last journaled chain of the first kernel that ran any
    for name in KERNELS:
        journal = tmp_path / name / "jobs.jsonl"
        lines = journal.read_text().splitlines()
        if len(lines) > 1:
            journal.write_text("\n".join(lines[:-1]) + "\n")
            break
    resumed = run_campaigns(_campaigns(1, "wallclock:secs=8",
                                       base_dir=tmp_path, resume=True),
                            clock=Ticker(start=1e9))
    assert [_key(r) for r in resumed] == [_key(r) for r in full]


def test_sweep_rejects_mismatched_worker_counts():
    campaigns = _campaigns(1, "fixed")
    object.__setattr__(campaigns[1].options, "jobs", 2)
    with pytest.raises(EngineError, match="share a worker count"):
        run_campaigns(campaigns)


def test_sweep_rejects_duplicate_kernel_names():
    campaigns = _campaigns(1, "fixed")
    campaigns[1].name = campaigns[0].name
    with pytest.raises(EngineError, match="duplicate kernel names"):
        run_campaigns(campaigns)


def test_sweep_rejects_shared_run_directories(tmp_path):
    """Job ids are kernel-agnostic, so one shared journal would fuse
    both kernels' records and poison a later resume."""
    campaigns = _campaigns(1, "fixed")
    for campaign in campaigns:
        object.__setattr__(campaign.options, "run_dir",
                           tmp_path / "shared")
    with pytest.raises(EngineError, match="share a run directory"):
        run_campaigns(campaigns)


def test_budget_spec_travels_through_options():
    options = EngineOptions(budget="plateau:eps=0.5,stable=3")
    assert isinstance(options.budget, BudgetSpec)
    assert options.budget.spec_string() == "plateau:eps=0.5,stable=3"
