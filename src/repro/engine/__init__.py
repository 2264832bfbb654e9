"""Parallel search engine: multi-process chain orchestration.

Decomposes a search into independent chain jobs (scheduler — an
incremental, one-chain-at-a-time source), runs them serially, across
a process pool, or over TCP worker connections
(executor/worker/remote + transport), merges chain outputs into one
deterministic verdict and running partial rankings (aggregator),
journals completed jobs for checkpoint/resume (checkpoint), decides
when a kernel has had enough chains (budget), and streams versioned
progress events for live consumers (events). :class:`Campaign`
describes one kernel's search; the cross-kernel scheduler (sweep)
executes any number of them over one shared pool;
:class:`repro.api.session.Session` — and the legacy ``Stoke`` facade
through it — sits on top.
"""

from repro.engine.aggregator import (best_signature, dedup_programs,
                                     final_ranking, merge_testcases,
                                     synthesis_starts)
from repro.engine.budget import (BudgetSpec, StoppingRule,
                                 available_budgets, register_budget)
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.checkpoint import CheckpointStore
from repro.engine.events import (EventLog, ProgressEvent, follow_events,
                                 format_event, iter_events, read_events)
from repro.engine.executor import (ProcessPoolExecutor, SerialExecutor,
                                   make_executor)
from repro.engine.jobs import (ChainJob, JobResult, OPTIMIZATION,
                               SYNTHESIS)
from repro.engine.remote import RemoteExecutor, run_worker
from repro.engine.scheduler import (optimization_jobs,
                                    optimization_rounds, synthesis_jobs)
from repro.engine.sweep import KernelSchedule, run_campaigns
from repro.engine.worker import CampaignContext, run_chain_job

__all__ = ["BudgetSpec", "Campaign", "CampaignContext", "ChainJob",
           "CheckpointStore", "EngineOptions", "EventLog", "JobResult",
           "KernelSchedule", "OPTIMIZATION", "ProcessPoolExecutor",
           "ProgressEvent", "RemoteExecutor", "SYNTHESIS",
           "SerialExecutor", "StoppingRule", "available_budgets",
           "best_signature", "dedup_programs", "final_ranking",
           "follow_events", "format_event", "iter_events",
           "make_executor", "merge_testcases", "optimization_jobs",
           "optimization_rounds", "read_events", "register_budget",
           "run_campaigns", "run_chain_job", "run_worker",
           "synthesis_jobs", "synthesis_starts"]
