"""Spans recorded around the repo's public functions, from outside.

:func:`install` replaces each traced function at the name its caller
looks up (``repro.cost.function.compile_program``, not the defining
module's name) with a wrapper that opens a span on entry and closes it
on exit. Spans nest, so a layer's *self* time is its duration minus the
time its child spans cover, and the root span's self time is the part
of a round no layer accounts for.

Totals, self times and call counts are exact for every call. Span
records (name, start, end, parent) are kept in memory for every span
outside the inner loop and for every :data:`SAMPLE_EVERY`-th
proposal's spans inside it, and written out once the round ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Span records are kept for every this-many-th proposal.
SAMPLE_EVERY = 64
#: Spans opened inside a proposal; kept only on sampled proposals.
_INNER = frozenset({
    "search.propose", "cost.evaluate", "cost.correctness",
    "cost.static_terms", "emulator.compile_program",
    "emulator.compiled_run", "testgen.undo_writes", "telemetry.record"})


class Tracer:
    """Nested spans with exact per-name totals and sampled records."""

    def __init__(self) -> None:
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[str, int, int, int]] = []
        # open spans: [name, start_ns, child_ns, record index or -1]
        self._stack: list[list] = []
        self._keep_inner = True
        self.active = False

    def start(self) -> None:
        """Open the root span; wrappers record only while it is open."""
        self.active = True
        self.enter("root")

    def stop(self) -> None:
        """Close the root span at the end of the round's work, so the
        benchmark's own output checks stay out of every layer."""
        self.exit()
        self.active = False

    def enter(self, name: str) -> None:
        if name == "search.propose":
            self._keep_inner = self.calls[name] % SAMPLE_EVERY == 0
        self.calls[name] += 1
        self._stack.append([name, time.perf_counter_ns(), 0, -1])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, _ = frame = self._stack.pop()
        duration = end - start
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if name not in _INNER or self._keep_inner:
            parent = self._stack[-1][3] if self._stack else -1
            frame[3] = len(self.spans)
            self.spans.append((name, start, end, parent))

    def wrap(self, func, name: str, on_result=None):
        """``func`` inside a span; ``on_result`` sees each return value."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = func
        return traced

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path: Path) -> None:
        """Every kept span record, as ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def _patch(owner, attr: str, tracer: Tracer, name: str,
           on_result=None) -> None:
    setattr(owner, attr,
            tracer.wrap(getattr(owner, attr), name, on_result))


def install(tracer: Tracer, *, inner: bool) -> None:
    """Wrap the traced functions of every layer.

    ``inner=False`` wraps only what runs in the coordinator of a
    parallel round (engine scheduling, journals, wire framing), so
    forked pool workers inherit no wrappers on their chain work.
    """
    import repro.engine.remote as remote
    import repro.engine.sweep as sweep
    import repro.engine.transport as transport
    from repro.engine.checkpoint import CheckpointStore
    from repro.engine.events import EventLog
    from repro.engine.executor import ProcessPoolExecutor, SerialExecutor
    from repro.engine.transport import FrameBuffer
    from repro.telemetry.journal import MetricsLog

    for executor in (SerialExecutor, ProcessPoolExecutor,
                     remote.RemoteExecutor):
        _patch(executor, "submit", tracer, "engine.submit")
        _patch(executor, "next_result", tracer, "engine.wait")
    _patch(sweep, "result_from_json", tracer, "engine.decode")
    for owner, attrs in ((CheckpointStore, ("start_fresh", "record",
                                            "record_grant",
                                            "record_recovery")),
                         (MetricsLog, ("record_chain", "record_campaign",
                                       "record_minimize")),
                         (EventLog, ("emit",))):
        for attr in attrs:
            _patch(owner, attr, tracer, "engine.journal")
    for attr, counter in (("note_retry", "engine.retries"),
                          ("note_requeue", "engine.retries"),
                          ("quarantine", "engine.quarantined")):
        _patch(sweep.KernelSchedule, attr, tracer, counter)

    def encoded(data: bytes) -> None:
        if not tracer.active:
            return
        tracer.counts["engine.frames"] += 1
        tracer.counts["engine.frame_bytes"] += len(data)

    # send_frame encodes through the transport module's encode_frame
    _patch(transport, "encode_frame", tracer, "engine.encode", encoded)
    _patch(remote, "send_frame", tracer, "engine.transport")
    feed, frames = FrameBuffer.feed, FrameBuffer.frames

    def counted_feed(self, chunk):
        if tracer.active:
            tracer.counts["engine.frame_bytes"] += len(chunk)
        feed(self, chunk)

    def decoded_frames(self):
        if not tracer.active:
            return frames(self)
        tracer.enter("engine.transport")
        try:
            whole = list(frames(self))
        finally:
            tracer.exit()
        tracer.counts["engine.frames"] += len(whole)
        return iter(whole)

    FrameBuffer.feed = counted_feed
    FrameBuffer.frames = decoded_frames
    if inner:
        _install_inner(tracer, sweep)


def _install_inner(tracer: Tracer, sweep) -> None:
    import repro.api.session as session
    import repro.cost.function as function
    import repro.engine.worker as worker
    import repro.search.ranker as ranker
    from repro.cost.terms import CostTerm, CorrectnessTerm
    from repro.emulator.compile import CompiledProgram
    from repro.search.mcmc import MCMCSampler
    from repro.search.moves import MoveGenerator
    from repro.smt.sat import Solver
    from repro.smt.solver import BVSolver
    from repro.smt.tseitin import BitBlaster
    from repro.telemetry.chain import ChainTelemetry
    from repro.testgen.generator import TestcaseGenerator
    from repro.testgen.testcase import Testcase
    from repro.verifier.symbolic import SymbolicExecutor
    from repro.verifier.validator import Validator

    counts = tracer.counts

    def chain_done(chain) -> None:
        counts["search.proposals"] += chain.stats.proposals
        counts["search.accepted"] += chain.stats.accepted

    def evaluated(result) -> None:
        counts["cost.testcases"] += result.testcases_evaluated
        counts["cost.early_exits"] += result.exceeded

    _patch(MoveGenerator, "propose", tracer, "search.propose")
    _patch(MCMCSampler, "run", tracer, "search.chain", chain_done)
    _patch(function.CostFunction, "evaluate", tracer, "cost.evaluate",
           evaluated)
    _patch(CorrectnessTerm, "testcase_cost", tracer, "cost.correctness")
    for term in _subclasses(CostTerm):
        if not term.per_testcase and "program_cost" in vars(term):
            _patch(term, "program_cost", tracer, "cost.static_terms")
    _patch(function, "compile_program", tracer,
           "emulator.compile_program")
    _patch(CompiledProgram, "run", tracer, "emulator.compiled_run")
    _patch(TestcaseGenerator, "generate", tracer, "testgen.generate")
    _patch(Testcase, "undo_writes", tracer, "testgen.undo_writes")
    for module in (ranker, sweep, session):
        _patch(module, "actual_runtime", tracer, "perfsim.actual_runtime")
    _patch(ChainTelemetry, "record_proposal", tracer, "telemetry.record")
    _patch(Validator, "validate", tracer, "verifier.validate")
    _patch(SymbolicExecutor, "run", tracer, "verifier.symbolic")
    _patch(BVSolver, "check", tracer, "smt.check")
    _patch(BitBlaster, "assert_true", tracer, "smt.bitblast")
    _patch(Solver, "solve", tracer, "smt.sat")
    _patch(worker, "run_chain_job", tracer, "engine.run_chain_job")


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def layer_metrics(tracer: Tracer, evaluator_delta: dict[str, int],
                  round_counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced round.

    Validator facts (refutations, short circuits, CNF size) come from
    the round's exact counts, which read them off each query's result.
    In a parallel round ``run.py`` takes the engine metrics from the
    coordinator's tracer instead (``COORDINATOR_METRICS``).
    """
    t = tracer
    counts = t.counts
    proposals = t.calls["search.propose"]
    evaluations = t.calls["cost.evaluate"]
    validations = t.calls["verifier.validate"]
    return {
        "search.propose_s": t.seconds("search.propose"),
        "search.propose_calls": proposals,
        "search.chain_self_s": t.self_seconds("search.chain"),
        "search.accept_ratio": _ratio(counts["search.accepted"],
                                      counts["search.proposals"]),
        "cost.evaluate_s": t.seconds("cost.evaluate"),
        "cost.evaluate_calls": evaluations,
        "cost.correctness_s": t.seconds("cost.correctness"),
        "cost.static_terms_s": t.seconds("cost.static_terms"),
        "cost.testcases_per_eval": _ratio(counts["cost.testcases"],
                                          evaluations),
        "cost.early_exit_ratio": _ratio(counts["cost.early_exits"],
                                        evaluations),
        "emulator.compile_program_s": t.seconds("emulator.compile_program"),
        "emulator.compile_program_calls":
            t.calls["emulator.compile_program"],
        "emulator.compiled_run_s": t.seconds("emulator.compiled_run"),
        "emulator.compiled_run_calls": t.calls["emulator.compiled_run"],
        "emulator.tier_ups": evaluator_delta.get("tier_ups", 0),
        "emulator.structural_hits": evaluator_delta.get("structural_hits",
                                                        0),
        "emulator.instance_hits": evaluator_delta.get("instance_hits", 0),
        "emulator.fallback_steps": (
            evaluator_delta.get("cold_fallbacks", 0)
            + evaluator_delta.get("uncompilable_fallbacks", 0)),
        "testgen.generate_s": t.seconds("testgen.generate"),
        "testgen.undo_writes_s": t.seconds("testgen.undo_writes"),
        "perfsim.actual_runtime_s": t.seconds("perfsim.actual_runtime"),
        "telemetry.record_s": t.seconds("telemetry.record"),
        "verifier.validate_s": t.seconds("verifier.validate"),
        "verifier.validate_calls": validations,
        "verifier.symbolic_s": t.seconds("verifier.symbolic"),
        "verifier.short_circuit_ratio": _ratio(
            round_counts["short_circuits"], validations),
        "verifier.refuted_ratio": _ratio(round_counts["refuted"],
                                         validations),
        "smt.bitblast_s": t.seconds("smt.bitblast"),
        "smt.sat_s": t.seconds("smt.sat"),
        "smt.sat_calls": t.calls["smt.sat"],
        "smt.cnf_vars": round_counts["cnf_vars"],
        "smt.cnf_clauses": round_counts["cnf_clauses"],
        "engine.run_chain_job_s": t.seconds("engine.run_chain_job"),
        "engine.wait_s": t.seconds("engine.wait"),
        "engine.submit_s": t.seconds("engine.submit"),
        "engine.decode_s": t.seconds("engine.decode"),
        "engine.journal_s": t.seconds("engine.journal"),
        "engine.journal_records": t.calls["engine.journal"],
        "engine.retries": t.calls["engine.retries"],
        "engine.quarantined": t.calls["engine.quarantined"],
        "engine.frames": counts["engine.frames"],
        "engine.frame_bytes": counts["engine.frame_bytes"],
        "engine.transport_s": t.seconds("engine.transport"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
