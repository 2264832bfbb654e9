"""The run-dir report renderer: sparklines, discovery, sections."""

import json

import repro.emulator.compile as compiled
from repro.engine.campaign import Campaign, EngineOptions
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.telemetry import (ChainTelemetry, MetricsLog,
                             deterministic_document, discover_run_dirs,
                             load_document, render_report, sparkline)
from repro.telemetry.report import evaluator_lines, summary_table


def _sample_chain(steps=10, kind="opcode"):
    telemetry = ChainTelemetry()
    cost = 100
    for step in range(steps):
        accepted = step % 2 == 0
        if accepted:
            cost -= 1
        telemetry.record_proposal(
            telemetry.move_row(kind), accepted=accepted,
            delta=-1 if accepted else 3, bounded=False,
            testcases=step % 4, step=step, cost=cost, best=cost)
    telemetry.seal(steps - 1, cost, cost)
    telemetry.runtime["seconds"] = 0.25
    return telemetry


def _journal_run(run_dir, kernel="p01", complete=True):
    run_dir.mkdir(parents=True, exist_ok=True)
    log = MetricsLog(run_dir / "metrics.jsonl")
    first, second = _sample_chain(8), _sample_chain(12, kind="swap")
    log.record_chain(kernel, "opt-c000-s000", first.to_json())
    log.record_chain(kernel, "opt-c001-s000", second.to_json())
    if complete:
        merged = ChainTelemetry()
        merged.absorb(first)
        merged.absorb(second)
        log.record_campaign(
            kernel, merged.deterministic_json(),
            {"seconds": 0.5,
             "grant_latency": {"count": 2, "mean": 0.2, "max": 0.3},
             "occupancy": {"capacity": 256, "stride": 1,
                           "points": [[0.0, 1.0], [0.1, 2.0],
                                      [0.4, 0.0]]}})
    return run_dir


def test_sparkline_scales_and_downsamples():
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▁" * 3
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(1000)), width=48)) == 48


def test_discover_run_dirs_accepts_run_or_base(tmp_path):
    run = _journal_run(tmp_path / "sweep" / "p01")
    _journal_run(tmp_path / "sweep" / "p03", kernel="p03")
    (tmp_path / "sweep" / "notes.txt").write_text("ignored")
    # a single kernel's run dir resolves to itself
    assert discover_run_dirs(run) == [run]
    # a sweep base dir resolves to its kernel children, sorted
    assert discover_run_dirs(tmp_path / "sweep") == \
        [tmp_path / "sweep" / "p01", tmp_path / "sweep" / "p03"]
    assert discover_run_dirs(tmp_path / "empty") == []


def test_summary_table_reports_state(tmp_path):
    finished = load_document(_journal_run(tmp_path / "a"))
    running = load_document(
        _journal_run(tmp_path / "b", kernel="p03", complete=False))
    lines = summary_table([finished, running])
    assert "kernel" in lines[0]
    assert "finished" in lines[1] and "p01" in lines[1]
    assert "running" in lines[2] and "p03" in lines[2]


def test_render_report_has_every_section(tmp_path):
    document = load_document(_journal_run(tmp_path / "p01"))
    report = render_report([document])
    assert "campaign summary" in report
    assert "[p01] best-cost trajectory (Fig. 4)" in report
    assert "[p01] acceptance by move" in report
    assert "[p01] testcases per proposal (Fig. 5)" in report
    assert "[p01] scheduler" in report
    # the best chain is named with its start/end costs
    assert "chain opt-c001-s000" in report
    assert "grant→completion latency" in report
    assert "in-flight jobs over time" in report
    # per-move rows render from the merged campaign telemetry
    assert "opcode" in report and "swap" in report


def test_render_report_degrades_without_traces(tmp_path):
    run_dir = tmp_path / "p01"
    run_dir.mkdir()
    log = MetricsLog(run_dir / "metrics.jsonl")
    bare = ChainTelemetry()
    bare.seal(0, 10, 10)
    log.record_chain("p01", "synth-000", bare.to_json())
    report = render_report([load_document(run_dir)])
    assert "(no proposals recorded)" in report
    assert "(no scheduler runtime recorded yet)" in report


def test_evaluator_counters_sum_over_chains(tmp_path):
    run_dir = tmp_path / "p01"
    run_dir.mkdir()
    log = MetricsLog(run_dir / "metrics.jsonl")
    for job_id, tier_ups, skeletons in (("a", 40, 12), ("b", 2, 0)):
        chain = _sample_chain(4)
        chain.runtime["evaluator"] = {"tier_ups": tier_ups,
                                      "skeletons_compiled": skeletons,
                                      "structural_hits": 5,
                                      "cold_fallbacks": 1}
        log.record_chain("p01", job_id, chain.to_json())
    document = load_document(run_dir)
    assert evaluator_lines(document) == [
        "  evaluator: 42 tier-ups, 12 skeletons compiled, "
        "10 structural hits, 2 cold fallbacks"]
    assert "42 tier-ups, 12 skeletons compiled" in render_report([document])
    # runs that journaled no counters render exactly as before
    assert evaluator_lines(load_document(_journal_run(tmp_path / "x"))) \
        == []


def _campaign(run_dir, jobs):
    bench = benchmark("p01")
    config = SearchConfig(ell=10, beta=1.0, seed=3,
                          optimization_proposals=400,
                          optimization_restarts=2, optimization_chains=2,
                          synthesis_chains=0, testcase_count=4)
    return Campaign(bench.o0, bench.spec, bench.annotations,
                    config=config, validator=None,
                    options=EngineOptions(jobs=jobs, run_dir=run_dir),
                    name="p01")


def test_chains_journal_every_evaluator_counter(tmp_path):
    for cache in (compiled._STRUCTURAL_CACHE, compiled._SEEN_ONCE,
                  compiled._SKELETONS):
        cache.clear()              # cold caches: this run pays tier-ups
    _campaign(tmp_path / "jobs1", jobs=1).run()
    _campaign(tmp_path / "jobs2", jobs=2).run()
    serial = load_document(tmp_path / "jobs1")
    pooled = load_document(tmp_path / "jobs2")
    for document in (serial, pooled):
        for telemetry in document["chains"].values():
            counters = telemetry["runtime"]["evaluator"]
            assert set(counters) == set(compiled.evaluator_counters())
            assert all(count >= 0 for count in counters.values())
    totals = {name: sum(telemetry["runtime"]["evaluator"][name]
                        for telemetry in serial["chains"].values())
              for name in ("tier_ups", "skeletons_compiled")}
    # p01 has no jumps: every skeleton comes from a tier-up, and many
    # tier-ups share one
    assert 0 < totals["skeletons_compiled"] < totals["tier_ups"]
    assert "skeletons compiled" in render_report([serial])
    # the counters are runtime state: the deterministic slice is equal
    assert json.dumps(deterministic_document(serial), sort_keys=True) == \
        json.dumps(deterministic_document(pooled), sort_keys=True)
