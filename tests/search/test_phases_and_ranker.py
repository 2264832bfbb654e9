"""Phase orchestration, ranker, runner, and CLI surface tests."""



from repro.cost.function import CostFunction, Phase
from repro.search.config import SearchConfig
from repro.search.mcmc import ZERO_COST_CAP
from repro.search.phases import OptimizationPhase, SynthesisPhase
from repro.search.strategies import MCMCStrategy
from repro.search.ranker import rerank
from repro.suite.registry import benchmark
from repro.suite.runner import budget_scale, search_config
from repro.testgen.generator import TestcaseGenerator
from repro.verifier.validator import Validator
from repro.x86.parser import parse_program


def _setup(name="p01", seed=4, **config_overrides):
    bench = benchmark(name)
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=seed)
    testcases = generator.generate(12)
    defaults = dict(ell=12, beta=1.0, optimization_proposals=12_000,
                    optimization_restarts=6, synthesis_proposals=8_000)
    defaults.update(config_overrides)
    config = SearchConfig(**defaults)
    return bench, generator, testcases, config


def test_optimization_phase_returns_verified_programs():
    bench, generator, testcases, config = _setup()
    cost = CostFunction(testcases, bench.o0, phase=Phase.OPTIMIZATION)
    phase = OptimizationPhase(bench.o0, bench.spec, cost, generator,
                              Validator(), config)
    result = phase.run(bench.o0, seed=21)
    assert result.verified, "the target itself is always verifiable"
    for program in result.verified:
        outcome = Validator().validate(bench.o0, program.compact(),
                                       bench.spec)
        assert outcome.equivalent


def test_optimization_phase_without_validator_keeps_candidates():
    bench, generator, testcases, config = _setup()
    cost = CostFunction(testcases, bench.o0, phase=Phase.OPTIMIZATION)
    phase = OptimizationPhase(bench.o0, bench.spec, cost, generator,
                              None, config)
    result = phase.run(bench.o0, seed=21)
    assert not result.verified
    assert result.candidates


class _RecordingStrategy(MCMCStrategy):
    """The paper's sampler, keeping every segment's zero-cost pool."""

    def __init__(self):
        self.segments = []

    def run_chain(self, *args, **kwargs):
        chain = super().run_chain(*args, **kwargs)
        self.segments.append(list(chain.zero_cost))
        return chain


def test_merged_zero_cost_of_a_ten_segment_phase_stays_capped():
    bench, generator, testcases, config = _setup(
        optimization_restarts=10)
    cost = CostFunction(testcases, bench.o0, phase=Phase.OPTIMIZATION)
    strategy = _RecordingStrategy()
    phase = OptimizationPhase(bench.o0, bench.spec, cost, generator,
                              None, config, strategy=strategy)
    result = phase.run(bench.o0, seed=21)
    assert len(strategy.segments) == 10
    found = [pair for segment in strategy.segments for pair in segment]
    assert len(found) > ZERO_COST_CAP      # the cap actually bites
    # the lowest-cost entries, in the order an uncapped merge sorts them
    assert result.chain.zero_cost == \
        sorted(found, key=lambda pair: pair[0])[:ZERO_COST_CAP]


def test_synthesis_phase_on_trivial_kernel():
    """Synthesis from random code must find `movq rdi, rax`-class
    programs for the identity-like p05 at small ell."""
    bench, generator, testcases, config = _setup(
        "p01", synthesis_proposals=25_000)
    config = SearchConfig(**{**config.__dict__, "ell": 6, "beta": 0.3})
    cost = CostFunction(testcases, bench.o0, phase=Phase.SYNTHESIS)
    phase = SynthesisPhase(bench.o0, bench.spec, cost, generator,
                           Validator(), config)
    result = phase.run(seed=2)
    # success is budget-dependent; what must hold: any verified result
    # is truly equivalent, and the chain made progress
    assert result.chain is not None
    for program in result.verified:
        outcome = Validator().validate(bench.o0, program.compact(),
                                       bench.spec)
        assert outcome.equivalent


def test_rerank_empty():
    assert rerank([]) == []


def test_rerank_orders_by_cycles_then_cost():
    fast = parse_program("movq rdi, rax")
    also_fast = parse_program("leaq (rdi), rax")
    ranked = rerank([(5, fast), (3, also_fast)])
    assert ranked[0].cost == 3


def test_runner_search_config_scales_ell_to_target():
    bench = benchmark("p01")
    config = search_config(bench)
    assert 8 <= config.ell <= 50
    assert config.ell >= len(bench.o0)


def test_budget_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_BUDGET", "full")
    assert budget_scale() == 16.0
    monkeypatch.setenv("REPRO_BUDGET", "nonsense")
    assert budget_scale() == 1.0
    monkeypatch.delenv("REPRO_BUDGET")
    assert budget_scale() == 1.0


def test_cli_list_and_show(capsys):
    from repro.cli import main
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mont" in out and "p25" in out
    assert main(["show", "p01"]) == 0
    out = capsys.readouterr().out
    assert "--- o0" in out and "--- gcc" in out


def test_cli_validate(capsys):
    from repro.cli import main
    assert main(["validate", "p01"]) == 0
    assert "equivalent to llvm -O0: True" in capsys.readouterr().out
