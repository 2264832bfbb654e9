"""Round-trip tests for the engine's JSON codecs."""

import pytest

from repro.engine import serialize
from repro.errors import AsmSyntaxError, EngineError
from repro.search.config import SearchConfig
from repro.search.mcmc import ChainResult, ChainStats
from repro.suite.registry import benchmark
from repro.telemetry import ChainTelemetry
from repro.testgen.annotations import (Annotations, ConstantInput,
                                       PointerInput, RandomInput,
                                       RangeInput)
from repro.testgen.generator import TestcaseGenerator
from repro.x86.parser import parse_program


def test_program_roundtrip_preserves_padding_and_labels():
    prog = parse_program("""
        testq rdi, rdi
        jae .L1
        movq rsi, rax
        .L1
        addq rdi, rax
    """).padded(8)
    back = serialize.program_from_json(serialize.program_to_json(prog))
    assert back == prog
    assert len(back) == 8                     # padding survived
    assert back.labels == prog.labels


def test_program_decode_parses_each_slot_text_once():
    prog = parse_program("""
        movq rdi, rax
        addq rsi, rax
        movq rdi, rax
    """).padded(6)
    data = serialize.program_to_json(prog)
    first = serialize.program_from_json(data)
    second = serialize.program_from_json(data)
    assert first == prog == second
    assert first.code[0] is first.code[2] is second.code[0]
    assert first.code[1] is second.code[1]


def test_program_decode_of_a_corrupt_slot_raises_and_caches_nothing():
    text = "addq nosuchreg, rax"
    data = {"slots": ["movq rdi, rax", text], "labels": {}}
    for _ in range(2):
        with pytest.raises(AsmSyntaxError):
            serialize.program_from_json(data)
    assert text not in serialize._DECODED


def test_program_decode_memo_clears_at_its_bound(monkeypatch):
    monkeypatch.setattr(serialize, "_DECODED", {})
    monkeypatch.setattr(serialize, "_DECODED_LIMIT", 2)
    texts = ["movq rdi, rax", "addq rsi, rax", "subq rdx, rax"]
    decoded = [serialize.program_from_json({"slots": [text],
                                            "labels": {}}).code[0]
               for text in texts]
    assert [str(instr) for instr in decoded] == texts
    assert list(serialize._DECODED) == texts[2:]   # cleared at 2, refilled


def test_program_key_ignores_padding():
    prog = parse_program("movq rdi, rax")
    assert serialize.program_key(prog) == \
        serialize.program_key(prog.padded(16))


def test_testcase_roundtrip():
    bench = benchmark("saxpy")               # exercises memory fields
    generator = TestcaseGenerator(bench.o0, bench.spec,
                                  bench.annotations, seed=3)
    for testcase in generator.generate(4):
        back = serialize.testcase_from_json(
            serialize.testcase_to_json(testcase))
        assert back == testcase


def test_spec_roundtrip_with_mem_out():
    spec = benchmark("saxpy").spec
    back = serialize.spec_from_json(serialize.spec_to_json(spec))
    assert back == spec


def test_annotations_roundtrip():
    annotations = Annotations({
        "rdi": PointerInput(size=32, align=16),
        "esi": RangeInput(1, 99),
        "edx": ConstantInput(7),
        "ecx": RandomInput(mask=0xFF),
    })
    back = serialize.annotations_from_json(
        serialize.annotations_to_json(annotations))
    assert back == annotations


def test_config_roundtrip():
    config = SearchConfig(ell=17, beta=0.25, seed=42,
                          optimization_chains=3, improved_cost=False)
    back = serialize.config_from_json(serialize.config_to_json(config))
    assert back == config


def test_chain_result_roundtrip():
    prog = parse_program("movq rdi, rax").padded(4)
    stats = ChainStats(proposals=10, accepted=3,
                       testcases_evaluated=55, seconds=0.5,
                       cost_trace=[(0, 9), (5, 2)],
                       testcases_trace=[(0, 1.5)])
    chain = ChainResult(best_program=prog, best_cost=2,
                        current_program=prog, current_cost=4,
                        zero_cost=[(0, prog)], stats=stats)
    back = serialize.chain_from_json(serialize.chain_to_json(chain))
    assert back == chain
    assert serialize.chain_from_json(None) is None


def test_chain_result_roundtrip_carries_telemetry():
    prog = parse_program("movq rdi, rax").padded(4)
    telemetry = ChainTelemetry()
    telemetry.record_proposal(telemetry.move_row("opcode"),
                              accepted=True, delta=-3, bounded=False,
                              testcases=2, step=0, cost=7, best=7)
    telemetry.runtime["seconds"] = 0.25
    chain = ChainResult(best_program=prog, best_cost=7,
                        current_program=prog, current_cost=7,
                        zero_cost=[], stats=ChainStats(proposals=1),
                        telemetry=telemetry)
    payload = serialize.chain_to_json(chain)
    back = serialize.chain_from_json(payload)
    assert back == chain
    assert back.telemetry == telemetry
    # v4 journals predate the field; absence decodes as None
    del payload["telemetry"]
    assert serialize.chain_from_json(payload).telemetry is None


def test_require_fields_rejects_missing():
    with pytest.raises(EngineError):
        serialize.require_fields({"a": 1}, ("a", "b"), "record")
