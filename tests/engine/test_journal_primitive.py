"""The run-directory journal primitive (:mod:`repro.journal`), byte by
byte.

Every run-directory journal is a :class:`Journal`, so the torn-tail
rule is proven here once: the final record is cut at every byte
boundary, and after each cut reading yields exactly the intact
records, a reopened writer appends cleanly after them, and the file
ends on a line boundary. The per-journal files (``test_truncation``,
``test_progress``, ``telemetry/test_journal``, ``minimize/test_cegis``)
remain as wiring tests.
"""

import json

import pytest

from repro.errors import EngineError
from repro.journal import Journal

RECORDS = [{"job_id": "opt-c000-s000", "cost": 3},
           {"job_id": "opt-c001-s000", "cost": [1, 2]},
           {"job_id": "opt-c002-s000", "text": "movq rdi, rax"}]


def _written(tmp_path, records=RECORDS):
    journal = Journal(tmp_path / "j.jsonl", "test journal")
    journal.append(*records)
    return journal


def test_append_writes_one_sorted_json_line_per_record(tmp_path):
    journal = _written(tmp_path)
    assert journal.path.read_bytes() == b"".join(
        json.dumps(record, sort_keys=True).encode() + b"\n"
        for record in RECORDS)
    assert list(journal) == RECORDS


def test_missing_file_reads_empty_and_heals_to_nothing(tmp_path):
    journal = Journal(tmp_path / "absent.jsonl", "test journal")
    assert list(journal) == []
    journal.heal()
    assert not journal.path.exists()


def test_every_cut_of_the_final_record_reads_heals_and_appends(tmp_path):
    content = _written(tmp_path).path.read_bytes()
    head = content[:content.rstrip(b"\n").rfind(b"\n") + 1]
    record = content[len(head):]
    extra = {"job_id": "opt-c003-s000"}
    for cut in range(len(record) + 1):
        path = tmp_path / f"cut{cut}.jsonl"
        path.write_bytes(head + record[:cut])
        survivors = RECORDS if cut == len(record) else RECORDS[:-1]
        # reading yields exactly the intact records, and never writes
        assert list(Journal(path, "test journal")) == survivors, cut
        assert path.read_bytes() == head + record[:cut]
        # a reopened writer appends after the survivors
        Journal(path, "test journal").append(extra)
        assert list(Journal(path, "test journal")) == \
            survivors + [extra], cut
        assert path.read_bytes().endswith(b"\n"), cut


def test_heal_cuts_back_to_the_last_newline(tmp_path):
    journal = _written(tmp_path)
    intact = journal.path.read_bytes()
    with journal.path.open("ab") as handle:
        handle.write(b'{"job_id": "opt-c0')
    journal.heal()
    assert journal.path.read_bytes() == intact
    journal.heal()                          # idempotent
    assert journal.path.read_bytes() == intact


def test_heal_finds_a_newline_behind_a_long_torn_tail(tmp_path):
    journal = _written(tmp_path)
    intact = journal.path.read_bytes()
    with journal.path.open("ab") as handle:
        handle.write(b'{"blob": "' + b"x" * 10_000)
    journal.heal()
    assert journal.path.read_bytes() == intact


def test_a_file_without_any_newline_heals_to_empty(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"job_id": "opt')
    Journal(path, "test journal").heal()
    assert path.read_bytes() == b""


@pytest.mark.parametrize("bad", [b"{not json", b'{"a": 1', b"\xff\xfe"])
def test_a_complete_unparseable_line_anywhere_raises(tmp_path, bad):
    lines = [json.dumps(record, sort_keys=True).encode()
             for record in RECORDS]
    for index in range(len(lines)):
        damaged = list(lines)
        damaged[index] = bad
        path = tmp_path / f"bad{index}.jsonl"
        path.write_bytes(b"\n".join(damaged) + b"\n")
        with pytest.raises(EngineError,
                           match=f"corrupt test journal line {index + 1}"):
            list(Journal(path, "test journal"))
    # the same bytes as an unterminated final line are a torn tail
    path.write_bytes(b"\n".join(lines) + b"\n" + bad)
    assert list(Journal(path, "test journal")) == RECORDS


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"a": 2}\n')
    assert list(Journal(path, "test journal")) == [{"a": 1}, {"a": 2}]


def test_reset_starts_over(tmp_path):
    journal = _written(tmp_path)
    journal.reset()
    assert journal.path.read_bytes() == b""
    journal.append(RECORDS[0])
    assert list(journal) == RECORDS[:1]


def test_follow_waits_for_a_line_to_complete(tmp_path):
    journal = _written(tmp_path, RECORDS[:1])
    with journal.path.open("ab") as handle:
        handle.write(b'{"job_id": "opt-c0')   # an append in flight
    torn = journal.path.read_bytes()

    def finish_line():
        assert journal.path.read_bytes() == torn   # follow never heals
        with journal.path.open("ab") as handle:
            handle.write(b'01-s000"}\n')
        return True

    def last_append():
        Journal(journal.path, "test journal").append(RECORDS[2])
        return False

    polls = iter([finish_line, last_append])
    followed = list(journal.follow(poll=lambda: next(polls)(),
                                   interval=0))
    assert followed == [RECORDS[0], {"job_id": "opt-c001-s000"},
                        RECORDS[2]]


def test_follow_raises_on_a_corrupt_line(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b'{"a": 1}\n{oops\n')
    follower = Journal(path, "test journal").follow(poll=lambda: False)
    assert next(follower) == {"a": 1}
    with pytest.raises(EngineError, match="line 2"):
        next(follower)
