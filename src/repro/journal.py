"""The run-directory journal: one append-only JSONL file, made durable.

Every journal a campaign keeps — ``jobs``, ``grants``, ``recovery``,
``events``, ``metrics`` and the persistent ``cex_suite`` — is a
:class:`Journal`. Its owners add policy on top (version gates, dedup
keys, sequence numbers); the file rules live here, once:

* **A record is one newline-terminated JSON line.** Reading streams
  complete lines in O(1) memory. A complete line that does not parse
  means the file was edited by hand and raises :class:`EngineError`
  with its line number. An unterminated remainder is the *torn tail*
  of an interrupted append and is never yielded. Blank lines are
  skipped.
* **An append is durable before it returns**: all its lines are
  written, then flushed and fsynced once.
* **A writer heals the file once**, when it opens the journal for
  append (:meth:`Journal.heal`) or else before its first append, by
  cutting it back to its last newline (truncate + fsync), so a new
  record never fuses onto a torn fragment. Records that survived the
  tear are never rewritten, so a crash mid-heal cannot lose them.
  Readers never heal: ``repro engine report --follow`` on a live run
  never modifies the file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import EngineError

#: How far back one read looks for the last newline while healing.
_HEAL_CHUNK = 4096


class Journal:
    """One append-only JSONL file under the rules above.

    Args:
        path: the file; it need not exist yet.
        what: what the records are, for error messages
            (``"corrupt <what> line N in <path>"``).
    """

    def __init__(self, path: str | Path, what: str) -> None:
        self.path = Path(path)
        self.what = what
        self._healed = False

    def __iter__(self) -> Iterator[Any]:
        """Stream the intact records (a missing file has none)."""
        for record, _, _ in self._scan(0, 0):
            yield record

    def reset(self) -> None:
        """Start the journal over, empty."""
        self.path.write_bytes(b"")
        self._healed = True

    def heal(self) -> None:
        """Open the journal for append: drop a torn tail, if any."""
        self._healed = True
        try:
            handle = self.path.open("rb+")
        except FileNotFoundError:
            return
        with handle:
            _heal(handle)

    def append(self, *records: Any) -> None:
        """Append records as one durable write."""
        lines = "".join(json.dumps(record, sort_keys=True) + "\n"
                        for record in records)
        with self.path.open("ab+") as handle:
            if not self._healed:
                _heal(handle)
                self._healed = True
            handle.write(lines.encode())
            handle.flush()
            os.fsync(handle.fileno())

    def follow(self, *, poll: Callable[[], bool],
               interval: float = 0.2) -> Iterator[Any]:
        """Tail a journal that another process is appending to.

        Yields each record as its line completes; between appends,
        sleeps ``interval`` and re-consults ``poll``. The generator
        ends when ``poll`` returns False and one final read finds
        nothing new. A line caught mid-append is the torn tail of that
        read and is picked up whole by a later one.
        """
        offset = lineno = 0
        live = True
        while True:
            for record, offset, lineno in self._scan(offset, lineno):
                yield record
            if not live:
                return
            live = poll()
            if live:
                time.sleep(interval)

    def _scan(self, offset: int,
              lineno: int) -> Iterator[tuple[Any, int, int]]:
        """Decode the complete lines after byte ``offset`` (line
        ``lineno``); yields each record with the position past it."""
        try:
            stream = self.path.open("rb")
        except FileNotFoundError:
            return
        with stream:
            stream.seek(offset)
            for line in stream:
                if not line.endswith(b"\n"):
                    return                  # the torn tail
                offset += len(line)
                lineno += 1
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    raise EngineError(
                        f"corrupt {self.what} line {lineno} in "
                        f"{self.path}") from None
                yield record, offset, lineno


def _heal(handle) -> None:
    """Cut an open journal back to just past its last newline."""
    size = keep = handle.seek(0, os.SEEK_END)
    while keep:
        start = max(0, keep - _HEAL_CHUNK)
        handle.seek(start)
        newline = handle.read(keep - start).rfind(b"\n")
        if newline >= 0:
            keep = start + newline + 1
            break
        keep = start
    if keep < size:
        handle.truncate(keep)
        os.fsync(handle.fileno())
