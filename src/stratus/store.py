"""Append-only run history store: one JSON record per line, fsync on append."""

import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from .workflow import RunRecord, makespan_ms

logger = logging.getLogger("stratus")

_BAD_RECORD = (KeyError, TypeError, ValueError)  # ValueError covers JSONDecodeError


class StoreError(Exception):
    pass


@dataclass(frozen=True)
class RunSummary:
    run_id: str
    workflow_id: str
    submission_ms: int
    final_state: str
    makespan_ms: int


def _decode(line: bytes) -> RunRecord:
    return RunRecord.from_record(json.loads(line))


def _summarize(record: RunRecord) -> RunSummary:
    return RunSummary(
        run_id=record.run_id,
        workflow_id=record.workflow_id,
        submission_ms=record.submission_ms,
        final_state=record.final_state.value,
        makespan_ms=makespan_ms(record),
    )


class RunStore:
    """Crash-safe run history at a single file path.  Appends are flushed
    and fsynced before returning; ``load_all`` scans the whole file.

    An append cut short by a crash leaves an unparseable final line with no
    newline.  Reads skip it with a warning and the next append truncates it;
    a bad line anywhere else is corruption and raises StoreError.

    Run summaries are kept in memory with the byte offset and the inode of
    the file they were read from: each ``list_previous_executions`` call
    parses only the whole lines appended since, by this store or any other
    writer, and starts over when the file shrank or was replaced."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._reset(None)

    def _reset(self, inode: "int | None") -> None:
        self._inode = inode
        self._summaries: list[RunSummary] = []
        self._offset = 0  # bytes of the whole lines summarized
        self._lines = 0

    def append(self, record: RunRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_record(), sort_keys=True).encode() + b"\n"
        with open(self.path, "ab+") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
            if fh.read(1) not in (b"", b"\n"):
                # unterminated last line: end a whole record, cut off a torn one
                fh.seek(0)
                data = fh.read()
                start = data.rfind(b"\n") + 1
                try:
                    _decode(data[start:])
                    line = b"\n" + line
                except _BAD_RECORD:
                    fh.truncate(start)
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def _scan(self, data: bytes, first_line: int):
        """Decode ``data``, whose first line is line ``first_line`` of the
        file.  Yields (length with newline, record or None when blank) per
        whole line, then (0, record) for a final record that only lacks its
        newline.  A torn final line is skipped with a warning; a bad whole
        line raises StoreError."""
        lines = data.split(b"\n")
        tail = lines.pop()  # empty unless the last append was cut short
        for lineno, line in enumerate(lines, start=first_line):
            record = None
            if line.strip():
                try:
                    record = _decode(line)
                except _BAD_RECORD as exc:
                    raise StoreError(f"{self.path}:{lineno}: bad record: {exc}") from None
            yield len(line) + 1, record
        if tail.strip():
            try:
                record = _decode(tail)
            except _BAD_RECORD as exc:
                logger.warning(
                    "%s:%d: skipping torn final record: %s",
                    self.path, first_line + len(lines), exc,
                )
                return
            yield 0, record

    def load_all(self) -> list[RunRecord]:
        if not self.path.exists():
            return []
        data = self.path.read_bytes()
        return [record for _, record in self._scan(data, 1) if record is not None]

    def _all_summaries(self) -> list[RunSummary]:
        """Summaries of every stored record in file order; call with the
        lock held."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            self._reset(None)
            return []
        with fh:
            stat = os.fstat(fh.fileno())
            if stat.st_ino != self._inode or stat.st_size < self._offset:
                self._reset(stat.st_ino)
            fh.seek(self._offset)
            data = fh.read()
        for size, record in self._scan(data, self._lines + 1):
            if not size:
                return self._summaries + [_summarize(record)]
            if record is not None:
                self._summaries.append(_summarize(record))
            self._offset += size
            self._lines += 1
        return list(self._summaries)

    def list_previous_executions(self, workflow_id: str) -> list[RunSummary]:
        """Summaries of persisted runs of one workflow, newest submission
        first; ties keep the later-appended record first."""
        with self._lock:
            summaries = self._all_summaries()
        matches = [
            (position, summary)
            for position, summary in enumerate(summaries)
            if summary.workflow_id == workflow_id
        ]
        matches.sort(key=lambda pair: (-pair[1].submission_ms, -pair[0]))
        return [summary for _, summary in matches]
