"""Append-only run history store: one JSON record per line, fsync on append."""

import json
import logging
import os
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


class RunStore:
    """Crash-safe run history at a single file path.  Appends are flushed
    and fsynced before returning; reads scan the whole file.

    An append cut short by a crash leaves an unparseable final line with no
    newline.  Reads skip it with a warning and the next append truncates it;
    a bad line anywhere else is corruption and raises StoreError."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)

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

    def load_all(self) -> list[RunRecord]:
        if not self.path.exists():
            return []
        lines = self.path.read_bytes().split(b"\n")
        tail = lines.pop()  # empty unless the last append was cut short
        records = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                records.append(_decode(line))
            except _BAD_RECORD as exc:
                raise StoreError(f"{self.path}:{lineno}: bad record: {exc}") from None
        if tail.strip():
            try:
                records.append(_decode(tail))
            except _BAD_RECORD as exc:
                logger.warning(
                    "%s:%d: skipping torn final record: %s", self.path, len(lines) + 1, exc
                )
        return records

    def list_previous_executions(self, workflow_id: str) -> list[RunSummary]:
        """Summaries of persisted runs of one workflow, newest submission
        first; ties keep the later-appended record first."""
        matches = [
            (position, record)
            for position, record in enumerate(self.load_all())
            if record.workflow_id == workflow_id
        ]
        matches.sort(key=lambda pair: (-pair[1].submission_ms, -pair[0]))
        return [
            RunSummary(
                run_id=record.run_id,
                workflow_id=record.workflow_id,
                submission_ms=record.submission_ms,
                final_state=record.final_state.value,
                makespan_ms=makespan_ms(record),
            )
            for _, record in matches
        ]

