"""Append-only run history store: an index of runs, one JSON summary line
per run, fsync on append."""

import json
import logging
import os
import threading
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .textfmt import field_dict
from .workflow import RunRecord, RunState, makespan_ms

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


class RunEntry(NamedTuple):
    """One stored run: its summary, and the absolute path of the directory
    that holds the whole run, or None when no directory was recorded."""

    summary: RunSummary
    run_dir: "Path | None"


def _summarize(record: RunRecord) -> RunSummary:
    return RunSummary(
        run_id=record.run_id,
        workflow_id=record.workflow_id,
        submission_ms=record.submission_ms,
        final_state=record.final_state.value,
        makespan_ms=makespan_ms(record),
    )


def _decode(line: bytes) -> RunEntry:
    keys = json.loads(line)
    summary = RunSummary(**{field.name: keys[field.name] for field in fields(RunSummary)})
    RunState(summary.final_state)  # a state no run ends in is a bad record
    run_dir = keys["run_dir"]
    return RunEntry(summary, None if run_dir is None else Path(run_dir))


class RunStore:
    """Crash-safe run history at a single file path.  Each append writes one
    line: the run's five ``RunSummary`` fields and ``run_dir``, the absolute
    path of the run's directory or null, with sorted keys.  The directory,
    not the store, holds the whole run.  Appends are flushed and fsynced
    before returning.

    An append cut short by a crash leaves an unparseable final line with no
    newline.  Reads skip it with a warning and the next append truncates it;
    a bad line anywhere else is corruption and raises StoreError.  A line
    that lacks a summary field is a bad line, and so is a whole-record line
    (the whole ``RunRecord``, as written before the store became an index).

    ``load_all`` is the one read: every other reader, here and in the CLI
    and the query service, goes through it.  It keeps its entries in memory
    with the bytes of the whole lines they were decoded from.  Each call
    reads the file; while the file still starts with those bytes, only the
    lines after them are decoded, and otherwise (the file was cleared, cut,
    rewritten or replaced) every line is.  So a store's entries are always
    those of the file as it is now, whoever wrote it."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._decoded = b""  # the whole lines that _entries were decoded from
        self._entries: list[RunEntry] = []

    def append(self, record: RunRecord, run_dir: "str | Path | None" = None) -> None:
        keys = {
            **field_dict(_summarize(record)),
            "run_dir": None if run_dir is None else str(Path(run_dir).resolve()),
        }
        line = json.dumps(keys, sort_keys=True).encode() + b"\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
            if fh.read(1) not in (b"", b"\n"):
                # unterminated last line: end a good line, cut off a torn or bad one
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

    def load_all(self) -> list[RunEntry]:
        """One entry per stored line, in file order, ending with a final
        line that only lacks its newline.  A torn final line is skipped with
        a warning; a bad whole line raises StoreError."""
        with self._lock:
            try:
                data = self.path.read_bytes()
            except FileNotFoundError:
                data = b""
            if not data.startswith(self._decoded):
                self._decoded, self._entries = b"", []
            # the tail is empty unless the last append was cut short
            *lines, tail = data[len(self._decoded):].split(b"\n")
            # kept only once all are decoded: a bad line leaves the store as it was
            added = []
            for index, line in enumerate(lines):
                if line.strip():
                    try:
                        added.append(_decode(line))
                    except _BAD_RECORD as exc:
                        number = self._decoded.count(b"\n") + index + 1
                        raise StoreError(f"{self.path}:{number}: bad record: {exc}") from None
            self._entries += added
            self._decoded = data[: len(data) - len(tail)]
            entries = list(self._entries)
            if tail.strip():
                try:
                    entries.append(_decode(tail))
                except _BAD_RECORD as exc:
                    number = self._decoded.count(b"\n") + 1
                    logger.warning("%s:%d: skipping torn final record: %s", self.path, number, exc)
            return entries

    def list_previous_executions(self, workflow_id: str) -> list[RunSummary]:
        """Summaries of persisted runs of one workflow, newest submission
        first; ties keep the later-appended record first."""
        matches = [s for s, _ in reversed(self.load_all()) if s.workflow_id == workflow_id]
        # sorted is stable, also in reverse, so ties stay newest-appended first
        return sorted(matches, key=attrgetter("submission_ms"), reverse=True)
