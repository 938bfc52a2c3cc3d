"""Reference definitions the tests compare the system against.  Each states
a rule the plain way; the system computes the same thing faster or as a
by-product, and a differential test checks that the two agree."""

import dataclasses
import hashlib
import random

from stratus.sim import EventRecord
from stratus.taskmon import CodePartProfile, TaskTraceRecord, TraceError
from stratus.workflow import RunRecord, RunState, TaskState


def stream_seed(seed: int, task_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def instance_stream(seed: int, task_id: str) -> random.Random:
    """Independent random stream for one instance, derived from the root
    seed and the instance id only."""
    return random.Random(stream_seed(seed, task_id))


def trace_line(record: TaskTraceRecord) -> str:
    """One trace line: the str() of each field in declaration order, which
    is column order, tab-separated."""
    return "\t".join(str(getattr(record, field.name)) for field in dataclasses.fields(record))


def event_line(event: EventRecord) -> str:
    """One event-log line: time, kind, subject, detail, tab-separated."""
    return f"{event.t_ms}\t{event.kind}\t{event.subject}\t{event.detail}"


def resolve_final_state(run: RunRecord, poisoned: frozenset[str] = frozenset()) -> RunState:
    """Derive the run's final state.  ``poisoned`` holds instances that can
    never become eligible (their ancestry failed); they stay pending forever
    and do not keep the run alive."""
    states = [i.state for i in run.instances]
    if all(s is TaskState.SUCCEEDED for s in states):
        return RunState.SUCCEEDED
    open_instances = [
        i for i in run.instances if not i.state.terminal and i.task_id not in poisoned
    ]
    if any(s is TaskState.FAILED for s in states) and not open_instances:
        return RunState.FAILED
    return RunState.RUNNING


def validate_code_parts(parts: "list[CodePartProfile]", record: TaskTraceRecord) -> None:
    """Check that one task's code-part durations fit inside its trace
    duration."""
    total = sum(p.duration_ms for p in parts)
    if total > record.duration_ms:
        raise TraceError(
            f"{record.task_id}: code part durations {total} exceed task "
            f"duration {record.duration_ms}"
        )
