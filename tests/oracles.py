"""Reference definitions the tests compare the system against.  Each states
a rule the plain way; the system computes the same thing faster or as a
by-product, and a differential test checks that the two agree."""

import dataclasses
import hashlib
import random

from stratus.blueprint import LayerId
from stratus.sim import EventRecord
from stratus.taskmon import CodePartProfile, TaskTraceRecord, TraceError
from stratus.workflow import RunRecord, RunState, TaskState


# The paper's grid: an independent transcription of the permitted-layer
# table, encoded as letter strings (R = resource manager, W = workflow,
# M = machine, T = task) so it shares no literals with the implementation.
ORACLE_ROWS = {
    "infrastructure_status": "R",
    "file_system_status": "R",
    "running_workflows": "R",
    "workflow_status": "RW",
    "workflow_specification": "RW",
    "graphical_representation": "W",
    "workflow_id": "RW",
    "execution_report": "W",
    "previous_executions": "W",
    "machine_status": "RM",
    "machine_type": "RM",
    "hardware_specification": "M",
    "available_resources": "RM",
    "used_resources": "RM",
    "task_status": "RWMT",
    "requested_resources": "RWMT",
    "consumed_resources": "RWMT",
    "resource_consumption_for_code_parts": "T",
    "task_id": "RWMT",
    "application_logs": "T",
    "task_duration": "RWMT",
    "low_level_task_metrics": "T",
    "fault_diagnosis": "T",
}

LETTER_TO_LAYER = {
    "R": LayerId.RESOURCE_MANAGER,
    "W": LayerId.WORKFLOW,
    "M": LayerId.MACHINE,
    "T": LayerId.TASK,
}

WORKFLOW_OWNED = {
    "workflow_status",
    "workflow_specification",
    "graphical_representation",
    "workflow_id",
    "execution_report",
    "previous_executions",
}


def oracle_permitted(feature_name: str) -> set[LayerId]:
    return {LETTER_TO_LAYER[ch] for ch in ORACLE_ROWS[feature_name]}


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
