"""Reference definitions the tests compare the system against.  Each states
a rule the plain way; the system computes the same thing faster or as a
by-product, and a differential test checks that the two agree."""

import dataclasses
import hashlib
import heapq
import itertools
import random
from collections import namedtuple

from stratus.blueprint import LayerId
from stratus.machine import MachineStatus, ResourceVector
from stratus.sim import (
    BUILTIN_MODELS,
    EXIT_MACHINE_KILL,
    EXIT_OOM,
    EXIT_TASK_ERROR,
    EXIT_TIMEOUT,
    SAMPLE_CADENCE_MS,
    EventRecord,
    InjectionKind,
)
from stratus.taskmon import TRACE_HEADER, CodePartProfile, TaskTraceRecord, TraceError, diagnose
from stratus.workflow import RunRecord, RunState, TaskState, expand_instances, ready_tasks


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


def validate_code_parts(parts: "list[CodePartProfile]", record: TaskTraceRecord) -> None:
    """Check that one task's code-part durations fit inside its trace
    duration."""
    total = sum(p.duration_ms for p in parts)
    if total > record.duration_ms:
        raise TraceError(
            f"{record.task_id}: code part durations {total} exceed task "
            f"duration {record.duration_ms}"
        )


# --- the engine, defined the plain way ---

# an instance's drawn values, in the order the metric formula names them
Draws = namedtuple(
    "Draws",
    "runtime_ms syscall_read_count syscall_write_count cpu_wait_ms page_cache_hits"
    " page_cache_misses failure_draw",
)


def reference_synthesize_metrics(model, memory_request_bytes, rng):
    """The metric formula with every value recomputed from the model for
    each instance.  Returns the drawn values and the (cpu, rss, read bytes,
    write bytes) that every instance of a definition shares."""
    jitter = model.runtime_jitter_pct / 100
    runtime_factor = 1 + rng.uniform(-jitter, jitter)
    runtime_ms = max(1, round(model.base_runtime_ms * runtime_factor))
    failure_draw = rng.random()
    pcache_draw = rng.random()

    syscall_total = int(model.syscall_rate_per_s * runtime_ms / 1000)
    io_total = model.io_read_bytes + model.io_write_bytes
    read_share = model.io_read_bytes / io_total if io_total else 0.5
    syscall_read = int(syscall_total * read_share)
    total_pages = io_total // 4096
    hits = int(total_pages * (0.5 + 0.5 * pcache_draw))
    drawn = Draws(
        runtime_ms, syscall_read, syscall_total - syscall_read,
        int(model.cpu_wait_fraction * runtime_ms), hits, total_pages - hits, failure_draw,
    )
    shared = (
        model.cpu_pct_mean,
        int(model.rss_fraction_of_request * memory_request_bytes),
        model.io_read_bytes,
        model.io_write_bytes,
    )
    return drawn, shared


def reference_scaled_record(instance, drawn, shared, rss_bytes, end_ms, status, exit_code):
    """The trace record of a started ``instance`` that ends at ``end_ms``:
    every cumulative counter scaled by the completed share of its drawn
    runtime."""
    cpu_pct, _, rchar_bytes, wchar_bytes = shared
    duration = end_ms - instance.start_ms
    ratio = min(1.0, duration / drawn.runtime_ms) if drawn.runtime_ms else 1.0
    return TaskTraceRecord(
        task_id=instance.task_id,
        status=status,
        exit_code=exit_code,
        submit_ms=instance.submit_ms,
        start_ms=instance.start_ms,
        end_ms=end_ms,
        duration_ms=duration,
        cpu_pct=cpu_pct,
        rss_bytes=rss_bytes,
        rchar_bytes=int(rchar_bytes * ratio),
        wchar_bytes=int(wchar_bytes * ratio),
        syscall_read_count=int(drawn.syscall_read_count * ratio),
        syscall_write_count=int(drawn.syscall_write_count * ratio),
        cpu_wait_ms=int(drawn.cpu_wait_ms * ratio),
        page_cache_hits=int(drawn.page_cache_hits * ratio),
        page_cache_misses=int(drawn.page_cache_misses * ratio),
    )


def oracle_first_fit(queue, machines, reserved):
    """Independent first-fit pass over ``queue``, (task id, need) pairs in
    FIFO order, and ``machines``, (id, capacity, healthy) triples in
    first-fit order: returns (assignments, leftover task ids)."""
    reserved = dict(reserved)
    assignments = []
    leftover = []
    for task_id, need in queue:
        placed = None
        for machine_id, capacity, healthy in machines:
            if not healthy:
                continue
            used = reserved.get(machine_id, ResourceVector(0, 0, 0))
            free = capacity.minus(used)
            if need.fits_within(free):
                placed = machine_id
                reserved[machine_id] = used.plus(need)
                break
        if placed is None:
            leftover.append(task_id)
        else:
            assignments.append((task_id, placed))
    return assignments, leftover


def downstream(spec, roots) -> set[str]:
    """Every definition with a transitive predecessor in ``roots``."""
    found = set()
    frontier = list(roots)
    while frontier:
        for successor in spec.successors(frontier.pop()):
            if successor not in found:
                found.add(successor)
                frontier.append(successor)
    return found


@dataclasses.dataclass
class ReferenceRun:
    """What ``reference_run`` gives: the event and trace records, each
    machine sample as (t, machine, cpu, mem, disk), the run's instances
    and final state, the poisoned task ids, and the stuck ones (sorted;
    empty once the run completed)."""

    events: list[EventRecord]
    traces: list[TaskTraceRecord]
    samples: list[tuple]
    run: RunRecord
    never_eligible: set[str]
    stuck: list[str]

    def event_log_text(self) -> str:
        return "".join(event_line(e) + "\n" for e in self.events)

    def trace_text(self) -> str:
        return "".join(line + "\n" for line in [TRACE_HEADER, *map(trace_line, self.traces)])


def reference_run(spec, machines, input_count, seed, topology, injections) -> ReferenceRun:
    """The run README and the module docstrings define, with no shortcut:
    each event rescans every instance and the whole FIFO queue."""
    run = RunRecord("reference", spec.workflow_id, 0, expand_instances(spec, input_count))
    by_id = {i.task_id: i for i in run.instances}
    machine_ids = sorted(m.machine_id for m in machines)
    capacity = {m.machine_id: m.capacity for m in machines}
    healthy = dict.fromkeys(machine_ids, True)
    out = ReferenceRun([], [], [], run, set(), [])
    queue = []  # task ids in FIFO order
    drawn = {}  # task id -> (draws, shared values, rss, exit code) of a started instance
    timers = []  # (t, sequence, handler, payload): equal times run in the order scheduled
    sequence = itertools.count()

    def push(t, handler, payload):
        heapq.heappush(timers, (t, next(sequence), handler, payload))

    def emit(t, kind, subject, detail):
        out.events.append(EventRecord(t, kind, subject, detail))

    def requested(task_id):
        return spec.definition(by_id[task_id].definition).requested

    def need(task_id):
        r = requested(task_id)
        return ResourceVector(r.cpu_cores, r.memory_bytes, r.disk_bytes)

    def running(machine_id):
        return sorted(
            i.task_id for i in run.instances
            if i.state is TaskState.RUNNING and i.machine == machine_id
        )

    def load(machine_id):
        total = ResourceVector(0, 0, 0)
        for task_id in running(machine_id):
            total = total.plus(need(task_id))
        return total

    def pump(t):
        ready = ready_tasks(run, spec)
        for instance in run.instances:  # spec order, then index order
            if instance.task_id in ready:
                instance.mark_queued(t)
                queue.append(instance.task_id)
                emit(t, "instance_queued", instance.task_id, f"definition={instance.definition}")
        assigned, queue[:] = oracle_first_fit(
            [(task_id, need(task_id)) for task_id in queue],
            [(m, capacity[m], healthy[m]) for m in machine_ids],
            {m: load(m) for m in machine_ids},
        )
        for task_id, machine_id in assigned:
            start(t, task_id, machine_id)

    def start(t, task_id, machine_id):
        definition = spec.definition(by_id[task_id].definition)
        request = definition.requested
        model = BUILTIN_MODELS[definition.runtime_model]
        draws, shared = reference_synthesize_metrics(
            model, request.memory_bytes, instance_stream(seed, task_id)
        )
        exit_code = EXIT_TASK_ERROR if draws.failure_draw < model.failure_probability else 0
        fault = next(
            (f for f in injections
             if f.kind is not InjectionKind.MACHINE_UNHEALTHY and f.target == task_id
             and t >= f.at_ms),
            None,
        )
        if fault is not None:
            exit_code = EXIT_OOM if fault.kind is InjectionKind.TASK_OOM else EXIT_TASK_ERROR
        rss = shared[1]
        if exit_code == EXIT_OOM:
            rss = request.memory_bytes + max(1, request.memory_bytes // 4)
        runtime = draws.runtime_ms
        if runtime > request.max_runtime_ms:
            runtime, exit_code = request.max_runtime_ms, EXIT_TIMEOUT
        by_id[task_id].mark_running(t, machine_id)
        drawn[task_id] = (draws, shared, rss, exit_code)
        push(t + runtime, completion, task_id)
        emit(t, "instance_started", task_id, f"machine={machine_id}")

    def finish(t, task_id, exit_code):
        instance = by_id[task_id]
        draws, shared, rss, _ = drawn[task_id]
        status = "succeeded" if exit_code == 0 else "failed"
        record = reference_scaled_record(instance, draws, shared, rss, t, status, exit_code)
        instance.mark_finished(t, TaskState(status))
        out.traces.append(record)
        machine = instance.machine
        if exit_code == 0:
            emit(t, "instance_succeeded", task_id, f"exit=0 machine={machine}")
        else:
            health = MachineStatus.HEALTHY if healthy[machine] else MachineStatus.UNHEALTHY
            verdict = diagnose(record, requested(task_id), health).verdict.value
            emit(t, "instance_failed", task_id,
                 f"exit={exit_code} verdict={verdict} machine={machine}")

    def completion(t, task_id):
        if by_id[task_id].state is TaskState.RUNNING:  # not killed with its machine
            finish(t, task_id, drawn[task_id][3])
            pump(t)

    def machine_fault(t, machine_id):
        healthy[machine_id] = False
        emit(t, "machine_status", machine_id, "status=unhealthy")
        for task_id in running(machine_id):
            finish(t, task_id, EXIT_MACHINE_KILL)

    def sample_tick(t, _):
        for m in machine_ids:
            used = load(m)
            out.samples.append((t, m, used.cpu_cores, used.memory_bytes, used.disk_bytes))
            emit(t, "machine_sample", m,
                 f"cpu={used.cpu_cores} mem={used.memory_bytes} disk={used.disk_bytes}")
        if any(i.state is TaskState.RUNNING for i in run.instances) or any(
            handler is machine_fault for _, _, handler, _ in timers
        ):
            push(t + SAMPLE_CADENCE_MS, sample_tick, None)

    def open_ids():
        failed = {i.definition for i in run.instances if i.state is TaskState.FAILED}
        poisoned = downstream(spec, failed)
        out.never_eligible = {i.task_id for i in run.instances if i.definition in poisoned}
        return sorted(
            i.task_id for i in run.instances
            if not i.state.terminal and i.task_id not in out.never_eligible
        )

    for injection in injections:
        if injection.kind is InjectionKind.MACHINE_UNHEALTHY:
            push(injection.at_ms, machine_fault, injection.target)
    emit(0, "run_submitted", spec.workflow_id,
         f"input_count={input_count} topology={topology.wire_name} "
         f"instances={len(run.instances)}")
    pump(0)
    push(0, sample_tick, None)
    while timers and run.final_state is RunState.RUNNING:
        t, _, handler, payload = heapq.heappop(timers)
        handler(t, payload)
        if not open_ids():
            succeeded = all(i.state is TaskState.SUCCEEDED for i in run.instances)
            run.final_state = RunState.SUCCEEDED if succeeded else RunState.FAILED
            emit(t, "run_completed", spec.workflow_id, f"final={run.final_state.value}")
    out.stuck = open_ids() if run.final_state is RunState.RUNNING else []
    return out


def assert_equals_reference(result, stuck, reference) -> None:
    """An engine run (its result and its stuck list) equals the reference
    run byte for byte, and in every run fact the bytes carry."""
    assert result.event_log_text() == reference.event_log_text()
    assert result.trace_text() == reference.trace_text()
    samples = [
        (s.t_ms, s.machine_id, s.used.cpu_cores, s.used.memory_bytes, s.used.disk_bytes)
        for s in result.samples
    ]
    assert samples == reference.samples
    assert stuck == reference.stuck
    assert result.never_eligible == reference.never_eligible
    assert result.run.final_state is reference.run.final_state
    assert result.run.instances == reference.run.instances
