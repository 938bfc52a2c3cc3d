"""Reference definitions the tests compare the system against.  Each states
a rule the plain way; the system computes the same thing faster or as a
by-product, and a differential test checks that the two agree."""

import dataclasses
import hashlib
import heapq
import itertools
import json
import random
import statistics
from collections import namedtuple
from urllib.parse import parse_qs

from stratus.blueprint import LayerId, TopologyMode, UnknownLayerError
from stratus.machine import MachineSample, MachineStatus, ResourceVector
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
from stratus.taskmon import (
    TRACE_HEADER,
    CodePartProfile,
    Diagnosis,
    LogLevel,
    TaskTraceRecord,
    TraceError,
    Verdict,
    diagnose,
    synthesize_code_parts,
    task_log,
)
from stratus.workflow import (
    RunRecord,
    RunState,
    TaskState,
    expand_instances,
    export_dot,
    ready_tasks,
)


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


# the one matrix extension the reference serves, in the grid's letters
ORACLE_EXTENSIONS = {"gpu_utilization": "RM"}


def oracle_permitted(feature_name: str) -> set[LayerId]:
    letters = {**ORACLE_ROWS, **ORACLE_EXTENSIONS}[feature_name]
    return {LETTER_TO_LAYER[ch] for ch in letters}


def reference_denial(permitted, layer, name, topology) -> str | None:
    """The text of the rule that denies ``layer`` the feature or extension
    ``name``, or None when it is allowed; ``permitted`` maps each name to
    its permitted layers.  The permission rule comes first, then the
    disjoint rule: the resource manager of a disjoint deployment reads no
    workflow-owned feature.  An extension is owned by its lowest layer."""
    layers = permitted[name]
    if layer not in layers:
        allowed = ", ".join(sorted(l.wire_name for l in layers))
        return f"layer {layer.wire_name} is not permitted to read {name} (permitted: {allowed})"
    owned = name in WORKFLOW_OWNED if name in ORACLE_ROWS else min(layers) is LayerId.WORKFLOW
    if topology is TopologyMode.DISJOINT and layer is LayerId.RESOURCE_MANAGER and owned:
        return (
            f"{name} is workflow-owned and the resource manager layer is disjoint"
            " from the workflow layer in this deployment"
        )
    return None


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


def machine_samples(events: "list[EventRecord]") -> list[MachineSample]:
    """A run's machine samples read from its ``machine_sample`` events
    (detail ``cpu=<n> mem=<bytes> disk=<bytes>``), in log order: by time,
    then machine id."""
    samples = []
    for e in events:
        if e.kind == "machine_sample":
            used = dict(token.split("=") for token in e.detail.split(" "))
            vector = ResourceVector(int(used["cpu"]), int(used["mem"]), int(used["disk"]))
            samples.append(MachineSample(e.subject, e.t_ms, vector))
    return samples


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
    its counters as drawn if it ran its drawn runtime, and if it was cut
    short, each scaled by the share of that runtime it ran."""
    cpu_pct, _, rchar_bytes, wchar_bytes = shared
    duration = end_ms - instance.start_ms
    ratio = duration / drawn.runtime_ms

    def counter(value):
        return int(value * ratio) if duration < drawn.runtime_ms else value

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
        rchar_bytes=counter(rchar_bytes),
        wchar_bytes=counter(wchar_bytes),
        syscall_read_count=counter(drawn.syscall_read_count),
        syscall_write_count=counter(drawn.syscall_write_count),
        cpu_wait_ms=counter(drawn.cpu_wait_ms),
        page_cache_hits=counter(drawn.page_cache_hits),
        page_cache_misses=counter(drawn.page_cache_misses),
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


class FirstFitDriver:
    """A resource manager driven side by side with the oracle's state.

    Each enqueue, pass, release, status change and new machine goes to both.
    A pass must assign what ``oracle_first_fit`` assigns, and returns it; after every
    step the manager must agree with the oracle's state: each machine's
    reservation equals the oracle's and is within capacity and
    non-negative, ``running_on`` lists the oracle's running tasks, and
    ``queue_depth`` and ``infrastructure_status``'s counts match.  ``rm`` is
    a fresh resource manager whose registry holds ``machines``, all
    healthy."""

    def __init__(self, rm, machines):
        self.rm = rm
        self.capacity = {m.machine_id: m.capacity for m in machines}
        self.status = {m.machine_id: MachineStatus.HEALTHY for m in machines}
        self.reserved = {m.machine_id: ResourceVector(0, 0, 0) for m in machines}
        self.queue = []  # (task id, need) in FIFO order
        self.running = {}  # task id -> (machine id, need)
        self.finished = []

    def enqueue(self, task_id, requested) -> None:
        self.rm.enqueue(task_id, requested)
        need = ResourceVector(requested.cpu_cores, requested.memory_bytes, requested.disk_bytes)
        self.queue.append((task_id, need))
        self.check()

    def schedule(self, t_ms) -> list:
        machines = [
            (machine_id, capacity, self.status[machine_id] is MachineStatus.HEALTHY)
            for machine_id, capacity in sorted(self.capacity.items())
        ]
        expected, leftover = oracle_first_fit(self.queue, machines, self.reserved)
        assert self.rm.schedule(t_ms) == expected
        needs = dict(self.queue)
        for task_id, machine_id in expected:
            self.reserved[machine_id] = self.reserved[machine_id].plus(needs[task_id])
            self.running[task_id] = (machine_id, needs[task_id])
        self.queue = [(task_id, needs[task_id]) for task_id in leftover]
        self.check()
        return expected

    def release(self, task_id, wchar_bytes=0) -> None:
        self.rm.release(task_id, wchar_bytes=wchar_bytes)
        machine_id, need = self.running.pop(task_id)
        self.reserved[machine_id] = self.reserved[machine_id].minus(need)
        self.finished.append(task_id)
        self.check()

    def set_status(self, machine_id, status) -> None:
        self.rm.registry.set_status(machine_id, status)
        self.status[machine_id] = status
        self.check()

    def add_machine(self, descriptor) -> None:
        self.rm.registry.register_machine(descriptor)
        self.capacity[descriptor.machine_id] = descriptor.capacity
        self.status[descriptor.machine_id] = MachineStatus.HEALTHY
        self.reserved[descriptor.machine_id] = ResourceVector(0, 0, 0)
        self.check()

    def check(self) -> None:
        rm = self.rm
        for machine_id, capacity in self.capacity.items():
            held = rm.reserved_on(machine_id)
            assert held == self.reserved[machine_id], machine_id
            assert held.fits_within(capacity), machine_id
            assert min(held.cpu_cores, held.memory_bytes, held.disk_bytes) >= 0, machine_id
            assert rm.running_on(machine_id) == sorted(
                task_id for task_id, (m, _) in self.running.items() if m == machine_id
            )
        assert rm.queue_depth() == len(self.queue)
        report = rm.infrastructure_status()
        assert (report.queue_depth, report.running_tasks) == (len(self.queue), len(self.running))
        assert report.machines_total == len(self.status)
        assert report.machines_by_status == {
            status: list(self.status.values()).count(status) for status in MachineStatus
        }


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
    # each machine's whole series (the service's widest window,
    # MAX_WINDOW_MS), which its machine features read
    for machine_id in result.registry.machine_ids():
        series = [
            (s.t_ms, s.machine_id, s.used.cpu_cores, s.used.memory_bytes, s.used.disk_bytes)
            for s in result.registry.query_series(machine_id, 0, 2**62)
        ]
        assert series == [s for s in reference.samples if s[1] == machine_id]
    assert stuck == reference.stuck
    assert result.never_eligible == reference.never_eligible
    assert result.run.final_state is reference.run.final_state
    assert result.run.instances == reference.run.instances


# --- the query service, answered the plain way ---

_KINDS = {LayerId.WORKFLOW: "run_id", LayerId.MACHINE: "machine_id", LayerId.TASK: "task_id"}
_VECTOR = ("cpu_cores", "memory_bytes", "disk_bytes")
# the events each of which writes a progress record
_PROGRESS_KINDS = {
    "instance_queued", "instance_started", "instance_succeeded", "instance_failed", "run_completed"
}
# the features read from a trace record, and the record fields each serves
_TRACE_FIELDS = {
    "consumed_resources": ("cpu_pct", "rss_bytes", "rchar_bytes", "wchar_bytes"),
    "task_duration": ("start_ms", "end_ms", "duration_ms"),
    "low_level_task_metrics": ("syscall_read_count", "syscall_write_count", "cpu_wait_ms",
                               "page_cache_hits", "page_cache_misses"),
    "resource_consumption_for_code_parts": (), "fault_diagnosis": (),
}


class _Refusal(Exception):
    """A request answered with (status, error text)."""


def _refuse(status: int, text: str):
    # it raises, so `check or _refuse(...)` reads as a check with its refusal
    raise _Refusal(status, text)


def reference_answer(results, target, store=None, topology=None) -> tuple[int, bytes]:
    """The query service's answer to ``GET target`` as (status, body bytes),
    a live stream's chunks joined, written from README's "Query service"
    rules.  ``results`` are the registered runs in registration order and
    ``store`` their history; the matrix is the paper's grid plus
    ``ORACLE_EXTENSIONS``, deciding under ``topology`` (by default the
    runs')."""
    try:
        body = _answer(results, target, store, topology or results[0].topology)
    except _Refusal as refusal:
        return refusal.args[0], json.dumps({"error": refusal.args[1]}).encode()
    return 200, body if isinstance(body, bytes) else json.dumps(body, sort_keys=True).encode()


def _layer(name: str, status: int) -> LayerId:
    try:
        return LayerId.from_wire(name)
    except UnknownLayerError as exc:
        _refuse(status, str(exc))


def _bound(query: dict, key: str, default: int) -> int:
    """A window bound: optionally signed ASCII digits."""
    text = query.get(key, str(default))
    digits = text[1:] if text[:1] in ("+", "-") else text
    digits.isascii() and digits.isdigit() or _refuse(400, f"{key} is not an integer: {text!r}")
    return int(text)


def _progress(result, events) -> dict:
    """The progress record after ``events``, the first events of the run."""
    kinds = [e.kind for e in events]
    total, finished = len(result.run.instances), kinds.count("instance_succeeded")
    final = [e.detail.removeprefix("final=") for e in events if e.kind == "run_completed"]
    return {"state": final[-1] if final else "running", "finished": finished, "total": total,
            "progress": finished / total if total else 1.0,
            "failures": kinds.count("instance_failed")}


def _answer(results, target, store, topology):
    if not target.startswith("/"):  # absolute form: the path follows the host
        target = "/" + target.partition("://")[2].partition("/")[2]
    path, _, query = target.partition("?")
    # an empty value counts as missing; of a repeated key the last counts
    query = {key: values[-1] for key, values in parse_qs(query).items()}
    segments = [s for s in path.split("/") if s]
    # 1. the path
    if len(segments) != 3 or segments[0] != "v1":
        _refuse(404, "expected /v1/<layer>/<feature>")
    layer, name = _layer(segments[1], 404), segments[2]
    permitted = {n: oracle_permitted(n) for n in {**ORACLE_ROWS, **ORACLE_EXTENSIONS}}
    live = name == "live_progress" and layer is LayerId.WORKFLOW
    if live or (name == "status" and layer in _KINDS):
        name = f"{layer.wire_name}_status"  # a stream is read under workflow_status's rule
    name in permitted or _refuse(404, f"unknown feature key: {name!r}")
    owner = min(permitted[name])
    if owner is not layer and name in ORACLE_EXTENSIONS:
        _refuse(404, f"extension {name!r} is not owned by {layer.wire_name}")
    if owner is not layer:
        _refuse(404, f"{name} is owned by {owner.wire_name}, not {layer.wire_name}")
    # 2. the asking layer and 3. the access matrix
    asking = _layer(query.get("as_layer") or _refuse(400, "missing as_layer parameter"), 400)
    denial = reference_denial(permitted, asking, name, topology)
    denial is None or _refuse(403, denial)
    subject = query.get("subject")
    if live:
        result = _run(results, subject or _refuse(400, "live_progress needs a run_id subject"))
        events = result.event_records
        return b"".join(
            json.dumps(_progress(result, events[:n + 1]), sort_keys=True).encode() + b"\n"
            for n, event in enumerate(events) if event.kind in _PROGRESS_KINDS
        )
    # 4. the window and the level
    t_from, t_to = _bound(query, "from", 0), _bound(query, "to", 2**62)
    t_from <= t_to or _refuse(400, f"invalid window: from {t_from} > to {t_to}")
    try:
        level = LogLevel.from_wire(query.get("min_level", "debug"))
    except ValueError as exc:
        _refuse(400, str(exc))
    # 5. the subject, by its kind
    if name in ORACLE_EXTENSIONS:
        payload = {"extension": name, "value": None}
    elif owner is LayerId.RESOURCE_MANAGER:
        payload = _cluster(results[-1] if results else _refuse(404, "no cluster attached"))[name]
    else:
        kind = "workflow_id" if name == "previous_executions" else _KINDS[owner]
        subject or _refuse(400, f"feature {name} needs a {kind} subject")
        if kind == "workflow_id":
            summaries = [s for s, _ in store.load_all()] if store else []
            summaries = [s for s in summaries if s.workflow_id == subject]
            # newest submission first; of equal ones, the later appended first
            ordered = sorted(reversed(summaries), key=lambda s: -s.submission_ms)
            payload = {"executions": [dataclasses.asdict(s) for s in ordered]}
        elif kind == "run_id":
            payload = _workflow(_run(results, subject), name)
        elif kind == "machine_id":
            payload = _machine(results, subject, t_from, t_to)[name]
        else:
            payload = _task(results, subject, name, level)
    served_at = max((e.t_ms for r in results for e in r.event_records), default=0)
    return {"feature": name, "subject": subject, "served_at_ms": served_at, "payload": payload}


def _run(results, run_id):
    found = [r for r in results if r.run_id == run_id]
    return found[0] if found else _refuse(404, f"unknown run: {run_id!r}")


def _total(vectors) -> dict:
    return {key: sum(getattr(v, key) for v in vectors) for key in _VECTOR}


def _cluster(result) -> dict:
    """The resource-manager payloads of the newest run's cluster, by feature."""
    run, registry = result.run, result.registry
    machines = [registry.descriptor(m) for m in registry.machine_ids()]
    running = [i for i in run.instances if i.state is TaskState.RUNNING]
    reserved = [result.spec.definition(i.definition).requested for i in running]
    fs_total = result.resource_manager.fs_total_bytes
    written = min(fs_total, sum(max(0, r.wchar_bytes) for r in result.trace_records))
    # a workflow-aware cluster holds its run once the run is submitted
    held = result.topology is TopologyMode.WORKFLOW_AWARE and result.event_records
    return {
        "infrastructure_status": {
            "machines_total": len(machines),
            "machines_by_status": {s.value: sum(d.status is s for d in machines)
                                   for s in MachineStatus},
            "capacity_total": _total([d.capacity for d in machines]),
            "capacity_reserved": _total(reserved),
            "queue_depth": sum(i.state is TaskState.QUEUED for i in run.instances),
            "running_tasks": len(running),
        },
        "file_system_status": {
            "total_bytes": fs_total, "used_bytes": written, "healthy": written < fs_total
        },
        "running_workflows": {"running": [
            {"run_id": run.run_id, "workflow_id": run.workflow_id, "state": run.final_state.value}
        ] if held else []},
    }


def _workflow(result, name) -> dict:
    spec, run = result.spec, result.run
    if name != "execution_report":
        return {
            "workflow_status": _progress(result, result.event_records),
            "workflow_specification": {
                "workflow_id": spec.workflow_id,
                "tasks": [{"name": t.name, "scatter": t.scatter, "model": t.runtime_model,
                           **dataclasses.asdict(t.requested)} for t in spec.tasks],
                "edges": [list(edge) for edge in spec.edges],
            },
            "graphical_representation": {"dot": export_dot(spec)},
            "workflow_id": {"run_id": result.run_id, "workflow_id": run.workflow_id},
        }[name]
    if not any(e.kind == "run_completed" for e in result.event_records):
        _refuse(400, f"run {result.run_id} has not finished")
    started = [i for i in run.instances if i.start_ms is not None]
    ends = [i.end_ms for i in started if i.end_ms is not None]
    durations = {}
    for i in started:
        if i.state.terminal and i.end_ms is not None:
            durations.setdefault(i.definition, []).append(i.end_ms - i.start_ms)
    states = [i.state for i in run.instances]
    return {
        "run_id": result.run_id,
        "submission_ms": run.submission_ms,
        "makespan_ms": max(ends) - min(i.start_ms for i in started) if ends else 0,
        "counts": {"total": len(states), "succeeded": states.count(TaskState.SUCCEEDED),
                   "failed": states.count(TaskState.FAILED)},
        "task_stats": {name: {"count": len(d), "min_ms": min(d), "mean_ms": statistics.fmean(d),
                              "max_ms": max(d)} for name, d in durations.items()},
    }


def _machine(results, machine_id, t_from, t_to) -> dict:
    """The payloads of a machine of the newest run's cluster, by feature."""
    if not results or machine_id not in results[-1].registry.machine_ids():
        _refuse(404, f"unknown machine: {machine_id!r}")
    machine = results[-1].registry.descriptor(machine_id)
    samples = [s for s in machine_samples(results[-1].event_records) if s.machine_id == machine_id]
    used = ([s.used for s in samples if s.t_ms <= t_to] or [ResourceVector(0, 0, 0)])[-1]
    capacity, hardware = machine.capacity, dataclasses.asdict(machine.hardware)
    return {
        "machine_status": {"machine_id": machine_id, "status": machine.status.value},
        "machine_type": {"machine_id": machine_id, "type": machine.machine_type.value},
        "hardware_specification": {"machine_id": machine_id, **hardware},
        "available_resources": {k: getattr(capacity, k) - getattr(used, k) for k in _VECTOR},
        "used_resources": {"machine_id": machine_id, "samples": [
            {"t_ms": s.t_ms, **dataclasses.asdict(s.used)}
            for s in samples if t_from <= s.t_ms <= t_to
        ]},
    }


def _task(results, task_id, name, level) -> dict:
    """A task feature's payload: the task of the newest run that holds its id."""
    result, instance = next(
        ((r, i) for r in reversed(results) for i in r.run.instances if i.task_id == task_id),
        None,
    ) or _refuse(404, f"unknown task: {task_id!r}")
    requested = result.spec.definition(instance.definition).requested
    record = next((r for r in result.trace_records if r.task_id == task_id), None)
    diagnosis = result.diagnoses.get(task_id)
    if diagnosis is None and record is not None and record.status == "succeeded":
        diagnosis = Diagnosis(task_id, Verdict.NONE, "exit 0")
    if name not in _TRACE_FIELDS:
        return {"task_id": task_id, **{
            "task_status": {"state": instance.state.value},
            "requested_resources": dataclasses.asdict(requested),
            "task_id": {
                "workflow_id": result.run.workflow_id, "run_id": result.run_id,
                "definition": instance.definition, "index": int(task_id.rsplit("/", 1)[1]),
            },
            "application_logs": {"entries": [
                {"t_ms": e.t_ms, "level": e.level.wire_name, "message": e.message}
                for e in task_log(instance, record, diagnosis, level)
            ]},
        }[name]}
    # 6. the trace record
    if record is None:
        parts = name == "resource_consumption_for_code_parts"
        _refuse(404, f"no {'code part profile' if parts else 'trace record'} yet for {task_id!r}")
    payload = {"task_id": task_id, **{k: getattr(record, k) for k in _TRACE_FIELDS[name]}}
    if name == "consumed_resources":
        payload["utilization"] = {
            "cpu_ratio": record.cpu_pct / 100 / requested.cpu_cores,
            "memory_ratio": record.rss_bytes / requested.memory_bytes,
            "runtime_ratio": record.duration_ms / requested.max_runtime_ms,
        }
    elif name == "resource_consumption_for_code_parts":
        payload["parts"] = [{"part_name": p.part_name, "duration_ms": p.duration_ms,
                             "peak_memory_bytes": p.peak_memory_bytes}
                            for p in synthesize_code_parts(record)]
    elif name == "fault_diagnosis":
        diagnosis or _refuse(404, f"no diagnosis yet for {task_id!r}")
        payload |= {"verdict": diagnosis.verdict.value, "evidence": diagnosis.evidence}
    return payload
