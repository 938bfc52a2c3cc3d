"""Uniform HTTP query interface over all four monitoring layers.

Every monitoring feature is served under ``GET /v1/<owning_layer>/<feature>``
with the caller declaring its own layer via ``as_layer``.  The access matrix
decides 200 versus 403; a denial carries only the violated rule, never data.
The workflow layer additionally streams live run progress, so monitoring
data is available during execution, not only after it.
"""

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import parse_qs, urlparse

from .blueprint import (
    AccessMatrix,
    FeatureKey,
    LayerId,
    TopologyMode,
    UnknownFeatureError,
    UnknownLayerError,
    access_allowed,
    default_access_matrix,
)
from .machine import InvalidWindowError, MachineDescriptor, MachineRegistry, UnknownMachineError
from .sim import ProgressFold, SimulationResult, replay_progress
from .store import RunStore
from .taskmon import LogLevel, TaskTraceRecord, consumed_vs_requested, synthesize_code_parts
from .textfmt import parse_decimal
from .workflow import (
    ReportOnRunningRunError,
    ResourceRequest,
    RunState,
    TaskInstance,
    UnknownTaskError,
    WorkflowStatusReport,
    execution_report,
    export_dot,
    workflow_status,
)

MAX_WINDOW_MS = 2**62


class ServiceError(Exception):
    pass


class UnknownRunError(ServiceError):
    def __init__(self, run_id: str):
        super().__init__(f"unknown run: {run_id!r}")
        self.run_id = run_id


# feature segment aliases: each layer's own bare `status`
_STATUS_ALIASES = {
    (f.owning_layer, "status"): f
    for f in (FeatureKey.WORKFLOW_STATUS, FeatureKey.MACHINE_STATUS, FeatureKey.TASK_STATUS)
}


class ServiceContext:
    """Everything the handlers read: completed or live runs, the machine
    registry, the resource manager, and the access policy."""

    def __init__(
        self,
        topology: TopologyMode,
        matrix: AccessMatrix | None = None,
        store: RunStore | None = None,
    ):
        self.topology = topology
        self.matrix = matrix or default_access_matrix()
        self.store = store
        self.results: dict[str, SimulationResult] = {}
        self._lock = threading.Lock()
        # caught-up progress readers wait here, and _waiting counts them
        self._progressed = threading.Condition()
        self._waiting = 0

    def add_result(self, result: SimulationResult) -> None:
        """Register a run that has ended; ``attach_live`` takes one that has not."""
        if not result.ended:
            raise ServiceError(f"run {result.run_id!r} has not ended; attach it live")
        self._register(result)

    def attach_live(self, simulation) -> None:
        """Register a simulation before or while it runs, so its progress
        can be streamed while it executes."""
        self._register(simulation.result)
        simulation.event_listeners.append(self._wake)
        simulation.abort_listeners.append(self._wake)

    def _register(self, result: SimulationResult) -> None:
        # a run id names one run: replacing it would keep the old run's
        # place in the registration order that newest-wins lookups read
        with self._lock:
            if result.run_id in self.results:
                raise ServiceError(f"run {result.run_id!r} is already registered")
            self.results[result.run_id] = result

    def _wake(self, *_) -> None:
        # called after an append or after ended is set; a reader counts
        # itself before it looks, so one skipped here has yet to look
        if self._waiting:
            with self._progressed:
                self._progressed.notify_all()

    def progress(self, run_id: str):
        """``replay_progress`` of the run's event list from event 0, one list
        of records per wake, until the terminal record or, once the run has
        ended, its last event."""
        result = self.result(run_id)
        events, fold, read = result.event_records, ProgressFold(), 0
        while True:
            with self._progressed:
                self._waiting += 1
                while read == len(events) and not result.ended:
                    self._progressed.wait()
                self._waiting -= 1
                # ended is set after the last append, so it is read first
                ended, end = result.ended, len(events)
            # by its module name, so a wrapper on it sees every batch
            batch = replay_progress(events[read:end], fold)
            read = end
            if batch:
                yield batch
            if ended or fold.state is not RunState.RUNNING:
                return

    def result(self, run_id: str) -> SimulationResult:
        with self._lock:
            if run_id not in self.results:
                raise UnknownRunError(run_id)
            return self.results[run_id]

    def resource_manager(self):
        """The newest run's resource manager; None before the first run."""
        with self._lock:
            newest = next(reversed(self.results.values()), None)
        return newest.resource_manager if newest else None

    def find_task(self, task_id: str):
        """Locate a task instance across runs; newest registration wins."""
        with self._lock:
            results = list(self.results.values())
        for result in reversed(results):
            instance = result.instances_by_id.get(task_id)
            if instance is not None:
                return result, instance
        return None

    def served_at_ms(self) -> int:
        with self._lock:
            results = list(self.results.values())
        return max([0] + [r.event_records[-1].t_ms for r in results if r.event_records])


def authorize(
    matrix: AccessMatrix,
    as_layer: LayerId,
    feature: "FeatureKey | str",
    topology: TopologyMode,
) -> str | None:
    """None when access is allowed; otherwise the violated rule as text."""
    name = feature.value if isinstance(feature, FeatureKey) else feature
    permitted = matrix.lookup(feature)
    if as_layer not in permitted:
        return (
            f"layer {as_layer.wire_name} is not permitted to read {name} "
            f"(permitted: {', '.join(sorted(l.wire_name for l in permitted))})"
        )
    if not access_allowed(matrix, as_layer, feature, topology):
        return (
            f"{name} is workflow-owned and the resource manager layer is "
            f"disjoint from the workflow layer in this deployment"
        )
    return None


def _vector_payload(vector) -> dict:
    return {
        "cpu_cores": vector.cpu_cores,
        "memory_bytes": vector.memory_bytes,
        "disk_bytes": vector.disk_bytes,
    }


def _request_payload(requested: ResourceRequest) -> dict:
    return {**_vector_payload(requested), "max_runtime_ms": requested.max_runtime_ms}


def _status_payload(report: WorkflowStatusReport) -> dict:
    return {
        "state": report.state.value,
        "finished": report.finished,
        "total": report.total,
        "progress": report.progress,
        "failures": report.failures,
    }


class _HTTPError(ServiceError):
    """A request the service answers with ``status`` and this message."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@contextmanager
def _refusals():
    """The one place a layer's refusal of a request gets its status: the
    resolvers, builders and window bounds let the layers' errors through."""
    try:
        yield
    except (UnknownRunError, UnknownMachineError, UnknownTaskError) as exc:
        raise _HTTPError(404, str(exc)) from None
    except (ValueError, InvalidWindowError, ReportOnRunningRunError) as exc:
        raise _HTTPError(400, str(exc)) from None


class _Machine(NamedTuple):
    machine_id: str
    registry: MachineRegistry
    descriptor: MachineDescriptor


class _Task(NamedTuple):
    task_id: str
    result: SimulationResult
    instance: TaskInstance
    record: TaskTraceRecord | None = None  # read only for the features that need it


# Subject resolvers, one per subject kind: 400 without a subject, the layer's
# own error for one that names nothing; each returns what the builder reads.


def _subject(feature: FeatureKey, subject: str | None, kind: str) -> str:
    if not subject:
        raise _HTTPError(400, f"feature {feature.value} needs a {kind} subject")
    return subject


def _cluster(context, feature, subject):
    rm = context.resource_manager()
    if rm is None:
        raise _HTTPError(404, "no cluster attached")
    return rm


def _history(context, feature, subject) -> list:
    workflow_id = _subject(feature, subject, "workflow_id")
    return context.store.list_previous_executions(workflow_id) if context.store else []


def _run(context, feature, subject) -> SimulationResult:
    return context.result(_subject(feature, subject, "run_id"))


def _machine(context, feature, subject) -> _Machine:
    machine_id = _subject(feature, subject, "machine_id")
    rm = context.resource_manager()
    if rm is None:
        raise UnknownMachineError(machine_id)
    return _Machine(machine_id, rm.registry, rm.registry.descriptor(machine_id))


def _task(context, feature, subject, missing: str | None = None) -> _Task:
    # with `missing`, a task that has no trace record yet answers 404
    task_id = _subject(feature, subject, "task_id")
    found = context.find_task(task_id)
    if found is None:
        raise UnknownTaskError(task_id)
    result, instance = found
    if missing is None:
        return _Task(task_id, result, instance)
    record = result.trace_by_id.get(task_id)
    if record is None:
        raise _HTTPError(404, f"no {missing} yet for {task_id!r}")
    return _Task(task_id, result, instance, record)


_traced = partial(_task, missing="trace record")


# Payload builders that need more than an expression.  A builder takes what
# its resolver returned, then the request's window and log level.


def _infrastructure_status(rm, *_) -> dict:
    status = rm.infrastructure_status()
    return {
        "machines_total": status.machines_total,
        "machines_by_status": {s.value: n for s, n in status.machines_by_status.items()},
        "capacity_total": _vector_payload(status.capacity_total),
        "capacity_reserved": _vector_payload(status.capacity_reserved),
        "queue_depth": status.queue_depth,
        "running_tasks": status.running_tasks,
    }


def _file_system_status(rm, *_) -> dict:
    fs = rm.filesystem_status()
    return {"total_bytes": fs.total_bytes, "used_bytes": fs.used_bytes, "healthy": fs.healthy}


def _hardware_specification(machine: _Machine, *_) -> dict:
    hw = machine.descriptor.hardware
    return {
        "machine_id": machine.machine_id,
        "cpu_architecture": hw.cpu_architecture,
        "cpu_model": hw.cpu_model,
        "memory_clock_mhz": hw.memory_clock_mhz,
        "disk_partitions": [[name, size] for name, size in hw.disk_partitions],
    }


def _requested(task: _Task) -> ResourceRequest:
    return task.result.spec.definition(task.instance.definition).requested


def _consumed_resources(task: _Task, *_) -> dict:
    record = task.record
    utilization = consumed_vs_requested(record, _requested(task))
    return {
        "task_id": task.task_id,
        "cpu_pct": record.cpu_pct,
        "rss_bytes": record.rss_bytes,
        "rchar_bytes": record.rchar_bytes,
        "wchar_bytes": record.wchar_bytes,
        "utilization": {
            "cpu_ratio": utilization.cpu_ratio,
            "memory_ratio": utilization.memory_ratio,
            "runtime_ratio": utilization.runtime_ratio,
        },
    }


def _fault_diagnosis(task: _Task, *_) -> dict:
    found = task.result.diagnosis(task.task_id)
    if found is None:
        raise _HTTPError(404, f"no diagnosis yet for {task.task_id!r}")
    return {"task_id": task.task_id, "verdict": found.verdict.value, "evidence": found.evidence}


# feature -> (subject resolver, payload builder); a lambda's first parameter
# is the resolved subject: rm, run, m (machine) or t (task)
_FEATURES = {
    FeatureKey.INFRASTRUCTURE_STATUS: (_cluster, _infrastructure_status),
    FeatureKey.FILE_SYSTEM_STATUS: (_cluster, _file_system_status),
    FeatureKey.RUNNING_WORKFLOWS: (_cluster, lambda rm, *_: {"running": [
        {"run_id": r, "workflow_id": w, "state": s} for r, w, s in rm.running_workflows()
    ]}),
    FeatureKey.WORKFLOW_STATUS: (_run, lambda run, *_: _status_payload(workflow_status(run.run))),
    FeatureKey.WORKFLOW_SPECIFICATION: (_run, lambda run, *_: {
        "workflow_id": run.spec.workflow_id,
        "tasks": [
            {
                "name": t.name,
                "scatter": t.scatter,
                **_request_payload(t.requested),
                "model": t.runtime_model,
            }
            for t in run.spec.tasks
        ],
        "edges": [[a, b] for a, b in run.spec.edges],
    }),
    FeatureKey.GRAPHICAL_REPRESENTATION: (_run, lambda run, *_: {"dot": export_dot(run.spec)}),
    FeatureKey.WORKFLOW_ID: (
        _run, lambda run, *_: {"run_id": run.run_id, "workflow_id": run.run.workflow_id}
    ),
    FeatureKey.EXECUTION_REPORT: (_run, lambda run, *_: execution_report(run.run).to_record()),
    FeatureKey.PREVIOUS_EXECUTIONS: (_history, lambda summaries, *_: {"executions": [
        {
            "run_id": s.run_id,
            "workflow_id": s.workflow_id,
            "submission_ms": s.submission_ms,
            "final_state": s.final_state,
            "makespan_ms": s.makespan_ms,
        }
        for s in summaries
    ]}),
    FeatureKey.MACHINE_STATUS: (
        _machine, lambda m, *_: {"machine_id": m.machine_id, "status": m.descriptor.status.value}
    ),
    FeatureKey.MACHINE_TYPE: (_machine, lambda m, *_: {
        "machine_id": m.machine_id, "type": m.descriptor.machine_type.value
    }),
    FeatureKey.HARDWARE_SPECIFICATION: (_machine, _hardware_specification),
    FeatureKey.AVAILABLE_RESOURCES: (_machine, lambda m, t_from, t_to, level: _vector_payload(
        m.registry.available_resources(m.machine_id, t_to)
    )),
    FeatureKey.USED_RESOURCES: (_machine, lambda m, t_from, t_to, level: {
        "machine_id": m.machine_id,
        "samples": [
            {"t_ms": s.t_ms, **_vector_payload(s.used)}
            for s in m.registry.query_series(m.machine_id, t_from, t_to)
        ],
    }),
    FeatureKey.TASK_STATUS: (
        _task, lambda t, *_: {"task_id": t.task_id, "state": t.instance.state.value}
    ),
    FeatureKey.REQUESTED_RESOURCES: (
        _task, lambda t, *_: {"task_id": t.task_id, **_request_payload(_requested(t))}
    ),
    FeatureKey.CONSUMED_RESOURCES: (_traced, _consumed_resources),
    FeatureKey.RESOURCE_CONSUMPTION_FOR_CODE_PARTS: (
        partial(_task, missing="code part profile"),
        lambda t, *_: {"task_id": t.task_id, "parts": [
            {
                "part_name": p.part_name,
                "duration_ms": p.duration_ms,
                "peak_memory_bytes": p.peak_memory_bytes,
            }
            for p in synthesize_code_parts(t.record)
        ]},
    ),
    FeatureKey.TASK_ID: (_task, lambda t, *_: {
        "task_id": t.task_id,
        "workflow_id": t.result.run.workflow_id,
        "run_id": t.result.run_id,
        "definition": t.instance.definition,
        "index": t.instance.index,
    }),
    FeatureKey.APPLICATION_LOGS: (_task, lambda t, t_from, t_to, min_level: {
        "task_id": t.task_id,
        "entries": [
            {"t_ms": e.t_ms, "level": e.level.wire_name, "message": e.message}
            for e in t.result.application_logs(t.task_id, min_level)
        ],
    }),
    FeatureKey.TASK_DURATION: (_traced, lambda t, *_: {
        "task_id": t.task_id,
        "start_ms": t.record.start_ms,
        "end_ms": t.record.end_ms,
        "duration_ms": t.record.duration_ms,
    }),
    FeatureKey.LOW_LEVEL_TASK_METRICS: (_traced, lambda t, *_: {
        "task_id": t.task_id,
        "syscall_read_count": t.record.syscall_read_count,
        "syscall_write_count": t.record.syscall_write_count,
        "cpu_wait_ms": t.record.cpu_wait_ms,
        "page_cache_hits": t.record.page_cache_hits,
        "page_cache_misses": t.record.page_cache_misses,
    }),
    # a diagnosis is looked for only once the trace record is there
    FeatureKey.FAULT_DIAGNOSIS: (_traced, _fault_diagnosis),
}


def _build_payload(
    context: "ServiceContext",
    feature: "FeatureKey | str",
    subject: str | None,
    t_from: int,
    t_to: int,
    min_level: LogLevel,
) -> dict:
    """The feature's payload from its table row: the resolver finds the
    subject, then the builder reads it."""
    if not isinstance(feature, FeatureKey):
        # declared extension: authorized but no provider is bound
        return {"extension": feature, "value": None}
    resolve, build = _FEATURES[feature]
    return build(resolve(context, feature, subject), t_from, t_to, min_level)


def _make_handler(context: ServiceContext):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):
            pass

        def _send_json(self, code: int, payload: dict) -> None:
            body = json.dumps(payload, sort_keys=True).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            try:
                self._route()
            except _HTTPError as exc:
                self._send_json(exc.status, {"error": str(exc)})
            except BrokenPipeError:
                pass

        def _route(self):
            parsed = urlparse(self.path)
            segments = [s for s in parsed.path.split("/") if s]
            query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
            if len(segments) != 3 or segments[0] != "v1":
                raise _HTTPError(404, "expected /v1/<layer>/<feature>")
            try:
                path_layer = LayerId.from_wire(segments[1])
            except UnknownLayerError as exc:
                raise _HTTPError(404, str(exc)) from None

            # the live stream is read under workflow_status's access rule
            live = segments[2] == "live_progress" and path_layer is LayerId.WORKFLOW
            feature = (
                FeatureKey.WORKFLOW_STATUS if live else _resolve_feature(path_layer, segments[2])
            )

            as_layer_name = query.get("as_layer")
            if not as_layer_name:
                raise _HTTPError(400, "missing as_layer parameter")
            try:
                as_layer = LayerId.from_wire(as_layer_name)
            except UnknownLayerError as exc:
                raise _HTTPError(400, str(exc)) from None

            denial = authorize(context.matrix, as_layer, feature, context.topology)
            if denial is not None:
                raise _HTTPError(403, denial)
            subject = query.get("subject")
            if live:
                self._live_progress(subject)
                return

            with _refusals():
                t_from = parse_decimal(query["from"], key="from") if "from" in query else 0
                t_to = parse_decimal(query["to"], key="to") if "to" in query else MAX_WINDOW_MS
                if t_from > t_to:
                    raise InvalidWindowError(t_from, t_to)
                level = query.get("min_level")
                min_level = LogLevel.DEBUG if level is None else LogLevel.from_wire(level)
                payload = _build_payload(context, feature, subject, t_from, t_to, min_level)

            self._send_json(200, {
                "feature": feature.value if isinstance(feature, FeatureKey) else feature,
                "subject": subject,
                "served_at_ms": context.served_at_ms(),
                "payload": payload,
            })

        def _live_progress(self, run_id: str | None):
            if not run_id:
                raise _HTTPError(400, "live_progress needs a run_id subject")
            with _refusals():  # 404 before the stream starts, never after
                context.result(run_id)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Connection", "close")
            self.end_headers()
            for batch in context.progress(run_id):
                self.wfile.write(b"".join(
                    json.dumps(_status_payload(record), sort_keys=True).encode() + b"\n"
                    for record in batch
                ))
                self.wfile.flush()
            self.close_connection = True

    def _resolve_feature(layer: LayerId, segment: str):
        """The feature or declared extension the path names; 404 unless ``layer`` owns it."""
        alias = _STATUS_ALIASES.get((layer, segment))
        if alias is not None:
            return alias
        if segment in context.matrix.extensions:
            if context.matrix.owning_layer(segment) is not layer:
                raise _HTTPError(404, f"extension {segment!r} is not owned by {layer.wire_name}")
            return segment
        try:
            feature = FeatureKey.from_wire(segment)
        except UnknownFeatureError as exc:
            raise _HTTPError(404, str(exc)) from None
        if feature.owning_layer is not layer:
            owner = feature.owning_layer.wire_name
            raise _HTTPError(404, f"{feature.value} is owned by {owner}, not {layer.wire_name}")
        return feature

    return Handler


# how often serve_forever checks for shutdown; close() waits up to this long
_POLL_INTERVAL_S = 0.05


@dataclass
class ServiceHandle:
    server: ThreadingHTTPServer
    thread: threading.Thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[0], self.server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def serve(context: ServiceContext, host: str = "127.0.0.1", port: int = 0) -> ServiceHandle:
    """Start the query service on a daemon thread and return a handle with
    the bound address and a close()."""
    server = ThreadingHTTPServer((host, port), _make_handler(context))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True)
    thread.start()
    return ServiceHandle(server=server, thread=thread)
