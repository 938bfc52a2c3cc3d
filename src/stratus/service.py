"""Uniform HTTP query interface over all four monitoring layers.

Every monitoring feature is served under ``GET /v1/<owning_layer>/<feature>``
with the caller declaring its own layer via ``as_layer``.  The access matrix
decides 200 versus 403; a denial carries only the violated rule, never data.
The workflow layer additionally streams live run progress, so monitoring
data is available during execution, not only after it.
``ServiceContext.answer`` computes every response; the HTTP server only
moves its bytes.
"""

import json
import socket
import sys
import threading
from contextlib import suppress
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
    authorize,
    default_access_matrix,
)
from .machine import InvalidWindowError, MachineDescriptor, MachineRegistry, UnknownMachineError
from .sim import ProgressFold, SimulationResult, replay_progress
from .store import RunStore
from .taskmon import LogLevel, TaskTraceRecord, consumed_vs_requested, synthesize_code_parts
from .textfmt import field_dict, parse_decimal
from .workflow import (
    ReportOnRunningRunError,
    ResourceRequest,
    RunState,
    TaskInstance,
    UnknownTaskError,
    WorkflowStatusReport,
    export_dot,
    workflow_status,  # not called: the benchmark's tracer wraps this name
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
        # run_id -> the run's status fold and the number of events it has read
        self._status: dict[str, tuple[ProgressFold, int]] = {}
        self._folding = threading.Lock()
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
        # the access matrix decides under the context's topology alone
        if result.topology is not self.topology:
            raise ServiceError(
                f"run {result.run_id!r} is {result.topology.wire_name}; "
                f"this service serves {self.topology.wire_name} runs"
            )
        # a run id names one run: replacing it would keep the old run's
        # place in the registration order that newest-wins lookups read
        with self._lock:
            if result.run_id in self.results:
                raise ServiceError(f"run {result.run_id!r} is already registered")
            self.results[result.run_id] = result
            self._status[result.run_id] = ProgressFold(len(result.run.instances)), 0

    def _wake(self, *_) -> None:
        # called after an append, after ended is set, or after a server's
        # closed is set; a reader counts itself before it looks, so one
        # skipped here has yet to look
        if self._waiting:
            with self._progressed:
                self._progressed.notify_all()

    def progress(self, run_id: str, closed: threading.Event | None = None):
        """``replay_progress`` of the run's event list from event 0, one list
        of records per wake, until the terminal record or, once the run has
        ended, its last event.  Once ``closed`` is set (and ``_wake`` called)
        it ends at once, short of both."""
        result = self.result(run_id)
        events, fold, read = result.event_records, ProgressFold(), 0
        closed = closed or threading.Event()
        while True:
            with self._progressed:
                self._waiting += 1
                while read == len(events) and not result.ended and not closed.is_set():
                    self._progressed.wait()
                self._waiting -= 1
                # ended is set after the last append, so it is read first
                ended, end = result.ended, len(events)
            if closed.is_set():
                return
            # by its module name, so a wrapper on it sees every batch
            batch = replay_progress(events[read:end], fold)
            read = end
            if batch:
                yield batch
            if ended or fold.state is not RunState.RUNNING:
                return

    def status(self, run_id: str) -> WorkflowStatusReport:
        """The run's progress after its first n events, n read once: its
        kept fold, stepped over the events appended since the last call."""
        result = self.result(run_id)
        with self._folding:
            fold, read = self._status[run_id]
            n = len(result.event_records)
            for event in result.event_records[read:n]:
                fold.step(event)
            self._status[run_id] = fold, n
            return fold.report()

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

    def answer(self, target: str, closed: threading.Event | None = None):
        """The response to ``GET target`` as (status, content type, body):
        the bytes a client of ``serve`` gets.  The body is bytes, or for
        ``live_progress`` an iterator of byte chunks, one per batch of
        progress records, which ``closed`` ends as it ends ``progress``."""
        try:
            # leading slashes of a path name no host; an absolute-form target
            # (RFC 9112 3.2.2) names one before its path; any other has no path
            origin = target.startswith("/")
            parsed = urlparse("/" + target.lstrip("/") if origin else target)
            segments = [s for s in parsed.path.split("/") if s]
            query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
            if len(segments) != 3 or segments[0] != "v1" or not (origin or parsed.netloc):
                raise _HTTPError(404, "expected /v1/<layer>/<feature>")
            try:
                path_layer = LayerId.from_wire(segments[1])
            except UnknownLayerError as exc:
                raise _HTTPError(404, str(exc)) from None

            # the live stream is read under workflow_status's access rule
            live = segments[2] == "live_progress" and path_layer is LayerId.WORKFLOW
            feature = (
                FeatureKey.WORKFLOW_STATUS if live
                else _resolve_feature(self, path_layer, segments[2])
            )

            as_layer_name = query.get("as_layer")
            if not as_layer_name:
                raise _HTTPError(400, "missing as_layer parameter")
            try:
                as_layer = LayerId.from_wire(as_layer_name)
            except UnknownLayerError as exc:
                raise _HTTPError(400, str(exc)) from None

            # blueprint's decision, by its module name here so a wrapper sees each one
            denial = authorize(self.matrix, as_layer, feature, self.topology)
            if denial is not None:
                raise _HTTPError(403, denial)
            subject = query.get("subject")
            if live:
                if not subject:
                    raise _HTTPError(400, "live_progress needs a run_id subject")
                self.result(subject)  # 404 before the stream starts, never after
                # a stream that `closed` cuts short ends without a terminal record
                return 200, "application/x-ndjson", (
                    b"".join(json.dumps(_status_payload(r), sort_keys=True).encode() + b"\n"
                             for r in batch)
                    for batch in self.progress(subject, closed)
                )

            t_from = parse_decimal(query["from"], key="from") if "from" in query else 0
            t_to = parse_decimal(query["to"], key="to") if "to" in query else MAX_WINDOW_MS
            if t_from > t_to:
                raise InvalidWindowError(t_from, t_to)
            min_level = LogLevel.from_wire(query.get("min_level", LogLevel.DEBUG.wire_name))
            # by its module name, so a wrapper sees every payload built
            payload = _build_payload(self, feature, subject, t_from, t_to, min_level)
            status, body = 200, {
                "feature": feature,  # a FeatureKey is a str: JSON writes its wire name
                "subject": subject,
                "served_at_ms": self.served_at_ms(),
                "payload": payload,
            }
        except _HTTPError as exc:
            status, body = exc.status, {"error": str(exc)}
        # the one place a layer's refusal of a request gets its status: the
        # resolvers, builders and window bounds let the layers' errors through
        except (UnknownRunError, UnknownMachineError, UnknownTaskError) as exc:
            status, body = 404, {"error": str(exc)}
        except (ValueError, InvalidWindowError, ReportOnRunningRunError) as exc:
            status, body = 400, {"error": str(exc)}
        return status, "application/json", json.dumps(body, sort_keys=True).encode()


def _status_payload(report: WorkflowStatusReport, *_) -> dict:
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


class _Machine(NamedTuple):
    machine_id: str
    registry: MachineRegistry
    descriptor: MachineDescriptor


class _Task(NamedTuple):
    task_id: str
    result: SimulationResult
    instance: TaskInstance
    record: TaskTraceRecord | None  # None until the task has ended


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


def _status(context, feature, subject) -> WorkflowStatusReport:
    return context.status(_subject(feature, subject, "run_id"))


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
    record = result.trace_by_id.get(task_id)
    if missing is not None and record is None:
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
        "capacity_total": field_dict(status.capacity_total),
        "capacity_reserved": field_dict(status.capacity_reserved),
        "queue_depth": status.queue_depth,
        "running_tasks": status.running_tasks,
    }


def _requested(task: _Task) -> ResourceRequest:
    return task.result.spec.definition(task.instance.definition).requested


def _consumed_resources(task: _Task, *_) -> dict:
    record = task.record
    return {
        "task_id": task.task_id,
        "cpu_pct": record.cpu_pct,
        "rss_bytes": record.rss_bytes,
        "rchar_bytes": record.rchar_bytes,
        "wchar_bytes": record.wchar_bytes,
        "utilization": field_dict(consumed_vs_requested(record, _requested(task))),
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
    FeatureKey.FILE_SYSTEM_STATUS: (_cluster, lambda rm, *_: field_dict(rm.filesystem_status())),
    FeatureKey.RUNNING_WORKFLOWS: (_cluster, lambda rm, *_: {"running": [
        {"run_id": r, "workflow_id": w, "state": s} for r, w, s in rm.running_workflows()
    ]}),
    FeatureKey.WORKFLOW_STATUS: (_status, _status_payload),
    FeatureKey.WORKFLOW_SPECIFICATION: (_run, lambda run, *_: {
        "workflow_id": run.spec.workflow_id,
        "tasks": [
            dict(name=t.name, scatter=t.scatter, model=t.runtime_model, **field_dict(t.requested))
            for t in run.spec.tasks
        ],
        "edges": [[a, b] for a, b in run.spec.edges],
    }),
    FeatureKey.GRAPHICAL_REPRESENTATION: (_run, lambda run, *_: {"dot": export_dot(run.spec)}),
    FeatureKey.WORKFLOW_ID: (
        _run, lambda run, *_: {"run_id": run.run_id, "workflow_id": run.run.workflow_id}
    ),
    FeatureKey.EXECUTION_REPORT: (_run, lambda run, *_: run.report.to_record()),
    FeatureKey.PREVIOUS_EXECUTIONS: (
        _history, lambda summaries, *_: {"executions": [field_dict(s) for s in summaries]}
    ),
    FeatureKey.MACHINE_STATUS: (
        _machine, lambda m, *_: {"machine_id": m.machine_id, "status": m.descriptor.status.value}
    ),
    FeatureKey.MACHINE_TYPE: (_machine, lambda m, *_: {
        "machine_id": m.machine_id, "type": m.descriptor.machine_type.value
    }),
    FeatureKey.HARDWARE_SPECIFICATION: (
        _machine, lambda m, *_: {"machine_id": m.machine_id, **field_dict(m.descriptor.hardware)}
    ),
    FeatureKey.AVAILABLE_RESOURCES: (_machine, lambda m, t_from, t_to, level: field_dict(
        m.registry.available_resources(m.machine_id, t_to)
    )),
    FeatureKey.USED_RESOURCES: (_machine, lambda m, t_from, t_to, level: {
        "machine_id": m.machine_id,
        "samples": [
            {"t_ms": s.t_ms, **field_dict(s.used)}
            for s in m.registry.query_series(m.machine_id, t_from, t_to)
        ],
    }),
    FeatureKey.TASK_STATUS: (
        _task, lambda t, *_: {"task_id": t.task_id, "state": t.instance.state.value}
    ),
    FeatureKey.REQUESTED_RESOURCES: (
        _task, lambda t, *_: {"task_id": t.task_id, **field_dict(_requested(t))}
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


def _resolve_feature(context: ServiceContext, layer: LayerId, segment: str):
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


class _Handler(BaseHTTPRequestHandler):
    """One connection to the query service.  It only moves bytes: each
    response is the one ``ServiceContext.answer`` computes from the context
    its server carries, so no class holds a context of its own."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def do_GET(self):
        status, content_type, body = self.server.context.answer(self.path, self.server.closed)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if isinstance(body, bytes):
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        # a stream has no length, so it ends with its connection
        self.send_header("Connection", "close")
        self.end_headers()
        for chunk in body:
            self.wfile.write(chunk)
            self.wfile.flush()


class _Server(ThreadingHTTPServer):
    """The query service's HTTP server; its handlers read ``context``."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], context: ServiceContext):
        # set first: a failed bind calls server_close from super().__init__
        self.context = context
        self.closed = threading.Event()
        # the connections a handler still serves; each set call is atomic
        self._open: set[socket.socket] = set()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # a client that resets or leaves early ends only its own connection
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        # end the live streams this server is writing: each waits on the
        # context, so it is woken to see `closed`
        self.closed.set()
        self.context._wake()
        # end the idle keep-alive connections: a handler waiting for the
        # next request reads EOF, and one writing a response finishes it
        for request in list(self._open):
            with suppress(OSError):  # its handler closed it meanwhile
                request.shutdown(socket.SHUT_RD)
        super().server_close()


# how often serve_forever checks for shutdown; close() waits up to this long
_POLL_INTERVAL_S = 0.05


@dataclass
class ServiceHandle:
    server: _Server
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
    server = _Server((host, port), context)
    thread = threading.Thread(target=server.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True)
    thread.start()
    return ServiceHandle(server=server, thread=thread)
