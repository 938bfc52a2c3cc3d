"""Uniform HTTP query interface over all four monitoring layers.

Every monitoring feature is served under ``GET /v1/<owning_layer>/<feature>``
with the caller declaring its own layer via ``as_layer``.  The access matrix
decides 200 versus 403; a denial carries only the violated rule, never data.
The workflow layer additionally streams live run progress, so monitoring
data is available during execution, not only after it.
"""

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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
from .sim import EventRecord, ProgressFold, SimulationResult, replay_progress
from .store import RunStore
from .taskmon import LogLevel, consumed_vs_requested, synthesize_code_parts
from .workflow import (
    ResourceRequest,
    RunState,
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
    (LayerId.WORKFLOW, "status"): FeatureKey.WORKFLOW_STATUS,
    (LayerId.MACHINE, "status"): FeatureKey.MACHINE_STATUS,
    (LayerId.TASK, "status"): FeatureKey.TASK_STATUS,
}


class LiveRunFeed:
    """Fan-out buffer between one running simulation and any number of
    progress subscribers.  The engine pushes each event as it is appended;
    the feed folds them into progress records the way ``replay_progress``
    does.  Subscribers replay from the start and then block until new
    records arrive or the feed closes."""

    def __init__(self):
        self._fold = ProgressFold()
        self._records: list[WorkflowStatusReport] = []
        self._closed = False
        self._cond = threading.Condition()

    def push(self, event: EventRecord) -> None:
        # only the engine's thread pushes, so the fold needs no lock
        record = self._fold.step(event)
        if record is None:
            return
        with self._cond:
            self._records.append(record)
            if record.state is not RunState.RUNNING:
                self._closed = True
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def subscribe(self):
        index = 0
        while True:
            with self._cond:
                while index >= len(self._records) and not self._closed:
                    self._cond.wait(timeout=10)
                if index >= len(self._records):
                    if self._closed:
                        return
                    continue
                record = self._records[index]
            index += 1
            yield record


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
        self.feeds: dict[str, LiveRunFeed] = {}
        self._lock = threading.Lock()

    def add_result(self, result: SimulationResult) -> None:
        with self._lock:
            self.results[result.run_id] = result

    def attach_live(self, simulation) -> LiveRunFeed:
        """Wire a not-yet-run simulation into the context so its progress
        can be streamed while it executes."""
        feed = LiveRunFeed()
        simulation.event_listeners.append(feed.push)
        simulation.abort_listeners.append(feed.close)
        with self._lock:
            self.feeds[simulation.run_id] = feed
            self.results[simulation.run_id] = simulation.result
        return feed

    def result(self, run_id: str) -> SimulationResult:
        with self._lock:
            if run_id not in self.results:
                raise UnknownRunError(run_id)
            return self.results[run_id]

    def run_ids(self) -> list[str]:
        with self._lock:
            return sorted(self.results)

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
        latest = 0
        for result in results:
            if result.event_records:
                latest = max(latest, result.event_records[-1].t_ms)
        return latest


@dataclass(frozen=True)
class Denial:
    reason: str


def authorize(
    matrix: AccessMatrix,
    as_layer: LayerId,
    feature: "FeatureKey | str",
    topology: TopologyMode,
) -> "Denial | None":
    """None when access is allowed; otherwise the violated rule as text."""
    name = feature.value if isinstance(feature, FeatureKey) else feature
    permitted = matrix.lookup(feature)
    if as_layer not in permitted:
        return Denial(
            f"layer {as_layer.wire_name} is not permitted to read {name} "
            f"(permitted: {', '.join(sorted(l.wire_name for l in permitted))})"
        )
    if not access_allowed(matrix, as_layer, feature, topology):
        return Denial(
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


class _BadRequest(ServiceError):
    pass


class _NotFound(ServiceError):
    pass


# what each layer's subject names; previous_executions takes a workflow id
_SUBJECT_KIND = {
    LayerId.WORKFLOW: "run_id",
    LayerId.MACHINE: "machine_id",
    LayerId.TASK: "task_id",
}

# task features read from the task's trace record, with what a 404 says
# is missing before the task has finished
_TRACE_FEATURES = {
    FeatureKey.CONSUMED_RESOURCES: "trace record",
    FeatureKey.TASK_DURATION: "trace record",
    FeatureKey.LOW_LEVEL_TASK_METRICS: "trace record",
    FeatureKey.FAULT_DIAGNOSIS: "trace record",
    FeatureKey.RESOURCE_CONSUMPTION_FOR_CODE_PARTS: "code part profile",
}


def _build_payload(
    context: ServiceContext,
    feature: "FeatureKey | str",
    subject: str | None,
    t_from: int,
    t_to: int,
    min_level: LogLevel,
) -> dict:
    """Feature-specific payload construction.  The subject is resolved once
    for the feature's owning layer; raises _BadRequest for a missing subject
    and _NotFound for an unknown one."""
    if not isinstance(feature, FeatureKey):
        # declared extension: authorized but no provider is bound
        return {"extension": feature, "value": None}
    layer = feature.owning_layer

    if layer is LayerId.RESOURCE_MANAGER:
        rm = _any_rm(context)
        if rm is None:
            raise _NotFound("no cluster attached")
        if feature is FeatureKey.INFRASTRUCTURE_STATUS:
            status = rm.infrastructure_status()
            return {
                "machines_total": status.machines_total,
                "machines_by_status": {
                    s.value: n for s, n in status.machines_by_status.items()
                },
                "capacity_total": _vector_payload(status.capacity_total),
                "capacity_reserved": _vector_payload(status.capacity_reserved),
                "queue_depth": status.queue_depth,
                "running_tasks": status.running_tasks,
            }
        if feature is FeatureKey.FILE_SYSTEM_STATUS:
            fs = rm.filesystem_status()
            return {
                "total_bytes": fs.total_bytes,
                "used_bytes": fs.used_bytes,
                "healthy": fs.healthy,
            }
        return {
            "running": [
                {"run_id": r, "workflow_id": w, "state": s}
                for r, w, s in rm.running_workflows()
            ]
        }

    if not subject:
        kind = (
            "workflow_id" if feature is FeatureKey.PREVIOUS_EXECUTIONS else _SUBJECT_KIND[layer]
        )
        raise _BadRequest(f"feature {feature.value} needs a {kind} subject")

    if feature is FeatureKey.PREVIOUS_EXECUTIONS:
        if context.store is None:
            return {"executions": []}
        return {
            "executions": [
                {
                    "run_id": s.run_id,
                    "workflow_id": s.workflow_id,
                    "submission_ms": s.submission_ms,
                    "final_state": s.final_state,
                    "makespan_ms": s.makespan_ms,
                }
                for s in context.store.list_previous_executions(subject)
            ]
        }

    if layer is LayerId.WORKFLOW:
        try:
            result = context.result(subject)
        except UnknownRunError:
            raise _NotFound(f"unknown run: {subject!r}") from None
        spec = result.spec
        if feature is FeatureKey.WORKFLOW_STATUS:
            return _status_payload(workflow_status(result.run.snapshot()))
        if feature is FeatureKey.WORKFLOW_SPECIFICATION:
            return {
                "workflow_id": spec.workflow_id,
                "tasks": [
                    {
                        "name": t.name,
                        "scatter": t.scatter,
                        **_request_payload(t.requested),
                        "model": t.runtime_model,
                    }
                    for t in spec.tasks
                ],
                "edges": [[a, b] for a, b in spec.edges],
            }
        if feature is FeatureKey.GRAPHICAL_REPRESENTATION:
            return {"dot": export_dot(spec)}
        if feature is FeatureKey.WORKFLOW_ID:
            return {"run_id": result.run_id, "workflow_id": result.run.workflow_id}
        snapshot = result.run.snapshot()
        if snapshot.final_state is RunState.RUNNING:
            raise _BadRequest(f"run {snapshot.run_id} has not finished")
        return execution_report(snapshot).to_record()

    if layer is LayerId.MACHINE:
        machine_id = subject
        rm = _any_rm(context)
        registry = rm.registry if rm else None
        if registry is None or machine_id not in registry.machine_ids():
            raise _NotFound(f"unknown machine: {machine_id!r}")
        descriptor = registry.descriptor(machine_id)
        if feature is FeatureKey.MACHINE_STATUS:
            return {"machine_id": machine_id, "status": descriptor.status.value}
        if feature is FeatureKey.MACHINE_TYPE:
            return {"machine_id": machine_id, "type": descriptor.machine_type.value}
        if feature is FeatureKey.HARDWARE_SPECIFICATION:
            hw = descriptor.hardware
            return {
                "machine_id": machine_id,
                "cpu_architecture": hw.cpu_architecture,
                "cpu_model": hw.cpu_model,
                "memory_clock_mhz": hw.memory_clock_mhz,
                "disk_partitions": [[name, size] for name, size in hw.disk_partitions],
            }
        if feature is FeatureKey.AVAILABLE_RESOURCES:
            return _vector_payload(registry.available_resources(machine_id, t_to))
        return {
            "machine_id": machine_id,
            "samples": [
                {"t_ms": s.t_ms, **_vector_payload(s.used)}
                for s in registry.query_series(machine_id, t_from, t_to)
            ],
        }

    task_id = subject
    found = context.find_task(task_id)
    if found is None:
        raise _NotFound(f"unknown task: {task_id!r}")
    result, instance = found
    record = None
    if feature in _TRACE_FEATURES:
        record = result.trace_by_id.get(task_id)
        if record is None:
            raise _NotFound(f"no {_TRACE_FEATURES[feature]} yet for {task_id!r}")
    if feature is FeatureKey.TASK_STATUS:
        return {"task_id": task_id, "state": instance.state.value}
    if feature is FeatureKey.REQUESTED_RESOURCES:
        requested = result.spec.definition(instance.definition).requested
        return {"task_id": task_id, **_request_payload(requested)}
    if feature is FeatureKey.CONSUMED_RESOURCES:
        requested = result.spec.definition(instance.definition).requested
        utilization = consumed_vs_requested(record, requested)
        return {
            "task_id": task_id,
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
    if feature is FeatureKey.RESOURCE_CONSUMPTION_FOR_CODE_PARTS:
        return {
            "task_id": task_id,
            "parts": [
                {
                    "part_name": p.part_name,
                    "duration_ms": p.duration_ms,
                    "peak_memory_bytes": p.peak_memory_bytes,
                }
                for p in synthesize_code_parts(record)
            ],
        }
    if feature is FeatureKey.TASK_ID:
        return {
            "task_id": task_id,
            "workflow_id": result.run.workflow_id,
            "run_id": result.run_id,
            "definition": instance.definition,
            "index": instance.index,
        }
    if feature is FeatureKey.APPLICATION_LOGS:
        return {
            "task_id": task_id,
            "entries": [
                {"t_ms": e.t_ms, "level": e.level.wire_name, "message": e.message}
                for e in result.log_store.query_logs(task_id, min_level)
            ],
        }
    if feature is FeatureKey.TASK_DURATION:
        return {
            "task_id": task_id,
            "start_ms": record.start_ms,
            "end_ms": record.end_ms,
            "duration_ms": record.duration_ms,
        }
    if feature is FeatureKey.LOW_LEVEL_TASK_METRICS:
        return {
            "task_id": task_id,
            "syscall_read_count": record.syscall_read_count,
            "syscall_write_count": record.syscall_write_count,
            "cpu_wait_ms": record.cpu_wait_ms,
            "page_cache_hits": record.page_cache_hits,
            "page_cache_misses": record.page_cache_misses,
        }
    diagnosis = result.diagnoses.get(task_id)
    if diagnosis is None:
        raise _NotFound(f"no diagnosis yet for {task_id!r}")
    return {
        "task_id": task_id,
        "verdict": diagnosis.verdict.value,
        "evidence": diagnosis.evidence,
    }


def _any_rm(context: ServiceContext):
    with context._lock:
        results = list(context.results.values())
    if not results:
        return None
    return results[-1].resource_manager


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
            except BrokenPipeError:
                pass

        def _route(self):
            parsed = urlparse(self.path)
            segments = [s for s in parsed.path.split("/") if s]
            query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
            if len(segments) != 3 or segments[0] != "v1":
                self._send_json(404, {"error": "expected /v1/<layer>/<feature>"})
                return
            try:
                path_layer = LayerId.from_wire(segments[1])
            except UnknownLayerError as exc:
                self._send_json(404, {"error": str(exc)})
                return

            # the live stream is read under workflow_status's access rule
            live = segments[2] == "live_progress" and path_layer is LayerId.WORKFLOW
            feature = (
                FeatureKey.WORKFLOW_STATUS if live
                else self._resolve_feature(path_layer, segments[2])
            )
            if feature is None:
                return

            as_layer_name = query.get("as_layer")
            if not as_layer_name:
                self._send_json(400, {"error": "missing as_layer parameter"})
                return
            try:
                as_layer = LayerId.from_wire(as_layer_name)
            except UnknownLayerError as exc:
                self._send_json(400, {"error": str(exc)})
                return

            denial = authorize(context.matrix, as_layer, feature, context.topology)
            if denial is not None:
                self._send_json(403, {"error": denial.reason})
                return
            if live:
                self._live_progress(query.get("subject"))
                return

            try:
                t_from = int(query.get("from", "0"))
                t_to = int(query.get("to", str(MAX_WINDOW_MS)))
                if t_from > t_to:
                    raise _BadRequest(f"invalid window: from {t_from} > to {t_to}")
                min_level = (
                    LogLevel.from_wire(query["min_level"])
                    if "min_level" in query
                    else LogLevel.DEBUG
                )
                payload = _build_payload(
                    context, feature, query.get("subject"), t_from, t_to, min_level
                )
            except (_BadRequest, ValueError) as exc:
                self._send_json(400, {"error": str(exc)})
                return
            except _NotFound as exc:
                self._send_json(404, {"error": str(exc)})
                return

            name = feature.value if isinstance(feature, FeatureKey) else feature
            self._send_json(
                200,
                {
                    "feature": name,
                    "subject": query.get("subject"),
                    "served_at_ms": context.served_at_ms(),
                    "payload": payload,
                },
            )

        def _resolve_feature(self, path_layer: LayerId, segment: str):
            alias = _STATUS_ALIASES.get((path_layer, segment))
            if alias is not None:
                return alias
            if segment in context.matrix.extensions:
                if context.matrix.owning_layer(segment) is not path_layer:
                    self._send_json(
                        404,
                        {"error": f"extension {segment!r} is not owned by "
                                  f"{path_layer.wire_name}"},
                    )
                    return None
                return segment
            try:
                feature = FeatureKey.from_wire(segment)
            except UnknownFeatureError as exc:
                self._send_json(404, {"error": str(exc)})
                return None
            if feature.owning_layer is not path_layer:
                self._send_json(
                    404,
                    {"error": f"{feature.value} is owned by "
                              f"{feature.owning_layer.wire_name}, not "
                              f"{path_layer.wire_name}"},
                )
                return None
            return feature

        def _live_progress(self, run_id: str | None):
            if not run_id:
                self._send_json(400, {"error": "live_progress needs a run_id subject"})
                return
            with context._lock:
                feed = context.feeds.get(run_id)
                known = run_id in context.results
            if not known:
                self._send_json(404, {"error": f"unknown run: {run_id!r}"})
                return

            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Connection", "close")
            self.end_headers()
            if feed is not None:
                records = feed.subscribe()
            else:
                # completed run: replay its event log
                records = iter(
                    replay_progress(context.result(run_id).event_records)
                )
            for record in records:
                line = json.dumps(_status_payload(record), sort_keys=True)
                self.wfile.write(line.encode() + b"\n")
                self.wfile.flush()
            self.close_connection = True

    return Handler


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return ServiceHandle(server=server, thread=thread)
