"""Query-path workload: a seeded request mix from one closed-loop client
over one keep-alive HTTP/1.1 connection to ``stratus.service.serve`` in the
same process, with run records appended to the store beside the reads.

Every request's expected status comes from ``access_allowed`` on the
default matrix; every answer is checked after the timed loop, so checking
adds no think time between requests.
"""

import http.client
import json
import random
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from urllib.parse import urlencode

from stratus import machine as st_machine
from stratus import service as st_service
from stratus import sim as st_sim
from stratus import store as st_store
from stratus import workflow as st_workflow
from stratus.blueprint import FeatureKey, LayerId, TopologyMode, access_allowed
from stratus.taskmon import LogLevel

MIX_RUNS = 8
MIX_INPUTS = 32
APPEND_EVERY = 50
LIVE_SHARE = 0.02
PREVIOUS_SHARE = 0.03
DENIED_SHARE = 0.20

CATEGORY = {
    LayerId.RESOURCE_MANAGER: "rm",
    LayerId.WORKFLOW: "workflow",
    LayerId.MACHINE: "machine",
    LayerId.TASK: "task",
}
CATEGORIES = ("rm", "workflow", "machine", "task", "denied", "previous_executions", "live_progress")


@dataclass
class Request:
    category: str
    path: str
    expected_status: int
    feature: str | None = None
    subject: str | None = None
    run_id: str | None = None  # live_progress and workflow_status: whose progress
    expected_executions: int | None = None  # previous_executions: store size


@dataclass
class Served:
    """What the workload serves: results in a context, a store, a server."""

    context: st_service.ServiceContext
    store: st_store.RunStore
    handle: st_service.ServiceHandle
    results: list

    def close(self) -> None:
        self.handle.close()


def status_payload(report) -> dict:
    return {
        "state": report.state.value,
        "finished": report.finished,
        "total": report.total,
        "progress": report.progress,
        "failures": report.failures,
    }


def serve_results(results, store_path: Path) -> Served:
    """Register results in a fresh context backed by a fresh store holding
    their records, and start the service."""
    if store_path.exists():
        store_path.unlink()
    store = st_store.RunStore(store_path)
    context = st_service.ServiceContext(results[-1].topology, store=store)
    for result in results:
        context.add_result(result)
        store.append(result.run)
    handle = st_service.serve(context)
    return Served(context, store, handle, list(results))


def build_mix_results(fixture_text, seed: int, input_count: int = MIX_INPUTS, runs: int = MIX_RUNS):
    spec = st_workflow.parse_workflow(fixture_text("fig1.wf"), default_workflow_id="fig1")
    machines, fs_total = st_machine.parse_cluster(fixture_text("four.cluster"))
    results = []
    for offset in range(runs):
        simulation = st_sim.Simulation(
            spec, machines, fs_total, input_count, seed + offset,
            run_id=f"mix-{seed + offset}", submission_ms=offset,
        )
        results.append(simulation.run_to_completion())
    return results


def setup_mix(fixture_text, seed: int, store_path: Path, input_count: int = MIX_INPUTS) -> Served:
    return serve_results(build_mix_results(fixture_text, seed, input_count), store_path)


@dataclass(frozen=True)
class Expected:
    """What each run's progress stream and status payload must read."""

    progress: dict
    status: dict


def expectations(results) -> Expected:
    return Expected(
        progress={
            r.run_id: [status_payload(p) for p in st_service.replay_progress(r.event_records)]
            for r in results
        },
        status={r.run_id: status_payload(st_workflow.workflow_status(r.run)) for r in results},
    )


# -- the request plan --------------------------------------------------------


class Plan:
    """Seeded, endless sequence of requests and appends.  It opens with one
    allowed request per feature and one live_progress replay, then draws
    live_progress, previous_executions, denied and allowed requests at the
    configured shares; an append comes after every APPEND_EVERY requests."""

    def __init__(self, seed: int, served: Served):
        self._rng = random.Random(f"perfbench-mix:{seed}")
        self._served = served
        self._matrix = served.context.matrix
        self._topology = served.context.topology
        newest = served.results[-1]
        self._run_ids = [r.run_id for r in served.results]
        self._workflow_id = newest.run.workflow_id
        self._machine_ids = newest.registry.machine_ids()
        # task subjects resolve to the newest run; use instances that ran
        self._task_ids = sorted(r.task_id for r in newest.trace_records)
        self._horizon_ms = newest.event_records[-1].t_ms
        self.store_size = len(served.results)
        self._appends = 0
        self._allowed_features = [f for f in FeatureKey if f is not FeatureKey.PREVIOUS_EXECUTIONS]
        self._deniable = [
            (f, layer)
            for f in FeatureKey
            for layer in LayerId
            if not access_allowed(self._matrix, layer, f, self._topology)
        ]

    def _allowed_layers(self, feature: FeatureKey) -> list[LayerId]:
        return [l for l in LayerId if access_allowed(self._matrix, l, feature, self._topology)]

    def _feature_request(self, feature: FeatureKey, as_layer: LayerId) -> Request:
        rng = self._rng
        owner = feature.owning_layer
        params = {"as_layer": as_layer.wire_name}
        if owner is LayerId.RESOURCE_MANAGER:
            subject = None
        elif feature is FeatureKey.PREVIOUS_EXECUTIONS:
            subject = self._workflow_id
        elif owner is LayerId.WORKFLOW:
            subject = rng.choice(self._run_ids)
        elif owner is LayerId.MACHINE:
            subject = rng.choice(self._machine_ids)
        else:
            subject = rng.choice(self._task_ids)
        if subject is not None:
            params["subject"] = subject
        if feature is FeatureKey.USED_RESOURCES:
            t_from = rng.randrange(self._horizon_ms + 1)
            params["from"] = str(t_from)
            params["to"] = str(rng.randrange(t_from, self._horizon_ms + 1))
        if feature is FeatureKey.APPLICATION_LOGS:
            params["min_level"] = rng.choice(list(LogLevel)).wire_name
        allowed = access_allowed(self._matrix, as_layer, feature, self._topology)
        if not allowed:
            category = "denied"
        elif feature is FeatureKey.PREVIOUS_EXECUTIONS:
            category = "previous_executions"
        else:
            category = CATEGORY[owner]
        return Request(
            category=category,
            path=f"/v1/{owner.wire_name}/{feature.value}?{urlencode(params)}",
            expected_status=200 if allowed else 403,
            feature=feature.value,
            subject=subject,
            run_id=subject if feature is FeatureKey.WORKFLOW_STATUS else None,
            expected_executions=self.store_size if allowed and category == "previous_executions" else None,
        )

    def _live_request(self) -> Request:
        run_id = self._rng.choice(self._run_ids)
        query = urlencode({"as_layer": "workflow", "subject": run_id})
        return Request(
            category="live_progress",
            path=f"/v1/workflow/live_progress?{query}",
            expected_status=200,
            run_id=run_id,
        )

    def _draw(self) -> Request:
        rng = self._rng
        r = rng.random()
        if r < LIVE_SHARE:
            return self._live_request()
        if r < LIVE_SHARE + PREVIOUS_SHARE:
            return self._feature_request(FeatureKey.PREVIOUS_EXECUTIONS, LayerId.WORKFLOW)
        if r < LIVE_SHARE + PREVIOUS_SHARE + DENIED_SHARE:
            return self._feature_request(*rng.choice(self._deniable))
        feature = rng.choice(self._allowed_features)
        return self._feature_request(feature, rng.choice(self._allowed_layers(feature)))

    def append_record(self):
        """The next run record to append: a copy of a served run under a new
        id, submitted after everything already stored."""
        self._appends += 1
        source = self._served.results[self._appends % len(self._served.results)].run
        self.store_size += 1
        return replace(
            source.snapshot(),
            run_id=f"appended-{self._appends}",
            submission_ms=len(self._served.results) + self._appends,
        )

    def __iter__(self):
        opening = [
            self._feature_request(f, self._rng.choice(self._allowed_layers(f)))
            for f in FeatureKey
        ]
        self._rng.shuffle(opening)
        opening.append(self._live_request())
        count = 0
        for request in opening:
            yield request
            count += 1
            if count % APPEND_EVERY == 0:
                yield self.append_record()
        while True:
            yield self._draw()
            count += 1
            if count % APPEND_EVERY == 0:
                yield self.append_record()


# -- the closed-loop client ---------------------------------------------------


@dataclass
class Outcome:
    requests: list = field(default_factory=list)  # (Request, status, body, start, end)
    append_errors: list = field(default_factory=list)
    appends: int = 0
    elapsed_s: float = 0.0

    def operations(self) -> int:
        return len(self.requests) + self.appends + len(self.append_errors)


def drive(served: Served, plan: Plan, seconds: float | None, max_requests: int | None) -> Outcome:
    """Send the plan's requests one after another until ``seconds`` have
    passed or ``max_requests`` were sent."""
    host, port = served.handle.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    out = Outcome()
    begin = perf_counter()
    try:
        for item in plan:
            if isinstance(item, st_workflow.RunRecord):
                try:
                    served.store.append(item)
                    out.appends += 1
                except OSError as exc:
                    out.append_errors.append(str(exc))
                continue
            if max_requests is not None and len(out.requests) >= max_requests:
                break
            if seconds is not None and perf_counter() - begin >= seconds:
                break
            if item.category == "live_progress":
                status, body, start, end = _fetch_once(host, port, item.path)
            else:
                status, body, start, end, conn = _fetch(conn, host, port, item.path)
            out.requests.append((item, status, body, start, end))
    finally:
        out.elapsed_s = perf_counter() - begin
        conn.close()
    return out


def _fetch(conn, host, port, path):
    start = perf_counter()
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        conn = http.client.HTTPConnection(host, port, timeout=30)
        return None, str(exc).encode(), start, perf_counter(), conn
    end = perf_counter()
    if response.will_close:
        conn.close()
        conn = http.client.HTTPConnection(host, port, timeout=30)
    return response.status, body, start, end, conn


def _fetch_once(host, port, path):
    start = perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, body, start, perf_counter()
    except (OSError, http.client.HTTPException) as exc:
        return None, str(exc).encode(), start, perf_counter()
    finally:
        conn.close()


def check(expected: Expected, outcome: Outcome) -> list[str]:
    """Every answer against its expectation; returns one line per failed
    request (plus one per failed append)."""
    problems = [f"append failed: {e}" for e in outcome.append_errors]
    for request, status, body, _, _ in outcome.requests:
        problem = _check_one(expected, request, status, body)
        if problem:
            problems.append(f"{request.path}: {problem}")
    return problems


def _check_one(expected: Expected, request: Request, status, body: bytes) -> "str | None":
    if status != request.expected_status:
        return f"status {status}, expected {request.expected_status}: {body[:200]!r}"
    try:
        if request.category == "live_progress":
            lines = [json.loads(line) for line in body.decode().splitlines() if line]
            if lines != expected.progress[request.run_id]:
                return "progress stream differs from replay_progress of the run"
            return None
        document = json.loads(body)
    except ValueError as exc:
        return f"unparsable body: {exc}"
    if status == 403:
        return None if "error" in document else "denial without an error"
    if document.get("feature") != request.feature or document.get("subject") != request.subject:
        return f"answer for {document.get('feature')}/{document.get('subject')}"
    payload = document.get("payload")
    if request.expected_executions is not None:
        got = len(payload["executions"])
        if got != request.expected_executions:
            return f"{got} previous executions, expected {request.expected_executions}"
    if request.feature == FeatureKey.WORKFLOW_STATUS.value:
        if payload != expected.status[request.run_id]:
            return "workflow_status differs from the run's status"
    return None


def latency_summary(requests: list, elapsed_s: "float | None" = None) -> dict:
    """Client-side latency in ms of (Request, status, body, start, end)
    tuples: median, p99 and requests per second overall, and (median,
    count) per category."""

    def ms(items):
        return [(end - start) * 1000 for _, _, _, start, end in items]

    def p50(values):
        return statistics.median(values) if values else 0.0

    overall = ms(requests)
    return {
        "count": len(overall),
        "p50_ms": p50(overall),
        "p99_ms": percentile(overall, 99) if overall else 0.0,
        "per_s": len(overall) / elapsed_s if elapsed_s else 0.0,
        "by_category": {
            category: (p50(own), len(own))
            for category in CATEGORIES
            for own in [ms([r for r in requests if r[0].category == category])]
        },
    }


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
