"""Query service tests: exhaustive layer/feature authorization over HTTP,
payload correctness per feature, error codes, the live progress stream, and
the context's bookkeeping."""

import ast
import inspect
import json
import sys
import threading
import time

import pytest
import requests
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_machine, make_request, run_simulation
from oracles import ORACLE_ROWS, WORKFLOW_OWNED, oracle_permitted
from test_sim import engine_cases
from stratus.blueprint import (
    ALL_FEATURES,
    ALL_LAYERS,
    FeatureKey,
    LayerId,
    TopologyMode,
    access_allowed,
    default_access_matrix,
    features_owned_by,
    parse_matrix_overrides,
)
from stratus.fixtures import fixture_path, fixture_text
from stratus.machine import UnknownMachineError, parse_cluster
from stratus import service
from stratus.service import (
    ServiceContext,
    ServiceError,
    UnknownRunError,
    authorize,
    replay_progress,
    serve,
)
from stratus.sim import NonQuiescentError, Simulation, load_scenario
from stratus.store import RunStore
from stratus.taskmon import LogLevel
from stratus.workflow import (
    ReportOnRunningRunError,
    RunState,
    TaskDefinition,
    TaskState,
    UnknownTaskError,
    WorkflowSpec,
    execution_report,
    export_dot,
    parse_workflow,
    workflow_status,
)

RUN_ID = "svc-run"
TASK = "wf1/I/0"


def completed_result(topology):
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    return run_simulation(
        spec, machines, fs_total, 4, 42, topology,
        run_id=RUN_ID, submission_ms=1_700_000_000_000,
    )


def start_server(topology, store=None, matrix=None):
    context = ServiceContext(topology, matrix=matrix, store=store)
    result = completed_result(topology)
    context.add_result(result)
    handle = serve(context)
    return context, result, handle


@pytest.fixture(scope="module")
def aware():
    context, result, handle = start_server(TopologyMode.WORKFLOW_AWARE)
    yield context, result, handle.url
    handle.close()


@pytest.fixture(scope="module")
def disjoint():
    context, result, handle = start_server(TopologyMode.DISJOINT)
    yield context, result, handle.url
    handle.close()


def subject_for(feature: FeatureKey) -> str | None:
    owner = feature.owning_layer
    if owner is LayerId.RESOURCE_MANAGER:
        return None
    if feature is FeatureKey.PREVIOUS_EXECUTIONS:
        return "wf1"
    if owner is LayerId.WORKFLOW:
        return RUN_ID
    if owner is LayerId.MACHINE:
        return "m1"
    return TASK


def get_feature(url, feature: FeatureKey, as_layer: LayerId, **params):
    params = {"as_layer": as_layer.wire_name, **params}
    subject = subject_for(feature)
    if subject is not None and "subject" not in params:
        params["subject"] = subject
    return requests.get(
        f"{url}/v1/{feature.owning_layer.wire_name}/{feature.value}",
        params=params,
        timeout=10,
    )


# --- exhaustive authorization conformance ---


@pytest.mark.parametrize("topology_name", ["workflow_aware", "disjoint"])
def test_every_layer_feature_pair_over_http(topology_name, aware, disjoint):
    matrix = default_access_matrix()
    topology = TopologyMode(topology_name)
    _, _, url = aware if topology is TopologyMode.WORKFLOW_AWARE else disjoint
    checked = 0
    for feature in ALL_FEATURES:
        for layer in ALL_LAYERS:
            response = get_feature(url, feature, layer)
            allowed = access_allowed(matrix, layer, feature, topology)
            if allowed:
                assert response.status_code == 200, (feature, layer, response.text)
                body = response.json()
                assert set(body) == {"feature", "subject", "served_at_ms", "payload"}
                assert body["feature"] == feature.value
            else:
                assert response.status_code == 403, (feature, layer, response.text)
                body = response.json()
                assert set(body) == {"error"}
                assert feature.value in body["error"]
            checked += 1
    assert checked == 92


def test_denial_carries_no_data(aware):
    _, _, url = aware
    response = get_feature(url, FeatureKey.WORKFLOW_STATUS, LayerId.TASK)
    assert response.status_code == 403
    body = response.json()
    assert list(body) == ["error"]
    assert "not permitted" in body["error"]
    for leak in ("finished", "progress", "payload", RUN_ID):
        assert leak not in body["error"]


def test_disjoint_denial_names_the_topology_rule(disjoint):
    _, _, url = disjoint
    response = get_feature(
        url, FeatureKey.WORKFLOW_SPECIFICATION, LayerId.RESOURCE_MANAGER
    )
    assert response.status_code == 403
    assert "disjoint" in response.json()["error"]


def test_authorization_runs_before_subject_checks(aware):
    _, _, url = aware
    response = get_feature(
        url, FeatureKey.WORKFLOW_STATUS, LayerId.TASK, subject="no-such-run"
    )
    assert response.status_code == 403


def test_authorize_helper_agrees_with_matrix():
    matrix = default_access_matrix()
    for topology in TopologyMode:
        for feature in ALL_FEATURES:
            for layer in ALL_LAYERS:
                denial = authorize(matrix, layer, feature, topology)
                assert (denial is None) == access_allowed(
                    matrix, layer, feature, topology
                )


_EXTENSION_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda name: name not in ORACLE_ROWS
)


@st.composite
def override_rows(draw):
    """(row key, permitted layers) of one valid override row: a standard
    feature with its owner in the paper's grid and any layers above it, or
    an extension with any layers."""
    if draw(st.integers(0, 3)) == 0:
        layers = draw(st.sets(st.sampled_from(ALL_LAYERS), min_size=1))
        return f"extension {draw(_EXTENSION_NAMES)}", layers
    name = draw(st.sampled_from(sorted(ORACLE_ROWS)))
    owner = min(oracle_permitted(name))
    above = [layer for layer in ALL_LAYERS if layer > owner]
    return name, {owner} | (draw(st.sets(st.sampled_from(above))) if above else set())


def override_file(rows, draw) -> str:
    """The rows as an override file, each row's layers in a drawn order,
    with comments and blank lines between rows."""
    lines = []
    for key, layers in rows:
        lines += draw(st.lists(st.sampled_from(["", "# note"]), max_size=1))
        names = [layer.wire_name for layer in draw(st.permutations(sorted(layers)))]
        lines.append(f"{key}: " + draw(st.sampled_from([", ", ","])).join(names))
    return "\n".join(lines) + "\n"


def reference_denial(permitted, layer, name, topology) -> str | None:
    """The rule that denies ``layer`` the feature or extension ``name``, by
    the paper's grid with the override rows applied: ``permission`` unless
    the row permits the layer, then ``topology`` for the resource manager
    of a disjoint deployment on a workflow-owned feature; None when
    allowed.  An extension is owned by its lowest layer."""
    if layer not in permitted[name]:
        return "permission"
    if name in ORACLE_ROWS:
        owned = name in WORKFLOW_OWNED
    else:
        owned = min(permitted[name]) is LayerId.WORKFLOW
    if topology is TopologyMode.DISJOINT and layer is LayerId.RESOURCE_MANAGER and owned:
        return "topology"
    return None


@pytest.mark.parametrize("topology_name", ["workflow_aware", "disjoint"])
@settings(max_examples=60, deadline=None)
@given(st.lists(override_rows(), max_size=8), st.data())
def test_authorize_denies_exactly_what_the_paper_grid_and_overrides_deny(
    topology_name, aware, disjoint, rows, data
):
    """Random valid override files: ``authorize`` denies a layer a feature
    exactly when the paper's grid with the rows applied (the last row for a
    key wins) denies it, and its reason names the rule.  Every pair is
    checked in-process; a few drawn pairs go over HTTP to the one served
    context of the topology, with the drawn matrix swapped in."""
    topology = TopologyMode(topology_name)
    context, _, url = aware if topology is TopologyMode.WORKFLOW_AWARE else disjoint
    matrix = parse_matrix_overrides(override_file(rows, data.draw))
    permitted = {name: oracle_permitted(name) for name in ORACLE_ROWS}
    permitted.update((key.removeprefix("extension "), layers) for key, layers in rows)
    assert set(matrix.extensions) == set(permitted) - set(ORACLE_ROWS)

    reasons = {}
    for name, layers in permitted.items():
        feature = FeatureKey(name) if name in ORACLE_ROWS else name
        for layer in ALL_LAYERS:
            denial = authorize(matrix, layer, feature, topology)
            rule = reference_denial(permitted, layer, name, topology)
            assert (denial is None) == (rule is None), (name, layer, denial)
            if rule == "permission":
                allowed = ", ".join(sorted(l.wire_name for l in layers))
                assert denial == (
                    f"layer {layer.wire_name} is not permitted to read {name} "
                    f"(permitted: {allowed})"
                )
            elif rule == "topology":
                assert denial.startswith(f"{name} is workflow-owned and ")
                assert "disjoint" in denial
            reasons[name, layer] = denial

    pairs = data.draw(st.lists(st.sampled_from(sorted(reasons)), min_size=1, max_size=3))
    served = context.matrix
    context.matrix = matrix
    try:
        for name, layer in pairs:
            owner = min(permitted[name]).wire_name
            params = {"as_layer": layer.wire_name}
            if name in ORACLE_ROWS:
                params["subject"] = subject_for(FeatureKey(name))
            response = requests.get(f"{url}/v1/{owner}/{name}", params=params, timeout=10)
            if reasons[name, layer] is None:
                assert response.status_code == 200, (name, layer, response.text)
            else:
                assert response.status_code == 403, (name, layer, response.text)
                assert response.json() == {"error": reasons[name, layer]}
    finally:
        context.matrix = served


# --- payload correctness ---


def test_workflow_status_payload_matches_model(aware):
    _, result, url = aware
    body = get_feature(url, FeatureKey.WORKFLOW_STATUS, LayerId.WORKFLOW).json()
    report = workflow_status(result.run)
    assert body["payload"] == {
        "state": report.state.value,
        "finished": report.finished,
        "total": report.total,
        "progress": report.progress,
        "failures": report.failures,
    }
    assert body["payload"]["finished"] == 18


def test_status_aliases_resolve_per_layer(aware):
    _, _, url = aware
    for layer, subject in (
        (LayerId.WORKFLOW, RUN_ID),
        (LayerId.MACHINE, "m1"),
        (LayerId.TASK, TASK),
    ):
        response = requests.get(
            f"{url}/v1/{layer.wire_name}/status",
            params={"as_layer": "resource_manager", "subject": subject},
            timeout=10,
        )
        if layer is LayerId.TASK:
            # the resource manager may read task_status through the alias too
            assert response.status_code == 200
            assert response.json()["feature"] == "task_status"
        else:
            assert response.status_code == 200
            expected = "workflow_status" if layer is LayerId.WORKFLOW else "machine_status"
            assert response.json()["feature"] == expected


def test_workflow_specification_payload(aware):
    _, result, url = aware
    body = get_feature(url, FeatureKey.WORKFLOW_SPECIFICATION, LayerId.WORKFLOW).json()
    payload = body["payload"]
    assert payload["workflow_id"] == "wf1"
    assert [t["name"] for t in payload["tasks"]] == ["I", "II", "III", "IV", "V", "VI"]
    assert ["I", "II"] in payload["edges"]
    assert len(payload["edges"]) == 7


def test_graphical_representation_payload(aware):
    _, result, url = aware
    body = get_feature(url, FeatureKey.GRAPHICAL_REPRESENTATION, LayerId.WORKFLOW).json()
    assert body["payload"]["dot"] == export_dot(result.spec)


def test_execution_report_payload(aware):
    _, result, url = aware
    body = get_feature(url, FeatureKey.EXECUTION_REPORT, LayerId.WORKFLOW).json()
    payload = body["payload"]
    assert payload["counts"] == {"total": 18, "succeeded": 18, "failed": 0}
    assert payload["makespan_ms"] > 0
    assert set(payload["task_stats"]) == {"I", "II", "III", "IV", "V", "VI"}


def test_workflow_id_payload(aware):
    _, _, url = aware
    body = get_feature(url, FeatureKey.WORKFLOW_ID, LayerId.WORKFLOW).json()
    assert body["payload"] == {"run_id": RUN_ID, "workflow_id": "wf1"}


def test_previous_executions_requires_store(aware, tmp_path):
    _, _, url = aware
    body = get_feature(url, FeatureKey.PREVIOUS_EXECUTIONS, LayerId.WORKFLOW).json()
    assert body["payload"] == {"executions": []}

    store = RunStore(tmp_path / "runs.jsonl")
    result = completed_result(TopologyMode.WORKFLOW_AWARE)
    store.append(result.run)
    context, _, handle = start_server(TopologyMode.WORKFLOW_AWARE, store=store)
    try:
        body = get_feature(
            handle.url, FeatureKey.PREVIOUS_EXECUTIONS, LayerId.WORKFLOW
        ).json()
        executions = body["payload"]["executions"]
        assert len(executions) == 1
        assert executions[0]["run_id"] == RUN_ID
        assert executions[0]["final_state"] == "succeeded"
        assert executions[0]["makespan_ms"] > 0
    finally:
        handle.close()


def test_machine_payloads(aware):
    _, result, url = aware
    body = get_feature(url, FeatureKey.MACHINE_STATUS, LayerId.MACHINE).json()
    assert body["payload"] == {"machine_id": "m1", "status": "healthy"}

    body = get_feature(url, FeatureKey.MACHINE_TYPE, LayerId.MACHINE).json()
    assert body["payload"] == {"machine_id": "m1", "type": "bare_metal"}

    body = get_feature(url, FeatureKey.HARDWARE_SPECIFICATION, LayerId.MACHINE).json()
    payload = body["payload"]
    assert payload["cpu_model"] == "EPYC-7302"
    assert payload["memory_clock_mhz"] == 3200
    assert payload["disk_partitions"] == [["root", 100 * 1024**3]]

    body = get_feature(url, FeatureKey.AVAILABLE_RESOURCES, LayerId.MACHINE).json()
    available = body["payload"]
    latest = result.registry.latest_sample("m1", 2**62)
    capacity = result.registry.descriptor("m1").capacity
    assert available["cpu_cores"] == capacity.cpu_cores - latest.used.cpu_cores
    assert available["memory_bytes"] == capacity.memory_bytes - latest.used.memory_bytes


def test_used_resources_window(aware):
    _, result, url = aware
    body = get_feature(
        url, FeatureKey.USED_RESOURCES, LayerId.MACHINE,
        **{"from": "0", "to": "3000"},
    ).json()
    samples = body["payload"]["samples"]
    expected = [s for s in result.samples if s.machine_id == "m1" and s.t_ms <= 3000]
    assert [s["t_ms"] for s in samples] == [s.t_ms for s in expected]
    assert all(0 <= s["cpu_cores"] <= 8 for s in samples)


def test_resource_manager_payloads(aware):
    _, result, url = aware
    body = get_feature(
        url, FeatureKey.INFRASTRUCTURE_STATUS, LayerId.RESOURCE_MANAGER
    ).json()
    payload = body["payload"]
    assert payload["machines_total"] == 2
    assert payload["machines_by_status"]["healthy"] == 2
    assert payload["capacity_total"]["cpu_cores"] == 16
    assert payload["queue_depth"] == 0
    assert payload["running_tasks"] == 0

    body = get_feature(url, FeatureKey.FILE_SYSTEM_STATUS, LayerId.RESOURCE_MANAGER).json()
    fs = result.resource_manager.filesystem_status()
    assert body["payload"] == {
        "total_bytes": fs.total_bytes,
        "used_bytes": fs.used_bytes,
        "healthy": True,
    }
    assert fs.used_bytes == sum(r.wchar_bytes for r in result.trace_records)

    body = get_feature(url, FeatureKey.RUNNING_WORKFLOWS, LayerId.RESOURCE_MANAGER).json()
    assert body["payload"]["running"] == [
        {"run_id": RUN_ID, "workflow_id": "wf1", "state": "succeeded"}
    ]


def test_running_workflows_empty_in_disjoint(disjoint):
    _, _, url = disjoint
    body = get_feature(url, FeatureKey.RUNNING_WORKFLOWS, LayerId.RESOURCE_MANAGER).json()
    assert body["payload"] == {"running": []}


def test_task_payloads(aware):
    _, result, url = aware
    record = next(r for r in result.trace_records if r.task_id == TASK)
    requested = result.spec.definition("I").requested

    body = get_feature(url, FeatureKey.TASK_STATUS, LayerId.TASK).json()
    assert body["payload"] == {"task_id": TASK, "state": "succeeded"}

    body = get_feature(url, FeatureKey.REQUESTED_RESOURCES, LayerId.TASK).json()
    assert body["payload"]["cpu_cores"] == requested.cpu_cores
    assert body["payload"]["max_runtime_ms"] == requested.max_runtime_ms

    body = get_feature(url, FeatureKey.CONSUMED_RESOURCES, LayerId.TASK).json()
    payload = body["payload"]
    assert payload["rss_bytes"] == record.rss_bytes
    assert payload["utilization"]["cpu_ratio"] == pytest.approx(
        (record.cpu_pct / 100) / requested.cpu_cores
    )

    body = get_feature(
        url, FeatureKey.RESOURCE_CONSUMPTION_FOR_CODE_PARTS, LayerId.TASK
    ).json()
    parts = body["payload"]["parts"]
    assert [p["part_name"] for p in parts] == ["setup", "compute", "teardown"]
    assert sum(p["duration_ms"] for p in parts) <= record.duration_ms

    body = get_feature(url, FeatureKey.TASK_ID, LayerId.TASK).json()
    assert body["payload"] == {
        "task_id": TASK,
        "workflow_id": "wf1",
        "run_id": RUN_ID,
        "definition": "I",
        "index": 0,
    }

    body = get_feature(url, FeatureKey.TASK_DURATION, LayerId.TASK).json()
    assert body["payload"] == {
        "task_id": TASK,
        "start_ms": record.start_ms,
        "end_ms": record.end_ms,
        "duration_ms": record.duration_ms,
    }

    body = get_feature(url, FeatureKey.LOW_LEVEL_TASK_METRICS, LayerId.TASK).json()
    assert body["payload"]["syscall_read_count"] == record.syscall_read_count
    assert body["payload"]["page_cache_hits"] == record.page_cache_hits

    body = get_feature(url, FeatureKey.FAULT_DIAGNOSIS, LayerId.TASK).json()
    assert body["payload"] == {"task_id": TASK, "verdict": "none", "evidence": "exit 0"}


def test_application_logs_with_level_filter(aware):
    _, result, url = aware
    body = get_feature(url, FeatureKey.APPLICATION_LOGS, LayerId.TASK).json()
    entries = body["payload"]["entries"]
    assert entries == [
        {"t_ms": e.t_ms, "level": e.level.wire_name, "message": e.message}
        for e in result.application_logs(TASK)
    ]
    assert [e["level"] for e in entries] == ["Info", "Info"]

    body = get_feature(
        url, FeatureKey.APPLICATION_LOGS, LayerId.TASK, min_level="Error"
    ).json()
    assert body["payload"]["entries"] == []


# --- error paths ---


def test_path_and_parameter_errors(aware):
    _, _, url = aware
    assert requests.get(f"{url}/v2/task/task_status", timeout=10).status_code == 404
    assert requests.get(f"{url}/v1/task", timeout=10).status_code == 404
    assert (
        requests.get(
            f"{url}/v1/basement/task_status", params={"as_layer": "task"}, timeout=10
        ).status_code
        == 404
    )
    assert (
        requests.get(
            f"{url}/v1/task/no_such_feature", params={"as_layer": "task"}, timeout=10
        ).status_code
        == 404
    )
    # right feature, wrong owning layer in the path
    assert (
        requests.get(
            f"{url}/v1/machine/task_status", params={"as_layer": "task"}, timeout=10
        ).status_code
        == 404
    )
    # missing and unknown as_layer
    assert (
        requests.get(f"{url}/v1/task/task_status", timeout=10).status_code == 400
    )
    assert (
        requests.get(
            f"{url}/v1/task/task_status", params={"as_layer": "chef"}, timeout=10
        ).status_code
        == 400
    )


def test_subject_errors(aware):
    _, _, url = aware
    response = get_feature(url, FeatureKey.TASK_STATUS, LayerId.TASK, subject="wf1/I/99")
    assert response.status_code == 404
    response = requests.get(
        f"{url}/v1/task/task_status", params={"as_layer": "task"}, timeout=10
    )
    assert response.status_code == 400
    response = get_feature(url, FeatureKey.WORKFLOW_STATUS, LayerId.WORKFLOW, subject="nope")
    assert response.status_code == 404
    response = get_feature(url, FeatureKey.MACHINE_STATUS, LayerId.MACHINE, subject="m9")
    assert response.status_code == 404


def test_window_and_level_errors(aware):
    _, _, url = aware
    response = get_feature(
        url, FeatureKey.USED_RESOURCES, LayerId.MACHINE,
        **{"from": "100", "to": "50"},
    )
    assert response.status_code == 400
    response = get_feature(
        url, FeatureKey.APPLICATION_LOGS, LayerId.TASK, min_level="Loud"
    )
    assert response.status_code == 400


@pytest.mark.parametrize("key", ["from", "to"])
@pytest.mark.parametrize("text", ["1_0", "١", " 5", "5 ", "0x10", "1e3"])
def test_window_bounds_take_only_ascii_integers(aware, key, text):
    # int() alone reads these as 10, 1 and 5; the input formats refuse them
    _, _, url = aware
    window = {"from": "0", "to": "1000", key: text}
    response = get_feature(url, FeatureKey.USED_RESOURCES, LayerId.MACHINE, **window)
    assert response.status_code == 400
    assert response.json() == {"error": f"{key} is not an integer: {text!r}"}


def test_window_bounds_read_signed_ascii_digits(aware):
    _, _, url = aware
    response = get_feature(
        url, FeatureKey.USED_RESOURCES, LayerId.MACHINE, **{"from": "-5", "to": "+007"}
    )
    assert response.status_code == 200


def test_lookalike_layer_and_level_names_are_unknown(aware):
    # dotless i and long s case-map onto ASCII letters, but only ASCII names fold
    _, _, url = aware
    response = requests.get(
        f"{url}/v1/task/task_status", params={"as_layer": "ta\u017fk", "subject": TASK},
        timeout=10,
    )
    assert response.status_code == 400
    assert response.json() == {"error": "unknown layer: 'ta\u017fk'"}
    response = get_feature(
        url, FeatureKey.APPLICATION_LOGS, LayerId.TASK, min_level="\u0131nfo"
    )
    assert response.status_code == 400


# --- extensions ---


def test_extension_feature_is_authorized_but_unbound():
    matrix = parse_matrix_overrides("extension gpu_utilization: machine, resource_manager\n")
    context, _, handle = (None, None, None)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE, matrix=matrix)
    context.add_result(completed_result(TopologyMode.WORKFLOW_AWARE))
    handle = serve(context)
    try:
        url = handle.url
        ok = requests.get(
            f"{url}/v1/machine/gpu_utilization",
            params={"as_layer": "resource_manager"},
            timeout=10,
        )
        assert ok.status_code == 200
        assert ok.json()["payload"] == {"extension": "gpu_utilization", "value": None}
        denied = requests.get(
            f"{url}/v1/machine/gpu_utilization",
            params={"as_layer": "task"},
            timeout=10,
        )
        assert denied.status_code == 403
        wrong_layer = requests.get(
            f"{url}/v1/task/gpu_utilization",
            params={"as_layer": "task"},
            timeout=10,
        )
        assert wrong_layer.status_code == 404
    finally:
        handle.close()


# --- progress replay and live streaming ---


def test_replay_progress_equals_engine_stream():
    result = completed_result(TopologyMode.WORKFLOW_AWARE)
    assert replay_progress(result.event_log_text()) == result.progress_records
    assert replay_progress(result.event_records) == result.progress_records


def test_live_progress_replays_completed_run(aware):
    _, result, url = aware
    response = requests.get(
        f"{url}/v1/workflow/live_progress",
        params={"as_layer": "workflow", "subject": RUN_ID},
        timeout=10,
    )
    assert response.status_code == 200
    assert response.headers["Content-Type"] == "application/x-ndjson"
    lines = [json.loads(l) for l in response.text.splitlines() if l]
    assert len(lines) == len(result.progress_records)
    assert lines[-1]["state"] == "succeeded"
    assert lines[-1]["progress"] == 1.0


def test_live_progress_streams_during_execution():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(
        spec, machines, fs_total, 4, 42, run_id="live-run", submission_ms=0
    )
    # slow the engine down so the subscriber demonstrably reads mid-run
    simulation.event_listeners.append(lambda event: time.sleep(0.002))
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    handle = serve(context)
    received = []
    arrival_times = []

    def consume():
        response = requests.get(
            f"{handle.url}/v1/workflow/live_progress",
            params={"as_layer": "workflow", "subject": "live-run"},
            stream=True,
            timeout=30,
        )
        for line in response.iter_lines():
            if line:
                received.append(json.loads(line))
                arrival_times.append(time.monotonic())

    try:
        reader = threading.Thread(target=consume)
        reader.start()
        time.sleep(0.05)
        simulation.run_to_completion()
        engine_done = time.monotonic()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert arrival_times[0] < engine_done
        assert any(r["state"] == "running" for r in received)
        assert received[-1]["state"] == "succeeded"
        assert received == expected_stream(simulation)
    finally:
        handle.close()


def read_progress(context, run_id):
    """The run's progress records, read on a daemon thread: a stream that
    does not end fails the test instead of hanging it."""
    received = []
    reader = threading.Thread(
        target=lambda: received.extend(r for batch in context.progress(run_id) for r in batch),
        daemon=True,
    )
    reader.start()
    return reader, received


def stuck_simulation(run_id):
    """One task larger than every machine: the engine drains its events and
    raises NonQuiescentError with the task still queued."""
    huge = TaskDefinition("huge", False, make_request(cpus=64), "quick")
    spec = WorkflowSpec(workflow_id="big", tasks=(huge,), edges=())
    return Simulation(spec, [make_machine("m1")], 10**12, 1, 0, run_id=run_id, submission_ms=0)


def test_live_progress_ends_when_the_engine_raises():
    simulation = stuck_simulation("stuck")
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    reader, received = read_progress(context, "stuck")
    with pytest.raises(NonQuiescentError):
        simulation.run_to_completion()
    reader.join(timeout=5)
    assert not reader.is_alive()
    assert received == simulation.result.progress_records


def test_an_aborted_result_added_later_ends_its_stream():
    simulation = stuck_simulation("stuck")
    with pytest.raises(NonQuiescentError):
        simulation.run_to_completion()
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.add_result(simulation.result)
    reader, received = read_progress(context, "stuck")
    reader.join(timeout=5)
    assert not reader.is_alive()
    # submitted and queued, never completed
    assert received == simulation.result.progress_records
    assert [r.state for r in received] == [RunState.RUNNING]


def test_a_run_yet_to_end_is_attached_live_not_added():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="later", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    with pytest.raises(ServiceError, match="'later' has not ended"):
        context.add_result(simulation.result)
    assert context.results == {}


def test_a_live_run_has_an_execution_report_only_once_it_ends():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="later", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    handle = serve(context)
    try:
        url = f"{handle.url}/v1/workflow/execution_report"
        params = {"as_layer": "workflow", "subject": "later"}
        response = requests.get(url, params=params, timeout=10)
        assert response.status_code == 400
        assert response.json() == {"error": "run later has not finished"}
        simulation.run_to_completion()
        response = requests.get(url, params=params, timeout=10)
        assert response.status_code == 200
        assert response.json()["payload"]["counts"]["total"] == len(simulation.result.run.instances)
    finally:
        handle.close()


def test_live_readers_under_fast_thread_switching_all_read_the_whole_stream():
    # a wake-up lost between a reader's check and its wait would leave that
    # reader blocked, and its join below would time out
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 8, 42, run_id="busy", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    readers = [read_progress(context, "busy") for _ in range(3)]

    def start_another(event):
        if len(simulation.event_records) % 16 == 0:
            readers.append(read_progress(context, "busy"))

    simulation.event_listeners.append(start_another)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        simulation.run_to_completion()
        for reader, _ in readers:
            reader.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert len(readers) > 6
    assert not any(reader.is_alive() for reader, _ in readers)
    assert all(received == simulation.result.progress_records for _, received in readers)


def live_stream_over_http(url, run_id):
    """A reader thread streaming the run's live_progress over HTTP, and the
    list its records land in."""
    received = []

    def consume():
        response = requests.get(
            f"{url}/v1/workflow/live_progress",
            params={"as_layer": "workflow", "subject": run_id},
            stream=True,
            timeout=10,
        )
        received.extend(json.loads(line) for line in response.iter_lines() if line)

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    return reader, received


def expected_stream(simulation):
    return [
        {
            "state": r.state.value,
            "finished": r.finished,
            "total": r.total,
            "progress": r.progress,
            "failures": r.failures,
        }
        for r in replay_progress(simulation.event_records)
    ]


def test_a_run_attached_mid_run_streams_from_its_first_event():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="mid", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    handle = serve(context)
    readers = []

    def attach_at_event_10(event):
        if len(simulation.event_records) == 10:
            context.attach_live(simulation)
            readers.append(live_stream_over_http(handle.url, "mid"))
        # slow the engine so the reader catches up and waits mid-run
        time.sleep(0.001)

    simulation.event_listeners.append(attach_at_event_10)
    try:
        simulation.run_to_completion()
        (reader, received), = readers
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == expected_stream(simulation)
        assert received[0]["total"] == len(simulation.run.instances)
    finally:
        handle.close()


def test_a_run_attached_after_it_finished_streams_whole_and_ends():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="done", submission_ms=0)
    simulation.run_to_completion()
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    handle = serve(context)
    try:
        reader, received = live_stream_over_http(handle.url, "done")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == expected_stream(simulation)
        assert received[-1]["state"] == "succeeded"
    finally:
        handle.close()


def test_live_run_registers_the_result_the_engine_returns():
    # the fault scenario's failures poison every instance downstream of them
    scenario = load_scenario(fixture_path("faults.scenario"))
    spec = parse_workflow(scenario.workflow_path.read_text(), default_workflow_id="wf1")
    machines, fs_total = parse_cluster(scenario.cluster_path.read_text())
    simulation = Simulation(
        spec, machines, fs_total, scenario.input_count, scenario.seed, scenario.topology,
        run_id="live-faults", submission_ms=0,
    )
    for injection in scenario.injections:
        simulation.inject(injection)
    context = ServiceContext(scenario.topology)
    context.attach_live(simulation)
    result = simulation.run_to_completion()
    assert context.result("live-faults") is result
    poisoned = {i.task_id for i in result.run.instances if i.state is TaskState.PENDING}
    assert poisoned
    assert context.result("live-faults").never_eligible == poisoned


def test_live_progress_errors(aware):
    _, _, url = aware
    response = requests.get(
        f"{url}/v1/workflow/live_progress",
        params={"as_layer": "task", "subject": RUN_ID},
        timeout=10,
    )
    assert response.status_code == 403
    response = requests.get(
        f"{url}/v1/workflow/live_progress",
        params={"as_layer": "workflow"},
        timeout=10,
    )
    assert response.status_code == 400
    response = requests.get(
        f"{url}/v1/workflow/live_progress",
        params={"as_layer": "workflow", "subject": "ghost"},
        timeout=10,
    )
    assert response.status_code == 404


# --- context bookkeeping ---


def test_context_finds_newest_registration():
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    assert context.resource_manager() is None
    first = completed_result(TopologyMode.WORKFLOW_AWARE)
    context.add_result(first)
    assert context.resource_manager() is first.resource_manager
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    second = run_simulation(
        spec, machines, fs_total, 4, 43, run_id="other", submission_ms=0
    )
    context.add_result(second)
    assert context.resource_manager() is second.resource_manager
    assert list(context.results) == [RUN_ID, "other"]
    found, instance = context.find_task(TASK)
    assert found.run_id == "other"
    assert instance.task_id == TASK
    assert context.find_task("missing/x/0") is None


def test_a_run_id_is_registered_once():
    spec = parse_workflow(fixture_text("fig1.wf"))
    two, fs_two = parse_cluster(fixture_text("two.cluster"))
    four, fs_four = parse_cluster(fixture_text("four.cluster"))
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    for run_id in ("A", "B"):
        context.add_result(
            run_simulation(spec, two, fs_two, 4, 42, run_id=run_id, submission_ms=0)
        )
    newest = context.result("B")
    again = run_simulation(spec, four, fs_four, 4, 42, run_id="A", submission_ms=0)
    with pytest.raises(ServiceError, match="'A' is already registered"):
        context.add_result(again)
    live = Simulation(spec, four, fs_four, 4, 42, run_id="B", submission_ms=0)
    with pytest.raises(ServiceError, match="'B' is already registered"):
        context.attach_live(live)
    assert live.event_listeners == [] and live.abort_listeners == []
    # newest-wins lookups still answer from B, the last run registered
    assert context.find_task(TASK)[0] is newest
    assert context.resource_manager() is newest.resource_manager
    assert context.resource_manager().registry.machine_ids() == ["m1", "m2"]


def test_every_feature_has_exactly_one_table_row():
    assert set(service._FEATURES) == set(FeatureKey)


def test_only_the_context_takes_its_lock():
    tree = ast.parse(inspect.getsource(service))
    outside = [
        node for node in tree.body
        if not (isinstance(node, ast.ClassDef) and node.name == "ServiceContext")
    ]
    takers = [
        node.lineno
        for top in outside
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "_lock"
    ]
    assert takers == []
    assert not hasattr(service, "_any_rm")


def naive_find_task(context, task_id):
    for result in reversed(list(context.results.values())):
        for instance in result.run.instances:
            if instance.task_id == task_id:
                return result, instance
    return None


def naive_trace_record(result, task_id):
    return next((r for r in result.trace_records if r.task_id == task_id), None)


def assert_lookups_match_naive_scans(context, task_ids):
    for task_id in task_ids:
        found = context.find_task(task_id)
        expected = naive_find_task(context, task_id)
        if expected is None:
            assert found is None
            continue
        assert found[0] is expected[0] and found[1] is expected[1]
        result = found[0]
        assert result.trace_by_id.get(task_id) is naive_trace_record(result, task_id)


class _StopRun(Exception):
    pass


def test_task_lookups_match_naive_scans():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    # two finished runs of one workflow: the newer one has fewer inputs, so
    # some task ids resolve to each run
    for run_id, inputs in (("older", 6), ("newer", 3)):
        context.add_result(
            run_simulation(spec, machines, fs_total, inputs, 7, run_id=run_id, submission_ms=0)
        )
    task_ids = sorted({i.task_id for r in context.results.values() for i in r.run.instances})
    task_ids += ["missing/x/0", "wf1/I/99"]
    assert_lookups_match_naive_scans(context, task_ids)

    # a live run registered last, checked while it runs and after it stops
    # part-way: records it has not written yet must not be found
    live = Simulation(spec, machines, fs_total, 4, 8, run_id="live", submission_ms=0)
    context.attach_live(live)
    seen = []

    def listener(event):
        seen.append(event)
        if len(seen) % 7 == 0:
            assert_lookups_match_naive_scans(context, task_ids)
        if len(seen) == 40:
            raise _StopRun()

    live.event_listeners.append(listener)
    with pytest.raises(_StopRun):
        live.run_to_completion()
    live_result = context.result("live")
    assert 0 < len(live_result.trace_records) < len(live_result.run.instances)
    assert_lookups_match_naive_scans(context, task_ids)


def test_a_finished_runs_stream_is_one_batch_ending_on_the_terminal_record():
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    run = completed_result(TopologyMode.WORKFLOW_AWARE)
    context.add_result(run)
    assert list(context.progress(RUN_ID)) == [run.progress_records]
    with pytest.raises(UnknownRunError):
        next(context.progress("ghost"))


# --- answers over random runs ---


def answer(context, feature, subject):
    """(200, payload), or the (status, text) the service refuses with."""
    try:
        with service._refusals():
            return 200, service._build_payload(
                context, feature, subject, 0, service.MAX_WINDOW_MS, LogLevel.DEBUG
            )
    except service._HTTPError as exc:
        return exc.status, str(exc)


def drawn_simulation(case, run_id, started):
    spec, machines, input_count, seed, topology, injections = case
    simulation = Simulation(
        spec, machines, 10**15, input_count, seed, topology, run_id=run_id, submission_ms=0
    )
    for injection in injections:
        simulation.inject(injection)
    if started:
        try:
            simulation.run_to_completion()
        except NonQuiescentError:
            pass
    return simulation


TASK_FEATURES = features_owned_by(LayerId.TASK)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(engine_cases(), st.booleans()), min_size=1, max_size=3), st.data())
def test_each_answer_comes_from_the_newest_run_holding_its_subject(runs, data):
    """Every engine case's tasks share ids (``pw/t0/0``, ...), so runs drawn
    with different sizes hold some ids in one run only; a run that was
    never started holds its tasks with no trace records."""
    simulations = [
        drawn_simulation(case, f"r{n}", started) for n, (case, started) in enumerate(runs)
    ]
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    order = data.draw(st.permutations(simulations))
    for simulation in order:
        context.attach_live(simulation)

    held = {s.run_id: {i.task_id for i in s.run.instances} for s in simulations}
    task_ids = sorted(set().union(*held.values()))
    for task_id in task_ids:
        holder = next(s for s in reversed(order) if task_id in held[s.run_id])
        alone = ServiceContext(TopologyMode.WORKFLOW_AWARE)
        alone.attach_live(holder)
        for feature in TASK_FEATURES:
            assert answer(context, feature, task_id) == answer(alone, feature, task_id)
        assert answer(context, FeatureKey.TASK_ID, task_id)[1]["run_id"] == holder.run_id
        traced = any(r.task_id == task_id for r in holder.result.trace_records)
        assert answer(context, FeatureKey.TASK_DURATION, task_id)[0] == (200 if traced else 404)

    # a subject that names nothing answers the owning layer's own error
    newest = order[-1]
    for feature, subject, error in (
        (FeatureKey.TASK_STATUS, "pw/ghost/0", UnknownTaskError("pw/ghost/0")),
        (FeatureKey.WORKFLOW_STATUS, "ghost", UnknownRunError("ghost")),
        (FeatureKey.MACHINE_STATUS, "m9", UnknownMachineError("m9")),
    ):
        assert answer(context, feature, subject) == (404, str(error))
    for simulation in simulations:
        reported = answer(context, FeatureKey.EXECUTION_REPORT, simulation.run_id)
        if simulation.run.final_state is RunState.RUNNING:
            assert reported == (400, str(ReportOnRunningRunError(simulation.run_id)))
        else:
            assert reported == (200, execution_report(simulation.run).to_record())
    machine_id = newest.result.registry.machine_ids()[0]
    assert answer(context, FeatureKey.MACHINE_STATUS, machine_id)[0] == 200

    # a few of the same requests over HTTP answer the same status and body
    requests_drawn = data.draw(st.lists(
        st.tuples(st.sampled_from(TASK_FEATURES), st.sampled_from(task_ids + ["pw/ghost/0"])),
        min_size=1, max_size=3,
    ))
    handle = serve(context)
    try:
        for feature, subject in requests_drawn:
            status, body = answer(context, feature, subject)
            response = get_feature(handle.url, feature, LayerId.TASK, subject=subject)
            assert response.status_code == status
            if status == 200:
                assert response.json()["payload"] == json.loads(json.dumps(body))
            else:
                assert response.json() == {"error": body}
    finally:
        handle.close()
