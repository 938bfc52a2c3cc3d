"""Query service tests: every answer of ``ServiceContext.answer`` against the
plain reference answer of ``oracles.reference_answer``, over drawn runs and
requests; authorization under drawn override matrices; live runs and their
streams; the transport over HTTP (keep-alive, the live progress stream,
close and client resets); and the context's bookkeeping."""

import ast
import dataclasses
import gc
import http.client
import inspect
import json
import socket
import socketserver
import struct
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple
from urllib.parse import parse_qs, urlencode

import pytest
import requests
from hypothesis import HealthCheck, Phase, example, find, given, settings
from hypothesis import strategies as st

import oracles
import test_golden_service as golden
from conftest import (
    GiB,
    engine_cases,
    imports_of,
    make_machine,
    make_request,
    run_simulation,
    scenario_case,
)
from oracles import (
    ORACLE_EXTENSIONS,
    ORACLE_ROWS,
    machine_samples,
    oracle_permitted,
    reference_answer,
    reference_denial,
)
from stratus.blueprint import (
    ALL_FEATURES,
    ALL_LAYERS,
    FeatureKey,
    LayerId,
    TopologyMode,
    features_owned_by,
    parse_matrix_overrides,
)
from stratus.fixtures import fixture_path, fixture_text
from stratus.machine import parse_cluster
from stratus import service
from stratus.service import (
    ServiceContext,
    ServiceError,
    UnknownRunError,
    authorize,
    replay_progress,
    serve,
)
from stratus.sim import (
    SAMPLE_CADENCE_MS,
    FaultInjection,
    InjectionKind,
    NonQuiescentError,
    Simulation,
    load_scenario,
    parse_event_log,
    scenario_simulation,
)
from stratus.store import RunStore
from stratus.taskmon import diagnose
from stratus.workflow import (
    RunState,
    TaskDefinition,
    TaskState,
    WorkflowSpec,
    WorkflowStatusReport,
    execution_report,
    expand_instances,
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


def make_context(topology, store=None):
    context = ServiceContext(topology, store=store)
    result = completed_result(topology)
    context.add_result(result)
    return context, result


@pytest.fixture(scope="module")
def aware():
    return make_context(TopologyMode.WORKFLOW_AWARE)


def subject_for(feature: FeatureKey) -> str | None:
    if feature is FeatureKey.PREVIOUS_EXECUTIONS:
        return "wf1"
    return {LayerId.WORKFLOW: RUN_ID, LayerId.MACHINE: "m1", LayerId.TASK: TASK}.get(
        feature.owning_layer
    )


def target(path: str, **params) -> str:
    """The request target of ``path`` with ``params`` as its query; a
    parameter given as None is left out."""
    query = urlencode({k: v for k, v in params.items() if v is not None})
    return f"{path}?{query}" if query else path


def feature_target(feature: FeatureKey, as_layer: LayerId | None = None, **params) -> str:
    """``feature`` asked as ``as_layer`` (its owning layer by default), with
    the subject ``subject_for`` names unless ``params`` names one."""
    params.setdefault("subject", subject_for(feature))
    owner = feature.owning_layer
    as_layer = owner if as_layer is None else as_layer
    return target(f"/v1/{owner.wire_name}/{feature.value}", as_layer=as_layer.wire_name, **params)


def ask(context, request_target: str) -> tuple[int, dict]:
    """The status and decoded JSON body of ``context``'s answer."""
    status, content_type, body = context.answer(request_target)
    assert content_type == "application/json"
    return status, json.loads(body)


def ask_feature(context, feature, as_layer=None, **params) -> tuple[int, dict]:
    return ask(context, feature_target(feature, as_layer, **params))


def payload_of(context, feature, as_layer=None, **params) -> dict:
    status, body = ask_feature(context, feature, as_layer, **params)
    assert status == 200, body
    return body["payload"]


# --- authorization under drawn override matrices ---


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


@pytest.mark.parametrize("topology_name", ["workflow_aware", "disjoint"])
@settings(max_examples=60, deadline=None)
@given(st.lists(override_rows(), max_size=8), st.data())
def test_authorize_denies_exactly_what_the_paper_grid_and_overrides_deny(
    topology_name, rows, data
):
    """Random valid override files: ``authorize`` denies a layer a feature
    exactly when the paper's grid with the rows applied (the last row for a
    key wins) denies it, with the text of the rule it breaks."""
    topology = TopologyMode(topology_name)
    matrix = parse_matrix_overrides(override_file(rows, data.draw))
    permitted = {name: oracle_permitted(name) for name in ORACLE_ROWS}
    permitted.update((key.removeprefix("extension "), layers) for key, layers in rows)
    assert set(matrix.extensions) == set(permitted) - set(ORACLE_ROWS)

    for name in permitted:
        feature = FeatureKey(name) if name in ORACLE_ROWS else name
        for layer in ALL_LAYERS:
            denial = authorize(matrix, layer, feature, topology)
            assert denial == reference_denial(permitted, layer, name, topology), (name, layer)


# --- the kept status fold and the run history ---


def test_a_first_workflow_status_answer_builds_one_report(monkeypatch):
    """The kept fold is stepped over the whole event log and builds only
    the record it answers, not one per state-changing event."""
    context, result = make_context(TopologyMode.WORKFLOW_AWARE)
    built = []

    def counting(*args):
        built.append(args)
        return WorkflowStatusReport(*args)

    for module in ("stratus.sim", "stratus.service"):
        monkeypatch.setattr(f"{module}.WorkflowStatusReport", counting)
    assert context.status(RUN_ID) == workflow_status(result.run)
    assert len(built) == 1


def test_previous_executions_follow_a_history_cleared_in_place(tmp_path):
    """The service's store has read three runs; the history is then cleared
    in place and four runs appended by another writer, leaving the file
    longer than what was read: only the four new runs are listed."""
    path = tmp_path / "runs.jsonl"
    run = completed_result(TopologyMode.WORKFLOW_AWARE).run

    def append(*positions):
        for position in positions:
            kept = dataclasses.replace(run, run_id=f"r{position}", submission_ms=position)
            RunStore(path).append(kept)

    append(0, 1, 2)
    context, _ = make_context(TopologyMode.WORKFLOW_AWARE, store=RunStore(path))
    listed = lambda: [
        execution["run_id"]
        for execution in payload_of(context, FeatureKey.PREVIOUS_EXECUTIONS)["executions"]
    ]
    assert listed() == ["r2", "r1", "r0"]
    path.write_bytes(b"")
    append(5, 6, 7, 8)
    assert listed() == ["r8", "r7", "r6", "r5"]


# --- progress replay and live streaming ---


def expected_stream(result):
    """The run's stream records; the property below checks their bytes."""
    return [service._status_payload(r) for r in replay_progress(result.event_records)]


def test_live_progress_replays_completed_run(aware):
    context, result = aware
    # the engine's progress records are the replay of its events, also as read back
    assert replay_progress(parse_event_log(result.event_log_text())) == result.progress_records
    assert replay_progress(result.event_records) == result.progress_records
    request_target = target("/v1/workflow/live_progress", as_layer="workflow", subject=RUN_ID)
    status, content_type, chunks = context.answer(request_target)
    streamed = b"".join(chunks)
    assert (status, content_type) == (200, "application/x-ndjson")
    assert [json.loads(line) for line in streamed.splitlines()] == expected_stream(result)
    # over HTTP the stream is the same bytes, and its connection closes
    handle = serve(context)
    try:
        response = requests.get(handle.url + request_target, timeout=10)
    finally:
        handle.close()
    assert (response.status_code, response.content) == (200, streamed)
    assert response.headers["Content-Type"] == "application/x-ndjson"
    assert response.headers["Connection"] == "close"


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


def test_a_live_run_has_an_execution_report_only_once_it_ends(monkeypatch):
    """A running run answers 400 and keeps nothing; an ended run's report
    is computed once, for every later answer."""
    computed = []

    def counting(run):
        computed.append(run.run_id)
        return execution_report(run)

    monkeypatch.setattr("stratus.sim.execution_report", counting)
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="later", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    report = lambda: ask_feature(context, FeatureKey.EXECUTION_REPORT, subject="later")
    assert report() == (400, {"error": "run later has not finished"})
    assert computed == ["later"] and "report" not in vars(simulation.result)
    computed.clear()
    simulation.run_to_completion()
    answers = [report() for _ in range(2)]
    assert computed == ["later"]
    final = json.loads(json.dumps(execution_report(simulation.run).to_record()))
    assert [(status, body["payload"]) for status, body in answers] == [(200, final)] * 2


def test_a_failure_read_before_its_diagnosis_lands_answers_404(monkeypatch):
    """A failed task's trace record lands before its diagnosis, so a live
    reader in between gets past the record check and finds no diagnosis."""
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="oom", submission_ms=0)
    simulation.inject(FaultInjection(InjectionKind.TASK_OOM, TASK))
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    between = []

    def diagnose_after_a_read(record, *args):
        between.append((
            record.task_id in simulation.result.trace_by_id,
            ask_feature(context, FeatureKey.FAULT_DIAGNOSIS, subject=record.task_id),
        ))
        return diagnose(record, *args)

    monkeypatch.setattr("stratus.sim.diagnose", diagnose_after_a_read)
    simulation.run_to_completion()
    assert between == [(True, (404, {"error": f"no diagnosis yet for {TASK!r}"}))]
    assert payload_of(context, FeatureKey.FAULT_DIAGNOSIS)["verdict"] == "out_of_memory"


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
        if len(simulation.result.event_records) % 16 == 0:
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


def status_fields(payload: dict) -> tuple:
    return payload["state"], payload["finished"], payload["total"], payload["failures"]


@pytest.mark.parametrize("seed", range(3))
def test_live_workflow_status_answers_are_progress_records_that_never_go_back(seed):
    """More readers than cores, switching threads often, ask while the
    engine is between an instance's state change and its event.  Each
    answer is still a state the run's progress stream holds (or the
    initial one), and no reader's answers go back."""
    flaky = TaskDefinition("f", True, make_request(), "flaky")
    spec = WorkflowSpec(workflow_id="race", tasks=(flaky,), edges=())
    machines = [make_machine(f"m{i}", cpus=64, mem=256 * GiB) for i in range(8)]
    simulation = Simulation(spec, machines, 10**15, 1000, seed, run_id="race", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    request = target("/v1/workflow/workflow_status", as_layer="workflow", subject="race")
    answers = [[] for _ in range(4)]

    def read(into):
        while not simulation.result.ended:
            status, body = ask(context, request)
            assert status == 200
            into.append(status_fields(body["payload"]))

    engine = threading.Thread(target=simulation.run_to_completion, daemon=True)
    readers = [threading.Thread(target=read, args=(a,), daemon=True) for a in answers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        engine.start()
        for reader in readers:
            reader.start()
        engine.join(timeout=60)
        for reader in readers:
            reader.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not engine.is_alive()
    assert not any(reader.is_alive() for reader in readers)
    held = {("running", 0, 1000, 0)} | {
        (r.state.value, r.finished, r.total, r.failures)
        for r in simulation.result.progress_records
    }
    assert [answer for read_ in answers for answer in read_ if answer not in held] == []
    for read_ in answers:
        ended = [finished + failures for _, finished, _, failures in read_]
        assert ended == sorted(ended)


# m1 is killed while the four t0 instances run on it, which poisons t1
MACHINE_KILL = (
    WorkflowSpec(
        workflow_id="pw",
        tasks=(
            TaskDefinition("t0", True, make_request(), "default"),
            TaskDefinition("t1", False, make_request(), "quick"),
        ),
        edges=(("t0", "t1"),),
    ),
    [make_machine("m1", cpus=4), make_machine("m2", cpus=4)],
    4,
    7,
    TopologyMode.WORKFLOW_AWARE,
    [FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m1", at_ms=1000)],
)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases(), st.lists(st.floats(0, 1), min_size=1, max_size=3))
@example(MACHINE_KILL, [0.0, 0.5, 1.0])
def test_a_paused_engine_is_answered_from_the_events_before_its_pause(case, fractions):
    """The engine thread is held inside the append of its n-th event, at a
    few drawn n.  Each workflow_status answer then reads the first n
    events: the last progress record among them, or the initial record
    before there is one."""
    count = len(drawn_simulation(case, "counted", True).result.event_records)
    pauses = {max(1, round(f * count)): (threading.Event(), threading.Event()) for f in fractions}
    simulation = drawn_simulation(case, "paused", False)
    context = ServiceContext(case[4])
    context.attach_live(simulation)
    events = simulation.result.event_records

    def hold(event):
        if len(events) in pauses:
            reached, released = pauses[len(events)]
            reached.set()
            released.wait(timeout=10)

    def run():
        try:
            simulation.run_to_completion()
        except NonQuiescentError:
            pass

    simulation.event_listeners.append(hold)
    engine = threading.Thread(target=run, daemon=True)
    engine.start()
    try:
        for n in sorted(pauses):
            reached, released = pauses[n]
            assert reached.wait(timeout=10)
            records = replay_progress(events[:n])
            initial = WorkflowStatusReport(RunState.RUNNING, 0, len(simulation.run.instances), 0)
            expected = service._status_payload(records[-1] if records else initial)
            status, body = ask_feature(context, FeatureKey.WORKFLOW_STATUS, subject="paused")
            assert (status, body.get("payload")) == (200, expected), body
            released.set()
    finally:
        for _, released in pauses.values():
            released.set()
        engine.join(timeout=10)
    assert not engine.is_alive()


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


def test_a_run_attached_mid_run_streams_from_its_first_event():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="mid", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    handle = serve(context)
    readers = []

    def attach_at_event_10(event):
        if len(simulation.result.event_records) == 10:
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
        assert received == expected_stream(simulation.result)
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
        assert received == expected_stream(simulation.result)
        assert received[-1]["state"] == "succeeded"
    finally:
        handle.close()


def test_live_run_registers_the_result_the_engine_returns():
    # the fault scenario's failures poison every instance downstream of them
    scenario = load_scenario(fixture_path("faults.scenario"))
    simulation = scenario_simulation(scenario, run_id="live-faults", submission_ms=0)
    context = ServiceContext(scenario.topology)
    context.attach_live(simulation)
    result = simulation.run_to_completion()
    assert context.result("live-faults") is result
    poisoned = {i.task_id for i in result.run.instances if i.state is TaskState.PENDING}
    assert poisoned
    assert context.result("live-faults").never_eligible == poisoned


def wait_until(done, seconds=5.0) -> bool:
    deadline = time.monotonic() + seconds
    while not done():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_closing_the_service_ends_its_waiting_live_streams():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    # never started, so its stream waits for a first event that never comes
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="idle", submission_ms=0)
    context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
    context.attach_live(simulation)
    before = set(threading.enumerate())
    handle = serve(context)
    response = requests.get(
        f"{handle.url}/v1/workflow/live_progress",
        params={"as_layer": "workflow", "subject": "idle"},
        stream=True,
        timeout=5,
    )
    assert response.status_code == 200
    handle.close()
    # a stream still waiting would fail this read with a timeout
    assert response.raw.read() == b""
    assert wait_until(lambda: not set(threading.enumerate()) - before)


def test_a_closed_service_frees_its_context_without_a_collection():
    collecting = gc.isenabled()
    gc.disable()
    try:
        context, _ = make_context(TopologyMode.WORKFLOW_AWARE)
        handle = serve(context)
        # a client whose socket closes now, not when a collection frees it
        client = http.client.HTTPConnection(*handle.address, timeout=10)
        client.request("GET", f"/v1/workflow/status?as_layer=workflow&subject={RUN_ID}")
        response = client.getresponse()
        assert response.status == 200 and json.loads(response.read())["subject"] == RUN_ID
        client.close()
        alive = weakref.ref(context)
        handle.close()
        del context, handle
        # the connection's handler thread ends once it reads the client's close
        assert wait_until(lambda: alive() is None)
    finally:
        if collecting:
            gc.enable()


def test_closing_the_service_ends_its_idle_keep_alive_connections():
    collecting = gc.isenabled()
    gc.disable()
    try:
        before = set(threading.enumerate())
        context, _ = make_context(TopologyMode.WORKFLOW_AWARE)
        handle = serve(context)
        path = f"/v1/workflow/status?as_layer=workflow&subject={RUN_ID}"
        # a client that keeps its connection open across the close
        client = http.client.HTTPConnection(*handle.address, timeout=5)
        client.request("GET", path)
        response = client.getresponse()
        assert response.status == 200 and json.loads(response.read())["subject"] == RUN_ID
        alive = weakref.ref(context)
        handle.close()
        del context, handle
        # the connection's handler thread reads EOF and ends, freeing the context
        assert wait_until(lambda: not set(threading.enumerate()) - before)
        assert wait_until(lambda: alive() is None)
        try:
            client.request("GET", path)
            status = client.getresponse().status
        except (http.client.HTTPException, OSError):
            status = None
        client.close()
        assert status != 200
    finally:
        if collecting:
            gc.enable()


def resetting_client(address) -> http.client.HTTPConnection:
    """A connected client whose close resets the connection (TCP RST)
    instead of ending it."""
    client = http.client.HTTPConnection(*address, timeout=5)
    client.connect()
    client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    return client


def test_a_client_that_resets_ends_only_its_own_connection(aware, monkeypatch):
    """A client that resets its connection while its response is written,
    or while the connection idles between requests, ends that connection
    and nothing is reported; any other error in a handler still reaches
    socketserver's report, which prints it."""
    context, _ = aware
    reported = []
    monkeypatch.setattr(
        socketserver.BaseServer, "handle_error",
        lambda server, request, address: reported.append(sys.exc_info()[0]),
    )
    answering, was_reset = threading.Event(), threading.Event()

    def authorize_after_the_reset(*args):
        # the first request is answered only once its client has reset
        if not answering.is_set():
            answering.set()
            assert was_reset.wait(5)
        return authorize(*args)

    monkeypatch.setattr(service, "authorize", authorize_after_the_reset)
    handle = serve(context)
    before = set(threading.enumerate())
    handled = lambda: wait_until(lambda: not set(threading.enumerate()) - before)
    path = f"/v1/workflow/status?as_layer=workflow&subject={RUN_ID}"
    try:
        client = resetting_client(handle.address)
        client.request("GET", path)
        assert answering.wait(5)
        client.close()
        was_reset.set()
        assert handled()
        client = resetting_client(handle.address)
        client.request("GET", path)
        assert client.getresponse().read()
        client.close()  # while the handler waits for the next request
        assert handled() and reported == []

        monkeypatch.setattr(service, "authorize", lambda *args: 1 / 0)
        client = http.client.HTTPConnection(*handle.address, timeout=5)
        with pytest.raises(http.client.RemoteDisconnected):
            client.request("GET", path)
            client.getresponse()
        client.close()
        assert handled() and reported == [ZeroDivisionError]
    finally:
        handle.close()


def test_every_request_reaches_the_benchmark_patch_points(aware, monkeypatch):
    """The benchmark's tracer wraps these names in stratus.service, so each
    request, answered in-process or over HTTP, looks them up when it runs:
    the access check for every request, the payload builder for an allowed
    feature, and the progress replay for a live stream."""
    context, _ = aware
    calls = []

    def recording(name, original):
        def record(*args):
            calls.append(name)
            return original(*args)
        return record

    for name in ("authorize", "_build_payload", "replay_progress"):
        monkeypatch.setattr(service, name, recording(name, getattr(service, name)))
    requested = [
        feature_target(FeatureKey.TASK_STATUS),
        feature_target(FeatureKey.WORKFLOW_STATUS, LayerId.TASK),
        target("/v1/workflow/live_progress", as_layer="workflow", subject=RUN_ID),
    ]

    def in_process(request_target):
        status, _, body = context.answer(request_target)
        list(body)  # reading a stream to its end replays its run
        return status

    handle = serve(context)
    over_http = lambda t: requests.get(handle.url + t, timeout=10).status_code
    try:
        for status_of in (in_process, over_http):
            calls.clear()
            assert [status_of(t) for t in requested] == [200, 403, 200]
            assert Counter(calls) == {"authorize": 3, "_build_payload": 1, "replay_progress": 1}
    finally:
        handle.close()


# --- context bookkeeping ---


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


@pytest.mark.parametrize("topology", list(TopologyMode))
def test_a_service_registers_only_runs_of_its_own_topology(topology):
    """The access matrix decides under the context's topology, so a run
    coupled the other way is refused, ended or live, and changes nothing."""
    other = next(t for t in TopologyMode if t is not topology)
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    context = ServiceContext(topology)
    context.add_result(completed_result(topology))
    registered = dict(context.results)
    refusal = f"^run 'x' is {other.wire_name}; this service serves {topology.wire_name} runs$"
    ended = run_simulation(spec, machines, fs_total, 4, 42, other, run_id="x", submission_ms=0)
    with pytest.raises(ServiceError, match=refusal):
        context.add_result(ended)
    live = Simulation(spec, machines, fs_total, 4, 42, other, run_id="x", submission_ms=0)
    with pytest.raises(ServiceError, match=refusal):
        context.attach_live(live)
    assert live.event_listeners == [] and live.abort_listeners == []
    assert context.results == registered


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


def test_the_handler_only_moves_bytes():
    """``ServiceContext.answer`` computes every response, so the HTTP
    handler names nothing of routing, access or payloads."""
    tree = ast.parse(inspect.getsource(service._Handler))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    request_logic = {
        "authorize", "_build_payload", "_HTTPError",
        "FeatureKey", "LayerId", "parse_qs", "urlparse",
    }
    assert named & request_logic == set()


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


# --- every answer against the reference answer ---


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

EXTENSION, = ORACLE_EXTENSIONS
EXTENSION_MATRIX = parse_matrix_overrides(
    f"extension {EXTENSION}: {', '.join(l.wire_name for l in oracle_permitted(EXTENSION))}\n"
)
# window bounds and names the wire grammar refuses or reads
ODD_BOUNDS = ("1_0", "١", " 5", "5 ", "0x10", "1e3", "-5", "+007", "")
LEVEL_NAMES = ("Debug", "info", "WARNING", " Error ", "Loud", "ınfo", "")
LAYER_NAMES = (*(layer.wire_name for layer in ALL_LAYERS), "TASK", " machine ", "taſk", "chef", "")
BAD_PATHS = (
    "", "/", "/v2/task/task_status", "/v1/task", "/v1/task/task_status/extra", "/v1/TASK/task_id",
    "/v1/basement/task_status", "/v1/taſk/task_status", "/v1/task/no_such_feature",
    "/v1/resource_manager/status", "/v1/task/live_progress", "v1/task/task_status",
    "http:/v1/task/task_status",
)
PREFIXES = ("/v1/", "/v1/", "/v1/", "//v1//", "http://127.0.0.1:8321/v1/")
# each case asks each of these once, then a few again
ODD_REQUESTS = [
    "alias", "bad path", "any feature", "extension", "live", "history", "shared task", "used",
    "available",
]


class ServiceCase(NamedTuple):
    """A service's topology, its runs in registration order as (run id,
    engine case, started), its store's runs as (index into runs, submission
    ms) or None for no store, and the request targets."""

    topology: TopologyMode
    runs: list
    stored: list | None
    targets: list[str]


@st.composite
def service_cases(draw):
    """1-3 engine cases of one topology, each run to its end or never
    started, with every feature asked as every layer under a drawn subject,
    window and level, then aliases, bad paths, lookalike names, the
    extension, live streams of ended runs, history and sample windows."""
    topology = draw(st.sampled_from(TopologyMode))
    # three runs in four are run, so most newest runs have samples and records
    started = st.integers(0, 3).map(lambda n: n < 3)
    drawn = draw(st.lists(st.tuples(engine_cases(), started), min_size=1, max_size=3))
    runs = draw(st.permutations([
        (f"r{n}", (*case[:4], topology, case[5]), run) for n, (case, run) in enumerate(drawn)
    ]))
    ended = [run_id for run_id, _, run in runs if run]
    stored = None
    if ended and draw(st.integers(0, 3)) > 0:
        entries = st.tuples(st.integers(0, len(runs) - 1), st.integers(0, 2))
        stored = [(n, ms) for n, ms in draw(st.lists(entries, max_size=4)) if runs[n][2]]
    kinds = {
        LayerId.WORKFLOW: [run_id for run_id, _, _ in runs] + ["ghost"],
        LayerId.MACHINE: sorted({m.machine_id for _, case, _ in runs for m in case[1]}) + ["m9"],
        LayerId.TASK: sorted({
            i.task_id for _, (spec, _, inputs, *_), _ in runs
            for i in expand_instances(spec, inputs)
        }) + ["pw/t0/99", "pw/ghost/0"],
        FeatureKey.PREVIOUS_EXECUTIONS: ["pw", "wf1"],
    }
    every = kinds[LayerId.RESOURCE_MANAGER] = sorted({s for pool in kinds.values() for s in pool})

    def subject(pool):
        # mostly an id of the feature's kind, then any id, a missing or an empty one
        choice = draw(st.integers(0, 9))
        if choice < 8:
            return draw(st.sampled_from(pool if choice < 6 else every))
        return None if choice == 8 else ""

    def tick():
        # a sample time of a run's first seconds, or one next to it
        return draw(st.integers(-1, 10)) * SAMPLE_CADENCE_MS + draw(st.sampled_from((0, 0, -1, 1)))

    def maybe(value, one_in):
        return value() if draw(st.integers(1, one_in)) == 1 else None

    def window():
        odd_bound = lambda: draw(st.sampled_from(ODD_BOUNDS))
        bound = lambda: str(tick()) if draw(st.integers(0, 4)) else odd_bound()
        level = lambda: draw(st.sampled_from(LEVEL_NAMES))
        return {"from": maybe(bound, 3), "to": maybe(bound, 3), "min_level": maybe(level, 4)}

    def layer_path():
        return f"/v1/{draw(st.sampled_from(ALL_LAYERS)).wire_name}/"

    targets = []
    for feature in ALL_FEATURES:
        pool = kinds.get(feature, kinds[feature.owning_layer])
        path = f"{feature.owning_layer.wire_name}/{feature.value}"
        for layer in ALL_LAYERS:
            params = {"as_layer": layer.wire_name, "subject": subject(pool), **window()}
            targets.append(target(draw(st.sampled_from(PREFIXES)) + path, **params))
    for odd in ODD_REQUESTS + draw(st.lists(st.sampled_from(ODD_REQUESTS), max_size=6)):
        params = {"as_layer": draw(st.sampled_from(LAYER_NAMES)), "subject": subject(every)}
        if odd == "alias":
            path = layer_path() + "status"
        elif odd == "bad path":
            path = draw(st.sampled_from(BAD_PATHS))
        elif odd == "any feature":
            path = layer_path() + draw(st.sampled_from(ALL_FEATURES)).value
            params |= window()
        elif odd == "extension":
            path = layer_path() + EXTENSION
        elif odd == "live":
            # a stream of a run that never started would wait for its first event
            path = "/v1/workflow/live_progress"
            params["as_layer"] = draw(st.sampled_from(("workflow", *LAYER_NAMES)))
            params["subject"] = draw(st.sampled_from(ended * 2 + ["ghost", None, ""]))
        elif odd == "history":
            path = "/v1/workflow/previous_executions"
            params = {"as_layer": "workflow", "subject": subject(["pw"])}
        elif odd == "shared task":
            # every drawn run holds this id, so the newest of them answers
            path = f"/v1/task/{draw(st.sampled_from(features_owned_by(LayerId.TASK))).value}"
            params = {"as_layer": "task", "subject": "pw/t0/0"}
        else:
            # the machine layer reads a sample window whose ends are in order
            path = f"/v1/machine/{odd}_resources"
            t_from, t_to = sorted((tick(), tick()))
            params = {"as_layer": "machine", "subject": subject(kinds[LayerId.MACHINE])}
            params |= {"from": str(t_from), "to": str(t_to)}
        targets.append(target(path, **params))
    return ServiceCase(topology, runs, stored, targets)


def golden_case(topology: TopologyMode, empty: bool) -> ServiceCase:
    """``tests/test_golden_service.py``'s requests: of the fault scenario,
    stored once, or of a context with no run and no store."""
    if empty:
        return ServiceCase(topology, [], None, [
            target(p, **q) for p, q in golden.empty_context_requests()
        ])
    case = scenario_case("faults.scenario", topology)
    plan = [r for f in ALL_FEATURES for r in golden.feature_requests(f)] + golden.extra_requests()
    return ServiceCase(
        topology, [(golden.RUN_ID, case, True)], [(0, 0)], [target(p, **q) for p, q in plan]
    )


@contextmanager
def serving(case: ServiceCase):
    """The case's registered results, its store, and a function giving the
    status and body of the service's answer to a target."""
    simulations = [drawn_simulation(c, run_id, run) for run_id, c, run in case.runs]
    with tempfile.TemporaryDirectory() as directory:
        store = None if case.stored is None else RunStore(Path(directory) / "runs.jsonl")
        for n, submission_ms in case.stored or ():
            store.append(dataclasses.replace(simulations[n].run, submission_ms=submission_ms))
        context = ServiceContext(case.topology, matrix=EXTENSION_MATRIX, store=store)
        for simulation in simulations:
            if simulation.result.ended:
                context.add_result(simulation.result)
            else:
                context.attach_live(simulation)

        def answer(request):
            status, _, body = context.answer(request)
            return status, body if isinstance(body, bytes) else b"".join(body)

        yield [s.result for s in simulations], store, answer


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(service_cases())
@example(golden_case(TopologyMode.WORKFLOW_AWARE, False))
@example(golden_case(TopologyMode.DISJOINT, False))
@example(golden_case(TopologyMode.WORKFLOW_AWARE, True))
@example(golden_case(TopologyMode.DISJOINT, True))
def test_every_answer_equals_the_reference_answer(case):
    """``ServiceContext.answer`` gives the reference answer byte for byte,
    status and body, for every drawn request of every drawn set of runs."""
    with serving(case) as (results, store, answer):
        for request in case.targets:
            expected = reference_answer(results, request, store, case.topology)
            assert answer(request) == expected, request


def _payloads(answers, feature):
    """The payloads of the case's 200 answers to ``feature``, with their queries."""
    return [
        (query, json.loads(body)["payload"])
        for name, query, status, body in answers if name == feature and status == 200
    ]


def _used_at(results, machine_id, t_ms):
    """The newest run's latest reading of the machine at or before ``t_ms``."""
    used = [
        s.used for s in machine_samples(results[-1].event_records)
        if s.machine_id == machine_id and s.t_ms <= t_ms
    ]
    return used[-1] if used else None


def _refused(answers, status, text):
    return any(s == status and text in body for _, _, s, body in answers)


# rule -> whether a drawn case's results and answers exercise it
_SERVICE_RULES = {
    "the window's closed end": lambda results, answers: any(
        p["samples"] and str(p["samples"][-1]["t_ms"]) == q.get("to")
        for q, p in _payloads(answers, "used_resources")
    ),
    "a reading at to, not at from": lambda results, answers: any(
        "from" in q and _used_at(results, q["subject"], int(q["from"]))
        != _used_at(results, q["subject"], int(q.get("to", 2**62)))
        for q, _ in _payloads(answers, "available_resources")
    ),
    "the newer of two holders": lambda results, answers: any(
        sum(q["subject"] in r.instances_by_id for r in results) > 1
        for q, _ in _payloads(answers, "task_id")
    ),
    "a history tie": lambda results, answers: any(
        len({e["submission_ms"] for e in p["executions"]}) < len(p["executions"])
        for _, p in _payloads(answers, "previous_executions")
    ),
    "the disjoint rule": lambda results, answers: _refused(answers, 403, b"is workflow-owned"),
    "an unknown traced task": lambda results, answers: any(
        name == "task_duration" and s == 404 and b"unknown task" in body
        for name, _, s, body in answers
    ),
    "a task with no record": lambda results, answers: _refused(answers, 404, b"no trace record"),
    "a live stream": lambda results, answers: any(
        name == "live_progress" and s == 200 and body for name, _, s, body in answers
    ),
}


@pytest.mark.parametrize("rule", sorted(_SERVICE_RULES))
def test_service_cases_draw_requests_where_each_rule_fires(rule):
    """A rule the drawn cases never exercise is one the reference comparison
    cannot check: each one fires within the first 100 draws."""

    def fires(case):
        with serving(case) as (results, _, answer):
            answers = [
                (path.rpartition("/")[2], {k: v[-1] for k, v in parse_qs(q).items()}, *answer(t))
                for t in case.targets for path, _, q in [t.partition("?")]
            ]
            return _SERVICE_RULES[rule](results, answers)

    find(service_cases(), fires, settings=settings(
        max_examples=100, derandomize=True, database=None, phases=[Phase.generate],
        deadline=None, suppress_health_check=list(HealthCheck),
    ))


def test_the_reference_answer_takes_no_service_code():
    """The reference answer restates the service's rules, so it reads none
    of the code that decides access, progress, reports or ratios."""
    imported = imports_of(oracles.__file__)
    assert "stratus.service" not in imported and "stratus" not in imported
    for module, names in {
        "stratus.blueprint": {"authorize", "access_allowed"},
        "stratus.sim": {"ProgressFold", "replay_progress"},
        "stratus.workflow": {"workflow_status", "execution_report", "makespan_ms"},
        "stratus.taskmon": {"consumed_vs_requested", "success_diagnosis"},
    }.items():
        assert not imported.get(module, set()) & names, module
