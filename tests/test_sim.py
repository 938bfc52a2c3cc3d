"""Simulation engine tests: byte-level determinism, metric synthesis bounds,
the engine against the plain reference run of ``oracles.reference_run``,
fault injection, stuck-run detection, and scenario files."""

import dataclasses
import gc
import hashlib
import itertools
import random
import tempfile
import threading
from collections import Counter
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, Phase, example, find, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    GiB,
    dag_specs,
    engine_cases,
    imports_of,
    make_machine,
    make_request,
    run_simulation,
    scenario_case,
)
from oracles import (
    Draws,
    assert_equals_reference,
    event_line,
    instance_stream,
    machine_samples,
    reference_run,
    reference_scaled_record,
    reference_synthesize_metrics,
    stream_seed,
)
from stratus.blueprint import TopologyMode
from stratus.fixtures import fixture_text
from stratus.machine import (
    MachineRegistry,
    MachineStatus,
    UnknownMachineError,
    parse_cluster,
)
from stratus.resman import ResourceManager
from stratus.sim import (
    BUILTIN_MODELS,
    EXIT_MACHINE_KILL,
    EXIT_OOM,
    EXIT_TASK_ERROR,
    EXIT_TIMEOUT,
    EventLogSyntaxError,
    EventRecord,
    FaultInjection,
    InjectionInPastError,
    InjectionKind,
    MetricPlan,
    NonQuiescentError,
    ProgressFold,
    ScenarioSyntaxError,
    Simulation,
    SimulationError,
    TaskModel,
    _Execution,
    _Row,
    _scaled_record,
    _stream_seed,
    parse_event_log,
    parse_scenario,
    scenario_simulation,
)
from stratus.store import RunEntry, RunStore, _summarize
from stratus.taskmon import (
    LogEntry,
    LogLevel,
    Verdict,
    parse_trace,
)
from stratus.workflow import (
    RunState,
    TaskDefinition,
    TaskInstance,
    TaskState,
    UnknownTaskError,
    WorkflowError,
    WorkflowSpec,
    WorkflowSyntaxError,
    parse_workflow,
    workflow_status,
)


def fig1_setup():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    return spec, machines, fs_total


def run_fig1(seed=42, input_count=4, topology=TopologyMode.WORKFLOW_AWARE, **kwargs):
    spec, machines, fs_total = fig1_setup()
    return run_simulation(
        spec, machines, fs_total, input_count, seed, topology,
        **{"run_id": "r-test", "submission_ms": 0, **kwargs},
    )


# --- metric synthesis ---


# (seed, task id, the stream's first draw): a stream changes with the seed
# and with the task id, and is the same whenever both are
@pytest.mark.parametrize("seed, task_id, first", [
    (42, "wf1/I/0", 0.035191187651094746),
    (7, "w/a/0", 0.9232785006298699),
    (7, "w/b/0", 0.08308655227643713),
    (8, "w/a/0", 0.4544634460432574),
])
def test_instance_stream_matches_hash_derivation(seed, task_id, first):
    digest = hashlib.sha256(f"{seed}:{task_id}".encode()).digest()
    assert random.Random(int.from_bytes(digest[:8], "big")).random() == first
    assert instance_stream(seed, task_id).random() == first


# (model, the footprint of a 1 GiB request): over 1000 streams each model's
# draws are a pure function of the stream, its runtime stays within its
# jitter band and at least 1 ms, and its page-cache reads split all its io
# pages, at least half of them hits
@pytest.mark.parametrize("model_key, rss_bytes", [
    ("cpu_heavy", 644245094),
    ("default", GiB // 2),
    ("flaky", GiB // 2),
    ("io_heavy", 429496729),
    ("quick", 322122547),
])
def test_a_models_draws_stay_within_its_bands(model_key, rss_bytes):
    model = BUILTIN_MODELS[model_key]
    plan = MetricPlan(model, GiB)
    assert (plan.rss_bytes, plan.rchar_bytes) == (rss_bytes, model.io_read_bytes)
    jitter = model.runtime_jitter_pct / 100
    low = max(1, model.base_runtime_ms * (1 - jitter) - 0.5)
    high = model.base_runtime_ms * (1 + jitter) + 0.5
    total_pages = (model.io_read_bytes + model.io_write_bytes) // 4096
    for i in range(1000):
        task_id = f"w/{model_key}/{i}"
        drawn = Draws(*plan.draw(instance_stream(1234, task_id)))
        assert MetricPlan(model, GiB).draw(instance_stream(1234, task_id)) == drawn
        assert low <= drawn.runtime_ms <= high
        assert drawn.page_cache_hits + drawn.page_cache_misses == total_pages
        assert drawn.page_cache_hits >= total_pages // 2


_SHARED = attrgetter("cpu_pct", "rss_bytes", "rchar_bytes", "wchar_bytes")


_unit = st.floats(min_value=0, max_value=1, allow_nan=False)
# 2**53 is the last integer every smaller one of which survives a float
_io_bytes = st.one_of(
    st.just(0), st.integers(min_value=0, max_value=2**40), st.sampled_from([2**53, 2**53 + 1])
)


@st.composite
def task_models(draw):
    return TaskModel(
        model_key="m",
        base_runtime_ms=draw(st.integers(min_value=1, max_value=10**7)),
        runtime_jitter_pct=draw(
            st.one_of(st.sampled_from([0, 0.0, 100, 100.0, 15]),
                      st.floats(min_value=0, max_value=100, allow_nan=False))
        ),
        cpu_pct_mean=draw(st.integers(min_value=0, max_value=6400)),
        rss_fraction_of_request=draw(_unit),
        io_read_bytes=draw(_io_bytes),
        io_write_bytes=draw(_io_bytes),
        syscall_rate_per_s=draw(
            st.one_of(st.integers(min_value=0, max_value=10**5),
                      st.floats(min_value=0, max_value=1e5, allow_nan=False),
                      st.sampled_from([2**50, 2**53]))
        ),
        cpu_wait_fraction=draw(_unit),
        failure_probability=draw(_unit),
    )


@settings(max_examples=300, deadline=None)
@given(
    task_models(),
    st.integers(min_value=0, max_value=2**45),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=4),
)
def test_metric_plan_matches_the_reference_formula(model, memory, seed, task_ids):
    # one plan serves every instance of a definition, as in the engine
    plan = MetricPlan(model, memory)
    for task_id in task_ids:
        drawn, shared = reference_synthesize_metrics(model, memory, instance_stream(seed, task_id))
        assert plan.draw(instance_stream(seed, task_id)) == drawn
        assert _SHARED(plan) == shared


def test_metric_plan_covers_a_model_without_io():
    # no built-in model reaches this branch: read share 0.5, zero pages
    model = TaskModel("noio", 1000, 100, 50, 0.5, 0, 0, 1000.0, 0.1, 0.0)
    plan = MetricPlan(model, GiB)
    metrics = Draws(*plan.draw(instance_stream(3, "w/noio/0")))
    drawn, shared = reference_synthesize_metrics(model, GiB, instance_stream(3, "w/noio/0"))
    assert (metrics, _SHARED(plan)) == (drawn, shared)
    assert metrics.page_cache_hits == metrics.page_cache_misses == 0
    assert metrics.syscall_read_count == int(metrics.runtime_ms * 0.5)


def running_execution(
    task_id, model, memory, submit_ms, start_ms, drawn, exit_code, rss_bytes=None
):
    """The engine's book-keeping for instance ``task_id`` (workflow/name/index)
    of a definition of ``model`` and ``memory`` bytes, started on m1 with
    the ``drawn`` values of ``MetricPlan.draw``, with the plan's footprint
    unless ``rss_bytes`` is given."""
    name = task_id.split("/")[1]
    instance = TaskInstance(task_id, name, TaskState.RUNNING, "m1", submit_ms, start_ms)
    definition = TaskDefinition(name, False, make_request(mem=memory), model.model_key)
    plan = MetricPlan(model, memory)
    row = _Row(definition, plan, [instance], 0, 1)
    footprint = plan.rss_bytes if rss_bytes is None else rss_bytes
    # the failure draw, last, is spent when an instance starts
    return _Execution(instance, row, exit_code, footprint, *drawn[:6])


@st.composite
def finished_executions(draw):
    """(execution, drawn, end_ms, exit_code) of one instance that ran its
    full runtime, failed at it, was OOM-killed, timed out or lost its
    machine, as the engine finishes each, and the values it drew."""
    model = draw(task_models())
    memory = draw(st.integers(min_value=1, max_value=2**45))
    drawn = Draws(*MetricPlan(model, memory).draw(instance_stream(draw(st.integers()), "w/a/0")))
    runtime = drawn.runtime_ms
    start = draw(st.integers(min_value=0, max_value=10**9))
    ending = draw(st.sampled_from(["succeeded", "failed", "oom", "timeout", "machine_kill"]))
    duration, exit_code, rss_bytes = runtime, 0, None
    if ending == "failed":
        exit_code = EXIT_TASK_ERROR
    elif ending == "oom":
        rss_bytes, exit_code = memory + max(1, memory // 4), EXIT_OOM
    elif ending == "timeout" and runtime > 1:
        duration, exit_code = draw(st.integers(1, runtime - 1)), EXIT_TIMEOUT
    elif ending == "machine_kill":
        duration, exit_code = draw(st.integers(0, runtime)), EXIT_MACHINE_KILL
    submit = draw(st.integers(0, start))
    execution = running_execution(
        "w/a/0", model, memory, submit, start, drawn, exit_code, rss_bytes
    )
    return execution, drawn, start + duration, exit_code


@settings(max_examples=500, deadline=None)
@given(finished_executions())
def test_trace_records_match_the_scaled_formula(case):
    execution, drawn, end_ms, exit_code = case
    status = "succeeded" if exit_code == 0 else "failed"
    record = _scaled_record(execution, end_ms, status, exit_code)
    assert record == reference_scaled_record(
        execution.instance, drawn, _SHARED(execution.row.plan), execution.rss_bytes, end_ms,
        status, exit_code,
    )


@pytest.mark.parametrize("io_bytes", [2**53, 2**53 + 1])
def test_a_full_run_keeps_its_drawn_counters(io_bytes):
    # 2**53 + 1 is the first integer a float cannot hold: int(x * 1.0) would
    # round it to 2**53
    model = TaskModel("big", 1000, 0, 100, 0.5, io_bytes, 0, 0.0, 0.0, 0.0)
    drawn = MetricPlan(model, GiB).draw(instance_stream(1, "w/big/0"))
    execution = running_execution("w/big/0", model, GiB, 0, 0, drawn, 0)
    record = _scaled_record(execution, 1000, "succeeded", 0)
    assert record.rchar_bytes == io_bytes
    # one cut short to half its runtime scales it by 0.5
    cut = _scaled_record(execution, 500, "failed", EXIT_MACHINE_KILL)
    assert cut.rchar_bytes == int(io_bytes * 0.5)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**70), 2**70), st.lists(st.text(max_size=16), max_size=4))
def test_the_per_run_seed_prefix_gives_each_stream_seed(seed, task_ids):
    for task_id in task_ids:
        assert _stream_seed(seed, task_id) == stream_seed(seed, task_id)


def test_model_validation():
    with pytest.raises(SimulationError):
        TaskModel("bad", 0, 10, 90, 0.5, 1, 1, 1.0, 0.05, 0.0)
    with pytest.raises(SimulationError):
        TaskModel("bad", 100, 150, 90, 0.5, 1, 1, 1.0, 0.05, 0.0)
    with pytest.raises(SimulationError):
        TaskModel("bad", 100, 10, 90, 1.5, 1, 1, 1.0, 0.05, 0.0)


def test_unknown_model_rejected_at_construction():
    spec = WorkflowSpec(
        workflow_id="w",
        tasks=(TaskDefinition("a", False, make_request(), "no_such_model"),),
        edges=(),
    )
    with pytest.raises(SimulationError):
        Simulation(spec, [make_machine("m1")], GiB, 1, 0)


# --- determinism ---


# (what the second fig1 run changes, whether its submission line, the rest
# of its event log with its samples, and its trace equal the first run's,
# and the workflows its resource manager reports)
@pytest.mark.parametrize("change, same, workflows", [
    pytest.param({}, (True, True, True), [("r-test", "wf1", "succeeded")], id="same inputs"),
    pytest.param({"seed": 43}, (True, False, False), [("r-test", "wf1", "succeeded")], id="seed"),
    pytest.param({"run_id": "beta", "submission_ms": 999}, (True, True, True),
                 [("beta", "wf1", "succeeded")], id="run id and submission time"),
    pytest.param({"topology": TopologyMode.DISJOINT}, (False, True, True), [], id="topology"),
])
def test_artifacts_change_only_with_what_shapes_them(change, same, workflows):
    first, second = run_fig1(), run_fig1(**change)
    head, *rest = first.event_log_text().splitlines()
    second_head, *second_rest = second.event_log_text().splitlines()
    assert (head == second_head, rest == second_rest, first.trace_text() == second.trace_text()) == same
    samples = [machine_samples(r.event_records) for r in (first, second)]
    assert (samples[0] == samples[1]) == same[1]
    topology = change.get("topology", TopologyMode.WORKFLOW_AWARE)
    assert f" topology={topology.wire_name} " in second_head
    assert second.resource_manager.running_workflows() == workflows


@pytest.mark.parametrize("machine_id", ["a b", "m-1.x", "\u00fc"])
def test_event_log_round_trips_any_accepted_machine_id(machine_id):
    spec, _, fs_total = fig1_setup()
    result = run_simulation(spec, [make_machine(machine_id)], fs_total, 2, 42)
    assert f"\tmachine={machine_id}\n" in result.event_log_text()
    assert parse_event_log(result.event_log_text()) == result.event_records


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("x\ta\tb\tc\n", 1, "event log line 1: time is not an integer: 'x'"),
        ("0\ta\tb\tc\n\n0\ta\tb\n", 3, "event log line 3: expected 4 fields"),
        ("0\ta\tb\tc\td\n", 1, "event log line 1: expected 4 fields"),
    ],
)
def test_event_log_errors_carry_the_line(text, line, message):
    with pytest.raises(EventLogSyntaxError) as err:
        parse_event_log(text)
    assert err.value.line == line
    assert str(err.value) == message


# --- live reads ---


def test_a_live_log_read_is_whole_when_the_task_ends_between_its_reads():
    # a success, whose diagnosis is derived from its record, and a failure,
    # whose diagnosis is stored after its record
    oom = FaultInjection(InjectionKind.TASK_OOM, "wf1/II/1")
    for injections, task_id in (([], "wf1/I/0"), ([oom], "wf1/II/1")):
        result = run_fig1(injections=injections)
        finished = result.application_logs(task_id)
        diagnosis = result.diagnosis(task_id)
        assert len(finished) == 2
        record = result.trace_by_id[task_id]
        stored = result.diagnoses.get(task_id)
        assert (stored is None) == (record.status == "succeeded")

        class EndsOnRead(dict):
            """The engine finishes the task while the record is being read:
            the record lands, then a failure's diagnosis."""

            def get(self, key, default=None):
                found = super().get(key, default)
                self[key] = record
                if stored is not None:
                    result.diagnoses[key] = stored
                return found

        def racing():
            """The run as it stood just before the task ended."""
            result.trace_by_id.pop(task_id, None)
            result.diagnoses.pop(task_id, None)
            return dataclasses.replace(result, trace_by_id=EndsOnRead(result.trace_by_id))

        live = racing()
        assert live.application_logs(task_id) == finished[:1]
        assert live.application_logs(task_id) == finished
        live = racing()
        assert live.diagnosis(task_id) is None
        assert live.diagnosis(task_id) == diagnosis
        if stored is not None:
            # between a failure's record and its diagnosis
            result.trace_by_id[task_id] = record
            del result.diagnoses[task_id]
            assert result.diagnosis(task_id) is None
            assert result.application_logs(task_id) == finished[:1]


# --- fault injection ---


def test_injection_validation():
    spec, machines, fs_total = fig1_setup()
    simulation = Simulation(spec, machines, fs_total, 4, 42)
    # an unknown target raises its own layer's error, as the service's 404 does
    with pytest.raises(UnknownTaskError, match=r"^unknown task: 'wf1/II/99'$"):
        simulation.inject(FaultInjection(InjectionKind.TASK_OOM, "wf1/II/99"))
    with pytest.raises(UnknownMachineError, match=r"^unknown machine: 'm99'$"):
        simulation.inject(FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m99"))
    simulation.run_to_completion()
    with pytest.raises(InjectionInPastError):
        simulation.inject(FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m2", at_ms=5))
    with pytest.raises(SimulationError):
        simulation.run_to_completion()


def test_a_fault_is_refused_once_the_run_has_ended():
    spec, machines, fs_total = fig1_setup()
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="r", submission_ms=0)
    refused = []

    def inject_at_the_end(event):
        if event.kind == "run_completed":
            machine_fault = FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m1", event.t_ms + 1)
            with pytest.raises(SimulationError, match="has ended"):
                simulation.inject(machine_fault)
            refused.append(event.t_ms)

    simulation.event_listeners.append(inject_at_the_end)
    result = simulation.run_to_completion()
    assert refused == [result.event_records[-1].t_ms]
    for injection in (
        FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m1", at_ms=18000),
        FaultInjection(InjectionKind.TASK_OOM, "wf1/VI/0", at_ms=18000),
    ):
        with pytest.raises(SimulationError, match="has ended"):
            simulation.inject(injection)
    assert simulation._events == [] and simulation._task_faults == {}
    assert simulation._pending_machine_events == 0
    assert not any(e.kind == "machine_status" for e in result.event_records)

    # a run that raised has ended too
    stuck = Simulation(
        parse_workflow(
            "workflow w\n"
            "task huge scatter=false cpus=64 mem=1073741824 disk=0 timeout=1000 model=quick\n"
        ),
        [make_machine("m1", cpus=8), make_machine("m2", cpus=8)], 1024**4, 1, 0,
    )
    with pytest.raises(NonQuiescentError):
        stuck.run_to_completion()
    with pytest.raises(SimulationError, match="has ended"):
        stuck.inject(FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m2", at_ms=1))


def test_a_task_fault_is_refused_once_its_target_started_or_was_poisoned():
    """A task fault fires when its target starts, so one armed on a target
    that started, finished or was poisoned could never fire."""
    spec, machines, fs_total = fig1_setup()
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="r", submission_ms=0)
    simulation.inject(FaultInjection(InjectionKind.TASK_NON_ZERO_EXIT, "wf1/II/3"))
    refused = []

    def refuse(event, target):
        fault = FaultInjection(InjectionKind.TASK_OOM, target, at_ms=event.t_ms + 1)
        with pytest.raises(SimulationError) as err:
            simulation.inject(fault)
        refused.append(str(err.value))

    def inject_late(event):
        if event.subject == "wf1/I/0" and event.kind in ("instance_started", "instance_succeeded"):
            refuse(event, "wf1/I/0")
        elif event.kind == "instance_failed":
            refuse(event, "wf1/II/3")
        elif event.kind == "instance_succeeded" and event.subject == "wf1/II/2":
            # the failure of wf1/II/3 has poisoned III and what follows it
            refuse(event, "wf1/III/0")

    simulation.event_listeners.append(inject_late)
    result = simulation.run_to_completion()
    assert [message.split(";")[0] for message in refused] == [
        "fault target 'wf1/I/0' is running",
        "fault target 'wf1/I/0' is succeeded",
        "fault target 'wf1/II/3' is failed",
        "fault target 'wf1/III/0' is poisoned",
    ]
    assert result.trace_by_id["wf1/I/0"].exit_code == 0
    assert list(simulation._task_faults) == ["wf1/II/3"]


def run_with_mid_run_injection(make_injection):
    """fig1 with one fault injected from an event listener once the clock
    has left 0; returns the result and the injection."""
    spec, machines, fs_total = fig1_setup()
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="r", submission_ms=0)
    injected = []

    def inject_once(event):
        if not injected and event.t_ms > 0:
            injected.append(make_injection(simulation, event.t_ms))
            simulation.inject(injected[0])

    simulation.event_listeners.append(inject_once)
    return simulation.run_to_completion(), injected[0]


def test_task_fault_injected_mid_run_fires_when_its_target_starts():
    def oom_for_a_pending_instance(simulation, now):
        assert simulation.run.instance("wf1/VI/0").state is TaskState.PENDING
        return FaultInjection(InjectionKind.TASK_OOM, "wf1/VI/0", at_ms=now + 1)

    result, _ = run_with_mid_run_injection(oom_for_a_pending_instance)
    record = next(r for r in result.trace_records if r.task_id == "wf1/VI/0")
    assert record.exit_code == EXIT_OOM
    assert result.diagnoses["wf1/VI/0"].verdict is Verdict.OUT_OF_MEMORY
    assert result.run.final_state is RunState.FAILED


def test_machine_fault_injected_mid_run_fires_at_its_time():
    result, injection = run_with_mid_run_injection(
        lambda simulation, now: FaultInjection(
            InjectionKind.MACHINE_UNHEALTHY, "m1", at_ms=now + 500
        )
    )
    status_events = [e for e in result.event_records if e.kind == "machine_status"]
    assert [(e.t_ms, e.subject, e.detail) for e in status_events] == [
        (injection.at_ms, "m1", "status=unhealthy")
    ]
    killed = [r for r in result.trace_records if r.exit_code == EXIT_MACHINE_KILL]
    assert killed and all(r.end_ms == injection.at_ms for r in killed)
    for e in result.event_records:
        if e.kind == "instance_started" and e.detail == "machine=m1":
            assert e.t_ms < injection.at_ms


def test_a_live_run_refuses_a_fault_from_another_thread():
    """The engine takes no lock, so while a run is live only its own thread
    may inject: a helper thread's fault is refused and changes nothing.
    Before the run starts, any thread may arm one."""
    spec, machines, fs_total = fig1_setup()
    simulation = Simulation(spec, machines, fs_total, 4, 42, run_id="r", submission_ms=0)
    outcomes = []

    def inject_from_a_helper(fault):
        def helper():
            try:
                simulation.inject(fault)
            except SimulationError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append("armed")

        thread = threading.Thread(target=helper)
        thread.start()
        thread.join()

    inject_from_a_helper(FaultInjection(InjectionKind.TASK_NON_ZERO_EXIT, "wf1/II/3"))

    def inject_mid_run(event):
        if len(outcomes) == 1 and event.t_ms > 0:
            inject_from_a_helper(
                FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m1", at_ms=event.t_ms + 1)
            )

    simulation.event_listeners.append(inject_mid_run)
    result = simulation.run_to_completion()
    assert outcomes == ["armed", "run r is live on another thread; inject from that thread"]
    assert result.trace_by_id["wf1/II/3"].exit_code == EXIT_TASK_ERROR
    assert not any(e.kind == "machine_status" for e in result.event_records)
    assert simulation._pending_machine_events == 0


# --- garbage collector ---


def test_a_run_pauses_the_collector_and_restores_it():
    spec, machines, fs_total = fig1_setup()
    simulation = Simulation(spec, machines, fs_total, 2, 42, run_id="r", submission_ms=0)
    during = []
    simulation.event_listeners.append(lambda event: during.append(gc.isenabled()))
    assert gc.isenabled()
    simulation.run_to_completion()
    assert during and not any(during)
    assert gc.isenabled()


def test_a_run_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        run_fig1()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_an_aborted_run_restores_the_collector():
    spec = parse_workflow(
        "workflow w\n"
        "task huge scatter=false cpus=64 mem=1073741824 disk=0 timeout=1000 model=quick\n"
    )
    with pytest.raises(NonQuiescentError):
        run_simulation(spec, [make_machine("m1", cpus=8)], 1024**4, 1, 0, run_id="r", submission_ms=0)
    assert gc.isenabled()


# --- scenario files ---


def test_parse_bundled_scenarios():
    scenario = parse_scenario(fixture_text("fig1.scenario"), base_dir="/data")
    assert scenario.workflow_path.name == "fig1.wf"
    assert scenario.cluster_path.name == "two.cluster"
    assert str(scenario.workflow_path.parent) == "/data"
    assert (scenario.input_count, scenario.seed) == (4, 42)
    assert scenario.topology is TopologyMode.WORKFLOW_AWARE
    assert scenario.injections == ()

    faulty = parse_scenario(fixture_text("faults.scenario"), base_dir="/data")
    assert len(faulty.injections) == 3
    kinds = [i.kind for i in faulty.injections]
    assert kinds == [
        InjectionKind.TASK_OOM,
        InjectionKind.TASK_NON_ZERO_EXIT,
        InjectionKind.MACHINE_UNHEALTHY,
    ]
    assert faulty.injections[2] == FaultInjection(
        InjectionKind.MACHINE_UNHEALTHY, "m2", at_ms=6000
    )


def test_parse_scenario_error_cases():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario("workflow a.wf\nnope\n")
    assert err.value.line == 2
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("inject BadKind x at=0\n")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("inject TaskOOM x sometime\n")
    with pytest.raises(SimulationError):
        parse_scenario("cluster c.cluster\n")
    with pytest.raises(SimulationError):
        parse_scenario("workflow w.wf\n")


@pytest.mark.parametrize(
    "line",
    [
        "input_count abc",
        "input_count 0",
        "seed x",
        "topology sideways",
        "inject TaskOOM x",
        "inject TaskOOM x at=abc",
        "inject TaskOOM x at=-5",
        "inject TaskOOM x on_run=0",
        "inject TaskOOM x on_run=1",
    ],
)
def test_parse_scenario_bad_values_carry_the_line(line):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(f"workflow w.wf\ncluster c.cluster\n{line}\n")
    assert err.value.line == 3


def test_a_scenario_run_names_the_file_of_a_line_error(tmp_path):
    (tmp_path / "bad.wf").write_text("workflow w\nworkflow v\n")
    (tmp_path / "c.cluster").write_text(fixture_text("two.cluster"))
    scenario = parse_scenario("workflow bad.wf\ncluster c.cluster\n", base_dir=tmp_path)
    # a library caller keeps the format's error and its line
    with pytest.raises(WorkflowSyntaxError) as err:
        scenario_simulation(scenario, run_id="r").run_to_completion()
    assert err.value.line == 2
    expected = "line 2: 'workflow' repeated; first set on line 1"
    assert str(err.value) == f"{tmp_path / 'bad.wf'}: {expected}"


# --- construction ---


@settings(max_examples=200, deadline=None)
@given(dag_specs(), st.integers(min_value=1, max_value=12))
def test_instance_groups_are_the_runs_definition_runs(spec, input_count):
    simulation = Simulation(spec, [make_machine("m1")], 10**12, input_count, 1)
    simulation.run_to_completion()
    instances = simulation.run.instances
    expected = {
        name: list(group)
        for name, group in itertools.groupby(instances, key=attrgetter("definition"))
    }
    rows = simulation._rows
    assert list(rows) == list(expected) == spec.task_names()
    for position, (name, group) in enumerate(expected.items()):
        row = rows[name]
        assert (row.definition, row.position) == (spec.definition(name), position)
        model = BUILTIN_MODELS[row.definition.runtime_model]
        assert row.plan.failure_probability == model.failure_probability
        # the engine mutates the run's own instances through its rows
        assert list(map(id, row.instances)) == list(map(id, group))


# --- incremental scheduler state ---


def test_a_pass_drops_the_queue_segments_it_empties(monkeypatch):
    """Once a pass has assigned every queued task, the next pass finds no
    segment to walk and reads no machine, even after the registry moved:
    emptied segments are dropped, so a pass costs only the live ones."""
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    rm = ResourceManager(TopologyMode.WORKFLOW_AWARE, registry, GiB)
    rm.enqueue("t1", make_request())
    assert rm.schedule(0) == [("t1", "m1")]
    registry.set_status("m1", MachineStatus.MAINTENANCE)
    monkeypatch.setattr(registry, "machine_ids", lambda: pytest.fail("an idle pass read a machine"))
    assert rm.schedule(1) == []
    assert rm.queue_depth() == 0


# --- the engine against the plain reference run ---


def run_case(case, watch=None):
    """The engine's run of an engine case, its faults armed first and
    ``watch(result, event)`` called at each event: its result and its stuck
    list (empty once the run completed)."""
    spec, machines, input_count, seed, topology, injections = case
    simulation = Simulation(
        spec, machines, 10**15, input_count, seed, topology, run_id="p", submission_ms=0
    )
    if watch is not None:
        simulation.event_listeners.append(lambda event: watch(simulation.result, event))
    for injection in injections:
        simulation.inject(injection)
    try:
        return simulation.run_to_completion(), []
    except NonQuiescentError as exc:
        return simulation.result, exc.stuck


def instances_from_events(events, never_eligible, workflow_id) -> dict[str, TaskInstance]:
    """Each instance of a run that completed, by id, rebuilt from its event
    log, its poisoned ids and its workflow id alone."""
    instances = {}
    for event in events:
        # a definition name may hold a blank, so each detail is read whole
        if event.kind == "instance_queued":
            definition = event.detail.removeprefix("definition=")
            instance = instances[event.subject] = TaskInstance(event.subject, definition)
            instance.mark_queued(event.t_ms)
        elif event.kind == "instance_started":
            instances[event.subject].mark_running(event.t_ms, event.detail.removeprefix("machine="))
        elif event.kind in ("instance_succeeded", "instance_failed"):
            state = TaskState(event.kind.removeprefix("instance_"))
            instances[event.subject].mark_finished(event.t_ms, state)
    for task_id in never_eligible:
        definition = task_id.removeprefix(f"{workflow_id}/").rsplit("/", 1)[0]
        instances[task_id] = TaskInstance(task_id, definition)
    return instances


def check_against_reference(case):
    """The engine, watched by a listener and unwatched, writes the bytes and
    keeps the run facts of the plain reference run.  The listener checks at
    each event what the bytes cannot show: the progress fold against the
    instances' states, and each task's log against its own events.  Returns
    the watched run's result and stuck list."""
    mismatches = []
    fold = ProgressFold()
    logs: dict[str, list[LogEntry]] = {}

    def watch(result, event):
        if fold.step(event) and fold.report() != workflow_status(result.run):
            mismatches.append(event)
        if event.kind not in ("instance_started", "instance_succeeded", "instance_failed"):
            return
        detail = dict(part.split("=") for part in event.detail.split())
        if event.kind == "instance_started":
            entry = (LogLevel.INFO, f"started on {detail['machine']}")
        elif event.kind == "instance_succeeded":
            entry = (LogLevel.INFO, "finished exit=0")
        else:
            entry = (LogLevel.ERROR, f"failed exit={detail['exit']} ({detail['verdict']})")
        log = logs.setdefault(event.subject, [])
        log.append(LogEntry(event.subject, event.t_ms, *entry))
        for level in LogLevel:
            if result.application_logs(event.subject, level) != [e for e in log if e.level >= level]:
                mismatches.append((event, level))

    result, stuck = run_case(case, watch)
    assert mismatches == []
    reference = reference_run(*case)
    assert_equals_reference(result, stuck, reference)
    # listeners only observe
    assert_equals_reference(*run_case(case), reference)

    events = parse_event_log(result.event_log_text())
    assert events == result.event_records
    assert parse_trace(result.trace_text()) == result.trace_records
    # run.json's header and the event log hold every instance fact; a stuck
    # run never queued what waits on its stuck instances, so no event names it
    if result.run.final_state is not RunState.RUNNING:
        rebuilt = instances_from_events(events, result.never_eligible, result.run.workflow_id)
        assert rebuilt == result.instances_by_id
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(Path(tmp) / "runs.jsonl")
        store.append(result.run, tmp)
        assert store.load_all() == [RunEntry(_summarize(result.run), Path(tmp).resolve())]
    assert all(result.trace_by_id[r.task_id] is r for r in result.trace_records)
    # only failures store a diagnosis; a success's is derived on read
    assert set(result.diagnoses) == {r.task_id for r in reference.traces if r.status == "failed"}
    return result, stuck


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases())
def test_the_engine_equals_the_reference_run(case):
    check_against_reference(case)


def aware_case(spec, machines, input_count, seed, *injections):
    return spec, machines, input_count, seed, TopologyMode.WORKFLOW_AWARE, list(injections)


def fig1_case(*injections):
    return aware_case(*fig1_setup()[:2], 4, 42, *injections)


def pw_spec(*tasks, edges=()):
    """Definitions t0, t1, ... of (scatter, request, model)."""
    return WorkflowSpec("pw", tuple(TaskDefinition(f"t{i}", *t) for i, t in enumerate(tasks)), edges)


def fig1_ids(*names, inputs=4):
    """The instance ids of fig1's definitions ``names``."""
    return {f"wf1/{name}/{i}" for name in names for i in range(1 if name in ("IV", "V") else inputs)}


class Outcome(NamedTuple):
    """What a hand-picked engine case comes to: its final state; each failed
    task's (exit code, verdict), and its end time where one is pinned; the
    poisoned task ids; and how many events of each kind in ``COUNTED`` it
    wrote (machine samples are not counted)."""

    final: RunState
    failed: dict
    poisoned: set
    kinds: tuple


COUNTED = ("run_submitted", "instance_queued", "instance_started", "instance_succeeded",
           "instance_failed", "machine_status", "run_completed")
KILLED, OOM, CRASHED, TIMED_OUT = (
    (EXIT_MACHINE_KILL, Verdict.MACHINE_FAILURE), (EXIT_OOM, Verdict.OUT_OF_MEMORY),
    (EXIT_TASK_ERROR, Verdict.NON_ZERO_EXIT), (EXIT_TIMEOUT, Verdict.TIMEOUT),
)
FAILED, STUCK = RunState.FAILED, RunState.RUNNING
OOM_AT, EXIT_AT, KILL_AT = (partial(FaultInjection, kind) for kind in InjectionKind)
ENGINE_TABLE = [
    pytest.param(fig1_case(), Outcome(RunState.SUCCEEDED, {}, set(), (1, 18, 18, 18, 0, 0, 1)),
                 id="clean"),
    pytest.param(fig1_case(OOM_AT("wf1/II/1")), Outcome(
        FAILED, {"wf1/II/1": OOM}, fig1_ids("III", "IV", "V", "VI"), (1, 8, 8, 7, 1, 0, 1)
    ), id="oom"),
    pytest.param(fig1_case(EXIT_AT("wf1/III/2")), Outcome(
        FAILED, {"wf1/III/2": CRASHED}, fig1_ids("IV", "V", "VI"), (1, 12, 12, 11, 1, 0, 1)
    ), id="non-zero exit"),
    # exactly the transitive descendants are poisoned
    pytest.param(fig1_case(EXIT_AT("wf1/IV/0")), Outcome(
        FAILED, {"wf1/IV/0": CRASHED}, fig1_ids("V", "VI"), (1, 13, 13, 12, 1, 0, 1)
    ), id="poisoning"),
    pytest.param(fig1_case(KILL_AT("m1", at_ms=2500)), Outcome(
        FAILED, dict.fromkeys(fig1_ids("II"), (*KILLED, 2500)), fig1_ids("III", "IV", "V", "VI"),
        (1, 8, 8, 4, 4, 1, 1),
    ), id="machine kill"),
    pytest.param(
        aware_case(pw_spec((False, make_request(timeout=1500), "default")), [make_machine("m1")], 1, 42),
        Outcome(FAILED, {"pw/t0/0": (*TIMED_OUT, 1500)}, set(), (1, 1, 1, 0, 1, 0, 1)),
        id="timeout",
    ),
    pytest.param(
        aware_case(WorkflowSpec("w", (TaskDefinition("maybe", True, make_request(), "flaky"),), ()),
                   [make_machine("m1")], 40, 5),
        Outcome(FAILED, dict.fromkeys(["w/maybe/13", "w/maybe/22", "w/maybe/26"], CRASHED), set(),
                (1, 40, 40, 37, 3, 0, 1)),
        id="spontaneous failure",
    ),
    pytest.param(scenario_case("faults.scenario"), Outcome(
        FAILED,
        {"wf1/III/0": OOM, "wf1/III/1": CRASHED, **dict.fromkeys(fig1_ids("III", inputs=8) - {
            "wf1/III/0", "wf1/III/1", "wf1/III/2", "wf1/III/3"}, KILLED)},
        fig1_ids("IV", "V", "VI", inputs=8), (1, 24, 24, 18, 6, 1, 1),
    ), id="bundled fault scenario"),
    # t1 and t2 succeed in the same millisecond: t1's pump queues and starts
    # t5 before t2's success makes t4 ready, so one millisecond holds two pumps
    pytest.param(aware_case(
        pw_spec(
            *((False, make_request(cpus=9 if i == 0 else 1), model)
              for i, model in enumerate(("quick", "default", "default", *["quick"] * 4))),
            edges=(("t0", "t6"), ("t1", "t4"), ("t1", "t5"), ("t1", "t6"), ("t2", "t4"),
                   ("t2", "t6"), ("t3", "t4"), ("t3", "t5"), ("t3", "t6"), ("t4", "t6"),
                   ("t5", "t6")),
        ),
        [make_machine(f"m{i}", cpus=2, mem=4 * GiB) for i in (1, 2, 3)], 1, 10411,
    ), Outcome(STUCK, {}, set(), (1, 6, 5, 5, 0, 0, 0)), id="two pumps in one ms"),
    # t0 runs on m1 when m1 is killed, t1 outgrows its timeout, and t2
    # outgrows every machine, so the run ends stuck
    pytest.param(aware_case(
        pw_spec((True, make_request(), "default"), (True, make_request(timeout=1000), "quick"),
                (False, make_request(cpus=9), "quick")),
        [make_machine("m1", cpus=2), make_machine("m2", cpus=4)], 3, 7, KILL_AT("m1", at_ms=500),
    ), Outcome(STUCK, {
        **dict.fromkeys(["pw/t0/0", "pw/t0/1"], (*KILLED, 500)),
        **dict.fromkeys(["pw/t1/0", "pw/t1/1", "pw/t1/2"], (*TIMED_OUT, 1000)),
    }, set(), (1, 7, 6, 1, 5, 1, 0)), id="kill timeout stuck"),
    # a request no machine can hold strands the run instead of spinning
    pytest.param(
        aware_case(pw_spec((False, make_request(cpus=64), "quick")), [make_machine("m1")], 1, 0),
        Outcome(STUCK, {}, set(), (1, 1, 0, 0, 0, 0, 0)), id="unsatisfiable request",
    ),
    # two task faults armed on one instance, both reached at its start: the
    # first one armed fires
    pytest.param(
        aware_case(pw_spec((False, make_request(), "quick")), [make_machine("m1")], 1, 0,
                   EXIT_AT("pw/t0/0"), OOM_AT("pw/t0/0")),
        Outcome(FAILED, {"pw/t0/0": CRASHED}, set(), (1, 1, 1, 0, 1, 0, 1)),
        id="two faults on one task",
    ),
    # the armed exit would fail the instance, but it outgrows its limit first
    pytest.param(
        aware_case(pw_spec((False, make_request(timeout=1500), "default")), [make_machine("m1")],
                   1, 42, EXIT_AT("pw/t0/0")),
        Outcome(FAILED, {"pw/t0/0": (*TIMED_OUT, 1500)}, set(), (1, 1, 1, 0, 1, 0, 1)),
        id="a timeout over a non-zero exit",
    ),
    # b and a are ready together: queued in spec order, b first, not by name
    pytest.param(
        aware_case(WorkflowSpec("w", (TaskDefinition("b", True, make_request(cpus=8), "quick"),
                                      TaskDefinition("a", True, make_request(cpus=8), "quick")), ()),
                   [make_machine("m1")], 2, 0),
        Outcome(RunState.SUCCEEDED, {}, set(), (1, 4, 4, 4, 0, 0, 1)),
        id="ready definitions queue in spec order",
    ),
    # nothing runs, yet the machine fault still to fire keeps the samples coming
    pytest.param(
        aware_case(pw_spec((False, make_request(cpus=64), "quick")), [make_machine("m1")], 1, 0,
                   KILL_AT("m1", at_ms=2500)),
        Outcome(STUCK, {}, set(), (1, 1, 0, 0, 0, 1, 0)), id="sampling until a machine fault",
    ),
]


@pytest.mark.parametrize("case, outcome", ENGINE_TABLE)
def test_a_hand_picked_run_equals_the_reference_and_its_outcome(case, outcome):
    result, stuck = check_against_reference(case)
    assert (result.run.final_state, bool(stuck)) == (outcome.final, outcome.final is STUCK)
    failed = {
        r.task_id: (r.exit_code, result.diagnosis(r.task_id).verdict, r.end_ms)
        for r in result.trace_records if r.status == "failed"
    }
    assert failed.keys() == outcome.failed.keys()
    assert {t: failed[t][:len(v)] for t, v in outcome.failed.items()} == outcome.failed
    succeeded = [r.task_id for r in result.trace_records if r.status == "succeeded"]
    assert all(result.diagnosis(t).verdict is Verdict.NONE for t in succeeded)
    assert result.never_eligible == outcome.poisoned
    events = result.event_records
    kinds = Counter(e.kind for e in events if e.kind != "machine_sample")
    assert kinds == {kind: n for kind, n in zip(COUNTED, outcome.kinds) if n}
    # a poisoned instance is never queued, and a queued one ends unless the run is stuck
    queued = {e.subject for e in events if e.kind == "instance_queued"}
    assert not queued & outcome.poisoned
    assert all(result.run.instance(t).state is TaskState.PENDING for t in outcome.poisoned)
    assert all(result.run.instance(t).state.terminal for t in queued) or stuck
    # nothing starts on a machine once it is unhealthy
    down = {e.subject: e.t_ms for e in events if e.kind == "machine_status"}
    for e in events:
        if e.kind == "instance_started":
            assert e.t_ms <= down.get(e.detail.removeprefix("machine="), e.t_ms)
    # one progress record per lifecycle event, finished never falling
    progress = result.progress_records
    assert len(progress) == sum(kinds[k] for k in COUNTED[1:5]) + kinds["run_completed"]
    finished = [p.finished for p in progress]
    assert finished == sorted(finished)
    assert progress[-1].state is outcome.final
    assert (progress[-1].progress == 1.0) == (outcome.final is RunState.SUCCEEDED)




def _exits(result) -> set[int]:
    return {r.exit_code for r in result.trace_records}


def _disk_binds(case, result) -> bool:
    spec, machines = case[:2]
    largest = max(t.requested.disk_bytes for t in spec.tasks)
    disk = {m.machine_id: m.capacity.disk_bytes for m in machines}
    return any(
        disk[s.machine_id] - s.used.disk_bytes < largest
        for s in machine_samples(result.event_records)
    )


# what the reference comparison can only check if engine_cases() draws it
_ENGINE_RULES = {
    "timeout": lambda case, result, stuck: EXIT_TIMEOUT in _exits(result),
    "machine kill": lambda case, result, stuck: EXIT_MACHINE_KILL in _exits(result),
    "oom": lambda case, result, stuck: EXIT_OOM in _exits(result),
    "disk binds": lambda case, result, stuck: _disk_binds(case, result),
    "stuck": lambda case, result, stuck: bool(stuck),
}


@pytest.mark.parametrize("rule", sorted(_ENGINE_RULES))
def test_engine_cases_draw_runs_where_each_rule_fires(rule):
    """A rule the drawn cases never exercise is one the reference comparison
    cannot check: each one fires within the first 100 draws."""
    fires = _ENGINE_RULES[rule]
    find(
        engine_cases(),
        lambda case: fires(case, *run_case(case)),
        settings=settings(
            max_examples=100, derandomize=True, database=None, phases=[Phase.generate],
            deadline=None, suppress_health_check=list(HealthCheck),
        ),
    )


# the data the reference may take from the engine's module; it shares no
# scheduling, readiness, draw or scaling code with the engine
_REFERENCE_ENGINE_DATA = {
    "BUILTIN_MODELS", "EXIT_MACHINE_KILL", "EXIT_OOM", "EXIT_TASK_ERROR", "EXIT_TIMEOUT",
    "SAMPLE_CADENCE_MS", "EventRecord", "InjectionKind",
}


def test_the_reference_takes_only_data_from_the_engine():
    imported = imports_of(oracles.__file__)
    assert imported["stratus.sim"] <= _REFERENCE_ENGINE_DATA
    assert "stratus.resman" not in imported and "stratus" not in imported


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(EventRecord, st.integers(-(2**63), 2**63), st.text(), st.text(), st.text()),
        max_size=8,
    )
)
@example([])
def test_the_event_log_is_one_reference_line_per_event(events):
    spec, machines, fs_total = fig1_setup()
    result = Simulation(spec, machines, fs_total, 1, 0, run_id="r", submission_ms=0).result
    result = dataclasses.replace(result, event_records=events)
    assert result.event_log_text() == "\n".join(event_line(e) for e in events) + "\n"


# --- a spec built in code either refuses construction or runs clean ---

_DRAFT_NAMES = ("a", "b", "c", "b c", "a\tb", "c\nd")


@st.composite
def spec_drafts(draw):
    """WorkflowSpec arguments drawn from a small name pool, so duplicate
    definitions, dangling and self-loop edges, 2-cycles and names holding a
    tab or a line break all occur."""
    names = draw(st.lists(st.sampled_from(_DRAFT_NAMES), max_size=4))
    tasks = tuple(
        TaskDefinition(
            name,
            draw(st.booleans()),
            make_request(),
            draw(st.sampled_from(("quick", "default", "flaky"))),
        )
        for name in names
    )
    edge = st.tuples(st.sampled_from(_DRAFT_NAMES), st.sampled_from(_DRAFT_NAMES))
    edges = tuple(draw(st.lists(edge, max_size=4)))
    return draw(st.sampled_from(("w", "w 1", "w\t1", "w\r\n1"))), tasks, edges


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec_drafts(),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.sampled_from(list(TopologyMode)),
)
def test_a_spec_either_refuses_construction_or_runs_clean(draft, input_count, seed, topology):
    try:
        spec = WorkflowSpec(*draft)
    except WorkflowError:
        return
    # one machine fits every request, so nothing can strand the run
    simulation = Simulation(
        spec, [make_machine("m1")], 10**15, input_count, seed, topology,
        run_id="p", submission_ms=0,
    )
    result = simulation.run_to_completion()
    for instance in result.run.instances:
        assert instance.state.terminal or instance.task_id in result.never_eligible
    assert parse_event_log(result.event_log_text()) == result.event_records
    assert parse_trace(result.trace_text()) == result.trace_records
