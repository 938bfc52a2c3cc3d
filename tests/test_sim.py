"""Simulation engine tests: byte-level determinism, metric synthesis bounds,
the engine against the plain reference run of ``oracles.reference_run``,
fault injection, stuck-run detection, and scenario files."""

import dataclasses
import gc
import hashlib
import itertools
import json
import random
import tempfile
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, example, find, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    dag_specs,
    engine_cases,
    imports_of,
    make_machine,
    make_request,
    run_simulation,
)
from oracles import (
    assert_equals_reference,
    event_line,
    instance_stream,
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
    load_scenario,
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
    RunRecord,
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

GiB = 1024**3


def fig1_setup():
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    return spec, machines, fs_total


def run_fig1(seed=42, input_count=4, topology=TopologyMode.WORKFLOW_AWARE, **kwargs):
    spec, machines, fs_total = fig1_setup()
    return run_simulation(
        spec, machines, fs_total, input_count, seed, topology,
        run_id="r-test", submission_ms=0, **kwargs,
    )


# --- metric synthesis ---


def test_instance_stream_matches_hash_derivation():
    seed, task_id = 42, "wf1/I/0"
    digest = hashlib.sha256(f"{seed}:{task_id}".encode()).digest()
    expected = random.Random(int.from_bytes(digest[:8], "big")).random()
    assert instance_stream(seed, task_id).random() == expected


def test_instance_streams_are_independent():
    a1 = instance_stream(7, "w/a/0").random()
    a2 = instance_stream(7, "w/a/0").random()
    b = instance_stream(7, "w/b/0").random()
    other_seed = instance_stream(8, "w/a/0").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != other_seed


def test_runtime_jitter_stays_within_band():
    for model in BUILTIN_MODELS.values():
        jitter = model.runtime_jitter_pct / 100
        low = model.base_runtime_ms * (1 - jitter) - 0.5
        high = model.base_runtime_ms * (1 + jitter) + 0.5
        for i in range(1000):
            rng = instance_stream(1234, f"w/{model.model_key}/{i}")
            metrics = MetricPlan(model, GiB).draw(rng)
            assert low <= metrics.runtime_ms <= high
            assert metrics.runtime_ms >= 1


def test_synthesis_is_a_pure_function_of_the_stream():
    model = BUILTIN_MODELS["default"]
    plan = MetricPlan(model, GiB)
    first = plan.draw(instance_stream(5, "w/x/0"))
    second = MetricPlan(model, GiB).draw(instance_stream(5, "w/x/0"))
    assert first == second
    assert plan.rss_bytes == int(0.5 * GiB)
    assert plan.rchar_bytes == model.io_read_bytes
    total_pages = (model.io_read_bytes + model.io_write_bytes) // 4096
    assert first.page_cache_hits + first.page_cache_misses == total_pages
    assert first.page_cache_hits >= total_pages // 2


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
        assert dataclasses.astuple(plan.draw(instance_stream(seed, task_id))) == drawn
        assert _SHARED(plan) == shared


def test_metric_plan_covers_a_model_without_io():
    # no built-in model reaches this branch: read share 0.5, zero pages
    model = TaskModel("noio", 1000, 100, 50, 0.5, 0, 0, 1000.0, 0.1, 0.0)
    plan = MetricPlan(model, GiB)
    metrics = plan.draw(instance_stream(3, "w/noio/0"))
    drawn, shared = reference_synthesize_metrics(model, GiB, instance_stream(3, "w/noio/0"))
    assert (dataclasses.astuple(metrics), _SHARED(plan)) == (drawn, shared)
    assert metrics.page_cache_hits == metrics.page_cache_misses == 0
    assert metrics.syscall_read_count == int(metrics.runtime_ms * 0.5)


# the drawn counters a trace record scales; the plan's read and write bytes
# are scaled too
_SCALED = attrgetter(
    "syscall_read_count", "syscall_write_count", "cpu_wait_ms", "page_cache_hits",
    "page_cache_misses",
)


def running_execution(
    task_id, model, memory, submit_ms, start_ms, metrics, exit_code, rss_bytes=None
):
    """The engine's book-keeping for instance ``task_id`` (workflow/name/index)
    of a definition of ``model`` and ``memory`` bytes, started on m1, with
    the plan's footprint unless ``rss_bytes`` is given."""
    name = task_id.split("/")[1]
    instance = TaskInstance(task_id, name, TaskState.RUNNING, "m1", submit_ms, start_ms)
    definition = TaskDefinition(name, False, make_request(mem=memory), model.model_key)
    plan = MetricPlan(model, memory)
    row = _Row(definition, model, plan, [instance], 0, 1)
    footprint = plan.rss_bytes if rss_bytes is None else rss_bytes
    return _Execution(instance, row, metrics, exit_code, footprint)


@st.composite
def finished_executions(draw):
    """(execution, end_ms, exit_code) of one instance that ran its full
    runtime, failed at it, was OOM-killed, timed out or lost its machine,
    as the engine finishes each."""
    model = draw(task_models())
    memory = draw(st.integers(min_value=1, max_value=2**45))
    plan = MetricPlan(model, memory)
    metrics = plan.draw(instance_stream(draw(st.integers()), "w/a/0"))
    runtime = metrics.runtime_ms
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
        "w/a/0", model, memory, submit, start, metrics, exit_code, rss_bytes
    )
    return execution, start + duration, exit_code


@settings(max_examples=500, deadline=None)
@given(finished_executions())
def test_trace_records_match_the_scaled_formula(case):
    execution, end_ms, exit_code = case
    status = "succeeded" if exit_code == 0 else "failed"
    record = _scaled_record(execution, end_ms, status, exit_code)
    plan = execution.row.plan
    assert record == reference_scaled_record(
        execution.instance, execution.metrics, _SHARED(plan), execution.rss_bytes, end_ms, status,
        exit_code,
    )
    if plan.full_runtime_exact:
        assert max(plan.rchar_bytes, plan.wchar_bytes, *_SCALED(execution.metrics)) <= 2**53


@pytest.mark.parametrize("io_bytes, exact", [(2**53, True), (2**53 + 1, False)])
def test_a_plan_over_the_float_bound_scales_its_counters(io_bytes, exact):
    model = TaskModel("big", 1000, 0, 100, 0.5, io_bytes, 0, 0.0, 0.0, 0.0)
    plan = MetricPlan(model, GiB)
    assert plan.full_runtime_exact is exact
    metrics = plan.draw(instance_stream(1, "w/big/0"))
    execution = running_execution("w/big/0", model, GiB, 0, 0, metrics, 0)
    record = _scaled_record(execution, 1000, "succeeded", 0)
    # int(2**53 + 1 * 1.0) is 2**53: only the scaled path reproduces that
    assert record.rchar_bytes == 2**53


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


def test_equal_inputs_give_byte_identical_artifacts():
    first = run_fig1(seed=42)
    second = run_fig1(seed=42)
    assert first.event_log_text() == second.event_log_text()
    assert first.trace_text() == second.trace_text()
    assert first.samples == second.samples


def test_different_seed_changes_artifacts():
    assert run_fig1(seed=42).trace_text() != run_fig1(seed=43).trace_text()


def test_run_id_not_part_of_artifact_bytes():
    spec, machines, fs_total = fig1_setup()
    first = run_simulation(
        spec, machines, fs_total, 4, 42, run_id="alpha", submission_ms=0
    )
    second = run_simulation(
        spec, machines, fs_total, 4, 42, run_id="beta", submission_ms=999
    )
    assert first.event_log_text() == second.event_log_text()
    assert first.trace_text() == second.trace_text()


def test_topology_changes_nothing_but_the_submission_line():
    aware = run_fig1(topology=TopologyMode.WORKFLOW_AWARE)
    disjoint = run_fig1(topology=TopologyMode.DISJOINT)
    assert aware.trace_text() == disjoint.trace_text()
    aware_lines = aware.event_log_text().splitlines()
    disjoint_lines = disjoint.event_log_text().splitlines()
    assert aware_lines[1:] == disjoint_lines[1:]
    assert "topology=workflow_aware" in aware_lines[0]
    assert "topology=disjoint" in disjoint_lines[0]
    assert aware.resource_manager.running_workflows() == [("r-test", "wf1", "succeeded")]
    assert disjoint.resource_manager.running_workflows() == []


def test_event_log_round_trips():
    result = run_fig1()
    assert parse_event_log(result.event_log_text()) == result.event_records


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


# --- end-to-end structure of a clean run ---


def test_clean_run_reaches_success_with_full_accounting():
    result = run_fig1()
    assert result.run.final_state is RunState.SUCCEEDED
    assert len(result.run.instances) == 18
    assert result.never_eligible == frozenset()
    kinds = [e.kind for e in result.event_records]
    assert kinds.count("run_submitted") == 1
    assert kinds.count("instance_queued") == 18
    assert kinds.count("instance_started") == 18
    assert kinds.count("instance_succeeded") == 18
    assert kinds.count("instance_failed") == 0
    assert kinds.count("run_completed") == 1
    assert len(result.trace_records) == 18
    assert all(r.status == "succeeded" for r in result.trace_records)
    # only failures are stored; a success's diagnosis is derived on read
    assert result.diagnoses == {}
    assert all(result.diagnosis(r.task_id).verdict is Verdict.NONE for r in result.trace_records)
    assert parse_trace(result.trace_text()) == result.trace_records


def test_progress_counts_are_monotone_and_complete():
    result = run_fig1()
    finished = [p.finished for p in result.progress_records]
    assert finished == sorted(finished)
    assert result.progress_records[-1].progress == 1.0
    assert result.progress_records[-1].state is RunState.SUCCEEDED
    lifecycle_events = sum(
        1
        for e in result.event_records
        if e.kind in (
            "instance_queued", "instance_started",
            "instance_succeeded", "instance_failed", "run_completed",
        )
    )
    assert len(result.progress_records) == lifecycle_events


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


def test_oom_injection_end_to_end():
    result = run_fig1(injections=[
        FaultInjection(InjectionKind.TASK_OOM, "wf1/II/1"),
    ])
    record = next(r for r in result.trace_records if r.task_id == "wf1/II/1")
    assert record.status == "failed"
    assert record.exit_code == EXIT_OOM
    assert record.rss_bytes > GiB
    assert result.diagnoses["wf1/II/1"].verdict is Verdict.OUT_OF_MEMORY
    assert result.run.final_state is RunState.FAILED


def test_non_zero_exit_injection_end_to_end():
    result = run_fig1(injections=[
        FaultInjection(InjectionKind.TASK_NON_ZERO_EXIT, "wf1/III/2"),
    ])
    record = next(r for r in result.trace_records if r.task_id == "wf1/III/2")
    assert record.exit_code == EXIT_TASK_ERROR
    assert result.diagnoses["wf1/III/2"].verdict is Verdict.NON_ZERO_EXIT


def test_failure_poisons_exactly_the_transitive_descendants():
    result = run_fig1(injections=[
        FaultInjection(InjectionKind.TASK_NON_ZERO_EXIT, "wf1/IV/0"),
    ])
    assert result.run.final_state is RunState.FAILED
    expected = {"wf1/V/0", "wf1/VI/0", "wf1/VI/1", "wf1/VI/2", "wf1/VI/3"}
    assert result.never_eligible == expected
    queued = {e.subject for e in result.event_records if e.kind == "instance_queued"}
    for task_id in expected:
        assert task_id not in queued
        assert result.run.instance(task_id).state is TaskState.PENDING
    # everything upstream of the failure still ran to completion
    for task_id in queued:
        if task_id not in expected:
            assert result.run.instance(task_id).state.terminal


def test_machine_unhealthy_kills_and_diagnoses():
    result = run_fig1(injections=[
        FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m1", at_ms=2500),
    ])
    status_events = [e for e in result.event_records if e.kind == "machine_status"]
    assert [(e.t_ms, e.subject, e.detail) for e in status_events] == [
        (2500, "m1", "status=unhealthy")
    ]
    killed = [r for r in result.trace_records if r.exit_code == EXIT_MACHINE_KILL]
    assert {r.task_id for r in killed} == {
        "wf1/II/0", "wf1/II/1", "wf1/II/2", "wf1/II/3"
    }
    for record in killed:
        assert record.end_ms == 2500
        assert result.diagnoses[record.task_id].verdict is Verdict.MACHINE_FAILURE
    assert result.run.final_state is RunState.FAILED
    # the whole downstream chain became permanently ineligible
    assert len(result.never_eligible) == 10
    for e in result.event_records:
        if e.kind == "instance_started":
            assert e.t_ms <= 2500


def test_timeout_cuts_runtime_and_scales_counters():
    spec = parse_workflow(
        "workflow w\n"
        "task slow scatter=false cpus=1 mem=1073741824 disk=0 timeout=1500 model=default\n"
    )
    result = run_simulation(
        spec, [make_machine("m1")], 1024**4, 1, 42, run_id="r", submission_ms=0
    )
    record = result.trace_records[0]
    assert record.exit_code == EXIT_TIMEOUT
    assert record.duration_ms == 1500
    model = BUILTIN_MODELS["default"]
    assert record.rchar_bytes < model.io_read_bytes
    assert result.diagnoses["w/slow/0"].verdict is Verdict.TIMEOUT
    assert result.run.final_state is RunState.FAILED


def test_spontaneous_failure_follows_the_drawn_probability():
    spec = parse_workflow(
        "workflow w\n"
        "task maybe scatter=true cpus=1 mem=1073741824 disk=0 timeout=600000 model=flaky\n"
    )
    result = run_simulation(
        spec, [make_machine("m1")], 1024**4, 40, 5, run_id="r", submission_ms=0
    )
    failures = 0
    for record in result.trace_records:
        rng = instance_stream(5, record.task_id)
        metrics = MetricPlan(BUILTIN_MODELS["flaky"], GiB).draw(rng)
        should_fail = metrics.failure_draw < BUILTIN_MODELS["flaky"].failure_probability
        assert (record.status == "failed") == should_fail
        failures += should_fail
    assert failures > 0


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


# --- stuck runs ---


def test_unsatisfiable_request_raises_instead_of_spinning():
    spec = parse_workflow(
        "workflow w\n"
        "task huge scatter=false cpus=64 mem=1073741824 disk=0 timeout=1000 model=quick\n"
    )
    with pytest.raises(NonQuiescentError) as err:
        run_simulation(
            spec, [make_machine("m1", cpus=8)], 1024**4, 1, 0,
            run_id="r", submission_ms=0,
        )
    assert err.value.stuck == ["w/huge/0"]


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


def test_run_bundled_fault_scenario(tmp_path):
    import importlib.resources

    data_dir = importlib.resources.files("stratus.data")
    scenario = load_scenario(str(data_dir / "faults.scenario"))
    result = scenario_simulation(scenario, run_id="r", submission_ms=0).run_to_completion()
    assert result.run.final_state is RunState.FAILED
    verdicts = {r.task_id: result.diagnosis(r.task_id).verdict for r in result.trace_records}
    assert verdicts["wf1/III/0"] is Verdict.OUT_OF_MEMORY
    assert verdicts["wf1/III/1"] is Verdict.NON_ZERO_EXIT
    machine_kills = {t for t, v in verdicts.items() if v is Verdict.MACHINE_FAILURE}
    assert machine_kills == {"wf1/III/4", "wf1/III/5", "wf1/III/6", "wf1/III/7"}
    assert verdicts["wf1/III/2"] is Verdict.NONE
    assert verdicts["wf1/III/3"] is Verdict.NONE


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
        assert row.model is BUILTIN_MODELS[row.definition.runtime_model]
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

# t1 and t2 succeed in the same millisecond: t1's pump queues and starts
# t5 before t2's success makes t4 ready, so one millisecond holds two pumps
TWO_PUMPS_IN_ONE_MS = (
    WorkflowSpec(
        workflow_id="pw",
        tasks=tuple(
            TaskDefinition(f"t{i}", False, make_request(cpus=9 if i == 0 else 1), model)
            for i, model in enumerate(
                ("quick", "default", "default", "quick", "quick", "quick", "quick")
            )
        ),
        edges=(
            ("t0", "t6"), ("t1", "t4"), ("t1", "t5"), ("t1", "t6"), ("t2", "t4"), ("t2", "t6"),
            ("t3", "t4"), ("t3", "t5"), ("t3", "t6"), ("t4", "t6"), ("t5", "t6"),
        ),
    ),
    [make_machine(f"m{i}", cpus=2, mem=4 * GiB) for i in (1, 2, 3)],
    1,
    10411,
    TopologyMode.WORKFLOW_AWARE,
    [],
)

# t0 runs on m1 when m1 is killed, t1 outgrows its timeout, and t2
# outgrows every machine, so the run ends stuck
KILL_TIMEOUT_STUCK = (
    WorkflowSpec(
        workflow_id="pw",
        tasks=(
            TaskDefinition("t0", True, make_request(cpus=1), "default"),
            TaskDefinition("t1", True, make_request(cpus=1, timeout=1000), "quick"),
            TaskDefinition("t2", False, make_request(cpus=9), "quick"),
        ),
        edges=(),
    ),
    [make_machine("m1", cpus=2), make_machine("m2", cpus=4)],
    3,
    7,
    TopologyMode.WORKFLOW_AWARE,
    [FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m1", at_ms=500)],
)

# two task faults armed on one instance, both reached at its start: the
# first one armed fires
TWO_FAULTS_ON_ONE_TASK = (
    WorkflowSpec("pw", (TaskDefinition("t0", False, make_request(), "quick"),), ()),
    [make_machine("m1")],
    1,
    0,
    TopologyMode.WORKFLOW_AWARE,
    [FaultInjection(kind, "pw/t0/0") for kind in (
        InjectionKind.TASK_NON_ZERO_EXIT, InjectionKind.TASK_OOM
    )],
)


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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases())
@example(TWO_PUMPS_IN_ONE_MS)
@example(KILL_TIMEOUT_STUCK)
@example(TWO_FAULTS_ON_ONE_TASK)
def test_the_engine_equals_the_reference_run(case):
    """The engine, watched by a listener and unwatched, writes the bytes and
    keeps the run facts of the plain reference run.  The listener checks at
    each event what the bytes cannot show: the progress fold against the
    instances' states, and each task's log against its own events."""
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

    assert parse_event_log(result.event_log_text()) == result.event_records
    assert parse_trace(result.trace_text()) == result.trace_records
    # run.json holds the record's JSON, which status and report read back
    assert RunRecord.from_record(json.loads(json.dumps(result.run.to_record()))) == result.run
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(Path(tmp) / "runs.jsonl")
        store.append(result.run, tmp)
        assert store.load_all() == [RunEntry(_summarize(result.run), Path(tmp).resolve())]
    assert all(result.trace_by_id[r.task_id] is r for r in result.trace_records)
    # only failures store a diagnosis; a success's is derived on read
    assert set(result.diagnoses) == {r.task_id for r in reference.traces if r.status == "failed"}


def _exits(result) -> set[int]:
    return {r.exit_code for r in result.trace_records}


def _disk_binds(case, result) -> bool:
    spec, machines = case[:2]
    largest = max(t.requested.disk_bytes for t in spec.tasks)
    disk = {m.machine_id: m.capacity.disk_bytes for m in machines}
    return any(disk[s.machine_id] - s.used.disk_bytes < largest for s in result.samples)


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
