"""Simulation engine tests: byte-level determinism, metric synthesis bounds,
dependency and capacity safety checked from the event log, fault injection,
stuck-run detection, and scenario files."""

import gc
import hashlib
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_machine, make_request, random_cluster, random_dag_spec
from stratus.blueprint import TopologyMode
from stratus.fixtures import fixture_text
from stratus.machine import parse_cluster
from stratus.sim import (
    BUILTIN_MODELS,
    EXIT_MACHINE_KILL,
    EXIT_OOM,
    EXIT_TASK_ERROR,
    EXIT_TIMEOUT,
    EventLogSyntaxError,
    FaultInjection,
    InjectionInPastError,
    InjectionKind,
    MetricPlan,
    NonQuiescentError,
    ProgressFold,
    ScenarioSyntaxError,
    Simulation,
    SimulationError,
    TargetUnknownError,
    SynthesizedMetrics,
    TaskModel,
    instance_stream,
    load_scenario,
    parse_event_log,
    parse_scenario,
    replay_progress,
    run_scenario,
    run_simulation,
    synthesize_metrics,
)
from stratus.store import RunStore
from stratus.taskmon import Verdict, format_trace_file, parse_trace
from stratus.workflow import (
    RunState,
    TaskDefinition,
    TaskState,
    WorkflowSpec,
    parse_workflow,
    ready_tasks,
    resolve_final_state,
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
            metrics = synthesize_metrics(model, GiB, rng)
            assert low <= metrics.runtime_ms <= high
            assert metrics.runtime_ms >= 1


def test_synthesis_is_a_pure_function_of_the_stream():
    model = BUILTIN_MODELS["default"]
    first = synthesize_metrics(model, GiB, instance_stream(5, "w/x/0"))
    second = synthesize_metrics(model, GiB, instance_stream(5, "w/x/0"))
    assert first == second
    assert first.rss_bytes == int(0.5 * GiB)
    assert first.rchar_bytes == model.io_read_bytes
    total_pages = (model.io_read_bytes + model.io_write_bytes) // 4096
    assert first.page_cache_hits + first.page_cache_misses == total_pages
    assert first.page_cache_hits >= total_pages // 2


def reference_synthesize_metrics(model, memory_request_bytes, rng):
    """The metric formula as written before per-definition plans: every
    value recomputed from the model for each instance."""
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
    hit_ratio = 0.5 + 0.5 * pcache_draw
    hits = int(total_pages * hit_ratio)
    return SynthesizedMetrics(
        runtime_ms=runtime_ms,
        cpu_pct=model.cpu_pct_mean,
        rss_bytes=int(model.rss_fraction_of_request * memory_request_bytes),
        rchar_bytes=model.io_read_bytes,
        wchar_bytes=model.io_write_bytes,
        syscall_read_count=syscall_read,
        syscall_write_count=syscall_total - syscall_read,
        cpu_wait_ms=int(model.cpu_wait_fraction * runtime_ms),
        page_cache_hits=hits,
        page_cache_misses=total_pages - hits,
        failure_draw=failure_draw,
    )


_unit = st.floats(min_value=0, max_value=1, allow_nan=False)
_io_bytes = st.one_of(st.just(0), st.integers(min_value=0, max_value=2**40))


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
                      st.floats(min_value=0, max_value=1e5, allow_nan=False))
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
        expected = reference_synthesize_metrics(model, memory, instance_stream(seed, task_id))
        assert plan.draw(instance_stream(seed, task_id)) == expected
        assert synthesize_metrics(model, memory, instance_stream(seed, task_id)) == expected


def test_metric_plan_covers_a_model_without_io():
    # no built-in model reaches this branch: read share 0.5, zero pages
    model = TaskModel("noio", 1000, 100, 50, 0.5, 0, 0, 1000.0, 0.1, 0.0)
    metrics = MetricPlan(model, GiB).draw(instance_stream(3, "w/noio/0"))
    assert metrics == reference_synthesize_metrics(model, GiB, instance_stream(3, "w/noio/0"))
    assert metrics.page_cache_hits == metrics.page_cache_misses == 0
    assert metrics.syscall_read_count == int(metrics.runtime_ms * 0.5)


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
    assert all(d.verdict is Verdict.NONE for d in result.diagnoses.values())
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


# --- event log oracles: dependency order and capacity safety ---


def event_times(result):
    queued, started, succeeded, finished = {}, {}, {}, {}
    machine_of = {}
    for e in result.event_records:
        if e.kind == "instance_queued":
            queued[e.subject] = e.t_ms
        elif e.kind == "instance_started":
            started[e.subject] = e.t_ms
            machine_of[e.subject] = e.detail.split("machine=", 1)[1]
        elif e.kind == "instance_succeeded":
            succeeded[e.subject] = e.t_ms
            finished[e.subject] = e.t_ms
        elif e.kind == "instance_failed":
            finished[e.subject] = e.t_ms
    return queued, started, succeeded, finished, machine_of


def assert_dependency_order(result):
    queued, started, succeeded, _, _ = event_times(result)
    spec = result.spec
    instances_of = {}
    for inst in result.run.instances:
        instances_of.setdefault(inst.definition, []).append(inst.task_id)
    for a, b in spec.edges:
        a_ids = instances_of.get(a, [])
        for b_id in instances_of.get(b, []):
            if b_id not in queued:
                continue
            assert all(a_id in succeeded for a_id in a_ids)
            barrier = max(succeeded[a_id] for a_id in a_ids) if a_ids else 0
            assert queued[b_id] >= barrier
            if b_id in started:
                assert started[b_id] >= barrier


def assert_capacity_safety_from_log(result, machines):
    """Walk the event log in order, tracking which instances run where, and
    check every sample line against the independently summed load."""
    capacity = {m.machine_id: m.capacity for m in machines}
    requested = {
        inst.task_id: result.spec.definition(inst.definition).requested
        for inst in result.run.instances
    }
    machine_of = {}
    running = set()
    sample_lines = 0
    for e in result.event_records:
        if e.kind == "instance_started":
            machine_of[e.subject] = e.detail.split("machine=", 1)[1]
            running.add(e.subject)
        elif e.kind in ("instance_succeeded", "instance_failed"):
            running.discard(e.subject)
        elif e.kind == "machine_sample":
            sample_lines += 1
            cpus = sum(
                requested[t].cpu_cores
                for t in running
                if machine_of[t] == e.subject
            )
            mem = sum(
                requested[t].memory_bytes
                for t in running
                if machine_of[t] == e.subject
            )
            detail = dict(part.split("=") for part in e.detail.split())
            assert int(detail["cpu"]) == cpus
            assert int(detail["mem"]) == mem
            cap = capacity[e.subject]
            assert cpus <= cap.cpu_cores
            assert mem <= cap.memory_bytes
    assert sample_lines > 0


def test_fig1_satisfies_dependency_and_capacity_oracles():
    result = run_fig1()
    _, machines, _ = fig1_setup()
    assert_dependency_order(result)
    assert_capacity_safety_from_log(result, machines)


def test_randomized_runs_satisfy_safety_oracles():
    rng = random.Random(1717)
    completed = 0
    stuck = 0
    for round_number in range(120):
        spec = random_dag_spec(rng, workflow_id=f"w{round_number}")
        machines = random_cluster(rng)
        biggest = max(m.capacity.cpu_cores for m in machines)
        biggest_mem = max(m.capacity.memory_bytes for m in machines)
        satisfiable = all(
            t.requested.cpu_cores <= biggest and t.requested.memory_bytes <= biggest_mem
            for t in spec.tasks
        )
        try:
            result = run_simulation(
                spec, machines, 1024**4, rng.randint(1, 3), rng.randint(0, 10**6),
                run_id="r", submission_ms=0,
            )
        except NonQuiescentError:
            stuck += 1
            assert not satisfiable
            continue
        completed += 1
        assert satisfiable
        assert result.run.final_state is RunState.SUCCEEDED
        assert_dependency_order(result)
        assert_capacity_safety_from_log(result, machines)
    assert completed >= 60


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
    queued, _, _, _, _ = event_times(result)
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
        metrics = synthesize_metrics(BUILTIN_MODELS["flaky"], GiB, rng)
        should_fail = metrics.failure_draw < BUILTIN_MODELS["flaky"].failure_probability
        assert (record.status == "failed") == should_fail
        failures += should_fail
    assert failures > 0


def test_injection_validation():
    spec, machines, fs_total = fig1_setup()
    simulation = Simulation(spec, machines, fs_total, 4, 42)
    with pytest.raises(TargetUnknownError):
        simulation.inject(FaultInjection(InjectionKind.TASK_OOM, "wf1/II/99"))
    with pytest.raises(TargetUnknownError):
        simulation.inject(FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m99"))
    simulation.run_to_completion()
    with pytest.raises(InjectionInPastError):
        simulation.inject(FaultInjection(InjectionKind.MACHINE_UNHEALTHY, "m2", at_ms=5))
    with pytest.raises(SimulationError):
        simulation.run_to_completion()


def test_on_nth_run_gates_the_injection():
    spec, machines, fs_total = fig1_setup()
    injection = FaultInjection(
        InjectionKind.TASK_NON_ZERO_EXIT, "wf1/I/0", on_nth_run=2
    )
    first = run_simulation(
        spec, machines, fs_total, 4, 42,
        injections=[injection], run_index=1, run_id="r", submission_ms=0,
    )
    second = run_simulation(
        spec, machines, fs_total, 4, 42,
        injections=[injection], run_index=2, run_id="r", submission_ms=0,
    )
    assert first.run.final_state is RunState.SUCCEEDED
    assert second.run.final_state is RunState.FAILED


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
    result = run_scenario(scenario, run_id="r", submission_ms=0)
    assert result.run.final_state is RunState.FAILED
    verdicts = {t: d.verdict for t, d in result.diagnoses.items()}
    assert verdicts["wf1/III/0"] is Verdict.OUT_OF_MEMORY
    assert verdicts["wf1/III/1"] is Verdict.NON_ZERO_EXIT
    machine_kills = {
        t for t, d in result.diagnoses.items() if d.verdict is Verdict.MACHINE_FAILURE
    }
    assert machine_kills == {"wf1/III/4", "wf1/III/5", "wf1/III/6", "wf1/III/7"}
    assert verdicts["wf1/III/2"] is Verdict.NONE
    assert verdicts["wf1/III/3"] is Verdict.NONE


# --- incremental engine state against the naive scans ---


@st.composite
def engine_cases(draw):
    """A random DAG (up to 12 definitions, scatter mixed), a random cluster
    and a random fault script.  Some requests exceed every machine and some
    scripts kill every machine, so stuck runs are drawn too."""
    count = draw(st.integers(1, 12))
    # at most one definition, in about a quarter of the cases, outgrows every machine
    oversized = draw(st.integers(0, 4 * count))
    tasks = tuple(
        TaskDefinition(
            name=f"t{i}",
            scatter=draw(st.booleans()),
            requested=make_request(
                cpus=9 if i == oversized else draw(st.integers(1, 3)),
                mem=draw(st.integers(1, 3)) * GiB,
            ),
            runtime_model=draw(st.sampled_from(("quick", "default", "flaky"))),
        )
        for i in range(count)
    )
    pairs = [(f"t{i}", f"t{j}") for i in range(count) for j in range(i + 1, count)]
    edges = tuple(p for p in pairs if draw(st.integers(0, 99)) < 30)
    spec = WorkflowSpec(workflow_id="pw", tasks=tasks, edges=edges)
    machines = [
        make_machine(
            f"m{i + 1}", cpus=draw(st.integers(2, 8)), mem=draw(st.integers(4, 16)) * GiB
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    input_count = draw(st.integers(1, 4))
    task_ids = [
        f"pw/{t.name}/{k}" for t in tasks for k in range(input_count if t.scatter else 1)
    ]
    injections = []
    for _ in range(draw(st.integers(0, 4))):
        # one draw in four kills a machine, so most runs do not strand
        kind = draw(st.sampled_from(list(InjectionKind) + [InjectionKind.TASK_OOM]))
        if kind is InjectionKind.MACHINE_UNHEALTHY:
            target = draw(st.sampled_from([m.machine_id for m in machines]))
        else:
            target = draw(st.sampled_from(task_ids))
        injections.append(FaultInjection(kind, target, at_ms=draw(st.integers(0, 20000))))
    seed = draw(st.integers(0, 2**16))
    return spec, machines, input_count, seed, draw(st.sampled_from(list(TopologyMode))), injections


def naive_never_eligible(run, spec) -> set[str]:
    """Pending instances of every definition downstream of a failure."""
    failed = {i.definition for i in run.instances if i.state is TaskState.FAILED}
    downstream = set()
    frontier = list(failed)
    while frontier:
        for successor in spec.successors(frontier.pop()):
            if successor not in downstream:
                downstream.add(successor)
                frontier.append(successor)
    return {
        i.task_id
        for i in run.instances
        if i.definition in downstream and i.state is TaskState.PENDING
    }


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases())
def test_incremental_engine_agrees_with_naive_scans(case):
    spec, machines, input_count, seed, topology, injections = case
    simulation = Simulation(
        spec, machines, 10**15, input_count, seed, topology, run_id="p", submission_ms=0
    )
    for injection in injections:
        simulation.inject(injection)
    mismatches = []
    received = []
    fold = ProgressFold()

    def check_progress(event):
        record = fold.step(event)
        if record is None:
            return
        received.append(record)
        if record != workflow_status(simulation.run):
            mismatches.append(record)

    simulation.event_listeners.append(check_progress)
    stuck = None
    try:
        result = simulation.run_to_completion()
    except NonQuiescentError as exc:
        stuck = exc.stuck
    run = simulation.run
    assert mismatches == []
    event_log = "".join(e.line() + "\n" for e in simulation.event_records)
    assert received == simulation.result.progress_records == replay_progress(event_log)
    if stuck is None:
        assert result is simulation.result

    # listeners only observe: a run without one writes the same bytes
    quiet = Simulation(
        spec, machines, 10**15, input_count, seed, topology, run_id="p", submission_ms=0
    )
    for injection in injections:
        quiet.inject(injection)
    try:
        quiet.run_to_completion()
        assert stuck is None
    except NonQuiescentError as exc:
        assert exc.stuck == stuck
    assert "".join(e.line() + "\n" for e in quiet.event_records) == event_log
    assert format_trace_file(quiet.trace_records) == format_trace_file(simulation.trace_records)
    never_eligible = naive_never_eligible(run, spec)
    open_instances = sorted(
        i.task_id
        for i in run.instances
        if not i.state.terminal and i.task_id not in never_eligible
    )
    if stuck is None:
        assert open_instances == []
        assert result.never_eligible == never_eligible
        assert run.final_state is not RunState.RUNNING
        assert run.final_state == resolve_final_state(run, result.never_eligible)
    else:
        assert stuck and stuck == open_instances
    assert ready_tasks(run, spec) == set()

    groups = {}
    for instance in run.instances:
        groups.setdefault(instance.definition, []).append(instance)
    for instance in run.instances:
        if instance.submit_ms is None:
            continue
        predecessors = spec.predecessors(instance.definition)
        expected = max((i.end_ms for p in predecessors for i in groups[p]), default=0)
        assert instance.submit_ms == expected, instance.task_id

    position = {t.name: k for k, t in enumerate(spec.tasks)}
    queued_at = {}
    for event in simulation.event_records:
        if event.kind == "instance_queued":
            definition, index = event.subject.split("/")[1:]
            queued_at.setdefault(event.t_ms, []).append((position[definition], int(index)))
    for order in queued_at.values():
        assert order == sorted(order)


# --- written artifacts read back equal, over random runs ---


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(engine_cases())
def test_artifacts_round_trip_over_random_runs(case):
    spec, machines, input_count, seed, topology, injections = case
    simulation = Simulation(
        spec, machines, 10**15, input_count, seed, topology, run_id="p", submission_ms=0
    )
    for injection in injections:
        simulation.inject(injection)
    try:
        simulation.run_to_completion()
    except NonQuiescentError:
        pass  # a stranded run's artifacts must read back as well
    result = simulation.result
    assert parse_event_log(result.event_log_text()) == result.event_records
    assert parse_trace(result.trace_text()) == result.trace_records
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(Path(tmp) / "runs.jsonl")
        store.append(result.run)
        assert store.load_all() == [result.run]
