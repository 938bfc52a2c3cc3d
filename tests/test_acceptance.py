"""End-to-end acceptance gate.

One test per shipped guarantee.  Each test registers a pass/fail line with the
session-level summary (see conftest), so a bare pytest run ends with one
verdict per criterion.
"""

import dataclasses
import json
import random
import threading
import time

import pytest
import requests

from conftest import GiB, make_machine, random_dag_spec
from stratus.blueprint import (
    ALL_FEATURES,
    ALL_LAYERS,
    FeatureKey,
    LayerId,
    TopologyMode,
    access_allowed,
    classify_capabilities,
    default_access_matrix,
)
from stratus.cli import main
from stratus.fixtures import PROFILE_NAMES, fixture_path, fixture_text, load_all_profiles
from stratus.machine import MachineStatus, ResourceVector, parse_cluster
from stratus.service import ServiceContext, replay_progress, serve
from stratus.sim import (
    FaultInjection,
    InjectionKind,
    Simulation,
    load_scenario,
    run_scenario,
    run_simulation,
)
from stratus.taskmon import (
    TRACE_HEADER,
    FieldCountMismatchError,
    InvariantViolationError,
    MissingHeaderError,
    Verdict,
    diagnose,
    emit_trace,
    format_trace_file,
    parse_trace,
)
from stratus.workflow import expand_instances, export_dot, parse_workflow
from test_resman import entry, make_rm, oracle_first_fit
from test_sim import assert_capacity_safety_from_log, assert_dependency_order, event_times
from test_taskmon import make_record, random_record

# Letter-coded transcription of the permitted-layer table, independent of the
# implementation's own constants (same convention as test_blueprint).
PERMITTED = {
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

LETTERS = {
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

EXPECTED_SCORES = {
    "pegasus": {"resource_manager": (0, 3), "workflow": (5, 6), "machine": (0, 5), "task": (6, 9)},
    "nextflow": {"resource_manager": (0, 3), "workflow": (6, 6), "machine": (0, 5), "task": (6, 9)},
    "airflow": {"resource_manager": (1, 3), "workflow": (6, 6), "machine": (0, 5), "task": (4, 9)},
    "snakemake": {"resource_manager": (0, 3), "workflow": (5, 6), "machine": (0, 5), "task": (6, 9)},
    "argo": {"resource_manager": (1, 3), "workflow": (6, 6), "machine": (0, 5), "task": (5, 9)},
}


def oracle_allowed(feature_name: str, layer: LayerId, topology: TopologyMode) -> bool:
    permitted = {LETTERS[ch] for ch in PERMITTED[feature_name]}
    if (
        topology is TopologyMode.DISJOINT
        and feature_name in WORKFLOW_OWNED
        and layer is LayerId.RESOURCE_MANAGER
    ):
        return False
    return layer in permitted


def test_criterion_01_access_matrix_conformance(acceptance, capsys):
    with acceptance(1, "access matrix matches the four-layer grid"):
        started = time.perf_counter()
        matrix = default_access_matrix()
        for topology in TopologyMode:
            checked = 0
            for feature in ALL_FEATURES:
                for layer in ALL_LAYERS:
                    assert access_allowed(matrix, layer, feature, topology) == oracle_allowed(
                        feature.value, layer, topology
                    ), (feature, layer, topology)
                    checked += 1
            assert checked == 92
        for topology in TopologyMode:
            argv = ["matrix"]
            if topology is TopologyMode.DISJOINT:
                argv += ["--topology", "disjoint"]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            header = lines[0].split()
            assert header[0] == "feature"
            column_layers = [LayerId.from_wire(name) for name in header[1:]]
            assert len(lines) == 1 + len(PERMITTED)
            for line in lines[1:]:
                tokens = line.split()
                name, marks = tokens[0], tokens[1:]
                assert len(marks) == len(column_layers)
                for layer, mark in zip(column_layers, marks):
                    expected = "x" if oracle_allowed(name, layer, topology) else "·"
                    assert mark == expected, (name, layer, topology)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"matrix conformance took {elapsed:.3f}s"


def test_criterion_02_capability_profiles(acceptance):
    with acceptance(2, "bundled system profiles score to recorded counts"):
        started = time.perf_counter()
        profiles = load_all_profiles()
        assert set(profiles) == set(PROFILE_NAMES) == set(EXPECTED_SCORES)
        for name, expected in EXPECTED_SCORES.items():
            summary = classify_capabilities(profiles[name])
            got = {layer.wire_name: counts for layer, counts in summary.per_layer.items()}
            assert got == expected, name
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"capability scoring took {elapsed:.3f}s"


def test_criterion_03_diamond_expansion(acceptance):
    with acceptance(3, "diamond workflow expands to 18 instances and 6 nodes"):
        spec = parse_workflow(fixture_text("fig1.wf"))
        instances = expand_instances(spec, 4)
        assert len(instances) == 18
        per_definition = {}
        for inst in instances:
            per_definition[inst.definition] = per_definition.get(inst.definition, 0) + 1
        assert per_definition == {"I": 4, "II": 4, "III": 4, "IV": 1, "V": 1, "VI": 4}
        dot = export_dot(spec)
        node_lines = [line for line in dot.splitlines() if "[label=" in line]
        assert len(node_lines) == 6


def _serve_completed(topology):
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    result = run_simulation(
        spec, machines, fs_total, 4, 42, topology, run_id="acc-run", submission_ms=0
    )
    context = ServiceContext(topology)
    context.add_result(result)
    return result, serve(context)


def test_criterion_04_topology_gates_workflow_features(acceptance):
    with acceptance(4, "disjoint topology hides workflow features from the manager"):
        result, handle = _serve_completed(TopologyMode.DISJOINT)
        try:
            assert result.resource_manager.running_workflows() == []
            response = requests.get(
                f"{handle.url}/v1/resource_manager/running_workflows",
                params={"as_layer": "resource_manager"},
                timeout=10,
            )
            assert response.status_code == 200
            assert response.json()["payload"] == {"running": []}
            for name in sorted(WORKFLOW_OWNED):
                subject = "wf1" if name == "previous_executions" else "acc-run"
                response = requests.get(
                    f"{handle.url}/v1/workflow/{name}",
                    params={"as_layer": "resource_manager", "subject": subject},
                    timeout=10,
                )
                assert response.status_code == 403, (name, response.text)
                assert set(response.json()) == {"error"}
        finally:
            handle.close()

        result, handle = _serve_completed(TopologyMode.WORKFLOW_AWARE)
        try:
            for name in ("workflow_status", "workflow_specification", "workflow_id"):
                response = requests.get(
                    f"{handle.url}/v1/workflow/{name}",
                    params={"as_layer": "resource_manager", "subject": "acc-run"},
                    timeout=10,
                )
                assert response.status_code == 200, (name, response.text)
                assert response.json()["feature"] == name
        finally:
            handle.close()


def test_criterion_05_determinism_at_desk_scale(acceptance):
    with acceptance(5, "byte-identical reruns of a 32-input run in under five seconds"):
        scenario = load_scenario(fixture_path("fig1x32.scenario"))
        timings = []
        results = []
        for run_id in ("a", "b"):
            started = time.perf_counter()
            results.append(run_scenario(scenario, run_id=run_id, submission_ms=0))
            timings.append(time.perf_counter() - started)
        first, second = results
        assert first.trace_text() == second.trace_text()
        assert first.event_log_text() == second.event_log_text()
        reseeded = run_scenario(
            dataclasses.replace(scenario, seed=scenario.seed + 1),
            run_id="c",
            submission_ms=0,
        )
        assert reseeded.trace_text() != first.trace_text()
        assert len(first.run.instances) == 4 * 32 + 2
        for elapsed in timings:
            assert elapsed < 5.0, f"desk-scale run took {elapsed:.3f}s"


def test_criterion_06_capacity_safety_against_oracle(acceptance):
    with acceptance(6, "scheduler equals the first-fit oracle and never overcommits"):
        rng = random.Random(4242)
        for round_number in range(200):
            machine_count = rng.randint(1, 4)
            machines = [
                make_machine(
                    f"m{i + 1}",
                    cpus=rng.randint(2, 8),
                    mem=rng.randint(4, 16) * GiB,
                    disk=rng.randint(20, 100) * GiB,
                )
                for i in range(machine_count)
            ]
            rm = make_rm(machines)
            unhealthy = {m.machine_id for m in machines if rng.random() < 0.2}
            for machine_id in unhealthy:
                rm.registry.set_status(machine_id, MachineStatus.UNHEALTHY)
            ordered = [
                (m.machine_id, m.capacity, m.machine_id not in unhealthy)
                for m in sorted(machines, key=lambda d: d.machine_id)
            ]
            capacity = {m.machine_id: m.capacity for m in machines}
            reserved = {m.machine_id: ResourceVector(0, 0, 0) for m in machines}
            need_of = {}
            pending = []
            running = {}
            next_id = 0
            for step in range(3):
                for _ in range(rng.randint(0, 8)):
                    e = entry(
                        f"t{round_number}_{next_id}",
                        cpus=rng.randint(1, 6),
                        mem=rng.randint(1, 8) * GiB,
                        disk=rng.randint(0, 4) * GiB,
                        t=step,
                    )
                    next_id += 1
                    rm.enqueue(e)
                    need = ResourceVector(
                        e.requested.cpu_cores, e.requested.memory_bytes, e.requested.disk_bytes
                    )
                    need_of[e.task_id] = need
                    pending.append((e.task_id, need))
                expected, leftover = oracle_first_fit(pending, ordered, reserved)
                assert rm.schedule(step) == expected
                for task_id, machine_id in expected:
                    reserved[machine_id] = reserved[machine_id].plus(need_of[task_id])
                    running[task_id] = machine_id
                pending = [(task_id, need_of[task_id]) for task_id in leftover]
                for machine in machines:
                    r = rm.reserved_on(machine.machine_id)
                    assert r == reserved[machine.machine_id]
                    assert r.fits_within(machine.capacity)
                    assert min(r.cpu_cores, r.memory_bytes, r.disk_bytes) >= 0
                for task_id in [t for t in running if rng.random() < 0.4]:
                    machine_id = running.pop(task_id)
                    rm.release(task_id, wchar_bytes=0)
                    reserved[machine_id] = reserved[machine_id].minus(need_of[task_id])
                    assert rm.reserved_on(machine_id).fits_within(capacity[machine_id])


def _descendants(spec, root):
    children = {}
    for a, b in spec.edges:
        children.setdefault(a, set()).add(b)
    seen = set()
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def test_criterion_07_dependency_order_and_poisoning(acceptance):
    with acceptance(7, "dependency barriers hold and failures poison descendants"):
        rng = random.Random(9090)
        poisoned_rounds = 0
        for round_number in range(40):
            spec = random_dag_spec(rng, workflow_id=f"w{round_number}", max_tasks=7)
            machines = [
                make_machine(f"m{i + 1}", cpus=rng.randint(4, 8), mem=rng.randint(8, 16) * GiB)
                for i in range(rng.randint(1, 3))
            ]
            with_children = [
                d.name for d in spec.tasks if _descendants(spec, d.name)
            ]
            target_definition = (
                rng.choice(with_children) if with_children else spec.tasks[0].name
            )
            input_count = rng.randint(1, 4)
            result = run_simulation(
                spec,
                machines,
                1024**4,
                input_count,
                seed=round_number,
                injections=[
                    FaultInjection(
                        kind=InjectionKind.TASK_NON_ZERO_EXIT,
                        target=f"{spec.workflow_id}/{target_definition}/0",
                        at_ms=0,
                    )
                ],
                run_id="r",
                submission_ms=0,
            )
            assert_dependency_order(result)
            assert_capacity_safety_from_log(result, machines)
            queued, _, _, _, _ = event_times(result)
            failed = {
                e.subject for e in result.event_records if e.kind == "instance_failed"
            }
            assert any(task.startswith(f"{spec.workflow_id}/{target_definition}/") for task in failed)
            poisoned_definitions = set()
            for task_id in failed:
                poisoned_definitions |= _descendants(spec, task_id.split("/")[1])
            if poisoned_definitions:
                poisoned_rounds += 1
            downstream = [
                inst.task_id
                for inst in result.run.instances
                if inst.definition in poisoned_definitions
            ]
            for task_id in downstream:
                assert task_id not in queued, task_id
                assert task_id in result.never_eligible
        assert poisoned_rounds >= 20


def test_criterion_08_trace_round_trip(acceptance):
    with acceptance(8, "ten thousand trace records survive emit and parse"):
        rng = random.Random(20_26)
        records = [random_record(rng) for _ in range(10_000)]
        assert parse_trace(format_trace_file(records)) == records

        good = emit_trace(make_record())
        with pytest.raises(FieldCountMismatchError) as err:
            parse_trace(TRACE_HEADER + "\n" + good + "\n" + good + "\textra\n")
        assert err.value.line == 3
        bad = good.split("\t")
        bad[7] = "fast"
        with pytest.raises(InvariantViolationError) as err:
            parse_trace(TRACE_HEADER + "\n" + good + "\n" + "\t".join(bad) + "\n")
        assert err.value.line == 3
        with pytest.raises(MissingHeaderError):
            parse_trace(good + "\n")


def test_criterion_09_fault_diagnosis_end_to_end(acceptance):
    with acceptance(9, "injected faults diagnose correctly from the trace file"):
        scenario = load_scenario(fixture_path("faults.scenario"))
        result = run_scenario(scenario, run_id="r", submission_ms=0)
        records = parse_trace(result.trace_text())
        assert records
        _, _, _, _, machine_of = event_times(result)
        verdicts = {}
        for record in records:
            definition = record.task_id.split("/")[1]
            requested = result.spec.definition(definition).requested
            status = result.registry.descriptor(machine_of[record.task_id]).status
            verdicts[record.task_id] = diagnose(record, requested, status).verdict
        assert verdicts["wf1/III/0"] is Verdict.OUT_OF_MEMORY
        assert verdicts["wf1/III/1"] is Verdict.NON_ZERO_EXIT
        machine_kills = {t for t, v in verdicts.items() if v is Verdict.MACHINE_FAILURE}
        assert machine_kills == {"wf1/III/4", "wf1/III/5", "wf1/III/6", "wf1/III/7"}
        for task_id, verdict in verdicts.items():
            if task_id not in {"wf1/III/0", "wf1/III/1"} | machine_kills:
                assert verdict is Verdict.NONE, task_id
        assert verdicts == {t: d.verdict for t, d in result.diagnoses.items()}


def test_criterion_10_live_stream_equals_replay(acceptance):
    with acceptance(10, "live progress stream equals post-hoc replay"):
        spec = parse_workflow(fixture_text("fig1.wf"))
        machines, fs_total = parse_cluster(fixture_text("two.cluster"))
        simulation = Simulation(
            spec, machines, fs_total, 4, 42, run_id="acc-live", submission_ms=0
        )
        simulation.event_listeners.append(lambda event: time.sleep(0.002))
        context = ServiceContext(TopologyMode.WORKFLOW_AWARE)
        context.attach_live(simulation)
        handle = serve(context)
        received = []
        arrival_times = []

        def consume():
            response = requests.get(
                f"{handle.url}/v1/workflow/live_progress",
                params={"as_layer": "workflow", "subject": "acc-live"},
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
            assert arrival_times and arrival_times[0] < engine_done
            replayed = [
                {
                    "state": r.state.value,
                    "finished": r.finished,
                    "total": r.total,
                    "progress": r.progress,
                    "failures": r.failures,
                }
                for r in replay_progress(simulation.event_records)
            ]
            assert received == replayed
        finally:
            handle.close()
