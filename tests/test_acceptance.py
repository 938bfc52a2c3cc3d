"""End-to-end acceptance gate.

One test per shipped guarantee.  Each test registers a pass/fail line with the
session-level summary (see conftest), so a bare pytest run ends with one
verdict per criterion.
"""

import dataclasses
import itertools
import json
import random
import threading
import time

import pytest
import requests

from conftest import (
    PROFILE_NAMES,
    GiB,
    load_profile,
    make_machine,
    random_cluster,
    random_dag_spec,
    run_simulation,
)
from oracles import (
    ORACLE_ROWS,
    WORKFLOW_OWNED,
    FirstFitDriver,
    assert_equals_reference,
    oracle_permitted,
    reference_denial,
    reference_run,
)
from stratus.blueprint import (
    ALL_FEATURES,
    ALL_LAYERS,
    LayerId,
    TopologyMode,
    access_allowed,
    classify_capabilities,
    default_access_matrix,
)
from stratus.cli import main
from stratus.fixtures import fixture_path, fixture_text
from stratus.machine import MachineStatus, parse_cluster
from stratus.service import ServiceContext, replay_progress, serve
from stratus.sim import (
    FaultInjection,
    InjectionKind,
    Simulation,
    load_scenario,
    scenario_simulation,
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
from test_blueprint import SYSTEM_EXPECTED
from test_resman import entry, make_rm
from test_taskmon import make_record, random_record


# the paper's grid, by feature name, as reference_denial reads it
GRID = {name: oracle_permitted(name) for name in ORACLE_ROWS}


def test_criterion_01_access_matrix_conformance(acceptance, capsys):
    with acceptance(1, "access matrix matches the four-layer grid"):
        started = time.perf_counter()
        matrix = default_access_matrix()
        for topology in TopologyMode:
            checked = 0
            for feature in ALL_FEATURES:
                for layer in ALL_LAYERS:
                    assert access_allowed(matrix, layer, feature, topology) == (
                        reference_denial(GRID, layer, feature.value, topology) is None
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
            assert len(lines) == 1 + len(ORACLE_ROWS)
            for line in lines[1:]:
                tokens = line.split()
                name, marks = tokens[0], tokens[1:]
                assert len(marks) == len(column_layers)
                for layer, mark in zip(column_layers, marks):
                    allowed = reference_denial(GRID, layer, name, topology) is None
                    assert mark == ("x" if allowed else "·"), (name, layer, topology)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"matrix conformance took {elapsed:.3f}s"


def test_criterion_02_capability_profiles(acceptance):
    with acceptance(2, "bundled system profiles score to recorded counts"):
        started = time.perf_counter()
        assert set(PROFILE_NAMES) == set(SYSTEM_EXPECTED)
        for name, expected in SYSTEM_EXPECTED.items():
            summary = classify_capabilities(load_profile(name))
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


def _completed_context(topology):
    spec = parse_workflow(fixture_text("fig1.wf"))
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    result = run_simulation(
        spec, machines, fs_total, 4, 42, topology, run_id="acc-run", submission_ms=0
    )
    context = ServiceContext(topology)
    context.add_result(result)
    return result, context


def _ask_as_the_manager(context, path: str) -> tuple[int, dict]:
    status, _, body = context.answer(f"{path}?as_layer=resource_manager&subject=acc-run")
    return status, json.loads(body)


def test_criterion_04_topology_gates_workflow_features(acceptance):
    with acceptance(4, "disjoint topology hides workflow features from the manager"):
        result, context = _completed_context(TopologyMode.DISJOINT)
        assert result.resource_manager.running_workflows() == []
        status, body = _ask_as_the_manager(context, "/v1/resource_manager/running_workflows")
        assert (status, body["payload"]) == (200, {"running": []})
        for name in sorted(WORKFLOW_OWNED):
            status, body = _ask_as_the_manager(context, f"/v1/workflow/{name}")
            assert status == 403, (name, body)
            assert set(body) == {"error"}

        _, context = _completed_context(TopologyMode.WORKFLOW_AWARE)
        for name in ("workflow_status", "workflow_specification", "workflow_id"):
            status, body = _ask_as_the_manager(context, f"/v1/workflow/{name}")
            assert status == 200, (name, body)
            assert body["feature"] == name


def test_criterion_05_determinism_at_desk_scale(acceptance):
    with acceptance(5, "byte-identical reruns of a 32-input run in under five seconds"):
        scenario = load_scenario(fixture_path("fig1x32.scenario"))
        timings = []
        results = []
        for run_id in ("a", "b"):
            started = time.perf_counter()
            simulation = scenario_simulation(scenario, run_id=run_id, submission_ms=0)
            results.append(simulation.run_to_completion())
            timings.append(time.perf_counter() - started)
        first, second = results
        assert first.trace_text() == second.trace_text()
        assert first.event_log_text() == second.event_log_text()
        reseeded = scenario_simulation(
            dataclasses.replace(scenario, seed=scenario.seed + 1),
            run_id="c",
            submission_ms=0,
        ).run_to_completion()
        assert reseeded.trace_text() != first.trace_text()
        assert len(first.run.instances) == 4 * 32 + 2
        for elapsed in timings:
            assert elapsed < 5.0, f"desk-scale run took {elapsed:.3f}s"


def test_criterion_06_capacity_safety_against_oracle(acceptance):
    with acceptance(6, "scheduler equals the first-fit oracle and never overcommits"):
        rng = random.Random(4242)
        for round_number in range(200):
            machines = random_cluster(rng, max_machines=4)
            driver = FirstFitDriver(make_rm(machines), machines)
            for machine in machines:
                draw = rng.random()
                if draw < 0.3:
                    status = MachineStatus.UNHEALTHY if draw < 0.2 else MachineStatus.MAINTENANCE
                    driver.set_status(machine.machine_id, status)
            next_id = itertools.count()
            for step in range(3):
                for _ in range(rng.randint(0, 8)):
                    driver.enqueue(*entry(
                        f"t{round_number}_{next(next_id)}",
                        cpus=rng.randint(1, 6),
                        mem=rng.randint(1, 8) * GiB,
                        disk=rng.randint(0, 4) * GiB,
                    ))
                driver.schedule(step)
                for task_id in [t for t in driver.running if rng.random() < 0.4]:
                    driver.release(task_id)


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
            with_children = [d.name for d in spec.tasks if spec.successors(d.name)]
            target_definition = (
                rng.choice(with_children) if with_children else spec.tasks[0].name
            )
            input_count = rng.randint(1, 4)
            fault = FaultInjection(
                InjectionKind.TASK_NON_ZERO_EXIT, f"{spec.workflow_id}/{target_definition}/0"
            )
            result = run_simulation(
                spec, machines, 1024**4, input_count, round_number, injections=[fault],
                run_id="r", submission_ms=0,
            )
            # the reference queues a definition only once every instance of
            # each predecessor succeeded, and never one downstream of a failure
            reference = reference_run(
                spec, machines, input_count, round_number, TopologyMode.WORKFLOW_AWARE, [fault]
            )
            assert_equals_reference(result, [], reference)
            assert result.trace_by_id[fault.target].exit_code == 1
            if result.never_eligible:
                poisoned_rounds += 1
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
        result = scenario_simulation(scenario, run_id="r", submission_ms=0).run_to_completion()
        records = parse_trace(result.trace_text())
        assert records
        verdicts = {}
        for record in records:
            instance = result.instances_by_id[record.task_id]
            requested = result.spec.definition(instance.definition).requested
            status = result.registry.descriptor(instance.machine).status
            verdicts[record.task_id] = diagnose(record, requested, status).verdict
        assert verdicts["wf1/III/0"] is Verdict.OUT_OF_MEMORY
        assert verdicts["wf1/III/1"] is Verdict.NON_ZERO_EXIT
        machine_kills = {t for t, v in verdicts.items() if v is Verdict.MACHINE_FAILURE}
        assert machine_kills == {"wf1/III/4", "wf1/III/5", "wf1/III/6", "wf1/III/7"}
        for task_id, verdict in verdicts.items():
            if task_id not in {"wf1/III/0", "wf1/III/1"} | machine_kills:
                assert verdict is Verdict.NONE, task_id
        assert verdicts == {t: result.diagnosis(t).verdict for t in verdicts}


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
                for r in replay_progress(simulation.result.event_records)
            ]
            assert received == replayed
        finally:
            handle.close()
